use std::fmt;

/// A growable vector of bits, stored 64 per word.
///
/// Bit `0` is the first bit pushed. Within the backing words, bit `i` lives
/// at word `i / 64`, bit offset `i % 64` (LSB-first inside a word); the
/// logical stream order is defined entirely by the index, so consumers never
/// need to care about word layout.
///
/// `BitVec` is the unit of account for every space bound in this workspace:
/// a routing scheme's size *is* the sum of the lengths of its per-node
/// `BitVec`s.
///
/// # Example
///
/// ```
/// use ort_bitio::BitVec;
///
/// let mut bv = BitVec::new();
/// bv.push(true);
/// bv.push(false);
/// bv.push(true);
/// assert_eq!(bv.len(), 3);
/// assert_eq!(bv.get(0), Some(true));
/// assert_eq!(bv.get(1), Some(false));
/// assert_eq!(bv.get(3), None);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    #[must_use]
    pub fn new() -> Self {
        BitVec { words: Vec::new(), len: 0 }
    }

    /// Creates an empty bit vector with room for `bits` bits.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        BitVec { words: Vec::with_capacity(bits.div_ceil(64)), len: 0 }
    }

    /// Creates a bit vector of `len` zero bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        BitVec { words: vec![0; len.div_ceil(64)], len }
    }

    /// Builds a bit vector from a slice of booleans, in order.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bv = BitVec::with_capacity(bits.len());
        for &b in bits {
            bv.push(b);
        }
        bv
    }

    /// Parses a bit vector from an ASCII string of `'0'` and `'1'`.
    ///
    /// Characters other than `0`/`1` (such as spaces or underscores) are
    /// ignored, which makes literals in tests readable.
    ///
    /// # Example
    ///
    /// ```
    /// let bv = ort_bitio::BitVec::from_bit_str("1101 0001");
    /// assert_eq!(bv.len(), 8);
    /// assert_eq!(bv.get(2), Some(false));
    /// ```
    #[must_use]
    pub fn from_bit_str(s: &str) -> Self {
        let mut bv = BitVec::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => bv.push(false),
                '1' => bv.push(true),
                _ => {}
            }
        }
        bv
    }

    /// Number of bits stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let off = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << off;
        }
        self.len += 1;
    }

    /// Appends the low `width` bits of `word` in one or two word
    /// operations, bit 0 of `word` first. Bits of `word` above `width`
    /// must be zero, which keeps the bits past `len()` zero.
    pub(crate) fn push_word(&mut self, word: u64, width: u32) {
        debug_assert!(width <= 64 && (width == 64 || word >> width == 0));
        if width == 0 {
            return;
        }
        let off = self.len % 64;
        if off == 0 {
            self.words.push(word);
        } else {
            *self.words.last_mut().expect("a partial word is open") |= word << off;
            if off + width as usize > 64 {
                self.words.push(word >> (64 - off));
            }
        }
        self.len += width as usize;
    }

    /// The `width` bits starting at `pos`, bit `pos` in the result's bit
    /// 0, read with one or two word operations. The caller ensures
    /// `pos + width <= len()`.
    pub(crate) fn word_at(&self, pos: usize, width: u32) -> u64 {
        debug_assert!(width <= 64 && pos + width as usize <= self.len);
        if width == 0 {
            return 0;
        }
        let (i, off) = (pos / 64, pos % 64);
        let mut word = self.words[i] >> off;
        if off + width as usize > 64 {
            word |= self.words[i + 1] << (64 - off);
        }
        if width < 64 {
            word & ((1u64 << width) - 1)
        } else {
            word
        }
    }

    /// Returns bit `i`, or `None` if out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        Some((self.words[i / 64] >> (i % 64)) & 1 == 1)
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit index {i} out of range for BitVec of len {}", self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Overwrites bits `pos..pos + width` with the low `width` bits of
    /// `value`, MSB first — the field [`crate::BitWriter::write_bits`]
    /// appends, written in place with one or two word operations. Width 0
    /// writes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, if `value` does not fit in `width` bits, or
    /// if the field runs past `len()`.
    pub fn write_bits_at(&mut self, pos: usize, value: u64, width: u32) {
        assert!(
            width <= 64 && (width == 64 || value >> width == 0),
            "{value} does not fit {width} bits"
        );
        assert!(
            pos + width as usize <= self.len,
            "field {pos}+{width} out of range for BitVec of len {}",
            self.len
        );
        if width == 0 {
            return;
        }
        let bits = value.reverse_bits() >> (64 - width);
        let mask = u64::MAX >> (64 - width);
        let (i, off) = (pos / 64, pos % 64);
        self.words[i] = (self.words[i] & !(mask << off)) | (bits << off);
        if off + width as usize > 64 {
            let done = 64 - off;
            self.words[i + 1] = (self.words[i + 1] & !(mask >> done)) | (bits >> done);
        }
    }

    /// Appends all bits of `other`, preserving order.
    pub fn extend_from(&mut self, other: &BitVec) {
        for b in other.iter() {
            self.push(b);
        }
    }

    /// Number of one-bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bv: self, pos: 0 }
    }

    /// Collects the bits into a `Vec<bool>`.
    #[must_use]
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Returns the sub-vector of bits `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or decreasing.
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> BitVec {
        assert!(range.start <= range.end && range.end <= self.len, "slice {range:?} out of range");
        let mut out = BitVec::with_capacity(range.len());
        for i in range {
            out.push(self.get(i).expect("index checked above"));
        }
        out
    }

    /// The backing 64-bit words, LSB-first within each word. Bits past
    /// `len()` in the last word are guaranteed zero (the canonical form
    /// `truncate` maintains), so word-parallel consumers — e.g. the bitset
    /// BFS engine, which ORs adjacency rows — can operate on whole words
    /// without masking the tail.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Truncates to the first `len` bits (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.words.truncate(len.div_ceil(64));
        // Clear the tail of the last word so Eq/Hash stay canonical.
        let rem = len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

impl Extend<bool> for BitVec {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitVec`], produced by [`BitVec::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bv: &'a BitVec,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        let b = self.bv.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.bv.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown = self.len.min(96);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i).expect("in range")))?;
        }
        if shown < self.len {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut bv = BitVec::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 200);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), Some(b), "bit {i}");
        }
        assert_eq!(bv.get(200), None);
    }

    #[test]
    fn set_overwrites() {
        let mut bv = BitVec::zeros(130);
        bv.set(0, true);
        bv.set(64, true);
        bv.set(129, true);
        assert_eq!(bv.count_ones(), 3);
        bv.set(64, false);
        assert_eq!(bv.count_ones(), 2);
        assert_eq!(bv.get(64), Some(false));
    }

    #[test]
    fn write_bits_at_overwrites_one_field_msb_first() {
        let ones = BitVec::from_bools(&[true; 130]);
        // Width 0 writes nothing, even at the very end.
        let mut bv = ones.clone();
        bv.write_bits_at(130, 0, 0);
        bv.write_bits_at(7, 0, 0);
        assert_eq!(bv, ones);
        // Width 1 clears exactly one bit and sets it again.
        bv.write_bits_at(64, 0, 1);
        assert_eq!(bv.count_ones(), 129);
        assert_eq!(bv.get(64), Some(false));
        bv.write_bits_at(64, 1, 1);
        assert_eq!(bv, ones);
        // A field across the word boundary at bit 64: 0b10011 puts its
        // top bit first, at 61, and its last at 65; the rest is untouched.
        let mut bv = BitVec::zeros(130);
        bv.write_bits_at(61, 0b10011, 5);
        let set: Vec<usize> = (0..130).filter(|&i| bv.get(i) == Some(true)).collect();
        assert_eq!(set, [61, 64, 65]);
        let mut bv = ones.clone();
        bv.write_bits_at(61, 0b01100, 5);
        let clear: Vec<usize> = (0..130).filter(|&i| bv.get(i) == Some(false)).collect();
        assert_eq!(clear, [61, 64, 65]);
        // A whole 64-bit field straddling two words, read back in order.
        let mut bv = BitVec::zeros(130);
        bv.write_bits_at(33, 0x8000_0000_0000_0001, 64);
        assert_eq!(bv.count_ones(), 2);
        assert_eq!((bv.get(33), bv.get(96)), (Some(true), Some(true)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_bits_at_past_the_end_panics() {
        BitVec::zeros(70).write_bits_at(66, 0, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut bv = BitVec::zeros(10);
        bv.set(10, true);
    }

    #[test]
    fn from_bools_and_iter_agree() {
        let pattern: Vec<bool> = (0..77).map(|i| (i * i) % 5 < 2).collect();
        let bv = BitVec::from_bools(&pattern);
        assert_eq!(bv.to_bools(), pattern);
        assert_eq!(bv.iter().len(), 77);
    }

    #[test]
    fn from_bit_str_ignores_separators() {
        let bv = BitVec::from_bit_str("10 1_1");
        assert_eq!(bv.to_bools(), vec![true, false, true, true]);
    }

    #[test]
    fn extend_from_concatenates() {
        let a = BitVec::from_bit_str("101");
        let b = BitVec::from_bit_str("0011");
        let mut c = a.clone();
        c.extend_from(&b);
        assert_eq!(c.to_string(), "1010011");
    }

    #[test]
    fn slice_extracts_range() {
        let bv = BitVec::from_bit_str("110100111");
        assert_eq!(bv.slice(2..6).to_string(), "0100");
        assert_eq!(bv.slice(0..0).len(), 0);
        assert_eq!(bv.slice(0..bv.len()), bv);
    }

    #[test]
    fn truncate_keeps_eq_canonical() {
        let mut a = BitVec::from_bools(&[true; 100]);
        a.truncate(65);
        let b = BitVec::from_bools(&[true; 65]);
        assert_eq!(a, b);
        assert_eq!(a.count_ones(), 65);
    }

    #[test]
    fn eq_ignores_capacity_history() {
        let mut a = BitVec::with_capacity(1000);
        a.push(true);
        let b = BitVec::from_bools(&[true]);
        assert_eq!(a, b);
    }

    #[test]
    fn display_shows_bits() {
        let bv = BitVec::from_bit_str("10110");
        assert_eq!(bv.to_string(), "10110");
        assert!(format!("{bv:?}").contains("10110"));
    }

    #[test]
    fn collect_from_iterator() {
        let bv: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(bv.len(), 10);
        assert_eq!(bv.count_ones(), 5);
    }
}
