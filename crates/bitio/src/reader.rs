use crate::{BitVec, CodeError};

/// Sequential bit reader over a [`BitVec`].
///
/// The reader tracks a cursor; every decoder in this workspace consumes
/// exactly the bits its encoder produced, which the round-trip tests verify
/// by checking the final cursor position.
///
/// # Example
///
/// ```
/// use ort_bitio::{BitVec, BitReader};
///
/// # fn main() -> Result<(), ort_bitio::CodeError> {
/// let bits = BitVec::from_bit_str("101110");
/// let mut r = BitReader::new(&bits);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_unary()?, 2);
/// assert!(r.is_at_end());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a BitVec,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    #[must_use]
    pub fn new(bits: &'a BitVec) -> Self {
        BitReader { bits, pos: 0 }
    }

    /// Current cursor position in bits.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of unread bits.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Whether every bit has been consumed.
    #[must_use]
    pub fn is_at_end(&self) -> bool {
        self.pos == self.bits.len()
    }

    /// Moves the cursor to an absolute bit position.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEnd`] if `pos` is past the end.
    pub fn seek(&mut self, pos: usize) -> Result<(), CodeError> {
        if pos > self.bits.len() {
            return Err(CodeError::UnexpectedEnd { position: pos });
        }
        self.pos = pos;
        Ok(())
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEnd`] at end of stream.
    pub fn read_bit(&mut self) -> Result<bool, CodeError> {
        let b = self
            .bits
            .get(self.pos)
            .ok_or(CodeError::UnexpectedEnd { position: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `width` bits MSB-first into a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::Overflow`] if `width > 64`, or
    /// [`CodeError::UnexpectedEnd`] if the stream is too short.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, CodeError> {
        if width > 64 {
            return Err(CodeError::Overflow { what: "fixed width exceeds 64 bits" });
        }
        if self.remaining() < width as usize {
            return Err(CodeError::UnexpectedEnd { position: self.bits.len() });
        }
        if width == 0 {
            return Ok(0);
        }
        // MSB-first: the first bit read becomes the value's top bit.
        let v = self.bits.word_at(self.pos, width).reverse_bits() >> (64 - width);
        self.pos += width as usize;
        Ok(v)
    }

    /// Reads a unary code `1^k 0` and returns `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEnd`] if the terminating `0` is missing.
    pub fn read_unary(&mut self) -> Result<u64, CodeError> {
        let mut k = 0u64;
        loop {
            if !self.read_bit()? {
                return Ok(k);
            }
            k += 1;
        }
    }

    /// Reads `len` raw bits into a new [`BitVec`].
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEnd`] if fewer than `len` bits remain.
    pub fn read_bitvec(&mut self, len: usize) -> Result<BitVec, CodeError> {
        if self.remaining() < len {
            return Err(CodeError::UnexpectedEnd { position: self.bits.len() });
        }
        let mut out = BitVec::with_capacity(len);
        for _ in 0..len {
            out.push(self.read_bit()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_bits_msb_first() {
        let bits = BitVec::from_bit_str("110100");
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_bits(4).unwrap(), 0b1101);
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn read_past_end_errors() {
        let bits = BitVec::from_bit_str("1");
        let mut r = BitReader::new(&bits);
        r.read_bit().unwrap();
        assert!(matches!(r.read_bit(), Err(CodeError::UnexpectedEnd { .. })));
        assert!(matches!(r.read_bits(1), Err(CodeError::UnexpectedEnd { .. })));
    }

    #[test]
    fn unary_roundtrip_and_missing_terminator() {
        let bits = BitVec::from_bit_str("1110");
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_unary().unwrap(), 3);

        let bad = BitVec::from_bit_str("111");
        let mut r = BitReader::new(&bad);
        assert!(matches!(r.read_unary(), Err(CodeError::UnexpectedEnd { .. })));
    }

    #[test]
    fn seek_and_position() {
        let bits = BitVec::from_bit_str("10101");
        let mut r = BitReader::new(&bits);
        r.seek(3).unwrap();
        assert_eq!(r.position(), 3);
        assert_eq!(r.read_bits(2).unwrap(), 0b01);
        assert!(r.is_at_end());
        assert!(r.seek(6).is_err());
    }

    #[test]
    fn read_bitvec_extracts_segment() {
        let bits = BitVec::from_bit_str("1101001");
        let mut r = BitReader::new(&bits);
        r.read_bit().unwrap();
        let seg = r.read_bitvec(4).unwrap();
        assert_eq!(seg.to_string(), "1010");
        assert_eq!(r.position(), 5);
        assert!(r.read_bitvec(5).is_err());
    }

    #[test]
    fn zero_width_read_is_zero() {
        let bits = BitVec::new();
        let mut r = BitReader::new(&bits);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }
}
