use crate::{BitVec, CodeError};

/// Sequential bit writer producing a [`BitVec`].
///
/// Multi-bit integers are written MSB-first, so a fixed-width field reads
/// naturally when the stream is printed.
///
/// # Example
///
/// ```
/// use ort_bitio::BitWriter;
///
/// # fn main() -> Result<(), ort_bitio::CodeError> {
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3)?;
/// w.write_unary(2)?;
/// assert_eq!(w.finish().to_string(), "101110");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bits: BitVec,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        BitWriter { bits: BitVec::new() }
    }

    /// Creates a writer with capacity for `bits` bits.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        BitWriter { bits: BitVec::with_capacity(bits) }
    }

    /// Number of bits written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Writes the low `width` bits of `value`, MSB first.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::Overflow`] if `value` does not fit in `width`
    /// bits, or if `width > 64`.
    pub fn write_bits(&mut self, value: u64, width: u32) -> Result<(), CodeError> {
        if width > 64 {
            return Err(CodeError::Overflow { what: "fixed width exceeds 64 bits" });
        }
        if width < 64 && value >= (1u64 << width) {
            return Err(CodeError::Overflow { what: "value does not fit fixed width" });
        }
        if width > 0 {
            // MSB-first: the value's top bit becomes the first bit written.
            self.bits.push_word(value.reverse_bits() >> (64 - width), width);
        }
        Ok(())
    }

    /// Writes each of `values` in `width` bits, MSB first — the bits one
    /// [`BitWriter::write_bits`] call per value would write — packed into
    /// whole words before they are appended, so a run of narrow fields
    /// costs one word append per 64 bits.
    ///
    /// # Errors
    ///
    /// As [`BitWriter::write_bits`], for the first value that does not
    /// fit; the values before it are written.
    pub fn write_fields(
        &mut self,
        values: impl IntoIterator<Item = u64>,
        width: u32,
    ) -> Result<(), CodeError> {
        if width == 0 || width == 64 {
            // No packing to do: zero-width fields write nothing, and
            // 64-bit ones are whole words already.
            return values.into_iter().try_for_each(|v| self.write_bits(v, width));
        }
        if width > 64 {
            return Err(CodeError::Overflow { what: "fixed width exceeds 64 bits" });
        }
        // `word` holds the next `fill` stream bits, LSB first.
        let (mut word, mut fill) = (0u64, 0u32);
        let mut result = Ok(());
        for value in values {
            if value >> width != 0 {
                result = Err(CodeError::Overflow { what: "value does not fit fixed width" });
                break;
            }
            let bits = value.reverse_bits() >> (64 - width);
            word |= bits << fill;
            fill += width;
            if fill >= 64 {
                self.bits.push_word(word, 64);
                fill -= 64;
                // The `fill` bits of this value that did not fit.
                word = bits >> (width - fill);
            }
        }
        self.bits.push_word(word, fill);
        result
    }

    /// Writes `k` in unary as `1^k 0` (the paper's unary code used by the
    /// Theorem 1 first routing table).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::Overflow`] if `k` is absurdly large (> 2³²),
    /// which would indicate a logic error upstream.
    pub fn write_unary(&mut self, k: u64) -> Result<(), CodeError> {
        if k > u64::from(u32::MAX) {
            return Err(CodeError::Overflow { what: "unary length exceeds 2^32" });
        }
        for _ in 0..k {
            self.bits.push(true);
        }
        self.bits.push(false);
        Ok(())
    }

    /// Appends an entire bit vector.
    pub fn write_bitvec(&mut self, bv: &BitVec) {
        self.bits.extend_from(bv);
    }

    /// Consumes the writer and returns the written bits.
    #[must_use]
    pub fn finish(self) -> BitVec {
        self.bits
    }
}

impl From<BitWriter> for BitVec {
    fn from(w: BitWriter) -> BitVec {
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_bits_is_msb_first() {
        let mut w = BitWriter::new();
        w.write_bits(0b1101, 4).unwrap();
        assert_eq!(w.finish().to_string(), "1101");
    }

    #[test]
    fn write_bits_zero_width_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0).unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn write_bits_rejects_overflow() {
        let mut w = BitWriter::new();
        assert!(matches!(w.write_bits(4, 2), Err(CodeError::Overflow { .. })));
        assert!(matches!(w.write_bits(0, 65), Err(CodeError::Overflow { .. })));
        // Full width accepts anything.
        w.write_bits(u64::MAX, 64).unwrap();
        assert_eq!(w.len(), 64);
    }

    #[test]
    fn unary_code_shape() {
        let mut w = BitWriter::new();
        w.write_unary(0).unwrap();
        w.write_unary(3).unwrap();
        assert_eq!(w.finish().to_string(), "01110");
    }

    #[test]
    fn write_bitvec_appends() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bitvec(&BitVec::from_bit_str("001"));
        assert_eq!(w.finish().to_string(), "1001");
    }
}
