//! Fixed-width fields against a bit-at-a-time reference.
//!
//! `BitWriter::write_bits` and `BitReader::read_bits` move a field with one
//! or two word operations. This checks both, bit for bit, against single-bit
//! pushes and reads for every width 0..=64 starting at every offset
//! 0..=127 — so every way a field can sit in, or straddle, a 64-bit word.

use ort_bitio::{BitReader, BitVec, BitWriter, CodeError};

/// Field values for `width`: zero, all ones, alternating bits and a mixed
/// pattern, each cut to `width` bits.
fn values(width: u32) -> [u64; 4] {
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    [0, mask, 0xAAAA_AAAA_AAAA_AAAA & mask, 0x9E37_79B9_7F4A_7C15 & mask]
}

/// Bit `i` of the irregular prefix the field is written after.
fn prefix_bit(i: usize) -> bool {
    (i * 7 + i / 3) % 5 < 2
}

const TRAILER: [bool; 3] = [true, false, true];

#[test]
fn fixed_width_io_matches_bit_at_a_time_reference() {
    for width in 0..=64u32 {
        for offset in 0..=127usize {
            for value in values(width) {
                let at = format!("width {width}, offset {offset}, value {value:#x}");
                // The stream: prefix, field, trailer — once through the
                // writer, once pushed a bit at a time.
                let mut w = BitWriter::new();
                let mut reference = BitVec::new();
                for i in 0..offset {
                    w.write_bit(prefix_bit(i));
                    reference.push(prefix_bit(i));
                }
                w.write_bits(value, width).unwrap();
                for i in (0..width).rev() {
                    reference.push((value >> i) & 1 == 1);
                }
                w.write_bits(0b101, 3).unwrap();
                for b in TRAILER {
                    reference.push(b);
                }
                // `BitVec` equality compares whole words, so this also
                // checks that the bits past the end stay zero.
                assert_eq!(w.finish(), reference, "write: {at}");

                let mut expect = 0u64;
                for i in 0..width as usize {
                    expect = (expect << 1) | u64::from(reference.get(offset + i).unwrap());
                }
                assert_eq!(expect, value, "reference: {at}");
                let mut r = BitReader::new(&reference);
                r.seek(offset).unwrap();
                assert_eq!(r.read_bits(width).unwrap(), expect, "read: {at}");
                assert_eq!(r.position(), offset + width as usize, "cursor: {at}");
                assert_eq!(r.read_bits(3).unwrap(), 0b101, "trailer: {at}");

                // A field one bit longer than what is left fails without
                // moving the cursor.
                let len = reference.len();
                let start = len - width as usize;
                r.seek(start).unwrap();
                if width < 64 {
                    assert_eq!(
                        r.read_bits(width + 1),
                        Err(CodeError::UnexpectedEnd { position: len }),
                        "short read: {at}"
                    );
                    assert_eq!(r.position(), start, "cursor after short read: {at}");
                }
            }
        }
    }
}

#[test]
fn fixed_width_errors_are_unchanged() {
    let mut w = BitWriter::new();
    assert_eq!(
        w.write_bits(0, 65),
        Err(CodeError::Overflow { what: "fixed width exceeds 64 bits" })
    );
    for width in 0..64 {
        assert_eq!(
            w.write_bits(1u64 << width, width),
            Err(CodeError::Overflow { what: "value does not fit fixed width" }),
            "width {width}"
        );
    }
    assert!(w.is_empty());
    let bits = BitVec::from_bit_str("1011");
    let mut r = BitReader::new(&bits);
    assert_eq!(r.read_bits(65), Err(CodeError::Overflow { what: "fixed width exceeds 64 bits" }));
    assert_eq!(r.read_bits(5), Err(CodeError::UnexpectedEnd { position: 4 }));
    assert_eq!(r.position(), 0);
}

#[test]
fn packed_fields_match_one_write_per_field() {
    for width in 0..=64u32 {
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        for offset in 0..=64usize {
            for count in [0usize, 1, 2, 63, 64, 65, 130] {
                let at = format!("width {width}, offset {offset}, count {count}");
                let fields: Vec<u64> = (0..count as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32) & mask)
                    .collect();
                let mut packed = BitWriter::new();
                let mut reference = BitWriter::new();
                for i in 0..offset {
                    packed.write_bit(prefix_bit(i));
                    reference.write_bit(prefix_bit(i));
                }
                packed.write_fields(fields.iter().copied(), width).unwrap();
                for &v in &fields {
                    reference.write_bits(v, width).unwrap();
                }
                packed.write_bits(0b101, 3).unwrap();
                reference.write_bits(0b101, 3).unwrap();
                assert_eq!(packed.finish(), reference.finish(), "{at}");
            }
        }
    }
    // The first field that does not fit stops the write, and the fields
    // before it stay written.
    let mut w = BitWriter::new();
    assert_eq!(
        w.write_fields([1, 2, 4, 1], 2),
        Err(CodeError::Overflow { what: "value does not fit fixed width" })
    );
    assert_eq!(w.finish().to_string(), "0110");
    let mut w = BitWriter::new();
    assert_eq!(
        w.write_fields([0], 65),
        Err(CodeError::Overflow { what: "fixed width exceeds 64 bits" })
    );
}

#[test]
fn in_place_fields_match_a_bit_at_a_time_rewrite() {
    for width in 0..=64u32 {
        for offset in 0..=127usize {
            for value in values(width) {
                let at = format!("width {width}, offset {offset}, value {value:#x}");
                // Prefix, an all-ones field, trailer; then the field is
                // overwritten in place and must read as if pushed so.
                let mut bits = BitVec::new();
                let mut reference = BitVec::new();
                for i in 0..offset {
                    bits.push(prefix_bit(i));
                    reference.push(prefix_bit(i));
                }
                for i in (0..width).rev() {
                    bits.push(true);
                    reference.push((value >> i) & 1 == 1);
                }
                for b in TRAILER {
                    bits.push(b);
                    reference.push(b);
                }
                bits.write_bits_at(offset, value, width);
                assert_eq!(bits, reference, "{at}");
            }
        }
    }
}
