//! Bit-packed INT4 storage — the wire/DRAM format of the Screener's
//! weights and activations.
//!
//! The ENMC DIMM stores screening operands as signed 4-bit codes, two per
//! byte (low nibble first). [`PackedInt4`] is that exact memory image with
//! safe accessors, so the functional DIMM model, the host runtime and any
//! serialization share one canonical packing.

use crate::quant::Precision;

/// A sequence of signed 4-bit values packed two per byte.
///
/// # Example
///
/// ```
/// use enmc_tensor::packed::PackedInt4;
/// let p = PackedInt4::from_codes(&[-8, 7, 3]);
/// assert_eq!(p.get(0), -8);
/// assert_eq!(p.to_codes(), vec![-8, 7, 3]);
/// assert_eq!(p.as_bytes().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedInt4 {
    bytes: Vec<u8>,
    len: usize,
}

impl PackedInt4 {
    /// Packs signed codes; each must be in `[-8, 7]`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if a code is out of the 4-bit range.
    pub fn from_codes(codes: &[i8]) -> Self {
        let mut bytes = vec![0u8; codes.len().div_ceil(2)];
        for (i, &c) in codes.iter().enumerate() {
            debug_assert!((-8..=7).contains(&c), "code {c} out of INT4 range");
            let nibble = (c as u8) & 0x0f;
            if i % 2 == 0 {
                bytes[i / 2] |= nibble;
            } else {
                bytes[i / 2] |= nibble << 4;
            }
        }
        PackedInt4 { bytes, len: codes.len() }
    }

    /// Reinterprets raw bytes as `len` packed codes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `len` codes require.
    pub fn from_bytes(bytes: Vec<u8>, len: usize) -> Self {
        assert!(bytes.len() >= len.div_ceil(2), "byte buffer too short for {len} codes");
        PackedInt4 { bytes, len }
    }

    /// The underlying packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Code at position `i`, sign-extended.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> i8 {
        assert!(i < self.len, "index {i} out of bounds ({})", self.len);
        let b = self.bytes[i / 2];
        let nibble = if i.is_multiple_of(2) { b & 0x0f } else { b >> 4 };
        if nibble >= 8 {
            nibble as i8 - 16
        } else {
            nibble as i8
        }
    }

    /// Unpacks all codes.
    pub fn to_codes(&self) -> Vec<i8> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

/// Packs integer codes into the canonical DRAM byte image for `precision`.
///
/// INT8 stores one code per byte (two's complement), INT4 two per byte (low
/// nibble first, the [`PackedInt4`] layout), INT2 four per byte (low pair
/// first, 2-bit two's complement). This is the byte stream the fault
/// subsystem corrupts at DRAM read granularity.
///
/// # Errors
///
/// Returns an error string if `precision` is [`Precision::Fp32`] (floats
/// are not code-packed) or a code does not fit the precision's two's
/// complement range (e.g. `8` at INT4).
pub fn pack_codes(codes: &[i8], precision: Precision) -> Result<Vec<u8>, &'static str> {
    let bits = match precision {
        Precision::Fp32 => return Err("pack_codes: FP32 operands are not code-packed"),
        p => p.bits() as usize,
    };
    let lo = -(1i32 << (bits - 1));
    let hi = (1i32 << (bits - 1)) - 1;
    let per_byte = 8 / bits;
    let mut bytes = vec![0u8; codes.len().div_ceil(per_byte)];
    for (i, &c) in codes.iter().enumerate() {
        if (c as i32) < lo || (c as i32) > hi {
            return Err("pack_codes: code out of range for precision");
        }
        let field = (c as u8) & ((1u16 << bits) - 1) as u8;
        bytes[i / per_byte] |= field << ((i % per_byte) * bits);
    }
    Ok(bytes)
}

/// Inverse of [`pack_codes`]: sign-extends `len` codes out of the packed
/// byte image. Any bit pattern is accepted — a corrupted image unpacks to
/// the full two's complement range (e.g. `-8` at INT4 even though the
/// quantizer only emits `[-7, 7]`), exactly what hardware would latch.
///
/// # Errors
///
/// Returns an error string if `precision` is [`Precision::Fp32`] or the
/// buffer is shorter than `len` codes require.
pub fn unpack_codes(bytes: &[u8], len: usize, precision: Precision) -> Result<Vec<i8>, &'static str> {
    let bits = match precision {
        Precision::Fp32 => return Err("unpack_codes: FP32 operands are not code-packed"),
        p => p.bits() as usize,
    };
    let per_byte = 8 / bits;
    if bytes.len() < len.div_ceil(per_byte) {
        return Err("unpack_codes: byte buffer too short");
    }
    let mask = ((1u16 << bits) - 1) as u8;
    let sign = 1u8 << (bits - 1);
    let span = 1i16 << bits;
    Ok((0..len)
        .map(|i| {
            let field = (bytes[i / per_byte] >> ((i % per_byte) * bits)) & mask;
            if field >= sign {
                (field as i16 - span) as i8
            } else {
                field as i8
            }
        })
        .collect())
}

impl FromIterator<i8> for PackedInt4 {
    fn from_iter<I: IntoIterator<Item = i8>>(iter: I) -> Self {
        let codes: Vec<i8> = iter.into_iter().collect();
        PackedInt4::from_codes(&codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_values() {
        let codes: Vec<i8> = (-8..8).collect();
        let p = PackedInt4::from_codes(&codes);
        assert_eq!(p.to_codes(), codes);
        assert_eq!(p.as_bytes().len(), 8);
    }

    #[test]
    fn odd_length_roundtrip() {
        let codes = vec![1i8, -2, 3, -4, 5];
        let p = PackedInt4::from_codes(&codes);
        assert_eq!(p.to_codes(), codes);
        assert_eq!(p.as_bytes().len(), 3);
    }

    #[test]
    fn empty_is_fine() {
        let p = PackedInt4::from_codes(&[]);
        assert!(p.as_bytes().is_empty());
        assert!(p.to_codes().is_empty());
    }

    #[test]
    fn from_bytes_reinterprets() {
        let orig = PackedInt4::from_codes(&[7, -8, 0, 1]);
        let p = PackedInt4::from_bytes(orig.as_bytes().to_vec(), 4);
        assert_eq!(p, orig);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn from_bytes_checks_length() {
        PackedInt4::from_bytes(vec![0u8; 1], 4);
    }

    #[test]
    fn pack_codes_roundtrips_every_precision() {
        for (precision, lo, hi) in [
            (Precision::Int8, -128i8, 127i8),
            (Precision::Int4, -8, 7),
            (Precision::Int2, -2, 1),
        ] {
            let codes: Vec<i8> = (lo..=hi).collect();
            let bytes = pack_codes(&codes, precision).unwrap();
            assert_eq!(bytes.len(), precision.nbytes(codes.len()), "{precision}");
            let back = unpack_codes(&bytes, codes.len(), precision).unwrap();
            assert_eq!(back, codes, "{precision}");
        }
    }

    #[test]
    fn pack_codes_int4_matches_packed_int4_layout() {
        let codes = vec![1i8, -2, 3, -4, 5];
        let bytes = pack_codes(&codes, Precision::Int4).unwrap();
        assert_eq!(bytes, PackedInt4::from_codes(&codes).as_bytes());
    }

    #[test]
    fn pack_codes_rejects_fp32_and_out_of_range() {
        assert!(pack_codes(&[0], Precision::Fp32).is_err());
        assert!(pack_codes(&[8], Precision::Int4).is_err());
        assert!(pack_codes(&[2], Precision::Int2).is_err());
        assert!(unpack_codes(&[], 1, Precision::Int8).is_err());
        assert!(unpack_codes(&[0], 1, Precision::Fp32).is_err());
    }

    #[test]
    fn unpack_accepts_corrupted_bit_patterns() {
        // 0x88 holds two INT4 fields of 0b1000 = -8: never produced by the
        // quantizer (it clamps to ±7) but a single bit flip can create it.
        let codes = unpack_codes(&[0x88], 2, Precision::Int4).unwrap();
        assert_eq!(codes, vec![-8, -8]);
    }

    #[test]
    fn collect_from_iterator() {
        let p: PackedInt4 = (-3i8..3).collect();
        assert_eq!(p.to_codes(), vec![-3, -2, -1, 0, 1, 2]);
    }
}
