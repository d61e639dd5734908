//! Symmetric linear quantization and integer MAC semantics.
//!
//! The ENMC Screener processes the screening weights `W̃` and the projected
//! feature vector with *fixed-point* arithmetic — the paper evaluates INT4 as
//! the sweet spot (Fig. 12b) and provisions 128 INT4 MACs per rank
//! (Table 3). This module provides:
//!
//! * [`Precision`] — the precisions the hardware (and the sensitivity study)
//!   support: FP32, INT8, INT4, INT2;
//! * [`QuantVector`] / [`QuantMatrix`] — symmetrically quantized tensors that
//!   remember their scale;
//! * integer multiply-accumulate kernels whose numerical results are exactly
//!   what an integer MAC array would produce (`i32` accumulation of `i8×i8`
//!   products, rescaled once at the end).
//!
//! Quantization is *symmetric per-tensor*: `q = clamp(round(x / s))` with
//! `s = max|x| / qmax`. This matches the paper's description of "4-bit
//! fixed-point quantization on the screening module" (§7.1).

use crate::matrix::{Matrix, Vector};
use crate::TensorError;

/// Numeric precision of a screening operand.
///
/// `Fp32` is included so the sensitivity sweep of paper Fig. 12(b) can
/// compare quantized screening against single-precision screening with the
/// same code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE-754 single precision (no quantization).
    Fp32,
    /// 8-bit signed integers, range `[-127, 127]`.
    Int8,
    /// 4-bit signed integers, range `[-7, 7]` (the ENMC Screener default).
    Int4,
    /// 2-bit signed integers, range `[-1, 1]`.
    Int2,
}

impl Precision {
    /// Bits per element.
    pub fn bits(self) -> u32 {
        match self {
            Precision::Fp32 => 32,
            Precision::Int8 => 8,
            Precision::Int4 => 4,
            Precision::Int2 => 2,
        }
    }

    /// Bytes consumed by `n` elements at this precision (densely packed).
    pub fn nbytes(self, n: usize) -> usize {
        (n * self.bits() as usize).div_ceil(8)
    }

    /// Largest representable magnitude of the integer code, or `None` for
    /// floating point.
    pub fn qmax(self) -> Option<i32> {
        match self {
            Precision::Fp32 => None,
            Precision::Int8 => Some(127),
            Precision::Int4 => Some(7),
            Precision::Int2 => Some(1),
        }
    }

    /// All precisions in decreasing-fidelity order, as swept by Fig. 12(b).
    pub fn sweep() -> [Precision; 4] {
        [Precision::Fp32, Precision::Int8, Precision::Int4, Precision::Int2]
    }
}

impl core::fmt::Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Precision::Fp32 => "FP32",
            Precision::Int8 => "INT8",
            Precision::Int4 => "INT4",
            Precision::Int2 => "INT2",
        };
        f.write_str(s)
    }
}

/// A symmetrically quantized vector: integer codes plus a single scale.
///
/// Dequantized value of element `i` is `codes[i] as f32 * scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantVector {
    codes: Vec<i8>,
    scale: f32,
    precision: Precision,
}

impl QuantVector {
    /// Quantizes `v` at `precision`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `precision` is
    /// [`Precision::Fp32`] (use the float path instead) or `v` is empty.
    pub fn quantize(v: &Vector, precision: Precision) -> Result<Self, TensorError> {
        let qmax = precision
            .qmax()
            .ok_or(TensorError::InvalidArgument("cannot integer-quantize at FP32"))?;
        if v.is_empty() {
            return Err(TensorError::InvalidArgument("cannot quantize empty vector"));
        }
        let max_abs = v.max_abs();
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / qmax as f32 };
        let codes = v
            .as_slice()
            .iter()
            .map(|&x| quantize_one(x, scale, qmax))
            .collect();
        Ok(QuantVector { codes, scale, precision })
    }

    /// The integer codes.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The per-tensor scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Reconstructs the floating-point vector.
    pub fn dequantize(&self) -> Vector {
        self.codes.iter().map(|&c| c as f32 * self.scale).collect()
    }
}

/// A symmetrically quantized row-major matrix (per-tensor scale).
///
/// This is the in-memory image of the Screener weight `W̃` on the ENMC DIMM:
/// each row is one category's reduced-dimension weight vector, stored at
/// INT4 (by default) and streamed through the integer MAC array.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    scale: f32,
    precision: Precision,
}

/// A row-wise quantized matrix: one scale per category row.
///
/// Per-row scales cost `4·l` extra bytes (folded into the same stream as
/// the FP32 bias, so the hardware cost is one more multiplier per output)
/// but preserve outlier rows that a single tensor-wide scale would crush —
/// the standard accuracy/storage trade-off the Fig. 12(b) study can be
/// extended with.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrixPerRow {
    rows: usize,
    cols: usize,
    codes: Vec<i8>,
    scales: Vec<f32>,
    precision: Precision,
}

impl QuantMatrixPerRow {
    /// Quantizes `m` with an independent symmetric scale per row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `precision` is
    /// [`Precision::Fp32`] or `m` has zero elements.
    pub fn quantize(m: &Matrix, precision: Precision) -> Result<Self, TensorError> {
        let qmax = precision
            .qmax()
            .ok_or(TensorError::InvalidArgument("cannot integer-quantize at FP32"))?;
        if m.rows() == 0 || m.cols() == 0 {
            return Err(TensorError::InvalidArgument("cannot quantize empty matrix"));
        }
        let mut codes = Vec::with_capacity(m.rows() * m.cols());
        let mut scales = Vec::with_capacity(m.rows());
        for r in 0..m.rows() {
            let row = m.row(r);
            let max_abs = row.iter().fold(0.0_f32, |acc, &x| acc.max(x.abs()));
            let scale = if max_abs == 0.0 { 1.0 } else { max_abs / qmax as f32 };
            scales.push(scale);
            codes.extend(row.iter().map(|&x| quantize_one(x, scale, qmax)));
        }
        Ok(QuantMatrixPerRow { rows: m.rows(), cols: m.cols(), codes, scales, precision })
    }

    /// Integer matrix-vector product with per-row rescale.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_quant(&self, x: &QuantVector) -> Vector {
        assert_eq!(x.len(), self.cols, "matvec_quant: dimension mismatch");
        scan_i8(&self.codes, x.codes(), self.rows)
            .into_iter()
            .zip(&self.scales)
            .map(|(acc, &s)| acc as f32 * (s * x.scale()))
            .collect()
    }

}

impl QuantMatrix {
    /// Quantizes `m` at `precision` with one shared scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `precision` is
    /// [`Precision::Fp32`] or `m` has zero elements.
    pub fn quantize(m: &Matrix, precision: Precision) -> Result<Self, TensorError> {
        let qmax = precision
            .qmax()
            .ok_or(TensorError::InvalidArgument("cannot integer-quantize at FP32"))?;
        if m.rows() == 0 || m.cols() == 0 {
            return Err(TensorError::InvalidArgument("cannot quantize empty matrix"));
        }
        let max_abs = m.max_abs();
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / qmax as f32 };
        let codes = m
            .as_slice()
            .iter()
            .map(|&x| quantize_one(x, scale, qmax))
            .collect();
        Ok(QuantMatrix { rows: m.rows(), cols: m.cols(), codes, scale, precision })
    }

    /// Rebuilds a quantized matrix from raw integer codes and a known scale.
    ///
    /// Unlike [`QuantMatrix::quantize`] the codes are *not* clamped to the
    /// precision's `qmax`: this constructor exists so the fault subsystem can
    /// re-materialize a weight image after bit-level corruption, and a flipped
    /// sign bit legitimately yields e.g. `-8` at INT4 — exactly the value an
    /// integer MAC array would consume. Codes must still fit the precision's
    /// two's complement *storage* range.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `precision` is
    /// [`Precision::Fp32`], a dimension is zero, `codes.len() != rows*cols`,
    /// a code exceeds the storage range, or `scale` is not finite-positive.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        codes: Vec<i8>,
        scale: f32,
        precision: Precision,
    ) -> Result<Self, TensorError> {
        if precision.qmax().is_none() {
            return Err(TensorError::InvalidArgument("from_parts requires an integer precision"));
        }
        if rows == 0 || cols == 0 {
            return Err(TensorError::InvalidArgument("from_parts: zero dimension"));
        }
        if rows.checked_mul(cols) != Some(codes.len()) {
            return Err(TensorError::InvalidArgument("from_parts: codes.len() != rows*cols"));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(TensorError::InvalidArgument("from_parts: scale must be finite and positive"));
        }
        let bits = precision.bits();
        let lo = -(1i32 << (bits - 1));
        let hi = (1i32 << (bits - 1)) - 1;
        if codes.iter().any(|&c| (c as i32) < lo || (c as i32) > hi) {
            return Err(TensorError::InvalidArgument("from_parts: code outside storage range"));
        }
        Ok(QuantMatrix { rows, cols, codes, scale, precision })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// All integer codes, row-major — the payload that [`crate::packed::pack_codes`]
    /// serializes into the DRAM byte image.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Per-tensor scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Precision of the codes.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Integer codes of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[i8] {
        assert!(r < self.rows, "row index out of bounds");
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// Reconstructs the floating-point matrix.
    pub fn dequantize(&self) -> Matrix {
        let data = self.codes.iter().map(|&c| c as f32 * self.scale).collect();
        Matrix::from_vec(self.rows, self.cols, data).expect("shape preserved")
    }

    /// Integer matrix-vector product against a quantized activation,
    /// reproducing the Screener MAC array: `i8 × i8` products accumulated in
    /// `i32`, rescaled once by `scale_w * scale_x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_quant(&self, x: &QuantVector) -> Vector {
        assert_eq!(x.len(), self.cols, "matvec_quant: dimension mismatch");
        let rescale = self.scale * x.scale();
        scan_i8(&self.codes, x.codes(), self.rows)
            .into_iter()
            .map(|acc| acc as f32 * rescale)
            .collect()
    }

}

/// Quantizes one value: `clamp(round(x / scale), -qmax, qmax)`.
fn quantize_one(x: f32, scale: f32, qmax: i32) -> i8 {
    let q = (x / scale).round() as i32;
    q.clamp(-qmax, qmax) as i8
}

/// Integer dot product with `i32` accumulation (the MAC-array semantics).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// The Screener's integer scan: `dot_i8(row, x)` for each of the `rows`
/// rows of the row-major `codes`, each `x.len()` wide.
///
/// Integer accumulation is exact in any order, so the AVX2 kernel (chosen
/// when the CPU has it) returns exactly what [`scan_i8_scalar`], the
/// reference and the path on every other host, returns.
///
/// # Panics
///
/// Panics if `codes.len() != rows * x.len()`.
fn scan_i8(codes: &[i8], x: &[i8], rows: usize) -> Vec<i32> {
    assert_eq!(rows.checked_mul(x.len()), Some(codes.len()), "scan_i8: shape mismatch");
    let mut out = vec![0; rows];
    #[cfg(target_arch = "x86_64")]
    if x.len() >= avx2::LANES && std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, detected just above.
        unsafe { avx2::scan_i8(codes, x, &mut out) };
        return out;
    }
    scan_i8_scalar(codes, x, &mut out);
    out
}

/// Reference [`scan_i8`]: one [`dot_i8`] per row of `codes`, each
/// `x.len()` wide, into `out` (one entry per row).
fn scan_i8_scalar(codes: &[i8], x: &[i8], out: &mut [i32]) {
    let cols = x.len();
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot_i8(&codes[r * cols..(r + 1) * cols], x);
    }
}

/// The AVX2 row-block scan: eight rows at a time, sixteen codes per step.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::dot_i8;
    use std::arch::x86_64::*;

    /// Codes per step: one 128-bit load, sign-extended to sixteen `i16`.
    pub(super) const LANES: usize = 16;
    /// Rows reduced together.
    const BLOCK: usize = 8;

    /// [`super::scan_i8_scalar`] with AVX2, for `x.len() >= LANES`.
    ///
    /// Each step sign-extends sixteen codes of a row and of `x` to `i16`
    /// and multiplies them pairwise into eight `i32` (`vpmaddwd`): each
    /// product is at most `128 · 128`, so a pair sum fits `i32` and the
    /// step is exact for every `i8` code. Eight rows accumulate side by
    /// side and are reduced into one vector of eight row sums. Columns past
    /// the last full step and rows past the last full block go through
    /// [`dot_i8`]. All bounds come from the slice lengths.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() < LANES` or `codes` holds fewer than
    /// `out.len()` rows of `x.len()` codes.
    #[target_feature(enable = "avx2")]
    pub(super) fn scan_i8(codes: &[i8], x: &[i8], out: &mut [i32]) {
        assert!(x.len() >= LANES, "scan_i8: row shorter than one step");
        let (x_steps, x_tail) = x.as_chunks::<LANES>();
        let xw: Vec<__m256i> = x_steps.iter().map(|c| widen(c)).collect();
        let body = xw.len() * LANES;
        let mut rows = codes.chunks_exact(x.len());
        let (blocks, rest) = out.as_chunks_mut::<BLOCK>();
        for block in blocks {
            let r: [&[i8]; BLOCK] =
                std::array::from_fn(|_| rows.next().expect("scan_i8: too few rows"));
            let steps = r.map(|row| &row[..body].as_chunks::<LANES>().0[..xw.len()]);
            let mut acc = [_mm256_setzero_si256(); BLOCK];
            for (c, &xc) in xw.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&steps) {
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(widen(&row[c]), xc));
                }
            }
            store(block, reduce(acc));
            for (o, row) in block.iter_mut().zip(r) {
                *o = o.wrapping_add(dot_i8(&row[body..], x_tail));
            }
        }
        for o in rest {
            *o = dot_i8(rows.next().expect("scan_i8: too few rows"), x);
        }
    }

    /// Sixteen codes sign-extended to sixteen `i16`.
    #[target_feature(enable = "avx2")]
    fn widen(codes: &[i8; LANES]) -> __m256i {
        // SAFETY: `codes` is 16 readable bytes, exactly one unaligned
        // 128-bit load.
        _mm256_cvtepi8_epi16(unsafe { _mm_loadu_si128(codes.as_ptr().cast()) })
    }

    /// Horizontal sums of eight accumulators, one row's per lane.
    #[target_feature(enable = "avx2")]
    fn reduce(acc: [__m256i; BLOCK]) -> __m256i {
        let h01 = _mm256_hadd_epi32(acc[0], acc[1]);
        let h23 = _mm256_hadd_epi32(acc[2], acc[3]);
        let h45 = _mm256_hadd_epi32(acc[4], acc[5]);
        let h67 = _mm256_hadd_epi32(acc[6], acc[7]);
        // Row j of 0-3 sits in lane j: its accumulator lanes 0-3 summed in
        // the low half, lanes 4-7 in the high half; likewise rows 4-7.
        let h0123 = _mm256_hadd_epi32(h01, h23);
        let h4567 = _mm256_hadd_epi32(h45, h67);
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(h0123, h4567),
            _mm256_permute2x128_si256::<0x31>(h0123, h4567),
        )
    }

    /// Writes the eight lanes of `v` to `out`.
    #[target_feature(enable = "avx2")]
    fn store(out: &mut [i32; BLOCK], v: __m256i) {
        // SAFETY: `out` is 32 writable bytes, exactly one unaligned
        // 256-bit store.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(data: &[f32]) -> Vector {
        Vector::from(data.to_vec())
    }

    #[test]
    fn precision_bits_and_bytes() {
        assert_eq!(Precision::Fp32.bits(), 32);
        assert_eq!(Precision::Int4.bits(), 4);
        assert_eq!(Precision::Int4.nbytes(3), 2); // 12 bits -> 2 bytes
        assert_eq!(Precision::Int8.nbytes(3), 3);
        assert_eq!(Precision::Int2.nbytes(8), 2);
    }

    #[test]
    fn precision_qmax() {
        assert_eq!(Precision::Fp32.qmax(), None);
        assert_eq!(Precision::Int8.qmax(), Some(127));
        assert_eq!(Precision::Int4.qmax(), Some(7));
        assert_eq!(Precision::Int2.qmax(), Some(1));
    }

    #[test]
    fn quantize_vector_roundtrip_error_bounded() {
        let x = v(&[0.9, -0.5, 0.1, 0.0, 0.33]);
        let q = QuantVector::quantize(&x, Precision::Int8).unwrap();
        let back = q.dequantize();
        // Error bound for symmetric quantization is scale/2 per element.
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= q.scale() / 2.0 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn quantize_rejects_fp32_and_empty() {
        assert!(QuantVector::quantize(&v(&[1.0]), Precision::Fp32).is_err());
        assert!(QuantVector::quantize(&Vector::zeros(0), Precision::Int4).is_err());
        assert!(QuantMatrix::quantize(&Matrix::zeros(0, 4), Precision::Int4).is_err());
    }

    #[test]
    fn quantize_zero_vector_is_stable() {
        let q = QuantVector::quantize(&Vector::zeros(4), Precision::Int4).unwrap();
        assert_eq!(q.dequantize(), Vector::zeros(4));
    }

    #[test]
    fn int4_codes_clamped_to_pm7() {
        let x = v(&[1.0, -1.0, 0.5]);
        let q = QuantVector::quantize(&x, Precision::Int4).unwrap();
        assert!(q.codes().iter().all(|&c| (-7..=7).contains(&(c as i32))));
        assert_eq!(q.codes()[0], 7);
        assert_eq!(q.codes()[1], -7);
    }

    #[test]
    fn int2_is_ternary() {
        let x = v(&[1.0, -1.0, 0.1, -0.1]);
        let q = QuantVector::quantize(&x, Precision::Int2).unwrap();
        assert!(q.codes().iter().all(|&c| (-1..=1).contains(&(c as i32))));
    }

    #[test]
    fn matvec_quant_matches_dequantized_float_product() {
        let m = Matrix::from_rows(&[&[0.5, -0.25][..], &[1.0, 1.0][..]]);
        let qm = QuantMatrix::quantize(&m, Precision::Int8).unwrap();
        let x = v(&[0.7, -0.3]);
        let qx = QuantVector::quantize(&x, Precision::Int8).unwrap();
        let z_int = qm.matvec_quant(&qx);
        let z_ref = qm.dequantize().matvec(&qx.dequantize());
        for (a, b) in z_int.as_slice().iter().zip(z_ref.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn int4_matvec_approximates_float_matvec() {
        // A smooth matrix quantized at INT4 should approximate the float
        // product with relative error well under 20%.
        let rows: Vec<Vec<f32>> =
            (0..8).map(|r| (0..16).map(|c| ((r * 16 + c) as f32).sin()).collect()).collect();
        let slices: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&slices);
        let x: Vector = (0..16).map(|i| (i as f32 * 0.37).cos()).collect();
        let qm = QuantMatrix::quantize(&m, Precision::Int4).unwrap();
        let qx = QuantVector::quantize(&x, Precision::Int4).unwrap();
        let approx = qm.matvec_quant(&qx);
        let exact = m.matvec(&x);
        let err: f32 = approx
            .as_slice()
            .iter()
            .zip(exact.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / exact.as_slice().iter().map(|b| b.abs()).sum::<f32>();
        assert!(err < 0.2, "relative error too large: {err}");
    }

    #[test]
    fn per_row_quantization_handles_outlier_rows() {
        // One huge row would destroy per-tensor INT4 resolution of the
        // small rows; per-row scales keep both accurate.
        let mut m = Matrix::zeros(4, 8);
        for (r, scale) in [(0usize, 0.01f32), (1, 0.02), (2, 0.015), (3, 100.0)] {
            for (c, v) in m.row_mut(r).iter_mut().enumerate() {
                *v = scale * ((c as f32 * 0.7).sin());
            }
        }
        let x: Vector = (0..8).map(|i| (i as f32 * 0.3).cos()).collect();
        let qx = QuantVector::quantize(&x, Precision::Int4).unwrap();
        let exact = m.matvec(&x);

        let per_tensor = QuantMatrix::quantize(&m, Precision::Int4).unwrap().matvec_quant(&qx);
        let per_row = QuantMatrixPerRow::quantize(&m, Precision::Int4).unwrap().matvec_quant(&qx);
        let err = |approx: &Vector, r: usize| (approx[r] - exact[r]).abs() / exact[r].abs().max(1e-9);
        // Small rows: per-tensor collapses them to zero codes; per-row keeps
        // them within quantization noise.
        for r in 0..3 {
            assert!(err(&per_row, r) < 0.25, "row {r}: per-row err {}", err(&per_row, r));
            assert!(err(&per_tensor, r) > 0.5, "row {r}: per-tensor err {}", err(&per_tensor, r));
        }
    }

    #[test]
    fn per_row_roundtrip_bounded() {
        let rows: Vec<Vec<f32>> =
            (0..6).map(|r| (0..10).map(|c| ((r * 10 + c) as f32).sin() * (r + 1) as f32).collect()).collect();
        let slices: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let m = Matrix::from_rows(&slices);
        let q = QuantMatrixPerRow::quantize(&m, Precision::Int8).unwrap();
        for r in 0..6 {
            for c in 0..10 {
                let back = q.codes[r * 10 + c] as f32 * q.scales[r];
                assert!((m.get(r, c) - back).abs() <= q.scales[r] * 0.5 + 1e-6);
            }
        }
    }

    #[test]
    fn per_row_rejects_bad_input() {
        assert!(QuantMatrixPerRow::quantize(&Matrix::zeros(0, 4), Precision::Int4).is_err());
        assert!(QuantMatrixPerRow::quantize(&Matrix::zeros(4, 4), Precision::Fp32).is_err());
    }

    #[test]
    fn from_parts_roundtrips_and_allows_storage_extremes() {
        let m = Matrix::from_rows(&[&[0.5, -0.25][..], &[1.0, 1.0][..]]);
        let q = QuantMatrix::quantize(&m, Precision::Int4).unwrap();
        let rebuilt = QuantMatrix::from_parts(
            q.rows(),
            q.cols(),
            q.codes().to_vec(),
            q.scale(),
            q.precision(),
        )
        .unwrap();
        assert_eq!(rebuilt, q);
        // -8 is outside the quantizer's clamp but inside INT4 storage.
        let q = QuantMatrix::from_parts(1, 2, vec![-8, 7], 0.5, Precision::Int4).unwrap();
        assert_eq!(q.row(0), &[-8, 7]);
    }

    #[test]
    fn from_parts_rejects_bad_input() {
        let ok = |codes: Vec<i8>| QuantMatrix::from_parts(1, 2, codes, 1.0, Precision::Int4);
        assert!(ok(vec![0, 0]).is_ok());
        assert!(ok(vec![0]).is_err()); // wrong element count
        assert!(QuantMatrix::from_parts(0, 2, vec![], 1.0, Precision::Int4).is_err());
        assert!(QuantMatrix::from_parts(1, 2, vec![0, 0], 1.0, Precision::Fp32).is_err());
        assert!(QuantMatrix::from_parts(1, 2, vec![0, 0], 0.0, Precision::Int4).is_err());
        assert!(QuantMatrix::from_parts(1, 2, vec![0, 0], f32::NAN, Precision::Int4).is_err());
        assert!(QuantMatrix::from_parts(1, 2, vec![8, 0], 1.0, Precision::Int4).is_err());
        assert!(QuantMatrix::from_parts(1, 2, vec![2, 0], 1.0, Precision::Int2).is_err());
    }

    #[test]
    fn from_parts_rejects_a_shape_whose_size_overflows() {
        // (2^63 + 1) x 2 wraps to 2 codes, 2^63 x 2 to none.
        let rows = (1usize << 63) + 1;
        assert!(QuantMatrix::from_parts(rows, 2, vec![0, 0], 1.0, Precision::Int4).is_err());
        assert!(QuantMatrix::from_parts(1 << 63, 2, vec![], 1.0, Precision::Int4).is_err());
    }

    /// Deterministic codes drawn uniformly from `lo..=hi`.
    fn codes(n: usize, seed: u64, lo: i8, hi: i8) -> Vec<i8> {
        let mut s = seed;
        let span = (hi as i64 - lo as i64 + 1) as u64;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (lo as i64 + ((s >> 33) % span) as i64) as i8
            })
            .collect()
    }

    const ROWS: [usize; 5] = [1, 7, 8, 9, 33];
    const COLS: [usize; 8] = [1, 3, 15, 16, 17, 64, 100, 256];

    #[test]
    fn scan_matches_the_scalar_reference_over_the_full_i8_range() {
        for rows in ROWS {
            for cols in COLS {
                let seed = (rows * 1000 + cols) as u64;
                // Random codes, and constant extremes: the largest products
                // a step can see.
                let fill = |n: usize, seed: u64| {
                    [codes(n, seed, i8::MIN, i8::MAX), vec![i8::MIN; n], vec![i8::MAX; n]]
                };
                let mut weights = fill(rows * cols, seed).to_vec();
                weights.push(vec![-127; rows * cols]);
                for w in &weights {
                    for x in fill(cols, !seed) {
                        let mut want = vec![0; rows];
                        scan_i8_scalar(w, &x, &mut want);
                        assert_eq!(scan_i8(w, &x, rows), want, "{rows}x{cols}");
                    }
                }
            }
        }
    }

    #[test]
    fn scan_of_an_empty_row_is_zero() {
        assert_eq!(scan_i8(&[], &[], 3), vec![0; 3]);
        assert_eq!(scan_i8(&[], &[1, 2], 0), Vec::<i32>::new());
    }

    #[test]
    #[should_panic(expected = "scan_i8: shape mismatch")]
    fn scan_rejects_codes_that_are_not_rows_by_cols() {
        scan_i8(&[0; 31], &[0; 16], 2);
    }

    /// Scalar reference logits: one `dot_i8` per row, rescaled as the kernels
    /// document.
    fn reference(codes: &[i8], x: &QuantVector, scale_of_row: impl Fn(usize) -> f32) -> Vec<u32> {
        codes
            .chunks_exact(x.len())
            .enumerate()
            .map(|(r, row)| {
                (dot_i8(row, x.codes()) as f32 * (scale_of_row(r) * x.scale())).to_bits()
            })
            .collect()
    }

    fn bits(v: &Vector) -> Vec<u32> {
        v.as_slice().iter().map(|z| z.to_bits()).collect()
    }

    #[test]
    fn matvec_quant_matches_the_scalar_reference_bit_for_bit() {
        for precision in [Precision::Int8, Precision::Int4, Precision::Int2] {
            let qmax = precision.qmax().unwrap() as f32;
            // The storage range, one below -qmax: what a flipped sign bit yields.
            let (lo, hi) = (-(qmax as i8) - 1, qmax as i8);
            for rows in ROWS {
                for cols in COLS {
                    let seed = (rows * 1000 + cols) as u64 ^ precision.bits() as u64;
                    let w = codes(rows * cols, seed, lo, hi);
                    let per_tensor =
                        QuantMatrix::from_parts(rows, cols, w.clone(), 0.37, precision).unwrap();
                    let scales: Vec<f32> = (0..rows).map(|r| 0.01 + r as f32 * 0.13).collect();
                    let per_row = QuantMatrixPerRow {
                        rows,
                        cols,
                        codes: w.clone(),
                        scales: scales.clone(),
                        precision,
                    };
                    // Activations at +qmax, -qmax and alternating between them.
                    let patterns: [Vec<f32>; 3] = [
                        vec![1.0; cols],
                        vec![-1.0; cols],
                        (0..cols).map(|c| if c % 2 == 0 { 1.0 } else { -1.0 }).collect(),
                    ];
                    for h in patterns {
                        let x = QuantVector::quantize(&Vector::from(h), precision).unwrap();
                        assert!(x.codes().iter().all(|&c| (c as f32).abs() == qmax));
                        let what = format!("{precision} {rows}x{cols}");
                        assert_eq!(
                            bits(&per_tensor.matvec_quant(&x)),
                            reference(&w, &x, |_| 0.37),
                            "{what}"
                        );
                        assert_eq!(
                            bits(&per_row.matvec_quant(&x)),
                            reference(&w, &x, |r| scales[r]),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dot_i8_accumulates_in_i32() {
        // 128 * 127*127 overflows i16 but not i32.
        let a = vec![127i8; 128];
        assert_eq!(dot_i8(&a, &a), 128 * 127 * 127);
    }

    #[test]
    fn precision_display() {
        assert_eq!(Precision::Int4.to_string(), "INT4");
        assert_eq!(Precision::Fp32.to_string(), "FP32");
    }
}
