//! The screening module: `z̃ = W̃ P h + b̃` (paper Eq. 3).

use enmc_tensor::quant::{Precision, QuantMatrix, QuantMatrixPerRow, QuantVector};
use enmc_tensor::{Matrix, SparseProjection, TensorError, Vector};

/// Configuration of a screening module.
#[derive(Debug, Clone)]
pub struct ScreenerConfig {
    /// Parameter-reduction scale: `k = round(scale · d)`. The paper
    /// chooses 0.25 (Fig. 12a).
    pub scale: f64,
    /// Precision the screener runs at during inference. The paper chooses
    /// INT4 (Fig. 12b).
    pub precision: Precision,
    /// Use one quantization scale per category row instead of one per
    /// tensor (costs `4·l` extra stream bytes; preserves outlier rows).
    pub per_row_scales: bool,
    /// Seed for the sparse random projection.
    pub seed: u64,
}

impl Default for ScreenerConfig {
    fn default() -> Self {
        ScreenerConfig {
            scale: 0.25,
            precision: Precision::Int4,
            per_row_scales: false,
            seed: 0x5eed,
        }
    }
}

impl ScreenerConfig {
    /// Reduced dimension for a hidden size `d`.
    pub fn reduced_dim(&self, d: usize) -> usize {
        ((d as f64 * self.scale).round() as usize).max(1)
    }
}

/// A trained screening module.
///
/// Holds the fixed sparse projection `P`, the learned reduced classifier
/// `W̃ ∈ ℝ^{l×k}` and bias `b̃ ∈ ℝˡ`, plus the quantized image of `W̃`
/// that the Screener hardware streams (built once after training).
#[derive(Debug, Clone)]
pub struct Screener {
    projection: SparseProjection,
    weights: Matrix,
    bias: Vector,
    precision: Precision,
    per_row_scales: bool,
    quant_weights: Option<QuantMatrix>,
    quant_weights_per_row: Option<QuantMatrixPerRow>,
}

impl Screener {
    /// Creates an *untrained* screener (zero weights) for `l` categories
    /// and hidden dimension `d` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if any dimension is zero.
    pub fn new(l: usize, d: usize, config: &ScreenerConfig) -> Result<Self, TensorError> {
        if l == 0 || d == 0 {
            return Err(TensorError::InvalidArgument("screener dims must be nonzero"));
        }
        let k = config.reduced_dim(d);
        let projection = SparseProjection::new(k, d, config.seed)?;
        Ok(Screener {
            projection,
            weights: Matrix::zeros(l, k),
            bias: Vector::zeros(l),
            precision: config.precision,
            per_row_scales: config.per_row_scales,
            quant_weights: None,
            quant_weights_per_row: None,
        })
    }

    /// The sparse random projection `P`.
    pub fn projection(&self) -> &SparseProjection {
        &self.projection
    }

    /// The reduced classifier weights `W̃` (`l × k`, FP32 master copy).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable access for the trainer.
    pub(crate) fn weights_mut(&mut self) -> &mut Matrix {
        self.quant_weights = None; // invalidate the quantized images
        self.quant_weights_per_row = None;
        &mut self.weights
    }

    /// The screener bias `b̃`.
    pub fn bias(&self) -> &Vector {
        &self.bias
    }

    /// Mutable access for the trainer.
    pub(crate) fn bias_mut(&mut self) -> &mut Vector {
        &mut self.bias
    }

    /// Number of categories `l`.
    pub fn categories(&self) -> usize {
        self.weights.rows()
    }

    /// Reduced dimension `k`.
    pub fn reduced_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Hidden dimension `d`.
    pub fn hidden_dim(&self) -> usize {
        self.projection.d()
    }

    /// Inference precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Quantizes the trained weights for deployment. Called automatically
    /// by [`Screener::screen`] when needed; idempotent.
    ///
    /// # Errors
    ///
    /// Propagates quantization errors (never occurs for non-empty FP32
    /// weights at integer precisions).
    pub fn freeze(&mut self) -> Result<(), TensorError> {
        if self.precision == Precision::Fp32 {
            return Ok(());
        }
        if self.per_row_scales {
            if self.quant_weights_per_row.is_none() {
                self.quant_weights_per_row =
                    Some(QuantMatrixPerRow::quantize(&self.weights, self.precision)?);
            }
        } else if self.quant_weights.is_none() {
            self.quant_weights = Some(QuantMatrix::quantize(&self.weights, self.precision)?);
        }
        Ok(())
    }

    /// Computes approximate logits `z̃ = W̃ P h + b̃` at the configured
    /// precision (quantizing the projected activation on the fly, as the
    /// hardware does when loading the feature buffer).
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != d`.
    pub fn screen(&mut self, h: &Vector) -> Vector {
        self.freeze().expect("freeze cannot fail on trained weights");
        self.screen_ref(h)
    }

    /// [`Screener::screen`] through a shared reference, for callers that
    /// fan queries out across threads. Requires the weights to be frozen
    /// already ([`Screener::freeze`]); produces bit-identical logits to
    /// [`Screener::screen`].
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != d`, or if the screener uses an integer
    /// precision and [`Screener::freeze`] has not been called.
    pub fn screen_ref(&self, h: &Vector) -> Vector {
        let ph = self.projection.project(h);
        let mut z = match self.precision {
            Precision::Fp32 => self.weights.matvec(&ph),
            p => {
                let qh = QuantVector::quantize(&ph, p).expect("nonempty activation");
                if self.per_row_scales {
                    self.quant_weights_per_row
                        .as_ref()
                        .expect("screen_ref requires a frozen screener")
                        .matvec_quant(&qh)
                } else {
                    self.quant_weights
                        .as_ref()
                        .expect("screen_ref requires a frozen screener")
                        .matvec_quant(&qh)
                }
            }
        };
        z.add_assign(&self.bias);
        z
    }

    /// FP32 screening used during training (no quantization, no freeze).
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != d`.
    pub fn screen_fp32(&self, h: &Vector) -> Vector {
        let ph = self.projection.project(h);
        let mut z = self.weights.matvec(&ph);
        z.add_assign(&self.bias);
        z
    }

    /// The frozen per-tensor quantized weight image, if one has been built
    /// (`None` before [`Screener::freeze`], at FP32, or with per-row scales).
    /// This is the exact DRAM-resident operand the fault subsystem corrupts.
    pub fn quant_weights(&self) -> Option<&QuantMatrix> {
        self.quant_weights.as_ref()
    }

    /// Replaces the frozen quantized weight image — the hook by which the
    /// fault subsystem substitutes a bit-corrupted copy of `W̃` without
    /// touching the FP32 master weights (which model the *host* copy, not
    /// the DIMM-resident stream).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the screener runs at
    /// FP32 or uses per-row scales (those streams are not per-tensor
    /// images), or [`TensorError::ShapeMismatch`] if shape or precision
    /// differ from the trained weights.
    pub fn set_quant_weights(&mut self, q: QuantMatrix) -> Result<(), TensorError> {
        if self.precision == Precision::Fp32 {
            return Err(TensorError::InvalidArgument(
                "set_quant_weights: FP32 screeners have no quantized image",
            ));
        }
        if self.per_row_scales {
            return Err(TensorError::InvalidArgument(
                "set_quant_weights: per-row-scale screeners are not supported",
            ));
        }
        if q.precision() != self.precision {
            return Err(TensorError::InvalidArgument(
                "set_quant_weights: precision mismatch",
            ));
        }
        if q.rows() != self.categories() || q.cols() != self.reduced_dim() {
            return Err(TensorError::ShapeMismatch {
                op: "set_quant_weights",
                expected: (self.categories(), self.reduced_dim()),
                found: (q.rows(), q.cols()),
            });
        }
        self.quant_weights = Some(q);
        Ok(())
    }

    /// Bytes of screening weights streamed per query (quantized `W̃` plus
    /// FP32 bias, plus per-row scales when enabled) — the Screener's DRAM
    /// traffic.
    pub fn weight_bytes(&self) -> u64 {
        let wt = self.precision.nbytes(self.categories() * self.reduced_dim()) as u64;
        let scales = if self.per_row_scales { self.categories() as u64 * 4 } else { 0 };
        wt + self.categories() as u64 * 4 + scales
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_dims() {
        let cfg = ScreenerConfig::default();
        assert!(Screener::new(0, 8, &cfg).is_err());
        assert!(Screener::new(8, 0, &cfg).is_err());
    }

    #[test]
    fn reduced_dim_follows_scale() {
        let cfg = ScreenerConfig { scale: 0.25, ..Default::default() };
        let s = Screener::new(100, 512, &cfg).unwrap();
        assert_eq!(s.reduced_dim(), 128);
        assert_eq!(s.hidden_dim(), 512);
        assert_eq!(s.categories(), 100);
    }

    #[test]
    fn untrained_screener_outputs_bias() {
        let cfg = ScreenerConfig { precision: Precision::Fp32, ..Default::default() };
        let mut s = Screener::new(4, 16, &cfg).unwrap();
        s.bias_mut().as_mut_slice()[2] = 3.0;
        let z = s.screen(&Vector::zeros(16));
        assert_eq!(z.as_slice(), &[0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn quantized_screen_tracks_fp32_screen() {
        let cfg = ScreenerConfig { precision: Precision::Int8, ..Default::default() };
        let mut s = Screener::new(16, 32, &cfg).unwrap();
        // Give the screener smooth nonzero weights.
        for r in 0..16 {
            for (c, w) in s.weights_mut().row_mut(r).iter_mut().enumerate() {
                *w = ((r * 7 + c) as f32 * 0.13).sin() * 0.5;
            }
        }
        let h: Vector = (0..32).map(|i| (i as f32 * 0.21).cos()).collect();
        let q = s.screen(&h);
        let f = s.screen_fp32(&h);
        let err: f32 = q
            .as_slice()
            .iter()
            .zip(f.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(err < 0.05, "max err {err}");
    }

    #[test]
    fn weight_mutation_invalidates_quantized_image() {
        let cfg = ScreenerConfig { precision: Precision::Int4, ..Default::default() };
        let mut s = Screener::new(4, 8, &cfg).unwrap();
        for w in s.weights_mut().row_mut(0) {
            *w = 1.0;
        }
        let h = Vector::from(vec![1.0; 8]);
        let before = s.screen(&h);
        for w in s.weights_mut().row_mut(0) {
            *w = -1.0;
        }
        let after = s.screen(&h);
        assert_ne!(before, after);
    }

    #[test]
    fn per_row_scales_improve_outlier_rows() {
        // Rows with wildly different magnitudes: per-row scales keep the
        // small rows' screening logits meaningful.
        let build = |per_row: bool| {
            let cfg = ScreenerConfig {
                scale: 0.5,
                precision: Precision::Int4,
                per_row_scales: per_row,
                seed: 7,
            };
            let mut s = Screener::new(8, 16, &cfg).unwrap();
            for r in 0..8 {
                let mag = if r == 7 { 50.0 } else { 0.05 };
                for (c, w) in s.weights_mut().row_mut(r).iter_mut().enumerate() {
                    *w = mag * ((r * 16 + c) as f32 * 0.31).sin();
                }
            }
            s
        };
        let h: Vector = (0..16).map(|i| (i as f32 * 0.17).cos()).collect();
        let mut tensor_wide = build(false);
        let mut per_row = build(true);
        let reference = tensor_wide.screen_fp32(&h);
        let zt = tensor_wide.screen(&h);
        let zr = per_row.screen(&h);
        let err = |z: &Vector, r: usize| (z[r] - reference[r]).abs();
        // The small rows collapse to zero under the tensor-wide scale but
        // survive per-row.
        let small_rows_better = (0..7)
            .filter(|&r| err(&zr, r) < err(&zt, r))
            .count();
        assert!(small_rows_better >= 5, "only {small_rows_better} rows improved");
    }

    #[test]
    fn set_quant_weights_substitutes_the_streamed_image() {
        use enmc_tensor::quant::QuantMatrix;
        let cfg = ScreenerConfig { precision: Precision::Int4, ..Default::default() };
        let mut s = Screener::new(4, 8, &cfg).unwrap();
        for r in 0..4 {
            for (c, w) in s.weights_mut().row_mut(r).iter_mut().enumerate() {
                *w = ((r * 8 + c) as f32 * 0.4).sin();
            }
        }
        s.freeze().unwrap();
        let h: Vector = (0..8).map(|i| (i as f32 * 0.3).cos()).collect();
        let before = s.screen_ref(&h);

        let q = s.quant_weights().expect("frozen image").clone();
        let mut codes = q.codes().to_vec();
        codes[0] = -8; // a bit-flipped sign would produce exactly this
        let corrupted =
            QuantMatrix::from_parts(q.rows(), q.cols(), codes, q.scale(), q.precision()).unwrap();
        s.set_quant_weights(corrupted).unwrap();
        let after = s.screen_ref(&h);
        assert_ne!(before, after, "row 0 logit must move");
        // Only row 0 was corrupted.
        assert_eq!(&before.as_slice()[1..], &after.as_slice()[1..]);
    }

    #[test]
    fn set_quant_weights_validates_shape_precision_and_mode() {
        use enmc_tensor::quant::QuantMatrix;
        let cfg = ScreenerConfig { precision: Precision::Int4, ..Default::default() };
        let mut s = Screener::new(4, 8, &cfg).unwrap();
        s.freeze().unwrap();
        let k = s.reduced_dim();
        let wrong_shape =
            QuantMatrix::from_parts(3, k, vec![0; 3 * k], 1.0, Precision::Int4).unwrap();
        assert!(s.set_quant_weights(wrong_shape).is_err());
        let wrong_precision =
            QuantMatrix::from_parts(4, k, vec![0; 4 * k], 1.0, Precision::Int8).unwrap();
        assert!(s.set_quant_weights(wrong_precision).is_err());

        let fp = ScreenerConfig { precision: Precision::Fp32, ..Default::default() };
        let mut s = Screener::new(4, 8, &fp).unwrap();
        let img = QuantMatrix::from_parts(4, 2, vec![0; 8], 1.0, Precision::Int4).unwrap();
        assert!(s.set_quant_weights(img.clone()).is_err());

        let pr = ScreenerConfig { per_row_scales: true, ..Default::default() };
        let mut s = Screener::new(4, 8, &pr).unwrap();
        assert!(s.set_quant_weights(img).is_err());
    }

    #[test]
    fn per_row_weight_bytes_include_scales() {
        let cfg = ScreenerConfig {
            scale: 0.25,
            precision: Precision::Int4,
            per_row_scales: true,
            seed: 0,
        };
        let s = Screener::new(1000, 512, &cfg).unwrap();
        // codes + bias + per-row scales.
        assert_eq!(s.weight_bytes(), 64_000 + 4_000 + 4_000);
    }

    #[test]
    fn weight_bytes_accounts_precision() {
        let cfg = ScreenerConfig { scale: 0.25, precision: Precision::Int4, per_row_scales: false, seed: 0 };
        let s = Screener::new(1000, 512, &cfg).unwrap();
        // 1000 * 128 elements at 4 bits = 64_000 bytes + 4000 bias bytes.
        assert_eq!(s.weight_bytes(), 64_000 + 4_000);
    }
}
