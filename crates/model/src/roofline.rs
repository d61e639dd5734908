//! Roofline analysis (paper Fig. 5b).
//!
//! Fig. 5(b) plots the major components — front-end DNN, approximate
//! screening, candidate-only classification — on a CPU roofline. The
//! message: after approximation, both screening and candidate-only
//! classification remain *bandwidth-bound* (low operational intensity),
//! unlike the compute-bound front-end, so they benefit from NMP bandwidth.

/// A machine roofline: peak compute and peak memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak floating-point throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Peak memory bandwidth in GB/s.
    pub peak_bw_gbs: f64,
}

impl Roofline {
    /// The paper's CPU baseline: Intel Xeon Platinum 8280 — 28 cores at
    /// 2.7 GHz with AVX-512 (2 FMA units → 64 FLOP/cycle/core) and six
    /// DDR4-2666 channels (128 GB/s ideal).
    pub fn xeon_8280() -> Self {
        Roofline { peak_gflops: 28.0 * 2.7 * 64.0, peak_bw_gbs: 128.0 }
    }

    /// Operational intensity (FLOP/byte) at which the machine transitions
    /// from bandwidth-bound to compute-bound.
    pub fn ridge_point(&self) -> f64 {
        self.peak_gflops / self.peak_bw_gbs
    }

    /// Attainable GFLOP/s at operational intensity `oi`.
    pub fn attainable_gflops(&self, oi: f64) -> f64 {
        (oi * self.peak_bw_gbs).min(self.peak_gflops)
    }

    /// `true` if a kernel at intensity `oi` is limited by bandwidth.
    pub fn is_memory_bound(&self, oi: f64) -> bool {
        oi < self.ridge_point()
    }
}

/// A kernel characterized by its FLOPs and bytes moved per query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelPoint {
    /// Display name.
    pub name: &'static str,
    /// Floating-point (or integer MAC×2) operations per query batch.
    pub flops: f64,
    /// Bytes transferred from memory per query batch.
    pub bytes: f64,
}

impl KernelPoint {
    /// Operational intensity in FLOP/byte.
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes
        }
    }
}

/// Builds the Fig. 5(b) kernel points for a classifier `(l, d)` with
/// screening dimension `k`, candidate count `m`, screening weight bytes per
/// element `wt_bytes` (0.5 for INT4), and batch size `batch`.
///
/// Weights are streamed once per batch (they far exceed any cache), so
/// larger batches raise intensity — the paper's "darker color indicates
/// larger batch size".
pub fn figure5b_points(
    l: usize,
    d: usize,
    k: usize,
    m: usize,
    wt_bytes: f64,
    batch: usize,
) -> Vec<KernelPoint> {
    let b = batch as f64;
    let lf = l as f64;
    let df = d as f64;
    let kf = k as f64;
    let mf = m as f64;
    vec![
        KernelPoint {
            name: "screening",
            flops: 2.0 * lf * kf * b,
            bytes: lf * kf * wt_bytes + b * kf * 4.0,
        },
        KernelPoint {
            name: "candidate-only classification",
            flops: 2.0 * mf * df * b,
            // Each query gathers its own candidate rows.
            bytes: b * (mf * df * 4.0 + df * 4.0),
        },
        KernelPoint {
            name: "front-end DNN",
            // Dense front-end: weights reused across the batch; activations
            // stay on-chip. Approximate a 12·d² transformer layer stack (6).
            flops: 2.0 * 72.0 * df * df * b,
            bytes: 72.0 * df * df * 4.0,
        },
        KernelPoint {
            name: "full classification",
            flops: 2.0 * lf * df * b,
            bytes: lf * df * 4.0 + b * df * 4.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_point_of_xeon() {
        let r = Roofline::xeon_8280();
        // ~4838 GFLOPs / 128 GB/s ≈ 37.8 FLOP/byte.
        assert!((35.0..42.0).contains(&r.ridge_point()), "{}", r.ridge_point());
    }

    #[test]
    fn attainable_clamps_at_peak() {
        let r = Roofline::xeon_8280();
        assert_eq!(r.attainable_gflops(1e9), r.peak_gflops);
        assert!((r.attainable_gflops(1.0) - r.peak_bw_gbs).abs() < 1e-9);
    }

    #[test]
    fn screening_and_candidates_memory_bound_frontend_not() {
        let r = Roofline::xeon_8280();
        // The paper's deployment batch sizes are 1-4 (Fig. 13); batch 128
        // is included only to show the front-end crossing the ridge.
        for batch in [1usize, 2, 4, 128] {
            let pts = figure5b_points(267_744, 512, 128, 2048, 0.5, batch);
            let screening = &pts[0];
            let cand = &pts[1];
            let fe = &pts[2];
            if batch <= 4 {
                assert!(r.is_memory_bound(screening.intensity()), "batch {batch}");
                assert!(r.is_memory_bound(cand.intensity()), "batch {batch}");
            }
            // Front-end reuses its weights across the batch, so its
            // intensity scales with batch and crosses the ridge as the
            // batch grows (the paper's "darker color" direction).
            if batch >= 128 {
                assert!(!r.is_memory_bound(fe.intensity()), "batch {batch}");
            }
            let _ = cand;
        }
    }

    #[test]
    fn intensity_rises_with_batch_for_screening() {
        let p1 = figure5b_points(267_744, 512, 128, 2048, 0.5, 1)[0].intensity();
        let p4 = figure5b_points(267_744, 512, 128, 2048, 0.5, 4)[0].intensity();
        assert!(p4 > p1);
    }

    #[test]
    fn zero_bytes_is_infinite_intensity() {
        let k = KernelPoint { name: "x", flops: 1.0, bytes: 0.0 };
        assert!(k.intensity().is_infinite());
    }
}
