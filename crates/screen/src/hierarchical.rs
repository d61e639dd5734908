//! Two-level hierarchical softmax baseline.
//!
//! The oldest efficient-classification trick (Goodman'01, Morin &
//! Bengio'05, and the "class-based" softmax the paper's related work
//! brackets under approximation methods \[5, 37, 48\]): categories are
//! grouped into `√l`-ish clusters; inference scores the cluster layer
//! first (`C·d` MACs), then only the members of the top clusters
//! (`(l/C)·d` per cluster). Cost per query is `O(√l·d)` instead of
//! `O(l·d)`, but categories in unvisited clusters get no score — the same
//! truncation weakness as FGD, plus sensitivity to the clustering.
//!
//! Cluster assignments are learned offline here by k-means on the
//! classifier rows (the standard practice when the tree is not frequency
//! based); cluster scores use the centroid row.

use crate::cost::ClassificationCost;
use enmc_tensor::matrix::dot;
use enmc_tensor::select::top_k_indices;
use enmc_tensor::{Matrix, TensorError, Vector};

/// A two-level hierarchical classifier over a fixed weight matrix.
#[derive(Debug, Clone)]
pub struct Hierarchical {
    weights: Matrix,
    bias: Vector,
    /// Cluster centroids (`clusters × d`).
    centroids: Matrix,
    /// Members of each cluster.
    members: Vec<Vec<u32>>,
}

impl Hierarchical {
    /// Builds the hierarchy with `clusters` groups via `iterations` rounds
    /// of k-means on the classifier rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if inputs are empty or
    /// `clusters` exceeds the category count.
    pub fn build(
        weights: Matrix,
        bias: Vector,
        clusters: usize,
        iterations: usize,
    ) -> Result<Self, TensorError> {
        let (l, d) = weights.shape();
        if l == 0 || d == 0 {
            return Err(TensorError::InvalidArgument("empty classifier"));
        }
        if clusters == 0 || clusters > l {
            return Err(TensorError::InvalidArgument("cluster count out of range"));
        }
        if bias.len() != l {
            return Err(TensorError::ShapeMismatch {
                op: "Hierarchical::build",
                expected: (l, 1),
                found: (bias.len(), 1),
            });
        }
        // k-means init: evenly strided rows.
        let mut centroids = Matrix::zeros(clusters, d);
        for c in 0..clusters {
            let src = weights.row(c * l / clusters).to_vec();
            centroids.row_mut(c).copy_from_slice(&src);
        }
        let mut assign = vec![0u32; l];
        for _ in 0..iterations.max(1) {
            // Assign.
            for i in 0..l {
                let row = weights.row(i);
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for c in 0..clusters {
                    let cent = centroids.row(c);
                    let dist: f32 =
                        row.iter().zip(cent).map(|(a, b)| (a - b) * (a - b)).sum();
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                assign[i] = best as u32;
            }
            // Update.
            let mut counts = vec![0u32; clusters];
            let mut sums = Matrix::zeros(clusters, d);
            for i in 0..l {
                let c = assign[i] as usize;
                counts[c] += 1;
                let row = weights.row(i).to_vec();
                for (s, v) in sums.row_mut(c).iter_mut().zip(&row) {
                    *s += *v;
                }
            }
            for c in 0..clusters {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f32;
                    let row = sums.row(c).to_vec();
                    for (dst, v) in centroids.row_mut(c).iter_mut().zip(&row) {
                        *dst = v * inv;
                    }
                }
            }
        }
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); clusters];
        for (i, &c) in assign.iter().enumerate() {
            members[c as usize].push(i as u32);
        }
        Ok(Hierarchical { weights, bias, centroids, members })
    }

    /// Classifies one query by visiting the `top_clusters` best clusters.
    ///
    /// Returns `(logits, scored_indices, cost)`; unvisited categories get
    /// a floor value (truncation, as in FGD).
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` differs from `d`.
    pub fn classify(
        &self,
        h: &Vector,
        top_clusters: usize,
    ) -> (Vector, Vec<usize>, ClassificationCost) {
        let (l, d) = self.weights.shape();
        let c = self.centroids.rows();
        let cluster_scores = self.centroids.matvec(h);
        let chosen = top_k_indices(cluster_scores.as_slice(), top_clusters.max(1));
        let mut scored = Vec::new();
        let mut best_min = f32::INFINITY;
        let mut logits = vec![f32::NAN; l];
        for &cl in &chosen {
            for &i in &self.members[cl] {
                let i = i as usize;
                let z = dot(self.weights.row(i), h.as_slice()) + self.bias[i];
                logits[i] = z;
                best_min = best_min.min(z);
                scored.push(i);
            }
        }
        let floor = if best_min.is_finite() { best_min - 10.0 } else { -10.0 };
        for v in &mut logits {
            if v.is_nan() {
                *v = floor;
            }
        }
        let visited = scored.len();
        let cost = ClassificationCost {
            fp32_macs: ((c + visited) * d) as u64,
            int_macs: 0,
            bytes_read: ((c + visited) * d * 4) as u64,
            bytes_written: (l * 4) as u64,
        };
        (Vector::from(logits), scored, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_tensor::dist::standard_normal;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered(l: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = 10;
        let mut centres = Matrix::zeros(groups, d);
        for v in centres.as_mut_slice() {
            *v = standard_normal(&mut rng);
        }
        let mut w = Matrix::zeros(l, d);
        for i in 0..l {
            let c: Vec<f32> = centres.row(i % groups).to_vec();
            for (x, ctr) in w.row_mut(i).iter_mut().zip(&c) {
                *x = ctr + standard_normal(&mut rng) * 0.25;
            }
        }
        w
    }

    #[test]
    fn build_validates_inputs() {
        assert!(Hierarchical::build(Matrix::zeros(0, 4), Vector::zeros(0), 2, 3).is_err());
        assert!(Hierarchical::build(Matrix::zeros(4, 4), Vector::zeros(4), 0, 3).is_err());
        assert!(Hierarchical::build(Matrix::zeros(4, 4), Vector::zeros(4), 9, 3).is_err());
        assert!(Hierarchical::build(Matrix::zeros(4, 4), Vector::zeros(5), 2, 3).is_err());
    }

    #[test]
    fn members_partition_the_categories() {
        let w = clustered(300, 16, 1);
        let h = Hierarchical::build(w, Vector::zeros(300), 12, 4).unwrap();
        let total: usize = h.members.iter().map(Vec::len).sum();
        assert_eq!(total, 300);
        let mut seen = std::collections::HashSet::new();
        for members in &h.members {
            for &i in members {
                assert!(seen.insert(i), "category {i} in two clusters");
            }
        }
    }

    #[test]
    fn kmeans_recovers_planted_clusters() {
        // With 10 planted groups and 10 k-means clusters, most categories
        // of a group should land together.
        let w = clustered(400, 16, 2);
        let h = Hierarchical::build(w, Vector::zeros(400), 10, 8).unwrap();
        // Purity proxy: the largest cluster should be about l/10 = 40, not
        // everything in one bucket or fully fragmented.
        let sizes: Vec<usize> = (0..10).map(|c| h.members[c].len()).collect();
        let max = *sizes.iter().max().expect("nonempty");
        assert!((20..=120).contains(&max), "sizes {sizes:?}");
    }

    #[test]
    fn visited_logits_are_exact() {
        let w = clustered(200, 12, 3);
        let bias: Vector = (0..200).map(|i| (i % 3) as f32 * 0.1).collect();
        let hier = Hierarchical::build(w.clone(), bias.clone(), 8, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let h: Vector = (0..12).map(|_| standard_normal(&mut rng)).collect();
        let (logits, scored, _) = hier.classify(&h, 3);
        let exact = w.matvec_bias(&h, &bias);
        for &i in &scored {
            assert!((logits[i] - exact[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn finds_top1_when_clusters_align() {
        // Seeds chosen so the planted groups are well separated and k-means
        // recovers them; the assertion is about screening quality once the
        // clustering aligns, not about k-means luck on a hard draw.
        let w = clustered(400, 16, 2);
        let hier = Hierarchical::build(w.clone(), Vector::zeros(400), 10, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = 0;
        let trials = 40;
        for _ in 0..trials {
            let t = rng.random_range(0..400usize);
            let h: Vector = w
                .row(t)
                .iter()
                .map(|&x| 2.0 * x + standard_normal(&mut rng) * 0.1)
                .collect();
            let exact_top = top_k_indices(w.matvec(&h).as_slice(), 1)[0];
            let (logits, ..) = hier.classify(&h, 2);
            if top_k_indices(logits.as_slice(), 1)[0] == exact_top {
                hits += 1;
            }
        }
        assert!(hits as f64 / trials as f64 > 0.8, "{hits}/{trials}");
    }

    #[test]
    fn cost_scales_with_visited_clusters() {
        let w = clustered(400, 16, 7);
        let hier = Hierarchical::build(w, Vector::zeros(400), 10, 5).unwrap();
        let h = Vector::from(vec![0.2; 16]);
        let (_, _, c1) = hier.classify(&h, 1);
        let (_, _, c4) = hier.classify(&h, 4);
        assert!(c4.fp32_macs > c1.fp32_macs);
        // Both far below brute force.
        assert!(c4.fp32_macs < 400 * 16);
    }
}
