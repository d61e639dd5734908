//! FGD baseline (Zhang et al., NeurIPS'18 — the paper's reference \[48\]): fast
//! graph-based decoding of softmax layers.
//!
//! FGD treats top-k classification as maximum-inner-product search and
//! navigates a small-world graph over the classifier rows: starting from a
//! few entry points, it greedily expands the neighbours of the best scored
//! nodes, computing exact inner products only for visited nodes. Quality is
//! controlled by the search beam (`ef`), and the cost is proportional to
//! the number of distance evaluations — the classic quality/speedup knob
//! the paper sweeps in Fig. 11.
//!
//! The graph here is a single-layer navigable small-world graph: each node
//! links to its `degree` nearest neighbours (by inner product of the
//! normalized rows) drawn from a bounded candidate pool, plus reverse
//! edges. Logits for unvisited categories fall back to a constant floor
//! (FGD produces top-k only; the floor mimics its "rest are irrelevant"
//! semantics when we compute perplexity proxies).

use crate::cost::ClassificationCost;
use enmc_tensor::matrix::dot;
use enmc_tensor::{Matrix, TensorError, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Build-time parameters for the FGD graph.
#[derive(Debug, Clone, Copy)]
pub struct FgdConfig {
    /// Out-degree of each node.
    pub degree: usize,
    /// Candidate-pool size per node during construction (caps build cost
    /// at `l · pool · d`).
    pub pool: usize,
    /// Number of entry points (the highest-bias / most popular rows).
    pub entry_points: usize,
    /// Uniformly random long-range links added per node; these give the
    /// graph its small-world navigability across clusters.
    pub long_links: usize,
    /// RNG seed for pool sampling.
    pub seed: u64,
}

impl Default for FgdConfig {
    fn default() -> Self {
        FgdConfig { degree: 16, pool: 512, entry_points: 8, long_links: 4, seed: 0xf6d }
    }
}

/// A graph-decoding classifier over a fixed weight matrix.
#[derive(Debug, Clone)]
pub struct FgdIndex {
    weights: Matrix,
    bias: Vector,
    /// Adjacency: `degree`-bounded neighbour lists.
    edges: Vec<Vec<u32>>,
    entries: Vec<usize>,
}

impl FgdIndex {
    /// Builds the navigable graph over `weights`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for empty inputs or a zero
    /// degree.
    pub fn build(weights: Matrix, bias: Vector, config: &FgdConfig) -> Result<Self, TensorError> {
        let (l, d) = weights.shape();
        if l == 0 || d == 0 {
            return Err(TensorError::InvalidArgument("empty classifier"));
        }
        if config.degree == 0 || config.pool == 0 || config.entry_points == 0 {
            return Err(TensorError::InvalidArgument("degree/pool/entries must be nonzero"));
        }
        if bias.len() != l {
            return Err(TensorError::ShapeMismatch {
                op: "FgdIndex::build",
                expected: (l, 1),
                found: (bias.len(), 1),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut edges: Vec<Vec<u32>> = vec![Vec::new(); l];
        let pool = config.pool.min(l);
        for i in 0..l {
            // Sample a candidate pool and keep the top-degree by inner
            // product similarity of rows.
            let mut best: Vec<(f32, u32)> = Vec::with_capacity(pool);
            let wi = weights.row(i);
            for _ in 0..pool {
                let j = rng.random_range(0..l);
                if j == i {
                    continue;
                }
                best.push((dot(wi, weights.row(j)), j as u32));
            }
            best.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite similarity"));
            best.dedup_by_key(|e| e.1);
            edges[i] = best.into_iter().take(config.degree).map(|(_, j)| j).collect();
        }
        // Long-range random links make the graph small-world so search can
        // hop between clusters.
        for (i, e) in edges.iter_mut().enumerate() {
            for _ in 0..config.long_links {
                let j = rng.random_range(0..l) as u32;
                if j as usize != i && !e.contains(&j) {
                    e.push(j);
                }
            }
        }
        // Reverse edges (bounded to 2×degree) for navigability.
        let forward = edges.clone();
        for (i, nbrs) in forward.iter().enumerate() {
            for &j in nbrs {
                let e = &mut edges[j as usize];
                if e.len() < 2 * config.degree && !e.contains(&(i as u32)) {
                    e.push(i as u32);
                }
            }
        }
        // Entry points: highest-bias categories (popularity proxy), spread
        // over the id space to break ties when biases are uniform.
        let mut order: Vec<usize> = (0..l).collect();
        order.sort_by(|&a, &b| {
            bias[b]
                .partial_cmp(&bias[a])
                .expect("finite bias")
                .then((a % 101).cmp(&(b % 101)))
        });
        let entries: Vec<usize> = order
            .iter()
            .step_by((l / config.entry_points).max(1))
            .take(config.entry_points)
            .copied()
            .collect();
        Ok(FgdIndex { weights, bias, edges, entries })
    }

    /// Greedy beam search for the top-`k` categories with beam width `ef`.
    ///
    /// Returns `(logits, refined_indices, cost)`. Logits of unvisited
    /// categories are set to `floor` (the minimum visited score minus a
    /// margin), since graph decoding never scores them.
    ///
    /// # Panics
    ///
    /// Panics if `h.len()` differs from the hidden dimension.
    pub fn classify(&self, h: &Vector, k: usize, ef: usize) -> (Vector, Vec<usize>, ClassificationCost) {
        let (l, d) = self.weights.shape();
        let ef = ef.max(k).max(1);
        let score = |i: usize| dot(self.weights.row(i), h.as_slice()) + self.bias[i];

        let mut visited: HashSet<usize> = HashSet::new();
        // Max-heap of frontier candidates by score.
        let mut frontier: BinaryHeap<(ordered_f32, usize)> = BinaryHeap::new();
        // Min-heap of the best `ef` results.
        let mut results: BinaryHeap<Reverse<(ordered_f32, usize)>> = BinaryHeap::new();
        let mut evals = 0u64;

        for &e in &self.entries {
            if visited.insert(e) {
                let s = score(e);
                evals += 1;
                frontier.push((ordered_f32(s), e));
                results.push(Reverse((ordered_f32(s), e)));
            }
        }
        while let Some((s, node)) = frontier.pop() {
            // Stop when the best frontier score cannot improve the beam.
            if results.len() >= ef {
                if let Some(&Reverse((worst, _))) = results.peek() {
                    if s.0 < worst.0 {
                        break;
                    }
                }
            }
            for &nb in &self.edges[node] {
                let nb = nb as usize;
                if !visited.insert(nb) {
                    continue;
                }
                let sn = score(nb);
                evals += 1;
                let beats = results.len() < ef
                    || results.peek().is_some_and(|&Reverse((w, _))| sn > w.0);
                if beats {
                    frontier.push((ordered_f32(sn), nb));
                    results.push(Reverse((ordered_f32(sn), nb)));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }

        let mut scored: Vec<(f32, usize)> =
            results.into_iter().map(|Reverse((s, i))| (s.0, i)).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
        let floor = scored.last().map(|&(s, _)| s - 10.0).unwrap_or(-10.0);
        let mut logits = Vector::from(vec![floor; l]);
        for &(s, i) in &scored {
            logits[i] = s;
        }
        let top: Vec<usize> = scored.iter().take(k).map(|&(_, i)| i).collect();

        let cost = ClassificationCost {
            fp32_macs: evals * d as u64,
            int_macs: 0,
            // Visited rows are gathered from DRAM (random access, charged a
            // full cache line per d-vector) + adjacency lists.
            bytes_read: evals * (d as u64 * 4) + evals * 64,
            bytes_written: (ef * 4) as u64,
        };
        (logits, top, cost)
    }
}

/// Total-order f32 (NaN treated as −∞) for heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF32(f32);

#[allow(non_camel_case_types)]
type ordered_f32 = OrderedF32;

#[allow(non_snake_case)]
fn ordered_f32(v: f32) -> OrderedF32 {
    OrderedF32(if v.is_nan() { f32::NEG_INFINITY } else { v })
}

impl Eq for OrderedF32 {}
impl PartialOrd for OrderedF32 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF32 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("NaN mapped to -inf")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_tensor::dist::standard_normal;
    use enmc_tensor::select::top_k_indices;

    fn clustered_classifier(l: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let clusters = 8;
        let mut centres = Matrix::zeros(clusters, d);
        for v in centres.as_mut_slice() {
            *v = standard_normal(&mut rng);
        }
        let mut w = Matrix::zeros(l, d);
        for i in 0..l {
            let c = i % clusters;
            let centre: Vec<f32> = centres.row(c).to_vec();
            for (x, ctr) in w.row_mut(i).iter_mut().zip(&centre) {
                *x = ctr + standard_normal(&mut rng) * 0.3;
            }
        }
        w
    }

    #[test]
    fn build_validates_inputs() {
        let cfg = FgdConfig::default();
        assert!(FgdIndex::build(Matrix::zeros(0, 4), Vector::zeros(0), &cfg).is_err());
        let bad = FgdConfig { degree: 0, ..cfg };
        assert!(FgdIndex::build(Matrix::zeros(4, 4), Vector::zeros(4), &bad).is_err());
        assert!(FgdIndex::build(Matrix::zeros(4, 4), Vector::zeros(5), &cfg).is_err());
    }

    #[test]
    fn finds_true_top1_with_wide_beam() {
        let w = clustered_classifier(400, 16, 1);
        let idx = FgdIndex::build(w.clone(), Vector::zeros(400), &FgdConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = 0;
        let trials = 30;
        for _ in 0..trials {
            let h: Vector = (0..16).map(|_| standard_normal(&mut rng)).collect();
            let exact_top = top_k_indices(w.matvec(&h).as_slice(), 1)[0];
            let (_, top, _) = idx.classify(&h, 1, 64);
            if top.first() == Some(&exact_top) {
                hits += 1;
            }
        }
        assert!(hits as f64 / trials as f64 > 0.7, "hit rate {}", hits as f64 / trials as f64);
    }

    #[test]
    fn wider_beam_costs_more_and_finds_more() {
        let w = clustered_classifier(400, 16, 3);
        let idx = FgdIndex::build(w.clone(), Vector::zeros(400), &FgdConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let h: Vector = (0..16).map(|_| standard_normal(&mut rng)).collect();
        let (_, _, c_small) = idx.classify(&h, 1, 4);
        let (_, _, c_big) = idx.classify(&h, 1, 128);
        assert!(c_big.fp32_macs > c_small.fp32_macs);
        // Both are far below brute force (400·16 MACs).
        assert!(c_big.fp32_macs < 400 * 16);
    }

    #[test]
    fn visited_scores_are_exact() {
        let w = clustered_classifier(200, 8, 5);
        let bias: Vector = (0..200).map(|i| (i % 7) as f32 * 0.01).collect();
        let idx = FgdIndex::build(w.clone(), bias.clone(), &FgdConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let h: Vector = (0..8).map(|_| standard_normal(&mut rng)).collect();
        let (logits, top, _) = idx.classify(&h, 5, 32);
        let exact = w.matvec_bias(&h, &bias);
        for &i in &top {
            assert!((logits[i] - exact[i]).abs() < 1e-5, "node {i}");
        }
    }

    #[test]
    fn unvisited_fall_to_floor() {
        let w = clustered_classifier(300, 8, 7);
        let idx = FgdIndex::build(w, Vector::zeros(300), &FgdConfig::default()).unwrap();
        let h = Vector::from(vec![0.5; 8]);
        let (logits, top, _) = idx.classify(&h, 2, 8);
        let min_top = top.iter().map(|&i| logits[i]).fold(f32::INFINITY, f32::min);
        let floor = logits.as_slice().iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(floor < min_top);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = clustered_classifier(100, 8, 8);
        let cfg = FgdConfig::default();
        let a = FgdIndex::build(w.clone(), Vector::zeros(100), &cfg).unwrap();
        let b = FgdIndex::build(w, Vector::zeros(100), &cfg).unwrap();
        let h = Vector::from(vec![0.3; 8]);
        assert_eq!(a.classify(&h, 3, 16).1, b.classify(&h, 3, 16).1);
    }
}
