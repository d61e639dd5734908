//! Quality metrics: how faithful is an approximated classification to the
//! full one?
//!
//! The paper reports BLEU (NMT), perplexity (LM) and accuracy/P@k
//! (recommendation). Without the original test sets we measure the same
//! *mechanism* — how much quality the approximation gives up — by comparing
//! the mixed (approximate + accurate) output against the full classifier
//! output on identical queries:
//!
//! * **top-1 agreement** — fraction of queries where the approximation
//!   selects the same argmax as the full classifier. This is the greedy
//!   decoding decision, so it is a direct proxy for BLEU preservation: if
//!   every decoding step picks the same word, the translation is identical.
//! * **perplexity ratio** — perplexity of the ground-truth targets under
//!   the approximated logits divided by perplexity under the full logits
//!   (1.0 = no degradation).
//! * **precision@k** — overlap between the approximate and full top-k sets,
//!   the standard XC metric for recommendation.

use enmc_tensor::activation::neg_log_prob;
use enmc_tensor::select::top_k_indices;

/// Quality of an approximate classification, accumulated over queries.
#[derive(Debug, Clone, Default)]
pub struct QualityAccumulator {
    n: usize,
    top1_hits: usize,
    p_at_k_sum: f64,
    k: usize,
    nlp_full_sum: f64,
    nlp_approx_sum: f64,
}

/// Summary statistics produced by [`QualityAccumulator::finish`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Number of queries accumulated.
    pub queries: usize,
    /// Fraction of queries whose argmax matches the full classifier
    /// (BLEU proxy for translation, accuracy proxy for recommendation).
    pub top1_agreement: f64,
    /// Mean overlap of approximate vs full top-k sets.
    pub precision_at_k: f64,
    /// `k` used for `precision_at_k`.
    pub k: usize,
    /// Perplexity of targets under the full logits.
    pub perplexity_full: f64,
    /// Perplexity of targets under the approximate logits.
    pub perplexity_approx: f64,
}

impl QualityReport {
    /// Ratio `perplexity_approx / perplexity_full`; 1.0 means lossless.
    pub fn perplexity_ratio(&self) -> f64 {
        if self.perplexity_full == 0.0 {
            0.0
        } else {
            self.perplexity_approx / self.perplexity_full
        }
    }
}

impl QualityAccumulator {
    /// Creates an accumulator that measures precision@`k`.
    pub fn new(k: usize) -> Self {
        QualityAccumulator { k, ..Default::default() }
    }

    /// Accumulates one query.
    ///
    /// `full` are the exact logits, `approx` the mixed approximate/accurate
    /// logits, `target` the ground-truth category (for perplexity).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `target` is out of range.
    pub fn add(&mut self, full: &[f32], approx: &[f32], target: usize) {
        assert_eq!(full.len(), approx.len(), "logit length mismatch");
        assert!(target < full.len(), "target out of range");
        self.n += 1;
        let t_full = top_k_indices(full, self.k.max(1));
        let t_approx = top_k_indices(approx, self.k.max(1));
        if t_full.first() == t_approx.first() {
            self.top1_hits += 1;
        }
        let full_set: std::collections::HashSet<usize> = t_full.iter().copied().collect();
        let overlap = t_approx.iter().filter(|i| full_set.contains(i)).count();
        self.p_at_k_sum += overlap as f64 / self.k.max(1) as f64;
        self.nlp_full_sum += neg_log_prob(full, target);
        self.nlp_approx_sum += neg_log_prob(approx, target);
    }

    /// Absorbs another accumulator's queries, e.g. one evaluated on a
    /// different shard of the batch. Merging shard accumulators in shard
    /// order reproduces the sequential accumulation exactly: the counters
    /// are sums, so the result is independent of how the shards were
    /// scheduled — only of the shard boundaries and merge order.
    ///
    /// # Panics
    ///
    /// Panics when the accumulators measure different `k`.
    pub fn merge(&mut self, other: &QualityAccumulator) {
        assert_eq!(self.k, other.k, "precision@k mismatch");
        self.n += other.n;
        self.top1_hits += other.top1_hits;
        self.p_at_k_sum += other.p_at_k_sum;
        self.nlp_full_sum += other.nlp_full_sum;
        self.nlp_approx_sum += other.nlp_approx_sum;
    }

    /// Number of queries accumulated so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Produces the final report.
    ///
    /// # Panics
    ///
    /// Panics if no queries were accumulated.
    pub fn finish(&self) -> QualityReport {
        assert!(self.n > 0, "no queries accumulated");
        let n = self.n as f64;
        QualityReport {
            queries: self.n,
            top1_agreement: self.top1_hits as f64 / n,
            precision_at_k: self.p_at_k_sum / n,
            k: self.k,
            perplexity_full: (self.nlp_full_sum / n).exp(),
            perplexity_approx: (self.nlp_approx_sum / n).exp(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_logits_are_lossless() {
        let mut acc = QualityAccumulator::new(5);
        let z = vec![0.1, 0.9, -0.5, 2.0, 0.0, 1.0];
        for t in 0..3 {
            acc.add(&z, &z, t);
        }
        let r = acc.finish();
        assert_eq!(r.queries, 3);
        assert_eq!(r.top1_agreement, 1.0);
        assert_eq!(r.precision_at_k, 1.0);
        assert!((r.perplexity_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_argmax_counts_against_top1() {
        let mut acc = QualityAccumulator::new(2);
        let full = vec![0.0, 1.0, 2.0];
        let approx = vec![5.0, 1.0, 2.0]; // different argmax
        acc.add(&full, &approx, 2);
        let r = acc.finish();
        assert_eq!(r.top1_agreement, 0.0);
    }

    #[test]
    fn precision_at_k_counts_overlap() {
        let mut acc = QualityAccumulator::new(2);
        let full = vec![3.0, 2.0, 1.0, 0.0]; // top-2 = {0,1}
        let approx = vec![3.0, 0.0, 2.5, 0.0]; // top-2 = {0,2}
        acc.add(&full, &approx, 0);
        let r = acc.finish();
        assert!((r.precision_at_k - 0.5).abs() < 1e-9);
    }

    #[test]
    fn perplexity_worsens_when_target_suppressed() {
        let mut acc = QualityAccumulator::new(1);
        let full = vec![2.0, 0.0, 0.0];
        let approx = vec![-2.0, 0.0, 0.0]; // target 0 suppressed
        acc.add(&full, &approx, 0);
        let r = acc.finish();
        assert!(r.perplexity_approx > r.perplexity_full);
        assert!(r.perplexity_ratio() > 1.0);
    }

    #[test]
    #[should_panic(expected = "no queries")]
    fn finish_requires_data() {
        QualityAccumulator::new(1).finish();
    }

    #[test]
    fn merged_shards_match_sequential_accumulation() {
        let queries: Vec<(Vec<f32>, Vec<f32>, usize)> = (0..12)
            .map(|i| {
                let full = vec![i as f32, 1.0, 2.0, 0.5];
                let approx = vec![i as f32 * 0.9, 1.1, 2.0, 0.4];
                (full, approx, i % 4)
            })
            .collect();
        let mut seq = QualityAccumulator::new(2);
        for (f, a, t) in &queries {
            seq.add(f, a, *t);
        }
        let mut merged = QualityAccumulator::new(2);
        for shard in queries.chunks(5) {
            let mut acc = QualityAccumulator::new(2);
            for (f, a, t) in shard {
                acc.add(f, a, *t);
            }
            merged.merge(&acc);
        }
        assert_eq!(merged.len(), seq.len());
        let (m, s) = (merged.finish(), seq.finish());
        assert_eq!(m.top1_agreement, s.top1_agreement);
        assert_eq!(m.k, s.k);
        // The float sums re-associate across shards; equal up to rounding.
        assert!((m.precision_at_k - s.precision_at_k).abs() < 1e-12);
        assert!((m.perplexity_full - s.perplexity_full).abs() < 1e-9 * s.perplexity_full);
        assert!((m.perplexity_approx - s.perplexity_approx).abs() < 1e-9 * s.perplexity_approx);
    }

    #[test]
    #[should_panic(expected = "precision@k mismatch")]
    fn merge_rejects_different_k() {
        let mut a = QualityAccumulator::new(2);
        a.merge(&QualityAccumulator::new(3));
    }

    #[test]
    fn len_counts_queries() {
        let mut acc = QualityAccumulator::new(1);
        assert_eq!(acc.len(), 0);
        acc.add(&[1.0, 0.0], &[1.0, 0.0], 0);
        assert_eq!(acc.len(), 1);
    }
}
