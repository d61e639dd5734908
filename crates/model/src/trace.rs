//! Autoregressive decoding traces.
//!
//! The paper's NLP workloads run the classifier once per *decoding step*:
//! the front-end consumes the previously emitted token and produces the
//! next hidden state. This module synthesizes whole decoding trajectories
//! with that sequential dependence — step `t+1`'s hidden state is anchored
//! near a category sampled from the neighbourhood of step `t`'s target —
//! so sequence-level metrics (exact-match decoding, cumulative perplexity)
//! and per-step latency accounting can be evaluated, not just i.i.d.
//! queries.

use crate::synth::SyntheticClassifier;
use enmc_tensor::dist::standard_normal;
use enmc_tensor::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One decoding step: the hidden state the front-end produced and the
/// ground-truth next token.
#[derive(Debug, Clone)]
pub struct DecodeStep {
    /// Hidden representation entering the classifier.
    pub hidden: Vector,
    /// Ground-truth target category for this step.
    pub target: usize,
}

/// A complete decoding trajectory.
#[derive(Debug, Clone)]
pub struct DecodeTrace {
    /// The steps in order.
    pub steps: Vec<DecodeStep>,
}

/// Generates `sentences` traces of `steps` steps each over `synth`'s
/// category space.
///
/// Sequential structure: the first target is Zipf-sampled; each subsequent
/// target is drawn from the 32 nearest categories (by weight-row cosine)
/// of the previous target with probability `locality`, otherwise fresh
/// from the Zipf law — mimicking topical coherence in text.
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn generate_traces(
    synth: &SyntheticClassifier,
    sentences: usize,
    steps: usize,
    locality: f64,
    seed: u64,
) -> Vec<DecodeTrace> {
    assert!(steps > 0, "traces need at least one step");
    let mut rng = StdRng::seed_from_u64(seed);
    let l = synth.categories();
    let d = synth.hidden();
    let w = synth.weights();

    let mut traces = Vec::with_capacity(sentences);
    for _ in 0..sentences {
        let mut steps_out = Vec::with_capacity(steps);
        // Seed the sentence with an ordinary query.
        let mut prev_target = synth.sample_queries_seeded(1, rng.random())[0].target;
        for _ in 0..steps {
            let target = if rng.random::<f64>() < locality {
                // A category similar to the previous one: search a random
                // pool for the best cosine (cheap approximate kNN).
                let prev_row = w.row(prev_target);
                let mut best = prev_target;
                let mut best_sim = f32::NEG_INFINITY;
                for _ in 0..32 {
                    let cand = rng.random_range(0..l);
                    if cand == prev_target {
                        continue;
                    }
                    let sim = enmc_tensor::matrix::dot(prev_row, w.row(cand));
                    if sim > best_sim {
                        best_sim = sim;
                        best = cand;
                    }
                }
                best
            } else {
                synth.sample_queries_seeded(1, rng.random())[0].target
            };
            // Hidden state anchored at the target row (like synth queries).
            let row = w.row(target);
            let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            let signal = synth.config().query_signal;
            let noise = 1.0 / (d as f32).sqrt();
            let hidden: Vector = row
                .iter()
                .map(|&x| signal * x / norm + standard_normal(&mut rng) * noise)
                .collect();
            steps_out.push(DecodeStep { hidden, target });
            prev_target = target;
        }
        traces.push(DecodeTrace { steps: steps_out });
    }
    traces
}

/// Sequence-level decoding metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceReport {
    /// Fraction of steps where the approximate argmax equals the exact
    /// argmax (per-step agreement).
    pub step_agreement: f64,
    /// Fraction of *sentences* decoded identically start to finish — the
    /// strictest BLEU proxy.
    pub exact_sentences: f64,
    /// Mean per-step perplexity of the targets under the approximate
    /// logits divided by the same under exact logits.
    pub perplexity_ratio: f64,
}

/// Scores an approximate classifier over traces, comparing each step's
/// output against the exact classifier.
pub fn score_traces<F>(synth: &SyntheticClassifier, traces: &[DecodeTrace], mut approx: F) -> SequenceReport
where
    F: FnMut(&Vector) -> Vector,
{
    use enmc_tensor::activation::neg_log_prob;
    use enmc_tensor::select::top_k_indices;
    let mut steps = 0usize;
    let mut agree = 0usize;
    let mut exact_sent = 0usize;
    let mut nlp_full = 0.0;
    let mut nlp_approx = 0.0;
    for trace in traces {
        let mut sentence_exact = true;
        for step in &trace.steps {
            let full = synth.full_logits(&step.hidden);
            let out = approx(&step.hidden);
            let a_full = top_k_indices(full.as_slice(), 1)[0];
            let a_out = top_k_indices(out.as_slice(), 1)[0];
            if a_full == a_out {
                agree += 1;
            } else {
                sentence_exact = false;
            }
            nlp_full += neg_log_prob(full.as_slice(), step.target);
            nlp_approx += neg_log_prob(out.as_slice(), step.target);
            steps += 1;
        }
        if sentence_exact {
            exact_sent += 1;
        }
    }
    let n = steps.max(1) as f64;
    SequenceReport {
        step_agreement: agree as f64 / n,
        exact_sentences: exact_sent as f64 / traces.len().max(1) as f64,
        perplexity_ratio: ((nlp_approx - nlp_full) / n).exp(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthesisConfig;

    fn synth() -> SyntheticClassifier {
        SyntheticClassifier::generate(&SynthesisConfig {
            categories: 600,
            hidden: 48,
            clusters: 12,
            row_noise: 0.4,
            zipf_exponent: 1.0,
            bias_scale: 1.0,
            query_signal: 2.2,
            seed: 5,
        })
        .expect("valid config")
    }

    #[test]
    fn traces_have_requested_shape() {
        let s = synth();
        let traces = generate_traces(&s, 3, 7, 0.7, 1);
        assert_eq!(traces.len(), 3);
        for t in &traces {
            assert_eq!(t.steps.len(), 7);
            for step in &t.steps {
                assert!(step.target < 600);
                assert_eq!(step.hidden.len(), 48);
            }
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let s = synth();
        let a = generate_traces(&s, 2, 5, 0.5, 9);
        let b = generate_traces(&s, 2, 5, 0.5, 9);
        for (ta, tb) in a.iter().zip(&b) {
            for (sa, sb) in ta.steps.iter().zip(&tb.steps) {
                assert_eq!(sa.target, sb.target);
                assert_eq!(sa.hidden, sb.hidden);
            }
        }
    }

    #[test]
    fn locality_produces_similar_consecutive_targets() {
        let s = synth();
        let local = generate_traces(&s, 8, 20, 1.0, 3);
        let free = generate_traces(&s, 8, 20, 0.0, 3);
        let mean_sim = |traces: &[DecodeTrace]| {
            let w = s.weights();
            let mut total = 0.0;
            let mut n = 0;
            for t in traces {
                for pair in t.steps.windows(2) {
                    total += enmc_tensor::stats::cosine_similarity(
                        w.row(pair[0].target),
                        w.row(pair[1].target),
                    );
                    n += 1;
                }
            }
            total / n as f64
        };
        assert!(mean_sim(&local) > mean_sim(&free) + 0.05);
    }

    #[test]
    fn perfect_approximation_scores_perfectly() {
        let s = synth();
        let traces = generate_traces(&s, 4, 6, 0.6, 11);
        let report = score_traces(&s, &traces, |h| s.full_logits(h));
        assert_eq!(report.step_agreement, 1.0);
        assert_eq!(report.exact_sentences, 1.0);
        assert!((report.perplexity_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn broken_approximation_scores_poorly() {
        let s = synth();
        let traces = generate_traces(&s, 4, 6, 0.6, 13);
        // An "approximation" that returns reversed logits.
        let report = score_traces(&s, &traces, |h| {
            let mut z: Vec<f32> = s.full_logits(h).into_inner();
            z.reverse();
            Vector::from(z)
        });
        assert!(report.step_agreement < 0.2);
        assert!(report.exact_sentences < 0.5);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        let s = synth();
        generate_traces(&s, 1, 0, 0.5, 0);
    }
}
