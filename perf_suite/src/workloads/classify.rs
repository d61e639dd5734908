//! `classify-gnmt`: approximate screening over the GNMT-E32K category
//! space on the host, the path Fig. 11 and every quality sweep run.
//!
//! Set-up synthesizes the classifier, distills an INT4 screener at scale
//! 0.25 with `TopM` candidate selection at the GNMT candidate fraction,
//! and records the full classifier's top-1 for a verification subset. A
//! pass classifies a fixed query set through `ApproxClassifier::classify_ref`;
//! one query is one op. A traced pass runs each query as its five kernel
//! calls instead, each in its own span, and must reproduce `classify_ref`
//! bit for bit (the op digests are compared).

use crate::digest::Fnv;
use crate::runner::{Det, Pass, Workload};
use crate::spans::{Profile, Spans};
use enmc_bench::candidate_fraction;
use enmc_model::synth::{Query, SynthesisConfig, SyntheticClassifier};
use enmc_model::workloads::WorkloadId;
use enmc_screen::{fit_least_squares, ApproxClassifier, Screener, ScreenerConfig, SelectionPolicy};
use enmc_tensor::{top_k_indices, Matrix, Precision, QuantVector, Vector};

/// GNMT-E32K keeps its full category count; the hidden dimension is cut
/// from 1,024 to 256 and distillation uses 128 training queries, so the
/// set-up (1.4 s on a 2-vCPU Xeon guest) can run three times per run. A query
/// still reads 2 MiB of INT4 codes (one byte per code) and gathers
/// 1.7 MiB of FP32 rows, a per-core L2's worth each.
const CATEGORIES: usize = 32_317;
const HIDDEN: usize = 256;
const SCREEN_SCALE: f64 = 0.25;
const TRAIN_QUERIES: usize = 128;
/// Queries per pass; the first `VERIFY` also score top-1 agreement. A
/// pass of a quarter second times each query about fifty times in a run.
const QUERIES: usize = 128;
const VERIFY: usize = 64;

pub struct Classify {
    clf: ApproxClassifier,
    queries: Vec<Vector>,
    /// Full-classifier top-1 of the first `VERIFY` queries.
    full_top1: Vec<usize>,
    m: usize,
}

impl Workload for Classify {
    fn setup(seed: u64, spans: &mut Spans) -> Self {
        let cfg = SynthesisConfig {
            categories: CATEGORIES,
            hidden: HIDDEN,
            clusters: 48,
            row_noise: 0.4,
            zipf_exponent: 1.0,
            bias_scale: 1.0,
            query_signal: 2.2,
            seed,
        };
        let synth = spans.span("model.synth", |_| {
            SyntheticClassifier::generate(&cfg).expect("valid GNMT synthesis config")
        });
        let (queries, train) = spans.span("model.sample", |_| {
            let hidden =
                |qs: Vec<Query>| -> Vec<Vector> { qs.into_iter().map(|q| q.hidden).collect() };
            (
                hidden(synth.sample_queries_seeded(QUERIES, seed ^ 0x9e3f)),
                hidden(synth.sample_queries_seeded(TRAIN_QUERIES, seed ^ 0x7421)),
            )
        });
        let screener = spans.span("screen.distill", |_| {
            let scfg = ScreenerConfig {
                scale: SCREEN_SCALE,
                precision: Precision::Int4,
                per_row_scales: false,
                seed: seed ^ 0x51ee,
            };
            let mut s = Screener::new(CATEGORIES, HIDDEN, &scfg).expect("nonzero dims");
            fit_least_squares(&mut s, synth.weights(), synth.bias(), &train, 1e-4);
            s
        });
        if spans.enabled() {
            // The distillation's dominant product (l×d · d×k), timed alone.
            let k = screener.reduced_dim();
            let probe = Matrix::from_vec(HIDDEN, k, vec![0.5; HIDDEN * k]).expect("shape");
            spans.span("tensor.matmul", |_| {
                std::hint::black_box(synth.weights().matmul(&probe))
            });
            spans.count("tensor.matmul.flops", (2 * CATEGORIES * HIDDEN * k) as f64);
        }
        let m = (CATEGORIES as f64 * candidate_fraction(WorkloadId::GnmtE32K)).round() as usize;
        let clf = spans.span("screen.freeze", |_| {
            let mut clf = ApproxClassifier::new(
                synth.weights().clone(),
                synth.bias().clone(),
                screener,
                SelectionPolicy::TopM(m),
            )
            .expect("shape-consistent classifier");
            clf.freeze();
            clf
        });
        let full_top1 = queries[..VERIFY]
            .iter()
            .map(|h| {
                let z = spans.span("tensor.matvec", |_| synth.full_logits(h));
                spans.count("tensor.matvec.bytes", (CATEGORIES * HIDDEN * 4) as f64);
                top_k_indices(z.as_slice(), 1)[0]
            })
            .collect();
        Classify {
            clf,
            queries,
            full_top1,
            m,
        }
    }

    fn pass(&self, pass: &mut Pass) -> Option<Vec<Det>> {
        let mut top1 = Vec::with_capacity(QUERIES);
        for h in &self.queries {
            if pass.expired() {
                return None;
            }
            top1.push(pass.op(|spans| {
                let (logits, candidates) = if spans.enabled() {
                    self.decomposed(h, spans)
                } else {
                    let out = self.clf.classify_ref(h);
                    (out.logits, out.candidates)
                };
                let mut sorted = candidates.clone();
                sorted.sort_unstable();
                sorted.dedup();
                let ok = sorted.len() == self.m && candidates.len() == self.m;
                let top1 = top_k_indices(logits.as_slice(), 1)[0];
                let mut digest = Fnv::default().u64(top1 as u64);
                for &c in &candidates {
                    digest = digest.u64(c as u64).f32s(&[logits[c]]);
                }
                (top1, digest.finish(), ok)
            }));
        }
        let agree = self
            .full_top1
            .iter()
            .zip(&top1)
            .filter(|(a, b)| a == b)
            .count();
        Some(vec![
            Det::new("quality_top1", agree as f64 / VERIFY as f64, "ratio"),
            Det::new(
                "screen.candidate_frac",
                self.m as f64 / CATEGORIES as f64,
                "ratio",
            ),
        ])
    }

    fn layers(&self, setup: &Profile, passes: &Profile) -> Vec<(&'static str, f64)> {
        // Counted units (bytes, flops) per second of the span, in billions.
        let giga = |p: &Profile, count: &str, span: &str| p.rate(count, span) / 1e9;
        vec![
            (
                "tensor.matvec_quant.gbps",
                giga(passes, "tensor.matvec_quant.bytes", "tensor.matvec_quant"),
            ),
            (
                "tensor.matvec_rows.gbps",
                giga(passes, "tensor.matvec_rows.bytes", "tensor.matvec_rows"),
            ),
            ("tensor.project.us", passes.us_per_call("tensor.project")),
            ("tensor.select.us", passes.us_per_call("tensor.select")),
            (
                "tensor.matvec.gbps",
                giga(setup, "tensor.matvec.bytes", "tensor.matvec"),
            ),
            (
                "tensor.matmul.gflops",
                giga(setup, "tensor.matmul.flops", "tensor.matmul"),
            ),
            ("model.synth.s", setup.ns("model.synth") / 1e9),
            ("screen.distill.s", setup.ns("screen.distill") / 1e9),
        ]
    }
}

impl Classify {
    /// `classify_ref`'s steps as separate kernel calls, one span each.
    fn decomposed(&self, h: &Vector, spans: &mut Spans) -> (Vector, Vec<usize>) {
        let s = self.clf.screener();
        let (l, k, d) = (s.categories(), s.reduced_dim(), s.hidden_dim());
        let ph = spans.span("tensor.project", |_| s.projection().project(h));
        let mut z = spans.span("tensor.matvec_quant", |_| {
            let qh = QuantVector::quantize(&ph, s.precision()).expect("nonempty activation");
            s.quant_weights()
                .expect("frozen screener")
                .matvec_quant(&qh)
        });
        spans.count("tensor.matvec_quant.bytes", (l * k) as f64);
        spans.span("screen.bias", |_| z.add_assign(s.bias()));
        let candidates = spans.span("tensor.select", |_| self.clf.policy().select(z.as_slice()));
        let exact = spans.span("tensor.matvec_rows", |_| {
            self.clf
                .weights()
                .matvec_rows(&candidates, h, self.clf.bias())
        });
        spans.count(
            "tensor.matvec_rows.bytes",
            (candidates.len() * d * 4) as f64,
        );
        spans.span("screen.mix", |_| {
            for (idx, val) in exact {
                z[idx] = val;
            }
        });
        (z, candidates)
    }
}
