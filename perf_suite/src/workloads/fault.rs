//! `fault-sweep`: the resilience quality path (`fault-sweep`, fig11) on
//! the four Table 2 evaluation shapes, whose working sets fit in L2.
//!
//! Set-up fits each shape's pipeline (`fit_pipeline`: synthesis plus INT4
//! distillation). A pass runs `enmc_fault::run_sweep` once per (shape,
//! refresh multiplier) point — one point is one op — with SEC-DED on and
//! the candidate tiers {k, k/2}. The op is the same call in a traced
//! pass; the layers it runs inside (corrupting both weight images, the
//! full reference logits, the clean pipeline) are timed on their own
//! between ops, on the point's inputs.

use crate::digest::Fnv;
use crate::runner::{Det, Pass, Workload};
use crate::spans::{Profile, Spans};
use crate::stats::ratio;
use enmc_bench::{fit_pipeline, FittedWorkload};
use enmc_fault::inject::WEIGHTS_BASE_ADDR;
use enmc_fault::{corrupt_matrix, corrupt_screener, run_sweep, FaultModel, FaultSweepSpec};
use enmc_model::workloads::WorkloadId;
use enmc_screen::SelectionPolicy;
use enmc_tensor::Precision;

/// The nominal refresh interval, whose point SEC-DED must leave clean, and
/// the stretched one whose points correct the most errors. An op takes
/// 0.1–0.5 s, so a pass is held to eight of them and a run times each op
/// over several passes.
const MULTIPLIERS: [f64; 2] = [1.0, 32.0];
const QUERIES: usize = 16;

pub struct Fault {
    shapes: Vec<(FittedWorkload, FaultSweepSpec)>,
}

impl Workload for Fault {
    fn setup(seed: u64, spans: &mut Spans) -> Self {
        let shapes = WorkloadId::table2()
            .into_iter()
            .map(|id| {
                let fitted = spans.span("screen.fit_pipeline", |_| {
                    fit_pipeline(id, 0.25, Precision::Int4, seed)
                });
                let SelectionPolicy::TopM(k) = fitted.classifier.policy() else {
                    unreachable!("fit_pipeline configures top-M selection")
                };
                let spec = FaultSweepSpec {
                    model: FaultModel::nominal(seed),
                    multipliers: Vec::new(),
                    ecc: true,
                    queries: QUERIES,
                    query_seed: seed ^ 0xfa17,
                    tiers: vec![k, (k / 2).max(1)],
                };
                (fitted, spec)
            })
            .collect();
        Fault { shapes }
    }

    fn pass(&self, pass: &mut Pass) -> Option<Vec<Det>> {
        let mut points = Vec::new();
        // Multiplier-major, so every prefix of a pass covers the shapes
        // evenly.
        for m in MULTIPLIERS {
            for (fitted, spec) in &self.shapes {
                if pass.expired() {
                    return None;
                }
                let spec = FaultSweepSpec {
                    multipliers: vec![m],
                    ..spec.clone()
                };
                if pass.spans().enabled() {
                    time_layers(fitted, &spec, pass.spans());
                }
                points.push(pass.op(|spans| {
                    let point = spans
                        .span("fault.run_sweep", |_| {
                            run_sweep(&fitted.synth, &fitted.classifier, &spec, 1)
                        })
                        .expect("frozen per-tensor screeners inject cleanly")
                        .remove(0);
                    let clean = m > 1.0
                        || (point.tiers.iter().all(|t| t.fault_top1_flips == 0)
                            && point.screener.residual_flips + point.weights.residual_flips == 0);
                    let digest = Fnv::default().debug(&point).finish();
                    (point, digest, clean)
                }));
            }
        }
        let n = points.len() as f64;
        Some(vec![
            Det::new(
                "quality_top1",
                points
                    .iter()
                    .map(|p| p.primary().quality.top1_agreement)
                    .sum::<f64>()
                    / n,
                "ratio",
            ),
            Det::new(
                "fault.top1_flips",
                points
                    .iter()
                    .map(|p| p.primary().fault_top1_flips as f64)
                    .sum(),
                "count",
            ),
        ])
    }

    fn layers(&self, _setup: &Profile, passes: &Profile) -> Vec<(&'static str, f64)> {
        let corrupt_ns = passes.ns("fault.corrupt_matrix") + passes.ns("fault.corrupt_screener");
        let words = passes.count("fault.ecc_words");
        vec![
            (
                "fault.corrupt_matrix.ms",
                passes.us_per_call("fault.corrupt_matrix") / 1e3,
            ),
            (
                "fault.corrupt_screener.ms",
                passes.us_per_call("fault.corrupt_screener") / 1e3,
            ),
            ("fault.ecc_words_per_s", ratio(words, corrupt_ns * 1e-9)),
            (
                "tensor.matvec.gbps",
                passes.rate("tensor.matvec.bytes", "tensor.matvec") / 1e9,
            ),
            ("screen.classify.us", passes.us_per_call("screen.classify")),
        ]
    }
}

/// The crate calls one `run_sweep` point makes, each timed on its own on
/// the point's inputs: both weight images corrupted under SEC-DED, then
/// per query the FP32 reference logits and the clean pipeline at the
/// headline tier.
fn time_layers(fitted: &FittedWorkload, spec: &FaultSweepSpec, spans: &mut Spans) {
    let (synth, classifier) = (&fitted.synth, &fitted.classifier);
    let model = spec.model.with_refresh_multiplier(spec.multipliers[0]);
    let (_, screener_stats, _) = spans
        .span("fault.corrupt_screener", |_| {
            corrupt_screener(classifier.screener(), &model, spec.ecc)
        })
        .expect("frozen per-tensor screeners inject cleanly");
    let (_, weights_stats, _) = spans.span("fault.corrupt_matrix", |_| {
        corrupt_matrix(classifier.weights(), WEIGHTS_BASE_ADDR, &model, spec.ecc)
    });
    spans.count(
        "fault.ecc_words",
        (screener_stats.words + weights_stats.words) as f64,
    );
    let full_bytes = (classifier.categories() * synth.hidden() * 4) as f64;
    let policy = SelectionPolicy::TopM(spec.tiers[0]);
    for q in synth.sample_queries_seeded(spec.queries, spec.query_seed) {
        spans.span("tensor.matvec", |_| {
            std::hint::black_box(synth.full_logits(&q.hidden))
        });
        spans.count("tensor.matvec.bytes", full_bytes);
        spans.span("screen.classify", |_| {
            std::hint::black_box(classifier.classify_ref_with(&q.hidden, policy))
        });
    }
}
