//! `simulate-fig13`: the cycle-level rank units and DRAM controllers of
//! Fig. 13, with no tensor kernel on the path.
//!
//! A pass runs `SystemModel::run_sharded` for ENMC and the NDA,
//! Chameleon and TensorDIMM baselines on the four Table 2 shapes, at
//! batch 1 and 4 for ENMC and TensorDIMM and at batch 1 for NDA and
//! Chameleon, plus ENMC on S1M at batch 1 and 4 — 26 calls, one op each —
//! and attributes every run with `enmc_perf::attribute`. ENMC's
//! inline-filter read stream runs next to the baselines' spill path
//! (write, then re-read). Categories are scaled by 1/`SCALE` so one pass
//! takes about half a second; per-rank behaviour is unchanged, only the
//! slices shrink. Short passes give each op about twenty runs in a run of
//! the suite to take its median over; NDA and Chameleon at batch 4 would
//! nearly double a pass.

use crate::digest::Fnv;
use crate::runner::{Det, Pass, Workload};
use crate::spans::{Profile, Spans};
use crate::stats::ratio;
use enmc_arch::baseline::BaselineKind;
use enmc_arch::system::{ClassificationJob, Scheme, CHANNELS};
use enmc_arch::SystemModel;
use enmc_bench::candidate_fraction;
use enmc_dram::DramStats;
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;
use enmc_perf::attribute;
use std::collections::BTreeSet;

const SCALE: usize = 32;
const BATCHES: [usize; 2] = [1, 4];

pub struct Fig13 {
    sys: SystemModel,
    points: Vec<(ClassificationJob, Scheme)>,
}

fn job(id: WorkloadId, batch: usize) -> ClassificationJob {
    let w = id.workload();
    let categories = w.categories / SCALE;
    ClassificationJob {
        categories,
        hidden: w.hidden,
        reduced: (w.hidden / 4).max(1),
        batch,
        candidates: (categories as f64 * candidate_fraction(id)).round() as usize,
    }
}

impl Workload for Fig13 {
    fn setup(_seed: u64, spans: &mut Spans) -> Self {
        let sys = SystemModel::table3();
        let mut points = Vec::new();
        for scheme in [Scheme::Enmc]
            .into_iter()
            .chain(BaselineKind::figure13().map(Scheme::Baseline))
        {
            let batches = match scheme {
                Scheme::Baseline(BaselineKind::Nda | BaselineKind::Chameleon) => &BATCHES[..1],
                _ => &BATCHES[..],
            };
            for id in WorkloadId::table2() {
                points.extend(batches.iter().map(|&b| (job(id, b), scheme)));
            }
        }
        points.extend(BATCHES.map(|b| (job(WorkloadId::S1M, b), Scheme::Enmc)));
        // Warm-up: every scheme on the first shape, so the first timed
        // ops do not pay first-touch allocation.
        for (job, scheme) in points
            .iter()
            .filter(|(j, _)| j.categories == points[0].0.categories)
        {
            spans.span("arch.run_sharded", |_| {
                sys.run_sharded(job, *scheme, &SimConfig::sequential())
            });
        }
        Fig13 { sys, points }
    }

    fn pass(&self, pass: &mut Pass) -> Option<Vec<Det>> {
        let (mut ns, mut nj, mut calls) = (Vec::new(), Vec::new(), 0usize);
        let mut dram = DramStats::default();
        for &(job, scheme) in &self.points {
            if pass.expired() {
                return None;
            }
            let distinct = distinct_ranks(&job, scheme, &self.sys);
            let (run, ok) = pass.op(|spans| {
                let run = spans.span("arch.run_sharded", |_| {
                    self.sys.run_sharded(&job, scheme, &SimConfig::sequential())
                });
                let report = run
                    .result
                    .rank_report
                    .as_ref()
                    .expect("NMP schemes are simulated");
                let logic = self
                    .sys
                    .logic_energy_model(scheme)
                    .expect("NMP schemes draw logic power");
                let attr = spans.span("perf.attribute", |_| {
                    attribute(
                        report,
                        &run.shard_dram,
                        CHANNELS,
                        self.sys.energy_model(),
                        &logic,
                    )
                });
                let rows = attr.rows();
                let ok = attr.total_cycles() == report.dram_cycles
                    && rows.iter().map(|r| r.cycles).sum::<u64>() == attr.total_cycles()
                    && rows.iter().fold(0.0, |acc, r| acc + r.nj) == attr.energy_nj();
                if spans.enabled() {
                    let slices = distinct.iter().map(|&i| &run.shard_dram[i]);
                    let cmds = |s: &DramStats| {
                        s.activations + s.precharges + s.reads + s.writes + s.refreshes
                    };
                    spans.count(
                        "arch.sim_cycles",
                        slices.clone().map(|s| s.total_cycles as f64).sum(),
                    );
                    spans.count("dram.cmds", slices.map(|s| cmds(s) as f64).sum());
                    spans.count("arch.shard_wall_ns", run.shard_wall_ns);
                }
                let digest = Fnv::default()
                    .f64(run.result.ns)
                    .debug(&run.result.energy)
                    .debug(report)
                    .debug(&run.shard_dram)
                    .finish();
                ((run, ok), digest, ok)
            });
            if !ok {
                continue;
            }
            let energy = run.result.energy.expect("NMP schemes carry energy");
            ns.push(run.result.ns / job.batch as f64);
            nj.push(energy.total_nj() / job.batch as f64);
            calls += distinct.len();
            for s in &run.shard_dram {
                dram.merge_sequential(s);
            }
        }
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        Some(vec![
            Det::new(
                "sim_ns_per_query",
                enmc_tensor::stats::geometric_mean(&ns),
                "ns",
            ),
            Det::new(
                "sim_nj_per_query",
                enmc_tensor::stats::geometric_mean(&nj),
                "nJ",
            ),
            Det::new("arch.rank_unit.calls", calls as f64, "count"),
            Det::new(
                "dram.idle_cycle_frac",
                ratio(dram.idle_cycles, dram.total_cycles),
                "ratio",
            ),
            Det::new(
                "dram.row_hit_ratio",
                ratio(
                    dram.row_hits,
                    dram.row_hits + dram.row_misses + dram.row_conflicts,
                ),
                "ratio",
            ),
            Det::new(
                "dram.write_frac",
                ratio(dram.writes, dram.reads + dram.writes),
                "ratio",
            ),
        ])
    }

    fn layers(&self, _setup: &Profile, passes: &Profile) -> Vec<(&'static str, f64)> {
        let wall_s = passes.count("arch.shard_wall_ns") * 1e-9;
        let per_s = |key: &str| ratio(passes.count(key), wall_s);
        vec![
            ("arch.rank_unit.sim_cycles_per_s", per_s("arch.sim_cycles")),
            ("dram.cmds_per_s", per_s("dram.cmds")),
        ]
    }
}

/// Ranks whose slice `run_sharded` simulates (the first rank of each
/// distinct slice; the rest reuse its report).
fn distinct_ranks(job: &ClassificationJob, scheme: Scheme, sys: &SystemModel) -> Vec<usize> {
    let units = match scheme {
        Scheme::Baseline(kind) => kind.config().units_per_channel * 8,
        _ => sys.total_ranks,
    };
    let mut seen = BTreeSet::new();
    job.rank_jobs(units)
        .into_iter()
        .enumerate()
        .filter(|(_, j)| seen.insert((j.categories, j.batch, j.candidates_per_item.clone())))
        .map(|(i, _)| i)
        .collect()
}
