//! Structured run reports: phase-scoped timing plus a metrics snapshot,
//! with a JSON round trip.
//!
//! A [`RunReport`] is the machine-readable summary of one simulated job:
//! what ran, how long each phase took on the host wall clock *and* in
//! simulated DRAM cycles, and every counter the run produced. The
//! invariant the evaluation relies on — per-phase cycle totals summing to
//! the headline latency — is checked by [`RunReport::is_consistent`].
//!
//! Every command fills the core; the typed sections ([`Attribution`],
//! [`Serving`], [`Fault`], [`Surrogate`], [`Fleet`], [`Tune`],
//! [`Offload`]) are `Some` only on the commands that produce them, and a
//! section that is `None` is left out of the JSON.
//!
//! # Example
//!
//! ```
//! use enmc_obs::report::{Offload, RunReport};
//!
//! let mut report = RunReport::new("simulate", "lstm", "enmc");
//! report.push_phase("screen", 1.0e6, 800, 666.4);
//! report.push_phase("gather", 2.5e5, 200, 166.6);
//! report.sim_cycles = 1000;
//! assert!(report.is_consistent());
//! report.offload = Some(Offload { offload_nmp: 3, offload_cpu: 1 });
//! let back = RunReport::from_json(&report.to_json()).unwrap();
//! assert_eq!(back.phases.len(), 2);
//! assert_eq!(back.offload, report.offload);
//! assert!(back.serving.is_none());
//! ```

use crate::json::{self, Field, Value};
use crate::metrics::MetricsReport;
use crate::record;

/// Schema version stamped into every report; [`RunReport::from_json`]
/// reads this version only.
///
/// # Sections (the single source of truth)
///
/// A v11 report is the core — `schema_version`, `command`, `workload`,
/// `scheme`, `batch`, `candidates`, `headline_ns`, `sim_cycles`,
/// `threads`, `speedup`, `protocol_violations`, `memory_tech` — then the
/// sections its command produced, each a nested object, then `phases`,
/// `metrics` and `notes`. Which command writes which section:
///
/// | Section | Keys | Written by |
/// |---|---|---|
/// | `attribution` | `energy_nj`, `breakdown` | `profile`; `simulate --threads N` on a simulated scheme |
/// | `serving` | `slo_attainment`, `p99_ns`, `shed`, `degrade_transitions` | `serve-sim`, `fleet-sim` |
/// | `fault` | `ber`, `refresh_multiplier`, `ecc_corrected`, `ecc_uncorrected`, `quality_degradation_pct`, `ber_scale`, `retention_base`, `weak_column_scale` | `fault-sweep` |
/// | `surrogate` | `cost_backend`, `fit_anchors`, `audit_points`, `audit_max_rel_err` | every command that takes `--cost-model`: `serve-sim`, `fleet-sim`, `fault-sweep`, `tune`, `offload-plan` |
/// | `fleet` | `nodes`, `placement`, `hot_shard_replicas`, `network_share`, `tenants` | `fleet-sim` |
/// | `tune` | `space_size`, `evaluated_designs`, `audited_designs`, `frontier_points`, `dominated_points`, `max_area_mm2`, `max_power_mw` | `tune` |
/// | `offload` | `offload_nmp`, `offload_cpu` | `offload-plan`; `serve-sim`, `fleet-sim` under `--offload` |
///
/// A present section writes every key, zeros included (a `shed` of 0 is
/// a result); an absent one writes nothing.
pub const SCHEMA_VERSION: u32 = 11;

record! {
    /// One timed phase of a run.
    PhaseSpan {
        /// Phase name (`synthesize`, `distill`, `screen`, …).
        name: String,
        /// Host wall-clock time spent in the phase, nanoseconds.
        wall_ns: f64,
        /// Simulated DRAM-clock cycles attributed to the phase (0 for
        /// host-only phases).
        sim_cycles: u64,
        /// Simulated nanoseconds attributed to the phase.
        sim_ns: f64,
    }
}

record! {
    /// One flattened leaf of a hierarchical cost attribution.
    ///
    /// `path` is a `/`-separated position in the tree
    /// (`energy/dram/access/ch0/act`); sibling leaves partition their
    /// parent, so summing any complete leaf set reproduces the
    /// corresponding total exactly. Rows are derived from simulation
    /// counters only — never host wall time — which keeps them
    /// bit-identical across worker counts.
    BreakdownRow {
        /// `/`-separated path of the leaf in the attribution tree.
        path: String,
        /// Simulated DRAM-clock cycles attributed to the leaf (0 for
        /// energy-only leaves).
        cycles: u64,
        /// Energy attributed to the leaf, nanojoules (0.0 for cycle-only
        /// leaves).
        nj: f64,
    }
}

record! {
    /// One tenant's serving outcome inside a fleet run.
    ///
    /// Fleet reports fold per-node state in fixed shard order, so these
    /// rows are listed in tenant-configuration order and carry
    /// simulation-derived numbers only — never host wall clock.
    TenantRow {
        /// Tenant name (`t0`, `t1`, … by CLI convention).
        name: String,
        /// Fraction of the tenant's completed requests that met its
        /// deadline.
        slo_attainment: f64,
        /// The tenant's 99th-percentile request latency, simulated ns.
        p99_ns: f64,
        /// Requests of this tenant rejected by admission control.
        shed: u64,
        /// Requests of this tenant admitted to a node queue.
        admitted: u64,
        /// Requests of this tenant that completed service.
        completed: u64,
        /// Degrade-tier steps the tenant's ladder took, both directions.
        degrade_transitions: u64,
    }
}

record! {
    /// Cost attribution of a cycle-level whole-system run.
    Attribution {
        /// Total attributed system energy in nanojoules; equals the sum
        /// of the energy leaves in `breakdown`.
        energy_nj: f64,
        /// Flattened cost-attribution leaves whose sums reproduce the
        /// headline cycles and `energy_nj` exactly.
        breakdown: Vec<BreakdownRow>,
    }
}

record! {
    /// Request-level outcome of a serving run.
    Serving {
        /// Fraction of completed requests that met their deadline.
        slo_attainment: f64,
        /// 99th-percentile request latency in simulated nanoseconds.
        p99_ns: f64,
        /// Requests rejected by admission control.
        shed: u64,
        /// Screener degrade-tier transitions, counting steps in both
        /// directions.
        degrade_transitions: u64,
    }
}

record! {
    /// Injected faults and what they cost a fault sweep; the scalars
    /// summarize the worst sweep point.
    Fault {
        /// Injected uniform bit-error rate, before the preset's scale.
        ber: f64,
        /// Largest refresh-interval multiplier swept (1.0 = nominal).
        refresh_multiplier: f64,
        /// SEC-DED words corrected (single-bit errors repaired).
        ecc_corrected: u64,
        /// SEC-DED words with a detected but uncorrectable multi-bit
        /// error.
        ecc_uncorrected: u64,
        /// Fraction of queries whose top-1 flipped due to injected
        /// faults, in percent.
        quality_degradation_pct: f64,
        /// The preset's bit-error-rate multiplier relative to the DDR4
        /// baseline (1.0 = baseline incidence).
        ber_scale: f64,
        /// The preset's retention-failure coefficient.
        retention_base: f64,
        /// The preset's weak-column incidence multiplier relative to the
        /// DDR4 baseline (1.0 = baseline incidence).
        weak_column_scale: f64,
    }
}

record! {
    /// Which cost model answered the run, and how its audit went.
    Surrogate {
        /// The cost backend (`cycle-accurate` or `surrogate`).
        cost_backend: String,
        /// Cycle-accurate anchor simulations the surrogate fits ran (0
        /// on the cycle-accurate backend).
        fit_anchors: u64,
        /// Surrogate predictions that were re-run cycle-accurately by
        /// the audit lottery.
        audit_points: u64,
        /// Worst bound-normalized relative leaf error observed over the
        /// audited points (≤ the declared bound or the run would have
        /// failed with a `SurrogateViolation`).
        audit_max_rel_err: f64,
    }
}

record! {
    /// Placement, interconnect and per-tenant outcome of a fleet run.
    Fleet {
        /// Simulated DIMM-group nodes.
        nodes: u64,
        /// Shard placement policy (`consistent-hash` or `popularity`).
        placement: String,
        /// Extra hot-shard copies the placement actually placed.
        hot_shard_replicas: u64,
        /// Fraction of completed-request latency cycles spent on the
        /// interconnect.
        network_share: f64,
        /// Per-tenant serving rows.
        tenants: Vec<TenantRow>,
    }
}

record! {
    /// Design counts and budgets of a tuning run.
    Tune {
        /// Designs in the declared tune space.
        space_size: u64,
        /// Designs the search driver actually evaluated (≤ `space_size`;
        /// equal on exhaustive search).
        evaluated_designs: u64,
        /// Evaluated designs whose surrogate prediction the audit
        /// lottery re-ran cycle-accurately (0 on the cycle-accurate
        /// backend).
        audited_designs: u64,
        /// Pareto-optimal designs on the emitted frontier.
        frontier_points: u64,
        /// Evaluated designs dominated by some frontier point.
        dominated_points: u64,
        /// Declared area budget in mm² (0.0 = unconstrained).
        max_area_mm2: f64,
        /// Declared power budget in mW (0.0 = unconstrained).
        max_power_mw: f64,
    }
}

record! {
    /// Offload-planner decisions.
    Offload {
        /// Decisions that kept NMP execution.
        offload_nmp: u64,
        /// Decisions that chose the CPU roofline instead.
        offload_cpu: u64,
    }
}

record! {
    /// Machine-readable summary of one run: the core, the sections its
    /// command produced, then phases, metrics and notes.
    RunReport {
        /// Report schema version ([`SCHEMA_VERSION`]).
        schema_version: u32,
        /// The command that produced the report (`simulate`, `demo`, …).
        command: String,
        /// Workload identifier.
        workload: String,
        /// Scheme identifier (`enmc`, `cpu`, …).
        scheme: String,
        /// Batch size.
        batch: u64,
        /// Exact candidates per batch item.
        candidates: u64,
        /// Headline simulated latency in nanoseconds.
        headline_ns: f64,
        /// Headline simulated latency in DRAM-clock cycles (0 for
        /// analytic models with no cycle-level simulation).
        sim_cycles: u64,
        /// Worker threads the simulation ran on (0 when the run had no
        /// parallelizable region, e.g. the representative-rank shortcut).
        threads: u64,
        /// Observed host-side parallel speedup of the simulation region
        /// (summed shard wall time over region wall time; 1.0
        /// sequential).
        speedup: f64,
        /// Protocol violations the conformance checker observed (always
        /// 0 unless the run enabled `--check-protocol`).
        protocol_violations: u64,
        /// Memory-technology preset the run simulated (`ddr4-2666`,
        /// `ddr5-4800`, `lpddr4-3200`, `hbm2`, or a comma list for a
        /// tune memory axis; empty when the command has no DRAM timing
        /// domain).
        memory_tech: String,
        /// Cost attribution ([`Attribution`]).
        attribution: Option<Attribution>,
        /// Serving outcome ([`Serving`]).
        serving: Option<Serving>,
        /// Fault-injection outcome ([`Fault`]).
        fault: Option<Fault>,
        /// Cost backend and audit figures ([`Surrogate`]).
        surrogate: Option<Surrogate>,
        /// Fleet placement and tenants ([`Fleet`]).
        fleet: Option<Fleet>,
        /// Tuning counts and budgets ([`Tune`]).
        tune: Option<Tune>,
        /// Offload-planner decisions ([`Offload`]).
        offload: Option<Offload>,
        /// Timed phases, in execution order.
        phases: Vec<PhaseSpan>,
        /// Metrics snapshot.
        metrics: MetricsReport,
        /// Free-form annotations.
        notes: Vec<String>,
    }
}

impl RunReport {
    /// A fresh report for `command` on `workload` under `scheme`, with no
    /// sections.
    pub fn new(command: &str, workload: &str, scheme: &str) -> Self {
        RunReport {
            schema_version: SCHEMA_VERSION,
            command: command.to_string(),
            workload: workload.to_string(),
            scheme: scheme.to_string(),
            speedup: 1.0,
            ..Default::default()
        }
    }

    /// Records a phase, merging into an existing phase of the same name.
    ///
    /// Repeated passes over the same phase (calibration loops, retries)
    /// accumulate into one row instead of producing a misleading list of
    /// duplicates; a genuinely new phase appends in execution order.
    pub fn push_phase(&mut self, name: &str, wall_ns: f64, sim_cycles: u64, sim_ns: f64) {
        if let Some(existing) = self.phases.iter_mut().find(|p| p.name == name) {
            existing.wall_ns += wall_ns;
            existing.sim_cycles += sim_cycles;
            existing.sim_ns += sim_ns;
        } else {
            self.phases.push(PhaseSpan { name: name.to_string(), wall_ns, sim_cycles, sim_ns });
        }
    }

    /// Sum of per-phase simulated cycles.
    pub fn phase_sim_cycles(&self) -> u64 {
        self.phases.iter().map(|p| p.sim_cycles).sum()
    }

    /// `true` when the per-phase cycle totals account exactly for the
    /// headline cycle count.
    pub fn is_consistent(&self) -> bool {
        self.phase_sim_cycles() == self.sim_cycles
    }

    /// The names of the sections present, in JSON order.
    pub fn sections(&self) -> Vec<&'static str> {
        let present = [
            ("attribution", self.attribution.is_some()),
            ("serving", self.serving.is_some()),
            ("fault", self.fault.is_some()),
            ("surrogate", self.surrogate.is_some()),
            ("fleet", self.fleet.is_some()),
            ("tune", self.tune.is_some()),
            ("offload", self.offload.is_some()),
        ];
        present.iter().filter(|(_, on)| *on).map(|(name, _)| *name).collect()
    }

    /// Serializes the report to compact JSON.
    pub fn to_json(&self) -> String {
        json::encode(self)
    }

    /// Parses a report produced by [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description when the text is not valid JSON, its
    /// `schema_version` is not [`SCHEMA_VERSION`], or the codec rejects a
    /// field (named by its path, `fleet.tenants[1].shed`).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        // The version is read first, so an older report is named as such
        // rather than by the first key it lacks.
        match u32::from_value(v.get("schema_version"), "schema_version")? {
            SCHEMA_VERSION => Self::from_value(Some(&v), ""),
            n => Err(format!(
                "unsupported schema_version {n}: this reader reads version {SCHEMA_VERSION} only"
            )),
        }
    }
}

/// A wall-clock stopwatch for phase-scoped timing.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { start: std::time::Instant::now() }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e9
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("simulate", "transformer", "enmc");
        r.batch = 4;
        r.candidates = 128;
        r.headline_ns = 12_345.5;
        r.sim_cycles = 900;
        r.push_phase("synthesize", 5.0e6, 0, 0.0);
        r.push_phase("screen", 1.0e6, 700, 583.1);
        r.push_phase("gather", 3.0e5, 200, 166.6);
        r.notes.push("one rank of 64".to_string());
        let mut reg = crate::metrics::MetricsRegistry::new();
        reg.counter_add("dram.reads", &[("scheme", "enmc")], 512);
        r.metrics = reg.snapshot();
        r
    }

    /// `sample()` with every section present and nonzero.
    fn full() -> RunReport {
        let mut r = sample();
        r.attribution = Some(Attribution {
            energy_nj: 10.5,
            breakdown: vec![
                BreakdownRow { path: "energy/dram/access/ch0/act".into(), cycles: 0, nj: 4.2 },
                BreakdownRow { path: "cycles/screen".into(), cycles: 700, nj: 0.0 },
            ],
        });
        r.serving = Some(Serving {
            slo_attainment: 0.97,
            p99_ns: 41_000.0,
            shed: 3,
            degrade_transitions: 2,
        });
        r.fault = Some(Fault {
            ber: 1e-4,
            refresh_multiplier: 32.0,
            ecc_corrected: 12,
            ecc_uncorrected: 1,
            quality_degradation_pct: 0.5,
            ber_scale: 1.5,
            retention_base: 2e-5,
            weak_column_scale: 1.25,
        });
        r.surrogate = Some(Surrogate {
            cost_backend: "surrogate".into(),
            fit_anchors: 36,
            audit_points: 4,
            audit_max_rel_err: 0.012,
        });
        let tenant = |name: &str, shed| TenantRow {
            name: name.into(),
            slo_attainment: 0.75,
            p99_ns: 220_000.0,
            shed,
            admitted: 175,
            completed: 175,
            degrade_transitions: 9,
        };
        r.fleet = Some(Fleet {
            nodes: 4,
            placement: "popularity".into(),
            hot_shard_replicas: 2,
            network_share: 0.125,
            tenants: vec![tenant("t0", 0), tenant("t1", 17)],
        });
        r.tune = Some(Tune {
            space_size: 32,
            evaluated_designs: 20,
            audited_designs: 2,
            frontier_points: 5,
            dominated_points: 15,
            max_area_mm2: 28.3,
            max_power_mw: 0.0,
        });
        r.offload = Some(Offload { offload_nmp: 6, offload_cpu: 2 });
        r
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let r = sample();
        assert!(r.sections().is_empty());
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn a_report_with_every_section_round_trips() {
        let r = full();
        assert_eq!(
            r.sections(),
            ["attribution", "serving", "fault", "surrogate", "fleet", "tune", "offload"]
        );
        let json = r.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn sections_nest_after_the_core_and_absent_ones_are_left_out() {
        let mut r = sample();
        r.serving = Some(Serving::default());
        let json = r.to_json();
        // A present section writes its zeros; an absent one writes nothing.
        assert!(json.contains(
            "\"memory_tech\":\"\",\"serving\":{\"slo_attainment\":0,\"p99_ns\":0,\"shed\":0,\
             \"degrade_transitions\":0},\"phases\":"
        ));
        for absent in ["attribution", "fault", "surrogate", "fleet", "tune", "offload"] {
            assert!(!json.contains(&format!("\"{absent}\"")), "{absent} leaked");
        }
    }

    #[test]
    fn consistency_checks_cycle_totals() {
        let mut r = sample();
        assert!(r.is_consistent());
        r.sim_cycles += 1;
        assert!(!r.is_consistent());
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }

    #[test]
    fn older_schema_versions_are_rejected_by_number() {
        let json = sample().to_json().replace("\"schema_version\":11,", "\"schema_version\":10,");
        let err = RunReport::from_json(&json).unwrap_err();
        assert!(err.contains("schema_version 10"), "{err}");
    }

    #[test]
    fn a_section_missing_a_key_is_rejected_by_path() {
        let json = full().to_json();
        for (key, path) in [
            ("\"shed\":3,", "serving.shed"),
            ("\"retention_base\":0.00002,", "fault.retention_base"),
            ("\"cost_backend\":\"surrogate\",", "surrogate.cost_backend"),
            ("\"offload_cpu\":2", "offload.offload_cpu"),
        ] {
            assert!(json.contains(key), "{key} not in the sample");
            let stripped = json.replacen(key, "", 1).replace(",}", "}");
            let err = RunReport::from_json(&stripped).unwrap_err();
            assert!(err.contains(&format!("'{path}'")), "{path}: {err}");
        }
        let bad_row = json.replacen("\"nj\":4.2", "\"nj\":\"x\"", 1);
        let err = RunReport::from_json(&bad_row).unwrap_err();
        assert!(err.contains("'attribution.breakdown[0].nj'"), "{err}");
    }

    #[test]
    fn push_phase_merges_duplicate_names() {
        let mut r = RunReport::new("demo", "lstm", "enmc");
        r.push_phase("calibrate", 10.0, 100, 83.0);
        r.push_phase("screen", 5.0, 50, 41.5);
        r.push_phase("calibrate", 30.0, 200, 166.0);
        assert_eq!(r.phases.len(), 2, "duplicate phase merged, order kept");
        assert_eq!(r.phases[0].name, "calibrate");
        assert_eq!(r.phases[0].wall_ns, 40.0);
        assert_eq!(r.phases[0].sim_cycles, 300);
        assert_eq!(r.phases[0].sim_ns, 249.0);
        assert_eq!(r.phases[1].name, "screen");
        assert_eq!(r.phase_sim_cycles(), 350);
    }

    #[test]
    fn stopwatch_measures_something() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(sw.elapsed_ns() > 0.0);
    }
}
