//! `enmc` — command-line front door to the reproduction.
//!
//! `enmc` alone lists the subcommands. [`enmc::cli`] declares each one's
//! flags; a flag a subcommand does not take prints that subcommand's flags
//! and defaults. Bad input exits 2, a run-time failure exits 1.

use enmc::arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc::cli::{
    count, fraction, list, multiplier, nonnegative, one_of, positive, tenant_priority, tiers, unit,
    unsigned, zipf, Args, ArrivalKind, ARRIVALS, PLACEMENTS, SCHEMES, SEARCHES, SHAPES, WORKLOADS,
};
use enmc::compiler::{lower_screening, MemoryLayout, TaskDescriptor};
use enmc::dram::fuzz;
use enmc::dram::{AddressMapping, DramConfig, FuzzRequest, InjectedBug, PatternKind, Reproducer};
use enmc::fleet::{simulate_fleet, FleetConfig, FleetOutcome, TenantConfig};
use enmc::isa::{Instruction, Program};
use enmc::mem::MemTech;
use enmc::model::workloads::{Workload, WorkloadId};
use enmc::obs::json::{self, Nullable};
use enmc::obs::report::{RunReport, Stopwatch};
use enmc::obs::trace::export_chrome;
use enmc::obs::{MetricsRegistry, TraceBuffer};
use enmc::par::SimConfig;
use enmc::perf::bench::BenchRecord;
use enmc::perf::SelfProfiler;
use enmc::pipeline::{
    attribute_run, report_from_result, report_from_sharded, scheme_label, Pipeline, PipelineConfig,
};
use enmc::serve::tier::{check_tiers, default_tiers};
use enmc::surrogate::CostModel;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match Args::parse(&argv) {
        Ok(a) => run(&a).unwrap_or_else(|Fail(code, msg)| {
            eprintln!("{msg}");
            code
        }),
        Err(usage) => {
            eprint!("{usage}");
            2
        }
    };
    std::process::exit(code);
}

/// Why a subcommand stopped: its exit code (2 for bad input, 1 for a
/// run-time failure) and the message for stderr.
struct Fail(i32, String);

/// A rejected flag value is bad input.
impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail(2, msg)
    }
}

/// A run-time failure reported by the library.
fn error(e: impl std::fmt::Display) -> Fail {
    Fail(1, format!("error: {e}"))
}

fn run(a: &Args) -> Result<i32, Fail> {
    match a.command() {
        "demo" => cmd_demo(),
        "simulate" => cmd_simulate(a),
        "serve-sim" => cmd_serve_sim(a),
        "fleet-sim" => cmd_fleet_sim(a),
        "tune" => cmd_tune(a),
        "offload-plan" => cmd_offload_plan(a),
        "fault-sweep" => cmd_fault_sweep(a),
        "fuzz-dram" => cmd_fuzz_dram(a),
        "profile" => cmd_profile(a),
        "bench-diff" => cmd_bench_diff(a),
        "asm" => cmd_asm(a),
        "workloads" => cmd_workloads(),
        "list-memory" => cmd_list_memory(),
        name => unreachable!("enmc {name} has a spec but no handler"),
    }
}

/// The classification job of workload `w` at `batch`, computing the
/// fraction `frac` of its categories exactly.
fn job_of(w: &Workload, batch: usize, frac: f64) -> ClassificationJob {
    ClassificationJob {
        categories: w.categories,
        hidden: w.hidden,
        reduced: (w.hidden / 4).max(1),
        batch,
        candidates: ((w.categories as f64) * frac).round() as usize,
    }
}

/// Writes `data` to `path` and notes it on stderr as `what`.
fn write_file(path: &str, what: &str, data: &str) -> Result<(), Fail> {
    std::fs::write(path, data).map_err(|e| Fail(1, format!("cannot write {path}: {e}")))?;
    eprintln!("{what} written to {path}");
    Ok(())
}

fn cmd_demo() -> Result<i32, Fail> {
    let mut pipeline = Pipeline::build(&PipelineConfig::default()).map_err(error)?;
    let q = pipeline.evaluate_quality(60);
    println!(
        "quality vs exact classification over {} queries:",
        q.queries
    );
    println!(
        "  top-1 agreement {:.1}%, P@10 {:.1}%, ppl ratio {:.3}",
        100.0 * q.top1_agreement,
        100.0 * q.precision_at_k,
        q.perplexity_ratio()
    );
    let cpu = pipeline.simulate(Scheme::CpuFull, 1);
    let enmc = pipeline.simulate_enmc();
    println!(
        "latency: CPU {:.1} us -> ENMC {:.2} us ({:.1}x)",
        cpu.ns / 1e3,
        enmc.ns / 1e3,
        cpu.ns / enmc.ns
    );
    Ok(0)
}

fn cmd_simulate(a: &Args) -> Result<i32, Fail> {
    let workload = a.get("--workload", one_of(WORKLOADS))?.workload();
    let scheme = a.get("--scheme", one_of(SCHEMES))?;
    let batch = a.get("--batch", count)?;
    let job = job_of(&workload, batch, a.get("--candidates", fraction)?);
    // Simulate records the seed; the run itself is deterministic.
    let seed = a.seed()?;
    let threads = a.threads()?;
    let memory = a.memory()?;
    let json = a.json()?;
    let trace_out = a.text("--trace-out");
    let check_protocol = a.on("--check-protocol");
    if threads.is_some() && trace_out.is_some() {
        return Err(Fail(
            2,
            "--trace-out requires the representative-rank run; drop --threads (and unset \
             ENMC_THREADS)"
                .into(),
        ));
    }
    let sys = SystemModel::table3().with_memory(memory);
    eprintln!(
        "simulating {} (l={}, d={}) batch {batch}, {} exact candidates on {}",
        workload.abbr,
        workload.categories,
        workload.hidden,
        job.candidates,
        memory.name()
    );
    let mut trace = trace_out.map(|_| TraceBuffer::unbounded());
    let sw = Stopwatch::start();
    let (result, mut report) = match threads {
        Some(n) => {
            // Whole-system run: every rank unit simulated, sharded over n
            // workers. Bit-identical to n = 1 by construction.
            let mut sim_cfg = SimConfig::with_threads(n);
            if check_protocol {
                sim_cfg = sim_cfg.with_protocol_check();
            }
            let run = sys.run_sharded(&job, scheme, &sim_cfg);
            let report = report_from_sharded("simulate", workload.abbr, &job, &sys, &run);
            (run.result, report)
        }
        None => {
            let result = sys.run_checked(&job, scheme, trace.as_mut(), check_protocol);
            let sim_wall_ns = sw.elapsed_ns();
            let report = report_from_result("simulate", workload.abbr, &job, &result, sim_wall_ns);
            (result, report)
        }
    };
    report.notes.push(format!("seed {seed}"));
    report.memory_tech = memory.name().to_string();
    if let (Some(path), Some(tb)) = (trace_out, trace.as_mut()) {
        // Timestamps are DRAM-clock cycles; Chrome wants microseconds.
        let chrome = export_chrome(&tb.drain(), sys.memory().ns_per_cycle());
        write_file(path, "trace", &chrome)?;
    }
    let violations = report.protocol_violations;
    if json {
        println!("{}", report.to_json());
        return Ok(i32::from(check_protocol && violations > 0));
    }
    let cpu = sys.run(&job, Scheme::CpuFull);
    println!("  latency : {:.2} us", result.ns / 1e3);
    println!(
        "  speedup : {:.1}x vs CPU full classification",
        result.speedup_over(&cpu)
    );
    if report.threads > 0 {
        println!(
            "  threads : {} worker(s), host-side parallel speedup {:.2}x",
            report.threads, report.speedup
        );
    }
    if let Some(e) = &result.energy {
        println!(
            "  energy  : {:.2} uJ (static {:.0}% / access {:.0}% / logic {:.0}%)",
            e.total_nj() / 1e3,
            100.0 * e.dram_static_nj / e.total_nj(),
            100.0 * e.dram_access_nj / e.total_nj(),
            100.0 * e.logic_nj / e.total_nj()
        );
    }
    if let Some(r) = &result.rank_report {
        if report.threads > 0 {
            // Sharded run: counters are summed over every rank, so bus
            // utilization is not meaningful as a single-channel percentage.
            println!(
                "  system  : {} DRAM cycles (straggler rank), row-hit {:.1}%",
                r.dram_cycles,
                100.0 * r.dram.row_hit_rate(),
            );
        } else {
            println!(
                "  per-rank: {} DRAM cycles, row-hit {:.1}%, bus util {:.1}%",
                r.dram_cycles,
                100.0 * r.dram.row_hit_rate(),
                100.0 * r.dram.bus_utilization()
            );
        }
        for p in &report.phases {
            println!(
                "  phase   : {:<10} {:>12} cycles  {:>10.2} us simulated",
                p.name,
                p.sim_cycles,
                p.sim_ns / 1e3
            );
        }
    }
    if check_protocol {
        println!(
            "  protocol: {violations} {} timing violation(s)",
            memory.name()
        );
        if violations > 0 {
            eprintln!("protocol check FAILED: rerun with --trace-out to see per-rule events");
            return Ok(1);
        }
    }
    Ok(0)
}

/// Builds an arrival process from one nominal `--rate`: bursts peak at
/// 10x the calm rate, the diurnal ramp sweeps 0.25x–2x, and a trace
/// replays the cycle counts in `trace_file`.
fn build_arrival(
    kind: ArrivalKind,
    rate: f64,
    trace_file: Option<&str>,
) -> Result<enmc::serve::ArrivalProcess, String> {
    use enmc::serve::ArrivalProcess;
    Ok(match kind {
        ArrivalKind::Poisson => ArrivalProcess::Poisson { rate },
        ArrivalKind::Burst => ArrivalProcess::Burst {
            calm_rate: rate,
            burst_rate: rate * 10.0,
            calm_cycles: 40_000.0,
            burst_cycles: 10_000.0,
        },
        ArrivalKind::Diurnal => ArrivalProcess::Diurnal {
            trough_rate: rate * 0.25,
            peak_rate: rate * 2.0,
            period_cycles: 200_000,
        },
        ArrivalKind::Trace => {
            let path = trace_file
                .ok_or_else(|| "--arrival trace requires --trace-file <file>".to_string())?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read --trace-file {path}: {e}"))?;
            let mut at = Vec::new();
            for tok in text.split_whitespace() {
                at.push(
                    tok.parse::<u64>()
                        .map_err(|_| format!("--trace-file entry '{tok}' is not a cycle count"))?,
                );
            }
            ArrivalProcess::Trace { at }
        }
    })
}

/// What `serve-sim` and `fleet-sim` share: the run, batcher and cost flags
/// read into a fleet configuration whose tenants each subcommand adds.
struct Fleet {
    workload: Workload,
    job: ClassificationJob,
    arrival: ArrivalKind,
    rate: f64,
    requests: usize,
    slo_cycles: u64,
    cfg: FleetConfig,
    sim_cfg: SimConfig,
    cost: CostModel,
    memory: MemTech,
    json: bool,
    check_protocol: bool,
}

impl Fleet {
    /// Reads the shared flags; `shape` is the flag naming the workload.
    fn read(a: &Args, shape: &str) -> Result<Fleet, Fail> {
        let workload = a.get(shape, one_of(WORKLOADS))?.workload();
        let job = job_of(&workload, 1, a.get("--candidates", fraction)?);
        let seed = a.seed()?;
        let check_protocol = a.on("--check-protocol");
        Ok(Fleet {
            arrival: a.get("--arrival", one_of(ARRIVALS))?,
            rate: a.get("--rate", positive)?,
            requests: a.get("--requests", count)?,
            slo_cycles: a.get("--slo-cycles", count)?,
            cfg: FleetConfig {
                batch_max: a.get("--batch-max", count)?,
                linger_cycles: a.get("--linger", count)?,
                lanes: a.get("--lanes", count)?,
                seed,
                offload: a.on("--offload"),
                ..Default::default()
            },
            // Threads only speed up the calibration pass; the outcome and
            // report are byte-identical for any worker count.
            sim_cfg: SimConfig::resolve(a.threads()?, check_protocol),
            cost: CostModel::new(a.backend()?, seed),
            memory: a.memory()?,
            json: a.json()?,
            workload,
            job,
            check_protocol,
        })
    }

    /// Runs the fleet loop, loading and writing the coefficient files.
    fn simulate(&mut self, a: &Args) -> Result<(FleetOutcome, MetricsRegistry), Fail> {
        if let Some(path) = a.text("--coeffs") {
            let raw = std::fs::read_to_string(path)
                .map_err(|e| Fail(1, format!("cannot read {path}: {e}")))?;
            self.cost
                .load_coeffs(&raw)
                .map_err(|e| Fail(1, format!("cannot load coefficients from {path}: {e}")))?;
        }
        let sys = SystemModel::table3().with_memory(self.memory);
        let mut registry = MetricsRegistry::new();
        let outcome = simulate_fleet(
            &sys,
            &self.job,
            &self.cfg,
            &self.sim_cfg,
            &mut registry,
            &mut self.cost,
        )
        .map_err(error)?;
        if let Some(path) = a.text("--coeffs-out") {
            write_file(path, "coefficients", &self.cost.coeffs_to_json())?;
        }
        Ok((outcome, registry))
    }

    /// Prints `report` as JSON, or as text: the subcommand's `lines`, then
    /// the offload and protocol lines. Exits 1 only for a checked run with
    /// timing violations.
    fn finish(&self, mut report: RunReport, outcome: &FleetOutcome, lines: impl FnOnce()) -> i32 {
        report.memory_tech = self.memory.name().to_string();
        let violations = report.protocol_violations;
        let code = i32::from(self.check_protocol && violations > 0);
        if self.json {
            println!("{}", report.to_json());
            return code;
        }
        lines();
        if self.cfg.offload {
            println!(
                "  offload : {} batch(es) on NMP, {} on the CPU roofline",
                outcome.offload_nmp, outcome.offload_cpu
            );
        }
        if self.check_protocol {
            println!("  protocol: {violations} DDR4 timing violation(s)");
        }
        code
    }
}

/// `serve-sim`: the fleet loop's 1-node, 1-shard, 1-tenant case, whose
/// tenant takes its queue thresholds, degrade ladder and arrival trace
/// from the command line.
fn cmd_serve_sim(a: &Args) -> Result<i32, Fail> {
    use enmc::fleet::serve::tier_label;
    use enmc::screen::infer::SelectionPolicy;

    let mut f = Fleet::read(a, "--workload")?;
    let quality = a.opt("--quality", count)?;
    let trace_out = a.text("--trace-out");
    f.cfg.tenants = vec![TenantConfig {
        name: "t0".to_string(),
        arrival: build_arrival(f.arrival, f.rate, a.text("--trace-file"))?,
        requests: f.requests,
        slo_cycles: f.slo_cycles,
        tiers: a
            .opt("--degrade-tiers", tiers)?
            .unwrap_or_else(|| default_tiers(&f.job)),
        degrade_queue_depth: a.get("--degrade-queue", count)?,
        upgrade_queue_depth: a.get("--upgrade-queue", count)?,
        shed_queue_depth: a.get("--shed-queue", count)?,
        seed: f.cfg.seed,
    }];
    check_tiers(&f.cfg.tenants[0].tiers, &f.job)?;
    (f.cfg.nodes, f.cfg.shards, f.cfg.replicas, f.cfg.zipf_s) = (1, 1, 0, 0.0);
    let w = &f.workload;
    eprintln!(
        "serving {} (l={}, d={}): {} {} request(s) at rate {}/kcycle, {} tier(s)",
        w.abbr,
        w.categories,
        w.hidden,
        f.requests,
        f.cfg.tenants[0].arrival.kind(),
        f.rate,
        f.cfg.tenants[0].tiers.len()
    );
    let (outcome, _) = f.simulate(a)?;
    // The loop's fleet.* metrics stay out of the serve-sim report.
    let mut registry = MetricsRegistry::new();
    outcome.record_serve_metrics(&mut registry);
    // Price the degrade ladder: each tier's quality over the same seeded
    // query stream, on a pipeline-scale model (the workload's full
    // classifier is too large to rebuild here, so candidate counts are
    // rescaled to the pipeline's category count).
    if let Some(n) = quality {
        let mut pipeline = Pipeline::build(&PipelineConfig::default()).map_err(error)?;
        let pipe_l = pipeline.config().categories;
        for (t, tier) in f.cfg.tenants[0].tiers.iter().enumerate() {
            let scaled = ((tier.candidates as f64 / f.job.candidates.max(1) as f64
                * pipeline.config().candidates as f64)
                .round() as usize)
                .clamp(1, pipe_l);
            let policy = SelectionPolicy::TopM(scaled);
            let q = pipeline.evaluate_quality_policy_with(n, policy, &f.sim_cfg);
            let label = tier_label(t);
            registry.gauge_set("serve.quality_top1", &[("tier", label)], q.top1_agreement);
            registry.gauge_set(
                "serve.quality_p_at_10",
                &[("tier", label)],
                q.precision_at_k,
            );
        }
    }
    let report = outcome.serve_report(f.workload.abbr, &f.cfg, &registry);
    if let Some(path) = trace_out {
        let mut tb = TraceBuffer::unbounded();
        outcome.serve_trace(&mut tb);
        write_file(
            path,
            "trace",
            &export_chrome(&tb.drain(), outcome.ns_per_cycle),
        )?;
    }
    Ok(f.finish(report, &outcome, || {
        let us = |cycles: f64| cycles * outcome.ns_per_cycle / 1e3;
        let t = &outcome.tenants[0];
        println!(
            "  requests: {} generated, {} admitted, {} completed, {} shed",
            t.generated, t.admitted, t.completed, t.shed
        );
        println!(
            "  latency : p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, p999 {:.1} us",
            us(t.latency.p50()),
            us(t.latency.p90()),
            us(t.latency.p99()),
            us(t.latency.p999())
        );
        println!(
            "  slo     : {:.1}% within {} cycles ({:.1} us)",
            100.0 * t.slo_attainment(),
            f.slo_cycles,
            us(f.slo_cycles as f64)
        );
        println!(
            "  degrade : {} transition(s); per-tier completions {:?}",
            t.degrade_transitions, t.per_tier_completed
        );
        println!(
            "  queue   : max depth {}, {} batch(es), makespan {:.1} us",
            outcome.max_queue_depth,
            outcome.batches.len(),
            us(outcome.makespan_cycles as f64)
        );
    }))
}

/// `fleet-sim`: tenants share the nodes, each deriving its priority from
/// its index.
fn cmd_fleet_sim(a: &Args) -> Result<i32, Fail> {
    let mut f = Fleet::read(a, "--shape")?;
    if f.arrival == ArrivalKind::Trace {
        return Err(Fail(
            2,
            "--arrival trace is not supported by fleet-sim; use serve-sim".into(),
        ));
    }
    f.cfg.nodes = a.get("--nodes", count)?;
    f.cfg.shards = a.opt("--shards", count)?.unwrap_or(f.cfg.nodes);
    f.cfg.replicas = a.get("--replicas", unsigned)?;
    f.cfg.placement = a.get("--placement", one_of(PLACEMENTS))?;
    f.cfg.zipf_s = a.get("--zipf", zipf)?;
    let n: usize = a.get("--tenants", count)?;
    // Tenant i: lower priority as i grows — a looser deadline but an
    // earlier shed threshold, so contention sheds the low-priority tenants
    // first. The total offered rate is split evenly.
    let tiers = default_tiers(&f.job);
    f.cfg.tenants = (0..n)
        .map(|i| {
            let arrival = build_arrival(f.arrival, f.rate / n as f64, None)
                .expect("only trace arrivals need a file");
            let (slo, shed_queue_depth) = tenant_priority(f.slo_cycles, i);
            let seed = f
                .cfg
                .seed
                .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let t = TenantConfig::new(
                &format!("t{i}"),
                arrival,
                f.requests,
                slo,
                tiers.clone(),
                seed,
            );
            TenantConfig {
                shed_queue_depth,
                ..t
            }
        })
        .collect();
    let w = &f.workload;
    eprintln!(
        "fleet: {} (l={}, d={}) on {} node(s), {} shard(s) ({} placement, {} replica(s)), \
         {} tenant(s) at {}/kcycle total",
        w.abbr,
        w.categories,
        w.hidden,
        f.cfg.nodes,
        f.cfg.shards,
        f.cfg.placement.name(),
        f.cfg.replicas,
        n,
        f.rate
    );
    let (outcome, registry) = f.simulate(a)?;
    let report = outcome.report(f.workload.abbr, &f.cfg, &registry);
    Ok(f.finish(report, &outcome, || {
        let us = |cycles: f64| cycles * outcome.ns_per_cycle / 1e3;
        println!(
            "  fleet   : {} node(s), {} shard(s), {} hot-shard replica(s), network share {:.1}%",
            outcome.nodes,
            outcome.shards,
            outcome.hot_shard_replicas,
            100.0 * outcome.network_share()
        );
        for t in &outcome.tenants {
            println!(
                "  tenant {}: {} generated, {} admitted, {} shed; slo {:.1}%, p99 {:.1} us, \
                 {} degrade step(s)",
                t.name,
                t.generated,
                t.admitted,
                t.shed,
                100.0 * t.slo_attainment(),
                us(t.latency.p99()),
                t.degrade_transitions
            );
        }
        println!(
            "  cluster : slo {:.1}%, {} batch(es), max queue {}, makespan {:.1} us",
            100.0 * outcome.slo_attainment(),
            outcome.batches.len(),
            outcome.max_queue_depth,
            us(outcome.makespan_cycles as f64)
        );
    }))
}

fn cmd_tune(a: &Args) -> Result<i32, Fail> {
    use enmc::tune::{frontier_json, tune, tune_report, Budget, TuneConfig};

    let workload = a.get("--workload", one_of(WORKLOADS))?.workload();
    // tune() normalizes (sorts, dedups) whatever levels the user listed. A
    // comma list of presets widens the space so the frontier can trade
    // technologies off.
    let space = a.tune_space()?;
    let budget = Budget {
        max_area_mm2: a.opt("--max-area-mm2", positive)?,
        max_power_mw: a.opt("--max-power-mw", positive)?,
    };
    let mode = a.get("--search", one_of(SEARCHES))?;
    let backend = a.backend()?;
    let seed = a.seed()?;
    let workers = a.threads()?.unwrap_or(1);
    let json = a.json()?;
    let frontier_out = a.text("--frontier-out");
    let cfg = TuneConfig {
        space,
        budget,
        backend,
        seed,
        workers,
        mode,
    };
    let job = job_of(&workload, 1, 0.05);
    cfg.space.check(&job)?;
    let sys = SystemModel::table3();
    eprintln!(
        "tuning {} (l={}, d={}): {} search on {} worker(s)",
        workload.abbr,
        workload.categories,
        workload.hidden,
        mode.name(),
        cfg.workers
    );
    let result = tune(&sys, &job, &cfg).map_err(error)?;
    if let Some(path) = frontier_out {
        let j = frontier_json(
            workload.abbr,
            result.space_size,
            &cfg.budget,
            &result.frontier,
        );
        write_file(path, "frontier", &j)?;
    }
    let cost = CostModel::new(backend, seed);
    let mut report = tune_report(workload.abbr, &cfg, &result, &cost);
    // A multi-technology axis has no single preset; the per-design labels
    // carry it, and the joined list documents the swept axis.
    let techs: Vec<_> = cfg.space.memory.iter().map(|t| t.name()).collect();
    report.memory_tech = techs.join(",");
    if json {
        println!("{}", report.to_json());
        return Ok(0);
    }
    println!(
        "  space   : {} design(s), {} rejected by budget, {} evaluated ({} audited)",
        result.space_size,
        result.rejected,
        result.evaluated.len(),
        result.audited()
    );
    println!(
        "  frontier: {} point(s), {} evaluated design(s) dominated",
        result.frontier.len(),
        result.dominated
    );
    for p in &result.frontier {
        let d = &p.design;
        println!(
            "  {:<32} {:>12.1} ns {:>12.1} nJ/q {:>7.2} %q {:>9.3} mm2 {:>9.1} mW  {}",
            d.point.label(),
            d.latency_ns,
            d.energy_per_query_nj,
            d.quality_pct,
            d.cost.area_mm2,
            d.cost.power_mw,
            d.provenance()
        );
    }
    Ok(0)
}

fn cmd_offload_plan(a: &Args) -> Result<i32, Fail> {
    use enmc::tune::{offload_report, plan_ladder};

    let workload = a.get("--workload", one_of(WORKLOADS))?.workload();
    let job = job_of(&workload, 1, a.get("--candidates", fraction)?);
    let batch_max = a.get("--batch-max", count)?;
    let tiers = a
        .opt("--degrade-tiers", tiers)?
        .unwrap_or_else(|| default_tiers(&job));
    check_tiers(&tiers, &job)?;
    let sim_cfg = SimConfig::resolve(a.threads()?, false);
    let mut cost = CostModel::new(a.backend()?, a.seed()?);
    let memory = a.memory()?;
    let json = a.json()?;
    let sys = SystemModel::table3().with_memory(memory);
    eprintln!(
        "planning offload for {} (l={}, d={}): {} tier(s), batches 1..={batch_max}",
        workload.abbr,
        workload.categories,
        workload.hidden,
        tiers.len()
    );
    let (table, decisions, _plan) =
        plan_ladder(&sys, &job, &tiers, batch_max, &sim_cfg, &mut cost).map_err(error)?;
    let mut report = offload_report(workload.abbr, &job, batch_max, &decisions, &cost);
    report.memory_tech = memory.name().to_string();
    if json {
        println!("{}", report.to_json());
        return Ok(0);
    }
    println!("  clock   : {:.3} ns/cycle", table.ns_per_cycle);
    println!("  tier batch   cpu-cycles   nmp-cycles  executor");
    for d in &decisions {
        println!(
            "  {:>4} {:>5} {:>12} {:>12}  {}",
            d.tier,
            d.batch,
            d.cpu_cycles,
            d.nmp_cycles,
            d.executor()
        );
    }
    let plan = report
        .offload
        .expect("an offload-plan report carries its decisions");
    println!(
        "  plan    : {} point(s) on NMP, {} on the CPU roofline",
        plan.offload_nmp, plan.offload_cpu
    );
    Ok(0)
}

fn cmd_fault_sweep(a: &Args) -> Result<i32, Fail> {
    use enmc::resilience::{render_text, run_fault_sweep, FaultSweepArgs};

    // The defaults (`--ber 0` on the nominal schedule only) are exactly
    // the fault-free path; CI diffs that bit for bit.
    let sweep = FaultSweepArgs {
        shape: a.get("--shape", one_of(SHAPES))?,
        ber: a.get("--ber", unit)?,
        multipliers: a.get("--multipliers", list(multiplier))?,
        weak_columns: a.get("--weak-columns", unit)?,
        ecc: a.on("--ecc"),
        queries: a.get("--queries", count)?,
        seed: a.seed()?,
        workers: a.threads()?.unwrap_or(1),
        backend: a.backend()?,
        memory: a.memory()?,
        coeffs_in: a.text("--coeffs").map(String::from),
        coeffs_out: a.text("--coeffs-out").map(String::from),
    };
    let json = a.json()?;
    let trace_out = a.text("--trace-out");
    eprintln!(
        "fault sweep on {}: ber {}, multipliers {:?}, ecc {}, {} queries, seed {}, {}",
        sweep.shape.name(),
        sweep.ber,
        sweep.multipliers,
        if sweep.ecc { "on" } else { "off" },
        sweep.queries,
        sweep.seed,
        sweep.memory.name()
    );
    let mut trace = trace_out.map(|_| TraceBuffer::unbounded());
    let (points, frontier, report) = run_fault_sweep(&sweep, trace.as_mut()).map_err(error)?;
    if let (Some(path), Some(tb)) = (trace_out, trace.as_mut()) {
        write_file(path, "trace", &export_chrome(&tb.drain(), 1.0))?;
    }
    if json {
        println!("{}", report.to_json());
        return Ok(0);
    }
    print!("{}", render_text(&points, &frontier));
    let worst = report
        .fault
        .expect("a fault-sweep report carries its fault section");
    println!(
        "  worst point: {:.3} % top-1 degradation, ecc {} corrected / {} uncorrectable",
        worst.quality_degradation_pct, worst.ecc_corrected, worst.ecc_uncorrected
    );
    Ok(0)
}

/// The DRAM request stream a compiled screening program would issue: the
/// `Ldr`/`Str` addresses of `lower_screening` on a paper-default task,
/// offered at a steady pace. This is the traffic shape the fuzzer cannot
/// invent on its own — whatever the compiler actually emits.
fn lowered_requests(cfg: &DramConfig, cap: usize) -> Vec<FuzzRequest> {
    let task = TaskDescriptor::paper_default(4096, 512, 2);
    let layout = MemoryLayout::for_task(&task);
    let program = lower_screening(&task, &layout, 256).expect("paper-default task compiles");
    let space = cfg.organization.channel_bytes();
    let mut reqs = Vec::with_capacity(cap);
    let mut at = 0u64;
    for inst in program.iter() {
        let (addr, write) = match inst {
            Instruction::Ldr { addr, .. } => (*addr, false),
            Instruction::Str { addr, .. } => (*addr, true),
            _ => continue,
        };
        // Fold into the single-rank channel and burst-align, mirroring the
        // fuzzer's own generators.
        reqs.push(FuzzRequest {
            at,
            addr: (addr % space) & !63,
            write,
        });
        at += 2;
        if reqs.len() >= cap {
            break;
        }
    }
    reqs
}

fn cmd_fuzz_dram(a: &Args) -> Result<i32, Fail> {
    let seeds: u64 = a.get("--seeds", count)?;
    let len = a.get("--len", count)?;
    let bug = a.opt(
        "--inject-bug",
        one_of(&InjectedBug::ALL.map(|b| (b.name(), b))),
    )?;
    // Each traffic shape, then `lowered`: the compiled screening program
    // alone.
    let mut names = PatternKind::ALL.map(|p| (p.name(), Some(p))).to_vec();
    names.push(("lowered", None));
    let (patterns, run_lowered) = match a.opt("--pattern", one_of(&names))? {
        None => (PatternKind::ALL.to_vec(), true),
        Some(None) => (Vec::new(), true),
        Some(Some(p)) => (vec![p], false),
    };
    let repro_out = a.text("--repro-out");
    let memory = a.memory()?;

    let reference = memory.preset().single_rank_config();
    let mut cfg = reference;
    if let Some(b) = bug {
        cfg.timing = b.apply(cfg.timing);
    }
    eprintln!("fuzzing the {} timing domain", memory.name());

    let mut cases = 0u64;
    let mut failures = 0u64;
    let mut first: Option<(String, u64, Vec<FuzzRequest>)> = None;
    for p in &patterns {
        let mut clean = 0u64;
        for seed in 0..seeds {
            let (reqs, out) = fuzz::run_seed_on(&reference, *p, seed, len, bug);
            cases += 1;
            if out.is_clean() {
                clean += 1;
            } else {
                failures += 1;
                if first.is_none() {
                    first = Some((p.name().to_string(), seed, reqs));
                }
            }
        }
        eprintln!("  {:<22} {clean}/{seeds} clean", p.name());
    }
    if run_lowered {
        let reqs = lowered_requests(&reference, 256);
        let n = reqs.len();
        let out = fuzz::run_case(&reqs, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing);
        cases += 1;
        let clean = u64::from(out.is_clean());
        if clean == 0 {
            failures += 1;
            if first.is_none() {
                first = Some(("lowered".to_string(), 0, reqs));
            }
        }
        eprintln!(
            "  {:<22} {clean}/1 clean  ({n} Ldr/Str requests)",
            "lowered"
        );
    }

    if let Some((pattern, seed, reqs)) = first {
        let minimal = fuzz::shrink(&reqs, |r| {
            !fuzz::run_case(r, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing).is_clean()
        });
        let repro = Reproducer {
            pattern,
            seed,
            bug: Nullable(bug.map(|b| b.name().to_string())),
            // Baseline runs omit the field so pre-preset reproducers stay
            // byte-identical.
            memory: (memory != MemTech::Ddr4_2666).then(|| memory.name().to_string()),
            requests: minimal,
        };
        eprintln!(
            "first failure shrunk to {} request(s):",
            repro.requests.len()
        );
        println!("{}", json::encode(&repro));
        if let Some(path) = repro_out {
            write_file(path, "reproducer", &json::encode(&repro))?;
        }
    }

    Ok(match bug {
        None if failures == 0 => {
            eprintln!("fuzz-dram: {cases} case(s), all clean");
            0
        }
        None => {
            eprintln!("fuzz-dram: {failures}/{cases} case(s) FAILED");
            1
        }
        // Sensitivity mode: the harness passes only by catching the
        // deliberately planted bug.
        Some(b) if failures > 0 => {
            eprintln!(
                "fuzz-dram: injected bug '{}' caught in {failures}/{cases} case(s)",
                b.name()
            );
            0
        }
        Some(b) => {
            eprintln!("fuzz-dram: injected bug '{}' NOT caught", b.name());
            1
        }
    })
}

fn cmd_profile(a: &Args) -> Result<i32, Fail> {
    let workload = a.get("--shape", one_of(WORKLOADS))?.workload();
    let scheme = a.get("--scheme", one_of(&SCHEMES[2..]))?;
    let batch = a.get("--batch", count)?;
    let job = job_of(&workload, batch, a.get("--candidates", fraction)?);
    let json = a.json()?;
    let threads = a.threads()?.unwrap_or(1);
    let trace_out = a.text("--trace-out");
    let self_profile = a.on("--self-profile");
    let memory = a.memory()?;

    let mut prof = SelfProfiler::new();
    prof.begin("profile");
    let sys = SystemModel::table3().with_memory(memory);
    eprintln!(
        "profiling {} {} batch {batch} on {} on {threads} worker(s)",
        workload.abbr,
        scheme_label(scheme),
        memory.name()
    );
    prof.begin("simulate");
    let run = sys.run_sharded(&job, scheme, &SimConfig::with_threads(threads));
    prof.end("simulate");
    prof.begin("attribute");
    let mut report = report_from_sharded("profile", workload.abbr, &job, &sys, &run);
    report.memory_tech = memory.name().to_string();
    let attr = attribute_run(&sys, &run).expect("simulated schemes always attribute");
    prof.end("attribute");
    if let Some(path) = trace_out {
        // A representative-rank traced rerun carries the counter tracks
        // (queue depth, open rows, busy lanes) the sharded run cannot.
        prof.begin("trace");
        let mut tb = TraceBuffer::unbounded();
        sys.run_traced(&job, scheme, Some(&mut tb));
        let chrome = export_chrome(&tb.drain(), sys.memory().ns_per_cycle());
        prof.end("trace");
        write_file(path, "trace", &chrome)?;
    }
    prof.end("profile");

    if json {
        println!("{}", report.to_json());
    } else {
        // Stdout carries only deterministic content (the tree and its
        // exact totals), so CI can diff it across --threads settings;
        // host-side context goes to stderr.
        println!(
            "profile: {} {} batch {batch}, {} rank shard(s)",
            workload.abbr,
            scheme_label(scheme),
            run.shards
        );
        print!("{}", attr.render());
        println!(
            "total: {} cycles, {:.3} nJ",
            attr.total_cycles(),
            attr.energy_nj()
        );
    }
    if self_profile {
        eprint!("{}", prof.render());
    }
    Ok(0)
}

fn cmd_bench_diff(a: &Args) -> Result<i32, Fail> {
    let tolerance = a.get("--wall-tolerance", nonnegative)?;
    let load = |path: &str| -> Result<BenchRecord, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::decode::<BenchRecord>(&text).map_err(|e| format!("{path}: bench record: {e}"))
    };
    let (old, new) = (load(a.arg(0))?, load(a.arg(1))?);
    let diff = enmc::perf::bench::diff(&old, &new, tolerance).map_err(|e| format!("error: {e}"))?;
    print!("{}", diff.render());
    if diff.failed() {
        eprint!("{}", diff.failure_summary());
        return Ok(1);
    }
    Ok(0)
}

fn cmd_asm(a: &Args) -> Result<i32, Fail> {
    let path = a.arg(0);
    let text =
        std::fs::read_to_string(path).map_err(|e| Fail(1, format!("cannot read {path}: {e}")))?;
    let program = Program::parse(&text).map_err(|e| Fail(1, format!("assembly error: {e}")))?;
    for inst in program.iter() {
        let frame = inst.encode();
        let data = frame
            .data
            .map(|d| format!(" DQ={d:#018x}"))
            .unwrap_or_default();
        println!(
            "{:#06x}{data}  ; {}",
            frame.command,
            enmc::isa::asm::disassemble(inst)
        );
    }
    println!(
        "; {} instructions, {} wire bytes",
        program.len(),
        program.wire_bytes()
    );
    Ok(0)
}

fn cmd_workloads() -> Result<i32, Fail> {
    for id in WorkloadId::table2()
        .iter()
        .chain(WorkloadId::scaling().iter())
    {
        let w = id.workload();
        println!(
            "{:<18} l={:<10} d={:<5} classifier {:.2} GiB",
            w.abbr,
            w.categories,
            w.hidden,
            w.classifier_bytes() as f64 / (1u64 << 30) as f64
        );
    }
    Ok(0)
}

fn cmd_list_memory() -> Result<i32, Fail> {
    println!(
        "{:<12} {:>7} {:>8} {:>6} {:>8} {:>9} {:>10} {:>10} {:>9}",
        "preset", "tCK ps", "IO MHz", "banks", "tRC ns", "act nJ", "bg W/rk", "ber x", "weak x"
    );
    for tech in MemTech::ALL {
        let p = tech.preset();
        println!(
            "{:<12} {:>7} {:>8} {:>4}x{:<3} {:>8.1} {:>9.2} {:>10.2} {:>10.2} {:>9.2}",
            tech.name(),
            p.timing.tck_ps,
            p.io_mhz(),
            p.bank_groups,
            p.banks_per_group,
            p.timing.cycles_to_ns(p.timing.trc),
            p.energy.act_nj,
            p.energy.background_w,
            p.error.ber_scale,
            p.error.weak_column_scale,
        );
    }
    println!();
    println!("pass a preset to --memory on simulate, serve-sim, fleet-sim, fault-sweep,");
    println!("profile, fuzz-dram, or tune (tune accepts a comma list as a design axis);");
    println!("ddr4-2666 is the default and reproduces the paper's Table 3 DDR4 timing.");
    Ok(0)
}
