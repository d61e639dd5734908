//! `enmc` — command-line front door to the reproduction.
//!
//! ```text
//! enmc demo                          quickstart pipeline + projections
//! enmc simulate [options]            simulate one classification job
//!     --workload <abbr>              lstm|transformer|gnmt|xmlcnn|s1m|s10m|s100m
//!     --scheme <name>                cpu|cpu-as|nda|chameleon|tensordimm|enmc
//!     --batch <n>                    batch size (default 1)
//!     --candidates <fraction>        exact fraction in (0, 1] (default 0.05)
//!     --threads <n>                  simulate every rank unit on n workers
//!                                    (default: representative-rank shortcut,
//!                                    or ENMC_THREADS when set)
//!     --trace-out <file>             write a Chrome/Perfetto trace JSON
//!     --report <text|json>           output format (default text)
//!     --seed <n>                     recorded in the report (simulate itself
//!                                    is deterministic; flag > ENMC_SEED > 7)
//!     --memory <preset>              memory technology preset (default
//!                                    ddr4-2666; see `enmc list-memory`)
//!     --check-protocol               shadow every DRAM command with the
//!                                    preset's conformance checker; nonzero
//!                                    exit on any timing violation
//! enmc fuzz-dram [options]           fuzz the controller vs the checker
//!                                    and golden reference model
//!     --seeds <n>                    seeds per pattern (default 32)
//!     --len <n>                      requests per fuzz case (default 96)
//!     --pattern <name>               one traffic shape (default: all, plus
//!                                    the compiler-lowered program)
//!     --inject-bug <name>            plant a controller timing bug; exit 0
//!                                    iff the harness catches it
//!     --memory <preset>              fuzz that preset's timing domain
//!     --repro-out <file>             write the shrunk reproducer JSON
//! enmc serve-sim [options]           simulate online serving of a workload
//!     --workload <abbr>              lstm|transformer|gnmt|xmlcnn|s1m|s10m|s100m
//!     --arrival <kind>               poisson|burst|diurnal|trace (default poisson)
//!     --rate <r>                     offered load, requests per kilocycle
//!     --requests <n>                 requests to generate (default 256)
//!     --slo-cycles <n>               per-request deadline in cycles
//!     --batch-max <n>                dynamic batcher size cap (default 4)
//!     --linger <n>                   max cycles a request may wait unbatched
//!     --lanes <n>                    parallel service lanes (default 2)
//!     --degrade-tiers <K:S,...>      screener degrade ladder, full quality
//!                                    first (default: K, K/2:1, K/4:2)
//!     --shed-queue <n>               shed arrivals beyond this queue depth
//!     --degrade-queue <n>            step a tier down beyond this depth
//!     --upgrade-queue <n>            step a tier up at or below this depth
//!     --seed <n>                     arrival-stream seed (flag > ENMC_SEED > 7)
//!     --candidates <fraction>        tier-0 exact fraction (default 0.05)
//!     --trace-file <file>            arrival timestamps for --arrival trace
//!     --quality <n>                  score each tier over n queries
//!     --offload                      install the per-query offload plan: each
//!                                    (tier, batch) admission point runs on the
//!                                    cheaper of NMP and the CPU roofline
//!     --memory <preset>              memory technology preset, as simulate
//!     --threads / --check-protocol / --trace-out / --report as simulate
//! enmc fleet-sim [options]           simulate a multi-tenant serving fleet
//!     --shape <abbr>                 lstm|transformer|gnmt|xmlcnn|s1m|s10m|s100m
//!     --nodes <n>                    simulated DIMM-group nodes (default 4)
//!     --shards <n>                   classifier shards (default: one per node)
//!     --tenants <n>                  contending tenants (default 2; tenant i
//!                                    gets slo*(i+1) and a smaller shed queue
//!                                    the lower its priority)
//!     --placement <name>             consistent-hash|popularity (default popularity)
//!     --replicas <n>                 extra hot-shard copies (default 2; 0 ok)
//!     --zipf <s>                     shard popularity skew, multiples of 0.5
//!                                    (default 1; 0 = uniform)
//!     --rate <r>                     total offered load, requests per kilocycle,
//!                                    split evenly across tenants (default 0.5)
//!     --arrival <kind>               poisson|burst|diurnal (default poisson)
//!     --requests <n>                 requests per tenant (default 192)
//!     --slo-cycles <n>               tenant-0 deadline; tenant i gets n*(i+1)
//!     --batch-max / --linger / --lanes as serve-sim (lanes are per node)
//!     --candidates <fraction>        tier-0 exact fraction (default 0.05)
//!     --seed <n>                     base seed (flag > ENMC_SEED > 7)
//!     --offload                      plan per-query offload for every tenant's
//!                                    calibrated ladder (NMP vs CPU roofline)
//!     --memory <preset>              memory technology preset, as simulate
//!     --threads / --check-protocol / --report as simulate (reports are
//!                                    byte-identical for any worker count)
//!     --cost-model / --audit-rate / --coeffs / --coeffs-out as serve-sim
//! enmc tune [options]                constraint-driven design-space auto-tuning
//!     --workload <abbr>              lstm|transformer|gnmt|xmlcnn|s1m|s10m|s100m
//!     --ranks <n,...>                rank-unit axis levels (default 32,64)
//!     --lanes <n,...>                screener-lane axis levels (default 64,128)
//!     --screen-bits <n,...>          screener bitwidth levels (default 4)
//!     --screen-shift <n,...>         screening-level shifts (default 0,1)
//!     --candidates <n,...>           candidate-count levels (default 64,128)
//!     --batch-max <n,...>            batch-size-cap levels (default 4)
//!     --linger <n,...>               linger-window levels, cycles (default 2000)
//!     --ecc <on|off,...>             DRAM-controller ECC levels (default off,on)
//!     --memory <preset,...>          memory-technology axis levels (default
//!                                    ddr4-2666; list all four for per-tech
//!                                    frontiers — see `enmc list-memory`)
//!     --max-area-mm2 <f>             reject designs pricier than this area
//!     --max-power-mw <f>             reject designs above this power
//!     --search <mode>                exhaustive|guided (default exhaustive;
//!                                    both produce byte-identical frontiers)
//!     --frontier-out <file>          write the tune-frontier-v1 JSON fixture
//!     --cost-model <name>            cycle-accurate|surrogate (default
//!                                    surrogate; audits keep it honest)
//!     --audit-rate <f>               audited fraction (default 0.1)
//!     --seed <n>                     audit + sampler seed (flag > ENMC_SEED > 7)
//!     --threads <n>                  evaluation workers (output is
//!                                    bit-identical for any n)
//!     --report <text|json>           output format (default text)
//! enmc offload-plan [options]        per-query NMP-vs-CPU offload planning
//!     --workload <abbr>              lstm|transformer|gnmt|xmlcnn|s1m|s10m|s100m
//!     --candidates <fraction>        tier-0 exact fraction (default 0.05)
//!     --batch-max <n>                plan batches 1..=n (default 4)
//!     --degrade-tiers <K:S,...>      ladder to plan (default: K, K/2:1, K/4:2)
//!     --memory <preset>              memory technology preset, as simulate
//!     --seed / --threads / --cost-model / --audit-rate / --report as tune
//! enmc fault-sweep [options]         quality-vs-refresh-energy resilience sweep
//!     --shape <name>                 lstm-wikitext2|transformer-wikitext103|
//!                                    gnmt-wmt16|xmlcnn-amazon670k (short forms ok)
//!     --ber <f>                      uniform bit-error rate in [0, 1] (default 0)
//!     --multipliers <m,...>          refresh-interval multipliers >= 1 (default 1)
//!     --weak-columns <f>             tRCD-marginal column fraction (default 0)
//!     --memory <preset>              preset whose error profile scales the
//!                                    injected faults (default ddr4-2666)
//!     --ecc                          protect weights with SEC-DED (72,64)
//!     --queries <n>                  queries per sweep point, at most 65536 (default 256)
//!     --seed <n>                     fault-map + query seed (flag > ENMC_SEED > 7)
//!     --threads <n>                  workers (output is bit-identical for any n)
//!     --trace-out / --report as simulate
//! enmc profile [options]             top-down cost attribution of one run
//!     --shape <abbr>                 lstm|transformer|gnmt|xmlcnn|s1m|s10m|s100m
//!     --scheme <name>                nda|chameleon|tensordimm|enmc (simulated
//!                                    schemes only; default enmc)
//!     --batch <n>                    batch size (default 1)
//!     --candidates <fraction>        exact fraction in (0, 1] (default 0.05)
//!     --threads <n>                  workers for the sharded run; the tree on
//!                                    stdout is bit-identical for any n
//!     --trace-out <file>             Chrome trace with counter tracks
//!                                    (queue depth, open rows, busy lanes)
//!     --report <text|json>           text prints the cost tree; json emits the
//!                                    RunReport with its breakdown rows
//!     --memory <preset>              memory technology preset, as simulate
//!     --self-profile                 host-side span rollup on stderr
//! enmc bench-diff <old> <new>        gate one BENCH_*.json against another
//!     --wall-tolerance <f>           allowed wall-clock regression fraction
//!                                    (default 0.2); deterministic metrics are
//!                                    compared at zero tolerance. Nonzero exit
//!                                    on any gate failure.
//! enmc asm <file>                    assemble an ENMC program, print frames
//! enmc workloads                     print the Table 2 workloads
//! enmc list-memory                   print the memory-technology preset table
//! ```

use enmc::arch::baseline::BaselineKind;
use enmc::arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc::cli::{
    flag_value, parse_arrival_kind, parse_axis_counts, parse_axis_levels, parse_batch, parse_ber,
    parse_budget_cap, parse_candidate_fraction, parse_count, parse_degrade_tiers,
    parse_ecc_levels, parse_memory, parse_multipliers, parse_placement, parse_queries, parse_rate,
    parse_report_format, parse_search_mode, parse_shape, parse_threads, parse_wall_tolerance,
    parse_zipf, tenant_priority, ArrivalKind, CommonArgs, CostModelKind, ReportFormat,
};
use enmc::compiler::{lower_screening, MemoryLayout, TaskDescriptor};
use enmc::dram::fuzz;
use enmc::dram::{AddressMapping, DramConfig, FuzzRequest, InjectedBug, PatternKind, Reproducer};
use enmc::isa::{Instruction, Program};
use enmc::mem::MemTech;
use enmc::model::workloads::{Workload, WorkloadId};
use enmc::obs::report::Stopwatch;
use enmc::obs::trace::export_chrome;
use enmc::obs::TraceBuffer;
use enmc::par::SimConfig;
use enmc::perf::bench::BenchRecord;
use enmc::perf::SelfProfiler;
use enmc::pipeline::{
    attribute_run, report_from_result, report_from_sharded, scheme_label, Pipeline,
    PipelineConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("serve-sim") => cmd_serve_sim(&args[1..]),
        Some("fleet-sim") => cmd_fleet_sim(&args[1..]),
        Some("tune") => cmd_tune(&args[1..]),
        Some("offload-plan") => cmd_offload_plan(&args[1..]),
        Some("fault-sweep") => cmd_fault_sweep(&args[1..]),
        Some("fuzz-dram") => cmd_fuzz_dram(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("bench-diff") => cmd_bench_diff(&args[1..]),
        Some("asm") => cmd_asm(&args[1..]),
        Some("workloads") => cmd_workloads(),
        Some("list-memory") => cmd_list_memory(),
        _ => {
            eprint!("{}", USAGE);
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
enmc — ENMC (MICRO'21) reproduction

usage:
  enmc demo                       run the quickstart pipeline
  enmc simulate [--workload W] [--scheme S] [--batch N] [--candidates F]
                [--threads N] [--seed N] [--memory PRESET] [--trace-out FILE]
                [--report text|json] [--check-protocol]
  enmc serve-sim [--workload W] [--arrival poisson|burst|diurnal|trace]
                 [--rate R] [--requests N] [--slo-cycles S] [--batch-max B]
                 [--linger L] [--lanes N] [--degrade-tiers K:S,...]
                 [--shed-queue N] [--degrade-queue N] [--upgrade-queue N]
                 [--seed N] [--candidates F] [--trace-file FILE]
                 [--quality N] [--offload] [--threads N] [--memory PRESET]
                 [--trace-out FILE] [--report text|json] [--check-protocol]
                 [--cost-model cycle-accurate|surrogate] [--audit-rate F]
                 [--coeffs FILE] [--coeffs-out FILE]
  enmc fleet-sim [--shape W] [--nodes N] [--shards N] [--tenants N]
                 [--placement consistent-hash|popularity] [--replicas N]
                 [--zipf S] [--rate R] [--arrival poisson|burst|diurnal]
                 [--requests N] [--slo-cycles S] [--batch-max B] [--linger L]
                 [--lanes N] [--candidates F] [--offload] [--seed N]
                 [--threads N] [--memory PRESET] [--report text|json]
                 [--check-protocol]
                 [--cost-model cycle-accurate|surrogate] [--audit-rate F]
                 [--coeffs FILE] [--coeffs-out FILE]
  enmc tune [--workload W] [--ranks N,...] [--lanes N,...]
            [--screen-bits N,...] [--screen-shift N,...]
            [--candidates N,...] [--batch-max N,...] [--linger N,...]
            [--ecc on|off,...] [--memory PRESET,...]
            [--max-area-mm2 F] [--max-power-mw F]
            [--search exhaustive|guided] [--frontier-out FILE]
            [--cost-model cycle-accurate|surrogate] [--audit-rate F]
            [--seed N] [--threads N] [--report text|json]
  enmc offload-plan [--workload W] [--candidates F] [--batch-max N]
                    [--degrade-tiers K:S,...] [--seed N] [--threads N]
                    [--memory PRESET]
                    [--cost-model cycle-accurate|surrogate] [--audit-rate F]
                    [--report text|json]
  enmc fault-sweep [--shape S] [--ber F] [--multipliers M,...]
                   [--weak-columns F] [--ecc] [--queries N] [--seed N]
                   [--threads N] [--memory PRESET] [--trace-out FILE]
                   [--report text|json]
                   [--cost-model cycle-accurate|surrogate] [--audit-rate F]
                   [--coeffs FILE] [--coeffs-out FILE]
  enmc fuzz-dram [--seeds N] [--len N] [--pattern P] [--inject-bug B]
                 [--memory PRESET] [--repro-out FILE] [--check-protocol]
  enmc profile [--shape W] [--scheme S] [--batch N] [--candidates F]
               [--threads N] [--memory PRESET] [--trace-out FILE]
               [--report text|json] [--self-profile]
  enmc bench-diff OLD.json NEW.json [--wall-tolerance F]
  enmc asm <file.s>               assemble and dump PRECHARGE frames
  enmc workloads                  list the Table 2 workloads
  enmc list-memory                list the memory-technology presets

schemes: cpu, cpu-as, nda, chameleon, tensordimm, tensordimm-large, enmc
workloads: lstm, transformer, gnmt, xmlcnn, s1m, s10m, s100m
shapes: lstm-wikitext2, transformer-wikitext103, gnmt-wmt16, xmlcnn-amazon670k
patterns: stream-sweep, same-bank-hammer, bank-group-conflict,
          refresh-straddle, row-thrash, turnaround-mix, moving-inversion,
          lowered
bugs: tfaw-1, trcd-1, trp-1, twtr-1
memory presets: ddr4-2666, ddr5-4800, lpddr4-3200, hbm2
";

/// Stamps the schema-v10 memory-technology fields (preset name plus its
/// error profile) into a report.
fn stamp_memory(report: &mut enmc::obs::report::RunReport, tech: MemTech) {
    let p = tech.preset();
    report.memory_tech = tech.name().to_string();
    report.ber_scale = p.error.ber_scale;
    report.retention_base = p.error.retention_base;
    report.weak_column_scale = p.error.weak_column_scale;
}

fn cmd_demo() -> i32 {
    let mut pipeline = match Pipeline::build(&PipelineConfig::default()) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let q = pipeline.evaluate_quality(60);
    println!("quality vs exact classification over {} queries:", q.queries);
    println!("  top-1 agreement {:.1}%, P@10 {:.1}%, ppl ratio {:.3}",
        100.0 * q.top1_agreement, 100.0 * q.precision_at_k, q.perplexity_ratio());
    let cpu = pipeline.simulate(Scheme::CpuFull, 1);
    let enmc = pipeline.simulate_enmc();
    println!("latency: CPU {:.1} us -> ENMC {:.2} us ({:.1}x)",
        cpu.ns / 1e3, enmc.ns / 1e3, cpu.ns / enmc.ns);
    0
}

fn parse_workload(s: &str) -> Option<Workload> {
    let id = match s.to_ascii_lowercase().as_str() {
        "lstm" => WorkloadId::LstmW33K,
        "transformer" => WorkloadId::TransformerW268K,
        "gnmt" => WorkloadId::GnmtE32K,
        "xmlcnn" => WorkloadId::Xmlcnn670K,
        "s1m" => WorkloadId::S1M,
        "s10m" => WorkloadId::S10M,
        "s100m" => WorkloadId::S100M,
        _ => return None,
    };
    Some(id.workload())
}

fn parse_scheme(s: &str) -> Option<Scheme> {
    Some(match s.to_ascii_lowercase().as_str() {
        "cpu" => Scheme::CpuFull,
        "cpu-as" => Scheme::CpuScreened,
        "nda" => Scheme::Baseline(BaselineKind::Nda),
        "chameleon" => Scheme::Baseline(BaselineKind::Chameleon),
        "tensordimm" => Scheme::Baseline(BaselineKind::TensorDimm),
        "tensordimm-large" => Scheme::Baseline(BaselineKind::TensorDimmLarge),
        "enmc" => Scheme::Enmc,
        _ => return None,
    })
}

fn cmd_simulate(args: &[String]) -> i32 {
    let workload = match parse_workload(flag_value(args, "--workload").unwrap_or("transformer")) {
        Some(w) => w,
        None => {
            eprintln!("unknown workload; try: lstm transformer gnmt xmlcnn s1m s10m s100m");
            return 2;
        }
    };
    let scheme = match parse_scheme(flag_value(args, "--scheme").unwrap_or("enmc")) {
        Some(s) => s,
        None => {
            eprintln!("unknown scheme; try: cpu cpu-as nda chameleon tensordimm enmc");
            return 2;
        }
    };
    let batch = match flag_value(args, "--batch").map(parse_batch).unwrap_or(Ok(1)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let frac = match flag_value(args, "--candidates")
        .map(parse_candidate_fraction)
        .unwrap_or(Ok(0.05))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // The shared flag bundle parses once; simulate records the seed (the
    // run itself is deterministic) and has no cost backend to bind.
    let common = match CommonArgs::parse(args, 7) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let format = common.format;
    let trace_out = flag_value(args, "--trace-out");
    let check_protocol = args.iter().any(|a| a == "--check-protocol");
    // --threads wins; ENMC_THREADS is the env hook for harnesses that
    // cannot edit the command line (e.g. the CI matrix).
    let threads = common.threads_or_env();
    if threads.is_some() && trace_out.is_some() {
        eprintln!("--trace-out requires the representative-rank run; drop --threads (and unset ENMC_THREADS)");
        return 2;
    }
    let seed = common.seed;
    let memory = match common.single_memory() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let job = ClassificationJob {
        categories: workload.categories,
        hidden: workload.hidden,
        reduced: (workload.hidden / 4).max(1),
        batch,
        candidates: ((workload.categories as f64) * frac).round() as usize,
    };
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
            let report =
                report_from_result("simulate", workload.abbr, &job, &result, sim_wall_ns);
            (result, report)
        }
    };
    report.notes.push(format!("seed {seed}"));
    stamp_memory(&mut report, memory);
    if let (Some(path), Some(tb)) = (trace_out, trace.as_mut()) {
        // Timestamps are DRAM-clock cycles; Chrome wants microseconds.
        let ns_per_cycle = sys.memory().ns_per_cycle();
        let chrome = export_chrome(&tb.drain(), ns_per_cycle);
        match std::fs::write(path, chrome) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    let violations = report.protocol_violations;
    if format == ReportFormat::Json {
        println!("{}", report.to_json());
        return i32::from(check_protocol && violations > 0);
    }
    let cpu = sys.run(&job, Scheme::CpuFull);
    println!("  latency : {:.2} us", result.ns / 1e3);
    println!("  speedup : {:.1}x vs CPU full classification", result.speedup_over(&cpu));
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
        println!("  protocol: {violations} {} timing violation(s)", memory.name());
        if violations > 0 {
            eprintln!("protocol check FAILED: rerun with --trace-out to see per-rule events");
            return 1;
        }
    }
    0
}

/// Builds the arrival process for `serve-sim`: the CLI exposes one
/// nominal `--rate`, and the non-Poisson families derive their envelope
/// from it (bursts peak at 10x the calm rate, the diurnal ramp sweeps
/// 0.25x–2x).
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

fn cmd_serve_sim(args: &[String]) -> i32 {
    use enmc::fleet::serve::tier_label;
    use enmc::fleet::{FleetConfig, TenantConfig};
    use enmc::obs::MetricsRegistry;
    use enmc::screen::infer::SelectionPolicy;
    use enmc::serve::tier::default_tiers;

    let workload = match parse_workload(flag_value(args, "--workload").unwrap_or("lstm")) {
        Some(w) => w,
        None => {
            eprintln!("unknown workload; try: lstm transformer gnmt xmlcnn s1m s10m s100m");
            return 2;
        }
    };
    // Small integer flags share parse_count; each names its own flag.
    macro_rules! count_flag {
        ($flag:literal, $default:expr) => {
            match flag_value(args, $flag).map(|r| parse_count($flag, r)).unwrap_or(Ok($default)) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
        };
    }
    let rate = match flag_value(args, "--rate").map(parse_rate).unwrap_or(Ok(0.5)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let arrival_kind = match flag_value(args, "--arrival")
        .map(parse_arrival_kind)
        .unwrap_or(Ok(ArrivalKind::Poisson))
    {
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let frac = match flag_value(args, "--candidates")
        .map(parse_candidate_fraction)
        .unwrap_or(Ok(0.05))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // --seed/--threads/--cost-model/--audit-rate/--report: the shared
    // bundle, one precedence rule per flag across every subcommand.
    let common = match CommonArgs::parse(args, 7) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let format = common.format;
    let requests = count_flag!("--requests", 256) as usize;
    let slo_cycles = count_flag!("--slo-cycles", 100_000);
    let batch_max = count_flag!("--batch-max", 4) as usize;
    let linger_cycles = count_flag!("--linger", 2_000);
    let lanes = count_flag!("--lanes", 2) as usize;
    let shed_queue_depth = count_flag!("--shed-queue", 48) as usize;
    let degrade_queue_depth = count_flag!("--degrade-queue", 12) as usize;
    let upgrade_queue_depth = count_flag!("--upgrade-queue", 3) as usize;
    let seed = common.seed;
    let quality_queries = flag_value(args, "--quality").map(|r| parse_count("--quality", r));
    let quality_queries = match quality_queries {
        Some(Ok(n)) => Some(n as usize),
        Some(Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
        None => None,
    };
    let check_protocol = args.iter().any(|a| a == "--check-protocol");
    // Threads only speed up the calibration pass; the outcome and report
    // are byte-identical for any worker count.
    let sim_cfg = SimConfig::resolve(common.threads, check_protocol);
    let memory = match common.single_memory() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    let arrival = match build_arrival(arrival_kind, rate, flag_value(args, "--trace-file")) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let job = ClassificationJob {
        categories: workload.categories,
        hidden: workload.hidden,
        reduced: (workload.hidden / 4).max(1),
        batch: 1,
        candidates: ((workload.categories as f64) * frac).round() as usize,
    };
    let tiers = match flag_value(args, "--degrade-tiers") {
        Some(raw) => match parse_degrade_tiers(raw) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
        None => default_tiers(&job),
    };

    eprintln!(
        "serving {} (l={}, d={}): {} {} request(s) at rate {rate}/kcycle, {} tier(s)",
        workload.abbr,
        workload.categories,
        workload.hidden,
        requests,
        arrival.kind(),
        tiers.len()
    );
    // serve-sim is the fleet loop on one node, one shard and one tenant
    // that carries the queue thresholds.
    let tenant = TenantConfig {
        name: "t0".to_string(),
        arrival,
        requests,
        slo_cycles,
        tiers,
        degrade_queue_depth,
        upgrade_queue_depth,
        shed_queue_depth,
        seed,
    };
    let cfg = FleetConfig {
        nodes: 1,
        shards: 1,
        replicas: 0,
        zipf_s: 0.0,
        batch_max,
        linger_cycles,
        lanes,
        tenants: vec![tenant],
        seed,
        offload: args.iter().any(|a| a == "--offload"),
        ..Default::default()
    };

    let sys = SystemModel::table3().with_memory(memory);
    // The loop's fleet.* metrics stay out of the serve-sim report.
    let outcome =
        match run_fleet(args, &common, &sys, &job, &cfg, &sim_cfg, &mut MetricsRegistry::new()) {
            Ok(o) => o,
            Err(code) => return code,
        };
    let mut registry = MetricsRegistry::new();
    outcome.record_serve_metrics(&mut registry);
    let tiers = &cfg.tenants[0].tiers;

    // Price the degrade ladder: each tier's quality over the same seeded
    // query stream, on a pipeline-scale model (the workload's full
    // classifier is too large to rebuild here, so candidate counts are
    // rescaled to the pipeline's category count).
    if let Some(n) = quality_queries {
        let mut pipeline = match Pipeline::build(&PipelineConfig::default()) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        let pipe_l = pipeline.config().categories;
        for (t, tier) in tiers.iter().enumerate() {
            let scaled = ((tier.candidates as f64 / job.candidates.max(1) as f64
                * pipeline.config().candidates as f64)
                .round() as usize)
                .clamp(1, pipe_l);
            let q = pipeline.evaluate_quality_policy_with(
                n,
                SelectionPolicy::TopM(scaled),
                &sim_cfg,
            );
            let label = tier_label(t);
            registry.gauge_set("serve.quality_top1", &[("tier", label)], q.top1_agreement);
            registry.gauge_set("serve.quality_p_at_10", &[("tier", label)], q.precision_at_k);
        }
    }

    let mut report = outcome.serve_report(workload.abbr, &cfg, &registry);
    stamp_memory(&mut report, memory);
    if let Some(path) = flag_value(args, "--trace-out") {
        let mut tb = TraceBuffer::unbounded();
        outcome.serve_trace(&mut tb);
        let chrome = export_chrome(&tb.drain(), outcome.ns_per_cycle);
        match std::fs::write(path, chrome) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    let violations = report.protocol_violations;
    if format == ReportFormat::Json {
        println!("{}", report.to_json());
        return i32::from(check_protocol && violations > 0);
    }
    let t = &outcome.tenants[0];
    println!(
        "  requests: {} generated, {} admitted, {} completed, {} shed",
        t.generated, t.admitted, t.completed, t.shed
    );
    let us = |cycles: f64| cycles * outcome.ns_per_cycle / 1e3;
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
        slo_cycles,
        us(slo_cycles as f64)
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
    if cfg.offload {
        println!(
            "  offload : {} batch(es) on NMP, {} on the CPU roofline",
            outcome.offload_nmp, outcome.offload_cpu
        );
    }
    if check_protocol {
        println!("  protocol: {violations} DDR4 timing violation(s)");
        if violations > 0 {
            return 1;
        }
    }
    0
}

fn cmd_fleet_sim(args: &[String]) -> i32 {
    use enmc::fleet::{FleetConfig, PlacementPolicy, TenantConfig};
    use enmc::obs::MetricsRegistry;
    use enmc::serve::tier::default_tiers;

    let workload = match parse_workload(flag_value(args, "--shape").unwrap_or("lstm")) {
        Some(w) => w,
        None => {
            eprintln!("unknown shape; try: lstm transformer gnmt xmlcnn s1m s10m s100m");
            return 2;
        }
    };
    macro_rules! count_flag {
        ($flag:literal, $default:expr) => {
            match flag_value(args, $flag).map(|r| parse_count($flag, r)).unwrap_or(Ok($default)) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            }
        };
    }
    let nodes = count_flag!("--nodes", 4) as usize;
    let shards = count_flag!("--shards", nodes as u64) as usize;
    let tenants_n = count_flag!("--tenants", 2) as usize;
    let requests = count_flag!("--requests", 192) as usize;
    let slo_cycles = count_flag!("--slo-cycles", 100_000);
    let batch_max = count_flag!("--batch-max", 4) as usize;
    let linger_cycles = count_flag!("--linger", 2_000);
    let lanes = count_flag!("--lanes", 2) as usize;
    // --replicas 0 is meaningful (no replication), so it bypasses
    // parse_count's >= 1 rule.
    let replicas = match flag_value(args, "--replicas").map(|r| {
        r.parse::<usize>().map_err(|_| format!("--replicas expects an integer >= 0, got '{r}'"))
    }) {
        Some(Ok(n)) => n,
        Some(Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
        None => 2,
    };
    let placement = match flag_value(args, "--placement")
        .map(parse_placement)
        .unwrap_or(Ok(PlacementPolicy::PopularityAware))
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let zipf_s = match flag_value(args, "--zipf").map(parse_zipf).unwrap_or(Ok(1.0)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let rate = match flag_value(args, "--rate").map(parse_rate).unwrap_or(Ok(0.5)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let arrival_kind = match flag_value(args, "--arrival")
        .map(parse_arrival_kind)
        .unwrap_or(Ok(ArrivalKind::Poisson))
    {
        Ok(ArrivalKind::Trace) => {
            eprintln!("--arrival trace is not supported by fleet-sim; use serve-sim");
            return 2;
        }
        Ok(k) => k,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let frac = match flag_value(args, "--candidates")
        .map(parse_candidate_fraction)
        .unwrap_or(Ok(0.05))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let common = match CommonArgs::parse(args, 7) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let format = common.format;
    let seed = common.seed;
    let check_protocol = args.iter().any(|a| a == "--check-protocol");
    // Threads only speed up the calibration pass; the outcome and report
    // are byte-identical for any worker count.
    let sim_cfg = SimConfig::resolve(common.threads, check_protocol);
    let memory = match common.single_memory() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    let job = ClassificationJob {
        categories: workload.categories,
        hidden: workload.hidden,
        reduced: (workload.hidden / 4).max(1),
        batch: 1,
        candidates: ((workload.categories as f64) * frac).round() as usize,
    };
    let tiers = default_tiers(&job);
    // Tenant i: lower priority as i grows — a looser deadline but an
    // earlier shed threshold, so contention sheds the low-priority
    // tenants first. The total offered rate is split evenly.
    let per_tenant_rate = rate / tenants_n as f64;
    let tenants: Vec<TenantConfig> = (0..tenants_n)
        .map(|i| {
            let arrival = match build_arrival(arrival_kind, per_tenant_rate, None) {
                Ok(a) => a,
                Err(_) => unreachable!("trace arrivals rejected above"),
            };
            let (slo, shed_queue_depth) = tenant_priority(slo_cycles, i);
            let mut t = TenantConfig::new(
                &format!("t{i}"),
                arrival,
                requests,
                slo,
                tiers.clone(),
                seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            );
            t.shed_queue_depth = shed_queue_depth;
            t
        })
        .collect();
    let cfg = FleetConfig {
        nodes,
        shards,
        replicas,
        placement,
        zipf_s,
        batch_max,
        linger_cycles,
        lanes,
        tenants,
        seed,
        offload: args.iter().any(|a| a == "--offload"),
        ..Default::default()
    };
    eprintln!(
        "fleet: {} (l={}, d={}) on {} node(s), {} shard(s) ({} placement, {} replica(s)), \
         {} tenant(s) at {rate}/kcycle total",
        workload.abbr,
        workload.categories,
        workload.hidden,
        nodes,
        shards,
        placement.name(),
        replicas,
        tenants_n
    );

    let sys = SystemModel::table3().with_memory(memory);
    let mut registry = MetricsRegistry::new();
    let outcome = match run_fleet(args, &common, &sys, &job, &cfg, &sim_cfg, &mut registry) {
        Ok(o) => o,
        Err(code) => return code,
    };

    let mut report = outcome.report(workload.abbr, &cfg, &registry);
    stamp_memory(&mut report, memory);
    let violations = report.protocol_violations;
    if format == ReportFormat::Json {
        println!("{}", report.to_json());
        return i32::from(check_protocol && violations > 0);
    }
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
    if cfg.offload {
        println!(
            "  offload : {} batch(es) on NMP, {} on the CPU roofline",
            outcome.offload_nmp, outcome.offload_cpu
        );
    }
    if check_protocol {
        println!("  protocol: {violations} DDR4 timing violation(s)");
        if violations > 0 {
            return 1;
        }
    }
    0
}

/// The cost-model set-up, fleet run and `--coeffs-out` tail `serve-sim`
/// and `fleet-sim` share: builds the `--cost-model` backend (default
/// cycle-accurate) seeded by `--seed`, loads `--coeffs` into it, runs the
/// fleet loop, and writes the fitted coefficients to `--coeffs-out`. On
/// failure the message is already on stderr and `Err` carries the exit
/// code.
fn run_fleet(
    args: &[String],
    common: &CommonArgs,
    sys: &SystemModel,
    job: &ClassificationJob,
    cfg: &enmc::fleet::FleetConfig,
    sim_cfg: &SimConfig,
    registry: &mut enmc::obs::MetricsRegistry,
) -> Result<enmc::fleet::FleetOutcome, i32> {
    let mut cost =
        enmc::surrogate::CostModel::new(common.backend(CostModelKind::CycleAccurate), common.seed);
    if let Some(path) = flag_value(args, "--coeffs") {
        let raw = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            1
        })?;
        cost.load_coeffs(&raw).map_err(|e| {
            eprintln!("cannot load coefficients from {path}: {e}");
            1
        })?;
    }
    let outcome = enmc::fleet::simulate_fleet(sys, job, cfg, sim_cfg, registry, &mut cost)
        .map_err(|v| {
            eprintln!("error: {v}");
            1
        })?;
    if let Some(path) = flag_value(args, "--coeffs-out") {
        std::fs::write(path, cost.coeffs_to_json()).map_err(|e| {
            eprintln!("cannot write {path}: {e}");
            1
        })?;
    }
    Ok(outcome)
}

fn cmd_tune(args: &[String]) -> i32 {
    use enmc::surrogate::CostModel;
    use enmc::tune::{frontier_json, tune, tune_report, Budget, SearchMode, TuneConfig, TuneSpace};

    let workload = match parse_workload(flag_value(args, "--workload").unwrap_or("lstm")) {
        Some(w) => w,
        None => {
            eprintln!("unknown workload; try: lstm transformer gnmt xmlcnn s1m s10m s100m");
            return 2;
        }
    };
    let common = match CommonArgs::parse(args, 7) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Axis flags replace the default levels wholesale; tune() normalizes
    // (sorts, dedups) whatever the user listed.
    let mut space = TuneSpace::small();
    macro_rules! axis {
        ($flag:literal, $parser:ident, $field:ident, $ty:ty) => {
            if let Some(raw) = flag_value(args, $flag) {
                match $parser($flag, raw) {
                    Ok(levels) => space.$field = levels.into_iter().map(|n| n as $ty).collect(),
                    Err(e) => {
                        eprintln!("{e}");
                        return 2;
                    }
                }
            }
        };
    }
    axis!("--ranks", parse_axis_levels, ranks, usize);
    axis!("--lanes", parse_axis_levels, lanes, usize);
    axis!("--screen-bits", parse_axis_levels, screen_bits, u32);
    axis!("--screen-shift", parse_axis_counts, screen_shift, u32);
    axis!("--candidates", parse_axis_levels, candidates, usize);
    axis!("--batch-max", parse_axis_levels, batch_max, usize);
    axis!("--linger", parse_axis_counts, linger_cycles, u64);
    if let Some(raw) = flag_value(args, "--ecc") {
        match parse_ecc_levels(raw) {
            Ok(levels) => space.ecc = levels,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    // The memory-technology axis: a single preset keeps the classic
    // 8-axis lattice; a comma list widens the space so the frontier can
    // trade technologies off against each other.
    space.memory = common.memory.clone();
    let max_area_mm2 = match flag_value(args, "--max-area-mm2")
        .map(|r| parse_budget_cap("--max-area-mm2", r))
        .transpose()
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let max_power_mw = match flag_value(args, "--max-power-mw")
        .map(|r| parse_budget_cap("--max-power-mw", r))
        .transpose()
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mode = match flag_value(args, "--search")
        .map(parse_search_mode)
        .unwrap_or(Ok(SearchMode::Exhaustive))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Tuning sweeps many designs, so the surrogate (with its seeded
    // audits) is the default backend; --cost-model cycle-accurate forces
    // full fidelity everywhere.
    let backend = common.backend(CostModelKind::Surrogate);
    let cfg = TuneConfig {
        space,
        budget: Budget { max_area_mm2, max_power_mw },
        backend,
        seed: common.seed,
        workers: common.workers(),
        mode,
    };
    let job = ClassificationJob {
        categories: workload.categories,
        hidden: workload.hidden,
        reduced: (workload.hidden / 4).max(1),
        batch: 1,
        candidates: ((workload.categories as f64) * 0.05).round() as usize,
    };
    let sys = SystemModel::table3();
    eprintln!(
        "tuning {} (l={}, d={}): {} search on {} worker(s)",
        workload.abbr,
        workload.categories,
        workload.hidden,
        mode.name(),
        cfg.workers
    );
    let result = match tune(&sys, &job, &cfg) {
        Ok(r) => r,
        Err(v) => {
            eprintln!("error: {v}");
            return 1;
        }
    };
    if let Some(path) = flag_value(args, "--frontier-out") {
        let j = frontier_json(workload.abbr, result.space_size, &cfg.budget, &result.frontier);
        match std::fs::write(path, j) {
            Ok(()) => eprintln!("frontier written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    let cost = CostModel::new(backend, common.seed);
    let mut report = tune_report(workload.abbr, &cfg, &result, &cost);
    match common.memory.as_slice() {
        [one] => stamp_memory(&mut report, *one),
        many => {
            // A multi-technology axis has no single preset to stamp; the
            // per-design labels carry it, and the joined list documents
            // the swept axis.
            report.memory_tech =
                many.iter().map(|t| t.name()).collect::<Vec<_>>().join(",");
        }
    }
    if common.format == ReportFormat::Json {
        println!("{}", report.to_json());
        return 0;
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
    0
}

fn cmd_offload_plan(args: &[String]) -> i32 {
    use enmc::obs::report::RunReport;
    use enmc::serve::tier::default_tiers;
    use enmc::surrogate::CostModel;
    use enmc::tune::plan_ladder;

    let workload = match parse_workload(flag_value(args, "--workload").unwrap_or("lstm")) {
        Some(w) => w,
        None => {
            eprintln!("unknown workload; try: lstm transformer gnmt xmlcnn s1m s10m s100m");
            return 2;
        }
    };
    let common = match CommonArgs::parse(args, 7) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let frac = match flag_value(args, "--candidates")
        .map(parse_candidate_fraction)
        .unwrap_or(Ok(0.05))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let batch_max = match flag_value(args, "--batch-max")
        .map(|r| parse_count("--batch-max", r))
        .unwrap_or(Ok(4))
    {
        Ok(n) => n as usize,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let job = ClassificationJob {
        categories: workload.categories,
        hidden: workload.hidden,
        reduced: (workload.hidden / 4).max(1),
        batch: 1,
        candidates: ((workload.categories as f64) * frac).round() as usize,
    };
    let tiers = match flag_value(args, "--degrade-tiers") {
        Some(raw) => match parse_degrade_tiers(raw) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
        None => default_tiers(&job),
    };
    let sim_cfg = SimConfig::resolve(common.threads, false);
    let backend = common.backend(CostModelKind::CycleAccurate);
    let mut cost = CostModel::new(backend, common.seed);
    let memory = match common.single_memory() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let sys = SystemModel::table3().with_memory(memory);
    eprintln!(
        "planning offload for {} (l={}, d={}): {} tier(s), batches 1..={batch_max}",
        workload.abbr,
        workload.categories,
        workload.hidden,
        tiers.len()
    );
    let (table, decisions, _plan) =
        match plan_ladder(&sys, &job, &tiers, batch_max, &sim_cfg, &mut cost) {
            Ok(out) => out,
            Err(v) => {
                eprintln!("error: {v}");
                return 1;
            }
        };
    let nmp = decisions.iter().filter(|d| d.nmp).count() as u64;
    let cpu = decisions.len() as u64 - nmp;
    let mut report = RunReport::new("offload-plan", workload.abbr, "enmc");
    stamp_memory(&mut report, memory);
    report.cost_backend = cost.backend().name().to_string();
    report.batch = batch_max as u64;
    report.candidates = job.candidates as u64;
    report.offload_nmp = nmp;
    report.offload_cpu = cpu;
    let stats = cost.stats();
    report.fit_anchors = stats.fit_anchors;
    report.audit_points = stats.audited;
    report.audit_max_rel_err = stats.max_rel_err;
    for d in &decisions {
        report.notes.push(format!(
            "tier {} batch {}: cpu {} cy, nmp {} cy -> {}",
            d.tier,
            d.batch,
            d.cpu_cycles,
            d.nmp_cycles,
            if d.nmp { "nmp" } else { "cpu" }
        ));
    }
    if common.format == ReportFormat::Json {
        println!("{}", report.to_json());
        return 0;
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
            if d.nmp { "nmp" } else { "cpu" }
        );
    }
    println!("  plan    : {nmp} point(s) on NMP, {cpu} on the CPU roofline");
    0
}

fn cmd_fault_sweep(args: &[String]) -> i32 {
    use enmc::resilience::{render_text, run_fault_sweep, FaultSweepArgs};

    let shape = match parse_shape(flag_value(args, "--shape").unwrap_or("lstm-wikitext2")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let ber = match flag_value(args, "--ber").map(parse_ber).unwrap_or(Ok(0.0)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Default to the nominal schedule only: `--ber 0` with no extra flags
    // is exactly the fault-free path (CI diffs that bit-for-bit).
    let multipliers = match flag_value(args, "--multipliers")
        .map(parse_multipliers)
        .unwrap_or(Ok(vec![1.0]))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let weak_columns = match flag_value(args, "--weak-columns").map(parse_ber).unwrap_or(Ok(0.0))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{}", e.replace("--ber", "--weak-columns"));
            return 2;
        }
    };
    let ecc = args.iter().any(|a| a == "--ecc");
    let queries = match flag_value(args, "--queries").map(parse_queries).unwrap_or(Ok(256)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let common = match CommonArgs::parse(args, 7) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let seed = common.seed;
    let format = common.format;
    let workers = common.workers();
    let backend = common.backend(CostModelKind::CycleAccurate);
    let memory = match common.single_memory() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let sweep_args = FaultSweepArgs {
        shape,
        ber,
        multipliers,
        weak_columns,
        ecc,
        queries,
        seed,
        workers,
        backend,
        memory,
        coeffs_in: flag_value(args, "--coeffs").map(String::from),
        coeffs_out: flag_value(args, "--coeffs-out").map(String::from),
    };
    eprintln!(
        "fault sweep on {}: ber {ber}, multipliers {:?}, ecc {}, {} queries, seed {seed}, {}",
        shape.name(),
        sweep_args.multipliers,
        if ecc { "on" } else { "off" },
        queries,
        memory.name()
    );
    let trace_out = flag_value(args, "--trace-out");
    let mut trace = trace_out.map(|_| TraceBuffer::unbounded());
    let (points, frontier, report) = match run_fault_sweep(&sweep_args, trace.as_mut()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    if let (Some(path), Some(tb)) = (trace_out, trace.as_mut()) {
        let chrome = export_chrome(&tb.drain(), 1.0);
        match std::fs::write(path, chrome) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    if format == ReportFormat::Json {
        println!("{}", report.to_json());
        return 0;
    }
    print!("{}", render_text(&points, &frontier));
    println!(
        "  worst point: {:.3} % top-1 degradation, ecc {} corrected / {} uncorrectable",
        report.quality_degradation_pct, report.ecc_corrected, report.ecc_uncorrected
    );
    0
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
        reqs.push(FuzzRequest { at, addr: (addr % space) & !63, write });
        at += 2;
        if reqs.len() >= cap {
            break;
        }
    }
    reqs
}

fn cmd_fuzz_dram(args: &[String]) -> i32 {
    let seeds = match flag_value(args, "--seeds").map(|r| parse_count("--seeds", r)).unwrap_or(Ok(32)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let len = match flag_value(args, "--len").map(|r| parse_count("--len", r)).unwrap_or(Ok(96)) {
        Ok(n) => n as usize,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let bug = match flag_value(args, "--inject-bug") {
        Some(raw) => match InjectedBug::parse(raw) {
            Some(b) => Some(b),
            None => {
                let names: Vec<&str> = InjectedBug::ALL.iter().map(|b| b.name()).collect();
                eprintln!("unknown --inject-bug '{raw}'; try: {}", names.join(" "));
                return 2;
            }
        },
        None => None,
    };
    let (patterns, run_lowered) = match flag_value(args, "--pattern") {
        None => (PatternKind::ALL.to_vec(), true),
        Some("lowered") => (Vec::new(), true),
        Some(raw) => match PatternKind::parse(raw) {
            Some(p) => (vec![p], false),
            None => {
                let names: Vec<&str> = PatternKind::ALL.iter().map(|p| p.name()).collect();
                eprintln!("unknown --pattern '{raw}'; try: {} lowered", names.join(" "));
                return 2;
            }
        },
    };
    let repro_out = flag_value(args, "--repro-out");
    let memory = match flag_value(args, "--memory")
        .map(parse_memory)
        .unwrap_or(Ok(MemTech::Ddr4_2666))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // --check-protocol is accepted for symmetry with `simulate` (and so CI
    // can pass one flag set to both); the fuzz harness always runs with
    // the checker and golden cross-validation attached.

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
        eprintln!("  {:<22} {clean}/1 clean  ({n} Ldr/Str requests)", "lowered");
    }

    if let Some((pattern, seed, reqs)) = first {
        let minimal = fuzz::shrink(&reqs, |r| {
            !fuzz::run_case(r, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing).is_clean()
        });
        let repro = Reproducer {
            pattern,
            seed,
            bug: bug.map(|b| b.name().to_string()),
            // Baseline runs omit the field so pre-preset reproducers stay
            // byte-identical.
            memory: (memory != MemTech::Ddr4_2666).then(|| memory.name().to_string()),
            requests: minimal,
        };
        eprintln!("first failure shrunk to {} request(s):", repro.requests.len());
        println!("{}", repro.to_json());
        if let Some(path) = repro_out {
            match std::fs::write(path, repro.to_json()) {
                Ok(()) => eprintln!("reproducer written to {path}"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    return 1;
                }
            }
        }
    }

    match bug {
        None => {
            if failures == 0 {
                eprintln!("fuzz-dram: {cases} case(s), all clean");
                0
            } else {
                eprintln!("fuzz-dram: {failures}/{cases} case(s) FAILED");
                1
            }
        }
        // Sensitivity mode: the harness passes only by catching the
        // deliberately planted bug.
        Some(b) => {
            if failures > 0 {
                eprintln!(
                    "fuzz-dram: injected bug '{}' caught in {failures}/{cases} case(s)",
                    b.name()
                );
                0
            } else {
                eprintln!("fuzz-dram: injected bug '{}' NOT caught", b.name());
                1
            }
        }
    }
}

fn cmd_profile(args: &[String]) -> i32 {
    let workload = match parse_workload(flag_value(args, "--shape").unwrap_or("s1m")) {
        Some(w) => w,
        None => {
            eprintln!("unknown shape; try: lstm transformer gnmt xmlcnn s1m s10m s100m");
            return 2;
        }
    };
    let scheme = match parse_scheme(flag_value(args, "--scheme").unwrap_or("enmc")) {
        Some(Scheme::CpuFull | Scheme::CpuScreened) => {
            eprintln!(
                "profile needs a simulated scheme (nda, chameleon, tensordimm, enmc); \
                 the analytic CPU model has no cycle-level costs to attribute"
            );
            return 2;
        }
        Some(s) => s,
        None => {
            eprintln!("unknown scheme; try: nda chameleon tensordimm enmc");
            return 2;
        }
    };
    let batch = match flag_value(args, "--batch").map(parse_batch).unwrap_or(Ok(1)) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let frac = match flag_value(args, "--candidates")
        .map(parse_candidate_fraction)
        .unwrap_or(Ok(0.05))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let format = match flag_value(args, "--report")
        .map(parse_report_format)
        .unwrap_or(Ok(ReportFormat::Text))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let threads = match flag_value(args, "--threads") {
        Some(raw) => match parse_threads(raw) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
        None => enmc::par::env_threads().unwrap_or(1),
    };
    let trace_out = flag_value(args, "--trace-out");
    let self_profile = args.iter().any(|a| a == "--self-profile");
    let memory = match flag_value(args, "--memory")
        .map(parse_memory)
        .unwrap_or(Ok(MemTech::Ddr4_2666))
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };

    let mut prof = SelfProfiler::new();
    prof.begin("profile");
    let job = ClassificationJob {
        categories: workload.categories,
        hidden: workload.hidden,
        reduced: (workload.hidden / 4).max(1),
        batch,
        candidates: ((workload.categories as f64) * frac).round() as usize,
    };
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
    stamp_memory(&mut report, memory);
    let attr = attribute_run(&sys, &run).expect("simulated schemes always attribute");
    prof.end("attribute");
    if let Some(path) = trace_out {
        // A representative-rank traced rerun carries the counter tracks
        // (queue depth, open rows, busy lanes) the sharded run cannot.
        prof.begin("trace");
        let mut tb = TraceBuffer::unbounded();
        sys.run_traced(&job, scheme, Some(&mut tb));
        let ns_per_cycle = sys.memory().ns_per_cycle();
        let chrome = export_chrome(&tb.drain(), ns_per_cycle);
        prof.end("trace");
        match std::fs::write(path, chrome) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    prof.end("profile");

    if format == ReportFormat::Json {
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
        println!("total: {} cycles, {:.3} nJ", attr.total_cycles(), attr.energy_nj());
    }
    if self_profile {
        eprint!("{}", prof.render());
    }
    0
}

fn cmd_bench_diff(args: &[String]) -> i32 {
    let tolerance = match flag_value(args, "--wall-tolerance")
        .map(parse_wall_tolerance)
        .unwrap_or(Ok(0.2))
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut paths = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--wall-tolerance" {
            i += 2;
            continue;
        }
        if args[i].starts_with("--") {
            eprintln!("unknown bench-diff flag '{}'", args[i]);
            return 2;
        }
        paths.push(args[i].as_str());
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("usage: enmc bench-diff OLD.json NEW.json [--wall-tolerance F]");
        return 2;
    }
    let load = |path: &str| -> Result<BenchRecord, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchRecord::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(paths[0]), load(paths[1])) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let diff = match enmc::perf::bench::diff(&old, &new, tolerance) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    print!("{}", diff.render());
    if diff.failed() {
        eprint!("{}", diff.failure_summary());
        return 1;
    }
    0
}

fn cmd_asm(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: enmc asm <file.s>");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    match Program::parse(&text) {
        Ok(program) => {
            for inst in program.iter() {
                let frame = inst.encode();
                let data =
                    frame.data.map(|d| format!(" DQ={d:#018x}")).unwrap_or_default();
                println!("{:#06x}{data}  ; {}", frame.command, enmc::isa::asm::disassemble(inst));
            }
            println!("; {} instructions, {} wire bytes", program.len(), program.wire_bytes());
            0
        }
        Err(e) => {
            eprintln!("assembly error: {e}");
            1
        }
    }
}

fn cmd_workloads() -> i32 {
    for id in WorkloadId::table2().iter().chain(WorkloadId::scaling().iter()) {
        let w = id.workload();
        println!(
            "{:<18} l={:<10} d={:<5} classifier {:.2} GiB",
            w.abbr,
            w.categories,
            w.hidden,
            w.classifier_bytes() as f64 / (1u64 << 30) as f64
        );
    }
    0
}

fn cmd_list_memory() -> i32 {
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
    0
}
