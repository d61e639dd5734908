//! Iso-quality memory-technology sweep: the same ENMC design point run
//! on each memory preset (DDR4-2666, DDR5-4800, LPDDR4-3200, HBM2) over
//! the paper shapes plus the S1M scale point.
//!
//! "Iso-quality" is by construction: the screening configuration
//! (candidate fraction, screener bitwidth, selection policy) is held
//! fixed across presets, so every preset classifies with *identical*
//! quality and the sweep isolates what the memory technology alone does
//! to latency and energy/query. The headline BENCH metrics rank the four
//! presets by energy/query per shape; every metric is a pure function of
//! simulated cycles and the preset's energy coefficients, so records are
//! byte-identical at any `--threads` / `ENMC_THREADS` setting and gate
//! at zero tolerance through `enmc bench-diff`.

use enmc::cli::{Command, THREADS};
use enmc_arch::system::{ClassificationJob, Scheme, SystemModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::trajectory::BenchEmitter;
use enmc_bench::{candidate_fraction, par_rows, BENCH_JSON, JSON};
use enmc_mem::MemTech;
use enmc_model::workloads::WorkloadId;
use enmc_par::SimConfig;

const CMD: Command = Command::standalone("memtech_iso_quality", &[&[THREADS, JSON, BENCH_JSON]]);

fn main() {
    let (a, cfg) = enmc_bench::parse(&CMD, |a| Ok(SimConfig::resolve(a.threads()?, false)));
    let mut bench = BenchEmitter::from_env(&a);
    let mut rep = Reporter::from_env(&a);
    println!("Iso-quality memory-technology sweep (ENMC scheme, batch 1)\n");
    let shapes: Vec<WorkloadId> = {
        let mut v = WorkloadId::table2().to_vec();
        v.push(WorkloadId::S1M);
        v
    };
    let points: Vec<(WorkloadId, MemTech)> = shapes
        .iter()
        .flat_map(|&id| MemTech::ALL.map(|tech| (id, tech)))
        .collect();
    // Every (shape, preset) point simulates independently; shard them
    // across the bench workers. Rows come back in sweep order.
    let rows = bench.timed("harness/sweep_ns", || {
        par_rows(&cfg, points, |&(id, tech)| {
            let w = id.workload();
            let job = ClassificationJob {
                categories: w.categories,
                hidden: w.hidden,
                reduced: (w.hidden / 4).max(1),
                batch: 1,
                candidates: ((w.categories as f64) * candidate_fraction(id)).round() as usize,
            };
            let sys = SystemModel::table3().with_memory(tech);
            let run = sys.run(&job, Scheme::Enmc);
            let energy = run.energy.expect("ENMC is a simulated scheme");
            (w.abbr, tech, run.ns, energy.total_nj())
        })
    });

    let mut t = Table::new(&["Shape", "Preset", "Latency ns", "Energy/query nJ", "vs DDR4"]);
    for shape in &shapes {
        let abbr = shape.workload().abbr;
        let per_tech: Vec<&(&str, MemTech, f64, f64)> =
            rows.iter().filter(|(a, ..)| *a == abbr).collect();
        let ddr4_nj = per_tech
            .iter()
            .find(|(_, tech, ..)| *tech == MemTech::Ddr4_2666)
            .expect("baseline preset in sweep")
            .3;
        // Rank the presets by energy/query at this (iso-quality) point;
        // ties break by preset order, which is deterministic.
        let mut ranked: Vec<&&(&str, MemTech, f64, f64)> = per_tech.iter().collect();
        ranked.sort_by(|a, b| a.3.total_cmp(&b.3));
        for (_, tech, ns, nj) in &per_tech {
            bench.det(&format!("latency_ns/{abbr}/{}", tech.short()), *ns);
            bench.det(&format!("energy_nj_per_query/{abbr}/{}", tech.short()), *nj);
            let rank = ranked.iter().position(|r| r.1 == *tech).expect("ranked") + 1;
            bench.det(&format!("rank_by_energy/{abbr}/{}", tech.short()), rank as f64);
            t.row_owned(vec![
                abbr.to_string(),
                tech.name().to_string(),
                fmt(*ns, 1),
                fmt(*nj, 1),
                fmt(ddr4_nj / nj, 2),
            ]);
        }
    }
    t.print();

    rep.table("iso_quality_sweep", &t);
    let s1m: Vec<&(&str, MemTech, f64, f64)> =
        rows.iter().filter(|(a, ..)| *a == "S1M").collect();
    let mut s1m_ranked = s1m.clone();
    s1m_ranked.sort_by(|a, b| a.3.total_cmp(&b.3));
    let order: Vec<&str> = s1m_ranked.iter().map(|(_, tech, ..)| tech.name()).collect();
    println!("\nS1M energy/query ranking (iso-quality): {}", order.join(" < "));
    rep.note(&format!("s1m energy ranking: {}", order.join(" < ")));
    rep.finish();
    bench.finish();
}
