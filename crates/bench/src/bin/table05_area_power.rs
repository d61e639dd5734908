//! Regenerates paper Table 5: ENMC area and power breakdown.
//!
//! Beyond printing the table, this harness *gates* on it: every row and
//! the composed totals must reproduce the paper's numbers exactly (the
//! primitive costs are back-derived from these figures, so composition
//! must invert without drift), and the per-row metrics stream into the
//! bench-trajectory record so `bench-diff` catches any model drift.

use enmc::cli::Command;
use enmc_arch::physical::{table5_rows, PhysicalModel};
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::trajectory::BenchEmitter;
use enmc_bench::{BENCH_JSON, JSON};

/// Paper Table 5, verbatim: per-component area (mm²) and power (mW).
const PAPER_ROWS: [(&str, f64, f64); 6] = [
    ("INT4 MAC", 0.013, 10.4),
    ("FP32 MAC", 0.145, 58.0),
    ("Compute Buffer", 0.061, 56.8),
    ("Control Buffer", 0.053, 49.3),
    ("ENMC Ctrl", 0.035, 32.9),
    ("DRAM Ctrl", 0.135, 78.0),
];
const PAPER_TOTAL_AREA_MM2: f64 = 0.442;
const PAPER_TOTAL_POWER_MW: f64 = 285.4;

const CMD: Command = Command::standalone("table05_area_power", &[&[JSON, BENCH_JSON]]);

fn main() {
    let (a, ()) = enmc_bench::parse(&CMD, |_| Ok(()));
    let mut bench = BenchEmitter::from_env(&a);
    let mut rep = Reporter::from_env(&a);
    let m = PhysicalModel::tsmc28();
    println!("Table 5: ENMC area and power estimation\n");
    let mut t = Table::new(&["Component", "Area (mm^2)", "Power (mW)", "Area %", "Power %"]);
    let total = m.enmc_unit();
    let rows = table5_rows(&m);
    assert_eq!(rows.len(), PAPER_ROWS.len(), "Table 5 must list every component");
    for ((name, ap), (pname, parea, ppower)) in rows.iter().zip(PAPER_ROWS) {
        assert_eq!(*name, pname);
        assert!(
            (ap.area_mm2 - parea).abs() < 1e-12,
            "{name} area {} != paper {parea}",
            ap.area_mm2
        );
        assert!(
            (ap.power_mw - ppower).abs() < 1e-12,
            "{name} power {} != paper {ppower}",
            ap.power_mw
        );
        t.row_owned(vec![
            (*name).into(),
            fmt(ap.area_mm2, 3),
            fmt(ap.power_mw, 1),
            format!("{:.1}%", 100.0 * ap.area_mm2 / total.area_mm2),
            format!("{:.1}%", 100.0 * ap.power_mw / total.power_mw),
        ]);
        let key = name.to_ascii_lowercase().replace(' ', "_");
        bench.det(&format!("area_mm2/{key}"), ap.area_mm2);
        bench.det(&format!("power_mw/{key}"), ap.power_mw);
    }
    // The composed unit must land on the paper totals within rounding of
    // the published per-row figures (they are quoted to 3 / 1 decimals).
    assert!(
        (total.area_mm2 - PAPER_TOTAL_AREA_MM2).abs() < 5e-3,
        "total area {} != paper {PAPER_TOTAL_AREA_MM2}",
        total.area_mm2
    );
    assert!(
        (total.power_mw - PAPER_TOTAL_POWER_MW).abs() < 0.5,
        "total power {} != paper {PAPER_TOTAL_POWER_MW}",
        total.power_mw
    );
    let row_area: f64 = PAPER_ROWS.iter().map(|r| r.1).sum();
    let row_power: f64 = PAPER_ROWS.iter().map(|r| r.2).sum();
    assert!((total.area_mm2 - row_area).abs() < 1e-12, "rows must sum to the unit");
    assert!((total.power_mw - row_power).abs() < 1e-12, "rows must sum to the unit");
    t.row_owned(vec![
        "TOTAL".into(),
        fmt(total.area_mm2, 3),
        fmt(total.power_mw, 1),
        "100%".into(),
        "100%".into(),
    ]);
    t.print();
    bench.det("total/area_mm2", total.area_mm2);
    bench.det("total/power_mw", total.power_mw);
    bench.finish();
    rep.table("area_power", &t);
    rep.note("every row and both totals asserted against the paper's Table 5 figures");
    rep.finish();
    println!("\nPaper reference: total 0.442 mm^2, 285.4 mW;");
    println!("compute units 40.8% area / 25% power, buffers 23.5% / 32.2%.");
}
