//! Regenerates paper Table 4: NMP designs at iso area/power budget.

use enmc::cli::Command;
use enmc_arch::physical::PhysicalModel;
use enmc_bench::report::Reporter;
use enmc_bench::table::{fmt, Table};
use enmc_bench::JSON;

const CMD: Command = Command::standalone("table04_baselines", &[&[JSON]]);

fn main() {
    let (a, ()) = enmc_bench::parse(&CMD, |_| Ok(()));
    let mut rep = Reporter::from_env(&a);
    let m = PhysicalModel::tsmc28();
    println!("Table 4: NMP designs at comparable area and power budget\n");
    let mut t = Table::new(&["NMP design", "Configuration", "Est. Area (mm^2)", "Est. Power (mW)"]);
    let rows = [
        ("NDA", "4x4 Functional Units + 1KB Memory", m.nda_unit()),
        ("Chameleon", "4x4 Systolic Array + 1KB Memory", m.chameleon_unit()),
        ("TensorDIMM", "16-lane VPU + 512B Queue x 3", m.tensordimm_unit()),
        ("ENMC (ours)", "FP32x16 + INT4x128 + 256B Buffer x 4", m.enmc_table4()),
    ];
    for (name, cfg, ap) in rows {
        t.row_owned(vec![
            name.into(),
            cfg.into(),
            fmt(ap.area_mm2, 3),
            fmt(ap.power_mw, 1),
        ]);
    }
    t.print();
    rep.table("budgets", &t);
    rep.finish();
    println!("\nPaper reference: NDA 0.445/293.6, Chameleon 0.398/249.0,");
    println!("TensorDIMM 0.457/303.5, ENMC 0.442/285.4");
}
