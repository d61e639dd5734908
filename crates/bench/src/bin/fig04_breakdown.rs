//! Regenerates paper Fig. 4: parameter/operation breakdown into
//! classification vs non-classification.

use enmc::cli::Command;
use enmc_bench::report::Reporter;
use enmc_bench::table::Table;
use enmc_bench::JSON;
use enmc_model::breakdown::figure4_breakdown;

const CMD: Command = Command::standalone("fig04_breakdown", &[&[JSON]]);

fn main() {
    let (a, ()) = enmc_bench::parse(&CMD, |_| Ok(()));
    let mut rep = Reporter::from_env(&a);
    println!("Figure 4: classification vs non-classification breakdown\n");
    let mut t = Table::new(&[
        "Workload",
        "Classifier params",
        "Front-end params",
        "Classifier % (params)",
        "Classifier % (ops)",
    ]);
    for row in figure4_breakdown() {
        t.row_owned(vec![
            row.workload.to_string(),
            row.classifier_params.to_string(),
            row.front_end_params.to_string(),
            format!("{:.1}%", 100.0 * row.param_fraction),
            format!("{:.1}%", 100.0 * row.ops_fraction),
        ]);
    }
    t.print();
    rep.table("breakdown", &t);
    rep.finish();
    println!("\nShape check: classification share grows with category count and");
    println!("dominates (>99%) for the million-category recommendation points.");
}
