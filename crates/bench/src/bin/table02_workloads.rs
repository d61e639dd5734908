//! Regenerates paper Table 2: evaluated models and datasets.

use enmc::cli::Command;
use enmc_bench::report::Reporter;
use enmc_bench::table::Table;
use enmc_bench::JSON;
use enmc_model::workloads::{TaskKind, WorkloadId};

const CMD: Command = Command::standalone("table02_workloads", &[&[JSON]]);

fn main() {
    let (a, ()) = enmc_bench::parse(&CMD, |_| Ok(()));
    let mut rep = Reporter::from_env(&a);
    println!("Table 2: Evaluated models and datasets\n");
    let mut t = Table::new(&["Abbr.", "Task", "Categories", "Hidden", "Classifier bytes"]);
    for id in WorkloadId::table2().iter().chain(WorkloadId::scaling().iter()) {
        let w = id.workload();
        let task = match w.task {
            TaskKind::LanguageModeling => "Language Modeling",
            TaskKind::Translation => "Translation",
            TaskKind::Recommendation => "Multi-label Classification",
        };
        t.row_owned(vec![
            w.abbr.to_string(),
            task.to_string(),
            w.categories.to_string(),
            w.hidden.to_string(),
            enmc_bench::table::fmt_bytes(w.classifier_bytes()),
        ]);
    }
    t.print();
    rep.table("workloads", &t);
    rep.finish();
}
