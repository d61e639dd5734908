//! Shared machine-readable report emitter for the harness binaries.
//!
//! Every `fig*` / `table*` binary prints fixed-width tables for humans; a
//! [`Reporter`] mirrors those tables into one JSON document so downstream
//! tooling (plotting scripts, CI diffs) can consume the same numbers
//! without scraping stdout.
//!
//! The destination is opt-in and resolved once at startup:
//!
//! 1. a `--json <file>` argument ([`crate::JSON`]) wins;
//! 2. otherwise, if the `ENMC_REPORT_DIR` environment variable is set, the
//!    report lands in `<dir>/<name>.json`;
//! 3. otherwise the reporter is inert and costs nothing.

use crate::table::Table;
use enmc::cli::Args;
use enmc_obs::{json, record};
use std::path::PathBuf;

record! {
    /// One printed table: its header row and its cells, as text.
    TableDoc {
        /// Column headers.
        columns: Vec<String>,
        /// Rows of cells.
        rows: Vec<Vec<String>>,
    }
}

record! {
    /// The document a [`Reporter`] writes.
    HarnessReport {
        /// The binary's name.
        name: String,
        /// The tables, keyed as recorded, in recording order.
        tables: Vec<(String, TableDoc)>,
        /// Free-form annotations.
        notes: Vec<String>,
    }
}

/// Collects tables and notes from one harness binary and writes them as a
/// single JSON document on [`Reporter::finish`].
#[derive(Debug)]
pub struct Reporter {
    dest: Option<PathBuf>,
    doc: HarnessReport,
}

impl Reporter {
    /// A reporter for the binary `a` parsed the command line of: the path
    /// given for `--json`, else `<name>.json` in the `ENMC_REPORT_DIR`
    /// directory, else inert.
    pub fn from_env(a: &Args) -> Self {
        let name = a.command();
        let dest = match a.text("--json") {
            Some(path) => Some(PathBuf::from(path)),
            None => std::env::var_os("ENMC_REPORT_DIR")
                .map(|dir| PathBuf::from(dir).join(format!("{name}.json"))),
        };
        Reporter::with_dest(name, dest)
    }

    fn with_dest(name: &str, dest: Option<PathBuf>) -> Self {
        Reporter { dest, doc: HarnessReport { name: name.to_string(), ..HarnessReport::default() } }
    }

    /// `true` when [`Reporter::finish`] will write somewhere.
    pub fn active(&self) -> bool {
        self.dest.is_some()
    }

    /// Records `table` under `key`. Cheap no-op when inactive.
    pub fn table(&mut self, key: &str, table: &Table) {
        if !self.active() {
            return;
        }
        let doc = TableDoc { columns: table.headers().to_vec(), rows: table.rows().to_vec() };
        self.doc.tables.push((key.to_string(), doc));
    }

    /// Attaches a free-form annotation.
    pub fn note(&mut self, text: &str) {
        if self.active() {
            self.doc.notes.push(text.to_string());
        }
    }

    /// Writes the report to the resolved destination, if any. Failures are
    /// reported on stderr but never abort the harness run — the printed
    /// tables remain the source of truth.
    pub fn finish(&self) {
        let Some(dest) = &self.dest else { return };
        match std::fs::write(dest, json::encode(&self.doc)) {
            Ok(()) => eprintln!("report written to {}", dest.display()),
            Err(e) => eprintln!("cannot write report {}: {e}", dest.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new(&["workload", "speedup"]);
        t.row_owned(vec!["GNMT-E32K".into(), "11.8".into()]);
        t.row_owned(vec!["XMLCNN-670K".into(), "17.4".into()]);
        t
    }

    #[test]
    fn inactive_reporter_collects_nothing() {
        let mut rep = Reporter::with_dest("x", None);
        rep.table("t", &sample_table());
        rep.note("ignored");
        assert!(!rep.active());
        assert!(rep.doc.tables.is_empty() && rep.doc.notes.is_empty());
        rep.finish(); // no destination: must be a no-op
    }

    #[test]
    fn json_mirrors_tables_and_notes() {
        let mut rep = Reporter::with_dest("fig99", Some("/nonexistent/ignored.json".into()));
        rep.table("speedups", &sample_table());
        rep.note("scaled shapes");
        let text = json::encode(&rep.doc);
        assert_eq!(
            text,
            r#"{"name":"fig99","tables":{"speedups":{"columns":["workload","speedup"],"rows":[["GNMT-E32K","11.8"],["XMLCNN-670K","17.4"]]}},"notes":["scaled shapes"]}"#
        );
        assert_eq!(json::decode::<HarnessReport>(&text).unwrap(), rep.doc);
    }

    #[test]
    fn finish_writes_the_file() {
        let path = std::env::temp_dir().join("enmc-bench-report-test.json");
        let mut rep = Reporter::with_dest("fig00", Some(path.clone()));
        rep.table("t", &sample_table());
        rep.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(json::decode::<HarnessReport>(&text).unwrap(), rep.doc);
        let _ = std::fs::remove_file(&path);
    }
}
