//! Bench-trajectory emission: each harness binary can mirror its headline
//! numbers into a stable [`BenchRecord`] (`BENCH_<name>.json`) so runs can
//! be diffed over time with `enmc bench-diff`.
//!
//! Metrics come in two kinds with different gate policies (see
//! `enmc_perf::bench`):
//!
//! * **deterministic** — simulated cycles, energy, speedups, quality.
//!   Bit-stable across hosts and worker counts; *any* drift fails a diff.
//! * **wall** — host timings, recorded as a median over N samples.
//!   Only regressions beyond a noise tolerance fail.
//!
//! Like [`crate::report::Reporter`], the destination is opt-in and
//! resolved once at startup:
//!
//! 1. a `--bench-json <file>` argument ([`crate::BENCH_JSON`]) wins;
//! 2. otherwise, if `ENMC_BENCH_DIR` is set, the record lands in
//!    `<dir>/BENCH_<name>.json`;
//! 3. otherwise the emitter is inert and costs nothing.

use enmc::cli::Args;
use enmc_obs::json;
use enmc_perf::bench::BenchRecord;
use std::path::PathBuf;
use std::time::Instant;

/// Collects metrics from one harness binary and writes them as a
/// `BENCH_<name>.json` record on [`BenchEmitter::finish`].
#[derive(Debug)]
pub struct BenchEmitter {
    record: BenchRecord,
    dest: Option<PathBuf>,
}

impl BenchEmitter {
    /// An emitter for the binary `a` parsed the command line of: the path
    /// given for `--bench-json`, else `BENCH_<name>.json` in the
    /// `ENMC_BENCH_DIR` directory, else inert.
    pub fn from_env(a: &Args) -> Self {
        let name = a.command();
        let dest = match a.text("--bench-json") {
            Some(path) => Some(PathBuf::from(path)),
            None => std::env::var_os("ENMC_BENCH_DIR")
                .map(|dir| PathBuf::from(dir).join(format!("BENCH_{name}.json"))),
        };
        BenchEmitter { record: BenchRecord::new(name), dest }
    }

    /// An emitter writing to an explicit path (primarily for tests).
    pub fn to_path(name: &str, path: impl Into<PathBuf>) -> Self {
        BenchEmitter { record: BenchRecord::new(name), dest: Some(path.into()) }
    }

    /// `true` when [`BenchEmitter::finish`] will write somewhere.
    pub fn active(&self) -> bool {
        self.dest.is_some()
    }

    /// Records the deterministic metric `key`. Cheap no-op when inactive.
    pub fn det(&mut self, key: &str, value: f64) {
        if self.active() {
            self.record.metric(key, value);
        }
    }

    /// Records a wall metric as the median of `samples_ns`. No-op when
    /// inactive or when `samples_ns` is empty.
    pub fn wall_ns(&mut self, key: &str, samples_ns: &[f64]) {
        if self.active() && !samples_ns.is_empty() {
            self.record.wall_metric(key, samples_ns);
        }
    }

    /// Runs `f` once and records its wall time under `key` (a median of
    /// one sample). The closure always runs — timing is just skipped when
    /// the emitter is inert — so harness behaviour doesn't depend on
    /// whether a record is being written.
    pub fn timed<T>(&mut self, key: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.wall_ns(key, &[ns]);
        out
    }

    /// Writes the record to the resolved destination, if any. Failures are
    /// reported on stderr but never abort the harness run.
    pub fn finish(&self) {
        let Some(dest) = &self.dest else { return };
        match std::fs::write(dest, format!("{}\n", json::encode(&self.record))) {
            Ok(()) => eprintln!("bench record written to {}", dest.display()),
            Err(e) => eprintln!("cannot write bench record {}: {e}", dest.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_perf::bench::diff;

    #[test]
    fn inactive_emitter_collects_nothing_and_finish_is_a_noop() {
        let mut em = BenchEmitter { record: BenchRecord::new("x"), dest: None };
        em.det("cycles", 10.0);
        em.wall_ns("sim", &[1.0, 2.0]);
        assert!(!em.active());
        let parsed = json::decode::<BenchRecord>(&json::encode(&em.record)).unwrap();
        assert!(parsed.deterministic.is_empty() && parsed.wall.is_empty());
        em.finish();
    }

    #[test]
    fn timed_runs_the_closure_even_when_inert() {
        let mut em = BenchEmitter { record: BenchRecord::new("x"), dest: None };
        let v = em.timed("sim", || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn emitted_record_round_trips_and_self_diffs_clean() {
        let path = std::env::temp_dir().join("BENCH_enmc-trajectory-test.json");
        let mut em = BenchEmitter::to_path("fig00", &path);
        em.det("speedup/geomean/enmc", 56.5);
        em.det("sim_cycles/lstm/b1", 12_345.0);
        em.wall_ns("harness/sum_ns", &[3.0, 1.0, 2.0]);
        em.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let rec = json::decode::<BenchRecord>(&text).unwrap();
        assert_eq!(rec.name, "fig00");
        assert_eq!(rec.deterministic.len(), 2);
        assert_eq!(rec.wall.len(), 1);
        let report = diff(&rec, &rec, 0.2).unwrap();
        assert!(!report.failed(), "a record must self-diff clean:\n{}", report.render());
        let _ = std::fs::remove_file(&path);
    }
}
