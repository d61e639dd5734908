//! Drives one workload: repeated set-up, timed passes until the deadline,
//! output checks, and (traced runs) the per-layer profile.
//!
//! All load comes from this one process, on one thread: an op starts only
//! after the previous one finished (closed loop), and no op starts after
//! the deadline, so a run measures for `--seconds` plus at most one op.
//! The crates' parallel paths run with one worker. On the 2-vCPU box the
//! suite was sized on, a second worker doubled the run-to-run spread of
//! the host metrics (see README.md), and a parallel speed-up cannot be
//! claimed on two shared vCPUs anyway.

use crate::digest::Fnv;
use crate::spans::{Profile, Spans};
use crate::speed;
use crate::stats::{median, ratio};
use std::time::Instant;

/// An untraced run sets up at least `SETUP_MIN_REPS` times, and more, up
/// to `SETUP_MAX_REPS`, until `SETUP_TARGET_S` of set-up has gone by;
/// `setup_s` is the median. A set-up of a tenth of a second is thus
/// timed over more runs than one of three seconds, whose median over
/// three runs already spans as much time.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_TARGET_S: f64 = 2.0;
/// Yardstick samples before and after each set-up; their medians
/// normalise it.
const SETUP_YARD_SAMPLES: usize = 5;

/// A deterministic output of one complete pass: a simulated headline, a
/// quality figure or an exact layer count.
#[derive(Debug, Clone, PartialEq)]
pub struct Det {
    /// Metric name.
    pub name: &'static str,
    /// Value; identical on every pass of one seed.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Det {
    /// A deterministic output.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Det {
        Det { name, value, unit }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds everything the timed passes read. Runs under `spans` so a
    /// traced run attributes set-up time to its layers.
    fn setup(seed: u64, spans: &mut Spans) -> Self;

    /// Runs one pass of ops through `pass`. Returns the pass's
    /// deterministic outputs when every op of the pass ran, `None` when
    /// the deadline cut it short.
    fn pass(&self, pass: &mut Pass) -> Option<Vec<Det>>;

    /// Per-layer metrics derived from a traced run's set-up and pass
    /// profiles.
    fn layers(&self, setup: &Profile, passes: &Profile) -> Vec<(&'static str, f64)>;
}

/// One op's record: digest of its outputs, whether its invariants held,
/// host nanoseconds at the reference speed, and the yardstick's time
/// around the op.
struct OpRecord {
    digest: u64,
    ok: bool,
    ns: f64,
    yard_ns: f64,
}

/// The context one pass runs its ops through.
pub struct Pass {
    deadline: Instant,
    spans: Spans,
    ops: Vec<OpRecord>,
    /// The yardstick sample taken after the previous op, which is also
    /// the one before the next.
    yard_ns: Option<f64>,
}

impl Pass {
    /// Whether the run's deadline has passed; a workload starts no new op
    /// once it has.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// Spans of work between ops (e.g. a pass-level reduction).
    pub fn spans(&mut self) -> &mut Spans {
        &mut self.spans
    }

    /// Fails every op of this pass: a pass-level invariant broke.
    pub fn fail_all(&mut self, why: &str) {
        for op in &mut self.ops {
            op.ok = false;
        }
        eprintln!("pass-level check failed: {why}");
    }

    /// Runs one op and times it. `f` returns the op's value, the digest
    /// of its outputs and whether its invariants held. The yardstick runs
    /// before and after the op, and the op's time is normalised by the
    /// mean of the two samples (see [`speed`]).
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Spans) -> (T, u64, bool)) -> T {
        let before = match self.yard_ns.take() {
            Some(ns) => ns,
            None => self.yardstick(),
        };
        let start = Instant::now();
        let (value, digest, ok) = f(&mut self.spans);
        let ns = start.elapsed().as_nanos() as f64;
        let after = self.yardstick();
        self.yard_ns = Some(after);
        let yard_ns = (before + after) / 2.0;
        self.ops.push(OpRecord {
            digest,
            ok,
            ns: speed::normalise(ns, yard_ns),
            yard_ns,
        });
        value
    }

    /// One yardstick sample, in a span of its own so a traced pass
    /// accounts for its time.
    fn yardstick(&mut self) -> f64 {
        self.spans.span("speed.yardstick", |_| speed::sample_ns())
    }
}

/// One pass as the checker and the timing see it.
struct PassLog {
    ops: Vec<OpRecord>,
    /// `Some((pass digest, outputs))` for a pass that ran every op.
    complete: Option<(u64, Vec<Det>)>,
    traced: bool,
}

/// Host timing of the untraced or of the traced passes, at the reference
/// speed.
#[derive(Default)]
pub struct Phase {
    /// Ops per host second of a pass made of each op's median run.
    pub ops_per_s: f64,
    /// Each op's median host nanoseconds over the timed passes, in op
    /// order.
    pub op_ns: Vec<f64>,
    /// Every op's host nanoseconds over the timed passes.
    pub samples_ns: Vec<f64>,
    /// Passes timed: the complete ones, or all when none completed.
    pub passes: usize,
    /// How fast the host ran: the reference yardstick time over the
    /// median yardstick time of the timed ops (1 at the reference speed,
    /// 0.5 at half of it).
    pub host_speed: f64,
}

/// Times the untraced (`traced == false`) or traced passes.
///
/// Only complete passes count when there is one: every complete pass runs
/// the same ops on the same inputs, so the op mix does not depend on
/// where the deadline cut the last pass. Each op is then timed by its
/// median run over those passes, each run normalised by the yardstick
/// beside it. The median needs no quiet stretch within the run, which a
/// host that stays slow for longer than a run never gives, and it
/// averages out the noise of single yardstick samples, which the fastest
/// normalised run would keep.
fn timing(logs: &[PassLog], traced: bool) -> Phase {
    let phase: Vec<&PassLog> = logs.iter().filter(|l| l.traced == traced).collect();
    let complete: Vec<&PassLog> = phase
        .iter()
        .copied()
        .filter(|l| l.complete.is_some())
        .collect();
    let timed = if complete.is_empty() { phase } else { complete };
    let op_ns = per_op_median(&timed);
    let total: f64 = op_ns.iter().sum();
    let ops = || timed.iter().flat_map(|l| &l.ops);
    let yard: Vec<f64> = ops().map(|o| o.yard_ns).collect();
    Phase {
        ops_per_s: ratio(op_ns.len() as f64, total * 1e-9),
        samples_ns: ops().map(|o| o.ns).collect(),
        op_ns,
        passes: timed.len(),
        host_speed: median(&yard).map_or(0.0, |y| ratio(speed::REFERENCE_NS, y)),
    }
}

/// Each op's median time over `passes` (op `i` is the `i`-th op of
/// every pass; a cut-short pass holds a prefix).
fn per_op_median(passes: &[&PassLog]) -> Vec<f64> {
    let mut runs: Vec<Vec<f64>> = Vec::new();
    for log in passes {
        for (i, op) in log.ops.iter().enumerate() {
            match runs.get_mut(i) {
                Some(r) => r.push(op.ns),
                None => runs.push(vec![op.ns]),
            }
        }
    }
    runs.iter()
        .map(|r| median(r).expect("every op ran at least once"))
        .collect()
}

/// Tracing overhead: the traced ops' median times over the same ops'
/// median untraced times, minus one.
pub fn overhead(untraced: &Phase, traced: &Phase) -> f64 {
    let pairs = untraced.op_ns.iter().zip(&traced.op_ns);
    let (u, t) = pairs.fold((0.0, 0.0), |(u, t), (a, b)| (u + a, t + b));
    if u > 0.0 {
        t / u - 1.0
    } else {
        0.0
    }
}

/// Everything one workload run measured and checked.
pub struct Outcome {
    /// Ops attempted, traced or not.
    pub attempted: u64,
    /// Ops whose invariants broke or whose outputs differed from the
    /// reference pass (every op, when the pass digest differs from the
    /// recorded one).
    pub failed: u64,
    /// Host seconds of each set-up, at the reference speed.
    pub setup_s: Vec<f64>,
    /// The untraced passes.
    pub untraced: Phase,
    /// The traced passes (traced runs only).
    pub traced: Option<Phase>,
    /// Share of the traced passes' time inside outermost spans.
    pub coverage: f64,
    /// Digest of the first complete pass (`None` when no pass completed).
    pub digest: Option<u64>,
    /// Deterministic outputs of the first complete pass.
    pub det: Vec<Det>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Set-up and pass spans of a traced run.
    pub profile: Option<Profile>,
    /// Problems found, one line each.
    pub problems: Vec<String>,
}

/// Run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is a traced run.
    pub trace: bool,
}

/// Runs workload `W` under `cfg`. `expected` is the recorded pass digest
/// for this seed, when one is recorded.
///
/// An untraced run sets up several times (see [`SETUP_MIN_REPS`]), then
/// runs passes until `cfg.seconds` have passed. A traced run sets up once
/// under spans, runs untraced passes for half of `cfg.seconds` — longer
/// if none completed by then — as the reference outputs and per-op
/// baseline, then traced passes for the rest of `cfg.seconds`, and at
/// least a quarter of it.
pub fn run<W: Workload>(cfg: &RunCfg, expected: Option<u64>) -> Outcome {
    let epoch = Instant::now();
    let (mut spent_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut setup_profile = None;
    let mut state: Option<W> = None;
    let mut yard_ns = speed::median_ns(SETUP_YARD_SAMPLES);
    // The previous state is dropped first so peak memory is one state's.
    while spent_s.is_empty() || (!cfg.trace && another_setup(&spent_s)) {
        drop(state.take());
        let mut spans = if cfg.trace {
            Spans::on(epoch)
        } else {
            Spans::off()
        };
        let start = Instant::now();
        state = Some(W::setup(cfg.seed, &mut spans));
        let spent = start.elapsed().as_secs_f64();
        let after_ns = speed::median_ns(SETUP_YARD_SAMPLES);
        spent_s.push(spent);
        setup_s.push(speed::normalise(spent, (yard_ns + after_ns) / 2.0));
        yard_ns = after_ns;
        setup_profile = Some(spans.into_profile());
    }
    let w = state.expect("at least one set-up ran");
    let setup_profile = setup_profile.expect("at least one set-up ran");

    let seconds = |s: f64| std::time::Duration::from_secs_f64(s);
    let end = Instant::now() + seconds(cfg.seconds);
    let mut logs = Vec::new();
    let mut traced = None;
    if cfg.trace {
        passes(
            &w,
            end - seconds(cfg.seconds / 2.0),
            false,
            false,
            epoch,
            &mut logs,
        );
        if !logs.iter().any(|l| l.complete.is_some()) {
            passes(&w, end, false, true, epoch, &mut logs);
        }
        let deadline = end.max(Instant::now() + seconds(cfg.seconds / 4.0));
        traced = Some(passes(&w, deadline, true, false, epoch, &mut logs));
    } else {
        passes(&w, end, false, false, epoch, &mut logs);
    }

    let mut out = Outcome {
        attempted: logs.iter().map(|l| l.ops.len() as u64).sum(),
        failed: 0,
        setup_s,
        untraced: timing(&logs, false),
        traced: cfg.trace.then(|| timing(&logs, true)),
        coverage: traced.as_ref().map_or(0.0, |(_, c)| *c),
        digest: None,
        det: Vec::new(),
        layers: Vec::new(),
        profile: None,
        problems: Vec::new(),
    };
    check(&logs, expected, &mut out);
    if let Some((mut profile, _)) = traced {
        out.layers = w.layers(&setup_profile, &profile);
        profile.absorb(setup_profile);
        out.profile = Some(profile);
    }
    out
}

/// Whether an untraced run sets up once more after set-ups that took
/// `spent_s` host seconds each.
fn another_setup(spent_s: &[f64]) -> bool {
    let n = spent_s.len();
    n < SETUP_MIN_REPS || (n < SETUP_MAX_REPS && spent_s.iter().sum::<f64>() < SETUP_TARGET_S)
}

/// Runs passes until `deadline` (or, with `one`, until the first pass
/// that completes). Returns the passes' profile and the share of their
/// time spent inside outermost spans.
fn passes<W: Workload>(
    w: &W,
    deadline: Instant,
    tracing: bool,
    one: bool,
    epoch: Instant,
    logs: &mut Vec<PassLog>,
) -> (Profile, f64) {
    let start = Instant::now();
    let mut profile = Profile::default();
    while Instant::now() < deadline {
        let spans = if tracing {
            Spans::on(epoch)
        } else {
            Spans::off()
        };
        let mut pass = Pass {
            deadline,
            spans,
            ops: Vec::new(),
            yard_ns: None,
        };
        let det = w.pass(&mut pass);
        let complete = det.map(|det| {
            let mut h = pass.ops.iter().fold(Fnv::default(), |h, o| h.u64(o.digest));
            for d in &det {
                h = h.bytes(d.name.as_bytes()).f64(d.value);
            }
            (h.finish(), det)
        });
        let done = complete.is_some();
        logs.push(PassLog {
            ops: pass.ops,
            complete,
            traced: tracing,
        });
        profile.absorb(pass.spans.into_profile());
        if one && done {
            break;
        }
    }
    let coverage = ratio(profile.top_ns, start.elapsed().as_nanos() as f64);
    (profile, coverage)
}

/// Checks every op against the first complete pass and that pass against
/// the recorded digest.
fn check(logs: &[PassLog], expected: Option<u64>, out: &mut Outcome) {
    let Some(reference) = logs.iter().find(|l| l.complete.is_some()) else {
        out.failed = out.attempted;
        out.problems
            .push("no pass completed within --seconds; outputs unchecked".into());
        return;
    };
    let (digest, det) = reference.complete.clone().expect("found by is_some");
    out.digest = Some(digest);
    out.det = det;
    for (p, log) in logs.iter().enumerate() {
        let mut bad = 0;
        for (i, op) in log.ops.iter().enumerate() {
            let same = reference.ops.get(i).is_some_and(|r| r.digest == op.digest);
            if !op.ok {
                out.problems
                    .push(format!("pass {p} op {i}: invariant broken"));
            }
            if !same {
                out.problems.push(format!(
                    "pass {p} op {i}: outputs differ from the reference pass"
                ));
            }
            bad += u64::from(!op.ok || !same);
        }
        if log.complete.as_ref().is_some_and(|(h, _)| *h != digest) {
            out.problems.push(format!(
                "pass {p}: pass digest differs from the first complete pass"
            ));
            bad = log.ops.len() as u64;
        }
        out.failed += bad;
    }
    if let Some(e) = expected.filter(|&e| e != digest) {
        out.problems.push(format!(
            "pass digest {digest:016x} differs from the recorded {e:016x}"
        ));
        out.failed = out.attempted;
    }
    out.problems.truncate(20);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(ops: &[u64], complete: bool, traced: bool) -> PassLog {
        PassLog {
            ops: ops
                .iter()
                .map(|&d| OpRecord {
                    digest: d,
                    ok: true,
                    ns: 10.0 * d as f64,
                    yard_ns: 2.0 * speed::REFERENCE_NS,
                })
                .collect(),
            complete: complete.then(|| (ops.iter().sum(), vec![])),
            traced,
        }
    }

    fn outcome(attempted: u64) -> Outcome {
        Outcome {
            attempted,
            failed: 0,
            setup_s: vec![],
            untraced: Phase::default(),
            traced: None,
            coverage: 0.0,
            digest: None,
            det: vec![],
            layers: vec![],
            profile: None,
            problems: vec![],
        }
    }

    #[test]
    fn check_fails_ops_that_drift_and_passes_that_miss_the_record() {
        let logs = [
            log(&[1, 2], false, false),
            log(&[1, 2, 3], true, false),
            log(&[1, 9], false, true),
        ];
        let mut out = outcome(7);
        check(&logs, None, &mut out);
        assert_eq!((out.failed, out.digest), (1, Some(6)));

        let mut out = outcome(7);
        check(&logs, Some(5), &mut out);
        assert_eq!(out.failed, 7, "a pass digest off the record fails every op");

        let mut out = outcome(2);
        check(&[log(&[1, 2], false, false)], None, &mut out);
        assert_eq!(out.failed, 2, "no complete pass means nothing was checked");
    }

    #[test]
    fn short_setups_repeat_until_the_target_time() {
        let reps = |each_s: f64| {
            let mut setup_s = vec![each_s];
            while another_setup(&setup_s) {
                setup_s.push(each_s);
            }
            setup_s.len()
        };
        assert_eq!(reps(3.0), SETUP_MIN_REPS);
        assert_eq!(reps(0.25), 8);
        assert_eq!(reps(0.01), SETUP_MAX_REPS);
    }

    #[test]
    fn timing_takes_each_ops_median_run_over_complete_passes() {
        let mut slow = log(&[1, 2, 3], true, false);
        slow.ops[0].ns = 50.0;
        let mut fast = log(&[1, 2, 3], true, false);
        fast.ops[0].ns = 5.0;
        let logs = [
            log(&[1, 2, 3], true, false),
            log(&[1], false, false),
            log(&[2, 4], false, true),
            slow,
            fast,
        ];
        let t = timing(&logs, false);
        assert_eq!(t.op_ns, [10.0, 20.0, 30.0]);
        assert!((t.ops_per_s - 3.0 / 60e-9).abs() < 1.0);
        assert_eq!((t.passes, t.samples_ns.len()), (3, 9));
        assert_eq!(
            t.host_speed, 0.5,
            "the yardstick took twice its reference time"
        );
        let traced = timing(&logs, true);
        assert_eq!(
            traced.passes, 1,
            "a partial pass counts when none completed"
        );
        // Traced ops took 20 and 40 ns where the median untraced runs took 10 and 20.
        assert_eq!(overhead(&t, &traced), 1.0);
    }
}
