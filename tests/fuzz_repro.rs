//! Fuzz-reproducer regression fixtures.
//!
//! Two minimized failing cases produced by `enmc fuzz-dram --inject-bug`
//! are checked in under `tests/golden/fuzz_repro_*.json`. Each test
//! re-derives the reproducer from scratch (generate → run → ddmin shrink,
//! all deterministic) and requires byte-level agreement with the fixture,
//! then replays the fixture and requires the planted bug's rule to fire.
//! That pins three things at once: the traffic generators, the shrinker,
//! and the checker's verdict on a known-bad command stream.
//!
//! Intentional changes are re-blessed with
//! `ENMC_BLESS=1 cargo test --test fuzz_repro`.

use enmc::dram::fuzz::{self, InjectedBug, PatternKind, Reproducer};
use enmc::dram::{AddressMapping, DramConfig, Rule};
use enmc::obs::json::{self, Nullable};

const TRCD_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fuzz_repro_trcd.json");
const TFAW_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fuzz_repro_tfaw.json");

/// Rebuilds the minimized reproducer for `(pattern, seed, len, bug)`
/// exactly as `enmc fuzz-dram --inject-bug` would.
fn regenerate(pattern: PatternKind, seed: u64, len: usize, bug: InjectedBug) -> Reproducer {
    let (reqs, out) = fuzz::run_seed(pattern, seed, len, Some(bug));
    assert!(
        !out.is_clean(),
        "{} seed {seed} no longer triggers {}: the fixture premise is gone",
        pattern.name(),
        bug.name()
    );
    let reference = DramConfig::enmc_single_rank();
    let mut cfg = reference;
    cfg.timing = bug.apply(cfg.timing);
    let minimal = fuzz::shrink(&reqs, |r| {
        !fuzz::run_case(r, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing).is_clean()
    });
    Reproducer {
        pattern: pattern.name().to_string(),
        seed,
        bug: Nullable(Some(bug.name().to_string())),
        // Fixtures predate the preset layer; the baseline omits the field
        // so the checked-in JSON stays byte-identical.
        memory: None,
        requests: minimal,
    }
}

fn check_fixture(
    path: &str,
    pattern: PatternKind,
    seed: u64,
    len: usize,
    bug: InjectedBug,
    rule: Rule,
) {
    let current = regenerate(pattern, seed, len, bug);
    if std::env::var_os("ENMC_BLESS").is_some() {
        std::fs::write(path, json::encode(&current)).expect("write fuzz reproducer fixture");
        return;
    }
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing fixture {path} ({e}); bless with ENMC_BLESS=1"));
    let fixture: Reproducer = json::decode(&text).expect("fixture parses");
    assert_eq!(
        fixture, current,
        "fuzzer/shrinker output drifted from {path}; if intentional, re-bless with \
         ENMC_BLESS=1 cargo test --test fuzz_repro"
    );
    // The fixture must still reproduce: replay is not clean and the
    // planted bug's own rule is among the violations.
    let out = fixture.replay();
    assert!(!out.is_clean(), "fixture {path} replays clean — regression coverage lost");
    assert!(
        out.violations.iter().any(|v| v.rule == rule),
        "fixture {path} no longer raises {rule:?}: {:?}",
        out.violations
    );
    // And it stays a *minimal* reproducer: dropping any one request makes
    // the failure disappear (1-minimality, the shrinker's contract).
    let reference = DramConfig::enmc_single_rank();
    let mut cfg = reference;
    cfg.timing = bug.apply(cfg.timing);
    if fixture.requests.len() > 1 {
        for skip in 0..fixture.requests.len() {
            let mut sub = fixture.requests.clone();
            sub.remove(skip);
            let sub_out =
                fuzz::run_case(&sub, &cfg, AddressMapping::RoRaBaCoBg, &reference.timing);
            assert!(
                sub_out.is_clean(),
                "fixture {path} is not 1-minimal: request {skip} is removable"
            );
        }
    }
}

#[test]
fn trcd_reproducer_is_stable_and_minimal() {
    // A tRCD-1 controller bug: a single cold read already issues one
    // cycle early, so the shrunk case is one request.
    check_fixture(
        TRCD_PATH,
        PatternKind::RowThrash,
        11,
        64,
        InjectedBug::TrcdMinusOne,
        Rule::Trcd,
    )
}

#[test]
fn tfaw_reproducer_is_stable_and_minimal() {
    // A tFAW-1 bug needs five activations racing one four-ACT window, so
    // the shrunk case keeps a handful of bank-spread requests.
    check_fixture(
        TFAW_PATH,
        PatternKind::BankGroupConflict,
        1,
        96,
        InjectedBug::TfawMinusOne,
        Rule::Tfaw,
    )
}
