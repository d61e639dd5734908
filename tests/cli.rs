//! Runs the `enmc` binary on argument lists it must reject before any work
//! starts: each exits 2, prints nothing on stdout, and names the offending
//! token on stderr, and a bad value also names the accepted range. None of
//! these runs a simulation; the last test runs two, to check that
//! `--trace-out` takes any worker count.

use enmc::cli::{Command, COMMANDS};
use std::process::Output;

fn enmc(args: &[&str], env: &[(&str, &str)]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_enmc"))
        .args(args)
        .env_remove("ENMC_SEED")
        .env_remove("ENMC_THREADS")
        .envs(env.iter().copied())
        .output()
        .expect("enmc runs")
}

/// Asserts that `enmc args` exits 2 with `token` on stderr, and returns
/// the stderr text.
fn rejects(args: &[&str], token: &str) -> String {
    let out = enmc(args, &[]);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "enmc {args:?}: {err}");
    assert!(
        err.contains(token),
        "enmc {args:?} does not name {token}: {err}"
    );
    assert!(out.stdout.is_empty(), "enmc {args:?} wrote to stdout");
    err
}

/// `c` with placeholder positionals, then `extra`.
fn argv<'a>(c: &'a Command, extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = vec![c.name];
    v.extend(c.args);
    v.extend(extra);
    v
}

#[test]
fn every_command_rejects_malformed_argument_lists() {
    for c in COMMANDS {
        let usage = format!("usage: enmc {}", c.name);
        for unknown in ["--frobnicate", "--help"] {
            assert!(rejects(&argv(c, &[unknown]), unknown).contains(&usage));
        }
        assert!(rejects(&argv(c, &["stray"]), "'stray'").contains(&usage));
        if let Some(f) = c.flags().find(|f| !f.value.is_empty()) {
            rejects(&argv(c, &[f.name]), f.name);
        }
        if let Some(f) = c.flags().next() {
            let once: &[&str] = if f.value.is_empty() {
                &[f.name]
            } else {
                &[f.name, "1"]
            };
            rejects(&argv(c, &[once, once].concat()), f.name);
        }
    }
}

#[test]
fn a_file_flag_followed_by_another_flag_has_no_value() {
    for c in COMMANDS {
        for f in c.flags().filter(|f| f.value == "FILE") {
            let next = c.flags().find(|g| g.name != f.name).unwrap();
            let err = rejects(&argv(c, &[f.name, next.name]), f.name);
            assert!(
                err.contains(&format!("flag '{}' needs a value", f.name)),
                "{err}"
            );
        }
    }
}

#[test]
fn another_commands_flag_is_unknown() {
    for (cmd, flag, value) in [
        ("fleet-sim", "--workload", "gnmt"),
        ("serve-sim", "--shape", "gnmt-wmt16"),
        ("simulate", "--cost-model", "surrogate"),
        ("profile", "--seed", "3"),
        ("fault-sweep", "--cost-model", "surrogate"),
        ("fault-sweep", "--coeffs", "FILE"),
    ] {
        let err = rejects(&[cmd, flag, value], flag);
        assert!(err.contains(&format!("usage: enmc {cmd}")), "{err}");
    }
}

#[test]
fn bounded_counts_reject_the_largest_u64() {
    for c in COMMANDS {
        for f in c.flags().filter(|f| f.max < u64::MAX) {
            let err = rejects(&argv(c, &[f.name, "18446744073709551615"]), f.name);
            assert!(
                err.contains(&f.max.to_string()),
                "{} {}: {err}",
                c.name,
                f.name
            );
        }
    }
}

const WORKLOADS: &str = "one of lstm, transformer, gnmt, xmlcnn, s1m, s10m, s100m";
const MEMORIES: &str = "one of ddr4-2666, ddr5-4800, lpddr4-3200, hbm2";

/// One rejected value for each value flag of each subcommand, with the
/// range or names its message must give: `(commands, flag, value,
/// accepted)`. This pins the rule the binary reads each flag with.
#[rustfmt::skip]
const RULES: &[(&str, &str, &str, &str)] = &[
    ("simulate profile", "--batch", "0", "an integer in 1..=256"),
    ("simulate serve-sim fleet-sim offload-plan profile", "--candidates", "0", "a finite number in (0, 1]"),
    ("tune", "--candidates", "0.05", "an integer >= 1"),
    ("simulate serve-sim fleet-sim tune offload-plan fault-sweep", "--seed", "-1", "an integer >= 0"),
    ("simulate serve-sim fleet-sim tune offload-plan fault-sweep profile", "--threads", "0", "an integer >= 1"),
    ("simulate serve-sim fleet-sim offload-plan fault-sweep fuzz-dram profile", "--memory", "ddr3", MEMORIES),
    ("tune", "--memory", "ddr4-2666,ddr3", MEMORIES),
    ("simulate serve-sim fleet-sim tune offload-plan fault-sweep profile", "--report", "xml", "one of text, json"),
    ("simulate serve-sim tune offload-plan", "--workload", "resnet", WORKLOADS),
    ("fleet-sim profile", "--shape", "resnet", WORKLOADS),
    ("fault-sweep", "--shape", "resnet", "one of lstm-wikitext2, lstm, transformer-wikitext103, transformer, gnmt-wmt16, gnmt, xmlcnn-amazon670k, xmlcnn"),
    ("simulate", "--scheme", "gpu", "one of cpu, cpu-as, nda, chameleon, tensordimm, tensordimm-large, enmc"),
    ("profile", "--scheme", "cpu", "one of nda, chameleon, tensordimm, tensordimm-large, enmc"),
    ("serve-sim fleet-sim", "--arrival", "uniform", "one of poisson, burst, diurnal, trace"),
    ("serve-sim fleet-sim", "--rate", "0", "a finite number > 0"),
    ("serve-sim fleet-sim", "--slo-cycles", "0", "an integer >= 1"),
    ("serve-sim fleet-sim offload-plan", "--batch-max", "0", "an integer in 1..=1024"),
    ("tune", "--batch-max", "4,0", "an integer >= 1"),
    ("serve-sim fleet-sim", "--linger", "0", "an integer >= 1"),
    ("tune", "--linger", "-1", "an integer >= 0"),
    ("serve-sim fleet-sim", "--lanes", "0", "an integer in 1..=512"),
    ("tune", "--lanes", "0", "an integer >= 1"),
    ("serve-sim fleet-sim tune offload-plan", "--cost-model", "oracle", "one of cycle-accurate, cycle, accurate, surrogate"),
    ("serve-sim fleet-sim tune offload-plan", "--audit-rate", "2", "a finite number in [0, 1]"),
    ("serve-sim", "--requests", "0", "an integer in 1..=65536"),
    ("serve-sim", "--shed-queue", "0", "an integer >= 1"),
    ("serve-sim", "--degrade-queue", "0", "an integer >= 1"),
    ("serve-sim", "--upgrade-queue", "0", "an integer >= 1"),
    ("serve-sim", "--quality", "0", "an integer in 1..=65536"),
    ("serve-sim offload-plan", "--degrade-tiers", "x", "is not K:S"),
    ("fleet-sim", "--requests", "0", "an integer in 1..=49152"),
    ("fleet-sim", "--nodes", "0", "an integer in 1..=1024"),
    ("fleet-sim", "--shards", "0", "an integer in 1..=1024"),
    ("fleet-sim", "--tenants", "0", "an integer in 1..=512"),
    ("fleet-sim", "--replicas", "-1", "an integer in 0..=512"),
    ("fleet-sim", "--placement", "random", "one of consistent-hash, hash, ch, popularity, popularity-aware, pa"),
    ("fleet-sim", "--zipf", "0.7", "a multiple of 0.5"),
    ("tune", "--ranks", "0", "an integer >= 1"),
    ("tune", "--screen-bits", "4294967296", "an integer in 1..=4294967295"),
    ("tune", "--screen-shift", "-1", "an integer in 0..=4294967295"),
    ("tune", "--ecc", "maybe", "one of on, true, 1, off, false, 0"),
    ("tune", "--max-area-mm2", "0", "a finite number > 0"),
    ("tune", "--max-power-mw", "0", "a finite number > 0"),
    ("tune", "--search", "random", "one of exhaustive, brute, brute-force, guided"),
    ("fault-sweep", "--ber", "-0.1", "a finite number in [0, 1]"),
    ("fault-sweep", "--weak-columns", "2", "a finite number in [0, 1]"),
    ("fault-sweep", "--multipliers", "1,0.5", "a finite number >= 1"),
    ("fault-sweep", "--multipliers", "1,1.0", "'1' twice (again as '1.0'); give each multiplier once"),
    ("fault-sweep", "--queries", "0", "an integer in 1..=65536"),
    ("fuzz-dram", "--seeds", "0", "an integer in 1..=8192"),
    ("fuzz-dram", "--len", "0", "an integer in 1..=24576"),
    ("fuzz-dram", "--pattern", "zigzag", "one of stream-sweep, same-bank-hammer, bank-group-conflict, refresh-straddle, row-thrash, turnaround-mix, moving-inversion, lowered"),
    ("fuzz-dram", "--inject-bug", "tfaw-2", "one of tfaw-1, trcd-1, trp-1, twtr-1"),
    ("bench-diff", "--wall-tolerance", "-1", "a finite number >= 0"),
];

#[test]
fn every_value_flag_rejects_a_bad_value_naming_its_range() {
    for c in COMMANDS {
        for f in c
            .flags()
            .filter(|f| !f.value.is_empty() && f.value != "FILE")
        {
            let covered = RULES
                .iter()
                .any(|(cmds, flag, ..)| *flag == f.name && cmds.split(' ').any(|n| n == c.name));
            assert!(covered, "RULES has no row for {} {}", c.name, f.name);
        }
    }
    for (cmds, flag, value, accepted) in RULES {
        for name in cmds.split(' ') {
            let c = COMMANDS.iter().find(|c| c.name == name).unwrap();
            let err = rejects(&argv(c, &[flag, value]), flag);
            let shown = value.split(',').any(|v| err.contains(&format!("'{v}'")));
            assert!(
                shown && err.contains(accepted),
                "enmc {name} {flag} {value}: {err}"
            );
        }
    }
}

#[test]
fn a_degrade_tier_above_the_workloads_categories_is_rejected() {
    for cmd in ["serve-sim", "offload-plan"] {
        for k in ["40000", "99999999"] {
            let ladder = format!("{k}:0");
            let err = rejects(&[cmd, "--workload", "lstm", "--degrade-tiers", &ladder], "--degrade-tiers");
            assert!(err.contains(&format!("'{k}'")) && err.contains("33278"), "{err}");
        }
    }
}

#[test]
fn a_tune_level_past_its_bound_is_rejected() {
    // Each list puts the offending level after one the bound admits.
    for (flag, levels, level, bound) in [
        ("--candidates", "64,100000", "100000", "33278"),
        ("--batch-max", "4,1025", "1025", "1024"),
        ("--screen-bits", "4,33", "33", "32"),
        ("--screen-shift", "0,64", "64", "8"),
    ] {
        let err = rejects(&["tune", "--workload", "lstm", flag, levels], flag);
        assert!(err.contains(&format!("'{level}'")) && err.contains(bound), "{err}");
    }
}

#[test]
fn no_or_an_unknown_command_lists_the_commands() {
    for args in [&[][..], &["frobnicate"][..]] {
        let err = rejects(args, "commands:");
        assert!(COMMANDS.iter().all(|c| err.contains(c.name)), "{err}");
    }
    assert!(rejects(&["frobnicate"], "'frobnicate'").contains("simulate"));
}

#[test]
fn a_malformed_enmc_seed_is_a_usage_error() {
    let out = enmc(&["serve-sim"], &[("ENMC_SEED", "bogus")]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("ENMC_SEED") && err.contains("'bogus'"),
        "{err}"
    );
}

#[test]
fn trace_out_writes_the_same_trace_at_any_worker_count() {
    let dir = std::env::temp_dir().join(format!("enmc-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = |threads: &str| {
        let path = dir.join(format!("trace-{threads}.json"));
        let file = path.to_str().expect("a UTF-8 temp path");
        let args = ["simulate", "--workload", "gnmt", "--threads", threads, "--trace-out", file];
        let out = enmc(&args, &[]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "--threads {threads}: {err}");
        std::fs::read(&path).expect("the trace was written")
    };
    let (one, four) = (trace("1"), trace("4"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!one.is_empty());
    assert!(one == four, "the trace depends on the worker count");
}
