//! Every harness binary checks its whole command line against its flag
//! spec before it prints or computes anything: an unknown flag, `--help`,
//! a flag the binary does not read, a bad value, or a value flag with no
//! value after it exits 2 with empty stdout and writes no file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Each binary in `src/bin/` and the flags it reads, in usage order.
#[rustfmt::skip]
const SPECS: &[(&str, &[&str])] = &[
    ("ablation", &["--threads", "--json"]),
    ("fault_sweep", &["--threads", "--json"]),
    ("fig04_breakdown", &["--json"]),
    ("fig05_motivation", &["--json"]),
    ("fig11_quality_speedup", &["--threads", "--json"]),
    ("fig12_sensitivity", &["--threads", "--json"]),
    ("fig13_performance", &["--threads", "--json", "--bench-json"]),
    ("fig14_energy", &["--threads", "--json", "--bench-json"]),
    ("fig15_scalability", &["--threads", "--json", "--bench-json", "--scale"]),
    ("fleet_capacity", &["--threads", "--json", "--bench-json", "--scale", "--cost-model", "--audit-rate"]),
    ("memtech_iso_quality", &["--threads", "--json", "--bench-json"]),
    ("related_work", &["--threads", "--json"]),
    ("scaleout", &["--threads", "--json"]),
    ("serve_load", &["--threads", "--json"]),
    ("surrogate_speedup", &["--bench-json"]),
    ("table02_workloads", &["--json"]),
    ("table03_config", &["--json"]),
    ("table04_baselines", &["--json"]),
    ("table05_area_power", &["--json", "--bench-json"]),
    ("tune_pareto", &["--json", "--bench-json"]),
    ("validate_dram", &["--threads", "--json"]),
    ("workload_stats", &["--threads", "--json"]),
];

/// Every harness flag with one value it accepts, one it rejects and the
/// range the rejection names (empty for a file path, which any text is).
#[rustfmt::skip]
const FLAGS: &[(&str, &str, &str, &str)] = &[
    ("--threads", "2", "0", "an integer >= 1"),
    ("--json", "t.json", "", ""),
    ("--bench-json", "b.json", "", ""),
    ("--scale", "2", "0", "an integer in 1..="),
    ("--cost-model", "surrogate", "surogate", "one of cycle-accurate, cycle, accurate, surrogate"),
    ("--audit-rate", "0.5", "2", "a finite number in [0, 1]"),
];

/// A fresh empty directory to run binaries in.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("enmc-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs harness binary `name` with `args` in `dir`, with no report, bench
/// or thread setting in the environment.
fn harness(name: &str, dir: &Path, args: &[&str]) -> Output {
    let bin = Path::new(env!("CARGO_BIN_EXE_table05_area_power")).with_file_name(name);
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env_remove("ENMC_REPORT_DIR")
        .env_remove("ENMC_BENCH_DIR")
        .env_remove("ENMC_THREADS")
        .output()
        .unwrap_or_else(|e| panic!("{name} runs: {e}"))
}

/// Asserts that `name args` exits 2 naming each of `names` on stderr,
/// before printing anything or writing a file into `dir`, and returns
/// the stderr text.
fn rejects(name: &str, dir: &Path, args: &[&str], names: &[&str]) -> String {
    let out = harness(name, dir, args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {err}");
    for n in names {
        assert!(err.contains(n), "{name} {args:?} does not name {n}: {err}");
    }
    let printed = String::from_utf8_lossy(&out.stdout);
    assert!(printed.is_empty(), "{name} {args:?} ran before exiting: {printed}");
    let written: Vec<_> = std::fs::read_dir(dir).expect("temp dir").collect();
    assert!(written.is_empty(), "{name} {args:?} wrote {written:?}");
    err
}

#[test]
fn every_binary_rejects_bad_input_before_any_work() {
    let bins = std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin"));
    let mut names: Vec<String> = (bins.expect("src/bin lists"))
        .map(|e| e.unwrap().path().file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let rows: Vec<&str> = SPECS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, rows, "src/bin/ and SPECS must list the same binaries");
    let dir = scratch("harness-input");
    for &(name, flags) in SPECS {
        for unknown in ["--bogus", "--help"] {
            let usage = format!("usage: {name} [flags]");
            let err = rejects(name, &dir, &[unknown], &[unknown, &usage]);
            let listed = err.lines().filter(|l| l.trim_start().starts_with("--")).count();
            assert_eq!(listed, flags.len(), "{name} usage lists exactly its flags: {err}");
            for flag in flags {
                assert!(err.contains(&format!("\n  {flag} ")), "{name} usage lacks {flag}: {err}");
            }
        }
        for &(flag, good, bad, range) in FLAGS {
            if !flags.contains(&flag) {
                rejects(name, &dir, &[flag, good], &[&format!("unknown flag '{flag}'")]);
                continue;
            }
            if !range.is_empty() {
                rejects(name, &dir, &[flag, bad], &[flag, &format!("'{bad}'"), range]);
            }
            // No value, an empty one, or another flag where the value goes.
            let needs = format!("flag '{flag}' needs a value");
            for args in [&[flag][..], &[flag, ""], &[flag, flags[0]]] {
                rejects(name, &dir, args, &[&needs, &format!("usage: {name}")]);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scale_that_leaves_a_rank_without_categories_exits_2_naming_the_bound() {
    let dir = scratch("harness-scale");
    for (name, bound) in [("fig15_scalability", 15_625), ("fleet_capacity", 1_953)] {
        for scale in [bound + 1, 100_000_000] {
            let value = scale.to_string();
            let range = format!("an integer in 1..={bound}");
            rejects(name, &dir, &["--scale", &value], &["--scale", &format!("'{value}'"), &range]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_document_flag_without_a_path_exits_2_naming_the_flag() {
    let dir = scratch("harness-flags");
    for (args, flag) in [
        (&["--json"][..], "--json"),
        (&["--json", "--threads", "2"], "--json"),
        (&["--bench-json"], "--bench-json"),
        (&["--bench-json", "--json", "t5.json"], "--bench-json"),
    ] {
        rejects("table05_area_power", &dir, args, &[&format!("flag '{flag}' needs a value FILE")]);
    }
    // With a path after it, the flag writes its document there.
    let out = harness("table05_area_power", &dir, &["--json", "t5.json"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("t5.json").is_file(), "the report is written");
    let _ = std::fs::remove_dir_all(&dir);
}
