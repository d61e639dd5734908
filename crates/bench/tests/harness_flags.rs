//! A harness binary given `--json` or `--bench-json` with no path after
//! it exits 2 naming the flag, before it prints or computes anything,
//! instead of writing nothing or a file named after the next flag.

use std::path::Path;
use std::process::{Command, Output};

/// Runs `table05_area_power` with `args` in `dir`, with no report or
/// bench directory in the environment.
fn table05(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table05_area_power"))
        .args(args)
        .current_dir(dir)
        .env_remove("ENMC_REPORT_DIR")
        .env_remove("ENMC_BENCH_DIR")
        .output()
        .expect("table05_area_power runs")
}

#[test]
fn a_document_flag_without_a_path_exits_2_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("enmc-harness-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (args, flag) in [
        (&["--json"][..], "--json"),
        (&["--json", "--threads", "2"], "--json"),
        (&["--bench-json"], "--bench-json"),
        (&["--bench-json", "--json", "t5.json"], "--bench-json"),
    ] {
        let out = table05(&dir, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("{flag} expects a file path, got '")), "{args:?}: {err}");
        let printed = String::from_utf8_lossy(&out.stdout);
        assert!(printed.is_empty(), "{args:?} ran before exiting: {printed}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("temp dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    // With a path after it, the flag writes its document there.
    let out = table05(&dir, &["--json", "t5.json", "--threads", "2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("t5.json").is_file(), "the report is written");
    let _ = std::fs::remove_dir_all(&dir);
}
