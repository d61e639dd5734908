//! `perf_suite`: the end-to-end and per-layer host-time benchmark of the
//! ENMC workspace.
//!
//! ```text
//! perf_suite [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!            [--trace-dir DIR] [--bench-json FILE]
//! ```
//!
//! Each workload sets up (three times or more, `setup_s` is the median),
//! then runs passes of ops for `--seconds`, checking every op's invariants
//! and that every pass reproduces the first one's outputs. Host times are
//! normalised to a reference host speed by a yardstick timed beside every
//! op and set-up (`speed.rs`). It prints one line per metric
//! (`<workload> <metric> <value> <unit>`) and, last, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics.
//! `--trace 1` sets up once, spends half the time untraced and half with
//! layer spans on, and reports the per-layer metrics instead of the
//! end-to-end ones. See README.md beside this package.

mod digest;
mod expected;
mod host;
mod metrics;
mod runner;
mod spans;
mod speed;
mod stats;
mod workloads;

use enmc_bench::trajectory::BenchEmitter;
use enmc_obs::json::Value;
use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use runner::{Outcome, RunCfg};
use std::collections::BTreeMap;
use std::path::PathBuf;

const USAGE: &str = "usage: perf_suite [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--trace-dir DIR] [--bench-json FILE]
workloads: classify-gnmt fault-sweep simulate-fig13 fleet-capacity tune-lstm";

#[derive(Debug)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    bench_json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 7,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        trace_dir: None,
        bench_json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if v != "all" {
                    let name = WORKLOADS
                        .iter()
                        .find(|w| *w == v)
                        .ok_or_else(|| format!("unknown workload '{v}'"))?;
                    args.workloads = vec![name];
                }
            }
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && (1.0..=600.0).contains(s))
                    .ok_or_else(|| format!("--seconds must be in [1, 600], got '{v}'"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got '{v}'")),
                };
            }
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value()?)),
            "--bench-json" => args.bench_json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.trace_dir.is_some() && !args.trace {
        return Err("--trace-dir needs --trace 1".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perf_suite: {e}\n{USAGE}");
        std::process::exit(2);
    });
    eprintln!(
        "perf_suite: seed {}, {} s per workload, one worker on {} CPU(s), {}",
        args.seed,
        args.seconds,
        host::nproc(),
        host::cpu_model()
    );
    // The roofline read allocates half a GiB, so an untraced run measures
    // it only after the workloads reported their peak memory.
    let mut stream = args.trace.then(host::stream_gbps);
    let mut bench = args
        .bench_json
        .as_ref()
        .map(|p| BenchEmitter::to_path("perf_suite", p));
    if let Some(b) = bench.as_mut() {
        b.det("host.nproc", host::nproc() as f64);
        b.det(
            "host.cpu_model_fnv",
            digest52(
                digest::Fnv::default()
                    .bytes(host::cpu_model().as_bytes())
                    .finish(),
            ),
        );
    }
    for &name in &args.workloads {
        let cfg = RunCfg {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        };
        let out = workloads::run_named(name, &cfg, expected::digest(name, args.seed))
            .expect("names come from WORKLOADS");
        let (lines, json) = report(name, &out, stream);
        for (metric, value, unit) in &lines {
            println!("{name} {metric} {value} {unit}");
        }
        if let Some(profile) = &out.profile {
            eprintln!("{name}: layer spans\n{}", profile.table());
            if let Some(dir) = &args.trace_dir {
                write_trace(dir, name, profile);
            }
        }
        for p in &out.problems {
            eprintln!("{name}: {p}");
        }
        if let Some(b) = bench.as_mut() {
            record(b, name, &out);
        }
        println!("{json}");
    }
    if let Some(mut b) = bench {
        let gbps = *stream.get_or_insert_with(host::stream_gbps);
        b.wall_ns("host.stream_read_ns_per_gib", &[(1u64 << 30) as f64 / gbps]);
        b.finish();
    }
}

/// A digest cut to 52 bits, so a BENCH record stores it as an exact
/// float.
fn digest52(d: u64) -> f64 {
    (d >> 12) as f64
}

fn write_trace(dir: &std::path::Path, name: &str, profile: &spans::Profile) {
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let doc = profile.chrome().map_err(std::io::Error::other)?;
        std::fs::write(dir.join(format!("{name}.trace.json")), doc)?;
        std::fs::write(dir.join(format!("{name}.layers.txt")), profile.table())
    });
    if let Err(e) = written {
        eprintln!("{name}: cannot write trace files to {}: {e}", dir.display());
    }
}

/// Mirrors one workload's outcome into the BENCH record: outputs and
/// digests as deterministic metrics, per-op and set-up times as wall
/// metrics.
fn record(b: &mut BenchEmitter, name: &str, out: &Outcome) {
    if let Some(d) = out.digest {
        b.det(&format!("{name}.digest"), digest52(d));
    }
    for d in &out.det {
        b.det(&format!("{name}.{}", d.name), d.value);
    }
    b.det(&format!("{name}.failed"), out.failed as f64);
    b.wall_ns(&format!("{name}.op_ns"), &out.untraced.op_ns);
    let setup_ns: Vec<f64> = out.setup_s.iter().map(|s| s * 1e9).collect();
    b.wall_ns(&format!("{name}.setup_ns"), &setup_ns);
}

type Line = (String, String, &'static str);

fn push(lines: &mut Vec<Line>, metric: &str, value: f64, unit: &'static str) {
    lines.push((metric.to_string(), value.to_string(), unit));
}

/// The metric lines and the final JSON object of one workload run.
fn report(name: &str, out: &Outcome, stream: Option<f64>) -> (Vec<Line>, String) {
    let mut problems = out.problems.clone();
    let mut lines: Vec<Line> = Vec::new();
    let samples = &out.untraced.samples_ns;
    push(&mut lines, "samples", samples.len() as f64, "count");
    push(&mut lines, "passes", out.untraced.passes as f64, "count");
    let ops_per_pass = out.untraced.op_ns.len() as f64;
    push(&mut lines, "ops_per_pass", ops_per_pass, "count");
    push(
        &mut lines,
        "setup_samples",
        out.setup_s.len() as f64,
        "count",
    );
    push(&mut lines, "host_speed", out.untraced.host_speed, "ratio");
    push(&mut lines, "attempted", out.attempted as f64, "count");
    push(
        &mut lines,
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    // Tail percentiles appear only with ten samples beyond them.
    for (metric, pct) in [("op_p90_ms", 90), ("op_p99_ms", 99)] {
        if let Some(v) = stats::percentile(samples, pct) {
            push(&mut lines, metric, v / 1e6, "ms");
        }
    }
    if let Some((q1, q3)) = stats::quartiles(&out.setup_s) {
        push(&mut lines, "setup_q1_s", q1, "s");
        push(&mut lines, "setup_q3_s", q3, "s");
    }
    let traced = out.traced.is_some();
    for d in out
        .det
        .iter()
        .filter(|d| !traced || metrics::per_layer(d.name).is_none())
    {
        push(&mut lines, d.name, d.value, d.unit);
    }
    if let Some(d) = out.digest {
        lines.push(("digest".into(), format!("{d:016x}"), "fnv1a"));
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let declared: &[Metric] = if let Some(t) = &out.traced {
        push(&mut lines, "traced_ops_per_s", t.ops_per_s, "1/s");
        push(
            &mut lines,
            "traced_samples",
            t.samples_ns.len() as f64,
            "count",
        );
        values.insert("host.stream_gbps", stream.unwrap_or(0.0));
        values.insert("trace.span_coverage", out.coverage);
        values.insert("trace.overhead_frac", runner::overhead(&out.untraced, t));
        for &(k, v) in &out.layers {
            if metrics::per_layer(k).is_none() {
                problems.push(format!("layer metric {k} is not declared"));
            }
            values.insert(k, v);
        }
        for d in &out.det {
            values.entry(d.name).or_insert(d.value);
        }
        if let (Some(&gbps), Some(s)) = (values.get("tensor.matvec_quant.gbps"), stream) {
            values.insert("tensor.matvec_quant.roofline_frac", gbps / s);
        }
        &PER_LAYER
    } else {
        values.insert("ops_per_s", out.untraced.ops_per_s);
        let p50 = stats::median(&out.untraced.op_ns).unwrap_or(0.0);
        values.insert("op_p50_ms", p50 / 1e6);
        values.insert("setup_s", stats::median(&out.setup_s).unwrap_or(0.0));
        if let Some(mb) = host::peak_rss_mb() {
            values.insert("peak_rss_mb", mb);
        }
        &END_TO_END
    };
    let (metrics, missing) = metric_values(declared, &values, traced);
    problems.extend(
        missing
            .into_iter()
            .map(|m| format!("metric {m} was not measured")),
    );
    let unit = |m: &str| declared.iter().find(|d| d.name == m).map_or("", |d| d.unit);
    for (m, v) in &metrics {
        lines.push((m.to_string(), v.to_string(), unit(m)));
    }
    for p in problems.iter().skip(out.problems.len()) {
        eprintln!("{name}: {p}");
    }
    let correct = out.failed == 0 && out.digest.is_some() && problems.is_empty();
    let metric = |(m, v): &(&str, f64)| {
        let body = vec![
            ("value".into(), Value::Num(*v)),
            ("unit".into(), Value::Str(unit(m).into())),
        ];
        (m.to_string(), Value::Obj(body))
    };
    let json = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(out.attempted as i64)),
        ("failed".into(), Value::Int(out.failed as i64)),
        (
            "metrics".into(),
            Value::Obj(metrics.iter().map(metric).collect()),
        ),
    ])
    .to_json();
    (lines, json)
}

/// The declared metrics in declaration order with their values. With
/// `absent_is_zero` (per-layer metrics: a workload that never calls a
/// layer reads 0 for it) a missing value is 0; otherwise it, like a value
/// that is not finite, is named in the second list.
fn metric_values(
    declared: &[Metric],
    values: &BTreeMap<&str, f64>,
    absent_is_zero: bool,
) -> (Vec<(&'static str, f64)>, Vec<&'static str>) {
    let mut missing = Vec::new();
    let out = declared
        .iter()
        .map(|m| match values.get(m.name) {
            Some(v) if v.is_finite() => (m.name, *v),
            None if absent_is_zero => (m.name, 0.0),
            _ => {
                missing.push(m.name);
                (m.name, 0.0)
            }
        })
        .collect();
    (out, missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_metric_sets_equal_the_declared_sets() {
        let mut values = BTreeMap::new();
        for m in END_TO_END {
            values.insert(m.name, 1.5);
        }
        values.insert("undeclared", 2.0);
        let (e2e, missing) = metric_values(&END_TO_END, &values, false);
        assert!(missing.is_empty());
        assert_eq!(
            e2e.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            END_TO_END.map(|m| m.name)
        );

        values.remove("setup_s");
        values.insert("ops_per_s", f64::NAN);
        let (_, missing) = metric_values(&END_TO_END, &values, false);
        assert_eq!(missing, ["ops_per_s", "setup_s"]);

        let (layers, missing) = metric_values(&PER_LAYER, &BTreeMap::new(), true);
        assert!(missing.is_empty(), "untouched layers read 0");
        assert_eq!(
            layers.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            PER_LAYER.map(|m| m.name)
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload tune-lstm --seed 11 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec!["tune-lstm"], 11, 10.0, true)
        );
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(
            (defaults.workloads.len(), defaults.seed, defaults.seconds),
            (5, 7, metrics::RUN_SECONDS)
        );
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--trace 2",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
        assert!(
            parse_args(&argv("--trace-dir x")).is_err(),
            "a trace dir needs a traced run"
        );
    }
}
