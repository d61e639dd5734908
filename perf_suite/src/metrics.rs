//! The metric and workload names the suite reports, with units and
//! directions. `BENCHMARK.json` at the repository root declares the same
//! sets plus each end-to-end metric's regression bound; a unit test keeps
//! the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `higher` or `lower`: which way is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Default `--seconds`: the `run_seconds` `BENCHMARK.json` declares.
pub const RUN_SECONDS: f64 = 18.0;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "classify-gnmt",
    "fault-sweep",
    "simulate-fig13",
    "fleet-capacity",
    "tune-lstm",
];

/// End-to-end metrics: host time and memory of an untraced run.
pub const END_TO_END: [Metric; 4] = [
    m("ops_per_s", "1/s", "higher"),
    m("op_p50_ms", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of a traced run. A workload that never calls a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: [Metric; 35] = [
    m("host.stream_gbps", "GB/s", "higher"),
    m("trace.overhead_frac", "ratio", "lower"),
    m("trace.span_coverage", "ratio", "higher"),
    m("tensor.matvec_quant.gbps", "GB/s", "higher"),
    m("tensor.matvec_quant.roofline_frac", "ratio", "higher"),
    m("tensor.matvec_rows.gbps", "GB/s", "higher"),
    m("tensor.project.us", "us", "lower"),
    m("tensor.select.us", "us", "lower"),
    m("tensor.matvec.gbps", "GB/s", "higher"),
    m("tensor.matmul.gflops", "GFLOP/s", "higher"),
    m("model.synth.s", "s", "lower"),
    m("screen.distill.s", "s", "lower"),
    m("screen.classify.us", "us", "lower"),
    m("screen.candidate_frac", "ratio", "lower"),
    m("fault.corrupt_matrix.ms", "ms", "lower"),
    m("fault.corrupt_screener.ms", "ms", "lower"),
    m("fault.ecc_words_per_s", "words/s", "higher"),
    m("fault.top1_flips", "count", "lower"),
    m("arch.rank_unit.sim_cycles_per_s", "cycles/s", "higher"),
    m("arch.rank_unit.calls", "count", "lower"),
    m("dram.cmds_per_s", "cmds/s", "higher"),
    m("dram.idle_cycle_frac", "ratio", "lower"),
    m("dram.row_hit_ratio", "ratio", "higher"),
    m("dram.write_frac", "ratio", "lower"),
    m("surrogate.fit.s", "s", "lower"),
    m("surrogate.fit_anchors", "count", "lower"),
    m("surrogate.predict.us", "us", "lower"),
    m("surrogate.audit.share", "ratio", "lower"),
    m("surrogate.audit_max_rel_err", "ratio", "lower"),
    m("serve.calibrate.ms", "ms", "lower"),
    m("fleet.event_loop.requests_per_s", "req/s", "higher"),
    m("fleet.place.us", "us", "lower"),
    m("fleet.shed_frac", "ratio", "lower"),
    m("tune.evaluate_design.ms", "ms", "lower"),
    m("tune.pareto.ms", "ms", "lower"),
];

/// The declared per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_obs::json::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str) -> BTreeSet<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// 1–64 characters from `[A-Za-z0-9_.-]`, starting with a letter or
    /// digit.
    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn ours(metrics: &[Metric]) -> BTreeSet<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let all: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
            .collect();
        for name in &all {
            assert!(valid_name(name), "bad name {name}");
        }
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "duplicate name"
        );
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b") && !valid_name("µs"));
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let unit_ok = m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(
                (1..=16).contains(&m.unit.len()) && unit_ok,
                "bad unit {}",
                m.unit
            );
            assert!(
                ["higher", "lower"].contains(&m.better),
                "bad direction for {}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_suite_prints() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: BTreeSet<String> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.to_string()).collect());
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
    }
}
