//! Every document reader survives hostile input. Each row is a real
//! document read through `enmc_obs::json::decode`, the reader every
//! command uses: the serve report golden (with its metrics), a bench
//! record written here as the harness writes one and the committed
//! perf-suite baseline (what `enmc bench-diff` reads), the tFAW fuzz
//! reproducer golden, and a coefficient file written here from a real fit
//! (what `--coeffs` reads). Each re-writes byte for byte; each named
//! hostile edit is rejected with its path named; every truncation and a
//! few thousand seeded byte substitutions never panic, and what a reader
//! accepts re-writes to text that reads back equal.

use enmc::arch::system::{ClassificationJob, SystemModel};
use enmc::dram::fuzz::Reproducer;
use enmc::obs::json::{self, Field};
use enmc::obs::report::RunReport;
use enmc::perf::bench::BenchRecord;
use enmc::surrogate::fit::splitmix64;
use enmc::surrogate::{CoeffFile, CostBackend, CostModel};
use std::fmt::Debug;

/// Substitution bytes: JSON punctuation, digits, literal letters and a
/// control byte, so edits hit the tokenizer as well as the values.
const ALPHABET: &[u8] = b"0123456789-+.eE\"{}[],: nultrfasxZ\\/\x01";

/// Seeded byte substitutions per document.
const SUBSTITUTIONS: u64 = 1500;

/// Reads `text`, writes it and reads that again, returning the written
/// text. Panics when the written text does not read back equal.
fn round_trip<T: PartialEq + Debug>(
    text: &str,
    read: impl Fn(&str) -> Result<T, String>,
    write: impl Fn(&T) -> String,
) -> Result<String, String> {
    let doc = read(text)?;
    let written = write(&doc);
    match read(&written) {
        Ok(back) => assert_eq!(back, doc, "re-written text reads back different: {written}"),
        Err(e) => panic!("re-written text is rejected ({e}): {written}"),
    }
    Ok(written)
}

/// A document read and written by the codec alone.
fn codec<T: Field + PartialEq + Debug>(text: &str) -> Result<String, String> {
    round_trip(text, json::decode::<T>, json::encode)
}

/// The coefficient file of a real fit, under a seed past `i64::MAX`.
fn coeff_file() -> String {
    let job =
        ClassificationJob { categories: 4096, hidden: 256, reduced: 32, batch: 2, candidates: 8 };
    let mut cost = CostModel::new(CostBackend::Surrogate { audit_rate: 0.0 }, u64::MAX);
    cost.run_enmc(&SystemModel::table3(), &job, "fit").expect("audit rate 0 cannot fail");
    cost.coeffs_to_json()
}

/// A bench record as a harness binary writes it.
fn bench_record() -> String {
    let mut rec = BenchRecord::new("fig13_performance");
    rec.metric("speedup/geomean/enmc", 61.00088483685353);
    rec.metric("failed", 0.0);
    rec.wall_metric("harness/sweep_ns", &[1.9e9, 2.1e9, 2.0e9]);
    json::encode(&rec)
}

/// `doc` with the first `from` replaced by `to`.
fn swap(doc: &str, from: &str, to: &str) -> String {
    assert!(doc.contains(from), "{from} is not in the document");
    doc.replacen(from, to, 1)
}

/// `doc` with the scalar value of the first `"key":` set to `value`.
fn set(doc: &str, key: &str, value: &str) -> String {
    let at = format!("\"{key}\":");
    let start = doc.find(&at).expect("key is in the document") + at.len();
    let end = start + doc[start..].find([',', '}', ']']).expect("a value ends");
    format!("{}{value}{}", &doc[..start], &doc[end..])
}

/// `doc` cut right after the first `after`.
fn cut(doc: &str, after: &str) -> String {
    doc[..doc.find(after).expect("cut point is in the document") + after.len()].to_string()
}

type Reader = fn(&str) -> Result<String, String>;

/// `(document, text, reader, [(case, hostile text, path the error names)])`.
type Row = (&'static str, String, Reader, Vec<(&'static str, String, &'static str)>);

fn documents() -> Vec<Row> {
    let serve = include_str!("golden/serve_report.json").to_string();
    let bench = bench_record();
    let base = include_str!("../perf_suite/baseline.json").to_string();
    let tfaw = include_str!("golden/fuzz_repro_tfaw.json").to_string();
    let coeff = coeff_file();
    let hostile_serve = vec![
        ("schema", set(&serve, "schema_version", "4294967297"), "schema_version"),
        ("duplicate", swap(&serve, r#""batch":4,"#, r#""batch":4,"batch":4,"#), "batch"),
        ("1e999", swap(&serve, r#""value":12}"#, r#""value":1e999}"#), "metrics.gauges[0].value"),
        ("-1 for a u64", set(&serve, "value", "-1"), "metrics.counters[0].value"),
        ("string for a number", set(&serve, "sim_cycles", r#""48159""#), "sim_cycles"),
        ("truncated", cut(&serve, r#""bounds":[1,1.189"#), "metrics.histograms[0].bounds[1]"),
        ("bucket counts", swap(&serve, "[0,0,", "[0,"), "metrics.histograms[0].counts"),
        (
            "bounds out of order",
            swap(&serve, "[1,1.189207115002721,", "[1.189207115002721,1,"),
            "metrics.histograms[0].bounds",
        ),
        ("count not the bucket sum", set(&serve, "count", "77"), "metrics.histograms[0].count"),
    ];
    let failed = r#""failed":0,"#;
    let hostile_bench = vec![
        ("schema", set(&bench, "schema", "4294967297"), "schema"),
        ("duplicate", swap(&bench, failed, &failed.repeat(2)), "deterministic.failed"),
        ("1e999", set(&bench, "failed", "1e999"), "deterministic.failed"),
        ("-1 for a u64", set(&bench, "samples", "-1"), "wall.harness/sweep_ns.samples"),
        ("string for a number", set(&bench, "failed", r#""0""#), "deterministic.failed"),
        ("truncated", cut(&bench, r#""median_ns":20"#), "wall.harness/sweep_ns.median_ns"),
    ];
    let hostile_tfaw = vec![
        ("integer past u64", set(&tfaw, "seed", "18446744073709551616"), "seed"),
        ("duplicate", swap(&tfaw, r#""seed":1,"#, r#""seed":1,"seed":1,"#), "seed"),
        ("1e999", set(&tfaw, "at", "1e999"), "requests[0].at"),
        ("-1 for a u64", swap(&tfaw, r#""addr":499220672"#, r#""addr":-1"#), "requests[4].addr"),
        ("string for a number", swap(&tfaw, r#""at":23,"#, r#""at":"23","#), "requests[1].at"),
        ("truncated", cut(&tfaw, r#""addr":4992205"#), "requests[2].addr"),
        ("bug of the wrong type", set(&tfaw, "bug", "5"), "bug"),
    ];
    let hostile_coeff = vec![
        ("schema", set(&coeff, "surrogate_coeffs", "4294967297"), "surrogate_coeffs"),
        ("duplicate", swap(&coeff, r#""hidden":"#, r#""hidden":1,"hidden":"#), "fits[0].hidden"),
        ("1e999", set(&coeff, "ns_per_cycle", "1e999"), "fits[0].ns_per_cycle"),
        ("-1 for a u64", set(&coeff, "hidden", "-1"), "fits[0].hidden"),
        ("string for a number", set(&coeff, "anchors", r#""36""#), "fits[0].anchors"),
        ("truncated", cut(&coeff, r#""grid_cands":["#), "fits[0].grid_cands[0]"),
    ];
    vec![
        ("run report", serve, codec::<RunReport>, hostile_serve),
        ("bench record", bench, codec::<BenchRecord>, hostile_bench),
        ("perf-suite baseline", base, codec::<BenchRecord>, vec![]),
        ("fuzz reproducer", tfaw, codec::<Reproducer>, hostile_tfaw),
        ("coefficient file", coeff, codec::<CoeffFile>, hostile_coeff),
    ]
}

#[test]
fn every_reader_rejects_hostile_documents_and_survives_mutation() {
    for (name, text, read, hostile) in documents() {
        let written = read(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(written, text.trim_end(), "{name} does not re-write byte for byte");
        for (case, bad, path) in &hostile {
            let err = read(bad).expect_err(&format!("{name}: {case} was accepted"));
            assert!(err.contains(&format!("'{path}'")), "{name}: {case}: {err}");
        }
        // Every truncation point, then seeded byte substitutions: a
        // rejection is fine, a panic or an unstable re-write is not.
        let mut accepted = (0..text.len()).filter(|&end| read(&text[..end]).is_ok()).count();
        for k in 0..SUBSTITUTIONS {
            let r = splitmix64(0x5eed_0000 ^ k);
            let mut bytes = text.clone().into_bytes();
            let at = (r % text.len() as u64) as usize;
            bytes[at] = ALPHABET[((r >> 32) % ALPHABET.len() as u64) as usize];
            let mutated = String::from_utf8(bytes).expect("ASCII substitutions keep ASCII text");
            accepted += usize::from(read(&mutated).is_ok());
        }
        assert!(accepted > 0, "{name}: no mutation was accepted, so none was re-written");
    }
}

#[test]
fn bench_diff_exits_2_naming_the_path_of_a_hostile_record() {
    let dir = std::env::temp_dir().join(format!("enmc-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (_, text, _, hostile) = documents().swap_remove(1);
    let (good, bad) = (dir.join("good.json"), dir.join("bad.json"));
    std::fs::write(&good, text).expect("write record");
    for (case, hostile_text, path) in hostile {
        std::fs::write(&bad, hostile_text).expect("write record");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_enmc"))
            .args(["bench-diff".as_ref(), good.as_os_str(), bad.as_os_str()])
            .output()
            .expect("enmc runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {err}");
        assert!(err.contains(&format!("'{path}'")), "{case} does not name {path}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
