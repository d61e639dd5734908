//! Command-line argument validation for the `enmc` binary.
//!
//! The parsing itself stays in `main.rs`; this module holds the testable
//! validation rules so bad inputs fail with a message that names the flag,
//! the offending value, and the accepted range — instead of silently
//! falling back to a default.

/// Validates a `--batch` value: must parse as an integer ≥ 1.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_batch(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(0) => Err(format!("--batch must be >= 1, got '{raw}'")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--batch expects a positive integer, got '{raw}'")),
    }
}

/// Validates a `--candidates` value: a finite fraction in `(0, 1]`.
///
/// Zero is rejected — a run computing no exact candidates degenerates to
/// pure screening, which `--scheme` cannot express; use a small fraction
/// instead.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_candidate_fraction(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(f) if f.is_finite() && f > 0.0 && f <= 1.0 => Ok(f),
        Ok(_) => Err(format!("--candidates must be a fraction in (0, 1], got '{raw}'")),
        Err(_) => Err(format!("--candidates expects a number in (0, 1], got '{raw}'")),
    }
}

/// Validates a `--threads` value: must parse as an integer ≥ 1.
///
/// `--threads 1` still runs the sharded whole-system simulation (on one
/// worker); omitting the flag keeps the representative-rank shortcut
/// unless `ENMC_THREADS` is set.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>() {
        Ok(0) => Err(format!("--threads must be >= 1, got '{raw}'")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--threads expects a positive integer, got '{raw}'")),
    }
}

/// Validates a generic positive-count flag (`--seeds`, `--len`, ...):
/// must parse as an integer ≥ 1. `flag` names the flag in the message.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_count(flag: &str, raw: &str) -> Result<u64, String> {
    match raw.parse::<u64>() {
        Ok(0) => Err(format!("{flag} must be >= 1, got '{raw}'")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} expects a positive integer, got '{raw}'")),
    }
}

/// Largest `fault-sweep --queries`: 256× the default. Every query's
/// hidden vector is drawn before the sweep starts, so the flag bounds an
/// allocation.
pub const MAX_QUERIES: u64 = 65_536;

/// Validates a `fault-sweep --queries` value: an integer in
/// `1..=MAX_QUERIES`.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_queries(raw: &str) -> Result<usize, String> {
    match parse_count("--queries", raw)? {
        n if n > MAX_QUERIES => {
            Err(format!("--queries must be at most {MAX_QUERIES}, got '{raw}'"))
        }
        n => Ok(n as usize),
    }
}

/// Validates a `--rate` value: a finite arrival rate > 0, in requests
/// per kilocycle (1000 DRAM cycles).
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_rate(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(r) if r.is_finite() && r > 0.0 => Ok(r),
        Ok(_) => Err(format!("--rate must be a positive requests-per-kilocycle value, got '{raw}'")),
        Err(_) => Err(format!("--rate expects a positive number, got '{raw}'")),
    }
}

/// Validates an `--arrival` value.
///
/// # Errors
///
/// Returns a user-facing message listing the accepted processes.
pub fn parse_arrival_kind(raw: &str) -> Result<ArrivalKind, String> {
    match raw.to_ascii_lowercase().as_str() {
        "poisson" => Ok(ArrivalKind::Poisson),
        "burst" => Ok(ArrivalKind::Burst),
        "diurnal" => Ok(ArrivalKind::Diurnal),
        "trace" => Ok(ArrivalKind::Trace),
        _ => Err(format!(
            "--arrival must be 'poisson', 'burst', 'diurnal' or 'trace', got '{raw}'"
        )),
    }
}

/// Arrival-process families of `enmc serve-sim` (rates and trace paths
/// bind in `main.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless constant-rate arrivals.
    Poisson,
    /// Two-state bursty (MMPP-2) arrivals.
    Burst,
    /// Triangle-wave diurnal ramp.
    Diurnal,
    /// Replay of a timestamp file.
    Trace,
}

/// Validates a `--degrade-tiers` list (comma-separated `K:S` pairs,
/// ordered from full quality downwards); see
/// [`enmc_serve::tier::parse_tiers`] for the grammar.
///
/// # Errors
///
/// Returns the serving crate's flag-naming message unchanged.
pub fn parse_degrade_tiers(raw: &str) -> Result<Vec<enmc_serve::DegradeTier>, String> {
    enmc_serve::parse_tiers(raw)
}

/// Validates a `--seed` value: any unsigned 64-bit integer (zero
/// included — a seed is an identifier, not a count). `flag` names the
/// flag in the message so the helper also serves `ENMC_SEED`.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the offending value.
pub fn parse_seed(flag: &str, raw: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|_| format!("{flag} expects an unsigned integer seed, got '{raw}'"))
}

/// Resolves the effective seed for a subcommand: an explicit `--seed`
/// flag wins, then the `ENMC_SEED` environment hook, else `default`.
///
/// Every seeded subcommand (`simulate`, `serve-sim`, `fault-sweep`)
/// resolves through here so the precedence is uniform and an invalid
/// `ENMC_SEED` fails loudly instead of being silently ignored.
///
/// # Errors
///
/// Returns a user-facing message when the flag or the environment
/// variable is present but not an unsigned integer.
pub fn resolve_seed(flag_raw: Option<&str>, default: u64) -> Result<u64, String> {
    if let Some(raw) = flag_raw {
        return parse_seed("--seed", raw);
    }
    match std::env::var("ENMC_SEED") {
        Ok(raw) => parse_seed("ENMC_SEED", &raw),
        Err(_) => Ok(default),
    }
}

/// Validates a `--ber` value: a finite bit-error probability in `[0, 1]`.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_ber(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(b) if b.is_finite() && (0.0..=1.0).contains(&b) => Ok(b),
        Ok(_) => Err(format!("--ber must be a probability in [0, 1], got '{raw}'")),
        Err(_) => Err(format!("--ber expects a number in [0, 1], got '{raw}'")),
    }
}

/// Validates a `--multipliers` list: comma-separated refresh-interval
/// multipliers, each finite and ≥ 1 (1 = the nominal 64 ms schedule).
///
/// # Errors
///
/// Returns a user-facing message naming the flag, the offending entry,
/// and the accepted range.
pub fn parse_multipliers(raw: &str) -> Result<Vec<f64>, String> {
    if raw.is_empty() {
        return Err("--multipliers expects a comma-separated list, got ''".to_string());
    }
    let mut out = Vec::new();
    for tok in raw.split(',') {
        match tok.parse::<f64>() {
            Ok(m) if m.is_finite() && m >= 1.0 => out.push(m),
            _ => {
                return Err(format!(
                    "--multipliers entries must be numbers >= 1, got '{tok}' in '{raw}'"
                ))
            }
        }
    }
    Ok(out)
}

/// Validates a `--wall-tolerance` value for `bench-diff`: a finite
/// fraction ≥ 0 of allowed wall-clock regression (0.2 = the new median
/// may be up to 20% slower before the gate fails). Deterministic metrics
/// ignore this knob — they are always compared at zero tolerance.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_wall_tolerance(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
        Ok(_) => Err(format!("--wall-tolerance must be a finite fraction >= 0, got '{raw}'")),
        Err(_) => Err(format!("--wall-tolerance expects a number >= 0, got '{raw}'")),
    }
}

/// Validates a `--shape` value for `fault-sweep`.
///
/// # Errors
///
/// Returns a user-facing message listing the accepted shapes.
pub fn parse_shape(raw: &str) -> Result<FaultShape, String> {
    match raw.to_ascii_lowercase().as_str() {
        "lstm-wikitext2" | "lstm" => Ok(FaultShape::LstmWikitext2),
        "transformer-wikitext103" | "transformer" => Ok(FaultShape::TransformerWikitext103),
        "gnmt-wmt16" | "gnmt" => Ok(FaultShape::GnmtWmt16),
        "xmlcnn-amazon670k" | "xmlcnn" => Ok(FaultShape::XmlcnnAmazon670k),
        _ => Err(format!(
            "--shape must be 'lstm-wikitext2', 'transformer-wikitext103', \
             'gnmt-wmt16' or 'xmlcnn-amazon670k' (short forms ok), got '{raw}'"
        )),
    }
}

/// The paper shapes `enmc fault-sweep` evaluates (workload/dataset pairs
/// from Table 2; the resilience glue scales each to its evaluation shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultShape {
    /// LSTM language model on WikiText-2 (33K categories).
    LstmWikitext2,
    /// Transformer language model on WikiText-103 (268K categories).
    TransformerWikitext103,
    /// GNMT encoder-decoder on WMT'16 (32K categories).
    GnmtWmt16,
    /// XML-CNN extreme classifier on Amazon-670K.
    XmlcnnAmazon670k,
}

impl FaultShape {
    /// The canonical long name (what reports record as the workload).
    pub fn name(self) -> &'static str {
        match self {
            FaultShape::LstmWikitext2 => "lstm-wikitext2",
            FaultShape::TransformerWikitext103 => "transformer-wikitext103",
            FaultShape::GnmtWmt16 => "gnmt-wmt16",
            FaultShape::XmlcnnAmazon670k => "xmlcnn-amazon670k",
        }
    }
}

/// Validates a `--memory` value: one of the canonical preset names from
/// [`enmc_mem::MemTech`]. Case-insensitive; `help` is rejected here with
/// a pointer at `enmc list-memory` so the table stays in one place.
///
/// # Errors
///
/// Returns a user-facing message listing the accepted presets.
pub fn parse_memory(raw: &str) -> Result<enmc_mem::MemTech, String> {
    enmc_mem::MemTech::parse(&raw.to_ascii_lowercase()).ok_or_else(|| {
        format!(
            "--memory must be one of {} (see 'enmc list-memory'), got '{raw}'",
            memory_names().join(", ")
        )
    })
}

/// Validates a `--memory` comma-list for `tune`: each entry a canonical
/// preset name; duplicates are allowed (the tune space normalizes).
///
/// # Errors
///
/// Returns a user-facing message naming the offending entry and listing
/// the accepted presets.
pub fn parse_memory_levels(raw: &str) -> Result<Vec<enmc_mem::MemTech>, String> {
    if raw.is_empty() {
        return Err("--memory expects a comma-separated list of presets, got ''".to_string());
    }
    let mut out = Vec::new();
    for tok in raw.split(',') {
        match enmc_mem::MemTech::parse(&tok.to_ascii_lowercase()) {
            Some(t) => out.push(t),
            None => {
                return Err(format!(
                    "--memory entries must be one of {}, got '{tok}' in '{raw}'",
                    memory_names().join(", ")
                ))
            }
        }
    }
    Ok(out)
}

/// The canonical preset names, in declaration order (baseline first).
fn memory_names() -> Vec<&'static str> {
    enmc_mem::MemTech::ALL.iter().map(|t| t.name()).collect()
}

/// Validates a `--cost-model` value.
///
/// # Errors
///
/// Returns a user-facing message listing the accepted backends.
pub fn parse_cost_model(raw: &str) -> Result<CostModelKind, String> {
    match raw.to_ascii_lowercase().as_str() {
        "cycle-accurate" | "cycle" | "accurate" => Ok(CostModelKind::CycleAccurate),
        "surrogate" => Ok(CostModelKind::Surrogate),
        _ => Err(format!("--cost-model must be 'cycle-accurate' or 'surrogate', got '{raw}'")),
    }
}

/// Cost backends selectable with `--cost-model` (the audit rate binds
/// separately via `--audit-rate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModelKind {
    /// Simulate every sweep point cycle-accurately (the default).
    CycleAccurate,
    /// Answer sweep points with the fitted surrogate, auditing a seeded
    /// fraction cycle-accurately.
    Surrogate,
}

/// Validates an `--audit-rate` value: a finite fraction in `[0, 1]` of
/// surrogate predictions to re-run cycle-accurately.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_audit_rate(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(r) if r.is_finite() && (0.0..=1.0).contains(&r) => Ok(r),
        Ok(_) => Err(format!("--audit-rate must be a fraction in [0, 1], got '{raw}'")),
        Err(_) => Err(format!("--audit-rate expects a number in [0, 1], got '{raw}'")),
    }
}

/// Validates a comma-separated design-axis level list for `tune`
/// (`--ranks`, `--lanes`, `--screen-bits`, `--candidates`,
/// `--batch-max`): each level must parse as an integer ≥ 1. `flag`
/// names the flag in the message.
///
/// # Errors
///
/// Returns a user-facing message naming the flag, the offending entry,
/// and the accepted range.
pub fn parse_axis_levels(flag: &str, raw: &str) -> Result<Vec<u64>, String> {
    if raw.is_empty() {
        return Err(format!("{flag} expects a comma-separated list of levels, got ''"));
    }
    let mut out = Vec::new();
    for tok in raw.split(',') {
        match tok.parse::<u64>() {
            Ok(n) if n >= 1 => out.push(n),
            _ => {
                return Err(format!(
                    "{flag} levels must be integers >= 1, got '{tok}' in '{raw}'"
                ))
            }
        }
    }
    Ok(out)
}

/// Validates a comma-separated non-negative level list for `tune`
/// (`--screen-shift`, `--linger`): zero is a meaningful level (no shift,
/// no linger), so only the integer parse can fail.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the offending entry.
pub fn parse_axis_counts(flag: &str, raw: &str) -> Result<Vec<u64>, String> {
    if raw.is_empty() {
        return Err(format!("{flag} expects a comma-separated list of levels, got ''"));
    }
    let mut out = Vec::new();
    for tok in raw.split(',') {
        match tok.parse::<u64>() {
            Ok(n) => out.push(n),
            Err(_) => {
                return Err(format!(
                    "{flag} levels must be unsigned integers, got '{tok}' in '{raw}'"
                ))
            }
        }
    }
    Ok(out)
}

/// Validates the `--ecc` axis list for `tune`: comma-separated
/// `on`/`off` (or `true`/`false`, `1`/`0`) levels.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the offending entry.
pub fn parse_ecc_levels(raw: &str) -> Result<Vec<bool>, String> {
    if raw.is_empty() {
        return Err("--ecc expects a comma-separated list of on/off levels, got ''".to_string());
    }
    let mut out = Vec::new();
    for tok in raw.split(',') {
        match tok.to_ascii_lowercase().as_str() {
            "on" | "true" | "1" => out.push(true),
            "off" | "false" | "0" => out.push(false),
            _ => {
                return Err(format!(
                    "--ecc levels must be 'on' or 'off', got '{tok}' in '{raw}'"
                ))
            }
        }
    }
    Ok(out)
}

/// Validates a tuning budget cap (`--max-area-mm2`, `--max-power-mw`):
/// a finite positive number. `flag` names the flag in the message.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted range.
pub fn parse_budget_cap(flag: &str, raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(c) if c.is_finite() && c > 0.0 => Ok(c),
        Ok(_) => Err(format!("{flag} must be a positive finite number, got '{raw}'")),
        Err(_) => Err(format!("{flag} expects a positive number, got '{raw}'")),
    }
}

/// Validates a `--search` value for `tune`.
///
/// # Errors
///
/// Returns a user-facing message listing the accepted strategies.
pub fn parse_search_mode(raw: &str) -> Result<enmc_tune::SearchMode, String> {
    match raw.to_ascii_lowercase().as_str() {
        "exhaustive" | "brute" | "brute-force" => Ok(enmc_tune::SearchMode::Exhaustive),
        "guided" => Ok(enmc_tune::SearchMode::Guided),
        _ => Err(format!("--search must be 'exhaustive' or 'guided', got '{raw}'")),
    }
}

/// Validates a `--placement` value for `fleet-sim`.
///
/// # Errors
///
/// Returns a user-facing message listing the accepted policies.
pub fn parse_placement(raw: &str) -> Result<enmc_fleet::PlacementPolicy, String> {
    match raw.to_ascii_lowercase().as_str() {
        "consistent-hash" | "hash" | "ch" => Ok(enmc_fleet::PlacementPolicy::ConsistentHash),
        "popularity" | "popularity-aware" | "pa" => {
            Ok(enmc_fleet::PlacementPolicy::PopularityAware)
        }
        _ => Err(format!(
            "--placement must be 'consistent-hash' or 'popularity' (short forms ok), got '{raw}'"
        )),
    }
}

/// Validates a `--zipf` value for `fleet-sim`: a finite skew exponent
/// ≥ 0 in multiples of 0.5 — the restriction that lets the popularity
/// weights be computed exactly (integer powers and IEEE square roots,
/// no platform `powf`), keeping fleet reports bit-identical everywhere.
///
/// # Errors
///
/// Returns a user-facing message naming the flag and the accepted grid.
pub fn parse_zipf(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(s) if s.is_finite() && s >= 0.0 && (s * 2.0).fract() == 0.0 => Ok(s),
        Ok(_) => Err(format!(
            "--zipf must be a skew >= 0 in multiples of 0.5 (0, 0.5, 1, 1.5, ...), got '{raw}'"
        )),
        Err(_) => Err(format!("--zipf expects a number in multiples of 0.5, got '{raw}'")),
    }
}

/// `fleet-sim`'s priority rule for tenant `i` (0-based): a looser
/// deadline of `slo_cycles * (i + 1)` and an earlier shed threshold of
/// `48 >> i` queued requests, floored at 4. Both saturate instead of
/// wrapping, so SLOs never decrease and shed depths never increase with
/// `i`, whatever `--slo-cycles` and `--tenants` are.
pub fn tenant_priority(slo_cycles: u64, i: usize) -> (u64, usize) {
    let slo = slo_cycles.saturating_mul((i as u64).saturating_add(1));
    let shift = u32::try_from(i).unwrap_or(u32::MAX);
    let shed_queue_depth = 48usize.checked_shr(shift).unwrap_or(0).max(4);
    (slo, shed_queue_depth)
}

/// Validates a `--report` value.
///
/// # Errors
///
/// Returns a user-facing message listing the accepted formats.
pub fn parse_report_format(raw: &str) -> Result<ReportFormat, String> {
    match raw.to_ascii_lowercase().as_str() {
        "text" => Ok(ReportFormat::Text),
        "json" => Ok(ReportFormat::Json),
        _ => Err(format!("--report must be 'text' or 'json', got '{raw}'")),
    }
}

/// Output format of `enmc simulate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Human-readable summary (the default).
    Text,
    /// A machine-readable [`enmc_obs::RunReport`] on stdout.
    Json,
}

/// One flag's raw value from an argument list: the token following
/// `name`, if any.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// The flag bundle every seeded subcommand shares: `--seed`,
/// `--threads`, `--cost-model`, `--audit-rate`, and `--report`, parsed
/// once with one precedence rule each. `simulate`, `serve-sim`,
/// `fault-sweep`, `fleet-sim`, `tune`, and `offload-plan` all resolve
/// through here, so the flags mean the same thing everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Effective seed: `--seed` > `ENMC_SEED` > the subcommand default.
    pub seed: u64,
    /// Explicit `--threads`, if given. Use [`CommonArgs::threads_or_env`]
    /// or [`CommonArgs::workers`] where `ENMC_THREADS` should apply.
    pub threads: Option<usize>,
    /// Explicit `--cost-model`, if given (`None` lets each subcommand
    /// keep its own default backend).
    pub cost_model: Option<CostModelKind>,
    /// Surrogate audit rate (defaults to 0.1 when the flag is absent).
    pub audit_rate: f64,
    /// Output format (defaults to text).
    pub format: ReportFormat,
    /// Memory-technology preset levels (`--memory`, comma-separated;
    /// defaults to the DDR4 baseline, which reproduces the pre-preset
    /// behavior bit-exactly). Single-preset subcommands resolve through
    /// [`CommonArgs::single_memory`]; `tune` consumes the whole list as
    /// its memory design axis.
    pub memory: Vec<enmc_mem::MemTech>,
}

impl CommonArgs {
    /// Parses the shared flags out of a subcommand's argument list.
    ///
    /// # Errors
    ///
    /// Returns the first failing flag's user-facing message.
    pub fn parse(args: &[String], default_seed: u64) -> Result<Self, String> {
        let seed = resolve_seed(flag_value(args, "--seed"), default_seed)?;
        let threads = flag_value(args, "--threads").map(parse_threads).transpose()?;
        let cost_model = flag_value(args, "--cost-model").map(parse_cost_model).transpose()?;
        let audit_rate =
            flag_value(args, "--audit-rate").map(parse_audit_rate).unwrap_or(Ok(0.1))?;
        let format =
            flag_value(args, "--report").map(parse_report_format).unwrap_or(Ok(ReportFormat::Text))?;
        let memory = flag_value(args, "--memory")
            .map(parse_memory_levels)
            .unwrap_or(Ok(vec![enmc_mem::MemTech::Ddr4_2666]))?;
        Ok(CommonArgs { seed, threads, cost_model, audit_rate, format, memory })
    }

    /// The single `--memory` preset for subcommands that simulate one
    /// technology per run (everything except `tune`, where the list is a
    /// design axis).
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when a comma list was given.
    pub fn single_memory(&self) -> Result<enmc_mem::MemTech, String> {
        match self.memory.as_slice() {
            [one] => Ok(*one),
            _ => Err(
                "--memory takes exactly one preset here; comma lists are a 'tune' design axis"
                    .to_string(),
            ),
        }
    }

    /// Worker-count resolution for subcommands where omitting the flag
    /// falls through to the `ENMC_THREADS` hook: flag > env > `None`.
    pub fn threads_or_env(&self) -> Option<usize> {
        self.threads.or_else(enmc_par::env_threads)
    }

    /// Worker count for always-parallel fan-outs: flag > env > 1.
    pub fn workers(&self) -> usize {
        self.threads_or_env().unwrap_or(1)
    }

    /// The cost backend the `--cost-model`/`--audit-rate` pair selects;
    /// `default` is the kind used when the flag is absent
    /// (cycle-accurate for the simulators, surrogate for `tune`).
    pub fn backend(&self, default: CostModelKind) -> enmc_surrogate::CostBackend {
        match self.cost_model.unwrap_or(default) {
            CostModelKind::CycleAccurate => enmc_surrogate::CostBackend::CycleAccurate,
            CostModelKind::Surrogate => {
                enmc_surrogate::CostBackend::Surrogate { audit_rate: self.audit_rate }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accepts_positive_integers() {
        assert_eq!(parse_batch("1"), Ok(1));
        assert_eq!(parse_batch("64"), Ok(64));
    }

    #[test]
    fn batch_rejects_zero_and_junk() {
        assert!(parse_batch("0").unwrap_err().contains(">= 1"));
        assert!(parse_batch("-3").unwrap_err().contains("positive integer"));
        assert!(parse_batch("four").unwrap_err().contains("'four'"));
        assert!(parse_batch("2.5").is_err());
        assert!(parse_batch("").is_err());
    }

    #[test]
    fn fraction_accepts_half_open_unit_interval() {
        assert_eq!(parse_candidate_fraction("0.05"), Ok(0.05));
        assert_eq!(parse_candidate_fraction("1"), Ok(1.0));
        assert_eq!(parse_candidate_fraction("1e-3"), Ok(1e-3));
    }

    #[test]
    fn fraction_rejects_out_of_range_and_junk() {
        assert!(parse_candidate_fraction("0").unwrap_err().contains("(0, 1]"));
        assert!(parse_candidate_fraction("-0.1").is_err());
        assert!(parse_candidate_fraction("1.5").is_err());
        assert!(parse_candidate_fraction("NaN").is_err());
        assert!(parse_candidate_fraction("inf").is_err());
        assert!(parse_candidate_fraction("lots").unwrap_err().contains("'lots'"));
    }

    #[test]
    fn threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("16"), Ok(16));
    }

    #[test]
    fn threads_rejects_zero_and_junk() {
        assert!(parse_threads("0").unwrap_err().contains(">= 1"));
        assert!(parse_threads("-2").unwrap_err().contains("positive integer"));
        assert!(parse_threads("many").unwrap_err().contains("'many'"));
        assert!(parse_threads("").is_err());
    }

    #[test]
    fn count_accepts_positive_and_names_the_flag() {
        assert_eq!(parse_count("--seeds", "32"), Ok(32));
        assert_eq!(parse_count("--len", "1"), Ok(1));
        assert!(parse_count("--seeds", "0").unwrap_err().contains("--seeds"));
        assert!(parse_count("--len", "-4").unwrap_err().contains("--len"));
        assert!(parse_count("--seeds", "many").unwrap_err().contains("'many'"));
    }

    #[test]
    fn queries_are_bounded_and_name_the_flag() {
        assert_eq!(parse_queries("1"), Ok(1));
        assert_eq!(parse_queries("65536"), Ok(65_536));
        for raw in ["65537", "18446744073709551615"] {
            let e = parse_queries(raw).unwrap_err();
            assert!(e.contains("--queries") && e.contains("65536"), "{e}");
        }
        assert!(parse_queries("0").unwrap_err().contains("--queries"));
        assert!(parse_queries("18446744073709551616").unwrap_err().contains("--queries"));
    }

    #[test]
    fn report_format_parses() {
        assert_eq!(parse_report_format("json"), Ok(ReportFormat::Json));
        assert_eq!(parse_report_format("TEXT"), Ok(ReportFormat::Text));
        assert!(parse_report_format("xml").unwrap_err().contains("'xml'"));
    }

    #[test]
    fn rate_accepts_positive_finite_numbers() {
        assert_eq!(parse_rate("0.5"), Ok(0.5));
        assert_eq!(parse_rate("12"), Ok(12.0));
        assert!(parse_rate("0").unwrap_err().contains("--rate"));
        assert!(parse_rate("-1").is_err());
        assert!(parse_rate("inf").is_err());
        assert!(parse_rate("fast").unwrap_err().contains("'fast'"));
    }

    #[test]
    fn arrival_kind_parses() {
        assert_eq!(parse_arrival_kind("poisson"), Ok(ArrivalKind::Poisson));
        assert_eq!(parse_arrival_kind("BURST"), Ok(ArrivalKind::Burst));
        assert_eq!(parse_arrival_kind("diurnal"), Ok(ArrivalKind::Diurnal));
        assert_eq!(parse_arrival_kind("trace"), Ok(ArrivalKind::Trace));
        assert!(parse_arrival_kind("uniform").unwrap_err().contains("'uniform'"));
    }

    #[test]
    fn seed_accepts_any_u64_including_zero() {
        assert_eq!(parse_seed("--seed", "0"), Ok(0));
        assert_eq!(parse_seed("--seed", "7"), Ok(7));
        assert_eq!(parse_seed("--seed", "18446744073709551615"), Ok(u64::MAX));
        assert!(parse_seed("--seed", "-1").unwrap_err().contains("--seed"));
        assert!(parse_seed("ENMC_SEED", "lucky").unwrap_err().contains("ENMC_SEED"));
        assert!(parse_seed("--seed", "3.5").unwrap_err().contains("'3.5'"));
    }

    #[test]
    fn resolve_seed_prefers_the_flag_and_falls_back_to_the_default() {
        // ENMC_SEED is process-global, so this test only exercises the
        // flag and default arms; the env arm shares parse_seed above.
        if std::env::var("ENMC_SEED").is_err() {
            assert_eq!(resolve_seed(None, 7), Ok(7));
        }
        assert_eq!(resolve_seed(Some("0"), 7), Ok(0));
        assert_eq!(resolve_seed(Some("42"), 7), Ok(42));
        assert!(resolve_seed(Some("nope"), 7).unwrap_err().contains("'nope'"));
    }

    #[test]
    fn ber_accepts_the_closed_unit_interval() {
        assert_eq!(parse_ber("0"), Ok(0.0));
        assert_eq!(parse_ber("1"), Ok(1.0));
        assert_eq!(parse_ber("1e-4"), Ok(1e-4));
        assert!(parse_ber("1.5").unwrap_err().contains("[0, 1]"));
        assert!(parse_ber("-0.1").is_err());
        assert!(parse_ber("NaN").is_err());
        assert!(parse_ber("noisy").unwrap_err().contains("'noisy'"));
    }

    #[test]
    fn multipliers_accept_a_nonempty_list_of_at_least_one() {
        assert_eq!(parse_multipliers("1"), Ok(vec![1.0]));
        assert_eq!(parse_multipliers("1,2,4.5,32"), Ok(vec![1.0, 2.0, 4.5, 32.0]));
        assert!(parse_multipliers("").unwrap_err().contains("--multipliers"));
        assert!(parse_multipliers("0.5").unwrap_err().contains(">= 1"));
        assert!(parse_multipliers("2,zero").unwrap_err().contains("'zero'"));
        assert!(parse_multipliers("2,,4").is_err());
        assert!(parse_multipliers("inf").is_err());
    }

    #[test]
    fn wall_tolerance_accepts_nonnegative_fractions() {
        assert_eq!(parse_wall_tolerance("0"), Ok(0.0));
        assert_eq!(parse_wall_tolerance("0.2"), Ok(0.2));
        assert_eq!(parse_wall_tolerance("1.5"), Ok(1.5));
        assert!(parse_wall_tolerance("-0.1").unwrap_err().contains(">= 0"));
        assert!(parse_wall_tolerance("inf").is_err());
        assert!(parse_wall_tolerance("NaN").is_err());
        assert!(parse_wall_tolerance("loose").unwrap_err().contains("'loose'"));
    }

    #[test]
    fn shape_parses_long_and_short_forms() {
        assert_eq!(parse_shape("lstm-wikitext2"), Ok(FaultShape::LstmWikitext2));
        assert_eq!(parse_shape("LSTM"), Ok(FaultShape::LstmWikitext2));
        assert_eq!(parse_shape("transformer"), Ok(FaultShape::TransformerWikitext103));
        assert_eq!(parse_shape("gnmt-wmt16"), Ok(FaultShape::GnmtWmt16));
        assert_eq!(parse_shape("xmlcnn"), Ok(FaultShape::XmlcnnAmazon670k));
        assert_eq!(parse_shape("xmlcnn").unwrap().name(), "xmlcnn-amazon670k");
        assert!(parse_shape("resnet").unwrap_err().contains("'resnet'"));
    }

    #[test]
    fn memory_parses_every_preset_case_insensitively() {
        use enmc_mem::MemTech;
        assert_eq!(parse_memory("ddr4-2666"), Ok(MemTech::Ddr4_2666));
        assert_eq!(parse_memory("DDR5-4800"), Ok(MemTech::Ddr5_4800));
        assert_eq!(parse_memory("lpddr4-3200"), Ok(MemTech::Lpddr4_3200));
        assert_eq!(parse_memory("HBM2"), Ok(MemTech::Hbm2));
        let err = parse_memory("ddr3").unwrap_err();
        assert!(err.contains("'ddr3'") && err.contains("list-memory"), "{err}");
        assert!(parse_memory("help").is_err(), "the table lives in 'enmc list-memory'");
    }

    #[test]
    fn memory_levels_accept_lists_and_name_the_offender() {
        use enmc_mem::MemTech;
        assert_eq!(
            parse_memory_levels("ddr4-2666,hbm2"),
            Ok(vec![MemTech::Ddr4_2666, MemTech::Hbm2])
        );
        assert_eq!(parse_memory_levels("ddr5-4800"), Ok(vec![MemTech::Ddr5_4800]));
        assert!(parse_memory_levels("").unwrap_err().contains("--memory"));
        assert!(parse_memory_levels("ddr4-2666,gddr6").unwrap_err().contains("'gddr6'"));
    }

    #[test]
    fn common_args_default_to_the_ddr4_baseline_memory() {
        use enmc_mem::MemTech;
        let c = CommonArgs::parse(&argv(&[]), 7).unwrap();
        assert_eq!(c.memory, vec![MemTech::Ddr4_2666]);
        assert_eq!(c.single_memory(), Ok(MemTech::Ddr4_2666));
        let c = CommonArgs::parse(&argv(&["--memory", "hbm2"]), 7).unwrap();
        assert_eq!(c.single_memory(), Ok(MemTech::Hbm2));
        assert!(CommonArgs::parse(&argv(&["--memory", "sram"]), 7)
            .unwrap_err()
            .contains("'sram'"));
    }

    #[test]
    fn common_args_memory_lists_are_a_tune_axis_only() {
        use enmc_mem::MemTech;
        let c = CommonArgs::parse(&argv(&["--memory", "ddr5-4800,hbm2"]), 7).unwrap();
        assert_eq!(c.memory, vec![MemTech::Ddr5_4800, MemTech::Hbm2]);
        assert!(c.single_memory().unwrap_err().contains("tune"));
    }

    #[test]
    fn cost_model_parses_both_backends_and_short_forms() {
        assert_eq!(parse_cost_model("cycle-accurate"), Ok(CostModelKind::CycleAccurate));
        assert_eq!(parse_cost_model("CYCLE"), Ok(CostModelKind::CycleAccurate));
        assert_eq!(parse_cost_model("surrogate"), Ok(CostModelKind::Surrogate));
        assert!(parse_cost_model("oracle").unwrap_err().contains("'oracle'"));
        assert!(parse_cost_model("").unwrap_err().contains("--cost-model"));
    }

    #[test]
    fn audit_rate_accepts_the_closed_unit_interval() {
        assert_eq!(parse_audit_rate("0"), Ok(0.0));
        assert_eq!(parse_audit_rate("0.1"), Ok(0.1));
        assert_eq!(parse_audit_rate("1"), Ok(1.0));
        assert!(parse_audit_rate("1.5").unwrap_err().contains("[0, 1]"));
        assert!(parse_audit_rate("-0.1").is_err());
        assert!(parse_audit_rate("NaN").is_err());
        assert!(parse_audit_rate("always").unwrap_err().contains("'always'"));
    }

    #[test]
    fn placement_parses_both_policies_and_short_forms() {
        use enmc_fleet::PlacementPolicy;
        assert_eq!(parse_placement("consistent-hash"), Ok(PlacementPolicy::ConsistentHash));
        assert_eq!(parse_placement("CH"), Ok(PlacementPolicy::ConsistentHash));
        assert_eq!(parse_placement("popularity"), Ok(PlacementPolicy::PopularityAware));
        assert_eq!(parse_placement("popularity-aware"), Ok(PlacementPolicy::PopularityAware));
        assert!(parse_placement("random").unwrap_err().contains("'random'"));
    }

    #[test]
    fn tenant_priority_is_monotone_without_overflow() {
        let slos: Vec<u64> = (0..2).map(|i| tenant_priority(1 << 63, i).0).collect();
        assert_eq!(slos, vec![1 << 63, u64::MAX], "t1's SLO saturates, never wraps to 0");
        let sheds: Vec<usize> = (0..65).map(|i| tenant_priority(100_000, i).1).collect();
        assert_eq!(&sheds[..5], &[48, 24, 12, 6, 4]);
        assert!(sheds.windows(2).all(|w| w[1] <= w[0]), "shed depths never increase");
        assert!(sheds.iter().all(|&d| d >= 4), "shed depths never drop below 4");
        assert_eq!(tenant_priority(100_000, usize::MAX), (u64::MAX, 4));
        for slo in [0, 1, 100_000, 1 << 63, u64::MAX] {
            let s: Vec<u64> = (0..65).map(|i| tenant_priority(slo, i).0).collect();
            assert!(s.windows(2).all(|w| w[1] >= w[0]), "SLOs never decrease: {slo}");
        }
    }

    #[test]
    fn zipf_accepts_only_the_half_step_grid() {
        assert_eq!(parse_zipf("0"), Ok(0.0));
        assert_eq!(parse_zipf("0.5"), Ok(0.5));
        assert_eq!(parse_zipf("1"), Ok(1.0));
        assert_eq!(parse_zipf("1.5"), Ok(1.5));
        assert!(parse_zipf("0.7").unwrap_err().contains("multiples of 0.5"));
        assert!(parse_zipf("-1").is_err());
        assert!(parse_zipf("inf").is_err());
        assert!(parse_zipf("hot").unwrap_err().contains("'hot'"));
    }

    #[test]
    fn degrade_tiers_delegate_to_the_serving_grammar() {
        let tiers = parse_degrade_tiers("100:0,50:1").unwrap();
        assert_eq!(tiers.len(), 2);
        assert_eq!(tiers[1].candidates, 50);
        assert!(parse_degrade_tiers("50:1,100:0").unwrap_err().contains("--degrade-tiers"));
    }

    #[test]
    fn axis_levels_accept_positive_lists_and_name_the_flag() {
        assert_eq!(parse_axis_levels("--ranks", "32,64"), Ok(vec![32, 64]));
        assert_eq!(parse_axis_levels("--lanes", "128"), Ok(vec![128]));
        assert!(parse_axis_levels("--ranks", "").unwrap_err().contains("--ranks"));
        assert!(parse_axis_levels("--lanes", "64,0").unwrap_err().contains(">= 1"));
        assert!(parse_axis_levels("--ranks", "32,many").unwrap_err().contains("'many'"));
    }

    #[test]
    fn axis_counts_accept_zero_levels() {
        assert_eq!(parse_axis_counts("--screen-shift", "0,1,2"), Ok(vec![0, 1, 2]));
        assert_eq!(parse_axis_counts("--linger", "0"), Ok(vec![0]));
        assert!(parse_axis_counts("--linger", "").unwrap_err().contains("--linger"));
        assert!(parse_axis_counts("--screen-shift", "0,-1").unwrap_err().contains("'-1'"));
    }

    #[test]
    fn ecc_levels_parse_on_off_synonyms() {
        assert_eq!(parse_ecc_levels("off,on"), Ok(vec![false, true]));
        assert_eq!(parse_ecc_levels("TRUE"), Ok(vec![true]));
        assert_eq!(parse_ecc_levels("0"), Ok(vec![false]));
        assert!(parse_ecc_levels("").unwrap_err().contains("--ecc"));
        assert!(parse_ecc_levels("on,maybe").unwrap_err().contains("'maybe'"));
    }

    #[test]
    fn budget_caps_must_be_positive_and_finite() {
        assert_eq!(parse_budget_cap("--max-area-mm2", "120.5"), Ok(120.5));
        assert!(parse_budget_cap("--max-area-mm2", "0").unwrap_err().contains("--max-area-mm2"));
        assert!(parse_budget_cap("--max-power-mw", "-3").unwrap_err().contains("positive"));
        assert!(parse_budget_cap("--max-power-mw", "inf").is_err());
        assert!(parse_budget_cap("--max-area-mm2", "big").unwrap_err().contains("'big'"));
    }

    #[test]
    fn search_mode_parses_both_strategies() {
        use enmc_tune::SearchMode;
        assert_eq!(parse_search_mode("exhaustive"), Ok(SearchMode::Exhaustive));
        assert_eq!(parse_search_mode("BRUTE-FORCE"), Ok(SearchMode::Exhaustive));
        assert_eq!(parse_search_mode("guided"), Ok(SearchMode::Guided));
        assert!(parse_search_mode("random").unwrap_err().contains("'random'"));
    }

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn common_args_default_when_no_flags_are_given() {
        // ENMC_SEED/ENMC_THREADS are process-global; only assert the
        // env-free arms when the hooks are unset.
        let c = CommonArgs::parse(&argv(&[]), 7).unwrap();
        if std::env::var("ENMC_SEED").is_err() {
            assert_eq!(c.seed, 7);
        }
        assert_eq!(c.threads, None);
        assert_eq!(c.cost_model, None);
        assert_eq!(c.audit_rate, 0.1);
        assert_eq!(c.format, ReportFormat::Text);
        if std::env::var("ENMC_THREADS").is_err() {
            assert_eq!(c.threads_or_env(), None);
            assert_eq!(c.workers(), 1);
        }
    }

    #[test]
    fn common_args_parse_every_shared_flag() {
        let c = CommonArgs::parse(
            &argv(&[
                "--seed",
                "42",
                "--threads",
                "4",
                "--cost-model",
                "surrogate",
                "--audit-rate",
                "0.5",
                "--report",
                "json",
            ]),
            7,
        )
        .unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(c.threads, Some(4));
        assert_eq!(c.workers(), 4);
        assert_eq!(c.format, ReportFormat::Json);
        assert_eq!(
            c.backend(CostModelKind::CycleAccurate),
            enmc_surrogate::CostBackend::Surrogate { audit_rate: 0.5 }
        );
    }

    #[test]
    fn common_args_backend_default_binds_per_subcommand() {
        use enmc_surrogate::CostBackend;
        let c = CommonArgs::parse(&argv(&[]), 7).unwrap();
        assert_eq!(c.backend(CostModelKind::CycleAccurate), CostBackend::CycleAccurate);
        assert_eq!(
            c.backend(CostModelKind::Surrogate),
            CostBackend::Surrogate { audit_rate: 0.1 }
        );
    }

    #[test]
    fn common_args_surface_the_failing_flag() {
        assert!(CommonArgs::parse(&argv(&["--threads", "0"]), 7)
            .unwrap_err()
            .contains("--threads"));
        assert!(CommonArgs::parse(&argv(&["--cost-model", "oracle"]), 7)
            .unwrap_err()
            .contains("'oracle'"));
        assert!(CommonArgs::parse(&argv(&["--audit-rate", "2"]), 7)
            .unwrap_err()
            .contains("[0, 1]"));
        assert!(CommonArgs::parse(&argv(&["--report", "xml"]), 7)
            .unwrap_err()
            .contains("'xml'"));
    }

    #[test]
    fn flag_value_returns_the_following_token() {
        let args = argv(&["--seed", "9", "--json"]);
        assert_eq!(flag_value(&args, "--seed"), Some("9"));
        assert_eq!(flag_value(&args, "--json"), None, "trailing flag has no value");
        assert_eq!(flag_value(&args, "--missing"), None);
    }
}
