//! The `enmc` command line: one spec entry per flag of each subcommand,
//! and the parser that checks an argument list against it. The harness
//! binaries in `crates/bench` declare their own [`Command`]s from the same
//! [`Flag`] entries and parse through [`Command::parse`].
//!
//! [`Args::parse`] rejects an unknown flag, a flag without its value (a
//! value is never empty and never starts with `--`), a repeated flag and a
//! stray or missing positional before any work starts, naming the token
//! and printing the subcommand's flags with their defaults. Each
//! subcommand then reads typed values through the value rules named here
//! ([`count`], [`unsigned`], [`fraction`], [`unit()`], [`positive`],
//! [`nonnegative`], [`multipliers`], [`list`], [`one_of`]), so a bad value
//! fails with a message that names the flag, the value and the accepted
//! range instead of falling back to a default.

use enmc_arch::baseline::BaselineKind;
use enmc_arch::system::Scheme;
use enmc_fleet::PlacementPolicy;
use enmc_mem::MemTech;
use enmc_model::workloads::WorkloadId;
use enmc_surrogate::CostBackend;
use enmc_tune::{SearchMode, TuneSpace, MAX_BATCH};

/// One flag of a subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--batch`.
    pub name: &'static str,
    /// Placeholder for its value in the usage text; empty for a switch.
    pub value: &'static str,
    /// The value read when the flag is absent, parsed like a given one;
    /// empty when absence means "not set".
    pub default: &'static str,
    /// Largest value an integer flag accepts.
    pub max: u64,
    /// One line of help.
    pub help: &'static str,
}

/// A value flag; `default` is empty when absence means "not set".
pub const fn flag(
    name: &'static str,
    value: &'static str,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        default,
        max: u64::MAX,
        help,
    }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    flag(name, "", "", help)
}

impl Flag {
    /// The same flag, accepting integers up to `max`.
    pub const fn at_most(self, max: u64) -> Flag {
        Flag { max, ..self }
    }
}

/// One `enmc` subcommand, or a program of its own.
#[derive(Debug)]
pub struct Command {
    /// The subcommand or program, e.g. `simulate` or `fig13_performance`.
    pub name: &'static str,
    /// `enmc` for its subcommands; empty for a program of its own.
    pub program: &'static str,
    /// Its positional arguments, all required, as the usage names them.
    pub args: &'static [&'static str],
    /// One line of help.
    pub about: &'static str,
    /// Its flags, in groups that several subcommands share.
    pub groups: &'static [&'static [Flag]],
}

const fn cmd(
    name: &'static str,
    args: &'static [&'static str],
    about: &'static str,
    groups: &'static [&'static [Flag]],
) -> Command {
    Command {
        name,
        program: "enmc",
        args,
        about,
        groups,
    }
}

/// Largest `--queries` (and `serve-sim --quality`): 256× the
/// `fault-sweep` default. Every query's hidden vector is drawn before the
/// run starts, so the flag bounds an allocation.
pub const MAX_QUERIES: u64 = 65_536;

const WORKLOAD_NAMES: &str = "lstm|transformer|gnmt|xmlcnn|s1m|s10m|s100m";

// Flags several subcommands share. Integer flags that size an allocation
// or a loop accept at most 256× their default.
#[rustfmt::skip]
const SEED: Flag = flag("--seed", "N", "7", "seed; ENMC_SEED replaces the default");
#[rustfmt::skip]
pub const THREADS: Flag = flag("--threads", "N", "", "worker threads; ENMC_THREADS applies when unset");
#[rustfmt::skip]
const MEMORY: Flag = flag("--memory", "PRESET", "ddr4-2666", "memory-technology preset, see 'enmc list-memory'");
#[rustfmt::skip]
const REPORT: Flag = flag("--report", "text|json", "text", "output format");
#[rustfmt::skip]
const WORKLOAD: Flag = flag("--workload", "W", "lstm", WORKLOAD_NAMES);
#[rustfmt::skip]
const BATCH: Flag = flag("--batch", "N", "1", "batch size").at_most(256);
#[rustfmt::skip]
const CANDIDATES: Flag = flag("--candidates", "F", "0.05", "fraction of categories computed exactly, in (0, 1]");
#[rustfmt::skip]
const BATCH_MAX: Flag = flag("--batch-max", "N", "4", "largest batch").at_most(MAX_BATCH as u64);
#[rustfmt::skip]
const DEGRADE_TIERS: Flag = flag("--degrade-tiers", "K:S,...", "", "screener degrade ladder, full quality first; default K, K/2:1, K/4:2");
#[rustfmt::skip]
const TRACE_OUT: Flag = flag("--trace-out", "FILE", "", "write a Chrome/Perfetto trace JSON");
#[rustfmt::skip]
const CHECK_PROTOCOL: Flag = switch("--check-protocol", "shadow every DRAM command with the preset's checker; exit 1 on a violation");
#[rustfmt::skip]
const COST_MODEL: Flag = flag("--cost-model", "MODEL", "cycle-accurate", "cycle-accurate|surrogate");
#[rustfmt::skip]
const AUDIT_RATE: Flag = flag("--audit-rate", "F", "0.1", "fraction of surrogate answers re-simulated, in [0, 1]");

/// How a run is seeded, executed and reported.
const RUN: &[Flag] = &[SEED, THREADS, MEMORY, REPORT];

/// The cost backend answering sweep points, and its coefficient files.
#[rustfmt::skip]
const COST: &[Flag] = &[
    COST_MODEL,
    AUDIT_RATE,
    flag("--coeffs", "FILE", "", "load surrogate coefficients instead of fitting"),
    flag("--coeffs-out", "FILE", "", "write the fitted surrogate coefficients"),
];

/// The serving loop's arrivals, batcher and lanes (`serve-sim`, `fleet-sim`).
#[rustfmt::skip]
const FLEET: &[Flag] = &[
    flag("--arrival", "KIND", "poisson", "poisson|burst|diurnal|trace; trace is serve-sim only"),
    flag("--rate", "R", "0.5", "offered load in requests per kilocycle, split evenly over tenants"),
    flag("--slo-cycles", "N", "100000", "deadline in cycles; tenant i gets N*(i+1)"),
    BATCH_MAX,
    flag("--linger", "N", "2000", "longest a request waits unbatched, in cycles"),
    flag("--lanes", "N", "2", "parallel service lanes per node").at_most(512),
    CANDIDATES,
    switch("--offload", "serve each (tier, batch) point on the cheaper of NMP and the CPU roofline"),
    CHECK_PROTOCOL,
];

#[rustfmt::skip]
const SIMULATE: &[Flag] = &[
    flag("--workload", "W", "transformer", WORKLOAD_NAMES),
    flag("--scheme", "S", "enmc", "cpu|cpu-as|nda|chameleon|tensordimm|tensordimm-large|enmc"),
    BATCH,
    CANDIDATES,
    TRACE_OUT,
    CHECK_PROTOCOL,
];

#[rustfmt::skip]
const SERVE_SIM: &[Flag] = &[
    WORKLOAD,
    flag("--requests", "N", "256", "requests to generate").at_most(65_536),
    DEGRADE_TIERS,
    flag("--shed-queue", "N", "48", "shed arrivals beyond this queue depth"),
    flag("--degrade-queue", "N", "12", "step a tier down beyond this queue depth"),
    flag("--upgrade-queue", "N", "3", "step a tier up at or below this queue depth"),
    flag("--trace-file", "FILE", "", "arrival cycles for --arrival trace"),
    flag("--quality", "N", "", "score each tier over N queries").at_most(MAX_QUERIES),
    TRACE_OUT,
];

#[rustfmt::skip]
const FLEET_SIM: &[Flag] = &[
    flag("--shape", "W", "lstm", WORKLOAD_NAMES),
    flag("--nodes", "N", "4", "simulated DIMM-group nodes").at_most(1024),
    flag("--shards", "N", "", "classifier shards, default one per node").at_most(1024),
    flag("--tenants", "N", "2", "tenants; a higher index sheds earlier").at_most(512),
    flag("--placement", "P", "popularity", "consistent-hash|popularity"),
    flag("--replicas", "N", "2", "extra hot-shard copies").at_most(512),
    flag("--zipf", "S", "1", "shard popularity skew, a multiple of 0.5; 0 is uniform"),
    flag("--requests", "N", "192", "requests per tenant").at_most(49_152),
];

#[rustfmt::skip]
const TUNE: &[Flag] = &[
    WORKLOAD,
    flag("--ranks", "N,...", "32,64", "rank-unit levels"),
    flag("--lanes", "N,...", "64,128", "screener-lane levels"),
    flag("--screen-bits", "N,...", "4", "screener bitwidth levels"),
    flag("--screen-shift", "N,...", "0,1", "screening-level shifts"),
    flag("--candidates", "N,...", "64,128", "candidate-count levels"),
    flag("--batch-max", "N,...", "4", "batch-size-cap levels"),
    flag("--linger", "N,...", "2000", "linger-window levels, in cycles"),
    flag("--ecc", "on|off,...", "off,on", "DRAM-controller ECC levels"),
    flag("--memory", "PRESET,...", "ddr4-2666", "memory-technology levels, see 'enmc list-memory'"),
    flag("--max-area-mm2", "F", "", "reject designs larger than this area"),
    flag("--max-power-mw", "F", "", "reject designs drawing more than this power"),
    flag("--search", "MODE", "exhaustive", "exhaustive|guided; both give the same frontier"),
    flag("--frontier-out", "FILE", "", "write the tune-frontier-v1 JSON"),
    // Tuning sweeps many designs, so the audited surrogate is the default.
    flag("--cost-model", "MODEL", "surrogate", "cycle-accurate|surrogate"),
    AUDIT_RATE,
    SEED,
    THREADS,
    REPORT,
];

const OFFLOAD_PLAN: &[Flag] = &[
    WORKLOAD,
    CANDIDATES,
    BATCH_MAX,
    DEGRADE_TIERS,
    COST_MODEL,
    AUDIT_RATE,
];

#[rustfmt::skip]
const FAULT_SWEEP: &[Flag] = &[
    flag("--shape", "SHAPE", "lstm-wikitext2", "lstm-wikitext2|transformer-wikitext103|gnmt-wmt16|xmlcnn-amazon670k, or the first word"),
    flag("--ber", "F", "0", "uniform bit-error rate in [0, 1]"),
    flag("--multipliers", "M,...", "1", "refresh-interval multipliers, each >= 1 and listed once"),
    flag("--weak-columns", "F", "0", "fraction of tRCD-marginal columns, in [0, 1]"),
    switch("--ecc", "protect the weights with SEC-DED (72,64)"),
    flag("--queries", "N", "256", "queries per sweep point").at_most(MAX_QUERIES),
    TRACE_OUT,
];

#[rustfmt::skip]
const FUZZ_DRAM: &[Flag] = &[
    flag("--seeds", "N", "32", "seeds per pattern").at_most(8192),
    flag("--len", "N", "96", "requests per fuzz case").at_most(24_576),
    flag("--pattern", "P", "", "one traffic shape, or 'lowered' (default every shape, then lowered)"),
    flag("--inject-bug", "BUG", "", "plant tfaw-1|trcd-1|trp-1|twtr-1; exit 0 only if it is caught"),
    MEMORY,
    flag("--repro-out", "FILE", "", "write the shrunk reproducer JSON"),
];

#[rustfmt::skip]
const PROFILE: &[Flag] = &[
    flag("--shape", "W", "s1m", WORKLOAD_NAMES),
    flag("--scheme", "S", "enmc", "simulated scheme: nda|chameleon|tensordimm|tensordimm-large|enmc"),
    BATCH,
    CANDIDATES,
    THREADS,
    MEMORY,
    REPORT,
    flag("--trace-out", "FILE", "", "write a Chrome trace with counter tracks"),
    switch("--self-profile", "print a host-side span rollup on stderr"),
];

#[rustfmt::skip]
const BENCH_DIFF: &[Flag] = &[
    flag("--wall-tolerance", "F", "0.2", "allowed wall-clock regression fraction; other metrics gate exactly"),
];

/// Every subcommand, in the order `enmc` lists them.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    cmd("demo", &[], "run the quickstart pipeline", &[]),
    cmd("simulate", &[], "simulate one classification job on every rank unit; --trace-out traces rank 0", &[SIMULATE, RUN]),
    cmd("serve-sim", &[], "simulate online serving of a workload on one node", &[SERVE_SIM, FLEET, RUN, COST]),
    cmd("fleet-sim", &[], "simulate a multi-tenant serving fleet", &[FLEET_SIM, FLEET, RUN, COST]),
    cmd("tune", &[], "search the design space for a Pareto frontier under budgets", &[TUNE]),
    cmd("offload-plan", &[], "plan each (tier, batch) point on NMP or the CPU roofline", &[OFFLOAD_PLAN, RUN]),
    cmd("fault-sweep", &[], "sweep quality against refresh energy under DRAM faults", &[FAULT_SWEEP, RUN]),
    cmd("fuzz-dram", &[], "fuzz the DRAM controller against the checker and golden model", &[FUZZ_DRAM]),
    cmd("profile", &[], "attribute one whole-system run's cycles and energy top-down", &[PROFILE]),
    cmd("bench-diff", &["OLD.json", "NEW.json"], "gate one BENCH record against another", &[BENCH_DIFF]),
    cmd("asm", &["FILE"], "assemble an ENMC program and print its PRECHARGE frames", &[]),
    cmd("workloads", &[], "list the Table 2 workloads", &[]),
    cmd("list-memory", &[], "list the memory-technology presets", &[]),
];

impl Command {
    /// A program of its own named `name`, taking no positionals; its
    /// usage lists only its flags.
    pub const fn standalone(name: &'static str, groups: &'static [&'static [Flag]]) -> Command {
        Command {
            name,
            program: "",
            args: &[],
            about: "",
            groups,
        }
    }

    /// The command as typed, e.g. `enmc simulate` or `fig13_performance`.
    fn invocation(&self) -> String {
        format!("{} {}", self.program, self.name)
            .trim_start()
            .to_string()
    }

    /// Every flag of the subcommand, in usage order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|g| g.iter())
    }

    /// The usage text: the synopsis, then each flag with its default and
    /// its maximum.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.invocation());
        for a in self.args {
            out += &format!(" {a}");
        }
        if !self.groups.is_empty() {
            out += " [flags]";
        }
        out += "\n";
        if !self.about.is_empty() {
            out += &format!("  {}\n", self.about);
        }
        for f in self.flags() {
            let mut notes = Vec::new();
            if !f.default.is_empty() {
                notes.push(format!("default {}", f.default));
            }
            if f.max < u64::MAX {
                notes.push(format!("at most {}", f.max));
            }
            let mut help = f.help.to_string();
            if !notes.is_empty() {
                help += &format!(" ({})", notes.join(", "));
            }
            out += &format!(
                "  {:<24} {help}\n",
                format!("{} {}", f.name, f.value).trim_end()
            );
        }
        out
    }

    /// Checks `argv` (the flags and positionals after the command) against
    /// this spec. The token after a value flag is its value; an empty one
    /// or one starting with `--` is a flag without its value.
    ///
    /// # Errors
    ///
    /// For an unknown flag, a flag without its value, a repeated flag, or
    /// a stray or missing positional, a message naming the token followed
    /// by the usage.
    pub fn parse(&'static self, argv: &[String]) -> Result<Args, String> {
        let fail = |what: String| Err(format!("{}: {what}\n\n{}", self.invocation(), self.usage()));
        let mut a = Args {
            cmd: self,
            given: Vec::new(),
            positional: Vec::new(),
        };
        let mut tokens = argv.iter();
        while let Some(tok) = tokens.next() {
            if !tok.starts_with("--") {
                if a.positional.len() == self.args.len() {
                    return fail(format!("unexpected argument '{tok}'"));
                }
                a.positional.push(tok.clone());
                continue;
            }
            let Some(f) = self.flags().find(|f| f.name == tok) else {
                return fail(format!("unknown flag '{tok}'"));
            };
            if a.given.iter().any(|(g, _)| g.name == f.name) {
                return fail(format!("flag '{tok}' given twice"));
            }
            let value = match f.value {
                "" => String::new(),
                placeholder => match tokens.next() {
                    Some(v) if !v.is_empty() && !v.starts_with("--") => v.clone(),
                    _ => return fail(format!("flag '{tok}' needs a value {placeholder}")),
                },
            };
            a.given.push((f, value));
        }
        match self.args.get(a.positional.len()) {
            Some(missing) => fail(format!("missing {missing}")),
            None => Ok(a),
        }
    }
}

/// The subcommand list `enmc` prints when run alone or with an unknown
/// subcommand.
fn overview() -> String {
    let mut out = String::from(
        "enmc — ENMC (MICRO'21) reproduction\n\n\
         usage: enmc <command> [flags]  (a flag the command does not take lists its flags)\n\n\
         commands:\n",
    );
    for c in COMMANDS {
        out += &format!("  {:<14} {}\n", c.name, c.about);
    }
    out
}

/// A subcommand's argument list, checked against its spec.
#[derive(Debug)]
pub struct Args {
    cmd: &'static Command,
    /// Each given flag with its value (empty for a switch).
    given: Vec<(&'static Flag, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Checks `argv` (the subcommand first) against that subcommand's spec
    /// through [`Command::parse`].
    ///
    /// # Errors
    ///
    /// For a missing or unknown subcommand, the subcommand list; otherwise
    /// [`Command::parse`]'s message.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let name = argv.first().map_or("", String::as_str);
        let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
            let unknown = match name {
                "" => String::new(),
                _ => format!("enmc: unknown command '{name}'\n\n"),
            };
            return Err(unknown + &overview());
        };
        cmd.parse(&argv[1..])
    }

    /// The subcommand's or program's name.
    pub fn command(&self) -> &'static str {
        self.cmd.name
    }

    /// Positional argument `i`.
    pub fn arg(&self, i: usize) -> &str {
        &self.positional[i]
    }

    /// The text given for flag `name`, if any; empty for a switch.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the subcommand's spec: every flag a
    /// subcommand reads must be declared there.
    pub fn text(&self, name: &str) -> Option<&str> {
        let f = self.spec(name);
        self.given
            .iter()
            .find(|(g, _)| g.name == f.name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether switch `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// Flag `name` read by `parse` from its given value, else from its
    /// default; `None` when it is absent and has no default.
    ///
    /// # Errors
    ///
    /// Returns `parse`'s message for a value it rejects.
    pub fn opt<T>(
        &self,
        name: &str,
        parse: impl Fn(&Flag, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let f = self.spec(name);
        match self.text(name) {
            Some(raw) => parse(f, raw).map(Some),
            None if f.default.is_empty() => Ok(None),
            None => parse(f, f.default).map(Some),
        }
    }

    /// [`Args::opt`] for a flag that has a default.
    ///
    /// # Errors
    ///
    /// Returns `parse`'s message for a value it rejects.
    pub fn get<T>(
        &self,
        name: &str,
        parse: impl Fn(&Flag, &str) -> Result<T, String>,
    ) -> Result<T, String> {
        Ok(self
            .opt(name, parse)?
            .unwrap_or_else(|| panic!("{name} has no default")))
    }

    /// `--seed`, else `ENMC_SEED`, else the default. A malformed
    /// `ENMC_SEED` is an error, not ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming `--seed` or `ENMC_SEED` and the value.
    pub fn seed(&self) -> Result<u64, String> {
        match (self.text("--seed"), std::env::var("ENMC_SEED")) {
            (None, Ok(raw)) => unsigned(
                &Flag {
                    name: "ENMC_SEED",
                    ..SEED
                },
                &raw,
            ),
            _ => self.get("--seed", unsigned),
        }
    }

    /// `--threads`, else `ENMC_THREADS`; `None` when neither is set.
    ///
    /// # Errors
    ///
    /// Returns a message naming `--threads` and the value.
    pub fn threads(&self) -> Result<Option<usize>, String> {
        Ok(self.opt("--threads", count)?.or_else(enmc_par::env_threads))
    }

    /// The one `--memory` preset.
    ///
    /// # Errors
    ///
    /// Returns a message listing the presets.
    pub fn memory(&self) -> Result<MemTech, String> {
        self.get("--memory", one_of(&memories()))
    }

    /// `tune`'s design space: each axis flag replaces its default levels
    /// wholesale, and the defaults span [`TuneSpace::small`].
    ///
    /// # Errors
    ///
    /// Returns the failing axis flag's message.
    pub fn tune_space(&self) -> Result<TuneSpace, String> {
        Ok(TuneSpace {
            ranks: self.get("--ranks", list(count))?,
            lanes: self.get("--lanes", list(count))?,
            screen_bits: self.get("--screen-bits", list(count))?,
            screen_shift: self.get("--screen-shift", list(unsigned))?,
            candidates: self.get("--candidates", list(count))?,
            batch_max: self.get("--batch-max", list(count))?,
            linger_cycles: self.get("--linger", list(unsigned))?,
            ecc: self.get("--ecc", list(one_of(ON_OFF)))?,
            memory: self.get("--memory", list(one_of(&memories())))?,
        })
    }

    /// Whether `--report json` was given.
    ///
    /// # Errors
    ///
    /// Returns a message listing the formats.
    pub fn json(&self) -> Result<bool, String> {
        self.get("--report", one_of(&[("text", false), ("json", true)]))
    }

    /// The cost backend `--cost-model` and `--audit-rate` select. Both are
    /// checked whichever backend is chosen.
    ///
    /// # Errors
    ///
    /// Returns the failing flag's message.
    pub fn backend(&self) -> Result<CostBackend, String> {
        let audit_rate = self.get("--audit-rate", unit)?;
        let models = [
            ("cycle-accurate", false),
            ("cycle", false),
            ("accurate", false),
            ("surrogate", true),
        ];
        Ok(match self.get("--cost-model", one_of(&models))? {
            true => CostBackend::Surrogate { audit_rate },
            false => CostBackend::CycleAccurate,
        })
    }

    fn spec(&self, name: &str) -> &'static Flag {
        self.cmd
            .flags()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{} declares no flag {name}", self.cmd.invocation()))
    }
}

/// An integer from 1 to the flag's maximum, capped at `T`'s.
///
/// # Errors
///
/// Returns a message naming the flag, the value and the range.
pub fn count<T: TryFrom<u64>>(f: &Flag, raw: &str) -> Result<T, String> {
    integer(f, raw, 1)
}

/// An integer from 0 to the flag's maximum, capped at `T`'s.
///
/// # Errors
///
/// Returns a message naming the flag, the value and the range.
pub fn unsigned<T: TryFrom<u64>>(f: &Flag, raw: &str) -> Result<T, String> {
    integer(f, raw, 0)
}

/// An integer from `min` to the flag's maximum or the unsigned target
/// type's, whichever is smaller.
fn integer<T: TryFrom<u64>>(f: &Flag, raw: &str, min: u64) -> Result<T, String> {
    let max = f
        .max
        .min(u64::MAX >> (64 - 8 * std::mem::size_of::<T>().min(8)));
    let n = raw.parse::<u64>().ok().filter(|n| (min..=max).contains(n));
    n.and_then(|n| T::try_from(n).ok()).ok_or_else(|| {
        let range = match max {
            u64::MAX => format!(">= {min}"),
            max => format!("in {min}..={max}"),
        };
        format!("{} expects an integer {range}, got '{raw}'", f.name)
    })
}

/// `--candidates` outside `tune`: a finite real in (0, 1].
///
/// # Errors
///
/// Returns a message naming the flag, the value and the range.
pub fn fraction(f: &Flag, raw: &str) -> Result<f64, String> {
    real(f, raw, 0.0, true, 1.0)
}

/// `--ber`, `--weak-columns` and `--audit-rate`: a finite real in [0, 1].
///
/// # Errors
///
/// Returns a message naming the flag, the value and the range.
pub fn unit(f: &Flag, raw: &str) -> Result<f64, String> {
    real(f, raw, 0.0, false, 1.0)
}

/// `--rate` and the `tune` budget caps: a finite real > 0.
///
/// # Errors
///
/// Returns a message naming the flag, the value and the range.
pub fn positive(f: &Flag, raw: &str) -> Result<f64, String> {
    real(f, raw, 0.0, true, f64::INFINITY)
}

/// `--wall-tolerance`: a finite real >= 0.
///
/// # Errors
///
/// Returns a message naming the flag, the value and the range.
pub fn nonnegative(f: &Flag, raw: &str) -> Result<f64, String> {
    real(f, raw, 0.0, false, f64::INFINITY)
}

/// `--multipliers`: a comma-separated list of finite reals >= 1, each
/// value once (`1` and `1.0` are the same value).
///
/// # Errors
///
/// Returns a message naming the flag and the offending entry: one out of
/// range, or one that repeats an earlier entry's value.
pub fn multipliers(f: &Flag, raw: &str) -> Result<Vec<f64>, String> {
    let values = list(|f, tok| real(f, tok, 1.0, false, f64::INFINITY))(f, raw)?;
    let tokens: Vec<&str> = raw.split(',').collect();
    for (i, v) in values.iter().enumerate() {
        if let Some(j) = values[..i].iter().position(|w| w == v) {
            return Err(format!(
                "{} lists the value '{}' twice (again as '{}'); give each multiplier once",
                f.name, tokens[j], tokens[i]
            ));
        }
    }
    Ok(values)
}

/// A finite real in `[lo, hi]`, or in `(lo, hi]` when `open`; an infinite
/// `hi` leaves it unbounded above.
fn real(f: &Flag, raw: &str, lo: f64, open: bool, hi: f64) -> Result<f64, String> {
    let fits = |x: f64| x.is_finite() && (x > lo || !open && x == lo) && x <= hi;
    raw.parse::<f64>().ok().filter(|&x| fits(x)).ok_or_else(|| {
        let range = match (open, hi.is_finite()) {
            (true, true) => format!("in ({lo}, {hi}]"),
            (false, true) => format!("in [{lo}, {hi}]"),
            (true, false) => format!("> {lo}"),
            (false, false) => format!(">= {lo}"),
        };
        format!("{} expects a finite number {range}, got '{raw}'", f.name)
    })
}

/// A comma-separated list, each entry read by `entry`.
pub fn list<T>(
    entry: impl Fn(&Flag, &str) -> Result<T, String>,
) -> impl Fn(&Flag, &str) -> Result<Vec<T>, String> {
    move |f, raw| raw.split(',').map(|tok| entry(f, tok)).collect()
}

/// One of `table`'s names, ignoring ASCII case.
pub fn one_of<'a, T: Copy>(
    table: &'a [(&'a str, T)],
) -> impl Fn(&Flag, &str) -> Result<T, String> + 'a {
    move |f, raw| match table
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(raw))
    {
        Some(&(_, v)) => Ok(v),
        None => {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            Err(format!(
                "{} expects one of {}, got '{raw}'",
                f.name,
                names.join(", ")
            ))
        }
    }
}

/// `--zipf`: a skew >= 0 in multiples of 0.5, which keeps the popularity
/// weights exact (integer powers and IEEE square roots, no platform
/// `powf`), so fleet reports are bit-identical everywhere.
///
/// # Errors
///
/// Returns a message naming the flag, the value and the grid.
pub fn zipf(f: &Flag, raw: &str) -> Result<f64, String> {
    match nonnegative(f, raw)? {
        s if (s * 2.0).fract() == 0.0 => Ok(s),
        _ => Err(format!("{} expects a multiple of 0.5, got '{raw}'", f.name)),
    }
}

/// `--degrade-tiers`: comma-separated `K:S` pairs, full quality first;
/// see [`enmc_serve::tier::parse_tiers`] for the grammar.
///
/// # Errors
///
/// Returns the serving crate's message, which names the flag.
pub fn tiers(_: &Flag, raw: &str) -> Result<Vec<enmc_serve::DegradeTier>, String> {
    enmc_serve::parse_tiers(raw)
}

/// `--workload`, and `--shape` on `fleet-sim` and `profile`.
pub const WORKLOADS: &[(&str, WorkloadId)] = &[
    ("lstm", WorkloadId::LstmW33K),
    ("transformer", WorkloadId::TransformerW268K),
    ("gnmt", WorkloadId::GnmtE32K),
    ("xmlcnn", WorkloadId::Xmlcnn670K),
    ("s1m", WorkloadId::S1M),
    ("s10m", WorkloadId::S10M),
    ("s100m", WorkloadId::S100M),
];

/// `--scheme`; `profile` takes all but the first two, the analytic CPU
/// models, which have no cycle-level costs to attribute.
pub const SCHEMES: &[(&str, Scheme)] = &[
    ("cpu", Scheme::CpuFull),
    ("cpu-as", Scheme::CpuScreened),
    ("nda", Scheme::Baseline(BaselineKind::Nda)),
    ("chameleon", Scheme::Baseline(BaselineKind::Chameleon)),
    ("tensordimm", Scheme::Baseline(BaselineKind::TensorDimm)),
    (
        "tensordimm-large",
        Scheme::Baseline(BaselineKind::TensorDimmLarge),
    ),
    ("enmc", Scheme::Enmc),
];

/// `fault-sweep --shape`, long and short.
pub const SHAPES: &[(&str, FaultShape)] = &[
    ("lstm-wikitext2", FaultShape::LstmWikitext2),
    ("lstm", FaultShape::LstmWikitext2),
    (
        "transformer-wikitext103",
        FaultShape::TransformerWikitext103,
    ),
    ("transformer", FaultShape::TransformerWikitext103),
    ("gnmt-wmt16", FaultShape::GnmtWmt16),
    ("gnmt", FaultShape::GnmtWmt16),
    ("xmlcnn-amazon670k", FaultShape::XmlcnnAmazon670k),
    ("xmlcnn", FaultShape::XmlcnnAmazon670k),
];

/// `--memory`: the library's presets under their own names.
pub fn memories() -> Vec<(&'static str, MemTech)> {
    MemTech::ALL.iter().map(|&t| (t.name(), t)).collect()
}

/// `--arrival`.
pub const ARRIVALS: &[(&str, ArrivalKind)] = &[
    ("poisson", ArrivalKind::Poisson),
    ("burst", ArrivalKind::Burst),
    ("diurnal", ArrivalKind::Diurnal),
    ("trace", ArrivalKind::Trace),
];

/// `fleet-sim --placement`, long and short.
pub const PLACEMENTS: &[(&str, PlacementPolicy)] = &[
    ("consistent-hash", PlacementPolicy::ConsistentHash),
    ("hash", PlacementPolicy::ConsistentHash),
    ("ch", PlacementPolicy::ConsistentHash),
    ("popularity", PlacementPolicy::PopularityAware),
    ("popularity-aware", PlacementPolicy::PopularityAware),
    ("pa", PlacementPolicy::PopularityAware),
];

/// `tune --search`.
pub const SEARCHES: &[(&str, SearchMode)] = &[
    ("exhaustive", SearchMode::Exhaustive),
    ("brute", SearchMode::Exhaustive),
    ("brute-force", SearchMode::Exhaustive),
    ("guided", SearchMode::Guided),
];

/// `tune --ecc` levels.
pub const ON_OFF: &[(&str, bool)] = &[
    ("on", true),
    ("true", true),
    ("1", true),
    ("off", false),
    ("false", false),
    ("0", false),
];

/// Arrival-process families of `serve-sim` and `fleet-sim` (the rate and
/// trace file bind in `main.rs`).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Debug;

    /// `line` (a subcommand, its positionals and flags) checked against
    /// its spec.
    fn args(line: &str) -> Args {
        let tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&tokens).unwrap()
    }

    /// `cmd` with flag `name` given `raw`, which may be empty.
    fn with(cmd: &str, name: &str, raw: &str) -> Args {
        let mut tokens: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        tokens.extend([name.to_string(), raw.to_string()]);
        Args::parse(&tokens).unwrap()
    }

    /// Reads `raw` as flag `name` of `cmd` through `parse`.
    fn read<T>(
        cmd: &str,
        name: &str,
        raw: &str,
        parse: impl Fn(&Flag, &str) -> Result<T, String>,
    ) -> Result<T, String> {
        with(cmd, name, raw).get(name, parse)
    }

    /// Reads `raw` as axis flag `name` of `tune` into its design space.
    fn axis(name: &str, raw: &str) -> Result<TuneSpace, String> {
        with("tune", name, raw).tune_space()
    }

    /// Asserts that `parse` rejects each of `raws` for flag `name` of `cmd`
    /// with a message naming the flag, the value (or its offending list
    /// entry) and the accepted `range`.
    fn rejects<T: Debug>(
        cmd: &str,
        name: &str,
        raws: &[&str],
        parse: impl Fn(&Flag, &str) -> Result<T, String>,
        range: &str,
    ) {
        rejects_by(cmd, name, raws, |a| a.get(name, &parse), range);
    }

    /// [`rejects`] for a value read by `read` as the binary reads it.
    fn rejects_by<T: Debug>(
        cmd: &str,
        name: &str,
        raws: &[&str],
        read: impl Fn(&Args) -> Result<T, String>,
        range: &str,
    ) {
        for raw in raws {
            let e = read(&with(cmd, name, raw)).unwrap_err();
            let shown = raw.split(',').any(|tok| e.contains(&format!("'{tok}'")));
            assert!(
                e.contains(name) && shown && e.contains(range),
                "{name} {raw}: {e}"
            );
        }
    }

    #[test]
    fn batch_accepts_positive_integers() {
        for n in [1usize, 64, 256] {
            assert_eq!(read("simulate", "--batch", &n.to_string(), count), Ok(n));
        }
        assert_eq!(args("profile").get("--batch", count), Ok(1usize));
    }

    #[test]
    fn batch_rejects_zero_and_junk() {
        let raws = ["0", "-3", "four", "2.5", "257", "18446744073709551615"];
        rejects("simulate", "--batch", &raws, count::<usize>, "1..=256");
    }

    #[test]
    fn fraction_accepts_half_open_unit_interval() {
        for (raw, f) in [("0.05", 0.05), ("1", 1.0), ("1e-3", 1e-3)] {
            assert_eq!(read("simulate", "--candidates", raw, fraction), Ok(f));
        }
        assert_eq!(args("serve-sim").get("--candidates", fraction), Ok(0.05));
    }

    #[test]
    fn fraction_rejects_out_of_range_and_junk() {
        let raws = ["0", "-0.1", "1.5", "NaN", "inf", "lots"];
        rejects("offload-plan", "--candidates", &raws, fraction, "(0, 1]");
    }

    #[test]
    fn threads_accepts_positive_integers() {
        assert_eq!(args("simulate --threads 1").threads(), Ok(Some(1)));
        assert_eq!(args("tune --threads 16").threads(), Ok(Some(16)));
    }

    #[test]
    fn threads_rejects_zero_and_junk() {
        let raws = ["0", "-2", "many"];
        rejects_by("fault-sweep", "--threads", &raws, Args::threads, ">= 1");
        let e = args("profile --threads 0").threads().unwrap_err();
        assert!(e.contains("--threads") && e.contains("'0'"), "{e}");
    }

    #[test]
    fn count_accepts_positive_and_names_the_flag() {
        assert_eq!(read("fuzz-dram", "--seeds", "32", count), Ok(32u64));
        assert_eq!(read("fuzz-dram", "--len", "1", count), Ok(1usize));
        let raws = ["0", "many", "8193"];
        rejects("fuzz-dram", "--seeds", &raws, count::<u64>, "1..=8192");
        let raws = ["-4", "24577"];
        rejects("fuzz-dram", "--len", &raws, count::<usize>, "1..=24576");
    }

    #[test]
    fn queries_are_bounded_and_name_the_flag() {
        for n in [1usize, 65_536] {
            let raw = n.to_string();
            assert_eq!(read("fault-sweep", "--queries", &raw, count), Ok(n));
        }
        let raws = ["65537", "18446744073709551615", "0", "18446744073709551616"];
        rejects(
            "fault-sweep",
            "--queries",
            &raws,
            count::<usize>,
            "1..=65536",
        );
        let raws = ["65537"];
        rejects("serve-sim", "--quality", &raws, count::<usize>, "1..=65536");
    }

    #[test]
    fn report_format_parses() {
        assert_eq!(args("simulate --report json").json(), Ok(true));
        assert_eq!(args("tune --report TEXT").json(), Ok(false));
        assert_eq!(args("profile").json(), Ok(false));
        rejects_by("simulate", "--report", &["xml"], Args::json, "text, json");
    }

    #[test]
    fn rate_accepts_positive_finite_numbers() {
        assert_eq!(read("serve-sim", "--rate", "0.5", positive), Ok(0.5));
        assert_eq!(read("fleet-sim", "--rate", "12", positive), Ok(12.0));
        let raws = ["0", "-1", "inf", "fast"];
        rejects("serve-sim", "--rate", &raws, positive, "> 0");
    }

    #[test]
    fn arrival_kind_parses() {
        use ArrivalKind::*;
        let kinds = [
            ("poisson", Poisson),
            ("BURST", Burst),
            ("diurnal", Diurnal),
            ("trace", Trace),
        ];
        for (raw, kind) in kinds {
            let parsed = read("serve-sim", "--arrival", raw, one_of(ARRIVALS));
            assert_eq!(parsed, Ok(kind));
        }
        let all = "poisson, burst, diurnal, trace";
        rejects(
            "fleet-sim",
            "--arrival",
            &["uniform"],
            one_of(ARRIVALS),
            all,
        );
    }

    #[test]
    fn seed_accepts_any_u64_including_zero() {
        for (raw, seed) in [("0", 0), ("7", 7), ("18446744073709551615", u64::MAX)] {
            assert_eq!(args(&format!("serve-sim --seed {raw}")).seed(), Ok(seed));
        }
        if std::env::var("ENMC_SEED").is_err() {
            rejects_by("simulate", "--seed", &["-1", "3.5"], Args::seed, ">= 0");
        }
        // The ENMC_SEED arm names the variable (tests/cli.rs runs it).
        let env = Flag {
            name: "ENMC_SEED",
            ..SEED
        };
        let e = unsigned::<u64>(&env, "lucky").unwrap_err();
        assert!(e.contains("ENMC_SEED"), "{e}");
    }

    #[test]
    fn resolve_seed_prefers_the_flag_and_falls_back_to_the_default() {
        // ENMC_SEED is process-global, so only the flag and default arms
        // run here.
        if std::env::var("ENMC_SEED").is_err() {
            assert_eq!(args("tune").seed(), Ok(7));
        }
        assert_eq!(args("fault-sweep --seed 0").seed(), Ok(0));
        assert_eq!(args("offload-plan --seed 42").seed(), Ok(42));
        let e = args("simulate --seed nope").seed().unwrap_err();
        assert!(e.contains("--seed") && e.contains("'nope'"), "{e}");
    }

    #[test]
    fn ber_accepts_the_closed_unit_interval() {
        for (raw, b) in [("0", 0.0), ("1", 1.0), ("1e-4", 1e-4)] {
            assert_eq!(read("fault-sweep", "--ber", raw, unit), Ok(b));
        }
        let raws = ["1.5", "-0.1", "NaN", "noisy"];
        rejects("fault-sweep", "--ber", &raws, unit, "[0, 1]");
        rejects("fault-sweep", "--weak-columns", &["2"], unit, "[0, 1]");
    }

    #[test]
    fn multipliers_accept_a_nonempty_list_of_at_least_one() {
        let one = read("fault-sweep", "--multipliers", "1", multipliers);
        assert_eq!(one, Ok(vec![1.0]));
        let many = read("fault-sweep", "--multipliers", "1,2,4.5,32", multipliers);
        assert_eq!(many, Ok(vec![1.0, 2.0, 4.5, 32.0]));
        let raws = [",", "0.5", "2,zero", "2,,4", "inf"];
        rejects("fault-sweep", "--multipliers", &raws, multipliers, ">= 1");
    }

    #[test]
    fn multipliers_reject_a_repeated_value_however_it_is_written() {
        let raws = ["1,1", "1,1.0", "2,8,2e0", "4,1,8,4"];
        rejects(
            "fault-sweep",
            "--multipliers",
            &raws,
            multipliers,
            "each multiplier once",
        );
        let e = read("fault-sweep", "--multipliers", "8,1,8.00", multipliers).unwrap_err();
        assert!(e.contains("'8' twice (again as '8.00')"), "{e}");
    }

    #[test]
    fn wall_tolerance_accepts_nonnegative_fractions() {
        let cmd = "bench-diff a b";
        for (raw, t) in [("0", 0.0), ("0.2", 0.2), ("1.5", 1.5)] {
            assert_eq!(read(cmd, "--wall-tolerance", raw, nonnegative), Ok(t));
        }
        assert_eq!(args(cmd).get("--wall-tolerance", nonnegative), Ok(0.2));
        let raws = ["-0.1", "inf", "NaN", "loose"];
        rejects(cmd, "--wall-tolerance", &raws, nonnegative, ">= 0");
    }

    #[test]
    fn shape_parses_long_and_short_forms() {
        use FaultShape::*;
        let shapes = [
            ("lstm-wikitext2", LstmWikitext2),
            ("LSTM", LstmWikitext2),
            ("transformer", TransformerWikitext103),
            ("gnmt-wmt16", GnmtWmt16),
            ("xmlcnn", XmlcnnAmazon670k),
        ];
        for (raw, shape) in shapes {
            let parsed = read("fault-sweep", "--shape", raw, one_of(SHAPES));
            assert_eq!(parsed, Ok(shape));
        }
        assert_eq!(XmlcnnAmazon670k.name(), "xmlcnn-amazon670k");
        assert!(SHAPES.iter().all(|(n, s)| s.name().starts_with(n)));
        let all = "lstm-wikitext2, lstm, transformer-wikitext103";
        rejects("fault-sweep", "--shape", &["resnet"], one_of(SHAPES), all);
    }

    #[test]
    fn memory_parses_every_preset_case_insensitively() {
        let raws = ["ddr4-2666", "DDR5-4800", "lpddr4-3200", "HBM2"];
        for (raw, tech) in raws.iter().zip(MemTech::ALL) {
            assert_eq!(with("fuzz-dram", "--memory", raw).memory(), Ok(tech));
        }
        let all = "ddr4-2666, ddr5-4800, lpddr4-3200, hbm2";
        rejects_by("simulate", "--memory", &["ddr3", "help"], Args::memory, all);
    }

    #[test]
    fn memory_levels_accept_lists_and_name_the_offender() {
        let levels = |raw| axis("--memory", raw).map(|s| s.memory);
        let both = levels("ddr4-2666,hbm2");
        assert_eq!(both, Ok(vec![MemTech::Ddr4_2666, MemTech::Hbm2]));
        assert_eq!(levels("ddr5-4800"), Ok(vec![MemTech::Ddr5_4800]));
        let default = args("tune").tune_space().map(|s| s.memory);
        assert_eq!(default, Ok(vec![MemTech::Ddr4_2666]));
        let raws = [",", "ddr4-2666,gddr6"];
        rejects_by("tune", "--memory", &raws, Args::tune_space, "hbm2");
    }

    #[test]
    fn common_args_default_to_the_ddr4_baseline_memory() {
        assert_eq!(args("simulate").memory(), Ok(MemTech::Ddr4_2666));
        assert_eq!(args("serve-sim --memory hbm2").memory(), Ok(MemTech::Hbm2));
        let e = args("fault-sweep --memory sram").memory().unwrap_err();
        assert!(e.contains("--memory") && e.contains("'sram'"), "{e}");
    }

    #[test]
    fn common_args_memory_lists_are_a_tune_axis_only() {
        let e = args("simulate --memory ddr5-4800,hbm2")
            .memory()
            .unwrap_err();
        assert!(
            e.contains("'ddr5-4800,hbm2'") && e.contains("ddr4-2666"),
            "{e}"
        );
        let levels = axis("--memory", "ddr5-4800,hbm2").map(|s| s.memory);
        assert_eq!(levels, Ok(vec![MemTech::Ddr5_4800, MemTech::Hbm2]));
    }

    #[test]
    fn cost_model_parses_both_backends_and_short_forms() {
        let backend = |line: &str| args(line).backend();
        let surrogate = Ok(CostBackend::Surrogate { audit_rate: 0.1 });
        let accurate = Ok(CostBackend::CycleAccurate);
        assert_eq!(backend("serve-sim --cost-model cycle-accurate"), accurate);
        assert_eq!(backend("tune --cost-model CYCLE"), accurate);
        assert_eq!(backend("fleet-sim --cost-model surrogate"), surrogate);
        let e = backend("offload-plan --cost-model oracle").unwrap_err();
        assert!(e.contains("--cost-model") && e.contains("'oracle'"), "{e}");
    }

    #[test]
    fn audit_rate_accepts_the_closed_unit_interval() {
        for (raw, audit_rate) in [("0", 0.0), ("0.1", 0.1), ("1", 1.0)] {
            let a = with("serve-sim --cost-model surrogate", "--audit-rate", raw);
            assert_eq!(a.backend(), Ok(CostBackend::Surrogate { audit_rate }));
        }
        let raws = ["1.5", "-0.1", "NaN", "always"];
        rejects_by("serve-sim", "--audit-rate", &raws, Args::backend, "[0, 1]");
        // Checked even when the cycle-accurate backend will not use it.
        let e = args("serve-sim --audit-rate 2").backend().unwrap_err();
        assert!(e.contains("--audit-rate") && e.contains("[0, 1]"), "{e}");
    }

    #[test]
    fn placement_parses_both_policies_and_short_forms() {
        use PlacementPolicy::*;
        let policies = [
            ("consistent-hash", ConsistentHash),
            ("CH", ConsistentHash),
            ("popularity", PopularityAware),
            ("popularity-aware", PopularityAware),
        ];
        for (raw, policy) in policies {
            let parsed = read("fleet-sim", "--placement", raw, one_of(PLACEMENTS));
            assert_eq!(parsed, Ok(policy));
        }
        let all = "consistent-hash";
        rejects(
            "fleet-sim",
            "--placement",
            &["random"],
            one_of(PLACEMENTS),
            all,
        );
    }

    #[test]
    fn tenant_priority_is_monotone_without_overflow() {
        let slos: Vec<u64> = (0..2).map(|i| tenant_priority(1 << 63, i).0).collect();
        assert_eq!(
            slos,
            vec![1 << 63, u64::MAX],
            "t1's SLO saturates, never wraps to 0"
        );
        let sheds: Vec<usize> = (0..65).map(|i| tenant_priority(100_000, i).1).collect();
        assert_eq!(&sheds[..5], &[48, 24, 12, 6, 4]);
        assert!(
            sheds.windows(2).all(|w| w[1] <= w[0]),
            "shed depths never increase"
        );
        assert!(
            sheds.iter().all(|&d| d >= 4),
            "shed depths never drop below 4"
        );
        assert_eq!(tenant_priority(100_000, usize::MAX), (u64::MAX, 4));
        for slo in [0, 1, 100_000, 1 << 63, u64::MAX] {
            let s: Vec<u64> = (0..65).map(|i| tenant_priority(slo, i).0).collect();
            assert!(
                s.windows(2).all(|w| w[1] >= w[0]),
                "SLOs never decrease: {slo}"
            );
        }
    }

    #[test]
    fn zipf_accepts_only_the_half_step_grid() {
        for (raw, s) in [("0", 0.0), ("0.5", 0.5), ("1", 1.0), ("1.5", 1.5)] {
            assert_eq!(read("fleet-sim", "--zipf", raw, zipf), Ok(s));
        }
        assert_eq!(args("fleet-sim").get("--zipf", zipf), Ok(1.0));
        rejects("fleet-sim", "--zipf", &["0.7"], zipf, "multiple of 0.5");
        rejects("fleet-sim", "--zipf", &["-1", "inf", "hot"], zipf, ">= 0");
    }

    #[test]
    fn degrade_tiers_delegate_to_the_serving_grammar() {
        let ladder = read("serve-sim", "--degrade-tiers", "100:0,50:1", tiers).unwrap();
        assert_eq!(ladder.len(), 2);
        assert_eq!(ladder[1].candidates, 50);
        let e = read("offload-plan", "--degrade-tiers", "50:1,100:0", tiers).unwrap_err();
        assert!(e.contains("--degrade-tiers"), "{e}");
        assert_eq!(args("serve-sim").opt("--degrade-tiers", tiers), Ok(None));
    }

    #[test]
    fn axis_levels_accept_positive_lists_and_name_the_flag() {
        let ranks = axis("--ranks", "32,64").map(|s| s.ranks);
        assert_eq!(ranks, Ok(vec![32, 64]));
        assert_eq!(axis("--lanes", "128").map(|s| s.lanes), Ok(vec![128]));
        let space = |flag, raws: &[&str], range| {
            rejects_by("tune", flag, raws, Args::tune_space, range);
        };
        space("--ranks", &[",", "32,many"], ">= 1");
        space("--lanes", &["64,0"], ">= 1");
        space("--candidates", &["0.05"], ">= 1");
        space("--batch-max", &["4,0"], ">= 1");
        // A level past the axis type's maximum names that maximum.
        let raws = ["4294967296", "4294967300"];
        space("--screen-bits", &raws, "integer in 1..=4294967295");
    }

    #[test]
    fn axis_counts_accept_zero_levels() {
        let shifts = axis("--screen-shift", "0,1,2").map(|s| s.screen_shift);
        assert_eq!(shifts, Ok(vec![0, 1, 2]));
        assert_eq!(axis("--linger", "0").map(|s| s.linger_cycles), Ok(vec![0]));
        rejects_by("tune", "--linger", &[","], Args::tune_space, ">= 0");
        let range = "in 0..=4294967295";
        rejects_by("tune", "--screen-shift", &["0,-1"], Args::tune_space, range);
    }

    #[test]
    fn ecc_levels_parse_on_off_synonyms() {
        let ecc = |raw| axis("--ecc", raw).map(|s| s.ecc);
        assert_eq!(ecc("off,on"), Ok(vec![false, true]));
        assert_eq!(ecc("TRUE"), Ok(vec![true]));
        assert_eq!(ecc("0"), Ok(vec![false]));
        let all = "on, true, 1, off";
        rejects_by("tune", "--ecc", &[",", "on,maybe"], Args::tune_space, all);
    }

    #[test]
    fn tune_defaults_span_the_small_space() {
        assert_eq!(args("tune").tune_space(), Ok(TuneSpace::small()));
    }

    #[test]
    fn budget_caps_must_be_positive_and_finite() {
        assert_eq!(
            args("tune --max-area-mm2 120.5").opt("--max-area-mm2", positive),
            Ok(Some(120.5))
        );
        assert_eq!(args("tune").opt("--max-power-mw", positive), Ok(None));
        rejects("tune", "--max-area-mm2", &["0", "big"], positive, "> 0");
        rejects("tune", "--max-power-mw", &["-3", "inf"], positive, "> 0");
    }

    #[test]
    fn search_mode_parses_both_strategies() {
        use SearchMode::*;
        let modes = [
            ("exhaustive", Exhaustive),
            ("BRUTE-FORCE", Exhaustive),
            ("guided", Guided),
        ];
        for (raw, mode) in modes {
            assert_eq!(read("tune", "--search", raw, one_of(SEARCHES)), Ok(mode));
        }
        rejects("tune", "--search", &["random"], one_of(SEARCHES), "guided");
    }

    #[test]
    fn common_args_default_when_no_flags_are_given() {
        // ENMC_SEED/ENMC_THREADS are process-global; only assert the
        // env-free arms when the hooks are unset.
        let a = args("serve-sim");
        if std::env::var("ENMC_SEED").is_err() {
            assert_eq!(a.seed(), Ok(7));
        }
        if std::env::var("ENMC_THREADS").is_err() {
            assert_eq!(a.threads(), Ok(None));
        }
        assert_eq!(a.backend(), Ok(CostBackend::CycleAccurate));
        assert_eq!(a.json(), Ok(false));
        let a = args("serve-sim --cost-model surrogate");
        assert_eq!(a.backend(), Ok(CostBackend::Surrogate { audit_rate: 0.1 }));
    }

    #[test]
    fn common_args_parse_every_shared_flag() {
        let a = args(concat!(
            "serve-sim --seed 42 --threads 4 --cost-model surrogate --audit-rate 0.5",
            " --report json --memory lpddr4-3200",
        ));
        assert_eq!(a.seed(), Ok(42));
        assert_eq!(a.threads(), Ok(Some(4)));
        assert_eq!(a.json(), Ok(true));
        assert_eq!(a.memory(), Ok(MemTech::Lpddr4_3200));
        assert_eq!(a.backend(), Ok(CostBackend::Surrogate { audit_rate: 0.5 }));
    }

    #[test]
    fn common_args_backend_default_binds_per_subcommand() {
        for cmd in ["serve-sim", "fleet-sim", "offload-plan"] {
            assert_eq!(args(cmd).backend(), Ok(CostBackend::CycleAccurate), "{cmd}");
        }
        let tune = args("tune").backend();
        assert_eq!(tune, Ok(CostBackend::Surrogate { audit_rate: 0.1 }));
    }

    #[test]
    fn common_args_surface_the_failing_flag() {
        let e = args("serve-sim --threads 0").threads().unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        let e = args("serve-sim --cost-model oracle").backend().unwrap_err();
        assert!(e.contains("'oracle'"), "{e}");
        let e = args("serve-sim --audit-rate 2").backend().unwrap_err();
        assert!(e.contains("[0, 1]"), "{e}");
        let e = args("serve-sim --report xml").json().unwrap_err();
        assert!(e.contains("'xml'"), "{e}");
    }

    #[test]
    fn flag_value_returns_the_following_token() {
        let a = args("simulate --seed 9 --check-protocol");
        assert_eq!(a.text("--seed"), Some("9"));
        assert!(a.on("--check-protocol"));
        assert_eq!(a.text("--trace-out"), None);
        // A single dash starts a value, so the value's own check reports
        // it; an empty token, a flag or nothing after a value flag is no
        // value at all.
        assert_eq!(args("fault-sweep --ber -0.1").text("--ber"), Some("-0.1"));
        for (line, flag) in [
            (&["serve-sim", "--coeffs", "--offload"][..], "--coeffs"),
            (
                &["simulate", "--trace-out", "--check-protocol"],
                "--trace-out",
            ),
            (&["tune", "--memory", ""], "--memory"),
            (&["simulate", "--batch", "2", "--seed"], "--seed"),
        ] {
            let argv: Vec<String> = line.iter().map(|t| t.to_string()).collect();
            let e = Args::parse(&argv).unwrap_err();
            let usage = format!("usage: enmc {}", line[0]);
            assert!(
                e.contains(&format!("'{flag}' needs a value")) && e.contains(&usage),
                "{e}"
            );
        }
    }

    #[test]
    fn every_command_declares_each_flag_once() {
        for c in COMMANDS {
            let names: Vec<&str> = c.flags().map(|f| f.name).collect();
            for (i, f) in c.flags().enumerate() {
                assert!(f.name.starts_with("--"), "{} {}", c.name, f.name);
                assert!(
                    !names[..i].contains(&f.name),
                    "{} declares {} twice",
                    c.name,
                    f.name
                );
                if f.value.is_empty() {
                    assert!(
                        f.default.is_empty() && f.max == u64::MAX,
                        "switch {}",
                        f.name
                    );
                }
                if f.max < u64::MAX && !f.default.is_empty() {
                    assert!(f.default.parse::<u64>().unwrap() <= f.max, "{}", f.name);
                }
            }
            let usage = c.usage();
            assert!(names.iter().all(|n| usage.contains(n)), "{usage}");
        }
        let usage = args("fuzz-dram").cmd.usage();
        assert!(usage.contains("--seeds N") && usage.contains("(default 32, at most 8192)"));
    }
}
