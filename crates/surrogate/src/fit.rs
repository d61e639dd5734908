//! Per-shape surrogate fitting: a deterministic design-of-experiments
//! sampler runs the cycle-accurate rank-unit on a full factorial
//! (batch × candidate-level) anchor grid, then models every
//! [`UnitReport`] counter with the cheapest form that holds it to the
//! audit bound:
//!
//! - **Smooth work counters** (busy cycles, byte counts, DRAM command
//!   mix) are affine in analytic work features and fitted by
//!   relative-error-weighted ridge regression with nonnegativity on the
//!   work features ([`TARGETS`]).
//! - **Timeline values** (total cycles, the gather window, the
//!   screen-phase stall, idle cycles) are *not* globally affine — the
//!   pipeline overlap is a hinge, the stall is non-monotone in batch —
//!   so they are carried as an anchor table over the grid and answered
//!   by bilinear interpolation ([`TABLE_COLS`]). The batch axis
//!   enumerates every batch up to the envelope, so integral batches hit
//!   a grid row exactly and only the candidate axis interpolates.
//!
//! Everything is deterministic: the anchor plan is a pure function of
//! the fit envelope, the normal equations are solved with partial-pivot
//! Gaussian elimination in a fixed order, and the table is filled in
//! grid order — two fits from the same anchors are byte-identical.

use enmc_arch::unit::{RankJob, RankUnit, UnitParams, UnitReport};
use enmc_dram::stats::MAX_BANK_GROUPS;
use enmc_dram::DramStats;
use enmc_obs::{json, record};

/// Counter targets fitted per shape by weighted monotone ridge, in
/// serialization order. The DRAM statistics carry the `dram.` prefix.
/// `dram.refresh_interval` is special-cased: all-bank refresh fires on
/// a fixed cycle cadence (tREFI, modulo postponement), so its row
/// carries the pooled cycles-per-refresh interval in slot 0 — estimated
/// only over anchors that actually refreshed — and predicted refreshes
/// are `floor(dram_cycles / interval)`. The floor matters: simulations
/// shorter than one interval truly issue zero refreshes, and a smooth
/// rate model would wrongly charge them refresh energy.
pub const TARGETS: &[&str] = &[
    "screener_busy",
    "executor_busy",
    "sfu_cycles",
    "screen_bytes",
    "exact_bytes",
    "spill_bytes",
    "dram.reads",
    "dram.writes",
    "dram.activations",
    "dram.precharges",
    "dram.refresh_interval",
    "dram.row_hits",
    "dram.row_misses",
    "dram.row_conflicts",
    "dram.busy_cycles",
    "dram.bank_group0",
    "dram.bank_group1",
    "dram.bank_group2",
    "dram.bank_group3",
];

/// Row indices into [`TARGETS`].
const T_SCREENER_BUSY: usize = 0;
const T_EXECUTOR_BUSY: usize = 1;
const T_SFU: usize = 2;
const T_REFRESH_INTERVAL: usize = 10;
const T_BUSY: usize = 14;
const T_BANK0: usize = 15;

/// Timeline values carried as an anchor table instead of a regression
/// row, in column order. Attribution leaves are *differences* of phase
/// boundaries, so a small relative error on a large absolute position
/// amplifies into a large relative error on the window between two
/// boundaries — and the windows themselves are genuinely nonlinear
/// (pipeline overlap is a `max()` of affine forms; screen-phase DRAM
/// contention is not even monotone in batch). The table answers them
/// exactly at anchors and bilinearly in between:
///
/// - `dram_cycles`: the headline total. A 2-D running max over the grid
///   makes the table nondecreasing along both axes, so the interpolated
///   prediction is *monotone in batch and candidate count by
///   construction*.
/// - `gather_window` (`exec_done − screen_done`): the executor's drain
///   span, clamped to the total at evaluation.
/// - `screen_stall` (`screen_done − screener_busy`): DRAM contention
///   during screening.
/// - `idle_cycles`: power-down idle. Its smooth component (roughly one
///   quiet gap per batch item while the screener is compute-bound)
///   interpolates well; the residual is refresh-window-quantized — every
///   REF wakes the rank, so single-cycle shifts of a quiet span across a
///   tREFI boundary move up to a whole window of idle. The audit
///   therefore floors the background-power leaves at one window of
///   energy per shard rather than asking the table to resolve below
///   that quantum.
pub const TABLE_COLS: &[&str] =
    &["dram_cycles", "gather_window", "screen_stall", "idle_cycles"];

/// Number of table columns (see [`TABLE_COLS`]).
pub const N_TABLE: usize = 4;

const K_DRAM: usize = 0;
const K_WINDOW: usize = 1;
const K_STALL: usize = 2;
const K_IDLE: usize = 3;

/// Work features of one rank job (see [`features`]).
pub const N_FEATURES: usize = 6;

/// The analytic feature vector of a rank job. Every non-intercept entry
/// is nondecreasing in both `batch` and the per-item candidate count, so
/// any nonnegative combination of them is monotone in the load axes.
///
/// `batch_reuse` is how many batch items share one streamed weight tile
/// (from [`UnitParams::batch_reuse`]); `ceil(batch / batch_reuse)` is the
/// number of times the screening weights stream from DRAM.
pub fn features(job: &RankJob, batch_reuse: usize) -> [f64; N_FEATURES] {
    let b = job.batch as f64;
    let groups = job.batch.div_ceil(batch_reuse.max(1)) as f64;
    let cand = job.total_candidates() as f64;
    let cat = job.categories as f64;
    let red = job.reduced as f64;
    let hid = job.hidden as f64;
    [
        1.0,
        b,
        groups * cat * red * 1e-6,
        cand * hid * 1e-6,
        cand * 1e-3,
        b * cat * 1e-6,
    ]
}

/// Extracts the [`TARGETS`] values of a report, in order.
pub fn extract_targets(r: &UnitReport) -> Vec<f64> {
    let d = &r.dram;
    vec![
        r.screener_busy as f64,
        r.executor_busy as f64,
        r.sfu_cycles as f64,
        r.screen_bytes as f64,
        r.exact_bytes as f64,
        r.spill_bytes as f64,
        d.reads as f64,
        d.writes as f64,
        d.activations as f64,
        d.precharges as f64,
        d.refreshes as f64,
        d.row_hits as f64,
        d.row_misses as f64,
        d.row_conflicts as f64,
        d.busy_cycles as f64,
        d.bank_group_accesses[0] as f64,
        d.bank_group_accesses[1] as f64,
        d.bank_group_accesses[2] as f64,
        d.bank_group_accesses[3] as f64,
    ]
}

/// Extracts the [`TABLE_COLS`] values of a report, in column order.
pub fn extract_table(r: &UnitReport) -> [f64; N_TABLE] {
    let window = r.exec_done_cycle.saturating_sub(r.screen_done_cycle);
    [
        r.dram_cycles as f64,
        window as f64,
        r.screen_done_cycle.saturating_sub(r.screener_busy) as f64,
        r.dram.idle_cycles as f64,
    ]
}

/// SplitMix64: the repo's stateless seeded-hash idiom (fault maps, query
/// sampling). Used for the audit lottery.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

record! {
    /// One fitted shape: ridge coefficients for every smooth target, the
    /// anchor table for the timeline values, and the envelope the anchors
    /// covered. Queries inside the envelope interpolate; queries outside
    /// extrapolate linearly from the edge grid segment (the audit keeps
    /// that honest). It is one entry of a coefficient file
    /// ([`crate::CoeffFile`]), whose reader checks the grid and table
    /// sizes and the target rows.
    ShapeFit {
        /// Per-rank categories of the representative slice the anchors ran.
        categories: usize,
        /// Hidden dimension `d`.
        hidden: usize,
        /// Reduced dimension `k`.
        reduced: usize,
        /// Batch items sharing one streamed weight tile (fixed by `reduced`
        /// and the unit's buffer, recorded so prediction needs no params).
        batch_reuse: usize,
        /// Cycle-accurate anchor simulations the fit consumed.
        anchors: usize,
        /// Largest anchored batch.
        batch_hi: usize,
        /// Largest anchored per-item candidate count.
        cand_hi: usize,
        /// Simulated nanoseconds per DRAM cycle (constant for a DDR4 speed
        /// grade; averaged over anchors).
        ns_per_cycle: f64,
        /// Sorted batch values of the anchor grid rows.
        grid_batches: Vec<usize>,
        /// Sorted per-item candidate levels of the anchor grid columns.
        grid_cands: Vec<usize>,
        /// `[batch][cand]` anchor values for [`TABLE_COLS`]. Cells no anchor
        /// covered hold zero (the DoE plan is a full factorial, so this only
        /// happens for hand-built anchor sets).
        table: Vec<Vec<[f64; N_TABLE]>>,
        /// One coefficient row of [`N_FEATURES`] per target, keyed by its
        /// [`TARGETS`] name, in that order.
        targets: Vec<(String, Vec<f64>)>,
    }
    check ShapeFit::check
}

/// The deterministic anchor plan for one shape envelope: the full cross
/// product of every batch up to `min(batch_hi, 8)` (plus the envelope
/// midpoint, ceiling, and first weight-stream group boundary when the
/// envelope goes higher) with seventeen evenly spaced candidate levels
/// plus the zero-candidate column trailing shard slices land on.
/// Screen time has per-group steps at multiples of `batch_reuse` and the
/// gather window has a knee where candidate work exceeds the pipeline
/// overlap, so both axes are sampled densely rather than jittered; the
/// plan needs no randomness and is identical for every seed (the seed
/// governs the audit lottery instead).
pub fn doe_plan(
    _seed: u64,
    batch_hi: usize,
    cand_hi: usize,
    batch_reuse: usize,
) -> Vec<(usize, usize)> {
    let bhi = batch_hi.max(2);
    let chi = cand_hi.max(2);
    let r = batch_reuse.max(1);
    let mut batches: Vec<usize> = (1..=bhi.min(8)).collect();
    batches.extend([bhi.div_ceil(2), bhi]);
    if r < bhi {
        batches.push(r + 1);
    }
    batches.sort_unstable();
    batches.dedup();
    // The zero column is anchored explicitly: candidate sharding hands
    // trailing ranks zero-candidate slices, and the gather phase's fixed
    // cost makes extrapolating from c >= 1 down to 0 unsound.
    let mut cands: Vec<usize> = vec![0];
    cands.extend((0..=16).map(|i| (chi * i).div_ceil(16).max(1)));
    cands.sort_unstable();
    cands.dedup();
    let mut points = Vec::with_capacity(batches.len() * cands.len());
    for &b in &batches {
        for &c in &cands {
            points.push((b, c));
        }
    }
    points
}

/// Fits one shape from explicit anchor observations (pairs of rank job
/// and its cycle-accurate report). Exposed separately from
/// [`ShapeFit::fit`] so tests can fit from hand-built anchors.
pub fn fit_from_anchors(
    params: &UnitParams,
    anchors: &[(RankJob, UnitReport)],
) -> ShapeFit {
    assert!(!anchors.is_empty(), "surrogate fit needs at least one anchor");
    let (job0, _) = &anchors[0];
    let batch_reuse = params.batch_reuse(job0.reduced);
    let rows: Vec<[f64; N_FEATURES]> =
        anchors.iter().map(|(j, _)| features(j, batch_reuse)).collect();

    // Refresh window (tREFI in DRAM cycles). The controller issues
    // `floor((total − 1) / tREFI)` refreshes, so every refreshing anchor
    // brackets the window from above by `(total − 1) / refreshes`; the
    // minimum over anchors — tightest at the longest run — is within
    // `tREFI / max(refreshes)` of the true constant. Anchors shorter
    // than one window truly issue zero refreshes and contribute nothing.
    // Stays 0.0 when no anchor refreshed: predict() then reports zero
    // refreshes, exact for every point inside the anchored envelope.
    let refresh_window = anchors
        .iter()
        .filter(|(_, r)| r.dram.refreshes > 0)
        .map(|(_, r)| r.dram_cycles.saturating_sub(1) as f64 / r.dram.refreshes as f64)
        .fold(f64::INFINITY, f64::min);
    let refresh_window = if refresh_window.is_finite() { refresh_window } else { 0.0 };

    let mut coeffs = Vec::with_capacity(TARGETS.len());
    for (t, name) in TARGETS.iter().enumerate() {
        let y: Vec<f64> = anchors.iter().map(|(_, r)| extract_targets(r)[t]).collect();
        let row = if t == T_REFRESH_INTERVAL {
            let mut row = vec![0.0; N_FEATURES];
            row[0] = refresh_window;
            row
        } else {
            solve_monotone(&rows, &y)
        };
        coeffs.push((name.to_string(), row));
    }

    // Anchor table over the observed grid. The DoE plan is a full
    // factorial, so every cell is covered there; hand-built anchor sets
    // leave uncovered cells at zero.
    let per_item = |j: &RankJob| j.candidates_per_item.first().copied().unwrap_or(0);
    let mut grid_batches: Vec<usize> = anchors.iter().map(|(j, _)| j.batch).collect();
    grid_batches.sort_unstable();
    grid_batches.dedup();
    let mut grid_cands: Vec<usize> = anchors.iter().map(|(j, _)| per_item(j)).collect();
    grid_cands.sort_unstable();
    grid_cands.dedup();
    let mut table = vec![vec![[0.0f64; N_TABLE]; grid_cands.len()]; grid_batches.len()];
    for (j, r) in anchors {
        let bi = grid_batches.binary_search(&j.batch).expect("batch is in grid");
        let ci = grid_cands.binary_search(&per_item(j)).expect("cand level is in grid");
        table[bi][ci] = extract_table(r);
    }
    // Running 2-D max over the total-cycles column: the truth is
    // physically nondecreasing in both load axes, so this only smooths
    // measurement-scale inversions — and it makes the interpolated
    // total provably monotone.
    for bi in 0..grid_batches.len() {
        for ci in 0..grid_cands.len() {
            let mut v = table[bi][ci][K_DRAM];
            if bi > 0 {
                v = v.max(table[bi - 1][ci][K_DRAM]);
            }
            if ci > 0 {
                v = v.max(table[bi][ci - 1][K_DRAM]);
            }
            table[bi][ci][K_DRAM] = v;
        }
    }

    let mut ns_per_cycle = 0.0;
    let mut n = 0usize;
    for (_, r) in anchors {
        if r.dram_cycles > 0 {
            ns_per_cycle += r.ns / r.dram_cycles as f64;
            n += 1;
        }
    }
    ShapeFit {
        categories: job0.categories,
        hidden: job0.hidden,
        reduced: job0.reduced,
        batch_reuse,
        anchors: anchors.len(),
        batch_hi: grid_batches.last().copied().unwrap_or(1),
        cand_hi: grid_cands.last().copied().unwrap_or(1),
        ns_per_cycle: if n > 0 { ns_per_cycle / n as f64 } else { 0.0 },
        grid_batches,
        grid_cands,
        table,
        targets: coeffs,
    }
}

/// Piecewise-linear interpolation over sorted integer knots, linearly
/// extrapolating from the edge segment outside the covered range.
fn interp1(xs: &[usize], ys: &[f64], x: f64) -> f64 {
    match xs.len() {
        0 => 0.0,
        1 => ys[0],
        _ => {
            let mut i = 0;
            while i + 2 < xs.len() && x > xs[i + 1] as f64 {
                i += 1;
            }
            let (x0, x1) = (xs[i] as f64, xs[i + 1] as f64);
            if x1 == x0 {
                return ys[i];
            }
            ys[i] + (ys[i + 1] - ys[i]) * (x - x0) / (x1 - x0)
        }
    }
}

impl ShapeFit {
    /// What the field types leave open: non-empty grids, a table with one
    /// cell per grid point, and one [`N_FEATURES`]-long row per target,
    /// keyed in [`TARGETS`] order.
    fn check(&self, path: &str) -> Result<(), String> {
        let at = |key: &str| json::key_path(path, key);
        for (key, grid) in [("grid_batches", &self.grid_batches), ("grid_cands", &self.grid_cands)]
        {
            if grid.is_empty() {
                return Err(json::field_error(&at(key), "is empty"));
            }
        }
        let (nb, nc) = (self.grid_batches.len(), self.grid_cands.len());
        if self.table.len() != nb || self.table.iter().any(|row| row.len() != nc) {
            let cells: usize = self.table.iter().map(Vec::len).sum();
            let what = format_args!("has {cells} cells, expected {nb}×{nc}");
            return Err(json::field_error(&at("table"), what));
        }
        let names: Vec<&str> = self.targets.iter().map(|(name, _)| name.as_str()).collect();
        if names != TARGETS {
            let what = format_args!("has keys {names:?}, expected {TARGETS:?}");
            return Err(json::field_error(&at("targets"), what));
        }
        match self.targets.iter().find(|(_, row)| row.len() != N_FEATURES) {
            Some((name, row)) => {
                let what = format_args!("has {} values, expected {N_FEATURES}", row.len());
                Err(json::field_error(&at(&format!("targets.{name}")), what))
            }
            None => Ok(()),
        }
    }

    /// Runs the deterministic DoE anchor plan on the cycle-accurate
    /// rank-unit and fits the shape. `categories` is the per-rank
    /// category count of the representative slice; `batch_hi` /
    /// `cand_hi` bound the envelope queries are expected in.
    pub fn fit(
        params: &UnitParams,
        categories: usize,
        hidden: usize,
        reduced: usize,
        batch_hi: usize,
        cand_hi: usize,
        seed: u64,
    ) -> ShapeFit {
        let unit = RankUnit::new(*params);
        let plan = doe_plan(seed, batch_hi, cand_hi, params.batch_reuse(reduced));
        let anchors: Vec<(RankJob, UnitReport)> = plan
            .into_iter()
            .map(|(b, c)| {
                let job = RankJob {
                    categories,
                    hidden,
                    reduced,
                    batch: b,
                    candidates_per_item: vec![c; b],
                };
                let report = unit.simulate(&job);
                (job, report)
            })
            .collect();
        fit_from_anchors(params, &anchors)
    }

    /// The fitted refresh window (tREFI estimate) in DRAM cycles: the
    /// tightest `(dram_cycles - 1) / refreshes` over the refreshing
    /// anchors, or `0.0` when no anchor ran long enough to refresh.
    /// Power-down idle is quantized to this window, so audit bounds on
    /// the background-power leaves carry a one-window quantum floor.
    pub fn refresh_window(&self) -> f64 {
        self.targets[T_REFRESH_INTERVAL].1[0]
    }

    /// Bilinear table lookup for column `k` at the job's (batch, mean
    /// per-item candidates) coordinate: candidate-axis interpolation
    /// within each bracketing batch row, then batch-axis interpolation
    /// between them. Batches inside the grid hit a row exactly.
    fn table_eval(&self, k: usize, batch: f64, cand: f64) -> f64 {
        let per_b: Vec<f64> = self
            .table
            .iter()
            .map(|row| {
                let ys: Vec<f64> = row.iter().map(|cell| cell[k]).collect();
                interp1(&self.grid_cands, &ys, cand)
            })
            .collect();
        interp1(&self.grid_batches, &per_b, batch).max(0.0)
    }

    /// Predicts the rank-unit report for `job` in pure arithmetic.
    /// Integer counters round to the nearest count (clamped at zero);
    /// phase boundaries are re-ordered so the attribution partition the
    /// cycle-accurate path guarantees also holds on predictions.
    pub fn predict(&self, job: &RankJob) -> UnitReport {
        let x = features(job, self.batch_reuse);
        let mut v = [0.0f64; 24];
        for (t, (_, row)) in self.targets.iter().enumerate() {
            let mut y = 0.0;
            for (xi, ci) in x.iter().zip(row) {
                y += xi * ci;
            }
            v[t] = y.max(0.0);
        }
        let u = |i: usize| v[i].round().max(0.0) as u64;
        // Timeline reconstruction from the anchor table (see
        // [`TABLE_COLS`]): the monotone total, the gather window capped
        // by it, and the screen boundary capped so the attribution
        // partition (screen ≤ gather ≤ total) holds.
        let b = job.batch.max(1) as f64;
        let c = job.total_candidates() as f64 / b;
        let dram_cycles = (self.table_eval(K_DRAM, b, c).round() as u64).max(1);
        let window = (self.table_eval(K_WINDOW, b, c).round() as u64).min(dram_cycles);
        let stall = self.table_eval(K_STALL, b, c).round() as u64;
        let base = dram_cycles - window;
        let screener_busy = u(T_SCREENER_BUSY);
        let executor_busy = u(T_EXECUTOR_BUSY);
        let screen_done = (screener_busy + stall).min(base);
        let exec_done = screen_done + window;
        let total_cycles = dram_cycles;
        // Refresh arithmetic mirrors the controller exactly: one REF per
        // whole tREFI window elapsed by the predicted total.
        let window_cycles = self.refresh_window();
        let refreshes = if window_cycles >= 1.0 {
            (dram_cycles.saturating_sub(1) as f64 / window_cycles).floor().max(0.0) as u64
        } else {
            0
        };
        let busy_cycles = u(T_BUSY).min(total_cycles);
        let idle_cycles =
            (self.table_eval(K_IDLE, b, c).round() as u64).min(total_cycles - busy_cycles);
        let mut bank_group_accesses = [0u64; MAX_BANK_GROUPS];
        for (g, slot) in bank_group_accesses.iter_mut().enumerate() {
            *slot = u(T_BANK0 + g);
        }
        UnitReport {
            dram_cycles,
            ns: dram_cycles as f64 * self.ns_per_cycle,
            screener_busy: screener_busy.min(dram_cycles),
            executor_busy: executor_busy.min(dram_cycles),
            sfu_cycles: u(T_SFU).min(dram_cycles),
            dram: DramStats {
                reads: u(6),
                writes: u(7),
                activations: u(8),
                precharges: u(9),
                refreshes,
                row_hits: u(11),
                row_misses: u(12),
                row_conflicts: u(13),
                busy_cycles,
                idle_cycles,
                total_cycles,
                bank_group_accesses,
            },
            screen_bytes: u(3),
            exact_bytes: u(4),
            spill_bytes: u(5),
            screen_done_cycle: screen_done,
            exec_done_cycle: exec_done,
            protocol_violations: 0,
        }
    }
}

/// Least squares with ridge damping and nonnegativity on the work
/// features: solve, clamp negative non-intercept coefficients to zero,
/// and re-solve over the surviving features until the sign constraint
/// holds. Deterministic for deterministic inputs, and nondecreasing in
/// batch and candidate count because every feature is.
fn solve_monotone(rows: &[[f64; N_FEATURES]], y: &[f64]) -> Vec<f64> {
    let mut active = [true; N_FEATURES];
    loop {
        let coeffs = solve_ridge(rows, y, &active);
        let mut clamped = false;
        for (j, c) in coeffs.iter().enumerate() {
            if j > 0 && active[j] && *c < 0.0 {
                active[j] = false;
                clamped = true;
            }
        }
        if !clamped {
            return coeffs;
        }
    }
}

/// Ridge-damped *relative-error-weighted* normal equations over the
/// active feature columns, solved by partial-pivot Gaussian elimination.
/// Inactive columns get a zero coefficient. Each observation is weighted
/// by `1/max(|y|, 512)²` so the solver minimizes relative error — the
/// criterion the audit judges — rather than absolute error, which would
/// let the largest anchors wreck the small ones relatively. The damping
/// (`1e-8` of the mean diagonal) makes the collinear per-shape systems
/// (fixed categories/hidden) solvable without changing well-conditioned
/// fits measurably.
fn solve_ridge(rows: &[[f64; N_FEATURES]], y: &[f64], active: &[bool; N_FEATURES]) -> Vec<f64> {
    let cols: Vec<usize> =
        (0..N_FEATURES).filter(|&j| active[j]).collect();
    let k = cols.len();
    // Column scales keep the system conditioned across wildly different
    // feature magnitudes.
    let mut scale = vec![1.0f64; k];
    for (s, &j) in scale.iter_mut().zip(&cols) {
        let m = rows.iter().map(|r| r[j].abs()).fold(0.0f64, f64::max);
        *s = if m > 0.0 { m } else { 1.0 };
    }
    let mut a = vec![vec![0.0f64; k]; k];
    let mut b = vec![0.0f64; k];
    for (r, &yv) in rows.iter().zip(y) {
        let w = 1.0 / yv.abs().max(512.0).powi(2);
        for p in 0..k {
            let xp = r[cols[p]] / scale[p];
            for q in 0..k {
                a[p][q] += w * xp * r[cols[q]] / scale[q];
            }
            b[p] += w * xp * yv;
        }
    }
    let mean_diag: f64 = (0..k).map(|p| a[p][p]).sum::<f64>() / k.max(1) as f64;
    let lambda = 1e-8 * mean_diag.max(1e-12);
    for (p, row) in a.iter_mut().enumerate() {
        row[p] += lambda;
    }
    // Partial-pivot Gaussian elimination (ties keep the lowest row, so
    // the factorization order never depends on anything but the values).
    for p in 0..k {
        let mut pivot = p;
        for r in p + 1..k {
            if a[r][p].abs() > a[pivot][p].abs() {
                pivot = r;
            }
        }
        a.swap(p, pivot);
        b.swap(p, pivot);
        let d = a[p][p];
        if d == 0.0 {
            continue;
        }
        for r in p + 1..k {
            let f = a[r][p] / d;
            if f == 0.0 {
                continue;
            }
            for c in p..k {
                let v = a[p][c];
                a[r][c] -= f * v;
            }
            b[r] -= f * b[p];
        }
    }
    let mut x = vec![0.0f64; k];
    for p in (0..k).rev() {
        let mut s = b[p];
        for c in p + 1..k {
            s -= a[p][c] * x[c];
        }
        x[p] = if a[p][p] != 0.0 { s / a[p][p] } else { 0.0 };
    }
    let mut out = vec![0.0f64; N_FEATURES];
    for (p, &j) in cols.iter().enumerate() {
        out[j] = x[p] / scale[p];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_arch::config::EnmcConfig;

    fn params() -> UnitParams {
        UnitParams::enmc(&EnmcConfig::table3())
    }

    fn rank_job(b: usize, c: usize) -> RankJob {
        RankJob { categories: 520, hidden: 64, reduced: 16, batch: b, candidates_per_item: vec![c; b] }
    }

    #[test]
    fn doe_plan_is_a_deterministic_full_factorial() {
        let a = doe_plan(7, 8, 40, 4);
        let b = doe_plan(7, 8, 40, 4);
        assert_eq!(a, b);
        let c = doe_plan(8, 8, 40, 4);
        assert_eq!(a, c, "the plan is seed-invariant; the seed drives the audit lottery");
        for bb in 1..=8usize {
            for cc in [1usize, 20, 40] {
                assert!(a.contains(&(bb, cc)), "full factorial must cover b{bb} c{cc}");
            }
        }
        assert!(a.len() >= N_FEATURES, "need at least as many anchors as features");
    }

    #[test]
    fn fit_reproduces_anchor_grid_points_exactly_and_interpolates_closely() {
        let p = params();
        let fit = ShapeFit::fit(&p, 520, 64, 16, 8, 40, 7);
        let unit = RankUnit::new(p);
        // On-grid: the table answers the headline total exactly (modulo
        // the monotone running max, which only lifts inversions).
        for (b, c) in [(1usize, 10usize), (3, 20), (8, 40)] {
            let job = rank_job(b, c);
            let truth = unit.simulate(&job);
            let pred = fit.predict(&job);
            assert!(
                pred.dram_cycles >= truth.dram_cycles,
                "b{b} c{c}: monotone table may only lift"
            );
            let err = (pred.dram_cycles as f64 - truth.dram_cycles as f64)
                / truth.dram_cycles as f64;
            assert!(err < 0.01, "b{b} c{c}: {} vs {}", pred.dram_cycles, truth.dram_cycles);
        }
        // Off-grid candidate counts interpolate within the audit bound.
        for (b, c) in [(2usize, 13usize), (5, 27), (7, 33)] {
            let job = rank_job(b, c);
            let truth = unit.simulate(&job);
            let pred = fit.predict(&job);
            let err = (pred.dram_cycles as f64 - truth.dram_cycles as f64).abs()
                / truth.dram_cycles as f64;
            assert!(err < 0.05, "b{b} c{c}: {} vs {} ({err:.4})", pred.dram_cycles, truth.dram_cycles);
        }
    }

    #[test]
    fn fits_are_byte_identical_for_the_same_seed() {
        let p = params();
        let a = ShapeFit::fit(&p, 520, 64, 16, 8, 40, 7);
        let b = ShapeFit::fit(&p, 520, 64, 16, 8, 40, 7);
        assert_eq!(a, b);
        for ((_, ra), (_, rb)) in a.targets.iter().zip(&b.targets) {
            for (ca, cb) in ra.iter().zip(rb) {
                assert_eq!(ca.to_bits(), cb.to_bits(), "coefficients must match bitwise");
            }
        }
        for (ra, rb) in a.table.iter().zip(&b.table) {
            for (ca, cb) in ra.iter().zip(rb) {
                for (va, vb) in ca.iter().zip(cb) {
                    assert_eq!(va.to_bits(), vb.to_bits(), "table must match bitwise");
                }
            }
        }
    }

    #[test]
    fn predictions_are_monotone_in_batch_and_candidates() {
        let p = params();
        let fit = ShapeFit::fit(&p, 520, 64, 16, 8, 40, 7);
        let mut prev = 0u64;
        for b in 1..=8 {
            let r = fit.predict(&rank_job(b, 20));
            assert!(r.dram_cycles >= prev, "batch {b} must not speed the job up");
            prev = r.dram_cycles;
        }
        let mut prev = 0u64;
        for c in [1usize, 5, 10, 20, 40] {
            let r = fit.predict(&rank_job(2, c));
            assert!(r.dram_cycles >= prev, "candidates {c} must not speed the job up");
            prev = r.dram_cycles;
        }
    }

    #[test]
    fn predicted_reports_keep_the_attribution_partition_valid() {
        let p = params();
        let fit = ShapeFit::fit(&p, 520, 64, 16, 8, 40, 7);
        for (b, c) in [(1usize, 3usize), (4, 17), (8, 40), (8, 64), (12, 50)] {
            let r = fit.predict(&rank_job(b, c));
            assert!(r.screen_done_cycle <= r.dram_cycles);
            assert!(r.exec_done_cycle <= r.dram_cycles);
            assert!(r.screen_done_cycle <= r.exec_done_cycle);
            assert!(r.dram.busy_cycles + r.dram.idle_cycles <= r.dram.total_cycles);
            assert_eq!(r.dram.total_cycles, r.dram_cycles);
        }
    }
}
