//! Cycle-level model of one rank's near-memory logic.
//!
//! One [`RankUnit`] owns its rank's DRAM timing domain (a single-rank
//! [`DramSystem`]) and executes the classification pipeline against it:
//!
//! * the **Screener pipeline** streams the (quantized) screening-weight
//!   tiles through double-buffered 256 B buffers into the integer MAC
//!   array, filtering logits against the preloaded threshold as each tile
//!   completes — candidates trickle out *during* screening;
//! * the **Executor pipeline** consumes candidates concurrently, gathering
//!   each candidate's FP32 classifier row (random row addresses → row
//!   misses) and accumulating on the FP32 MAC array;
//! * both pipelines share the rank's DRAM controller, which arbitrates
//!   FR-FCFS — exactly the contention structure of the real design.
//!
//! The same engine also models the homogeneous-FP32 NMP baselines: their
//! [`UnitParams`] use FP32 screening storage (8× the bytes), lane counts
//! with matrix-vector efficiency factors, and no comparator array — the
//! approximate logits must spill to DRAM and be re-read for filtering
//! (paper §7.2: "the buffer overflow results in frequent DRAM memory
//! accesses").

use crate::config::EnmcConfig;
use enmc_dram::{AddressMapping, DramConfig, DramStats, DramSystem, MemRequest, RequestId};
use enmc_obs::trace::{
    TraceBuffer, TraceEvent, CAT_PIPELINE, TID_COUNTERS, TID_EXECUTOR, TID_PHASES,
    TID_SCREENER, TID_SFU,
};
use std::collections::VecDeque;

/// Ring capacity per DRAM channel when a traced simulation turns the
/// controller's command trace on.
const DRAM_TRACE_CAPACITY: usize = 1 << 20;

/// Cycle stride between sampled `busy_lanes` counter-track events when a
/// run is traced (coarser than the DRAM controller's sampling; MAC spans
/// last hundreds of cycles).
const BUSY_SAMPLE_INTERVAL: u64 = 256;

/// What one rank has to do for one classification job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankJob {
    /// Categories assigned to this rank (`l / total_ranks`).
    pub categories: usize,
    /// Hidden dimension `d`.
    pub hidden: usize,
    /// Reduced dimension `k`.
    pub reduced: usize,
    /// Batch size.
    pub batch: usize,
    /// Candidates this rank must compute exactly, per batch item.
    pub candidates_per_item: Vec<usize>,
}

impl RankJob {
    /// Total candidates across the batch.
    pub fn total_candidates(&self) -> usize {
        self.candidates_per_item.iter().sum()
    }
}

/// Microarchitectural parameters of the engine (ENMC or baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitParams {
    /// Bits per screening-weight element (4 for ENMC, 32 for baselines).
    pub screen_bits: u32,
    /// Screening MACs retired per logic cycle (lanes × efficiency).
    pub screen_macs_per_cycle: f64,
    /// FP32 MACs retired per logic cycle for candidate rows.
    pub fp32_macs_per_cycle: f64,
    /// Input-buffer bytes (tile size).
    pub buffer_bytes: usize,
    /// Tiles in flight (double buffering).
    pub prefetch_depth: usize,
    /// DRAM-bus cycles per logic cycle.
    pub clock_ratio: u64,
    /// `true` if a comparator array filters logits on the fly (ENMC);
    /// `false` forces the z̃ spill + re-read + compute-filter path.
    pub inline_filter: bool,
    /// Ablation knob: when `true`, candidates release only after screening
    /// fully completes (no Screener ∥ Executor overlap).
    pub serial_phases: bool,
    /// Special-function throughput (exp evaluations per logic cycle).
    pub sfu_per_cycle: f64,
    /// The single-rank DRAM timing domain this unit simulates against
    /// (Table 3 DDR4 unless a memory-technology preset overrides it).
    pub dram: DramConfig,
}

impl UnitParams {
    /// The ENMC unit of Table 3 on the baseline DDR4 timing domain.
    pub fn enmc(cfg: &EnmcConfig) -> Self {
        Self::enmc_on(cfg, DramConfig::enmc_single_rank(), 1200)
    }

    /// The ENMC unit over an arbitrary single-rank DRAM timing domain
    /// clocked at `io_mhz` — the memory-technology preset entry point.
    /// `enmc_on(cfg, DramConfig::enmc_single_rank(), 1200)` is bit-exact
    /// with [`UnitParams::enmc`].
    pub fn enmc_on(cfg: &EnmcConfig, dram: DramConfig, io_mhz: u64) -> Self {
        UnitParams {
            screen_bits: cfg.screen_bits,
            screen_macs_per_cycle: cfg.int4_macs as f64,
            fp32_macs_per_cycle: cfg.fp32_macs as f64,
            buffer_bytes: cfg.buffer_bytes,
            prefetch_depth: cfg.prefetch_depth,
            clock_ratio: cfg.dram_cycles_per_logic_cycle(io_mhz),
            inline_filter: true,
            serial_phases: false,
            sfu_per_cycle: 4.0,
            dram,
        }
    }

    /// How many batch items' screening activations fit in the feature
    /// buffer simultaneously (weight-stream reuse).
    pub fn batch_reuse(&self, reduced: usize) -> usize {
        let bytes_per_item = (reduced * self.screen_bits as usize).div_ceil(8);
        (self.buffer_bytes / bytes_per_item.max(1)).max(1)
    }
}

/// Timing and traffic produced by one rank for one job.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UnitReport {
    /// Total DRAM-bus cycles to finish the job.
    pub dram_cycles: u64,
    /// Wall-clock nanoseconds.
    pub ns: f64,
    /// Cycles the screening MAC array was busy (DRAM-clock).
    pub screener_busy: u64,
    /// Cycles the FP32 MAC array was busy (DRAM-clock).
    pub executor_busy: u64,
    /// Cycles spent in the special-function unit.
    pub sfu_cycles: u64,
    /// DRAM statistics (reads/writes/activations/energy inputs).
    pub dram: DramStats,
    /// Bytes of screening-weight traffic.
    pub screen_bytes: u64,
    /// Bytes of exact candidate-row traffic.
    pub exact_bytes: u64,
    /// Bytes of spill traffic (baselines only).
    pub spill_bytes: u64,
    /// DRAM-clock cycle at which the Screener retired its last tile.
    pub screen_done_cycle: u64,
    /// DRAM-clock cycle at which the Executor finished the last candidate
    /// (and, for spill baselines, the last compute-filter).
    pub exec_done_cycle: u64,
    /// DDR4 protocol violations the conformance checker observed (always
    /// 0 unless the run enabled protocol checking — and 0 then too,
    /// unless the timing model is broken).
    pub protocol_violations: u64,
}

impl UnitReport {
    /// Merges the reports of symmetric rank-units that ran **in
    /// parallel**, one job slice each, into a system-level report.
    ///
    /// Latency fields (`dram_cycles`, `ns`, and the phase boundaries)
    /// come from the straggler — the unit with the largest cycle count,
    /// ties broken by the lowest index, so the result does not depend on
    /// the order results arrived in. Work counters (busy cycles and
    /// traffic bytes) sum across units, and the DRAM statistics fold with
    /// [`DramStats::merge_parallel`] in index order.
    ///
    /// # Panics
    ///
    /// Panics when `reports` is empty.
    pub fn merge_parallel(reports: &[UnitReport]) -> UnitReport {
        assert!(!reports.is_empty(), "no rank reports to merge");
        let straggler = reports
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| {
                a.dram_cycles.cmp(&b.dram_cycles).then(ib.cmp(ia))
            })
            .map(|(_, r)| r)
            .expect("nonempty");
        let mut merged = UnitReport {
            dram_cycles: straggler.dram_cycles,
            ns: straggler.ns,
            sfu_cycles: straggler.sfu_cycles,
            screen_done_cycle: straggler.screen_done_cycle,
            exec_done_cycle: straggler.exec_done_cycle,
            ..UnitReport::default()
        };
        for r in reports {
            merged.screener_busy += r.screener_busy;
            merged.executor_busy += r.executor_busy;
            merged.screen_bytes += r.screen_bytes;
            merged.exact_bytes += r.exact_bytes;
            merged.spill_bytes += r.spill_bytes;
            merged.protocol_violations += r.protocol_violations;
            merged.dram.merge_parallel(&r.dram);
        }
        merged
    }

    /// Records the unit's counters (plus its DRAM statistics via
    /// [`DramStats::record_into`]) into a metrics registry under the
    /// `unit.` / `dram.` prefixes.
    pub fn record_into(
        &self,
        registry: &mut enmc_obs::MetricsRegistry,
        labels: &[(&str, &str)],
    ) {
        registry.counter_add("unit.dram_cycles", labels, self.dram_cycles);
        registry.counter_add("unit.screener_busy_cycles", labels, self.screener_busy);
        registry.counter_add("unit.executor_busy_cycles", labels, self.executor_busy);
        registry.counter_add("unit.sfu_cycles", labels, self.sfu_cycles);
        registry.counter_add("unit.screen_bytes", labels, self.screen_bytes);
        registry.counter_add("unit.exact_bytes", labels, self.exact_bytes);
        registry.counter_add("unit.spill_bytes", labels, self.spill_bytes);
        registry.counter_add("unit.protocol_violations", labels, self.protocol_violations);
        registry.gauge_set("unit.ns", labels, self.ns);
        self.dram.record_into(registry, labels);
    }
}

/// One rank's near-memory engine.
#[derive(Debug, Clone)]
pub struct RankUnit {
    params: UnitParams,
}

/// Who a completed burst belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    ScreenTile(usize),
    ExecRow(usize),
    SpillWrite(usize),
    SpillRead(usize),
}

/// A multi-burst fetch with partial-issue progress.
#[derive(Debug, Clone, Copy)]
struct Fetch {
    tag: Tag,
    base: u64,
    total: usize,
    issued: usize,
    write: bool,
}

/// Tags of the bursts in flight, by request id. The unit's fresh
/// [`DramSystem`] hands out sequential ids, so a window that starts at the
/// oldest outstanding id stands in for a map.
#[derive(Debug, Default)]
struct InFlight {
    /// Request id of `tags[0]`.
    first: u64,
    /// `None` once the burst has completed.
    tags: VecDeque<Option<Tag>>,
}

impl InFlight {
    fn insert(&mut self, id: RequestId, tag: Tag) {
        debug_assert_eq!(id.0, self.first + self.tags.len() as u64, "ids are sequential");
        self.tags.push_back(Some(tag));
    }

    fn remove(&mut self, id: RequestId) -> Option<Tag> {
        let slot = id.0.checked_sub(self.first)?;
        let tag = self.tags.get_mut(slot as usize)?.take();
        while let Some(None) = self.tags.front() {
            self.tags.pop_front();
            self.first += 1;
        }
        tag
    }
}

/// Per-pipeline fetch queue that tolerates a full DRAM queue by resuming
/// partially issued transfers on later cycles.
#[derive(Debug, Default)]
struct Fetcher {
    queue: VecDeque<Fetch>,
}

impl Fetcher {
    fn push(&mut self, tag: Tag, base: u64, bursts: usize, write: bool) {
        self.queue.push_back(Fetch { tag, base, total: bursts, issued: 0, write });
    }

    /// Issues as many bursts as the DRAM queue accepts, front first.
    fn pump(&mut self, dram: &mut DramSystem, inflight: &mut InFlight) {
        while let Some(f) = self.queue.front_mut() {
            while f.issued < f.total {
                let addr = f.base + (f.issued * 64) as u64;
                let req =
                    if f.write { MemRequest::write(addr) } else { MemRequest::read(addr) };
                match dram.enqueue(req) {
                    Some(id) => {
                        inflight.insert(id, f.tag);
                        f.issued += 1;
                    }
                    None => return, // DRAM queue full; resume next cycle
                }
            }
            self.queue.pop_front();
        }
    }

    fn outstanding(&self) -> usize {
        self.queue.len()
    }
}

impl RankUnit {
    /// Creates an engine with the given parameters.
    pub fn new(params: UnitParams) -> Self {
        RankUnit { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &UnitParams {
        &self.params
    }

    /// Simulates `job` to completion and reports timing/traffic.
    ///
    /// # Panics
    ///
    /// Panics if `job.candidates_per_item.len() != job.batch` or any
    /// dimension is zero.
    pub fn simulate(&self, job: &RankJob) -> UnitReport {
        self.simulate_traced(job, None)
    }

    /// [`RankUnit::simulate`] with an optional trace collector.
    ///
    /// When `trace` is `Some`, the run emits pipeline-stage spans
    /// (`screen_tile`, `exec_row`, `compute_filter`, `sfu` on the
    /// [`TID_SCREENER`] / [`TID_EXECUTOR`] / [`TID_SFU`] tracks), phase
    /// summary spans (`screen` / `gather` / `activation` on
    /// [`TID_PHASES`]), and the DRAM controller's per-command events.
    /// Passing `None` is exactly [`RankUnit::simulate`]: the hot loop pays
    /// one branch per retired tile/row and nothing else.
    pub fn simulate_traced(
        &self,
        job: &RankJob,
        trace: Option<&mut TraceBuffer>,
    ) -> UnitReport {
        self.simulate_checked(job, trace, false)
    }

    /// [`RankUnit::simulate_traced`] with the DDR4 protocol conformance
    /// checker optionally shadowing the rank's DRAM controller. Checking
    /// does not perturb timing; the observed violation count lands in
    /// [`UnitReport::protocol_violations`] (and, when also tracing, each
    /// violation becomes a `protocol`-category trace event).
    pub fn simulate_checked(
        &self,
        job: &RankJob,
        mut trace: Option<&mut TraceBuffer>,
        check_protocol: bool,
    ) -> UnitReport {
        assert_eq!(job.candidates_per_item.len(), job.batch, "candidate counts per item");
        assert!(job.categories > 0 && job.hidden > 0 && job.reduced > 0 && job.batch > 0);
        let p = self.params;
        let mut dram = DramSystem::with_mapping(p.dram, AddressMapping::RoRaBaCoBg);
        if trace.is_some() {
            dram.enable_trace(DRAM_TRACE_CAPACITY);
        }
        if check_protocol {
            dram.enable_protocol_check();
        }

        // ---- derived shapes ------------------------------------------------
        let elems_per_tile = (p.buffer_bytes * 8 / p.screen_bits as usize).max(1);
        let total_screen_elems = job.categories * job.reduced;
        let screen_tiles = total_screen_elems.div_ceil(elems_per_tile);
        let bursts_per_tile = (p.buffer_bytes / 64).max(1);
        let reuse = p.batch_reuse(job.reduced);
        let batch_groups = job.batch.div_ceil(reuse);
        let total_stream_tiles = screen_tiles * batch_groups;
        let row_bytes = job.hidden * 4;
        let bursts_per_row = row_bytes.div_ceil(64);
        let total_candidates = job.total_candidates();
        let spill_bursts_per_group = (job.categories * 4).div_ceil(64);

        // Memory map.
        let screen_base = 0u64;
        let screen_bytes_total =
            ((total_screen_elems * p.screen_bits as usize).div_ceil(8) as u64).div_ceil(64) * 64;
        let classifier_base = screen_bytes_total;
        let spill_base = classifier_base + (job.categories * row_bytes) as u64;

        // Items sharing batch group `g`'s weight stream.
        let items_in_group = |g: usize| -> usize {
            let start = g * reuse;
            reuse.min(job.batch - start.min(job.batch))
        };
        // Candidates owed once group `g` finishes filtering.
        let group_candidates: Vec<usize> = (0..batch_groups)
            .map(|g| {
                let start = g * reuse;
                (start..(start + items_in_group(g)).min(job.batch))
                    .map(|i| job.candidates_per_item[i])
                    .sum()
            })
            .collect();

        // ---- pipeline state -------------------------------------------------
        let mut inflight = InFlight::default();
        // Bursts still owed per multi-burst fetch; a handful at a time.
        let mut remaining: Vec<(Tag, usize)> = Vec::new();
        let mut screen_fetch = Fetcher::default();
        let mut exec_fetch = Fetcher::default();
        let mut spill_fetch = Fetcher::default();

        let mut next_tile = 0usize; // next weight tile to request
        let mut tiles_ready: VecDeque<usize> = VecDeque::new();
        let mut tiles_computed = 0usize;
        let mut screen_mac_free: u64 = 0;
        let mut group_tiles_done = vec![0usize; batch_groups];

        let mut spill_written = vec![false; batch_groups];
        let mut filter_done_at: Vec<Option<u64>> = vec![None; batch_groups];

        let mut candidates_released = 0usize;
        let mut candidates_fetched = 0usize; // rows whose fetch has been queued
        let mut candidates_computed = 0usize;
        let mut rows_ready: VecDeque<usize> = VecDeque::new();
        let mut exec_mac_free: u64 = 0;

        let mut report = UnitReport::default();

        // Deterministic pseudo-random classifier row addresses for the
        // gathered candidates.
        let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next_row_addr = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            classifier_base + (lcg >> 33) % job.categories.max(1) as u64 * row_bytes as u64
        };

        let screen_tile_cycles = |items: usize| -> u64 {
            ((elems_per_tile * items) as f64 / p.screen_macs_per_cycle).ceil() as u64
                * p.clock_ratio
        };
        let exec_row_cycles =
            ((job.hidden as f64) / p.fp32_macs_per_cycle).ceil() as u64 * p.clock_ratio;
        let compute_filter_cycles =
            ((job.categories as f64) / p.fp32_macs_per_cycle).ceil() as u64 * p.clock_ratio;

        let mut guard: u64 = 0;
        loop {
            let now = dram.cycle();
            guard += 1;
            assert!(guard < 4_000_000_000, "simulation did not converge");

            // (0) Sampled busy-lane counter track: how many MAC arrays
            // (Screener + Executor) are computing this cycle.
            if now % BUSY_SAMPLE_INTERVAL == 0 {
                if let Some(tb) = trace.as_deref_mut() {
                    let busy = u64::from(screen_mac_free > now) + u64::from(exec_mac_free > now);
                    tb.record(
                        TraceEvent::counter("busy_lanes", CAT_PIPELINE, now, 0, TID_COUNTERS)
                            .with_arg("value", busy),
                    );
                }
            }

            // (1) Queue new screening-tile fetches under the prefetch cap.
            while next_tile < total_stream_tiles
                && screen_fetch.outstanding() + tiles_ready.len() < p.prefetch_depth + 1
                && (next_tile - tiles_computed) < p.prefetch_depth + 2
            {
                let pos = next_tile % screen_tiles;
                let tag = Tag::ScreenTile(next_tile);
                screen_fetch.push(tag, screen_base + (pos * p.buffer_bytes) as u64, bursts_per_tile, false);
                remaining.push((tag, bursts_per_tile));
                report.screen_bytes += (bursts_per_tile * 64) as u64;
                next_tile += 1;
            }

            // (2) Queue candidate-row fetches for released candidates.
            while candidates_fetched < candidates_released
                && exec_fetch.outstanding() + rows_ready.len() < 4
            {
                let tag = Tag::ExecRow(candidates_fetched);
                exec_fetch.push(tag, next_row_addr(), bursts_per_row, false);
                remaining.push((tag, bursts_per_row));
                report.exact_bytes += (bursts_per_row * 64) as u64;
                candidates_fetched += 1;
            }

            // (3) Pump the fetchers into the shared DRAM controller.
            screen_fetch.pump(&mut dram, &mut inflight);
            exec_fetch.pump(&mut dram, &mut inflight);
            spill_fetch.pump(&mut dram, &mut inflight);

            // (4) Drain DRAM completions.
            for c in dram.drain_completions() {
                let Some(tag) = inflight.remove(c.id) else { continue };
                let Some(pos) = remaining.iter().position(|&(t, _)| t == tag) else { continue };
                remaining[pos].1 -= 1;
                if remaining[pos].1 > 0 {
                    continue;
                }
                remaining.swap_remove(pos);
                match tag {
                    Tag::ScreenTile(t) => tiles_ready.push_back(t),
                    Tag::ExecRow(cand) => rows_ready.push_back(cand),
                    Tag::SpillWrite(group) => {
                        // Logits durable: read them back for filtering.
                        let tag = Tag::SpillRead(group);
                        spill_fetch.push(
                            tag,
                            spill_base + (group * spill_bursts_per_group * 64) as u64,
                            spill_bursts_per_group,
                            false,
                        );
                        remaining.push((tag, spill_bursts_per_group));
                        report.spill_bytes += (spill_bursts_per_group * 64) as u64;
                    }
                    Tag::SpillRead(group) => {
                        // Compute-filter the group's logits on the FP32 lanes.
                        let start = now.max(exec_mac_free);
                        let done = start + compute_filter_cycles;
                        exec_mac_free = done;
                        report.executor_busy += compute_filter_cycles;
                        filter_done_at[group] = Some(done);
                        if let Some(tb) = trace.as_deref_mut() {
                            tb.record(
                                TraceEvent::begin("compute_filter", CAT_PIPELINE, start, 0, TID_EXECUTOR)
                                    .with_arg("group", group as u64),
                            );
                            tb.record(TraceEvent::end("compute_filter", CAT_PIPELINE, done, 0, TID_EXECUTOR));
                        }
                    }
                }
            }

            // (5) Screener MAC consumes ready tiles in order.
            if screen_mac_free <= now {
                if let Some(t) = tiles_ready.pop_front() {
                    let group = t / screen_tiles;
                    let dur = screen_tile_cycles(items_in_group(group));
                    screen_mac_free = now + dur;
                    report.screener_busy += dur;
                    if let Some(tb) = trace.as_deref_mut() {
                        tb.record(
                            TraceEvent::begin("screen_tile", CAT_PIPELINE, now, 0, TID_SCREENER)
                                .with_arg("tile", t as u64)
                                .with_arg("group", group as u64),
                        );
                        tb.record(TraceEvent::end(
                            "screen_tile",
                            CAT_PIPELINE,
                            screen_mac_free,
                            0,
                            TID_SCREENER,
                        ));
                    }
                    tiles_computed += 1;
                    group_tiles_done[group] += 1;
                    if p.inline_filter {
                        if p.serial_phases {
                            // Ablation: no overlap — candidates appear only
                            // once the whole screening pass is done.
                            if tiles_computed == total_stream_tiles {
                                candidates_released = total_candidates;
                            }
                        } else {
                            // Comparator array keeps pace with the MACs;
                            // release candidates in proportion to progress.
                            candidates_released = (total_candidates as f64
                                * tiles_computed as f64
                                / total_stream_tiles as f64)
                                .floor() as usize;
                            if tiles_computed == total_stream_tiles {
                                candidates_released = total_candidates;
                            }
                        }
                    } else if group_tiles_done[group] == screen_tiles
                        && !spill_written[group]
                    {
                        // No comparator array: spill this group's logits.
                        spill_written[group] = true;
                        let tag = Tag::SpillWrite(group);
                        spill_fetch.push(
                            tag,
                            spill_base + (group * spill_bursts_per_group * 64) as u64,
                            spill_bursts_per_group,
                            true,
                        );
                        remaining.push((tag, spill_bursts_per_group));
                        report.spill_bytes += (spill_bursts_per_group * 64) as u64;
                    }
                }
            }

            // (5b) Candidate release for the spill-filter path.
            if !p.inline_filter {
                let released: usize = (0..batch_groups)
                    .filter(|&g| filter_done_at[g].is_some_and(|t| t <= now))
                    .map(|g| group_candidates[g])
                    .sum();
                candidates_released = released.min(total_candidates);
            }

            // (6) Executor MAC consumes ready rows.
            if exec_mac_free <= now {
                if let Some(cand) = rows_ready.pop_front() {
                    exec_mac_free = now + exec_row_cycles;
                    report.executor_busy += exec_row_cycles;
                    candidates_computed += 1;
                    if let Some(tb) = trace.as_deref_mut() {
                        tb.record(
                            TraceEvent::begin("exec_row", CAT_PIPELINE, now, 0, TID_EXECUTOR)
                                .with_arg("candidate", cand as u64),
                        );
                        tb.record(TraceEvent::end(
                            "exec_row",
                            CAT_PIPELINE,
                            exec_mac_free,
                            0,
                            TID_EXECUTOR,
                        ));
                    }
                }
            }

            dram.tick();
            let now = dram.cycle();

            // (7) Termination.
            let screening_done =
                tiles_computed == total_stream_tiles && now >= screen_mac_free;
            let filter_done = if p.inline_filter {
                screening_done
            } else {
                filter_done_at.iter().all(|d| d.is_some_and(|t| t <= now))
            };
            let exec_done = filter_done
                && candidates_computed == total_candidates
                && now >= exec_mac_free;
            if screening_done && filter_done && exec_done && dram.is_idle() {
                break;
            }
        }

        // Phase boundaries: the Screener retired its last tile at
        // `screen_mac_free` (the loop cannot exit before it); everything up
        // to the loop's exit cycle is candidate gather + filtering.
        let loop_end = dram.cycle();
        report.screen_done_cycle = screen_mac_free.min(loop_end);
        report.exec_done_cycle = loop_end;

        // (8) Final activation in the special-function unit.
        let sfu_logic = ((job.categories * job.batch) as f64 / p.sfu_per_cycle).ceil() as u64;
        report.sfu_cycles = sfu_logic * p.clock_ratio;
        for _ in 0..report.sfu_cycles {
            dram.tick();
        }

        report.dram_cycles = dram.cycle();
        report.ns = dram.elapsed_ns();
        report.dram = dram.stats();
        report.protocol_violations = dram.protocol_violation_count();
        if let Some(tb) = trace.as_deref_mut() {
            tb.record(
                TraceEvent::begin("sfu", CAT_PIPELINE, loop_end, 0, TID_SFU)
                    .with_arg("evals", (job.categories * job.batch) as u64),
            );
            tb.record(TraceEvent::end("sfu", CAT_PIPELINE, report.dram_cycles, 0, TID_SFU));
            // Whole-run phase summary spans on their own track. They tile
            // the timeline exactly: screen ∪ gather ∪ activation covers
            // [0, dram_cycles] with no overlap.
            let bounds: [(&'static str, u64, u64); 3] = [
                ("screen", 0, report.screen_done_cycle),
                ("gather", report.screen_done_cycle, report.exec_done_cycle),
                ("activation", report.exec_done_cycle, report.dram_cycles),
            ];
            for (name, start, end) in bounds {
                tb.record(TraceEvent::begin(name, CAT_PIPELINE, start, 0, TID_PHASES));
                tb.record(TraceEvent::end(name, CAT_PIPELINE, end, 0, TID_PHASES));
            }
            for e in dram.take_trace() {
                tb.record(e);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(l: usize, batch: usize, m: usize) -> RankJob {
        RankJob {
            categories: l,
            hidden: 512,
            reduced: 128,
            batch,
            candidates_per_item: vec![m; batch],
        }
    }

    fn enmc_unit() -> RankUnit {
        RankUnit::new(UnitParams::enmc(&EnmcConfig::table3()))
    }

    fn baseline_unit() -> RankUnit {
        RankUnit::new(UnitParams {
            screen_bits: 32,
            screen_macs_per_cycle: 16.0 * 0.9,
            fp32_macs_per_cycle: 16.0 * 0.9,
            buffer_bytes: 512,
            prefetch_depth: 2,
            clock_ratio: 3,
            inline_filter: false,
            serial_phases: false,
            sfu_per_cycle: 1.0,
            dram: DramConfig::enmc_single_rank(),
        })
    }

    #[test]
    fn in_flight_window_follows_out_of_order_completions() {
        let mut w = InFlight::default();
        let tags = [Tag::ScreenTile(0), Tag::ExecRow(1), Tag::SpillWrite(2)];
        for (id, tag) in tags.into_iter().enumerate() {
            w.insert(RequestId(id as u64), tag);
        }
        assert_eq!(w.remove(RequestId(1)), Some(Tag::ExecRow(1)));
        assert_eq!(w.remove(RequestId(1)), None);
        assert_eq!(w.remove(RequestId(0)), Some(Tag::ScreenTile(0)));
        // The completed prefix is dropped; the window starts at id 2.
        assert_eq!((w.first, w.tags.len()), (2, 1));
        assert_eq!(w.remove(RequestId(0)), None);
        assert_eq!(w.remove(RequestId(2)), Some(Tag::SpillWrite(2)));
        assert!(w.tags.is_empty());
    }

    #[test]
    fn simulation_completes_and_reports() {
        let r = enmc_unit().simulate(&job(1024, 1, 16));
        assert!(r.dram_cycles > 0);
        assert!(r.ns > 0.0);
        assert!(r.screener_busy > 0);
        assert!(r.executor_busy > 0);
        assert!(r.dram.reads > 0);
    }

    #[test]
    fn screening_traffic_matches_shape() {
        let r = enmc_unit().simulate(&job(2048, 1, 8));
        // 2048 × 128 INT4 elems = 128 KiB = 512 tiles × 256 B.
        assert_eq!(r.screen_bytes, 2048 * 128 / 2);
    }

    #[test]
    fn exact_traffic_scales_with_candidates() {
        let a = enmc_unit().simulate(&job(1024, 1, 8));
        let b = enmc_unit().simulate(&job(1024, 1, 32));
        assert_eq!(b.exact_bytes, 4 * a.exact_bytes);
        assert!(b.dram_cycles >= a.dram_cycles);
    }

    #[test]
    fn batch_shares_one_weight_stream() {
        // k=128 at INT4 = 64 B per item → 4 items share one weight stream:
        // DRAM traffic stays flat and time grows sublinearly (the MAC
        // array, not DRAM, absorbs the extra work).
        let b1 = enmc_unit().simulate(&job(4096, 1, 8));
        let b4 = enmc_unit().simulate(&job(4096, 4, 8));
        assert_eq!(b1.screen_bytes, b4.screen_bytes);
        let ratio = b4.dram_cycles as f64 / b1.dram_cycles as f64;
        assert!(ratio < 3.5, "batch-4 / batch-1 cycle ratio {ratio}");
    }

    #[test]
    fn screening_is_dram_bound_not_mac_bound() {
        // Paper Fig. 5(b): screening has low operational intensity — the
        // INT4 array idles part of the time waiting on DRAM.
        let r = enmc_unit().simulate(&job(8192, 1, 0));
        assert!(
            r.screener_busy < r.dram_cycles,
            "screener busy {} of {}",
            r.screener_busy,
            r.dram_cycles
        );
    }

    #[test]
    fn enmc_produces_no_spill_traffic() {
        let r = enmc_unit().simulate(&job(2048, 2, 8));
        assert_eq!(r.spill_bytes, 0);
    }

    #[test]
    fn baseline_spills_and_is_much_slower() {
        let j = job(2048, 1, 8);
        let b = baseline_unit().simulate(&j);
        let e = enmc_unit().simulate(&j);
        assert!(b.spill_bytes > 0);
        assert!(
            b.dram_cycles > 3 * e.dram_cycles,
            "baseline {} vs enmc {}",
            b.dram_cycles,
            e.dram_cycles
        );
    }

    #[test]
    fn baseline_batch_does_not_amortize() {
        // FP32 activations (512 B at k=128) fill the baseline buffer: each
        // batch item re-streams the weights.
        let b1 = baseline_unit().simulate(&job(2048, 1, 8));
        let b2 = baseline_unit().simulate(&job(2048, 2, 8));
        let ratio = b2.dram_cycles as f64 / b1.dram_cycles as f64;
        assert!(ratio > 1.6, "batch-2 / batch-1 ratio {ratio}");
    }

    #[test]
    fn executor_overlaps_screening() {
        // Candidate rows add ~25% extra DRAM traffic here; because the
        // Executor runs concurrently with the Screener, total time grows
        // by roughly that traffic share — far less than a serial
        // screen-then-gather schedule would cost.
        let with_cands = enmc_unit().simulate(&job(8192, 1, 64));
        let no_cands = enmc_unit().simulate(&job(8192, 1, 0));
        let ratio = with_cands.dram_cycles as f64 / no_cands.dram_cycles as f64;
        assert!(ratio > 1.0, "candidates cannot be free: {ratio}");
        assert!(ratio < 1.6, "no overlap visible: {ratio}");
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_spans() {
        let j = job(1024, 1, 16);
        let unit = enmc_unit();
        let plain = unit.simulate(&j);
        let mut tb = TraceBuffer::unbounded();
        let traced = unit.simulate_traced(&j, Some(&mut tb));
        // Tracing must not perturb timing.
        assert_eq!(plain.dram_cycles, traced.dram_cycles);
        assert_eq!(plain.dram, traced.dram);
        let events = tb.drain();
        let names: std::collections::HashSet<&str> = events.iter().map(|e| e.name).collect();
        for expected in ["screen_tile", "exec_row", "sfu", "screen", "gather", "activation", "ACT", "RD"] {
            assert!(names.contains(expected), "missing {expected} in {names:?}");
        }
        // Phase boundaries tile [0, dram_cycles].
        assert!(traced.screen_done_cycle <= traced.exec_done_cycle);
        assert!(traced.exec_done_cycle <= traced.dram_cycles);
        assert_eq!(traced.dram_cycles - traced.exec_done_cycle, traced.sfu_cycles);
    }

    #[test]
    fn traced_run_samples_busy_lanes() {
        let mut tb = TraceBuffer::unbounded();
        enmc_unit().simulate_traced(&job(1024, 1, 16), Some(&mut tb));
        let samples: Vec<u64> = tb
            .iter()
            .filter(|e| e.name == "busy_lanes")
            .map(|e| e.args[0].1)
            .collect();
        assert!(!samples.is_empty(), "no busy_lanes samples");
        assert!(samples.iter().all(|&v| v <= 2), "at most two MAC arrays: {samples:?}");
        assert!(samples.iter().any(|&v| v > 0), "some sample must catch a busy MAC");
    }

    #[test]
    fn baseline_trace_includes_compute_filter() {
        let mut tb = TraceBuffer::unbounded();
        baseline_unit().simulate_traced(&job(2048, 1, 8), Some(&mut tb));
        assert!(tb.iter().any(|e| e.name == "compute_filter"));
    }

    #[test]
    fn checked_run_is_clean_and_identical() {
        let j = job(1024, 1, 16);
        let unit = enmc_unit();
        let plain = unit.simulate(&j);
        let checked = unit.simulate_checked(&j, None, true);
        assert_eq!(checked.protocol_violations, 0, "controller violated DDR4 timing");
        // Checking must not perturb the simulation.
        assert_eq!(plain.dram_cycles, checked.dram_cycles);
        assert_eq!(plain.dram, checked.dram);
        // The baseline engine's spill path must conform too.
        let b = baseline_unit().simulate_checked(&job(2048, 1, 8), None, true);
        assert_eq!(b.protocol_violations, 0);
    }

    #[test]
    fn report_records_metrics() {
        let r = enmc_unit().simulate(&job(1024, 1, 16));
        let mut reg = enmc_obs::MetricsRegistry::new();
        r.record_into(&mut reg, &[("rank", "0")]);
        assert_eq!(reg.counter_value("unit.dram_cycles", &[("rank", "0")]), r.dram_cycles);
        assert_eq!(reg.counter_value("dram.reads", &[("rank", "0")]), r.dram.reads);
    }

    #[test]
    #[should_panic(expected = "candidate counts")]
    fn rejects_mismatched_candidates() {
        enmc_unit().simulate(&RankJob {
            categories: 64,
            hidden: 64,
            reduced: 16,
            batch: 2,
            candidates_per_item: vec![1],
        });
    }
}
