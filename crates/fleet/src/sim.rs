//! The fleet-level discrete-event loop: per-tenant arrival streams → a
//! cluster router → per-node FIFO queues → dynamic batchers → service
//! lanes, with per-tenant admission control and degrade ladders.
//!
//! # Time model
//!
//! Everything runs in DRAM-clock cycles. A calibration pass fills one
//! `[tier][batch-1]` service table per distinct degrade ladder through
//! [`calibrate_service_table`] — the same bridge the offload planner
//! uses — and the event loop then never touches the cycle simulator
//! again. A query routed to a remote node additionally pays the
//! interconnect: broadcast of the hidden vector plus gather of the
//! shard's candidate list, priced by [`Network::transfer_cycles`] (zero
//! on a 1-node fleet, matching `scaleout::scale_out`).
//!
//! # Determinism contract
//!
//! A fleet outcome is a pure function of the configuration: arrivals and
//! shard draws come from [`SplitMix64`] streams, service times from the
//! thread-invariant calibration, placement from seed-free hashing, and
//! the event loop folds per-node state in fixed node order (and
//! per-tenant state in fixed tenant order). Host wall-clock never enters
//! any output, so a fleet report is byte-identical for any
//! `ENMC_THREADS` — worker counts only change how fast calibration runs.
//!
//! # The single-node case
//!
//! This is the workspace's only serving event loop. With `nodes = shards
//! = 1`, one tenant, a zero replica budget and uniform popularity,
//! routing and shard draws vanish and the interconnect costs nothing:
//! the loop is one FIFO queue with a shed check, a full-or-lingered
//! dispatch condition over `lanes` batch slots, and a
//! one-tier-step-per-dispatch controller with hysteresis. `enmc
//! serve-sim` runs exactly that configuration and renders its report,
//! `serve.*` metrics and trace from the outcome afterwards
//! ([`crate::serve`]), so the loop itself carries no per-event serving
//! branches. `tests/serve_golden.rs` pins the single-node case and
//! `tests/fleet_golden.rs` the multi-node one.

use std::collections::VecDeque;

use enmc_arch::scaleout::Network;
use enmc_arch::system::{ClassificationJob, SystemModel};
use enmc_obs::report::{Fleet, Offload, RunReport, Serving, Surrogate, TenantRow};
use enmc_obs::MetricsRegistry;
use enmc_par::SimConfig;
use enmc_serve::arrival::SplitMix64;
use enmc_serve::hist::LatencyHistogram;
use enmc_serve::sim::{calibrate_service_table, ServiceTable};
use enmc_serve::tier::DegradeTier;
use enmc_serve::OffloadPlan;
use enmc_tune::plan_from_table;
use enmc_serve::ArrivalProcess;
use enmc_surrogate::{CostModel, SurrogateViolation};

use crate::placement::{place, zipf_weights, PlacementPolicy};

/// Salt separating the shard-popularity draw stream from arrival seeds.
const SHARD_STREAM_SALT: u64 = 0x5AAD_57AE_A31B_0003;

/// One tenant sharing the fleet: its own traffic, deadline, ladder, and
/// admission thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Tenant name, used in reports and metric labels.
    pub name: String,
    /// The tenant's arrival process.
    pub arrival: ArrivalProcess,
    /// Requests to generate (a replayed trace may yield fewer).
    pub requests: usize,
    /// Per-request deadline: arrival cycle + this.
    pub slo_cycles: u64,
    /// Degrade ladder in **full-model** candidate counts, full quality
    /// first; the simulator scales it to the shard size. Must be
    /// non-empty.
    pub tiers: Vec<DegradeTier>,
    /// Step the tenant's ladder down when its queue share at the
    /// dispatching node is deeper than this.
    pub degrade_queue_depth: usize,
    /// Step the ladder up (hysteresis) at or below this depth.
    pub upgrade_queue_depth: usize,
    /// Shed the tenant's arrivals once the routed node's queue holds
    /// this many requests — a *smaller* value means the tenant loses
    /// admission contention earlier (lower priority).
    pub shed_queue_depth: usize,
    /// Seed for the tenant's arrival stream.
    pub seed: u64,
}

impl TenantConfig {
    /// A tenant with the `serve-sim` default admission thresholds.
    pub fn new(name: &str, arrival: ArrivalProcess, requests: usize, slo_cycles: u64, tiers: Vec<DegradeTier>, seed: u64) -> Self {
        TenantConfig {
            name: name.to_string(),
            arrival,
            requests,
            slo_cycles,
            tiers,
            degrade_queue_depth: 12,
            upgrade_queue_depth: 3,
            shed_queue_depth: 48,
            seed,
        }
    }
}

/// Configuration of one fleet scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Simulated DIMM-group nodes, each a full Table 3 system.
    pub nodes: usize,
    /// Row-wise classifier shards spread over the nodes.
    pub shards: usize,
    /// Extra shard copies the placement may spend.
    pub replicas: usize,
    /// How shards map to nodes.
    pub placement: PlacementPolicy,
    /// Zipf popularity exponent for shard draws (multiples of 0.5;
    /// shard 0 hottest; 0.0 = uniform).
    pub zipf_s: f64,
    /// Maximum requests per dispatched batch (per node).
    pub batch_max: usize,
    /// Longest a request may wait before the batcher must dispatch.
    pub linger_cycles: u64,
    /// Independent service lanes per node.
    pub lanes: usize,
    /// The cluster interconnect pricing remote queries.
    pub network: Network,
    /// The tenants contending for the fleet. Must be non-empty.
    pub tenants: Vec<TenantConfig>,
    /// Seed for the shard-popularity draw stream.
    pub seed: u64,
    /// Run every calibrated ladder through the per-query offload
    /// planner, serving each `(tier, batch)` point on the cheaper of
    /// NMP and the CPU roofline.
    pub offload: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 4,
            shards: 4,
            replicas: 2,
            placement: PlacementPolicy::PopularityAware,
            zipf_s: 1.0,
            batch_max: 4,
            linger_cycles: 2_000,
            lanes: 2,
            network: Network::roce_100g(),
            tenants: Vec::new(),
            seed: 7,
            offload: false,
        }
    }
}

/// One request's life across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRequest {
    /// Owning tenant index.
    pub tenant: usize,
    /// Shard the query targets (drawn from the Zipf stream).
    pub shard: usize,
    /// Node the router chose (`usize::MAX` when shed).
    pub node: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// Deadline cycle (`arrival + tenant.slo_cycles`).
    pub deadline: u64,
    /// Completion cycle including network time, `None` when shed.
    pub completion: Option<u64>,
    /// `true` when admission control rejected the request.
    pub shed: bool,
}

/// One dispatched batch on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetBatchRecord {
    /// Node that served the batch.
    pub node: usize,
    /// Tenant the batch belonged to (batches never mix tenants).
    pub tenant: usize,
    /// Dispatch cycle.
    pub start: u64,
    /// Service completion cycle (network time excluded — the lane frees
    /// here).
    pub end: u64,
    /// Requests in the batch.
    pub size: usize,
    /// Degrade tier the batch ran at.
    pub tier: usize,
    /// Lane index on the node.
    pub lane: usize,
    /// Arrival cycle of the oldest request in the batch.
    pub oldest_arrival: u64,
}

/// One tenant's aggregate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Requests the tenant's arrival process generated.
    pub generated: u64,
    /// Requests admitted to a node queue.
    pub admitted: u64,
    /// Requests that completed service.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Completed requests that met their deadline.
    pub slo_met: u64,
    /// Degrade-tier steps taken, both directions.
    pub degrade_transitions: u64,
    /// Request latencies (queueing + service + network), log-bucketed.
    pub latency: LatencyHistogram,
    /// Completed requests per tier.
    pub per_tier_completed: Vec<u64>,
    /// Batches dispatched per tier.
    pub per_tier_batches: Vec<u64>,
    /// The tenant's calibrated shard-level service table.
    pub service_cycles: Vec<Vec<u64>>,
}

impl TenantOutcome {
    /// Fraction of completed requests that met the deadline (0 when
    /// nothing completed).
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_met as f64 / self.completed as f64
        }
    }
}

/// Everything one fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Per-tenant outcomes, in configuration order.
    pub tenants: Vec<TenantOutcome>,
    /// Nodes the fleet simulated.
    pub nodes: usize,
    /// Shards the classifier was split into.
    pub shards: usize,
    /// Placement policy name (`consistent-hash` or `popularity`).
    pub placement: String,
    /// Extra shard copies the placement actually placed.
    pub hot_shard_replicas: u64,
    /// Cycle the last request completed (service + network; 0 when
    /// nothing ran).
    pub makespan_cycles: u64,
    /// Simulated nanoseconds per DRAM cycle (from calibration).
    pub ns_per_cycle: f64,
    /// Deepest any node queue ever got.
    pub max_queue_depth: usize,
    /// DDR4 protocol violations observed during calibration runs.
    pub protocol_violations: u64,
    /// Interconnect cycles summed over completed requests.
    pub network_cycles: u64,
    /// End-to-end latency cycles summed over completed requests.
    pub latency_cycles: u64,
    /// Admitted queries per shard (router's view; for invariance tests).
    pub shard_queries: Vec<u64>,
    /// Busy service cycles per node, in node order.
    pub node_busy_cycles: Vec<u64>,
    /// Per-request life records, in merged arrival order.
    pub requests: Vec<FleetRequest>,
    /// Per-batch records, in dispatch order.
    pub batches: Vec<FleetBatchRecord>,
    /// The cost backend that answered the calibration points, and its
    /// audit figures.
    pub surrogate: Surrogate,
    /// Dispatched batches the offload planner kept on NMP (0 without
    /// `offload`).
    pub offload_nmp: u64,
    /// Dispatched batches the offload planner sent to the CPU roofline
    /// (0 without `offload`).
    pub offload_cpu: u64,
}

impl FleetOutcome {
    /// Fraction of completed-request latency cycles spent on the
    /// interconnect (0 on a 1-node fleet).
    pub fn network_share(&self) -> f64 {
        if self.latency_cycles == 0 {
            0.0
        } else {
            self.network_cycles as f64 / self.latency_cycles as f64
        }
    }

    /// Fleet-wide SLO attainment (completed-weighted across tenants).
    pub fn slo_attainment(&self) -> f64 {
        let completed: u64 = self.tenants.iter().map(|t| t.completed).sum();
        let met: u64 = self.tenants.iter().map(|t| t.slo_met).sum();
        if completed == 0 {
            0.0
        } else {
            met as f64 / completed as f64
        }
    }

    /// All tenants' latencies merged into one histogram.
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for t in &self.tenants {
            h.merge(&t.latency);
        }
        h
    }

    /// The headline fields every serving report carries, whichever
    /// command renders it: makespan, the `serving` and `surrogate`
    /// sections, the `offload` section when the planner ran, and the
    /// metrics snapshot.
    ///
    /// Serving reports are **simulation-time only**: phase wall time is
    /// zero, `threads` stays 0 and `speedup` 1.0, preserving the
    /// byte-identical-across-`ENMC_THREADS` contract.
    pub(crate) fn headline_report(
        &self,
        command: &str,
        phase: &str,
        workload: &str,
        cfg: &FleetConfig,
        registry: &MetricsRegistry,
    ) -> RunReport {
        let mut report = RunReport::new(command, workload, "enmc");
        report.batch = cfg.batch_max as u64;
        report.candidates = cfg
            .tenants
            .first()
            .and_then(|t| t.tiers.first())
            .map(|t| t.candidates as u64)
            .unwrap_or(0);
        report.sim_cycles = self.makespan_cycles;
        report.headline_ns = self.makespan_cycles as f64 * self.ns_per_cycle;
        report.push_phase(phase, 0.0, self.makespan_cycles, report.headline_ns);
        report.protocol_violations = self.protocol_violations;
        report.serving = Some(Serving {
            slo_attainment: self.slo_attainment(),
            p99_ns: self.merged_latency().p99() * self.ns_per_cycle,
            shed: self.tenants.iter().map(|t| t.shed).sum(),
            degrade_transitions: self.tenants.iter().map(|t| t.degrade_transitions).sum(),
        });
        report.surrogate = Some(self.surrogate.clone());
        report.offload = cfg
            .offload
            .then_some(Offload { offload_nmp: self.offload_nmp, offload_cpu: self.offload_cpu });
        report.metrics = registry.snapshot();
        report
    }

    /// Builds the `fleet-sim` [`RunReport`] for this run: the shared
    /// headline fields plus the `fleet` section (placement, network share
    /// and per-tenant rows).
    pub fn report(
        &self,
        workload: &str,
        cfg: &FleetConfig,
        registry: &MetricsRegistry,
    ) -> RunReport {
        let mut report = self.headline_report("fleet-sim", "fleet", workload, cfg, registry);
        let tenants = self.tenants.iter().map(|t| TenantRow {
            name: t.name.clone(),
            slo_attainment: t.slo_attainment(),
            p99_ns: t.latency.p99() * self.ns_per_cycle,
            shed: t.shed,
            admitted: t.admitted,
            completed: t.completed,
            degrade_transitions: t.degrade_transitions,
        });
        report.fleet = Some(Fleet {
            nodes: self.nodes as u64,
            placement: self.placement.clone(),
            hot_shard_replicas: self.hot_shard_replicas,
            network_share: self.network_share(),
            tenants: tenants.collect(),
        });
        report.notes.push(format!(
            "{} node(s), {} shard(s), {} placement, {} hot-shard replica(s), zipf {}",
            self.nodes, self.shards, self.placement, self.hot_shard_replicas, cfg.zipf_s
        ));
        for (t, out) in cfg.tenants.iter().zip(&self.tenants) {
            report.notes.push(format!(
                "tenant {}: {} {} request(s), seed {}, slo {} cycle(s)",
                t.name,
                out.generated,
                t.arrival.kind(),
                t.seed,
                t.slo_cycles
            ));
        }
        report.notes.push(
            "host wall time excluded: fleet reports are simulation-time only".to_string(),
        );
        report
    }
}

/// The shard-sized job: `1/shards` of the classifier rows and candidate
/// budget, everything else untouched (matches `scaleout::scale_out`).
fn shard_job(job: &ClassificationJob, shards: usize) -> ClassificationJob {
    ClassificationJob {
        categories: job.categories.div_ceil(shards),
        hidden: job.hidden,
        reduced: job.reduced,
        batch: job.batch,
        candidates: job.candidates.div_ceil(shards),
    }
}

/// A tenant's ladder scaled to the shard size: candidate counts divide
/// by the shard count (screening shifts are shard-independent).
fn shard_tiers(tiers: &[DegradeTier], shards: usize) -> Vec<DegradeTier> {
    tiers
        .iter()
        .map(|t| DegradeTier {
            candidates: t.candidates.div_ceil(shards).max(1),
            screen_shift: t.screen_shift,
        })
        .collect()
}

/// Draws one shard index from the cumulative Zipf weights.
fn draw_shard(cum: &[f64], total: f64, rng: &mut SplitMix64) -> usize {
    let u = rng.next_unit() * total;
    // First bucket whose cumulative weight reaches the draw.
    cum.partition_point(|&c| c < u).min(cum.len() - 1)
}

/// Runs one fleet scenario.
///
/// `sim` controls only how the calibration pass executes (worker count,
/// protocol checking); the outcome is bit-identical for any worker
/// count. Fleet metrics are recorded into `registry` under the `fleet.*`
/// prefix.
///
/// # Errors
///
/// Returns the [`SurrogateViolation`] when an audited calibration point
/// misses the declared bound (surrogate backend only).
///
/// # Panics
///
/// Panics when `cfg` has zero nodes/shards/batch, no tenants, or a
/// tenant with an empty ladder.
pub fn simulate_fleet(
    sys: &SystemModel,
    job: &ClassificationJob,
    cfg: &FleetConfig,
    sim: &SimConfig,
    registry: &mut MetricsRegistry,
    cost: &mut CostModel,
) -> Result<FleetOutcome, SurrogateViolation> {
    assert!(cfg.nodes > 0, "fleet needs at least one node");
    assert!(cfg.shards > 0, "fleet needs at least one shard");
    assert!(cfg.batch_max > 0, "batch_max must be positive");
    assert!(!cfg.tenants.is_empty(), "fleet needs at least one tenant");
    for t in &cfg.tenants {
        assert!(!t.tiers.is_empty(), "tenant {} needs at least one degrade tier", t.name);
    }

    // Calibration: one service table per *distinct* shard-scaled ladder,
    // in first-appearance order (tenants sharing a ladder share a table,
    // and the audit stream stays independent of tenant count).
    let sjob = shard_job(job, cfg.shards);
    let mut ladders: Vec<Vec<DegradeTier>> = Vec::new();
    let mut tenant_table: Vec<usize> = Vec::with_capacity(cfg.tenants.len());
    for t in &cfg.tenants {
        let ladder = shard_tiers(&t.tiers, cfg.shards);
        let idx = ladders.iter().position(|l| *l == ladder).unwrap_or_else(|| {
            ladders.push(ladder.clone());
            ladders.len() - 1
        });
        tenant_table.push(idx);
    }
    let mut tables: Vec<ServiceTable> = Vec::with_capacity(ladders.len());
    for (i, ladder) in ladders.iter().enumerate() {
        let context = format!("fleet-sim calibration (ladder {i})");
        tables.push(calibrate_service_table(
            sys,
            &sjob,
            ladder,
            cfg.batch_max,
            sim,
            cost,
            &context,
        )?);
    }
    // Offload planning: each calibrated ladder's table is replaced by
    // the planner's per-point choice of NMP vs. CPU roofline, and the
    // plan tags let the dispatch loop count admission decisions.
    let plans: Vec<Option<OffloadPlan>> = if cfg.offload {
        ladders
            .iter()
            .zip(&tables)
            .map(|(ladder, table)| Some(plan_from_table(sys, &sjob, ladder, table)))
            .collect()
    } else {
        vec![None; ladders.len()]
    };
    for (table, plan) in tables.iter_mut().zip(&plans) {
        if let Some(plan) = plan {
            plan.check_shape(table.cycles.len(), cfg.batch_max);
            table.cycles = plan.cycles.clone();
        }
    }

    let ns_per_cycle =
        tables.iter().map(|t| t.ns_per_cycle).fold(0.0f64, f64::max);

    // Interconnect cost per (tenant, tier): broadcast h + gather the
    // shard's candidate list. Zero on a 1-node fleet, exactly like
    // `scale_out`.
    let net_cycles: Vec<Vec<u64>> = tenant_table
        .iter()
        .map(|&l| {
            ladders[l]
                .iter()
                .map(|tier| {
                    if cfg.nodes == 1 {
                        0
                    } else {
                        let bcast = (job.hidden * 4) as u64;
                        let gather = (tier.candidates * 8) as u64;
                        cfg.network.transfer_cycles(bcast, ns_per_cycle)
                            + cfg.network.transfer_cycles(gather, ns_per_cycle)
                    }
                })
                .collect()
        })
        .collect();
    let nmp: Vec<Option<&[Vec<bool>]>> =
        tenant_table.iter().map(|&l| plans[l].as_ref().map(|p| p.nmp.as_slice())).collect();

    let placement = place(cfg.placement, cfg.shards, cfg.nodes, cfg.replicas, cfg.zipf_s);
    let (requests, generated) = merged_requests(cfg);
    let tenants = cfg.tenants.iter().zip(generated).zip(&tenant_table);
    let mut out = FleetOutcome {
        tenants: tenants
            .map(|((t, generated), &l)| {
                TenantOutcome::unserved(t, generated, tables[l].cycles.clone())
            })
            .collect(),
        nodes: cfg.nodes,
        shards: cfg.shards,
        placement: cfg.placement.name().to_string(),
        hot_shard_replicas: placement.replicas_placed,
        makespan_cycles: 0,
        ns_per_cycle,
        max_queue_depth: 0,
        protocol_violations: tables.iter().map(|t| t.protocol_violations).sum(),
        network_cycles: 0,
        latency_cycles: 0,
        shard_queries: vec![0; cfg.shards],
        node_busy_cycles: vec![0; cfg.nodes],
        requests,
        batches: Vec::new(),
        surrogate: cost.stats().section(cost.backend()),
        offload_nmp: 0,
        offload_cpu: 0,
    };
    run_events::<NodeQueue>(cfg, &placement.holders, &net_cycles, &nmp, &mut out);

    // Metrics: recorded once, after the loop, in fixed tenant order.
    for t in &out.tenants {
        let l: &[(&str, &str)] = &[("tenant", &t.name)];
        registry.counter_add("fleet.generated", l, t.generated);
        registry.counter_add("fleet.admitted", l, t.admitted);
        registry.counter_add("fleet.completed", l, t.completed);
        registry.counter_add("fleet.shed", l, t.shed);
        registry.counter_add("fleet.slo_met", l, t.slo_met);
        registry.counter_add("fleet.degrade_transitions", l, t.degrade_transitions);
    }
    registry.counter_add("fleet.batches", &[], out.batches.len() as u64);
    registry.counter_add("fleet.network_cycles", &[], out.network_cycles);
    registry.gauge_set("fleet.queue_depth_max", &[], out.max_queue_depth as f64);
    registry.gauge_set("fleet.nodes", &[], cfg.nodes as f64);
    registry.gauge_set("fleet.replicas_placed", &[], placement.replicas_placed as f64);
    Ok(out)
}

/// A node's waiting requests, as the event loop queries them. Admission
/// reads the node's depth, dispatch its oldest waiter, that waiter's
/// tenant's depth and batch, and the tests substitute a reference
/// discipline behind the same queries.
trait Queue {
    /// An empty queue shared by `tenants` tenants.
    fn new(tenants: usize) -> Self;
    /// Requests waiting, all tenants together.
    fn depth(&self) -> usize;
    /// Requests of `tenant` waiting.
    fn depth_of(&self, tenant: usize) -> usize;
    /// The oldest waiter as `(request id, tenant)`.
    fn front(&self) -> Option<(usize, usize)>;
    /// Appends request `id` of `tenant`.
    fn push(&mut self, id: usize, tenant: usize);
    /// Removes the `size` oldest waiters of `tenant`, passing each id to
    /// `each`, oldest first.
    fn take(&mut self, tenant: usize, size: usize, each: impl FnMut(usize));
}

/// A FIFO of request ids per tenant plus the node's depth: every query
/// the loop makes costs O(tenants), whatever the queue depth.
///
/// Request ids rise in admission order and each FIFO keeps that order,
/// so the node's oldest waiter is the smallest front over its tenant
/// FIFOs, and a tenant's batch is its FIFO's first `size` ids.
struct NodeQueue {
    fifos: Vec<VecDeque<usize>>,
    depth: usize,
}

impl Queue for NodeQueue {
    fn new(tenants: usize) -> Self {
        NodeQueue { fifos: vec![VecDeque::new(); tenants], depth: 0 }
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn depth_of(&self, tenant: usize) -> usize {
        self.fifos[tenant].len()
    }

    fn front(&self) -> Option<(usize, usize)> {
        let fronts = self.fifos.iter().enumerate();
        fronts.filter_map(|(t, fifo)| fifo.front().map(|&id| (id, t))).min()
    }

    fn push(&mut self, id: usize, tenant: usize) {
        self.fifos[tenant].push_back(id);
        self.depth += 1;
    }

    fn take(&mut self, tenant: usize, size: usize, each: impl FnMut(usize)) {
        self.depth -= size;
        self.fifos[tenant].drain(..size).for_each(each);
    }
}

/// Per-node mutable state inside the event loop.
struct NodeState<Q> {
    queue: Q,
    lane_free: Vec<u64>,
}

/// The tenants' requests merged into one stream and their shards drawn:
/// stable order (arrival cycle, tenant index), which preserves each
/// tenant's generation order, and shard draws in merged order from one
/// seeded stream — identical across placement policies and worker counts
/// by construction. Also returns each tenant's generated count.
fn merged_requests(cfg: &FleetConfig) -> (Vec<FleetRequest>, Vec<u64>) {
    let mut reqs: Vec<FleetRequest> = Vec::new();
    let mut generated = vec![0u64; cfg.tenants.len()];
    for (ti, t) in cfg.tenants.iter().enumerate() {
        for at in t.arrival.generate(t.requests, t.seed) {
            reqs.push(FleetRequest {
                tenant: ti,
                shard: 0,
                node: usize::MAX,
                arrival: at,
                deadline: at.saturating_add(t.slo_cycles),
                completion: None,
                shed: false,
            });
            generated[ti] += 1;
        }
    }
    reqs.sort_by_key(|r| (r.arrival, r.tenant));

    let weights = zipf_weights(cfg.shards, cfg.zipf_s);
    let total_weight: f64 = weights.iter().sum();
    let cum: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let mut shard_rng = SplitMix64::new(cfg.seed ^ SHARD_STREAM_SALT);
    for r in &mut reqs {
        r.shard = draw_shard(&cum, total_weight, &mut shard_rng);
    }
    (reqs, generated)
}

impl TenantOutcome {
    /// The outcome of a tenant that has generated `generated` requests
    /// and served none yet, priced by `service_cycles`.
    fn unserved(cfg: &TenantConfig, generated: u64, service_cycles: Vec<Vec<u64>>) -> Self {
        TenantOutcome {
            name: cfg.name.clone(),
            generated,
            admitted: 0,
            completed: 0,
            shed: 0,
            slo_met: 0,
            degrade_transitions: 0,
            latency: LatencyHistogram::new(),
            per_tier_completed: vec![0; cfg.tiers.len()],
            per_tier_batches: vec![0; cfg.tiers.len()],
            service_cycles,
        }
    }
}

/// The event loop: admits, routes, batches and serves `out.requests`
/// (merged arrival order, shards drawn) on nodes queueing with `Q`, and
/// fills in what it decides — each request's fate, the tenants' counters,
/// the batch records and the fleet totals. Each tenant's
/// `service_cycles` prices its dispatches, `net_cycles[tenant][tier]`
/// adds the interconnect, and `nmp[tenant]` is its offload plan's
/// per-point NMP choice, when planned.
fn run_events<Q: Queue>(
    cfg: &FleetConfig,
    holders: &[Vec<usize>],
    net_cycles: &[Vec<u64>],
    nmp: &[Option<&[Vec<bool>]>],
    out: &mut FleetOutcome,
) {
    let FleetOutcome {
        requests: reqs,
        tenants,
        shard_queries,
        node_busy_cycles,
        batches,
        max_queue_depth,
        network_cycles,
        latency_cycles,
        makespan_cycles,
        offload_nmp,
        offload_cpu,
        ..
    } = out;
    let lanes_n = cfg.lanes.max(1);
    let mut nodes: Vec<NodeState<Q>> = (0..cfg.nodes)
        .map(|_| NodeState { queue: Q::new(cfg.tenants.len()), lane_free: vec![0u64; lanes_n] })
        .collect();
    let mut tier_state = vec![0usize; cfg.tenants.len()];
    let mut now = 0u64;
    let mut next_arrival = 0usize;
    let n = reqs.len();

    loop {
        // Admit (or shed) every arrival due by `now`, in merged order:
        // route to the least-backlogged holder of the query's shard, then
        // apply the owning tenant's shed threshold on that node's queue.
        while next_arrival < n && reqs[next_arrival].arrival <= now {
            let id = next_arrival;
            next_arrival += 1;
            let r = &mut reqs[id];
            let ti = r.tenant;
            let node = holders[r.shard]
                .iter()
                .copied()
                .min_by_key(|&nd| (nodes[nd].queue.depth(), nd))
                .expect("every shard has a holder");
            let queue = &mut nodes[node].queue;
            if queue.depth() >= cfg.tenants[ti].shed_queue_depth.max(1) {
                r.shed = true;
                tenants[ti].shed += 1;
            } else {
                r.node = node;
                queue.push(id, ti);
                tenants[ti].admitted += 1;
                shard_queries[r.shard] += 1;
                *max_queue_depth = (*max_queue_depth).max(queue.depth());
            }
        }

        // Dispatch on every node while a lane is free and a batch is
        // ready; nodes are visited in fixed index order.
        for (ni, node) in nodes.iter_mut().enumerate() {
            while let Some((front, ti)) = node.queue.front() {
                let Some(lane) = node.lane_free.iter().position(|&f| f <= now) else { break };
                let t_cfg = &cfg.tenants[ti];
                let depth_t = node.queue.depth_of(ti);
                let full = depth_t >= cfg.batch_max;
                let lingered = now >= reqs[front].arrival.saturating_add(cfg.linger_cycles);
                if !(full || lingered) {
                    break;
                }

                // Controller: one tier step per dispatch, with hysteresis
                // — the tenant's ladder is cluster-global, stepped by
                // whichever node dispatches (deterministic: fixed order).
                let tenant = &mut tenants[ti];
                let service = &tenant.service_cycles;
                let size = depth_t.min(cfg.batch_max);
                let mut tier = tier_state[ti];
                let predicted_end = now
                    .saturating_add(service[tier][size - 1])
                    .saturating_add(net_cycles[ti][tier]);
                if (depth_t > t_cfg.degrade_queue_depth || predicted_end > reqs[front].deadline)
                    && tier + 1 < t_cfg.tiers.len()
                {
                    tier += 1;
                    tenant.degrade_transitions += 1;
                } else if depth_t <= t_cfg.upgrade_queue_depth && tier > 0 {
                    tier -= 1;
                    tenant.degrade_transitions += 1;
                }
                tier_state[ti] = tier;

                // Serve the tenant's `size` oldest waiters; everyone
                // else keeps their place.
                let svc = service[tier][size - 1];
                let net = net_cycles[ti][tier];
                let end = now.saturating_add(svc);
                let done = end.saturating_add(net);
                node.queue.take(ti, size, |id| {
                    let r = &mut reqs[id];
                    r.completion = Some(done);
                    let lat = done - r.arrival;
                    tenant.latency.observe(lat);
                    tenant.completed += 1;
                    tenant.per_tier_completed[tier] += 1;
                    if done <= r.deadline {
                        tenant.slo_met += 1;
                    }
                    *network_cycles += net;
                    *latency_cycles += lat;
                    *makespan_cycles = (*makespan_cycles).max(done);
                });
                node.lane_free[lane] = end;
                node_busy_cycles[ni] += svc;
                tenant.per_tier_batches[tier] += 1;
                if let Some(nmp) = nmp[ti] {
                    if nmp[tier][size - 1] {
                        *offload_nmp += 1;
                    } else {
                        *offload_cpu += 1;
                    }
                }
                batches.push(FleetBatchRecord {
                    node: ni,
                    tenant: ti,
                    start: now,
                    end,
                    size,
                    tier,
                    lane,
                    oldest_arrival: reqs[front].arrival,
                });
            }
        }

        // Advance to the next event: an arrival, or the earliest moment
        // any node's oldest waiter can actually dispatch.
        let mut next = u64::MAX;
        if next_arrival < n {
            next = reqs[next_arrival].arrival;
        }
        for node in &nodes {
            if let Some((front, ti)) = node.queue.front() {
                let earliest_lane =
                    node.lane_free.iter().copied().min().expect("at least one lane");
                let readiness = if node.queue.depth_of(ti) >= cfg.batch_max {
                    now
                } else {
                    reqs[front].arrival.saturating_add(cfg.linger_cycles)
                };
                next = next.min(readiness.max(earliest_lane).max(now + 1));
            }
        }
        if next == u64::MAX {
            break;
        }
        debug_assert!(next > now, "event time must advance");
        now = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enmc_serve::tier::default_tiers;
    use enmc_surrogate::CostBackend;

    /// The queue discipline the loop ran before it kept per-tenant
    /// FIFOs: one deque per node in admission order, a tenant's depth
    /// counted by a scan, and a dispatch that rebuilds the deque.
    struct ScanQueue {
        pending: VecDeque<(usize, usize)>,
    }

    impl Queue for ScanQueue {
        fn new(_tenants: usize) -> Self {
            ScanQueue { pending: VecDeque::new() }
        }

        fn depth(&self) -> usize {
            self.pending.len()
        }

        fn depth_of(&self, tenant: usize) -> usize {
            self.pending.iter().filter(|&&(_, t)| t == tenant).count()
        }

        fn front(&self) -> Option<(usize, usize)> {
            self.pending.front().copied()
        }

        fn push(&mut self, id: usize, tenant: usize) {
            self.pending.push_back((id, tenant));
        }

        fn take(&mut self, tenant: usize, size: usize, each: impl FnMut(usize)) {
            let mut picked = Vec::with_capacity(size);
            let mut rest = VecDeque::with_capacity(self.pending.len());
            while let Some((id, t)) = self.pending.pop_front() {
                if t == tenant && picked.len() < size {
                    picked.push(id);
                } else {
                    rest.push_back((id, t));
                }
            }
            self.pending = rest;
            picked.into_iter().for_each(each);
        }
    }

    /// A seeded random fleet with at least three tenants and nodes, its
    /// outcome before the loop (random service tables, so no
    /// calibration), the placement's holders, the interconnect cycles and
    /// the offload choices.
    #[allow(clippy::type_complexity)]
    fn random_fleet(
        seed: u64,
    ) -> (FleetConfig, FleetOutcome, Vec<Vec<usize>>, Vec<Vec<u64>>, Vec<Vec<Vec<bool>>>) {
        let mut rng = SplitMix64::new(seed);
        let mut pick = |lo: u64, hi: u64| lo + rng.next_u64() % (hi - lo + 1);
        let nodes = pick(3, 5) as usize;
        let batch_max = pick(1, 5) as usize;
        let tenants: Vec<TenantConfig> = (0..pick(3, 5))
            .map(|i| {
                let rate = [0.3, 1.0, 3.0, 8.0][pick(0, 3) as usize];
                let arrival = if pick(0, 1) == 0 {
                    ArrivalProcess::Poisson { rate }
                } else {
                    ArrivalProcess::Burst {
                        calm_rate: rate / 4.0,
                        burst_rate: rate * 2.0,
                        calm_cycles: 20_000.0,
                        burst_cycles: 5_000.0,
                    }
                };
                let tiers = (0..pick(1, 3))
                    .map(|k| DegradeTier { candidates: 64 >> k, screen_shift: k as u32 })
                    .collect();
                let degrade = pick(0, 12) as usize;
                TenantConfig {
                    degrade_queue_depth: degrade,
                    upgrade_queue_depth: pick(0, degrade as u64) as usize,
                    shed_queue_depth: pick(1, 40) as usize,
                    ..TenantConfig::new(
                        &format!("t{i}"),
                        arrival,
                        pick(20, 160) as usize,
                        pick(2_000, 60_000),
                        tiers,
                        pick(0, u64::MAX - 1),
                    )
                }
            })
            .collect();
        let cfg = FleetConfig {
            nodes,
            shards: pick(nodes as u64, 2 * nodes as u64) as usize,
            replicas: pick(0, 3) as usize,
            placement: [PlacementPolicy::ConsistentHash, PlacementPolicy::PopularityAware]
                [pick(0, 1) as usize],
            zipf_s: [0.0, 0.5, 1.0, 1.5][pick(0, 3) as usize],
            batch_max,
            linger_cycles: [0, 150, 1_000, 6_000][pick(0, 3) as usize],
            lanes: pick(1, 3) as usize,
            tenants,
            seed: pick(0, 1_000),
            ..Default::default()
        };
        let tiers = |t: &TenantConfig| t.tiers.len();
        let service: Vec<Vec<Vec<u64>>> = cfg
            .tenants
            .iter()
            .map(|t| {
                (0..tiers(t))
                    .map(|_| (0..batch_max).map(|b| pick(200, 1_500) * (b as u64 + 2)).collect())
                    .collect()
            })
            .collect();
        let net: Vec<Vec<u64>> =
            cfg.tenants.iter().map(|t| (0..tiers(t)).map(|_| pick(0, 400)).collect()).collect();
        let nmp: Vec<Vec<Vec<bool>>> = cfg
            .tenants
            .iter()
            .map(|t| {
                (0..tiers(t)).map(|_| (0..batch_max).map(|_| pick(0, 1) == 0).collect()).collect()
            })
            .collect();
        let (requests, generated) = merged_requests(&cfg);
        let out = FleetOutcome {
            tenants: cfg
                .tenants
                .iter()
                .zip(generated)
                .zip(service)
                .map(|((t, g), table)| TenantOutcome::unserved(t, g, table))
                .collect(),
            nodes: cfg.nodes,
            shards: cfg.shards,
            placement: cfg.placement.name().to_string(),
            hot_shard_replicas: 0,
            makespan_cycles: 0,
            ns_per_cycle: 1.0,
            max_queue_depth: 0,
            protocol_violations: 0,
            network_cycles: 0,
            latency_cycles: 0,
            shard_queries: vec![0; cfg.shards],
            node_busy_cycles: vec![0; cfg.nodes],
            requests,
            batches: Vec::new(),
            surrogate: Surrogate::default(),
            offload_nmp: 0,
            offload_cpu: 0,
        };
        let holders = place(cfg.placement, cfg.shards, cfg.nodes, cfg.replicas, cfg.zipf_s).holders;
        (cfg, out, holders, net, nmp)
    }

    #[test]
    fn tenant_fifos_serve_exactly_what_the_scan_served() {
        let (mut shed, mut degraded, mut waited) = (0, 0, 0);
        for seed in 0..60u64 {
            let (cfg, start, holders, net, nmp) = random_fleet(seed);
            let planned: Vec<Option<&[Vec<bool>]>> = if seed % 3 == 0 {
                vec![None; nmp.len()]
            } else {
                nmp.iter().map(|p| Some(p.as_slice())).collect()
            };
            let mut fifo = start.clone();
            run_events::<NodeQueue>(&cfg, &holders, &net, &planned, &mut fifo);
            let mut scan = start;
            run_events::<ScanQueue>(&cfg, &holders, &net, &planned, &mut scan);
            assert_eq!(fifo.requests, scan.requests, "seed {seed}");
            assert_eq!(fifo.batches, scan.batches, "seed {seed}");
            assert_eq!(fifo.tenants, scan.tenants, "seed {seed}");
            assert_eq!(fifo.max_queue_depth, scan.max_queue_depth, "seed {seed}");
            assert_eq!(fifo.node_busy_cycles, scan.node_busy_cycles, "seed {seed}");
            assert_eq!(fifo, scan, "seed {seed}");
            for t in &fifo.tenants {
                assert_eq!(t.completed + t.shed, t.generated, "seed {seed}: {}", t.name);
            }
            shed += usize::from(fifo.tenants.iter().any(|t| t.shed > 0));
            degraded += usize::from(fifo.tenants.iter().any(|t| t.degrade_transitions > 0));
            waited += usize::from(fifo.batches.iter().any(|b| b.start > b.oldest_arrival));
        }
        // The seeds reach every branch the queues feed: shedding, tier
        // steps and waiting batches.
        assert!(shed >= 30 && degraded >= 30 && waited >= 50, "{shed} {degraded} {waited}");
    }

    fn small_job() -> ClassificationJob {
        ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 }
    }

    fn two_tenant_cfg(job: &ClassificationJob) -> FleetConfig {
        FleetConfig {
            nodes: 2,
            shards: 2,
            replicas: 1,
            placement: PlacementPolicy::PopularityAware,
            zipf_s: 1.0,
            batch_max: 3,
            linger_cycles: 5_000,
            lanes: 1,
            tenants: vec![
                TenantConfig::new(
                    "t0",
                    ArrivalProcess::Poisson { rate: 0.05 },
                    32,
                    400_000,
                    default_tiers(job),
                    11,
                ),
                TenantConfig::new(
                    "t1",
                    ArrivalProcess::Poisson { rate: 0.05 },
                    32,
                    800_000,
                    default_tiers(job),
                    12,
                ),
            ],
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn conservation_per_tenant_and_total() {
        let sys = SystemModel::table3();
        let job = small_job();
        let cfg = two_tenant_cfg(&job);
        let mut reg = MetricsRegistry::new();
        let mut cost = CostModel::new(CostBackend::CycleAccurate, 7);
        let out = simulate_fleet(&sys, &job, &cfg, &SimConfig::sequential(), &mut reg, &mut cost)
            .unwrap();
        for t in &out.tenants {
            assert_eq!(t.admitted + t.shed, t.generated, "{}", t.name);
            assert_eq!(t.completed, t.admitted, "open queues drain: {}", t.name);
            assert_eq!(t.latency.count(), t.completed);
        }
        let routed: u64 = out.shard_queries.iter().sum();
        let admitted: u64 = out.tenants.iter().map(|t| t.admitted).sum();
        assert_eq!(routed, admitted, "router accounts every admitted query");
        assert!(out.makespan_cycles > 0);
        assert!(out.ns_per_cycle > 0.0);
        assert_eq!(out.offload_nmp + out.offload_cpu, 0, "no plan, no decisions");
    }

    #[test]
    fn offload_counts_every_batch_and_never_slows_the_fleet() {
        let sys = SystemModel::table3();
        let job = small_job();
        let base = two_tenant_cfg(&job);
        let offload = FleetConfig { offload: true, ..base.clone() };
        let mut reg1 = MetricsRegistry::new();
        let mut c1 = CostModel::new(CostBackend::CycleAccurate, 7);
        let plain =
            simulate_fleet(&sys, &job, &base, &SimConfig::sequential(), &mut reg1, &mut c1)
                .unwrap();
        let mut reg2 = MetricsRegistry::new();
        let mut c2 = CostModel::new(CostBackend::CycleAccurate, 7);
        let planned =
            simulate_fleet(&sys, &job, &offload, &SimConfig::sequential(), &mut reg2, &mut c2)
                .unwrap();
        assert_eq!(
            planned.offload_nmp + planned.offload_cpu,
            planned.batches.len() as u64,
            "every dispatched batch carries a planner decision"
        );
        // Planned service is min(cpu, nmp) per point, so no batch got
        // slower and the makespan cannot grow.
        assert!(planned.makespan_cycles <= plain.makespan_cycles);
        let r = planned.report("lstm", &offload, &reg2);
        let decided = r.offload.expect("an offload run reports its decisions");
        assert_eq!(decided.offload_nmp, planned.offload_nmp);
        assert_eq!(decided.offload_cpu, planned.offload_cpu);
        assert!(plain.report("lstm", &base, &reg1).offload.is_none());
    }

    #[test]
    fn outcome_is_identical_across_worker_counts() {
        let sys = SystemModel::table3();
        let job = small_job();
        let cfg = two_tenant_cfg(&job);
        let mut reg1 = MetricsRegistry::new();
        let mut c1 = CostModel::new(CostBackend::CycleAccurate, 7);
        let seq =
            simulate_fleet(&sys, &job, &cfg, &SimConfig::sequential(), &mut reg1, &mut c1)
                .unwrap();
        let mut reg4 = MetricsRegistry::new();
        let mut c4 = CostModel::new(CostBackend::CycleAccurate, 7);
        let par =
            simulate_fleet(&sys, &job, &cfg, &SimConfig::with_threads(4), &mut reg4, &mut c4)
                .unwrap();
        assert_eq!(seq, par);
        assert_eq!(
            seq.report("test", &cfg, &reg1).to_json(),
            par.report("test", &cfg, &reg4).to_json()
        );
    }

    #[test]
    fn multi_node_pays_the_network_and_single_node_does_not() {
        let sys = SystemModel::table3();
        let job = small_job();
        let mut cfg = two_tenant_cfg(&job);
        let mut reg = MetricsRegistry::new();
        let mut cost = CostModel::new(CostBackend::CycleAccurate, 7);
        let multi =
            simulate_fleet(&sys, &job, &cfg, &SimConfig::sequential(), &mut reg, &mut cost)
                .unwrap();
        assert!(multi.network_cycles > 0, "2-node fleet pays the interconnect");
        assert!(multi.network_share() > 0.0);

        cfg.nodes = 1;
        cfg.shards = 1;
        cfg.replicas = 0;
        let mut reg1 = MetricsRegistry::new();
        let mut cost1 = CostModel::new(CostBackend::CycleAccurate, 7);
        let single =
            simulate_fleet(&sys, &job, &cfg, &SimConfig::sequential(), &mut reg1, &mut cost1)
                .unwrap();
        assert_eq!(single.network_cycles, 0);
        assert_eq!(single.network_share(), 0.0);
    }

    #[test]
    fn report_is_consistent_and_round_trips() {
        let sys = SystemModel::table3();
        let job = small_job();
        let cfg = two_tenant_cfg(&job);
        let mut reg = MetricsRegistry::new();
        let mut cost = CostModel::new(CostBackend::CycleAccurate, 7);
        let out = simulate_fleet(&sys, &job, &cfg, &SimConfig::sequential(), &mut reg, &mut cost)
            .unwrap();
        let report = out.report("synthetic", &cfg, &reg);
        assert_eq!(report.schema_version, enmc_obs::report::SCHEMA_VERSION);
        assert!(report.is_consistent());
        assert_eq!(report.command, "fleet-sim");
        assert_eq!(report.sections(), ["serving", "surrogate", "fleet"]);
        let fleet = report.fleet.as_ref().unwrap();
        assert_eq!(fleet.nodes, 2);
        assert_eq!(fleet.placement, "popularity");
        assert_eq!(fleet.tenants.len(), 2);
        assert_eq!(report.threads, 0, "fleet reports carry no host threading");
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}
