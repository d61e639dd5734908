//! The `serve-sim` view of a fleet run.
//!
//! `enmc serve-sim` is the fleet loop at its degenerate point: one node,
//! one shard, no replicas, uniform popularity and one tenant carrying the
//! queue thresholds (see "The single-node case" in [`crate::sim`]). The
//! loop records nothing serving-specific per event; this module renders
//! the single-node report, its `serve.*` metrics and its queue/lane trace
//! from the [`FleetOutcome`] after the loop has run. Every function here
//! expects a one-tenant outcome.

use enmc_obs::report::RunReport;
use enmc_obs::trace::{TraceBuffer, TraceEvent};
use enmc_obs::MetricsRegistry;
use enmc_serve::hist::cycle_bounds;

use crate::sim::{FleetConfig, FleetOutcome, TenantOutcome};

/// Trace category for serving-layer events.
const CAT_SERVE: &str = "serve";
/// Trace pid for the serving layer (one pid: the queue plus its lanes).
const PID_SERVE: u32 = 7;
/// Trace tid for queue-level events (shed/degrade/upgrade markers).
const TID_QUEUE: u32 = 0;
/// Trace tid of batcher lane 0; lane `i` is `TID_LANE0 + i`.
const TID_LANE0: u32 = 1;

/// Label for a tier index, for metric series (ladders deeper than 8 fold
/// into one series).
pub fn tier_label(t: usize) -> &'static str {
    const NAMES: [&str; 8] = ["0", "1", "2", "3", "4", "5", "6", "7"];
    NAMES.get(t).copied().unwrap_or("8+")
}

impl FleetOutcome {
    /// The only tenant of a single-node serving run.
    fn serve_tenant(&self) -> &TenantOutcome {
        assert_eq!(self.tenants.len(), 1, "the serve-sim view needs exactly one tenant");
        &self.tenants[0]
    }

    /// Records the `serve.*` counters, gauges and latency histogram of a
    /// one-tenant run into `registry`. `serve.tier_final` is the last
    /// batch's tier (0 when no batch ran).
    pub fn record_serve_metrics(&self, registry: &mut MetricsRegistry) {
        let t = self.serve_tenant();
        registry.counter_add("serve.generated", &[], t.generated);
        registry.counter_add("serve.admitted", &[], t.admitted);
        registry.counter_add("serve.completed", &[], t.completed);
        registry.counter_add("serve.shed", &[], t.shed);
        registry.counter_add("serve.slo_met", &[], t.slo_met);
        registry.counter_add("serve.batches", &[], self.batches.len() as u64);
        registry.counter_add("serve.degrade_transitions", &[], t.degrade_transitions);
        registry.gauge_set("serve.queue_depth_max", &[], self.max_queue_depth as f64);
        let tier_final = self.batches.last().map_or(0, |b| b.tier);
        registry.gauge_set("serve.tier_final", &[], tier_final as f64);
        for (i, (&done, &b)) in t.per_tier_completed.iter().zip(&t.per_tier_batches).enumerate() {
            registry.counter_add("serve.tier_completed", &[("tier", tier_label(i))], done);
            registry.counter_add("serve.tier_batches", &[("tier", tier_label(i))], b);
        }
        let bounds = cycle_bounds();
        for r in &self.requests {
            if let Some(end) = r.completion {
                let cycles = (end - r.arrival) as f64;
                registry.observe_with("serve.latency_cycles", &[], &bounds, cycles);
            }
        }
    }

    /// Builds the `serve-sim` [`RunReport`] for a one-tenant run: the
    /// shared headline fields plus the arrival, calibration and wall-time
    /// notes.
    pub fn serve_report(
        &self,
        workload: &str,
        cfg: &FleetConfig,
        registry: &MetricsRegistry,
    ) -> RunReport {
        let t = self.serve_tenant();
        let tenant = &cfg.tenants[0];
        let mut report = self.headline_report("serve-sim", "serve", workload, cfg, registry);
        report.notes.push(format!(
            "open-loop {} arrivals, seed {}, {} request(s)",
            tenant.arrival.kind(),
            tenant.seed,
            t.generated
        ));
        report.notes.push(format!(
            "service table calibrated over {} tier(s) x batch 1..={}",
            tenant.tiers.len(),
            cfg.batch_max
        ));
        report.notes.push(
            "host wall time excluded: serving reports are simulation-time only".to_string(),
        );
        report
    }

    /// Renders a one-tenant run's queue and lane spans into `sink`: a
    /// `shed` instant per rejected request, a `degrade` or `upgrade`
    /// instant wherever a batch's tier differs from the one before it,
    /// and a `batch` begin/end pair per dispatch on its lane's tid.
    pub fn serve_trace(&self, sink: &mut TraceBuffer) {
        self.serve_tenant();
        for (id, r) in self.requests.iter().enumerate().filter(|(_, r)| r.shed) {
            sink.record(
                TraceEvent::instant("shed", CAT_SERVE, r.arrival, PID_SERVE, TID_QUEUE)
                    .with_arg("request", id as u64),
            );
        }
        let mut tier = 0;
        for b in &self.batches {
            if b.tier != tier {
                let name = if b.tier > tier { "degrade" } else { "upgrade" };
                sink.record(
                    TraceEvent::instant(name, CAT_SERVE, b.start, PID_SERVE, TID_QUEUE)
                        .with_arg("tier", b.tier as u64),
                );
                tier = b.tier;
            }
            let tid = TID_LANE0 + b.lane as u32;
            sink.record(
                TraceEvent::begin("batch", CAT_SERVE, b.start, PID_SERVE, tid)
                    .with_arg("size", b.size as u64)
                    .with_arg("tier", b.tier as u64),
            );
            sink.record(TraceEvent::end("batch", CAT_SERVE, b.end, PID_SERVE, tid));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_fleet, TenantConfig};
    use enmc_arch::system::{ClassificationJob, SystemModel};
    use enmc_obs::trace::{export_chrome, validate_chrome, TraceBuffer};
    use enmc_par::SimConfig;
    use enmc_serve::tier::default_tiers;
    use enmc_serve::ArrivalProcess;
    use enmc_surrogate::{CostBackend, CostModel};

    /// A single-node run loaded enough to keep both lanes busy.
    fn serve_run() -> (FleetConfig, FleetOutcome) {
        let job =
            ClassificationJob { categories: 2048, hidden: 64, reduced: 16, batch: 1, candidates: 128 };
        let cfg = FleetConfig {
            nodes: 1,
            shards: 1,
            replicas: 0,
            zipf_s: 0.0,
            batch_max: 3,
            linger_cycles: 5_000,
            lanes: 2,
            tenants: vec![TenantConfig::new(
                "t0",
                ArrivalProcess::Poisson { rate: 1.0 },
                48,
                400_000,
                default_tiers(&job),
                11,
            )],
            seed: 11,
            ..Default::default()
        };
        let mut cost = CostModel::new(CostBackend::CycleAccurate, 11);
        let sys = SystemModel::table3();
        let mut scratch = MetricsRegistry::new();
        let out =
            simulate_fleet(&sys, &job, &cfg, &SimConfig::sequential(), &mut scratch, &mut cost)
                .unwrap();
        (cfg, out)
    }

    #[test]
    fn trace_spans_pair_up_per_lane() {
        let (_, out) = serve_run();
        let mut tb = TraceBuffer::unbounded();
        out.serve_trace(&mut tb);
        let events = tb.drain();
        let batch_events = events.iter().filter(|e| e.name == "batch").count();
        assert_eq!(batch_events as u64 / 2, out.batches.len() as u64);
        assert!(out.batches.iter().any(|b| b.lane == 1), "both lanes serve");
        assert!(events.iter().all(|e| e.pid == PID_SERVE));
        validate_chrome(&export_chrome(&events, out.ns_per_cycle)).unwrap();
    }

    #[test]
    fn serve_report_carries_only_serve_metrics() {
        let (cfg, out) = serve_run();
        let mut reg = MetricsRegistry::new();
        out.record_serve_metrics(&mut reg);
        let report = out.serve_report("synthetic", &cfg, &reg);
        assert_eq!(report.command, "serve-sim");
        assert!(report.is_consistent());
        assert_eq!(report.sections(), ["serving", "surrogate"], "no fleet section on serve-sim");
        assert_eq!(report.notes.len(), 3);
        assert_eq!(reg.counter_value("serve.completed", &[]), out.tenants[0].completed);
        assert!(report.metrics.counters.iter().all(|c| c.name.starts_with("serve.")));
        assert_eq!(RunReport::from_json(&report.to_json()).unwrap(), report);
    }
}
