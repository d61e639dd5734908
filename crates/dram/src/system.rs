//! The top-level DRAM system: channels + address mapping + completions.

use crate::checker::ProtocolViolation;
use crate::command::TimedCommand;
use crate::config::{DramConfig, Timing};
use crate::controller::ChannelController;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::mapping::AddressMapping;
use crate::stats::DramStats;
use enmc_obs::trace::TraceEvent;

/// Identifier assigned to an accepted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// 64-byte read burst.
    Read,
    /// 64-byte write burst.
    Write,
}

/// A memory request for one 64-byte burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Byte address (low 6 bits ignored).
    pub addr: u64,
    /// Read or write.
    pub kind: RequestKind,
}

impl MemRequest {
    /// A read of the burst containing `addr`.
    pub fn read(addr: u64) -> Self {
        MemRequest { addr, kind: RequestKind::Read }
    }

    /// A write of the burst containing `addr`.
    pub fn write(addr: u64) -> Self {
        MemRequest { addr, kind: RequestKind::Write }
    }
}

/// A finished request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's id.
    pub id: RequestId,
    /// Cycle at which its data finished on the bus.
    pub finish_cycle: u64,
    /// Cycle at which it entered the controller.
    pub enqueued: u64,
}

impl Completion {
    /// Queueing + service latency in cycles.
    pub fn latency(&self) -> u64 {
        self.finish_cycle - self.enqueued
    }
}

/// A complete multi-channel DRAM subsystem.
///
/// Drive it by interleaving [`DramSystem::enqueue`] and
/// [`DramSystem::tick`]; completed requests become visible through
/// [`DramSystem::drain_completions`] once their data has left the bus.
#[derive(Debug, Clone)]
pub struct DramSystem {
    config: DramConfig,
    mapping: AddressMapping,
    channels: Vec<ChannelController>,
    cycle: u64,
    next_id: u64,
    pending: Vec<Completion>,
    ready: Vec<Completion>,
}

impl DramSystem {
    /// Builds a system with the host-style channel-interleaved mapping.
    pub fn new(config: DramConfig) -> Self {
        Self::with_mapping(config, AddressMapping::RoBaRaCoCh)
    }

    /// Builds a system with an explicit address mapping (the ENMC on-DIMM
    /// controller uses [`AddressMapping::RoRaBaCoBg`]).
    pub fn with_mapping(config: DramConfig, mapping: AddressMapping) -> Self {
        let channels = (0..config.organization.channels)
            .map(|_| ChannelController::new(config))
            .collect();
        DramSystem {
            config,
            mapping,
            channels,
            cycle: 0,
            next_id: 0,
            pending: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Current memory-clock cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Elapsed wall time in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.config.timing.cycles_to_ns(self.cycle)
    }

    /// Tries to enqueue `req`; returns its id, or `None` if the target
    /// channel's queue is full (retry after ticking).
    pub fn enqueue(&mut self, req: MemRequest) -> Option<RequestId> {
        let coord = self.mapping.decode(req.addr, &self.config.organization);
        let id = RequestId(self.next_id);
        if self.channels[coord.channel].enqueue(id, req.kind, coord, self.cycle) {
            self.next_id += 1;
            Some(id)
        } else {
            None
        }
    }

    /// Advances the whole subsystem by one memory-clock cycle.
    pub fn tick(&mut self) {
        for ch in &mut self.channels {
            if let Some(c) = ch.tick(self.cycle) {
                self.pending.push(c);
            }
        }
        self.cycle += 1;
        // Promote completions whose data has fully transferred, in order.
        let now = self.cycle;
        let ready = &mut self.ready;
        self.pending.retain(|c| {
            let done = c.finish_cycle <= now;
            if done {
                ready.push(*c);
            }
            !done
        });
    }

    /// Removes and returns all completions available so far.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.ready)
    }

    /// `true` if no requests are queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.channels.iter().all(ChannelController::is_idle)
    }

    /// Runs until idle or `max_cycles` more cycles elapse; returns all
    /// completions observed.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion> {
        let deadline = self.cycle + max_cycles;
        let mut out = Vec::new();
        while !self.is_idle() && self.cycle < deadline {
            self.tick();
            out.append(&mut self.ready);
        }
        out.append(&mut self.ready);
        out
    }

    /// [`DramSystem::run_until_idle`] with the channels stepped on
    /// `workers` threads, bit-identical to the sequential drain.
    ///
    /// Channels never interact once their requests are enqueued, so each
    /// controller can run to its own idle point independently; the system
    /// then computes the common final cycle (the straggler channel or the
    /// last in-flight data transfer, whichever is later) and pads every
    /// channel with idle ticks up to it. Those padding ticks are exactly
    /// the ticks the lockstep loop would have issued, so per-channel
    /// statistics, refresh schedules, trace events, cursor position, and
    /// the completion stream all match the sequential path bit for bit —
    /// for any worker count, including one.
    pub fn run_until_idle_par(&mut self, max_cycles: u64, workers: usize) -> Vec<Completion> {
        if workers <= 1 || self.channels.len() < 2 {
            return self.run_until_idle(max_cycles);
        }
        let start = self.cycle;
        let deadline = start.saturating_add(max_cycles);
        let mut out = std::mem::take(&mut self.ready);

        // Phase 1: drain each channel's queue independently, recording the
        // cycle each completion was produced at.
        let channels = std::mem::take(&mut self.channels);
        let drained = enmc_par::par_map(workers, channels, |_, mut ch| {
            let mut produced: Vec<(u64, Completion)> = Vec::new();
            let mut cycle = start;
            while !ch.is_idle() && cycle < deadline {
                if let Some(c) = ch.tick(cycle) {
                    produced.push((cycle, c));
                }
                cycle += 1;
            }
            (ch, produced, cycle)
        });

        // The cycle the lockstep loop would stop at: every queue drained
        // and every completion's data off the bus (or the deadline).
        let mut final_cycle = start;
        for (_, produced, stop) in &drained {
            final_cycle = final_cycle.max(*stop);
            for (_, c) in produced {
                final_cycle = final_cycle.max(c.finish_cycle);
            }
        }
        for c in &self.pending {
            final_cycle = final_cycle.max(c.finish_cycle).max(start + 1);
        }
        let final_cycle = final_cycle.min(deadline);

        // Phase 2: pad every channel to the common final cycle. A drained
        // channel only accrues idle/refresh bookkeeping here, never new
        // completions.
        let padded = enmc_par::par_map(workers, drained, |_, (mut ch, produced, stop)| {
            for cycle in stop..final_cycle {
                let extra = ch.tick(cycle);
                debug_assert!(extra.is_none(), "idle channel produced a completion");
            }
            (ch, produced)
        });

        // Merge the completion streams in the order the lockstep loop
        // promotes them: by promotion cycle, then production order
        // (production cycle, then channel index).
        let mut keyed: Vec<(u64, u64, Completion)> = Vec::new();
        let mut seq = 0u64;
        for c in self.pending.drain(..) {
            keyed.push((c.finish_cycle.max(start + 1), seq, c));
            seq += 1;
        }
        let nch = padded.len() as u64;
        self.channels = Vec::with_capacity(padded.len());
        for (idx, (ch, produced)) in padded.into_iter().enumerate() {
            self.channels.push(ch);
            for (t, c) in produced {
                keyed.push((c.finish_cycle.max(t + 1), seq + (t - start) * nch + idx as u64, c));
            }
        }
        keyed.sort_by_key(|&(promote, order, _)| (promote, order));
        self.cycle = final_cycle;
        let mut leftover: Vec<(u64, Completion)> = Vec::new();
        for (promote, order, c) in keyed {
            if promote <= final_cycle {
                out.push(c);
            } else {
                leftover.push((order, c));
            }
        }
        // Unpromoted completions stay pending in production order, exactly
        // as the lockstep loop leaves them.
        leftover.sort_by_key(|&(order, _)| order);
        self.pending = leftover.into_iter().map(|(_, c)| c).collect();
        out
    }

    /// Aggregated statistics over all channels. Channels tick in lockstep,
    /// so the parallel merge (max of clocks) is the right flavour.
    pub fn stats(&self) -> DramStats {
        let mut s = DramStats::default();
        for ch in &self.channels {
            s.merge_parallel(ch.stats());
        }
        s
    }

    /// Starts collecting command events on every channel, each into its own
    /// ring of `capacity_per_channel` events stamped with the channel index
    /// as `pid`.
    pub fn enable_trace(&mut self, capacity_per_channel: usize) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            ch.enable_trace(capacity_per_channel, i as u32);
        }
    }

    /// `true` when command events are being collected.
    pub fn trace_enabled(&self) -> bool {
        self.channels.iter().any(ChannelController::trace_enabled)
    }

    /// Removes and returns all collected events, merged across channels in
    /// timestamp order (collection stays on).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for ch in &mut self.channels {
            events.extend(ch.take_trace());
        }
        events.sort_by_key(|e| e.ts);
        events
    }

    /// Attaches a protocol checker to every channel, validating against
    /// the configured timing.
    pub fn enable_protocol_check(&mut self) {
        self.enable_protocol_check_against(self.config.timing);
    }

    /// Attaches a protocol checker validating against `reference` timing
    /// (which may deliberately differ from the configured timing, to
    /// audit a mis-timed controller).
    pub fn enable_protocol_check_against(&mut self, reference: Timing) {
        for (i, ch) in self.channels.iter_mut().enumerate() {
            ch.enable_protocol_check(reference, i as u32);
        }
    }

    /// `true` when protocol checking is on.
    pub fn protocol_check_enabled(&self) -> bool {
        self.channels.iter().any(ChannelController::protocol_check_enabled)
    }

    /// Total protocol violations observed across all channels.
    pub fn protocol_violation_count(&self) -> u64 {
        self.channels.iter().map(ChannelController::protocol_violation_count).sum()
    }

    /// Removes and returns the recorded violations across all channels,
    /// ordered by `(cycle, channel)` (checking stays on).
    pub fn take_protocol_violations(&mut self) -> Vec<ProtocolViolation> {
        let mut all: Vec<ProtocolViolation> = Vec::new();
        for ch in &mut self.channels {
            all.extend(ch.take_protocol_violations());
        }
        all.sort_by_key(|v| (v.cycle, v.channel));
        all
    }

    /// Starts logging issued commands on every channel, for golden-model
    /// replay.
    pub fn enable_command_log(&mut self) {
        for ch in &mut self.channels {
            ch.enable_command_log();
        }
    }

    /// Removes and returns each channel's command log (logging stays on).
    pub fn take_command_log(&mut self) -> Vec<Vec<TimedCommand>> {
        self.channels.iter_mut().map(ChannelController::take_command_log).collect()
    }

    /// Per-channel statistics, in channel order.
    pub fn channel_stats(&self) -> Vec<DramStats> {
        self.channels.iter().map(|ch| ch.stats().clone()).collect()
    }

    /// DRAM energy so far under `model`.
    pub fn energy(&self, model: &EnergyModel) -> EnergyBreakdown {
        model.breakdown(&self.stats())
    }

    /// Convenience energy with the default DDR4 model sized to this
    /// subsystem's rank count.
    pub fn energy_default(&self) -> EnergyBreakdown {
        let ranks = self.config.organization.channels * self.config.organization.ranks;
        self.energy(&EnergyModel::ddr4_2400_rank(ranks))
    }

    /// Achieved bandwidth so far in GB/s (decimal).
    pub fn achieved_bandwidth_gbs(&self) -> f64 {
        let ns = self.elapsed_ns();
        if ns == 0.0 {
            0.0
        } else {
            self.stats().bytes() as f64 / ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_read_completes() {
        let mut sys = DramSystem::new(DramConfig::enmc_single_rank());
        let id = sys.enqueue(MemRequest::read(4096)).expect("space");
        let done = sys.run_until_idle(10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert!(done[0].latency() > 0);
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let mut sys = DramSystem::new(DramConfig::enmc_table3());
        let a = sys.enqueue(MemRequest::read(0)).unwrap();
        let b = sys.enqueue(MemRequest::read(64)).unwrap();
        assert!(b > a);
    }

    #[test]
    fn streaming_achieves_high_bandwidth() {
        // Stream 1 MiB sequentially through a single rank with the ENMC
        // mapping; expect most of the 19.2 GB/s channel peak.
        let mut sys = DramSystem::with_mapping(
            DramConfig::enmc_single_rank(),
            AddressMapping::RoRaBaCoBg,
        );
        let total = (1u64 << 20) / 64;
        let mut sent = 0u64;
        let mut done = 0u64;
        while done < total {
            while sent < total {
                if sys.enqueue(MemRequest::read(sent * 64)).is_some() {
                    sent += 1;
                } else {
                    break;
                }
            }
            sys.tick();
            done += sys.drain_completions().len() as u64;
            assert!(sys.cycle() < 10_000_000, "stalled");
        }
        let gbs = sys.achieved_bandwidth_gbs();
        assert!(gbs > 14.0, "achieved {gbs} GB/s");
    }

    #[test]
    fn multi_channel_scales_bandwidth() {
        let mut sys = DramSystem::new(DramConfig::enmc_table3());
        let total = 8192u64;
        let mut sent = 0u64;
        let mut done = 0u64;
        while done < total {
            while sent < total {
                if sys.enqueue(MemRequest::read(sent * 64)).is_some() {
                    sent += 1;
                } else {
                    break;
                }
            }
            sys.tick();
            done += sys.drain_completions().len() as u64;
            assert!(sys.cycle() < 10_000_000, "stalled");
        }
        let gbs = sys.achieved_bandwidth_gbs();
        // 8 channels: well above a single channel's peak.
        assert!(gbs > 60.0, "achieved {gbs} GB/s");
    }

    #[test]
    fn is_idle_reflects_state() {
        let mut sys = DramSystem::new(DramConfig::enmc_single_rank());
        assert!(sys.is_idle());
        sys.enqueue(MemRequest::write(0)).unwrap();
        assert!(!sys.is_idle());
        sys.run_until_idle(100_000);
        assert!(sys.is_idle());
    }

    #[test]
    fn system_trace_merges_channels_in_order() {
        let mut sys = DramSystem::new(DramConfig::enmc_table3());
        sys.enable_trace(4096);
        assert!(sys.trace_enabled());
        for i in 0..64 {
            sys.enqueue(MemRequest::read(i * 64)).unwrap();
        }
        sys.run_until_idle(1_000_000);
        let events = sys.take_trace();
        assert!(!events.is_empty());
        assert!(events.windows(2).all(|w| w[0].ts <= w[1].ts), "out of order");
        // Multi-channel config with interleaved addresses: several pids.
        let pids: std::collections::HashSet<u32> = events.iter().map(|e| e.pid).collect();
        assert!(pids.len() > 1, "expected multiple channels, got {pids:?}");
    }

    /// Loads a mixed read/write pattern spread over all channels.
    fn load_mixed(sys: &mut DramSystem, n: u64) {
        for i in 0..n {
            let addr = i * 64 + (i % 7) * 4096;
            let req = if i % 3 == 0 { MemRequest::write(addr) } else { MemRequest::read(addr) };
            if sys.enqueue(req).is_none() {
                sys.tick();
            }
        }
    }

    #[test]
    fn parallel_drain_is_bit_identical_to_sequential() {
        for workers in [2usize, 4, 8] {
            let mut seq = DramSystem::new(DramConfig::enmc_table3());
            load_mixed(&mut seq, 512);
            let mut par = seq.clone();
            let a = seq.run_until_idle(10_000_000);
            let b = par.run_until_idle_par(10_000_000, workers);
            assert_eq!(a, b, "completion streams diverge at {workers} workers");
            assert_eq!(seq.cycle(), par.cycle());
            assert_eq!(seq.stats(), par.stats());
            assert_eq!(seq.pending, par.pending);
        }
    }

    #[test]
    fn parallel_drain_matches_under_deadline_cutoff() {
        // Cut the run short so some data is still in flight: the truncated
        // completion stream and leftover pending set must match too.
        let mut seq = DramSystem::new(DramConfig::enmc_table3());
        load_mixed(&mut seq, 256);
        let mut par = seq.clone();
        let a = seq.run_until_idle(300);
        let b = par.run_until_idle_par(300, 4);
        assert_eq!(a, b);
        assert_eq!(seq.cycle(), par.cycle());
        assert_eq!(seq.pending, par.pending);
        // Resuming both afterwards stays identical.
        let a2 = seq.run_until_idle(10_000_000);
        let b2 = par.run_until_idle_par(10_000_000, 4);
        assert_eq!(a2, b2);
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn parallel_drain_preserves_traces() {
        let mut seq = DramSystem::new(DramConfig::enmc_table3());
        seq.enable_trace(1 << 16);
        load_mixed(&mut seq, 256);
        let mut par = seq.clone();
        seq.run_until_idle(10_000_000);
        par.run_until_idle_par(10_000_000, 4);
        assert_eq!(seq.take_trace(), par.take_trace());
    }

    #[test]
    fn energy_grows_with_traffic() {
        let mut sys = DramSystem::new(DramConfig::enmc_single_rank());
        for i in 0..64 {
            sys.enqueue(MemRequest::read(i * 64)).unwrap();
        }
        sys.run_until_idle(1_000_000);
        let e = sys.energy_default();
        assert!(e.access_nj > 0.0);
        assert!(e.static_nj > 0.0);
    }
}
