//! The top-level DRAM system: channels + address mapping + completions.

use crate::checker::ProtocolViolation;
use crate::command::TimedCommand;
use crate::config::{DramConfig, Timing};
use crate::controller::ChannelController;
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
        if self.channels.iter().all(|ch| ch.free_slots() == 0) {
            return None; // whichever channel `req` maps to rejects it
        }
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

    /// Removes and yields all completions available so far, in order;
    /// dropping the iterator removes the rest.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, Completion> {
        self.ready.drain(..)
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
}
