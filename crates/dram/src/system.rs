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
/// Between requests, [`DramSystem::advance_to`] jumps to
/// [`DramSystem::next_event`] with the same result as ticking there.
#[derive(Debug, Clone)]
pub struct DramSystem {
    config: DramConfig,
    mapping: AddressMapping,
    channels: Vec<ChannelController>,
    cycle: u64,
    next_id: u64,
    pending: Vec<Completion>,
    /// The least finish cycle in `pending` (`u64::MAX` when empty).
    next_finish: u64,
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
            next_finish: u64::MAX,
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
                self.next_finish = self.next_finish.min(c.finish_cycle);
                self.pending.push(c);
            }
        }
        self.cycle += 1;
        self.promote();
    }

    /// The first cycle at which the system has something new for its
    /// caller or a tick does more than count the cycle: a channel's scan,
    /// refresh or trace counter sample falls due (the scan on the next
    /// cycle after any issued command, every cycle while a refresh is
    /// due), or a request's data finishes. A completion not yet drained
    /// makes it the current cycle.
    pub fn next_event(&self) -> u64 {
        if !self.ready.is_empty() {
            return self.cycle;
        }
        let channels = self.channels.iter().map(|ch| ch.next_event(self.cycle));
        channels.fold(self.next_finish, u64::min).max(self.cycle)
    }

    /// Jumps to `cycle`, which must not pass [`DramSystem::next_event`],
    /// accounting the cycles in between exactly as ticking them would:
    /// each channel's `total_cycles` and `idle_cycles`, and the
    /// completions whose data finishes by `cycle`. The caller enqueues
    /// nothing on the cycles it skips.
    pub fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle <= self.next_event(), "advance_to({cycle}) passes an event");
        if cycle <= self.cycle {
            return;
        }
        for ch in &mut self.channels {
            ch.advance(self.cycle, cycle);
        }
        self.cycle = cycle;
        self.promote();
    }

    /// Promotes completions whose data has fully transferred, in order.
    fn promote(&mut self) {
        if self.cycle < self.next_finish {
            return;
        }
        let now = self.cycle;
        let ready = &mut self.ready;
        let mut next_finish = u64::MAX;
        self.pending.retain(|c| {
            let done = c.finish_cycle <= now;
            if done {
                ready.push(*c);
            } else {
                next_finish = next_finish.min(c.finish_cycle);
            }
            !done
        });
        self.next_finish = next_finish;
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
    /// completions observed. Ticks only the cycles on which something
    /// happens and jumps over the rest.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion> {
        let deadline = self.cycle + max_cycles;
        let mut out = Vec::new();
        while !self.is_idle() && self.cycle < deadline {
            self.tick();
            out.append(&mut self.ready);
            if !self.is_idle() {
                self.advance_to(self.next_event().min(deadline));
                out.append(&mut self.ready);
            }
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
    use crate::fuzz::{drive, FuzzRequest, PatternKind};

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

    /// Everything a run leaves behind that a caller can observe.
    struct Observed {
        completions: Vec<Completion>,
        commands: Vec<Vec<TimedCommand>>,
        stats: DramStats,
        channel_stats: Vec<DramStats>,
        trace: Vec<TraceEvent>,
    }

    #[test]
    fn event_stepping_matches_per_cycle_ticks() {
        let mapping = AddressMapping::RoRaBaCoBg;
        for cfg in DramConfig::test_geometries() {
            let org = cfg.organization;
            let mut turned_away = false;
            for pattern in PatternKind::ALL {
                // The generators target rank 0; spreading rows over ranks
                // keeps same-address pairs together.
                let reqs: Vec<FuzzRequest> = pattern
                    .generate(1, 192, &cfg, mapping)
                    .into_iter()
                    .map(|mut r| {
                        let mut coord = mapping.decode(r.addr, &org);
                        coord.rank = coord.row % org.ranks;
                        r.addr = mapping.encode(&coord, &org);
                        r
                    })
                    .collect();
                // Two refresh intervals past the last arrival: the queue
                // drains, then every rank refreshes while idle.
                let horizon = reqs.last().map_or(0, |r| r.at) + 2 * cfg.timing.trefi;
                for traced in [false, true] {
                    let run = |stepped: bool| {
                        let mut sys = DramSystem::with_mapping(cfg, mapping);
                        sys.enable_command_log();
                        if traced {
                            sys.enable_trace(1 << 16);
                        }
                        let (mut done, stalled) = drive(&mut sys, &reqs, horizon, stepped);
                        assert!(!stalled, "{} stalled", pattern.name());
                        while sys.cycle() < horizon {
                            sys.tick();
                            done.extend(sys.drain_completions());
                            if stepped {
                                sys.advance_to(sys.next_event().min(horizon));
                            }
                        }
                        Observed {
                            completions: done,
                            commands: sys.take_command_log(),
                            stats: sys.stats(),
                            channel_stats: sys.channel_stats(),
                            trace: sys.take_trace(),
                        }
                    };
                    let (ticked, stepped) = (run(false), run(true));
                    let label = format!(
                        "{}, {} rank(s) of {} x {} banks, traced {traced}",
                        pattern.name(),
                        org.ranks,
                        org.bank_groups,
                        org.banks_per_group,
                    );
                    assert_eq!(stepped.completions, ticked.completions, "completions: {label}");
                    assert_eq!(stepped.commands, ticked.commands, "command log: {label}");
                    assert_eq!(stepped.stats, ticked.stats, "statistics: {label}");
                    assert_eq!(stepped.channel_stats, ticked.channel_stats, "{label}");
                    assert_eq!(stepped.trace, ticked.trace, "trace: {label}");
                    assert_eq!(ticked.stats.total_cycles, horizon, "{label}");
                    assert!(ticked.stats.refreshes > 0 && ticked.stats.idle_cycles > 0, "{label}");
                    // A request enqueued after its arrival waited for a slot.
                    let waited = |c: &Completion| c.enqueued > reqs[c.id.0 as usize].at;
                    turned_away |= ticked.completions.iter().any(waited);
                }
            }
            assert!(turned_away, "{org:?}: the queue never filled");
        }
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
