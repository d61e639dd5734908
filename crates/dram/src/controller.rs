//! Per-channel memory controller: request queue, FR-FCFS scheduling,
//! open-page policy, demand refresh.
//!
//! The controller issues at most one command per memory-clock cycle on the
//! channel's C/A bus. Scheduling follows FR-FCFS (first-ready,
//! first-come-first-served):
//!
//! 1. an overdue refresh takes absolute priority (closing banks with PREA
//!    first if needed);
//! 2. the oldest request whose row is already open ("row hit") issues its
//!    column command;
//! 3. otherwise the oldest request whose bank is closed issues ACT;
//! 4. otherwise the oldest request with a conflicting open row issues PRE.
//!
//! This mirrors the paper's note that the on-DIMM DRAM controller is a
//! simplified host-style controller ("we do not deploy unnecessary
//! features like queue prioritizing, request coalescing").
//!
//! The scan is event-aware without changing a single decision. Requests
//! queue per bank in age order, each counting its older same-address
//! entries at enqueue (the reorder hazard). Every entry of one bank and
//! one class (read hit, write hit, non-hit) needs the same command at the
//! same [`RankState::earliest`], so each bank *offers* only its oldest
//! unblocked entry per class, kept up to date at an enqueue and at every
//! command to the bank, and the scan prices offers instead of entries.
//! A scan records the first cycle at which an offer can issue (the
//! *wake*) and the pick then, the least (priority, arrival) offer ready at
//! that cycle (the *plan*). Until the wake, or until a refresh falls due,
//! a request becomes a bank's offer or a command issues, offers and their
//! issue cycles stay as they were, so [`ChannelController::tick`] does
//! nothing before the wake and issues the plan at it without scanning
//! again. `ChannelController::next_event`
//! names the next cycle whose tick does more than count itself, and
//! `ChannelController::advance` accounts the cycles before it without
//! ticking them.

use crate::checker::{ProtocolViolation, TimingChecker};
use crate::command::{Command, CommandKind, TimedCommand};
use crate::config::{DramConfig, Organization, Timing, QUEUE_DEPTH};
use crate::mapping::Coord;
use crate::rank::RankState;
use crate::stats::{DramStats, MAX_BANK_GROUPS};
use crate::system::{Completion, RequestId, RequestKind};
use enmc_obs::trace::{TraceBuffer, TraceEvent, CAT_DRAM, CAT_PROTOCOL, TID_COUNTERS};
use std::collections::VecDeque;

/// Cycle stride between sampled counter-track events (queue depth, open
/// rows) when tracing is enabled. Coarse enough to keep counter volume
/// two orders of magnitude below command events, fine enough to show
/// queue build-up within one row cycle.
pub const COUNTER_SAMPLE_INTERVAL: u64 = 64;

/// A request queued inside the controller.
#[derive(Debug, Clone)]
struct Entry {
    id: RequestId,
    kind: RequestKind,
    coord: Coord,
    arrived: u64,
    /// Arrival number: orders entries of different banks, oldest first.
    seq: u64,
    /// Set once this entry has caused a PRE (conflict) so it is only
    /// classified once in the stats.
    classified: bool,
    /// Older queued entries with the same coordinate. Same-address
    /// requests must not reorder (RAW/WAR/WAW), so the entry is held back
    /// while this is nonzero.
    blocked: usize,
}

/// A bank's candidate for the FR-FCFS scan: the queue position of its
/// oldest unblocked entry of one class, and the command that entry needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Offer {
    pos: usize,
    cmd: CommandKind,
}

/// A bank's offers by class: read hit, write hit, non-hit (PRE when a row
/// is open, ACT when the bank is closed).
type Offers = [Option<Offer>; 3];

/// The requests queued for one bank, oldest first, and its offers under
/// the bank's current row state.
#[derive(Debug, Clone, Default)]
struct BankQueue {
    entries: VecDeque<Entry>,
    offers: Offers,
}

/// The offer class of a `kind` request to `row` and the command it needs
/// while the bank holds `open`.
fn class_of(kind: RequestKind, row: usize, open: Option<usize>) -> (usize, CommandKind) {
    match (open, kind) {
        (Some(r), RequestKind::Read) if r == row => (0, CommandKind::Rd),
        (Some(r), RequestKind::Write) if r == row => (1, CommandKind::Wr),
        (Some(_), _) => (2, CommandKind::Pre),
        (None, _) => (2, CommandKind::Act),
    }
}

/// The offers of a bank holding `open` with `entries` queued.
fn offers(entries: &VecDeque<Entry>, open: Option<usize>) -> Offers {
    let mut offers = [None; 3];
    for (pos, e) in entries.iter().enumerate().filter(|(_, e)| e.blocked == 0) {
        let (class, cmd) = class_of(e.kind, e.coord.row, open);
        offers[class].get_or_insert(Offer { pos, cmd });
    }
    offers
}

/// A set of banks: one bit per bank, in 64-bit words per rank.
#[derive(Debug, Clone)]
struct BankSet {
    bits: Vec<u64>,
    words_per_rank: usize,
}

impl BankSet {
    fn new(org: &Organization) -> Self {
        let words_per_rank = org.banks_per_rank().div_ceil(64);
        BankSet { bits: vec![0; org.ranks * words_per_rank], words_per_rank }
    }

    /// Adds (`on`) or removes bank `flat` of `rank`.
    fn set(&mut self, rank: usize, flat: usize, on: bool) {
        let word = &mut self.bits[rank * self.words_per_rank + flat / 64];
        let bit = 1 << (flat % 64);
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The members among `rank`'s banks, in ascending order.
    fn of_rank(&self, rank: usize) -> impl Iterator<Item = usize> + '_ {
        let words = &self.bits[rank * self.words_per_rank..(rank + 1) * self.words_per_rank];
        words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let flat = w * 64 + bits.trailing_zeros() as usize;
                (bits != 0).then(|| {
                    bits &= bits - 1;
                    flat
                })
            })
        })
    }
}

/// One channel's controller and its ranks.
#[derive(Debug, Clone)]
pub struct ChannelController {
    config: DramConfig,
    ranks: Vec<RankState>,
    /// Per-bank queues, rank-major (`rank * banks_per_rank + flat bank`).
    banks: Vec<BankQueue>,
    /// Banks with at least one offer: the banks a scan visits.
    offered: BankSet,
    /// Requests queued over all banks.
    queued: usize,
    /// Arrival number of the next enqueued request.
    next_seq: u64,
    /// Cycle of the next due refresh, per rank.
    next_refresh: Vec<u64>,
    /// Ranks with an overdue refresh.
    refresh_due: Vec<bool>,
    /// First cycle at which the FR-FCFS scan can issue: the one the last
    /// scan found (`u64::MAX` with nothing to offer), or 0 once a request
    /// becomes a bank's offer or a command issues.
    wake: u64,
    /// The pick the last scan found for `wake` (bank and offer); `None`
    /// with nothing to offer or once `wake` is reset.
    plan: Option<(usize, Offer)>,
    stats: DramStats,
    /// Command-event trace collector; `None` (the default) costs one
    /// branch per issued command and nothing else.
    trace: Option<TraceBuffer>,
    /// `pid` stamped on emitted events (the channel index, by convention).
    trace_pid: u32,
    /// DDR4 protocol conformance checker shadowing every issued command;
    /// `None` (the default) keeps the release path at one branch per
    /// command.
    checker: Option<TimingChecker>,
    /// Issue-stamped command log for golden-model replay; `None` by
    /// default.
    cmd_log: Option<Vec<TimedCommand>>,
}

impl ChannelController {
    /// A controller for one channel of `config`.
    pub fn new(config: DramConfig) -> Self {
        let ranks = (0..config.organization.ranks)
            .map(|_| RankState::new(&config.organization, &config.timing))
            .collect();
        let trefi = config.timing.trefi;
        let banks = config.organization.ranks * config.organization.banks_per_rank();
        ChannelController {
            ranks,
            banks: vec![BankQueue::default(); banks],
            offered: BankSet::new(&config.organization),
            queued: 0,
            next_seq: 0,
            next_refresh: (0..config.organization.ranks).map(|_| trefi).collect(),
            refresh_due: vec![false; config.organization.ranks],
            wake: 0,
            plan: None,
            stats: DramStats::default(),
            trace: None,
            trace_pid: 0,
            checker: None,
            cmd_log: None,
            config,
        }
    }

    /// Starts collecting command events into a ring of `capacity` events,
    /// stamped with `pid` (the channel index).
    pub fn enable_trace(&mut self, capacity: usize, pid: u32) {
        self.trace = Some(TraceBuffer::new(capacity));
        self.trace_pid = pid;
    }

    /// Removes and returns the collected events (collection stays on).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.as_mut().map(TraceBuffer::drain).unwrap_or_default()
    }

    /// Emits one command event when tracing is enabled. `tid` is the flat
    /// bank index within the channel, so each bank gets its own track.
    fn trace_cmd(&mut self, now: u64, kind: CommandKind, coord: &Coord) {
        let Some(trace) = self.trace.as_mut() else { return };
        let org = &self.config.organization;
        let bank = coord.flat_bank(org);
        let tid = (coord.rank * org.banks_per_rank() + bank) as u32;
        trace.record(
            TraceEvent::instant(kind.name(), CAT_DRAM, now, self.trace_pid, tid)
                .with_arg("rank", coord.rank as u64)
                .with_arg("bank", bank as u64)
                .with_arg("row", coord.row as u64)
                .with_arg("column", coord.column as u64),
        );
    }

    /// Emits sampled counter-track events (queue depth, open rows) when
    /// tracing is enabled; called every [`COUNTER_SAMPLE_INTERVAL`]
    /// cycles from [`ChannelController::tick`].
    fn trace_counters(&mut self, now: u64) {
        let Some(trace) = self.trace.as_mut() else { return };
        let open_rows: usize = self
            .ranks
            .iter()
            .map(|r| (0..r.banks()).filter(|&b| r.open_row(b).is_some()).count())
            .sum();
        trace.record(
            TraceEvent::counter("queue_depth", CAT_DRAM, now, self.trace_pid, TID_COUNTERS)
                .with_arg("value", self.queued as u64),
        );
        trace.record(
            TraceEvent::counter("open_rows", CAT_DRAM, now, self.trace_pid, TID_COUNTERS)
                .with_arg("value", open_rows as u64),
        );
    }

    /// Starts shadowing every issued command with a
    /// [`TimingChecker`] validating against `reference` timing (usually
    /// the configured timing; pass the true Table 3 values to audit a
    /// deliberately mis-timed controller). `channel` stamps the recorded
    /// violations.
    pub fn enable_protocol_check(&mut self, reference: Timing, channel: u32) {
        self.checker = Some(TimingChecker::new(reference, self.config.organization, channel));
    }

    /// Total violations observed so far (0 when the checker is off).
    pub fn protocol_violation_count(&self) -> u64 {
        self.checker.as_ref().map(TimingChecker::violation_count).unwrap_or(0)
    }

    /// Removes and returns the recorded violations (checking stays on).
    pub fn take_protocol_violations(&mut self) -> Vec<ProtocolViolation> {
        self.checker.as_mut().map(TimingChecker::take_violations).unwrap_or_default()
    }

    /// Starts logging every issued command with its issue cycle, for
    /// golden-model replay ([`crate::golden::replay_commands`]).
    pub fn enable_command_log(&mut self) {
        self.cmd_log = Some(Vec::new());
    }

    /// Removes and returns the command log so far (logging stays on).
    pub fn take_command_log(&mut self) -> Vec<TimedCommand> {
        self.cmd_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Recomputes the offers of bank `flat` of `rank` from its queue and
    /// row state.
    fn reprice(&mut self, rank: usize, flat: usize) {
        let open = self.ranks[rank].open_row(flat);
        let queue = &mut self.banks[rank * self.config.organization.banks_per_rank() + flat];
        queue.offers = offers(&queue.entries, open);
        self.offered.set(rank, flat, queue.offers.iter().any(Option::is_some));
    }

    /// Single funnel for every issued command: offers, scan wake-up, trace
    /// event, command log, and protocol check. Fresh violations are
    /// mirrored into the trace (category [`CAT_PROTOCOL`]) so they land
    /// next to the offending command in timeline views.
    fn observe_cmd(&mut self, now: u64, kind: CommandKind, coord: &Coord) {
        // The command changed its bank's row state or queue (PREA and REF:
        // every bank of its rank), so re-price those banks; and it changed
        // rank state, so every offer's issue cycle may have moved: scan
        // again next cycle.
        let org = &self.config.organization;
        let banks = match kind {
            CommandKind::PreA | CommandKind::Ref => 0..org.banks_per_rank(),
            _ => coord.flat_bank(org)..coord.flat_bank(org) + 1,
        };
        for flat in banks {
            self.reprice(coord.rank, flat);
        }
        self.wake = 0;
        self.plan = None;
        self.trace_cmd(now, kind, coord);
        if let Some(log) = self.cmd_log.as_mut() {
            log.push(TimedCommand { cycle: now, command: Command::new(kind, *coord) });
        }
        let fresh = match self.checker.as_mut() {
            Some(ck) => ck.observe(now, kind, coord),
            None => Vec::new(),
        };
        if fresh.is_empty() {
            return;
        }
        if let Some(trace) = self.trace.as_mut() {
            let org = &self.config.organization;
            let tid = (coord.rank * org.banks_per_rank() + coord.flat_bank(org)) as u32;
            for v in &fresh {
                trace.record(
                    TraceEvent::instant(v.rule.name(), CAT_PROTOCOL, now, self.trace_pid, tid)
                        .with_arg("earliest_legal", v.earliest_legal)
                        .with_arg("rank", v.rank as u64)
                        .with_arg("bank_group", v.bank_group as u64)
                        .with_arg("bank", v.bank as u64),
                );
            }
        }
    }

    /// Number of free queue slots.
    pub fn free_slots(&self) -> usize {
        QUEUE_DEPTH - self.queued
    }

    /// `true` when no requests are pending.
    pub fn is_idle(&self) -> bool {
        self.queued == 0
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Enqueues a request. Returns `false` (rejecting it) when the queue is
    /// full.
    pub fn enqueue(&mut self, id: RequestId, kind: RequestKind, coord: Coord, now: u64) -> bool {
        if self.queued >= QUEUE_DEPTH {
            return false;
        }
        let org = &self.config.organization;
        let flat = coord.flat_bank(org);
        let open = self.ranks[coord.rank].open_row(flat);
        let queue = &mut self.banks[coord.rank * org.banks_per_rank() + flat];
        let blocked = queue.entries.iter().filter(|e| e.coord == coord).count();
        let (class, cmd) = class_of(kind, coord.row, open);
        if blocked == 0 && queue.offers[class].is_none() {
            // The youngest entry is its class's offer only if the bank had
            // none; then the next scan must price it. Otherwise the offers,
            // and with them `wake` and `plan`, stay as they were.
            queue.offers[class] = Some(Offer { pos: queue.entries.len(), cmd });
            self.offered.set(coord.rank, flat, true);
            self.wake = 0;
            self.plan = None;
        }
        queue.entries.push_back(Entry {
            id,
            kind,
            coord,
            arrived: now,
            seq: self.next_seq,
            classified: false,
            blocked,
        });
        self.next_seq += 1;
        self.queued += 1;
        true
    }

    /// The first cycle from `now` on whose [`ChannelController::tick`]
    /// does more than count the cycle: the scan's wake (`now` after an
    /// issued command, whose freed queue slot a turned-away request may
    /// take), a rank's next refresh, or the next counter sample while
    /// tracing; `now` itself while a refresh is due, since a draining rank
    /// is served every cycle. Valid until the next enqueue.
    pub(crate) fn next_event(&self, now: u64) -> u64 {
        if self.refresh_due.contains(&true) {
            return now;
        }
        let mut next = self.next_refresh.iter().fold(self.wake, |next, &at| next.min(at));
        if self.trace.is_some() {
            next = next.min(now.next_multiple_of(COUNTER_SAMPLE_INTERVAL));
        }
        next.max(now)
    }

    /// Accounts the cycles `from..to` without ticking them. `to` must not
    /// pass [`ChannelController::next_event`]`(from)`: each such tick would
    /// only have counted its cycle, and its idle cycle when the channel
    /// is idle, neither of which can change before an event.
    pub(crate) fn advance(&mut self, from: u64, to: u64) {
        debug_assert!(to <= self.next_event(from), "advance to {to} passes an event");
        if to <= from {
            return;
        }
        self.stats.total_cycles = to;
        if self.queued == 0 && self.ranks.iter().all(RankState::all_closed) {
            self.stats.idle_cycles += to - from;
        }
    }

    /// Serves the due refreshes, which have priority: REF once the rank's
    /// banks are all closed, PREA to close them first. Returns `true` if
    /// a command issued.
    fn refresh(&mut self, now: u64) -> bool {
        for r in 0..self.ranks.len() {
            if !self.refresh_due[r] {
                continue;
            }
            let any = Coord { channel: 0, rank: r, bank_group: 0, bank: 0, row: 0, column: 0 };
            if self.ranks[r].all_closed() {
                if self.ranks[r].earliest(CommandKind::Ref, &any) <= now {
                    self.ranks[r].issue(CommandKind::Ref, &any, now);
                    self.observe_cmd(now, CommandKind::Ref, &any);
                    self.stats.refreshes += 1;
                    self.refresh_due[r] = false;
                    self.next_refresh[r] += self.config.timing.trefi;
                    return true;
                }
            } else if self.ranks[r].earliest(CommandKind::PreA, &any) <= now {
                self.ranks[r].issue(CommandKind::PreA, &any, now);
                self.observe_cmd(now, CommandKind::PreA, &any);
                self.stats.precharges += 1;
                return true;
            }
            // Wait for the rank to become refreshable before serving it.
        }
        false
    }

    /// FR-FCFS over the banks' offers: the oldest ready row hit, else the
    /// oldest ready ACT, else the oldest ready PRE; with none ready at
    /// `now`, the least (issue cycle, priority, arrival) offer. Records
    /// the pick's cycle as `wake` and the pick as `plan`. Blocked entries
    /// (an older same-address request must go first) are never offered,
    /// and a rank draining for refresh offers nothing.
    fn scan(&mut self, now: u64) {
        let banks_per_rank = self.config.organization.banks_per_rank();
        // Per priority (hit, ACT, PRE): the ready pick's arrival number,
        // bank and offer.
        let mut picks: [Option<(u64, usize, Offer)>; 3] = [None; 3];
        // The least (issue cycle, priority, arrival number) of the offers
        // not ready yet, with its bank and offer.
        let mut next: Option<((u64, usize, u64), usize, Offer)> = None;
        for (r, rank) in self.ranks.iter().enumerate() {
            if self.refresh_due[r] {
                continue; // rank is draining for refresh
            }
            for flat in self.offered.of_rank(r) {
                let bank = r * banks_per_rank + flat;
                let queue = &self.banks[bank];
                for &offer in queue.offers.iter().flatten() {
                    let e = &queue.entries[offer.pos];
                    let priority = match offer.cmd {
                        CommandKind::Act => 1,
                        CommandKind::Pre => 2,
                        _ => 0,
                    };
                    let beaten = picks[..priority].iter().any(Option::is_some)
                        || picks[priority].is_some_and(|(seq, ..)| seq < e.seq);
                    if beaten {
                        continue; // a ready pick already outranks this offer
                    }
                    let at = rank.earliest(offer.cmd, &e.coord);
                    if at > now {
                        let key = (at, priority, e.seq);
                        if next.is_none_or(|(least, ..)| key < least) {
                            next = Some((key, bank, offer));
                        }
                        continue;
                    }
                    picks[priority] = Some((e.seq, bank, offer));
                }
            }
        }
        let ready = picks.into_iter().flatten().next().map(|(_, bank, offer)| (now, bank, offer));
        let pick = ready.or(next.map(|((at, ..), bank, offer)| (at, bank, offer)));
        (self.wake, self.plan) = match pick {
            Some((at, bank, offer)) => (at, Some((bank, offer))),
            None => (u64::MAX, None),
        };
    }

    /// Advances one memory-clock cycle; returns a completion if a column
    /// command finished a request this cycle.
    pub fn tick(&mut self, now: u64) -> Option<Completion> {
        self.stats.total_cycles = now + 1;
        if self.trace.is_some() && now.is_multiple_of(COUNTER_SAMPLE_INTERVAL) {
            self.trace_counters(now);
        }
        if self.queued == 0 && self.ranks.iter().all(RankState::all_closed) {
            // Eligible for precharge power-down this cycle.
            self.stats.idle_cycles += 1;
        }
        // Mark refreshes that have become due.
        for r in 0..self.ranks.len() {
            if now >= self.next_refresh[r] {
                self.refresh_due[r] = true;
            }
        }
        let refreshing = self.refresh_due.contains(&true);
        if now < self.wake && !refreshing {
            return None; // the scan would issue nothing
        }
        // At the wake, offers and their issue cycles are those the last
        // scan saw, so its plan is the pick a scan would make now. A
        // refresh falling due, a request that became an offer or an issued
        // command spoils the plan.
        if refreshing || self.plan.is_none() || now != self.wake {
            if refreshing && self.refresh(now) {
                return None;
            }
            self.scan(now);
            if self.wake != now {
                return None;
            }
        }
        let (bank, offer) = self.plan.take().expect("a scan planned this cycle");
        self.issue(now, bank, offer)
    }

    /// Issues `offer` of `bank` at `now`; returns the completion of the
    /// request a column command finishes.
    fn issue(&mut self, now: u64, bank: usize, offer: Offer) -> Option<Completion> {
        let queue = &mut self.banks[bank];
        if offer.cmd.is_column() {
            let mut e = queue.entries.remove(offer.pos).expect("an offer names a queued entry");
            for younger in queue.entries.range_mut(offer.pos..) {
                if younger.coord == e.coord {
                    younger.blocked -= 1;
                }
            }
            self.queued -= 1;
            self.ranks[e.coord.rank].issue(offer.cmd, &e.coord, now);
            self.observe_cmd(now, offer.cmd, &e.coord);
            if !e.classified {
                self.stats.row_hits += 1;
                e.classified = true;
            }
            self.stats.bank_group_accesses[e.coord.bank_group % MAX_BANK_GROUPS] += 1;
            let t = &self.config.timing;
            self.stats.busy_cycles += t.tbl;
            let finish = match e.kind {
                RequestKind::Read => {
                    self.stats.reads += 1;
                    now + t.cl + t.tbl
                }
                RequestKind::Write => {
                    self.stats.writes += 1;
                    now + t.cwl + t.tbl
                }
            };
            return Some(Completion { id: e.id, finish_cycle: finish, enqueued: e.arrived });
        }
        let e = &mut queue.entries[offer.pos];
        let coord = e.coord;
        let classified = std::mem::replace(&mut e.classified, true);
        self.ranks[coord.rank].issue(offer.cmd, &coord, now);
        self.observe_cmd(now, offer.cmd, &coord);
        if offer.cmd == CommandKind::Act {
            self.stats.activations += 1;
            if !classified {
                self.stats.row_misses += 1;
            }
        } else {
            self.stats.precharges += 1;
            if !classified {
                self.stats.row_conflicts += 1;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DramConfig, BURST_BYTES};
    use crate::fuzz::PatternKind;
    use crate::mapping::AddressMapping;

    fn controller() -> ChannelController {
        ChannelController::new(DramConfig::enmc_single_rank())
    }

    fn coord_of(addr: u64, cfg: &DramConfig) -> Coord {
        AddressMapping::RoRaBaCoBg.decode(addr, &cfg.organization)
    }

    fn run_one(ctrl: &mut ChannelController, id: u64, addr: u64) -> u64 {
        let cfg = ctrl.config;
        assert!(ctrl.enqueue(RequestId(id), RequestKind::Read, coord_of(addr, &cfg), 0));
        let mut now = 0;
        loop {
            if let Some(c) = ctrl.tick(now) {
                return c.finish_cycle;
            }
            now += 1;
            assert!(now < 100_000, "request never completed");
        }
    }

    #[test]
    fn cold_read_latency_is_trcd_plus_cl_plus_burst() {
        let mut ctrl = controller();
        let t = ctrl.config.timing;
        let finish = run_one(&mut ctrl, 1, 0);
        // ACT at 0 → RD at tRCD → data done at tRCD + CL + tBL.
        assert_eq!(finish, t.trcd + t.cl + t.tbl);
        assert_eq!(ctrl.stats().row_misses, 1);
        assert_eq!(ctrl.stats().row_hits, 0);
    }

    #[test]
    fn second_read_same_row_is_a_hit() {
        let mut ctrl = controller();
        run_one(&mut ctrl, 1, 0);
        let cfg = ctrl.config;
        // Same bank + row is 4 bursts away (bank-group-interleaved mapping).
        assert!(ctrl.enqueue(RequestId(2), RequestKind::Read, coord_of(256, &cfg), 0));
        let mut now = ctrl.stats().total_cycles;
        let finish = loop {
            if let Some(c) = ctrl.tick(now) {
                break c.finish_cycle;
            }
            now += 1;
        };
        assert!(finish > 0);
        assert_eq!(ctrl.stats().row_hits, 1);
    }

    #[test]
    fn conflicting_row_forces_precharge() {
        let mut ctrl = controller();
        run_one(&mut ctrl, 1, 0);
        let cfg = ctrl.config;
        // Same bank, different row: skip all banks' interleaved rows.
        let org = cfg.organization;
        let row_stride = (org.bursts_per_row() * org.banks_per_rank()) as u64 * BURST_BYTES;
        assert!(ctrl.enqueue(RequestId(2), RequestKind::Read, coord_of(row_stride, &cfg), 0));
        let mut now = ctrl.stats().total_cycles;
        loop {
            if ctrl.tick(now).is_some() {
                break;
            }
            now += 1;
            assert!(now < 100_000);
        }
        assert_eq!(ctrl.stats().row_conflicts, 1);
        assert!(ctrl.stats().precharges >= 1);
    }

    #[test]
    fn queue_rejects_when_full() {
        let mut ctrl = controller();
        let cfg = ctrl.config;
        for i in 0..QUEUE_DEPTH as u64 {
            assert!(ctrl.enqueue(RequestId(i), RequestKind::Read, coord_of(i * 64, &cfg), 0));
        }
        assert_eq!(ctrl.free_slots(), 0);
        assert!(!ctrl.enqueue(RequestId(999), RequestKind::Read, coord_of(0, &cfg), 0));
    }

    #[test]
    fn streaming_reads_are_mostly_hits() {
        let mut ctrl = controller();
        let cfg = ctrl.config;
        let n = 256u64;
        let mut enq = 0u64;
        let mut done = 0;
        let mut now = 0u64;
        while done < n {
            while enq < n && ctrl.enqueue(RequestId(enq), RequestKind::Read, coord_of(enq * 64, &cfg), now)
            {
                enq += 1;
            }
            if ctrl.tick(now).is_some() {
                done += 1;
            }
            now += 1;
            assert!(now < 1_000_000, "stalled");
        }
        let s = ctrl.stats();
        assert!(s.row_hit_rate() > 0.9, "hit rate {}", s.row_hit_rate());
        // Streaming should keep the bus well utilized.
        assert!(s.bus_utilization() > 0.5, "util {}", s.bus_utilization());
    }

    #[test]
    fn same_address_requests_never_reorder() {
        // Write X, then read X, then a row-hit read elsewhere: the read of
        // X must complete after the write even though FR-FCFS would prefer
        // any ready hit.
        let mut ctrl = controller();
        let cfg = ctrl.config;
        assert!(ctrl.enqueue(RequestId(1), RequestKind::Write, coord_of(0, &cfg), 0));
        assert!(ctrl.enqueue(RequestId(2), RequestKind::Read, coord_of(0, &cfg), 0));
        let mut completions = Vec::new();
        for now in 0..5000 {
            if let Some(c) = ctrl.tick(now) {
                completions.push(c.id);
            }
            if completions.len() == 2 {
                break;
            }
        }
        assert_eq!(completions, vec![RequestId(1), RequestId(2)], "write must precede read");
    }

    #[test]
    fn refresh_eventually_issues() {
        let mut ctrl = controller();
        let trefi = ctrl.config.timing.trefi;
        for now in 0..trefi + 1000 {
            ctrl.tick(now);
        }
        assert!(ctrl.stats().refreshes >= 1);
    }

    #[test]
    fn trace_captures_act_and_rd() {
        let mut ctrl = controller();
        ctrl.enable_trace(1024, 0);
        run_one(&mut ctrl, 1, 0);
        let events = ctrl.take_trace();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"ACT"), "trace {names:?}");
        assert!(names.contains(&"RD"), "trace {names:?}");
        // ACT must precede RD, and timestamps must be ordered.
        let act = events.iter().position(|e| e.name == "ACT").unwrap();
        let rd = events.iter().position(|e| e.name == "RD").unwrap();
        assert!(act < rd);
        assert!(events[act].ts < events[rd].ts);
        // Draining empties the buffer but leaves tracing on.
        assert!(ctrl.take_trace().is_empty());
        let cfg = ctrl.config;
        assert!(ctrl.enqueue(RequestId(2), RequestKind::Read, coord_of(64, &cfg), 0));
        let mut now = ctrl.stats().total_cycles;
        while ctrl.tick(now).is_none() {
            now += 1;
            assert!(now < 100_000);
        }
        assert!(ctrl.take_trace().iter().any(|e| e.name == "RD"));
    }

    #[test]
    fn trace_samples_counter_tracks() {
        let mut ctrl = controller();
        ctrl.enable_trace(4096, 0);
        run_one(&mut ctrl, 1, 0);
        // Open-page policy keeps the accessed row open; tick past the next
        // sample point so a counter sample observes it.
        let done = ctrl.stats().total_cycles;
        for now in done..done + 2 * COUNTER_SAMPLE_INTERVAL {
            ctrl.tick(now);
        }
        let events = ctrl.take_trace();
        let counters: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.phase == enmc_obs::SpanPhase::Counter)
            .collect();
        assert!(!counters.is_empty(), "no counter samples in trace");
        assert!(counters.iter().all(|e| e.tid == TID_COUNTERS));
        assert!(counters.iter().any(|e| e.name == "queue_depth"));
        assert!(counters.iter().any(|e| e.name == "open_rows"));
        // Every sample lands on the stride and carries exactly one value.
        for e in &counters {
            assert_eq!(e.ts % COUNTER_SAMPLE_INTERVAL, 0);
            assert_eq!(e.args.len(), 1);
            assert_eq!(e.args[0].0, "value");
        }
        // An ACT leaves a row open, so some open_rows sample must be > 0.
        assert!(
            counters.iter().any(|e| e.name == "open_rows" && e.args[0].1 > 0),
            "open row never observed"
        );
    }

    #[test]
    fn accesses_are_attributed_to_bank_groups() {
        let mut ctrl = controller();
        let cfg = ctrl.config;
        // The interleaved mapping spreads consecutive lines over bank
        // groups; stream enough lines to touch more than one.
        let n = 32u64;
        let mut enq = 0u64;
        let mut done = 0u64;
        let mut now = 0u64;
        while done < n {
            while enq < n
                && ctrl.enqueue(RequestId(enq), RequestKind::Read, coord_of(enq * 64, &cfg), now)
            {
                enq += 1;
            }
            if ctrl.tick(now).is_some() {
                done += 1;
            }
            now += 1;
            assert!(now < 1_000_000);
        }
        let s = ctrl.stats();
        let total: u64 = s.bank_group_accesses.iter().sum();
        assert_eq!(total, s.reads + s.writes, "bank-group split covers every access");
        assert!(
            s.bank_group_accesses.iter().filter(|&&c| c > 0).count() > 1,
            "interleaving should touch several bank groups: {:?}",
            s.bank_group_accesses
        );
    }

    #[test]
    fn writes_complete_with_cwl() {
        let mut ctrl = controller();
        let cfg = ctrl.config;
        let t = cfg.timing;
        assert!(ctrl.enqueue(RequestId(1), RequestKind::Write, coord_of(0, &cfg), 0));
        let mut now = 0;
        let finish = loop {
            if let Some(c) = ctrl.tick(now) {
                break c.finish_cycle;
            }
            now += 1;
        };
        assert_eq!(finish, t.trcd + t.cwl + t.tbl);
        assert_eq!(ctrl.stats().writes, 1);
    }

    fn column_command(kind: RequestKind) -> CommandKind {
        match kind {
            RequestKind::Read => CommandKind::Rd,
            RequestKind::Write => CommandKind::Wr,
        }
    }

    /// Every queued entry, oldest first.
    fn age_order(ctrl: &ChannelController) -> Vec<&Entry> {
        if ctrl.is_idle() {
            return Vec::new();
        }
        let mut queue: Vec<&Entry> = ctrl.banks.iter().flat_map(|b| &b.entries).collect();
        queue.sort_unstable_by_key(|e| e.seq);
        queue
    }

    /// The command the scheduler issued before it learnt to skip idle
    /// scans and to queue per bank: refresh priority, then the FR-FCFS scan
    /// over every queued entry in age order (`queue`), rebuilding the
    /// same-address hazard from a `seen` list, evaluated on every cycle.
    fn reference_pick(ctrl: &ChannelController, queue: &[&Entry], now: u64) -> Option<Command> {
        let due = |r: usize| ctrl.refresh_due[r] || now >= ctrl.next_refresh[r];
        for (r, rank) in ctrl.ranks.iter().enumerate().filter(|&(r, _)| due(r)) {
            let any = Coord { channel: 0, rank: r, bank_group: 0, bank: 0, row: 0, column: 0 };
            if rank.all_closed() {
                if rank.earliest(CommandKind::Ref, &any) <= now {
                    return Some(Command::new(CommandKind::Ref, any));
                }
            } else if rank.earliest(CommandKind::PreA, &any) <= now {
                return Some(Command::new(CommandKind::PreA, any));
            }
        }
        let mut act = None;
        let mut pre = None;
        let mut seen: Vec<Coord> = Vec::new();
        for e in queue {
            let hazard = seen.contains(&e.coord);
            seen.push(e.coord);
            if hazard || due(e.coord.rank) {
                continue;
            }
            let rank = &ctrl.ranks[e.coord.rank];
            match rank.open_row(e.coord.flat_bank(&ctrl.config.organization)) {
                Some(row) if row == e.coord.row => {
                    let kind = column_command(e.kind);
                    if rank.earliest(kind, &e.coord) <= now {
                        return Some(Command::new(kind, e.coord));
                    }
                }
                Some(_) => {
                    if pre.is_none() && rank.earliest(CommandKind::Pre, &e.coord) <= now {
                        pre = Some(e.coord);
                    }
                }
                None => {
                    if act.is_none() && rank.earliest(CommandKind::Act, &e.coord) <= now {
                        act = Some(e.coord);
                    }
                }
            }
        }
        act.map(|c| Command::new(CommandKind::Act, c))
            .or(pre.map(|c| Command::new(CommandKind::Pre, c)))
    }

    #[test]
    fn scheduler_issues_what_the_per_cycle_scan_picks() {
        let mapping = AddressMapping::RoRaBaCoBg;
        for cfg in DramConfig::test_geometries() {
            let org = cfg.organization;
            let (ranks, groups, banks) = (org.ranks, org.bank_groups, org.banks_per_group);
            let label = format!("{ranks} rank(s) of {groups} x {banks} banks");
            let mut rejected = 0;
            for pattern in PatternKind::ALL {
                for seed in 0..2 {
                    let reqs = pattern.generate(seed, 96, &cfg, mapping);
                    // Two refresh intervals past the last arrival: the queue
                    // drains, then every rank refreshes while idle.
                    let horizon = reqs.last().map_or(0, |r| r.at) + 2 * cfg.timing.trefi;
                    let mut ctrl = ChannelController::new(cfg);
                    ctrl.enable_command_log();
                    let mut next = 0;
                    for now in 0..horizon {
                        while let Some(r) = reqs.get(next).filter(|r| r.at <= now) {
                            // The generators target rank 0; spreading rows
                            // over ranks keeps same-address pairs together.
                            let mut coord = mapping.decode(r.addr, &org);
                            coord.rank = coord.row % org.ranks;
                            let kind = if r.write { RequestKind::Write } else { RequestKind::Read };
                            if !ctrl.enqueue(RequestId(next as u64), kind, coord, now) {
                                rejected += 1;
                                break;
                            }
                            next += 1;
                        }
                        let at = |what: &str| {
                            format!(
                                "{} seed {seed}, {label}, {what} at cycle {now}",
                                pattern.name()
                            )
                        };
                        let queue = age_order(&ctrl);
                        for (i, e) in queue.iter().enumerate() {
                            let older = queue[..i].iter().filter(|o| o.coord == e.coord);
                            assert_eq!(e.blocked, older.count(), "{}", at(&format!("entry {i}")));
                        }
                        // An empty bank offers nothing; the others offer
                        // what their queues and row states make them, and
                        // the scan visits exactly the banks with an offer.
                        let bpr = org.banks_per_rank();
                        let mut with_offers = Vec::new();
                        let mut entries = 0;
                        for (b, bank) in ctrl.banks.iter().enumerate() {
                            entries += bank.entries.len();
                            let fresh = if bank.entries.is_empty() {
                                [None; 3]
                            } else {
                                offers(&bank.entries, ctrl.ranks[b / bpr].open_row(b % bpr))
                            };
                            assert_eq!(bank.offers, fresh, "{}", at(&format!("bank {b}")));
                            if fresh.iter().any(Option::is_some) {
                                with_offers.push(b);
                            }
                        }
                        let visited: Vec<usize> = (0..org.ranks)
                            .flat_map(|r| ctrl.offered.of_rank(r).map(move |flat| r * bpr + flat))
                            .collect();
                        assert_eq!(visited, with_offers, "{}", at("offered banks"));
                        assert_eq!(entries, ctrl.queued, "{}", at("queue depth"));
                        let expected: Vec<TimedCommand> = reference_pick(&ctrl, &queue, now)
                            .map(|command| TimedCommand { cycle: now, command })
                            .into_iter()
                            .collect();
                        ctrl.tick(now);
                        assert_eq!(ctrl.take_command_log(), expected, "{}", at("command"));
                    }
                    let drained = next == reqs.len() && ctrl.is_idle();
                    assert!(drained, "{} did not drain", pattern.name());
                }
            }
            assert!(rejected > 0, "{label}: the queue never filled");
        }
    }
}
