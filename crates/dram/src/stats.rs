//! DRAM statistics counters.

/// Bank-group slots tracked by [`DramStats::bank_group_accesses`]. DDR4
/// devices have four bank groups; organizations with more fold in
/// modulo.
pub const MAX_BANK_GROUPS: usize = 4;

/// Counters accumulated by a channel controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// Activations issued.
    pub activations: u64,
    /// Precharges issued (incl. auto-precharge and PREA-closed banks).
    pub precharges: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Requests that hit an already-open row.
    pub row_hits: u64,
    /// Requests whose bank was closed (row miss).
    pub row_misses: u64,
    /// Requests that had to close another row first (row conflict).
    pub row_conflicts: u64,
    /// Cycles with data on the DQ bus.
    pub busy_cycles: u64,
    /// Cycles with no pending requests and every bank precharged — the
    /// controller can hold the ranks in precharge power-down.
    pub idle_cycles: u64,
    /// Total cycles observed.
    pub total_cycles: u64,
    /// Column accesses (reads + writes) per bank group, for locality
    /// attribution. Index is `bank_group % MAX_BANK_GROUPS`.
    pub bank_group_accesses: [u64; MAX_BANK_GROUPS],
}

impl DramStats {
    /// Bytes transferred (64 B per column access).
    pub fn bytes(&self) -> u64 {
        (self.reads + self.writes) * 64
    }

    /// Row-hit rate over all classified requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// DQ-bus utilization in `[0, 1]`.
    pub fn bus_utilization(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Fraction of time the ranks could sit in power-down.
    pub fn idle_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.idle_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Merges the counters of a controller that ran **in parallel** with
    /// this one (e.g. another channel of the same subsystem, ticked in
    /// lockstep): event counts add, elapsed time is the *maximum* of the
    /// two clocks.
    ///
    /// For controllers that ran one after the other use
    /// [`DramStats::merge_sequential`], which sums `total_cycles`.
    ///
    /// ```
    /// use enmc_dram::DramStats;
    /// let mut a = DramStats { reads: 1, total_cycles: 10, ..Default::default() };
    /// let b = DramStats { reads: 2, total_cycles: 7, ..Default::default() };
    /// a.merge_parallel(&b);
    /// assert_eq!(a.reads, 3);
    /// assert_eq!(a.total_cycles, 10); // wall clock of the slower channel
    /// ```
    pub fn merge_parallel(&mut self, other: &DramStats) {
        self.merge_events(other);
        self.total_cycles = self.total_cycles.max(other.total_cycles);
    }

    /// Merges the counters of a run that happened **after** this one in
    /// the same timing domain (e.g. two jobs executed back to back on one
    /// rank): event counts add and `total_cycles` *sums*, so rates such as
    /// [`DramStats::bus_utilization`] stay meaningful.
    ///
    /// ```
    /// use enmc_dram::DramStats;
    /// let mut a = DramStats { reads: 1, busy_cycles: 4, total_cycles: 10, ..Default::default() };
    /// let b = DramStats { reads: 2, busy_cycles: 6, total_cycles: 7, ..Default::default() };
    /// a.merge_sequential(&b);
    /// assert_eq!(a.reads, 3);
    /// assert_eq!(a.total_cycles, 17); // phases ran back to back
    /// assert!((a.bus_utilization() - 10.0 / 17.0).abs() < 1e-12);
    /// ```
    pub fn merge_sequential(&mut self, other: &DramStats) {
        self.merge_events(other);
        self.total_cycles += other.total_cycles;
    }

    /// The event-count part shared by both merge flavours.
    fn merge_events(&mut self, other: &DramStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.activations += other.activations;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.busy_cycles += other.busy_cycles;
        self.idle_cycles += other.idle_cycles;
        for (mine, theirs) in
            self.bank_group_accesses.iter_mut().zip(other.bank_group_accesses.iter())
        {
            *mine += theirs;
        }
    }

    /// Records every counter (plus the derived rates as gauges) into a
    /// metrics registry under the `dram.` prefix.
    pub fn record_into(
        &self,
        registry: &mut enmc_obs::MetricsRegistry,
        labels: &[(&str, &str)],
    ) {
        registry.counter_add("dram.reads", labels, self.reads);
        registry.counter_add("dram.writes", labels, self.writes);
        registry.counter_add("dram.activations", labels, self.activations);
        registry.counter_add("dram.precharges", labels, self.precharges);
        registry.counter_add("dram.refreshes", labels, self.refreshes);
        registry.counter_add("dram.row_hits", labels, self.row_hits);
        registry.counter_add("dram.row_misses", labels, self.row_misses);
        registry.counter_add("dram.row_conflicts", labels, self.row_conflicts);
        registry.counter_add("dram.busy_cycles", labels, self.busy_cycles);
        registry.counter_add("dram.idle_cycles", labels, self.idle_cycles);
        registry.counter_add("dram.total_cycles", labels, self.total_cycles);
        registry.counter_add("dram.bytes", labels, self.bytes());
        const BG_METRICS: [&str; MAX_BANK_GROUPS] = [
            "dram.bank_group0_accesses",
            "dram.bank_group1_accesses",
            "dram.bank_group2_accesses",
            "dram.bank_group3_accesses",
        ];
        for (name, count) in BG_METRICS.iter().zip(self.bank_group_accesses.iter()) {
            registry.counter_add(name, labels, *count);
        }
        registry.gauge_set("dram.row_hit_rate", labels, self.row_hit_rate());
        registry.gauge_set("dram.bus_utilization", labels, self.bus_utilization());
        registry.gauge_set("dram.idle_fraction", labels, self.idle_fraction());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_counts_both_directions() {
        let s = DramStats { reads: 3, writes: 2, ..Default::default() };
        assert_eq!(s.bytes(), 320);
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(DramStats::default().row_hit_rate(), 0.0);
        let s = DramStats { row_hits: 3, row_misses: 1, ..Default::default() };
        assert_eq!(s.row_hit_rate(), 0.75);
    }

    #[test]
    fn merge_parallel_adds_counts_and_maxes_cycles() {
        let mut a = DramStats {
            reads: 1,
            total_cycles: 10,
            bank_group_accesses: [1, 0, 0, 2],
            ..Default::default()
        };
        let b = DramStats {
            reads: 2,
            total_cycles: 7,
            busy_cycles: 3,
            bank_group_accesses: [0, 4, 0, 1],
            ..Default::default()
        };
        a.merge_parallel(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.total_cycles, 10);
        assert_eq!(a.busy_cycles, 3);
        assert_eq!(a.bank_group_accesses, [1, 4, 0, 3]);
    }

    #[test]
    fn merge_sequential_sums_cycles() {
        let mut a = DramStats { writes: 4, total_cycles: 10, ..Default::default() };
        let b = DramStats { writes: 1, total_cycles: 7, ..Default::default() };
        a.merge_sequential(&b);
        assert_eq!(a.writes, 5);
        assert_eq!(a.total_cycles, 17);
    }

    #[test]
    fn record_into_exports_counters_and_rates() {
        let s = DramStats {
            reads: 3,
            writes: 1,
            row_hits: 3,
            row_misses: 1,
            busy_cycles: 16,
            total_cycles: 32,
            ..Default::default()
        };
        let mut reg = enmc_obs::MetricsRegistry::new();
        s.record_into(&mut reg, &[("channel", "0")]);
        assert_eq!(reg.counter_value("dram.reads", &[("channel", "0")]), 3);
        assert_eq!(reg.counter_value("dram.bytes", &[("channel", "0")]), 256);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("dram.row_hit_rate", &[("channel", "0")]), Some(0.75));
        assert_eq!(snap.gauge("dram.bus_utilization", &[("channel", "0")]), Some(0.5));
    }
}
