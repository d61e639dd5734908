//! Top-down cost attribution.
//!
//! [`attribute`] turns the deterministic counters of a sharded run — the
//! merged [`UnitReport`] plus the per-shard [`DramStats`] in rank order —
//! into two trees:
//!
//! * **cycles**, rooted at the straggler's `dram_cycles` and partitioned
//!   by the phase boundaries (`screen_done_cycle`, `exec_done_cycle`)
//!   into screen / gather / activation, each split into compute vs
//!   memory-stall time using the per-shard average busy cycles;
//! * **energy**, in nanojoules: DRAM access per channel (ACT / RD / WR /
//!   ECC), DRAM static (active background, power-down background,
//!   refresh) summed shard by shard, and logic (screener INT array,
//!   executor FP32 array + SFU, always-on buffers and controllers).
//!
//! Every leaf is an integer counter times a model constant, accumulated
//! in rank order, so the tree is bit-identical for any worker count. The
//! roots are *defined* as the sum of their leaves — consumers that copy
//! the root into a report total get the "leaves sum exactly to the
//! total" invariant for free.

use enmc_arch::{LogicEnergyModel, UnitReport};
use enmc_dram::energy::EnergyModel;
use enmc_dram::DramStats;
use enmc_obs::BreakdownRow;

/// One node of a cost tree. Interior nodes carry the sum of their
/// children; leaves carry a single attributed quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct CostNode {
    /// Path component (joined with `/` when flattened).
    pub name: String,
    /// Attributed simulated cycles (0 in the energy tree).
    pub cycles: u64,
    /// Attributed energy in nanojoules (0.0 in the cycles tree).
    pub nj: f64,
    /// Sub-costs; empty for a leaf.
    pub children: Vec<CostNode>,
}

impl CostNode {
    /// A leaf carrying `cycles` and `nj`.
    pub fn leaf(name: &str, cycles: u64, nj: f64) -> CostNode {
        CostNode { name: name.to_string(), cycles, nj, children: Vec::new() }
    }

    /// An interior node whose totals are the depth-first sequential sum
    /// of the **leaves** under `children` — the same order and grouping a
    /// consumer gets by folding over the flattened rows, so "leaves sum
    /// exactly to the total" holds bit-for-bit despite floating-point
    /// non-associativity.
    pub fn branch(name: &str, children: Vec<CostNode>) -> CostNode {
        fn acc(node: &CostNode, cycles: &mut u64, nj: &mut f64) {
            if node.children.is_empty() {
                *cycles += node.cycles;
                *nj += node.nj;
            } else {
                for child in &node.children {
                    acc(child, cycles, nj);
                }
            }
        }
        let mut cycles = 0;
        let mut nj = 0.0;
        for child in &children {
            acc(child, &mut cycles, &mut nj);
        }
        CostNode { name: name.to_string(), cycles, nj, children }
    }

    /// Appends one [`BreakdownRow`] per **leaf**, with `/`-joined paths
    /// rooted at this node's name.
    pub fn flatten_into(&self, prefix: &str, out: &mut Vec<BreakdownRow>) {
        let path =
            if prefix.is_empty() { self.name.clone() } else { format!("{prefix}/{}", self.name) };
        if self.children.is_empty() {
            out.push(BreakdownRow { path, cycles: self.cycles, nj: self.nj });
        } else {
            for child in &self.children {
                child.flatten_into(&path, out);
            }
        }
    }

    fn render_into(&self, depth: usize, value: &dyn Fn(&CostNode) -> String, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        out.push_str(": ");
        out.push_str(&value(self));
        out.push('\n');
        for child in &self.children {
            child.render_into(depth + 1, value, out);
        }
    }
}

/// The two cost trees of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct CostAttribution {
    /// Cycle tree rooted at the run's simulated cycles.
    pub cycles: CostNode,
    /// Energy tree rooted at the run's total energy.
    pub energy: CostNode,
}

impl CostAttribution {
    /// Total simulated cycles (root of the cycle tree; equals the sum of
    /// its leaves by construction).
    pub fn total_cycles(&self) -> u64 {
        self.cycles.cycles
    }

    /// Total energy in nanojoules (root of the energy tree; equals the
    /// sum of its leaves by construction).
    pub fn energy_nj(&self) -> f64 {
        self.energy.nj
    }

    /// Flattens both trees into leaf rows (`cycles/...` then
    /// `energy/...`) for a run report.
    pub fn rows(&self) -> Vec<BreakdownRow> {
        let mut out = Vec::new();
        self.cycles.flatten_into("", &mut out);
        self.energy.flatten_into("", &mut out);
        out
    }

    /// Renders both trees as an indented text report. Deterministic for
    /// deterministic inputs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.cycles.render_into(0, &|n| format!("{} cyc", n.cycles), &mut out);
        self.energy.render_into(0, &|n| format!("{:.3} nJ", n.nj), &mut out);
        out
    }
}

/// Builds the cost attribution for a run.
///
/// `merged` is the system-level [`UnitReport`] (straggler latency, summed
/// work counters); `shard_dram` the per-shard DRAM statistics **in rank
/// order** (pass an empty slice to treat `merged.dram` as a single
/// shard); `channels` the number of channel buckets shards fold into.
///
/// # Panics
///
/// Panics if `channels == 0`.
pub fn attribute(
    merged: &UnitReport,
    shard_dram: &[DramStats],
    channels: usize,
    dram_model: &EnergyModel,
    logic_model: &LogicEnergyModel,
) -> CostAttribution {
    assert!(channels > 0, "need at least one channel bucket");
    let single = [merged.dram];
    let shards: &[DramStats] = if shard_dram.is_empty() { &single } else { shard_dram };
    let n = shards.len();

    CostAttribution {
        cycles: cycle_tree(merged, n as u64),
        energy: energy_tree(merged, shards, channels, dram_model, logic_model),
    }
}

/// Partitions `dram_cycles` by the phase boundaries; compute vs stall
/// inside a phase uses the average per-shard busy cycles, clamped to the
/// phase length so the partition stays exact.
fn cycle_tree(merged: &UnitReport, shards: u64) -> CostNode {
    let total = merged.dram_cycles;
    let screen_end = merged.screen_done_cycle.min(total);
    let exec_end = merged.exec_done_cycle.clamp(screen_end, total);

    let screen = screen_end;
    let gather = exec_end - screen_end;
    let activation = total - exec_end;

    let screen_compute = (merged.screener_busy / shards.max(1)).min(screen);
    let gather_compute = (merged.executor_busy / shards.max(1)).min(gather);

    CostNode::branch(
        "cycles",
        vec![
            CostNode::branch(
                "screen",
                vec![
                    CostNode::leaf("compute", screen_compute, 0.0),
                    CostNode::leaf("mem_stall", screen - screen_compute, 0.0),
                ],
            ),
            CostNode::branch(
                "gather",
                vec![
                    CostNode::leaf("compute", gather_compute, 0.0),
                    CostNode::leaf("mem_stall", gather - gather_compute, 0.0),
                ],
            ),
            CostNode::branch("activation", vec![CostNode::leaf("sfu", activation, 0.0)]),
        ],
    )
}

fn energy_tree(
    merged: &UnitReport,
    shards: &[DramStats],
    channels: usize,
    dram_model: &EnergyModel,
    logic_model: &LogicEnergyModel,
) -> CostNode {
    let n = shards.len();

    // --- DRAM access, grouped into channel buckets in rank order. ---
    // Counts fold as integers first, so the grouping itself is exact.
    let mut per_channel = vec![[0u64; 3]; channels]; // [acts, reads, writes]
    for (i, s) in shards.iter().enumerate() {
        let c = i * channels / n; // i < n  ⇒  c < channels
        per_channel[c][0] += s.activations;
        per_channel[c][1] += s.reads;
        per_channel[c][2] += s.writes;
    }
    let access_children: Vec<CostNode> = per_channel
        .iter()
        .enumerate()
        .map(|(c, &[acts, reads, writes])| {
            CostNode::branch(
                &format!("ch{c}"),
                vec![
                    CostNode::leaf("act", 0, acts as f64 * dram_model.act_nj),
                    CostNode::leaf("rd", 0, reads as f64 * dram_model.read_nj),
                    CostNode::leaf("wr", 0, writes as f64 * dram_model.write_nj),
                    CostNode::leaf(
                        "ecc",
                        0,
                        (reads + writes) as f64 * dram_model.ecc_nj_per_burst(),
                    ),
                ],
            )
        })
        .collect();

    // --- DRAM static, summed shard by shard with the EnergyModel's own
    // background split (active standby vs precharge power-down). ---
    let mut bg_active = 0.0;
    let mut bg_idle = 0.0;
    let mut refresh = 0.0;
    let mut total_shard_cycles = 0u64;
    for s in shards {
        let idle_s = s.idle_cycles.min(s.total_cycles) as f64 * dram_model.tck_ps * 1e-12;
        let active_s = s.total_cycles as f64 * dram_model.tck_ps * 1e-12 - idle_s;
        bg_active += dram_model.background_w * active_s * 1e9;
        bg_idle += dram_model.powerdown_w * idle_s * 1e9;
        refresh += dram_model.refresh_energy_nj(s.refreshes);
        total_shard_cycles += s.total_cycles;
    }

    // --- Logic: busy arrays from the summed work counters; always-on
    // logic over every shard's active window. The straggler's SFU phase
    // is replicated across shards (the activation pipeline is symmetric).
    let nj = |mw: f64, cycles: u64| mw * cycles as f64 * logic_model.tck_ps * 1e-12 * 1e-3 * 1e9;
    let always_on_mw = logic_model.compute_buffer_mw
        + logic_model.control_buffer_mw
        + logic_model.controller_mw
        + logic_model.dram_ctrl_mw;
    let sfu_cycles_all = merged.sfu_cycles * n as u64;

    CostNode::branch(
        "energy",
        vec![
            CostNode::branch(
                "dram",
                vec![
                    CostNode::branch("access", access_children),
                    CostNode::branch(
                        "static",
                        vec![
                            CostNode::leaf("background_active", 0, bg_active),
                            CostNode::leaf("background_idle", 0, bg_idle),
                            CostNode::leaf("refresh", 0, refresh),
                        ],
                    ),
                ],
            ),
            CostNode::branch(
                "logic",
                vec![
                    CostNode::leaf(
                        "screener",
                        0,
                        nj(logic_model.int_array_mw, merged.screener_busy),
                    ),
                    CostNode::leaf(
                        "executor",
                        0,
                        nj(logic_model.fp32_array_mw, merged.executor_busy + sfu_cycles_all),
                    ),
                    CostNode::leaf("always_on", 0, nj(always_on_mw, total_shard_cycles)),
                ],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(reads: u64, writes: u64, acts: u64, cycles: u64, idle: u64) -> DramStats {
        DramStats {
            reads,
            writes,
            activations: acts,
            refreshes: cycles / 1000,
            idle_cycles: idle,
            total_cycles: cycles,
            ..Default::default()
        }
    }

    fn fixture() -> (UnitReport, Vec<DramStats>) {
        let shards: Vec<DramStats> =
            (0..16).map(|i| shard(100 + i, 10 + i, 20 + i, 5_000 + 13 * i, 400)).collect();
        let mut dram = DramStats::default();
        for s in &shards {
            dram.merge_parallel(s);
        }
        let merged = UnitReport {
            dram_cycles: 5_195,
            screener_busy: 16 * 1_800,
            executor_busy: 16 * 900,
            sfu_cycles: 300,
            screen_done_cycle: 3_000,
            exec_done_cycle: 4_895,
            dram,
            ..Default::default()
        };
        (merged, shards)
    }

    fn models() -> (EnergyModel, LogicEnergyModel) {
        let dram = EnergyModel { ecc: true, ..EnergyModel::ddr4_2400_rank() };
        (dram, LogicEnergyModel::enmc_table5())
    }

    #[test]
    fn cycle_leaves_partition_total_exactly() {
        let (merged, shards) = fixture();
        let (dm, lm) = models();
        let attr = attribute(&merged, &shards, 8, &dm, &lm);
        let rows = attr.rows();
        let leaf_cycles: u64 =
            rows.iter().filter(|r| r.path.starts_with("cycles/")).map(|r| r.cycles).sum();
        assert_eq!(leaf_cycles, merged.dram_cycles);
        assert_eq!(attr.total_cycles(), merged.dram_cycles);
        // Phase totals follow the boundaries.
        let phase = |name: &str| {
            attr.cycles.children.iter().find(|c| c.name == name).map(|c| c.cycles).unwrap()
        };
        assert_eq!(phase("screen"), 3_000);
        assert_eq!(phase("gather"), 4_895 - 3_000);
        assert_eq!(phase("activation"), 5_195 - 4_895);
    }

    #[test]
    fn energy_root_is_exact_leaf_sum() {
        let (merged, shards) = fixture();
        let (dm, lm) = models();
        let attr = attribute(&merged, &shards, 8, &dm, &lm);
        let rows = attr.rows();
        // Summing the flattened energy leaves in row order reproduces the
        // root bit-for-bit, because branch() computed it the same way.
        let leaf_nj: f64 =
            rows.iter().filter(|r| r.path.starts_with("energy/")).map(|r| r.nj).sum();
        assert_eq!(leaf_nj.to_bits(), attr.energy_nj().to_bits());
        assert!(attr.energy_nj() > 0.0);
    }

    #[test]
    fn channel_buckets_cover_all_traffic() {
        let (merged, shards) = fixture();
        let (dm, lm) = models();
        let attr = attribute(&merged, &shards, 8, &dm, &lm);
        let rows = attr.rows();
        let access: f64 = rows
            .iter()
            .filter(|r| r.path.starts_with("energy/dram/access/"))
            .map(|r| r.nj)
            .sum();
        let expect = dm.breakdown(&merged.dram).access_nj;
        assert!((access - expect).abs() < 1e-9 * expect.max(1.0), "{access} vs {expect}");
        // Every channel bucket received shards (16 shards over 8 buckets).
        for c in 0..8 {
            let ch: f64 = rows
                .iter()
                .filter(|r| r.path.starts_with(&format!("energy/dram/access/ch{c}/")))
                .map(|r| r.nj)
                .sum();
            assert!(ch > 0.0, "channel {c} empty");
        }
    }

    #[test]
    fn static_energy_matches_per_shard_model_sum() {
        let (merged, shards) = fixture();
        let (dm, lm) = models();
        let attr = attribute(&merged, &shards, 4, &dm, &lm);
        let rows = attr.rows();
        let static_nj: f64 =
            rows.iter().filter(|r| r.path.starts_with("energy/dram/static/")).map(|r| r.nj).sum();
        let expect: f64 = shards.iter().map(|s| dm.breakdown(s).static_nj).sum();
        assert!((static_nj - expect).abs() < 1e-9 * expect, "{static_nj} vs {expect}");
    }

    #[test]
    fn attribution_is_deterministic() {
        let (merged, shards) = fixture();
        let (dm, lm) = models();
        let a = attribute(&merged, &shards, 8, &dm, &lm);
        let b = attribute(&merged, &shards, 8, &dm, &lm);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn empty_shard_slice_falls_back_to_merged_stats() {
        let (merged, _) = fixture();
        let (dm, lm) = models();
        let attr = attribute(&merged, &[], 1, &dm, &lm);
        assert_eq!(attr.total_cycles(), merged.dram_cycles);
        assert!(attr.energy_nj() > 0.0);
    }

    #[test]
    fn render_shows_both_trees() {
        let (merged, shards) = fixture();
        let (dm, lm) = models();
        let text = attribute(&merged, &shards, 2, &dm, &lm).render();
        assert!(text.starts_with("cycles: "));
        assert!(text.contains("\n  screen: "));
        assert!(text.contains("\nenergy: "));
        assert!(text.contains("mem_stall"));
        assert!(text.contains("background_active"));
    }

    #[test]
    #[should_panic(expected = "channel bucket")]
    fn zero_channels_rejected() {
        let (merged, shards) = fixture();
        let (dm, lm) = models();
        attribute(&merged, &shards, 0, &dm, &lm);
    }
}
