//! Shard placement: which nodes hold which classifier shards.
//!
//! A fleet run shards the classifier row-wise into `S` shards and spreads
//! them over `N` DIMM-group nodes. Two policies are modeled:
//!
//! - **Consistent hashing** ([`PlacementPolicy::ConsistentHash`]): each
//!   shard's primary is the ring successor of its hash over
//!   [`VNODES`] virtual points per node. The replication budget is spent
//!   *blindly* — extra copies go to shards in hash order, which is
//!   uncorrelated with popularity. This is the classic popularity-oblivious
//!   baseline: adding or removing a node only moves the keys the new node
//!   takes over (minimal disruption), but a Zipf-hot shard stays pinned to
//!   one node.
//! - **Popularity-aware** ([`PlacementPolicy::PopularityAware`]): shards
//!   are placed hottest-first onto the least-loaded node (load = summed
//!   Zipf weight), and the same replication budget is spent on the *hot
//!   head* — copy `j` goes to the `j % S`-th hottest shard, onto the
//!   least-loaded node not already holding it. The router can then spread
//!   the head's traffic across its replicas.
//!
//! Both policies are pure functions of `(shards, nodes, replicas, zipf)`;
//! nothing here consumes a seed or the clock, so a placement is
//! reproducible to the byte everywhere the simulator runs.

use enmc_serve::arrival::SplitMix64;

/// Virtual points per node on the consistent-hash ring. 64 keeps the
/// per-node key share within a small constant factor of `S/N` (the
/// balance proptest pins the exact slack).
pub const VNODES: usize = 64;

/// Salt separating shard keys from vnode hashes on the ring.
const SHARD_SALT: u64 = 0xF1EE_7000_0000_0001;
/// Salt for the *blind* replica order used by consistent hashing — a
/// second, independent permutation so the budget is uncorrelated with
/// both ring position and popularity rank.
const BLIND_SALT: u64 = 0xB11D_0000_5EED_0002;

/// One SplitMix64 step as a stateless 64-bit mixer.
fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// The ring key of a shard.
fn shard_key(shard: usize) -> u64 {
    mix(shard as u64 ^ SHARD_SALT)
}

/// How the cluster scheduler maps shards to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Hash-ring placement, popularity-oblivious.
    ConsistentHash,
    /// Hottest-first placement with replication of the hot head.
    PopularityAware,
}

impl PlacementPolicy {
    /// The CLI-facing name of the policy.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::ConsistentHash => "consistent-hash",
            PlacementPolicy::PopularityAware => "popularity",
        }
    }
}

/// Zipf popularity weights for `shards` ranks at exponent `s`: shard `i`
/// (0 = hottest) has weight `(i+1)^-s`.
///
/// The exponent is restricted to **multiples of 0.5** so every weight is
/// computed from integer multiplications and one IEEE-exact `sqrt` —
/// never `powf`, whose low bits vary across libm builds and would leak
/// platform dependence into golden fixtures.
pub fn zipf_weights(shards: usize, s: f64) -> Vec<f64> {
    let half_steps = (s * 2.0).round().max(0.0) as u32;
    (0..shards)
        .map(|i| {
            let n = (i + 1) as f64;
            let mut denom = 1.0;
            for _ in 0..half_steps / 2 {
                denom *= n;
            }
            if half_steps % 2 == 1 {
                denom *= n.sqrt();
            }
            1.0 / denom
        })
        .collect()
}

/// A consistent-hash ring over `nodes` with [`VNODES`] points each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(hash, node)` points, sorted by hash.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// A ring over nodes `0..nodes`.
    ///
    /// Vnode hashes depend only on `(node, vnode)`, so growing the ring
    /// from `N` to `N+1` nodes adds points without moving any existing
    /// ones — the minimal-disruption property the proptests pin.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a ring needs at least one node");
        let mut points: Vec<(u64, usize)> = (0..nodes)
            .flat_map(|n| (0..VNODES).map(move |v| (mix(((n as u64) << 32) | v as u64), n)))
            .collect();
        points.sort_unstable();
        HashRing { points, nodes }
    }

    /// Index of the first ring point at or clockwise of `key`.
    fn start(&self, key: u64) -> usize {
        let i = self.points.partition_point(|&(h, _)| h < key);
        if i == self.points.len() {
            0
        } else {
            i
        }
    }

    /// The node owning `key` (its clockwise successor on the ring).
    pub fn owner(&self, key: u64) -> usize {
        self.points[self.start(key)].1
    }

    /// The owner of shard `shard`.
    pub fn shard_owner(&self, shard: usize) -> usize {
        self.owner(shard_key(shard))
    }

    /// Up to `count` *distinct* nodes in ring order starting at `key`'s
    /// successor — the standard replica preference list.
    pub fn preference_list(&self, key: u64, count: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(count.min(self.nodes));
        let start = self.start(key);
        for i in 0..self.points.len() {
            let node = self.points[(start + i) % self.points.len()].1;
            if !out.contains(&node) {
                out.push(node);
                if out.len() >= count.min(self.nodes) {
                    break;
                }
            }
        }
        out
    }
}

/// A concrete shard→nodes assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// For each shard, the sorted list of nodes holding a copy (the
    /// primary plus any replicas). Never empty.
    pub holders: Vec<Vec<usize>>,
    /// Extra shard copies actually placed (≤ the requested budget: a copy
    /// is dropped when every node already holds the shard).
    pub replicas_placed: u64,
}

/// Places `shards` over `nodes` under `policy`, spending a budget of
/// `replicas` extra copies. `zipf_s` is the popularity exponent the
/// popularity-aware policy assumes (shard 0 hottest); consistent hashing
/// ignores it by construction.
///
/// # Panics
///
/// Panics when `shards` or `nodes` is zero.
pub fn place(
    policy: PlacementPolicy,
    shards: usize,
    nodes: usize,
    replicas: usize,
    zipf_s: f64,
) -> Placement {
    assert!(shards > 0, "need at least one shard");
    assert!(nodes > 0, "need at least one node");
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut placed = 0u64;
    match policy {
        PlacementPolicy::ConsistentHash => {
            let ring = HashRing::new(nodes);
            for (s, h) in holders.iter_mut().enumerate() {
                h.push(ring.shard_owner(s));
            }
            // Blind budget: shards in an independent hash order, each copy
            // on the next distinct ring successor.
            let mut order: Vec<usize> = (0..shards).collect();
            order.sort_by_key(|&s| mix(s as u64 ^ BLIND_SALT));
            for j in 0..replicas {
                let s = order[j % shards];
                let next = ring
                    .preference_list(shard_key(s), nodes)
                    .into_iter()
                    .find(|n| !holders[s].contains(n));
                if let Some(n) = next {
                    holders[s].push(n);
                    placed += 1;
                }
            }
        }
        PlacementPolicy::PopularityAware => {
            let w = zipf_weights(shards, zipf_s);
            let mut load = vec![0.0f64; nodes];
            let least_loaded = |load: &[f64], exclude: &[usize]| -> Option<usize> {
                let mut best: Option<usize> = None;
                for n in 0..load.len() {
                    if exclude.contains(&n) {
                        continue;
                    }
                    // Strict < keeps the lowest id on ties.
                    if best.map_or(true, |b| load[n] < load[b]) {
                        best = Some(n);
                    }
                }
                best
            };
            // Primaries: hottest shard first, onto the least-loaded node.
            for s in 0..shards {
                let n = least_loaded(&load, &[]).expect("nodes > 0");
                holders[s].push(n);
                load[n] += w[s];
            }
            // Replicas: cycle the budget over the hot head, each copy onto
            // the least-loaded node not already holding the shard.
            for j in 0..replicas {
                let s = j % shards;
                if let Some(n) = least_loaded(&load, &holders[s]) {
                    let copies = holders[s].len() as f64;
                    holders[s].push(n);
                    load[n] += w[s] / (copies + 1.0);
                    placed += 1;
                }
            }
        }
    }
    for h in &mut holders {
        h.sort_unstable();
    }
    Placement { holders, replicas_placed: placed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_weights_are_monotone_and_exact() {
        let w = zipf_weights(8, 1.0);
        assert_eq!(w[0], 1.0);
        assert_eq!(w[1], 0.5);
        assert!(w.windows(2).all(|p| p[1] < p[0]));
        let w15 = zipf_weights(4, 1.5);
        // (i+1)^-1.5 via integer product x sqrt: 2^-1.5 = 1/(2*sqrt(2)).
        assert_eq!(w15[1], 1.0 / (2.0 * 2.0f64.sqrt()));
        // s = 0 degenerates to uniform.
        assert!(zipf_weights(5, 0.0).iter().all(|&x| x == 1.0));
    }

    #[test]
    fn ring_owner_is_stable_and_in_range() {
        let ring = HashRing::new(5);
        for s in 0..100 {
            let o = ring.shard_owner(s);
            assert!(o < 5);
            assert_eq!(o, HashRing::new(5).shard_owner(s), "deterministic");
        }
    }

    #[test]
    fn preference_list_is_distinct_and_bounded() {
        let ring = HashRing::new(4);
        for s in 0..32 {
            let pl = ring.preference_list(shard_key(s), 3);
            assert_eq!(pl.len(), 3);
            let mut dedup = pl.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "distinct nodes");
            assert_eq!(pl[0], ring.shard_owner(s), "primary leads the list");
        }
        assert_eq!(ring.preference_list(shard_key(0), 10).len(), 4, "capped at node count");
    }

    #[test]
    fn placement_covers_every_shard_once_without_replicas() {
        for policy in [PlacementPolicy::ConsistentHash, PlacementPolicy::PopularityAware] {
            let p = place(policy, 16, 4, 0, 1.0);
            assert_eq!(p.holders.len(), 16);
            assert!(p.holders.iter().all(|h| h.len() == 1));
            assert_eq!(p.replicas_placed, 0);
            assert!(p.holders.iter().all(|h| h[0] < 4));
        }
    }

    #[test]
    fn replica_budget_is_spent_and_capped() {
        let copies = |p: &Placement| p.holders.iter().map(Vec::len).sum::<usize>();
        for policy in [PlacementPolicy::ConsistentHash, PlacementPolicy::PopularityAware] {
            let p = place(policy, 8, 4, 6, 1.0);
            assert_eq!(p.replicas_placed, 6, "{policy:?}");
            assert_eq!(copies(&p), 8 + 6);
            for h in &p.holders {
                let mut d = h.clone();
                d.dedup();
                assert_eq!(d.len(), h.len(), "no duplicate holders");
            }
            // Budget beyond distinct nodes is dropped, not duplicated.
            let full = place(policy, 2, 2, 10, 1.0);
            assert!(copies(&full) <= 2 * 2);
        }
    }

    #[test]
    fn popularity_replicates_the_hot_head_first() {
        let p = place(PlacementPolicy::PopularityAware, 8, 4, 2, 1.0);
        assert_eq!(p.holders[0].len(), 2, "hottest shard gets the first copy");
        assert_eq!(p.holders[1].len(), 2, "second-hottest gets the next");
        assert_eq!(p.holders[7].len(), 1, "tail stays unreplicated");
    }
}
