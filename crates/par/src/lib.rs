//! Deterministic worker pool for parallel simulation.
//!
//! ENMC's simulation workloads decompose into independent shards whose
//! boundaries are fixed by the *workload* — per-channel DRAM controllers,
//! per-rank classification slices, per-shard query batches — never by the
//! thread count. [`par_map`] runs one closure per shard on a pool of
//! scoped worker threads fed from a channel work queue, then returns the
//! results in shard-index order. Because each shard is self-contained and
//! the merge order is fixed, the output is bit-identical for any thread
//! count, including one; threads only change wall-clock time.
//!
//! The crate has zero external dependencies: `std::thread::scope` plus
//! `std::sync::mpsc` are enough for a work-stealing-free FIFO pool, and
//! keeping it dependency-free means the determinism argument rests on
//! ~100 lines of auditable code.

use std::sync::mpsc;
use std::sync::Mutex;

/// Reads `ENMC_THREADS`; `None` when unset, empty, or unparsable.
pub fn env_threads() -> Option<usize> {
    std::env::var("ENMC_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

/// Simulation-wide execution configuration: how many workers run every
/// parallelizable phase, and whether the protocol checker shadows each
/// DRAM channel.
///
/// Carried alongside the workload descriptors so every layer — DRAM
/// system, rank units, pipeline — shards with the same worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Worker threads (at least 1; 1 runs every shard on the calling
    /// thread, in shard order).
    workers: usize,
    /// Attach the DDR4 protocol conformance checker to every DRAM channel
    /// (off by default: the release path pays nothing).
    pub check_protocol: bool,
}

impl SimConfig {
    /// Sequential execution (the default).
    pub fn sequential() -> Self {
        SimConfig::with_threads(1)
    }

    /// Execution on `n` worker threads (`0`/`1` collapse to sequential).
    pub fn with_threads(n: usize) -> Self {
        SimConfig { workers: n.max(1), check_protocol: false }
    }

    /// The same configuration with protocol checking turned on.
    pub fn with_protocol_check(mut self) -> Self {
        self.check_protocol = true;
        self
    }

    /// Resolved worker count for this configuration.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The configuration a CLI entry point runs with: `threads` workers
    /// when the user asked for a count (`--threads`, else
    /// [`env_threads`], as `Args::threads` reads them), else sequential,
    /// so defaults stay deterministic and machine-independent.
    pub fn resolve(threads: Option<usize>, check_protocol: bool) -> Self {
        let cfg = threads.map_or_else(SimConfig::sequential, SimConfig::with_threads);
        if check_protocol {
            cfg.with_protocol_check()
        } else {
            cfg
        }
    }
}

/// Splits `len` items into `shards` contiguous ranges whose sizes differ
/// by at most one, earlier shards taking the remainder.
///
/// The decomposition depends only on `(len, shards)`, so callers that fix
/// the shard count from the workload get identical shard boundaries
/// regardless of how many threads later execute them. Shards are never
/// empty: asking for more shards than items yields `len` ranges.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.max(1).min(len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Applies `f` to every item, returning results in item order.
///
/// With `workers <= 1` (or fewer than two items) this is a plain
/// sequential map on the calling thread. Otherwise items are dispatched
/// through a channel work queue to `workers` scoped threads; each result
/// is written back into its item's slot, so the returned vector is
/// independent of scheduling. `f` must be `Sync` (shared by reference
/// across workers) and items/results must be `Send`.
///
/// Panics in `f` propagate to the caller once the scope joins.
pub fn par_map<T, U, F>(workers: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    if workers <= 1 || items.len() < 2 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let n = items.len();
    let workers = workers.min(n);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    for pair in items.into_iter().enumerate() {
        tx.send(pair).expect("queue open");
    }
    drop(tx);
    let queue = Mutex::new(rx);

    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Hold the queue lock only for the receive, not the work.
                let next = queue.lock().expect("queue lock").try_recv();
                match next {
                    Ok((i, item)) => {
                        let out = f(i, item);
                        slots.lock().expect("slot lock")[i] = Some(out);
                    }
                    Err(_) => break,
                }
            });
        }
    });

    let collected: Vec<U> = slots
        .into_inner()
        .expect("slots")
        .iter_mut()
        .map(|s| s.take().expect("every shard produced a result"))
        .collect();
    collected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000, 670_091] {
            for shards in [1usize, 2, 3, 4, 7, 16, 64] {
                let ranges = shard_ranges(len, shards);
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor, "gap at {cursor} for ({len},{shards})");
                    assert!(!r.is_empty(), "empty shard for ({len},{shards})");
                    cursor = r.end;
                }
                assert_eq!(cursor, len, "({len},{shards}) does not cover");
                if len > 0 {
                    assert_eq!(ranges.len(), shards.min(len));
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "unbalanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_matches_sequential_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1usize, 2, 3, 4, 8, 128] {
            let got = par_map(workers, items.clone(), |_, x| x * x + 1);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn par_map_preserves_index_order_under_skew() {
        // Make early items slow so late items finish first; order must hold.
        let got = par_map(4, (0..16u64).collect(), |i, x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(got, (0..16u64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_collapse_to_at_least_one() {
        assert_eq!(SimConfig::sequential().worker_count(), 1);
        assert_eq!(SimConfig::with_threads(0), SimConfig::sequential());
        assert_eq!(SimConfig::with_threads(1), SimConfig::sequential());
        assert_eq!(SimConfig::with_threads(6).worker_count(), 6);
    }

    #[test]
    fn resolve_takes_the_given_count_and_protocol_switch() {
        let cfg = SimConfig::resolve(Some(6), true);
        assert_eq!(cfg.worker_count(), 6);
        assert!(cfg.check_protocol);
        assert_eq!(SimConfig::resolve(Some(1), false), SimConfig::sequential());
        assert_eq!(SimConfig::resolve(None, false), SimConfig::sequential());
        assert_eq!(SimConfig::resolve(None, true), SimConfig::sequential().with_protocol_check());
    }
}
