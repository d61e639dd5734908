//! The host-speed yardstick: a fixed piece of work timed next to every op
//! and every set-up, so that a run reports host time at one reference
//! speed of the host rather than at whatever speed the host ran at.
//!
//! The shared 2-vCPU KVM guest the suite was sized on runs the same code
//! up to 1.9× slower for stretches of seconds to minutes while other
//! tenants load the machine: longer than one run, so no statistic over a
//! run's own samples (not the fastest run of an op, not the median) can
//! tell such a stretch from slower code. The thread's CPU time slows down
//! with the wall clock, so the host is not taking the vCPU away; it runs
//! it slower. The yardstick slows down with it: sorting a fixed array of
//! 16,384 pseudo-random `u32`s — branchy, L1/L2-resident work like the
//! simulator's and the kernels' — ran up to 1.5× slower when the
//! workloads' ops did, with a correlation of 0.93–0.98 between the two
//! per-pass slowdowns over three-minute runs of each workload. Other
//! yardsticks tracked the ops worse: a multiply chain reached 0.2–0.7,
//! pointer chases 0.5–0.8.
//!
//! The ops slow down a little more than the yardstick: over three-minute
//! runs of each workload on that guest, the log of an op's slowdown per
//! pass grew with the log of the yardstick's by a factor of 1.1–1.4
//! ([`EXPONENT`]). With that power, the throughput of fifteen-second
//! stretches of those runs spread (quartile distance over median) by
//! 1.5–6%, against 5–9% with plain proportion and 16–40% unnormalised.
//!
//! A code change moves the op and not the yardstick, so it shows in full
//! in the normalised times; a slower host moves both and cancels.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// The yardstick's time on a quiet reference host (Intel Xeon, Sapphire
/// Rapids, 2 vCPUs under KVM: 218–250 µs at the fastest, depending on
/// what the preceding op left in the caches). Normalised times are host
/// times at the speed at which the yardstick takes exactly this long.
pub const REFERENCE_NS: f64 = 250_000.0;

/// How an op's host time scales with the yardstick's: the power 1.25 of
/// the yardstick's slowdown, one value for every workload and set-up
/// (fitted exponents 1.11–1.43 per workload).
pub const EXPONENT: f64 = 1.25;

/// Elements the yardstick sorts: 64 KiB, resident in L2.
const ELEMENTS: usize = 16_384;

thread_local! {
    static SCRATCH: RefCell<Vec<u32>> = RefCell::new(vec![0; ELEMENTS]);
}

/// Runs the yardstick once and returns its host nanoseconds: fill the
/// scratch array from a fixed linear congruential sequence, then sort it.
pub fn sample_ns() -> f64 {
    SCRATCH.with(|scratch| {
        let mut v = scratch.borrow_mut();
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for e in v.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *e = (x >> 32) as u32;
        }
        black_box(&mut v[..]).sort_unstable();
        black_box(v[ELEMENTS / 2]);
        start.elapsed().as_nanos() as f64
    })
}

/// The median of `n` yardstick samples, for brackets around long work
/// such as a set-up, where one sample stands for seconds of host time.
pub fn median_ns(n: usize) -> f64 {
    let samples: Vec<f64> = (0..n.max(1)).map(|_| sample_ns()).collect();
    crate::stats::median(&samples).expect("at least one sample")
}

/// `ns` of host time, measured while the yardstick took `yard_ns`,
/// at the reference speed.
pub fn normalise(ns: f64, yard_ns: f64) -> f64 {
    if yard_ns > 0.0 {
        ns * (REFERENCE_NS / yard_ns).powf(EXPONENT)
    } else {
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_cancels() {
        assert_eq!(normalise(3e6, REFERENCE_NS), 3e6);
        // The yardstick at half speed: ops take 2^1.25 times as long.
        let slow = 3e6 * 2f64.powf(EXPONENT);
        assert!((normalise(slow, 2.0 * REFERENCE_NS) - 3e6).abs() < 1e-6);
        assert_eq!(normalise(5.0, 0.0), 5.0);
    }

    #[test]
    fn the_yardstick_does_the_same_work_every_time() {
        let sorted = |_| {
            sample_ns();
            SCRATCH.with(|s| s.borrow().clone())
        };
        let (a, b): (Vec<u32>, Vec<u32>) = (sorted(0), sorted(1));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(sample_ns() > 0.0 && median_ns(3) > 0.0);
    }
}
