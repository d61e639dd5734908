//! Facts about the host a measurement was taken on.

use std::hint::black_box;
use std::time::Instant;

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`); `None` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Bytes of the roofline read: larger than the last-level cache of the
/// machines this runs on (300 MiB on the reference Xeon), small enough
/// to share a box with other jobs.
const STREAM_BYTES: usize = 512 << 20;

/// Sequential-read bandwidth in GB/s: the best of three passes summing a
/// buffer larger than the last-level cache. It is the denominator of the
/// kernels' roofline fractions.
pub fn stream_gbps() -> f64 {
    let words = vec![1u64; STREAM_BYTES / 8];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let sum = black_box(&words)
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_add(w));
        black_box(sum);
        best = best.min(start.elapsed().as_secs_f64());
    }
    STREAM_BYTES as f64 / best / 1e9
}
