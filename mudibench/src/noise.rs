//! Host-noise diagnostics printed beside each run's metrics, so a slow
//! host phase can be told apart from a regression: a fixed CPU probe
//! timed before and after the workload, the main thread's run-queue
//! wait, and the host's steal time.

use std::hint::black_box;
use std::time::Instant;

/// Wall milliseconds of a fixed integer workload (~10 ms on a 2-core
/// VM). Its spread across runs is the host's own speed noise.
pub fn probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(8_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Nanoseconds this thread has waited on a run queue
/// (`/proc/thread-self/schedstat`, second field).
pub fn runqueue_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Host steal time in clock ticks (`/proc/stat`, aggregate `cpu` line,
/// eighth value).
pub fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Counters read at the start of a run.
pub struct Snapshot {
    probe_ms: f64,
    wait_ns: Option<u64>,
    steal: Option<u64>,
    /// Cores the process may use, read before any thread is pinned.
    cores: usize,
    at: Instant,
}

impl Snapshot {
    pub fn take() -> Self {
        Snapshot {
            probe_ms: probe_ms(),
            wait_ns: runqueue_wait_ns(),
            steal: steal_ticks(),
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            at: Instant::now(),
        }
    }

    /// The diagnostics line for the run since this snapshot.
    pub fn finish(&self) -> String {
        let wall = self.at.elapsed().as_secs_f64();
        let after = probe_ms();
        let delta = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => format!("{}", b.saturating_sub(a)),
            _ => "n/a".to_string(),
        };
        format!(
            "noise probe_ms_before={:.3} probe_ms_after={:.3} runqueue_wait_ms={} steal_ticks={} wall_s={:.3} cores={}",
            self.probe_ms,
            after,
            match (self.wait_ns, runqueue_wait_ns()) {
                (Some(a), Some(b)) => format!("{:.3}", b.saturating_sub(a) as f64 / 1e6),
                _ => "n/a".to_string(),
            },
            delta(self.steal, steal_ticks()),
            wall,
            self.cores,
        )
    }
}
