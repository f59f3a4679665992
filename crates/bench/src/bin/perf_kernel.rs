//! Kernel performance ledger: steps/sec and simulated-seconds per
//! wall-second on fixed cluster shapes.
//!
//! Drives the staged kernel through [`ClusterSession`] on pinned
//! shapes — tiny and physical clusters swept in one shot, the
//! serving access pattern (five-minute increments), the rack-sharded
//! engine, and the LLM-mix regime — and writes the
//! measurements to `BENCH_perf_kernel.json` at the repo root. The
//! committed copy is the reference ledger: rerun after kernel changes
//! and diff the throughput fields to catch regressions that the
//! (correctness-only) golden snapshots cannot see.
//!
//! Each shape fires a deterministic event count (fixed seed, fixed
//! horizon), so steps-per-second is comparable across runs on the same
//! machine; wall-clock numbers move with hardware. `MUDI_PERF_SAMPLES`
//! (default 3) controls how many repetitions the reported median comes
//! from.
//!
//! Two extra modes turn the harness into a correctness and regression
//! smoke:
//!
//! * `--check` runs each shape once, fingerprints its
//!   [`ExperimentResult`](cluster::metrics::ExperimentResult), and
//!   compares against `tests/golden/perf_kernel_fingerprints.txt` — a
//!   kernel change that shifts any simulated quantity fails here even
//!   though the throughput ledger cannot see it. Re-record with
//!   `MUDI_BLESS=1` after an intentional behavior change.
//! * `--gate` compares the fresh measurements against the committed
//!   ledger before overwriting it and fails on a >20 % steps/sec
//!   regression on any shape. `MUDI_BENCH_NO_GATE=1` disables the
//!   failure for noisy runners.
//!
//! Any other argument exits with status 2 and a usage line before any
//! work, so a stray `--help` never overwrites the ledger.

use std::fmt::Write as _;
use std::time::Instant;

use cluster::engine::{AccrualCounters, ClusterConfig, ClusterSession, TuningCounters};
use cluster::systems::SystemKind;
use simcore::SimTime;

const LEDGER_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf_kernel.json");
const FINGERPRINT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/perf_kernel_fingerprints.txt"
);

/// The pinned shapes: name, config, horizon, step increment.
fn shapes() -> Vec<(&'static str, ClusterConfig, f64, f64)> {
    const DAY: f64 = 24.0 * 3600.0;
    vec![
        (
            "batch-tiny-mudi-5day",
            ClusterConfig::tiny(SystemKind::Mudi, 7),
            5.0 * DAY,
            5.0 * DAY,
        ),
        (
            "batch-physical-mudi-5day",
            ClusterConfig::physical(SystemKind::Mudi, 7),
            5.0 * DAY,
            5.0 * DAY,
        ),
        (
            "session-tiny-1day-5min-steps",
            ClusterConfig::tiny(SystemKind::Mudi, 7),
            DAY,
            300.0,
        ),
        // The physical shape again through the rack-sharded engine
        // (clamped to the 4-rack topology). Sharding must be
        // unobservable in the simulated outcome, so this shape's
        // committed fingerprint is *the same line* as
        // batch-physical-mudi-5day's — the `--check` mode doubles as a
        // shard-equivalence smoke. Its throughput entry tracks the
        // sharded path's overhead/speedup against the plain loop.
        (
            "batch-physical-mudi-5day-4shard",
            {
                let mut c = ClusterConfig::physical(SystemKind::Mudi, 7);
                c.shards = 4;
                c
            },
            5.0 * DAY,
            5.0 * DAY,
        ),
        // The physical cluster with the generative services enabled:
        // steady-state decode accrual and the token-SLO controllers
        // are on the measured path, and the fingerprint pins the
        // LLM-mix simulated outcome.
        (
            "llm-mix-physical-mudi-5day",
            {
                let mut c = ClusterConfig::physical(SystemKind::Mudi, 7);
                c.llm_services = true;
                c
            },
            5.0 * DAY,
            5.0 * DAY,
        ),
    ]
}

struct Measurement {
    shape: &'static str,
    events: u64,
    sim_secs: f64,
    wall_secs: f64,
    /// Exact tuning-work counts (the same on every sample).
    tuning: TuningCounters,
    /// Exact SLO-accrual counts (the same on every sample).
    accrual: AccrualCounters,
}

impl Measurement {
    fn steps_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }
    fn sim_secs_per_wall_sec(&self) -> f64 {
        self.sim_secs / self.wall_secs.max(1e-9)
    }
}

/// Runs `f` `samples` times and keeps the median-wall-time run.
fn median_of(samples: usize, f: impl Fn() -> Measurement) -> Measurement {
    let mut runs: Vec<Measurement> = (0..samples.max(1)).map(|_| f()).collect();
    runs.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    runs.remove(runs.len() / 2)
}

/// Steps a fresh session to `horizon_secs` in `step_secs` increments.
/// One giant increment measures the raw event loop; five-minute
/// increments measure the serving control plane's access pattern.
fn run_shape(
    shape: &'static str,
    config: ClusterConfig,
    horizon_secs: f64,
    step_secs: f64,
) -> Measurement {
    let mut session = ClusterSession::new_scaled(config, 0.01);
    let start = Instant::now();
    let mut events = 0u64;
    let mut t = 0.0;
    while t < horizon_secs {
        t = (t + step_secs).min(horizon_secs);
        events += session.step_until(SimTime::from_secs(t));
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let profile = session.phase_profile();
    Measurement {
        shape,
        events: events.max(1),
        sim_secs: session.now().as_secs(),
        wall_secs,
        tuning: profile.tuning,
        accrual: profile.accrual,
    }
}

/// `--check`: fingerprint each shape's simulated outcome against the
/// golden file, and print each shape's tuning and accrual counters. Pure
/// correctness — no timing involved.
fn run_check() {
    let mut actual = String::new();
    let mut counters = String::new();
    for (shape, config, horizon, step) in shapes() {
        let mut session = ClusterSession::new_scaled(config, 0.01);
        let mut t = 0.0;
        while t < horizon {
            t = (t + step).min(horizon);
            session.step_until(SimTime::from_secs(t));
        }
        let profile = session.phase_profile();
        let _ = writeln!(counters, "{shape} {}", profile.tuning);
        let _ = writeln!(counters, "{shape} {}", profile.accrual);
        let fp = session.finish().fingerprint();
        let _ = writeln!(actual, "{shape} {fp:016x}");
    }
    println!("tuning and accrual counters per shape:\n{counters}");
    if simcore::env::flag("MUDI_BLESS") {
        std::fs::write(FINGERPRINT_PATH, &actual).expect("write fingerprint golden");
        println!("perf_kernel --check: fingerprints recorded\n{actual}");
        return;
    }
    let expected = std::fs::read_to_string(FINGERPRINT_PATH).unwrap_or_else(|e| {
        panic!("missing golden {FINGERPRINT_PATH}: {e}; record with MUDI_BLESS=1")
    });
    assert!(
        expected == actual,
        "perf_kernel --check: shape fingerprints drifted.\n\
         The kernel's simulated results changed; if intentional, re-record\n\
         with MUDI_BLESS=1.\n--- expected ---\n{expected}--- actual ---\n{actual}"
    );
    println!("perf_kernel --check: all shape fingerprints match\n{actual}");
}

/// Parses the committed ledger's `(shape, steps_per_sec)` pairs; a
/// line missing either field is skipped.
fn parse_ledger(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let shape = bench::ledger_string(line, "shape")?;
            let sps = bench::ledger_number(line, "steps_per_sec")?;
            Some((shape.to_string(), sps))
        })
        .collect()
}

/// `--gate`: fail on a >20 % steps/sec regression vs the committed
/// ledger (read before this run overwrites it).
fn run_gate(reference: &[(String, f64)], fresh: &[Measurement]) {
    let mut failures = Vec::new();
    for m in fresh {
        let Some((_, was)) = reference.iter().find(|(s, _)| s == m.shape) else {
            continue;
        };
        let now = m.steps_per_sec();
        if bench::regressed(now, *was) {
            failures.push(format!(
                "{}: {now:.0} steps/s vs committed {was:.0} ({:.0}% of reference)",
                m.shape,
                100.0 * now / was
            ));
        }
    }
    bench::gate_verdict("bench gate", "shape", "steps/sec", &failures);
}

fn main() {
    let flags = bench::flags_or_exit("perf_kernel", &["--check", "--gate"]);
    if flags.contains(&"--check") {
        run_check();
        return;
    }
    let gate = flags.contains(&"--gate");
    let reference = if gate {
        parse_ledger(&std::fs::read_to_string(LEDGER_PATH).unwrap_or_default())
    } else {
        Vec::new()
    };

    let samples = simcore::env::parse_or::<usize>("MUDI_PERF_SAMPLES", 3);
    println!("perf_kernel: {samples} samples per shape, reporting medians\n");

    let measured: Vec<Measurement> = shapes()
        .into_iter()
        .map(|(shape, config, horizon, step)| {
            median_of(samples, || run_shape(shape, config.clone(), horizon, step))
        })
        .collect();
    let shapes = measured;

    let mut json = String::from("{\n  \"shapes\": [\n");
    for (i, m) in shapes.iter().enumerate() {
        println!(
            "{:<32} {:>9} events  {:>10.0} steps/s  {:>12.0} sim-s/wall-s",
            m.shape,
            m.events,
            m.steps_per_sec(),
            m.sim_secs_per_wall_sec()
        );
        println!("{:>32} tuning {}", "", m.tuning);
        println!("{:>32} accrual {}", "", m.accrual);
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{}\", \"events\": {}, \"sim_secs\": {:.3}, \"wall_secs\": {:.6}, \"steps_per_sec\": {:.0}, \"sim_secs_per_wall_sec\": {:.0}}}{}",
            m.shape,
            m.events,
            m.sim_secs,
            m.wall_secs,
            m.steps_per_sec(),
            m.sim_secs_per_wall_sec(),
            if i + 1 < shapes.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"samples_per_shape\": ");
    let _ = write!(json, "{samples}\n}}");
    json.push('\n');

    if gate {
        run_gate(&reference, &shapes);
    }

    std::fs::write(LEDGER_PATH, &json).expect("write BENCH_perf_kernel.json");
    println!("\nledger written to BENCH_perf_kernel.json");
}
