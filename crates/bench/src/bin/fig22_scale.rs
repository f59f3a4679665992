//! Scale-sweep ledger: the parallel-commit engine at 1k / 10k / 100k
//! simulated devices across the `(shards, workers)` grid.
//!
//! For each cluster size the sweep replays the identical seeded run at
//! several `(shard, worker)` grid points and records throughput
//! (steps/sec, sim-secs per wall-sec), control-plane responsiveness
//! (p99 wall time of one `step_until` increment — what a live
//! `mudi-serve` caller would wait), goodput, the overall SLO violation
//! rate, and the engine's *phase profile*: wall seconds spent in the
//! concurrent lane phase vs the serial barrier/global phase. Because
//! the parallel commit is bit-identical by construction, every cell of
//! one cluster size must land on the *same* result fingerprint — the
//! harness asserts that, so this ledger doubles as the grid-equivalence
//! proof at scales the golden snapshots cannot reach (the committed
//! ledger includes a real 100k-device run).
//!
//! Two speedup figures per cell:
//! * `wall_secs` is the honestly measured wall clock on the recording
//!   host — on a multi-core host the multi-worker cells show the
//!   speedup directly, on a single-core host they cannot.
//! * `parallel_speedup` is the critical-path figure from the measured
//!   phase profile: `(lane + serial) / (lane / workers + serial)` —
//!   the Amdahl bound the lane/serial split actually achieved, which
//!   is host-core-count independent. The 100k-device row's 4-worker
//!   cell must clear 2x.
//!
//! Results go to `BENCH_fig22_scale.json` at the repo root; wall-clock
//! fields move with hardware, event counts and fingerprints do not.
//!
//! `--smoke` runs only three 1k-device cells (same horizon and
//! stepping as the full sweep's 1k row, so gate comparisons are
//! like-for-like) and skips the ledger write — the CI shape. `--gate` compares fresh
//! cells against the committed ledger and fails on a >20% regression
//! in either steps/sec or `parallel_speedup` (mirroring
//! `perf_kernel --gate`; `MUDI_BENCH_NO_GATE=1` bypasses on a noisy
//! runner). Any other argument exits with status 2 and a usage line
//! before any work.

use std::fmt::Write as _;
use std::time::Instant;

use cluster::engine::{
    AccrualCounters, ClusterConfig, ClusterSession, ScalePreset, TuningCounters,
};
use cluster::systems::SystemKind;
use simcore::{SimTime, TopologyShape};

const LEDGER_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig22_scale.json");

/// One sweep row: a cluster size with its topology, horizon, stepping
/// increment, and the `(shards, workers)` grid points to replay it at.
struct Sweep {
    devices: usize,
    racks: usize,
    nodes_per_rack: usize,
    horizon_secs: f64,
    step_secs: f64,
    cells: &'static [(usize, usize)],
}

fn sweeps(smoke: bool) -> Vec<Sweep> {
    if smoke {
        // Identical run shape to the full sweep's 1k row (same horizon
        // and stepping) so `--gate` compares like with like against the
        // committed ledger — only the cell list is trimmed.
        return vec![Sweep {
            devices: 1_000,
            racks: 8,
            nodes_per_rack: 4,
            horizon_secs: 7_200.0,
            step_secs: 600.0,
            cells: &[(1, 1), (2, 2), (4, 4)],
        }];
    }
    vec![
        Sweep {
            devices: 1_000,
            racks: 8,
            nodes_per_rack: 4,
            horizon_secs: 7_200.0,
            step_secs: 600.0,
            cells: &[(1, 1), (2, 1), (4, 1), (8, 1), (2, 2), (4, 4)],
        },
        Sweep {
            devices: 10_000,
            racks: 16,
            nodes_per_rack: 8,
            horizon_secs: 3_600.0,
            step_secs: 600.0,
            cells: &[(1, 1), (4, 1), (8, 1), (8, 4)],
        },
        Sweep {
            devices: 100_000,
            racks: 32,
            nodes_per_rack: 8,
            // Long enough that the one-time admission burst (placement
            // scoring + per-device tuning for a fixed 64-job campaign)
            // amortizes against the steady-state per-device event load,
            // as it would over any real operating window.
            horizon_secs: 1_800.0,
            step_secs: 600.0,
            cells: &[(1, 1), (8, 1), (8, 2), (8, 4)],
        },
    ]
}

struct Cell {
    devices: usize,
    shards: usize,
    workers: usize,
    events: u64,
    sim_secs: f64,
    wall_secs: f64,
    lane_secs: f64,
    serial_secs: f64,
    barrier_secs: f64,
    p99_step_wall_ms: f64,
    goodput_iters_per_hour: f64,
    violation_rate: f64,
    fingerprint: u64,
    tuning: TuningCounters,
    accrual: AccrualCounters,
}

impl Cell {
    fn steps_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }

    /// Fraction of kernel wall time spent in the concurrent lane phase.
    fn lane_fraction(&self) -> f64 {
        let total = self.lane_secs + self.serial_secs;
        if total > 0.0 {
            self.lane_secs / total
        } else {
            0.0
        }
    }

    /// Critical-path speedup at this cell's worker count: the measured
    /// lane/serial phase walls folded through Amdahl's law. Host-core-
    /// count independent (the lane phase parallelizes perfectly by
    /// construction — disjoint device ranges, no locks).
    fn parallel_speedup(&self) -> f64 {
        let total = self.lane_secs + self.serial_secs;
        let critical = self.lane_secs / self.workers as f64 + self.serial_secs;
        if critical > 0.0 {
            total / critical
        } else {
            1.0
        }
    }
}

fn p99(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[idx.clamp(1, samples.len()) - 1]
}

fn run_cell(sweep: &Sweep, shards: usize, workers: usize) -> Cell {
    // The simulated-cluster preset's dynamics (120 s QPS dwell, ×80
    // arrivals) at a parameterized device count. Jobs are few and the
    // horizon short: the sweep measures the serving-side kernel, not
    // a batch campaign.
    let cfg = ClusterConfig::builder(ScalePreset::Simulated, SystemKind::Mudi, 7)
        .devices(sweep.devices)
        .jobs(64)
        .topology(TopologyShape::new(sweep.racks, sweep.nodes_per_rack))
        .shards(shards)
        .workers(workers)
        .max_sim_secs(sweep.horizon_secs)
        .build();
    let mut session = ClusterSession::new_scaled(cfg, 0.01);
    let start = Instant::now();
    let mut events = 0u64;
    let mut step_walls = Vec::new();
    let mut t = 0.0;
    while t < sweep.horizon_secs {
        t = (t + sweep.step_secs).min(sweep.horizon_secs);
        let s0 = Instant::now();
        events += session.step_until(SimTime::from_secs(t));
        step_walls.push(s0.elapsed().as_secs_f64() * 1e3);
    }
    let wall_secs = start.elapsed().as_secs_f64();
    let sim_secs = session.now().as_secs();
    let profile = session.phase_profile();
    let result = session.finish();
    Cell {
        devices: sweep.devices,
        shards,
        workers,
        events: events.max(1),
        sim_secs,
        wall_secs,
        lane_secs: profile.lane_secs,
        serial_secs: profile.serial_secs,
        barrier_secs: profile.barrier_secs,
        p99_step_wall_ms: p99(&mut step_walls),
        goodput_iters_per_hour: result.goodput_iters_per_hour(),
        violation_rate: result.overall_violation_rate(),
        fingerprint: result.fingerprint(),
        tuning: profile.tuning,
        accrual: profile.accrual,
    }
}

/// Parses the committed ledger's gate-relevant fields per cell, keyed
/// by `(devices, shards, workers)`; a line missing any field is
/// skipped.
fn parse_ledger(text: &str) -> Vec<((usize, usize, usize), f64, f64)> {
    use bench::ledger_number as field;
    text.lines()
        .filter_map(|line| {
            let d = field(line, "devices")?;
            let s = field(line, "shards")?;
            let w = field(line, "workers")?;
            let sps = field(line, "steps_per_sec")?;
            let speedup = field(line, "parallel_speedup")?;
            Some(((d as usize, s as usize, w as usize), sps, speedup))
        })
        .collect()
}

/// `--gate`: fail on a >20% regression vs the committed ledger in
/// either raw throughput or the critical-path parallel speedup of any
/// matching `(devices, shards, workers)` cell.
fn run_gate(reference: &[((usize, usize, usize), f64, f64)], fresh: &[Cell]) {
    let mut failures = Vec::new();
    for c in fresh {
        let key = (c.devices, c.shards, c.workers);
        let Some(&(_, was_sps, was_speedup)) = reference.iter().find(|(k, ..)| *k == key) else {
            continue;
        };
        let sps = c.steps_per_sec();
        if bench::regressed(sps, was_sps) {
            failures.push(format!(
                "{}dev s{} w{}: {sps:.0} steps/s vs committed {was_sps:.0} \
                 ({:.0}% of reference)",
                c.devices,
                c.shards,
                c.workers,
                100.0 * sps / was_sps
            ));
        }
        let speedup = c.parallel_speedup();
        if bench::regressed(speedup, was_speedup) {
            failures.push(format!(
                "{}dev s{} w{}: parallel speedup {speedup:.2}x vs committed \
                 {was_speedup:.2}x ({:.0}% of reference)",
                c.devices,
                c.shards,
                c.workers,
                100.0 * speedup / was_speedup
            ));
        }
    }
    bench::gate_verdict("fig22 gate", "cell", "parallel throughput", &failures);
}

fn main() {
    let flags = bench::flags_or_exit("fig22_scale", &["--smoke", "--gate"]);
    let smoke = flags.contains(&"--smoke");
    let gate = flags.contains(&"--gate");
    let reference = if gate {
        std::fs::read_to_string(LEDGER_PATH)
            .map(|t| parse_ledger(&t))
            .unwrap_or_default()
    } else {
        Vec::new()
    };

    // Diagnostic filter: `MUDI_FIG22_DEVICES=100000` runs only that
    // sweep (and skips the ledger write, like `--smoke`).
    let only: Option<usize> = simcore::env::parse("MUDI_FIG22_DEVICES");

    let mut cells: Vec<Cell> = Vec::new();
    for sweep in sweeps(smoke) {
        if only.is_some_and(|d| d != sweep.devices) {
            continue;
        }
        let mut base_fp: Option<u64> = None;
        for &(shards, workers) in sweep.cells {
            let cell = run_cell(&sweep, shards, workers);
            println!(
                "{:>7} devices  s{} w{}  {:>9} events  {:>10.0} steps/s  \
                 p99 step {:>8.1} ms  lane {:.0}% ({:.2}s/{:.2}s)  barrier {:>6.2}s  \
                 speedup {:>5.2}x  goodput {:>10.1} it/h  viol {:.4}  fp {:016x}",
                cell.devices,
                cell.shards,
                cell.workers,
                cell.events,
                cell.steps_per_sec(),
                cell.p99_step_wall_ms,
                100.0 * cell.lane_fraction(),
                cell.lane_secs,
                cell.serial_secs,
                cell.barrier_secs,
                cell.parallel_speedup(),
                cell.goodput_iters_per_hour,
                cell.violation_rate,
                cell.fingerprint,
            );
            // Exact counts: the same at every worker count of a shard
            // count (the memos split by lane, so not across shards).
            println!("{:>16}tuning {}", "", cell.tuning);
            println!("{:>16}accrual {}", "", cell.accrual);
            // The grid-equivalence assertion: within one cluster size,
            // every (shards, workers) point must land on the identical
            // simulated outcome.
            match base_fp {
                None => base_fp = Some(cell.fingerprint),
                Some(fp) => assert_eq!(
                    cell.fingerprint, fp,
                    "{} devices: (s{}, w{}) diverged from the (1, 1) run",
                    cell.devices, cell.shards, cell.workers
                ),
            }
            cells.push(cell);
        }
    }
    println!("\nall (shards, workers) cells bit-identical within each cluster size");

    if gate {
        run_gate(&reference, &cells);
    }
    if smoke || only.is_some() {
        println!("smoke/filtered mode: ledger not written");
        return;
    }

    // The headline acceptance figure: the 100k-device 4-worker cell's
    // critical-path speedup must clear 2x.
    if let Some(c) = cells
        .iter()
        .find(|c| c.devices == 100_000 && c.workers == 4)
    {
        let speedup = c.parallel_speedup();
        println!(
            "100k-device 4-worker parallel speedup: {speedup:.2}x \
             (lane fraction {:.1}%)",
            100.0 * c.lane_fraction()
        );
        assert!(
            speedup >= 2.0,
            "100k-device 4-worker speedup {speedup:.2}x below the 2x target"
        );
    }

    let mut json = String::from("{\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"devices\": {}, \"shards\": {}, \"workers\": {}, \"events\": {}, \
             \"sim_secs\": {:.3}, \"wall_secs\": {:.6}, \"steps_per_sec\": {:.0}, \
             \"lane_secs\": {:.6}, \"serial_secs\": {:.6}, \"parallel_speedup\": {:.3}, \
             \"p99_step_wall_ms\": {:.3}, \"goodput_iters_per_hour\": {:.3}, \
             \"violation_rate\": {:.6}, \"fingerprint\": \"{:016x}\"}}{}",
            c.devices,
            c.shards,
            c.workers,
            c.events,
            c.sim_secs,
            c.wall_secs,
            c.steps_per_sec(),
            c.lane_secs,
            c.serial_secs,
            c.parallel_speedup(),
            c.p99_step_wall_ms,
            c.goodput_iters_per_hour,
            c.violation_rate,
            c.fingerprint,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(LEDGER_PATH, &json).expect("write BENCH_fig22_scale.json");
    println!("ledger written to BENCH_fig22_scale.json");
}
