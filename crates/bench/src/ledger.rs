//! The kernel performance ledger: one table of named rows, each a
//! seeded run stepped to a fixed horizon and timed.
//!
//! The rows are of two kinds:
//!
//! * the kernel shapes — tiny and physical clusters swept in one shot,
//!   the serving access pattern (five-minute increments), the
//!   rack-sharded engine, and the LLM-mix regime — measured over
//!   three samples, keeping the median wall time;
//! * the scale cells — the parallel-commit engine at 1k / 10k / 100k
//!   simulated devices, each replayed at several `(shards, workers)`
//!   grid points, such as `scale-1k-s2-w2`, measured once.
//!
//! Each row fires a deterministic event count (fixed seed, fixed
//! horizon), so steps per second compare across runs on one machine;
//! wall-clock fields move with hardware, event counts, fingerprints and
//! counters do not. `parallel_speedup` is the critical-path figure from
//! the measured phase profile, `(lane + serial) / (lane / workers +
//! serial)`: the Amdahl bound the lane/serial split achieved, which does
//! not depend on the host's core count.
//!
//! Every row's result fingerprint and its exact tuning and accrual
//! counters are pinned in `tests/golden/ledger.txt`. Rows of one grid
//! replay one run, so they must land on one fingerprint and count the
//! same work ([`assert_grid`]). The `ledger` binary measures every row,
//! checks it against the golden, and with `--gate` compares it against
//! the committed `BENCH_ledger.json` ([`gate`]); `cargo test` checks
//! the kernel shapes and the 1k cells.

use std::fmt::{self, Write as _};
use std::time::Instant;

use cluster::engine::{
    AccrualCounters, ClusterConfig, ClusterSession, ScalePreset, TuningCounters,
};
use cluster::systems::SystemKind;
use simcore::{SimTime, TopologyShape};

/// One row of the table: a seeded run and how to step it.
pub struct Spec {
    /// The row's key in the ledger and in the golden.
    pub name: String,
    /// Rows with the same grid replay one run at different `(shards,
    /// workers)` points, so they must land on one fingerprint.
    pub grid: String,
    pub config: ClusterConfig,
    pub horizon_secs: f64,
    /// One increment the size of the horizon measures the raw event
    /// loop; short increments measure a serving caller's access pattern.
    pub step_secs: f64,
    /// Runs measured; the row keeps the median-wall-time one.
    pub samples: usize,
}

/// The row whose parallel speedup must reach the floor on every run:
/// the 100k-device cell at 4 workers.
pub const SPEEDUP_TARGET: (&str, f64) = ("scale-100k-s8-w4", 2.0);

/// Every row, kernel shapes first, then the scale cells by size.
pub fn table() -> Vec<Spec> {
    const DAY: f64 = 24.0 * 3600.0;
    let kernel = |name: &str, config, horizon_secs, step_secs| Spec {
        name: name.to_string(),
        grid: name.to_string(),
        config,
        horizon_secs,
        step_secs,
        samples: 3,
    };
    let tiny = || ClusterConfig::tiny(SystemKind::Mudi, 7);
    let physical = || ClusterConfig::physical(SystemKind::Mudi, 7);
    let mut four_shard = physical();
    four_shard.shards = 4;
    let mut llm_mix = physical();
    llm_mix.llm_services = true;
    let mut rows = vec![
        kernel("batch-tiny-mudi-5day", tiny(), 5.0 * DAY, 5.0 * DAY),
        kernel("batch-physical-mudi-5day", physical(), 5.0 * DAY, 5.0 * DAY),
        kernel("session-tiny-1day-5min-steps", tiny(), DAY, 300.0),
        // The physical shape again through the rack-sharded engine
        // (clamped to the 4-rack topology). Sharding must be
        // unobservable, so it shares the plain shape's grid; its
        // throughput tracks the sharded path's overhead.
        Spec {
            grid: "batch-physical-mudi-5day".to_string(),
            ..kernel(
                "batch-physical-mudi-5day-4shard",
                four_shard,
                5.0 * DAY,
                5.0 * DAY,
            )
        },
        // Generative services on: steady-state decode accrual and the
        // token-SLO controllers are on the measured path.
        kernel("llm-mix-physical-mudi-5day", llm_mix, 5.0 * DAY, 5.0 * DAY),
    ];
    // The simulated preset's dynamics (120 s QPS dwell, ×80 arrivals) at
    // a set device count. Jobs are few and the horizon short: the cells
    // measure the serving-side kernel, not a batch campaign.
    let mut sweep =
        |label: &str, devices, (racks, nodes), horizon_secs, cells: &[(usize, usize)]| {
            for &(shards, workers) in cells {
                let config = ClusterConfig::builder(ScalePreset::Simulated, SystemKind::Mudi, 7)
                    .devices(devices)
                    .jobs(64)
                    .topology(TopologyShape::new(racks, nodes))
                    .shards(shards)
                    .workers(workers)
                    .max_sim_secs(horizon_secs)
                    .build();
                rows.push(Spec {
                    name: format!("scale-{label}-s{shards}-w{workers}"),
                    grid: format!("scale-{label}"),
                    config,
                    horizon_secs,
                    step_secs: 600.0,
                    samples: 1,
                });
            }
        };
    let one_k = [(1, 1), (2, 1), (4, 1), (8, 1), (2, 2), (4, 4)];
    sweep("1k", 1_000, (8, 4), 7_200.0, &one_k);
    sweep(
        "10k",
        10_000,
        (16, 8),
        3_600.0,
        &[(1, 1), (4, 1), (8, 1), (8, 4)],
    );
    // Long enough that the one-time admission burst amortizes against
    // the steady per-device event load.
    sweep(
        "100k",
        100_000,
        (32, 8),
        1_800.0,
        &[(1, 1), (8, 1), (8, 2), (8, 4)],
    );
    rows
}

/// One measured row.
pub struct Row {
    pub name: String,
    pub grid: String,
    pub events: u64,
    pub sim_secs: f64,
    pub wall_secs: f64,
    /// p99 wall time of one stepping increment: what a live caller
    /// would wait.
    pub p99_step_wall_ms: f64,
    /// Wall seconds in the concurrent lane phase.
    pub lane_secs: f64,
    /// Wall seconds in the serial barrier-plus-global phase.
    pub serial_secs: f64,
    /// Wall seconds of `serial_secs` spent applying barrier envelopes.
    pub barrier_secs: f64,
    /// Worker threads applied to the lane phase.
    pub workers: usize,
    pub tuning: TuningCounters,
    pub accrual: AccrualCounters,
    pub goodput_iters_per_hour: f64,
    pub violation_rate: f64,
    pub fingerprint: u64,
}

impl Row {
    pub fn steps_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }

    pub fn sim_secs_per_wall_sec(&self) -> f64 {
        self.sim_secs / self.wall_secs.max(1e-9)
    }

    /// Fraction of kernel wall time spent in the concurrent lane phase.
    pub fn lane_fraction(&self) -> f64 {
        let total = self.lane_secs + self.serial_secs;
        if total > 0.0 {
            self.lane_secs / total
        } else {
            0.0
        }
    }

    /// Critical-path speedup at this row's worker count: the measured
    /// lane/serial phase walls folded through Amdahl's law (the lane
    /// phase runs disjoint device ranges with no locks).
    pub fn parallel_speedup(&self) -> f64 {
        let total = self.lane_secs + self.serial_secs;
        let critical = self.lane_secs / self.workers.max(1) as f64 + self.serial_secs;
        if critical > 0.0 {
            total / critical
        } else {
            1.0
        }
    }

    /// The row's lines in `tests/golden/ledger.txt`: its fingerprint,
    /// then its tuning and accrual counters.
    fn golden_lines(&self) -> String {
        let name = &self.name;
        format!(
            "{name} {:016x}\n{name} {}\n{name} {}\n",
            self.fingerprint, self.tuning, self.accrual
        )
    }

    /// The row's record in `BENCH_ledger.json`, one line.
    fn json(&self) -> String {
        format!(
            "{{\"row\": \"{}\", \"events\": {}, \"sim_secs\": {:.3}, \"wall_secs\": {:.6}, \
             \"steps_per_sec\": {:.0}, \"sim_secs_per_wall_sec\": {:.0}, \"lane_secs\": {:.6}, \
             \"serial_secs\": {:.6}, \"parallel_speedup\": {:.3}, \"p99_step_wall_ms\": {:.3}, \
             \"goodput_iters_per_hour\": {:.3}, \"violation_rate\": {:.6}, \
             \"fingerprint\": \"{:016x}\"}}",
            self.name,
            self.events,
            self.sim_secs,
            self.wall_secs,
            self.steps_per_sec(),
            self.sim_secs_per_wall_sec(),
            self.lane_secs,
            self.serial_secs,
            self.parallel_speedup(),
            self.p99_step_wall_ms,
            self.goodput_iters_per_hour,
            self.violation_rate,
            self.fingerprint,
        )
    }
}

impl fmt::Display for Row {
    /// Three lines: the timings, then the tuning and accrual counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<32} {:>9} events  {:>10.0} steps/s  {:>11.0} sim-s/wall-s  \
             p99 step {:>8.1} ms  lane {:.0}% ({:.2}s/{:.2}s)  barrier {:.2}s  \
             speedup {:.2}x  goodput {:.1} it/h  viol {:.4}  fp {:016x}",
            self.name,
            self.events,
            self.steps_per_sec(),
            self.sim_secs_per_wall_sec(),
            self.p99_step_wall_ms,
            100.0 * self.lane_fraction(),
            self.lane_secs,
            self.serial_secs,
            self.barrier_secs,
            self.parallel_speedup(),
            self.goodput_iters_per_hour,
            self.violation_rate,
            self.fingerprint,
        )?;
        writeln!(f, "{:>32} tuning {}", "", self.tuning)?;
        write!(f, "{:>32} accrual {}", "", self.accrual)
    }
}

/// Steps a fresh session of `spec` to its horizon in its increments,
/// `spec.samples` times, and keeps the median-wall-time run.
pub fn measure(spec: &Spec) -> Row {
    let mut runs: Vec<Row> = (0..spec.samples.max(1))
        .map(|_| {
            let mut session = ClusterSession::new_scaled(spec.config.clone(), 0.01);
            let start = Instant::now();
            let mut events = 0u64;
            let mut step_walls = Vec::new();
            let mut t = 0.0;
            while t < spec.horizon_secs {
                t = (t + spec.step_secs).min(spec.horizon_secs);
                let s0 = Instant::now();
                events += session.step_until(SimTime::from_secs(t));
                step_walls.push(s0.elapsed().as_secs_f64() * 1e3);
            }
            let wall_secs = start.elapsed().as_secs_f64();
            let sim_secs = session.now().as_secs();
            let profile = session.phase_profile();
            let result = session.finish();
            Row {
                name: spec.name.clone(),
                grid: spec.grid.clone(),
                events: events.max(1),
                sim_secs,
                wall_secs,
                p99_step_wall_ms: p99(&mut step_walls),
                lane_secs: profile.lane_secs,
                serial_secs: profile.serial_secs,
                barrier_secs: profile.barrier_secs,
                workers: profile.workers,
                tuning: profile.tuning,
                accrual: profile.accrual,
                goodput_iters_per_hour: result.goodput_iters_per_hour(),
                violation_rate: result.overall_violation_rate(),
                fingerprint: result.fingerprint(),
            }
        })
        .collect();
    runs.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    runs.remove(runs.len() / 2)
}

fn p99(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[idx.clamp(1, samples.len()) - 1]
}

/// Asserts that the rows of each grid share one fingerprint and one
/// set of tuning and accrual counters: the partition and the worker
/// count are unobservable, and so is the work they count. A golden
/// re-record checks this first, so it cannot record a divergence.
pub fn assert_grid(rows: &[Row]) {
    for row in rows {
        let first = rows
            .iter()
            .find(|r| r.grid == row.grid)
            .expect("row itself");
        let key = |r: &Row| (format!("{:016x}", r.fingerprint), r.tuning, r.accrual);
        assert_eq!(
            key(row),
            key(first),
            "{} diverged from {}",
            row.name,
            first.name
        );
    }
}

/// The golden file's text with the lines of `rows` rendered fresh. A
/// row of the table that was not measured keeps its `recorded` lines.
pub fn golden_text(recorded: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    for spec in table() {
        match rows.iter().find(|r| r.name == spec.name) {
            Some(row) => out.push_str(&row.golden_lines()),
            None => {
                for line in recorded
                    .lines()
                    .filter(|l| l.split(' ').next() == Some(spec.name.as_str()))
                {
                    let _ = writeln!(out, "{line}");
                }
            }
        }
    }
    out
}

/// The ledger file for `rows`, one record per line.
pub fn render(rows: &[Row]) -> String {
    let records: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
    format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", records.join(",\n"))
}

/// The committed record of row `name` in ledger text, if any.
pub fn committed<'a>(ledger: &'a str, name: &str) -> Option<&'a str> {
    ledger
        .lines()
        .find(|line| string(line, "row") == Some(name))
}

/// A gate fails a fresh value that falls below this fraction of its
/// committed value (a >20% regression).
pub const GATE_FLOOR: f64 = 0.80;

/// The gate: every row whose steps per second, or parallel speedup,
/// fell below [`GATE_FLOOR`] of its committed record in `reference`,
/// one line each. A row with no record, or a key its record lacks, is
/// not gated.
pub fn gate(reference: &str, rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for row in rows {
        let Some(record) = committed(reference, &row.name) else {
            continue;
        };
        for (key, now) in [
            ("steps_per_sec", row.steps_per_sec()),
            ("parallel_speedup", row.parallel_speedup()),
        ] {
            let Some(was) = number(record, key) else {
                continue;
            };
            if now < was * GATE_FLOOR {
                failures.push(format!(
                    "{}: {key} {now:.3} vs committed {was:.3} ({:.0}% of reference)",
                    row.name,
                    100.0 * now / was
                ));
            }
        }
    }
    failures
}

/// The number after `"key": ` in one ledger record. The ledger is
/// written one record per line, so the format is fixed; `None` (a
/// missing or malformed field) leaves the key ungated.
fn number(record: &str, key: &str) -> Option<f64> {
    record
        .split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse::<f64>().ok())
}

/// The string after `"key": "` in one ledger record (see [`number`]).
fn string<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    record
        .split(&format!("\"{key}\": \""))
        .nth(1)
        .and_then(|s| s.split('"').next())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row with the given throughput and 4-worker parallel speedup,
    /// over one second of lane plus serial time.
    fn row(name: &str, steps_per_sec: f64, speedup: f64) -> Row {
        // 1 / (lane / 4 + serial) = speedup, with lane + serial = 1.
        let lane = (1.0 - 1.0 / speedup) * 4.0 / 3.0;
        Row {
            name: name.to_string(),
            grid: name.to_string(),
            events: steps_per_sec as u64,
            sim_secs: 1.0,
            wall_secs: 1.0,
            p99_step_wall_ms: 0.0,
            lane_secs: lane,
            serial_secs: 1.0 - lane,
            barrier_secs: 0.0,
            workers: 4,
            tuning: TuningCounters::default(),
            accrual: AccrualCounters::default(),
            goodput_iters_per_hour: 0.0,
            violation_rate: 0.0,
            fingerprint: 0,
        }
    }

    const REFERENCE: &str = r#"{
  "rows": [
    {"row": "kernel", "events": 1000, "steps_per_sec": 1000},
    {"row": "cell", "events": 1000, "steps_per_sec": 1000, "parallel_speedup": 2.000}
  ]
}
"#;

    #[test]
    fn gate_fails_below_eighty_percent_only() {
        assert!(gate(REFERENCE, &[row("kernel", 800.0, 1.0)]).is_empty());
        let failures = gate(REFERENCE, &[row("kernel", 790.0, 1.0)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("kernel: steps_per_sec 790.000"));
    }

    #[test]
    fn gate_fails_a_speedup_drop() {
        assert!(gate(REFERENCE, &[row("cell", 1000.0, 1.7)]).is_empty());
        let failures = gate(REFERENCE, &[row("cell", 1000.0, 1.5)]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("cell: parallel_speedup 1.500"));
    }

    #[test]
    fn gate_skips_missing_rows_and_keys() {
        // "kernel" has no committed speedup, "new" no committed record.
        let rows = [row("kernel", 1000.0, 1.0), row("new", 1.0, 1.0)];
        assert!(gate(REFERENCE, &rows).is_empty());
        assert!(committed(REFERENCE, "new").is_none());
    }

    #[test]
    fn records_round_trip_through_the_reader() {
        let fresh = row("scale-1k-s2-w2", 1234.0, 1.75);
        let ledger = render(&[row("kernel", 1.0, 1.0), fresh]);
        let record = committed(&ledger, "scale-1k-s2-w2").expect("record");
        assert_eq!(number(record, "steps_per_sec"), Some(1234.0));
        assert_eq!(number(record, "parallel_speedup"), Some(1.75));
        assert_eq!(number(record, "workers"), None);
        assert_eq!(string(record, "fingerprint"), Some("0000000000000000"));
        assert!(committed(&ledger, "scale-1k").is_none());
    }

    #[test]
    fn table_names_are_unique_and_grids_hold_one_config() {
        let table = table();
        for (i, spec) in table.iter().enumerate() {
            assert!(
                table[..i].iter().all(|s| s.name != spec.name),
                "{}",
                spec.name
            );
            let first = table.iter().find(|s| s.grid == spec.grid).unwrap();
            let (mut a, mut b) = (first.config.clone(), spec.config.clone());
            (a.shards, a.workers, b.shards, b.workers) = (0, 0, 0, 0);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", spec.name);
            assert_eq!(
                (first.horizon_secs, first.step_secs),
                (spec.horizon_secs, spec.step_secs)
            );
        }
        assert!(table.iter().any(|s| s.name == SPEEDUP_TARGET.0));
    }
}
