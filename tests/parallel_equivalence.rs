//! Bit-for-bit equivalence of serial and pooled experiment fan-out.
//!
//! The scoped worker pool must be a pure execution-strategy change:
//! every `(system × seed × rate × load)` cell owns its configuration
//! and its `SimRng` streams, so the full `ExperimentResult` series of a
//! pooled sweep must equal a plain serial loop over the same cells
//! **exactly** — compared here through
//! `ExperimentResult::canonical_text`, which renders every
//! simulation-determined field in round-trip float form (equal text ⇔
//! equal bits) and excludes only host wall-clock timing.
//!
//! Thread counts are pinned through the runners' `workers` argument
//! rather than `MUDI_THREADS` so the harness's own test parallelism
//! cannot race on the process environment.

use cluster::engine::ClusterConfig;
use cluster::experiments::{
    correlated_failure_cells, end_to_end, end_to_end_many, failure_cells, load_cells,
    max_throughput, warm_standby_cells, FaultScope,
};
use cluster::metrics::ExperimentResult;
use cluster::systems::SystemKind;

/// Worker counts the pooled path is exercised at (≥ 3 per acceptance);
/// `1` is the pool's in-thread serial path.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// A small but non-trivial physical-cluster cell: full device count,
/// reduced job count and iteration scale so each run takes well under a
/// second while still exercising placement, tuning, and recovery.
fn small_config(system: SystemKind, seed: u64) -> (ClusterConfig, f64) {
    let mut cfg = ClusterConfig::physical(system, seed);
    cfg.jobs = 16;
    (cfg, 0.01)
}

fn texts(results: &[ExperimentResult]) -> Vec<String> {
    results
        .iter()
        .map(ExperimentResult::canonical_text)
        .collect()
}

/// Runs `cells` in a plain serial loop (no pool involvement) as the
/// reference, then asserts `end_to_end_many` reproduces it exactly at
/// every worker count.
fn assert_pool_matches_serial(label: &str, cells: Vec<(ClusterConfig, f64)>) {
    let n = cells.len();
    let serial: Vec<ExperimentResult> = cells
        .clone()
        .into_iter()
        .map(|(c, s)| end_to_end(c, s))
        .collect();
    let serial = texts(&serial);
    assert_eq!(serial.len(), n);
    for workers in WORKER_COUNTS {
        let pooled = texts(&end_to_end_many(cells.clone(), workers));
        assert_eq!(
            serial, pooled,
            "{label} diverged from serial at workers={workers}"
        );
    }
}

/// The fig. 19 driver shape: a failure sweep over fault-rate
/// multipliers, serial reference vs the pool at every worker count.
#[test]
fn failure_sweep_is_bit_identical_across_thread_counts() {
    let (base, scale) = small_config(SystemKind::Mudi, 42);
    let cells = failure_cells(SystemKind::Mudi, 42, &[0.0, 100.0], &base, scale);
    assert_pool_matches_serial("failure sweep", cells);
}

/// The fig. 15 driver shape: a load sweep, serial vs pooled.
#[test]
fn load_sensitivity_is_bit_identical_across_thread_counts() {
    let (base, scale) = small_config(SystemKind::Gslice, 11);
    let cells = load_cells(SystemKind::Gslice, 11, &[1.0, 3.0], &base, scale);
    assert_pool_matches_serial("load sweep", cells);
}

/// The fig. 8 driver shape: independent per-system `end_to_end` cells,
/// serial loop vs one pooled `end_to_end_many` fan-out.
#[test]
fn end_to_end_fanout_is_bit_identical_across_thread_counts() {
    let systems = [SystemKind::Gslice, SystemKind::MuxFlow, SystemKind::Mudi];
    let cells = systems.iter().map(|&s| small_config(s, 7)).collect();
    assert_pool_matches_serial("end_to_end fan-out", cells);
}

/// The fig. 20 driver shape: a correlated-failure sweep over blast
/// scope × rate, serial reference vs the pool at every worker count.
/// Exercises the topology expansion, rack-striped layout, and
/// total-outage accounting under pooled execution.
#[test]
fn correlated_sweep_is_bit_identical_across_thread_counts() {
    let scopes = [FaultScope::Device, FaultScope::Rack];
    let (base, scale) = small_config(SystemKind::Mudi, 42);
    let cells =
        correlated_failure_cells(SystemKind::Mudi, 42, &scopes, &[0.0, 200.0], &base, scale);
    assert_pool_matches_serial("correlated failure sweep", cells);
}

/// The fig. 14 driver shape: per-service max-throughput cells at every
/// worker count; `workers = 1` (the in-thread serial path) is the
/// reference.
#[test]
fn max_throughput_is_bit_identical_across_thread_counts() {
    let serial = max_throughput(SystemKind::Mudi, 9, 1);
    assert!(!serial.is_empty());
    for workers in WORKER_COUNTS {
        let pooled = max_throughput(SystemKind::Mudi, 9, workers);
        assert_eq!(
            serial.len(),
            pooled.len(),
            "max_throughput length diverged at workers={workers}"
        );
        for ((sa, qa), (sb, qb)) in serial.iter().zip(&pooled) {
            assert_eq!(sa, sb, "service order diverged at workers={workers}");
            assert!(
                qa.to_bits() == qb.to_bits(),
                "max QPS diverged at workers={workers}: {qa} vs {qb}"
            );
        }
    }
}

/// The fig. 21 driver shape: a warm-standby sweep over pool size ×
/// fault rate, serial reference vs the pool at every worker count.
/// Exercises the standby seeding, promote/demote transitions, and the
/// reserved-GPU%-seconds ledger under pooled execution.
#[test]
fn warm_standby_sweep_is_bit_identical_across_thread_counts() {
    let (base, scale) = small_config(SystemKind::Mudi, 42);
    let cells = warm_standby_cells(SystemKind::Mudi, 42, &[0, 1], &[0.0, 200.0], &base, scale);
    assert_pool_matches_serial("warm-standby sweep", cells);
}

/// Repeated pooled runs are self-identical (no hidden shared state in
/// the engine or the pool leaks between cells).
#[test]
fn pooled_runs_are_self_reproducible() {
    let (base, scale) = small_config(SystemKind::Mudi, 5);
    let cells = failure_cells(SystemKind::Mudi, 5, &[0.0, 50.0], &base, scale);
    let a = texts(&end_to_end_many(cells.clone(), 4));
    let b = texts(&end_to_end_many(cells, 4));
    assert_eq!(a, b);
}
