//! Shard-count equivalence: the rack-sharded engine must be
//! bit-identical to the single-queue engine at every shard count.
//!
//! The sharded kernel partitions the event population by rack into
//! per-shard queues, but commits events serially in canonical
//! `(time, seq)` order, so the shard count (and the worker count — CI
//! re-runs this file under `MUDI_THREADS=2`) must be unobservable in
//! every simulated quantity. These tests compare full
//! `canonical_text` renderings — round-trip-precision floats of every
//! violation count, CT statistic, and fault ledger — across shard
//! counts on the golden-snapshot config, a faulted config (exercising
//! the cross-shard reroute message path), and a wider 8-rack topology
//! where 8 shards are actually distinct.

use cluster::engine::ClusterConfig;
use cluster::experiments::end_to_end;
use cluster::systems::SystemKind;
use resilience::{CorrelatedFaultConfig, FaultProfile};
use simcore::TopologyShape;

fn canon(cfg: ClusterConfig, scale: f64) -> String {
    end_to_end(cfg, scale).canonical_text()
}

/// The golden-snapshot shape (physical preset, 12 jobs) replayed at
/// 1, 2, and 4 shards over the default 4×2 topology.
#[test]
fn golden_shape_is_identical_at_1_2_and_4_shards() {
    let build = |shards: usize| {
        let mut cfg = ClusterConfig::physical(SystemKind::Mudi, 7);
        cfg.jobs = 12;
        cfg.shards = shards;
        cfg
    };
    let one = canon(build(1), 0.01);
    assert_eq!(one, canon(build(2), 0.01), "2 shards drifted from 1");
    assert_eq!(one, canon(build(4), 0.01), "4 shards drifted from 1");
}

/// Dense faults (device-local + correlated rack/node outages) drive
/// the cross-shard reroute traffic: a failed device's share fans out
/// to survivors in other racks as `ShardMsg`s. Their canonical drain
/// order must reproduce the single-queue inline loop exactly.
#[test]
fn faulted_runs_are_identical_at_1_vs_4_shards() {
    let build = |shards: usize| {
        let mut cfg = ClusterConfig::physical(SystemKind::Mudi, 11).with_faults(
            FaultProfile::scaled(200.0).with_correlated(CorrelatedFaultConfig::scaled(200.0)),
        );
        cfg.jobs = 10;
        cfg.shards = shards;
        // Short epochs force many speculation barriers through the
        // fault windows.
        cfg.shard_epoch_secs = 30.0;
        cfg
    };
    assert_eq!(canon(build(1), 0.005), canon(build(4), 0.005));
}

/// A wider 8-rack topology so 8 shards are all non-trivial, with the
/// shard count requested above the rack count to also pin the clamp.
#[test]
fn eight_rack_topology_is_identical_at_1_vs_8_shards() {
    let build = |shards: usize| {
        let mut cfg = ClusterConfig::tiny(SystemKind::Mudi, 13);
        cfg.topology = TopologyShape::new(8, 2);
        cfg.devices = 16;
        cfg.jobs = 10;
        cfg.shards = shards;
        cfg
    };
    let one = canon(build(1), 0.01);
    assert_eq!(one, canon(build(8), 0.01), "8 shards drifted from 1");
    // Requests above the rack count clamp to it (8 here).
    assert_eq!(one, canon(build(64), 0.01), "clamped count drifted");
}
