//! Scripted-session equivalence across the full shard × worker grid.
//!
//! The parallel-commit contract: `config.shards` (how the event
//! population is partitioned into device lanes) and `config.workers`
//! (how many threads execute lane phases concurrently) must both be
//! unobservable in every simulated quantity. A seeded session driven
//! through the live admin surface — deploys, scales, injected faults,
//! routed requests — must replay bit-identically at every grid point,
//! and must be insensitive to *where* the driver yields: stepping to
//! one far horizon and stepping in small increments that land mid
//! epoch-window must produce the same canonical rendering.

use std::fmt::Write;

use cluster::engine::{AccrualCounters, ClusterConfig, ClusterSession, LiveFault, TuningCounters};
use cluster::systems::SystemKind;
use mudi::TuneTrigger;
use resilience::{CorrelatedFaultConfig, FaultProfile};
use simcore::{SimTime, TopologyShape, TraceConfig};

/// An 8-rack faulted config so 8 shards are non-trivial and the
/// cross-lane paths (reroute, standby mirror, repair undo) all fire.
fn grid_config(shards: usize, workers: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::tiny(SystemKind::Mudi, 23).with_faults(
        FaultProfile::scaled(150.0).with_correlated(CorrelatedFaultConfig::scaled(150.0)),
    );
    cfg.topology = TopologyShape::new(8, 2);
    cfg.devices = 16;
    cfg.jobs = 10;
    cfg.shards = shards;
    cfg.workers = workers;
    // An epoch length dividing every scripted instant, so boundary
    // yields tile the script exactly.
    cfg.shard_epoch_secs = 100.0;
    cfg
}

/// Drives one fixed admin script through a session, rendering every
/// observable (admin outcomes, routed requests, reports, the final
/// canonical result text) into one comparable string. `advance`
/// abstracts *how* the clock reaches each scripted instant.
fn run_script(cfg: ClusterConfig, advance: impl Fn(&mut ClusterSession, SimTime)) -> String {
    let mut s = ClusterSession::new_scaled(cfg, 0.01);
    let mut out = drive_script(&mut s, advance);
    out.push_str(&s.finish().canonical_text());
    out
}

/// [`run_script`] with the trace bus on, stepping straight to each
/// instant. Returns the script rendering and, separately, the rendered
/// trace stream and summary.
fn run_traced_script(cfg: ClusterConfig) -> (String, String) {
    let mut s = ClusterSession::new_scaled(cfg, 0.01);
    s.set_trace_config(TraceConfig::enabled());
    let mut out = drive_script(&mut s, direct);
    let (events, missed) = s.trace_events_since(0);
    let mut trace = String::new();
    for te in &events {
        let _ = writeln!(trace, "{te:?}");
    }
    let _ = writeln!(trace, "missed={missed} {:?}", s.trace_summary());
    out.push_str(&s.finish().canonical_text());
    (out, trace)
}

/// The scripted admin session itself: everything but the final result.
fn drive_script(s: &mut ClusterSession, advance: impl Fn(&mut ClusterSession, SimTime)) -> String {
    let mut out = String::new();
    let services: Vec<_> = s.zoo().services().iter().map(|sp| sp.id).collect();

    advance(s, SimTime::from_secs(500.0));
    let _ = writeln!(
        out,
        "deploy3 {:?}",
        s.deploy_replica(3, services[0]).map_err(|e| e.to_string())
    );
    for &svc in services.iter().take(2) {
        match s.infer(svc) {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "infer {} dev{} {:?} standby={} viol={}",
                    svc.0, r.device, r.latency_secs, r.via_standby, r.violation
                );
            }
            Err(e) => {
                let _ = writeln!(out, "infer {} err {e}", svc.0);
            }
        }
    }

    advance(s, SimTime::from_secs(900.0));
    let _ = writeln!(
        out,
        "fail2 {}",
        s.inject_fault(2, LiveFault::DeviceFailure { repair_secs: 350.0 })
            .is_ok()
    );
    let _ = writeln!(
        out,
        "slow9 {}",
        s.inject_fault(
            9,
            LiveFault::Slowdown {
                factor: 0.6,
                duration_secs: 250.0,
            }
        )
        .is_ok()
    );

    advance(s, SimTime::from_secs(1500.0));
    let _ = writeln!(
        out,
        "scale1 {:?}",
        s.scale_service(services[1], 3)
            .map(|o| (o.achieved, o.moves))
            .map_err(|e| e.to_string())
    );
    let _ = writeln!(
        out,
        "crash5 {}",
        s.inject_fault(5, LiveFault::ProcessCrash { salt: 1 })
            .is_ok()
    );

    advance(s, SimTime::from_secs(2500.0));
    for r in s.service_report() {
        let _ = writeln!(
            out,
            "svc {} up={}/{} req={:?} viol={:?} api={}/{} outage={}",
            r.id.0,
            r.replicas_up,
            r.replicas_assigned,
            r.requests,
            r.violations,
            r.api_violations,
            r.api_requests,
            r.in_outage
        );
    }
    let fm = s.fault_metrics();
    let _ = writeln!(
        out,
        "faults dev={} slow={} crash={} promo={} outage_secs={:?}",
        fm.device_failures,
        fm.slowdowns,
        fm.process_crashes,
        fm.standby_promotions,
        fm.service_outage_secs
    );
    let _ = writeln!(out, "fired={}", s.events_fired());
    out
}

/// Steps straight to each scripted instant.
fn direct(s: &mut ClusterSession, t: SimTime) {
    s.step_until(t);
}

/// The full 4×4 grid replays the (1 shard, 1 worker) cell exactly.
#[test]
fn scripted_session_is_identical_across_shard_worker_grid() {
    let baseline = run_script(grid_config(1, 1), direct);
    for shards in [1usize, 2, 4, 8] {
        for workers in [1usize, 2, 4, 8] {
            if (shards, workers) == (1, 1) {
                continue;
            }
            let cell = run_script(grid_config(shards, workers), direct);
            assert_eq!(
                baseline, cell,
                "shards={shards} workers={workers} drifted from the 1x1 baseline"
            );
        }
    }
}

/// The scripted session's tuning and accrual counters after the
/// script.
fn script_counters(cfg: ClusterConfig) -> (TuningCounters, AccrualCounters) {
    let mut s = ClusterSession::new_scaled(cfg, 0.01);
    drive_script(&mut s, direct);
    let profile = s.phase_profile();
    (profile.tuning, profile.accrual)
}

/// The tuning counters are exact: every pass count and every memo count
/// is the same at every shard and worker count. Each lane counts its own
/// passes and lane-phase searches, and lane-phase retunes only read the
/// session memo, which the serial phase alone records into.
#[test]
fn tuning_counters_are_identical_across_shard_worker_grid() {
    let base = script_counters(grid_config(1, 1)).0;
    for trigger in [
        TuneTrigger::QpsChange,
        TuneTrigger::Failover,
        TuneTrigger::Repair,
    ] {
        assert!(
            base.passes(trigger) > 0,
            "no {} pass: {base}",
            trigger.name()
        );
    }
    let search = base.search;
    assert_eq!(search.searches, base.total_passes(), "{base}");
    assert!(search.hits > 0 && search.refits > 0, "{base}");
    for (shards, workers) in [(2, 1), (4, 1), (4, 2), (4, 4)] {
        assert_eq!(
            base,
            script_counters(grid_config(shards, workers)).0,
            "shards={shards} workers={workers} counted differently"
        );
    }
}

/// The accrual counters are exact too: each lane counts its own
/// devices' spans in both phases, so at a fixed shard count the
/// evaluations are the same at 1, 2 and 4 workers.
#[test]
fn accrual_counters_are_identical_across_worker_counts() {
    let base = script_counters(grid_config(4, 1)).1;
    assert!(base.evaluations > 0, "{base}");
    for workers in [2, 4] {
        assert_eq!(
            base,
            script_counters(grid_config(4, workers)).1,
            "workers={workers} counted differently"
        );
    }
}

/// Observing a run costs it neither its results nor its determinism:
/// traced, every grid point replays the untraced run exactly and emits
/// the byte-identical trace stream, although lanes run concurrently and
/// each defers its trace events to the barrier.
#[test]
fn traced_session_stream_is_identical_across_shard_worker_grid() {
    let untraced = run_script(grid_config(1, 1), direct);
    let (base_out, base_trace) = run_traced_script(grid_config(1, 1));
    assert_eq!(untraced, base_out, "tracing perturbed the 1x1 replay");
    assert!(
        base_trace.contains("RetuneApplied") || base_trace.contains("RetuneRejected"),
        "the script must exercise the lane trace events"
    );
    for shards in [1usize, 2, 4, 8] {
        for workers in [1usize, 2, 4, 8] {
            if (shards, workers) == (1, 1) {
                continue;
            }
            let (out, trace) = run_traced_script(grid_config(shards, workers));
            assert_eq!(
                untraced, out,
                "shards={shards} workers={workers}: traced replay drifted"
            );
            assert_eq!(
                base_trace, trace,
                "shards={shards} workers={workers}: trace stream drifted from 1x1"
            );
        }
    }
}

/// Forced epoch-boundary yields: handing control back to the driver
/// at every 100 s epoch boundary (a `step_until` per epoch) must be
/// indistinguishable from stepping straight to each horizon. This is
/// the commit contract's yield guarantee — barriers live on the epoch
/// grid, so a yield *on* the grid adds no barrier. (A mid-epoch
/// horizon inserts an extra barrier and deterministically re-quantizes
/// cross-lane effects; such yields are outside the contract.)
#[test]
fn epoch_boundary_yields_match_direct_stepping() {
    let per_epoch = |s: &mut ClusterSession, t: SimTime| {
        let mut at = s.now();
        while at < t {
            at = (at + simcore::SimDuration::from_secs(100.0)).min(t);
            s.step_until(at);
        }
    };
    let one = run_script(grid_config(4, 2), direct);
    let many = run_script(grid_config(4, 2), per_epoch);
    assert_eq!(one, many, "epoch-boundary yields perturbed the replay");
}
