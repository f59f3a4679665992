use std::sync::Arc;

use super::*;

use resilience::{FaultKind, FaultProfile, FaultSchedule};
use simcore::{SimDuration, SimEventKind, SimTime, Topology, TopologyShape};
use workloads::{ServiceId, Zoo};

use crate::experiments::end_to_end;
use crate::metrics::ExperimentResult;
use crate::systems::SystemKind;

use state::SimState;

/// Runs `session` to the end: its result and trace summary.
fn run_traced(mut session: ClusterSession) -> (ExperimentResult, simcore::TraceSummary) {
    session.run_to_end();
    let summary = session.trace_summary();
    (session.finish(), summary)
}

#[test]
fn violation_probability_shapes() {
    // Comfortable: tiny latency, loose SLO.
    let low = violation_probability(200.0, 16, 0.150, 0.010, 0.08);
    assert!(low < 0.01, "low {low}");
    // Budget blown by the fill wait alone.
    let high = violation_probability(10.0, 512, 0.150, 0.010, 0.08);
    assert!(high > 0.99, "high {high}");
    // Unstable service.
    let unstable = violation_probability(1000.0, 16, 0.5, 0.10, 0.05);
    assert!(unstable > 0.5, "unstable {unstable}");
    // No load, no violations.
    assert_eq!(violation_probability(0.0, 16, 0.1, 0.01, 0.05), 0.0);
}

#[test]
fn violation_probability_monotone_in_latency() {
    let mut last = 0.0;
    for mean in [0.01, 0.03, 0.06, 0.1, 0.2] {
        let p = violation_probability(200.0, 16, 0.150, mean, 0.08);
        assert!(p >= last, "p {p} at mean {mean}");
        last = p;
    }
}

#[test]
fn violation_probability_zero_sigma_is_a_step() {
    // With no latency noise the per-position outcome is deterministic:
    // comfortably inside the SLO means (almost) no violations...
    let inside = violation_probability(200.0, 16, 0.150, 0.010, 0.0);
    assert!(inside < 1e-9, "inside {inside}");
    // ...and a mean beyond the SLO violates every request.
    let outside = violation_probability(200.0, 16, 0.150, 0.200, 0.0);
    assert!(outside > 1.0 - 1e-9, "outside {outside}");
}

#[test]
fn violation_probability_batch_one_has_no_fill_wait() {
    // batch=1: each request forms its own batch, so the fill wait is a
    // single interarrival gap and the budget is dominated by the
    // latency tail. (QPS must stay below 1/mean or the stability
    // penalty rightly kicks in: one 10 ms batch per request cannot
    // serve more than 100 requests/s.)
    let p1 = violation_probability(10.0, 1, 0.150, 0.010, 0.08);
    assert!(p1 < 0.01, "p1 {p1}");
    // The same latency with a 512-batch at the same QPS blows the
    // budget on fill alone — batch=1 must never be worse.
    let p512 = violation_probability(10.0, 512, 0.150, 0.010, 0.08);
    assert!(p1 <= p512);
}

#[test]
fn violation_probability_slo_below_floor_latency_saturates() {
    // The SLO sits below the mean batch latency itself: even a request
    // that waits zero fill time cannot make it. Certain violation.
    let p = violation_probability(100.0, 16, 0.005, 0.050, 0.08);
    assert!(p > 0.999, "p {p}");
    // And the clamp holds at the extremes.
    assert!(p <= 1.0);
}

#[test]
fn tiny_random_cluster_completes_all_jobs() {
    let result = end_to_end(ClusterConfig::tiny(SystemKind::Random, 1), 0.002);
    assert_eq!(result.jobs_completed, result.jobs_submitted);
    assert!(result.makespan_secs > 0.0);
    assert!(result.ct.count() > 0);
    assert!(result.overall_violation_rate() <= 1.0);
    assert!(result.mean_sm_util > 0.0);
}

#[test]
fn tiny_gslice_cluster_completes() {
    let result = end_to_end(ClusterConfig::tiny(SystemKind::Gslice, 2), 0.002);
    assert_eq!(result.jobs_completed, result.jobs_submitted);
    assert!(result.ct.mean() > 0.0);
}

#[test]
fn deterministic_given_seed() {
    let a = end_to_end(ClusterConfig::tiny(SystemKind::Random, 7), 0.002);
    let b = end_to_end(ClusterConfig::tiny(SystemKind::Random, 7), 0.002);
    assert_eq!(a.jobs_completed, b.jobs_completed);
    assert!((a.makespan_secs - b.makespan_secs).abs() < 1e-6);
    assert!((a.overall_violation_rate() - b.overall_violation_rate()).abs() < 1e-12);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // The trace bus is pure observation: enabling it (even with the
    // unbounded placement log) must leave every result bit-identical.
    let base = end_to_end(ClusterConfig::tiny(SystemKind::Mudi, 7), 0.002);
    let mut session = ClusterSession::new_scaled(ClusterConfig::tiny(SystemKind::Mudi, 7), 0.002);
    session.set_trace_config(simcore::TraceConfig::with_placement_log());
    let (traced, summary) = run_traced(session);
    assert!(summary.emitted() > 0, "tracing should observe events");
    assert_eq!(base.jobs_completed, traced.jobs_completed);
    assert_eq!(
        base.makespan_secs.to_bits(),
        traced.makespan_secs.to_bits(),
        "makespan must be bit-identical"
    );
    assert_eq!(
        base.overall_violation_rate().to_bits(),
        traced.overall_violation_rate().to_bits()
    );
    assert_eq!(
        base.useful_iterations.to_bits(),
        traced.useful_iterations.to_bits()
    );
}

#[test]
fn trace_counters_aggregate_engine_activity() {
    let cfg = ClusterConfig::tiny(SystemKind::Mudi, 17).with_faults(FaultProfile::scaled(50.0));
    let mut session = ClusterSession::new_scaled(cfg, 0.002);
    session.set_trace_config(simcore::TraceConfig::enabled());
    let (result, summary) = run_traced(session);

    // Every fired schedule entry emits exactly one FaultApplied; every
    // *applied* fault is a fired entry, so the counter dominates the
    // per-class metrics.
    let applied = result.faults.total_faults() as u64;
    assert!(applied > 0, "fault rate should inject faults");
    assert!(
        summary.count(SimEventKind::FaultApplied) >= applied,
        "FaultApplied {} < applied faults {applied}",
        summary.count(SimEventKind::FaultApplied)
    );
    // Every completed job was placed at least once.
    assert!(summary.count(SimEventKind::Placement) >= result.jobs_completed as u64);
    // Retunes happened, and every one was either applied or rejected.
    let retunes =
        summary.count(SimEventKind::RetuneApplied) + summary.count(SimEventKind::RetuneRejected);
    assert!(retunes > 0, "no retune decisions observed");
    // The summary's total is consistent with its per-kind counters.
    let per_kind: u64 = SimEventKind::ALL.iter().map(|&k| summary.count(k)).sum();
    assert_eq!(per_kind, summary.emitted());
}

#[test]
fn single_failure_trace_matches_fault_metrics() {
    use resilience::FaultEvent;
    let n_services = Zoo::standard().services().len();
    let mut cfg = ClusterConfig::tiny(SystemKind::Random, 31);
    cfg.devices = n_services + 2;
    let schedule = FaultSchedule::from_events(vec![FaultEvent::device_local(
        SimTime::from_secs(600.0),
        0,
        FaultKind::DeviceFailure {
            repair: SimDuration::from_mins(30.0),
        },
    )]);
    let mut session = ClusterSession::with_fault_schedule(cfg, 0.002, schedule);
    session.set_trace_config(simcore::TraceConfig::enabled());
    let (result, summary) = run_traced(session);
    assert_eq!(result.faults.device_failures, 1);
    assert_eq!(summary.count(SimEventKind::FaultApplied), 1);
    assert_eq!(
        summary.count(SimEventKind::FailoverRerouted),
        result.faults.inference_failovers as u64
    );
}

#[test]
fn placement_log_is_rebuilt_from_trace() {
    let mut cfg = ClusterConfig::tiny(SystemKind::Random, 9);
    cfg.jobs = 8;
    let mut session = ClusterSession::new_scaled(cfg, 0.002);
    session.set_trace_config(simcore::TraceConfig::with_placement_log());
    session.run_to_end();
    let log = session.placement_log();
    let result = session.finish();
    assert!(result.jobs_completed > 0);
    assert!(
        log.len() >= result.jobs_completed,
        "every completed job was placed at least once"
    );
    for (task, device, candidates) in &log {
        assert!(candidates.iter().any(|&(d, _)| d == *device));
        assert!(!candidates.is_empty());
        let _ = task;
    }
}

#[test]
fn config_builder_presets_and_overrides() {
    // The legacy constructors are builder shorthands.
    let phys = ClusterConfig::physical(SystemKind::Mudi, 1);
    assert_eq!((phys.devices, phys.jobs), (12, 300));
    let sim = ClusterConfig::simulated(SystemKind::Mudi, 1);
    assert_eq!((sim.devices, sim.jobs), (1000, 5000));
    assert_eq!(sim.arrival_scale, 80.0);
    let tiny = ClusterConfig::tiny(SystemKind::Mudi, 1);
    assert_eq!((tiny.devices, tiny.jobs), (6, 24));

    // Overrides flow through the shared builder.
    let custom = ClusterConfig::builder(ScalePreset::Tiny, SystemKind::Random, 3)
        .devices(2)
        .jobs(12)
        .load_multiplier(2.0)
        .max_sim_secs(3600.0)
        .build();
    assert_eq!((custom.devices, custom.jobs), (2, 12));
    assert_eq!(custom.load_multiplier, 2.0);
    assert_eq!(custom.max_sim_secs, 3600.0);
    assert_eq!(custom.seed, 3);
}

#[test]
fn waiting_time_appears_under_contention() {
    // Many jobs on few devices must queue.
    let mut cfg = ClusterConfig::tiny(SystemKind::Random, 3);
    cfg.devices = 2;
    cfg.jobs = 12;
    let result = end_to_end(cfg, 0.002);
    assert_eq!(result.jobs_completed, 12);
    assert!(
        result.waiting.max().unwrap_or(0.0) > 0.0,
        "someone should wait"
    );
}

#[test]
fn faulty_run_is_deterministic() {
    let run = || {
        let cfg =
            ClusterConfig::tiny(SystemKind::Random, 17).with_faults(FaultProfile::scaled(50.0));
        end_to_end(cfg, 0.002)
    };
    let a = run();
    let b = run();
    assert!(
        a.faults.total_faults() > 0,
        "fault rate should inject faults"
    );
    assert_eq!(a.faults.device_failures, b.faults.device_failures);
    assert_eq!(a.faults.slowdowns, b.faults.slowdowns);
    assert_eq!(a.faults.process_crashes, b.faults.process_crashes);
    assert_eq!(a.faults.mps_failures, b.faults.mps_failures);
    assert!((a.faults.lost_iterations - b.faults.lost_iterations).abs() < 1e-9);
    assert!((a.faults.dropped_requests - b.faults.dropped_requests).abs() < 1e-9);
    assert!((a.faults.rerouted_requests - b.faults.rerouted_requests).abs() < 1e-9);
    assert!((a.useful_iterations - b.useful_iterations).abs() < 1e-9);
    assert!((a.makespan_secs - b.makespan_secs).abs() < 1e-6);
    assert!((a.overall_violation_rate() - b.overall_violation_rate()).abs() < 1e-12);
}

#[test]
fn jobs_complete_under_faults() {
    let cfg = ClusterConfig::tiny(SystemKind::Mudi, 23).with_faults(FaultProfile::scaled(25.0));
    let result = end_to_end(cfg, 0.002);
    assert_eq!(result.jobs_completed, result.jobs_submitted);
    assert!(result.useful_iterations > 0.0);
    // Goodput only counts retained progress.
    let lost: f64 = result.faults.lost_iterations;
    assert!(lost >= 0.0);
}

/// Injects exactly one device failure on device 0 of a `devices`-wide
/// flat layout (services round-robin across the zoo) to check the
/// conservation law: a failed replica's traffic is either fully
/// rerouted to survivors or counted as SLO violations — never silently
/// dropped.
fn one_failure_run(devices: usize) -> ExperimentResult {
    use resilience::FaultEvent;
    let mut cfg = ClusterConfig::tiny(SystemKind::Random, 31);
    cfg.devices = devices;
    let schedule = FaultSchedule::from_events(vec![FaultEvent::device_local(
        SimTime::from_secs(600.0),
        0,
        FaultKind::DeviceFailure {
            repair: SimDuration::from_mins(30.0),
        },
    )]);
    run_traced(ClusterSession::with_fault_schedule(cfg, 0.002, schedule)).0
}

#[test]
fn failed_replica_traffic_reroutes_to_survivors() {
    // Enough devices that device 0's service has a same-service
    // survivor.
    let r = one_failure_run(Zoo::standard().services().len() + 2);
    assert_eq!(r.faults.device_failures, 1);
    assert_eq!(r.faults.inference_failovers, 1);
    assert!(
        r.faults.rerouted_requests > 0.0,
        "survivors should serve the share"
    );
    assert_eq!(
        r.faults.dropped_requests, 0.0,
        "failover leaves nothing dropped"
    );
}

#[test]
fn failed_replica_traffic_without_survivor_counts_as_violations() {
    // One replica per service: device 0's service has no survivor.
    let r = one_failure_run(Zoo::standard().services().len());
    assert_eq!(r.faults.device_failures, 1);
    assert_eq!(r.faults.inference_failovers, 0);
    assert_eq!(r.faults.rerouted_requests, 0.0);
    assert!(
        r.faults.dropped_requests > 0.0,
        "dropped traffic must be visible"
    );
    // Every dropped request was booked as a violation too.
    let total_viol: f64 = r.services.values().map(|m| m.violations).sum();
    assert!(
        total_viol + 1e-9 >= r.faults.dropped_requests,
        "violations {total_viol} must cover dropped {}",
        r.faults.dropped_requests
    );
}

#[test]
fn crash_rollback_loses_at_most_one_checkpoint_period() {
    use resilience::{FaultEvent, CHECKPOINT_PERIOD_SECS};
    // One crash, long after training started: the rolled-back work is
    // bounded by period / iteration time. (The exact one-period
    // guarantee is pinned by the checkpoint tracker's own tests.)
    let mut cfg = ClusterConfig::tiny(SystemKind::Random, 41);
    cfg.jobs = 6;
    let schedule = FaultSchedule::from_events(vec![FaultEvent::device_local(
        SimTime::from_secs(900.0),
        0,
        FaultKind::ProcessCrash { salt: 0 },
    )]);
    let period = SimDuration::from_secs(CHECKPOINT_PERIOD_SECS);
    let r = run_traced(ClusterSession::with_fault_schedule(cfg, 0.002, schedule)).0;
    if r.faults.process_crashes == 0 {
        return; // Device 0 had no resident at fire time; nothing to check.
    }
    // The victim redid `lost_iterations`; at worst it lost one full
    // period of progress. Iteration times in the zoo exceed 10 ms,
    // so one period of running time bounds the lost iterations.
    assert!(r.faults.lost_iterations <= period.as_secs() / 0.010 + 1e-6);
    assert!(r.faults.restart_downtime_secs > 0.0);
}

#[test]
fn striped_layout_spreads_replicas_across_racks() {
    let topo = Topology::new(TopologyShape::new(4, 2), 12);
    let svc = striped_service_assignment(&topo, 12, 6);
    for s in 0..6 {
        let replicas: Vec<usize> = (0..12).filter(|&d| svc[d] == s).collect();
        assert_eq!(replicas.len(), 2, "service {s} should keep 2 replicas");
        assert_ne!(
            topo.rack_of(replicas[0]),
            topo.rack_of(replicas[1]),
            "service {s} replicas {replicas:?} share a rack"
        );
    }
}

#[test]
fn single_rack_striping_degenerates_to_flat() {
    let topo = Topology::new(TopologyShape::new(1, 1), 10);
    let svc = striped_service_assignment(&topo, 10, 6);
    let flat: Vec<usize> = (0..10).map(|d| d % 6).collect();
    assert_eq!(svc, flat);
}

/// The PR 3 assignment keyed on racks alone. At large device counts
/// (more devices per node than services) it parks two replicas of
/// one service on a single node inside a rack — the collision the
/// node-granularity key bounds. Kept inline as the regression
/// baseline.
fn rack_only_assignment(topo: &Topology, devices: usize, n_services: usize) -> Vec<usize> {
    let mut in_rack = vec![vec![0usize; n_services]; topo.shape().racks];
    let mut total = vec![0usize; n_services];
    let mut out = Vec::with_capacity(devices);
    for d in 0..devices {
        let r = topo.rack_of(d);
        let best = (0..n_services)
            .min_by_key(|&s| (in_rack[r][s], total[s], s))
            .expect("non-empty service list");
        in_rack[r][best] += 1;
        total[best] += 1;
        out.push(best);
    }
    out
}

#[test]
fn node_striping_regression_bounds_same_node_collisions() {
    // Reproduce the old collision: 64 devices over 4x2 means 8
    // devices per node with only 6 services — the rack-only key
    // doubles some service up on a node.
    let topo = Topology::new(TopologyShape::new(4, 2), 64);
    let old = rack_only_assignment(&topo, 64, 6);
    let count = |assign: &[usize], node: usize, s: usize| {
        (0..64)
            .filter(|&d| topo.node_of(d) == node && assign[d] == s)
            .count()
    };
    let collided = (0..topo.shape().nodes()).any(|n| (0..6).any(|s| count(&old, n, s) >= 2));
    assert!(
        collided,
        "the rack-only layout should exhibit the collision"
    );

    // The node-granularity key pins the regression: per node, no
    // service ever exceeds the pigeonhole optimum
    // ceil(node devices / services), across a sweep of shapes.
    for (racks, npr, devices, n_services) in [
        (4, 2, 64, 6),
        (4, 2, 12, 6),
        (2, 2, 40, 3),
        (8, 4, 256, 6),
        (3, 3, 100, 7),
        (2, 1, 30, 4),
    ] {
        let topo = Topology::new(TopologyShape::new(racks, npr), devices);
        let svc = striped_service_assignment(&topo, devices, n_services);
        for node in 0..topo.shape().nodes() {
            let node_devs = topo.devices_in_node(node).len();
            let bound = node_devs.div_ceil(n_services);
            for s in 0..n_services {
                let c = topo.devices_in_node(node).filter(|&d| svc[d] == s).count();
                assert!(
                    c <= bound,
                    "{racks}x{npr}/{devices}dev/{n_services}svc: node {node} \
                     holds {c} replicas of service {s} (bound {bound})"
                );
            }
        }
    }
}

#[test]
fn node_striping_preserves_the_golden_layouts() {
    // The fix must not disturb the layouts the recorded goldens ran
    // on: at the default-scale shapes the node-aware key picks the
    // same assignment the rack-only key did.
    for (racks, npr, devices, n_services) in [(4, 2, 12, 6), (4, 2, 6, 6), (2, 2, 10, 6)] {
        let topo = Topology::new(TopologyShape::new(racks, npr), devices);
        assert_eq!(
            striped_service_assignment(&topo, devices, n_services),
            rack_only_assignment(&topo, devices, n_services),
            "{racks}x{npr}/{devices}dev/{n_services}svc layout changed"
        );
    }
}

/// Kills both replicas of one service (flat layout: devices d and
/// d + n_services) with a shared rack-tagged incident, with and
/// without a standby pool.
fn rack_blast_run(pool: usize) -> ExperimentResult {
    use resilience::{FaultDomain, FaultEvent, StandbyPolicy};
    let n = Zoo::standard().services().len();
    let mut cfg = ClusterConfig::tiny(SystemKind::Random, 53);
    cfg.devices = n + 1;
    // The profile carries the pool so the engine seeds it at
    // construction; the generated schedule is replaced below with
    // the hand-built blast.
    let mut profile = FaultProfile::scaled(1.0);
    profile.recovery.standby = StandbyPolicy::warm(pool);
    cfg.faults = Some(profile);
    // A repair interval short enough that the repairs land before
    // the last job completes (the run ends with the final job).
    let at = SimTime::from_secs(600.0);
    let repair = SimDuration::from_mins(6.0);
    let schedule = FaultSchedule::from_events(
        [0usize, n]
            .into_iter()
            .map(|d| FaultEvent {
                at,
                device: d,
                kind: FaultKind::DeviceFailure { repair },
                domain: FaultDomain::Rack(0),
            })
            .collect(),
    );
    run_traced(ClusterSession::with_fault_schedule(cfg, 0.002, schedule)).0
}

#[test]
fn standby_promotes_when_the_blast_leaves_no_survivor() {
    let with_pool = rack_blast_run(1);
    let without = rack_blast_run(0);

    // Pool path: the service's only hope is the standby — it must
    // have been promoted, served traffic, and bounded the failover
    // latency at the shadow-switch cost.
    assert!(with_pool.faults.standby_slots >= 1);
    assert!(
        with_pool.faults.standby_promotions >= 1,
        "no standby promoted"
    );
    assert!(with_pool.faults.standby_served_requests > 0.0);
    assert!(with_pool.faults.standby_reserved_gpu_secs > 0.0);
    assert!(
        with_pool
            .faults
            .failover_latency_secs
            .contains(&gpu_sim::SHADOW_SWITCH_SECS),
        "promote latency sample missing: {:?}",
        with_pool.faults.failover_latency_secs
    );
    // The standby drains back to idle at repair, and the repaired
    // slot-holders rejoin the pool.
    assert!(with_pool.faults.standby_reseeds >= 1);

    // Against the pool-0 baseline on the identical schedule: less
    // outage time and fewer dropped requests.
    assert!(without.faults.service_outage_secs > 0.0);
    assert!(
        with_pool.faults.service_outage_secs < without.faults.service_outage_secs,
        "pool {} vs baseline {}",
        with_pool.faults.service_outage_secs,
        without.faults.service_outage_secs
    );
    assert!(
        with_pool.faults.dropped_requests < without.faults.dropped_requests,
        "pool {} vs baseline {}",
        with_pool.faults.dropped_requests,
        without.faults.dropped_requests
    );
    // The baseline's failover ledger shows the unbounded path: the
    // doomed replica's sample is the full repair interval.
    assert!(without
        .faults
        .failover_latency_secs
        .contains(&SimDuration::from_mins(6.0).as_secs()));
    assert!(
        without.faults.failover_latency_p99() >= with_pool.faults.failover_latency_p99(),
        "pool must not lengthen the failover tail"
    );
}

/// With two standbys per service, two promoted standbys can cover both
/// replicas of one service at once. When one host dies the other still
/// serves the service, so no total outage opens.
#[test]
fn a_second_active_standby_keeps_the_service_out_of_outage() {
    use resilience::StandbyPolicy;
    let n = Zoo::standard().services().len();
    // Rates low enough that the generated schedule stays empty: every
    // fault below is injected by hand.
    let mut profile = FaultProfile::scaled(1e-6);
    profile.recovery.standby = StandbyPolicy::warm(2);
    let mut cfg = ClusterConfig::tiny(SystemKind::Random, 53).with_faults(profile);
    cfg.devices = 2 * n;
    let mut s = ClusterSession::new_scaled(cfg, 0.002);
    assert!(s.state_mut().0.fault_schedule.events().is_empty());
    let at = |s: &mut ClusterSession, secs: f64, fail: usize, repair_secs: f64| {
        s.step_until(s.now() + SimDuration::from_secs(secs));
        s.inject_fault(fail, LiveFault::DeviceFailure { repair_secs })
            .expect("finite fault");
    };
    // The flat layout puts service 0's replicas on devices 0 and n. 0
    // fails over to n; n then has no survivor and a standby covers it.
    // 0 is repaired and fails again: the second standby covers it.
    at(&mut s, 600.0, 0, 60.0);
    at(&mut s, 0.0, n, 3600.0);
    at(&mut s, 120.0, 0, 3600.0);
    s.step_until(s.now() + SimDuration::from_secs(10.0));
    let (st, _) = s.state_mut();
    let hosts = [0, n].map(|d| st.dstate[d].standby_host.expect("standby covers it"));
    assert_ne!(hosts[0], hosts[1]);
    assert_eq!(s.fault_metrics().service_outages, 0);

    // The host covering n dies; the one covering 0 still serves.
    at(&mut s, 0.0, hosts[1], 3600.0);
    assert_eq!(s.fault_metrics().service_outages, 0);
    let report = s.service_report();
    assert_eq!((report[0].replicas_up, report[0].in_outage), (0, false));
}

/// A failure with no survivor, covered by a warm standby until its
/// repair: the faults stage publishes the promote, the repair and the
/// demote, each naming the standby's host and the covered device.
#[test]
fn standby_cover_and_repair_publish_their_device_events() {
    use resilience::StandbyPolicy;
    use simcore::{SimEvent, TraceConfig};
    // One replica per service: device 0's service has no survivor.
    let n = Zoo::standard().services().len();
    let mut profile = FaultProfile::scaled(1e-6);
    profile.recovery.standby = StandbyPolicy::warm(1);
    let mut cfg = ClusterConfig::tiny(SystemKind::Random, 53).with_faults(profile);
    cfg.devices = n;
    let mut s = ClusterSession::new_scaled(cfg, 0.002);
    s.step_until(SimTime::from_secs(600.0));
    s.set_trace_config(TraceConfig::enabled());
    s.inject_fault(0, LiveFault::DeviceFailure { repair_secs: 120.0 })
        .expect("finite fault");
    s.step_until(SimTime::from_secs(660.0));
    let host = s.state_mut().0.dstate[0]
        .standby_host
        .expect("a standby covers device 0");
    assert_ne!(host, 0);
    s.step_until(SimTime::from_secs(760.0));
    let (events, missed) = s.trace_events_since(0);
    assert_eq!(missed, 0);
    let device_events: Vec<SimEvent> = events
        .into_iter()
        .map(|te| te.event)
        .filter(|e| {
            matches!(
                e,
                SimEvent::StandbyPromoted { .. }
                    | SimEvent::DeviceRepaired { .. }
                    | SimEvent::StandbyDemoted { .. }
            )
        })
        .collect();
    assert_eq!(
        device_events,
        vec![
            SimEvent::StandbyPromoted { host, covered: 0 },
            SimEvent::DeviceRepaired { device: 0 },
            SimEvent::StandbyDemoted { host, covered: 0 },
        ]
    );
}

#[test]
fn load_multiplier_raises_violations_for_adaptive_system() {
    // Note: the Random baseline's *fixed* batch 64 means higher QPS
    // can actually shrink its batch-fill wait and reduce violations;
    // the monotonicity claim of Fig. 15 is about adaptive systems,
    // so test it on GSLICE (adaptive batch, feedback partitioning).
    let run = |mult: f64| {
        let mut cfg = ClusterConfig::tiny(SystemKind::Gslice, 5);
        cfg.jobs = 10;
        cfg.load_multiplier = mult;
        end_to_end(cfg, 0.002)
    };
    let base = run(1.0);
    let heavy = run(4.0);
    assert!(
        heavy.overall_violation_rate() >= base.overall_violation_rate(),
        "heavy {} vs base {}",
        heavy.overall_violation_rate(),
        base.overall_violation_rate()
    );
}

/// A sharded session fits its predictor once: every lane's system
/// shares the one trained fit instead of profiling and training its own.
#[test]
fn sharded_session_trains_the_predictor_once() {
    for system in [SystemKind::Mudi, SystemKind::MuxFlow, SystemKind::Gpulets] {
        let mut cfg = ClusterConfig::tiny(system, 5);
        cfg.topology = TopologyShape::new(8, 2);
        cfg.devices = 16;
        cfg.shards = 8;
        let st = SimState::new(cfg);
        assert_eq!(st.lanes.len(), 8, "{system:?}");
        let first = lane_fit(&st.lanes[0]);
        for lane in &st.lanes {
            assert!(Arc::ptr_eq(first, lane_fit(lane)), "{system:?}");
        }
        assert_eq!(Arc::strong_count(first), st.lanes.len());
    }
}

fn lane_fit(lane: &state::LaneBox) -> &Arc<mudi::InterferenceFit> {
    lane.system
        .predictor()
        .expect("system predicts interference")
        .fit()
}

// ---------------------------------------------------------------------
// The one-pass SLO report against the report it replaced.
// ---------------------------------------------------------------------

/// The SLO report as it was computed before the one-pass rewrite, kept
/// as the test oracle: accrue every device, clone every partial,
/// stable-sort by service id and tree-fold each run, then scan the
/// whole fleet three times per service. Returns the folded table and
/// `(id, assigned, up, requests, violations, in_outage)` per service.
#[allow(clippy::type_complexity)]
fn reference_report(
    st: &mut SimState,
    now: SimTime,
) -> (
    crate::metrics::ServiceTable,
    Vec<(ServiceId, usize, usize, f64, f64, bool)>,
) {
    use crate::metrics::{ServiceMetrics, ServiceTable};
    for d in 0..st.devices.len() {
        control::Control.accrue(st, now, d);
    }
    let mut pairs: Vec<(ServiceId, ServiceMetrics)> = Vec::new();
    for ds in &st.dstate {
        for (id, m) in ds.acc.svc.iter() {
            pairs.push((id, m.clone()));
        }
    }
    pairs.sort_by_key(|p| p.0 .0);
    let mut table = ServiceTable::new(st.shared.gt.zoo().services().len());
    for run in pairs.chunk_by(|a, b| a.0 == b.0) {
        let group = run.iter().map(|p| p.1.clone());
        if let Some(merged) = simcore::tree_fold(group, |mut a, b| {
            a.merge(&b);
            a
        }) {
            *table.entry(run[0].0) = merged;
        }
    }
    let n = st.devices.len();
    let mut rows = Vec::new();
    for spec in st.shared.gt.zoo().services() {
        let id = spec.id;
        let assigned = (0..n).filter(|&d| st.dstate[d].service == id).count();
        let up = (0..n)
            .filter(|&d| st.devices[d].is_up() && st.dstate[d].service == id)
            .count();
        let covered = (0..n).any(|h| {
            st.devices[h].is_up()
                && st.devices[h]
                    .standby()
                    .is_some_and(|s| s.service == id && s.is_active())
        });
        let (requests, violations) = table
            .get(id)
            .map_or((0.0, 0.0), |m| (m.requests, m.violations));
        rows.push((
            id,
            assigned,
            up,
            requests,
            violations,
            assigned > 0 && up == 0 && !covered,
        ));
    }
    (table, rows)
}

/// Asserts the roster lists, per service, exactly the devices a fleet
/// scan finds pinned to it or holding a standby slot for it, and that
/// every standby covers its host's slot service.
fn assert_roster_matches_scan(st: &SimState) {
    let ds = &st.dstate;
    for id in (0..st.shared.gt.zoo().services().len()).map(ServiceId) {
        let scan: Vec<usize> = (0..ds.len())
            .filter(|&d| ds[d].service == id || ds[d].standby_slot == Some(id))
            .collect();
        assert_eq!(st.roster.of(id), &scan[..], "service {}", id.0);
    }
    for (dev, d) in st.devices.iter().zip(ds) {
        assert!(dev
            .standby()
            .is_none_or(|sb| d.standby_slot == Some(sb.service)));
    }
}

/// Asserts two folded tables agree bit for bit on every field.
pub(super) fn assert_tables_bit_equal(
    got: &crate::metrics::ServiceTable,
    want: &crate::metrics::ServiceTable,
    n: usize,
) {
    for i in 0..n {
        let id = ServiceId(i);
        match (got.get(id), want.get(id)) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                let bits = |m: &crate::metrics::ServiceMetrics| {
                    [
                        m.requests,
                        m.violations,
                        m.tokens,
                        m.itl_violations,
                        m.ttft_violations,
                        m.p99_stats.mean(),
                        m.p99_stats.variance(),
                    ]
                    .map(f64::to_bits)
                };
                assert_eq!(bits(g), bits(w), "service {i}");
                assert_eq!(g.p99_stats.count(), w.p99_stats.count(), "service {i}");
            }
            (g, w) => panic!("service {i}: entry {} vs {}", g.is_some(), w.is_some()),
        }
    }
}

/// A random live-session op for the report comparison.
#[derive(Clone, Copy, Debug)]
enum ReportOp {
    Step(f64),
    Deploy(usize, usize),
    Scale(usize, usize),
    Slowdown(usize, f64, f64),
    Fail(usize, f64),
    Report,
}

fn random_report_op(rng: &mut simcore::SimRng) -> ReportOp {
    match rng.uniform_usize(0, 8) {
        0..=2 => ReportOp::Step(rng.uniform(1.0, 600.0)),
        3 => ReportOp::Deploy(rng.u64() as usize, rng.u64() as usize),
        4 => ReportOp::Scale(rng.u64() as usize, rng.uniform_usize(0, 4)),
        5 => ReportOp::Slowdown(
            rng.u64() as usize,
            rng.uniform(0.2, 0.9),
            rng.uniform(30.0, 600.0),
        ),
        6 => ReportOp::Fail(rng.u64() as usize, rng.uniform(60.0, 900.0)),
        _ => ReportOp::Report,
    }
}

fn apply_report_op(s: &mut ClusterSession, clock: &mut f64, op: ReportOp) {
    let services: Vec<ServiceId> = s.zoo().services().iter().map(|sp| sp.id).collect();
    let n = s.device_count();
    match op {
        ReportOp::Step(dt) => {
            *clock += dt;
            s.step_until(SimTime::from_secs(*clock));
        }
        ReportOp::Deploy(d, svc) => {
            let _ = s.deploy_replica(d % n, services[svc % services.len()]);
        }
        ReportOp::Scale(svc, target) => {
            let _ = s.scale_service(services[svc % services.len()], target);
        }
        ReportOp::Slowdown(d, factor, duration_secs) => {
            let fault = LiveFault::Slowdown {
                factor,
                duration_secs,
            };
            s.inject_fault(d % n, fault).expect("finite fault");
        }
        ReportOp::Fail(d, repair_secs) => {
            s.inject_fault(d % n, LiveFault::DeviceFailure { repair_secs })
                .expect("finite fault");
        }
        ReportOp::Report => {}
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// `service_report` (one pass: accrue, fold, count per device; the
    /// outage flag from `service_down`) and `fold_services` agree bit
    /// for bit with the clone-sort-regroup fold and the per-service
    /// fleet scans they replaced, over random step / deploy / scale / slowdown / failure
    /// sequences on a fleet with warm standbys, at 1 and 4 shards.
    /// After every op the roster equals a fleet scan. The reference
    /// runs right after each report at the same instant, so its accrual
    /// is a no-op and it folds the partials as they stand once every
    /// device is accrued: if accruing a later device could touch a
    /// partial the one pass had already folded, the two would differ.
    #[test]
    fn one_pass_report_matches_the_scan_and_sort_reference(
        seed in 0u64..1_000_000,
        opseed in proptest::prelude::any::<u64>(),
        len in 4usize..14,
    ) {
        use resilience::StandbyPolicy;
        let ops: Vec<ReportOp> = {
            let mut rng = simcore::SimRng::seed(opseed);
            let mut ops: Vec<ReportOp> = (0..len).map(|_| random_report_op(&mut rng)).collect();
            ops.push(ReportOp::Step(300.0));
            ops.push(ReportOp::Report);
            ops
        };
        for shards in [1, 4] {
            let mut profile = FaultProfile::scaled(50.0);
            profile.recovery.standby = StandbyPolicy::warm(1);
            let mut cfg = ClusterConfig::tiny(SystemKind::Mudi, seed).with_faults(profile);
            cfg.topology = TopologyShape::new(4, 2);
            cfg.devices = 16;
            cfg.jobs = 8;
            cfg.shards = shards;
            cfg.shard_epoch_secs = 30.0;
            let mut s = ClusterSession::new_scaled(cfg, 0.002);
            let mut clock = 0.0;
            for &op in &ops {
                apply_report_op(&mut s, &mut clock, op);
                let (st, _) = s.state_mut();
                assert_roster_matches_scan(st);
                if !matches!(op, ReportOp::Report) {
                    continue;
                }
                let rows = s.service_report();
                let (st, now) = s.state_mut();
                let (want_table, want) = reference_report(st, now);
                assert_tables_bit_equal(&st.fold_services(), &want_table, want.len());
                let got: Vec<_> = rows
                    .iter()
                    .map(|r| (
                        r.id,
                        r.replicas_assigned,
                        r.replicas_up,
                        r.requests.to_bits(),
                        r.violations.to_bits(),
                        r.in_outage,
                    ))
                    .collect();
                let want: Vec<_> = want
                    .into_iter()
                    .map(|(id, a, u, req, viol, out)| (id, a, u, req.to_bits(), viol.to_bits(), out))
                    .collect();
                proptest::prop_assert_eq!(got, want, "shards {} op {:?}", shards, op);
            }
        }
    }
}

/// The standby-host pick as first written: a fresh min over every
/// eligible host, recounting the host's rack for each.
fn brute_force_standby_hosts(
    topo: &Topology,
    primary: &[ServiceId],
    slots: &mut [Option<ServiceId>],
    svc: ServiceId,
    count: usize,
) -> Vec<usize> {
    let mut hosts = Vec::new();
    for _ in 0..count {
        let host = (0..primary.len())
            .filter(|&h| slots[h].is_none() && primary[h] != svc)
            .min_by_key(|&h| {
                let rack = topo.devices_in_rack(topo.rack_of(h));
                let primaries = rack.clone().filter(|&d| primary[d] == svc).count();
                let standbys = rack.filter(|&d| slots[d] == Some(svc)).count();
                (primaries, standbys, h)
            });
        let Some(h) = host else { break };
        slots[h] = Some(svc);
        hosts.push(h);
    }
    hosts
}

proptest::proptest! {
    /// The per-rack-count standby pick chooses the same hosts, in the
    /// same order, as the brute-force pick, on random topologies,
    /// primary assignments and pre-placed slots, seeding every service
    /// in turn as construction does.
    #[test]
    fn standby_hosts_match_the_brute_force_pick(
        seed in proptest::prelude::any::<u64>(),
        racks in 1usize..6,
        nodes in 1usize..4,
        devices in 1usize..64,
        n_services in 1usize..6,
        count in 0usize..6,
    ) {
        let mut rng = simcore::SimRng::seed(seed);
        let topo = Topology::new(TopologyShape::new(racks, nodes), devices);
        let primary: Vec<ServiceId> = (0..devices)
            .map(|_| ServiceId(rng.uniform_usize(0, n_services)))
            .collect();
        let mut slots: Vec<Option<ServiceId>> = (0..devices)
            .map(|_| rng.chance(0.2).then(|| ServiceId(rng.uniform_usize(0, n_services))))
            .collect();
        let mut reference = slots.clone();
        for s in 0..n_services {
            let got = state::standby_hosts(&topo, &primary, &mut slots, ServiceId(s), count);
            let want =
                brute_force_standby_hosts(&topo, &primary, &mut reference, ServiceId(s), count);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(&slots, &reference);
        }
    }
}
