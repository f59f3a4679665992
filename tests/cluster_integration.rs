//! Cross-crate integration tests: end-to-end cluster runs across the
//! systems under test, checking the invariants the paper's evaluation
//! rests on.

use cluster::engine::{ClusterConfig, ClusterSession};
use cluster::experiments::end_to_end;
use cluster::systems::SystemKind;

fn tiny(system: SystemKind, seed: u64, jobs: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::tiny(system, seed);
    cfg.jobs = jobs;
    cfg
}

/// Every system must drain the queue: all submitted jobs complete.
#[test]
fn every_system_completes_all_jobs() {
    for system in [
        SystemKind::Mudi,
        SystemKind::MudiMore,
        SystemKind::MudiClusterOnly,
        SystemKind::MudiDeviceOnly,
        SystemKind::Gslice,
        SystemKind::Gpulets,
        SystemKind::MuxFlow,
        SystemKind::Random,
        SystemKind::Optimal,
    ] {
        let r = end_to_end(tiny(system, 31, 12), 0.002);
        assert_eq!(
            r.jobs_completed,
            r.jobs_submitted,
            "{} left jobs unfinished",
            system.name()
        );
        assert!(r.makespan_secs > 0.0);
        assert!(r.overall_violation_rate() <= 1.0);
    }
}

/// The headline ordering at reduced scale: Mudi's violation rate is no
/// worse than the heuristic baselines', and it trains faster than
/// GSLICE (Fig. 8/9 shapes).
#[test]
fn mudi_beats_baselines_on_both_axes() {
    let run = |system| end_to_end(tiny(system, 71, 24), 0.004);
    let mudi = run(SystemKind::Mudi);
    let gslice = run(SystemKind::Gslice);
    let muxflow = run(SystemKind::MuxFlow);
    assert!(
        mudi.overall_violation_rate() <= muxflow.overall_violation_rate(),
        "Mudi {} vs MuxFlow {}",
        mudi.overall_violation_rate(),
        muxflow.overall_violation_rate()
    );
    assert!(
        mudi.ct.mean() < gslice.ct.mean(),
        "Mudi CT {} vs GSLICE CT {}",
        mudi.ct.mean(),
        gslice.ct.mean()
    );
}

/// Conservation: analytic accrual must never report more violations
/// than requests, per service.
#[test]
fn violations_never_exceed_requests() {
    let r = end_to_end(tiny(SystemKind::MuxFlow, 5, 16), 0.002);
    for (svc, m) in &r.services {
        assert!(
            m.violations <= m.requests + 1e-6,
            "service {svc:?}: {} violations of {} requests",
            m.violations,
            m.requests
        );
        assert!(m.requests > 0.0, "service {svc:?} saw no traffic");
    }
}

/// Memory safety across the run: Mudi swaps instead of pausing, so its
/// devices may overflow but jobs still finish; transfer accounting is
/// consistent.
#[test]
fn memory_swapping_accounting_is_consistent() {
    let mut cfg = tiny(SystemKind::Mudi, 17, 10);
    cfg.load_multiplier = 2.0; // Pressure the staging pools.
    let r = end_to_end(cfg, 0.002);
    assert_eq!(r.jobs_completed, r.jobs_submitted);
    for frac in r.swap_time_fraction.values() {
        assert!((0.0..=1.0).contains(frac));
    }
    assert!(r.mean_swap_transfer_secs >= 0.0);
}

/// Utilization invariants: means within [0, 1]; Mudi's SM utilization
/// should exceed the empty-cluster floor once training runs.
#[test]
fn utilization_is_bounded_and_nontrivial() {
    let r = end_to_end(tiny(SystemKind::Mudi, 23, 16), 0.004);
    assert!((0.0..=1.0).contains(&r.mean_sm_util));
    assert!((0.0..=1.0).contains(&r.mean_mem_util));
    assert!(r.mean_sm_util > 0.05, "cluster never did real work");
    for &(_, sm, mem) in &r.util_series {
        assert!((0.0..=1.0).contains(&sm));
        assert!((0.0..=1.0).contains(&mem));
    }
}

/// The burst schedule plumbs through the whole engine.
#[test]
fn burst_schedule_applies_cluster_wide() {
    use workloads::BurstSchedule;
    let mut cfg = tiny(SystemKind::Mudi, 29, 8);
    cfg.burst = Some(BurstSchedule::fig16_burst());
    let r = end_to_end(cfg, 0.002);
    assert_eq!(r.jobs_completed, r.jobs_submitted);
}

/// A rack-scoped blast that swallows *every* replica of one service:
/// failover is enabled but finds no survivor, so the service's traffic
/// must be charged as dropped requests and SLO violations — never
/// silently vanish — and the window must surface in the explicit
/// total-outage accounting with its correlated domain tag.
#[test]
fn rack_blast_with_no_survivors_is_accounted_not_dropped() {
    use resilience::{FaultDomain, FaultEvent, FaultKind, FaultSchedule};
    use simcore::{SimDuration, SimTime};
    use workloads::Zoo;

    // Flat layout (no fault profile in the config, Random system):
    // device d serves service d % n, so service 0's two replicas sit on
    // devices 0 and n. A hand-built Rack(0) incident kills both at once
    // with one shared repair interval.
    let n = Zoo::standard().services().len();
    let mut cfg = tiny(SystemKind::Random, 53, 24);
    cfg.devices = n + 1;
    let at = SimTime::from_secs(600.0);
    let repair = SimDuration::from_mins(30.0);
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
    let mut session = ClusterSession::with_fault_schedule(cfg, 0.002, schedule);
    session.run_to_end();
    let r = session.finish();

    assert_eq!(r.faults.device_failures, 2);
    // The outage is explicit: one total-outage window, tagged with its
    // correlated (rack) domain, open for the shared repair interval.
    assert!(r.faults.service_outages >= 1, "outage window not recorded");
    assert!(
        r.faults.correlated_outages >= 1,
        "rack-domain outage not tagged correlated"
    );
    assert!(
        r.faults.service_outage_secs > 0.0,
        "outage window has no duration"
    );
    assert!(
        r.faults.service_outage_secs <= repair.as_secs() + 1e-6,
        "outage {}s outlived the repair {}s",
        r.faults.service_outage_secs,
        repair.as_secs()
    );
    // Conservation: with every survivor inside the blast radius the
    // traffic is dropped *visibly*, and each dropped request is booked
    // as an SLO violation too.
    assert!(
        r.faults.dropped_requests > 0.0,
        "outage traffic silently vanished"
    );
    let total_viol: f64 = r.services.values().map(|m| m.violations).sum();
    assert!(
        total_viol + 1e-9 >= r.faults.dropped_requests,
        "violations {total_viol} must cover dropped {}",
        r.faults.dropped_requests
    );
}

/// The same no-survivor rack blast with a warm-standby pool: the only
/// thing left serving the service is a standby seeded in another rack
/// (seeding anti-affines standbys away from their service's primaries).
/// The pool must convert the total outage into bounded-latency
/// coverage: a promotion at the shadow-switch cost, traffic served on
/// the reserved slice, and no total-outage window at all.
#[test]
fn rack_blast_survived_only_by_standby_in_another_rack() {
    use gpu_sim::SHADOW_SWITCH_SECS;
    use resilience::{
        FaultDomain, FaultEvent, FaultKind, FaultProfile, FaultSchedule, StandbyPolicy,
    };
    use simcore::{SimDuration, SimTime};
    use workloads::Zoo;

    let n = Zoo::standard().services().len();
    let mut cfg = tiny(SystemKind::Random, 53, 24);
    cfg.devices = n + 1;
    // The pool must ride in on the config's fault profile: seeding
    // happens at engine construction. The generated schedule is then
    // replaced with the hand-built blast.
    let mut profile = FaultProfile::scaled(1.0);
    profile.recovery.standby = StandbyPolicy::warm(1);
    cfg.faults = Some(profile);
    // Short repair so both repairs land before the last job finishes.
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
    let mut session = ClusterSession::with_fault_schedule(cfg, 0.002, schedule);
    session.run_to_end();
    let r = session.finish();

    assert_eq!(r.faults.device_failures, 2);
    assert!(r.faults.standby_slots >= 1, "pool was never seeded");
    assert!(
        r.faults.standby_promotions >= 1,
        "no standby promoted despite a survivor-free blast"
    );
    assert!(
        r.faults.standby_served_requests > 0.0,
        "promoted standby served no traffic"
    );
    // The hand-off is bounded at the shadow-switch latency — orders of
    // magnitude under the repair interval the pool-0 path pays.
    assert!(r.faults.failover_latency_secs.contains(&SHADOW_SWITCH_SECS));
    assert!(
        r.faults.failover_latency_p99() <= SHADOW_SWITCH_SECS + 1e-9,
        "failover p99 {}s not bounded by the promote latency",
        r.faults.failover_latency_p99()
    );
    // Standby coverage suppresses the total-outage window entirely.
    assert_eq!(
        r.faults.service_outages, 0,
        "outage window recorded despite standby coverage"
    );
    assert_eq!(r.faults.service_outage_secs, 0.0);
    // The run's canonical text carries the standby ledger (and so the
    // goldens that include pools will too).
    assert!(r.canonical_text().contains("standby:"));
}
