//! Property-based tests (proptest) on the core data structures and the
//! invariants the system's correctness rests on.

use proptest::prelude::*;

use cluster::engine::{ClusterConfig, ClusterEngine, ClusterSession, LiveFault};
use cluster::systems::SystemKind;
use modeling::fit::piecewise::{fit_piecewise, PiecewiseLinear};
use modeling::solver::{latency_budget, min_gpu_fraction};
use resilience::{CorrelatedFaultConfig, FaultConfig, FaultDomain, FaultProfile, FaultSchedule};
use simcore::{EventQueue, SimRng, SimTime, StreamingStats, Topology, TopologyShape};
use workloads::{ColoWorkload, GroundTruth, ServiceId, TaskId, Zoo};

fn gt() -> GroundTruth {
    GroundTruth::new(Zoo::standard(), 99)
}

proptest! {
    /// The event queue pops in non-decreasing time order regardless of
    /// the schedule order.
    #[test]
    fn event_queue_is_time_ordered(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_secs(t), i);
        }
        let mut last = 0.0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t.as_secs() >= last);
            last = t.as_secs();
        }
    }

    /// Welford statistics match the naive two-pass computation.
    #[test]
    fn streaming_stats_match_naive(xs in proptest::collection::vec(-1e4f64..1e4, 2..300)) {
        let mut s = StreamingStats::new();
        xs.iter().for_each(|&x| s.record(x));
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var));
    }

    /// A fitted piece-wise curve reproduces noiseless piece-wise data
    /// to within a tight tolerance at the sample points.
    #[test]
    fn piecewise_fit_reproduces_noiseless_data(
        k1 in -5.0f64..-0.5,
        k2 in -0.05f64..-0.001,
        x0 in 0.25f64..0.75,
        y0 in 0.01f64..1.0,
    ) {
        let truth = PiecewiseLinear { k1, k2, x0, y0 };
        let pts: Vec<(f64, f64)> = (0..9)
            .map(|i| {
                let x = 0.1 + i as f64 * 0.1;
                (x, truth.eval(x))
            })
            .collect();
        let fit = fit_piecewise(&pts).expect("nine points");
        // The knee quantizes to the sample grid, so individual points
        // near it carry an irreducible error (the same effect behind
        // the paper's Tab. 2 percentages); bound the *mean* error
        // relative to the curve's range, plus a loose pointwise cap.
        let range = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max)
            - pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let mut total = 0.0;
        for &(x, y) in &pts {
            let err = (fit.eval(x) - y).abs() / range.max(1e-9);
            prop_assert!(err < 0.30, "range-relative err {err} at {x}");
            total += err;
        }
        let mean_err = total / pts.len() as f64;
        prop_assert!(mean_err < 0.08, "mean err {mean_err}");
    }

    /// Eq. 4 solutions always satisfy the constraint they were solved
    /// for, and tightening the SLO never shrinks the required fraction.
    #[test]
    fn solver_solutions_meet_their_budget(
        k1 in -3.0f64..-0.2,
        x0 in 0.2f64..0.8,
        y0 in 0.005f64..0.3,
        qps in 50.0f64..1000.0,
        batch in 2u32..512,
        slo in 0.05f64..2.0,
    ) {
        let curve = PiecewiseLinear { k1, k2: k1 / 50.0, x0, y0 };
        if let Some(frac) = min_gpu_fraction(&curve, qps, batch as f64, slo, 0.05, 0.9) {
            let budget = latency_budget(qps, batch as f64, slo);
            prop_assert!(curve.eval(frac) <= budget + 1e-9,
                "eval {} vs budget {budget}", curve.eval(frac));
            // A 2x tighter SLO can only demand at least as much GPU.
            if let Some(tight) = min_gpu_fraction(&curve, qps, batch as f64, slo / 2.0, 0.05, 0.9) {
                prop_assert!(tight >= frac - 1e-9);
            }
        }
    }

    /// Ground-truth monotonicity: more GPU never increases inference
    /// latency; adding a co-runner never decreases it.
    #[test]
    fn ground_truth_latency_is_monotone(
        svc in 0usize..6,
        task in 0usize..9,
        batch in prop::sample::select(vec![2u32, 8, 32, 128, 512]),
        lo_pct in 1u32..8,
    ) {
        let g = gt();
        let sid = ServiceId(svc);
        let tid = TaskId(task);
        let lo = lo_pct as f64 * 0.1;
        let hi = lo + 0.1;
        let colo = [ColoWorkload::training(tid, 0.4)];
        prop_assert!(
            g.inference_latency(sid, batch, lo, &colo)
                >= g.inference_latency(sid, batch, hi, &colo)
        );
        prop_assert!(
            g.inference_latency(sid, batch, lo, &colo) >= g.inference_latency(sid, batch, lo, &[])
        );
    }

    /// Training iteration time decreases with GPU share and increases
    /// with co-runner count.
    #[test]
    fn training_time_is_monotone(
        task in 0usize..9,
        share_pct in 2u32..9,
    ) {
        let g = gt();
        let tid = TaskId(task);
        let share = share_pct as f64 * 0.1;
        prop_assert!(
            g.training_iteration(tid, share, &[]) > g.training_iteration(tid, share + 0.1, &[])
        );
        let other = ColoWorkload::training(TaskId((task + 1) % 9), 0.3);
        prop_assert!(
            g.training_iteration(tid, share, &[other]) >= g.training_iteration(tid, share, &[])
        );
    }

    /// Unified-memory conservation: device-resident plus swapped bytes
    /// always equal total demand, and swapped never exceeds the
    /// training demand (inference never swaps).
    #[test]
    fn memory_manager_conserves_bytes(
        inf_gb in 0.0f64..60.0,
        t1 in 0.0f64..30.0,
        t2 in 0.0f64..30.0,
        shrink in 0.0f64..1.0,
    ) {
        use gpu_sim::{MemoryManager, ResidentId};
        let mut m = MemoryManager::new(40.0);
        m.add_training(SimTime::from_secs(0.0), ResidentId(1), t1);
        m.add_training(SimTime::from_secs(1.0), ResidentId(2), t2);
        m.set_inference_demand(SimTime::from_secs(2.0), inf_gb);
        prop_assert!((m.device_resident_gb() + m.total_swapped_gb() - m.total_demand_gb()).abs() < 1e-9);
        prop_assert!(m.total_swapped_gb() <= t1 + t2 + 1e-9);
        prop_assert!(m.device_resident_gb() <= 40.0 + inf_gb.max(0.0));
        // Shrinking the inference demand can only reduce swapping.
        let before = m.total_swapped_gb();
        m.set_inference_demand(SimTime::from_secs(3.0), inf_gb * shrink);
        prop_assert!(m.total_swapped_gb() <= before + 1e-9);
        prop_assert!((m.device_resident_gb() + m.total_swapped_gb() - m.total_demand_gb()).abs() < 1e-9);
    }

    /// Layer-list parsing is total over printable inputs: it either
    /// returns an architecture whose total equals the sum of parsed
    /// counts, or a structured error — never a panic.
    #[test]
    fn layer_list_parse_is_total(
        names in proptest::collection::vec("[a-z]{1,10}", 0..10),
        counts in proptest::collection::vec(1u32..50, 0..10),
    ) {
        use workloads::NetworkArchitecture;
        let text: String = names
            .iter()
            .zip(counts.iter().chain(std::iter::repeat(&1)))
            .map(|(n, c)| format!("{n} x {c}\n"))
            .collect();
        if let Ok(arch) = NetworkArchitecture::parse_layer_list(&text) {
            let expected: u32 = names
                .iter()
                .zip(counts.iter().chain(std::iter::repeat(&1)))
                .map(|(_, &c)| c)
                .sum();
            prop_assert_eq!(arch.total_layers(), expected);
        }
    }

    /// Standby GPU% conservation: on one device, the inference
    /// fraction plus the standby reserve plus the rebalanced training
    /// total never exceeds 100% (beyond the documented per-task 1%
    /// floor) — whether the standby is idle or promoted.
    #[test]
    fn standby_reserve_conserves_device_gpu(
        inf_pct in 1u32..9,
        reserve_pct in 1u32..4,
        n_train in 1usize..4,
        cap_pct in 2u32..11,
        qps in 1.0f64..500.0,
    ) {
        use gpu_sim::{
            DeviceId, GpuDevice, InferenceInstance, ResidentId, StandbyInstance, TrainingProcess,
        };
        let g = gt();
        let t0 = SimTime::from_secs(0.0);
        let mut dev = GpuDevice::new(DeviceId(0), 40.0);
        let reserve = reserve_pct as f64 * 0.1;
        dev.seed_standby(&g, t0, StandbyInstance::new(ServiceId(0), 16, reserve));
        // The engine caps the primary's slice at 1 - reserve; mirror it.
        let inf = (inf_pct as f64 * 0.1).min(1.0 - reserve).max(0.01);
        dev.deploy_inference(&g, t0, InferenceInstance::new(ServiceId(1), 16, inf, qps));
        for i in 0..n_train {
            dev.add_training(
                &g,
                t0,
                TrainingProcess::new(ResidentId(i as u64), TaskId(i), 0.2, 1000),
            )
            .expect("free training slot");
        }
        let cap = (cap_pct as f64 * 0.1).min(1.0);
        let floor = 0.01 * n_train as f64;
        let total = |dev: &GpuDevice| -> f64 {
            inf + dev.standby_reserve()
                + dev.trainings().iter().map(|t| t.gpu_fraction).sum::<f64>()
        };
        dev.rebalance_training_fractions(cap);
        prop_assert!(total(&dev) <= 1.0 + floor + 1e-9, "idle total {}", total(&dev));
        // Promotion serves on the reserved slice — it never grows it.
        dev.promote_standby(&g, SimTime::from_secs(1.0), qps);
        prop_assert!(dev.standby_reserve() <= reserve + 1e-12);
        dev.rebalance_training_fractions(cap);
        prop_assert!(total(&dev) <= 1.0 + floor + 1e-9, "active total {}", total(&dev));
        // And demotion hands the same slice back to the idle pool.
        dev.demote_standby(&g, SimTime::from_secs(2.0));
        prop_assert!((dev.standby_reserve() - reserve).abs() < 1e-12);
        prop_assert!(!dev.standby().expect("still parked").is_active());
    }

    /// Fork determinism: the same (seed, label) always yields the same
    /// stream; drawing from the parent never disturbs children.
    #[test]
    fn rng_forks_are_stable(seed in any::<u64>(), draws in 0usize..20) {
        let mut parent = SimRng::seed(seed);
        for _ in 0..draws {
            let _ = parent.u64();
        }
        let a = parent.fork("child").u64();
        let b = SimRng::seed(seed).fork("child").u64();
        prop_assert_eq!(a, b);
    }

    /// Fault schedules replay bit-for-bit from a seed: same seed, rate,
    /// and device count produce the identical event sequence, and every
    /// event is well-formed (in-horizon, valid device, sane magnitudes).
    #[test]
    fn fault_schedule_replays_bit_for_bit(
        seed in any::<u64>(),
        rate in 10.0f64..400.0,
        devices in 1usize..24,
    ) {
        let cfg = FaultConfig::scaled(rate);
        let horizon = 200_000.0;
        let a = FaultSchedule::generate(&cfg, devices, horizon, &SimRng::seed(seed));
        let b = FaultSchedule::generate(&cfg, devices, horizon, &SimRng::seed(seed));
        prop_assert_eq!(a.events(), b.events());
        for w in a.events().windows(2) {
            prop_assert!(w[0].at.as_secs() <= w[1].at.as_secs());
        }
        for e in a.events() {
            prop_assert!(e.at.as_secs() >= 0.0 && e.at.as_secs() < horizon);
            prop_assert!(e.device < devices);
            if let resilience::FaultKind::Slowdown { factor, duration } = e.kind {
                prop_assert!(factor > 0.0 && factor < 1.0);
                prop_assert!(duration.as_secs() > 0.0);
            }
        }
    }

    /// Correlated schedules replay bit-for-bit from a seed, every
    /// blast radius is contained within its declared fault domain, and
    /// turning correlated classes on never perturbs the device-local
    /// draws (the Device-tagged subsequence equals the plain schedule).
    #[test]
    fn correlated_schedule_replays_and_contains_blast_radius(
        seed in any::<u64>(),
        rate in 50.0f64..600.0,
        racks in 1usize..5,
        nodes_per_rack in 1usize..4,
        devices in 2usize..24,
    ) {
        let shape = TopologyShape { racks, nodes_per_rack };
        let topo = Topology::new(shape, devices);
        let cfg = FaultConfig::scaled(rate);
        let corr = CorrelatedFaultConfig::scaled(rate);
        let horizon = 200_000.0;
        let gen = || {
            FaultSchedule::generate_with_topology(
                &cfg, Some(&corr), &topo, horizon, &SimRng::seed(seed),
            )
        };
        let (a, b) = (gen(), gen());
        prop_assert_eq!(a.events(), b.events());
        // Blast-radius containment: a Node(n)/Rack(r) event may only
        // strike a device that the topology places in that domain.
        for e in a.events() {
            match e.domain {
                FaultDomain::Device => {}
                FaultDomain::Node(n) => {
                    prop_assert!(topo.devices_in_node(n).contains(&e.device),
                        "node {n} event hit device {} outside {:?}",
                        e.device, topo.devices_in_node(n));
                    prop_assert_eq!(topo.node_of(e.device), n);
                }
                FaultDomain::Rack(r) => {
                    prop_assert!(topo.devices_in_rack(r).contains(&e.device),
                        "rack {r} event hit device {} outside {:?}",
                        e.device, topo.devices_in_rack(r));
                    prop_assert_eq!(topo.rack_of(e.device), r);
                }
            }
        }
        // Stream isolation: device-local draws are byte-identical to
        // the flat generator for the same seed.
        let flat = FaultSchedule::generate(&cfg, devices, horizon, &SimRng::seed(seed));
        let device_only: Vec<_> = a
            .events()
            .iter()
            .filter(|e| e.domain == FaultDomain::Device)
            .cloned()
            .collect();
        prop_assert_eq!(device_only.as_slice(), flat.events());
    }
}

proptest! {
    // Whole-simulation replays are expensive; a handful of cases is
    // enough to catch nondeterminism sneaking into the fault paths.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end determinism under faults: two engines built from the
    /// same seeded config face the identical fault schedule and produce
    /// identical `ExperimentResult`s.
    #[test]
    fn faulty_experiment_replays_identically(
        seed in 0u64..1_000_000,
        rate in prop::sample::select(vec![25.0f64, 100.0, 250.0]),
    ) {
        let build = || {
            let mut cfg = ClusterConfig::tiny(SystemKind::Random, seed)
                .with_faults(FaultProfile::scaled(rate));
            cfg.devices = 4;
            cfg.jobs = 8;
            ClusterEngine::new(cfg)
        };
        let (ea, eb) = (build(), build());
        prop_assert_eq!(ea.fault_schedule().events(), eb.fault_schedule().events());
        let a = ea.run_scaled(0.002);
        let b = eb.run_scaled(0.002);
        prop_assert_eq!(a.jobs_completed, b.jobs_completed);
        prop_assert_eq!(a.faults.device_failures, b.faults.device_failures);
        prop_assert_eq!(a.faults.slowdowns, b.faults.slowdowns);
        prop_assert_eq!(a.faults.process_crashes, b.faults.process_crashes);
        prop_assert_eq!(a.faults.mps_failures, b.faults.mps_failures);
        prop_assert!((a.makespan_secs - b.makespan_secs).abs() < 1e-9);
        prop_assert!((a.useful_iterations - b.useful_iterations).abs() < 1e-9);
        prop_assert!((a.faults.lost_iterations - b.faults.lost_iterations).abs() < 1e-9);
        prop_assert!((a.faults.dropped_requests - b.faults.dropped_requests).abs() < 1e-9);
        prop_assert!((a.faults.rerouted_requests - b.faults.rerouted_requests).abs() < 1e-9);
        prop_assert!(
            (a.overall_violation_rate() - b.overall_violation_rate()).abs() < 1e-12
        );
    }

    /// End-to-end determinism under *correlated* faults, across system
    /// kinds: the same seeded config replays the identical expanded
    /// schedule and lands on identical results — including the
    /// total-outage accounting — no matter which placement policy runs.
    #[test]
    fn correlated_experiment_replays_identically(
        seed in 0u64..1_000_000,
        rate in prop::sample::select(vec![100.0f64, 400.0]),
        system in prop::sample::select(vec![
            SystemKind::Gslice,
            SystemKind::MudiFlat,
            SystemKind::Mudi,
        ]),
    ) {
        let build = || {
            let mut cfg = ClusterConfig::tiny(system, seed).with_faults(
                FaultProfile::scaled(rate)
                    .with_correlated(CorrelatedFaultConfig::scaled(rate)),
            );
            cfg.devices = 6;
            cfg.jobs = 8;
            ClusterEngine::new(cfg)
        };
        let (ea, eb) = (build(), build());
        prop_assert_eq!(ea.fault_schedule().events(), eb.fault_schedule().events());
        let a = ea.run_scaled(0.002);
        let b = eb.run_scaled(0.002);
        prop_assert_eq!(a.canonical_text(), b.canonical_text());
        prop_assert_eq!(a.faults.service_outages, b.faults.service_outages);
        prop_assert_eq!(a.faults.correlated_outages, b.faults.correlated_outages);
        prop_assert!((a.faults.service_outage_secs - b.faults.service_outage_secs).abs() < 1e-12);
        // Correlated outage windows can only come from correlated
        // service outages.
        prop_assert!(a.faults.correlated_outages <= a.faults.service_outages);
    }

    /// Traffic conservation across standby promote/rejoin: a rack
    /// blast that kills every replica of one service books the blast
    /// window's demand exactly once. With a pool, the standby serves
    /// what the pool-0 run drops — so `dropped + standby_served` must
    /// equal the pool-0 run's `dropped` on the identical schedule.
    #[test]
    fn standby_coverage_conserves_blast_traffic(seed in 0u64..100_000) {
        use resilience::{FaultEvent, FaultKind, FaultProfile, StandbyPolicy};
        use simcore::SimDuration;
        let n = Zoo::standard().services().len();
        let run = |pool: usize| {
            let mut cfg = ClusterConfig::tiny(SystemKind::Random, seed);
            cfg.devices = n + 1; // Flat layout: service 0 on devices 0 and n.
            let mut profile = FaultProfile::scaled(1.0);
            profile.recovery.standby = StandbyPolicy::warm(pool);
            cfg.faults = Some(profile);
            let mut engine = ClusterEngine::new(cfg);
            engine.set_fault_schedule(FaultSchedule::from_events(
                [0usize, n]
                    .into_iter()
                    .map(|d| FaultEvent {
                        at: SimTime::from_secs(300.0),
                        device: d,
                        kind: FaultKind::DeviceFailure {
                            repair: SimDuration::from_mins(4.0),
                        },
                        domain: FaultDomain::Rack(0),
                    })
                    .collect(),
            ));
            engine.run_scaled(0.002)
        };
        let with_pool = run(1);
        let without = run(0);
        // Both runs must outlive the blast window for the books to
        // cover it in full.
        prop_assert!(with_pool.makespan_secs > 540.0 && without.makespan_secs > 540.0);
        prop_assert!(with_pool.faults.standby_served_requests > 0.0);
        let covered =
            with_pool.faults.dropped_requests + with_pool.faults.standby_served_requests;
        let baseline = without.faults.dropped_requests;
        // Exact up to the sub-second promote window the standby cannot
        // cover (and a matching sliver of reroute-ledger rounding).
        let err = (covered - baseline).abs() / baseline.max(1.0);
        prop_assert!(err < 0.01, "covered {covered} vs dropped {baseline} (err {err})");
    }

    /// Pool size 0 is byte-identical to the pre-standby failover path:
    /// `StandbyPolicy::warm(0)` and `StandbyPolicy::disabled()` produce
    /// the same canonical result text, with no standby section in it.
    #[test]
    fn zero_pool_replays_the_plain_failover_path(
        seed in 0u64..1_000_000,
        rate in prop::sample::select(vec![50.0f64, 200.0]),
    ) {
        use resilience::{FaultProfile, StandbyPolicy};
        let run = |standby: StandbyPolicy| {
            let mut profile = FaultProfile::scaled(rate)
                .with_correlated(CorrelatedFaultConfig::scaled(rate));
            profile.recovery.standby = standby;
            let mut cfg = ClusterConfig::tiny(SystemKind::Mudi, seed).with_faults(profile);
            cfg.devices = 6;
            cfg.jobs = 8;
            ClusterEngine::new(cfg).run_scaled(0.002)
        };
        let zero = run(StandbyPolicy::warm(0));
        let disabled = run(StandbyPolicy::disabled());
        prop_assert_eq!(zero.canonical_text(), disabled.canonical_text());
        prop_assert!(!zero.canonical_text().contains("standby:"));
        prop_assert_eq!(zero.faults.standby_slots, 0);
        prop_assert_eq!(zero.faults.standby_promotions, 0);
        prop_assert!(zero.faults.standby_reserved_gpu_secs == 0.0);
    }
}

// ---------------------------------------------------------------------
// Live-session determinism under random command sequences.
// ---------------------------------------------------------------------

/// One random live-session command. Device and service fields are raw
/// draws reduced modulo the session's actual counts at apply time, so
/// generation needs no knowledge of the topology.
#[derive(Clone, Debug)]
enum SessionOp {
    /// Advance the session clock by this many seconds.
    Step(f64),
    /// Deploy a replica of `service` on `device`.
    Deploy { device: usize, service: usize },
    /// Scale `service` to `target` live replicas.
    Scale { service: usize, target: usize },
    /// Inject a live fault on `device`.
    Fault { device: usize, fault: LiveFault },
}

/// Draws one op from a seeded [`SimRng`]; the in-tree proptest shim
/// supplies primitive ranges only, so sequence shape comes from a
/// deterministic generator keyed by a proptest-drawn seed.
fn random_session_op(rng: &mut SimRng) -> SessionOp {
    match rng.uniform_usize(0, 6) {
        // Half the mass on stepping so sequences actually advance time.
        0..=2 => SessionOp::Step(rng.uniform(1.0, 600.0)),
        3 => SessionOp::Deploy {
            device: rng.u64() as usize,
            service: rng.u64() as usize,
        },
        4 => SessionOp::Scale {
            service: rng.u64() as usize,
            target: rng.uniform_usize(0, 4),
        },
        _ => {
            let fault = match rng.uniform_usize(0, 3) {
                0 => LiveFault::DeviceFailure {
                    repair_secs: rng.uniform(60.0, 900.0),
                },
                1 => LiveFault::Slowdown {
                    factor: rng.uniform(0.2, 0.9),
                    duration_secs: rng.uniform(30.0, 600.0),
                },
                2 => LiveFault::ProcessCrash { salt: rng.u64() },
                _ => LiveFault::MpsRestart,
            };
            SessionOp::Fault {
                device: rng.u64() as usize,
                fault,
            }
        }
    }
}

/// Replays `op` against a session; `clock` carries the monotone
/// session horizon. Command errors (busy / down devices) are part of
/// the deterministic outcome, not test failures.
fn apply_session_op(s: &mut ClusterSession, clock: &mut f64, op: &SessionOp) {
    let services: Vec<ServiceId> = s.zoo().services().iter().map(|sp| sp.id).collect();
    match *op {
        SessionOp::Step(dt) => {
            *clock += dt;
            s.step_until(SimTime::from_secs(*clock));
        }
        SessionOp::Deploy { device, service } => {
            let _ = s.deploy_replica(
                device % s.device_count(),
                services[service % services.len()],
            );
        }
        SessionOp::Scale { service, target } => {
            let _ = s.scale_service(services[service % services.len()], target);
        }
        SessionOp::Fault { device, fault } => {
            let _ = s.inject_fault(device % s.device_count(), fault);
        }
    }
}

proptest! {
    // Each case replays two whole live sessions; a handful of random
    // sequences is enough to catch order- or layout-dependent state.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random deploy / scale / fault / step sequence driven through
    /// the dense-index live session is deterministic end to end: two
    /// sessions built from the same seed land on identical
    /// `service_report` rows, identical `fault_metrics`, and a
    /// bit-identical final `ExperimentResult`. Together with the
    /// scripted-session golden (`tests/golden/session_script.txt`,
    /// recorded before the dense-index rewrite) this pins the engine's
    /// observable behavior across the data-layout change.
    #[test]
    fn random_session_sequences_replay_identically(
        seed in 0u64..1_000_000,
        opseed in any::<u64>(),
        len in 1usize..12,
    ) {
        let ops: Vec<SessionOp> = {
            let mut rng = SimRng::seed(opseed);
            (0..len).map(|_| random_session_op(&mut rng)).collect()
        };
        let build = || {
            let mut cfg = ClusterConfig::tiny(SystemKind::Mudi, seed);
            cfg.devices = 4;
            cfg.jobs = 8;
            ClusterSession::new_scaled(cfg, 0.002)
        };
        let (mut sa, mut sb) = (build(), build());
        let (mut ta, mut tb) = (0.0, 0.0);
        for op in &ops {
            apply_session_op(&mut sa, &mut ta, op);
            apply_session_op(&mut sb, &mut tb, op);
        }
        prop_assert_eq!(sa.events_fired(), sb.events_fired());
        prop_assert_eq!(sa.service_report(), sb.service_report());
        let (fa, fb) = (sa.fault_metrics(), sb.fault_metrics());
        prop_assert_eq!(format!("{fa:?}"), format!("{fb:?}"));
        prop_assert_eq!(sa.finish().canonical_text(), sb.finish().canonical_text());
    }

    /// Shard-count invariance: the same random live-session command
    /// sequence replayed against a 1-shard and a 4-shard session lands
    /// on bit-identical reports and a bit-identical final result. The
    /// sharded engine partitions the event population by rack but
    /// commits in canonical `(time, seq)` order, so the shard count
    /// must be unobservable in every output. (Under `MUDI_SHARDS` both
    /// sides resolve to the same override and the test still holds.)
    #[test]
    fn session_sequences_are_shard_count_invariant(
        seed in 0u64..1_000_000,
        opseed in any::<u64>(),
        len in 1usize..12,
    ) {
        let ops: Vec<SessionOp> = {
            let mut rng = SimRng::seed(opseed);
            (0..len).map(|_| random_session_op(&mut rng)).collect()
        };
        let build = |shards: usize| {
            let mut cfg = ClusterConfig::tiny(SystemKind::Mudi, seed);
            cfg.devices = 4;
            cfg.jobs = 8;
            cfg.shards = shards;
            // Short epochs so even brief sequences cross several
            // speculation barriers.
            cfg.shard_epoch_secs = 30.0;
            ClusterSession::new_scaled(cfg, 0.002)
        };
        let (mut sa, mut sb) = (build(1), build(4));
        let (mut ta, mut tb) = (0.0, 0.0);
        for op in &ops {
            apply_session_op(&mut sa, &mut ta, op);
            apply_session_op(&mut sb, &mut tb, op);
        }
        prop_assert_eq!(sa.events_fired(), sb.events_fired());
        prop_assert_eq!(sa.service_report(), sb.service_report());
        let (fa, fb) = (sa.fault_metrics(), sb.fault_metrics());
        prop_assert_eq!(format!("{fa:?}"), format!("{fb:?}"));
        prop_assert_eq!(sa.finish().canonical_text(), sb.finish().canonical_text());
    }
}

// ---------------------------------------------------------------------
// Generative regime: LLM replay.
// ---------------------------------------------------------------------

proptest! {
    // Each case boots four physical-preset sessions; a few random
    // sequences suffice — the goal is bit-equality, not coverage.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// LLM-mix determinism replay: a random token-inference / step /
    /// fault sequence against a mixed classifier+generative cluster
    /// produces bit-identical per-token verdicts and a bit-identical
    /// final fingerprint when replayed — and the shard count (1 vs 4)
    /// is unobservable in both. (Under `MUDI_SHARDS` both sides
    /// resolve to the same override and the test still holds.)
    #[test]
    fn llm_mix_sessions_replay_shard_invariant(
        seed in 0u64..1_000_000,
        opseed in any::<u64>(),
    ) {
        let build = |shards: usize| {
            let mut cfg = ClusterConfig::physical(SystemKind::Mudi, seed);
            cfg.llm_services = true;
            cfg.jobs = 8;
            cfg.shards = shards;
            cfg.shard_epoch_secs = 30.0;
            ClusterSession::new_scaled(cfg, 0.002)
        };
        let run = |mut s: ClusterSession| -> (String, String) {
            let gen: Vec<ServiceId> = s
                .zoo()
                .services()
                .iter()
                .filter(|sp| sp.is_generative())
                .map(|sp| sp.id)
                .collect();
            assert!(!gen.is_empty(), "LLM mix must deploy generative services");
            let mut rng = SimRng::seed(opseed);
            let mut clock = 0.0;
            let mut transcript = String::new();
            for i in 0..10 {
                clock += rng.uniform(60.0, 900.0);
                s.step_until(SimTime::from_secs(clock));
                let svc = *rng.pick(&gen);
                let tokens = rng.uniform_usize(1, 32) as u32;
                let outcome = s.infer_tokens(svc, tokens);
                transcript.push_str(&format!("{i}: {outcome:?}\n"));
                if rng.chance(0.25) {
                    let device = rng.uniform_usize(0, s.device_count());
                    let _ = s.inject_fault(device, LiveFault::MpsRestart);
                }
            }
            (transcript, s.finish().canonical_text())
        };
        let (ta, fa) = run(build(1));
        let (tb, fb) = run(build(4));
        prop_assert_eq!(&ta, &tb, "per-token transcripts diverged across shard counts");
        prop_assert_eq!(&fa, &fb, "fingerprints diverged across shard counts");
        // The generative services actually accrued token-level mass.
        prop_assert!(fa.contains(".tokens:"), "no token accrual in fingerprint:\n{fa}");
        // And the transcript carries real verdicts, not errors.
        prop_assert!(ta.contains("ttft_secs"), "no successful token inference:\n{ta}");
    }
}
