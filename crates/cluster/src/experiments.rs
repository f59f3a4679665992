//! Experiment drivers for the paper's evaluation (§7).
//!
//! Each driver configures the engine (or a dedicated single-device
//! loop) for one figure/table. Engine sweeps are cell builders
//! (`*_cells`) whose cells run through the one pooled runner,
//! [`end_to_end_many`]; callers zip the results with their own sweep
//! keys. The `bench` crate's binaries print the series.

use std::collections::HashMap;

use gpu_sim::{DeviceId, GpuDevice, InferenceInstance, ResidentId, TrainingProcess};
use modeling::bo::DecisionMemo;
use simcore::{SimRng, SimTime};
use workloads::perf::DEVICE_MEMORY_GB;
use workloads::{BurstSchedule, ColoWorkload, GroundTruth, ServiceId, Zoo};

use crate::engine::{violation_probability, ClusterConfig, ClusterSession};
use crate::metrics::ExperimentResult;
use crate::systems::{build_system, DeviceView, Multiplexer, Optimal, SystemKind};

/// Runs one end-to-end experiment. `wall_clock_secs` covers the whole
/// cell — engine construction (ground-truth fitting) plus the event
/// loop — so pooled fan-outs account their per-cell cost correctly.
pub fn end_to_end(config: ClusterConfig, iteration_scale: f64) -> ExperimentResult {
    end_to_end_traced(config, iteration_scale).0
}

/// [`end_to_end`] additionally returning the run's trace-bus summary
/// (all zeros unless tracing is on — `MUDI_TRACE=1` or an injected
/// [`simcore::TraceConfig`]).
pub fn end_to_end_traced(
    config: ClusterConfig,
    iteration_scale: f64,
) -> (ExperimentResult, simcore::TraceSummary) {
    let started = std::time::Instant::now();
    let mut session = ClusterSession::new_scaled(config, iteration_scale);
    session.run_to_end();
    let trace = session.trace_summary();
    let mut result = session.finish();
    result.wall_clock_secs = started.elapsed().as_secs_f64();
    (result, trace)
}

/// Runs many independent experiment cells through the scoped worker
/// pool ([`simcore::pool`]) on up to `workers` threads, one
/// `(config, iteration_scale)` per cell; `workers = 1` runs the cells
/// in order on the calling thread. Each cell owns its seed and its
/// `SimRng` streams, so results are bit-for-bit identical to running
/// the cells serially in order, at every worker count.
pub fn end_to_end_many(cells: Vec<(ClusterConfig, f64)>, workers: usize) -> Vec<ExperimentResult> {
    simcore::pool::scoped_map_workers(cells, workers, |(cfg, scale)| end_to_end(cfg, scale))
}

/// Fig. 19 (extension): the per-rate cells of a failure sweep — `base`
/// at each fault-rate multiplier (0 = fault-free) with the standard
/// recovery stack. Every system replays the same per-seed fault
/// schedule, so rows are comparable across systems. Drivers sweeping
/// several systems flatten all (system × rate) cells into one
/// [`end_to_end_many`] fan-out.
pub fn failure_cells(
    system: SystemKind,
    seed: u64,
    rates: &[f64],
    base: &ClusterConfig,
    iteration_scale: f64,
) -> Vec<(ClusterConfig, f64)> {
    rates
        .iter()
        .map(|&rate| {
            let mut cfg = base.clone();
            cfg.system = system;
            cfg.seed = seed;
            if rate > 0.0 {
                cfg.faults = Some(resilience::FaultProfile::scaled(rate));
            }
            (cfg, iteration_scale)
        })
        .collect()
}

/// The blast-radius scope a correlated-failure cell injects: the
/// baseline device-local classes alone, or those plus node- or
/// rack-level correlated outages expanded over the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultScope {
    /// Device-local faults only (the Fig. 19 baseline classes).
    Device,
    /// Device-local faults plus node-level correlated outages.
    Node,
    /// Device-local faults plus rack-level correlated outages.
    Rack,
}

impl FaultScope {
    /// Human-readable scope label for tables.
    pub fn name(&self) -> &'static str {
        match self {
            FaultScope::Device => "device",
            FaultScope::Node => "node",
            FaultScope::Rack => "rack",
        }
    }
}

/// Fig. 20: the per-(scope, rate) cells of a correlated-failure sweep,
/// scope-major, with the standard recovery stack. Drivers sweeping
/// several systems flatten all (system × scope × rate) cells into one
/// [`end_to_end_many`].
pub fn correlated_failure_cells(
    system: SystemKind,
    seed: u64,
    scopes: &[FaultScope],
    rates: &[f64],
    base: &ClusterConfig,
    iteration_scale: f64,
) -> Vec<(ClusterConfig, f64)> {
    let mut cells = Vec::with_capacity(scopes.len() * rates.len());
    for &scope in scopes {
        for &rate in rates {
            let mut cfg = base.clone();
            cfg.system = system;
            cfg.seed = seed;
            if rate > 0.0 {
                let profile = resilience::FaultProfile::scaled(rate);
                cfg.faults =
                    Some(match scope {
                        FaultScope::Device => profile,
                        FaultScope::Node => profile
                            .with_correlated(resilience::CorrelatedFaultConfig::node_level(rate)),
                        FaultScope::Rack => profile
                            .with_correlated(resilience::CorrelatedFaultConfig::rack_level(rate)),
                    });
            }
            cells.push((cfg, iteration_scale));
        }
    }
    cells
}

/// Fig. 21: the per-(pool, rate) cells of a warm-standby sweep,
/// pool-major: rack-correlated faults at `rate`, standard recovery plus a standby
/// pool of the given size. Pool size 0 keeps [`StandbyPolicy`]
/// disabled, so those cells replay the plain rack-correlated path
/// byte-for-byte. Public so drivers sweeping several systems can
/// flatten all (system × pool × rate) cells into one
/// [`end_to_end_many`].
///
/// [`StandbyPolicy`]: resilience::StandbyPolicy
pub fn warm_standby_cells(
    system: SystemKind,
    seed: u64,
    pools: &[usize],
    rates: &[f64],
    base: &ClusterConfig,
    iteration_scale: f64,
) -> Vec<(ClusterConfig, f64)> {
    let mut cells = Vec::with_capacity(pools.len() * rates.len());
    for &pool in pools {
        for &rate in rates {
            let mut cfg = base.clone();
            cfg.system = system;
            cfg.seed = seed;
            if rate > 0.0 {
                let mut profile = resilience::FaultProfile::scaled(rate)
                    .with_correlated(resilience::CorrelatedFaultConfig::rack_level(rate));
                profile.recovery.standby = resilience::StandbyPolicy::warm(pool);
                cfg.faults = Some(profile);
            }
            cells.push((cfg, iteration_scale));
        }
    }
    cells
}

/// Fig. 15: the per-multiplier cells of a load sweep (1×–4× load).
/// Public for the same flattening reason as [`failure_cells`].
pub fn load_cells(
    system: SystemKind,
    seed: u64,
    multipliers: &[f64],
    base: &ClusterConfig,
    iteration_scale: f64,
) -> Vec<(ClusterConfig, f64)> {
    multipliers
        .iter()
        .map(|&m| {
            let mut cfg = base.clone();
            cfg.system = system;
            cfg.seed = seed;
            cfg.load_multiplier = m;
            (cfg, iteration_scale)
        })
        .collect()
}

/// One service's cell of the Fig. 14 probe. Self-contained — its own
/// ground truth, freshly built system, and per-service RNG streams —
/// so cells fan out across workers bit-for-bit identically to the
/// serial loop (a shared system would thread tuner/cache state from
/// one service's probe into the next).
fn max_throughput_cell(system: SystemKind, seed: u64, svc_idx: usize) -> (ServiceId, f64) {
    let gt = GroundTruth::new(Zoo::standard(), seed ^ 0xA100);
    let base_rng = SimRng::seed(seed);
    let mut sys = build_system(system, &gt, &mut base_rng.fork("system"));
    let mut rng = base_rng.fork_indexed("max-qps", svc_idx);
    let colo_task = gt
        .zoo()
        .require_task("LSTM")
        .unwrap_or_else(|e| panic!("{e}"))
        .id;
    let svc = &gt.zoo().services()[svc_idx];

    let sustainable = |qps: f64, sys: &mut Box<dyn Multiplexer>, rng: &mut SimRng| {
        let view = DeviceView {
            device: 0,
            service: svc.id,
            qps,
            slo_secs: svc.slo_secs(),
            tasks: vec![colo_task],
            batch: 64,
            fraction: 0.5,
            measured_p99: None,
            mem_headroom_gb: 10.0,
        };
        // One device at a fresh QPS per probe: its probe histories
        // rarely repeat, so the Tuner runs without memo slots.
        let d = sys.configure(&gt, &view, rng, (&mut DecisionMemo::default()).into());
        if d.pause_training || d.fraction > 0.90 + 1e-9 {
            return false; // Training squeezed out.
        }
        let train_frac = (1.0 - d.fraction).max(0.0);
        if train_frac < 0.10 - 1e-9 {
            return false;
        }
        let colo = [ColoWorkload::training(colo_task, train_frac)];
        let mean = gt.inference_latency(svc.id, d.batch, d.fraction, &colo);
        let sigma = gt.effective_sigma(svc.id, d.batch, d.fraction, &colo);
        violation_probability(qps, d.batch, svc.slo_secs(), mean, sigma) <= 0.01
    };
    // Exponential probe then binary refine.
    let mut lo = 0.0;
    let mut hi = 50.0;
    while hi < 500_000.0 && sustainable(hi, &mut sys, &mut rng) {
        lo = hi;
        hi *= 2.0;
    }
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        if sustainable(mid, &mut sys, &mut rng) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (svc.id, lo)
}

/// Fig. 14: the maximum sustainable QPS per service while the SLO holds
/// (violation rate ≤ 1 %) and at least 10 % of the GPU stays with the
/// co-located training task. Per-service cells fan out on up to
/// `workers` threads; the output is the same at every worker count.
pub fn max_throughput(system: SystemKind, seed: u64, workers: usize) -> Vec<(ServiceId, f64)> {
    let n = Zoo::standard().services().len();
    simcore::pool::scoped_map_workers((0..n).collect(), workers, move |i| {
        max_throughput_cell(system, seed, i)
    })
}

/// One sample of the bursty-QPS case study (Fig. 16).
#[derive(Clone, Debug)]
pub struct CaseStudyPoint {
    /// Time, seconds.
    pub t: f64,
    /// Replica QPS.
    pub qps: f64,
    /// Inference batching size.
    pub batch: u32,
    /// Inference GPU fraction.
    pub gpu_fraction: f64,
    /// Training memory swapped to the host, GB.
    pub swapped_gb: f64,
    /// Instantaneous per-request violation probability.
    pub violation_prob: f64,
}

/// Output of the case study.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    /// 1 Hz samples over the run.
    pub points: Vec<CaseStudyPoint>,
    /// Overall SLO violation rate.
    pub violation_rate: f64,
    /// Fraction of time the device memory was overflowed (Tab. 4).
    pub swap_time_fraction: f64,
    /// Mean swap transfer time, seconds.
    pub mean_swap_transfer_secs: f64,
}

/// Fig. 16 / Tab. 4: a single device under a QPS burst, driven by the
/// given system. Defaults mirror the paper's case: ResNet50 inference
/// multiplexed with YOLOv5 training, 3× burst from 100 s to 200 s.
pub fn bursty_case_study(
    system: SystemKind,
    service_name: &str,
    training_name: &str,
    burst: BurstSchedule,
    duration_secs: f64,
    seed: u64,
) -> CaseStudy {
    let gt = GroundTruth::new(Zoo::standard(), seed ^ 0xA100);
    let mut rng = SimRng::seed(seed);
    let mut sys = build_system(system, &gt, &mut rng.fork("system"));
    let svc = gt
        .zoo()
        .require_service(service_name)
        .unwrap_or_else(|e| panic!("{e}"));
    let task = gt
        .zoo()
        .require_task(training_name)
        .unwrap_or_else(|e| panic!("{e}"))
        .id;

    let mut dev = GpuDevice::new(DeviceId(0), DEVICE_MEMORY_GB);
    dev.deploy_inference(
        &gt,
        SimTime::ZERO,
        InferenceInstance::new(svc.id, 16, 0.6, 200.0),
    );
    dev.add_training(
        &gt,
        SimTime::ZERO,
        TrainingProcess::new(ResidentId(0), task, 0.4, u64::MAX / 2),
    )
    .expect("one training fits");

    let base_qps = 200.0;
    let mut monitor = mudi::Monitor::new(svc.slo);
    let mut points = Vec::new();
    let mut violations = 0.0;
    let mut requests = 0.0;

    for second in 0..duration_secs as u64 {
        let now = SimTime::from_secs(second as f64);
        let qps = base_qps * burst.multiplier_at(now);
        dev.set_inference_qps(&gt, now, qps);

        if monitor.check(now, qps, None, 0.0, 0.0).is_some() {
            let view = DeviceView {
                device: 0,
                service: svc.id,
                qps,
                slo_secs: svc.slo_secs(),
                tasks: vec![task],
                batch: dev.inference().expect("replica").batch,
                fraction: dev.inference().expect("replica").gpu_fraction,
                measured_p99: None,
                mem_headroom_gb: dev.memory().capacity_gb() - dev.memory().total_demand_gb(),
            };
            let d = sys.configure(&gt, &view, &mut rng, (&mut DecisionMemo::default()).into());
            dev.set_inference_batch(&gt, now, d.batch);
            dev.set_inference_fraction(d.fraction);
            dev.rebalance_training_fractions(d.training_share_cap);
            monitor.mark_tuned(qps);
        }

        let inf = dev.inference().expect("replica");
        let (batch, frac) = (inf.batch, inf.gpu_fraction);
        let (mean, sigma) = dev.with_inference_colo(|colo| {
            (
                gt.inference_latency(svc.id, batch, frac, colo),
                gt.effective_sigma(svc.id, batch, frac, colo),
            )
        });
        let p = violation_probability(qps, batch, svc.slo_secs(), mean, sigma);
        violations += p * qps;
        requests += qps;

        points.push(CaseStudyPoint {
            t: now.as_secs(),
            qps,
            batch,
            gpu_fraction: frac,
            swapped_gb: dev.memory().total_swapped_gb(),
            violation_prob: p,
        });
    }
    dev.finish(SimTime::from_secs(duration_secs));

    CaseStudy {
        violation_rate: if requests > 0.0 {
            violations / requests
        } else {
            0.0
        },
        swap_time_fraction: dev.memory().overflow_time_fraction(),
        mean_swap_transfer_secs: dev.memory().stats().mean_transfer_secs(),
        points,
    }
}

/// One self-contained [`bursty_case_study`] cell for the pooled
/// fan-out.
#[derive(Clone, Debug)]
pub struct CaseStudySpec {
    /// System driving the device.
    pub system: SystemKind,
    /// Inference service name in the zoo.
    pub service: String,
    /// Training task name in the zoo.
    pub training: String,
    /// The QPS burst schedule.
    pub burst: BurstSchedule,
    /// Run length in (simulated) seconds.
    pub duration_secs: f64,
    /// Cell seed.
    pub seed: u64,
}

/// Runs several case-study cells through the scoped worker pool. Each
/// cell is self-contained, so output is bit-for-bit identical to
/// calling [`bursty_case_study`] in a serial loop over the specs.
pub fn bursty_case_study_many(specs: Vec<CaseStudySpec>) -> Vec<CaseStudy> {
    simcore::pool::scoped_map(specs, |s| {
        bursty_case_study(
            s.system,
            &s.service,
            &s.training,
            s.burst,
            s.duration_secs,
            s.seed,
        )
    })
}

/// §5.4 optimality analysis output.
#[derive(Clone, Debug)]
pub struct OptimalityReport {
    /// P: fraction of placements where Mudi matched the oracle.
    pub effectiveness_rate: f64,
    /// Mean ratio of Mudi's achieved iteration time to the oracle's.
    pub mean_iteration_ratio: f64,
    /// The Eq. 5 worst-case bound E on expected iteration time.
    pub expectation_bound: f64,
    /// Placements examined.
    pub placements: usize,
}

/// Runs Mudi at physical scale and compares every placement decision
/// against the exhaustive oracle (§5.4).
pub fn optimality_analysis(seed: u64, jobs: usize, iteration_scale: f64) -> OptimalityReport {
    let mut cfg = ClusterConfig::physical(SystemKind::Mudi, seed);
    cfg.jobs = jobs;
    let mut session = ClusterSession::new_scaled(cfg, iteration_scale);
    session.set_trace_config(simcore::TraceConfig::with_placement_log());
    session.run_to_end();
    let gt = session.ground_truth();
    let log = session.placement_log();
    let mut oracle = Optimal::default();

    let mut matches = 0usize;
    let mut ratios = Vec::new();
    for (task, chosen_device, candidates) in &log {
        // Oracle choice over the *same* candidate set the selector saw,
        // scored at the reference load.
        let mut best: Option<(ServiceId, f64)> = None;
        let mut per_service: HashMap<ServiceId, f64> = HashMap::new();
        for &(_, service) in candidates {
            if per_service.contains_key(&service) {
                continue;
            }
            let svc = gt.zoo().service(service);
            if let Some((_, _, iter)) =
                oracle.best_config(gt, service, svc.slo_secs(), 200.0, &[*task])
            {
                per_service.insert(service, iter);
                if best.is_none_or(|(_, bi)| iter < bi) {
                    best = Some((service, iter));
                }
            }
        }
        let Some((opt_service, opt_iter)) = best else {
            continue;
        };
        let chosen_service = candidates
            .iter()
            .find(|&&(d, _)| d == *chosen_device)
            .map(|&(_, s)| s)
            .expect("chosen device was a candidate");
        if chosen_service == opt_service {
            matches += 1;
            ratios.push(1.0);
        } else if let Some(&chosen_iter) = per_service.get(&chosen_service) {
            ratios.push(chosen_iter / opt_iter);
        }
    }
    let placements = log.len().max(1);
    let p = matches as f64 / placements as f64;
    let worst = ratios.iter().cloned().fold(1.0, f64::max);
    let mean_ratio = if ratios.is_empty() {
        1.0
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    OptimalityReport {
        effectiveness_rate: p,
        mean_iteration_ratio: mean_ratio,
        expectation_bound: p + (1.0 - p) * worst,
        placements: log.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_throughput_is_positive_and_ordered() {
        let qps = max_throughput(SystemKind::Mudi, 3, simcore::max_workers());
        assert_eq!(qps.len(), 6);
        for &(s, q) in &qps {
            assert!(q > 0.0, "service {s:?} has zero throughput");
        }
    }

    #[test]
    fn case_study_reacts_to_burst() {
        let cs = bursty_case_study(
            SystemKind::Mudi,
            "ResNet50",
            "YOLOv5",
            BurstSchedule::fig16_burst(),
            300.0,
            4,
        );
        assert_eq!(cs.points.len(), 300);
        // During the burst the QPS triples.
        assert!((cs.points[150].qps - 600.0).abs() < 1e-9);
        assert!((cs.points[50].qps - 200.0).abs() < 1e-9);
        // The tuner must have reacted: configuration during burst
        // differs from before.
        let before = (cs.points[90].batch, cs.points[90].gpu_fraction);
        let during = (cs.points[150].batch, cs.points[150].gpu_fraction);
        assert_ne!(before, during, "no adaptation to the burst");
        assert!(cs.violation_rate < 0.10, "rate {}", cs.violation_rate);
    }
}
