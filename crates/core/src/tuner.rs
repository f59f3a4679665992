//! The Tuner (Fig. 6, module ⑥; §5.3).
//!
//! Two decoupled phases:
//!
//! 1. **Adaptive batching** (§5.3.1): GP-LCB Bayesian optimization over
//!    the discrete batching-size candidates, minimizing the co-located
//!    training task's observed mini-batch iteration time subject to the
//!    SLO constraint (evaluated through the predicted latency curve and
//!    the Eq. 4 solver). Batch changes are free — no restart.
//! 2. **Dynamic resource scaling** (§5.3.2): the minimum GPU% meeting
//!    the SLO at the chosen batch (Eq. 4 + the 10 % safety margin).
//!    When a training task first co-locates, the initial GPU% is the
//!    largest predicted cutoff across batch sizes.
//!
//! When no configuration is feasible under the current QPS, the Tuner
//! reports infeasibility; the caller pauses training and gives the
//! inference service the device (§5.3.2).

use std::cell::RefCell;

use modeling::bo::{BoWorkspace, GpLcbTuner, Memos};
use modeling::solver::{min_serving_fraction, serving_budgets};
use simcore::SimRng;
use workloads::NetworkArchitecture;
use workloads::ServiceId;

use crate::config::MudiConfig;
use crate::predictor::InterferencePredictor;

/// Why a tuning pass was started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneTrigger {
    /// A training task was just assigned to the device.
    NewTraining,
    /// The Monitor observed a QPS change beyond the threshold.
    QpsChange,
    /// The Monitor observed tail latency at risk of violating the SLO.
    SloRisk,
    /// Another device failed: a survivor absorbs its traffic, or a warm
    /// standby is promoted to serve it.
    Failover,
    /// A device was repaired: the device itself, the survivors handing
    /// its traffic back, and the standby that covered it.
    Repair,
    /// A fault on the device itself: a slowdown starts, or a degraded
    /// window (a slowdown or a post-repair burn-in) ends.
    DeviceFault,
    /// The heartbeat of a device whose training is paused.
    Paused,
    /// A co-located training task finished.
    TrainingDone,
    /// An operator redeployed the device.
    Operator,
}

impl TuneTrigger {
    /// Every trigger, in declaration order (`t as usize` indexes it).
    pub const ALL: [TuneTrigger; 9] = [
        TuneTrigger::NewTraining,
        TuneTrigger::QpsChange,
        TuneTrigger::SloRisk,
        TuneTrigger::Failover,
        TuneTrigger::Repair,
        TuneTrigger::DeviceFault,
        TuneTrigger::Paused,
        TuneTrigger::TrainingDone,
        TuneTrigger::Operator,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            TuneTrigger::NewTraining => "new-training",
            TuneTrigger::QpsChange => "qps-drift",
            TuneTrigger::SloRisk => "slo-risk",
            TuneTrigger::Failover => "failover",
            TuneTrigger::Repair => "repair",
            TuneTrigger::DeviceFault => "device-fault",
            TuneTrigger::Paused => "paused",
            TuneTrigger::TrainingDone => "training-done",
            TuneTrigger::Operator => "operator",
        }
    }
}

/// The Tuner's decision for one device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TuningOutcome {
    /// Chosen inference batching size.
    pub batch: u32,
    /// Chosen inference GPU fraction.
    pub gpu_fraction: f64,
    /// GP-LCB objective evaluations used (Fig. 18(a)). At most 255
    /// ([`Tuner::new`] enforces it): a feasible pass stops at
    /// `bo_max_iters`, and an infeasible one counts the batch
    /// candidates.
    pub bo_iterations: usize,
    /// `false` means no feasible configuration exists: pause the
    /// co-located training and give the service the whole device.
    pub feasible: bool,
}

/// The most configurations one tuning pass can evaluate: the search
/// tries each batch candidate at most once and stops at its budget, so
/// a pass evaluates at most `min(candidates, bo_max_iters)` of them.
const MAX_PROBES: usize = 32;

/// The most iterations one tuning pass reports: the cluster's
/// tuning-pass log stores each pass's count in a byte.
const MAX_PASS_ITERATIONS: usize = u8::MAX as usize;

/// The per-device tuner.
pub struct Tuner {
    config: MudiConfig,
    /// The GP-LCB search engine, built once from the config's candidate
    /// set and iteration budget.
    bo: GpLcbTuner,
    /// Reusable GP-LCB buffers across tuning passes. Interior
    /// mutability keeps [`Tuner::tune`] borrowing `&self`; a tuner is
    /// owned by one session, never shared across threads.
    ws: RefCell<BoWorkspace>,
}

impl Tuner {
    /// Creates a tuner.
    ///
    /// # Panics
    ///
    /// Panics if a pass could evaluate more than 32 configurations,
    /// i.e. both the candidate set and the iteration budget exceed 32,
    /// or if `bo_max_iters` or the number of `batch_candidates` exceeds
    /// 255: a pass's iteration count is logged as one byte (see
    /// [`TuningOutcome::bo_iterations`]).
    pub fn new(config: MudiConfig) -> Self {
        assert!(
            config.batch_candidates.len().min(config.bo_max_iters) <= MAX_PROBES,
            "a tuning pass may evaluate at most {MAX_PROBES} configurations"
        );
        assert!(
            config.bo_max_iters <= MAX_PASS_ITERATIONS,
            "bo_max_iters is {}, above the {MAX_PASS_ITERATIONS} a pass may log",
            config.bo_max_iters
        );
        assert!(
            config.batch_candidates.len() <= MAX_PASS_ITERATIONS,
            "batch_candidates holds {} sizes, above the {MAX_PASS_ITERATIONS} a pass may log",
            config.batch_candidates.len()
        );
        let bo = GpLcbTuner::new(config.batch_candidates_f64(), config.bo_max_iters);
        // Pre-size the search buffers for the candidate count so even
        // the first tuning pass — and every later one — runs without
        // growing a buffer (the kernel zero-alloc harness pins this).
        let mut ws = BoWorkspace::default();
        ws.reserve(bo.candidates().len());
        Tuner {
            config,
            bo,
            ws: RefCell::new(ws),
        }
    }

    /// Runs a full tuning pass.
    ///
    /// * `predictor` supplies the Eq. 1 curves for SLO feasibility.
    /// * `arch` is the cumulative architecture of the co-located
    ///   training tasks (empty when the device hosts inference only).
    /// * `observe_iteration(batch, inference_fraction)` returns one
    ///   observed training mini-batch time under that configuration —
    ///   the Training Agent's feedback feeding the GP surrogate. Pass a
    ///   constant when no training is co-located.
    /// * `observe_p99(batch, inference_fraction)` returns the measured
    ///   tail latency under that configuration. The paper's Tuner
    ///   "incorporates the constraint into the GP framework,
    ///   continuously updating the surrogate" (§5.3.1): feasibility is
    ///   seeded by the predictor but *verified and corrected* against
    ///   live measurements, which keeps prediction error from either
    ///   pausing viable co-locations or admitting violating ones. A pass
    ///   observes each `(batch, inference_fraction)` it probes once, and
    ///   the outcome is the winning probe's configuration as measured
    ///   during the search — it is not measured again, so a later
    ///   reading cannot contradict the verdict the search acted on.
    /// * `tokens_per_request` — `0.0` for request-batched (classifier)
    ///   services. Positive for generative services decoding under
    ///   continuous batching: the batch candidate is then the
    ///   running-batch *concurrency cap*, `slo_secs` is the p99
    ///   inter-token-latency target, `observe_p99` reports the decode
    ///   *iteration* tail latency, and feasibility uses the decode
    ///   budgets (no batch-fill wait, token-throughput stability at
    ///   `qps × tokens_per_request` tokens/second).
    /// * `memos` hold the GP-LCB proposals of earlier passes, keyed on
    ///   their exact probe histories ([`Memos`]; a
    ///   `&mut DecisionMemo` converts): a pass that repeats a history
    ///   skips the GP work and decides the same.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's tuning inputs (§5.3.1)
    pub fn tune<'m>(
        &self,
        predictor: &InterferencePredictor,
        service: ServiceId,
        slo_secs: f64,
        qps: f64,
        tokens_per_request: f64,
        arch: &NetworkArchitecture,
        mut observe_iteration: impl FnMut(u32, f64) -> f64,
        mut observe_p99: impl FnMut(u32, f64) -> f64,
        rng: &mut SimRng,
        memos: impl Into<Memos<'m>>,
    ) -> TuningOutcome {
        let lo = self.config.min_inference_fraction;
        let hi = self.config.max_inference_fraction;

        // Required GPU fraction per candidate batch (None = infeasible).
        // Seeded from the predicted curve under the drift-headroom
        // budget, then verified online; a corrective escalation handles
        // under-prediction and a probe step reclaims over-provisioning.
        let required = |batch: u32, observe_p99: &mut dyn FnMut(u32, f64) -> f64| -> Option<f64> {
            let b = batch as f64;
            let (strict, relaxed) = serving_budgets(qps, tokens_per_request, b, slo_secs);
            if relaxed <= 0.0 {
                return None;
            }
            let target = if strict > 0.0 { strict } else { relaxed };
            let mut frac = predictor
                .curve_for_arch(service, arch, batch)
                .and_then(|c| {
                    min_serving_fraction(&c, qps, tokens_per_request, b, slo_secs, lo, hi)
                })
                .unwrap_or(hi);
            let measured = observe_p99(batch, frac);
            if measured > target {
                // Escalate proportionally to the miss and re-verify (a
                // fraction already at the cap was just measured).
                let escalated = (frac * (measured / target).min(3.0)).min(hi);
                let verified = if escalated == frac {
                    measured
                } else {
                    observe_p99(batch, escalated)
                };
                if verified > relaxed {
                    return None;
                }
                frac = escalated;
            } else if measured < target * 0.5 && frac > lo + 1e-9 {
                // The prediction over-provisioned: walk the partition
                // down while measurements stay within budget, then put
                // the 10 % safety margin back (§5.3.2).
                for _ in 0..4 {
                    let probe = (frac * 0.7).max(lo);
                    if probe >= frac || observe_p99(batch, probe) > target * 0.9 {
                        break;
                    }
                    frac = probe;
                }
                frac = (frac * (1.0 + modeling::solver::SAFETY_MARGIN)).min(hi);
            }
            Some(frac)
        };

        // GP-LCB over the batch candidates, minimizing observed
        // iteration time among SLO-feasible candidates. Each feasible
        // probe is logged as (batch, fraction, iteration time) so the
        // winner's fraction is read back rather than recomputed.
        let mut ws = self.ws.borrow_mut();
        let mut probes = [(0u32, 0.0f64, 0.0f64); MAX_PROBES];
        let mut probed = 0usize;
        let result = self.bo.run_with(&mut ws, memos, rng, |b| {
            let batch = b as u32;
            let frac = required(batch, &mut observe_p99)?;
            let iteration = observe_iteration(batch, frac);
            probes[probed] = (batch, frac, iteration);
            probed += 1;
            Some(iteration)
        });

        match result {
            Some(r) => {
                let batch = r.best as u32;
                let (_, fraction, _) = *probes[..probed]
                    .iter()
                    .find(|&&(b, _, y)| b == batch && y.to_bits() == r.best_objective.to_bits())
                    .expect("the search's best is one of its probes");
                TuningOutcome {
                    batch,
                    gpu_fraction: fraction,
                    bo_iterations: r.iterations,
                    feasible: true,
                }
            }
            None => {
                // No batch meets the SLO at this QPS even with the
                // maximum allowed fraction: disable multiplexing and
                // serve with the least-bad configuration.
                let batch = self.least_bad_batch(
                    predictor,
                    service,
                    slo_secs,
                    qps,
                    tokens_per_request,
                    arch,
                );
                TuningOutcome {
                    batch,
                    gpu_fraction: hi,
                    bo_iterations: self.config.batch_candidates.len(),
                    feasible: false,
                }
            }
        }
    }

    /// The initial GPU fraction when a training task first co-locates:
    /// the maximum predicted cutoff across batch sizes (§5.3.2).
    pub fn initial_fraction(
        &self,
        predictor: &InterferencePredictor,
        service: ServiceId,
        arch: &NetworkArchitecture,
    ) -> f64 {
        predictor
            .max_cutoff(service, arch, &self.config.profile_batches)
            .unwrap_or(0.5)
            .clamp(
                self.config.min_inference_fraction,
                self.config.max_inference_fraction,
            )
    }

    /// When nothing is feasible, pick the batch minimizing predicted
    /// end-to-end request latency (fill wait + predicted P99) at the
    /// maximum fraction — or, for a generative service, the batch
    /// minimizing token overload plus normalized inter-token latency.
    fn least_bad_batch(
        &self,
        predictor: &InterferencePredictor,
        service: ServiceId,
        slo_secs: f64,
        qps: f64,
        tokens_per_request: f64,
        arch: &NetworkArchitecture,
    ) -> u32 {
        let hi = self.config.max_inference_fraction;
        self.config
            .batch_candidates
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let cost = |batch: u32| -> f64 {
                    let lat = predictor
                        .latency(service, arch, batch, hi)
                        .unwrap_or(f64::INFINITY);
                    if tokens_per_request > 0.0 {
                        // Token-capacity overload dominates: an
                        // undersized running batch drops the loop's
                        // service rate below arrivals no matter how fast
                        // one iteration is.
                        let tok_rate = qps * tokens_per_request;
                        let overload = if tok_rate > 0.0 {
                            tok_rate * lat / batch as f64
                        } else {
                            0.0
                        };
                        return overload * 10.0 + lat / slo_secs.max(1e-9);
                    }
                    let wait = if qps > 0.0 { batch as f64 / qps } else { 0.0 };
                    // Penalize unstable choices: a batch served slower
                    // than it arrives drags the queue regardless of its
                    // nominal latency.
                    let stability = if wait > 0.0 && lat > 0.8 * wait {
                        (lat / wait) * 10.0
                    } else {
                        0.0
                    };
                    wait + lat + stability
                };
                cost(a).partial_cmp(&cost(b)).expect("finite costs")
            })
            .unwrap_or(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::LatencyProfiler;
    use modeling::bo::DecisionMemo;
    use modeling::solver::min_gpu_fraction;
    use workloads::{ColoWorkload, GroundTruth, Zoo};

    struct Fixture {
        gt: GroundTruth,
        predictor: InterferencePredictor,
        tuner: Tuner,
    }

    fn fixture() -> Fixture {
        let gt = GroundTruth::new(Zoo::standard(), 77);
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(13);
        let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
        let predictor = InterferencePredictor::new(db, &mut rng).unwrap();
        Fixture {
            gt,
            predictor,
            tuner: Tuner::new(MudiConfig::default()),
        }
    }

    #[test]
    fn tunes_feasible_configuration_under_normal_load() {
        let f = fixture();
        let svc = f.gt.zoo().service_by_name("BERT").unwrap();
        let task = f.gt.zoo().task_by_name("VGG16").unwrap();
        let mut rng = SimRng::seed(1);
        let gt = &f.gt;
        let out = f.tuner.tune(
            &f.predictor,
            svc.id,
            svc.slo_secs(),
            200.0,
            0.0,
            &task.arch,
            |batch, frac| {
                let colo = [ColoWorkload::inference(svc.id, batch, frac)];
                gt.training_iteration(task.id, (1.0 - frac).max(0.05), &colo)
            },
            |batch, frac| {
                let colo = [ColoWorkload::training(task.id, (1.0f64 - frac).max(0.01))];
                gt.p99_inference_latency(svc.id, batch, frac, &colo)
            },
            &mut rng,
            &mut DecisionMemo::default(),
        );
        assert!(out.feasible, "should be feasible at 200 QPS");
        assert!(f.tuner.config.batch_candidates.contains(&out.batch));
        assert!((0.05..=0.90).contains(&out.gpu_fraction));
        assert!(out.bo_iterations <= 25, "iterations {}", out.bo_iterations);
        // Verify the chosen configuration really meets the SLO against
        // the measured (ground-truth) tail latency.
        let colo = [ColoWorkload::training(
            task.id,
            (1.0f64 - out.gpu_fraction).max(0.01),
        )];
        let measured = gt.p99_inference_latency(svc.id, out.batch, out.gpu_fraction, &colo);
        let budget =
            modeling::solver::latency_budget_relaxed(200.0, out.batch as f64, svc.slo_secs());
        assert!(
            measured <= budget * 1.05,
            "measured {measured} vs budget {budget}"
        );
    }

    #[test]
    fn prefers_configurations_that_speed_training() {
        // With a synthetic objective that strongly favors small
        // inference fractions, the tuner should not pick a batch whose
        // required fraction is maximal.
        let f = fixture();
        let svc = f.gt.zoo().service_by_name("YOLOS").unwrap(); // Loose 2.2 s SLO.
        let task = f.gt.zoo().task_by_name("NCF").unwrap();
        let mut rng = SimRng::seed(2);
        let out = f.tuner.tune(
            &f.predictor,
            svc.id,
            svc.slo_secs(),
            150.0,
            0.0,
            &task.arch,
            |_, frac| 1.0 / (1.0 - frac).max(0.05),
            {
                let gt = &f.gt;
                let tid = task.id;
                let sid = svc.id;
                move |batch, frac| {
                    let colo = [ColoWorkload::training(tid, (1.0f64 - frac).max(0.01))];
                    gt.p99_inference_latency(sid, batch, frac, &colo)
                }
            },
            &mut rng,
            &mut DecisionMemo::default(),
        );
        assert!(out.feasible);
        assert!(out.gpu_fraction < 0.9, "fraction {}", out.gpu_fraction);
    }

    #[test]
    fn infeasible_load_pauses_training() {
        let f = fixture();
        let svc = f.gt.zoo().service_by_name("GPT2").unwrap(); // Tight 100 ms.
        let task = f.gt.zoo().task_by_name("YOLOv5").unwrap();
        let mut rng = SimRng::seed(3);
        // Absurd QPS: no batch can keep up.
        let out = f.tuner.tune(
            &f.predictor,
            svc.id,
            svc.slo_secs(),
            2_000_000.0,
            0.0,
            &task.arch,
            |_, _| 1.0,
            {
                let gt = &f.gt;
                let tid = task.id;
                let sid = svc.id;
                move |batch, frac| {
                    let colo = [ColoWorkload::training(tid, (1.0f64 - frac).max(0.01))];
                    gt.p99_inference_latency(sid, batch, frac, &colo)
                }
            },
            &mut rng,
            &mut DecisionMemo::default(),
        );
        assert!(!out.feasible);
        assert_eq!(out.gpu_fraction, 0.90);
    }

    #[test]
    fn outcome_is_not_remeasured_after_the_search() {
        // A drifting oracle: every batch measures as the ground truth on
        // its first probe and as infinitely slow on any later one. The
        // pass must return the configuration the search verified, not
        // probe the winner again (which would read it as infeasible).
        let f = fixture();
        let svc = f.gt.zoo().service_by_name("BERT").unwrap();
        let task = f.gt.zoo().task_by_name("VGG16").unwrap();
        let gt = &f.gt;
        let mut seen = Vec::new();
        let mut searched = Vec::new();
        let out = f.tuner.tune(
            &f.predictor,
            svc.id,
            svc.slo_secs(),
            200.0,
            0.0,
            &task.arch,
            |batch, frac| {
                searched.push((batch, frac));
                1.0 / (1.0 - frac).max(0.05) + batch as f64 * 1e-3
            },
            |batch, frac| {
                if seen.contains(&batch) {
                    return f64::INFINITY;
                }
                seen.push(batch);
                let colo = [ColoWorkload::training(task.id, (1.0f64 - frac).max(0.01))];
                gt.p99_inference_latency(svc.id, batch, frac, &colo)
            },
            &mut SimRng::seed(1),
            &mut DecisionMemo::default(),
        );
        assert!(out.feasible);
        assert!(
            searched.contains(&(out.batch, out.gpu_fraction)),
            "{out:?} not among {searched:?}"
        );
    }

    #[test]
    #[should_panic(expected = "bo_max_iters is 256")]
    fn an_iteration_budget_above_a_byte_is_rejected() {
        Tuner::new(MudiConfig {
            bo_max_iters: 256,
            ..MudiConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "batch_candidates holds 256 sizes")]
    fn more_batch_candidates_than_a_byte_counts_are_rejected() {
        Tuner::new(MudiConfig {
            batch_candidates: (1..=256).collect(),
            ..MudiConfig::default()
        });
    }

    #[test]
    fn trigger_table_is_indexed_by_discriminant() {
        for (i, t) in TuneTrigger::ALL.iter().enumerate() {
            assert_eq!(*t as usize, i, "{}", t.name());
        }
    }

    #[test]
    fn initial_fraction_is_max_cutoff() {
        let f = fixture();
        let svc = f.gt.zoo().services()[0].id;
        let arch = f.gt.zoo().tasks()[0].arch;
        let init = f.tuner.initial_fraction(&f.predictor, svc, &arch);
        let max_cutoff = f
            .predictor
            .max_cutoff(svc, &arch, &f.tuner.config.profile_batches)
            .unwrap();
        assert!((init - max_cutoff.clamp(0.05, 0.90)).abs() < 1e-12);
    }

    #[test]
    fn higher_qps_never_lowers_required_fraction_at_fixed_batch() {
        let f = fixture();
        let svc = f.gt.zoo().service_by_name("ResNet50").unwrap();
        let task = f.gt.zoo().task_by_name("LSTM").unwrap();
        let curve = f.predictor.curve_for_arch(svc.id, &task.arch, 64).unwrap();
        let frac_low = min_gpu_fraction(&curve, 300.0, 64.0, svc.slo_secs(), 0.05, 0.9);
        let frac_high = min_gpu_fraction(&curve, 900.0, 64.0, svc.slo_secs(), 0.05, 0.9);
        if let (Some(a), Some(b)) = (frac_low, frac_high) {
            assert!(b >= a, "{b} vs {a}");
        }
    }
}
