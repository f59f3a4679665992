//! The Device Selector (Fig. 6, module ④; §5.2).
//!
//! When a training task arrives, Mudi assigns it to the GPU whose
//! resident inference service shows the *smallest average predicted
//! slope* across batching sizes when co-located with the incoming task
//! (plus any training tasks already there). A small slope means both
//! less SLO risk and less sensitivity to resource partitioning —
//! allowing a larger training share.
//!
//! Beyond the paper's interference score, the selector optionally
//! weighs *reliability*: a per-device [`ReliabilityPrior`] (observed
//! fault rate and post-repair burn-in, fed from the engine's fault
//! metrics) penalizes historically flaky devices, and a fault-domain
//! anti-affinity term steers training away from racks already carrying
//! load — so one rack-level incident cannot take out a
//! disproportionate share of the cluster's work. Both weights default
//! on for Mudi and zero for the flat-pool ablation
//! (`MudiConfig::flat`), which reproduces the paper's topology-blind
//! behaviour exactly.

use std::collections::HashMap;

use simcore::{MulBuildHasher, SimRng};
use workloads::{GroundTruth, ServiceId, TaskId};

use crate::config::MudiConfig;
use crate::predictor::InterferencePredictor;
use crate::profiler::LatencyProfiler;

/// Observed reliability of a device, fed from the engine's fault
/// metrics. The default (no observed faults, not degraded) is a
/// perfectly healthy device and contributes no penalty.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReliabilityPrior {
    /// Observed faults per day of simulated time on this device (all
    /// classes: failures, slowdowns, crashes, MPS restarts).
    pub faults_per_day: f64,
    /// Whether the device is currently in post-repair burn-in (reduced
    /// clocks while the driver re-validates memory).
    pub degraded: bool,
}

impl ReliabilityPrior {
    /// The multiplicative score penalty at the given weight:
    /// `1 + weight·f/(1+f)` for `f` observed faults per day, plus
    /// `weight` while degraded. The fault term *saturates* at `weight`
    /// — under heavy fault injection every device accumulates a long
    /// history, and an unbounded penalty would drown the §5.2
    /// interference score that remains the primary signal. Always
    /// `1.0` at weight zero.
    pub fn penalty(&self, weight: f64) -> f64 {
        let degraded = if self.degraded { weight } else { 0.0 };
        let f = self.faults_per_day.max(0.0);
        1.0 + weight * f / (1.0 + f) + degraded
    }
}

/// A placement-eligible device as seen by the selector.
#[derive(Clone, Debug)]
pub struct DeviceCandidate {
    /// Opaque device index (the cluster's id).
    pub device: usize,
    /// The inference service resident on the device.
    pub service: ServiceId,
    /// Training-task types already co-located there.
    pub existing_tasks: Vec<TaskId>,
    /// Free device memory, GB (negative headroom forces swapping).
    pub mem_headroom_gb: f64,
    /// Observed reliability of this device.
    pub reliability: ReliabilityPrior,
    /// Fraction of devices in this candidate's fault domain (rack)
    /// already hosting training, in `[0, 1]` — the anti-affinity input.
    pub domain_training_load: f64,
}

/// The selector's decision.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementDecision {
    /// Chosen device index.
    pub device: usize,
    /// The winning interference score (lower is better).
    pub score: f64,
    /// Number of candidates evaluated.
    pub evaluated: usize,
}

/// The cluster-wide device selector.
pub struct DeviceSelector {
    config: MudiConfig,
}

impl DeviceSelector {
    /// Creates a selector.
    pub fn new(config: MudiConfig) -> Self {
        DeviceSelector { config }
    }

    /// The §5.2 base interference score of co-locating `incoming` next
    /// to `existing` on a device serving `service`: the mean predicted
    /// relative slope across the profiling batch set. Depends only on
    /// the co-location *shape*, not on which device hosts it.
    fn base_score(
        &self,
        gt: &GroundTruth,
        predictor: &InterferencePredictor,
        incoming: TaskId,
        service: ServiceId,
        existing: &[TaskId],
    ) -> Option<f64> {
        let mut tasks = existing.to_vec();
        tasks.push(incoming);
        let arch = LatencyProfiler::merged_arch(gt, &tasks);
        predictor.mean_slope_score(service, &arch, &self.config.profile_batches)
    }

    /// Scores one candidate for hosting `incoming`: the mean predicted
    /// relative slope across the profiling batch set (§5.2), with a
    /// penalty for co-locations that would immediately overflow device
    /// memory (swapping hurts both sides).
    pub fn score(
        &self,
        gt: &GroundTruth,
        predictor: &InterferencePredictor,
        incoming: TaskId,
        candidate: &DeviceCandidate,
    ) -> Option<f64> {
        if candidate.existing_tasks.len() >= self.config.max_trainings_per_gpu {
            return None;
        }
        let base = self.base_score(
            gt,
            predictor,
            incoming,
            candidate.service,
            &candidate.existing_tasks,
        )?;
        Some(self.weigh(base, gt.training_memory_gb(incoming), candidate))
    }

    /// A candidate's score from its shape's `base` slope score: `base`
    /// times the memory-overflow, reliability and fault-domain
    /// anti-affinity multipliers, in that order.
    fn weigh(&self, base: f64, incoming_mem_gb: f64, candidate: &DeviceCandidate) -> f64 {
        let overflow = (incoming_mem_gb - candidate.mem_headroom_gb).max(0.0);
        // Each GB of immediate overflow costs like ~4 % extra slope.
        let memory = 1.0 + 0.04 * overflow;
        let reliability = candidate
            .reliability
            .penalty(self.config.reliability_weight);
        let anti_affinity =
            1.0 + self.config.anti_affinity_weight * candidate.domain_training_load.clamp(0.0, 1.0);
        base * memory * reliability * anti_affinity
    }

    /// Picks the best device for the incoming task.
    ///
    /// Returns `None` when no candidate has a free training slot or a
    /// usable prediction (the task then waits in the queue, §5.3.2).
    ///
    /// The base slope score depends only on `(service, existing task
    /// set)` — a cluster-scale pool repeats a handful of such shapes
    /// across its devices, so the scan memoizes the base per shape and
    /// recomputes only the per-device multipliers. The memoized value
    /// is the identical `f64`, so the decision (and its score) is
    /// bit-for-bit the one the unmemoized scan produces.
    pub fn select(
        &self,
        gt: &GroundTruth,
        predictor: &InterferencePredictor,
        incoming: TaskId,
        candidates: &[DeviceCandidate],
    ) -> Option<PlacementDecision> {
        let mut best: Option<(usize, f64)> = None;
        let mut evaluated = 0usize;
        // Looked up, never iterated: the hasher cannot reorder anything.
        let mut base_memo: HashMap<(ServiceId, &[TaskId]), Option<f64>, MulBuildHasher> =
            HashMap::default();
        let incoming_mem = gt.training_memory_gb(incoming);
        for c in candidates {
            if c.existing_tasks.len() >= self.config.max_trainings_per_gpu {
                continue;
            }
            let base = *base_memo
                .entry((c.service, c.existing_tasks.as_slice()))
                .or_insert_with(|| {
                    self.base_score(gt, predictor, incoming, c.service, &c.existing_tasks)
                });
            let Some(base) = base else {
                continue;
            };
            let score = self.weigh(base, incoming_mem, c);
            evaluated += 1;
            // Ties (within epsilon) keep the earlier candidate for determinism.
            let better = match best {
                None => true,
                Some((_, bs)) => score < bs - 1e-12,
            };
            if better {
                best = Some((c.device, score));
            }
        }
        best.map(|(device, score)| PlacementDecision {
            device,
            score,
            evaluated,
        })
    }

    /// Random placement among eligible devices — the baseline used in
    /// the per-device-control ablation (§7.3) and the Fig. 17 Random
    /// strategy.
    pub fn select_random(
        &self,
        candidates: &[DeviceCandidate],
        rng: &mut SimRng,
    ) -> Option<PlacementDecision> {
        let eligible: Vec<&DeviceCandidate> = candidates
            .iter()
            .filter(|c| c.existing_tasks.len() < self.config.max_trainings_per_gpu)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let pick = eligible[rng.uniform_usize(0, eligible.len())];
        Some(PlacementDecision {
            device: pick.device,
            score: f64::NAN,
            evaluated: eligible.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MudiConfig;
    use workloads::Zoo;

    fn build() -> (GroundTruth, InterferencePredictor, DeviceSelector) {
        let gt = GroundTruth::new(Zoo::standard(), 31);
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(4);
        let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
        let p = InterferencePredictor::new(db, &mut rng).unwrap();
        (gt, p, DeviceSelector::new(MudiConfig::default()))
    }

    fn candidate(device: usize, service: ServiceId, tasks: Vec<TaskId>) -> DeviceCandidate {
        DeviceCandidate {
            device,
            service,
            existing_tasks: tasks,
            mem_headroom_gb: 30.0,
            reliability: ReliabilityPrior::default(),
            domain_training_load: 0.0,
        }
    }

    #[test]
    fn selects_lowest_interference_device() {
        let (gt, p, sel) = build();
        let incoming = gt.zoo().task_by_name("YOLOv5").unwrap().id;
        let candidates: Vec<DeviceCandidate> = gt
            .zoo()
            .services()
            .iter()
            .enumerate()
            .map(|(i, s)| candidate(i, s.id, vec![]))
            .collect();
        let d = sel.select(&gt, &p, incoming, &candidates).unwrap();
        assert_eq!(d.evaluated, candidates.len());
        // The decision must equal the argmin of the per-candidate scores.
        let scores: Vec<f64> = candidates
            .iter()
            .map(|c| sel.score(&gt, &p, incoming, c).unwrap())
            .collect();
        let argmin = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(d.device, argmin);
    }

    #[test]
    fn full_devices_are_skipped() {
        let (gt, p, sel) = build();
        let incoming = gt.zoo().tasks()[0].id;
        let busy = candidate(0, gt.zoo().services()[0].id, vec![gt.zoo().tasks()[1].id]);
        // Default Mudi allows one training per GPU: the busy device is
        // ineligible.
        assert!(sel.score(&gt, &p, incoming, &busy).is_none());
        let free = candidate(1, gt.zoo().services()[1].id, vec![]);
        let d = sel.select(&gt, &p, incoming, &[busy, free]).unwrap();
        assert_eq!(d.device, 1);
    }

    #[test]
    fn no_eligible_device_returns_none() {
        let (gt, p, sel) = build();
        let incoming = gt.zoo().tasks()[0].id;
        let busy = candidate(0, gt.zoo().services()[0].id, vec![gt.zoo().tasks()[1].id]);
        assert!(sel.select(&gt, &p, incoming, &[busy]).is_none());
        assert!(sel.select(&gt, &p, incoming, &[]).is_none());
    }

    #[test]
    fn memory_overflow_penalizes_score() {
        let (gt, p, sel) = build();
        let incoming = gt.zoo().task_by_name("YOLOv5").unwrap().id; // ~22 GB.
        let svc = gt.zoo().services()[0].id;
        let roomy = candidate(0, svc, vec![]);
        let mut tight = candidate(1, svc, vec![]);
        tight.mem_headroom_gb = 2.0;
        let s_roomy = sel.score(&gt, &p, incoming, &roomy).unwrap();
        let s_tight = sel.score(&gt, &p, incoming, &tight).unwrap();
        assert!(s_tight > s_roomy);
    }

    #[test]
    fn mudi_more_allows_multiple_trainings() {
        let gt = GroundTruth::new(Zoo::standard(), 31);
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(4);
        let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
        let p = InterferencePredictor::new(db, &mut rng).unwrap();
        let sel = DeviceSelector::new(MudiConfig::more());
        let incoming = gt.zoo().tasks()[0].id;
        let busy = candidate(
            0,
            gt.zoo().services()[0].id,
            vec![gt.zoo().tasks()[1].id, gt.zoo().tasks()[2].id],
        );
        assert!(sel.score(&gt, &p, incoming, &busy).is_some());
    }

    #[test]
    fn flaky_device_is_penalized() {
        let (gt, p, sel) = build();
        let incoming = gt.zoo().tasks()[0].id;
        let svc = gt.zoo().services()[0].id;
        let healthy = candidate(0, svc, vec![]);
        let mut flaky = candidate(1, svc, vec![]);
        flaky.reliability.faults_per_day = 3.0;
        let s_healthy = sel.score(&gt, &p, incoming, &healthy).unwrap();
        let s_flaky = sel.score(&gt, &p, incoming, &flaky).unwrap();
        assert!(s_flaky > s_healthy);
        // Burn-in alone also penalizes.
        let mut degraded = candidate(2, svc, vec![]);
        degraded.reliability.degraded = true;
        assert!(sel.score(&gt, &p, incoming, &degraded).unwrap() > s_healthy);
        // The flat-pool config ignores reliability entirely.
        let flat = DeviceSelector::new(MudiConfig::flat());
        let f_healthy = flat.score(&gt, &p, incoming, &healthy).unwrap();
        let f_flaky = flat.score(&gt, &p, incoming, &flaky).unwrap();
        assert_eq!(f_healthy, f_flaky);
    }

    #[test]
    fn loaded_fault_domain_is_penalized() {
        let (gt, p, sel) = build();
        let incoming = gt.zoo().tasks()[0].id;
        let svc = gt.zoo().services()[0].id;
        let empty_rack = candidate(0, svc, vec![]);
        let mut busy_rack = candidate(1, svc, vec![]);
        busy_rack.domain_training_load = 1.0;
        let s_empty = sel.score(&gt, &p, incoming, &empty_rack).unwrap();
        let s_busy = sel.score(&gt, &p, incoming, &busy_rack).unwrap();
        assert!(s_busy > s_empty);
        let flat = DeviceSelector::new(MudiConfig::flat());
        assert_eq!(
            flat.score(&gt, &p, incoming, &empty_rack).unwrap(),
            flat.score(&gt, &p, incoming, &busy_rack).unwrap()
        );
    }

    #[test]
    fn reliability_penalty_formula() {
        let healthy = ReliabilityPrior::default();
        assert_eq!(healthy.penalty(0.25), 1.0);
        let flaky = ReliabilityPrior {
            faults_per_day: 2.0,
            degraded: true,
        };
        // 1 + 0.25·(2/3) + 0.25 (degraded).
        assert!((flaky.penalty(0.25) - (1.0 + 0.25 * 2.0 / 3.0 + 0.25)).abs() < 1e-12);
        assert_eq!(flaky.penalty(0.0), 1.0);
        // The fault term saturates: even an absurd history stays below
        // `1 + 2·weight`, so interference remains the primary signal.
        let chaos = ReliabilityPrior {
            faults_per_day: 1e6,
            degraded: true,
        };
        assert!(chaos.penalty(0.25) < 1.5 + 1e-12);
        // More observed faults still rank strictly worse.
        let mild = ReliabilityPrior {
            faults_per_day: 0.5,
            degraded: false,
        };
        assert!(flaky.penalty(0.25) > mild.penalty(0.25));
    }

    #[test]
    fn random_placement_only_uses_eligible() {
        let (gt, _, sel) = build();
        let mut rng = SimRng::seed(8);
        let busy = candidate(0, gt.zoo().services()[0].id, vec![gt.zoo().tasks()[1].id]);
        let free = candidate(1, gt.zoo().services()[1].id, vec![]);
        for _ in 0..20 {
            let d = sel
                .select_random(&[busy.clone(), free.clone()], &mut rng)
                .unwrap();
            assert_eq!(d.device, 1);
        }
    }
}
