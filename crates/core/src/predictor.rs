//! The Interference Predictor (Fig. 6, module ③).
//!
//! Online, Mudi predicts the Eq. 1 latency curve for any (service,
//! batching size, co-located training set) from the architecture-based
//! Interference Modeler, given the co-located set's merged architecture
//! — which is how previously *unobserved* training tasks are handled
//! (§4.2).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use modeling::fit::piecewise::PiecewiseLinear;
use simcore::{MulBuildHasher, SimRng};
use workloads::{NetworkArchitecture, ServiceId};

use crate::interference::InterferenceModeler;
use crate::profiler::ProfileDatabase;

/// The trained half of the predictor: the Interference Modeler fitted
/// on the offline profiles (§4.1.2). Immutable once trained, so one fit is shared behind an [`Arc`] by every shard lane
/// of a session.
pub struct InterferenceFit {
    modeler: InterferenceModeler,
}

// Lanes step on worker threads and share the fit by reference.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<InterferenceFit>();
};

type CurveMemo =
    HashMap<(ServiceId, NetworkArchitecture, u32), Option<PiecewiseLinear>, MulBuildHasher>;

/// The online latency-curve predictor: a shared [`InterferenceFit`]
/// plus this owner's memo of modeler answers.
pub struct InterferencePredictor {
    fit: Arc<InterferenceFit>,
    /// Memoized [`InterferencePredictor::curve_for_arch`] results. The
    /// modeler is pure given its trained weights, and the engine asks
    /// for the same handful of `(service, merged arch, batch)` keys on
    /// every retune, so the steady-state stepping loop hits this cache
    /// and never re-runs the four learner predictions. Each replica
    /// keeps its own memo, so a lane's hot path takes no lock. The
    /// 13-word key is hashed with [`simcore::MulHasher`], a fraction of
    /// SipHash's cost.
    memo: RefCell<CurveMemo>,
}

impl InterferencePredictor {
    /// Builds the predictor from an offline profile database.
    ///
    /// Returns `None` when the database is empty.
    pub fn new(db: ProfileDatabase, rng: &mut SimRng) -> Option<Self> {
        let modeler = InterferenceModeler::train(&db, rng)?;
        Some(Self::from_fit(Arc::new(InterferenceFit { modeler })))
    }

    fn from_fit(fit: Arc<InterferenceFit>) -> Self {
        InterferencePredictor {
            fit,
            memo: RefCell::new(HashMap::default()),
        }
    }

    /// A predictor for another shard lane: shares this one's fit and
    /// starts with an empty memo.
    pub fn replica(&self) -> Self {
        Self::from_fit(Arc::clone(&self.fit))
    }

    /// The shared trained half.
    pub fn fit(&self) -> &Arc<InterferenceFit> {
        &self.fit
    }

    /// Predicts the latency curve from a cumulative architecture (the
    /// path taken for unobserved tasks).
    pub fn curve_for_arch(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batch: u32,
    ) -> Option<PiecewiseLinear> {
        let key = (service, *arch, batch);
        if let Some(hit) = self.memo.borrow().get(&key) {
            return *hit;
        }
        let curve = self.fit.modeler.predict(service, arch, batch);
        self.memo.borrow_mut().insert(key, curve);
        curve
    }

    /// Predicted P99 latency `P(b, Δ, Ψ)` in seconds.
    pub fn latency(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batch: u32,
        fraction: f64,
    ) -> Option<f64> {
        Some(
            self.curve_for_arch(service, arch, batch)?
                .eval(fraction)
                .max(0.0),
        )
    }

    /// The largest predicted cutoff Δ0 across batching sizes — the
    /// Tuner's initial GPU% when a training task first co-locates
    /// (§5.3.2).
    pub fn max_cutoff(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batches: &[u32],
    ) -> Option<f64> {
        batches
            .iter()
            .filter_map(|&b| self.curve_for_arch(service, arch, b).map(|c| c.x0))
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// The Device Selector's interference score: the mean relative
    /// slope magnitude across batching sizes (§5.2). Slopes are
    /// normalized by the curve's cutoff latency so services with very
    /// different absolute latencies (YOLOS vs GPT2) are comparable.
    pub fn mean_slope_score(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batches: &[u32],
    ) -> Option<f64> {
        let mut total = 0.0;
        let mut n = 0usize;
        for &b in batches {
            let c = self.curve_for_arch(service, arch, b)?;
            total += c.mean_slope_magnitude() / c.y0.max(1e-9);
            n += 1;
        }
        (n > 0).then(|| total / n as f64)
    }

    /// The underlying modeler (Fig. 11 diagnostics).
    pub fn modeler(&self) -> &InterferenceModeler {
        &self.fit.modeler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MudiConfig;
    use crate::profiler::LatencyProfiler;
    use workloads::{GroundTruth, Zoo};

    fn build() -> (GroundTruth, InterferencePredictor) {
        let gt = GroundTruth::new(Zoo::standard(), 21);
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(9);
        let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
        let p = InterferencePredictor::new(db, &mut rng).unwrap();
        (gt, p)
    }

    #[test]
    fn unprofiled_batch_falls_back_to_model() {
        let (gt, p) = build();
        let svc = gt.zoo().services()[1].id;
        let task = gt.zoo().profiled_task_ids()[1];
        // Batch 48 was never profiled; the model must answer anyway.
        let arch = LatencyProfiler::merged_arch(&gt, &[task]);
        let c = p.curve_for_arch(svc, &arch, 48).unwrap();
        assert!(c.y0 > 0.0 && c.k1 <= 0.0);
    }

    #[test]
    fn unobserved_tasks_get_predictions() {
        let (gt, p) = build();
        let svc = gt.zoo().service_by_name("GPT2").unwrap().id;
        for &t in &gt.zoo().unobserved_task_ids() {
            let arch = LatencyProfiler::merged_arch(&gt, &[t]);
            let c = p
                .curve_for_arch(svc, &arch, 128)
                .expect("prediction for unobserved task");
            assert!((0.12..=0.92).contains(&c.x0));
        }
    }

    #[test]
    fn max_cutoff_covers_batches() {
        let (gt, p) = build();
        let svc = gt.zoo().services()[0].id;
        let arch = gt.zoo().tasks()[0].arch;
        let all = p.max_cutoff(svc, &arch, &[16, 64, 512]).unwrap();
        let small = p.max_cutoff(svc, &arch, &[16]).unwrap();
        assert!(all >= small);
        assert!(p.max_cutoff(svc, &arch, &[]).is_none());
    }

    #[test]
    fn slope_score_ranks_heavy_tasks_higher() {
        let (gt, p) = build();
        let svc = gt.zoo().service_by_name("ResNet50").unwrap().id;
        let batches = [16u32, 32, 64, 128, 256, 512];
        let heavy = p
            .mean_slope_score(
                svc,
                &gt.zoo().task_by_name("ResNet50-train").unwrap().arch,
                &batches,
            )
            .unwrap();
        let light = p
            .mean_slope_score(svc, &gt.zoo().task_by_name("NCF").unwrap().arch, &batches)
            .unwrap();
        assert!(heavy > light, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn latency_is_positive_everywhere() {
        let (gt, p) = build();
        for svc in gt.zoo().services() {
            let arch = gt.zoo().tasks()[3].arch;
            for frac in [0.1, 0.5, 0.9] {
                let l = p.latency(svc.id, &arch, 64, frac).unwrap();
                assert!(l > 0.0);
            }
        }
    }

    #[test]
    fn replica_shares_the_fit_with_its_own_memo() {
        let (gt, p) = build();
        let svc = gt.zoo().services()[0].id;
        let arch = gt.zoo().tasks()[0].arch;
        let curve = p.curve_for_arch(svc, &arch, 64);
        let r = p.replica();
        assert!(Arc::ptr_eq(p.fit(), r.fit()));
        assert!(r.memo.borrow().is_empty());
        assert_eq!(r.curve_for_arch(svc, &arch, 64), curve);
    }
}
