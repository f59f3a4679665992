//! The Interference Modeler (Fig. 6, module ②).
//!
//! Learns, per inference service, the mapping from `X = [Ψ, b]` — the
//! co-located training tasks' cumulative layer counts plus the
//! inference batching size — to the Eq. 1 parameters
//! `Y = [k1, k2, Δ0, l0]` (§4.1.2). Each of the four targets gets its
//! own cross-validated model selection over the lightweight learner
//! family (RF, SVR, kNN, ridge), and the model can be updated
//! incrementally as latency samples from new co-locations arrive
//! (§7.3, Fig. 12).

use std::collections::HashMap;

use modeling::fit::piecewise::PiecewiseLinear;
use modeling::regressor::{Dataset, RegressorKind};
use modeling::select::{select_best_model, SelectionReport};
use simcore::SimRng;
use workloads::{NetworkArchitecture, ServiceId};

use crate::profiler::ProfileDatabase;

/// The four learned targets, in `Y` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TargetParam {
    /// Left-segment slope `k1`.
    K1,
    /// Right-segment slope `k2`.
    K2,
    /// Cutoff abscissa `Δ0`.
    X0,
    /// Cutoff ordinate `l0`.
    Y0,
}

impl TargetParam {
    /// All targets in `Y` order.
    pub const ALL: [TargetParam; 4] = [
        TargetParam::K1,
        TargetParam::K2,
        TargetParam::X0,
        TargetParam::Y0,
    ];

    /// Display name (Fig. 11 labels).
    pub fn name(self) -> &'static str {
        match self {
            TargetParam::K1 => "k1",
            TargetParam::K2 => "k2",
            TargetParam::X0 => "Δ0",
            TargetParam::Y0 => "l0",
        }
    }

    fn extract(self, curve: &PiecewiseLinear) -> f64 {
        match self {
            TargetParam::K1 => curve.k1,
            TargetParam::K2 => curve.k2,
            TargetParam::X0 => curve.x0,
            TargetParam::Y0 => curve.y0,
        }
    }
}

/// Builds the feature row: the 11 raw layer counts (Fig. 7), the
/// log-scaled batching size, and three engineered aggregates that let
/// the learners generalize across layer *types* never seen in the
/// profiled set (e.g. encoder blocks when only conv nets were
/// profiled): the total layer count, a compute-heavy layer count
/// (conv/encoder/decoder/linear/fc), and a normalization-layer count.
pub fn feature_row(arch: &NetworkArchitecture, batch: u32) -> Vec<f64> {
    use workloads::LayerKind;
    let mut row = arch.features().to_vec();
    // Log-scale the batch so the learners see doublings linearly.
    row.push((batch.max(1) as f64).log2());
    row.push(arch.total_layers() as f64);
    let heavy = arch.count(LayerKind::Conv)
        + arch.count(LayerKind::Encoder)
        + arch.count(LayerKind::Decoder)
        + arch.count(LayerKind::Linear)
        + arch.count(LayerKind::Fc);
    row.push(heavy as f64);
    row.push(arch.count(LayerKind::BatchNorm) as f64);
    row
}

/// One service's four trained target models.
struct ServiceModels {
    models: HashMap<TargetParam, SelectionReport>,
    data: HashMap<TargetParam, Dataset>,
    /// Observed (encoded) target ranges, used to clamp extrapolations.
    ranges: HashMap<TargetParam, (f64, f64)>,
    /// Solo (no co-location) reference curves per profiled batch,
    /// sorted by batch. Targets are learned *relative* to these —
    /// interference is a ratio, which removes the batch-scale dimension
    /// from the learning problem and generalizes across layer types.
    solo: Vec<(u32, PiecewiseLinear)>,
}

impl ServiceModels {
    /// The solo reference at a batch, linearly interpolated between the
    /// profiled batches on each parameter.
    fn solo_at(&self, batch: u32) -> Option<PiecewiseLinear> {
        if self.solo.is_empty() {
            return None;
        }
        let b = batch as f64;
        if b <= self.solo[0].0 as f64 {
            return Some(self.solo[0].1);
        }
        if b >= self.solo[self.solo.len() - 1].0 as f64 {
            return Some(self.solo[self.solo.len() - 1].1);
        }
        for w in self.solo.windows(2) {
            let (b0, c0) = (w[0].0 as f64, w[0].1);
            let (b1, c1) = (w[1].0 as f64, w[1].1);
            if b >= b0 && b <= b1 {
                let t = (b - b0) / (b1 - b0);
                let p0 = c0.params();
                let p1 = c1.params();
                let mut p = [0.0; 4];
                for i in 0..4 {
                    p[i] = p0[i] + t * (p1[i] - p0[i]);
                }
                return Some(PiecewiseLinear::from_params(p));
            }
        }
        None
    }
}

/// Encodes a co-located curve's parameter relative to the solo
/// reference: slopes and the cutoff latency as log ratios, the cutoff
/// abscissa as a difference.
fn encode_relative(target: TargetParam, colo: f64, solo: f64) -> f64 {
    match target {
        TargetParam::K1 | TargetParam::K2 => ((-colo).max(1e-9) / (-solo).max(1e-9)).ln(),
        TargetParam::Y0 => (colo.max(1e-9) / solo.max(1e-9)).ln(),
        TargetParam::X0 => colo - solo,
    }
}

/// Inverts [`encode_relative`].
fn decode_relative(target: TargetParam, learned: f64, solo: f64) -> f64 {
    match target {
        TargetParam::K1 | TargetParam::K2 => -((-solo).max(1e-9) * learned.exp()),
        TargetParam::Y0 => solo.max(1e-9) * learned.exp(),
        TargetParam::X0 => solo + learned,
    }
}

/// Slack (in encoded/log space) allowed beyond the observed target
/// range before a prediction is clamped — roughly a 1.5x margin.
const RANGE_SLACK: f64 = 0.4;

/// The trained interference modeler.
pub struct InterferenceModeler {
    per_service: HashMap<ServiceId, ServiceModels>,
}

impl InterferenceModeler {
    /// Trains from an offline profile database.
    ///
    /// Returns `None` if the database has no records.
    pub fn train(db: &ProfileDatabase, rng: &mut SimRng) -> Option<Self> {
        if db.is_empty() {
            return None;
        }
        let mut per_service = HashMap::new();
        let service_ids: Vec<ServiceId> = {
            let mut ids: Vec<ServiceId> = db.records().iter().map(|r| r.key.service).collect();
            ids.sort();
            ids.dedup();
            ids
        };
        for service in service_ids {
            // Solo reference curves for this service.
            let mut solo: Vec<(u32, PiecewiseLinear)> = db
                .for_service(service)
                .filter(|r| r.key.tasks.is_empty())
                .map(|r| (r.key.batch, r.curve))
                .collect();
            solo.sort_by_key(|&(b, _)| b);
            let skeleton = ServiceModels {
                models: HashMap::new(),
                data: HashMap::new(),
                ranges: HashMap::new(),
                solo,
            };

            let mut data: HashMap<TargetParam, Dataset> = TargetParam::ALL
                .iter()
                .map(|&t| (t, Dataset::new()))
                .collect();
            for rec in db.for_service(service) {
                if rec.key.tasks.is_empty() {
                    continue; // Solo rows are the reference, not data.
                }
                let Some(solo_ref) = skeleton.solo_at(rec.key.batch) else {
                    continue;
                };
                let row = feature_row(&rec.merged_arch, rec.key.batch);
                for &target in &TargetParam::ALL {
                    let y = encode_relative(
                        target,
                        target.extract(&rec.curve),
                        target.extract(&solo_ref),
                    );
                    data.get_mut(&target)
                        .expect("all targets present")
                        .push(row.clone(), y);
                }
            }
            if data[&TargetParam::K1].is_empty() {
                // Solo-only database (e.g. the gpulets baseline): learn
                // a zero-interference model from the solo rows so
                // prediction still works.
                for rec in db.for_service(service) {
                    let row = feature_row(&rec.merged_arch, rec.key.batch);
                    for &target in &TargetParam::ALL {
                        data.get_mut(&target)
                            .expect("all targets present")
                            .push(row.clone(), 0.0);
                    }
                }
            }
            let mut models = HashMap::new();
            for &target in &TargetParam::ALL {
                let report = select_best_model(&data[&target], 4, rng)?;
                models.insert(target, report);
            }
            let ranges = Self::target_ranges(&data);
            per_service.insert(
                service,
                ServiceModels {
                    models,
                    data,
                    ranges,
                    solo: skeleton.solo,
                },
            );
        }
        Some(InterferenceModeler { per_service })
    }

    /// Predicts the Eq. 1 curve for a service co-located with training
    /// work of the given cumulative architecture at a batching size.
    ///
    /// Returns `None` when the service was never profiled.
    pub fn predict(
        &self,
        service: ServiceId,
        arch: &NetworkArchitecture,
        batch: u32,
    ) -> Option<PiecewiseLinear> {
        let models = self.per_service.get(&service)?;
        let solo = models.solo_at(batch)?;
        let row = feature_row(arch, batch);
        let raw: HashMap<TargetParam, f64> = TargetParam::ALL
            .iter()
            .map(|&t| {
                let encoded = models.models[&t].model.predict(&row);
                let (lo, hi) = models.ranges[&t];
                let clamped = encoded.clamp(lo - RANGE_SLACK, hi + RANGE_SLACK);
                (t, decode_relative(t, clamped, t.extract(&solo)))
            })
            .collect();
        // Physical clamps: slopes non-positive, cutoff within the MPS
        // range, latency positive — and interference is non-negative,
        // so the co-located curve can never dip below the solo curve:
        // the cutoff latency is at least the solo one, and the right
        // segment cannot descend past the solo latency at 100 % GPU.
        // These bounds tame the noisy k2 estimate (its fitted value
        // rests on only a few profiled points past the knee).
        let x0 = raw[&TargetParam::X0].clamp(0.12, 0.92);
        let y0 = raw[&TargetParam::Y0].max(solo.y0).max(1e-4);
        let floor_at_full = solo.eval(1.0).max(1e-4);
        let k2_bound = (floor_at_full - y0) / (1.0 - x0).max(0.05);
        let k2 = raw[&TargetParam::K2].max(k2_bound).min(0.0);
        let k1 = raw[&TargetParam::K1].min(k2);
        Some(PiecewiseLinear { k1, k2, x0, y0 })
    }

    /// Which learner kind won the per-metric selection (Fig. 11's
    /// annotation above each bar).
    pub fn chosen_kind(&self, service: ServiceId, target: TargetParam) -> Option<RegressorKind> {
        Some(self.selection(service, target)?.kind)
    }

    /// The full model-selection outcome for one service/target: the
    /// winner and every candidate's cross-validation error.
    pub fn selection(&self, service: ServiceId, target: TargetParam) -> Option<&SelectionReport> {
        Some(&self.per_service.get(&service)?.models[&target])
    }

    /// Incrementally adds newly fitted curves (e.g. from online
    /// co-locations with previously unseen tasks) and retrains the
    /// affected services (§4.1.2: "the prediction model … can be
    /// incrementally updated").
    pub fn update(&mut self, db: &ProfileDatabase, rng: &mut SimRng) {
        for rec in db.records() {
            let Some(svc) = self.per_service.get_mut(&rec.key.service) else {
                continue;
            };
            if rec.key.tasks.is_empty() {
                continue; // Fresh solo profiles only refresh references.
            }
            let Some(solo_ref) = svc.solo_at(rec.key.batch) else {
                continue;
            };
            let row = feature_row(&rec.merged_arch, rec.key.batch);
            for &target in &TargetParam::ALL {
                let y = encode_relative(
                    target,
                    target.extract(&rec.curve),
                    target.extract(&solo_ref),
                );
                svc.data
                    .get_mut(&target)
                    .expect("all targets present")
                    .push(row.clone(), y);
            }
        }
        for svc in self.per_service.values_mut() {
            for &target in &TargetParam::ALL {
                if let Some(report) = select_best_model(&svc.data[&target], 4, rng) {
                    svc.models.insert(target, report);
                }
            }
            svc.ranges = Self::target_ranges(&svc.data);
        }
    }

    /// Min/max of the encoded targets per parameter.
    fn target_ranges(data: &HashMap<TargetParam, Dataset>) -> HashMap<TargetParam, (f64, f64)> {
        TargetParam::ALL
            .iter()
            .map(|&t| {
                let ys = &data[&t].targets;
                let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                (t, (lo, hi))
            })
            .collect()
    }

    /// Services covered by the modeler.
    pub fn services(&self) -> Vec<ServiceId> {
        let mut ids: Vec<ServiceId> = self.per_service.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The encoded training set of one service/target — what model
    /// selection cross-validated (Fig. 11 diagnostics).
    pub fn training_data(&self, service: ServiceId, target: TargetParam) -> Option<&Dataset> {
        Some(&self.per_service.get(&service)?.data[&target])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MudiConfig;
    use crate::profiler::LatencyProfiler;
    use workloads::{GroundTruth, Zoo};

    fn trained() -> (GroundTruth, InterferenceModeler) {
        let gt = GroundTruth::new(Zoo::standard(), 5);
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(3);
        let db = profiler.build_database(&gt, &gt.zoo().profiled_task_ids(), &mut rng);
        let modeler = InterferenceModeler::train(&db, &mut rng).unwrap();
        (gt, modeler)
    }

    #[test]
    fn covers_all_services_with_all_targets() {
        let (gt, m) = trained();
        assert_eq!(m.services().len(), gt.zoo().services().len());
        for svc in gt.zoo().services() {
            for target in TargetParam::ALL {
                assert!(m.chosen_kind(svc.id, target).is_some());
            }
            // 6 batches × 5 colo tasks (solo rows are references).
            assert_eq!(m.training_data(svc.id, TargetParam::K1).unwrap().len(), 30);
        }
    }

    #[test]
    fn predictions_respect_physical_clamps() {
        let (gt, m) = trained();
        for svc in gt.zoo().services() {
            for task in gt.zoo().tasks() {
                for batch in [16u32, 128, 512] {
                    let c = m.predict(svc.id, &task.arch, batch).unwrap();
                    assert!(c.k1 <= 0.0 && c.k2 <= 0.0);
                    assert!((0.12..=0.92).contains(&c.x0));
                    assert!(c.y0 > 0.0);
                }
            }
        }
    }

    #[test]
    fn predicts_observed_tasks_accurately() {
        // On the profiled (seen) tasks the predicted l0 should be close
        // to the fitted ground truth.
        let gt = GroundTruth::new(Zoo::standard(), 5);
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(3);
        let profiled = gt.zoo().profiled_task_ids();
        let db = profiler.build_database(&gt, &profiled, &mut rng);
        let m = InterferenceModeler::train(&db, &mut rng).unwrap();
        let svc = gt.zoo().service_by_name("BERT").unwrap().id;
        for &task in &profiled {
            let arch = gt.zoo().task(task).arch;
            let pred = m.predict(svc, &arch, 64).unwrap();
            let key = crate::profiler::ProfileKey::new(svc, 64, vec![task]);
            let truth = db.get(&key).unwrap().curve;
            let err = (pred.y0 - truth.y0).abs() / truth.y0;
            assert!(err < 0.35, "l0 err {err} for task {task:?}");
        }
    }

    #[test]
    fn generalizes_to_unobserved_tasks() {
        // §7.3: prediction errors for unobserved tasks stay below ~0.3
        // on the cutoff/latency parameters.
        let (gt, m) = trained();
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(99);
        let svc = gt.zoo().service_by_name("ResNet50").unwrap().id;
        let mut x0_errs = Vec::new();
        let mut y0_errs = Vec::new();
        for &task in &gt.zoo().unobserved_task_ids() {
            let truth = profiler
                .profile(&gt, svc, 64, &[task], &mut rng)
                .unwrap()
                .curve;
            let pred = m.predict(svc, &gt.zoo().task(task).arch, 64).unwrap();
            x0_errs.push((pred.x0 - truth.x0).abs() / truth.x0);
            y0_errs.push((pred.y0 - truth.y0).abs() / truth.y0);
        }
        let x0_avg = x0_errs.iter().sum::<f64>() / x0_errs.len() as f64;
        let y0_avg = y0_errs.iter().sum::<f64>() / y0_errs.len() as f64;
        assert!(x0_avg < 0.30, "Δ0 err {x0_avg}");
        assert!(y0_avg < 0.40, "l0 err {y0_avg}");
    }

    #[test]
    fn update_extends_training_data() {
        let (gt, mut m) = trained();
        let svc0 = gt.zoo().services()[0].id;
        let before = m.training_data(svc0, TargetParam::K1).unwrap().len();
        let profiler = LatencyProfiler::new(MudiConfig::default());
        let mut rng = SimRng::seed(7);
        let mut extra = ProfileDatabase::new();
        let unseen = gt.zoo().unobserved_task_ids()[0];
        for svc in gt.zoo().services() {
            if let Some(rec) = profiler.profile(&gt, svc.id, 64, &[unseen], &mut rng) {
                extra.insert(rec);
            }
        }
        m.update(&extra, &mut rng);
        assert_eq!(
            m.training_data(svc0, TargetParam::K1).unwrap().len(),
            before + 1
        );
    }

    #[test]
    fn empty_database_rejected() {
        let mut rng = SimRng::seed(1);
        assert!(InterferenceModeler::train(&ProfileDatabase::new(), &mut rng).is_none());
    }

    #[test]
    fn feature_row_is_arch_logbatch_and_aggregates() {
        use workloads::LayerKind;
        let arch = NetworkArchitecture::from_layers(&[
            (LayerKind::Conv, 3),
            (LayerKind::Encoder, 2),
            (LayerKind::BatchNorm, 4),
        ]);
        let row = feature_row(&arch, 256);
        assert_eq!(row.len(), 15);
        assert_eq!(row[11], 8.0); // log2(256)
        assert_eq!(row[12], 9.0); // total layers
        assert_eq!(row[13], 5.0); // compute-heavy
        assert_eq!(row[14], 4.0); // normalization
    }
}
