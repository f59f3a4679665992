//! The Latency Profiler (Fig. 6, module ①).
//!
//! Offline, Mudi measures each inference service's P99 latency across
//! the GPU% grid while co-located with training tasks at various
//! batching sizes (§4.1.1), then fits the piece-wise linear function of
//! Eq. 1 per `(service, batch, co-location)`. The fitted parameter
//! vectors `Y = [k1, k2, Δ0, l0]` become the Interference Modeler's
//! training targets.
//!
//! Only the *first five* task types of Tab. 3 are profiled (§7.1); the
//! remaining four stay unobserved and must be handled through the
//! architecture-based predictor.

use std::collections::HashMap;

use modeling::fit::piecewise::{fit_piecewise, PiecewiseLinear};
use simcore::SimRng;
use workloads::{ColoWorkload, GroundTruth, NetworkArchitecture, ServiceId, TaskId};

use crate::config::MudiConfig;

/// Identifies one profiled co-location: a service at a batching size
/// sharing the GPU with a (sorted) multiset of training-task types.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// The inference service.
    pub service: ServiceId,
    /// The inference batching size.
    pub batch: u32,
    /// Co-located training-task types, sorted.
    pub tasks: Vec<TaskId>,
}

impl ProfileKey {
    /// Creates a key, normalizing task order.
    pub fn new(service: ServiceId, batch: u32, mut tasks: Vec<TaskId>) -> Self {
        tasks.sort();
        ProfileKey {
            service,
            batch,
            tasks,
        }
    }
}

/// One fitted profile record.
#[derive(Clone, Debug)]
pub struct ProfileRecord {
    /// What was profiled.
    pub key: ProfileKey,
    /// The fitted Eq. 1 curve (latency in seconds vs GPU fraction).
    pub curve: PiecewiseLinear,
    /// Cumulative architecture of the co-located tasks (§5.5).
    pub merged_arch: NetworkArchitecture,
    /// Number of raw latency observations consumed.
    pub observations: usize,
}

/// The collection of fitted curves.
#[derive(Clone, Debug, Default)]
pub struct ProfileDatabase {
    records: Vec<ProfileRecord>,
    index: HashMap<ProfileKey, usize>,
}

impl ProfileDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a record.
    pub fn insert(&mut self, record: ProfileRecord) {
        if let Some(&i) = self.index.get(&record.key) {
            self.records[i] = record;
        } else {
            self.index.insert(record.key.clone(), self.records.len());
            self.records.push(record);
        }
    }

    /// Looks up the fitted curve for an exact co-location.
    pub fn get(&self, key: &ProfileKey) -> Option<&ProfileRecord> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// All records.
    pub fn records(&self) -> &[ProfileRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total raw observations consumed — the profiling overhead metric.
    pub fn total_observations(&self) -> usize {
        self.records.iter().map(|r| r.observations).sum()
    }

    /// Records for one service (the per-service learning corpus).
    pub fn for_service(&self, service: ServiceId) -> impl Iterator<Item = &ProfileRecord> {
        self.records
            .iter()
            .filter(move |r| r.key.service == service)
    }
}

/// The offline latency profiler.
#[derive(Clone, Debug)]
pub struct LatencyProfiler {
    config: MudiConfig,
}

impl LatencyProfiler {
    /// Creates a profiler.
    ///
    /// # Panics
    ///
    /// Panics if `config.observations_per_point` is zero (a point has
    /// no P99) or `config.profile_fractions` is empty (no GPU% to
    /// probe).
    pub fn new(config: MudiConfig) -> Self {
        assert!(
            config.observations_per_point > 0,
            "MudiConfig::observations_per_point must be positive"
        );
        assert!(
            !config.profile_fractions.is_empty(),
            "MudiConfig::profile_fractions must not be empty"
        );
        LatencyProfiler { config }
    }

    /// The GPU% sample points used per fit: `samples_per_fit` points
    /// spread evenly across the 10–90 % grid.
    pub fn sample_fractions(&self) -> Vec<f64> {
        let grid = &self.config.profile_fractions;
        let n = self.config.samples_per_fit.min(grid.len()).max(3);
        (0..n)
            .map(|i| {
                let pos = i as f64 * (grid.len() - 1) as f64 / (n - 1) as f64;
                grid[pos.round() as usize]
            })
            .collect()
    }

    /// Profiles one co-location and fits Eq. 1.
    ///
    /// At each probed GPU fraction Δ the co-located training tasks hold
    /// the remaining `(1 − Δ)` evenly, as the Tuner would configure
    /// them. Returns the record, or `None` if fitting failed (requires
    /// at least three sample points).
    pub fn profile(
        &self,
        gt: &GroundTruth,
        service: ServiceId,
        batch: u32,
        tasks: &[TaskId],
        rng: &mut SimRng,
    ) -> Option<ProfileRecord> {
        let key = ProfileKey::new(service, batch, tasks.to_vec());
        let mut points = Vec::new();
        let mut observations = 0usize;
        for &frac in &self.sample_fractions() {
            let colo = Self::colo_at(gt, &key.tasks, frac);
            // P99 over the configured number of observations; the
            // point's mean phases and noise are computed once.
            let noise = gt.phase_noise(service, batch, frac, &colo);
            let mut samples: Vec<f64> = (0..self.config.observations_per_point)
                .map(|_| noise.sample(rng).total())
                .collect();
            observations += samples.len();
            let p99_idx = ((samples.len() as f64 * 0.99).ceil() as usize).min(samples.len()) - 1;
            let (_, &mut p99, _) = samples.select_nth_unstable_by(p99_idx, |a, b| {
                a.partial_cmp(b).expect("finite latencies")
            });
            points.push((frac, p99));
        }
        let curve = fit_piecewise(&points)?;
        let merged_arch = Self::merged_arch(gt, &key.tasks);
        Some(ProfileRecord {
            key,
            curve,
            merged_arch,
            observations,
        })
    }

    /// The co-location set at a probed inference fraction.
    fn colo_at(_gt: &GroundTruth, tasks: &[TaskId], inf_fraction: f64) -> Vec<ColoWorkload> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let share = ((1.0 - inf_fraction) / tasks.len() as f64).max(0.01);
        tasks
            .iter()
            .map(|&t| ColoWorkload::training(t, share))
            .collect()
    }

    /// Cumulative architecture features of a task set (§5.5).
    pub fn merged_arch(gt: &GroundTruth, tasks: &[TaskId]) -> NetworkArchitecture {
        tasks.iter().fold(NetworkArchitecture::empty(), |acc, &t| {
            acc.merged_with(&gt.zoo().task(t).arch)
        })
    }

    /// Builds the standard offline database: every service × profile
    /// batch × single co-located task from `tasks` (plus the solo
    /// baseline).
    pub fn build_database(
        &self,
        gt: &GroundTruth,
        tasks: &[TaskId],
        rng: &mut SimRng,
    ) -> ProfileDatabase {
        let mut db = ProfileDatabase::new();
        for svc in gt.zoo().services() {
            for &batch in &self.config.profile_batches {
                // Solo baseline.
                if let Some(rec) = self.profile(gt, svc.id, batch, &[], rng) {
                    db.insert(rec);
                }
                for &task in tasks {
                    if let Some(rec) = self.profile(gt, svc.id, batch, &[task], rng) {
                        db.insert(rec);
                    }
                }
            }
        }
        db
    }

    /// Extends a database with two- and three-task co-locations for
    /// Mudi-more (§5.5). `pairs_per_service` bounds the sampling.
    pub fn extend_multi_task(
        &self,
        gt: &GroundTruth,
        db: &mut ProfileDatabase,
        tasks: &[TaskId],
        rng: &mut SimRng,
    ) {
        for svc in gt.zoo().services() {
            for &batch in &self.config.profile_batches {
                for (i, &a) in tasks.iter().enumerate() {
                    for &b in &tasks[i..] {
                        if let Some(rec) = self.profile(gt, svc.id, batch, &[a, b], rng) {
                            db.insert(rec);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Zoo;

    fn setup() -> (GroundTruth, LatencyProfiler, SimRng) {
        (
            GroundTruth::new(Zoo::standard(), 11),
            LatencyProfiler::new(MudiConfig::default()),
            SimRng::seed(1),
        )
    }

    #[test]
    fn sample_fractions_span_the_grid() {
        let (_, p, _) = setup();
        let f = p.sample_fractions();
        assert_eq!(f.len(), 6);
        assert!((f[0] - 0.1).abs() < 1e-12);
        assert!((f[5] - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "observations_per_point")]
    fn zero_observations_per_point_is_rejected() {
        LatencyProfiler::new(MudiConfig {
            observations_per_point: 0,
            ..MudiConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "profile_fractions")]
    fn empty_profile_fractions_are_rejected() {
        LatencyProfiler::new(MudiConfig {
            profile_fractions: Vec::new(),
            ..MudiConfig::default()
        });
    }

    #[test]
    fn profile_fits_a_descending_curve() {
        let (gt, p, mut rng) = setup();
        let svc = gt.zoo().service_by_name("GPT2").unwrap().id;
        let task = gt.zoo().task_by_name("VGG16").unwrap().id;
        let rec = p.profile(&gt, svc, 64, &[task], &mut rng).unwrap();
        assert!(rec.curve.k1 < 0.0, "left slope {}", rec.curve.k1);
        assert!(rec.curve.k1 < rec.curve.k2, "left steeper than right");
        assert!((0.1..=0.9).contains(&rec.curve.x0));
        assert!(rec.curve.y0 > 0.0);
        assert_eq!(rec.observations, 6 * 200);
    }

    #[test]
    fn fitted_curve_approximates_ground_truth() {
        let (gt, p, mut rng) = setup();
        let svc = gt.zoo().service_by_name("BERT").unwrap().id;
        let task = gt.zoo().task_by_name("LSTM").unwrap().id;
        let rec = p.profile(&gt, svc, 128, &[task], &mut rng).unwrap();
        // Compare against the analytic P99 at held-out fractions.
        for frac in [0.25, 0.55, 0.85] {
            let colo = [ColoWorkload::training(task, (1.0f64 - frac).max(0.01))];
            let truth = gt.p99_inference_latency(svc, 128, frac, &colo);
            let pred = rec.curve.eval(frac);
            let err = (pred - truth).abs() / truth;
            assert!(err < 0.30, "err {err} at {frac}");
        }
    }

    #[test]
    fn colocation_steepens_the_fit() {
        let (gt, p, mut rng) = setup();
        let svc = gt.zoo().service_by_name("ResNet50").unwrap().id;
        let solo = p.profile(&gt, svc, 64, &[], &mut rng).unwrap();
        let yolo = gt.zoo().task_by_name("YOLOv5").unwrap().id;
        let colo = p.profile(&gt, svc, 64, &[yolo], &mut rng).unwrap();
        assert!(
            colo.curve.mean_slope_magnitude() > solo.curve.mean_slope_magnitude(),
            "colo {} vs solo {}",
            colo.curve.mean_slope_magnitude(),
            solo.curve.mean_slope_magnitude()
        );
    }

    #[test]
    fn database_covers_services_batches_tasks() {
        let (gt, p, mut rng) = setup();
        let tasks = gt.zoo().profiled_task_ids();
        let db = p.build_database(&gt, &tasks, &mut rng);
        // 6 services × 6 batches × (5 tasks + solo) = 216 records.
        assert_eq!(db.len(), 6 * 6 * 6);
        assert!(db.total_observations() > 0);
        let key = ProfileKey::new(
            gt.zoo().service_by_name("GPT2").unwrap().id,
            64,
            vec![tasks[0]],
        );
        assert!(db.get(&key).is_some());
    }

    #[test]
    fn database_replaces_duplicates() {
        let (gt, p, mut rng) = setup();
        let svc = gt.zoo().services()[0].id;
        let mut db = ProfileDatabase::new();
        let rec = p.profile(&gt, svc, 16, &[], &mut rng).unwrap();
        db.insert(rec.clone());
        db.insert(rec);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn merged_arch_accumulates() {
        let (gt, _, _) = setup();
        let a = gt.zoo().task_by_name("VGG16").unwrap().id;
        let b = gt.zoo().task_by_name("NCF").unwrap().id;
        let merged = LatencyProfiler::merged_arch(&gt, &[a, b]);
        assert_eq!(
            merged.total_layers(),
            gt.zoo().task(a).arch.total_layers() + gt.zoo().task(b).arch.total_layers()
        );
    }

    #[test]
    fn profile_key_normalizes_order() {
        let k1 = ProfileKey::new(ServiceId(0), 16, vec![TaskId(3), TaskId(1)]);
        let k2 = ProfileKey::new(ServiceId(0), 16, vec![TaskId(1), TaskId(3)]);
        assert_eq!(k1, k2);
    }
}
