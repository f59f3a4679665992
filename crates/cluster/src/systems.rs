//! The multiplexing systems under test.
//!
//! Each system answers two questions for the engine:
//!
//! 1. **Placement** — which device should host an arriving training
//!    task ([`Multiplexer::place`])?
//! 2. **Per-device configuration** — what batching size and GPU
//!    fraction should a device's inference replica use, and may the
//!    co-located training run ([`Multiplexer::configure`])?
//!
//! The baselines are reconstructed from their papers as described in
//! DESIGN.md: GSLICE reacts to latency feedback without interference
//! prediction; gpulets sizes partitions from *solo* profiles with a
//! fixed buffer; MuxFlow matches with pre-profiled pair scores and
//! falls back to averages for unobserved tasks; Random places blindly;
//! Optimal exhaustively searches the ground truth (an oracle upper
//! bound). Only the Mudi family manages memory by swapping — baselines
//! pause training while the device is overcommitted.

use std::collections::HashMap;

use modeling::bo::Memos;
use modeling::solver::min_serving_fraction;
use mudi::{
    DeviceCandidate, DeviceSelector, InterferencePredictor, LatencyProfiler, MudiConfig, Tuner,
};
use simcore::SimRng;
use workloads::{ColoWorkload, GroundTruth, ServiceId, TaskId};

mod p99_memo;

use p99_memo::{P99Memo, COLO_CAP};

/// Which system drives the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Full Mudi (§3-§5).
    Mudi,
    /// Mudi-more: up to three training tasks per GPU (§5.5).
    MudiMore,
    /// Ablation: cluster-wide co-location only, Tuner disabled (§7.3).
    MudiClusterOnly,
    /// Ablation: device-level control only, random placement (§7.3).
    MudiDeviceOnly,
    /// Ablation: full Mudi with the topology-blind flat-pool selector —
    /// reliability prior and fault-domain anti-affinity disabled, and
    /// replicas laid out without rack striping. The control arm of the
    /// fig20 correlated-failure sweep.
    MudiFlat,
    /// GSLICE baseline.
    Gslice,
    /// gpulets baseline.
    Gpulets,
    /// MuxFlow baseline.
    MuxFlow,
    /// Random placement, even split.
    Random,
    /// Exhaustive ground-truth oracle.
    Optimal,
}

impl SystemKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Mudi => "Mudi",
            SystemKind::MudiMore => "Mudi-more",
            SystemKind::MudiClusterOnly => "Mudi-cluster-only",
            SystemKind::MudiDeviceOnly => "Mudi-device-only",
            SystemKind::MudiFlat => "Mudi-flat",
            SystemKind::Gslice => "GSLICE",
            SystemKind::Gpulets => "gpulets",
            SystemKind::MuxFlow => "MuxFlow",
            SystemKind::Random => "Random",
            SystemKind::Optimal => "Optimal",
        }
    }

    /// Whether this system runs Mudi's unified-memory swapping; others
    /// must pause training when the device overflows.
    pub fn manages_memory(self) -> bool {
        matches!(
            self,
            SystemKind::Mudi
                | SystemKind::MudiMore
                | SystemKind::MudiClusterOnly
                | SystemKind::MudiDeviceOnly
                | SystemKind::MudiFlat
        )
    }

    /// Training tasks allowed per GPU.
    pub fn max_trainings(self) -> usize {
        match self {
            SystemKind::MudiMore => 3,
            _ => 1,
        }
    }

    /// Whether this system places with topology awareness: the
    /// reliability prior and fault-domain anti-affinity in the
    /// selector, plus rack-striped replica layout. `MudiFlat` and
    /// every baseline are topology-blind.
    pub fn reliability_aware(self) -> bool {
        matches!(
            self,
            SystemKind::Mudi | SystemKind::MudiMore | SystemKind::MudiClusterOnly
        )
    }
}

/// A device's state as presented to a system for configuration.
#[derive(Clone, Debug)]
pub struct DeviceView {
    /// Device index.
    pub device: usize,
    /// Resident inference service.
    pub service: ServiceId,
    /// Current replica QPS.
    pub qps: f64,
    /// The service's SLO in seconds.
    pub slo_secs: f64,
    /// Co-located training-task types.
    pub tasks: Vec<TaskId>,
    /// Current batching size.
    pub batch: u32,
    /// Current inference GPU fraction.
    pub fraction: f64,
    /// Last measured P99 latency, seconds (feedback systems).
    pub measured_p99: Option<f64>,
    /// Free device memory if the incoming task were placed, GB.
    pub mem_headroom_gb: f64,
}

/// A system's configuration decision for one device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfigDecision {
    /// Inference batching size.
    pub batch: u32,
    /// Inference GPU fraction.
    pub fraction: f64,
    /// Whether co-located training must pause (SLO infeasibility).
    pub pause_training: bool,
    /// BO iterations spent (Mudi; 0 for heuristic systems).
    pub bo_iterations: usize,
    /// Upper bound on the *total* GPU share handed to co-located
    /// training. Interference-aware systems use 1.0 (full leftover);
    /// GSLICE/gpulets cap it to protect inference, idling the rest.
    pub training_share_cap: f64,
}

impl ConfigDecision {
    /// Clamps the inference fraction so the primary plus a warm
    /// standby's reserved slice never overcommits the device. The
    /// reserve is invisible to every tuner (the standby pool sits below
    /// the systems' abstraction), so the engine applies this after
    /// `configure`. A zero reserve leaves the decision untouched.
    pub fn clamp_for_reserve(&mut self, reserve: f64) {
        if reserve > 0.0 {
            self.fraction = self.fraction.min(1.0 - reserve).max(0.01);
        }
    }
}

/// The common interface the engine drives.
///
/// `Send` so a whole engine/session can move to (or be shared behind a
/// mutex with) another thread — the serving control plane steps a
/// session from HTTP handler threads.
pub trait Multiplexer: Send {
    /// Chooses a device for an incoming training task, or `None` to
    /// leave it queued.
    fn place(
        &mut self,
        gt: &GroundTruth,
        incoming: TaskId,
        candidates: &[DeviceCandidate],
        rng: &mut SimRng,
    ) -> Option<usize>;

    /// (Re)configures a device on a trigger (placement, QPS change,
    /// SLO risk). A system that runs the GP-LCB Tuner reads its
    /// proposals from `memos` and records new ones there unless it only
    /// reads; the engine owns the one session memo and lends it to
    /// record in the serial phase and to read in the lane phase.
    fn configure(
        &mut self,
        gt: &GroundTruth,
        view: &DeviceView,
        rng: &mut SimRng,
        memos: Memos<'_>,
    ) -> ConfigDecision;

    /// The system's kind.
    fn kind(&self) -> SystemKind;

    /// A replica for another shard lane. It shares this system's
    /// trained state (the offline predictor fit) and starts its mutable
    /// state — predictor memo, tuner workspace, feedback and decision
    /// caches — empty, exactly as a freshly built system would.
    fn replica(&self) -> Box<dyn Multiplexer>;

    /// The system's interference predictor, when it uses one.
    fn predictor(&self) -> Option<&InterferencePredictor> {
        None
    }
}

/// Builds the system implementation, running any offline profiling it
/// needs (Mudi and MuxFlow profile the first five task types, §7.1).
/// A sharded session builds once and hands each lane a
/// [`Multiplexer::replica`], so the predictor is fitted once.
pub fn build_system(kind: SystemKind, gt: &GroundTruth, rng: &mut SimRng) -> Box<dyn Multiplexer> {
    match kind {
        SystemKind::Mudi
        | SystemKind::MudiMore
        | SystemKind::MudiClusterOnly
        | SystemKind::MudiDeviceOnly
        | SystemKind::MudiFlat => Box::new(MudiSystem::new(kind, gt, rng)),
        SystemKind::Gslice => Box::new(Gslice::new(gt, rng)),
        SystemKind::Gpulets => Box::new(Gpulets::new(gt, rng)),
        SystemKind::MuxFlow => Box::new(MuxFlow::new(gt, rng)),
        SystemKind::Random => Box::new(RandomSystem),
        SystemKind::Optimal => Box::new(Optimal::default()),
    }
}

// ----------------------------------------------------------------------
// Mudi (full system + ablations).
// ----------------------------------------------------------------------

/// The Mudi family, parameterized by which halves are enabled.
pub struct MudiSystem {
    kind: SystemKind,
    config: MudiConfig,
    predictor: InterferencePredictor,
    selector: DeviceSelector,
    tuner: Tuner,
    /// The tuner's ground-truth P99 probes, memoized per replica.
    p99_memo: P99Memo,
}

impl MudiSystem {
    /// Profiles offline and trains the predictor.
    pub fn new(kind: SystemKind, gt: &GroundTruth, rng: &mut SimRng) -> Self {
        let config = match kind {
            SystemKind::MudiMore => MudiConfig::more(),
            SystemKind::MudiFlat => MudiConfig::flat(),
            _ => MudiConfig::default(),
        };
        let profiler = LatencyProfiler::new(config.clone());
        let mut prof_rng = rng.fork("offline-profiling");
        let profiled = gt.zoo().profiled_task_ids();
        let mut db = profiler.build_database(gt, &profiled, &mut prof_rng);
        if kind == SystemKind::MudiMore {
            profiler.extend_multi_task(gt, &mut db, &profiled, &mut prof_rng);
        }
        let predictor = InterferencePredictor::new(db, &mut prof_rng)
            .expect("offline profiling produced a non-empty database");
        Self::with_predictor(kind, config, predictor)
    }

    fn with_predictor(
        kind: SystemKind,
        config: MudiConfig,
        predictor: InterferencePredictor,
    ) -> Self {
        MudiSystem {
            kind,
            selector: DeviceSelector::new(config.clone()),
            tuner: Tuner::new(config.clone()),
            config,
            predictor,
            p99_memo: P99Memo::new(),
        }
    }
}

impl Multiplexer for MudiSystem {
    fn place(
        &mut self,
        gt: &GroundTruth,
        incoming: TaskId,
        candidates: &[DeviceCandidate],
        rng: &mut SimRng,
    ) -> Option<usize> {
        if self.kind == SystemKind::MudiDeviceOnly {
            return self
                .selector
                .select_random(candidates, rng)
                .map(|d| d.device);
        }
        self.selector
            .select(gt, &self.predictor, incoming, candidates)
            .map(|d| d.device)
    }

    fn configure(
        &mut self,
        gt: &GroundTruth,
        view: &DeviceView,
        rng: &mut SimRng,
        memos: Memos<'_>,
    ) -> ConfigDecision {
        let arch = LatencyProfiler::merged_arch(gt, &view.tasks);
        if self.kind == SystemKind::MudiClusterOnly {
            // Tuner disabled: static configuration from the predictor —
            // the initial fraction (max cutoff) and a mid-range batch.
            let fraction = self
                .tuner
                .initial_fraction(&self.predictor, view.service, &arch);
            let batch = best_static_batch(
                &self.config,
                &self.predictor,
                view.service,
                view.slo_secs,
                view.qps,
                tokens_per_request(gt, view.service),
                &arch,
            );
            return ConfigDecision {
                batch,
                fraction,
                pause_training: false,
                bo_iterations: 0,
                training_share_cap: 1.0,
            };
        }

        // Full tuner: GP-LCB adaptive batching + Eq. 4 scaling, with
        // observed training iteration times from the Training Agent
        // (sampled from the ground truth, as a real agent would
        // measure).
        let mut sample_rng = rng.fork("iteration-samples");
        let tasks = view.tasks.as_slice();
        let service = view.service;
        // The tuner probes both closures once per BO evaluation; the
        // co-location views are built in fixed stack buffers (a device
        // hosts at most MAX_TRAININGS_PER_GPU trainings plus one
        // inference replica) so a tuning pass never allocates.
        let p99_memo = &mut self.p99_memo;
        let outcome = self.tuner.tune(
            &self.predictor,
            service,
            view.slo_secs,
            view.qps,
            tokens_per_request(gt, service),
            &arch,
            |batch, frac| {
                if tasks.is_empty() {
                    // No co-located training: prefer the smallest
                    // inference footprint.
                    return frac;
                }
                let share = ((1.0 - frac) / tasks.len() as f64).max(0.01);
                tasks
                    .iter()
                    .map(|&t| {
                        let mut colo = [ColoWorkload::inference(service, batch, frac); COLO_CAP];
                        let mut n = 1;
                        for &o in tasks {
                            if o != t {
                                colo[n] = ColoWorkload::training(o, share);
                                n += 1;
                            }
                        }
                        gt.sample_training_iteration(t, share, &colo[..n], &mut sample_rng)
                    })
                    .sum::<f64>()
            },
            // Online tail-latency measurement (§5.3.1's live constraint
            // feedback): the Service Agent reports the observed P99
            // under the probed configuration.
            |batch, frac| p99_memo.p99(gt, service, batch, frac, tasks),
            rng,
            memos,
        );
        ConfigDecision {
            batch: outcome.batch,
            fraction: outcome.gpu_fraction,
            pause_training: !outcome.feasible,
            bo_iterations: outcome.bo_iterations,
            training_share_cap: 1.0,
        }
    }

    fn kind(&self) -> SystemKind {
        self.kind
    }

    fn replica(&self) -> Box<dyn Multiplexer> {
        Box::new(Self::with_predictor(
            self.kind,
            self.config.clone(),
            self.predictor.replica(),
        ))
    }

    fn predictor(&self) -> Option<&InterferencePredictor> {
        Some(&self.predictor)
    }
}

/// Mean decode tokens per request for a generative service, 0.0 for a
/// classifier. The discriminant every sizing path branches on: a
/// positive value switches the solver to the decode-loop budget where
/// `batch` means running-batch concurrency and `slo` the ITL target.
fn tokens_per_request(gt: &GroundTruth, service: ServiceId) -> f64 {
    gt.zoo()
        .service(service)
        .generative
        .map_or(0.0, |g| g.decode_tokens_mean)
}

/// Static batch choice used when the Tuner is ablated: the candidate
/// with the smallest predicted required fraction (feasible ones first).
fn best_static_batch(
    config: &MudiConfig,
    predictor: &InterferencePredictor,
    service: ServiceId,
    slo_secs: f64,
    qps: f64,
    tokens_per_request: f64,
    arch: &workloads::NetworkArchitecture,
) -> u32 {
    let mut best: Option<(u32, f64)> = None;
    for &b in &config.batch_candidates {
        let Some(curve) = predictor.curve_for_arch(service, arch, b) else {
            continue;
        };
        let frac = min_serving_fraction(
            &curve,
            qps,
            tokens_per_request,
            b as f64,
            slo_secs,
            config.min_inference_fraction,
            config.max_inference_fraction,
        );
        if let Some(frac) = frac {
            if best.is_none_or(|(_, bf)| frac < bf) {
                best = Some((b, frac));
            }
        }
    }
    best.map(|(b, _)| b).unwrap_or(16)
}

// ----------------------------------------------------------------------
// GSLICE.
// ----------------------------------------------------------------------

/// GSLICE: per-device GPU partitioning driven by latency/throughput
/// feedback. No interference prediction, no cluster-wide coordination —
/// placement is least-loaded. Partitions grow on SLO pressure and
/// shrink slowly when comfortable, so it over-provisions inference.
pub struct Gslice {
    /// Per-device fraction state (feedback controller memory).
    fractions: HashMap<usize, f64>,
    _rng: SimRng,
}

impl Gslice {
    /// Creates the baseline.
    pub fn new(_gt: &GroundTruth, rng: &mut SimRng) -> Self {
        Gslice {
            fractions: HashMap::new(),
            _rng: rng.fork("gslice"),
        }
    }
}

impl Multiplexer for Gslice {
    fn place(
        &mut self,
        _gt: &GroundTruth,
        _incoming: TaskId,
        candidates: &[DeviceCandidate],
        _rng: &mut SimRng,
    ) -> Option<usize> {
        // Least-loaded: fewest co-located tasks, then lowest index.
        candidates
            .iter()
            .filter(|c| c.existing_tasks.is_empty())
            .min_by_key(|c| c.device)
            .map(|c| c.device)
    }

    fn configure(
        &mut self,
        gt: &GroundTruth,
        view: &DeviceView,
        _rng: &mut SimRng,
        _memos: Memos<'_>,
    ) -> ConfigDecision {
        // Batch: largest candidate whose fill wait stays under half the
        // SLO (a throughput-oriented heuristic without a latency model).
        // For a generative service the fill-wait notion is meaningless
        // (continuous batching has no batch-fill barrier), so GSLICE
        // sizes the running-batch cap to cover twice the tokens that
        // arrive per ITL period — throughput headroom, still blind to
        // the iteration-latency cost of concurrency.
        let toks = tokens_per_request(gt, view.service);
        let batch = if toks > 0.0 {
            let tok_rate = view.qps * toks;
            [2u32, 4, 8, 16, 32, 64, 128, 256, 512]
                .into_iter()
                .find(|&b| b as f64 >= tok_rate * view.slo_secs * 2.0)
                .unwrap_or(512)
        } else {
            [512u32, 256, 128, 64, 32, 16, 8, 4, 2]
                .into_iter()
                .find(|&b| view.qps > 0.0 && (b as f64 / view.qps) <= view.slo_secs * 0.5)
                .unwrap_or(2)
        };
        // Fraction: feedback steps on the measured P99.
        let f = self.fractions.entry(view.device).or_insert(0.60);
        if let Some(p99) = view.measured_p99 {
            if p99 > view.slo_secs * 0.9 {
                *f = (*f + 0.10).min(0.90);
            } else if p99 < view.slo_secs * 0.5 {
                *f = (*f - 0.03).max(0.40); // Conservative floor: over-provisions.
            }
        }
        ConfigDecision {
            batch,
            fraction: *f,
            pause_training: false,
            bo_iterations: 0,
            training_share_cap: 0.6,
        }
    }

    fn kind(&self) -> SystemKind {
        SystemKind::Gslice
    }

    fn replica(&self) -> Box<dyn Multiplexer> {
        Box::new(Gslice {
            fractions: HashMap::new(),
            _rng: self._rng.clone(),
        })
    }
}

// ----------------------------------------------------------------------
// gpulets.
// ----------------------------------------------------------------------

/// gpulets: sizes each inference "gpulet" from **solo** latency
/// profiles plus a fixed 10 % interference buffer, then best-fit packs
/// training into the leftover. Cross-workload interference beyond the
/// buffer is invisible to it.
pub struct Gpulets {
    predictor: InterferencePredictor,
    config: MudiConfig,
}

impl Gpulets {
    /// Profiles solo curves only (no co-location awareness).
    pub fn new(gt: &GroundTruth, rng: &mut SimRng) -> Self {
        let config = MudiConfig::default();
        let profiler = LatencyProfiler::new(config.clone());
        let mut prof_rng = rng.fork("gpulets-profiling");
        // Solo-only database: pass an empty task list.
        let db = profiler.build_database(gt, &[], &mut prof_rng);
        let predictor =
            InterferencePredictor::new(db, &mut prof_rng).expect("solo profiles available");
        Gpulets { predictor, config }
    }
}

impl Multiplexer for Gpulets {
    fn place(
        &mut self,
        _gt: &GroundTruth,
        _incoming: TaskId,
        candidates: &[DeviceCandidate],
        _rng: &mut SimRng,
    ) -> Option<usize> {
        // Best-fit by memory headroom: the fullest device that still
        // fits, a packing heuristic blind to interference type.
        candidates
            .iter()
            .filter(|c| c.existing_tasks.is_empty())
            .min_by(|a, b| {
                a.mem_headroom_gb
                    .partial_cmp(&b.mem_headroom_gb)
                    .expect("finite headroom")
            })
            .map(|c| c.device)
    }

    fn configure(
        &mut self,
        gt: &GroundTruth,
        view: &DeviceView,
        _rng: &mut SimRng,
        _memos: Memos<'_>,
    ) -> ConfigDecision {
        // Solo curve + fixed 10 % buffer, sized for *peak* load (1.5x
        // the current rate): gpulets pre-partitions its virtual GPUs
        // and cannot cheaply repartition per fluctuation, so it
        // over-provisions the inference gpulet.
        let solo_arch = workloads::NetworkArchitecture::empty();
        let sizing_qps = view.qps * 1.5;
        let toks = tokens_per_request(gt, view.service);
        let mut best: Option<(u32, f64)> = None;
        for &b in &self.config.batch_candidates {
            let Some(curve) = self.predictor.curve_for_arch(view.service, &solo_arch, b) else {
                continue;
            };
            let frac = min_serving_fraction(
                &curve,
                sizing_qps,
                toks,
                b as f64,
                view.slo_secs,
                self.config.min_inference_fraction,
                0.90,
            );
            if let Some(frac) = frac {
                if best.is_none_or(|(_, bf)| frac < bf) {
                    best = Some((b, frac));
                }
            }
        }
        let (batch, frac) = best.unwrap_or((16, 0.90));
        ConfigDecision {
            batch,
            fraction: (frac * 1.10).min(0.90),
            pause_training: false,
            bo_iterations: 0,
            training_share_cap: 0.6,
        }
    }

    fn kind(&self) -> SystemKind {
        SystemKind::Gpulets
    }

    fn replica(&self) -> Box<dyn Multiplexer> {
        Box::new(Gpulets {
            predictor: self.predictor.replica(),
            config: self.config.clone(),
        })
    }

    fn predictor(&self) -> Option<&InterferencePredictor> {
        Some(&self.predictor)
    }
}

// ----------------------------------------------------------------------
// MuxFlow.
// ----------------------------------------------------------------------

/// MuxFlow: matching-based placement using pre-profiled pair scores.
/// Works well for the five profiled task types; unobserved tasks are
/// scored by the *average* profiled interference, which the paper shows
/// leads to the highest SLO violations. Configuration favors training
/// throughput: the inference fraction is sized with no safety margin.
pub struct MuxFlow {
    predictor: InterferencePredictor,
    config: MudiConfig,
    profiled: Vec<TaskId>,
    /// Static per-(device, co-location) decisions: MuxFlow sizes its SM
    /// split from pre-profiled pairs once per placement and does not
    /// adapt to QPS fluctuations — the inflexibility the paper calls
    /// out (§7.2). It re-sizes only when the load doubles or halves
    /// relative to the sizing point (stored alongside the decision).
    decisions: HashMap<(usize, Vec<TaskId>), (f64, ConfigDecision)>,
}

impl MuxFlow {
    /// Profiles the first five task types, like Mudi (§7.1).
    pub fn new(gt: &GroundTruth, rng: &mut SimRng) -> Self {
        let config = MudiConfig::default();
        let profiler = LatencyProfiler::new(config.clone());
        let mut prof_rng = rng.fork("muxflow-profiling");
        let profiled = gt.zoo().profiled_task_ids();
        let db = profiler.build_database(gt, &profiled, &mut prof_rng);
        let predictor = InterferencePredictor::new(db, &mut prof_rng).expect("profiles available");
        MuxFlow {
            predictor,
            config,
            profiled,
            decisions: HashMap::new(),
        }
    }

    /// The pair score: exact for profiled tasks, the profiled average
    /// for unobserved ones (MuxFlow has no architecture generalizer).
    fn pair_score(&self, gt: &GroundTruth, service: ServiceId, task: TaskId) -> f64 {
        let batches = &self.config.profile_batches;
        if self.profiled.contains(&task) {
            let arch = gt.zoo().task(task).arch;
            self.predictor
                .mean_slope_score(service, &arch, batches)
                .unwrap_or(1.0)
        } else {
            let mut sum = 0.0;
            let mut n = 0;
            for &p in &self.profiled {
                let arch = gt.zoo().task(p).arch;
                if let Some(s) = self.predictor.mean_slope_score(service, &arch, batches) {
                    sum += s;
                    n += 1;
                }
            }
            if n == 0 {
                1.0
            } else {
                sum / n as f64
            }
        }
    }
}

impl Multiplexer for MuxFlow {
    fn place(
        &mut self,
        gt: &GroundTruth,
        incoming: TaskId,
        candidates: &[DeviceCandidate],
        _rng: &mut SimRng,
    ) -> Option<usize> {
        candidates
            .iter()
            .filter(|c| c.existing_tasks.is_empty())
            .map(|c| (c.device, self.pair_score(gt, c.service, incoming)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"))
            .map(|(d, _)| d)
    }

    fn configure(
        &mut self,
        gt: &GroundTruth,
        view: &DeviceView,
        _rng: &mut SimRng,
        _memos: Memos<'_>,
    ) -> ConfigDecision {
        // MuxFlow's split is static per co-location: computed at
        // placement time for the QPS observed then, never revisited
        // while the task set is unchanged.
        let key = (view.device, {
            let mut t = view.tasks.clone();
            t.sort();
            t
        });
        if let Some((sized_qps, d)) = self.decisions.get(&key) {
            let drift = (view.qps - sized_qps).abs() / sized_qps.max(1.0);
            if drift < 1.0 {
                return *d;
            }
        }
        // Size the inference partition from the *profiled-average*
        // interference curve with no safety margin, maximizing the
        // training share.
        let arch = if view.tasks.iter().all(|t| self.profiled.contains(t)) {
            LatencyProfiler::merged_arch(gt, &view.tasks)
        } else {
            // Unobserved: pretend it is the average profiled task.
            let mid = self.profiled[self.profiled.len() / 2];
            gt.zoo().task(mid).arch
        };
        let mut best: Option<(u32, f64)> = None;
        let toks = tokens_per_request(gt, view.service);
        for &b in &self.config.batch_candidates {
            let Some(curve) = self.predictor.curve_for_arch(view.service, &arch, b) else {
                continue;
            };
            // No margin: divide out the solver's built-in 10 % pad.
            let frac = min_serving_fraction(
                &curve,
                view.qps,
                toks,
                b as f64,
                view.slo_secs,
                self.config.min_inference_fraction,
                0.90,
            );
            if let Some(frac) = frac {
                let unpadded = (frac / (1.0 + modeling::solver::SAFETY_MARGIN)).max(0.05);
                if best.is_none_or(|(_, bf)| unpadded < bf) {
                    best = Some((b, unpadded));
                }
            }
        }
        let (batch, frac) = best.unwrap_or((16, 0.90));
        // MuxFlow protects online services by quota-capping offline
        // training SMs ("safe GPU sharing"), slightly less conservative
        // than GSLICE/gpulets but below Mudi's full-leftover handover.
        let decision = ConfigDecision {
            batch,
            fraction: frac,
            pause_training: false,
            bo_iterations: 0,
            training_share_cap: 0.7,
        };
        self.decisions.insert(key, (view.qps, decision));
        decision
    }

    fn kind(&self) -> SystemKind {
        SystemKind::MuxFlow
    }

    fn replica(&self) -> Box<dyn Multiplexer> {
        Box::new(MuxFlow {
            predictor: self.predictor.replica(),
            config: self.config.clone(),
            profiled: self.profiled.clone(),
            decisions: HashMap::new(),
        })
    }

    fn predictor(&self) -> Option<&InterferencePredictor> {
        Some(&self.predictor)
    }
}

// ----------------------------------------------------------------------
// Random.
// ----------------------------------------------------------------------

/// Random placement, even 50/50 split, fixed batch (Fig. 17 baseline).
pub struct RandomSystem;

impl Multiplexer for RandomSystem {
    fn place(
        &mut self,
        _gt: &GroundTruth,
        _incoming: TaskId,
        candidates: &[DeviceCandidate],
        rng: &mut SimRng,
    ) -> Option<usize> {
        let eligible: Vec<usize> = candidates
            .iter()
            .filter(|c| c.existing_tasks.len() < 3)
            .map(|c| c.device)
            .collect();
        if eligible.is_empty() {
            None
        } else {
            Some(eligible[rng.uniform_usize(0, eligible.len())])
        }
    }

    fn configure(
        &mut self,
        _gt: &GroundTruth,
        view: &DeviceView,
        _rng: &mut SimRng,
        _memos: Memos<'_>,
    ) -> ConfigDecision {
        // Even split among inference + trainings, fixed batch 64.
        let n = 1 + view.tasks.len();
        ConfigDecision {
            batch: 64,
            fraction: (1.0 / n as f64).max(0.05),
            pause_training: false,
            bo_iterations: 0,
            training_share_cap: 1.0,
        }
    }

    fn kind(&self) -> SystemKind {
        SystemKind::Random
    }

    fn replica(&self) -> Box<dyn Multiplexer> {
        Box::new(RandomSystem)
    }
}

// ----------------------------------------------------------------------
// Optimal (oracle).
// ----------------------------------------------------------------------

/// Exhaustive oracle: evaluates every (device, batch, fraction) against
/// the ground truth and picks the configuration minimizing true
/// iteration time subject to the true SLO constraint. Memoizes scores
/// per (service, tasks, QPS bucket) to stay tractable at 1000 GPUs.
/// Memo key: the service, the co-located task set, and a QPS bucket.
type OracleKey = (ServiceId, Vec<TaskId>, u64);
/// Memoized search result: `(batch, fraction, iteration_time)`, or
/// `None` when no configuration meets the SLO.
type OracleEntry = Option<(u32, f64, f64)>;

#[derive(Default)]
pub struct Optimal {
    cache: HashMap<OracleKey, OracleEntry>,
}

impl Optimal {
    /// Exhaustive per-device search against ground truth: best
    /// `(batch, fraction, iteration_time)` meeting the SLO, or `None`.
    pub fn best_config(
        &mut self,
        gt: &GroundTruth,
        service: ServiceId,
        slo_secs: f64,
        qps: f64,
        tasks: &[TaskId],
    ) -> Option<(u32, f64, f64)> {
        let key = (service, tasks.to_vec(), (qps / 10.0).round() as u64);
        if let Some(hit) = self.cache.get(&key) {
            return *hit;
        }
        let toks = tokens_per_request(gt, service);
        let mut best: Option<(u32, f64, f64)> = None;
        for &batch in &[2u32, 4, 8, 16, 32, 64, 128, 256, 512] {
            for step in 1..=18 {
                let frac = step as f64 * 0.05;
                let colo_share = if tasks.is_empty() {
                    0.0
                } else {
                    ((1.0 - frac) / tasks.len() as f64).max(0.01)
                };
                let colo: Vec<ColoWorkload> = tasks
                    .iter()
                    .map(|&t| ColoWorkload::training(t, colo_share))
                    .collect();
                // True SLO check: fill wait + true P99 within SLO, and
                // stable service. For a generative service the batch is
                // the running-batch cap: the true iteration tail must
                // meet the ITL target and the decode loop must retire
                // tokens faster than they arrive (with drift headroom).
                let p99 = gt.p99_inference_latency(service, batch, frac, &colo);
                if toks > 0.0 {
                    if p99 > slo_secs {
                        continue;
                    }
                    let tok_rate = qps * toks;
                    let mean = gt.inference_latency(service, batch, frac, &colo);
                    if tok_rate > 0.0 && tok_rate * mean / batch as f64 > 0.85 {
                        continue;
                    }
                } else if qps > 0.0 {
                    let fill = batch as f64 / qps;
                    // Same drift headroom the engine's monitor assumes.
                    if fill + p99 > slo_secs || p99 > 0.7 * fill {
                        continue;
                    }
                } else if p99 > slo_secs {
                    continue;
                }
                let iter_time: f64 = if tasks.is_empty() {
                    frac // Prefer the smallest footprint.
                } else {
                    tasks
                        .iter()
                        .map(|&t| {
                            let mut view = vec![ColoWorkload::inference(service, batch, frac)];
                            for &o in tasks {
                                if o != t {
                                    view.push(ColoWorkload::training(o, colo_share));
                                }
                            }
                            gt.training_iteration(t, colo_share, &view)
                        })
                        .sum()
                };
                if best.is_none_or(|(_, _, bi)| iter_time < bi) {
                    best = Some((batch, frac, iter_time));
                }
            }
        }
        self.cache.insert(key, best);
        best
    }
}

impl Multiplexer for Optimal {
    fn place(
        &mut self,
        gt: &GroundTruth,
        incoming: TaskId,
        candidates: &[DeviceCandidate],
        _rng: &mut SimRng,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for c in candidates {
            if !c.existing_tasks.is_empty() {
                continue;
            }
            // Representative load for the oracle's comparison, scaled
            // to the service class's sustainable request rate.
            let spec = gt.zoo().service(c.service);
            let rep_qps = 200.0 * spec.request_rate_scale();
            if let Some((_, _, iter)) =
                self.best_config(gt, c.service, spec.slo_secs(), rep_qps, &[incoming])
            {
                if best.is_none_or(|(_, bi)| iter < bi) {
                    best = Some((c.device, iter));
                }
            }
        }
        best.map(|(d, _)| d)
    }

    fn configure(
        &mut self,
        gt: &GroundTruth,
        view: &DeviceView,
        _rng: &mut SimRng,
        _memos: Memos<'_>,
    ) -> ConfigDecision {
        match self.best_config(gt, view.service, view.slo_secs, view.qps, &view.tasks) {
            Some((batch, fraction, _)) => ConfigDecision {
                batch,
                fraction,
                pause_training: false,
                bo_iterations: 0,
                training_share_cap: 1.0,
            },
            None => ConfigDecision {
                batch: 16,
                fraction: 0.90,
                pause_training: true,
                bo_iterations: 0,
                training_share_cap: 1.0,
            },
        }
    }

    fn kind(&self) -> SystemKind {
        SystemKind::Optimal
    }

    fn replica(&self) -> Box<dyn Multiplexer> {
        Box::new(Optimal::default())
    }
}

#[cfg(test)]
mod tests;
