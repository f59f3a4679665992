//! The ground-truth performance model — the stand-in for real A100s.
//!
//! Everything Mudi observes (profiled latencies, online mini-batch
//! times, memory pressure) is produced here. The model encodes the
//! empirical structure the paper reports, without exposing its
//! parameters to Mudi:
//!
//! * Inference latency decomposes into three phases — CPU preprocessing
//!   / tokenization, PCIe transfer, GPU execution (§2.2.1) — whose solo
//!   proportions match the paper (GPT2 4 %/10 %/86 %, ResNet50
//!   7 %/71 %/22 % at the reference configuration).
//! * The GPU-execution phase is **piece-wise linear in the GPU
//!   fraction** with a batch-dependent knee (Fig. 5, key idea I1).
//! * Co-location inflates each phase through pressure terms: CPU
//!   pressure (heavy from other inference services' multi-threaded
//!   preprocessing, light from training's single-threaded loaders),
//!   PCIe pressure, and SM pressure derived from the co-located
//!   workloads' **network architectures** (key idea I2) — so the
//!   piece-wise slopes really are a learnable function of layer counts.
//! * Per-phase multiplicative log-normal noise produces realistic P99
//!   tails; contention widens the tails.
//! * A hidden per-(service, co-location) idiosyncrasy term bounds how
//!   well any predictor can do, yielding prediction errors in the range
//!   the paper reports (Fig. 11).
//!
//! The calibration targets are checked by this module's tests and
//! regenerated by the Fig. 3/4/5 benchmark binaries.

use std::sync::atomic::{AtomicU64, Ordering};

use simcore::{LogNormal, SimRng};

use crate::arch::{LayerKind, NetworkArchitecture};
use crate::zoo::{Domain, InferenceServiceSpec, ServiceId, TaskId, Zoo};

/// GPU device memory capacity modeled throughout (A100 40 GB).
pub const DEVICE_MEMORY_GB: f64 = 40.0;

/// Serial (non-GPU-parallel) fraction of a training iteration; training
/// time follows Amdahl's law in the GPU fraction.
const TRAIN_SERIAL_FRAC: f64 = 0.08;

/// Steepness of the latency curve's left segment relative to the
/// full-GPU compute time.
const LEFT_STEEPNESS: f64 = 4.0;

/// Total latency gain available past the knee, relative to the
/// full-GPU compute time.
const RIGHT_GAIN: f64 = 0.30;

/// What kind of workload shares the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColoKind {
    /// A training task of the given type.
    Training(TaskId),
    /// Another inference service, with its current batching size.
    Inference(ServiceId, u32),
}

/// One co-located workload: what it is and how much GPU it holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColoWorkload {
    /// The workload class.
    pub kind: ColoKind,
    /// GPU fraction allocated to it (0..=1).
    pub gpu_fraction: f64,
}

impl ColoWorkload {
    /// A co-located training task.
    pub fn training(task: TaskId, gpu_fraction: f64) -> Self {
        ColoWorkload {
            kind: ColoKind::Training(task),
            gpu_fraction,
        }
    }

    /// A co-located inference service.
    pub fn inference(service: ServiceId, batch: u32, gpu_fraction: f64) -> Self {
        ColoWorkload {
            kind: ColoKind::Inference(service, batch),
            gpu_fraction,
        }
    }
}

/// Per-phase inference latency, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InferencePhases {
    /// CPU preprocessing / tokenization.
    pub preprocess: f64,
    /// Host↔device PCIe transfer.
    pub transfer: f64,
    /// GPU kernel execution.
    pub compute: f64,
}

impl InferencePhases {
    /// End-to-end latency.
    pub fn total(&self) -> f64 {
        self.preprocess + self.transfer + self.compute
    }
}

/// Aggregate contention pressures exerted by a co-location set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pressures {
    /// CPU-side pressure (thread contention), independent of GPU%.
    pub cpu: f64,
    /// PCIe bandwidth pressure.
    pub transfer: f64,
    /// SM/compute pressure, weighted by the co-runners' GPU fractions
    /// and architecture intensity.
    pub sm: f64,
}

/// The hidden hardware model. Constructed from a [`Zoo`] and a seed;
/// the seed controls only the idiosyncrasy terms, not the calibrated
/// structure.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    zoo: Zoo,
    seed: u64,
    /// See [`GroundTruth::instance`].
    instance: u64,
}

/// Source of [`GroundTruth::instance`] numbers.
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Per-phase multiplicative noise sigmas (solo).
const SIGMA_PRE: f64 = 0.10;
const SIGMA_XFER: f64 = 0.08;
const SIGMA_COMP: f64 = 0.06;

impl GroundTruth {
    /// Creates the model over a workload catalogue.
    pub fn new(zoo: Zoo, seed: u64) -> Self {
        GroundTruth {
            zoo,
            seed,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A number unique to this model within the process, shared by its
    /// clones. The model is immutable, so two models with the same
    /// instance give the same answer to every query: a memo of its
    /// answers stays valid while the instance matches.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The workload catalogue this model covers.
    pub fn zoo(&self) -> &Zoo {
        &self.zoo
    }

    // ------------------------------------------------------------------
    // Pressure terms.
    // ------------------------------------------------------------------

    /// SM intensity of an architecture: a squashed weighted layer count.
    /// Conv/encoder/decoder-heavy networks keep the SMs busiest during
    /// parameter updates (§4.1.2).
    pub fn sm_intensity(arch: &NetworkArchitecture) -> f64 {
        let mut w = [0.0; 11];
        w[LayerKind::Conv.index()] = 1.0;
        w[LayerKind::Linear.index()] = 0.6;
        w[LayerKind::Activation.index()] = 0.15;
        w[LayerKind::Embedding.index()] = 0.5;
        w[LayerKind::Encoder.index()] = 1.2;
        w[LayerKind::Decoder.index()] = 1.2;
        w[LayerKind::Flatten.index()] = 0.05;
        w[LayerKind::BatchNorm.index()] = 0.4;
        w[LayerKind::Fc.index()] = 0.6;
        w[LayerKind::Pooling.index()] = 0.2;
        w[LayerKind::Other.index()] = 0.5;
        let raw = arch.weighted_sum(&w) / 60.0;
        raw / (1.0 + raw)
    }

    /// Aggregated pressures from a co-location set.
    pub fn pressures(&self, colo: &[ColoWorkload]) -> Pressures {
        let mut p = Pressures::default();
        for c in colo {
            match c.kind {
                ColoKind::Training(task) => {
                    let spec = self.zoo.task(task);
                    p.cpu += spec.cpu_intensity;
                    p.transfer += spec.transfer_intensity;
                    p.sm += Self::sm_intensity(&spec.arch) * c.gpu_fraction;
                }
                ColoKind::Inference(service, batch) => {
                    let spec = self.zoo.service(service);
                    // Bigger batches preprocess and transfer more.
                    let bscale = 0.7 + 0.3 * (batch.max(2) as f64).log2() / 9.0;
                    p.cpu += spec.cpu_intensity * bscale;
                    p.transfer += spec.transfer_intensity * bscale;
                    p.sm += (Self::sm_intensity(&spec.arch) + 0.35) * c.gpu_fraction;
                }
            }
        }
        p
    }

    /// A deterministic hidden idiosyncrasy in `[-1, 1]` for a
    /// (service, co-location) pair. Bounds achievable prediction
    /// accuracy, as real hardware does.
    fn idiosyncrasy(&self, service: ServiceId, colo: &[ColoWorkload]) -> f64 {
        let mut h = self.seed ^ (service.0 as u64).wrapping_mul(0x9e37_79b9);
        for c in colo {
            let tag = match c.kind {
                ColoKind::Training(t) => 0x1000 + t.0 as u64,
                ColoKind::Inference(s, b) => 0x2000 + s.0 as u64 * 64 + (b as u64 % 64),
            };
            h = h.wrapping_mul(0x100_0000_01b3) ^ tag;
        }
        // SplitMix-style finalize, mapped to [-1, 1].
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) * 2.0 - 1.0
    }

    // ------------------------------------------------------------------
    // Inference latency.
    // ------------------------------------------------------------------

    /// Full-GPU compute time for a batch, seconds.
    fn compute_full(&self, spec: &InferenceServiceSpec, batch: u32) -> f64 {
        (spec.compute_ms_base + spec.compute_ms_per_item * batch as f64) * 1e-3
    }

    /// Solo knee position for a batch.
    pub fn knee(&self, service: ServiceId, batch: u32) -> f64 {
        let spec = self.zoo.service(service);
        let doublings = (batch.max(2) as f64 / 16.0).log2();
        (spec.knee_base + spec.knee_per_doubling * doublings).clamp(0.12, 0.90)
    }

    /// Per-service CPU contention response `amp · pressure^gamma`.
    ///
    /// Text pipelines (concave, small gamma) degrade even under light
    /// pressure; image preprocessing (convex, large gamma) collapses
    /// only when the CPU is saturated by other multi-threaded
    /// preprocessing (§2.2.1).
    fn cpu_response(spec: &InferenceServiceSpec, pressure: f64) -> f64 {
        if pressure <= 0.0 {
            return 0.0;
        }
        let (amp, gamma) = match spec.domain {
            Domain::TextGeneration => (1.97, 0.23),
            Domain::LanguageModeling | Domain::QuestionAnswering => (1.55, 0.45),
            Domain::ImageClassification => (2.36, 2.29),
            Domain::ObjectDetection => (1.90, 1.60),
            Domain::Recommendation | Domain::SocialNetwork => (1.40, 0.90),
        };
        amp * pressure.powf(gamma) * spec.cpu_sensitivity
    }

    /// Control-flow response of the GPU phase to CPU pressure: convex —
    /// kernel-launch stalls appear once the CPU saturates.
    fn control_flow_response(spec: &InferenceServiceSpec, pressure: f64) -> f64 {
        if pressure <= 0.0 {
            return 0.0;
        }
        spec.control_flow_frac * 2.3 * pressure.powf(1.9)
    }

    /// The mean (noise-free) latency phases of one inference batch.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_fraction` is outside `(0, 1]`.
    pub fn inference_phases(
        &self,
        service: ServiceId,
        batch: u32,
        gpu_fraction: f64,
        colo: &[ColoWorkload],
    ) -> InferencePhases {
        assert!(
            gpu_fraction > 0.0 && gpu_fraction <= 1.0,
            "invalid GPU fraction {gpu_fraction}"
        );
        let spec = self.zoo.service(service);
        let p = self.pressures(colo);
        let batch = batch.max(1);

        // --- GPU compute phase: piece-wise linear in the fraction. ---
        let w = self.compute_full(spec, batch);
        let knee0 = self.knee(service, batch);
        // Co-location shifts the knee right and steepens the segments.
        let knee = (knee0 + 0.10 * p.sm).clamp(0.12, 0.92);
        let idio = 1.0 + 0.08 * self.idiosyncrasy(service, colo);
        let comp_mult = (1.0 + Self::control_flow_response(spec, p.cpu) + 0.9 * p.sm) * idio;
        let l0 = w * (1.0 + RIGHT_GAIN * (1.0 - knee)) * comp_mult;
        let k1 = -(LEFT_STEEPNESS * w / knee) * comp_mult * (1.0 + 0.5 * p.sm);
        let k2 = -(RIGHT_GAIN * w / (1.0 - knee).max(0.05)) * comp_mult;
        let compute = if gpu_fraction <= knee {
            k1 * (gpu_fraction - knee) + l0
        } else {
            k2 * (gpu_fraction - knee) + l0
        };

        // --- CPU and PCIe phases: derived from the solo fractions at
        //     the reference configuration (batch 64 at its solo knee),
        //     scaled per item. ---
        let comp_frac = 1.0 - spec.preprocess_frac - spec.transfer_frac;
        let w_ref = self.compute_full(spec, 64);
        let knee_ref = self.knee(service, 64);
        let comp_ref = w_ref * (1.0 + RIGHT_GAIN * (1.0 - knee_ref));
        let pre_per_item = comp_ref * spec.preprocess_frac / comp_frac / 64.0;
        let xfer_per_item = comp_ref * spec.transfer_frac / comp_frac / 64.0;

        let pre_mult = 1.0 + Self::cpu_response(spec, p.cpu);
        let xfer_sens = match spec.domain {
            Domain::ImageClassification | Domain::ObjectDetection => 1.0,
            _ => 0.8,
        };
        let xfer_mult = 1.0 + xfer_sens * p.transfer;

        InferencePhases {
            preprocess: pre_per_item * batch as f64 * pre_mult,
            transfer: xfer_per_item * batch as f64 * xfer_mult,
            compute,
        }
    }

    /// Mean end-to-end latency (convenience).
    pub fn inference_latency(
        &self,
        service: ServiceId,
        batch: u32,
        gpu_fraction: f64,
        colo: &[ColoWorkload],
    ) -> f64 {
        self.inference_phases(service, batch, gpu_fraction, colo)
            .total()
    }

    /// One noisy observation of the latency phases, as a real profiler
    /// or monitor would see.
    pub fn sample_inference_phases(
        &self,
        service: ServiceId,
        batch: u32,
        gpu_fraction: f64,
        colo: &[ColoWorkload],
        rng: &mut SimRng,
    ) -> InferencePhases {
        let mean = self.inference_phases(service, batch, gpu_fraction, colo);
        let widen = self.tail_widening(colo);
        InferencePhases {
            preprocess: mean.preprocess * LogNormal::noise(SIGMA_PRE * widen).sample(rng),
            transfer: mean.transfer * LogNormal::noise(SIGMA_XFER * widen).sample(rng),
            compute: mean.compute * LogNormal::noise(SIGMA_COMP * widen).sample(rng),
        }
    }

    /// Contention widens latency tails.
    fn tail_widening(&self, colo: &[ColoWorkload]) -> f64 {
        let p = self.pressures(colo);
        1.0 + 0.25 * (p.cpu + p.sm + p.transfer).min(3.0)
    }

    /// Effective log-normal sigma of the *total* latency — the phases'
    /// sigmas combined in quadrature with their latency weights. Used
    /// for analytic P99 / violation-fraction computation.
    pub fn effective_sigma(
        &self,
        service: ServiceId,
        batch: u32,
        gpu_fraction: f64,
        colo: &[ColoWorkload],
    ) -> f64 {
        let m = self.inference_phases(service, batch, gpu_fraction, colo);
        let t = m.total().max(1e-12);
        let widen = self.tail_widening(colo);
        let w = [
            (m.preprocess / t) * SIGMA_PRE,
            (m.transfer / t) * SIGMA_XFER,
            (m.compute / t) * SIGMA_COMP,
        ];
        widen * (w.iter().map(|x| x * x).sum::<f64>()).sqrt()
    }

    /// P99 end-to-end latency of a single batch (analytic, from the
    /// log-normal tail): `mean · exp(2.326 σ)` over the median-1 noise.
    pub fn p99_inference_latency(
        &self,
        service: ServiceId,
        batch: u32,
        gpu_fraction: f64,
        colo: &[ColoWorkload],
    ) -> f64 {
        let mean = self.inference_latency(service, batch, gpu_fraction, colo);
        let sigma = self.effective_sigma(service, batch, gpu_fraction, colo);
        mean * (2.326 * sigma).exp()
    }

    // ------------------------------------------------------------------
    // Generative (autoregressive) serving.
    //
    // A generative service decodes under continuous batching: `batch`
    // is the number of concurrent sequences in the running batch, and
    // one "item" is one sequence's single-token step. The decode
    // iteration therefore follows the *same* piece-wise GPU%-latency
    // curves as a classifier batch of that size — the paper's question
    // (does the interference model hold per decode iteration?) is
    // answered by construction here and probed by fig23.
    // ------------------------------------------------------------------

    /// Steady-state running batch of a generative service under
    /// Little's law: the concurrency `B` satisfying
    /// `B = qps · (prefill + decode_tokens · ITL(B))`, solved by a
    /// bounded monotone fixed-point iteration over the piece-wise
    /// curves and clamped to the configured batch cap (continuous
    /// batching's admission limit). Returns `1` for an idle service and
    /// `cap` for a non-generative one.
    pub fn steady_decode_batch(
        &self,
        service: ServiceId,
        cap: u32,
        gpu_fraction: f64,
        qps: f64,
        colo: &[ColoWorkload],
    ) -> u32 {
        let cap = cap.max(1);
        let Some(g) = self.zoo.service(service).generative else {
            return cap;
        };
        if qps <= 0.0 {
            return 1;
        }
        let mut b = 1u32;
        for _ in 0..8 {
            let itl = self.inference_latency(service, b, gpu_fraction, colo);
            let resident_secs = (g.prefill_iterations() + g.decode_tokens_mean) * itl;
            let next = (qps * resident_secs).ceil().clamp(1.0, cap as f64) as u32;
            if next == b {
                break;
            }
            b = next;
        }
        b
    }

    /// KV-cache bytes a generative service's running batch pins on the
    /// device, GB: `batch × mean live context × per-token KV bytes`.
    /// Zero for non-generative services.
    pub fn kv_cache_gb(&self, service: ServiceId, batch: u32) -> f64 {
        self.zoo
            .service(service)
            .generative
            .as_ref()
            .map_or(0.0, |g| {
                batch as f64 * g.mean_context_tokens() * g.kv_mb_per_token / 1024.0
            })
    }

    // ------------------------------------------------------------------
    // Training iteration time.
    // ------------------------------------------------------------------

    /// Mean mini-batch iteration time of a training task holding
    /// `gpu_fraction`, co-located with `colo` (the other residents of
    /// the device, not including the task itself).
    ///
    /// # Panics
    ///
    /// Panics if `gpu_fraction` is outside `(0, 1]`.
    pub fn training_iteration(
        &self,
        task: TaskId,
        gpu_fraction: f64,
        colo: &[ColoWorkload],
    ) -> f64 {
        assert!(
            gpu_fraction > 0.0 && gpu_fraction <= 1.0,
            "invalid GPU fraction {gpu_fraction}"
        );
        let spec = self.zoo.task(task);
        // Amdahl scaling in the GPU fraction.
        let base =
            spec.iter_secs_full * (TRAIN_SERIAL_FRAC + (1.0 - TRAIN_SERIAL_FRAC) / gpu_fraction);

        let mut mult = 1.0;
        let mut n_other_training = 0usize;
        for c in colo {
            match c.kind {
                ColoKind::Inference(service, batch) => {
                    let svc = self.zoo.service(service);
                    // CPU + PCIe pressure from the service, SM pressure
                    // from its share of the GPU, plus the mild
                    // non-monotonic batch ripple the paper observes
                    // (§5.3.1: transfer/compute ratio varies with the
                    // batch being processed).
                    let sens = 0.8 + 0.4 * Self::sm_intensity(&spec.arch);
                    let ripple = 0.06 * ((batch.max(2) as f64).log2() * 1.7).sin();
                    mult += sens
                        * (0.15 * svc.cpu_intensity
                            + 0.10 * svc.transfer_intensity
                            + 0.45 * c.gpu_fraction)
                        + ripple;
                }
                ColoKind::Training(other) => {
                    n_other_training += 1;
                    let other_spec = self.zoo.task(other);
                    mult += 0.12 + 0.25 * Self::sm_intensity(&other_spec.arch) * c.gpu_fraction;
                }
            }
        }
        // Diminishing co-scheduling efficiency beyond two co-runners.
        if n_other_training >= 2 {
            mult += 0.10 * (n_other_training - 1) as f64;
        }
        base * mult
    }

    /// One noisy observation of the iteration time.
    pub fn sample_training_iteration(
        &self,
        task: TaskId,
        gpu_fraction: f64,
        colo: &[ColoWorkload],
        rng: &mut SimRng,
    ) -> f64 {
        self.training_iteration(task, gpu_fraction, colo) * LogNormal::noise(0.05).sample(rng)
    }

    // ------------------------------------------------------------------
    // Memory.
    // ------------------------------------------------------------------

    /// Seconds of in-flight request payloads a serving runtime keeps
    /// pinned on the device (queued inputs, double-buffered batches,
    /// response staging). Makes memory demand grow with load, which is
    /// what drives swapping during QPS bursts (Tab. 4, Fig. 16(b)).
    pub const STAGING_SECS: f64 = 0.2;

    /// Device memory needed by an inference service, GB: weights, the
    /// active batch's activations/KV, plus the load-proportional
    /// staging pool. Generative services additionally pin the running
    /// batch's KV cache ([`GroundTruth::kv_cache_gb`]) — the long-
    /// context pressure that pushes training memory to the host through
    /// the unified pool's existing swap machinery. Classifier services
    /// are charged exactly as before (the KV term is identically zero).
    pub fn inference_memory_gb(&self, service: ServiceId, batch: u32, qps: f64) -> f64 {
        let spec = self.zoo.service(service);
        let staging = spec.act_mb_per_item * qps.max(0.0) * Self::STAGING_SECS / 1024.0;
        spec.weights_gb
            + spec.act_mb_per_item * batch as f64 / 1024.0
            + staging
            + self.kv_cache_gb(service, batch)
    }

    /// Device memory needed by a training task, GB.
    pub fn training_memory_gb(&self, task: TaskId) -> f64 {
        self.zoo.task(task).memory_gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::Zoo;

    fn gt() -> GroundTruth {
        GroundTruth::new(Zoo::standard(), 42)
    }

    fn sid(gt: &GroundTruth, name: &str) -> ServiceId {
        gt.zoo().service_by_name(name).unwrap().id
    }

    fn tid(gt: &GroundTruth, name: &str) -> TaskId {
        gt.zoo().task_by_name(name).unwrap().id
    }

    #[test]
    fn latency_is_piecewise_linear_in_fraction() {
        let g = gt();
        let s = sid(&g, "GPT2");
        let knee = g.knee(s, 64);
        // Three points on each side of the knee must be collinear.
        let probe = |x: f64| g.inference_latency(s, 64, x, &[]);
        let below: Vec<f64> = [0.5, 0.7, 0.9].iter().map(|f| probe(knee * f)).collect();
        let slope_a = (below[1] - below[0]) / (knee * 0.2);
        let slope_b = (below[2] - below[1]) / (knee * 0.2);
        assert!((slope_a - slope_b).abs() / slope_a.abs() < 1e-9);
        let above: Vec<f64> = [0.2, 0.5, 0.8]
            .iter()
            .map(|t| probe(knee + (1.0 - knee) * t))
            .collect();
        let slope_c = (above[1] - above[0]) / ((1.0 - knee) * 0.3);
        let slope_d = (above[2] - above[1]) / ((1.0 - knee) * 0.3);
        assert!((slope_c - slope_d).abs() / slope_c.abs() < 1e-9);
        // The left slope is much steeper than the right one.
        assert!(slope_a.abs() > 5.0 * slope_c.abs());
    }

    #[test]
    fn latency_decreases_with_more_gpu() {
        let g = gt();
        for svc in g.zoo().services() {
            let mut last = f64::INFINITY;
            for pct in 1..=9 {
                let l = g.inference_latency(svc.id, 64, pct as f64 * 0.1, &[]);
                assert!(l < last, "{} not monotone at {}", svc.name, pct);
                last = l;
            }
        }
    }

    #[test]
    fn knee_grows_with_batch() {
        let g = gt();
        let s = sid(&g, "ResNet50");
        assert!(g.knee(s, 512) > g.knee(s, 16));
        assert!(g.knee(s, 2) >= 0.12);
        assert!(g.knee(s, 512) <= 0.90);
    }

    #[test]
    fn solo_phase_fractions_match_paper_at_reference() {
        let g = gt();
        // GPT2: 4 % / 10 % / 86 % at batch 64 near the knee.
        let s = sid(&g, "GPT2");
        let knee = g.knee(s, 64);
        let ph = g.inference_phases(s, 64, knee, &[]);
        let t = ph.total();
        assert!(
            (ph.preprocess / t - 0.04).abs() < 0.015,
            "pre {}",
            ph.preprocess / t
        );
        assert!(
            (ph.transfer / t - 0.10).abs() < 0.03,
            "xfer {}",
            ph.transfer / t
        );
        // ResNet50: 7 % / 71 % / 22 %.
        let r = sid(&g, "ResNet50");
        let knee = g.knee(r, 64);
        let ph = g.inference_phases(r, 64, knee, &[]);
        let t = ph.total();
        assert!(
            (ph.preprocess / t - 0.07).abs() < 0.02,
            "pre {}",
            ph.preprocess / t
        );
        assert!(
            (ph.transfer / t - 0.71).abs() < 0.05,
            "xfer {}",
            ph.transfer / t
        );
    }

    #[test]
    fn inference_colocation_hurts_more_than_training() {
        let g = gt();
        for name in ["GPT2", "ResNet50"] {
            let s = sid(&g, name);
            let knee = g.knee(s, 64);
            let solo = g.inference_latency(s, 64, knee, &[]);
            let with_train = g.inference_latency(
                s,
                64,
                knee,
                &[ColoWorkload::training(tid(&g, "VGG16"), 1.0 - knee)],
            );
            let with_inf = g.inference_latency(
                s,
                64,
                knee,
                &[ColoWorkload::inference(sid(&g, "BERT"), 64, 1.0 - knee)],
            );
            assert!(
                with_train > solo,
                "{name}: training colo must cost something"
            );
            assert!(
                with_inf > with_train * 1.3,
                "{name}: inference colo ({}) must far exceed training colo ({})",
                with_inf / solo,
                with_train / solo
            );
        }
    }

    #[test]
    fn e2e_interference_magnitudes_match_fig3_fig4() {
        let g = gt();
        // Average interference of GPT2 across co-locations: paper
        // reports ~3.19x (inference colo) and ~1.67x (training colo);
        // we check the ordering and rough bands.
        let s = sid(&g, "GPT2");
        let knee = g.knee(s, 64);
        let solo = g.inference_latency(s, 64, knee, &[]);
        let mut inf_ratios = Vec::new();
        for other in g.zoo().services() {
            if other.id == s {
                continue;
            }
            let colo = ColoWorkload::inference(other.id, 64, 1.0 - knee);
            inf_ratios.push(g.inference_latency(s, 64, knee, &[colo]) / solo);
        }
        let mut train_ratios = Vec::new();
        for t in g.zoo().tasks() {
            let colo = ColoWorkload::training(t.id, 1.0 - knee);
            train_ratios.push(g.inference_latency(s, 64, knee, &[colo]) / solo);
        }
        let inf_avg = inf_ratios.iter().sum::<f64>() / inf_ratios.len() as f64;
        let train_avg = train_ratios.iter().sum::<f64>() / train_ratios.len() as f64;
        assert!((2.2..4.5).contains(&inf_avg), "inf avg {inf_avg}");
        assert!((1.2..2.2).contains(&train_avg), "train avg {train_avg}");
    }

    #[test]
    fn slopes_depend_on_colocated_architecture() {
        let g = gt();
        let s = sid(&g, "ResNet50");
        // Conv-heavy YOLOv5 must steepen the curve more than the tiny
        // NCF recommendation model at equal GPU share.
        let probe = |task: &str| {
            let colo = [ColoWorkload::training(tid(&g, task), 0.5)];
            let a = g.inference_latency(s, 64, 0.2, &colo);
            let b = g.inference_latency(s, 64, 0.3, &colo);
            (a - b) / 0.1 // Positive magnitude of the descending slope.
        };
        assert!(probe("YOLOv5") > probe("NCF"));
    }

    #[test]
    fn sampling_is_noisy_but_unbiased() {
        let g = gt();
        let s = sid(&g, "BERT");
        let mean = g.inference_latency(s, 64, 0.5, &[]);
        let mut rng = SimRng::seed(1);
        let n = 4000;
        let sum: f64 = (0..n)
            .map(|_| g.sample_inference_phases(s, 64, 0.5, &[], &mut rng).total())
            .sum();
        let avg = sum / n as f64;
        assert!((avg - mean).abs() / mean < 0.03, "avg {avg} vs mean {mean}");
    }

    #[test]
    fn p99_exceeds_mean_and_analytic_matches_empirical() {
        let g = gt();
        let s = sid(&g, "GPT2");
        let colo = [ColoWorkload::training(tid(&g, "LSTM"), 0.5)];
        let p99 = g.p99_inference_latency(s, 64, 0.5, &colo);
        let mean = g.inference_latency(s, 64, 0.5, &colo);
        assert!(p99 > mean);
        // Empirical P99 from samples should be close to the analytic one.
        let mut rng = SimRng::seed(2);
        let mut samples: Vec<f64> = (0..8000)
            .map(|_| {
                g.sample_inference_phases(s, 64, 0.5, &colo, &mut rng)
                    .total()
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let emp = samples[(samples.len() as f64 * 0.99) as usize];
        assert!(
            (emp - p99).abs() / p99 < 0.08,
            "emp {emp} vs analytic {p99}"
        );
    }

    #[test]
    fn training_iteration_scales_with_fraction() {
        let g = gt();
        let t = tid(&g, "YOLOv5");
        let full = g.training_iteration(t, 1.0, &[]);
        let half = g.training_iteration(t, 0.5, &[]);
        let tenth = g.training_iteration(t, 0.1, &[]);
        assert!((full - g.zoo().task(t).iter_secs_full).abs() < 1e-9);
        assert!(half > full * 1.7 && half < full * 2.1, "half {half}");
        assert!(tenth > full * 8.0, "tenth {tenth}");
    }

    #[test]
    fn training_suffers_from_coloaction() {
        let g = gt();
        let t = tid(&g, "BERT-train");
        let solo = g.training_iteration(t, 0.5, &[]);
        let with_inf = g.training_iteration(
            t,
            0.5,
            &[ColoWorkload::inference(sid(&g, "ResNet50"), 128, 0.5)],
        );
        assert!(with_inf > solo);
        let with_two = g.training_iteration(
            t,
            0.3,
            &[
                ColoWorkload::training(tid(&g, "VGG16"), 0.3),
                ColoWorkload::training(tid(&g, "LSTM"), 0.3),
            ],
        );
        let with_one =
            g.training_iteration(t, 0.3, &[ColoWorkload::training(tid(&g, "VGG16"), 0.3)]);
        assert!(with_two > with_one);
    }

    #[test]
    fn training_ripple_is_nonmonotonic_in_batch() {
        let g = gt();
        let t = tid(&g, "LSTM");
        let s = sid(&g, "ResNet50");
        let iters: Vec<f64> = [16u32, 32, 64, 128, 256, 512]
            .iter()
            .map(|&b| g.training_iteration(t, 0.5, &[ColoWorkload::inference(s, b, 0.5)]))
            .collect();
        let increasing = iters.windows(2).all(|w| w[1] >= w[0]);
        let decreasing = iters.windows(2).all(|w| w[1] <= w[0]);
        assert!(
            !increasing && !decreasing,
            "iteration time is monotone in batch: {iters:?}"
        );
    }

    #[test]
    fn memory_accounting() {
        let g = gt();
        let s = sid(&g, "ResNet50");
        let m16 = g.inference_memory_gb(s, 16, 200.0);
        let m512 = g.inference_memory_gb(s, 512, 200.0);
        assert!(m512 > m16 + 15.0, "batch memory too small: {m512} vs {m16}");
        // Load-proportional staging: a 3x burst costs real memory.
        let burst = g.inference_memory_gb(s, 64, 600.0);
        let calm = g.inference_memory_gb(s, 64, 200.0);
        assert!(burst > calm + 5.0, "staging too small: {burst} vs {calm}");
        let t = tid(&g, "YOLOv5");
        assert!(g.training_memory_gb(t) > 20.0);
        // A bursty inference load plus YOLOv5 overflows the 40 GB
        // device, which is what drives Tab. 4's swapping.
        assert!(g.inference_memory_gb(s, 64, 600.0) + g.training_memory_gb(t) > DEVICE_MEMORY_GB);
    }

    #[test]
    fn decode_iteration_follows_piecewise_curves() {
        let g = GroundTruth::new(Zoo::with_llms(), 42);
        let spec = g.zoo().require_service("Llama-7B").unwrap();
        let s = spec.id;
        // A decode iteration is the batch latency at the running batch
        // size: more concurrent sequences -> slower iterations; more
        // GPU -> faster iterations.
        assert!(g.inference_latency(s, 32, 0.5, &[]) > g.inference_latency(s, 4, 0.5, &[]));
        assert!(g.inference_latency(s, 16, 0.8, &[]) < g.inference_latency(s, 16, 0.3, &[]));
        // Prefill costs multiple chunked iterations.
        let prefill = spec.generative.as_ref().unwrap().prefill_iterations();
        assert!((prefill - 4.0).abs() < 1e-9, "512-token prompt / 128 chunk");
    }

    #[test]
    fn steady_decode_batch_tracks_load() {
        let g = GroundTruth::new(Zoo::with_llms(), 42);
        let s = g.zoo().require_service("Llama-7B").unwrap().id;
        let idle = g.steady_decode_batch(s, 32, 0.6, 0.0, &[]);
        assert_eq!(idle, 1);
        let light = g.steady_decode_batch(s, 32, 0.6, 0.5, &[]);
        let heavy = g.steady_decode_batch(s, 32, 0.6, 4.0, &[]);
        assert!(light >= 1 && heavy > light, "light {light} heavy {heavy}");
        // Overload clamps to the batch cap (the admission limit).
        assert_eq!(g.steady_decode_batch(s, 32, 0.6, 1000.0, &[]), 32);
        // Non-generative services pass the cap through untouched.
        let rn = g.zoo().require_service("ResNet50").unwrap().id;
        assert_eq!(g.steady_decode_batch(rn, 16, 0.6, 5.0, &[]), 16);
    }

    #[test]
    fn kv_cache_charges_against_unified_pool() {
        let g = GroundTruth::new(Zoo::with_llms(), 42);
        let s = g.zoo().require_service("OPT-13B").unwrap().id;
        // KV bytes = batch × mean context × per-token MB.
        let spec = g.zoo().service(s);
        let gen = spec.generative.unwrap();
        let want = 16.0 * gen.mean_context_tokens() * gen.kv_mb_per_token / 1024.0;
        assert!((g.kv_cache_gb(s, 16) - want).abs() < 1e-12);
        // A classifier has no KV cache, so its memory model is
        // unchanged to the bit.
        let rn = g.zoo().require_service("ResNet50").unwrap().id;
        assert_eq!(g.kv_cache_gb(rn, 512), 0.0);
        // Long contexts at a modest batch overflow the 40 GB device
        // once training co-resides — the pressure fig23 probes.
        assert!(g.inference_memory_gb(s, 16, 2.0) + 10.0 > DEVICE_MEMORY_GB);
    }

    #[test]
    fn idiosyncrasy_is_deterministic_and_bounded() {
        let g = gt();
        let s = sid(&g, "GPT2");
        let colo = [ColoWorkload::training(tid(&g, "NCF"), 0.4)];
        let a = g.inference_latency(s, 64, 0.5, &colo);
        let b = g.inference_latency(s, 64, 0.5, &colo);
        assert_eq!(a, b);
        // Different seeds give different (but bounded) hidden terms.
        let g2 = GroundTruth::new(Zoo::standard(), 43);
        let c = g2.inference_latency(s, 64, 0.5, &colo);
        assert!((a - c).abs() / a < 0.2);
    }

    #[test]
    #[should_panic(expected = "invalid GPU fraction")]
    fn zero_fraction_rejected() {
        let g = gt();
        let s = sid(&g, "BERT");
        let _ = g.inference_latency(s, 16, 0.0, &[]);
    }
}
