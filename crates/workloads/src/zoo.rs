//! The paper's workload tables.
//!
//! [`Zoo::standard`] builds the six inference services of Tab. 1 and the
//! nine training tasks of Tab. 3, with network architectures matching
//! Fig. 7 and performance/memory parameters calibrated so that the
//! ground-truth model ([`crate::perf`]) reproduces the paper's observed
//! magnitudes (latency ranges, phase breakdowns, memory pressure).

use simcore::SimDuration;

use crate::arch::{LayerKind, NetworkArchitecture};

/// Index of an inference service within a [`Zoo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub usize);

/// Index of a training-task *type* within a [`Zoo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Application domain, as tagged in Tab. 1 / Tab. 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Image classification (♦).
    ImageClassification,
    /// Text generation (★).
    TextGeneration,
    /// Language modeling (♡).
    LanguageModeling,
    /// Question answering (♣).
    QuestionAnswering,
    /// Object detection (♠).
    ObjectDetection,
    /// Recommendation systems (▷).
    Recommendation,
    /// Social-network / graph learning (□).
    SocialNetwork,
}

/// Optimizer used by a training task (Tab. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Optimizer {
    /// Stochastic gradient descent (with momentum).
    Sgd,
    /// Adam.
    Adam,
    /// AdamW.
    AdamW,
    /// Adadelta.
    Adadelta,
}

impl Optimizer {
    /// Memory multiplier over the bare weights: weights + gradients +
    /// optimizer state (two moments for the Adam family, one momentum
    /// buffer for SGD/Adadelta variants).
    pub fn state_factor(self) -> f64 {
        match self {
            Optimizer::Sgd => 3.0,
            Optimizer::Adam | Optimizer::AdamW | Optimizer::Adadelta => 4.0,
        }
    }
}

/// Task size class by total GPU time (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeClass {
    /// < 1 GPU-hour.
    Small,
    /// 1–10 GPU-hours.
    Medium,
    /// 10–100 GPU-hours.
    Large,
    /// > 100 GPU-hours.
    XLarge,
}

/// Generative (autoregressive) serving profile for an LLM entry.
///
/// A generative service decodes token-by-token under continuous
/// batching: requests join and leave the running batch every decode
/// iteration, and the per-iteration latency follows the same piece-wise
/// GPU%-latency curves as a classifier batch of the same size. For such
/// services the spec's `slo` field holds the **p99 inter-token latency
/// (ITL) target** — the per-token SLO every existing SLO consumer
/// (monitor triggers, GP-LCB tuner, §5.2 selector) then operates on —
/// while the time-to-first-token target lives here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenerativeProfile {
    /// Mean prompt (prefill) length in tokens.
    pub prompt_tokens_mean: f64,
    /// Mean generated (decode) length in tokens.
    pub decode_tokens_mean: f64,
    /// KV-cache bytes per token of live context, MB (2 bytes × K and V
    /// × layers × hidden dim at fp16).
    pub kv_mb_per_token: f64,
    /// Tokens a prefill iteration processes in parallel; prefill takes
    /// `ceil(prompt / chunk)` iterations at the decode-iteration cost.
    pub prefill_chunk_tokens: f64,
    /// Time-to-first-token SLO (queueing + prefill).
    pub ttft_slo: SimDuration,
    /// Scale applied to the shared per-replica request-rate generator.
    /// Classifier replicas absorb hundreds of requests per second; a
    /// generative replica decoding ~10² tokens per request sustains a
    /// few, so its demand stream is the same fluctuating shape at a
    /// service-calibrated fraction of the rate.
    pub request_rate_scale: f64,
}

impl GenerativeProfile {
    /// TTFT SLO in seconds (convenience).
    pub fn ttft_slo_secs(&self) -> f64 {
        self.ttft_slo.as_secs()
    }

    /// Mean live context length of an in-flight request: the full
    /// prompt plus half the decode output (a request observed at a
    /// uniformly random point of its decode).
    pub fn mean_context_tokens(&self) -> f64 {
        self.prompt_tokens_mean + 0.5 * self.decode_tokens_mean
    }

    /// Prefill iterations implied by the mean prompt length.
    pub fn prefill_iterations(&self) -> f64 {
        (self.prompt_tokens_mean / self.prefill_chunk_tokens)
            .ceil()
            .max(1.0)
    }
}

/// One inference service (a row of Tab. 1), plus the calibration
/// parameters the ground-truth model needs.
#[derive(Clone, Debug)]
pub struct InferenceServiceSpec {
    /// Stable index within the zoo.
    pub id: ServiceId,
    /// Model name.
    pub name: &'static str,
    /// Application domain.
    pub domain: Domain,
    /// Evaluation dataset named in Tab. 1.
    pub dataset: &'static str,
    /// Parameter count in millions (Tab. 1).
    pub params_m: f64,
    /// Latency SLO (Tab. 1).
    pub slo: SimDuration,
    /// Network architecture (layer counts).
    pub arch: NetworkArchitecture,
    /// GPU compute time at 100 % GPU: `w0 + w1 · batch`, in ms.
    pub compute_ms_base: f64,
    /// Per-item GPU compute slope, in ms.
    pub compute_ms_per_item: f64,
    /// Fraction of solo end-to-end time spent in CPU preprocessing /
    /// tokenization at the reference configuration (§2.2.1).
    pub preprocess_frac: f64,
    /// Fraction spent in host↔device PCIe transfer at the reference
    /// configuration.
    pub transfer_frac: f64,
    /// Knee position Δ0 at batch 16; grows with log2(batch).
    pub knee_base: f64,
    /// Knee shift per batch doubling.
    pub knee_per_doubling: f64,
    /// How strongly this service's CPU phase suffers under CPU
    /// contention (tokenization is multi-threaded, §2.2.1).
    pub cpu_sensitivity: f64,
    /// How strongly the GPU phase suffers from CPU contention via
    /// kernel-launch control flow (large for generative models, §2.2.1).
    pub control_flow_frac: f64,
    /// CPU pressure this service exerts on co-located workloads.
    pub cpu_intensity: f64,
    /// PCIe pressure this service exerts on co-located workloads.
    pub transfer_intensity: f64,
    /// Model weights + runtime footprint on device, GB.
    pub weights_gb: f64,
    /// Activation/KV memory per batched item, MB.
    pub act_mb_per_item: f64,
    /// Autoregressive serving profile; `None` for single-shot
    /// classifier services (every entry of the standard catalogue).
    pub generative: Option<GenerativeProfile>,
}

impl InferenceServiceSpec {
    /// SLO in seconds (convenience). For generative services this is
    /// the p99 inter-token latency target (see [`GenerativeProfile`]).
    pub fn slo_secs(&self) -> f64 {
        self.slo.as_secs()
    }

    /// Whether this service decodes autoregressively under continuous
    /// batching.
    pub fn is_generative(&self) -> bool {
        self.generative.is_some()
    }

    /// Scale applied to the shared per-replica request-rate generator:
    /// the generative profile's calibration, `1.0` for classifiers.
    pub fn request_rate_scale(&self) -> f64 {
        self.generative.map_or(1.0, |g| g.request_rate_scale)
    }
}

/// One training-task type (a row of Tab. 3), plus calibration data.
#[derive(Clone, Debug)]
pub struct TrainingTaskSpec {
    /// Stable index within the zoo.
    pub id: TaskId,
    /// Task name.
    pub name: &'static str,
    /// Application domain.
    pub domain: Domain,
    /// Training dataset named in Tab. 3.
    pub dataset: &'static str,
    /// Optimizer (Tab. 3).
    pub optimizer: Optimizer,
    /// Training mini-batch size (Tab. 3).
    pub batch_size: u32,
    /// Size class (Tab. 3).
    pub size_class: SizeClass,
    /// Fraction of arriving tasks of this type (Tab. 3 "Frac.").
    pub arrival_fraction: f64,
    /// Network architecture (Fig. 7 layer counts).
    pub arch: NetworkArchitecture,
    /// Mini-batch iteration time at 100 % GPU with no co-location, s.
    pub iter_secs_full: f64,
    /// Nominal total GPU-hours for one task instance of this type.
    pub gpu_hours: f64,
    /// CPU pressure exerted on co-located workloads (single-threaded
    /// loaders keep this low, §2.2.1).
    pub cpu_intensity: f64,
    /// PCIe pressure exerted on co-located workloads.
    pub transfer_intensity: f64,
    /// Model weights on device, GB.
    pub weights_gb: f64,
    /// Activation memory at the task's training batch size, GB.
    pub act_gb: f64,
}

impl TrainingTaskSpec {
    /// Total iterations implied by the nominal GPU-hours at full speed.
    pub fn total_iterations(&self) -> u64 {
        ((self.gpu_hours * 3600.0) / self.iter_secs_full)
            .round()
            .max(1.0) as u64
    }

    /// Device memory footprint in GB: weights with optimizer state,
    /// activations, plus a CUDA-context constant.
    pub fn memory_gb(&self) -> f64 {
        self.weights_gb * self.optimizer.state_factor() + self.act_gb + 0.6
    }
}

/// A by-name model lookup failed: the requested name is not in the
/// catalogue. Displays the missing name plus everything that *is*
/// available, so a typo in a bench driver fails with an actionable
/// message instead of a bare `unwrap()` panic.
#[derive(Clone, PartialEq, Eq)]
pub struct UnknownModel {
    /// The name that was requested.
    pub name: String,
    /// What was being looked up (`"inference service"` / `"training task"`).
    pub kind: &'static str,
    /// Every name the catalogue does contain, in catalogue order.
    pub available: Vec<&'static str>,
}

impl std::fmt::Display for UnknownModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown {} {:?}; the zoo has: {}",
            self.kind,
            self.name,
            self.available.join(", ")
        )
    }
}

// Debug forwards to Display so `main() -> Result<_, UnknownModel>`
// prints the readable message, not a struct dump.
impl std::fmt::Debug for UnknownModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for UnknownModel {}

/// The complete workload catalogue.
#[derive(Clone, Debug)]
pub struct Zoo {
    services: Vec<InferenceServiceSpec>,
    tasks: Vec<TrainingTaskSpec>,
}

impl Zoo {
    /// Builds the paper's standard catalogue (Tab. 1 + Tab. 3).
    pub fn standard() -> Self {
        Zoo {
            services: standard_services(),
            tasks: standard_tasks(),
        }
    }

    /// The standard catalogue extended with generative LLM services
    /// (autoregressive decode under continuous batching, per-token
    /// SLOs, KV-cache pressure). The LLM entries are **appended** after
    /// the six classifier rows so every standard id keeps its meaning;
    /// classifier-only configs must keep using [`Zoo::standard`] — the
    /// service count feeds device assignment and the ground-truth
    /// idiosyncrasy hash, so the two catalogues are distinct regimes.
    pub fn with_llms() -> Self {
        let mut services = standard_services();
        let base = services.len();
        services.extend(llm_services(base));
        Zoo {
            services,
            tasks: standard_tasks(),
        }
    }

    /// All inference services.
    pub fn services(&self) -> &[InferenceServiceSpec] {
        &self.services
    }

    /// All training-task types.
    pub fn tasks(&self) -> &[TrainingTaskSpec] {
        &self.tasks
    }

    /// Looks up a service by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn service(&self, id: ServiceId) -> &InferenceServiceSpec {
        &self.services[id.0]
    }

    /// Looks up a training-task type by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn task(&self, id: TaskId) -> &TrainingTaskSpec {
        &self.tasks[id.0]
    }

    /// Looks up a service by name.
    pub fn service_by_name(&self, name: &str) -> Option<&InferenceServiceSpec> {
        self.services.iter().find(|s| s.name == name)
    }

    /// Looks up a training-task type by name.
    pub fn task_by_name(&self, name: &str) -> Option<&TrainingTaskSpec> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Looks up a service by name, or a contextful error naming the
    /// missing model and the catalogue it was looked up in — for bench
    /// and example mains, where a bare `unwrap()` panic would hide
    /// *which* model string was wrong.
    pub fn require_service(&self, name: &str) -> Result<&InferenceServiceSpec, UnknownModel> {
        self.service_by_name(name).ok_or_else(|| UnknownModel {
            name: name.to_string(),
            kind: "inference service",
            available: self.services.iter().map(|s| s.name).collect(),
        })
    }

    /// Looks up a training-task type by name, or a contextful error —
    /// see [`Self::require_service`].
    pub fn require_task(&self, name: &str) -> Result<&TrainingTaskSpec, UnknownModel> {
        self.task_by_name(name).ok_or_else(|| UnknownModel {
            name: name.to_string(),
            kind: "training task",
            available: self.tasks.iter().map(|t| t.name).collect(),
        })
    }

    /// The "observed" task types used for offline profiling: the first
    /// five rows of Tab. 3 (§4.1.1, §7.1 "profiling is constrained to
    /// include only the first five types of training tasks").
    pub fn profiled_task_ids(&self) -> Vec<TaskId> {
        self.tasks.iter().take(5).map(|t| t.id).collect()
    }

    /// The unobserved task types (the last four rows of Tab. 3) used as
    /// the test set in §7.3.
    pub fn unobserved_task_ids(&self) -> Vec<TaskId> {
        self.tasks.iter().skip(5).map(|t| t.id).collect()
    }
}

fn standard_services() -> Vec<InferenceServiceSpec> {
    use LayerKind::*;
    vec![
        InferenceServiceSpec {
            id: ServiceId(0),
            name: "ResNet50",
            domain: Domain::ImageClassification,
            dataset: "ImageNet",
            params_m: 25.6,
            slo: SimDuration::from_millis(150.0),
            arch: NetworkArchitecture::from_layers(&[
                (Conv, 53),
                (BatchNorm, 53),
                (Activation, 49),
                (Pooling, 2),
                (Fc, 1),
                (Flatten, 1),
            ]),
            compute_ms_base: 2.0,
            compute_ms_per_item: 0.085,
            preprocess_frac: 0.07,
            transfer_frac: 0.71,
            knee_base: 0.30,
            knee_per_doubling: 0.06,
            cpu_sensitivity: 1.0,
            control_flow_frac: 0.25,
            cpu_intensity: 1.15,
            transfer_intensity: 0.95,
            weights_gb: 1.10,
            act_mb_per_item: 90.0,
            generative: None,
        },
        InferenceServiceSpec {
            id: ServiceId(1),
            name: "Inception",
            domain: Domain::ImageClassification,
            dataset: "ImageNet",
            params_m: 23.8,
            slo: SimDuration::from_millis(120.0),
            arch: NetworkArchitecture::from_layers(&[
                (Conv, 94),
                (BatchNorm, 94),
                (Activation, 94),
                (Pooling, 14),
                (Fc, 1),
                (Flatten, 1),
                (Other, 11),
            ]),
            compute_ms_base: 2.6,
            compute_ms_per_item: 0.11,
            preprocess_frac: 0.08,
            transfer_frac: 0.64,
            knee_base: 0.32,
            knee_per_doubling: 0.06,
            cpu_sensitivity: 1.0,
            control_flow_frac: 0.30,
            cpu_intensity: 1.10,
            transfer_intensity: 0.90,
            weights_gb: 1.09,
            act_mb_per_item: 85.0,
            generative: None,
        },
        InferenceServiceSpec {
            id: ServiceId(2),
            name: "GPT2",
            domain: Domain::TextGeneration,
            dataset: "SQuAD",
            params_m: 335.0,
            slo: SimDuration::from_millis(100.0),
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 2),
                (Decoder, 24),
                (Linear, 1),
                (Activation, 24),
                (BatchNorm, 49), // Layer norms fold into the norm bucket.
                (Other, 24),
            ]),
            compute_ms_base: 6.0,
            compute_ms_per_item: 0.42,
            preprocess_frac: 0.04,
            transfer_frac: 0.10,
            knee_base: 0.38,
            knee_per_doubling: 0.065,
            cpu_sensitivity: 1.25,
            control_flow_frac: 0.72,
            cpu_intensity: 1.30,
            transfer_intensity: 0.45,
            weights_gb: 2.31,
            act_mb_per_item: 80.0,
            generative: None,
        },
        InferenceServiceSpec {
            id: ServiceId(3),
            name: "BERT",
            domain: Domain::QuestionAnswering,
            dataset: "SQuAD",
            params_m: 110.0,
            slo: SimDuration::from_millis(330.0),
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 3),
                (Encoder, 12),
                (Linear, 2),
                (Activation, 12),
                (BatchNorm, 25),
                (Other, 12),
            ]),
            compute_ms_base: 6.5,
            compute_ms_per_item: 0.30,
            preprocess_frac: 0.05,
            transfer_frac: 0.12,
            knee_base: 0.36,
            knee_per_doubling: 0.06,
            cpu_sensitivity: 1.15,
            control_flow_frac: 0.40,
            cpu_intensity: 1.20,
            transfer_intensity: 0.50,
            weights_gb: 1.43,
            act_mb_per_item: 60.0,
            generative: None,
        },
        InferenceServiceSpec {
            id: ServiceId(4),
            name: "RoBERTa",
            domain: Domain::LanguageModeling,
            dataset: "SQuAD",
            params_m: 125.0,
            slo: SimDuration::from_millis(110.0),
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 3),
                (Encoder, 12),
                (Linear, 2),
                (Activation, 12),
                (BatchNorm, 25),
                (Other, 12),
            ]),
            compute_ms_base: 6.8,
            compute_ms_per_item: 0.32,
            preprocess_frac: 0.05,
            transfer_frac: 0.12,
            knee_base: 0.36,
            knee_per_doubling: 0.06,
            cpu_sensitivity: 1.15,
            control_flow_frac: 0.42,
            cpu_intensity: 1.20,
            transfer_intensity: 0.50,
            weights_gb: 1.49,
            act_mb_per_item: 62.0,
            generative: None,
        },
        InferenceServiceSpec {
            id: ServiceId(5),
            name: "YOLOS",
            domain: Domain::ObjectDetection,
            dataset: "COCO",
            params_m: 30.7,
            slo: SimDuration::from_millis(2200.0),
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 1),
                (Encoder, 12),
                (Linear, 4),
                (Activation, 12),
                (BatchNorm, 25),
                (Conv, 1),
                (Other, 12),
            ]),
            compute_ms_base: 20.0,
            compute_ms_per_item: 0.5,
            preprocess_frac: 0.10,
            transfer_frac: 0.26,
            knee_base: 0.34,
            knee_per_doubling: 0.07,
            cpu_sensitivity: 1.10,
            control_flow_frac: 0.35,
            cpu_intensity: 1.05,
            transfer_intensity: 0.85,
            weights_gb: 1.12,
            act_mb_per_item: 120.0,
            generative: None,
        },
    ]
}

/// The generative LLM rows of the extended catalogue, appended after
/// the `base` classifier services. `compute_ms_base`/`_per_item` are
/// calibrated as **decode-iteration** costs: one token for every
/// sequence of the running batch (batch = concurrent sequences, item =
/// one sequence's token step). The `slo` field is the p99 inter-token
/// latency target; TTFT targets live in the [`GenerativeProfile`].
fn llm_services(base: usize) -> Vec<InferenceServiceSpec> {
    use LayerKind::*;
    vec![
        InferenceServiceSpec {
            id: ServiceId(base),
            name: "Llama-7B",
            domain: Domain::TextGeneration,
            dataset: "ShareGPT",
            params_m: 6_700.0,
            // p99 inter-token latency target.
            slo: SimDuration::from_millis(80.0),
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 1),
                (Decoder, 32),
                (Linear, 1),
                (Activation, 32),
                (BatchNorm, 65), // RMSNorms fold into the norm bucket.
                (Other, 32),
            ]),
            compute_ms_base: 18.0,
            compute_ms_per_item: 0.9,
            preprocess_frac: 0.03,
            transfer_frac: 0.05,
            knee_base: 0.42,
            knee_per_doubling: 0.07,
            cpu_sensitivity: 1.30,
            control_flow_frac: 0.80,
            cpu_intensity: 1.35,
            transfer_intensity: 0.40,
            weights_gb: 13.5,
            act_mb_per_item: 40.0,
            generative: Some(GenerativeProfile {
                prompt_tokens_mean: 512.0,
                decode_tokens_mean: 128.0,
                // 2 B × (K+V) × 32 layers × 4096 dim ≈ 0.5 MB/token.
                kv_mb_per_token: 0.5,
                prefill_chunk_tokens: 128.0,
                ttft_slo: SimDuration::from_millis(1_500.0),
                // ~1–3 req/s per replica: ≈60 % token-capacity
                // utilization at the deploy-time batch cap under 1×
                // load, saturating near 2× so the load sweep bites.
                request_rate_scale: 0.010,
            }),
        },
        InferenceServiceSpec {
            id: ServiceId(base + 1),
            name: "OPT-13B",
            domain: Domain::TextGeneration,
            dataset: "ShareGPT",
            params_m: 13_000.0,
            slo: SimDuration::from_millis(120.0),
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 2),
                (Decoder, 40),
                (Linear, 1),
                (Activation, 40),
                (BatchNorm, 81),
                (Other, 40),
            ]),
            compute_ms_base: 30.0,
            compute_ms_per_item: 1.6,
            preprocess_frac: 0.03,
            transfer_frac: 0.05,
            knee_base: 0.44,
            knee_per_doubling: 0.07,
            cpu_sensitivity: 1.30,
            control_flow_frac: 0.82,
            cpu_intensity: 1.40,
            transfer_intensity: 0.42,
            weights_gb: 26.0,
            act_mb_per_item: 55.0,
            generative: Some(GenerativeProfile {
                prompt_tokens_mean: 768.0,
                decode_tokens_mean: 192.0,
                // 2 B × (K+V) × 40 layers × 5120 dim ≈ 0.8 MB/token.
                kv_mb_per_token: 0.8,
                prefill_chunk_tokens: 128.0,
                ttft_slo: SimDuration::from_millis(2_500.0),
                // Heavier decode (192 tokens) on a slower model: rate
                // calibrated to the same ≈60–70 % utilization band.
                request_rate_scale: 0.005,
            }),
        },
    ]
}

fn standard_tasks() -> Vec<TrainingTaskSpec> {
    use LayerKind::*;
    vec![
        TrainingTaskSpec {
            id: TaskId(0),
            name: "VGG16",
            domain: Domain::ImageClassification,
            dataset: "CIFAR10",
            optimizer: Optimizer::Adam,
            batch_size: 512,
            size_class: SizeClass::Small,
            arrival_fraction: 0.14,
            arch: NetworkArchitecture::from_layers(&[
                (Conv, 13),
                (Activation, 15),
                (Pooling, 5),
                (Fc, 3),
                (Flatten, 1),
            ]),
            iter_secs_full: 0.34,
            gpu_hours: 0.6,
            cpu_intensity: 0.30,
            transfer_intensity: 0.18,
            weights_gb: 0.54,
            act_gb: 6.5,
        },
        TrainingTaskSpec {
            id: TaskId(1),
            name: "SqueezeNet",
            domain: Domain::ImageClassification,
            dataset: "CIFAR10",
            optimizer: Optimizer::Adam,
            batch_size: 512,
            size_class: SizeClass::Small,
            arrival_fraction: 0.14,
            arch: NetworkArchitecture::from_layers(&[
                (Conv, 26),
                (Activation, 26),
                (Pooling, 3),
                (Other, 8), // Fire modules.
            ]),
            iter_secs_full: 0.12,
            gpu_hours: 0.4,
            cpu_intensity: 0.28,
            transfer_intensity: 0.16,
            weights_gb: 0.02,
            act_gb: 3.0,
        },
        TrainingTaskSpec {
            id: TaskId(2),
            name: "ResNet50-train",
            domain: Domain::ImageClassification,
            dataset: "CIFAR100",
            optimizer: Optimizer::Adam,
            batch_size: 1024,
            size_class: SizeClass::Small,
            arrival_fraction: 0.14,
            arch: NetworkArchitecture::from_layers(&[
                (Conv, 53),
                (BatchNorm, 53),
                (Activation, 49),
                (Pooling, 2),
                (Fc, 1),
                (Flatten, 1),
            ]),
            iter_secs_full: 0.42,
            gpu_hours: 0.8,
            cpu_intensity: 0.34,
            transfer_intensity: 0.20,
            weights_gb: 0.10,
            act_gb: 7.5,
        },
        TrainingTaskSpec {
            id: TaskId(3),
            name: "NCF",
            domain: Domain::Recommendation,
            dataset: "MovieLens",
            optimizer: Optimizer::Sgd,
            batch_size: 1024,
            size_class: SizeClass::Medium,
            arrival_fraction: 0.12,
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 4),
                (Linear, 4),
                (Activation, 4),
                (Flatten, 1),
            ]),
            iter_secs_full: 0.07,
            gpu_hours: 2.5,
            cpu_intensity: 0.22,
            transfer_intensity: 0.24,
            weights_gb: 0.35,
            act_gb: 1.8,
        },
        TrainingTaskSpec {
            id: TaskId(4),
            name: "LSTM",
            domain: Domain::LanguageModeling,
            dataset: "Wikitext-2",
            optimizer: Optimizer::Adadelta,
            batch_size: 256,
            size_class: SizeClass::Medium,
            arrival_fraction: 0.12,
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 1),
                (Linear, 1),
                (Activation, 2),
                (Other, 2), // LSTM cells fold into other_layers.
            ]),
            iter_secs_full: 0.22,
            gpu_hours: 4.0,
            cpu_intensity: 0.26,
            transfer_intensity: 0.14,
            weights_gb: 0.22,
            act_gb: 2.5,
        },
        TrainingTaskSpec {
            id: TaskId(5),
            name: "AD-GCL",
            domain: Domain::SocialNetwork,
            dataset: "Reddit",
            optimizer: Optimizer::Adam,
            batch_size: 64,
            size_class: SizeClass::Medium,
            arrival_fraction: 0.12,
            arch: NetworkArchitecture::from_layers(&[
                (Linear, 4),
                (Activation, 5),
                (Pooling, 1),
                (BatchNorm, 4),
                (Other, 5), // Graph convolutions.
            ]),
            iter_secs_full: 0.48,
            gpu_hours: 7.0,
            cpu_intensity: 0.40,
            transfer_intensity: 0.22,
            weights_gb: 0.06,
            act_gb: 5.0,
        },
        TrainingTaskSpec {
            id: TaskId(6),
            name: "BERT-train",
            domain: Domain::QuestionAnswering,
            dataset: "SQuAD",
            optimizer: Optimizer::AdamW,
            batch_size: 32,
            size_class: SizeClass::Large,
            arrival_fraction: 0.12,
            arch: NetworkArchitecture::from_layers(&[
                (Embedding, 3),
                (Encoder, 12),
                (Linear, 2),
                (Activation, 12),
                (BatchNorm, 25),
                (Other, 12),
            ]),
            iter_secs_full: 0.44,
            gpu_hours: 24.0,
            cpu_intensity: 0.32,
            transfer_intensity: 0.12,
            weights_gb: 0.44,
            act_gb: 9.0,
        },
        TrainingTaskSpec {
            id: TaskId(7),
            name: "YOLOv5",
            domain: Domain::ObjectDetection,
            dataset: "COCO",
            optimizer: Optimizer::Sgd,
            batch_size: 64,
            size_class: SizeClass::Large,
            arrival_fraction: 0.10,
            arch: NetworkArchitecture::from_layers(&[
                (Conv, 60),
                (BatchNorm, 60),
                (Activation, 60),
                (Pooling, 3),
                (Other, 14), // C3 / SPPF blocks.
            ]),
            iter_secs_full: 0.52,
            gpu_hours: 48.0,
            cpu_intensity: 0.45,
            transfer_intensity: 0.26,
            weights_gb: 0.09,
            act_gb: 28.0,
        },
        TrainingTaskSpec {
            id: TaskId(8),
            name: "ResNet18",
            domain: Domain::ImageClassification,
            dataset: "ImageNet",
            optimizer: Optimizer::Sgd,
            batch_size: 128,
            size_class: SizeClass::XLarge,
            arrival_fraction: 0.02,
            arch: NetworkArchitecture::from_layers(&[
                (Conv, 20),
                (BatchNorm, 20),
                (Activation, 17),
                (Pooling, 2),
                (Fc, 1),
                (Flatten, 1),
            ]),
            iter_secs_full: 0.28,
            gpu_hours: 130.0,
            cpu_intensity: 0.42,
            transfer_intensity: 0.30,
            weights_gb: 0.05,
            act_gb: 8.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_zoo_matches_table_sizes() {
        let zoo = Zoo::standard();
        assert_eq!(zoo.services().len(), 6);
        assert_eq!(zoo.tasks().len(), 9);
    }

    #[test]
    fn llm_catalogue_extends_without_renumbering() {
        let std = Zoo::standard();
        let llm = Zoo::with_llms();
        assert_eq!(llm.services().len(), 8);
        assert_eq!(llm.tasks().len(), 9);
        // The classifier prefix is identical row for row.
        for (a, b) in std.services().iter().zip(llm.services()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert!(b.generative.is_none());
        }
        // The appended rows are generative with per-token SLOs.
        for s in &llm.services()[6..] {
            let g = s.generative.as_ref().expect("LLM row must be generative");
            assert!(s.is_generative());
            assert!(s.slo_secs() < 0.2, "{}: ITL target in seconds", s.name);
            assert!(g.ttft_slo_secs() > s.slo_secs());
            assert!(g.kv_mb_per_token > 0.0 && g.prefill_chunk_tokens > 0.0);
            assert!(g.mean_context_tokens() > g.prompt_tokens_mean);
            assert!(g.prefill_iterations() >= 1.0);
        }
        let llama = llm.require_service("Llama-7B").unwrap();
        assert_eq!(llama.id, ServiceId(6));
        // Weights alone must fit the 40 GB device; KV pressure is what
        // pushes it over.
        for s in &llm.services()[6..] {
            assert!(s.weights_gb < 40.0, "{}", s.name);
        }
        // The standard catalogue has no generative rows at all.
        assert!(std.services().iter().all(|s| !s.is_generative()));
    }

    /// Callers index per-service tables by `id.0`, as [`Zoo::service`]
    /// does, so a service's id must be its position in the catalogue.
    #[test]
    fn service_ids_are_catalogue_indexes() {
        for zoo in [Zoo::standard(), Zoo::with_llms()] {
            let ids: Vec<ServiceId> = zoo.services().iter().map(|s| s.id).collect();
            assert_eq!(ids, (0..ids.len()).map(ServiceId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tab1_slos_match_paper() {
        let zoo = Zoo::standard();
        let slos: Vec<(&str, f64)> = zoo
            .services()
            .iter()
            .map(|s| (s.name, s.slo.as_millis()))
            .collect();
        assert_eq!(
            slos,
            vec![
                ("ResNet50", 150.0),
                ("Inception", 120.0),
                ("GPT2", 100.0),
                ("BERT", 330.0),
                ("RoBERTa", 110.0),
                ("YOLOS", 2200.0),
            ]
        );
    }

    #[test]
    fn tab1_param_counts_match_paper() {
        let zoo = Zoo::standard();
        assert_eq!(zoo.require_service("GPT2").unwrap().params_m, 335.0);
        assert_eq!(zoo.service_by_name("ResNet50").unwrap().params_m, 25.6);
        assert_eq!(zoo.service_by_name("YOLOS").unwrap().params_m, 30.7);
    }

    #[test]
    fn unknown_model_error_names_the_miss_and_the_catalogue() {
        let zoo = Zoo::standard();
        let err = zoo.require_task("YOLOv7").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("training task"), "{msg}");
        assert!(msg.contains("\"YOLOv7\""), "{msg}");
        assert!(msg.contains("YOLOv5"), "should list available: {msg}");
        // Debug output is the same readable message (what a bench
        // `main() -> Result` prints on failure).
        assert_eq!(format!("{err:?}"), msg);
        let err = zoo.require_service("AlexNet").unwrap_err();
        assert!(err.to_string().contains("inference service"));
        assert!(zoo.require_service("ResNet50").is_ok());
    }

    #[test]
    fn tab3_fractions_match_papers_printed_values() {
        // The paper's printed Tab. 3 fractions sum to 102 % (rounding in
        // the original table); we keep the printed values verbatim and
        // normalize at sampling time.
        let zoo = Zoo::standard();
        let total: f64 = zoo.tasks().iter().map(|t| t.arrival_fraction).sum();
        assert!((total - 1.02).abs() < 1e-9, "fractions sum to {total}");
    }

    #[test]
    fn tab3_size_classes_match_gpu_hours() {
        let zoo = Zoo::standard();
        for t in zoo.tasks() {
            let ok = match t.size_class {
                SizeClass::Small => t.gpu_hours < 1.0,
                SizeClass::Medium => (1.0..10.0).contains(&t.gpu_hours),
                SizeClass::Large => (10.0..100.0).contains(&t.gpu_hours),
                SizeClass::XLarge => t.gpu_hours >= 100.0,
            };
            assert!(
                ok,
                "{} has {} GPU-hours in class {:?}",
                t.name, t.gpu_hours, t.size_class
            );
        }
    }

    #[test]
    fn tab3_optimizers_match_paper() {
        let zoo = Zoo::standard();
        assert_eq!(
            zoo.task_by_name("VGG16").unwrap().optimizer,
            Optimizer::Adam
        );
        assert_eq!(zoo.task_by_name("NCF").unwrap().optimizer, Optimizer::Sgd);
        assert_eq!(
            zoo.task_by_name("LSTM").unwrap().optimizer,
            Optimizer::Adadelta
        );
        assert_eq!(
            zoo.task_by_name("BERT-train").unwrap().optimizer,
            Optimizer::AdamW
        );
    }

    #[test]
    fn profiled_and_unobserved_split_is_five_four() {
        let zoo = Zoo::standard();
        assert_eq!(zoo.profiled_task_ids().len(), 5);
        assert_eq!(zoo.unobserved_task_ids().len(), 4);
        // The unobserved set is the last four rows of Tab. 3.
        assert_eq!(zoo.task(zoo.unobserved_task_ids()[0]).name, "AD-GCL");
        assert_eq!(zoo.task(zoo.unobserved_task_ids()[3]).name, "ResNet18");
    }

    #[test]
    fn total_iterations_consistent_with_gpu_hours() {
        let zoo = Zoo::standard();
        for t in zoo.tasks() {
            let hours = t.total_iterations() as f64 * t.iter_secs_full / 3600.0;
            assert!(
                (hours - t.gpu_hours).abs() / t.gpu_hours < 0.01,
                "{}: {hours} vs {}",
                t.name,
                t.gpu_hours
            );
        }
    }

    #[test]
    fn memory_footprints_fit_a_40gb_device_alone() {
        let zoo = Zoo::standard();
        for t in zoo.tasks() {
            assert!(
                t.memory_gb() < 40.0,
                "{} needs {} GB",
                t.name,
                t.memory_gb()
            );
        }
    }

    #[test]
    fn optimizer_state_factors() {
        assert_eq!(Optimizer::Sgd.state_factor(), 3.0);
        assert_eq!(Optimizer::Adam.state_factor(), 4.0);
    }

    #[test]
    fn phase_fractions_are_sane() {
        let zoo = Zoo::standard();
        for s in zoo.services() {
            assert!(s.preprocess_frac + s.transfer_frac < 1.0, "{}", s.name);
        }
        // §2.2.1: GPT2 4%/10%/86%, ResNet50 7%/71%/22%.
        let gpt2 = zoo.service_by_name("GPT2").unwrap();
        assert_eq!((gpt2.preprocess_frac, gpt2.transfer_frac), (0.04, 0.10));
        let rn = zoo.service_by_name("ResNet50").unwrap();
        assert_eq!((rn.preprocess_frac, rn.transfer_frac), (0.07, 0.71));
    }

    #[test]
    fn fig7_architectures_have_expected_signatures() {
        let zoo = Zoo::standard();
        // Conv-dominated image models.
        let vgg = zoo.task_by_name("VGG16").unwrap();
        assert_eq!(vgg.arch.count(LayerKind::Conv), 13);
        assert_eq!(vgg.arch.count(LayerKind::Fc), 3);
        // Transformer tasks carry encoder blocks.
        let bert = zoo.task_by_name("BERT-train").unwrap();
        assert_eq!(bert.arch.count(LayerKind::Encoder), 12);
        assert!(bert.arch.count(LayerKind::Conv) == 0);
        // NCF is embedding-centric.
        let ncf = zoo.task_by_name("NCF").unwrap();
        assert_eq!(ncf.arch.count(LayerKind::Embedding), 4);
    }
}
