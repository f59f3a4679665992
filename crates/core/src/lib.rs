//! Mudi — SLO-aware multiplexing of DL inference and training on GPUs.
//!
//! This crate implements the paper's system proper, mirroring the
//! architecture of Fig. 6:
//!
//! * **Offline Profiler** — [`profiler::LatencyProfiler`] (module ① —
//!   samples P99 latency over the GPU% grid and fits the piece-wise
//!   linear curves of Eq. 1) and [`interference::InterferenceModeler`]
//!   (module ② — learns `X = [Ψ, b] → Y = [k1, k2, Δ0, l0]` with
//!   per-metric model selection).
//! * **Online Multiplexer** — [`predictor::InterferencePredictor`]
//!   (module ③) and [`selector::DeviceSelector`] (module ④ — assigns an
//!   incoming training task to the device with the smallest mean
//!   predicted slope, §5.2).
//! * **Local Coordinator** — [`monitor::Monitor`] (module ⑤ — QPS-change
//!   and SLO-risk triggers), [`tuner::Tuner`] (module ⑥ — GP-LCB
//!   adaptive batching and Eq. 4 resource scaling), with the Agents (⑦)
//!   and Memory Manager (⑧) realized in the `gpu-sim` crate and driven
//!   by the cluster engine.
//! * **Guardrails** — [`guard`] (anti-thrashing dwell/cooldown on
//!   fault-triggered retunes and the degraded-mode SLO circuit-breaker
//!   used by the failure experiments).
//! * **Mudi-more** — [`MudiConfig::more`] (multiplexing up to three
//!   training tasks per GPU, §5.5); the device splits the training share
//!   evenly in [`gpu_sim::GpuDevice::rebalance_training_fractions`].

#![forbid(unsafe_code)]

pub mod config;
pub mod guard;
pub mod interference;
pub mod monitor;
pub mod predictor;
pub mod profiler;
pub mod selector;
pub mod tuner;

pub use config::MudiConfig;
pub use guard::{CircuitBreaker, RetuneGuard};
pub use interference::InterferenceModeler;
pub use monitor::Monitor;
pub use predictor::{InterferenceFit, InterferencePredictor};
pub use profiler::{LatencyProfiler, ProfileDatabase, ProfileKey};
pub use selector::{DeviceCandidate, DeviceSelector, PlacementDecision, ReliabilityPrior};
pub use tuner::{TuneTrigger, Tuner, TuningOutcome};
