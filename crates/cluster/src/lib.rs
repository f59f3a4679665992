//! End-to-end GPU-cluster simulation for the Mudi evaluation.
//!
//! This crate drives everything §7 measures: a discrete-event cluster
//! of [`gpu_sim`] devices, each hosting one inference replica and up to
//! three training tasks, multiplexed by one of the systems under test:
//!
//! * **Mudi** — the full system from the [`mudi`] crate (plus the
//!   ablation variants of Fig. 13 and Mudi-more of Fig. 17);
//! * **GSLICE** — feedback-driven per-device partitioning, no
//!   cluster-wide interference awareness;
//! * **gpulets** — solo-profile-based virtual-GPU sizing with a fixed
//!   interference buffer;
//! * **MuxFlow** — pre-profiled pair matching that cannot adapt to
//!   unobserved tasks;
//! * **Random** and **Optimal** (exhaustive oracle) bounds.
//!
//! The engine is event-driven with *analytic accrual*: between state
//! changes (task arrivals/completions, QPS segments, retunes) each
//! device's SLO-violation fraction and training progress are integrated
//! in closed form from the ground-truth model, exactly as the paper's
//! own 1000-GPU simulator replays fitted performance functions (§7.1).

#![forbid(unsafe_code)]

pub mod engine;
pub mod experiments;
pub mod job;
pub mod metrics;
pub mod report;
pub mod systems;

pub use engine::{ClusterConfig, ClusterEngine};
pub use job::{JobId, TrainingJob};
pub use metrics::{ExperimentResult, FaultMetrics, ServiceMetrics};
pub use systems::SystemKind;
