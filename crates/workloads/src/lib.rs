//! DL workload models, arrival processes, traces, and the ground-truth
//! performance model for the Mudi reproduction.
//!
//! * [`arch`] — network architectures as layer-type counts (Fig. 7),
//!   the feature representation Mudi's Interference Modeler consumes.
//! * [`zoo`] — the paper's workload tables: six inference services
//!   (Tab. 1) and nine training tasks (Tab. 3).
//! * [`arrivals`] — request and task arrival processes: the Alibaba-like
//!   fluctuating QPS of Fig. 1(a), bursty schedules (Fig. 16), and
//!   Philly-like training-task arrivals.
//! * [`perf`] — the **ground truth** performance model standing in for
//!   the physical A100 cluster: per-phase inference latency (CPU
//!   preprocessing, PCIe transfer, GPU execution) as a piece-wise linear
//!   function of the GPU fraction, with co-location interference driven
//!   by hidden functions of the co-located workloads' architectures,
//!   plus training iteration times and memory footprints. Mudi only
//!   ever observes noisy samples of this model, exactly as it would
//!   observe a real GPU.
//! * [`traces`] — synthetic cluster traces reproducing the shapes of
//!   Fig. 1 and Fig. 2.

#![forbid(unsafe_code)]

pub mod arch;
pub mod arrivals;
pub mod perf;
pub mod traces;
pub mod zoo;

pub use arch::{LayerKind, NetworkArchitecture};
pub use arrivals::{BurstSchedule, FluctuatingQps, PhillyArrivals};
pub use perf::{ColoKind, ColoWorkload, GroundTruth, InferencePhases, PhaseNoise};
pub use zoo::{
    Domain, GenerativeProfile, InferenceServiceSpec, Optimizer, ServiceId, SizeClass, TaskId,
    TrainingTaskSpec, UnknownModel, Zoo,
};
