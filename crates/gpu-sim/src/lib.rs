//! GPU device simulator: MPS-style spatial partitions, resident
//! processes, unified-memory swapping, and reconfiguration costs.
//!
//! A [`device::GpuDevice`] holds at most one inference instance plus a
//! bounded number of training processes (Mudi allows one inference and
//! up to three training tasks per GPU, §5.5). GPU fractions follow the
//! MPS model: each process is pinned to a percentage of the SMs; the
//! percentage can only change by restarting the process
//! ([`restart`]), unless a shadow instance hides the downtime.
//!
//! The [`memory`] module reproduces Mudi's Memory Manager (§5.6): a
//! unified pool where inference memory is pinned on-device and training
//! memory spills to the host when the device overflows, with PCIe
//! transfer costs and slowdown accounting (Tab. 4, Fig. 16).

#![forbid(unsafe_code)]

pub mod batcher;
pub mod device;
pub mod memory;
pub mod process;
pub mod restart;

pub use batcher::{CompletedGen, ContinuousBatcher, GenRequest, StepReport, TokenLedger};
pub use device::{DeviceHealth, DeviceId, GpuDevice};
pub use memory::{MemoryManager, SwapStats, PCIE_GBPS};
pub use process::{InferenceInstance, ResidentId, StandbyInstance, TrainingProcess};
pub use restart::{ReconfigPolicy, MPS_RESTART_SECS, SHADOW_SWITCH_SECS};
