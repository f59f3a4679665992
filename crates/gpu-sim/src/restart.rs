//! MPS reconfiguration costs (§5.3.2).
//!
//! Changing a process's GPU% under MPS requires terminating and
//! restarting it with a new `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE`, a
//! tens-of-seconds outage. Mudi hides this by warming a *shadow
//! instance* with the new configuration and switching over once it is
//! ready; the visible disruption is then a brief hand-off. Batching-size
//! changes, by contrast, are free: the new size is passed as a parameter
//! without restarting the service (§5.3.1).

/// Cold MPS restart time: terminate + relaunch + model reload.
pub const MPS_RESTART_SECS: f64 = 20.0;

/// Hand-off time when a pre-warmed shadow instance takes over.
pub const SHADOW_SWITCH_SECS: f64 = 0.5;

// The shadow hand-off hides most of the cold restart.
const _: () = assert!(SHADOW_SWITCH_SECS < MPS_RESTART_SECS / 10.0);
