//! Deterministic fault injection and recovery for the cluster simulator.
//!
//! The Mudi paper evaluates multiplexing under dynamic *load* but a
//! fault-free cluster; production GPU sharing is defined by behaviour
//! under failure. This crate layers that dimension onto the
//! discrete-event stack:
//!
//! * [`FaultSchedule`] — a seed-replayable, pre-drawn sequence of
//!   device failures (MTTF/MTTR), transient slowdowns (ECC/thermal
//!   throttle as temporary GPU% loss), training-process crashes, and
//!   MPS-restart failures. Every system under test faces the identical
//!   schedule for a given seed.
//! * [`CheckpointTracker`] — checkpoint/restore accounting with exact
//!   period-boundary interpolation, guaranteeing a restore never loses
//!   more than one checkpoint period of progress.
//! * [`RecoveryPolicy`] — the per-run recovery strategy. Every run
//!   fails inference over to surviving replicas and requeues evicted
//!   training; the only knob is the warm-standby pool
//!   ([`StandbyPolicy`]). Restart costs, the checkpoint period and
//!   bandwidth, the standby reserve, and the guardrail parameters the
//!   local coordinator enforces (retune dwell, degraded-mode training
//!   share and hold) are named constants in [`recovery`].
//!
//! The cluster engine owns the event loop; this crate owns the *what*
//! and *when* of faults and the accounting rules of recovery, keeping
//! both independently testable.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod recovery;
pub mod schedule;

pub use checkpoint::CheckpointTracker;
pub use recovery::{
    FaultProfile, RecoveryPolicy, StandbyPolicy, CHECKPOINT_PERIOD_SECS, CHECKPOINT_WRITE_GBPS,
    DEGRADED_HOLD_SECS, DEGRADED_TRAINING_SHARE, PROCESS_RESTART_SECS, RETUNE_DWELL_SECS,
    STANDBY_RESERVE_FRACTION,
};
pub use schedule::{
    CorrelatedFaultConfig, FaultConfig, FaultDomain, FaultEvent, FaultKind, FaultSchedule,
};
