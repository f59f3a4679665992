//! The discrete-event cluster engine, as a staged simulation kernel.
//!
//! Every device hosts one inference replica (service types round-robin
//! across devices) plus the training tasks the system under test
//! places there. The engine is event-driven with **analytic accrual**:
//! device state (QPS level, batch, GPU fractions, residents) is
//! piecewise-constant between events, so SLO-violation fractions and
//! training progress integrate in closed form from the ground-truth
//! model over each span — the same fitted-function replay the paper's
//! own 1000-GPU simulator uses (§7.1).
//!
//! The kernel is split into stages, each a stateless struct operating
//! on an explicit `&mut SimState` contract:
//!
//! - `admission` — task arrivals and §5.2 device selection;
//! - `control` — analytic accrual, per-device GP-LCB batching, and
//!   resource-scaling ticks;
//! - `faults` — fault-schedule application, blast expansion, and
//!   standby promote/demote;
//! - `roster` — which devices serve each service, and the one total
//!   outage rule;
//! - `stepper` — one stepping window (lane phase, barrier, global
//!   phase), plus end-of-run finalization and result assembly. RNG
//!   streams are owned by the shared `SimState` and forked by name, so
//!   the stage split cannot perturb determinism.
//!
//! [`ClusterSession`] is the one driver: a batch experiment is a
//! session run to the end ([`ClusterSession::run_to_end`], then
//! [`ClusterSession::finish`]), and a served or scripted session steps
//! the same window loop to explicit horizons.
//!
//! All stages publish structured [`simcore::SimEvent`]s on the run's
//! trace bus — placement decisions with candidate sets, retune
//! accept/reject, fault apply/repair, standby hand-offs. Tracing is off
//! by default (and zero-cost when off); set `MUDI_TRACE=1` to record
//! it (a run to the end then dumps a summary to stderr), or inject a
//! [`simcore::TraceConfig`] via [`ClusterSession::set_trace_config`].

mod accum;
mod admission;
mod config;
mod control;
mod faults;
mod roster;
mod route_hint;
mod session;
mod shard;
mod state;
mod stepper;

#[cfg(test)]
mod tests;

pub use config::{ClusterConfig, ClusterConfigBuilder, ScalePreset};
pub use control::{itl_violation_probability, violation_probability};
pub use session::{
    AccrualCounters, ClusterSession, GenInferOutcome, InferOutcome, LiveFault, RouteCounters,
    ScaleOutcome, ServiceSlo, SessionError, TokenVerdict, TuningCounters,
};
pub use state::{striped_service_assignment, PlacementLog};
