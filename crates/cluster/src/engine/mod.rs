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
//! - `stepper` — the time loop sequencing the stages, plus result
//!   assembly. RNG streams are owned by the shared `SimState` and
//!   forked by name, so the stage split cannot perturb determinism.
//!
//! All stages publish structured [`simcore::SimEvent`]s on the run's
//! trace bus — placement decisions with candidate sets, retune
//! accept/reject, fault apply/repair, standby hand-offs. Tracing is off
//! by default (and zero-cost when off); set `MUDI_TRACE=1` to record
//! and dump a summary to stderr, or inject a
//! [`simcore::TraceConfig`] via [`ClusterEngine::set_trace_config`].

mod admission;
mod config;
mod control;
mod faults;
mod roster;
mod session;
mod shard;
mod state;
mod stepper;

#[cfg(test)]
mod tests;

use std::time::Instant;

use resilience::FaultSchedule;
use simcore::{TraceBus, TraceConfig, TraceSummary};
use workloads::{GroundTruth, ServiceId, TaskId};

use crate::metrics::ExperimentResult;

use admission::Admission;
use state::SimState;
use stepper::Stepper;

pub use config::{ClusterConfig, ClusterConfigBuilder, ScalePreset};
pub use control::{itl_violation_probability, violation_probability};
pub use session::{
    ClusterSession, GenInferOutcome, InferOutcome, LiveFault, ScaleOutcome, ServiceSlo,
    SessionError, TokenVerdict, TuningCounters,
};
pub use state::{striped_service_assignment, PlacementLog};

/// The cluster engine: a thin facade over the staged kernel.
pub struct ClusterEngine {
    st: SimState,
}

impl ClusterEngine {
    /// Builds a cluster with the ground truth seeded from the config
    /// and the system's offline profiling already performed.
    pub fn new(config: ClusterConfig) -> Self {
        ClusterEngine {
            st: SimState::new(config),
        }
    }

    /// Replaces the generated fault schedule — tests inject hand-built
    /// scenarios (e.g. exactly one failure at a known time). Must be
    /// called before the run starts.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.st.fault_schedule = schedule;
    }

    /// Replaces the trace-bus configuration (default: from the
    /// `MUDI_TRACE` environment). Must be called before the run starts;
    /// events emitted so far are discarded.
    pub fn set_trace_config(&mut self, cfg: TraceConfig) {
        self.st.trace = TraceBus::new(cfg);
    }

    /// The fault schedule this run will replay.
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.st.fault_schedule
    }

    /// The ground-truth model backing this run.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.st.shared.gt
    }

    /// Runs the experiment to completion with every job's iteration
    /// count multiplied by `iteration_scale` (tests use ≪1 to finish
    /// quickly) and returns the results.
    pub fn run_scaled(self, iteration_scale: f64) -> ExperimentResult {
        self.run_traced(iteration_scale).0
    }

    /// The single run entry point: executes to completion and returns
    /// the results together with the trace-bus summary (all-zero when
    /// tracing is disabled). `run_scaled` and `run_with_log` are thin
    /// wrappers over this.
    pub fn run_traced(self, iteration_scale: f64) -> (ExperimentResult, TraceSummary) {
        let (result, bus) = self.execute(iteration_scale);
        (result, bus.summary())
    }

    /// Like [`ClusterEngine::run_scaled`], additionally returning the
    /// placement log `(task, chosen device, candidates)` for the §5.4
    /// optimality analysis. Forces placement retention on the trace bus
    /// and reconstructs the historical log shape from the structured
    /// `Placement` events.
    pub fn run_with_log(mut self, iteration_scale: f64) -> (ExperimentResult, PlacementLog) {
        let mut cfg = self.st.trace.config();
        cfg.enabled = true;
        cfg.keep_placements = true;
        self.st.trace = TraceBus::new(cfg);
        let (result, bus) = self.execute(iteration_scale);
        let log = bus
            .placements()
            .iter()
            .filter_map(|te| match &te.event {
                simcore::SimEvent::Placement {
                    task,
                    device,
                    candidates,
                } => Some((
                    TaskId(*task),
                    *device,
                    candidates.iter().map(|&(d, s)| (d, ServiceId(s))).collect(),
                )),
                _ => None,
            })
            .collect();
        (result, log)
    }

    /// The internal driver all public entry points funnel through.
    fn execute(mut self, iteration_scale: f64) -> (ExperimentResult, TraceBus) {
        self.st.iter_scale = iteration_scale.clamp(1e-6, 1.0);
        let wall_start = Instant::now();
        Admission.submit_jobs(&mut self.st);
        Stepper.schedule_initial_events(&mut self.st);
        let result = Stepper.run(&mut self.st, wall_start);
        let bus = std::mem::replace(&mut self.st.trace, TraceBus::disabled());
        // `MUDI_TRACE=1` dumps to stderr only: stdout (and the goldens
        // derived from it) stays byte-identical with tracing on.
        if bus.is_enabled() && simcore::env::is_set("MUDI_TRACE") {
            eprint!("{}", bus.summary());
            eprint!("{}", bus.render_tail(20));
        }
        (result, bus)
    }
}
