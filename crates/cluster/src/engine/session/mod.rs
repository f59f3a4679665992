//! The one driver of the staged kernel.
//!
//! A [`ClusterSession`] owns the engine state and a session clock that
//! only moves when the caller advances it. A batch experiment is a
//! session run to the end: [`ClusterSession::run_to_end`] steps windows
//! until the sim-time cap and stops in the window where the last job
//! completes, then [`ClusterSession::finish`] assembles the
//! [`ExperimentResult`]. A served or scripted session instead advances
//! simulated time explicitly with [`ClusterSession::step_until`] and
//! interleaves *live* operations between steps — routing individual
//! inference requests through the replica selector, deploying and
//! scaling services, injecting faults, and querying per-service SLO
//! compliance. The control plane in `crates/serve` drives a session
//! from HTTP handlers, pacing `step_until` off a wall or virtual
//! clock; everything here is deterministic given the config seed and
//! the call sequence, so a scripted session replays byte-for-byte.
//!
//! Both drivers share one window loop: each window is a parallel lane
//! phase, the envelope commit barrier, then the serial global phase, so
//! a session over a sharded cluster replays bit-identically across
//! every `(shards, workers)` grid point. Live faults are appended to
//! the run's fault schedule and delivered through the same `Faults`
//! stage.
//!
//! The module is split by concern: the request path (replica scoring
//! and latency sampling) lives in [`infer`], the admin operations
//! (deploy / scale / fault injection) in [`admin`], and the stepping
//! plus observability surface here.

mod admin;
mod infer;

pub use admin::{LiveFault, ScaleOutcome};
pub use infer::{GenInferOutcome, InferOutcome, TokenVerdict};

use infer::Candidate;

use std::time::Instant;

use modeling::bo::SearchCounts;
use mudi::TuneTrigger;
use resilience::FaultSchedule;
use simcore::{SimEvent, SimRng, SimTime, TraceBus, TraceConfig, TraceSummary, TracedEvent};
use workloads::{GroundTruth, ServiceId, TaskId};

use crate::metrics::{ExperimentResult, FaultMetrics};

use super::accum::ServiceFold;
use super::admission::Admission;
use super::config::ClusterConfig;
use super::control::Control;
use super::shard::epoch_end_after;
use super::state::{PlacementLog, SimState};
use super::stepper::Stepper;

/// Why a live operation was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The service id names no service in the zoo.
    UnknownService(ServiceId),
    /// The device index is out of range.
    UnknownDevice(usize),
    /// No live replica (or active standby) can serve the service right
    /// now — the HTTP layer maps this to `503`.
    NoReplica(ServiceId),
    /// The target device is down (deploys need a live device).
    DeviceDown(usize),
    /// The device is mid-failover (carrying rerouted traffic, covering
    /// as a standby, or promoting) and cannot be repurposed.
    DeviceBusy(usize),
    /// A token-mode request (`infer_tokens`) addressed a classifier
    /// service — only generative services decode autoregressively.
    NotGenerative(ServiceId),
    /// A live fault parameter (named) is not a finite number.
    InvalidFault(&'static str),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownService(s) => write!(f, "unknown service {}", s.0),
            SessionError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            SessionError::NoReplica(s) => write!(f, "no live replica for service {}", s.0),
            SessionError::DeviceDown(d) => write!(f, "device {d} is down"),
            SessionError::DeviceBusy(d) => write!(f, "device {d} is mid-failover"),
            SessionError::NotGenerative(s) => write!(f, "service {} is not generative", s.0),
            SessionError::InvalidFault(p) => write!(f, "fault parameter {p} must be finite"),
        }
    }
}

/// One row of the per-service SLO report.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceSlo {
    /// Service id.
    pub id: ServiceId,
    /// Model name (Tab. 1).
    pub name: &'static str,
    /// Latency SLO, seconds.
    pub slo_secs: f64,
    /// Devices currently assigned to the service (up or down).
    pub replicas_assigned: usize,
    /// Assigned devices that are up and serving.
    pub replicas_up: usize,
    /// Analytic request mass accrued so far.
    pub requests: f64,
    /// Analytic violation mass accrued so far.
    pub violations: f64,
    /// `violations / requests` in `[0, 1]`.
    pub violation_rate: f64,
    /// Individually routed API requests (`/v1/infer`).
    pub api_requests: u64,
    /// API requests whose sampled latency violated the SLO.
    pub api_violations: u64,
    /// Whether the service is currently in total outage (no live
    /// replica and no active standby).
    pub in_outage: bool,
}

/// Wall-clock split of the stepping work, for scaling diagnostics:
/// how much time was spent in the parallel lane phase versus the
/// serial barrier-plus-global phase, the parallelism applied, and the
/// exact tuning, accrual and routing work counts behind it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseProfile {
    /// Seconds spent in the (potentially parallel) lane phase.
    pub lane_secs: f64,
    /// Seconds spent in barrier commits and the serial global phase.
    pub serial_secs: f64,
    /// Seconds of `serial_secs` spent draining and applying
    /// epoch-barrier envelopes (a diagnostic sub-counter).
    pub barrier_secs: f64,
    /// Worker threads applied to the lane phase.
    pub workers: usize,
    /// Number of device lanes (shards).
    pub lanes: usize,
    /// Exact tuning-work counts.
    pub tuning: TuningCounters,
    /// Exact SLO-accrual work counts.
    pub accrual: AccrualCounters,
    /// Exact request-routing work counts.
    pub routing: RouteCounters,
}

/// Exact counts of the tuning work so far. Each lane counts its own
/// devices' passes and lane-phase searches, and the session memo counts
/// the serial phase's searches; [`ClusterSession::phase_profile`] sums
/// them. Every count is the same at every shard and worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TuningCounters {
    /// Tuning passes (`Multiplexer::configure` calls) per trigger,
    /// indexed by [`TuneTrigger`] discriminant.
    pub passes: [u64; TuneTrigger::ALL.len()],
    /// GP-LCB search traffic through the session memo, both phases.
    pub search: SearchCounts,
}

impl TuningCounters {
    /// Passes started by `trigger`.
    pub fn passes(&self, trigger: TuneTrigger) -> u64 {
        self.passes[trigger as usize]
    }

    /// Passes over every trigger.
    pub fn total_passes(&self) -> u64 {
        self.passes.iter().sum()
    }
}

impl std::fmt::Display for TuningCounters {
    /// One line: the passes per trigger (nonzero ones), then the
    /// searches, proposal points, memo hits (and hit rate), GP refits
    /// and searches that met a full memo.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "passes {}", self.total_passes())?;
        for t in TuneTrigger::ALL {
            if self.passes(t) > 0 {
                write!(f, " {}={}", t.name(), self.passes(t))?;
            }
        }
        let s = &self.search;
        write!(
            f,
            " | searches {} proposals {} hits {} ({:.1}%) refits {} full {}",
            s.searches,
            s.proposals,
            s.hits,
            100.0 * s.hit_rate(),
            s.refits,
            s.full
        )
    }
}

/// Exact counts of the classifier SLO accrual so far: how many spans
/// asked for a [`super::violation_probability`]. Each lane counts its
/// own devices' spans, both phases; [`ClusterSession::phase_profile`]
/// sums them. At a fixed shard count every count is the same at every
/// worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccrualCounters {
    /// Accrual spans that needed a violation probability.
    pub evaluations: u64,
}

impl AccrualCounters {
    /// Counts one evaluation.
    pub(crate) fn record(&mut self) {
        self.evaluations += 1;
    }

    /// Adds `other`'s counts.
    pub(crate) fn add(&mut self, other: &AccrualCounters) {
        self.evaluations += other.evaluations;
    }
}

impl std::fmt::Display for AccrualCounters {
    /// One line: the evaluations.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vp evaluations {}", self.evaluations)
    }
}

/// Exact counts of the request path's routing work so far. A routed
/// request the route cache answers (`cached`) scans nothing; every other
/// one scans its service's roster once. A scan visits each up replica (primary or
/// active standby) and fully scores those that can still win
/// (`ClusterSession::scan`), so `visited - scored` replicas were pruned;
/// `hinted` of those were pruned from the routing table without reading
/// their device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteCounters {
    /// Roster scans: routed requests the route cache did not answer.
    pub scans: u64,
    /// Routed requests the route cache answered.
    pub cached: u64,
    /// Replicas those scans visited.
    pub visited: u64,
    /// Visited replicas answered from the routing table alone.
    pub hinted: u64,
    /// Visited replicas that were fully scored.
    pub scored: u64,
}

impl RouteCounters {
    /// Visited replicas whose score was skipped because they could not
    /// win.
    pub fn pruned(&self) -> u64 {
        self.visited - self.scored
    }

    /// Adds `other`'s counts.
    pub(crate) fn add(&mut self, other: &RouteCounters) {
        self.scans += other.scans;
        self.cached += other.cached;
        self.visited += other.visited;
        self.hinted += other.hinted;
        self.scored += other.scored;
    }
}

impl std::fmt::Display for RouteCounters {
    /// One line: the scans and the cache hits, then the replicas
    /// visited, answered from the routing table, scored and pruned.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "route scans {} cached {} visited {} hinted {} scored {} pruned {}",
            self.scans,
            self.cached,
            self.visited,
            self.hinted,
            self.scored,
            self.pruned()
        )
    }
}

/// A live, incrementally stepped cluster: the engine state plus a
/// session clock that only moves when the caller advances it.
pub struct ClusterSession {
    st: SimState,
    /// The session horizon: every event at or before it has fired, and
    /// live operations execute at this instant. Monotonic.
    now: SimTime,
    /// Dedicated stream for per-request latency draws, forked off the
    /// run RNG so request sampling never perturbs the kernel's streams.
    infer_rng: SimRng,
    /// Per-service `(requests, violations)` for individually routed
    /// API requests, indexed like the zoo's service list.
    api: Vec<(u64, u64)>,
    /// Routing decisions at the current device state, per `(service,
    /// request kind)` at `2 * service + kind`. Routing reads only state
    /// that stepping, reports and the admin operations change, and each
    /// of those clears the cache; between them a decision is a pure
    /// function of that state, so a cached choice is the one a fresh
    /// scan would make.
    routes: Vec<Option<(usize, Candidate)>>,
    /// Routing work so far.
    route_counters: RouteCounters,
    /// Last training-job completion (for the makespan).
    last_finish: SimTime,
    wall_start: Instant,
}

impl ClusterSession {
    /// Builds a session: jobs submitted, initial events seeded, clock
    /// at zero. Nothing has fired yet — advance with
    /// [`ClusterSession::step_until`].
    pub fn new(config: ClusterConfig) -> Self {
        Self::new_scaled(config, 1.0)
    }

    /// Like [`ClusterSession::new`] with every job's iteration count
    /// multiplied by `iteration_scale` (tests use ≪1).
    pub fn new_scaled(config: ClusterConfig, iteration_scale: f64) -> Self {
        Self::build(config, iteration_scale, None)
    }

    /// Like [`ClusterSession::new_scaled`], replaying `schedule` instead
    /// of the fault schedule the config would generate — tests inject
    /// hand-built scenarios (e.g. exactly one failure at a known time).
    pub fn with_fault_schedule(
        config: ClusterConfig,
        iteration_scale: f64,
        schedule: FaultSchedule,
    ) -> Self {
        Self::build(config, iteration_scale, Some(schedule))
    }

    fn build(config: ClusterConfig, iteration_scale: f64, schedule: Option<FaultSchedule>) -> Self {
        let mut st = SimState::new(config);
        st.iter_scale = iteration_scale.clamp(1e-6, 1.0);
        if let Some(schedule) = schedule {
            st.fault_schedule = schedule;
        }
        let wall_start = Instant::now();
        Admission.submit_jobs(&mut st);
        Stepper.schedule_initial_events(&mut st);
        let infer_rng = st.shared.rng.fork("serve-infer");
        let n_services = st.shared.gt.zoo().services().len();
        ClusterSession {
            st,
            now: SimTime::ZERO,
            infer_rng,
            api: vec![(0, 0); n_services],
            routes: Vec::new(),
            route_counters: RouteCounters::default(),
            last_finish: SimTime::ZERO,
            wall_start,
        }
    }

    /// Replaces the trace-bus configuration (the control plane turns
    /// the bus on to feed `/metrics` and `/events`). Call before
    /// stepping; events recorded so far are discarded.
    pub fn set_trace_config(&mut self, cfg: TraceConfig) {
        self.st.trace = TraceBus::new(cfg);
    }

    /// Current session time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of kernel events fired so far, summed across the global
    /// queue and every device lane.
    pub fn events_fired(&self) -> u64 {
        self.st.fired()
    }

    /// Fires every pending event at or before `horizon` (clamped to
    /// the config's `max_sim_secs` cap) and advances the session clock
    /// there. Returns how many events fired. A horizon at or before
    /// the current clock is a no-op.
    pub fn step_until(&mut self, horizon: SimTime) -> u64 {
        let horizon = horizon.min(self.cap());
        if horizon <= self.now {
            return 0;
        }
        let before = self.st.fired();
        self.run_windows(horizon, false);
        self.now = horizon;
        self.st.fired() - before
    }

    /// Runs the batch stop rule: steps windows until the sim-time cap,
    /// stopping in the window where the last job completes. The clock
    /// moves to the last fired event, so [`ClusterSession::finish`]
    /// closes the run there. With `MUDI_TRACE=1` the trace summary and
    /// its event tail go to stderr; stdout stays byte-identical.
    pub fn run_to_end(&mut self) {
        self.run_windows(self.cap(), true);
        self.now = self.now.max(self.st.sim_now());
        let bus = &self.st.trace;
        if bus.is_enabled() && simcore::env::flag("MUDI_TRACE") {
            eprint!("{}", bus.summary());
            eprint!("{}", bus.render_tail(20));
        }
    }

    /// The one window loop. Drains in epoch windows: the lane phase
    /// steps each shard's local queue in parallel, the barrier commits
    /// cross-lane envelopes in canonical `(time, device, seq)` order,
    /// then the serial phase fires global events. Handlers may schedule
    /// follow-ups inside the horizon, so windows keep opening until
    /// nothing at or before it remains — or, with `check_done`, until
    /// every job has completed.
    fn run_windows(&mut self, horizon: SimTime, check_done: bool) {
        self.routes.clear();
        while let Some(next) = self.st.next_event_time().filter(|&t| t <= horizon) {
            let t1 = epoch_end_after(self.st.config.shard_epoch_secs, next).min(horizon);
            if Stepper.run_window(&mut self.st, t1, &mut self.last_finish, check_done) {
                break;
            }
        }
    }

    /// The sim-time cap (`max_sim_secs`).
    fn cap(&self) -> SimTime {
        SimTime::from_secs(self.st.config.max_sim_secs)
    }

    // ------------------------------------------------------------------
    // Observability.
    // ------------------------------------------------------------------

    /// The per-service SLO report at the current session time, built in
    /// one device-ascending pass: each device is accrued (so the numbers
    /// include the span since the last event), its service partials go
    /// straight into the fixed-shape tree fold, and its replica is
    /// counted. Every service folds its partials in device order in the
    /// fixed [`simcore::tree_fold`] shape, the same fold the final
    /// result uses, so the report is identical across every `(shards,
    /// workers)` grid point. Accrual's only cross-device effect is job
    /// progress, never another device's partials, so folding each
    /// device right after accruing it is exact. The outage flag is the
    /// engine's one total-outage rule, `SimState::service_down`.
    pub fn service_report(&mut self) -> Vec<ServiceSlo> {
        self.routes.clear();
        let now = self.now;
        let n = self.st.shared.gt.zoo().services().len();
        let mut fold = ServiceFold::new(n);
        let (mut assigned, mut up) = (vec![0usize; n], vec![0usize; n]);
        for d in 0..self.st.devices.len() {
            Control.accrue(&mut self.st, now, d);
            let ds = &self.st.dstate[d];
            fold.push(&ds.acc);
            assigned[ds.service.0] += 1;
            up[ds.service.0] += usize::from(self.st.devices[d].is_up());
        }
        let table = fold.finish();
        let st = &self.st;
        let services = st.shared.gt.zoo().services();
        let mut rows = Vec::with_capacity(services.len());
        for (i, spec) in services.iter().enumerate() {
            let id = spec.id;
            let (requests, violations) = table
                .get(id)
                .map_or((0.0, 0.0), |m| (m.requests, m.violations));
            let rate = if requests > 0.0 {
                (violations / requests).clamp(0.0, 1.0)
            } else {
                0.0
            };
            rows.push(ServiceSlo {
                id,
                name: spec.name,
                slo_secs: spec.slo_secs(),
                replicas_assigned: assigned[id.0],
                replicas_up: up[id.0],
                requests,
                violations,
                violation_rate: rate,
                api_requests: self.api[i].0,
                api_violations: self.api[i].1,
                in_outage: st.service_down(id),
            });
        }
        rows
    }

    /// Snapshot of the fault/recovery accounting, with the per-device
    /// float partials folded in (tree order, shard-invariant).
    pub fn fault_metrics(&self) -> FaultMetrics {
        self.st.folded_fmetrics()
    }

    /// Wall-clock split between the parallel lane phase and the serial
    /// commit/global phase accumulated so far, with the tuning, accrual
    /// and routing counters ([`TuningCounters`], [`AccrualCounters`],
    /// [`RouteCounters`]). The
    /// utilization sample's read fan-out and the placement candidate
    /// scan run during the serial phase but parallelize over the same
    /// pool, so their time counts as lane work here.
    pub fn phase_profile(&self) -> PhaseProfile {
        PhaseProfile {
            lane_secs: self.st.phase_lane_secs
                + self.st.phase_sample_secs
                + self.st.phase_place_secs,
            serial_secs: (self.st.phase_serial_secs
                - self.st.phase_sample_secs
                - self.st.phase_place_secs)
                .max(0.0),
            barrier_secs: self.st.phase_barrier_secs,
            workers: self.st.workers,
            lanes: self.st.lanes.len(),
            tuning: self.st.tuning_counters(),
            accrual: self.st.accrual_counters(),
            routing: self.route_counters,
        }
    }

    /// The trace-bus counter summary.
    pub fn trace_summary(&self) -> TraceSummary {
        self.st.trace.summary()
    }

    /// The retained trace events with `seq >= since` (cloned out of the
    /// ring), plus how many such events are no longer retained — the
    /// subscription feed behind the `/events` tail.
    pub fn trace_events_since(&self, since: u64) -> (Vec<TracedEvent>, u64) {
        let events: Vec<TracedEvent> = self.st.trace.events_since(since).cloned().collect();
        (events, self.st.trace.missed_since(since))
    }

    /// Device count.
    pub fn device_count(&self) -> usize {
        self.st.devices.len()
    }

    /// Devices currently up.
    pub fn devices_up(&self) -> usize {
        (0..self.st.devices.len())
            .filter(|&d| self.st.devices[d].is_up())
            .count()
    }

    /// Training jobs `(completed, submitted)`.
    pub fn job_counts(&self) -> (usize, usize) {
        let done = self
            .st
            .jobs
            .iter()
            .filter(|j| j.state == crate::job::JobState::Completed)
            .count();
        (done, self.st.jobs.len())
    }

    /// The ground-truth zoo behind this session (service catalogue).
    pub fn zoo(&self) -> &workloads::Zoo {
        self.st.shared.gt.zoo()
    }

    /// The ground-truth model backing this session.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.st.shared.gt
    }

    /// The fault schedule this session replays (live faults included).
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.st.fault_schedule
    }

    /// The placement log `(task, chosen device, candidates)` for the
    /// §5.4 optimality analysis, rebuilt from the retained `Placement`
    /// events. Empty unless the trace config keeps placements
    /// ([`TraceConfig::with_placement_log`]).
    pub fn placement_log(&self) -> PlacementLog {
        self.st
            .trace
            .placements()
            .iter()
            .filter_map(|te| match &te.event {
                SimEvent::Placement {
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
            .collect()
    }

    /// Finalizes the session at its clock (or the last fired event, if
    /// later) and assembles the result.
    pub fn finish(mut self) -> ExperimentResult {
        let end = self.now.max(self.st.sim_now());
        Stepper.finalize(&mut self.st, end);
        Stepper.build_result(
            &mut self.st,
            self.last_finish,
            self.wall_start.elapsed().as_secs_f64(),
        )
    }

    // ------------------------------------------------------------------
    // Internals (shared with the admin/infer submodules).
    // ------------------------------------------------------------------

    /// The engine state and the session clock, for in-crate test oracles.
    #[cfg(test)]
    pub(super) fn state_mut(&mut self) -> (&mut SimState, SimTime) {
        self.routes.clear();
        (&mut self.st, self.now)
    }

    /// Rejects an id outside the zoo. Ids are the zoo's indexes
    /// ([`workloads::Zoo::service`] indexes `id.0`).
    fn check_service(&self, service: ServiceId) -> Result<(), SessionError> {
        if service.0 < self.st.shared.gt.zoo().services().len() {
            Ok(())
        } else {
            Err(SessionError::UnknownService(service))
        }
    }

    fn up_replicas(&self, service: ServiceId) -> usize {
        self.st.up_primaries(service).count()
    }

    /// Up replicas per service, indexed by service id.
    fn up_replica_counts(&self) -> Vec<usize> {
        (0..self.st.shared.gt.zoo().services().len())
            .map(|i| self.up_replicas(ServiceId(i)))
            .collect()
    }

    /// Whether `d` can be repurposed at all: up, not carrying failover
    /// traffic, not covering or promoting a standby.
    fn eligible(&self, d: usize) -> bool {
        self.st.devices[d].is_up()
            && self.st.dstate[d].extra_qps == 0.0
            && self.st.dstate[d].pending_promote.is_none()
            && !self.st.devices[d]
                .standby()
                .is_some_and(gpu_sim::StandbyInstance::is_active)
    }

    /// Whether `d` is a valid scale-up donor for `target` (eligible and
    /// not already serving it, and not the last live replica of its own
    /// service — scaling one service up must not silently black out
    /// another). `counts` is [`ClusterSession::up_replica_counts`].
    fn eligible_for_switch(&self, d: usize, target: ServiceId, counts: &[usize]) -> bool {
        let svc = self.st.dstate[d].service;
        self.eligible(d) && svc != target && counts[svc.0] > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScalePreset;
    use crate::systems::SystemKind;
    use simcore::{SimDuration, SimEventKind};

    fn session(seed: u64) -> ClusterSession {
        ClusterSession::new_scaled(ClusterConfig::tiny(SystemKind::Mudi, seed), 0.002)
    }

    #[test]
    fn step_until_is_monotonic_and_clamped() {
        let mut s = session(1);
        assert_eq!(s.now(), SimTime::ZERO);
        let fired = s.step_until(SimTime::from_secs(600.0));
        assert!(fired > 0, "initial events must fire inside 10 minutes");
        assert_eq!(s.now(), SimTime::from_secs(600.0));
        // A horizon in the past is a no-op.
        assert_eq!(s.step_until(SimTime::from_secs(10.0)), 0);
        assert_eq!(s.now(), SimTime::from_secs(600.0));
        // Relative stepping lands exactly delta later.
        s.step_until(s.now() + SimDuration::from_secs(60.0));
        assert_eq!(s.now(), SimTime::from_secs(660.0));
    }

    #[test]
    fn stepping_then_running_to_the_end_matches_a_straight_run() {
        // A session stepped to epoch boundaries before the last job
        // completes, then run to the end, opens the same windows as a
        // straight run and so finishes with the same result.
        let mut straight = session(6);
        straight.run_to_end();
        let end = straight.now().as_secs();
        let (done, submitted) = straight.job_counts();
        assert_eq!(done, submitted);
        let mut stepped = session(6);
        let epoch = stepped.st.config.shard_epoch_secs;
        let (mut h, mut steps) = (epoch, 0);
        while h + epoch < end {
            steps += u64::from(stepped.step_until(SimTime::from_secs(h)) > 0);
            h += 3.0 * epoch;
        }
        assert!(steps >= 2, "the run must span several steps");
        stepped.run_to_end();
        assert_eq!(stepped.now(), straight.now());
        assert_eq!(
            stepped.finish().canonical_text(),
            straight.finish().canonical_text()
        );
    }

    #[test]
    fn infer_routes_and_tallies() {
        let mut s = session(2);
        s.set_trace_config(TraceConfig::enabled());
        s.step_until(SimTime::from_secs(300.0));
        let svc = s.zoo().services()[0].id;
        let mut violations = 0u64;
        for _ in 0..50 {
            let out = s.infer(svc).expect("replica available");
            assert_eq!(out.service, svc);
            assert!(out.device < s.device_count());
            assert!(out.latency_secs > 0.0);
            assert_eq!(out.violation, out.latency_secs > out.slo_secs);
            violations += u64::from(out.violation);
        }
        let report = s.service_report();
        let row = report.iter().find(|r| r.id == svc).unwrap();
        assert_eq!(row.api_requests, 50);
        assert_eq!(row.api_violations, violations);
        // The trace bus saw exactly the routed requests.
        let summary = s.trace_summary();
        assert_eq!(summary.count(SimEventKind::InferenceRouted), 50);

        let bogus = ServiceId(usize::MAX);
        assert_eq!(s.infer(bogus), Err(SessionError::UnknownService(bogus)));
    }

    #[test]
    fn cached_routes_match_a_fresh_scan_after_every_operation() {
        // Two sessions take the same calls; `fresh` forgets its routes
        // before every request, so each of its requests scans every
        // replica. A cached route that outlived a state change would
        // pick another replica or sample another latency.
        let boot = || {
            let cfg = ClusterConfig::builder(ScalePreset::Physical, SystemKind::Mudi, 9)
                .llm_services(true)
                .build();
            let mut s = ClusterSession::new_scaled(cfg, 0.002);
            s.step_until(SimTime::from_secs(120.0));
            s
        };
        let (mut cached, mut fresh) = (boot(), boot());
        let services: Vec<_> = cached.zoo().services().to_vec();
        let requests = |s: &mut ClusterSession, forget: bool| {
            let mut out = String::new();
            for spec in &services {
                for _ in 0..3 {
                    if forget {
                        s.routes.clear();
                    }
                    out.push_str(&format!("{:?}\n", s.infer(spec.id)));
                    if spec.is_generative() {
                        if forget {
                            s.routes.clear();
                        }
                        out.push_str(&format!("{:?}\n", s.infer_tokens(spec.id, 4)));
                    }
                }
            }
            out
        };
        let ops: [&dyn Fn(&mut ClusterSession); 6] = [
            &|s| {
                s.step_until(s.now() + SimDuration::from_secs(90.0));
            },
            &|s| {
                s.service_report();
            },
            &|s| {
                s.inject_fault(
                    2,
                    LiveFault::Slowdown {
                        factor: 0.3,
                        duration_secs: 600.0,
                    },
                )
                .unwrap()
            },
            &|s| {
                let svc = s.zoo().services()[0].id;
                let up = s.up_replicas(svc);
                s.scale_service(svc, up + 1).unwrap();
            },
            &|s| {
                s.inject_fault(3, LiveFault::DeviceFailure { repair_secs: 600.0 })
                    .unwrap()
            },
            &|s| {
                let svc = s.zoo().services()[1].id;
                let counts = s.up_replica_counts();
                let d = (0..s.device_count())
                    .find(|&d| s.eligible_for_switch(d, svc, &counts))
                    .unwrap();
                s.deploy_replica(d, svc).unwrap();
            },
        ];
        assert_eq!(requests(&mut cached, false), requests(&mut fresh, true));
        for op in ops {
            op(&mut cached);
            op(&mut fresh);
            assert_eq!(requests(&mut cached, false), requests(&mut fresh, true));
        }
    }

    #[test]
    fn deploy_and_scale_repurpose_devices() {
        // 12 devices over the 6-service zoo: two replicas per service,
        // so scale-up has eligible donors (the last replica of a
        // service is never repurposed).
        let cfg = ClusterConfig::physical(SystemKind::Mudi, 3);
        let mut s = ClusterSession::new_scaled(cfg, 0.002);
        s.step_until(SimTime::from_secs(120.0));
        let svc = s.zoo().services()[1].id;
        let before = s.up_replicas(svc);
        let target = before + 2;
        let outcome = s.scale_service(svc, target).expect("scale up");
        assert_eq!(outcome.achieved, target);
        assert_eq!(outcome.moves.len(), 2);
        for &(d, from, to) in &outcome.moves {
            assert!(d < s.device_count());
            assert_ne!(from, to);
            assert_eq!(to, svc);
            assert!(s.up_replicas(from) >= 1, "donor kept a replica");
        }
        // Scale back down to the original count.
        let outcome = s.scale_service(svc, before).expect("scale down");
        assert_eq!(outcome.achieved, before);
        // Deploying a service on a device that already hosts it is a
        // no-op; an out-of-range device is an error.
        let replica = (0..s.device_count())
            .find(|&d| s.up_replicas(svc) > 0 && s.deploy_replica(d, svc) == Ok(()))
            .expect("some device accepts the deploy");
        assert!(replica < s.device_count());
        assert!(s
            .deploy_replica(s.device_count(), svc)
            .is_err_and(|e| e == SessionError::UnknownDevice(s.device_count())));
    }

    #[test]
    fn live_fault_takes_a_device_down_and_repair_restores_it() {
        let mut s = session(4);
        s.step_until(SimTime::from_secs(60.0));
        let all = s.device_count();
        assert_eq!(s.devices_up(), all);
        s.inject_fault(0, LiveFault::DeviceFailure { repair_secs: 120.0 })
            .expect("inject");
        assert_eq!(s.devices_up(), all - 1);
        assert_eq!(s.fault_metrics().device_failures, 1);
        // A down device rejects deploys.
        let svc = s.zoo().services()[0].id;
        assert_eq!(s.deploy_replica(0, svc), Err(SessionError::DeviceDown(0)));
        // The repair event is in the queue; stepping past it restores.
        s.step_until(s.now() + SimDuration::from_secs(300.0));
        assert_eq!(s.devices_up(), all);
    }

    #[test]
    fn scripted_session_replays_byte_identically() {
        let run = |seed: u64| {
            let mut s = session(seed);
            s.set_trace_config(TraceConfig::enabled());
            let mut script = String::new();
            s.step_until(SimTime::from_secs(200.0));
            let svc = s.zoo().services()[0].id;
            for _ in 0..10 {
                let out = s.infer(svc).unwrap();
                script.push_str(&format!("{} {:.12}\n", out.device, out.latency_secs));
            }
            s.inject_fault(
                1,
                LiveFault::Slowdown {
                    factor: 0.5,
                    duration_secs: 90.0,
                },
            )
            .unwrap();
            s.step_until(s.now() + SimDuration::from_secs(400.0));
            for r in s.service_report() {
                script.push_str(&format!(
                    "{} {} {:.9} {}\n",
                    r.id.0, r.replicas_up, r.violation_rate, r.api_requests
                ));
            }
            script.push_str(&format!("fired={}\n", s.events_fired()));
            script.push_str(&s.finish().canonical_text());
            script
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn trace_events_since_feeds_a_tail() {
        let mut s = session(5);
        s.set_trace_config(TraceConfig::enabled());
        s.step_until(SimTime::from_secs(400.0));
        let (events, missed) = s.trace_events_since(0);
        assert!(!events.is_empty());
        // Sequence numbers are contiguous within the retained window.
        for pair in events.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
        let last = events.last().unwrap().seq;
        let (rest, missed2) = s.trace_events_since(last + 1);
        assert!(rest.is_empty());
        assert_eq!(missed2, 0);
        let _ = missed;
    }
}
