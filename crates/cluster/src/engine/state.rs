//! Shared simulation state, per-lane state, and the engine-internal
//! event alphabet.
//!
//! [`SimState`] is the single mutable contract every stage operates
//! on: the stage structs ([`Admission`], [`Control`], [`Faults`],
//! [`Stepper`]) hold no state of their own and receive `&mut SimState`
//! explicitly, so the data flow between stages is visible at every
//! call site instead of hidden in captured locals.
//!
//! The parallel-commit split lives here too: [`LaneBox`] owns
//! everything one execution lane mutates during the lane phase (a
//! contiguous device range's event queue, a tuner replica with its
//! proposal memo and pass counters, the envelope outbox and pooled
//! scratch), and [`LaneCtx`] is the view a lane handler receives — its
//! own device slices plus read-only shared state. A lane handler never
//! writes shared state, the trace bus included: it defers every such
//! effect into its outbox. The serial phase reconstructs the same view
//! through [`SimState::with_lane_of`] and drains the outbox at once, so
//! lane handlers are the *only* implementation of per-device control
//! logic at every grid point.
//!
//! [`Admission`]: super::admission::Admission
//! [`Control`]: super::control::Control
//! [`Faults`]: super::faults::Faults
//! [`Stepper`]: super::stepper::Stepper

use gpu_sim::{
    DeviceId, GpuDevice, InferenceInstance, ResidentId, StandbyInstance, TrainingProcess,
};
use modeling::bo::{DecisionMemo, Memos};
use mudi::policy::{FairState, QueueItem};
use mudi::{CircuitBreaker, Monitor, RetuneGuard, TuneTrigger};
use resilience::{
    CheckpointTracker, FaultSchedule, StandbyPolicy, DEGRADED_TRAINING_SHARE, RETUNE_DWELL_SECS,
    STANDBY_RESERVE_FRACTION,
};
use simcore::{
    EventQueue, ShardMap, SimDuration, SimEvent, SimRng, SimTime, Topology, TraceBus, TraceConfig,
    TreeFolder,
};
use workloads::perf::DEVICE_MEMORY_GB;
use workloads::{FluctuatingQps, GroundTruth, ServiceId, Zoo};

use crate::job::{JobId, TrainingJob};
use crate::metrics::{FaultMetrics, ServiceMetrics, ServiceTable};
use crate::systems::{build_system, Multiplexer};

use super::config::ClusterConfig;
use super::control::{standby_score, Control};
use super::roster::Roster;
use super::session::TuningCounters;
use super::shard::{Envelope, EventLane, OutMsg, VpCache, AUTO_SHARD_MIN_DEVICES};

/// Device-local engine events. Each concerns exactly one device and
/// touches only lane-local state, so it lives on the owning lane's
/// queue and fires in the lane phase (see the routing table in
/// [`super::shard`]).
#[derive(Clone, Debug)]
pub(super) enum LaneEvent {
    QpsChange(usize),
    /// Forced retune, scheduled when a device pauses its training so
    /// the pause is re-evaluated even without a QPS trigger.
    Retune(usize),
    /// A degraded window (slowdown or post-repair burn-in) ends. The
    /// token invalidates stale events superseded by a newer window.
    SlowdownEnd {
        device: usize,
        token: u64,
    },
    /// A restarting training process finishes its cold restart.
    ProcessRestart {
        device: usize,
        job: JobId,
    },
}

impl LaneEvent {
    /// The device the event belongs to.
    pub fn device(&self) -> usize {
        match *self {
            LaneEvent::QpsChange(d) | LaneEvent::Retune(d) => d,
            LaneEvent::SlowdownEnd { device, .. } | LaneEvent::ProcessRestart { device, .. } => {
                device
            }
        }
    }
}

/// Shared-state engine events: they touch the job table, the queue or
/// several devices, so they live on the single global queue and fire
/// in the serial global phase.
#[derive(Clone, Debug)]
pub(super) enum GlobalEvent {
    JobArrival(JobId),
    JobCompletion {
        job: JobId,
        epoch: u64,
    },
    UtilSample,
    /// Injected fault (index into the run's [`FaultSchedule`]).
    Fault(usize),
    /// A failed device comes back into service.
    DeviceRepair(usize),
    /// A warm-standby shadow instance finishes its bounded promote and
    /// starts serving a failed replica's traffic. The token invalidates
    /// promotes superseded by a host failure or an early repair.
    StandbyPromote {
        host: usize,
        token: u64,
    },
}

/// Per-device mergeable accumulator partials.
///
/// Every float a lane accrues concurrently lands here instead of in a
/// global table, keyed by the device that produced it. The partials
/// are reduced by a fixed device-ascending tree fold
/// ([`ServiceFold`] / [`SimState::folded_fmetrics`]) whose
/// shape depends only on the replica count — never on the shard or
/// worker partition — so the folded sums are bit-identical across the
/// whole `MUDI_SHARDS × MUDI_THREADS` grid.
pub(super) struct DevAccum {
    /// Per-service metric partials this device accrued. A device
    /// touches at most a few services (its primary, a hosted standby,
    /// a session redeploy), so a tiny linear-scan vec beats a map.
    pub svc: Vec<(ServiceId, ServiceMetrics)>,
    /// Partial of [`FaultMetrics::dropped_requests`].
    pub dropped_requests: f64,
    /// Partial of [`FaultMetrics::rerouted_requests`].
    pub rerouted_requests: f64,
    /// Partial of [`FaultMetrics::standby_reserved_gpu_secs`].
    pub standby_reserved_gpu_secs: f64,
    /// Partial of [`FaultMetrics::standby_served_requests`].
    pub standby_served_requests: f64,
}

impl DevAccum {
    fn new() -> Self {
        DevAccum {
            // Pre-sized so the steady state never allocates: primary +
            // standby + two session redeploys before the first growth.
            svc: Vec::with_capacity(4),
            dropped_requests: 0.0,
            rerouted_requests: 0.0,
            standby_reserved_gpu_secs: 0.0,
            standby_served_requests: 0.0,
        }
    }

    /// The metric partial for `id` on this device (created on first
    /// touch).
    pub fn svc_entry(&mut self, id: ServiceId) -> &mut ServiceMetrics {
        if let Some(i) = self.svc.iter().position(|(s, _)| *s == id) {
            return &mut self.svc[i].1;
        }
        self.svc.push((id, ServiceMetrics::default()));
        &mut self.svc.last_mut().expect("just pushed").1
    }
}

/// The device-ascending tree fold of the per-device service partials:
/// one [`TreeFolder`] per service, fed one device at a time, so a
/// caller can fold each device right after accruing it. Every service
/// sees its partials in device order and folds them in the fixed
/// [`simcore::tree_fold`] shape, so the result does not depend on the
/// shard or worker partition.
pub(super) struct ServiceFold(Vec<TreeFolder<ServiceMetrics>>);

impl ServiceFold {
    /// A fold over services `0..n` (service ids are dense).
    pub fn new(n: usize) -> Self {
        ServiceFold((0..n).map(|_| TreeFolder::new()).collect())
    }

    /// Folds in the next device's partials (call in ascending device
    /// order).
    pub fn push(&mut self, acc: &DevAccum) {
        for (id, m) in &acc.svc {
            self.0[id.0].push(m.clone(), merge_metrics);
        }
    }

    /// The folded table: an entry exists for every service some device
    /// holds a partial of.
    pub fn finish(self) -> ServiceTable {
        let mut table = ServiceTable::new(self.0.len());
        for (i, folder) in self.0.into_iter().enumerate() {
            if let Some(m) = folder.finish(merge_metrics) {
                *table.entry(ServiceId(i)) = m;
            }
        }
        table
    }
}

fn merge_metrics(mut a: ServiceMetrics, b: ServiceMetrics) -> ServiceMetrics {
    a.merge(&b);
    a
}

/// Paused time after which training on a system without unified memory
/// counts as stuck and is evicted (30 simulated minutes).
pub(super) const STUCK_TRAINING_SECS: f64 = 1800.0;

/// Per-device engine-side state beyond the `GpuDevice` itself.
pub(super) struct DeviceState {
    pub qps_gen: FluctuatingQps,
    pub monitor: Monitor,
    /// Last time this device's metrics were accrued. Doubles as the
    /// device's *time watermark*: the serial phase clamps its
    /// per-device timestamps to this (`SimState::dev_time`) so a
    /// device's timeline stays monotone even when a global event fires
    /// at a time the lane already stepped past.
    pub last_accrue: SimTime,
    /// Last accrued P99 batch latency (feedback for GSLICE).
    pub last_p99: Option<f64>,
    /// Last accrued batch-service utilization (`mean latency / fill`).
    pub last_util: f64,
    /// Last accrued per-request violation probability.
    pub last_pviol: f64,
    /// Whether co-located training is paused (SLO infeasibility or,
    /// for non-Mudi systems, memory overflow).
    pub training_paused: bool,
    /// Epoch counter invalidating stale completion events.
    pub epoch: u64,
    /// The system's current cap on the total training GPU share.
    pub training_share_cap: f64,
    /// When the current pause began (None while running).
    pub paused_since: Option<SimTime>,
    /// Whether a Retune event is already queued for this device
    /// (prevents the pause paths from multiplying heartbeats).
    pub retune_pending: bool,
    /// Service pinned to this device (survives the replica's eviction
    /// while the device is down). Written only at construction and by
    /// [`SimState::repin`], which keeps the roster exact.
    pub service: ServiceId,
    /// Replica stashed while the device is down; its `qps` tracks the
    /// demand that is being dropped (zero-rated if failed over).
    pub stashed_inference: Option<InferenceInstance>,
    /// Failover traffic routed *to* this device from failed replicas.
    pub extra_qps: f64,
    /// Where this (failed) device's traffic went: `(survivor, share)`,
    /// undone at repair.
    pub rerouted: Vec<(usize, f64)>,
    /// Residents mid-restart `(id, until)`: no progress accrues before
    /// `until`.
    pub restarting: Vec<(ResidentId, SimTime)>,
    /// Anti-thrashing dwell/cooldown on fault-triggered retunes.
    pub guard: RetuneGuard,
    /// Sheds best-effort training share while the device is degraded.
    pub breaker: CircuitBreaker,
    /// Bumped whenever a new degraded window starts, so a stale
    /// `SlowdownEnd` cannot clear a newer window.
    pub degrade_token: u64,
    /// Faults observed on this device (every class), feeding the
    /// reliability prior of reliability-aware selectors.
    pub faults_seen: usize,
    /// While this (failed) device's traffic is served by a promoted
    /// standby: the host device carrying it.
    pub standby_host: Option<usize>,
    /// Frozen violation probability for standby-served traffic,
    /// computed from the host's live profile at promote time and
    /// refreshed at every serial-phase [`OutMsg::StandbyQps`] apply.
    /// The *demand mass* a standby serves is booked on this (down)
    /// device's own lane — which tracks the stash QPS exactly — so
    /// blast-traffic conservation stays exact under any partition;
    /// only the violation quality is quantized to serial refreshes.
    pub standby_pviol: f64,
    /// The service of the persistent standby-pool slot seeded on this
    /// device; survives the host's own failure so the pool re-seeds at
    /// repair.
    pub standby_slot: Option<ServiceId>,
    /// A promote in flight on this host: `(failed device, token)`.
    pub pending_promote: Option<(usize, u64)>,
    /// Bumped per promote so a stale `StandbyPromote` event cannot
    /// activate a superseded hand-off.
    pub promote_token: u64,
    /// Single-slot memo for this device's last violation-probability
    /// computation.
    pub vp_cache: VpCache,
    /// This device's GP-LCB retune substream, derived purely from
    /// `(seed, "retune", device)` — the hot-path replacement for the
    /// old order-sensitive global stream. Two devices retuning in any
    /// interleaving draw the same values, so retune decisions are
    /// partition-invariant.
    pub retune_rng: SimRng,
    /// Mergeable accumulator partials (see [`DevAccum`]).
    pub acc: DevAccum,
}

impl DeviceState {
    /// The training share cap actually applied: the system's decision,
    /// shed by the circuit-breaker while the device is degraded.
    pub fn applied_share_cap(&self, now: SimTime) -> f64 {
        (self.training_share_cap * self.breaker.share_multiplier(now)).clamp(0.01, 1.0)
    }

    /// Whether co-located training is stuck: paused for more than
    /// [`STUCK_TRAINING_SECS`] on a system without unified-memory
    /// swapping, which can stay overcommitted indefinitely. The
    /// operator evicts stuck training back to the queue.
    pub fn training_stuck(&self, now: SimTime, manages_memory: bool) -> bool {
        let stuck = self
            .paused_since
            .map(|t0| now.since(t0).as_secs() > STUCK_TRAINING_SECS)
            .unwrap_or(false);
        self.training_paused && stuck && !manages_memory
    }
}

/// The truly global, *read-only during the parallel phase* slice of
/// the run state: the ground truth (immutable after construction,
/// `Sync`), the base RNG the named substreams fork from, and the
/// placement stream (placement runs in the serial phase only; its
/// draws are keyed by the global dispatch order, which is itself
/// partition-invariant).
pub(super) struct SharedState {
    pub gt: GroundTruth,
    pub rng: SimRng,
    /// The §5.2 placement stream (`fork("place")`), consumed only by
    /// the serial admission path.
    pub place_rng: SimRng,
}

/// Everything one execution lane owns and mutates during the parallel
/// phase. Lanes are built once at construction along the
/// [`ShardMap`]'s contiguous device ranges.
pub(super) struct LaneBox {
    /// This lane's replica of the system under test. Every replica
    /// shares the session's one predictor fit, so offline profiling and
    /// tuner priors are identical across lanes; each replica's mutable
    /// state then only ever sees its own devices' retunes, which keeps
    /// it partition-invariant (retune draws come from per-device
    /// substreams anyway).
    pub system: Box<dyn Multiplexer>,
    /// The lane's event queue (lane-local events only).
    pub events: EventLane,
    /// Deferred effects, drained and merge-sorted at the barrier.
    pub outbox: Vec<Envelope>,
    /// The contiguous device range this lane owns.
    pub range: std::ops::Range<usize>,
    /// Pooled scratch for the lane accrual's training-progress pass.
    pub scratch_advance: Vec<(ResidentId, f64, f64)>,
    /// Pooled scratch for completion rescheduling.
    pub scratch_schedule: Vec<(ResidentId, f64)>,
    /// Pooled backing storage for the [`crate::systems::DeviceView`]
    /// task list built on every reconfigure.
    pub scratch_tasks: Vec<workloads::TaskId>,
    /// The GP-LCB proposal memo of this lane's lane-phase retunes.
    pub memo: DecisionMemo,
    /// Tuning passes on this lane's devices, both phases, indexed by
    /// [`TuneTrigger`] discriminant.
    pub tune_passes: [u64; TuneTrigger::ALL.len()],
}

/// The view a lane handler receives: the lane's own device slices
/// (indexed by `d - base`), its [`LaneBox`], and read-only shared
/// state. Built by [`SimState::with_lane_of`] in the serial phase, or
/// from split slices in the lane phase.
pub(super) struct LaneCtx<'a> {
    pub base: usize,
    pub devices: &'a mut [GpuDevice],
    pub dstate: &'a mut [DeviceState],
    pub lane: &'a mut LaneBox,
    pub gt: &'a GroundTruth,
    pub config: &'a ClusterConfig,
    pub jobs: &'a [TrainingJob],
    pub ckpt: &'a [CheckpointTracker],
    /// Whether the run traces: trace events then ride the outbox as
    /// [`OutMsg`] envelopes (see [`LaneCtx::push_trace`]).
    pub tracing: bool,
    /// The session's proposal memo: lent to the serial phase by
    /// [`SimState::with_lane_of`], shared read-only by the lane phase.
    pub session_memo: SessionMemo<'a>,
}

/// How a lane handler reaches the session's proposal memo. No lock is
/// taken either way, and which memos a retune reads and records into
/// depends only on its phase and lane, never on the worker count.
pub(super) enum SessionMemo<'a> {
    /// The serial phase: every retune reads and records into it.
    Lent(&'a mut DecisionMemo),
    /// The lane phase, in which nothing writes the session memo: a
    /// retune reads it and records into the lane's own
    /// [`LaneBox::memo`].
    Shared(&'a DecisionMemo),
}

impl SessionMemo<'_> {
    /// The memos of a retune on a lane whose own memo is `lane`.
    pub fn with_lane<'b>(&'b mut self, lane: &'b mut DecisionMemo) -> Memos<'b> {
        match self {
            SessionMemo::Lent(memo) => Memos::from(&mut **memo),
            SessionMemo::Shared(memo) => Memos {
                own: lane,
                shared: Some(*memo),
            },
        }
    }
}

impl LaneCtx<'_> {
    /// Defers an effect into the lane outbox, stamped with the next
    /// `(time, device, seq)` merge key.
    pub fn push_msg(&mut self, at: SimTime, d: usize, msg: OutMsg) {
        let key = self.lane.events.next_msg_key(at, d);
        self.lane.outbox.push(Envelope { key, msg });
    }

    /// Defers a trace event of device `d` when the run traces; the
    /// barrier emits it on the bus in merge-key order, so the stream
    /// does not depend on the shard or worker partition.
    pub fn push_trace(&mut self, at: SimTime, d: usize, msg: OutMsg) {
        if self.tracing {
            self.push_msg(at, d, msg);
        }
    }

    /// Schedules a lane-local event for its device.
    pub fn schedule(&mut self, at: SimTime, ev: LaneEvent) {
        self.lane.events.schedule(at, ev);
    }
}

/// Proposal-memo slots per device a memo serves, before the bounds.
const MEMO_SLOTS_PER_DEVICE: usize = 16;
/// Slot bounds of a lane's memo: 64–256 KiB.
const LANE_MEMO_SLOTS: (usize, usize) = (1 << 12, 1 << 14);
/// Slot bounds of the session memo: 64 KiB–2 MiB. It serves every
/// serial-phase retune, among them a failure's survivor fan-out over
/// the whole service, so it gets the larger cap.
const SESSION_MEMO_SLOTS: (usize, usize) = (1 << 12, 1 << 17);

/// A proposal memo sized for `devices` devices within `(min, max)`
/// slots (16 bytes each), allocated once here.
fn decision_memo(devices: usize, (min, max): (usize, usize)) -> DecisionMemo {
    DecisionMemo::with_slots((devices * MEMO_SLOTS_PER_DEVICE).clamp(min, max))
}

/// Everything a run mutates, shared by every stage through an explicit
/// `&mut SimState` parameter.
pub(super) struct SimState {
    pub config: ClusterConfig,
    /// Global state every lane reads (see [`SharedState`]).
    pub shared: SharedState,
    pub devices: Vec<GpuDevice>,
    pub dstate: Vec<DeviceState>,
    pub jobs: Vec<TrainingJob>,
    pub queue: Vec<QueueItem<JobId>>,
    pub fair: FairState,
    /// The global event queue (shared-state events only).
    pub events: EventQueue<GlobalEvent>,
    /// The execution lanes, along contiguous ascending device ranges.
    pub lanes: Vec<LaneBox>,
    /// Device → lane index.
    pub lane_idx: Vec<u32>,
    /// Parallel lane workers, resolved once at construction
    /// (`config.workers`, `0` = `MUDI_THREADS` / core count).
    pub workers: usize,
    /// Pooled envelope buffers for the (possibly nested) barrier
    /// drains; the last entry is the big barrier buffer, the leading
    /// entries serve nested drains inside envelope application.
    pub msg_pool: Vec<Vec<Envelope>>,
    pub util_series: Vec<(f64, f64, f64)>,
    pub bo_iterations: Vec<usize>,
    pub placement_secs: Vec<f64>,
    pub iter_scale: f64,
    /// Pre-drawn fault sequence for this run (empty without a profile).
    pub fault_schedule: FaultSchedule,
    /// Warm-standby pool of this run's recovery policy (disabled
    /// without a fault profile).
    pub standby: StandbyPolicy,
    /// Fault/recovery accounting, surfaced in the result. The four
    /// lane-accrued float fields additionally carry per-device partials
    /// in [`DevAccum`], folded in by [`SimState::folded_fmetrics`].
    pub fmetrics: FaultMetrics,
    /// Per-job checkpoint trackers, indexed like `jobs`.
    pub ckpt: Vec<CheckpointTracker>,
    /// The rack/node hierarchy devices are addressed through.
    pub topo: Topology,
    /// Open total-outage window start per service (indexed by
    /// `ServiceId`, `None` while the service is not down); closed at
    /// repair, deploy or end-of-run.
    pub outage_start: Vec<Option<SimTime>>,
    /// Which devices serve each service (see [`Roster`]).
    pub roster: Roster,
    /// Cached length of the leading run of completed jobs in `jobs`;
    /// see [`SimState::all_done`].
    pub done_prefix: usize,
    /// The structured event-trace bus (disabled unless `MUDI_TRACE=1`
    /// or a caller opted in; zero-cost when disabled). Only the serial
    /// phase writes it: lanes defer their trace events to the barrier.
    pub trace: TraceBus,
    /// Wall-clock seconds spent in the (parallelizable) lane phase.
    pub phase_lane_secs: f64,
    /// Wall-clock seconds spent in the serial phase (barrier drain +
    /// global dispatch).
    pub phase_serial_secs: f64,
    /// Wall-clock seconds of the serial phase spent inside the
    /// utilization sample's parallel read fan-out — a subset of
    /// [`SimState::phase_serial_secs`] that the phase profile reports
    /// as parallelizable.
    pub phase_sample_secs: f64,
    /// Wall-clock seconds of the serial phase spent draining and
    /// applying epoch-barrier envelopes — a subset of
    /// [`SimState::phase_serial_secs`], split out for the scaling
    /// ledger's diagnostics.
    pub phase_barrier_secs: f64,
    /// Wall-clock seconds of the serial phase spent building placement
    /// candidate views — a subset of [`SimState::phase_serial_secs`]
    /// that runs as an order-preserving chunked fan-out over the device
    /// table and is therefore reported as parallelizable by the phase
    /// profile.
    pub phase_place_secs: f64,
    /// The proposal memo every serial-phase retune records into, and
    /// every lane-phase retune reads (see [`SessionMemo`]).
    pub session_memo: DecisionMemo,
}

impl SimState {
    /// Builds the cluster state with the ground truth seeded from the
    /// config and the system's offline profiling already performed.
    pub fn new(config: ClusterConfig) -> Self {
        let zoo = if config.llm_services {
            Zoo::with_llms()
        } else {
            Zoo::standard()
        };
        let gt = GroundTruth::new(zoo, config.seed ^ 0xA100);
        let rng = SimRng::seed(config.seed);
        let n_services = gt.zoo().services().len();
        let standby = config
            .faults
            .map_or_else(StandbyPolicy::disabled, |p| p.recovery.standby);
        let topo = Topology::new(config.topology, config.devices);
        let fault_schedule = match &config.faults {
            Some(profile) => FaultSchedule::generate_with_topology(
                &profile.faults,
                profile.correlated.as_ref(),
                &topo,
                config.max_sim_secs,
                &rng.fork("faults"),
            ),
            None => FaultSchedule::default(),
        };

        // Reliability-aware systems stripe same-service replicas across
        // racks so a single rack outage cannot take every replica down.
        // The striped layout only engages under fault injection: the
        // fault-free paper-reproduction runs keep the flat `d % n`
        // layout so topology never perturbs their results.
        let striped = config.faults.is_some() && config.system.reliability_aware();
        let service_idx: Vec<usize> = if striped {
            striped_service_assignment(&topo, config.devices, n_services)
        } else {
            (0..config.devices).map(|d| d % n_services).collect()
        };

        let mut devices = Vec::with_capacity(config.devices);
        let mut dstate = Vec::with_capacity(config.devices);
        for (d, &svc_idx) in service_idx.iter().enumerate() {
            let service = gt.zoo().services()[svc_idx].id;
            let slo = gt.zoo().service(service).slo;
            let mut dev = GpuDevice::new(DeviceId(d), DEVICE_MEMORY_GB);
            let qps_gen = FluctuatingQps::per_replica(rng.fork_indexed("qps", d));
            // Generative replicas sustain a few requests per second, not
            // hundreds: the shared generator's rate is scaled by the
            // service's calibration (`1.0` exactly for classifiers).
            let qps = qps_gen.current()
                * config.load_multiplier
                * gt.zoo().service(service).request_rate_scale();
            dev.deploy_inference(
                &gt,
                SimTime::ZERO,
                InferenceInstance::new(service, 16, 0.6, qps),
            );
            devices.push(dev);
            dstate.push(DeviceState {
                qps_gen,
                monitor: Monitor::new(slo),
                last_accrue: SimTime::ZERO,
                last_p99: None,
                last_util: 0.0,
                last_pviol: 0.0,
                training_paused: false,
                epoch: 0,
                training_share_cap: 1.0,
                paused_since: None,
                retune_pending: false,
                service,
                stashed_inference: None,
                extra_qps: 0.0,
                rerouted: Vec::new(),
                restarting: Vec::new(),
                guard: RetuneGuard::new(SimDuration::from_secs(RETUNE_DWELL_SECS)),
                breaker: CircuitBreaker::new(DEGRADED_TRAINING_SHARE),
                degrade_token: 0,
                faults_seen: 0,
                standby_host: None,
                standby_pviol: 0.0,
                standby_slot: None,
                pending_promote: None,
                promote_token: 0,
                vp_cache: VpCache::default(),
                retune_rng: rng.substream("retune", d),
                acc: DevAccum::new(),
            });
        }

        // Seed the warm-standby pool: for each service, park
        // `pool_per_service` shadow instances on hosts whose primary is
        // a *different* service, preferring racks with the fewest
        // primaries of the covered service (so a rack blast that takes
        // every primary down leaves a standby alive elsewhere). Only
        // engages under fault injection with an enabled pool, keeping
        // every other run bit-identical.
        let mut fmetrics = FaultMetrics::default();
        if config.faults.is_some() && standby.is_enabled() {
            let primary: Vec<ServiceId> = dstate.iter().map(|ds| ds.service).collect();
            let mut slots = vec![None; config.devices];
            for svc_def in gt.zoo().services() {
                let svc = svc_def.id;
                let hosts =
                    standby_hosts(&topo, &primary, &mut slots, svc, standby.pool_per_service);
                for h in hosts {
                    dstate[h].standby_slot = Some(svc);
                    devices[h].seed_standby(
                        &gt,
                        SimTime::ZERO,
                        StandbyInstance::new(svc, 16, STANDBY_RESERVE_FRACTION),
                    );
                    fmetrics.standby_slots += 1;
                }
            }
        }
        let roster = Roster::new(n_services, &dstate);

        // Resolve the shard count: explicit request (env override
        // first, then config) or auto — one lane until the cluster is
        // large enough that the barrier pays, then up to one lane per
        // worker, rack-clamped by the map itself.
        let requested = simcore::env::parse::<usize>("MUDI_SHARDS").unwrap_or(config.shards);
        let shards = if requested == 0 {
            if config.devices >= AUTO_SHARD_MIN_DEVICES {
                simcore::max_workers().min(topo.shape().racks).max(1)
            } else {
                1
            }
        } else {
            requested
        };

        // Build the lanes along the map's contiguous device ranges. The
        // system is built — offline profiling and predictor fit
        // included — once per session; each lane gets a replica that
        // shares the fit and starts its own memo and tuner state empty.
        let map = ShardMap::new(&topo, shards.max(1));
        let lane_idx: Vec<u32> = (0..config.devices)
            .map(|d| map.shard_of_device(&topo, d) as u32)
            .collect();
        let system = build_system(config.system, &gt, &mut rng.fork("system"));
        let mut lanes = Vec::with_capacity(map.shards());
        for s in 0..map.shards() {
            let range = map.device_range(s);
            let memo = decision_memo(range.len(), LANE_MEMO_SLOTS);
            lanes.push(LaneBox {
                system: system.replica(),
                events: EventLane::new(range.start, range.len()),
                // Steady-state stepping must not allocate: size the
                // outbox for a full window of per-device progress and
                // completion envelopes.
                outbox: Vec::with_capacity(8 * range.len() + 64),
                range,
                scratch_advance: Vec::new(),
                scratch_schedule: Vec::new(),
                scratch_tasks: Vec::new(),
                memo,
                tune_passes: [0; TuneTrigger::ALL.len()],
            });
        }
        let req_workers = if config.workers == 0 {
            simcore::max_workers()
        } else {
            config.workers
        };
        let workers = req_workers.min(lanes.len()).max(1);

        // Global queue population: all arrivals are scheduled up front,
        // completions are bounded by the training slots, plus the fault
        // schedule and the repair/promote tails.
        let mut events = EventQueue::new();
        events.reserve(config.jobs + 3 * config.devices + fault_schedule.events().len() + 64);
        // The barrier buffer must hold every lane's worst-case window
        // of envelopes; the three small leading buffers serve nested
        // drains during envelope application.
        let msg_pool = vec![
            Vec::with_capacity(256),
            Vec::with_capacity(256),
            Vec::with_capacity(256),
            Vec::with_capacity(8 * config.devices + 64),
        ];
        let util_samples = (config.max_sim_secs / config.util_sample_secs.max(1.0)) as usize;
        let util_series = Vec::with_capacity(util_samples.saturating_add(2).min(1 << 18));
        let session_memo = decision_memo(config.devices, SESSION_MEMO_SLOTS);

        SimState {
            shared: SharedState {
                gt,
                place_rng: rng.fork("place"),
                rng,
            },
            config,
            devices,
            dstate,
            jobs: Vec::new(),
            queue: Vec::new(),
            fair: FairState::new(),
            events,
            lanes,
            lane_idx,
            workers,
            msg_pool,
            util_series,
            // Sized past the retune count of every committed
            // `perf_kernel` shape (the LLM mix retunes the most, ~16k
            // over 5 days) so the history never regrows inside a warm
            // zero-alloc window.
            bo_iterations: Vec::with_capacity(32 * 1024),
            placement_secs: Vec::with_capacity(1024),
            iter_scale: 1.0,
            fault_schedule,
            standby,
            fmetrics,
            ckpt: Vec::new(),
            topo,
            outage_start: vec![None; n_services],
            roster,
            done_prefix: 0,
            trace: TraceBus::new(TraceConfig::from_env()),
            phase_lane_secs: 0.0,
            phase_serial_secs: 0.0,
            phase_sample_secs: 0.0,
            phase_barrier_secs: 0.0,
            phase_place_secs: 0.0,
            session_memo,
        }
    }

    // ------------------------------------------------------------------
    // Lane plumbing.
    // ------------------------------------------------------------------

    /// The lane owning device `d`.
    pub fn lane_of(&self, d: usize) -> usize {
        self.lane_idx[d] as usize
    }

    /// Schedules a lane-local event on its device's lane queue.
    pub fn schedule_lane(&mut self, at: SimTime, ev: LaneEvent) {
        let s = self.lane_of(ev.device());
        self.lanes[s].events.schedule(at, ev);
    }

    /// Device `d`'s monotone timestamp for a serial-phase operation
    /// nominally at `now`: clamped to the device's accrual watermark,
    /// which a lane may have advanced past `now` within the current
    /// window. The window structure is config-derived and the code
    /// path uniform, so the clamp is identical at every grid point.
    pub fn dev_time(&self, d: usize, now: SimTime) -> SimTime {
        now.max(self.dstate[d].last_accrue)
    }

    /// Total events fired (global + every lane).
    pub fn fired(&self) -> u64 {
        self.events.fired() + self.lanes.iter().map(|l| l.events.fired()).sum::<u64>()
    }

    /// Firing time of the next event anywhere (global or lane).
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut best = self.events.peek_time();
        for l in &self.lanes {
            if let Some(t) = l.events.peek_time() {
                if best.is_none_or(|b| t < b) {
                    best = Some(t);
                }
            }
        }
        best
    }

    /// The simulated end time: the latest clock across the global
    /// queue and every lane.
    pub fn sim_now(&self) -> SimTime {
        let mut t = self.events.now();
        for l in &self.lanes {
            t = t.max(l.events.now());
        }
        t
    }

    /// Whether any lane still has events at or before `t1`.
    pub fn lanes_pending(&self, t1: SimTime) -> bool {
        self.lanes
            .iter()
            .any(|l| l.events.peek_time().is_some_and(|t| t <= t1))
    }

    /// Runs `f` against the lane view owning device `d`, then applies
    /// the lane's outbox — the serial phase's way of calling a lane
    /// handler so its deferred effects (trace events included) apply
    /// immediately, matching the instant-apply semantics serial events
    /// always had.
    pub fn with_lane_of(&mut self, d: usize, f: impl FnOnce(&mut LaneCtx)) {
        let s = self.lane_of(d);
        let lane = &mut self.lanes[s];
        let range = lane.range.clone();
        f(&mut LaneCtx {
            base: range.start,
            devices: &mut self.devices[range.clone()],
            dstate: &mut self.dstate[range],
            lane,
            gt: &self.shared.gt,
            config: &self.config,
            jobs: &self.jobs,
            ckpt: &self.ckpt,
            tracing: self.trace.is_enabled(),
            session_memo: SessionMemo::Lent(&mut self.session_memo),
        });
        if !self.lanes[s].outbox.is_empty() {
            self.apply_outboxes(s..s + 1);
        }
    }

    /// The tuning counters summed over every lane and the session memo
    /// (integer sums: the same in any order).
    pub fn tuning_counters(&self) -> TuningCounters {
        let mut c = TuningCounters {
            search: self.session_memo.counts(),
            ..TuningCounters::default()
        };
        for lane in &self.lanes {
            c.search.add(&lane.memo.counts());
            for (total, n) in c.passes.iter_mut().zip(lane.tune_passes) {
                *total += n;
            }
        }
        c
    }

    /// The epoch barrier: applies every lane's outbox.
    pub fn drain_all_outboxes(&mut self) {
        let t0 = std::time::Instant::now();
        self.apply_outboxes(0..self.lanes.len());
        self.phase_barrier_secs += t0.elapsed().as_secs_f64();
    }

    /// Concatenates the outboxes of `lanes`, sorts them by `(time,
    /// device, seq)` merge key, and applies them serially. The
    /// concatenation order is irrelevant: the key is partition-invariant
    /// and unique per envelope, so the sort is a total order.
    fn apply_outboxes(&mut self, lanes: std::ops::Range<usize>) {
        let mut buf = self.msg_pool.pop().unwrap_or_default();
        debug_assert!(buf.is_empty());
        for s in lanes {
            buf.append(&mut self.lanes[s].outbox);
        }
        buf.sort_unstable_by_key(|e| e.key);
        for e in buf.drain(..) {
            self.apply_envelope(e);
        }
        self.msg_pool.push(buf);
    }

    /// Applies one deferred effect. Serial: may touch any shared
    /// state, and may recursively drain the outboxes its own lane
    /// calls fill (the buffer pool is deep enough for the bounded
    /// cascade: standby accrual → progress, evict → retune → bo).
    fn apply_envelope(&mut self, env: Envelope) {
        let at = env.key.time;
        match env.msg {
            OutMsg::Progress { job, iters, run_dt } => {
                let ji = job.0 as usize;
                if let Some(j) = self.jobs.get_mut(ji) {
                    let before = j.completed_iterations;
                    j.completed_iterations += iters;
                    let after = j.completed_iterations;
                    if let Some(ck) = self.ckpt.get_mut(ji) {
                        ck.on_progress(run_dt, before, after);
                    }
                }
            }
            OutMsg::Completion {
                job,
                epoch,
                at: due,
            } => {
                self.events
                    .schedule_at(due, GlobalEvent::JobCompletion { job, epoch });
            }
            OutMsg::StandbyQps { host, qps } => {
                if self.devices[host].is_up() {
                    let t = self.dev_time(host, at);
                    Control.accrue(self, t, host);
                    self.devices[host].promote_standby(&self.shared.gt, t, qps);
                    // The emitter (key actor) is the covered device:
                    // refresh its frozen served-traffic violation
                    // probability from the host's live profile.
                    let target = env.key.actor as usize;
                    if self.dstate[target].standby_host == Some(host) {
                        self.dstate[target].standby_pviol =
                            standby_score(&self.shared.gt, &self.devices[host])
                                .map_or(0.0, |(p, ..)| p);
                    }
                }
            }
            OutMsg::EvictStuck { device } => {
                // Re-validate: the serial phase (or an earlier
                // envelope) may have unstuck the device meanwhile.
                let t = self.dev_time(device, at);
                let manages_memory = self.config.system.manages_memory();
                if self.dstate[device].training_stuck(t, manages_memory) {
                    Control.evict_trainings(self, t, device);
                }
            }
            OutMsg::Bo { iters } => self.bo_iterations.push(iters),
            // The emitter (key actor) is the retuned device.
            OutMsg::RetuneApplied {
                batch,
                old_fraction,
                new_fraction,
                pause_training,
            } => self.trace.emit(
                at,
                SimEvent::RetuneApplied {
                    device: env.key.actor as usize,
                    batch,
                    old_fraction,
                    new_fraction,
                    pause_training,
                },
            ),
            OutMsg::RetuneRejected { fraction_delta } => self.trace.emit(
                at,
                SimEvent::RetuneRejected {
                    device: env.key.actor as usize,
                    fraction_delta,
                },
            ),
        }
    }

    // ------------------------------------------------------------------
    // Folded observability.
    // ------------------------------------------------------------------

    /// Reduces the per-device service partials into a [`ServiceTable`]:
    /// each service's partials stream device-ascending through a
    /// [`ServiceFold`]. Both the order and the fold shape are
    /// partition-invariant. Non-destructive.
    pub fn fold_services(&self) -> ServiceTable {
        let mut fold = ServiceFold::new(self.shared.gt.zoo().services().len());
        for ds in &self.dstate {
            fold.push(&ds.acc);
        }
        fold.finish()
    }

    /// The fault metrics with the per-device float partials folded in
    /// (fixed device-ascending tree fold). Non-destructive: safe for
    /// mid-run observability.
    pub fn folded_fmetrics(&self) -> FaultMetrics {
        let mut fm = self.fmetrics.clone();
        let parts = self.dstate.iter().map(|ds| {
            [
                ds.acc.dropped_requests,
                ds.acc.rerouted_requests,
                ds.acc.standby_reserved_gpu_secs,
                ds.acc.standby_served_requests,
            ]
        });
        let sums = simcore::tree_fold(parts, |a, b| {
            [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
        })
        .unwrap_or([0.0; 4]);
        fm.dropped_requests += sums[0];
        fm.rerouted_requests += sums[1];
        fm.standby_reserved_gpu_secs += sums[2];
        fm.standby_served_requests += sums[3];
        fm
    }

    // ------------------------------------------------------------------
    // Misc queries.
    // ------------------------------------------------------------------

    /// Whether every submitted job has completed.
    ///
    /// `done_prefix` caches the length of the leading run of completed
    /// jobs so the per-event check is amortized O(1) instead of a scan
    /// of the whole job table. [`crate::job::JobState::Completed`] is
    /// terminal — only [`crate::job::TrainingJob::finish`] sets it, and
    /// the requeue/restart paths operate on device residents, which
    /// never include finished jobs — so the prefix only ever grows.
    pub fn all_done(&mut self) -> bool {
        while self.done_prefix < self.jobs.len()
            && self.jobs[self.done_prefix].state == crate::job::JobState::Completed
        {
            self.done_prefix += 1;
        }
        !self.jobs.is_empty() && self.done_prefix == self.jobs.len()
    }

    /// The demand device `d`'s generator calls for at `now` when it
    /// serves `service` (a generative service scales the shared rate by
    /// its calibration).
    pub fn demand(&self, d: usize, service: ServiceId, now: SimTime) -> f64 {
        self.dstate[d].qps_gen.current()
            * self.config.load_multiplier
            * self.config.burst_multiplier(now)
            * self.shared.gt.zoo().service(service).request_rate_scale()
    }

    /// Re-enqueues a job into the pending queue from its current
    /// recorded progress (requeue recovery and operator eviction).
    pub fn push_queue_item(&mut self, job_id: JobId) {
        let job = &self.jobs[job_id.0 as usize];
        let est = self.shared.gt.zoo().task(job.task).gpu_hours * 3600.0 * self.iter_scale;
        self.queue.push(QueueItem {
            arrival: job.submitted,
            est_duration: SimDuration::from_secs(est),
            priority: job.priority,
            class: job.class,
            payload: job_id,
        });
    }

    /// Restores a training process for a queued job from its
    /// checkpointed progress.
    pub fn restored_process(&self, job_id: JobId) -> TrainingProcess {
        let job = &self.jobs[job_id.0 as usize];
        TrainingProcess::with_progress(
            ResidentId(job_id.0),
            job.task,
            0.1,
            job.completed_iterations.max(0.0) as u64,
            job.total_iterations,
        )
    }
}

// Re-exported through `super` so callers keep the historical
// `cluster::engine::striped_service_assignment` path.
/// Assigns one inference service per device so that a service's
/// replicas land in as many different fault domains as possible
/// (deploy-time anti-affinity). Greedy and deterministic: devices are
/// visited in index order and each takes the service with the fewest
/// replicas on its own node, breaking ties by fewest replicas in its
/// rack, then fewest overall, then by service index. Striping at node
/// granularity (not just rack) keeps two replicas of the same service
/// off one node whenever the rack has room — a node-level blast then
/// takes at most one replica per service. Totals stay as balanced as
/// the flat `d % n` layout (each service gets `devices / n` ± 1
/// replicas), and a single-node topology degenerates to the flat
/// layout.
pub fn striped_service_assignment(
    topo: &Topology,
    devices: usize,
    n_services: usize,
) -> Vec<usize> {
    assert!(n_services > 0, "need at least one service");
    let mut in_node = vec![vec![0usize; n_services]; topo.shape().nodes()];
    let mut in_rack = vec![vec![0usize; n_services]; topo.shape().racks];
    let mut total = vec![0usize; n_services];
    let mut out = Vec::with_capacity(devices);
    for d in 0..devices {
        let node = topo.node_of(d);
        let r = topo.rack_of(d);
        let best = (0..n_services)
            .min_by_key(|&s| (in_node[node][s], in_rack[r][s], total[s], s))
            .expect("non-empty service list");
        in_node[node][best] += 1;
        in_rack[r][best] += 1;
        total[best] += 1;
        out.push(best);
    }
    out
}

/// Picks up to `count` warm-standby hosts for `svc`, marking each in
/// `slots`: every pick is the host holding no slot and no primary of
/// `svc` that minimizes `(primaries of svc in its rack, standbys of svc
/// in its rack, device index)`. Per-rack counts make each pick one
/// pass over the racks plus a scan of the racks it could win, instead
/// of a recount of every candidate's rack.
pub(super) fn standby_hosts(
    topo: &Topology,
    primary: &[ServiceId],
    slots: &mut [Option<ServiceId>],
    svc: ServiceId,
    count: usize,
) -> Vec<usize> {
    let racks = topo.shape().racks;
    let (mut primaries, mut standbys) = (vec![0usize; racks], vec![0usize; racks]);
    for (d, (&p, &slot)) in primary.iter().zip(slots.iter()).enumerate() {
        let r = topo.rack_of(d);
        primaries[r] += usize::from(p == svc);
        standbys[r] += usize::from(slot == Some(svc));
    }
    let mut hosts = Vec::with_capacity(count);
    for _ in 0..count {
        // Racks are contiguous ascending device ranges, so on a tied
        // rack key the lower rack holds the lower device index.
        let mut best: Option<((usize, usize), usize)> = None;
        for r in 0..racks {
            let key = (primaries[r], standbys[r]);
            if best.is_some_and(|(b, _)| b <= key) {
                continue;
            }
            if let Some(h) = topo
                .devices_in_rack(r)
                .find(|&h| slots[h].is_none() && primary[h] != svc)
            {
                best = Some((key, h));
            }
        }
        let Some((_, h)) = best else {
            break; // Every eligible device already hosts a slot.
        };
        slots[h] = Some(svc);
        standbys[topo.rack_of(h)] += 1;
        hosts.push(h);
    }
    hosts
}

/// The per-placement log retained for the §5.4 optimality analysis:
/// the task, the chosen device, and the candidate `(device, service)`
/// set the selector saw. Reconstructed from the trace bus's placement
/// events — the structured replacement for the old ad-hoc log.
pub type PlacementLog = Vec<(workloads::TaskId, usize, Vec<(usize, ServiceId)>)>;
