//! Structured event-trace bus for the simulation kernel.
//!
//! Every consequential decision the cluster engine makes — placements
//! with the candidate set the selector saw, retune accept/reject,
//! fault apply/repair, standby hand-offs — can be emitted as a typed
//! [`SimEvent`] onto a [`TraceBus`]. The bus is **off by default** and
//! zero-cost when disabled: [`TraceBus::emit_with`] never builds the
//! event (and so never allocates) unless tracing is on. Enabled, it
//! keeps a bounded ring of recent events plus unconditional per-kind
//! counters, aggregated into a [`TraceSummary`] that tests and benches
//! assert on.
//!
//! Enable from the environment with `MUDI_TRACE=1` (the engine dumps
//! the summary and the ring tail to stderr at end of run), or
//! programmatically with [`TraceConfig::enabled`].

use std::collections::VecDeque;
use std::fmt;

use crate::time::SimTime;

/// The class of an injected fault, as seen by the trace layer. A
/// dependency-free mirror of the resilience crate's fault taxonomy
/// (`simcore` sits below it in the crate graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Hard device failure (down until repair).
    DeviceFailure,
    /// Transient compute slowdown.
    Slowdown,
    /// Single training-process crash.
    ProcessCrash,
    /// MPS daemon restart (whole-device cold restart).
    MpsRestart,
}

impl FaultClass {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::DeviceFailure => "device-failure",
            FaultClass::Slowdown => "slowdown",
            FaultClass::ProcessCrash => "process-crash",
            FaultClass::MpsRestart => "mps-restart",
        }
    }
}

/// One typed simulation event. Identifier payloads are raw indices
/// (`simcore` cannot name the higher crates' newtypes); the emitting
/// layer documents the mapping.
#[derive(Clone, Debug, PartialEq)]
pub enum SimEvent {
    /// A training task was placed: the task type, the chosen device,
    /// and the candidate `(device, service)` set the selector scored.
    Placement {
        /// Task-type index (`workloads::TaskId.0`).
        task: usize,
        /// Chosen device index.
        device: usize,
        /// The `(device, service)` candidates the selector saw.
        candidates: Vec<(usize, usize)>,
    },
    /// The head-of-queue task could not be placed and stays queued.
    PlacementDeferred {
        /// Task-type index.
        task: usize,
        /// How many candidates were scored and rejected.
        candidates: usize,
    },
    /// A retune changed the device's partition (the fraction move
    /// cleared the hysteresis threshold and was applied).
    RetuneApplied {
        /// Device index.
        device: usize,
        /// New batching size.
        batch: u32,
        /// Previous inference GPU fraction.
        old_fraction: f64,
        /// Applied inference GPU fraction.
        new_fraction: f64,
        /// Whether co-located training pauses under the new config.
        pause_training: bool,
    },
    /// A retune decision was computed but the partition move was
    /// rejected by hysteresis (too small to justify a hand-off).
    RetuneRejected {
        /// Device index.
        device: usize,
        /// The rejected fraction delta (new minus old).
        fraction_delta: f64,
    },
    /// An injected fault was applied to a device.
    FaultApplied {
        /// Device index.
        device: usize,
        /// Fault class.
        class: FaultClass,
        /// Whether the fault belongs to a correlated (node/rack) blast.
        correlated: bool,
    },
    /// A failed device came back into service.
    DeviceRepaired {
        /// Device index.
        device: usize,
    },
    /// A failed replica's traffic was split across same-service
    /// survivors.
    FailoverRerouted {
        /// The failed device.
        from: usize,
        /// How many survivors absorbed a share.
        survivors: usize,
    },
    /// A warm-standby shadow instance finished its bounded promote and
    /// started serving a failed replica's traffic.
    StandbyPromoted {
        /// Device hosting the standby.
        host: usize,
        /// The failed device whose traffic it covers.
        covered: usize,
    },
    /// A promoted standby drained back to idle (its covered device
    /// repaired).
    StandbyDemoted {
        /// Device hosting the standby.
        host: usize,
        /// The repaired device it had covered.
        covered: usize,
    },
    /// Training residents were evicted from a device back to the queue.
    TrainingEvicted {
        /// Device index.
        device: usize,
        /// How many jobs were evicted.
        jobs: usize,
    },
    /// A live inference request was routed to a replica and served
    /// (serving-mode control plane; batch sweeps never emit this).
    InferenceRouted {
        /// Service index (`workloads::ServiceId.0`).
        service: usize,
        /// The replica (device index) that served the request.
        device: usize,
        /// Whether the sampled end-to-end latency violated the SLO.
        violation: bool,
    },
}

/// The coarse kind of a [`SimEvent`], used as the counter key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimEventKind {
    /// [`SimEvent::Placement`].
    Placement,
    /// [`SimEvent::PlacementDeferred`].
    PlacementDeferred,
    /// [`SimEvent::RetuneApplied`].
    RetuneApplied,
    /// [`SimEvent::RetuneRejected`].
    RetuneRejected,
    /// [`SimEvent::FaultApplied`].
    FaultApplied,
    /// [`SimEvent::DeviceRepaired`].
    DeviceRepaired,
    /// [`SimEvent::FailoverRerouted`].
    FailoverRerouted,
    /// [`SimEvent::StandbyPromoted`].
    StandbyPromoted,
    /// [`SimEvent::StandbyDemoted`].
    StandbyDemoted,
    /// [`SimEvent::TrainingEvicted`].
    TrainingEvicted,
    /// [`SimEvent::InferenceRouted`].
    InferenceRouted,
}

/// How many distinct [`SimEventKind`]s exist.
pub const KIND_COUNT: usize = 11;

impl SimEventKind {
    /// Every kind, in counter order.
    pub const ALL: [SimEventKind; KIND_COUNT] = [
        SimEventKind::Placement,
        SimEventKind::PlacementDeferred,
        SimEventKind::RetuneApplied,
        SimEventKind::RetuneRejected,
        SimEventKind::FaultApplied,
        SimEventKind::DeviceRepaired,
        SimEventKind::FailoverRerouted,
        SimEventKind::StandbyPromoted,
        SimEventKind::StandbyDemoted,
        SimEventKind::TrainingEvicted,
        SimEventKind::InferenceRouted,
    ];

    /// Stable counter index.
    pub fn index(self) -> usize {
        match self {
            SimEventKind::Placement => 0,
            SimEventKind::PlacementDeferred => 1,
            SimEventKind::RetuneApplied => 2,
            SimEventKind::RetuneRejected => 3,
            SimEventKind::FaultApplied => 4,
            SimEventKind::DeviceRepaired => 5,
            SimEventKind::FailoverRerouted => 6,
            SimEventKind::StandbyPromoted => 7,
            SimEventKind::StandbyDemoted => 8,
            SimEventKind::TrainingEvicted => 9,
            SimEventKind::InferenceRouted => 10,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SimEventKind::Placement => "placement",
            SimEventKind::PlacementDeferred => "placement-deferred",
            SimEventKind::RetuneApplied => "retune-applied",
            SimEventKind::RetuneRejected => "retune-rejected",
            SimEventKind::FaultApplied => "fault-applied",
            SimEventKind::DeviceRepaired => "device-repaired",
            SimEventKind::FailoverRerouted => "failover-rerouted",
            SimEventKind::StandbyPromoted => "standby-promoted",
            SimEventKind::StandbyDemoted => "standby-demoted",
            SimEventKind::TrainingEvicted => "training-evicted",
            SimEventKind::InferenceRouted => "inference-routed",
        }
    }
}

impl SimEvent {
    /// This event's counter kind.
    pub fn kind(&self) -> SimEventKind {
        match self {
            SimEvent::Placement { .. } => SimEventKind::Placement,
            SimEvent::PlacementDeferred { .. } => SimEventKind::PlacementDeferred,
            SimEvent::RetuneApplied { .. } => SimEventKind::RetuneApplied,
            SimEvent::RetuneRejected { .. } => SimEventKind::RetuneRejected,
            SimEvent::FaultApplied { .. } => SimEventKind::FaultApplied,
            SimEvent::DeviceRepaired { .. } => SimEventKind::DeviceRepaired,
            SimEvent::FailoverRerouted { .. } => SimEventKind::FailoverRerouted,
            SimEvent::StandbyPromoted { .. } => SimEventKind::StandbyPromoted,
            SimEvent::StandbyDemoted { .. } => SimEventKind::StandbyDemoted,
            SimEvent::TrainingEvicted { .. } => SimEventKind::TrainingEvicted,
            SimEvent::InferenceRouted { .. } => SimEventKind::InferenceRouted,
        }
    }
}

/// A [`SimEvent`] stamped with its simulated time and a bus-global
/// monotonic sequence number.
#[derive(Clone, Debug, PartialEq)]
pub struct TracedEvent {
    /// Emission sequence number: the `seq`-th event emitted on this
    /// bus (0-based, monotonic across ring and placement retention).
    /// Subscribers resume a tail from it via [`TraceBus::events_since`].
    pub seq: u64,
    /// When the event happened (simulated time).
    pub at: SimTime,
    /// What happened.
    pub event: SimEvent,
}

/// Trace-bus configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceConfig {
    /// Master switch; everything below is ignored when false.
    pub enabled: bool,
    /// Retain *every* placement event unboundedly (the §5.4 optimality
    /// analysis replays the full placement log).
    pub keep_placements: bool,
}

impl TraceConfig {
    /// Capacity of the bounded ring of recent events (oldest dropped
    /// first).
    pub const DEFAULT_RING: usize = 4096;

    /// Tracing off (the default): every emit is a no-op.
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            keep_placements: false,
        }
    }

    /// Tracing on with the default ring.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            keep_placements: false,
        }
    }

    /// Tracing on, additionally retaining the full placement log.
    pub fn with_placement_log() -> Self {
        TraceConfig {
            keep_placements: true,
            ..Self::enabled()
        }
    }

    /// Reads `MUDI_TRACE`: `1`/`true` enables the default trace;
    /// anything else (or unset) keeps it disabled.
    pub fn from_env() -> Self {
        if crate::env::flag("MUDI_TRACE") {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The event-trace bus: per-kind counters plus a bounded ring of
/// recent events. Disabled (the default), every emit path returns
/// immediately without constructing the event or touching the heap.
#[derive(Clone, Debug, Default)]
pub struct TraceBus {
    cfg: TraceConfig,
    ring: VecDeque<TracedEvent>,
    /// Full placement retention (only with `keep_placements`).
    placements: Vec<TracedEvent>,
    counts: [u64; KIND_COUNT],
    emitted: u64,
    dropped: u64,
}

impl TraceBus {
    /// A bus with the given configuration. Disabled buses allocate
    /// nothing, now or later.
    pub fn new(cfg: TraceConfig) -> Self {
        TraceBus {
            cfg,
            ring: VecDeque::new(),
            placements: Vec::new(),
            counts: [0; KIND_COUNT],
            emitted: 0,
            dropped: 0,
        }
    }

    /// A disabled bus (every emit is a no-op).
    pub fn disabled() -> Self {
        Self::new(TraceConfig::disabled())
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Records an already-built event. Prefer [`TraceBus::emit_with`]
    /// on hot paths — it skips event construction when disabled.
    pub fn emit(&mut self, at: SimTime, event: SimEvent) {
        if !self.cfg.enabled {
            return;
        }
        self.counts[event.kind().index()] += 1;
        let seq = self.emitted;
        self.emitted += 1;
        let traced = TracedEvent { seq, at, event };
        if self.cfg.keep_placements && matches!(traced.event, SimEvent::Placement { .. }) {
            self.placements.push(traced);
            return;
        }
        if self.ring.len() == TraceConfig::DEFAULT_RING {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(traced);
    }

    /// Records the event produced by `build` — which is never called
    /// (and so never allocates) while the bus is disabled.
    pub fn emit_with(&mut self, at: SimTime, build: impl FnOnce() -> SimEvent) {
        if self.cfg.enabled {
            self.emit(at, build());
        }
    }

    /// Counter for one event kind.
    pub fn count(&self, kind: SimEventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events emitted (including ones the ring has since dropped).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The retained recent events, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &TracedEvent> {
        self.ring.iter()
    }

    /// The sequence number the *next* emitted event will carry. A
    /// subscriber that wants "only new events from here on" starts its
    /// cursor at this value.
    pub fn next_seq(&self) -> u64 {
        self.emitted
    }

    /// The retained ring events with `seq >= since`, oldest first — the
    /// subscription primitive behind live event tails. The cursor
    /// protocol: remember `last.seq + 1` (or [`TraceBus::next_seq`] at
    /// subscribe time) and poll again. Events older than the ring
    /// window are gone; [`TraceBus::missed_since`] reports the gap.
    pub fn events_since(&self, since: u64) -> impl Iterator<Item = &TracedEvent> {
        // The ring is ordered by seq, so skip the already-seen prefix.
        self.ring.iter().skip_while(move |te| te.seq < since)
    }

    /// How many events with `seq >= since` are no longer retained in
    /// the ring (dropped by capacity, or shunted to the placement log):
    /// the tail a late subscriber can no longer observe.
    pub fn missed_since(&self, since: u64) -> u64 {
        let visible = self.events_since(since).count() as u64;
        self.emitted.saturating_sub(since).saturating_sub(visible)
    }

    /// The retained placement events (only populated with
    /// `keep_placements`), in emission order.
    pub fn placements(&self) -> &[TracedEvent] {
        &self.placements
    }

    /// Aggregates the counters into a summary.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            counts: self.counts,
            emitted: self.emitted,
            dropped: self.dropped,
            retained: (self.ring.len() + self.placements.len()) as u64,
        }
    }

    /// Renders the last `n` ring events, one per line (the
    /// `MUDI_TRACE=1` end-of-run dump).
    pub fn render_tail(&self, n: usize) -> String {
        let mut out = String::new();
        let skip = self.ring.len().saturating_sub(n);
        for te in self.ring.iter().skip(skip) {
            out.push_str(&format!("  [{:>12.3}s] {:?}\n", te.at.as_secs(), te.event));
        }
        out
    }
}

/// Aggregated per-kind event counters for one run (or, merged, for a
/// whole sweep).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    counts: [u64; KIND_COUNT],
    emitted: u64,
    dropped: u64,
    retained: u64,
}

impl TraceSummary {
    /// Counter for one event kind.
    pub fn count(&self, kind: SimEventKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total events emitted.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events dropped from the ring (emitted but no longer retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events still retained (ring + placement log) at summary time.
    pub fn retained(&self) -> u64 {
        self.retained
    }

    /// Whether any event was recorded.
    pub fn is_empty(&self) -> bool {
        self.emitted == 0
    }

    /// Folds another summary into this one (sweep-level aggregation).
    pub fn merge(&mut self, other: &TraceSummary) {
        for i in 0..KIND_COUNT {
            self.counts[i] += other.counts[i];
        }
        self.emitted += other.emitted;
        self.dropped += other.dropped;
        self.retained += other.retained;
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events ({} retained, {} dropped)",
            self.emitted, self.retained, self.dropped
        )?;
        for kind in SimEventKind::ALL {
            let c = self.count(kind);
            if c > 0 {
                writeln!(f, "  {:<20} {c}", kind.name())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_fault(device: usize) -> SimEvent {
        SimEvent::FaultApplied {
            device,
            class: FaultClass::Slowdown,
            correlated: false,
        }
    }

    #[test]
    fn disabled_bus_records_nothing() {
        let mut bus = TraceBus::disabled();
        bus.emit(SimTime::ZERO, ev_fault(0));
        bus.emit_with(SimTime::ZERO, || panic!("must not be built"));
        assert!(!bus.is_enabled());
        assert_eq!(bus.emitted(), 0);
        assert!(bus.summary().is_empty());
        assert_eq!(bus.recent().count(), 0);
    }

    #[test]
    fn counters_aggregate_per_kind() {
        let mut bus = TraceBus::new(TraceConfig::enabled());
        for d in 0..3 {
            bus.emit(SimTime::from_secs(d as f64), ev_fault(d));
        }
        bus.emit(
            SimTime::from_secs(5.0),
            SimEvent::DeviceRepaired { device: 1 },
        );
        bus.emit(
            SimTime::from_secs(6.0),
            SimEvent::RetuneRejected {
                device: 2,
                fraction_delta: 0.01,
            },
        );
        let s = bus.summary();
        assert_eq!(s.count(SimEventKind::FaultApplied), 3);
        assert_eq!(s.count(SimEventKind::DeviceRepaired), 1);
        assert_eq!(s.count(SimEventKind::RetuneRejected), 1);
        assert_eq!(s.count(SimEventKind::Placement), 0);
        assert_eq!(s.emitted(), 5);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.retained(), 5);
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let cap = TraceConfig::DEFAULT_RING;
        let mut bus = TraceBus::new(TraceConfig::enabled());
        for d in 0..cap + 6 {
            bus.emit(SimTime::from_secs(d as f64), ev_fault(d));
        }
        assert_eq!(bus.recent().count(), cap);
        assert_eq!(bus.summary().dropped(), 6);
        // Counters keep the full total even though the ring is bounded.
        assert_eq!(
            bus.summary().count(SimEventKind::FaultApplied),
            (cap + 6) as u64
        );
        // The retained tail is the newest `cap`.
        let first = bus.recent().next().unwrap();
        assert!((first.at.as_secs() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn placement_retention_is_unbounded_and_ordered() {
        let mut bus = TraceBus::new(TraceConfig::with_placement_log());
        let n = TraceConfig::DEFAULT_RING + 100;
        for i in 0..n {
            bus.emit(
                SimTime::from_secs(i as f64),
                SimEvent::Placement {
                    task: i,
                    device: i % 4,
                    candidates: vec![(i % 4, 0)],
                },
            );
        }
        assert_eq!(bus.placements().len(), n);
        assert!(matches!(
            bus.placements()[n - 1].event,
            SimEvent::Placement { task, .. } if task == n - 1
        ));
        // Placements never displace ring events nor count as dropped.
        assert_eq!(bus.summary().dropped(), 0);
    }

    #[test]
    fn summaries_merge_by_summing() {
        let mut a = TraceBus::new(TraceConfig::enabled());
        let mut b = TraceBus::new(TraceConfig::enabled());
        a.emit(SimTime::ZERO, ev_fault(0));
        b.emit(SimTime::ZERO, ev_fault(1));
        b.emit(SimTime::ZERO, SimEvent::DeviceRepaired { device: 1 });
        let mut merged = a.summary();
        merged.merge(&b.summary());
        assert_eq!(merged.count(SimEventKind::FaultApplied), 2);
        assert_eq!(merged.count(SimEventKind::DeviceRepaired), 1);
        assert_eq!(merged.emitted(), 3);
    }

    #[test]
    fn emit_with_builds_only_when_enabled() {
        let mut bus = TraceBus::new(TraceConfig::enabled());
        let mut built = false;
        bus.emit_with(SimTime::ZERO, || {
            built = true;
            SimEvent::DeviceRepaired { device: 0 }
        });
        assert!(built);
        assert_eq!(bus.summary().emitted(), 1);
    }

    #[test]
    fn summary_display_lists_nonzero_kinds() {
        let mut bus = TraceBus::new(TraceConfig::enabled());
        bus.emit(SimTime::ZERO, ev_fault(0));
        let text = bus.summary().to_string();
        assert!(text.contains("fault-applied"));
        assert!(!text.contains("standby-promoted"));
    }

    #[test]
    fn events_since_resumes_a_tail() {
        let cap = TraceConfig::DEFAULT_RING;
        let mut bus = TraceBus::new(TraceConfig::enabled());
        assert_eq!(bus.next_seq(), 0);
        for d in 0..3 {
            bus.emit(SimTime::from_secs(d as f64), ev_fault(d));
        }
        // A subscriber that saw everything up to seq 1 resumes at 2.
        let tail: Vec<u64> = bus.events_since(2).map(|te| te.seq).collect();
        assert_eq!(tail, vec![2]);
        assert_eq!(bus.missed_since(2), 0);
        // Overflow the ring: the oldest events become unobservable.
        let n = cap + 6;
        for d in 3..n {
            bus.emit(SimTime::from_secs(d as f64), ev_fault(d));
        }
        assert_eq!(bus.next_seq(), n as u64);
        let tail: Vec<u64> = bus.events_since(0).map(|te| te.seq).collect();
        assert_eq!(tail, (6..n as u64).collect::<Vec<_>>());
        assert_eq!(bus.missed_since(0), 6);
        assert_eq!(bus.missed_since(8), 0);
        // Sequence numbers survive into clones of retained events.
        let last = bus.recent().last().unwrap();
        assert_eq!(last.seq, n as u64 - 1);
        assert!((last.at.as_secs() - (n - 1) as f64).abs() < 1e-12);
    }

    #[test]
    fn env_config_defaults_off() {
        if std::env::var("MUDI_TRACE").is_err() {
            assert!(!TraceConfig::from_env().enabled);
        }
    }
}
