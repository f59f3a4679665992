//! Deterministic fault schedules.
//!
//! A [`FaultSchedule`] pre-draws every fault an experiment will see from
//! a forked [`SimRng`] stream, so the sequence depends only on the
//! experiment seed and the [`FaultConfig`] — never on how the engine
//! interleaves other events. Replaying a seed reproduces the schedule
//! bit-for-bit, which is what makes failure experiments comparable
//! across systems: Mudi and every baseline face the *same* faults at
//! the *same* times.
//!
//! Faults come in two flavours. *Device-local* faults (the original
//! classes) are drawn independently per device. *Correlated* faults
//! model shared-infrastructure incidents — a PDU trip or driver rollout
//! takes down a whole node, a top-of-rack switch loss takes down a
//! whole rack. Correlated outages are drawn per *domain* (one renewal
//! stream per node / per rack) and then expanded into simultaneous
//! per-device failure intervals covering every device in the blast
//! radius, each tagged with its originating [`FaultDomain`].

use simcore::{Exponential, SimDuration, SimRng, SimTime, Topology};

/// Rates and magnitudes for the injected fault classes.
///
/// All interarrival times are exponential with the given means, drawn
/// independently per device so cluster-level fault frequency scales
/// with cluster size (as it does in production fleets).
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Mean time to full device failure, per device.
    pub mttf: SimDuration,
    /// Mean time to repair a failed device.
    pub mttr: SimDuration,
    /// Mean time between transient slowdowns (ECC scrub storms, thermal
    /// throttling), per device.
    pub slowdown_mtbe: SimDuration,
    /// Mean duration of one slowdown episode.
    pub slowdown_duration: SimDuration,
    /// Performance factor range during a slowdown, drawn uniformly;
    /// `0.6` means the device retains 60% of its effective GPU%.
    pub slowdown_factor: (f64, f64),
    /// Mean time between training-process crashes, per device.
    pub crash_mtbe: SimDuration,
    /// Mean time between MPS daemon failures forcing a cold restart of
    /// every process on the device, per device.
    pub mps_failure_mtbe: SimDuration,
}

impl FaultConfig {
    /// A fleet-calibrated baseline: device failures are rare (MTTF on
    /// the order of a month), transient slowdowns and process crashes
    /// are the common case — matching the rule of thumb that tail SLOs
    /// are dominated by frequent small disruptions, not rare outages.
    pub fn baseline() -> Self {
        FaultConfig {
            mttf: SimDuration::from_hours(720.0),
            mttr: SimDuration::from_mins(30.0),
            slowdown_mtbe: SimDuration::from_hours(24.0),
            slowdown_duration: SimDuration::from_mins(5.0),
            slowdown_factor: (0.4, 0.9),
            crash_mtbe: SimDuration::from_hours(72.0),
            mps_failure_mtbe: SimDuration::from_hours(240.0),
        }
    }

    /// The baseline with every fault rate multiplied by `rate` (repair
    /// times and slowdown magnitudes unchanged). `rate = 0` disables
    /// fault injection entirely.
    pub fn scaled(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "invalid fault rate {rate}");
        let base = Self::baseline();
        if rate == 0.0 {
            // Callers gate on `rate > 0`; keep the config valid anyway.
            return base;
        }
        FaultConfig {
            mttf: SimDuration::from_secs(base.mttf.as_secs() / rate),
            slowdown_mtbe: SimDuration::from_secs(base.slowdown_mtbe.as_secs() / rate),
            crash_mtbe: SimDuration::from_secs(base.crash_mtbe.as_secs() / rate),
            mps_failure_mtbe: SimDuration::from_secs(base.mps_failure_mtbe.as_secs() / rate),
            ..base
        }
    }
}

/// Rates for *correlated* fault classes — outages scoped to a shared
/// fault domain rather than a single device.
///
/// A mean time of **zero** disables that class (a `SimDuration` cannot
/// be infinite, so zero is the "never fires" sentinel; the draw loop
/// skips disabled classes entirely, leaving every other stream's draws
/// untouched).
#[derive(Clone, Copy, Debug)]
pub struct CorrelatedFaultConfig {
    /// Mean time between whole-node outages (PDU trip, host kernel
    /// panic, driver rollout reboot), per node. Zero disables.
    pub node_mttf: SimDuration,
    /// Mean time to bring a node back.
    pub node_mttr: SimDuration,
    /// Mean time between whole-rack outages (top-of-rack switch loss,
    /// rack-level power event), per rack. Zero disables.
    pub rack_mttf: SimDuration,
    /// Mean time to bring a rack back.
    pub rack_mttr: SimDuration,
}

impl CorrelatedFaultConfig {
    /// Fleet-calibrated baseline: node outages roughly every 90 days
    /// per node, rack outages roughly every 180 days per rack — rarer
    /// than any device-local class, but with a far larger blast radius.
    pub fn baseline() -> Self {
        CorrelatedFaultConfig {
            node_mttf: SimDuration::from_hours(2_160.0),
            node_mttr: SimDuration::from_mins(20.0),
            rack_mttf: SimDuration::from_hours(4_320.0),
            rack_mttr: SimDuration::from_mins(45.0),
        }
    }

    /// Both classes disabled (zero mean time between outages).
    pub fn disabled() -> Self {
        CorrelatedFaultConfig {
            node_mttf: SimDuration::from_secs(0.0),
            node_mttr: SimDuration::from_mins(20.0),
            rack_mttf: SimDuration::from_secs(0.0),
            rack_mttr: SimDuration::from_mins(45.0),
        }
    }

    /// The baseline with both outage rates multiplied by `rate`
    /// (repair times unchanged). `rate = 0` disables both classes.
    pub fn scaled(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "invalid fault rate {rate}");
        if rate == 0.0 {
            return Self::disabled();
        }
        let base = Self::baseline();
        CorrelatedFaultConfig {
            node_mttf: SimDuration::from_secs(base.node_mttf.as_secs() / rate),
            rack_mttf: SimDuration::from_secs(base.rack_mttf.as_secs() / rate),
            ..base
        }
    }

    /// Node-level outages only, scaled by `rate`.
    pub fn node_level(rate: f64) -> Self {
        CorrelatedFaultConfig {
            rack_mttf: SimDuration::from_secs(0.0),
            ..Self::scaled(rate)
        }
    }

    /// Rack-level outages only, scaled by `rate`.
    pub fn rack_level(rate: f64) -> Self {
        CorrelatedFaultConfig {
            node_mttf: SimDuration::from_secs(0.0),
            ..Self::scaled(rate)
        }
    }
}

/// The fault domain an event originated from: the blast radius of the
/// underlying incident.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// Independent single-device incident.
    Device,
    /// A whole-node outage (the payload is the cluster node index); the
    /// same incident produces one event per device in the node.
    Node(usize),
    /// A whole-rack outage (the payload is the rack index); the same
    /// incident produces one event per device in the rack.
    Rack(usize),
}

impl FaultDomain {
    /// Whether this domain spans more than one device.
    pub fn is_correlated(&self) -> bool {
        !matches!(self, FaultDomain::Device)
    }
}

/// One class of injected fault, with its magnitude.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The device goes down hard; everything on it is evicted. It comes
    /// back `repair` later.
    DeviceFailure {
        /// Time until the device is serviceable again.
        repair: SimDuration,
    },
    /// The device temporarily delivers only `factor` of its effective
    /// compute (inference latency and training throughput both degrade).
    Slowdown {
        /// Retained fraction of effective GPU%, in `(0, 1)`.
        factor: f64,
        /// How long the episode lasts.
        duration: SimDuration,
    },
    /// One training process on the device dies and must restart from
    /// its last checkpoint. `salt` deterministically picks the victim
    /// among whatever processes are resident when the fault fires.
    ProcessCrash {
        /// Victim selector: `salt % residents` at fire time.
        salt: u64,
    },
    /// The MPS daemon wedges: every process on the device takes a cold
    /// restart (full [`MPS_RESTART_SECS`]-class outage), but no work is
    /// lost beyond the downtime.
    ///
    /// [`MPS_RESTART_SECS`]: https://docs.nvidia.com/deploy/mps/
    MpsRestartFailure,
}

/// A fault bound to a time, a device, and the domain it radiated from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// The afflicted device (cluster device index).
    pub device: usize,
    /// What happens.
    pub kind: FaultKind,
    /// The blast radius this event belongs to. Correlated incidents
    /// expand into one event per member device, all sharing a domain.
    pub domain: FaultDomain,
}

impl FaultEvent {
    /// A single-device event (domain [`FaultDomain::Device`]) — the
    /// shape every pre-topology schedule consisted of.
    pub fn device_local(at: SimTime, device: usize, kind: FaultKind) -> Self {
        FaultEvent {
            at,
            device,
            kind,
            domain: FaultDomain::Device,
        }
    }

    /// This fault's application as a structured trace event, classed by
    /// [`simcore::FaultClass`] and tagged with whether the incident
    /// radiated from a shared fault domain.
    pub fn trace_event(&self) -> simcore::SimEvent {
        let class = match self.kind {
            FaultKind::DeviceFailure { .. } => simcore::FaultClass::DeviceFailure,
            FaultKind::Slowdown { .. } => simcore::FaultClass::Slowdown,
            FaultKind::ProcessCrash { .. } => simcore::FaultClass::ProcessCrash,
            FaultKind::MpsRestartFailure => simcore::FaultClass::MpsRestart,
        };
        simcore::SimEvent::FaultApplied {
            device: self.device,
            class,
            correlated: self.domain.is_correlated(),
        }
    }
}

/// A replayable, time-sorted sequence of fault events.
///
/// # Examples
///
/// ```
/// use resilience::{FaultConfig, FaultSchedule};
/// use simcore::SimRng;
///
/// let cfg = FaultConfig::scaled(50.0);
/// let a = FaultSchedule::generate(&cfg, 8, 86_400.0, &SimRng::seed(7));
/// let b = FaultSchedule::generate(&cfg, 8, 86_400.0, &SimRng::seed(7));
/// assert_eq!(a.events(), b.events());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (fault-free run).
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// Builds a schedule from hand-written events (tests inject exact
    /// scenarios). Events are sorted into the canonical order.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        sort_events(&mut events);
        FaultSchedule { events }
    }

    /// Appends a live-injected event and returns its index. Unlike
    /// [`FaultSchedule::from_events`] the schedule is *not* re-sorted:
    /// pre-drawn events are dispatched by index, so reordering them
    /// mid-run would misdeliver every already-scheduled
    /// `Event::Fault(idx)`. Serving-mode fault injection appends at the
    /// current simulated time and dispatches the new index immediately.
    pub fn push(&mut self, event: FaultEvent) -> usize {
        self.events.push(event);
        self.events.len() - 1
    }

    /// Draws every device-local fault in `[0, horizon_secs)` for
    /// `devices` devices.
    ///
    /// Each `(device, fault class)` pair gets its own forked stream, so
    /// adding a fault class or a device never perturbs the draws of the
    /// others — the same independence contract `SimRng::fork` gives the
    /// rest of the simulator.
    pub fn generate(config: &FaultConfig, devices: usize, horizon_secs: f64, rng: &SimRng) -> Self {
        let mut events = Vec::new();
        Self::draw_device_local(config, devices, horizon_secs, rng, &mut events);
        sort_events(&mut events);
        FaultSchedule { events }
    }

    /// Draws device-local faults plus correlated node/rack outages over
    /// `topo`.
    ///
    /// Device-local draws are byte-identical to [`Self::generate`] for
    /// the same seed — correlated classes use their own forked streams
    /// (`"fault-node"` per node, `"fault-rack"` per rack), so enabling
    /// them never perturbs existing schedules. Each correlated outage
    /// expands into one simultaneous [`FaultKind::DeviceFailure`] per
    /// member device of its domain, sharing the same repair interval.
    pub fn generate_with_topology(
        config: &FaultConfig,
        correlated: Option<&CorrelatedFaultConfig>,
        topo: &Topology,
        horizon_secs: f64,
        rng: &SimRng,
    ) -> Self {
        let mut events = Vec::new();
        Self::draw_device_local(config, topo.devices(), horizon_secs, rng, &mut events);
        if let Some(corr) = correlated {
            for n in 0..topo.shape().nodes() {
                Self::draw_domain_outages(
                    corr.node_mttf,
                    corr.node_mttr,
                    FaultDomain::Node(n),
                    topo.devices_in_node(n),
                    horizon_secs,
                    &mut rng.fork_indexed("fault-node", n),
                    &mut events,
                );
            }
            for r in 0..topo.shape().racks {
                Self::draw_domain_outages(
                    corr.rack_mttf,
                    corr.rack_mttr,
                    FaultDomain::Rack(r),
                    topo.devices_in_rack(r),
                    horizon_secs,
                    &mut rng.fork_indexed("fault-rack", r),
                    &mut events,
                );
            }
        }
        sort_events(&mut events);
        FaultSchedule { events }
    }

    fn draw_device_local(
        config: &FaultConfig,
        devices: usize,
        horizon_secs: f64,
        rng: &SimRng,
        events: &mut Vec<FaultEvent>,
    ) {
        for device in 0..devices {
            Self::draw_failures(config, device, horizon_secs, rng, events);
            Self::draw_slowdowns(config, device, horizon_secs, rng, events);
            Self::draw_renewals(
                config.crash_mtbe,
                device,
                horizon_secs,
                &mut rng.fork_indexed("fault-crash", device),
                events,
                |r| FaultKind::ProcessCrash { salt: r.u64() },
            );
            Self::draw_renewals(
                config.mps_failure_mtbe,
                device,
                horizon_secs,
                &mut rng.fork_indexed("fault-mps", device),
                events,
                |_| FaultKind::MpsRestartFailure,
            );
        }
    }

    fn draw_failures(
        config: &FaultConfig,
        device: usize,
        horizon: f64,
        rng: &SimRng,
        out: &mut Vec<FaultEvent>,
    ) {
        let mut rng = rng.fork_indexed("fault-device", device);
        let interarrival = Exponential::with_mean(config.mttf.as_secs());
        let repair_dist = Exponential::with_mean(config.mttr.as_secs());
        let mut t = interarrival.sample(&mut rng);
        while t < horizon {
            let repair = repair_dist.sample(&mut rng);
            out.push(FaultEvent::device_local(
                SimTime::from_secs(t),
                device,
                FaultKind::DeviceFailure {
                    repair: SimDuration::from_secs(repair),
                },
            ));
            // The next failure clock starts once the device is back.
            t += repair + interarrival.sample(&mut rng);
        }
    }

    fn draw_slowdowns(
        config: &FaultConfig,
        device: usize,
        horizon: f64,
        rng: &SimRng,
        out: &mut Vec<FaultEvent>,
    ) {
        let mut rng = rng.fork_indexed("fault-slowdown", device);
        let interarrival = Exponential::with_mean(config.slowdown_mtbe.as_secs());
        let duration_dist = Exponential::with_mean(config.slowdown_duration.as_secs());
        let (lo, hi) = config.slowdown_factor;
        let mut t = interarrival.sample(&mut rng);
        while t < horizon {
            let duration = duration_dist.sample(&mut rng);
            out.push(FaultEvent::device_local(
                SimTime::from_secs(t),
                device,
                FaultKind::Slowdown {
                    factor: rng.uniform(lo, hi),
                    duration: SimDuration::from_secs(duration),
                },
            ));
            // Episodes do not overlap on a device.
            t += duration + interarrival.sample(&mut rng);
        }
    }

    fn draw_renewals(
        mtbe: SimDuration,
        device: usize,
        horizon: f64,
        rng: &mut SimRng,
        out: &mut Vec<FaultEvent>,
        mut kind: impl FnMut(&mut SimRng) -> FaultKind,
    ) {
        let interarrival = Exponential::with_mean(mtbe.as_secs());
        let mut t = interarrival.sample(rng);
        while t < horizon {
            out.push(FaultEvent::device_local(
                SimTime::from_secs(t),
                device,
                kind(rng),
            ));
            t += interarrival.sample(rng);
        }
    }

    /// Draws one domain's outage renewal process and expands each
    /// outage into simultaneous per-member failure events sharing the
    /// domain tag and repair interval. A zero `mttf` disables the
    /// class: no draws are made at all.
    fn draw_domain_outages(
        mttf: SimDuration,
        mttr: SimDuration,
        domain: FaultDomain,
        members: std::ops::Range<usize>,
        horizon: f64,
        rng: &mut SimRng,
        out: &mut Vec<FaultEvent>,
    ) {
        if mttf.as_secs() <= 0.0 || members.is_empty() {
            return;
        }
        let interarrival = Exponential::with_mean(mttf.as_secs());
        let repair_dist = Exponential::with_mean(mttr.as_secs());
        let mut t = interarrival.sample(rng);
        while t < horizon {
            let repair = repair_dist.sample(rng);
            for device in members.clone() {
                out.push(FaultEvent {
                    at: SimTime::from_secs(t),
                    device,
                    kind: FaultKind::DeviceFailure {
                        repair: SimDuration::from_secs(repair),
                    },
                    domain,
                });
            }
            // The next outage clock starts once the domain is back.
            t += repair + interarrival.sample(rng);
        }
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events of each class `(failures, slowdowns, crashes,
    /// mps_failures)` — handy for experiment banners.
    pub fn class_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for e in &self.events {
            match e.kind {
                FaultKind::DeviceFailure { .. } => c.0 += 1,
                FaultKind::Slowdown { .. } => c.1 += 1,
                FaultKind::ProcessCrash { .. } => c.2 += 1,
                FaultKind::MpsRestartFailure => c.3 += 1,
            }
        }
        c
    }

    /// Count of events by blast radius `(device_local, node_scoped,
    /// rack_scoped)` — one entry per *expanded* event, not per incident.
    pub fn domain_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for e in &self.events {
            match e.domain {
                FaultDomain::Device => c.0 += 1,
                FaultDomain::Node(_) => c.1 += 1,
                FaultDomain::Rack(_) => c.2 += 1,
            }
        }
        c
    }
}

/// Total order: time, then device, then an arbitrary-but-fixed kind
/// rank, then domain rank — so ties are broken identically on every
/// replay (a rack outage and a device-local failure landing on the
/// same device at the same instant always apply in the same order).
fn sort_events(events: &mut [FaultEvent]) {
    events.sort_by(|a, b| {
        a.at.as_secs()
            .partial_cmp(&b.at.as_secs())
            .expect("SimTime is never NaN")
            .then(a.device.cmp(&b.device))
            .then(kind_rank(&a.kind).cmp(&kind_rank(&b.kind)))
            .then(domain_rank(&a.domain).cmp(&domain_rank(&b.domain)))
    });
}

fn kind_rank(kind: &FaultKind) -> u8 {
    match kind {
        FaultKind::DeviceFailure { .. } => 0,
        FaultKind::Slowdown { .. } => 1,
        FaultKind::ProcessCrash { .. } => 2,
        FaultKind::MpsRestartFailure => 3,
    }
}

fn domain_rank(domain: &FaultDomain) -> (u8, usize) {
    match domain {
        FaultDomain::Device => (0, 0),
        FaultDomain::Node(n) => (1, *n),
        FaultDomain::Rack(r) => (2, *r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::TopologyShape;

    fn dense() -> FaultConfig {
        FaultConfig::scaled(200.0)
    }

    fn topo(devices: usize) -> Topology {
        Topology::new(TopologyShape::new(4, 2), devices)
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultSchedule::generate(&dense(), 16, 40_000.0, &SimRng::seed(11));
        let b = FaultSchedule::generate(&dense(), 16, 40_000.0, &SimRng::seed(11));
        assert!(!a.is_empty());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultSchedule::generate(&dense(), 16, 40_000.0, &SimRng::seed(1));
        let b = FaultSchedule::generate(&dense(), 16, 40_000.0, &SimRng::seed(2));
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_are_time_sorted_and_within_horizon() {
        let s = FaultSchedule::generate(&dense(), 8, 20_000.0, &SimRng::seed(3));
        for w in s.events().windows(2) {
            assert!(w[0].at.as_secs() <= w[1].at.as_secs());
        }
        assert!(s.events().iter().all(|e| e.at.as_secs() < 20_000.0));
        assert!(s.events().iter().all(|e| e.device < 8));
    }

    #[test]
    fn adding_devices_preserves_existing_streams() {
        let cfg = dense();
        let small = FaultSchedule::generate(&cfg, 4, 30_000.0, &SimRng::seed(5));
        let large = FaultSchedule::generate(&cfg, 8, 30_000.0, &SimRng::seed(5));
        let small_only: Vec<_> = large
            .events()
            .iter()
            .copied()
            .filter(|e| e.device < 4)
            .collect();
        assert_eq!(small.events(), small_only.as_slice());
    }

    #[test]
    fn rate_scaling_changes_density() {
        let sparse =
            FaultSchedule::generate(&FaultConfig::scaled(50.0), 8, 100_000.0, &SimRng::seed(9));
        let dense =
            FaultSchedule::generate(&FaultConfig::scaled(400.0), 8, 100_000.0, &SimRng::seed(9));
        assert!(dense.len() > 2 * sparse.len());
    }

    #[test]
    fn slowdown_factors_stay_in_configured_range() {
        let s = FaultSchedule::generate(&dense(), 8, 100_000.0, &SimRng::seed(13));
        let (lo, hi) = dense().slowdown_factor;
        for e in s.events() {
            if let FaultKind::Slowdown { factor, .. } = e.kind {
                assert!(factor >= lo && factor < hi, "factor {factor}");
            }
        }
    }

    #[test]
    fn class_counts_add_up() {
        let s = FaultSchedule::generate(&dense(), 8, 50_000.0, &SimRng::seed(21));
        let (f, sl, c, m) = s.class_counts();
        assert_eq!(f + sl + c + m, s.len());
    }

    #[test]
    fn topology_generation_without_correlated_matches_flat() {
        let cfg = dense();
        let flat = FaultSchedule::generate(&cfg, 12, 40_000.0, &SimRng::seed(17));
        let topo = FaultSchedule::generate_with_topology(
            &cfg,
            None,
            &topo(12),
            40_000.0,
            &SimRng::seed(17),
        );
        assert_eq!(flat.events(), topo.events());
    }

    #[test]
    fn disabled_correlated_config_adds_nothing() {
        let cfg = dense();
        let corr = CorrelatedFaultConfig::disabled();
        let a = FaultSchedule::generate(&cfg, 12, 40_000.0, &SimRng::seed(17));
        let b = FaultSchedule::generate_with_topology(
            &cfg,
            Some(&corr),
            &topo(12),
            40_000.0,
            &SimRng::seed(17),
        );
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn correlated_outages_cover_their_domain() {
        let cfg = FaultConfig::scaled(10.0);
        let corr = CorrelatedFaultConfig::scaled(300.0);
        let t = topo(12);
        let s = FaultSchedule::generate_with_topology(
            &cfg,
            Some(&corr),
            &t,
            200_000.0,
            &SimRng::seed(23),
        );
        let (_, node_events, rack_events) = s.domain_counts();
        assert!(node_events > 0, "expected node outages at this rate");
        assert!(rack_events > 0, "expected rack outages at this rate");
        for e in s.events() {
            match e.domain {
                FaultDomain::Device => {}
                FaultDomain::Node(n) => {
                    assert!(t.devices_in_node(n).contains(&e.device));
                    assert!(matches!(e.kind, FaultKind::DeviceFailure { .. }));
                }
                FaultDomain::Rack(r) => {
                    assert!(t.devices_in_rack(r).contains(&e.device));
                    assert!(matches!(e.kind, FaultKind::DeviceFailure { .. }));
                }
            }
        }
        // Every correlated incident hit every member of its domain: for
        // each (time, domain) group the device set equals the domain.
        for e in s.events() {
            if let FaultDomain::Rack(r) = e.domain {
                let members: Vec<_> = s
                    .events()
                    .iter()
                    .filter(|o| o.domain == e.domain && o.at == e.at)
                    .map(|o| o.device)
                    .collect();
                assert_eq!(members.len(), t.devices_in_rack(r).len());
            }
        }
    }

    #[test]
    fn correlated_generation_is_deterministic() {
        let cfg = dense();
        let corr = CorrelatedFaultConfig::scaled(100.0);
        let t = topo(16);
        let a = FaultSchedule::generate_with_topology(
            &cfg,
            Some(&corr),
            &t,
            80_000.0,
            &SimRng::seed(31),
        );
        let b = FaultSchedule::generate_with_topology(
            &cfg,
            Some(&corr),
            &t,
            80_000.0,
            &SimRng::seed(31),
        );
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn enabling_correlated_classes_preserves_device_local_draws() {
        let cfg = dense();
        let corr = CorrelatedFaultConfig::scaled(100.0);
        let t = topo(12);
        let plain = FaultSchedule::generate(&cfg, 12, 50_000.0, &SimRng::seed(37));
        let with = FaultSchedule::generate_with_topology(
            &cfg,
            Some(&corr),
            &t,
            50_000.0,
            &SimRng::seed(37),
        );
        let device_local: Vec<_> = with
            .events()
            .iter()
            .copied()
            .filter(|e| e.domain == FaultDomain::Device)
            .collect();
        assert_eq!(plain.events(), device_local.as_slice());
    }

    #[test]
    fn node_and_rack_levels_isolate_their_class() {
        let cfg = FaultConfig::scaled(1.0);
        let t = topo(12);
        let node_only = FaultSchedule::generate_with_topology(
            &cfg,
            Some(&CorrelatedFaultConfig::node_level(300.0)),
            &t,
            200_000.0,
            &SimRng::seed(41),
        );
        let (_, n, r) = node_only.domain_counts();
        assert!(n > 0);
        assert_eq!(r, 0);
        let rack_only = FaultSchedule::generate_with_topology(
            &cfg,
            Some(&CorrelatedFaultConfig::rack_level(300.0)),
            &t,
            200_000.0,
            &SimRng::seed(41),
        );
        let (_, n, r) = rack_only.domain_counts();
        assert_eq!(n, 0);
        assert!(r > 0);
    }
}
