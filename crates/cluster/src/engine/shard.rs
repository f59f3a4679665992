//! Lane-local event scheduling and the parallel-commit envelope types.
//!
//! The parallel kernel partitions devices over rack-aligned shards
//! ([`simcore::ShardMap`]); each shard is an execution **lane** that
//! steps its own devices through an epoch window concurrently with the
//! other lanes. Everything a lane does is either
//!
//! * **device-local** — it touches only the lane's own `GpuDevice` /
//!   `DeviceState` slice and draws only from per-device named
//!   substreams (`substream("retune", d)`, `fork_indexed("qps", d)`),
//!   or
//! * **deferred** — it emits a typed [`OutMsg`] envelope stamped with a
//!   [`MergeKey`] `(time, device, seq)` into the lane's outbox.
//!
//! At the epoch barrier every outbox is concatenated, sorted by merge
//! key, and applied serially. The key is partition-invariant (it names
//! the *device* that produced the effect, never the shard), so the
//! commit order — and every downstream accumulation and draw — is
//! bit-identical across every `MUDI_SHARDS × MUDI_THREADS` point. The
//! worker count changes wall-clock time only.
//!
//! # Event routing
//!
//! Events split into two types, so a misrouted event is a type error:
//!
//! * **Lane-local** ([`LaneEvent`]: `QpsChange`, `Retune`,
//!   `SlowdownEnd`, `ProcessRestart`): concern exactly one device and
//!   touch only lane-local state. They live in the owning lane's
//!   [`EventLane`] queue and fire during the parallel phase, ordered by
//!   `(time, device, per-device seq)` within the lane.
//! * **Global** ([`GlobalEvent`]: `JobArrival`, `JobCompletion`,
//!   `UtilSample`, `Fault`, `DeviceRepair`, `StandbyPromote`): touch
//!   shared state (the job table, the queue, cross-device reroutes).
//!   They live in the single global [`ShardedEvents`] queue and fire in
//!   the serial phase after the barrier.
//!
//! Within one window a lane may advance a device past the firing time
//! of a later global event; the serial phase clamps per-device
//! timestamps to the device's accrual watermark (`SimState::dev_time`),
//! which keeps every device's timeline monotone. The window structure
//! itself is a pure function of the config (absolute multiples of
//! `shard_epoch_secs`), so this quantization is identical at every grid
//! point.

use simcore::{EventQueue, MergeKey, SimDuration, SimTime};

use super::control::violation_probability;
use super::state::{GlobalEvent, LaneEvent};

/// Auto-sharding floor: below this device count a single lane wins
/// (the barrier machinery costs more than it saves).
pub(super) const AUTO_SHARD_MIN_DEVICES: usize = 4096;

/// A deferred cross-device or global effect, produced inside a lane
/// and applied serially at the epoch barrier in [`MergeKey`] order.
#[derive(Clone, Copy, Debug)]
pub(super) struct Envelope {
    /// `(time, emitting device, per-device seq)` — the commit order.
    pub key: MergeKey,
    /// The effect itself.
    pub msg: OutMsg,
}

/// The deferred effects a lane may emit. Each variant is applied by
/// `SimState::apply_envelope`; the apply is serial, so it may touch
/// any shared state.
#[derive(Clone, Copy, Debug)]
pub(super) enum OutMsg {
    /// Training progress accrued on a device: credit the job table and
    /// the checkpoint tracker. (The device-resident process counter
    /// was already advanced in-lane.)
    Progress {
        /// The job advancing.
        job: crate::job::JobId,
        /// Iterations completed over the accrual span.
        iters: f64,
        /// Running (unpaused, non-restart) seconds of the span.
        run_dt: f64,
    },
    /// A device re-estimated a training completion: (re)schedule the
    /// global `JobCompletion` event.
    Completion {
        /// The completing job.
        job: crate::job::JobId,
        /// The scheduling epoch stamped into the event (stale-epoch
        /// completions are ignored at fire time).
        epoch: u64,
        /// Estimated completion time.
        at: SimTime,
    },
    /// A replica's QPS segment changed while a warm standby mirrors
    /// it: propagate the new rate to the standby host.
    StandbyQps {
        /// The standby host mirroring the service.
        host: usize,
        /// The new base QPS to mirror.
        qps: f64,
    },
    /// A retune found training stuck (paused > 30 min with no memory
    /// manager): evict the device's trainings. Re-validated at apply
    /// time — the serial phase may have unstuck the device meanwhile.
    EvictStuck {
        /// The stuck device.
        device: usize,
    },
    /// A GP-LCB retune ran `iters` acquisition iterations (overhead
    /// ledger bookkeeping).
    Bo {
        /// Acquisition iterations of this retune.
        iters: usize,
    },
    /// Trace only: a retune moved the partition (emitted as
    /// `SimEvent::RetuneApplied` for the key's device).
    RetuneApplied {
        /// New batching size.
        batch: u32,
        /// Previous inference GPU fraction.
        old_fraction: f64,
        /// Applied inference GPU fraction.
        new_fraction: f64,
        /// Whether co-located training pauses under the new config.
        pause_training: bool,
    },
    /// Trace only: hysteresis rejected a retune's partition move
    /// (emitted as `SimEvent::RetuneRejected` for the key's device).
    RetuneRejected {
        /// The rejected fraction delta (new minus old).
        fraction_delta: f64,
    },
}

/// One lane's event queue: a plain [`EventQueue`] whose tie-break
/// sequence packs `(local device index, per-device counter)`, so pops
/// at equal times come back in ascending-device order and, per device,
/// in schedule order — a partition-invariant order (the global
/// interleaving of *lane* events at equal times across lanes is
/// irrelevant: their effects are device-local by construction).
pub(super) struct EventLane {
    queue: EventQueue<LaneEvent>,
    /// First device index this lane owns (ranges are contiguous).
    base: usize,
    /// Per-device schedule counters (event tie-break).
    seqs: Vec<u64>,
    /// Per-device envelope emission counters ([`MergeKey::seq`]).
    msg_seqs: Vec<u64>,
    /// Per-device clocks: the firing time of the device's last popped
    /// event. Past-time schedules clamp to the *device* clock — never
    /// the lane clock, which depends on how many devices share the
    /// lane and would make the clamp partition-sensitive.
    clocks: Vec<SimTime>,
}

impl EventLane {
    /// A lane owning the contiguous device range `[base, base+len)`,
    /// with its heap pre-sized for the bounded steady-state event
    /// population (QPS segment + retune + slowdown/restart tails per
    /// device) plus `extra` headroom.
    pub fn new(base: usize, len: usize, extra: usize) -> Self {
        let mut queue = EventQueue::new();
        queue.reserve(4 * len + extra);
        EventLane {
            queue,
            base,
            seqs: vec![0; len],
            msg_seqs: vec![0; len],
            clocks: vec![SimTime::ZERO; len],
        }
    }

    /// Schedules a lane-local event for its device. Past times clamp
    /// to the *device* clock: each device's stream stays monotone, and
    /// the clamp is identical no matter how devices are partitioned
    /// into lanes (a lane-clock clamp would fire events later on
    /// coarser partitions whenever another device's stream had already
    /// advanced the lane).
    pub fn schedule(&mut self, at: SimTime, event: LaneEvent) {
        let li = event.device() - self.base;
        let at = at.max(self.clocks[li]);
        debug_assert!(self.seqs[li] < 1 << 40, "per-device event seq overflow");
        let seq = ((li as u64) << 40) | self.seqs[li];
        self.seqs[li] += 1;
        self.queue.schedule_raw(at, seq, event);
    }

    /// The next envelope merge key for an effect device `d` emits at
    /// `at`. Per-device counters make keys unique and emission-ordered.
    pub fn next_msg_key(&mut self, at: SimTime, d: usize) -> MergeKey {
        let li = d - self.base;
        let key = MergeKey::new(at, d as u64, self.msg_seqs[li]);
        self.msg_seqs[li] += 1;
        key
    }

    /// Pops the lane's next event if it fires at or before `horizon`,
    /// advancing the owning device's clock. The pop is relaxed: the
    /// heap interleaves independent per-device streams, so queue-wide
    /// time can step backwards across devices (each device's own
    /// stream stays monotone under the schedule clamp).
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, LaneEvent)> {
        let (at, event) = self.queue.pop_until_relaxed(horizon)?;
        let li = event.device() - self.base;
        self.clocks[li] = self.clocks[li].max(at);
        Some((at, event))
    }

    /// Firing time of the lane's next event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// The lane clock (firing time of the last popped lane event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events fired on this lane.
    pub fn fired(&self) -> u64 {
        self.queue.fired()
    }
}

/// The global event queue: shared-state events only (arrivals,
/// completions, faults, repairs, promotions, the utilization sample).
/// A thin wrapper over one [`EventQueue`] that also owns the epoch
/// window geometry.
pub(super) struct ShardedEvents {
    queue: EventQueue<GlobalEvent>,
    /// Epoch window length, simulated seconds.
    epoch_secs: f64,
}

impl ShardedEvents {
    /// A global queue pre-sized for `reserve` pending events.
    pub fn new(epoch_secs: f64, reserve: usize) -> Self {
        let mut queue = EventQueue::new();
        queue.reserve(reserve);
        ShardedEvents {
            queue,
            epoch_secs: epoch_secs.max(1.0),
        }
    }

    /// Global simulated time (firing time of the last popped global
    /// event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Global events fired.
    pub fn fired(&self) -> u64 {
        self.queue.fired()
    }

    /// Whether the global queue is drained.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules a global event at absolute time `at` (past times
    /// clamp to the global clock).
    pub fn schedule_at(&mut self, at: SimTime, event: GlobalEvent) {
        self.queue.schedule_at(at, event);
    }

    /// Schedules a global event `delay` after the global clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: GlobalEvent) {
        self.queue.schedule_in(delay, event);
    }

    /// Firing time of the next global event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Pops the next global event if it fires at or before `horizon`.
    pub fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, GlobalEvent)> {
        self.queue.pop_until(horizon)
    }

    /// The first epoch boundary strictly after `t` — the commit
    /// window's end. Windows are anchored on absolute multiples of the
    /// epoch length so the boundary sequence is a property of the
    /// config, not of the event population; anchoring on the *next
    /// event's* time fast-forwards over idle stretches (a window is
    /// never empty).
    pub fn epoch_end_after(&self, t: SimTime) -> SimTime {
        let e = self.epoch_secs;
        let end = ((t.as_secs() / e).floor() + 1.0) * e;
        if end > t.as_secs() {
            SimTime::from_secs(end)
        } else {
            // f64 roundoff at extreme magnitudes: fall back to a plain
            // one-epoch advance so the window always makes progress.
            t + SimDuration::from_secs(e)
        }
    }
}

/// Single-slot memo for [`violation_probability`], keyed on the exact
/// bit patterns of all five arguments. The function is pure, so a key
/// hit is always safe to reuse and a miss just recomputes. One slot
/// per device covers the common case (repeated accruals under an
/// unchanged configuration).
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct VpCache {
    key: Option<(u64, u32, u64, u64, u64)>,
    p: f64,
}

impl VpCache {
    fn key_of(qps: f64, batch: u32, slo: f64, mean: f64, sigma: f64) -> (u64, u32, u64, u64, u64) {
        (
            qps.to_bits(),
            batch,
            slo.to_bits(),
            mean.to_bits(),
            sigma.to_bits(),
        )
    }

    /// The memoized probability, or a fresh computation (stored for
    /// the next lookup). Bit-identical to calling
    /// [`violation_probability`] directly.
    pub fn get(&mut self, qps: f64, batch: u32, slo: f64, mean: f64, sigma: f64) -> f64 {
        let key = Self::key_of(qps, batch, slo, mean, sigma);
        if self.key == Some(key) {
            return self.p;
        }
        let p = violation_probability(qps, batch, slo, mean, sigma);
        self.key = Some(key);
        self.p = p;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    #[test]
    fn lane_pops_order_by_time_then_device_then_schedule_order() {
        // A lane owning devices 8..12: equal-time events come back in
        // ascending-device order, and per device in schedule order.
        let mut lane = EventLane::new(8, 4, 16);
        lane.schedule(SimTime::from_secs(5.0), LaneEvent::QpsChange(11));
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::QpsChange(10));
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::QpsChange(8));
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::Retune(8));
        let mut order = Vec::new();
        while let Some((t, ev)) = lane.pop_until(SimTime::from_secs(1e9)) {
            order.push((t.as_secs(), format!("{ev:?}")));
        }
        assert_eq!(
            order,
            vec![
                (1.0, "QpsChange(8)".to_string()),
                (1.0, "Retune(8)".to_string()),
                (1.0, "QpsChange(10)".to_string()),
                (5.0, "QpsChange(11)".to_string()),
            ]
        );
        assert_eq!(lane.fired(), 4);
        assert_eq!(lane.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn lane_past_scheduling_clamps_per_device_not_per_lane() {
        let mut lane = EventLane::new(0, 2, 16);
        lane.schedule(SimTime::from_secs(10.0), LaneEvent::QpsChange(0));
        lane.pop_until(SimTime::from_secs(1e9));
        // Device 1's stream is untouched: a past time for it must NOT
        // be dragged forward by device 0 having advanced the lane —
        // that clamp would depend on which devices share the lane.
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::QpsChange(1));
        let (t, _) = lane.pop_until(SimTime::from_secs(1e9)).unwrap();
        assert_eq!(t, SimTime::from_secs(1.0));
        // Device 0's own stream *is* monotone: a past time for device
        // 0 clamps to its last fired event.
        lane.schedule(SimTime::from_secs(2.0), LaneEvent::QpsChange(0));
        let (t, _) = lane.pop_until(SimTime::from_secs(1e9)).unwrap();
        assert_eq!(t, SimTime::from_secs(10.0));
    }

    #[test]
    fn envelope_sort_is_time_then_device_then_emission_order() {
        // Two lanes emit at interleaved times; the barrier sort must
        // order by (time, device, seq) regardless of which outbox an
        // envelope came from.
        let mut a = EventLane::new(0, 2, 4);
        let mut b = EventLane::new(2, 2, 4);
        let mk = |lane: &mut EventLane, t: f64, d: usize| Envelope {
            key: lane.next_msg_key(SimTime::from_secs(t), d),
            msg: OutMsg::Bo { iters: d },
        };
        let mut all = [
            mk(&mut b, 2.0, 3),
            mk(&mut a, 2.0, 1),
            mk(&mut a, 1.0, 1),
            mk(&mut a, 1.0, 1), // same (time, device): emission order
            mk(&mut b, 1.0, 2),
        ];
        all.sort_unstable_by_key(|e| e.key);
        let keys: Vec<(f64, u64, u64)> = all
            .iter()
            .map(|e| (e.key.time.as_secs(), e.key.actor, e.key.seq))
            .collect();
        assert_eq!(
            keys,
            vec![
                (1.0, 1, 1),
                (1.0, 1, 2),
                (1.0, 2, 0),
                (2.0, 1, 0),
                (2.0, 3, 0),
            ]
        );
        // Suppress unused-variant noise: Progress/Completion carry data.
        let _ = OutMsg::Progress {
            job: JobId(0),
            iters: 0.0,
            run_dt: 0.0,
        };
    }

    #[test]
    fn epoch_windows_fast_forward_past_idle_gaps() {
        let q = ShardedEvents::new(60.0, 16);
        assert!(q.is_empty());
        // Inside an epoch: boundary is the next multiple of 60.
        assert_eq!(
            q.epoch_end_after(SimTime::from_secs(10.0)),
            SimTime::from_secs(60.0)
        );
        // Exactly on a boundary: the window is the *next* epoch.
        assert_eq!(
            q.epoch_end_after(SimTime::from_secs(60.0)),
            SimTime::from_secs(120.0)
        );
        // Far in the future: anchored on absolute multiples, so the
        // window still lands on a config-derived boundary.
        assert_eq!(
            q.epoch_end_after(SimTime::from_secs(86_401.0)),
            SimTime::from_secs(86_460.0)
        );
    }

    #[test]
    fn vp_cache_is_bit_identical_to_the_direct_call() {
        let mut c = VpCache::default();
        let args = [(30.0, 16u32, 0.2, 0.05, 0.3), (45.0, 8, 0.1, 0.09, 0.2)];
        for &(qps, batch, slo, mean, sigma) in &args {
            let direct = violation_probability(qps, batch, slo, mean, sigma);
            assert_eq!(c.get(qps, batch, slo, mean, sigma), direct);
            // Second lookup is the memo hit, same bits.
            assert_eq!(c.get(qps, batch, slo, mean, sigma), direct);
        }
    }
}
