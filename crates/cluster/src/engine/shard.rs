//! Lane-local event scheduling and the parallel-commit envelope types.
//!
//! The parallel kernel partitions devices over rack-aligned shards
//! ([`simcore::ShardMap`]); each shard is an execution **lane** that
//! steps its own devices through an epoch window concurrently with the
//! other lanes. Everything a lane does is either
//!
//! * **device-local** — it touches only the lane's own `GpuDevice` /
//!   `DeviceState` slice and draws only from per-device named
//!   substreams (`fork_indexed("retune", d)`, `fork_indexed("qps", d)`),
//!   or
//! * **deferred** — it emits a typed [`OutMsg`] envelope stamped with a
//!   [`MergeKey`] `(time, device, seq)` into the lane's outbox.
//!
//! At the epoch barrier every outbox is concatenated, sorted by merge
//! key, and applied serially. The key is partition-invariant (it names
//! the *device* that produced the effect, never the shard), so the
//! commit order — and every downstream accumulation and draw — is
//! bit-identical across every (shards, workers) point. The
//! worker count changes wall-clock time only.
//!
//! # Event routing
//!
//! Events split into two types, so a misrouted event is a type error:
//!
//! * **Lane-local** ([`LaneEvent`]: `QpsChange`, `Retune`,
//!   `SlowdownEnd`, `ProcessRestart`): concern exactly one device and
//!   touch only lane-local state. They live in the owning lane's
//!   [`EventLane`] and fire during the parallel phase device by device:
//!   the lane sweeps its devices in ascending order and fires each
//!   one's events up to the window end in `(time, schedule order)`.
//! * **Global** ([`GlobalEvent`](super::state::GlobalEvent):
//!   `JobArrival`, `JobCompletion`, `UtilSample`, `Fault`,
//!   `DeviceRepair`, `StandbyPromote`): touch shared state (the job
//!   table, the queue, cross-device reroutes). They live in the single
//!   global [`SimState::events`](super::state::SimState::events) queue
//!   and fire in the serial phase after the barrier.
//!
//! Within one window a lane may advance a device past the firing time
//! of a later global event; the serial phase clamps per-device
//! timestamps to the device's accrual watermark (`SimState::dev_time`),
//! which keeps every device's timeline monotone. The window structure
//! itself is a pure function of the config (absolute multiples of
//! `shard_epoch_secs`), so this quantization is identical at every grid
//! point.

use simcore::{MergeKey, SimDuration, SimTime};

use super::state::LaneEvent;

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
        iters: u8,
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

/// One lane's event queue, stored device by device: each device keeps
/// its own pending events, and a dense per-device next-time array
/// lets the lane phase sweep its devices in ascending order, firing
/// each device's events up to the horizon by time, then schedule
/// order, before moving on. Events of different devices are
/// independent inside a lane phase (every handler touches only its own
/// device's state and substreams, schedules only its own device, and
/// defers shared effects to merge-keyed envelopes), so the
/// device-major order fires exactly the events a time-ordered pop
/// would, with the same per-device results, at every partition.
pub(super) struct EventLane {
    /// First device index this lane owns (ranges are contiguous).
    base: usize,
    /// Per-device pending events.
    pending: Vec<DeviceQueue>,
    /// Per-device firing time of the next pending event, in seconds
    /// (`INFINITY` when none): the dense array the sweep reads.
    next: Vec<f64>,
    /// Per-device envelope emission counters ([`MergeKey::seq`]).
    msg_seqs: Vec<u64>,
    /// Per-device clocks: the firing time of the device's last popped
    /// event. Past-time schedules clamp to the *device* clock — never
    /// the lane clock, which depends on how many devices share the
    /// lane and would make the clamp partition-sensitive.
    clocks: Vec<SimTime>,
    /// The device whose events are being fired (local index): while
    /// set, a schedule for any other device would break the
    /// device-major drain.
    draining: Option<usize>,
    /// The lane clock: the latest firing time of any popped event.
    now: SimTime,
    /// Events fired on this lane.
    fired: u64,
}

/// A pending lane event and its firing time.
type Pending = (SimTime, LaneEvent);

/// One device's pending events, sorted by descending `(time, schedule
/// order)`: the next to fire is last.
///
/// A device almost never holds more than two pending events (a QPS
/// segment and a retune or fault tail), so the first two live inline
/// in the lane's dense table. A third moves them all to `spill`, where
/// the device stays until `spill` drains; the spill keeps its capacity,
/// so a device that spilled once never allocates again.
#[derive(Clone)]
struct DeviceQueue {
    /// The events while not spilled: `inline[..len]`.
    inline: [Pending; 2],
    /// Events held inline (`0` while spilled).
    len: usize,
    /// Every event while spilled; empty otherwise.
    spill: Vec<Pending>,
}

impl DeviceQueue {
    const EMPTY: DeviceQueue = DeviceQueue {
        inline: [(SimTime::ZERO, LaneEvent::QpsChange(0)); 2],
        len: 0,
        spill: Vec::new(),
    };

    /// The pending events, next to fire last.
    fn events(&self) -> &[Pending] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Inserts `event` in front of (so firing after) every event due
    /// at or before `at`: equal times fire in schedule order.
    fn insert(&mut self, at: SimTime, event: LaneEvent) {
        let i = self.events().partition_point(|&(t, _)| t > at);
        let n = self.len;
        if self.spill.is_empty() && n < self.inline.len() {
            self.inline.copy_within(i..n, i + 1);
            self.inline[i] = (at, event);
            self.len = n + 1;
            return;
        }
        if self.spill.is_empty() {
            self.spill.extend_from_slice(&self.inline);
            self.len = 0;
        }
        self.spill.insert(i, (at, event));
    }

    /// Removes and returns the next event to fire.
    fn pop(&mut self) -> Option<Pending> {
        if !self.spill.is_empty() {
            return self.spill.pop();
        }
        self.len = self.len.checked_sub(1)?;
        Some(self.inline[self.len])
    }
}

// Two inline events, the length and the spill vec: the per-device cost
// of a lane queue, paid once in the lane's dense table.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<DeviceQueue>() == 96);

impl EventLane {
    /// A lane owning the contiguous device range `[base, base+len)`,
    /// every device's queue empty and inline.
    pub fn new(base: usize, len: usize) -> Self {
        EventLane {
            base,
            pending: vec![DeviceQueue::EMPTY; len],
            next: vec![f64::INFINITY; len],
            msg_seqs: vec![0; len],
            clocks: vec![SimTime::ZERO; len],
            draining: None,
            now: SimTime::ZERO,
            fired: 0,
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
        debug_assert!(
            self.draining.is_none_or(|c| c == li),
            "a lane handler scheduled device {} while draining device {}",
            event.device(),
            self.base + self.draining.unwrap_or(0),
        );
        let at = at.max(self.clocks[li]);
        let q = &mut self.pending[li];
        q.insert(at, event);
        self.next[li] = q.events().last().expect("just inserted").0.as_secs();
    }

    /// The next envelope merge key for an effect device `d` emits at
    /// `at`. Per-device counters make keys unique and emission-ordered.
    pub fn next_msg_key(&mut self, at: SimTime, d: usize) -> MergeKey {
        let li = d - self.base;
        let key = MergeKey::new(at, d as u64, self.msg_seqs[li]);
        self.msg_seqs[li] += 1;
        key
    }

    /// Pops local device `li`'s next event if it fires at or before
    /// `horizon`, advancing the device clock. Until this returns
    /// `None`, `li` is the device being drained and the only one a
    /// handler may schedule.
    pub fn pop_device_until(
        &mut self,
        li: usize,
        horizon: SimTime,
    ) -> Option<(SimTime, LaneEvent)> {
        if self.next[li] > horizon.as_secs() {
            self.draining = None;
            return None;
        }
        let q = &mut self.pending[li];
        let (at, event) = q.pop()?;
        debug_assert!(at >= self.clocks[li], "device stream went backwards");
        self.next[li] = q
            .events()
            .last()
            .map_or(f64::INFINITY, |&(t, _)| t.as_secs());
        self.clocks[li] = at;
        self.now = self.now.max(at);
        self.fired += 1;
        self.draining = Some(li);
        Some((at, event))
    }

    /// Firing time of the lane's earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let t = self.next.iter().copied().fold(f64::INFINITY, f64::min);
        t.is_finite().then(|| SimTime::from_secs(t))
    }

    /// The lane clock (latest firing time of any popped lane event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events fired on this lane.
    pub fn fired(&self) -> u64 {
        self.fired
    }
}

/// The first epoch boundary strictly after `t` for epochs of
/// `epoch_secs` (clamped to at least one second) — the commit window's
/// end. Windows are anchored on absolute multiples of the epoch length
/// so the boundary sequence is a property of the config, not of the
/// event population; anchoring on the *next event's* time
/// fast-forwards over idle stretches (a window is never empty).
pub(super) fn epoch_end_after(epoch_secs: f64, t: SimTime) -> SimTime {
    let e = epoch_secs.max(1.0);
    let end = ((t.as_secs() / e).floor() + 1.0) * e;
    if end > t.as_secs() {
        SimTime::from_secs(end)
    } else {
        // f64 roundoff at extreme magnitudes: fall back to a plain
        // one-epoch advance so the window always makes progress.
        t + SimDuration::from_secs(e)
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::job::JobId;

    /// Drains local device `li` up to `horizon`, as the lane phase does.
    fn drain_device(lane: &mut EventLane, li: usize, horizon: f64) -> Vec<(f64, LaneEvent)> {
        std::iter::from_fn(|| lane.pop_device_until(li, SimTime::from_secs(horizon)))
            .map(|(t, ev)| (t.as_secs(), ev))
            .collect()
    }

    /// One lane-phase sweep: every device in ascending order.
    fn drain(lane: &mut EventLane, horizon: f64) -> Vec<(f64, String)> {
        (0..lane.next.len())
            .flat_map(|li| drain_device(lane, li, horizon))
            .map(|(t, ev)| (t, format!("{ev:?}")))
            .collect()
    }

    #[test]
    fn lane_drains_devices_in_ascending_order_then_time_then_schedule_order() {
        // A lane owning devices 8..12: devices come back in ascending
        // order, and per device in time order, then schedule order.
        let mut lane = EventLane::new(8, 4);
        lane.schedule(SimTime::from_secs(5.0), LaneEvent::QpsChange(11));
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::QpsChange(10));
        lane.schedule(SimTime::from_secs(3.0), LaneEvent::QpsChange(8));
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::Retune(8));
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::QpsChange(8));
        lane.schedule(SimTime::from_secs(9.0), LaneEvent::Retune(10));
        assert_eq!(lane.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(
            drain(&mut lane, 5.0),
            vec![
                (1.0, "Retune(8)".to_string()),
                (1.0, "QpsChange(8)".to_string()),
                (3.0, "QpsChange(8)".to_string()),
                (1.0, "QpsChange(10)".to_string()),
                (5.0, "QpsChange(11)".to_string()),
            ]
        );
        assert_eq!(lane.fired(), 5);
        assert_eq!(lane.now(), SimTime::from_secs(5.0));
        // The event past the horizon waits for the next window.
        assert_eq!(lane.peek_time(), Some(SimTime::from_secs(9.0)));
        assert_eq!(drain(&mut lane, 1e9), vec![(9.0, "Retune(10)".to_string())]);
        assert_eq!(lane.peek_time(), None);
    }

    #[test]
    fn lane_past_scheduling_clamps_per_device_not_per_lane() {
        let mut lane = EventLane::new(0, 2);
        lane.schedule(SimTime::from_secs(10.0), LaneEvent::QpsChange(0));
        drain(&mut lane, 1e9);
        // Device 1's stream is untouched: a past time for it must NOT
        // be dragged forward by device 0 having advanced the lane —
        // that clamp would depend on which devices share the lane.
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::QpsChange(1));
        assert_eq!(drain_device(&mut lane, 1, 1e9)[0].0, 1.0);
        // Device 0's own stream *is* monotone: a past time for device
        // 0 clamps to its last fired event.
        lane.schedule(SimTime::from_secs(2.0), LaneEvent::QpsChange(0));
        assert_eq!(drain_device(&mut lane, 0, 1e9)[0].0, 10.0);
    }

    #[test]
    fn a_third_pending_event_spills_and_a_drained_device_returns_inline() {
        let mut lane = EventLane::new(0, 1);
        let ev = |token| LaneEvent::SlowdownEnd { device: 0, token };
        for (t, token) in [(1.0, 0), (3.0, 1)] {
            lane.schedule(SimTime::from_secs(t), ev(token));
        }
        assert_eq!(
            (lane.pending[0].len, lane.pending[0].spill.capacity()),
            (2, 0)
        );
        for (t, token) in [(1.0, 2), (2.0, 3), (3.0, 4)] {
            lane.schedule(SimTime::from_secs(t), ev(token));
        }
        assert_eq!((lane.pending[0].len, lane.pending[0].spill.len()), (0, 5));
        let order: Vec<(f64, String)> = drain(&mut lane, 1e9);
        let want = [(1.0, 0), (1.0, 2), (2.0, 3), (3.0, 1), (3.0, 4)];
        assert_eq!(order, want.map(|(t, k)| (t, format!("{:?}", ev(k)))));
        // Drained, the device is back inline and keeps the spill's
        // capacity for the next pile.
        lane.schedule(SimTime::from_secs(5.0), ev(5));
        lane.schedule(SimTime::from_secs(4.0), ev(6));
        let q = &lane.pending[0];
        assert_eq!((q.len, q.spill.len()), (2, 0));
        assert!(q.spill.capacity() >= 5);
        assert_eq!(lane.peek_time(), Some(SimTime::from_secs(4.0)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled device 1 while draining device 0")]
    fn scheduling_another_device_mid_drain_panics() {
        let mut lane = EventLane::new(0, 2);
        lane.schedule(SimTime::from_secs(1.0), LaneEvent::QpsChange(0));
        lane.pop_device_until(0, SimTime::from_secs(5.0));
        // Device 0's handler is running: device 1 has already been
        // swept past (or not yet reached), so this event would fire in
        // the wrong window.
        lane.schedule(SimTime::from_secs(2.0), LaneEvent::QpsChange(1));
    }

    /// The lane's contract before the per-device sweep: one
    /// time-ordered heap over `(time, device, per-device seq)` with the
    /// same per-device clock clamp.
    struct HeapLane {
        heap: BinaryHeap<Reverse<(SimTime, usize, u64, u64)>>,
        seqs: Vec<u64>,
        clocks: Vec<SimTime>,
        now: SimTime,
        fired: u64,
    }

    impl HeapLane {
        fn new(n: usize) -> Self {
            HeapLane {
                heap: BinaryHeap::new(),
                seqs: vec![0; n],
                clocks: vec![SimTime::ZERO; n],
                now: SimTime::ZERO,
                fired: 0,
            }
        }

        fn schedule(&mut self, at: SimTime, d: usize, token: u64) {
            let at = at.max(self.clocks[d]);
            self.heap.push(Reverse((at, d, self.seqs[d], token)));
            self.seqs[d] += 1;
        }

        fn pop_until(&mut self, horizon: SimTime) -> Option<(SimTime, usize, u64)> {
            let Reverse((at, d, _, token)) = self.heap.peek().copied()?;
            if at > horizon {
                return None;
            }
            self.heap.pop();
            self.clocks[d] = at;
            self.now = self.now.max(at);
            self.fired += 1;
            Some((at, d, token))
        }
    }

    /// A handler's follow-up for its own device, a pure function of the
    /// event so both drains schedule the same thing: an equal-time
    /// event, a past time (clamped to the device clock), or a later one
    /// inside or past the window. Chains end as the token shrinks.
    fn follow_up(now: SimTime, token: u64) -> Option<(SimTime, u64)> {
        (!token.is_multiple_of(4)).then(|| {
            let delay = [0.0, -3.0, 2.0, 7.5][(token / 4 % 4) as usize];
            let at = SimTime::from_secs((now.as_secs() + delay).max(0.0));
            (at, token / 4)
        })
    }

    proptest::proptest! {
        /// Device-major draining fires, per device, exactly the events
        /// a time-ordered heap fires, in the same order and at the same
        /// times, and leaves the same device clocks, lane clock, fired
        /// count and next-event time — over random per-device schedules
        /// with equal times, past-time clamps, handler follow-ups,
        /// horizons that fall inside a window, and piles of three to six
        /// events on one device that spill its queue.
        #[test]
        fn device_major_drain_matches_a_time_ordered_heap(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..9,
            windows in 1usize..12,
        ) {
            let mut rng = simcore::SimRng::seed(seed);
            let base = 3;
            let mut lane = EventLane::new(base, n);
            let mut heap = HeapLane::new(n);
            let (mut got, mut want) = (vec![Vec::new(); n], vec![Vec::new(); n]);
            let mut horizon = 0.0;
            for _ in 0..windows {
                // Serial-phase schedules: whole seconds, so times tie,
                // some before the window start, so they clamp.
                for _ in 0..rng.uniform_usize(0, 3 * n) {
                    let d = rng.uniform_usize(0, n);
                    let at = SimTime::from_secs((horizon + rng.uniform_usize(0, 16) as f64 - 4.0).max(0.0).floor());
                    let token = rng.u64() >> 48;
                    lane.schedule(at, LaneEvent::SlowdownEnd { device: base + d, token });
                    heap.schedule(at, d, token);
                }
                // Some windows pile three to six events onto one
                // device, past its two inline slots, at a few whole
                // seconds around the window start: times tie, and the
                // early ones clamp to the device clock.
                if rng.uniform_usize(0, 3) == 0 {
                    let d = rng.uniform_usize(0, n);
                    for _ in 0..rng.uniform_usize(3, 7) {
                        let at = SimTime::from_secs((horizon + rng.uniform_usize(0, 4) as f64 - 2.0).max(0.0).floor());
                        let token = rng.u64() >> 48;
                        lane.schedule(at, LaneEvent::SlowdownEnd { device: base + d, token });
                        heap.schedule(at, d, token);
                    }
                }
                horizon += [2.5, 5.0, 7.3, 10.0][rng.uniform_usize(0, 4)];
                let h = SimTime::from_secs(horizon);
                for (li, fired) in got.iter_mut().enumerate() {
                    while let Some((t, ev)) = lane.pop_device_until(li, h) {
                        let LaneEvent::SlowdownEnd { device, token } = ev else {
                            unreachable!("only slowdown ends are scheduled");
                        };
                        fired.push((t, token));
                        if let Some((at, tok)) = follow_up(t, token) {
                            lane.schedule(at, LaneEvent::SlowdownEnd { device, token: tok });
                        }
                    }
                }
                while let Some((t, d, token)) = heap.pop_until(h) {
                    want[d].push((t, token));
                    if let Some((at, tok)) = follow_up(t, token) {
                        heap.schedule(at, d, tok);
                    }
                }
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(&lane.clocks, &heap.clocks);
                proptest::prop_assert_eq!(lane.fired(), heap.fired);
                proptest::prop_assert_eq!(lane.now(), heap.now);
                let next = heap.heap.peek().map(|Reverse((t, ..))| *t);
                proptest::prop_assert_eq!(lane.peek_time(), next);
            }
        }
    }

    #[test]
    fn envelope_sort_is_time_then_device_then_emission_order() {
        // Two lanes emit at interleaved times; the barrier sort must
        // order by (time, device, seq) regardless of which outbox an
        // envelope came from.
        let mut a = EventLane::new(0, 2);
        let mut b = EventLane::new(2, 2);
        let mk = |lane: &mut EventLane, t: f64, d: usize| Envelope {
            key: lane.next_msg_key(SimTime::from_secs(t), d),
            msg: OutMsg::Bo { iters: d as u8 },
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
        // Inside an epoch: boundary is the next multiple of 60.
        assert_eq!(
            epoch_end_after(60.0, SimTime::from_secs(10.0)),
            SimTime::from_secs(60.0)
        );
        // Exactly on a boundary: the window is the *next* epoch.
        assert_eq!(
            epoch_end_after(60.0, SimTime::from_secs(60.0)),
            SimTime::from_secs(120.0)
        );
        // Far in the future: anchored on absolute multiples, so the
        // window still lands on a config-derived boundary.
        assert_eq!(
            epoch_end_after(60.0, SimTime::from_secs(86_401.0)),
            SimTime::from_secs(86_460.0)
        );
    }
}
