//! Memo of the Tuner's tail-latency probe.
//!
//! Every GP-LCB probe of a configuration reads the ground-truth P99
//! under the device's co-location view ([`P99Memo::p99`]). A failure or
//! repair retunes thousands of devices with the same few services and
//! tasks, and the predicted fractions repeat, so most probes were
//! already answered on this lane. The answer is a pure function of the
//! model and `(service, batch, fraction, co-located tasks in order)`,
//! which the memo keys on exactly: a hit returns the bits a fresh call
//! would, so no result depends on what the memo holds.
//!
//! The memo is direct-mapped over a fixed table allocated once per
//! system replica: a colliding key evicts the previous one. It is
//! lane-local like the predictor's curve memo, so the lane hot path
//! takes no lock.

use std::hash::Hasher;

use simcore::MulHasher;
use workloads::{ColoWorkload, GroundTruth, ServiceId, TaskId};

/// Length of a co-location view: a device hosts at most
/// `MAX_TRAININGS_PER_GPU` trainings plus one inference replica.
pub(super) const COLO_CAP: usize = gpu_sim::device::MAX_TRAININGS_PER_GPU + 1;

/// Table size: 1024 slots of 32 bytes, 32 KiB per replica.
const SLOTS: usize = 1024;

/// Task ids pack into 16-bit lanes of one word, stored as `id + 1` so
/// an empty lane (0) never equals a task.
const TASK_BITS: u32 = 16;

/// A probe's exact key, packed; see [`Key::pack`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    fraction: u64,
    svc_batch: u64,
    tasks: u64,
}

/// One cached probe: 32 bytes.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: Key,
    p99: f64,
}

/// An empty slot's `svc_batch` is `u64::MAX`, which no packed key takes
/// (services pack below `u32::MAX`).
const EMPTY: Slot = Slot {
    key: Key {
        fraction: 0,
        svc_batch: u64::MAX,
        tasks: 0,
    },
    p99: 0.0,
};

impl Key {
    /// Packs the key losslessly, or `None` when an id is too wide to
    /// pack (such probes bypass the memo).
    fn pack(service: ServiceId, batch: u32, fraction: f64, tasks: &[TaskId]) -> Option<Key> {
        let service = u32::try_from(service.0).ok().filter(|&s| s < u32::MAX)?;
        if tasks.len() > (u64::BITS / TASK_BITS) as usize {
            return None;
        }
        let mut packed = 0u64;
        for (i, t) in tasks.iter().enumerate() {
            let id = u64::try_from(t.0)
                .ok()
                .filter(|&t| t < (1 << TASK_BITS) - 1)?;
            packed |= (id + 1) << (i as u32 * TASK_BITS);
        }
        Some(Key {
            fraction: fraction.to_bits(),
            svc_batch: ((service as u64) << 32) | batch as u64,
            tasks: packed,
        })
    }

    fn slot(&self) -> usize {
        let mut h = MulHasher::default();
        h.write_u64(self.fraction);
        h.write_u64(self.svc_batch);
        h.write_u64(self.tasks);
        h.finish() as usize % SLOTS
    }
}

/// The ground-truth P99 probe with a direct-mapped memo in front.
pub(super) struct P99Memo {
    slots: Box<[Slot]>,
    /// [`GroundTruth::instance`] of the model the slots were filled
    /// from; a probe against another model clears them first.
    model: Option<u64>,
}

impl P99Memo {
    pub(super) fn new() -> Self {
        P99Memo {
            slots: vec![EMPTY; SLOTS].into_boxed_slice(),
            model: None,
        }
    }

    /// The P99 inference latency of `service` at `batch` and inference
    /// `fraction`, with `tasks` co-located and splitting the rest of the
    /// device evenly (at least 1 % each).
    pub(super) fn p99(
        &mut self,
        gt: &GroundTruth,
        service: ServiceId,
        batch: u32,
        fraction: f64,
        tasks: &[TaskId],
    ) -> f64 {
        if self.model != Some(gt.instance()) {
            self.slots.fill(EMPTY);
            self.model = Some(gt.instance());
        }
        let Some(key) = Key::pack(service, batch, fraction, tasks) else {
            return probe(gt, service, batch, fraction, tasks);
        };
        let slot = &mut self.slots[key.slot()];
        if slot.key == key {
            return slot.p99;
        }
        let p99 = probe(gt, service, batch, fraction, tasks);
        *slot = Slot { key, p99 };
        p99
    }
}

/// The uncached probe. The co-location view is built in a fixed stack
/// buffer (a device hosts at most `MAX_TRAININGS_PER_GPU` trainings), so
/// a miss does not allocate either.
fn probe(gt: &GroundTruth, service: ServiceId, batch: u32, fraction: f64, tasks: &[TaskId]) -> f64 {
    let share = if tasks.is_empty() {
        0.0
    } else {
        ((1.0 - fraction) / tasks.len() as f64).max(0.01)
    };
    let mut colo = [ColoWorkload::training(TaskId(0), 0.0); COLO_CAP];
    for (slot, &t) in colo.iter_mut().zip(tasks) {
        *slot = ColoWorkload::training(t, share);
    }
    gt.p99_inference_latency(service, batch, fraction, &colo[..tasks.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Zoo;

    fn direct(gt: &GroundTruth, key: &(ServiceId, u32, f64, Vec<TaskId>)) -> f64 {
        probe(gt, key.0, key.1, key.2, &key.3)
    }

    /// Calls the memo and reports whether the call was a hit.
    fn lookup(
        memo: &mut P99Memo,
        gt: &GroundTruth,
        key: &(ServiceId, u32, f64, Vec<TaskId>),
    ) -> (f64, bool) {
        let packed = Key::pack(key.0, key.1, key.2, &key.3).unwrap();
        let hit = memo.model == Some(gt.instance()) && memo.slots[packed.slot()].key == packed;
        (memo.p99(gt, key.0, key.1, key.2, &key.3), hit)
    }

    #[test]
    fn the_probe_is_the_view_the_tuner_measured() {
        let gt = GroundTruth::new(Zoo::standard(), 5);
        let (svc, t) = (ServiceId(2), TaskId(4));
        let colo = [ColoWorkload::training(t, (1.0f64 - 0.3).max(0.01))];
        assert_eq!(
            probe(&gt, svc, 64, 0.3, &[t]).to_bits(),
            gt.p99_inference_latency(svc, 64, 0.3, &colo).to_bits()
        );
        assert_eq!(
            probe(&gt, svc, 64, 0.3, &[]).to_bits(),
            gt.p99_inference_latency(svc, 64, 0.3, &[]).to_bits()
        );
    }

    #[test]
    fn hits_and_misses_equal_the_direct_call() {
        let gt = GroundTruth::new(Zoo::standard(), 11);
        let services = gt.zoo().services().len();
        let task_types = gt.zoo().tasks().len();
        let mut memo = P99Memo::new();
        let mut rng = simcore::SimRng::seed(3);
        let mut keys = Vec::new();
        for _ in 0..400 {
            let n = rng.uniform_usize(0, 4);
            let tasks = (0..n)
                .map(|_| TaskId(rng.uniform_usize(0, task_types)))
                .collect();
            let batch = [2, 16, 64, 512][rng.uniform_usize(0, 4)];
            let fraction = [0.05, 0.3, 0.9, 0.05 + rng.f64() * 0.85][rng.uniform_usize(0, 4)];
            keys.push((
                ServiceId(rng.uniform_usize(0, services)),
                batch,
                fraction,
                tasks,
            ));
        }
        let (mut hits, mut misses) = (0, 0);
        for round in 0..3 {
            for key in &keys {
                let (got, hit) = lookup(&mut memo, &gt, key);
                assert_eq!(
                    got.to_bits(),
                    direct(&gt, key).to_bits(),
                    "{key:?} round {round}"
                );
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        assert!(hits > 400 && misses > 100, "hits {hits}, misses {misses}");
    }

    #[test]
    fn colliding_keys_evict_without_aliasing() {
        let gt = GroundTruth::new(Zoo::standard(), 12);
        let base = (ServiceId(1), 32u32, 0.25, vec![TaskId(3)]);
        let slot = Key::pack(base.0, base.1, base.2, &base.3).unwrap().slot();
        // Fractions whose keys land in the same slot as `base`.
        let rivals: Vec<_> = (1..200_000u64)
            .map(|i| (base.0, base.1, 0.25 + i as f64 * 1e-6, base.3.clone()))
            .filter(|k| Key::pack(k.0, k.1, k.2, &k.3).unwrap().slot() == slot)
            .take(3)
            .collect();
        assert_eq!(rivals.len(), 3);
        let mut memo = P99Memo::new();
        for key in std::iter::once(&base).chain(&rivals).chain([&base, &base]) {
            assert_eq!(
                memo.p99(&gt, key.0, key.1, key.2, &key.3).to_bits(),
                direct(&gt, key).to_bits(),
                "{key:?}"
            );
        }
        // The last two probes of `base`: a miss (a rival held the slot),
        // then a hit.
        assert!(lookup(&mut memo, &gt, &base).1);
    }

    #[test]
    fn task_order_and_count_are_part_of_the_key() {
        let gt = GroundTruth::new(Zoo::standard(), 13);
        let (a, b) = (TaskId(1), TaskId(6));
        let keys = [
            vec![],
            vec![a],
            vec![a, b],
            vec![b, a],
            vec![a, a],
            vec![a, a, a],
            vec![a, b, a],
        ];
        for tasks in &keys {
            for other in &keys {
                let (x, y) = (
                    Key::pack(ServiceId(0), 64, 0.4, tasks).unwrap(),
                    Key::pack(ServiceId(0), 64, 0.4, other).unwrap(),
                );
                assert_eq!(x == y, tasks == other, "{tasks:?} vs {other:?}");
            }
        }
        let mut memo = P99Memo::new();
        for _ in 0..2 {
            for tasks in &keys {
                let key = (ServiceId(0), 64, 0.4, tasks.clone());
                assert_eq!(
                    lookup(&mut memo, &gt, &key).0.to_bits(),
                    direct(&gt, &key).to_bits(),
                    "{tasks:?}"
                );
            }
        }
    }

    #[test]
    fn another_model_clears_the_memo() {
        let (g1, g2) = (
            GroundTruth::new(Zoo::standard(), 1),
            GroundTruth::new(Zoo::standard(), 2),
        );
        let key = (ServiceId(0), 64, 0.4, vec![TaskId(2)]);
        let mut memo = P99Memo::new();
        assert_eq!(lookup(&mut memo, &g1, &key).0, direct(&g1, &key));
        assert!(lookup(&mut memo, &g1, &key).1);
        assert!(!lookup(&mut memo, &g2, &key).1);
        assert_eq!(lookup(&mut memo, &g2, &key).0, direct(&g2, &key));
        // A clone is the same model, so its answers stay cached.
        assert!(lookup(&mut memo, &g2.clone(), &key).1);
    }

    #[test]
    fn unpackable_keys_bypass_the_memo() {
        let gt = GroundTruth::new(Zoo::standard(), 4);
        assert!(Key::pack(ServiceId(0), 8, 0.5, &[TaskId(70_000)]).is_none());
        assert!(Key::pack(ServiceId(u32::MAX as usize), 8, 0.5, &[]).is_none());
        assert!(Key::pack(ServiceId(0), 8, 0.5, &[TaskId(0); 5]).is_none());
        let mut memo = P99Memo::new();
        let tasks = [TaskId(1), TaskId(2), TaskId(3), TaskId(4)];
        let packed = Key::pack(ServiceId(0), 8, 0.5, &tasks).unwrap();
        assert_eq!(packed.tasks, 2 | (3 << 16) | (4 << 32) | (5 << 48));
        assert_eq!(
            memo.p99(&gt, ServiceId(0), 8, 0.5, &tasks[..3]).to_bits(),
            probe(&gt, ServiceId(0), 8, 0.5, &tasks[..3]).to_bits()
        );
    }
}
