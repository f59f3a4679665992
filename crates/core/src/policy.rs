//! Pluggable queue-scheduling policies (§3).
//!
//! Mudi "can seamlessly integrate with various scheduling policies,
//! such as shortest job first, fair sharing, and priority-based
//! scheduling, without requiring any modifications to its core
//! multiplexing algorithms". The cluster engine keeps pending training
//! tasks in a queue and asks the policy which to admit next; the
//! multiplexing machinery is oblivious to the choice.

use std::collections::HashMap;

use simcore::{SimDuration, SimTime};

/// A queued training task, as the policy sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueItem<T> {
    /// Submission time.
    pub arrival: SimTime,
    /// Estimated total duration (for SJF).
    pub est_duration: SimDuration,
    /// Priority class (higher runs first under priority scheduling).
    pub priority: u8,
    /// Fairness class (user/tenant id under fair sharing).
    pub class: usize,
    /// Opaque payload (the cluster's job handle).
    pub payload: T,
}

/// Fair-sharing bookkeeping: GPU-seconds served per class.
#[derive(Clone, Debug, Default)]
pub struct FairState {
    served: HashMap<usize, f64>,
}

impl FairState {
    /// Creates empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts `gpu_seconds` of service to a class.
    pub fn record(&mut self, class: usize, gpu_seconds: f64) {
        *self.served.entry(class).or_insert(0.0) += gpu_seconds;
    }

    /// GPU-seconds served so far for a class.
    pub fn served(&self, class: usize) -> f64 {
        self.served.get(&class).copied().unwrap_or(0.0)
    }
}

/// The scheduling policy for the pending-task queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueuePolicy {
    /// First come, first served (the paper's default, §6).
    Fcfs,
    /// Shortest job first by estimated duration.
    Sjf,
    /// Fair sharing: the least-served class goes first.
    Fair,
    /// Strict priority, FCFS within a priority level.
    Priority,
}

impl QueuePolicy {
    /// Index of the next item to admit, or `None` if the queue is
    /// empty. Deterministic: ties break toward earlier arrival, then
    /// lower index.
    pub fn next_index<T>(&self, queue: &[QueueItem<T>], fair: &FairState) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        let best = match self {
            QueuePolicy::Fcfs => queue
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.arrival.cmp(&b.1.arrival).then(a.0.cmp(&b.0))),
            QueuePolicy::Sjf => queue.iter().enumerate().min_by(|a, b| {
                a.1.est_duration
                    .cmp(&b.1.est_duration)
                    .then(a.1.arrival.cmp(&b.1.arrival))
                    .then(a.0.cmp(&b.0))
            }),
            QueuePolicy::Fair => queue.iter().enumerate().min_by(|a, b| {
                let sa = fair.served(a.1.class);
                let sb = fair.served(b.1.class);
                sa.partial_cmp(&sb)
                    .expect("finite service totals")
                    .then(a.1.arrival.cmp(&b.1.arrival))
                    .then(a.0.cmp(&b.0))
            }),
            QueuePolicy::Priority => queue.iter().enumerate().min_by(|a, b| {
                b.1.priority
                    .cmp(&a.1.priority) // Higher priority first.
                    .then(a.1.arrival.cmp(&b.1.arrival))
                    .then(a.0.cmp(&b.0))
            }),
        };
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(arr: f64, dur: f64, prio: u8, class: usize, tag: &str) -> QueueItem<&str> {
        QueueItem {
            arrival: SimTime::from_secs(arr),
            est_duration: SimDuration::from_secs(dur),
            priority: prio,
            class,
            payload: tag,
        }
    }

    /// The payload of the item `p` picks next.
    fn next<'a>(p: QueuePolicy, q: &[QueueItem<&'a str>], fair: &FairState) -> Option<&'a str> {
        p.next_index(q, fair).map(|i| q[i].payload)
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let mut q = vec![item(5.0, 1.0, 0, 0, "b"), item(1.0, 9.0, 0, 0, "a")];
        let fair = FairState::new();
        assert_eq!(QueuePolicy::Fcfs.next_index(&q, &fair), Some(1));
        q.remove(1);
        assert_eq!(next(QueuePolicy::Fcfs, &q, &fair), Some("b"));
        q.remove(0);
        assert_eq!(QueuePolicy::Fcfs.next_index(&q, &fair), None);
    }

    #[test]
    fn sjf_orders_by_duration() {
        let q = vec![item(1.0, 9.0, 0, 0, "long"), item(5.0, 1.0, 0, 0, "short")];
        let fair = FairState::new();
        assert_eq!(next(QueuePolicy::Sjf, &q, &fair), Some("short"));
    }

    #[test]
    fn priority_beats_arrival() {
        let q = vec![
            item(1.0, 1.0, 0, 0, "early-low"),
            item(9.0, 1.0, 5, 0, "late-high"),
        ];
        let fair = FairState::new();
        assert_eq!(next(QueuePolicy::Priority, &q, &fair), Some("late-high"));
    }

    #[test]
    fn fair_prefers_underserved_class() {
        let q = vec![
            item(1.0, 1.0, 0, 0, "class0"),
            item(2.0, 1.0, 0, 1, "class1"),
        ];
        let mut fair = FairState::new();
        fair.record(0, 1000.0);
        assert_eq!(next(QueuePolicy::Fair, &q, &fair), Some("class1"));
    }

    #[test]
    fn fair_falls_back_to_fcfs_when_balanced() {
        let q = vec![
            item(2.0, 1.0, 0, 1, "later"),
            item(1.0, 1.0, 0, 0, "earlier"),
        ];
        let fair = FairState::new();
        assert_eq!(next(QueuePolicy::Fair, &q, &fair), Some("earlier"));
    }

    #[test]
    fn empty_queue_returns_none() {
        let q: Vec<QueueItem<&str>> = vec![];
        let fair = FairState::new();
        for p in [
            QueuePolicy::Fcfs,
            QueuePolicy::Sjf,
            QueuePolicy::Fair,
            QueuePolicy::Priority,
        ] {
            assert_eq!(p.next_index(&q, &fair), None);
        }
    }
}
