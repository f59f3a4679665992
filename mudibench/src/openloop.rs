//! The open-loop user stream: requests fall due on a seeded Poisson
//! schedule at a fixed rate, whatever the system is doing, and each is
//! timed from when it was due, so a stall counts against every request
//! queued behind it. Poisson gaps keep the schedule from locking into
//! step with the operator's periodic calls.
//!
//! The stream runs a ladder of rate phases, timed on the wall clock.
//! `max_rps` is the highest rung that, with every rung below it, keeps
//! p99 within the workload's limit without a growing backlog. A phase
//! in which the generator itself fell behind is invalid and cannot
//! pass.

use std::time::{Duration, Instant};

use simcore::SimRng;

use crate::stats::{median, percentile, segmented_median};

/// One ladder rung: an offered rate and how many requests it sends.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    pub rate: f64,
    pub count: usize,
}

/// A ladder from `(rate, seconds)` pairs; the first is the base rate.
pub fn ladder(steps: &[(f64, f64)]) -> Vec<Rung> {
    steps
        .iter()
        .map(|&(rate, secs)| Rung {
            rate,
            count: (rate * secs) as usize,
        })
        .collect()
}

/// Pause between phases, so one phase's queue cannot spill into the next.
const PHASE_GAP: Duration = Duration::from_millis(20);

/// What one rate phase recorded.
#[derive(Clone, Debug, Default)]
pub struct PhaseLog {
    pub rate: f64,
    /// Due-to-completion latency per request, less the generator's own
    /// lateness; a failed request is `INFINITY`, so it misses any limit.
    pub latency_ms: Vec<f64>,
    /// How late the generator started each request beyond the later of
    /// its due time and the moment the sender was free.
    pub gen_late_ms: Vec<f64>,
    pub failed: u64,
}

impl PhaseLog {
    /// Whether the queue grew through the phase: the last quarter's
    /// median latency exceeds twice the first quarter's plus `slack_ms`.
    pub fn backlog_grew(&self, slack_ms: f64) -> bool {
        let n = self.latency_ms.len();
        if n < 8 {
            return false;
        }
        let q = n / 4;
        let first = median(&self.latency_ms[..q]).unwrap_or(0.0);
        let last = median(&self.latency_ms[n - q..]).unwrap_or(0.0);
        last > 2.0 * first + slack_ms
    }

    /// Whether the generator's own lateness (p99) exceeded `budget_ms`.
    pub fn generator_behind(&self, budget_ms: f64) -> bool {
        percentile(&self.gen_late_ms, 99.0).map_or(true, |p| p > budget_ms)
    }

    /// Whether this phase meets `limit_ms` on p99 (the median of its
    /// segments' p99s, see [`segmented_median`]) with no growing backlog
    /// and a generator that kept up.
    pub fn meets(&self, limit_ms: f64) -> bool {
        !self.generator_behind(limit_ms / 10.0)
            && !self.backlog_grew(limit_ms / 4.0)
            && segmented_median(&self.latency_ms, 99.0).is_ok_and(|p| p <= limit_ms)
    }
}

/// The highest rung rate such that it and every rung below it meet the
/// limit; 0 when even the first rung misses.
pub fn max_rps(phases: &[PhaseLog], limit_ms: f64) -> f64 {
    phases
        .iter()
        .take_while(|p| p.meets(limit_ms))
        .map(|p| p.rate)
        .fold(0.0, f64::max)
}

/// Generator state for one ladder.
pub struct OpenLoop {
    rungs: Vec<Rung>,
    /// Per rung, each request's due offset from the phase start, seconds.
    offsets: Vec<Vec<f64>>,
    phase: usize,
    idx: usize,
    phase_start: Instant,
    free_at: Instant,
    pub phases: Vec<PhaseLog>,
}

impl OpenLoop {
    pub fn new(rungs: Vec<Rung>, seed: u64, now: Instant) -> Self {
        let mut rng = SimRng::seed(seed).fork("bench-arrivals");
        let offsets = rungs
            .iter()
            .map(|r| {
                let mut t = 0.0;
                (0..r.count)
                    .map(|_| {
                        let due = t;
                        t += -(1.0 - rng.f64()).ln() / r.rate;
                        due
                    })
                    .collect()
            })
            .collect();
        let phases = rungs
            .iter()
            .map(|r| PhaseLog {
                rate: r.rate,
                ..PhaseLog::default()
            })
            .collect();
        OpenLoop {
            rungs,
            offsets,
            phase: 0,
            idx: 0,
            phase_start: now,
            free_at: now,
            phases,
        }
    }

    pub fn done(&self) -> bool {
        self.phase >= self.rungs.len()
    }

    /// When the next request falls due (`None` once the ladder is done).
    pub fn next_due(&self) -> Option<Instant> {
        if self.done() {
            return None;
        }
        Some(self.phase_start + Duration::from_secs_f64(self.offsets[self.phase][self.idx]))
    }

    /// The sender finished other work (a stepping window, an operator
    /// call) at `t`; lateness until then is the system's, not the
    /// generator's.
    pub fn mark_free(&mut self, t: Instant) {
        self.free_at = self.free_at.max(t);
    }

    /// Records the request that was due at `due`, started at `start`
    /// and completed (or failed) at `end`.
    pub fn record(&mut self, due: Instant, start: Instant, end: Instant, ok: bool) {
        let log = &mut self.phases[self.phase];
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        // The generator's own wake-up lateness is the harness's, not the
        // system's: it is reported on its own and left out of latency.
        // Waiting for the sender to come free (a window, an operator
        // call, earlier requests) stays in.
        let ready = due.max(self.free_at).min(start);
        log.latency_ms.push(if ok {
            ms(end.saturating_duration_since(start) + ready.saturating_duration_since(due))
        } else {
            f64::INFINITY
        });
        log.gen_late_ms
            .push(ms(start.saturating_duration_since(ready)));
        log.failed += u64::from(!ok);
        self.free_at = end;
        self.idx += 1;
        if self.idx == self.rungs[self.phase].count {
            self.phase += 1;
            self.idx = 0;
            self.phase_start = end + PHASE_GAP;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.latency_ms.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Per-phase accounting lines plus the generator-lateness summary.
    pub fn describe(&self, limit_ms: f64) -> Vec<String> {
        let mut lines: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                let p99 = segmented_median(&p.latency_ms, 99.0)
                    .map_or_else(|e| format!("n/a ({e})"), |v| format!("{v:.3}"));
                format!(
                    "phase rate={} attempted={} succeeded={} failed={} p99_ms={} backlog_grew={} generator_behind={} meets_limit={}",
                    p.rate,
                    p.latency_ms.len(),
                    p.latency_ms.len() as u64 - p.failed,
                    p.failed,
                    p99,
                    p.backlog_grew(limit_ms / 4.0),
                    p.generator_behind(limit_ms / 10.0),
                    p.meets(limit_ms),
                )
            })
            .collect();
        let late: Vec<f64> = self
            .phases
            .iter()
            .flat_map(|p| p.gen_late_ms.iter().copied())
            .collect();
        lines.push(format!(
            "generator lateness_ms_p99={} lateness_ms_max={:.3} limit_ms={limit_ms}",
            percentile(&late, 99.0).map_or("n/a".into(), |v| format!("{v:.3}")),
            late.iter().copied().fold(0.0, f64::max),
        ));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(rate: f64, latency: impl Fn(usize) -> f64) -> PhaseLog {
        PhaseLog {
            rate,
            latency_ms: (0..1000).map(latency).collect(),
            gen_late_ms: vec![0.01; 1000],
            failed: 0,
        }
    }

    #[test]
    fn growing_queue_is_detected_and_a_steady_one_is_not() {
        // Overload: every request waits a little longer than the last.
        assert!(phase(8000.0, |i| 0.05 * i as f64).backlog_grew(1.0));
        // Steady but jittery: no trend.
        assert!(!phase(500.0, |i| 0.2 + (i % 7) as f64 * 0.1).backlog_grew(1.0));
        // Slack absorbs a small drift.
        assert!(!phase(500.0, |i| 0.1 + i as f64 * 1e-4).backlog_grew(1.0));
    }

    #[test]
    fn max_rps_is_the_top_of_the_passing_prefix() {
        let ok = |r| phase(r, |_| 1.0);
        let slow = |r| phase(r, |i| if i % 50 == 0 { 9.0 } else { 1.0 });
        let overloaded = |r| phase(r, |i| 0.004 * i as f64);
        assert_eq!(
            max_rps(&[ok(500.0), ok(2000.0), overloaded(8000.0)], 5.0),
            2000.0
        );
        // A p99 over the limit fails the rung (2% of requests at 9 ms).
        assert_eq!(max_rps(&[ok(500.0), slow(2000.0), ok(8000.0)], 5.0), 500.0);
        assert_eq!(max_rps(&[slow(500.0)], 5.0), 0.0);
        // A failed request misses the limit.
        let mut failing = ok(500.0);
        for l in failing.latency_ms.iter_mut().take(11) {
            *l = f64::INFINITY;
        }
        assert_eq!(max_rps(&[failing], 5.0), 0.0);
    }

    #[test]
    fn a_generator_that_fell_behind_invalidates_the_phase() {
        let mut p = phase(500.0, |_| 1.0);
        assert!(p.meets(5.0));
        p.gen_late_ms = vec![2.0; 1000];
        assert!(p.generator_behind(0.5));
        assert!(!p.meets(5.0));
    }

    #[test]
    fn poisson_schedule_keeps_the_offered_rate_and_repeats_per_seed() {
        let rungs = vec![Rung {
            rate: 1000.0,
            count: 5000,
        }];
        let a = OpenLoop::new(rungs.clone(), 7, Instant::now());
        let b = OpenLoop::new(rungs.clone(), 7, Instant::now());
        let c = OpenLoop::new(rungs, 8, Instant::now());
        assert_eq!(a.offsets, b.offsets);
        assert_ne!(a.offsets, c.offsets);
        let span = a.offsets[0].last().unwrap();
        let rate = 4999.0 / span;
        assert!((rate - 1000.0).abs() < 50.0, "offered {rate}/s");
    }

    #[test]
    fn schedule_times_requests_from_their_due_time() {
        let t0 = Instant::now();
        let mut gen = OpenLoop::new(
            vec![
                Rung {
                    rate: 1000.0,
                    count: 2,
                },
                Rung {
                    rate: 10.0,
                    count: 1,
                },
            ],
            3,
            t0,
        );
        let due0 = gen.next_due().unwrap();
        assert_eq!(due0, t0);
        // Served 3 ms late because the sender was busy until t0 + 3 ms.
        gen.mark_free(t0 + Duration::from_millis(3));
        let start = t0 + Duration::from_millis(3);
        gen.record(due0, start, start + Duration::from_millis(1), true);
        assert!((gen.phases[0].latency_ms[0] - 4.0).abs() < 1e-9);
        assert!(gen.phases[0].gen_late_ms[0].abs() < 1e-9);
        assert!(gen.next_due().unwrap() > t0);
        let due1 = gen.next_due().unwrap();
        let end = t0 + Duration::from_millis(15);
        gen.record(due1, end, end, false);
        assert_eq!(gen.failed(), 1);
        // The next rung starts after the gap.
        assert_eq!(gen.next_due().unwrap(), end + PHASE_GAP);
        gen.record(end + PHASE_GAP, end + PHASE_GAP, end + PHASE_GAP, true);
        assert!(gen.done());
        assert_eq!(gen.attempted(), 3);
    }
}
