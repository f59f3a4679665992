//! Local-coordinator guardrails for post-fault stability.
//!
//! Faults arrive in bursts (a flapping device, an ECC scrub storm), and
//! every fault is a tuning trigger. Without damping, the [`Tuner`]
//! would retune on each one — and every GPU% change costs a visible
//! instance hand-off — so the coordinator interposes two guards:
//!
//! * [`RetuneGuard`] — dwell/cooldown anti-thrashing: fault-triggered
//!   retunes of a device are spaced at least a dwell apart, and a
//!   cooldown can suppress them entirely for a window after a storm.
//! * [`CircuitBreaker`] — SLO protection in degraded mode: while open,
//!   best-effort training on the device is shed to a fraction of its
//!   normal GPU% share so the latency-critical service keeps its SLO
//!   with less compute.
//!
//! Both are deliberately scoped to *fault-triggered* actions; the
//! Monitor's QPS-drift trigger (§5.3.2) keeps its own threshold and is
//! not damped here.
//!
//! [`Tuner`]: crate::tuner::Tuner

use simcore::{SimDuration, SimTime};

/// Anti-thrashing damper for fault-triggered retunes of one device.
#[derive(Clone, Debug)]
pub struct RetuneGuard {
    dwell: SimDuration,
    last_retune: Option<SimTime>,
    cooldown_until: Option<SimTime>,
}

impl RetuneGuard {
    /// Creates a guard enforcing at least `dwell` between retunes.
    pub fn new(dwell: SimDuration) -> Self {
        RetuneGuard {
            dwell,
            last_retune: None,
            cooldown_until: None,
        }
    }

    /// Whether a fault-triggered retune is currently allowed.
    pub fn allows(&self, now: SimTime) -> bool {
        if let Some(until) = self.cooldown_until {
            if now < until {
                return false;
            }
        }
        match self.last_retune {
            Some(last) => now.since(last).as_secs() >= self.dwell.as_secs(),
            None => true,
        }
    }

    /// Records that a retune ran at `now`, restarting the dwell clock.
    pub fn record(&mut self, now: SimTime) {
        self.last_retune = Some(now);
    }

    /// Suppresses retunes until `now + hold` (e.g. while a repair or an
    /// MPS restart is in flight and tuning against the transient state
    /// would be wasted work).
    pub fn cooldown(&mut self, now: SimTime, hold: SimDuration) {
        let until = now + hold;
        // Extend, never shorten, an active cooldown.
        self.cooldown_until = Some(match self.cooldown_until {
            Some(prev) => prev.max(until),
            None => until,
        });
    }
}

/// SLO circuit-breaker: sheds best-effort training share while open.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    shed_share: f64,
    open_until: Option<SimTime>,
}

impl CircuitBreaker {
    /// Creates a breaker that caps training at `shed_share` of its
    /// normal total GPU% share while open.
    ///
    /// # Panics
    ///
    /// Panics unless `shed_share` is in `(0, 1]`.
    pub fn new(shed_share: f64) -> Self {
        assert!(
            shed_share > 0.0 && shed_share <= 1.0,
            "invalid shed share {shed_share}"
        );
        CircuitBreaker {
            shed_share,
            open_until: None,
        }
    }

    /// Opens the breaker until `now + hold` (extends an open one).
    pub fn trip(&mut self, now: SimTime, hold: SimDuration) {
        let until = now + hold;
        self.open_until = Some(match self.open_until {
            Some(prev) => prev.max(until),
            None => until,
        });
    }

    /// Whether the breaker is open at `now`.
    pub fn is_open(&self, now: SimTime) -> bool {
        self.open_until.is_some_and(|until| now < until)
    }

    /// Multiplier to apply to the device's training share cap: the shed
    /// share while open, `1.0` otherwise.
    pub fn share_multiplier(&self, now: SimTime) -> f64 {
        if self.is_open(now) {
            self.shed_share
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn guard_enforces_dwell() {
        let mut g = RetuneGuard::new(SimDuration::from_secs(10.0));
        assert!(g.allows(t(0.0)));
        g.record(t(0.0));
        assert!(!g.allows(t(5.0)));
        assert!(g.allows(t(10.0)));
    }

    #[test]
    fn cooldown_suppresses_and_extends() {
        let mut g = RetuneGuard::new(SimDuration::from_secs(1.0));
        g.cooldown(t(0.0), SimDuration::from_secs(30.0));
        assert!(!g.allows(t(20.0)));
        // A shorter later cooldown must not shrink the window.
        g.cooldown(t(10.0), SimDuration::from_secs(5.0));
        assert!(!g.allows(t(29.0)));
        assert!(g.allows(t(30.0)));
    }

    #[test]
    fn breaker_sheds_while_open() {
        let mut b = CircuitBreaker::new(0.5);
        assert_eq!(b.share_multiplier(t(0.0)), 1.0);
        b.trip(t(0.0), SimDuration::from_secs(60.0));
        assert!(b.is_open(t(30.0)));
        assert_eq!(b.share_multiplier(t(30.0)), 0.5);
        assert_eq!(b.share_multiplier(t(60.0)), 1.0);
    }

    #[test]
    fn breaker_trip_extends() {
        let mut b = CircuitBreaker::new(0.3);
        b.trip(t(0.0), SimDuration::from_secs(10.0));
        b.trip(t(5.0), SimDuration::from_secs(10.0));
        assert!(b.is_open(t(14.0)));
        assert!(!b.is_open(t(15.0)));
    }
}
