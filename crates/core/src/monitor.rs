//! The per-device Monitor (Fig. 6, module ⑤).
//!
//! One check, [`Monitor::check`], decides whether a replica is retuned
//! (§5.3.2). It fires on either trigger:
//!
//! * **QPS drift** — the observed QPS moved more than
//!   [`QPS_DRIFT_THRESHOLD`] (50 %) from the level the replica was last
//!   tuned for; a never-tuned replica fires on any nonzero load.
//! * **SLO risk** — the measured P99 exceeds [`P99_RISK_FRACTION`] of the
//!   SLO, the service-rate utilization exceeds [`UTIL_RISK_THRESHOLD`]
//!   (queueing pressure a real monitor would see as rising latency), or
//!   the per-request violation probability exceeds
//!   [`P_VIOLATION_RISK_THRESHOLD`]. Risk retunes are throttled to one
//!   per [`RISK_THROTTLE_SECS`].

use simcore::{SimDuration, SimTime};

use crate::tuner::TuneTrigger;

/// Relative QPS change from the tuned level that forces a retune
/// (§5.3.2 uses 50 %).
pub const QPS_DRIFT_THRESHOLD: f64 = 0.5;
/// Fraction of the SLO beyond which a measured P99 is at risk: safety
/// headroom before an actual violation.
pub const P99_RISK_FRACTION: f64 = 0.95;
/// Batch-service utilization (`mean latency / fill`) beyond which the
/// replica is at risk.
pub const UTIL_RISK_THRESHOLD: f64 = 0.85;
/// Per-request violation probability beyond which the replica is at
/// risk.
pub const P_VIOLATION_RISK_THRESHOLD: f64 = 0.02;
/// A risk retune is suppressed until this many seconds have passed
/// since the previous one.
pub const RISK_THROTTLE_SECS: f64 = 30.0;

/// Per-replica monitor state.
#[derive(Clone, Debug)]
pub struct Monitor {
    slo: SimDuration,
    tuned_qps: f64,
    /// Last SLO-risk-triggered retune (throttled).
    last_risk_tune: SimTime,
}

impl Monitor {
    /// Creates a never-tuned monitor for a replica with this SLO.
    pub fn new(slo: SimDuration) -> Self {
        Monitor {
            slo,
            tuned_qps: 0.0,
            last_risk_tune: SimTime::ZERO,
        }
    }

    /// Re-targets the monitor at a newly deployed service: the replica
    /// is untuned again, but the risk throttle keeps its last stamp.
    pub fn redeploy(&mut self, slo: SimDuration) {
        self.slo = slo;
        self.tuned_qps = 0.0;
    }

    /// Records that the replica was (re)tuned for `qps`.
    pub fn mark_tuned(&mut self, qps: f64) {
        self.tuned_qps = qps;
    }

    /// The QPS the current configuration targets.
    pub fn tuned_qps(&self) -> f64 {
        self.tuned_qps
    }

    /// Decides whether the replica is retuned at `now`, given its
    /// observed `qps`, its last measured P99 in seconds (if any), its
    /// utilization and its violation probability. A risk stamps the
    /// throttle — also when drift fires too — and is reported as
    /// [`TuneTrigger::SloRisk`]; drift alone as
    /// [`TuneTrigger::QpsChange`].
    #[inline]
    pub fn check(
        &mut self,
        now: SimTime,
        qps: f64,
        p99: Option<f64>,
        util: f64,
        p_violation: f64,
    ) -> Option<TuneTrigger> {
        let throttled = now.since(self.last_risk_tune).as_secs() <= RISK_THROTTLE_SECS;
        let risk = !throttled
            && (p99.is_some_and(|p| p > P99_RISK_FRACTION * self.slo.as_secs())
                || util > UTIL_RISK_THRESHOLD
                || p_violation > P_VIOLATION_RISK_THRESHOLD);
        if risk {
            self.last_risk_tune = now;
            return Some(TuneTrigger::SloRisk);
        }
        self.drifted(qps).then_some(TuneTrigger::QpsChange)
    }

    /// Whether `observed` drifted more than the threshold from the
    /// tuned level.
    fn drifted(&self, observed: f64) -> bool {
        if self.tuned_qps <= 0.0 {
            // Never tuned: any nonzero load is a trigger.
            return observed > 0.0;
        }
        (observed - self.tuned_qps).abs() / self.tuned_qps > QPS_DRIFT_THRESHOLD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLO_MS: f64 = 150.0;

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A monitor tuned for 200 QPS whose throttle has expired at t = 100.
    fn monitor() -> Monitor {
        let mut m = Monitor::new(SimDuration::from_millis(SLO_MS));
        m.mark_tuned(200.0);
        m
    }

    /// Drift-only check, as the bursty case study makes it.
    fn drift(m: &mut Monitor, qps: f64) -> Option<TuneTrigger> {
        m.check(at(100.0), qps, None, 0.0, 0.0)
    }

    #[test]
    fn paper_thresholds() {
        assert_eq!(QPS_DRIFT_THRESHOLD, 0.50);
        assert_eq!(P99_RISK_FRACTION, 0.95);
        assert_eq!(UTIL_RISK_THRESHOLD, 0.85);
        assert_eq!(P_VIOLATION_RISK_THRESHOLD, 0.02);
        assert_eq!(RISK_THROTTLE_SECS, 30.0);
    }

    #[test]
    fn small_drift_is_ignored() {
        let mut m = monitor();
        // Exactly 50 % either way does not fire.
        assert_eq!(drift(&mut m, 300.0), None);
        assert_eq!(drift(&mut m, 100.0), None);
        assert_eq!(drift(&mut m, 250.0), None);
    }

    #[test]
    fn large_drift_triggers() {
        let mut m = monitor();
        assert_eq!(
            drift(&mut m, 300.0_f64.next_up()),
            Some(TuneTrigger::QpsChange)
        );
        assert_eq!(
            drift(&mut m, 100.0_f64.next_down()),
            Some(TuneTrigger::QpsChange)
        );
    }

    #[test]
    fn untuned_monitor_triggers_on_any_load() {
        let mut m = Monitor::new(SimDuration::from_millis(SLO_MS));
        assert_eq!(drift(&mut m, 1e-9), Some(TuneTrigger::QpsChange));
        assert_eq!(drift(&mut m, 0.0), None);
    }

    #[test]
    fn retuning_moves_the_baseline() {
        let mut m = monitor();
        m.mark_tuned(600.0);
        assert_eq!(m.tuned_qps(), 600.0);
        assert_eq!(drift(&mut m, 250.0), Some(TuneTrigger::QpsChange));
        assert_eq!(drift(&mut m, 650.0), None);
    }

    #[test]
    fn slo_risk_fires_before_violation() {
        let limit = P99_RISK_FRACTION * SimDuration::from_millis(SLO_MS).as_secs();
        let mut m = monitor();
        assert_eq!(m.check(at(100.0), 200.0, Some(limit), 0.0, 0.0), None);
        assert_eq!(
            m.check(at(100.0), 200.0, Some(limit.next_up()), 0.0, 0.0),
            Some(TuneTrigger::SloRisk)
        );
    }

    #[test]
    fn utilization_risk_fires_just_past_the_threshold() {
        let mut m = monitor();
        let u = UTIL_RISK_THRESHOLD;
        assert_eq!(m.check(at(100.0), 200.0, None, u, 0.0), None);
        assert_eq!(
            m.check(at(100.0), 200.0, None, u.next_up(), 0.0),
            Some(TuneTrigger::SloRisk)
        );
    }

    #[test]
    fn violation_risk_fires_just_past_the_threshold() {
        let mut m = monitor();
        let p = P_VIOLATION_RISK_THRESHOLD;
        assert_eq!(m.check(at(100.0), 200.0, None, 0.0, p), None);
        assert_eq!(
            m.check(at(100.0), 200.0, None, 0.0, p.next_up()),
            Some(TuneTrigger::SloRisk)
        );
    }

    #[test]
    fn risk_is_throttled_for_thirty_seconds() {
        let mut m = monitor();
        // The throttle starts stamped at time zero.
        assert_eq!(m.check(at(RISK_THROTTLE_SECS), 200.0, None, 1.0, 0.0), None);
        assert_eq!(
            m.check(at(40.0), 200.0, None, 1.0, 0.0),
            Some(TuneTrigger::SloRisk)
        );
        // Exactly 30 s after the stamp is still throttled; just past fires.
        assert_eq!(m.check(at(70.0), 200.0, None, 1.0, 0.0), None);
        assert_eq!(
            m.check(at(70.0_f64.next_up()), 200.0, None, 1.0, 0.0),
            Some(TuneTrigger::SloRisk)
        );
    }

    #[test]
    fn throttled_risk_still_lets_drift_fire() {
        let mut m = monitor();
        assert_eq!(
            m.check(at(10.0), 400.0, None, 1.0, 0.0),
            Some(TuneTrigger::QpsChange)
        );
    }

    #[test]
    fn risk_stamps_the_throttle_when_drift_also_fires() {
        let mut m = monitor();
        assert_eq!(
            m.check(at(40.0), 400.0, None, 1.0, 0.0),
            Some(TuneTrigger::SloRisk)
        );
        // The stamp at t = 40 throttles a risk at t = 60.
        assert_eq!(m.check(at(60.0), 200.0, None, 1.0, 0.0), None);
    }

    #[test]
    fn redeploy_resets_the_baseline_but_keeps_the_stamp() {
        let mut m = monitor();
        assert_eq!(
            m.check(at(40.0), 200.0, None, 1.0, 0.0),
            Some(TuneTrigger::SloRisk)
        );
        m.redeploy(SimDuration::from_millis(2.0 * SLO_MS));
        assert_eq!(m.tuned_qps(), 0.0);
        assert_eq!(m.check(at(60.0), 0.0, None, 1.0, 0.0), None);
    }
}
