//! Arrival processes for requests and training tasks.
//!
//! * [`FluctuatingQps`] — piecewise-constant QPS following a reflected
//!   random walk with occasional inflection points, matching the
//!   Alibaba traces of Fig. 1(a) ("random fluctuations … no discernible
//!   periodic patterns but occasional inflection points").
//! * [`BurstSchedule`] — deterministic load multipliers over time, used
//!   for the bursty-QPS case study (Fig. 16) and the load-sensitivity
//!   sweep (Fig. 15).
//! * [`PhillyArrivals`] — training-task arrivals shaped like the
//!   Microsoft Philly production trace (§7.1): a diurnally modulated
//!   Poisson process with burst clusters, with a scaling knob for the
//!   simulated cluster (×80 in the paper).

use simcore::{Exponential, SimDuration, SimRng, SimTime};

/// Piecewise-constant fluctuating QPS (Fig. 1(a) shape).
///
/// The QPS holds a level for an exponentially distributed dwell time,
/// then takes a bounded random-walk step; with a small probability the
/// step is an *inflection* — a large jump — reproducing the trace's
/// occasional regime changes.
#[derive(Clone, Debug)]
pub struct FluctuatingQps {
    min: f64,
    max: f64,
    current: f64,
    step_frac: f64,
    inflection_prob: f64,
    dwell: Exponential,
    rng: SimRng,
}

impl FluctuatingQps {
    /// Creates a generator between `min` and `max` QPS with a mean
    /// dwell time between changes.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max` or either bound is non-positive.
    pub fn new(min: f64, max: f64, mean_dwell: SimDuration, rng: SimRng) -> Self {
        assert!(0.0 < min && min < max, "invalid QPS range [{min}, {max}]");
        let mut rng = rng;
        let current = rng.uniform(min, max);
        FluctuatingQps {
            min,
            max,
            current,
            step_frac: 0.12,
            inflection_prob: 0.12,
            dwell: Exponential::with_mean(mean_dwell.as_secs()),
            rng,
        }
    }

    /// The paper's Fig. 1(a) configuration: 30k–60k QPS aggregate,
    /// minute-scale dwell.
    pub fn alibaba_like(rng: SimRng) -> Self {
        Self::new(30_000.0, 60_000.0, SimDuration::from_secs(60.0), rng)
    }

    /// A per-replica configuration around the paper's 200 QPS mean
    /// (5 ms inter-arrival), fluctuating ±50 %.
    pub fn per_replica(rng: SimRng) -> Self {
        Self::new(100.0, 300.0, SimDuration::from_secs(45.0), rng)
    }

    /// Current QPS level.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Advances to the next segment, returning `(dwell, new_qps)`:
    /// the current level holds for `dwell`, after which the level
    /// becomes `new_qps`.
    pub fn next_segment(&mut self) -> (SimDuration, f64) {
        let dwell = SimDuration::from_secs(self.dwell.sample(&mut self.rng));
        let span = self.max - self.min;
        let step = if self.rng.chance(self.inflection_prob) {
            // Inflection: jump by up to half the full range.
            (self.rng.f64() - 0.5) * span
        } else {
            (self.rng.f64() - 0.5) * 2.0 * self.step_frac * span
        };
        let mut next = self.current + step;
        // Reflect at the boundaries.
        if next > self.max {
            next = 2.0 * self.max - next;
        }
        if next < self.min {
            next = 2.0 * self.min - next;
        }
        self.current = next.clamp(self.min, self.max);
        (dwell, self.current)
    }
}

/// A deterministic schedule of load multipliers.
#[derive(Clone, Debug)]
pub struct BurstSchedule {
    /// `(start_time, multiplier)` steps, sorted by time; the multiplier
    /// holds from its start time until the next step.
    steps: Vec<(SimTime, f64)>,
}

impl BurstSchedule {
    /// Creates a schedule from `(start, multiplier)` steps.
    ///
    /// # Panics
    ///
    /// Panics if steps are unsorted or empty, or a multiplier is
    /// non-positive.
    pub fn new(steps: Vec<(SimTime, f64)>) -> Self {
        assert!(!steps.is_empty(), "schedule needs at least one step");
        assert!(
            steps.windows(2).all(|w| w[0].0 <= w[1].0),
            "steps must be sorted by time"
        );
        assert!(
            steps.iter().all(|&(_, m)| m > 0.0),
            "multipliers must be positive"
        );
        BurstSchedule { steps }
    }

    /// A flat schedule at the given multiplier.
    pub fn constant(multiplier: f64) -> Self {
        Self::new(vec![(SimTime::ZERO, multiplier)])
    }

    /// The Fig. 16 case study: baseline load, 3× between 100 s and
    /// 200 s, baseline afterwards.
    pub fn fig16_burst() -> Self {
        Self::new(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(100.0), 3.0),
            (SimTime::from_secs(200.0), 1.0),
        ])
    }

    /// The multiplier in effect at `t`.
    pub fn multiplier_at(&self, t: SimTime) -> f64 {
        let mut m = self.steps[0].1;
        for &(start, mult) in &self.steps {
            if start <= t {
                m = mult;
            } else {
                break;
            }
        }
        m
    }

    /// The next step time strictly after `t`, if any — the DES engine
    /// schedules QPS-change events at these instants.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        self.steps.iter().map(|&(s, _)| s).find(|&s| s > t)
    }

    /// All steps.
    pub fn steps(&self) -> &[(SimTime, f64)] {
        &self.steps
    }
}

/// Philly-like training-task arrival process.
///
/// Arrival intensity is modulated by a diurnal cycle (busy daytime,
/// quiet nights) with superimposed burst clusters, reproducing the
/// bursty submission pattern of the Microsoft trace. `scale` multiplies
/// the base rate — the paper uses ×80 for the 1000-GPU simulation.
#[derive(Clone, Debug)]
pub struct PhillyArrivals {
    base_rate: f64,
    scale: f64,
    burst_boost: f64,
    rng: SimRng,
}

impl PhillyArrivals {
    /// Creates a process with `base_rate` tasks/second at scale 1.
    pub fn new(base_rate: f64, scale: f64, rng: SimRng) -> Self {
        assert!(base_rate > 0.0 && scale > 0.0);
        PhillyArrivals {
            base_rate,
            scale,
            burst_boost: 4.0,
            rng,
        }
    }

    /// Instantaneous rate at time `t` (diurnal modulation, 24 h cycle).
    fn rate_at(&self, t: SimTime) -> f64 {
        let hour = (t.as_secs() / 3600.0) % 24.0;
        // Busy 9:00–21:00, quiet otherwise; smooth sinusoidal blend.
        let diurnal = 0.55 + 0.45 * ((hour - 14.0) / 24.0 * std::f64::consts::TAU).cos();
        self.base_rate * self.scale * diurnal
    }

    /// Generates `n` arrival times starting at `start`, via thinning of
    /// a dominating Poisson process plus burst clustering: each accepted
    /// arrival has a chance to spawn a short burst of follow-on
    /// submissions (users submitting sweeps).
    pub fn generate(&mut self, start: SimTime, n: usize) -> Vec<SimTime> {
        let mut out = Vec::with_capacity(n);
        let mut t = start;
        let max_rate = self.base_rate * self.scale * (1.0 + self.burst_boost);
        while out.len() < n {
            let gap = Exponential::new(max_rate).sample(&mut self.rng);
            t += SimDuration::from_secs(gap);
            let accept_p = self.rate_at(t) / max_rate;
            if self.rng.chance(accept_p) {
                out.push(t);
                // Burst cluster: a sweep of follow-on tasks within ~60 s.
                if self.rng.chance(0.18) {
                    let burst_len = self.rng.uniform_usize(2, 7);
                    for _ in 0..burst_len {
                        if out.len() >= n {
                            break;
                        }
                        let offset = self.rng.uniform(1.0, 60.0);
                        out.push(t + SimDuration::from_secs(offset));
                    }
                }
            }
        }
        out.sort();
        out.truncate(n);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fluctuating_qps_stays_in_range() {
        let mut q = FluctuatingQps::alibaba_like(SimRng::seed(2));
        for _ in 0..5000 {
            let (dwell, qps) = q.next_segment();
            assert!((30_000.0..=60_000.0).contains(&qps), "qps {qps}");
            assert!(dwell.as_secs() >= 0.0);
        }
    }

    #[test]
    fn fluctuating_qps_actually_fluctuates() {
        let mut q = FluctuatingQps::per_replica(SimRng::seed(3));
        let values: Vec<f64> = (0..200).map(|_| q.next_segment().1).collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 80.0, "range {min}..{max} too flat");
    }

    #[test]
    fn fluctuating_qps_has_large_jumps_sometimes() {
        let mut q = FluctuatingQps::alibaba_like(SimRng::seed(4));
        let mut prev = q.current();
        let mut big_jumps = 0;
        for _ in 0..500 {
            let (_, qps) = q.next_segment();
            if (qps - prev).abs() > 6_000.0 {
                big_jumps += 1;
            }
            prev = qps;
        }
        assert!(big_jumps > 10, "only {big_jumps} inflections");
    }

    #[test]
    fn burst_schedule_multipliers() {
        let s = BurstSchedule::fig16_burst();
        assert_eq!(s.multiplier_at(SimTime::from_secs(50.0)), 1.0);
        assert_eq!(s.multiplier_at(SimTime::from_secs(150.0)), 3.0);
        assert_eq!(s.multiplier_at(SimTime::from_secs(250.0)), 1.0);
        assert_eq!(
            s.next_change_after(SimTime::from_secs(50.0)),
            Some(SimTime::from_secs(100.0))
        );
        assert_eq!(s.next_change_after(SimTime::from_secs(200.0)), None);
    }

    #[test]
    fn constant_schedule() {
        let s = BurstSchedule::constant(2.0);
        assert_eq!(s.multiplier_at(SimTime::from_secs(1e6)), 2.0);
        assert_eq!(s.next_change_after(SimTime::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn burst_schedule_rejects_unsorted() {
        let _ = BurstSchedule::new(vec![
            (SimTime::from_secs(10.0), 1.0),
            (SimTime::from_secs(5.0), 2.0),
        ]);
    }

    #[test]
    fn philly_generates_sorted_arrivals() {
        let mut p = PhillyArrivals::new(0.02, 1.0, SimRng::seed(5));
        let arrivals = p.generate(SimTime::ZERO, 300);
        assert_eq!(arrivals.len(), 300);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn philly_scaling_compresses_arrivals() {
        let span = |scale: f64| {
            let mut p = PhillyArrivals::new(0.02, scale, SimRng::seed(6));
            let a = p.generate(SimTime::ZERO, 200);
            a.last().unwrap().as_secs()
        };
        let slow = span(1.0);
        let fast = span(80.0);
        assert!(fast < slow / 20.0, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn philly_is_bursty() {
        // Coefficient of variation of inter-arrival gaps should exceed
        // a plain Poisson process's (CV = 1).
        let mut p = PhillyArrivals::new(0.05, 1.0, SimRng::seed(7));
        let arrivals = p.generate(SimTime::ZERO, 2000);
        let gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| w[1].as_secs() - w[0].as_secs())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.1, "cv {cv}");
    }
}
