//! The paper's piece-wise linear latency model (Eq. 1) and its fit.
//!
//! ```text
//! L(Δ) = k1 · (Δ − Δ0) + l0   if Δ ≤ Δ0
//!        k2 · (Δ − Δ0) + l0   otherwise
//! ```
//!
//! `(Δ0, l0)` is the cutoff point, found by knee detection; `k1`, `k2`
//! are the segment slopes fitted by least squares anchored at the cutoff
//! (the paper's "small-least-squares method"). The slopes are the
//! interference signal Mudi's whole pipeline is built on.

use crate::fit::kneedle::find_knee;

/// A fitted two-segment piece-wise linear function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PiecewiseLinear {
    /// Slope of the left segment (Δ ≤ Δ0); negative for latency curves.
    pub k1: f64,
    /// Slope of the right segment (Δ > Δ0).
    pub k2: f64,
    /// Cutoff abscissa Δ0 (GPU fraction in `[0, 1]`).
    pub x0: f64,
    /// Cutoff ordinate l0 (latency at the cutoff).
    pub y0: f64,
}

impl PiecewiseLinear {
    /// Evaluates the function at `x`.
    ///
    /// # Examples
    ///
    /// ```
    /// use modeling::PiecewiseLinear;
    ///
    /// let f = PiecewiseLinear { k1: -100.0, k2: -5.0, x0: 0.4, y0: 20.0 };
    /// assert_eq!(f.eval(0.4), 20.0);
    /// assert!((f.eval(0.3) - 30.0).abs() < 1e-9); // Steep left segment.
    /// assert!((f.eval(0.6) - 19.0).abs() < 1e-9); // Shallow right segment.
    /// ```
    pub fn eval(&self, x: f64) -> f64 {
        let k = if x <= self.x0 { self.k1 } else { self.k2 };
        k * (x - self.x0) + self.y0
    }

    /// The parameter vector `Y = [k1, k2, Δ0, l0]` the interference
    /// modeler learns to predict (§4.1.2).
    pub fn params(&self) -> [f64; 4] {
        [self.k1, self.k2, self.x0, self.y0]
    }

    /// Reconstructs a function from the parameter vector.
    pub fn from_params(p: [f64; 4]) -> Self {
        PiecewiseLinear {
            k1: p[0],
            k2: p[1],
            x0: p[2],
            y0: p[3],
        }
    }

    /// Average of the two slopes — the Device Selector's interference
    /// score for a candidate co-location (§5.2). Less negative (smaller
    /// magnitude) means less interference sensitivity.
    pub fn mean_slope_magnitude(&self) -> f64 {
        (self.k1.abs() + self.k2.abs()) / 2.0
    }

    /// Smallest `x` in `[lo, hi]` with `eval(x) <= target`, if any.
    ///
    /// For latency curves (`k1 < 0`) the function is non-increasing, so
    /// this is the minimum GPU fraction meeting a latency budget.
    pub fn min_x_meeting(&self, target: f64, lo: f64, hi: f64) -> Option<f64> {
        assert!(lo <= hi, "empty interval");
        // Candidate on the left segment, skipped when the cutoff lies
        // left of `lo` (the segment misses the interval).
        if self.k1 < 0.0 {
            let top = hi.min(self.x0);
            if lo <= top {
                let x = (self.x0 + (target - self.y0) / self.k1).clamp(lo, top);
                if x >= lo && self.eval(x) <= target + 1e-9 {
                    return Some(x);
                }
            }
        } else if self.eval(lo) <= target {
            return Some(lo);
        }
        // Candidate on the right segment, skipped when the cutoff lies
        // right of `hi`.
        if self.k2 < 0.0 {
            let bottom = lo.max(self.x0);
            if bottom <= hi {
                let x = (self.x0 + (target - self.y0) / self.k2).clamp(bottom, hi);
                if x <= hi && self.eval(x) <= target + 1e-9 {
                    return Some(x);
                }
            }
        } else if self.x0 <= hi && self.eval(self.x0.max(lo)) <= target {
            return Some(self.x0.max(lo));
        }
        None
    }
}

/// Fits Eq. (1) to `(Δ, latency)` samples.
///
/// The cutoff is located with knee detection; each segment's slope is
/// then fitted by least squares through the cutoff point. Requires at
/// least three samples sorted or sortable by `x`.
///
/// Returns `None` for fewer than three samples.
pub fn fit_piecewise(samples: &[(f64, f64)]) -> Option<PiecewiseLinear> {
    if samples.len() < 3 {
        return None;
    }
    let mut pts = samples.to_vec();
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN sample"));

    let knee = find_knee(&pts).unwrap_or(pts.len() / 2);
    let (x0, y0) = pts[knee];

    let k1 = anchored_slope(&pts[..=knee], x0, y0).unwrap_or(0.0);
    let k2 = anchored_slope(&pts[knee..], x0, y0).unwrap_or(0.0);
    Some(PiecewiseLinear { k1, k2, x0, y0 })
}

/// Least-squares slope of `y - y0 = k (x - x0)` through the anchor.
fn anchored_slope(pts: &[(f64, f64)], x0: f64, y0: f64) -> Option<f64> {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(x, y) in pts {
        let dx = x - x0;
        num += dx * (y - y0);
        den += dx * dx;
    }
    (den > 0.0).then(|| num / den)
}

/// Mean absolute percentage error of a fitted curve over test samples,
/// in percent — the metric of Tab. 2.
pub fn mape(f: &PiecewiseLinear, samples: &[(f64, f64)]) -> f64 {
    crate::eval::mape(samples.iter().map(|&(x, y)| (f.eval(x), y)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> PiecewiseLinear {
        PiecewiseLinear {
            k1: -120.0,
            k2: -4.0,
            x0: 0.45,
            y0: 30.0,
        }
    }

    fn sample_curve(f: &PiecewiseLinear, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let x = 0.1 + 0.8 * i as f64 / (n - 1) as f64;
                (x, f.eval(x))
            })
            .collect()
    }

    #[test]
    fn recovers_noiseless_parameters() {
        let t = truth();
        let fit = fit_piecewise(&sample_curve(&t, 9)).unwrap();
        assert!((fit.x0 - t.x0).abs() < 0.11, "x0 {}", fit.x0);
        assert!((fit.k1 - t.k1).abs() / t.k1.abs() < 0.25, "k1 {}", fit.k1);
        assert!((fit.k2 - t.k2).abs() < 3.0, "k2 {}", fit.k2);
    }

    #[test]
    fn eval_matches_definition() {
        let f = truth();
        assert_eq!(f.eval(f.x0), f.y0);
        assert!(f.eval(0.2) > f.y0);
        assert!(f.eval(0.9) < f.y0);
    }

    #[test]
    fn params_roundtrip() {
        let f = truth();
        assert_eq!(PiecewiseLinear::from_params(f.params()), f);
    }

    #[test]
    fn min_x_meeting_on_left_segment() {
        let f = truth();
        // Target above y0: achievable before the knee.
        let x = f.min_x_meeting(60.0, 0.1, 1.0).unwrap();
        assert!((f.eval(x) - 60.0).abs() < 1e-6);
        assert!(x < f.x0);
    }

    #[test]
    fn min_x_meeting_on_right_segment() {
        let f = truth();
        // Target below y0: needs the shallow segment.
        let x = f.min_x_meeting(29.0, 0.1, 1.0).unwrap();
        assert!(x > f.x0);
        assert!(f.eval(x) <= 29.0 + 1e-9);
    }

    #[test]
    fn min_x_meeting_with_cutoff_just_below_lo() {
        let f = truth();
        // The left segment misses [lo, hi]; the right one answers.
        let x = f.min_x_meeting(29.0, f.x0.next_up(), 1.0).unwrap();
        assert!((x - 0.7).abs() < 1e-9, "x {x}");
    }

    #[test]
    fn min_x_meeting_with_cutoff_just_above_hi() {
        let f = truth();
        // The right segment misses [lo, hi], and the left one stays
        // above the target: eval(hi) is just over y0 = 30.
        assert_eq!(f.min_x_meeting(29.0, 0.1, f.x0.next_down()), None);
    }

    #[test]
    fn min_x_meeting_infeasible() {
        let f = truth();
        // Even at 100% GPU the latency floor is eval(1.0) = 27.8.
        assert_eq!(f.min_x_meeting(1.0, 0.1, 1.0), None);
    }

    #[test]
    fn fit_needs_three_points() {
        assert!(fit_piecewise(&[(0.1, 1.0), (0.2, 2.0)]).is_none());
    }

    #[test]
    fn mean_slope_magnitude() {
        let f = truth();
        assert_eq!(f.mean_slope_magnitude(), 62.0);
    }

    #[test]
    fn mape_of_exact_fit_is_zero() {
        let t = truth();
        let pts = sample_curve(&t, 9);
        let fit = fit_piecewise(&pts).unwrap();
        assert!(mape(&fit, &pts) < 6.0, "mape {}", mape(&fit, &pts));
    }
}
