//! Probability distributions used by the simulator.
//!
//! `rand` 0.8 without `rand_distr` only ships uniform sampling, so the
//! distributions the workload generators need — normal, log-normal,
//! exponential, Poisson — are implemented here from first principles
//! (Box-Muller, inverse CDF, Knuth/PTRS).

use crate::rng::SimRng;

/// Normal distribution `N(mean, std^2)` sampled via Box-Muller.
///
/// # Examples
///
/// ```
/// use simcore::{Normal, SimRng};
///
/// let mut rng = SimRng::seed(1);
/// let n = Normal::new(10.0, 2.0);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(
            mean.is_finite() && std.is_finite() && std >= 0.0,
            "invalid Normal({mean}, {std})"
        );
        Normal { mean, std }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }

    /// Returns the mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Draws a standard normal variate via the Box-Muller transform.
pub fn standard_normal(rng: &mut SimRng) -> f64 {
    // Avoid ln(0) by nudging u1 away from zero.
    let u1 = rng.f64().max(1e-300);
    let u2 = rng.f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution: `exp(N(mu, sigma^2))`.
///
/// Used for multiplicative latency noise; the ratio of the P99 to the
/// median of `LogNormal(mu, sigma)` is `exp(2.326 * sigma)`, which the
/// ground-truth performance model exploits to produce realistic tails.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution from the parameters of the
    /// underlying normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "invalid LogNormal({mu}, {sigma})"
        );
        LogNormal { mu, sigma }
    }

    /// Creates a log-normal noise factor with median 1 and the given
    /// multiplicative spread `sigma`.
    pub fn noise(sigma: f64) -> Self {
        Self::new(0.0, sigma)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Returns the median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Returns the `q`-quantile (`0 < q < 1`).
    pub fn quantile(&self, q: f64) -> f64 {
        (self.mu + self.sigma * normal_quantile(q)).exp()
    }
}

/// Exponential distribution with the given rate (events per unit time).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "invalid Exponential rate {rate}"
        );
        Exponential { rate }
    }

    /// Creates an exponential distribution with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }

    /// Draws one sample (inverse CDF).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.f64().max(1e-300).ln() / self.rate
    }

    /// Returns the mean, `1 / rate`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Uses Knuth's multiplication method for small `lambda` and a normal
/// approximation for large `lambda` (the simulator only needs counts, so
/// the approximation error at `lambda > 30` is immaterial).
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with mean `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "invalid Poisson lambda {lambda}"
        );
        Poisson { lambda }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            // Knuth's method.
            let limit = (-self.lambda).exp();
            let mut product = rng.f64();
            let mut count = 0u64;
            while product > limit {
                count += 1;
                product *= rng.f64();
            }
            count
        } else {
            // Normal approximation with continuity correction.
            let x = self.lambda + self.lambda.sqrt() * standard_normal(rng);
            x.round().max(0.0) as u64
        }
    }
}

/// Standard normal CDF `Φ(x)` via the Abramowitz-Stegun erf
/// approximation (absolute error < 1.5e-7).
///
/// Used by the cluster engine to accrue SLO-violation fractions
/// analytically over constant-configuration spans.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// The `z` from which `1.0 - normal_cdf(z)` is exactly `+0.0` in f64.
///
/// With `x = z/√2 ≥ 6.505`, [`erf`]'s correction term is
/// `q = poly(t)·t·exp(−x²)` with `t = 1/(1 + 0.3276·x) ≤ 0.32`. The
/// positive A&S coefficients bound `poly(t)·t` below 0.15, and
/// `exp(−x²) ≤ exp(−42.3) < 5e-19`, so `q < 1e-19`: more than 500×
/// below `2⁻⁵⁴ ≈ 5.55e-17`, half an ulp under 1.0, which swamps the
/// rounding of the few flops and of libm's `exp`. Hence `1.0 − q`
/// rounds to 1.0, `0.5·(1.0 + 1.0)` is 1.0, and the tail `1.0 − 1.0`
/// is `+0.0`. The last `z` with a nonzero tail on this `erf` is about
/// 8.2454 (pinned by a test), so the threshold sits about one unit
/// inside the exact region.
pub(crate) const ZERO_TAIL_Z: f64 = 9.2;

/// A lower bound on `r.ln()` from the float's exponent and mantissa
/// alone (no libm call), or `-∞` unless `r` is finite and at least 1.
///
/// With `r = 2^e · m`, `m ∈ [1, 2)`: `ln m = 2·artanh(u) ≥ 2u` for
/// `u = (m−1)/(m+1) ∈ [0, 1/3)`, so `e·ln 2 + 2(m−1)/(m+1) ≤ ln r`.
/// Both terms are nonnegative and each takes at most a few roundings,
/// so the relative margin of 1e-12 (plus an absolute 1e-12) keeps the
/// bound below the rounded `r.ln()` as well, with room to spare.
///
/// The bound never falls as `r` grows. Within a binade `(m−1)/(m+1)`
/// rises with `m`, and every rounding step is monotone. At a power of
/// two it jumps from under `e·ln 2 + 2/3` to `(e+1)·ln 2`.
pub(crate) fn ln_lower_bound(r: f64) -> f64 {
    if !(r >= 1.0 && r.is_finite()) {
        return f64::NEG_INFINITY;
    }
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = r.to_bits();
    let e = ((bits >> 52) as i64 - 1023) as f64;
    let m = f64::from_bits((bits & MANTISSA) | 1.0f64.to_bits());
    let bound = e * std::f64::consts::LN_2 + 2.0 * (m - 1.0) / (m + 1.0);
    bound * (1.0 - 1e-12) - 1e-12
}

/// Whether a libm-free lower bound on the logarithm proves that
/// [`lognormal_exceedance`]'s `z` is at least 9.2, where the tail is
/// exactly `+0.0`. For a positive `median` the verdict is monotone in
/// `budget`: if it holds at one budget, it holds at every larger one.
pub fn lognormal_tail_is_zero(budget: f64, median: f64, sigma: f64) -> bool {
    ln_lower_bound(budget / median) >= ZERO_TAIL_Z * sigma.max(1e-6)
}

/// The log-normal tail `P(L > budget)` for `L` of the given median and
/// log-space spread: `1 − Φ(ln(budget/median) / max(σ, 1e-6))`.
///
/// When [`lognormal_tail_is_zero`] holds, `+0.0` is returned without
/// calling `ln`, `exp` or [`erf`]; otherwise the full expression runs.
/// Either way the result is bit-identical to the full expression.
pub fn lognormal_exceedance(budget: f64, median: f64, sigma: f64) -> f64 {
    let ratio = budget / median;
    let sigma = sigma.max(1e-6);
    let full = || 1.0 - normal_cdf(ratio.ln() / sigma);
    if lognormal_tail_is_zero(budget, median, sigma) {
        debug_assert_eq!(
            full().to_bits(),
            0.0f64.to_bits(),
            "zero-tail shortcut at budget {budget} median {median} sigma {sigma}"
        );
        return 0.0;
    }
    full()
}

/// The error function, Abramowitz & Stegun 7.1.26.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Approximates the standard normal quantile function (Acklam's
/// rational approximation, relative error < 1.15e-9).
///
/// # Panics
///
/// Panics if `q` is outside `(0, 1)`.
#[allow(clippy::excessive_precision)] // Acklam's published coefficients, kept verbatim
pub fn normal_quantile(q: f64) -> f64 {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const Q_LOW: f64 = 0.02425;

    if q < Q_LOW {
        let r = (-2.0 * q.ln()).sqrt();
        (((((C[0] * r + C[1]) * r + C[2]) * r + C[3]) * r + C[4]) * r + C[5])
            / ((((D[0] * r + D[1]) * r + D[2]) * r + D[3]) * r + 1.0)
    } else if q <= 1.0 - Q_LOW {
        let r = q - 0.5;
        let s = r * r;
        (((((A[0] * s + A[1]) * s + A[2]) * s + A[3]) * s + A[4]) * s + A[5]) * r
            / (((((B[0] * s + B[1]) * s + B[2]) * s + B[3]) * s + B[4]) * s + 1.0)
    } else {
        -normal_quantile(1.0 - q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed(1);
        let d = Normal::new(5.0, 2.0);
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = mean_and_var(&xs);
        assert!((m - 5.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.15, "var {v}");
    }

    #[test]
    fn lognormal_median_and_tail() {
        let mut rng = SimRng::seed(2);
        let d = LogNormal::noise(0.1);
        let mut xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 1.0).abs() < 0.02, "median {median}");
        let p99 = xs[(xs.len() as f64 * 0.99) as usize];
        let expected = d.quantile(0.99);
        assert!((p99 - expected).abs() / expected < 0.05, "p99 {p99}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed(3);
        let d = Exponential::with_mean(0.005); // 5 ms inter-arrival, as in §7.1.
        let xs: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (m, _) = mean_and_var(&xs);
        assert!((m - 0.005).abs() < 2e-4, "mean {m}");
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        let mut rng = SimRng::seed(4);
        for lambda in [0.5, 4.0, 80.0] {
            let d = Poisson::new(lambda);
            let xs: Vec<f64> = (0..30_000).map(|_| d.sample(&mut rng) as f64).collect();
            let (m, v) = mean_and_var(&xs);
            assert!(
                (m - lambda).abs() / lambda < 0.05,
                "lambda {lambda} mean {m}"
            );
            assert!(
                (v - lambda).abs() / lambda < 0.12,
                "lambda {lambda} var {v}"
            );
        }
    }

    #[test]
    fn poisson_zero() {
        let mut rng = SimRng::seed(5);
        assert_eq!(Poisson::new(0.0).sample(&mut rng), 0);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.9999999);
    }

    #[test]
    fn tail_is_exactly_zero_from_the_threshold() {
        let zero = 0.0f64.to_bits();
        // A dense grid from the threshold to 40, where `exp(-x²)`
        // underflows to 0 and the tail is trivially 0 beyond.
        let steps = ((40.0 - ZERO_TAIL_Z) / 1e-5) as u64;
        for i in 0..=steps {
            let z = ZERO_TAIL_Z + i as f64 * 1e-5;
            assert_eq!((1.0 - normal_cdf(z)).to_bits(), zero, "z {z}");
        }
        // Every one of the first 10⁶ floats at and above it.
        let mut z = ZERO_TAIL_Z;
        for _ in 0..1_000_000 {
            assert_eq!((1.0 - normal_cdf(z)).to_bits(), zero, "z {z}");
            z = z.next_up();
        }
        assert_eq!((1.0 - normal_cdf(f64::INFINITY)).to_bits(), zero);
    }

    #[test]
    fn last_nonzero_tail_lies_below_the_threshold() {
        // Scan down from the threshold to 8.0 in 1e-6 steps for the
        // last nonzero.
        let last = (0..=((ZERO_TAIL_Z - 8.0) / 1e-6) as u64)
            .rev()
            .map(|i| 8.0 + i as f64 * 1e-6)
            .find(|&z| 1.0 - normal_cdf(z) != 0.0)
            .expect("the tail is nonzero at 8.0");
        assert!((8.245..8.246).contains(&last), "last nonzero z {last}");
        assert!(last + 0.9 < ZERO_TAIL_Z, "last nonzero z {last}");
    }

    #[test]
    fn ln_lower_bound_never_exceeds_ln() {
        let check = |r: f64| {
            let lb = ln_lower_bound(r);
            assert!(lb <= r.ln(), "r {r:e}: bound {lb} > ln {}", r.ln());
            // Loose by at most ln 2 − 2/3 ≈ 0.0265, plus the margin.
            assert!(r.ln() - lb < 0.03, "r {r:e}: bound {lb} ln {}", r.ln());
            // Never falls from one float to the next, which makes
            // `lognormal_tail_is_zero` monotone in the budget.
            if r < f64::MAX {
                assert!(ln_lower_bound(r.next_up()) >= lb, "r {r:e}: bound falls");
            }
        };
        for e in 0..1024 {
            let p = 2f64.powi(e);
            check(p);
            check(p.next_up());
            if e > 0 {
                check(p.next_down());
            }
        }
        let mut rng = SimRng::seed(6);
        for _ in 0..200_000 {
            // Log-uniform over [1, 1e300], plus the region just above 1.
            check(10f64.powf(rng.uniform(0.0, 300.0)));
            check(1.0 + rng.uniform(0.0, 1e-6));
        }
        check(f64::MAX);
        for r in [0.0, -1.0, 0.5, 1.0f64.next_down(), f64::NAN, f64::INFINITY] {
            assert_eq!(ln_lower_bound(r), f64::NEG_INFINITY, "r {r}");
        }
    }

    #[test]
    fn lognormal_exceedance_is_the_full_expression() {
        let full = |b: f64, m: f64, s: f64| 1.0 - normal_cdf((b / m).ln() / s.max(1e-6));
        let mut rng = SimRng::seed(7);
        for _ in 0..200_000 {
            let (b, m) = (rng.uniform(1e-4, 2.0), rng.uniform(1e-4, 1.0));
            let s = rng.uniform(0.0, 0.5);
            assert_eq!(
                lognormal_exceedance(b, m, s).to_bits(),
                full(b, m, s).to_bits(),
                "budget {b} median {m} sigma {s}"
            );
        }
        let odd = [0.0, -0.0, -1.0, 1e-7, 5e-324, f64::NAN, f64::INFINITY];
        for b in odd.into_iter().chain([0.1, 1.0]) {
            for m in odd.into_iter().chain([0.01, 1.0]) {
                for s in odd.into_iter().chain([0.08]) {
                    assert_eq!(
                        lognormal_exceedance(b, m, s).to_bits(),
                        full(b, m, s).to_bits(),
                        "budget {b} median {m} sigma {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn cdf_inverts_quantile() {
        for q in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let x = normal_quantile(q);
            assert!((normal_cdf(x) - q).abs() < 1e-5, "q {q}");
        }
    }

    #[test]
    fn quantile_symmetry_and_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.99) - 2.326348).abs() < 1e-4);
        assert!((normal_quantile(0.01) + normal_quantile(0.99)).abs() < 1e-9);
    }
}
