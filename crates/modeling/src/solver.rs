//! Dynamic resource scaling solver (§5.3.2, Eq. 4).
//!
//! The Tuner must find the minimum GPU fraction Δ that keeps the
//! predicted request latency within the SLO:
//!
//! ```text
//! Δᵢ = argmin Δ   s.t.   Wᵢ/bᵢ · Pᵢ(bᵢ, Δ, Ψⱼ) ≤ SLOᵢ
//! ```
//!
//! The paper solves this with CVXPY + ECOS; since `Pᵢ` is the fitted
//! two-segment piece-wise linear function, the problem is
//! one-dimensional with a piece-wise linear constraint and admits an
//! exact closed-form solution, implemented here.
//!
//! **Constraint form.** The paper's literal constraint `W/b · P ≤ SLO`
//! is dimensionally inconsistent (it compares s/s against s). This
//! implementation uses the operationally equivalent, well-formed pair
//! it stands for:
//!
//! 1. *End-to-end latency*: a request may wait up to `b/W` for its batch
//!    to fill before service, so `b/W + P(b, Δ) ≤ SLO`.
//! 2. *Queue stability*: batches must complete no slower than they
//!    form, so `P(b, Δ) ≤ b/W`.
//!
//! Combined, with drift headroom on the stability term:
//! `P(b, Δ) ≤ min(SLO − b/W, 0.6 · b/W)` ([`STABILITY_HEADROOM`]), so a
//! tuned replica survives QPS drift up to the Monitor's 50 % retune
//! threshold. The paper's practice of inflating the result by 10 % to
//! absorb prediction error is exposed as [`SAFETY_MARGIN`].

use crate::fit::piecewise::PiecewiseLinear;

/// The paper's safety inflation applied to the solver's output
/// ("the Tuner sets the actual GPU% value to be 10 % larger").
pub const SAFETY_MARGIN: f64 = 0.10;

/// Granularity of GPU% allocations (MPS percentages are integers).
pub const GPU_FRACTION_STEP: f64 = 0.01;

/// Queue-stability headroom: a tuned configuration must serve a batch
/// in at most this fraction of the batch inter-arrival time, so the
/// replica survives *upward* QPS drift up to the Monitor's 50 % retune
/// threshold without going unstable.
pub const STABILITY_HEADROOM: f64 = 0.80;

/// Fill-wait headroom: the batch-fill wait is budgeted at `fill / 0.6`
/// so *downward* QPS drift (which stretches the wait) does not blow the
/// SLO before the Monitor retunes.
pub const FILL_HEADROOM: f64 = 0.85;

/// The latency budget implied by the SLO at a given QPS and batch size:
/// `min(SLO − b/W, b/W)`, or just `SLO` when there is no load.
///
/// A non-positive result means the batching size itself is infeasible
/// at this load (the batch-fill wait alone exceeds the SLO).
pub fn latency_budget(qps: f64, batch: f64, slo: f64) -> f64 {
    assert!(qps >= 0.0 && batch > 0.0 && slo > 0.0, "invalid inputs");
    if qps <= f64::EPSILON {
        return slo;
    }
    let fill_wait = batch / qps;
    (slo - fill_wait / FILL_HEADROOM).min(STABILITY_HEADROOM * fill_wait)
}

/// Solves Eq. (4): the minimum GPU fraction in `[lo, hi]` such that the
/// end-to-end request latency meets the SLO, then applies the 10 %
/// safety margin and rounds up to [`GPU_FRACTION_STEP`].
///
/// * `curve` — the fitted/predicted latency curve `P(b, Δ, Ψ)` for the
///   chosen batching size, in seconds.
/// * `qps` — current request arrival rate `W` (requests per second).
/// * `batch` — the batching size `b`.
/// * `slo` — the latency SLO in seconds.
///
/// Returns `None` when no fraction in `[lo, hi]` satisfies the
/// constraint (the caller then retunes the batch, or pauses training /
/// disables multiplexing, §5.3.2).
///
/// # Examples
///
/// ```
/// use modeling::{min_gpu_fraction, PiecewiseLinear};
///
/// let curve = PiecewiseLinear { k1: -0.4, k2: -0.01, x0: 0.4, y0: 0.05 };
/// let frac = min_gpu_fraction(&curve, 800.0, 64.0, 0.3, 0.05, 1.0).unwrap();
/// assert!(frac > 0.0 && frac <= 1.0);
/// ```
pub fn min_gpu_fraction(
    curve: &PiecewiseLinear,
    qps: f64,
    batch: f64,
    slo: f64,
    lo: f64,
    hi: f64,
) -> Option<f64> {
    min_fraction_meeting(curve, latency_budget(qps, batch, slo), lo, hi)
}

/// The minimum GPU fraction for a service in either serving regime: a
/// generative service (`tokens_per_request > 0`) is sized as a
/// continuous-batching decode loop at `qps × tokens_per_request`
/// tokens/second, whose iteration latency at concurrency `batch` must
/// meet the inter-token SLO; any other service takes
/// [`min_gpu_fraction`]'s request form. Same safety margin, rounding
/// and `None`-on-infeasible contract as [`min_gpu_fraction`].
pub fn min_serving_fraction(
    curve: &PiecewiseLinear,
    qps: f64,
    tokens_per_request: f64,
    batch: f64,
    slo: f64,
    lo: f64,
    hi: f64,
) -> Option<f64> {
    if tokens_per_request > 0.0 {
        let budget = decode_latency_budget(qps * tokens_per_request, batch, slo);
        min_fraction_meeting(curve, budget, lo, hi)
    } else {
        min_gpu_fraction(curve, qps, batch, slo, lo, hi)
    }
}

/// The `(strict, relaxed)` latency budgets of a service in either
/// serving regime, chosen as in [`min_serving_fraction`]: the request
/// pair [`latency_budget`] / [`latency_budget_relaxed`], or their
/// decode-loop analogues (`min(SLO, 0.8 · b/λ)` and `min(SLO, b/λ)` at
/// token rate `λ = qps × tokens_per_request`).
pub fn serving_budgets(qps: f64, tokens_per_request: f64, batch: f64, slo: f64) -> (f64, f64) {
    if tokens_per_request > 0.0 {
        let tok_rate = qps * tokens_per_request;
        (
            decode_latency_budget(tok_rate, batch, slo),
            decode_latency_budget_relaxed(tok_rate, batch, slo),
        )
    } else {
        (
            latency_budget(qps, batch, slo),
            latency_budget_relaxed(qps, batch, slo),
        )
    }
}

/// The minimum fraction in `[lo, hi]` whose latency on `curve` meets
/// `target`, inflated by [`SAFETY_MARGIN`] and rounded up to the MPS
/// percentage granularity; `None` when the budget is non-positive or
/// unreachable in range.
fn min_fraction_meeting(curve: &PiecewiseLinear, target: f64, lo: f64, hi: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0,
        "bad range"
    );
    if target <= 0.0 {
        return None;
    }
    let raw = curve.min_x_meeting(target, lo, hi)?;
    let inflated = (raw * (1.0 + SAFETY_MARGIN)).min(hi);
    let stepped = (inflated / GPU_FRACTION_STEP).ceil() * GPU_FRACTION_STEP;
    Some(stepped.clamp(lo, hi))
}

/// The relaxed budget without drift headroom: `min(SLO − b/W, b/W)`.
/// Used as a second chance before pausing training — running with thin
/// margins beats not running at all, and the Monitor's risk triggers
/// re-tune if drift bites (§5.3.2).
pub fn latency_budget_relaxed(qps: f64, batch: f64, slo: f64) -> f64 {
    assert!(qps >= 0.0 && batch > 0.0 && slo > 0.0, "invalid inputs");
    if qps <= f64::EPSILON {
        return slo;
    }
    let fill_wait = batch / qps;
    (slo - fill_wait).min(fill_wait)
}

/// The iteration-latency budget of a continuous-batching decode loop
/// serving `tok_rate` tokens/second at running-batch concurrency
/// `batch` under a p99 inter-token-latency SLO: `min(SLO, 0.8 · b/λ)`.
///
/// Two constraints fold into one budget, mirroring
/// [`latency_budget`]'s classifier pair:
///
/// 1. *Inter-token latency*: every resident sequence receives one token
///    per iteration, so the iteration latency **is** the ITL —
///    `P(b, Δ) ≤ SLO`.
/// 2. *Token-throughput stability*: an iteration emits `b` tokens in
///    `P(b, Δ)` seconds, so the loop keeps up with arrivals only while
///    `P(b, Δ) ≤ b/λ`, with the same [`STABILITY_HEADROOM`] against
///    upward QPS drift.
///
/// There is no batch-fill wait term: under continuous batching the next
/// token follows the previous iteration directly.
fn decode_latency_budget(tok_rate: f64, batch: f64, slo: f64) -> f64 {
    assert!(
        tok_rate >= 0.0 && batch > 0.0 && slo > 0.0,
        "invalid inputs"
    );
    if tok_rate <= f64::EPSILON {
        return slo;
    }
    slo.min(STABILITY_HEADROOM * batch / tok_rate)
}

/// [`decode_latency_budget`] without the drift headroom: `min(SLO,
/// b/λ)`. The decode analogue of [`latency_budget_relaxed`].
fn decode_latency_budget_relaxed(tok_rate: f64, batch: f64, slo: f64) -> f64 {
    assert!(
        tok_rate >= 0.0 && batch > 0.0 && slo > 0.0,
        "invalid inputs"
    );
    if tok_rate <= f64::EPSILON {
        return slo;
    }
    slo.min(batch / tok_rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> PiecewiseLinear {
        // Latency in seconds: steep until 40 % GPU, flat above.
        PiecewiseLinear {
            k1: -0.5,
            k2: -0.005,
            x0: 0.4,
            y0: 0.06,
        }
    }

    #[test]
    fn finds_minimal_fraction_meeting_budget() {
        let c = curve();
        // QPS 800, batch 64: fill wait 0.08 s, SLO 0.3 s -> budget
        // min(0.3 - 0.08/0.85, 0.8 * 0.08) = 0.064 s.
        let f = min_gpu_fraction(&c, 800.0, 64.0, 0.3, 0.05, 1.0).unwrap();
        assert!(c.eval(f) <= 0.064 + 1e-9);
        // A noticeably smaller allocation (beyond margin+rounding)
        // would miss the budget.
        let unpadded = f / (1.0 + SAFETY_MARGIN) - 2.0 * GPU_FRACTION_STEP;
        assert!(c.eval(unpadded) > 0.064 - 1e-9);
    }

    #[test]
    fn tighter_budget_needs_more_gpu() {
        let c = curve();
        // Same load; the smaller batch shrinks the stability budget
        // b/W, forcing a larger allocation.
        let f_loose = min_gpu_fraction(&c, 800.0, 96.0, 0.3, 0.05, 1.0).unwrap();
        let f_tight = min_gpu_fraction(&c, 800.0, 64.0, 0.3, 0.05, 1.0).unwrap();
        assert!(f_tight > f_loose, "{f_tight} vs {f_loose}");
    }

    #[test]
    fn infeasible_returns_none() {
        let c = curve();
        // Budget below the curve's floor (~0.057 s at 100 % GPU).
        assert_eq!(min_gpu_fraction(&c, 800.0, 32.0, 0.3, 0.05, 1.0), None);
        // Batch-fill wait alone exceeds the SLO.
        assert_eq!(min_gpu_fraction(&c, 100.0, 512.0, 0.3, 0.05, 1.0), None);
    }

    #[test]
    fn zero_qps_yields_minimum_fraction() {
        let c = curve();
        // No load: any fraction meeting the raw SLO works; since the
        // whole curve is under 0.5 s, the lower bound is returned
        // (plus margin/rounding).
        let f = min_gpu_fraction(&c, 0.0, 64.0, 0.5, 0.05, 1.0).unwrap();
        assert!(f <= 0.07, "f {f}");
    }

    #[test]
    fn result_respects_bounds_and_granularity() {
        let c = curve();
        let f = min_gpu_fraction(&c, 1600.0, 128.0, 0.2, 0.1, 0.9).unwrap();
        assert!((0.1..=0.9).contains(&f));
        let steps = f / GPU_FRACTION_STEP;
        assert!((steps - steps.round()).abs() < 1e-9, "not on grid: {f}");
    }

    #[test]
    fn budget_shapes() {
        // No load: full SLO.
        assert_eq!(latency_budget(0.0, 64.0, 0.2), 0.2);
        // Stability-bound region (with the 0.8 headroom).
        assert!((latency_budget(1000.0, 64.0, 0.2) - 0.0512).abs() < 1e-12);
        // Fill-wait-bound region: 0.2 - 0.16/0.85.
        assert!((latency_budget(400.0, 64.0, 0.2) - (0.2 - 0.16 / 0.85)).abs() < 1e-12);
        // Infeasible batch: negative budget.
        assert!(latency_budget(100.0, 64.0, 0.2) < 0.0);
    }

    #[test]
    fn serving_regime_follows_tokens_per_request() {
        let c = curve();
        // No tokens: the request form, bit for bit.
        assert_eq!(
            serving_budgets(800.0, 0.0, 64.0, 0.3),
            (
                latency_budget(800.0, 64.0, 0.3),
                latency_budget_relaxed(800.0, 64.0, 0.3)
            )
        );
        assert_eq!(
            min_serving_fraction(&c, 800.0, 0.0, 64.0, 0.3, 0.05, 1.0),
            min_gpu_fraction(&c, 800.0, 64.0, 0.3, 0.05, 1.0)
        );
        // 2 req/s × 100 tokens = 200 tokens/s at concurrency 16: the
        // stability term 16/200 = 0.08 s binds under a 0.3 s ITL SLO,
        // and there is no fill-wait term.
        let (strict, relaxed) = serving_budgets(2.0, 100.0, 16.0, 0.3);
        assert!((strict - 0.8 * 0.08).abs() < 1e-12 && (relaxed - 0.08).abs() < 1e-12);
        let f = min_serving_fraction(&c, 2.0, 100.0, 16.0, 0.3, 0.05, 1.0).unwrap();
        assert!(c.eval(f) <= strict + 1e-9);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn invalid_range_rejected() {
        let _ = min_gpu_fraction(&curve(), 1.0, 1.0, 1.0, 0.9, 0.1);
    }
}
