//! Knee-point detection.
//!
//! The Latency Profiler (§4.1.1) locates the cutoff point `(Δ0, l0)` of
//! the piece-wise linear latency curve. The paper describes the rule as:
//! compute the curvature of each set of three consecutive points and take
//! the middle point of the set with the *lowest* curvature beyond which
//! the curve flattens; it cites the "kneedle" algorithm (Satopaa et al.,
//! 2011). Both are implemented here: [`knee_by_curvature`] follows the
//! paper's description, and [`kneedle`] the cited algorithm.
//! [`find_knee`] combines them, preferring kneedle and falling back to
//! the curvature rule for degenerate inputs.

/// Finds a knee as the index where the *change of slope* is largest —
/// the paper's "lowest curvature of three consecutive points" rule,
/// interpreted as the point separating the steep segment from the flat
/// one. Points must be sorted by `x`.
///
/// Returns `None` for fewer than 3 points.
pub fn knee_by_curvature(points: &[(f64, f64)]) -> Option<usize> {
    if points.len() < 3 {
        return None;
    }
    // For a decreasing-then-flat latency curve, the knee is the interior
    // point where the slope change |s_right - s_left| is maximal.
    let mut best = 1usize;
    let mut best_change = f64::NEG_INFINITY;
    for i in 1..points.len() - 1 {
        let left = slope(points[i - 1], points[i]);
        let right = slope(points[i], points[i + 1]);
        let change = (right - left).abs();
        if change > best_change {
            best_change = change;
            best = i;
        }
    }
    Some(best)
}

fn slope(a: (f64, f64), b: (f64, f64)) -> f64 {
    if b.0 == a.0 {
        0.0
    } else {
        (b.1 - a.1) / (b.0 - a.0)
    }
}

/// The kneedle algorithm (Satopaa et al., 2011) for a convex decreasing
/// curve: normalize to the unit square, flip to increasing, and take the
/// point with the maximum distance from the diagonal.
///
/// Returns the index of the knee, or `None` if the input has fewer than
/// three points or zero extent.
pub fn kneedle(points: &[(f64, f64)]) -> Option<usize> {
    if points.len() < 3 {
        return None;
    }
    let (x0, x1) = (points[0].0, points[points.len() - 1].0);
    let (ymin, ymax) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |acc, p| {
            (acc.0.min(p.1), acc.1.max(p.1))
        });
    if x1 == x0 || ymax == ymin {
        return None;
    }
    let decreasing = points[points.len() - 1].1 < points[0].1;
    let mut best = None;
    let mut best_d = 0.0;
    for (i, &(x, y)) in points.iter().enumerate().take(points.len() - 1).skip(1) {
        let xn = (x - x0) / (x1 - x0);
        let mut yn = (y - ymin) / (ymax - ymin);
        if decreasing {
            yn = 1.0 - yn; // Flip so that the curve increases.
        }
        // Difference curve: distance above the diagonal.
        let d = yn - xn;
        if d > best_d {
            best_d = d;
            best = Some(i);
        }
    }
    best
}

/// Finds the cutoff/knee index of a latency-vs-GPU% sample set.
///
/// Prefers [`kneedle`]; falls back to [`knee_by_curvature`] when kneedle
/// cannot decide (flat or tiny inputs). Points must be sorted by `x`.
///
/// # Examples
///
/// ```
/// use modeling::find_knee;
///
/// // Steep drop until x = 0.4, then flat: knee at index 3.
/// let pts: Vec<(f64, f64)> = vec![
///     (0.1, 100.0),
///     (0.2, 70.0),
///     (0.3, 40.0),
///     (0.4, 10.0),
///     (0.5, 9.0),
///     (0.6, 8.0),
/// ];
/// assert_eq!(modeling::find_knee(&pts), Some(3));
/// ```
pub fn find_knee(points: &[(f64, f64)]) -> Option<usize> {
    kneedle(points).or_else(|| knee_by_curvature(points))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elbow_curve(knee_x: f64, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let x = 0.1 + 0.8 * i as f64 / (n - 1) as f64;
                let y = if x <= knee_x {
                    100.0 - 90.0 * (x - 0.1) / (knee_x - 0.1)
                } else {
                    10.0 - 2.0 * (x - knee_x)
                };
                (x, y)
            })
            .collect()
    }

    #[test]
    fn kneedle_finds_sharp_elbow() {
        let pts = elbow_curve(0.5, 9);
        let idx = kneedle(&pts).unwrap();
        let x = pts[idx].0;
        assert!((x - 0.5).abs() < 0.11, "knee at {x}");
    }

    #[test]
    fn curvature_rule_finds_sharp_elbow() {
        let pts = elbow_curve(0.5, 9);
        let idx = knee_by_curvature(&pts).unwrap();
        let x = pts[idx].0;
        assert!((x - 0.5).abs() < 0.11, "knee at {x}");
    }

    #[test]
    fn handles_tiny_inputs() {
        assert_eq!(kneedle(&[(0.0, 1.0), (1.0, 0.0)]), None);
        assert_eq!(knee_by_curvature(&[(0.0, 1.0), (1.0, 0.0)]), None);
        assert_eq!(find_knee(&[]), None);
    }

    #[test]
    fn flat_curve_falls_back() {
        let pts: Vec<(f64, f64)> = (0..6).map(|i| (i as f64, 5.0)).collect();
        // kneedle returns None (zero y extent); curvature rule picks an
        // interior point, which is acceptable for a flat curve.
        assert!(find_knee(&pts).is_some());
    }

    #[test]
    fn knee_shifts_with_cutoff() {
        for knee_x in [0.3, 0.5, 0.7] {
            let pts = elbow_curve(knee_x, 17);
            let idx = find_knee(&pts).unwrap();
            assert!(
                (pts[idx].0 - knee_x).abs() < 0.12,
                "expected knee near {knee_x}, got {}",
                pts[idx].0
            );
        }
    }
}
