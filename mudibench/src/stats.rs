//! Percentile arithmetic shared by every metric the benchmark reports.
//!
//! Percentiles use the nearest-rank rule, and a percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it: a p99
//! needs 1000 samples, a p90 100, a median 20.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (in `(0, 100]`) among `n`
/// samples: the smallest rank whose cumulative share reaches `q`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(q > 0.0 && q <= 100.0, "percentile {q} out of (0, 100]");
    // Rounding before the ceiling keeps q = 99 at n = 1000 on rank 990
    // despite 0.99 * 1000 not being exact in binary.
    let exact = q / 100.0 * n as f64;
    ((exact * 1e9).round() / 1e9).ceil().max(1.0) as usize
}

/// How many samples lie beyond percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q).min(n)
}

/// Nearest-rank percentile of `samples` (any order), or an error naming
/// the shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{q} needs {MIN_BEYOND} samples beyond it; {n} samples leave {}",
            if n == 0 { 0 } else { beyond(n, q) }
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[nearest_rank(n, q) - 1])
}

/// Most segments [`segmented_median`] splits a run into.
pub const MAX_SEGMENTS: usize = 40;

/// Percentile `q` taken within each of up to [`MAX_SEGMENTS`]
/// consecutive equal segments of `samples` (in arrival order), as many
/// as still leave every segment [`MIN_BEYOND`] samples beyond its own
/// percentile; the result is the median of the segment percentiles.
/// Each segment keeps its own tail, while a host stall that covers
/// fewer than half of the segments does not decide the result. A
/// regression confined to such a minority of the run does not move it
/// either.
pub fn segmented_median(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let segments = (1..=MAX_SEGMENTS)
        .rev()
        .find(|&s| beyond(n / s, q) >= MIN_BEYOND)
        .unwrap_or(1);
    let per_segment = (0..segments)
        .map(|i| percentile(&samples[i * n / segments..(i + 1) * n / segments], q))
        .collect::<Result<Vec<f64>, String>>()?;
    median(&per_segment).ok_or_else(|| percentile(samples, q).unwrap_err())
}

/// Median of a small set of repeated measurements (no tail rule: used
/// for per-run aggregates such as boot times, not for latency tails).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(1000, 99.0), 990);
        assert_eq!(nearest_rank(1001, 99.0), 991);
        assert_eq!(nearest_rank(3, 50.0), 2);
        assert_eq!(nearest_rank(1, 1.0), 1);
        assert_eq!(nearest_rank(10, 100.0), 10);
    }

    #[test]
    fn percentile_picks_the_ranked_sample() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0).unwrap(), 500.0);
        assert_eq!(percentile(&samples, 99.0).unwrap(), 990.0);
        assert_eq!(percentile(&samples, 90.0).unwrap(), 900.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(beyond(999, 99.0), 9);
        assert!(percentile(&samples, 99.0).is_err());
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(percentile(&samples, 99.0).is_ok());
        // A median needs 20 samples.
        assert!(percentile(&samples[..19], 50.0).is_err());
        assert!(percentile(&samples[..20], 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn segmented_median_keeps_each_segments_tail() {
        // Four segments of 100 whose p90 is 89; one holds a stall.
        let mut samples: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
        for s in &mut samples[100..200] {
            *s += 1000.0;
        }
        assert_eq!(segmented_median(&samples, 90.0).unwrap(), 89.0);
        // A tail present in every segment stays in the result: 11 of
        // each segment's 100 samples are slow, so each p90 is slow.
        for (i, s) in samples.iter_mut().enumerate() {
            if i % 100 < 11 {
                *s = 5000.0;
            }
        }
        assert_eq!(segmented_median(&samples, 90.0).unwrap(), 5000.0);
        // Too few samples for even one segment is an error.
        assert!(segmented_median(&samples[..99], 90.0).is_err());
        assert!(segmented_median(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
