//! Streaming metric sinks used throughout the experiments.
//!
//! * [`StreamingStats`] — count/mean/variance/min/max via Welford's
//!   algorithm, O(1) memory.
//! * [`UtilizationIntegrator`] — time-weighted average of a piecewise-
//!   constant signal such as SM or memory utilization.
//! * [`Cdf`] — empirical CDF for the trace-analysis figures.
//! * [`tree_fold`], [`TreeFolder`] and [`fold_ordered`] — fixed-shape
//!   reductions, so merged statistics are bit-identical whichever
//!   threads or shards produced the parts.

use crate::time::SimTime;

/// Streaming count / mean / variance / extrema (Welford).
///
/// # Examples
///
/// ```
/// use simcore::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

/// Time-weighted integrator for piecewise-constant signals.
///
/// Feed it `(time, new_value)` transitions; it reports the time-averaged
/// value over the observed window, e.g. mean SM utilization.
#[derive(Clone, Debug)]
pub struct UtilizationIntegrator {
    last_time: Option<SimTime>,
    current: f64,
    weighted_sum: f64,
    span: f64,
    peak: f64,
}

impl Default for UtilizationIntegrator {
    fn default() -> Self {
        Self::new()
    }
}

impl UtilizationIntegrator {
    /// Creates an integrator with no observations.
    pub fn new() -> Self {
        UtilizationIntegrator {
            last_time: None,
            current: 0.0,
            weighted_sum: 0.0,
            span: 0.0,
            peak: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `t`.
    ///
    /// The signal is assumed to have held its previous value since the
    /// previous transition.
    pub fn set(&mut self, t: SimTime, value: f64) {
        if let Some(last) = self.last_time {
            let dt = t.since(last).as_secs();
            self.weighted_sum += self.current * dt;
            self.span += dt;
        }
        self.last_time = Some(t);
        self.current = value;
        self.peak = self.peak.max(value);
    }

    /// Closes the window at `t` without changing the value.
    pub fn finish(&mut self, t: SimTime) {
        let current = self.current;
        self.set(t, current);
    }

    /// Current signal value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Time-weighted mean over the observed window (0 if empty).
    pub fn time_average(&self) -> f64 {
        if self.span == 0.0 {
            0.0
        } else {
            self.weighted_sum / self.span
        }
    }

    /// Peak value observed.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Total observed span in seconds.
    pub fn span_secs(&self) -> f64 {
        self.span
    }
}

/// An empirical CDF built from a finite sample.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample in CDF");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected above"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 <= q <= 1`); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * (self.sorted.len() - 1) as f64).round()) as usize;
        Some(self.sorted[idx])
    }

    /// Evaluates the CDF at evenly spaced probe points for plotting.
    pub fn curve(&self, probes: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || probes == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        (0..=probes)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / probes as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_stats_moments() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn streaming_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut whole = StreamingStats::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        xs[..37].iter().for_each(|&x| a.record(x));
        xs[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn utilization_time_average() {
        let mut u = UtilizationIntegrator::new();
        u.set(SimTime::from_secs(0.0), 0.2);
        u.set(SimTime::from_secs(10.0), 0.8);
        u.finish(SimTime::from_secs(20.0));
        // 10 s at 0.2, then 10 s at 0.8 => mean 0.5.
        assert!((u.time_average() - 0.5).abs() < 1e-12);
        assert_eq!(u.peak(), 0.8);
        assert_eq!(u.span_secs(), 20.0);
    }

    #[test]
    fn cdf_quantile_and_fraction() {
        let cdf = Cdf::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert!((cdf.fraction_at_or_below(50.0) - 0.5).abs() < 0.01);
        assert_eq!(cdf.fraction_at_or_below(0.0), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1000.0), 1.0);
    }

    #[test]
    fn cdf_curve_is_monotone() {
        let cdf = Cdf::from_samples(vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        let curve = cdf.curve(10);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }
}

/// Deterministic pairwise tree fold over an already-ordered list.
///
/// The reduction tree's shape depends only on the item count: level by
/// level, element `2i` merges with element `2i+1` (a trailing odd
/// element is carried up unmerged). Because the shape is fixed, a
/// non-associative combiner — IEEE-754 float addition, Welford
/// [`StreamingStats::merge`] — produces bit-identical results wherever
/// the same ordered inputs are presented, regardless of which threads
/// or shards computed them. Returns `None` for an empty input.
///
/// Streams through a [`TreeFolder`], which owns the tree shape.
pub fn tree_fold<T>(
    items: impl IntoIterator<Item = T>,
    mut merge: impl FnMut(T, T) -> T,
) -> Option<T> {
    let mut folder = TreeFolder::new();
    for item in items {
        folder.push(item, &mut merge);
    }
    folder.finish(merge)
}

/// The streaming form of [`tree_fold`]: items arrive one at a time and
/// are merged as soon as their subtree is complete, so a fold over `n`
/// items holds at most `log2(n) + 1` partials instead of the whole
/// list.
///
/// The stack is a binary counter: pushing an item adds a level-0
/// subtree, and any two neighbours of equal level merge (left into
/// right) into one of the next level — exactly the complete pairs the
/// level-by-level fold forms. [`TreeFolder::finish`] then collapses the
/// remaining subtrees right to left, which is where the level-by-level
/// fold's odd carries land. The result is the same tree, so every merge
/// is the same operation on the same operands.
#[derive(Clone, Debug)]
pub struct TreeFolder<T> {
    /// `(level, subtree)`, levels strictly decreasing bottom to top.
    stack: Vec<(u32, T)>,
}

impl<T> Default for TreeFolder<T> {
    fn default() -> Self {
        TreeFolder { stack: Vec::new() }
    }
}

impl<T> TreeFolder<T> {
    /// An empty folder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the next item in fold order.
    pub fn push(&mut self, mut item: T, mut merge: impl FnMut(T, T) -> T) {
        let mut level = 0;
        while self.stack.last().is_some_and(|(top, _)| *top == level) {
            let (_, left) = self.stack.pop().expect("checked non-empty");
            item = merge(left, item);
            level += 1;
        }
        self.stack.push((level, item));
    }

    /// The fold of every pushed item, `None` if there were none.
    pub fn finish(mut self, mut merge: impl FnMut(T, T) -> T) -> Option<T> {
        let (_, mut acc) = self.stack.pop()?;
        while let Some((_, left)) = self.stack.pop() {
            acc = merge(left, acc);
        }
        Some(acc)
    }
}

/// Order-insensitive deterministic reduction: sorts `items` by key,
/// then applies the fixed-shape [`tree_fold`].
///
/// This is the commit-barrier reducer of the parallel engine: per-actor
/// float accumulators arrive in whatever order the worker pool finished
/// them, are ranked by a partition-invariant key (service id, device
/// index), and fold in a tree whose shape depends only on the item
/// count — so the reduced value is bit-identical for every permutation
/// of the input. Keys must be distinct for the result to be fully
/// order-independent (equal keys fall back to the stable sort's
/// input order).
pub fn fold_ordered<K: Ord, T>(
    mut items: Vec<(K, T)>,
    mut merge: impl FnMut(T, T) -> T,
) -> Option<T> {
    items.sort_by(|a, b| a.0.cmp(&b.0));
    tree_fold(items.into_iter().map(|(_, t)| t), &mut merge)
}

#[cfg(test)]
mod fold_tests {
    use super::*;

    #[test]
    fn tree_fold_shape_is_fixed() {
        // A deliberately non-associative combiner exposes the shape:
        // 5 items fold as ((0·1)·(2·3))·4 under pairwise levels.
        let items: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let folded = tree_fold(items, |a, b| format!("({a}{b})")).unwrap();
        assert_eq!(folded, "(((01)(23))4)");
        assert_eq!(tree_fold(Vec::<u32>::new(), |a, b| a + b), None);
        assert_eq!(tree_fold(vec![7u32], |a, b| a + b), Some(7));
    }

    /// The level-by-level fold `tree_fold` used before it streamed
    /// through `TreeFolder`: the reference tree shape.
    fn level_fold<T>(items: Vec<T>, mut merge: impl FnMut(T, T) -> T) -> Option<T> {
        let mut level = items;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(merge(a, b)),
                    None => next.push(a),
                }
            }
            level = next;
        }
        level.pop()
    }

    #[test]
    fn tree_folder_matches_the_level_by_level_fold() {
        let paren = |a: String, b: String| format!("({a} {b})");
        for n in 0..=600usize {
            let items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            let mut folder = TreeFolder::new();
            for item in items.clone() {
                folder.push(item, paren);
            }
            assert_eq!(folder.finish(paren), level_fold(items, paren), "n = {n}");

            // Float sums whose value depends on association order.
            let xs: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37 + 0.1).powi(5) * 1e7 + 1e-9 / (i + 1) as f64)
                .collect();
            let got = tree_fold(xs.clone(), |a, b| a + b).map(f64::to_bits);
            assert_eq!(
                got,
                level_fold(xs, |a, b| a + b).map(f64::to_bits),
                "n = {n}"
            );
        }
    }

    #[test]
    fn fold_ordered_is_input_order_independent() {
        // Float sums whose value depends on association order: any
        // permutation of the same keyed items must land on the same
        // bits because the sort + fixed tree normalizes both the order
        // and the association.
        let base: Vec<(u32, f64)> = (0..13)
            .map(|i| (i, (i as f64 + 0.1).powi(3) * 1e10 + 1e-6 / (i + 1) as f64))
            .collect();
        let reference = fold_ordered(base.clone(), |a, b| a + b).unwrap();
        let mut shuffled = base;
        // Deterministic shuffle: rotate and interleave.
        shuffled.rotate_left(5);
        shuffled.swap(0, 9);
        shuffled.swap(3, 12);
        let got = fold_ordered(shuffled, |a, b| a + b).unwrap();
        assert_eq!(reference.to_bits(), got.to_bits());
    }

    #[test]
    fn fold_ordered_merges_streaming_stats_deterministically() {
        let mk = |seed: u64| {
            let mut s = StreamingStats::new();
            for i in 0..seed {
                s.record(i as f64 * 1.7 + seed as f64);
            }
            s
        };
        let items: Vec<(usize, StreamingStats)> = (1..8).map(|i| (i, mk(i as u64))).collect();
        let merge = |mut a: StreamingStats, b: StreamingStats| {
            a.merge(&b);
            a
        };
        let fwd = fold_ordered(items.clone(), merge).unwrap();
        let mut rev = items;
        rev.reverse();
        let bwd = fold_ordered(rev, merge).unwrap();
        assert_eq!(fwd.mean().to_bits(), bwd.mean().to_bits());
        assert_eq!(fwd.variance().to_bits(), bwd.variance().to_bits());
        assert_eq!(fwd.count(), bwd.count());
    }
}
