//! Deterministic random-number generation for simulations.
//!
//! Every stochastic component of the simulator draws from a [`SimRng`]
//! forked from a single experiment seed. Forking derives statistically
//! independent streams from `(parent seed, label)` so adding a new
//! consumer never perturbs the draws seen by existing ones — a property
//! the reproducibility of the experiment harness relies on.
//!
//! The generator is a self-contained xoshiro256++ implementation (the
//! same algorithm `rand`'s `SmallRng` uses on 64-bit targets), seeded
//! through SplitMix64. Keeping it in-tree means the workspace builds
//! with no external dependencies — and the stream for a given seed can
//! never change under us via a dependency upgrade.

/// A seedable, forkable random-number generator (xoshiro256++).
///
/// # Examples
///
/// ```
/// use simcore::SimRng;
///
/// let mut root = SimRng::seed(42);
/// let mut a = root.fork("arrivals");
/// let mut b = root.fork("latency-noise");
/// // Streams are deterministic and independent.
/// assert_eq!(SimRng::seed(42).fork("arrivals").u64(), a.u64());
/// assert_ne!(a.u64(), b.u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from an experiment seed.
    pub fn seed(seed: u64) -> Self {
        // Chained SplitMix64 expansion of the 64-bit seed into the
        // 256-bit state, as recommended by the xoshiro authors. The
        // chain cannot produce the forbidden all-zero state.
        let s0 = splitmix(seed);
        let s1 = splitmix(s0);
        let s2 = splitmix(s1);
        let s3 = splitmix(s2);
        SimRng {
            state: [s0, s1, s2, s3],
            seed,
        }
    }

    /// Derives an independent child generator identified by `label`.
    ///
    /// The child's stream depends only on this generator's seed and the
    /// label, not on how many values have been drawn so far.
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::seed(splitmix(self.seed ^ fnv1a(label.as_bytes())))
    }

    /// Derives an independent child generator identified by an index,
    /// e.g. one stream per GPU device or per service replica.
    ///
    /// This is the parallel engine's RNG primitive: every
    /// concurrently-executing actor (a device, a shard lane) draws from
    /// its own named substream, derived purely from `(seed, label,
    /// index)`. Because derivation never observes how many values any
    /// other stream has drawn, the draws an actor sees are independent
    /// of the interleaving — and therefore of the shard and worker
    /// counts.
    pub fn fork_indexed(&self, label: &str, index: usize) -> SimRng {
        SimRng::seed(splitmix(
            self.seed ^ fnv1a(label.as_bytes()) ^ splitmix(index as u64 + 1),
        ))
    }

    /// Draws a uniform `u64` (the raw xoshiro256++ output).
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draws a uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        let x = lo + self.f64() * (hi - lo);
        // Guard the half-open contract against floating-point rounding.
        if x >= hi {
            lo.max(hi - (hi - lo) * f64::EPSILON)
        } else {
            x
        }
    }

    /// Draws a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        let span = (hi - lo) as u64;
        // Widening-multiply range reduction (Lemire); the bias is
        // span/2^64, far below anything a simulation could observe.
        let x = ((self.u64() as u128 * span as u128) >> 64) as u64;
        lo + x as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.uniform_usize(0, items.len())]
    }

    /// Picks an index according to unnormalized non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be non-empty with positive sum"
        );
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Shuffles `items` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

/// The cross-actor merge key of the parallel-commit discipline.
///
/// Effects produced concurrently by per-actor substreams are committed
/// serially in the total order `(time, actor, seq)`: event time first,
/// then the *logical* actor that produced the effect, then that actor's
/// own emission counter. The actor id must be partition-invariant — the
/// engine keys by **device**, the finest-grained logical shard, never
/// by the (configuration-dependent) shard index — so the commit order,
/// and hence every downstream draw and float accumulation, is identical
/// at every (shards, workers) point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MergeKey {
    /// Emission time of the effect (nanosecond tick of
    /// [`SimTime`](crate::time::SimTime)).
    pub time: crate::time::SimTime,
    /// The partition-invariant logical actor (device index).
    pub actor: u64,
    /// The actor's own monotonically increasing emission counter.
    pub seq: u64,
}

impl MergeKey {
    /// Builds a key; field order gives the lexicographic commit order.
    pub fn new(time: crate::time::SimTime, actor: u64, seq: u64) -> Self {
        MergeKey { time, actor, seq }
    }
}

/// FNV-1a hash, used to derive fork seeds from labels.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer, used to decorrelate derived seeds and expand
/// seeds into generator state.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forks_are_deterministic() {
        let a: Vec<u64> = {
            let mut r = SimRng::seed(7).fork("x");
            (0..8).map(|_| r.u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::seed(7).fork("x");
            (0..8).map(|_| r.u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn forks_are_independent_of_draw_order() {
        let root = SimRng::seed(9);
        let mut pre = root.clone();
        let _ = pre.f64(); // Drawing from the parent must not shift children.
        assert_eq!(root.fork("c").u64(), pre.fork("c").u64());
    }

    #[test]
    fn different_labels_differ() {
        let root = SimRng::seed(1);
        assert_ne!(root.fork("a").u64(), root.fork("b").u64());
        assert_ne!(
            root.fork_indexed("gpu", 0).u64(),
            root.fork_indexed("gpu", 1).u64()
        );
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = SimRng::seed(17);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SimRng::seed(23);
        let n = 50_000;
        let mean = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = SimRng::seed(3);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
            let n = r.uniform_usize(1, 4);
            assert!((1..4).contains(&n));
        }
    }

    #[test]
    fn uniform_usize_covers_the_range() {
        let mut r = SimRng::seed(29);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.uniform_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets reachable");
    }

    #[test]
    fn weighted_pick_matches_weights() {
        let mut r = SimRng::seed(11);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[r.pick_weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        let f2 = counts[2] as f64 / 30_000.0;
        assert!((f2 - 0.7).abs() < 0.02, "got {f2}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(2);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn fork_indexed_is_interleaving_independent() {
        let root = SimRng::seed(77);
        // Draining one substream must not shift a sibling.
        let mut a = root.fork_indexed("retune", 0);
        for _ in 0..100 {
            let _ = a.u64();
        }
        assert_eq!(
            root.fork_indexed("retune", 1).u64(),
            SimRng::seed(77).fork_indexed("retune", 1).u64()
        );
    }

    #[test]
    fn merge_keys_order_by_time_then_actor_then_seq() {
        use crate::time::SimTime;
        let k = |t: f64, a: u64, s: u64| MergeKey::new(SimTime::from_secs(t), a, s);
        let mut keys = vec![k(2.0, 0, 0), k(1.0, 9, 9), k(1.0, 2, 0), k(1.0, 2, 1)];
        keys.sort();
        assert_eq!(
            keys,
            vec![k(1.0, 2, 0), k(1.0, 2, 1), k(1.0, 9, 9), k(2.0, 0, 0)]
        );
    }
}
