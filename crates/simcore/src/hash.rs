//! A small multiplicative hasher for memo keys.
//!
//! The engine's memos are keyed on short runs of integers it generated
//! itself (ids, batch sizes, layer counts, `f64` bit patterns), and are
//! probed on every retune. std's default SipHash is built to resist
//! adversarial keys and costs several rounds per word; these keys need
//! only a fast, well-spread mix. [`MulHasher`] folds each 64-bit word in
//! as `h = (h.rotate_left(5) ^ w) · K`, the FxHash scheme. It is not
//! DoS-resistant, so it must never hash input from outside the process.
//!
//! A hash only picks a bucket: every memo compares full keys, so a
//! collision costs a probe, never a wrong answer.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (rustc-hash 2's constant; with
/// the final rotation it spreads consecutive integers evenly over the
/// low bits, which the older FxHash constant does not).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiplicative word-at-a-time hasher; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct MulHasher {
    hash: u64,
}

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state rotated so its best-mixed high bits land in the low
    /// bits, which hash tables use to pick a bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for `HashMap<K, V, MulBuildHasher>`.
pub type MulBuildHasher = BuildHasherDefault<MulHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        MulBuildHasher::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_order_matters() {
        assert_eq!(
            hash_of(&(3usize, [1u32, 2, 3], 64u32)),
            hash_of(&(3usize, [1u32, 2, 3], 64u32))
        );
        assert_ne!(hash_of(&[1u32, 2, 3]), hash_of(&[3u32, 2, 1]));
        assert_ne!(
            hash_of(&0.5f64.to_bits()),
            hash_of(&0.5000000000000001f64.to_bits())
        );
    }

    #[test]
    fn small_integer_keys_spread_over_low_bits() {
        // 4096 consecutive keys into 1024 buckets by the low bits: a
        // usable spread fills nearly all of them.
        let buckets: HashSet<u64> = (0..4096u64).map(|i| hash_of(&i) & 1023).collect();
        assert!(buckets.len() > 900, "{} buckets used", buckets.len());
    }

    #[test]
    fn works_as_a_hash_map_hasher() {
        let mut m: HashMap<(usize, [u32; 11], u32), usize, MulBuildHasher> = HashMap::default();
        for i in 0..500usize {
            let mut arch = [0u32; 11];
            arch[i % 11] = i as u32;
            m.insert((i % 7, arch, (i % 9) as u32), i);
        }
        for i in 0..500usize {
            let mut arch = [0u32; 11];
            arch[i % 11] = i as u32;
            assert_eq!(m[&(i % 7, arch, (i % 9) as u32)], i);
        }
    }
}
