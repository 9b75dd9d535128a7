//! Deterministic, seedable hashing used across the simulator.
//!
//! Every stochastic decision in the simulated internet (ECMP next-hop
//! choice, which addresses host a machine, churn, jitter) is a pure function
//! of a seed and the decision's inputs. That makes whole-scenario runs
//! reproducible bit-for-bit regardless of probing order, which the
//! experiment harness relies on.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A 64-bit mixing function (SplitMix64 finalizer). Good avalanche, cheap.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Combine two 64-bit values into one hash.
#[inline]
pub fn mix2(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b))
}

/// Combine three 64-bit values into one hash.
#[inline]
pub fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix64(a ^ mix64(b ^ mix64(c)))
}

/// A uniform f64 in [0, 1) derived from a hash value.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    // 53 mantissa bits of uniformity.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Pick an index in `0..n` from a hash value.
///
/// Uses the widening-multiply trick rather than `%` so that all of the hash's
/// entropy participates and there is no modulo bias.
#[inline]
pub fn pick(h: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    (((h as u128) * (n as u128)) >> 64) as usize
}

/// A fast deterministic [`Hasher`] for the simulator's per-probe maps:
/// each written word is folded in with one multiply, and [`mix64`]
/// finalizes. Keys are small fixed-width integers (addresses, router ids,
/// stream tuples), so SipHash's flooding resistance buys nothing here.
/// Nothing observable depends on these maps' iteration order.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// A `HashMap` keyed with [`MixHasher`].
pub(crate) type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// A `HashSet` keyed with [`MixHasher`].
pub(crate) type MixSet<K> = HashSet<K, BuildHasherDefault<MixHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(mix64(12345), mix64(12345));
        assert_ne!(mix64(12345), mix64(12346));
    }

    #[test]
    fn unit_f64_in_range() {
        for i in 0..1000u64 {
            let u = unit_f64(mix64(i));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn pick_in_range_and_roughly_uniform() {
        let n = 7;
        let mut counts = [0usize; 7];
        for i in 0..70_000u64 {
            counts[pick(mix64(i), n)] += 1;
        }
        for &c in &counts {
            // Each bucket should get about 10k draws.
            assert!((8_500..11_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn mix_hasher_is_deterministic_and_spreads_small_keys() {
        use std::hash::BuildHasher;
        let hash = |k: (u32, u16, u32)| BuildHasherDefault::<MixHasher>::default().hash_one(k);
        assert_eq!(hash((1, 2, 3)), hash((1, 2, 3)));
        assert_ne!(hash((1, 2, 3)), hash((3, 2, 1)));
        // Consecutive keys land in distinct low-bit buckets.
        let buckets: HashSet<u64> = (0..256u32).map(|i| hash((i, 7, 0)) & 1023).collect();
        assert!(buckets.len() > 200, "{} buckets", buckets.len());
    }

    #[test]
    fn pick_single_bucket() {
        assert_eq!(pick(u64::MAX, 1), 0);
        assert_eq!(pick(0, 1), 0);
    }
}
