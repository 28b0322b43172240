//! Deterministic random number generation.
//!
//! Every stochastic model in the workspace draws from a [`SimRng`], a thin
//! wrapper over `ChaCha12Rng`. ChaCha is used (rather than `StdRng`)
//! because its output stream is documented to be stable across `rand`
//! releases and platforms, so a seed fully pins an experiment's results.
//!
//! Substreams: independent model components should not share one RNG
//! (inserting a draw in one component would perturb all others). Instead,
//! derive a named substream per component with [`SimRng::substream`]; the
//! derivation hashes the parent seed with the label, so streams are stable
//! under refactoring as long as labels are kept.

use crate::hash::fnv1a64 as fnv1a;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Seedable, portable random stream for simulations.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha12Rng,
    seed: u64,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha12Rng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent stream identified by `label`.
    ///
    /// The same `(seed, label)` pair always yields the same stream, and
    /// distinct labels yield streams that do not overlap in practice.
    pub fn substream(&self, label: &str) -> SimRng {
        let derived = self.seed ^ fnv1a(label.as_bytes());
        SimRng::new(derived.rotate_left(17).wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    /// Derives an independent stream identified by a numeric index, for
    /// per-entity streams (e.g. one per flow or per cell).
    pub fn substream_idx(&self, label: &str, idx: u64) -> SimRng {
        let derived = self
            .seed
            .wrapping_add(idx.wrapping_mul(0xd134_2543_de82_ef95))
            ^ fnv1a(label.as_bytes());
        SimRng::new(derived.rotate_left(29).wrapping_add(0x2545_f491_4f6c_dd1d))
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer draw in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform index draw in `[0, n)`. Panics if `n == 0`. The same
    /// draw as `gen_range(0..n)`: the sampler is one rejection loop for
    /// every integer width.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Fisher–Yates shuffle.
    #[cfg(test)]
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_stable_and_distinct() {
        let root = SimRng::new(7);
        let mut s1 = root.substream("phy");
        let mut s1b = root.substream("phy");
        let mut s2 = root.substream("net");
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn indexed_substreams_distinct() {
        let root = SimRng::new(9);
        let mut a = root.substream_idx("flow", 0);
        let mut b = root.substream_idx("flow", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn range_f64_bounds() {
        let mut r = SimRng::new(11);
        for _ in 0..1_000 {
            let x = r.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
        assert_eq!(r.range_f64(5.0, 5.0), 5.0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(13);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..50).collect();
        assert_eq!(sorted, expect);
        assert_ne!(
            v, expect,
            "shuffle left the slice in order (astronomically unlikely)"
        );
    }
}
