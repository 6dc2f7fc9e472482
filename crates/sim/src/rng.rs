//! Deterministic, splittable pseudo-random numbers for the simulation.
//!
//! Every stochastic model component (Ethernet backoff, workload generators,
//! jitter) draws from a [`SimRng`] derived from the experiment seed, so a
//! whole simulation replays bit-identically from its seed alone.

/// A small, fast, deterministic RNG (SplitMix64 core).
///
/// SplitMix64 passes BigCrush and is the standard seeder for the xoshiro
/// family; its statistical quality is far beyond what the network models
/// need, and it is trivially portable and allocation-free.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates an RNG from a seed. Two RNGs with the same seed produce the
    /// same sequence forever.
    pub fn new(seed: u64) -> SimRng {
        SimRng { state: seed }
    }

    /// Derives an independent child RNG labeled by `tag`. Deriving with the
    /// same tag twice yields the same child; distinct tags yield streams
    /// that do not overlap in practice.
    pub fn split(&self, tag: u64) -> SimRng {
        let mut child = SimRng {
            state: self.state ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        // Burn a few outputs so closely-related seeds decorrelate.
        child.next_u64();
        child.next_u64();
        child
    }

    /// Derives a child RNG from a string label (e.g. a node name).
    pub fn split_str(&self, tag: &str) -> SimRng {
        self.split(crate::analysis::fnv1a(tag.as_bytes()))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the distribution is
    /// exactly uniform.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` index in `[0, bound)`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn gen_f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.gen_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
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
    fn split_is_stable_and_independent() {
        let root = SimRng::new(7);
        let mut c1 = root.split(1);
        let mut c1_again = root.split(1);
        let mut c2 = root.split(2);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn split_str_stable() {
        let root = SimRng::new(7);
        assert_eq!(
            root.split_str("node0").next_u64(),
            root.split_str("node0").next_u64()
        );
        assert_ne!(
            root.split_str("node0").next_u64(),
            root.split_str("node1").next_u64()
        );
    }

    #[test]
    fn gen_range_within_bounds() {
        let mut rng = SimRng::new(3);
        for bound in [1u64, 2, 3, 10, 1_000_000] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_roughly_uniform() {
        let mut rng = SimRng::new(11);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[rng.gen_index(8)] += 1;
        }
        for &c in &counts {
            // expect 10_000 each; allow 5% slack
            assert!((9_500..=10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..1_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(9);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
