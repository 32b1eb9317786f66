//! SplitMix64, the one seeded generator of the reproduction. The paper's VM
//! images are proprietary, so the corpus, boot traces, CDC gear tables and
//! demand draws are all synthesised from seeds through this module. It is
//! statistically plenty for content texture at a handful of ALU ops a word.

/// The 64-bit golden-ratio constant: SplitMix64's state increment.
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The bare SplitMix64 finalizer: a strong, cheap 64-bit bijective mixer.
#[inline]
pub fn fmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One SplitMix64 step from state `x`: [`fmix64`] of `x + GOLDEN`.
#[inline]
pub fn mix64(x: u64) -> u64 {
    fmix64(x.wrapping_add(GOLDEN))
}

/// SplitMix64: fast, seedable, full-period 64-bit generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive a generator from several seed words (order matters).
    pub fn from_parts(parts: &[u64]) -> Self {
        let mut s = GOLDEN;
        for &p in parts {
            s = s.rotate_left(23) ^ p.wrapping_mul(0xff51_afd7_ed55_8ccd);
            s = s.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        }
        SplitMix64 { state: s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        fmix64(self.state)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // 128-bit multiply trick: unbiased enough for content synthesis.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_pinned() {
        // Every corpus byte, boot trace and gear table follows these words.
        let first4 = |mut rng: SplitMix64| -> [u64; 4] { std::array::from_fn(|_| rng.next_u64()) };
        assert_eq!(
            first4(SplitMix64::new(0)),
            [
                0xe220a8397b1dcdaf,
                0x6e789e6aa1b965f4,
                0x06c45d188009454f,
                0xf88bb8a8724c81ec
            ]
        );
        assert_eq!(
            first4(SplitMix64::from_parts(&[1, 2])),
            [
                0xc27fadf4bf92d7ee,
                0x0e763aa6afdcdc79,
                0x328f95e27d5a75a7,
                0xb3fb7abd72dd930e
            ]
        );
        assert_eq!(
            crate::cdc::gear_table(1)[..4],
            [
                0x0efcedce449630da,
                0x75b1fb650984b44d,
                0x653dff3ad431b53d,
                0xe6114bf5300a8c02
            ]
        );
        assert_eq!(
            crate::cdc::gear_table(7)[..4],
            [
                0x6a8eaa9f22bd050c,
                0xa643e317c42646ed,
                0xccbbfd9ee5771341,
                0xe2b4a7790444a285
            ]
        );
    }

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mix64_is_one_step_from_its_argument() {
        for x in (0..=u64::MAX).step_by(0x0123_4567_89ab_cdef) {
            assert_eq!(mix64(x), fmix64(x.wrapping_add(GOLDEN)));
            assert_eq!(mix64(x), SplitMix64::new(x).next_u64());
        }
    }

    #[test]
    fn mix64_is_injective_on_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn mix64_changes_every_input_bit() {
        // Avalanche sanity: flipping one input bit flips ~half the output.
        for bit in 0..64 {
            let a = mix64(0x1234_5678_9abc_def0);
            let b = mix64(0x1234_5678_9abc_def0 ^ (1 << bit));
            let flipped = (a ^ b).count_ones();
            assert!((12..=52).contains(&flipped), "bit {bit}: {flipped} flips");
        }
    }

    #[test]
    fn from_parts_order_sensitive() {
        let a = SplitMix64::from_parts(&[1, 2]).next_u64();
        let b = SplitMix64::from_parts(&[2, 1]).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn below_stays_in_bounds_and_covers() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit");
    }

    #[test]
    fn unit_f64_in_range_and_uniform_ish() {
        let mut rng = SplitMix64::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.48..0.52).contains(&mean), "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
