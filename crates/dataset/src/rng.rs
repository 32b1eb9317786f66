//! Tiny deterministic generators for content synthesis.
//!
//! Atom generation is the hot inner loop of every corpus sweep; seeding a
//! ChaCha-based `StdRng` per 512-byte atom would dominate runtime. SplitMix64
//! is statistically plenty for content texture and costs a handful of ALU
//! ops. `rand` is still used at corpus level where speed does not matter.

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
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for &p in parts {
            s = s.rotate_left(23) ^ p.wrapping_mul(0xff51_afd7_ed55_8ccd);
            s = s.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        }
        SplitMix64 { state: s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
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

/// Approximate Zipf sampler over `[0, n)` with exponent `s` (~1.0), using
/// inverse-CDF on the continuous Zipf approximation. Heavy head, long tail —
/// the classic shape of software-package popularity.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// Normalizing constant of the continuous approximation.
    h_n: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0 && s > 0.0 && (s - 1.0).abs() > 1e-9, "n>0, s!=1");
        let h = |x: f64| (x.powf(1.0 - s) - 1.0) / (1.0 - s);
        Zipf { n, s, h_n: h(n as f64 + 0.5) }
    }

    /// The support size `n` (ranks are `[0, n)`).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Sample a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit_f64() * self.h_n;
        // Invert H(x) = (x^(1-s) - 1)/(1-s).
        let x = (u * (1.0 - self.s) + 1.0).powf(1.0 / (1.0 - self.s));
        (x as u64).min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
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
    fn zipf_is_head_heavy() {
        let z = Zipf::new(10_000, 1.1);
        let mut rng = SplitMix64::new(11);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..20_000 {
            let r = z.sample(&mut rng);
            assert!(r < 10_000);
            if r < 100 {
                head += 1;
            }
            total += 1;
        }
        let frac = head as f64 / total as f64;
        assert!(frac > 0.3, "head fraction {frac}");
    }

    #[test]
    fn zipf_reaches_tail() {
        let z = Zipf::new(1000, 1.05);
        let mut rng = SplitMix64::new(5);
        let max = (0..50_000).map(|_| z.sample(&mut rng)).max().unwrap_or(0);
        assert!(max > 500, "max rank {max}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
