//! Seeded draws for content synthesis: [`SplitMix64`], re-exported from
//! `squirrel_hash::rng` where it is defined once, and a [`Zipf`] rank
//! sampler over it.

pub use squirrel_hash::rng::SplitMix64;

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
        Zipf {
            n,
            s,
            h_n: h(n as f64 + 0.5),
        }
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
}
