//! Order statistics over per-repetition samples, and the process's peak
//! resident set.

/// Summary of one host-clock metric over the timed repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The samples in the order they were taken.
    pub samples: Vec<f64>,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Distance between the first and third quartile.
    pub iqr: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&s);
        Summary {
            samples: samples.to_vec(),
            median: median_sorted(&s),
            min: s[0],
            max: s[s.len() - 1],
            iqr: q3 - q1,
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    median_sorted(&s)
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), so `compare` and the driver
/// agree on what a spread is. Fewer than two samples have no spread.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Nearest-rank percentile of unsorted samples (`p` in 0..=100).
pub fn percentile(samples: &[f64], p: u32) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n => s[(n - 1) * p as usize / 100],
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` is
/// absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.median, 5.5);
        assert!((s.iqr - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.iqr, s.min, s.max), (2.0, 2.0, 1.0, 3.0));
        assert_eq!(Summary::of(&[4.0]).iqr, 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
    }
}
