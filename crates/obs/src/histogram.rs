//! Fixed log2-bucket histograms over `u64` samples.
//!
//! Bucket `i >= 1` spans `2^(i-1) ..= 2^i - 1` (values of bit length `i`);
//! bucket 0 holds zeros. The bucket layout is fixed at compile time so two
//! histograms fed the same samples in any order produce identical
//! snapshots — the property the registry's determinism contract needs.

use std::sync::atomic::{AtomicU64, Ordering};

/// 65 buckets: one per bit length 0..=64.
pub(crate) const BUCKETS: usize = 65;

/// Bucket index of a sample: its bit length (0 for the value 0).
pub(crate) fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lock-free histogram cell shared between handles.
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHistogram {
    pub(crate) fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    pub(crate) fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time histogram contents: total count/sum plus the non-empty
/// buckets as `(bucket index, count)` pairs in ascending index order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn observe_fills_expected_buckets() {
        let h = AtomicHistogram::new();
        for v in [0, 1, 2, 3, 1023, 1024] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 2053);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1), (11, 1)]);
        assert!((s.mean() - 2053.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_order_independent() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        let samples = [5u64, 900, 0, 77, 5, 1 << 40];
        for v in samples {
            a.observe(v);
        }
        for v in samples.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }
}
