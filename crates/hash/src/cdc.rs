//! Content-defined chunking (CDC): the shared chunker under both the
//! dataset-level dedup accounting (`squirrel_dataset::cdc`) and the pool's
//! CDC ingest strategy (`squirrel_zfs`).
//!
//! A Gear-style rolling hash cuts chunk boundaries where the content
//! dictates, so insertions shift boundaries instead of ruining every
//! following block — the classic CDC advantage over fixed-size records.
//! This module owns the single implementation: boundary scan, parameters,
//! the [`ChunkStrategy`] knob that pools and accounting sweeps share, and
//! the dedup ledger both accounting paths run on, so the two cannot drift.
//!
//! The 256-entry gear table is drawn from a seed with the crate's
//! [`SplitMix64`], and is memoized per seed: the ingest hot path looks
//! the table up once per batch instead of rebuilding it per call.

use crate::rng::SplitMix64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Default gear seed when callers don't need corpus-coupled tables.
pub const DEFAULT_GEAR_SEED: u64 = 1;

/// Gear table for `seed`, computed once per seed and cached for the life of
/// the process (the ingest hot path chunks with the same table on every
/// call; rebuilding 256 random words per invocation was measurable).
pub fn gear_table(seed: u64) -> Arc<[u64; 256]> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Arc<[u64; 256]>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("gear table cache poisoned");
    Arc::clone(map.entry(seed).or_insert_with(|| {
        let mut rng = SplitMix64::from_parts(&[seed, 0x6ea4]);
        Arc::new(std::array::from_fn(|_| rng.next_u64()))
    }))
}

/// Chunking parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CdcParams {
    pub min_size: usize,
    /// The boundary mask targets an average of `avg_size` (a power of two).
    pub avg_size: usize,
    pub max_size: usize,
    /// Seed of the gear table (chunk boundaries are a pure function of
    /// content and this seed).
    pub gear_seed: u64,
}

impl CdcParams {
    /// Parameters targeting an average chunk of `avg` bytes.
    pub fn with_average(avg: usize) -> Self {
        assert!(avg.is_power_of_two() && avg >= 1024);
        CdcParams {
            min_size: avg / 4,
            avg_size: avg,
            max_size: avg * 4,
            gear_seed: DEFAULT_GEAR_SEED,
        }
    }

    /// Same boundaries under a different gear table.
    pub fn with_gear_seed(mut self, seed: u64) -> Self {
        self.gear_seed = seed;
        self
    }

    fn mask(&self) -> u64 {
        (self.avg_size as u64 - 1) << 16
    }
}

/// Split `data` into content-defined chunks; returns chunk byte ranges
/// covering the input exactly. The gear table comes from the memoized
/// per-seed cache.
pub fn chunk_boundaries(data: &[u8], params: &CdcParams) -> Vec<(usize, usize)> {
    chunk_boundaries_with(data, params, &gear_table(params.gear_seed))
}

/// [`chunk_boundaries`] against an explicit gear table (the parallel ingest
/// stage resolves the table once per batch and hands it to every worker).
pub fn chunk_boundaries_with(
    data: &[u8],
    params: &CdcParams,
    gear: &[u64; 256],
) -> Vec<(usize, usize)> {
    let mask = params.mask();
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        let mut hash = 0u64;
        let mut i = start;
        let hard_end = (start + params.max_size).min(data.len());
        let soft_start = (start + params.min_size).min(data.len());
        let mut cut = hard_end;
        while i < hard_end {
            hash = (hash << 1).wrapping_add(gear[data[i] as usize]);
            if i >= soft_start && hash & mask == 0 {
                cut = i + 1;
                break;
            }
            i += 1;
        }
        out.push((start, cut));
        start = cut;
    }
    out
}

/// How a pool (or an accounting sweep) cuts content into dedup units.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkStrategy {
    /// Fixed records of the given size (ZFS `recordsize` semantics).
    Fixed(usize),
    /// Content-defined chunks via the Gear rolling hash.
    Cdc(CdcParams),
}

impl ChunkStrategy {
    pub fn is_cdc(&self) -> bool {
        matches!(self, ChunkStrategy::Cdc(_))
    }

    /// Cut `data` into chunk byte ranges covering it exactly (fixed mode
    /// allows a short tail chunk).
    pub fn chunks(&self, data: &[u8]) -> Vec<(usize, usize)> {
        match self {
            ChunkStrategy::Fixed(bs) => {
                assert!(*bs > 0, "fixed chunk size must be nonzero");
                (0..data.len())
                    .step_by(*bs)
                    .map(|s| (s, (s + bs).min(data.len())))
                    .collect()
            }
            ChunkStrategy::Cdc(p) => chunk_boundaries(data, p),
        }
    }
}

/// Dedup statistics of one chunking strategy over a content set.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChunkingStats {
    pub total_chunks: u64,
    pub unique_chunks: u64,
    pub total_bytes: u64,
    pub unique_bytes: u64,
    pub mean_chunk_bytes: f64,
}

impl ChunkingStats {
    pub fn dedup_ratio(&self) -> f64 {
        self.total_bytes as f64 / self.unique_bytes.max(1) as f64
    }
}

/// Shared dedup-accounting ledger: feed it every chunk of every item, read
/// the [`ChunkingStats`] at the end. Both `squirrel_dataset`'s CDC and
/// fixed accounting sweeps run on this one implementation.
#[derive(Default)]
pub struct ChunkLedger {
    seen: crate::FnvHashSet<u128>,
    stats: ChunkingStats,
}

impl ChunkLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Account one chunk (hashed with the pool's content hash).
    pub fn add_chunk(&mut self, chunk: &[u8]) {
        self.stats.total_chunks += 1;
        self.stats.total_bytes += chunk.len() as u64;
        if self.seen.insert(crate::ContentHash::of(chunk).short()) {
            self.stats.unique_chunks += 1;
            self.stats.unique_bytes += chunk.len() as u64;
        }
    }

    /// Finalize: fills the derived mean and returns the stats.
    pub fn finish(mut self) -> ChunkingStats {
        self.stats.mean_chunk_bytes =
            self.stats.total_bytes as f64 / self.stats.total_chunks.max(1) as f64;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gear_table_is_memoized_per_seed() {
        let a = gear_table(7);
        let b = gear_table(7);
        assert!(Arc::ptr_eq(&a, &b), "same seed shares one table");
        let c = gear_table(8);
        assert_ne!(a[..8], c[..8], "different seeds differ");
    }

    #[test]
    fn boundaries_cover_input_exactly() {
        let data: Vec<u8> = (0..40_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let params = CdcParams::with_average(1024);
        let cuts = chunk_boundaries(&data, &params);
        assert_eq!(cuts.first().expect("nonempty").0, 0);
        assert_eq!(cuts.last().expect("nonempty").1, data.len());
        for w in cuts.windows(2) {
            assert_eq!(w[0].1, w[1].0, "contiguous");
        }
        for &(s, e) in &cuts[..cuts.len() - 1] {
            assert!(e - s >= params.min_size && e - s <= params.max_size);
        }
    }

    #[test]
    fn fixed_strategy_steps_by_block_with_short_tail() {
        let data = vec![7u8; 2500];
        let cuts = ChunkStrategy::Fixed(1024).chunks(&data);
        assert_eq!(cuts, vec![(0, 1024), (1024, 2048), (2048, 2500)]);
        assert!(ChunkStrategy::Fixed(1024).chunks(&[]).is_empty());
    }

    #[test]
    fn cdc_strategy_matches_direct_boundaries() {
        let data: Vec<u8> = (0..20_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let p = CdcParams::with_average(1024).with_gear_seed(3);
        assert_eq!(
            ChunkStrategy::Cdc(p).chunks(&data),
            chunk_boundaries(&data, &p)
        );
    }

    #[test]
    fn ledger_counts_duplicates_once() {
        let mut l = ChunkLedger::new();
        l.add_chunk(b"aaaa");
        l.add_chunk(b"bbbb");
        l.add_chunk(b"aaaa");
        let s = l.finish();
        assert_eq!(s.total_chunks, 3);
        assert_eq!(s.unique_chunks, 2);
        assert_eq!(s.total_bytes, 12);
        assert_eq!(s.unique_bytes, 8);
        assert!((s.dedup_ratio() - 1.5).abs() < 1e-12);
        assert!((s.mean_chunk_bytes - 4.0).abs() < 1e-12);
    }

    #[test]
    fn boundaries_survive_prefix_insertion() {
        // The CDC selling point: shifting content re-synchronizes.
        let data: Vec<u8> = (0..60_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        let params = CdcParams::with_average(2048).with_gear_seed(9);
        let mut shifted = vec![0xEEu8; 37];
        shifted.extend_from_slice(&data);
        let key = |d: &[u8], (s, e): (usize, usize)| crate::ContentHash::of(&d[s..e]).short();
        let a: std::collections::HashSet<u128> = chunk_boundaries(&data, &params)
            .into_iter()
            .map(|c| key(&data, c))
            .collect();
        let b: std::collections::HashSet<u128> = chunk_boundaries(&shifted, &params)
            .into_iter()
            .map(|c| key(&shifted, c))
            .collect();
        let common = a.intersection(&b).count();
        assert!(
            common * 2 > a.len(),
            "most chunks must survive a 37-byte prefix shift: {common}/{}",
            a.len()
        );
    }
}
