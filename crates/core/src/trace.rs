//! Paper-scale boot-trace synthesis.
//!
//! The synthetic corpus runs at a byte-volume divisor (`scale`) to stay
//! laptop-sized, but boot *times* only make sense at paper volume (~132 MiB
//! working sets). This helper expands a scaled image's working-set size back
//! to paper volume and emits a trace with the same statistical shape as
//! `squirrel_dataset`'s: 128 KiB extents visited in shuffled order.
//!
//! Each extent is one read. The boot replay prices QCOW2 clusters, not reads:
//! a cluster costs its first touch and nothing after. Extents are 128 KiB
//! aligned, so each covers exactly two 64 KiB clusters, and a boot reading an
//! extent sequentially in 4–64 KiB pieces first-touches the same two clusters
//! in the same order as one whole-extent read. The sequence of first-touched
//! clusters is the only input any `BootReport` field depends on, so the
//! coarse trace replays bit-equal to the fine-grained one with 7.5× fewer
//! reads (`extent_reads_replay_like_the_read_sequence` checks it).

use squirrel_dataset::{BootTrace, ReadOp};
use squirrel_hash::rng::{fmix64, GOLDEN};

/// The unit a boot visits in shuffled order: one file-system extent.
const EXTENT: u64 = 128 * 1024;

/// Deterministic salted mixer over the SplitMix64 finalizer.
#[inline]
fn mix(x: u64, salt: u64) -> u64 {
    fmix64(x.wrapping_mul(GOLDEN) ^ salt.rotate_left(29))
}

/// Synthesize a boot trace over a working set of `ws_bytes`, seeded by
/// `image_seed` so distinct images get distinct (but reproducible) traces:
/// one 128 KiB read per extent, extents in shuffled order. The trace covers
/// ⌊`ws_bytes` / 128 KiB⌋ whole extents, at least one; a tail shorter than an
/// extent is dropped, not read in part.
pub fn paper_scale_trace(ws_bytes: u64, image_seed: u64) -> BootTrace {
    let mut order: Vec<u64> = (0..ws_bytes.max(EXTENT) / EXTENT).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(i as u64 ^ image_seed, 0x7ace) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let ops = order.iter().map(|&e| ReadOp { offset: e * EXTENT, len: EXTENT as u32 });
    BootTrace { ops: ops.collect() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squirrel_bootsim::{Backend, BootReport, BootSim, DedupVolumeParams};
    use std::collections::HashSet;

    /// The fine-grained read sequence the extent reads stand for: each
    /// extent read sequentially in 4–64 KiB pieces, the piece lengths drawn
    /// per extent.
    fn read_sequence_trace(ws_bytes: u64, image_seed: u64) -> BootTrace {
        let ws = ws_bytes.max(EXTENT);
        let n_extents = ws / EXTENT;
        let mut order: Vec<u64> = (0..n_extents).collect();
        for i in (1..order.len()).rev() {
            let j = (mix(i as u64 ^ image_seed, 0x7ace) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut ops = Vec::new();
        for &e in &order {
            let mut off = e * EXTENT;
            let end = ((e + 1) * EXTENT).min(ws);
            let mut k = 0u64;
            while off < end {
                let len = match mix(e * 131 + k, image_seed) % 10 {
                    0..=3 => 4 * 1024u64,
                    4..=6 => 16 * 1024,
                    7..=8 => 32 * 1024,
                    _ => 64 * 1024,
                };
                let len = len.min(end - off) as u32;
                ops.push(ReadOp { offset: off, len });
                off += len as u64;
                k += 1;
            }
        }
        BootTrace { ops }
    }

    /// The 64 KiB QCOW2 clusters `t` touches, in first-touch order.
    fn first_touched_clusters(t: &BootTrace) -> Vec<u64> {
        const CLUSTER: u64 = 64 * 1024;
        let mut seen = HashSet::new();
        let mut order = Vec::new();
        for op in &t.ops {
            let last = (op.offset + op.len.max(1) as u64 - 1) / CLUSTER;
            for c in op.offset / CLUSTER..=last {
                if seen.insert(c) {
                    order.push(c);
                }
            }
        }
        order
    }

    fn bits(r: &BootReport) -> [u64; 7] {
        [
            r.total_seconds.to_bits(),
            r.io_seconds.to_bits(),
            r.disk_reads,
            r.disk_bytes,
            r.net_bytes,
            r.ddt_lookups,
            r.decompressed_bytes,
        ]
    }

    #[test]
    fn extent_reads_replay_like_the_read_sequence() {
        let mut backends = vec![
            Backend::WarmCacheXfs,
            Backend::BaseImageXfs { image_bytes: 27 << 30 },
            Backend::ColdCache { net_mbps: 125.0, image_bytes: 27 << 30 },
        ];
        for kib in [4u64, 16, 24, 64, 128] {
            for cap in [1usize, 64, 2048] {
                for (shared_fraction, hot_fraction) in [(0.0, 0.0), (0.65, 0.93), (1.0, 1.0)] {
                    backends.push(Backend::DedupVolume(DedupVolumeParams {
                        shared_fraction,
                        hot_fraction,
                        decompressed_cache_records: cap,
                        ..DedupVolumeParams::new(kib * 1024)
                    }));
                }
            }
        }
        let sim = BootSim::new();
        let sizes = [1000u64, 4 << 20, 40 << 20, 132 << 20, 300 << 20, (10 << 20) + (100 << 10)];
        for ws in sizes {
            for seed in [0u64, 1, 7, 2014] {
                let coarse = paper_scale_trace(ws, seed);
                let fine = read_sequence_trace(ws, seed);
                assert_eq!(coarse.total_bytes(), fine.total_bytes(), "{ws} B, seed {seed}");
                assert_eq!(
                    first_touched_clusters(&coarse),
                    first_touched_clusters(&fine),
                    "{ws} B, seed {seed}"
                );
                for b in &backends {
                    assert_eq!(
                        bits(&sim.boot(&coarse, b)),
                        bits(&sim.boot(&fine, b)),
                        "{b:?} over {ws} B, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_covers_working_set_exactly() {
        let t = paper_scale_trace(10 << 20, 7);
        assert_eq!(t.total_bytes(), 10 << 20);
        // A tail shorter than an extent is dropped, not read in part.
        let t = paper_scale_trace((10 << 20) + (100 << 10), 7);
        assert_eq!(t.total_bytes(), 10 << 20);
    }

    #[test]
    fn traces_differ_across_images() {
        let a = paper_scale_trace(4 << 20, 1);
        let b = paper_scale_trace(4 << 20, 2);
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn trace_is_deterministic() {
        let a = paper_scale_trace(4 << 20, 5);
        let b = paper_scale_trace(4 << 20, 5);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn tiny_working_set_rounds_up_to_one_extent() {
        let t = paper_scale_trace(1000, 3);
        assert_eq!(t.total_bytes(), 128 * 1024);
    }
}
