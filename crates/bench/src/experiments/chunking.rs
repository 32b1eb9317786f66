//! Chunking bench: {fixed, CDC} x {forward, reverse} on a shifted version
//! chain, with warm boots priced on the *measured* pool layout.
//!
//! The workload is a cache file evolving over several versions, each one
//! re-imported and snapshotted (the registration shape). Half of every
//! version is byte-shifted against its predecessor — fixed records lose all
//! cross-version dedup there, content-defined chunks re-synchronize. The
//! other half evolves block-aligned with a fresh-block fraction, so forward
//! dedup leaves the latest version's shared records scattered back among
//! old snapshots; reverse dedup relocates them into one sequential run.
//!
//! Each cell reports the pool's space stats, the latest file's scatter
//! ([`ZPool::file_scatter`]), and a warm-boot time from
//! [`BootSim::boot_measured`] over the file's actual extents. Three gates:
//!
//! * **`deterministic_across_threads`** — every cell's pool state, layout
//!   and full send-stream bytes are bit-identical at every thread count of
//!   the sweep.
//! * **`reverse_not_slower`** — per strategy, the reverse-mode warm boot
//!   spends no more I/O time than forward at equal physical bytes
//!   (relocation never changes what is stored, only where). It is read off
//!   `io_seconds`: the total adds the guest's constant 14 s
//!   (`CpuModel::os_boot_seconds`), behind which a 60 % saving is a 0.3 %
//!   one. It speaks about pools that outgrow the disk model's 512 KiB
//!   contiguity window; inside it scatter is free and only the head's one
//!   move to the relocated run shows.
//! * **`cdc_dedup_gte_fixed`** — CDC stores no more physical bytes than
//!   fixed records on the shifted chain.

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record, Sweep};
use squirrel_bootsim::{BootSim, MeasuredVolumeParams};
use squirrel_compress::Codec;
use squirrel_dataset::rng::SplitMix64;
use squirrel_dataset::{BootTrace, ReadOp};
use squirrel_hash::ContentHash;
use squirrel_zfs::{CdcParams, DedupMode, FileScatter, PoolConfig, SpaceStats, ZPool};

/// Default workload shape: 256 x 16 KiB blocks per version, 4 versions.
pub const CHUNKING_BLOCKS: usize = 256;
pub const CHUNKING_BLOCK_SIZE: usize = 16 * 1024;
pub const CHUNKING_VERSIONS: usize = 4;
/// Bytes inserted at the front of the shifted half per version.
pub const CHUNKING_SHIFT: usize = 512;

/// One (strategy, mode) cell of the sweep. Equality across thread counts is
/// the determinism witness.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkingCell {
    pub strategy: &'static str,
    pub mode: &'static str,
    pub stats: SpaceStats,
    pub scatter: FileScatter,
    pub warm_boot_seconds: f64,
    /// The part of `warm_boot_seconds` layout can move: the rest is the
    /// guest's constant think time (`CpuModel::os_boot_seconds`).
    pub warm_boot_io_seconds: f64,
    /// SHA-256 (folded) of the final snapshot's full send stream.
    pub fingerprint: u128,
}

/// All versions of the evolving cache, cut into records. Version `k`'s
/// first half is the base stream with `k * CHUNKING_SHIFT` fresh bytes
/// inserted at the front (byte-shifted against every other version); its
/// second half evolves block-aligned, keeping ~3/4 of the predecessor's
/// blocks.
pub fn version_chain(
    n_blocks: usize,
    bs: usize,
    versions: usize,
    shift: usize,
    seed: u64,
) -> Vec<Vec<Vec<u8>>> {
    let half_a = n_blocks / 2;
    let half_b = n_blocks - half_a;
    let a_len = half_a * bs;
    let mut rng = SplitMix64::new(seed | 1);
    let base: Vec<u8> = (0..a_len).map(|_| rng.next_u64() as u8).collect();

    let fresh_block = |v: usize, j: usize| -> Vec<u8> {
        let mut r =
            SplitMix64::new((seed ^ (v as u64).wrapping_mul(0x9e37_79b9) ^ ((j as u64) << 32)) | 1);
        (0..bs).map(|_| r.next_u64() as u8).collect()
    };

    let mut aligned: Vec<Vec<u8>> = (0..half_b).map(|j| fresh_block(0, j)).collect();
    let mut out = Vec::with_capacity(versions);
    for v in 0..versions {
        if v > 0 {
            // Churn a quarter of the aligned half.
            for (j, block) in aligned.iter_mut().enumerate() {
                if SplitMix64::new((seed ^ (v * 1000 + j) as u64) | 1)
                    .next_u64()
                    .is_multiple_of(4)
                {
                    *block = fresh_block(v, j);
                }
            }
        }
        // Shifted half: fresh prefix, then the base stream truncated to fit.
        let ins = (v * shift).min(a_len);
        let mut pr = SplitMix64::new((seed ^ 0xface ^ v as u64) | 1);
        let mut stream: Vec<u8> = (0..ins).map(|_| pr.next_u64() as u8).collect();
        stream.extend_from_slice(&base[..a_len - ins]);
        let mut blocks: Vec<Vec<u8>> = stream.chunks(bs).map(|c| c.to_vec()).collect();
        blocks.extend(aligned.iter().cloned());
        assert_eq!(blocks.len(), n_blocks);
        out.push(blocks);
    }
    out
}

/// Import the whole chain into one pool and measure the final state.
fn run_cell(
    strategy: (&'static str, Option<CdcParams>),
    mode: (&'static str, DedupMode),
    versions: &[Vec<Vec<u8>>],
    bs: usize,
    threads: usize,
) -> ChunkingCell {
    let mut config = PoolConfig::new(bs, Codec::Lzjb)
        .with_threads(threads)
        .with_dedup_mode(mode.1);
    config.cdc = strategy.1;
    let mut pool = ZPool::new(config);
    let logical = (versions[0].len() * bs) as u64;
    let mut last_tag = String::new();
    for (v, blocks) in versions.iter().enumerate() {
        pool.import_file("cache", blocks, logical);
        last_tag = format!("v{v}");
        pool.snapshot(&last_tag);
    }
    let stats = pool.stats();
    let scatter = pool.file_scatter("cache").expect("cache file");
    let wire = pool.send_between(None, &last_tag).expect("send").encode();
    let fingerprint = ContentHash::of(&wire).short();

    let params = MeasuredVolumeParams::from_pool(&pool, "cache").expect("cache file");
    let ops = (0..logical / (64 * 1024))
        .map(|c| ReadOp {
            offset: c * 64 * 1024,
            len: 64 * 1024,
        })
        .collect();
    let report = BootSim::new().boot_measured(&BootTrace { ops }, &params);

    ChunkingCell {
        strategy: strategy.0,
        mode: mode.0,
        stats,
        scatter,
        warm_boot_seconds: report.total_seconds,
        warm_boot_io_seconds: report.io_seconds,
        fingerprint,
    }
}

/// Sweep the four cells at every thread count and report them as a
/// [`Record`].
pub fn run_chunking(
    cfg: &ExperimentConfig,
    n_blocks: usize,
    bs: usize,
    versions: usize,
) -> (Sweep<Vec<ChunkingCell>>, Record) {
    let chain = version_chain(n_blocks, bs, versions, CHUNKING_SHIFT, cfg.seed);
    let strategies = [("fixed", None), ("cdc", Some(CdcParams::with_average(bs)))];
    let modes = [
        ("forward", DedupMode::Forward),
        ("reverse", DedupMode::Reverse),
    ];

    let sweep = sweep_equal(cfg, |threads| {
        strategies
            .iter()
            .flat_map(|&strategy| modes.map(|mode| run_cell(strategy, mode, &chain, bs, threads)))
            .collect::<Vec<_>>()
    });
    let cells = &sweep.outcome;

    let find = |s: &str, m: &str| {
        cells
            .iter()
            .find(|c| c.strategy == s && c.mode == m)
            .expect("cell")
    };
    let reverse_not_slower = ["fixed", "cdc"].iter().all(|s| {
        let fwd = find(s, "forward");
        let rev = find(s, "reverse");
        rev.stats.physical_bytes == fwd.stats.physical_bytes
            && rev.warm_boot_io_seconds <= fwd.warm_boot_io_seconds
    });
    // Reverse dedup really defragments the latest version.
    for s in ["fixed", "cdc"] {
        let (fwd, rev) = (find(s, "forward"), find(s, "reverse"));
        assert!(rev.scatter.extents <= fwd.scatter.extents, "strategy {s}");
    }
    let cdc_dedup_gte_fixed = find("cdc", "forward").stats.physical_bytes
        <= find("fixed", "forward").stats.physical_bytes;

    let record = Record {
        experiment: "chunking",
        paper: false,
        params: json_obj! {
            "seed": cfg.seed,
            "block_size": bs,
            "blocks_per_version": n_blocks,
            "versions": versions,
            "shift_bytes": CHUNKING_SHIFT,
            "codec": "lzjb",
        },
        gates: vec![
            ("deterministic_across_threads", sweep.deterministic),
            ("reverse_not_slower", reverse_not_slower),
            ("cdc_dedup_gte_fixed", cdc_dedup_gte_fixed),
        ],
        deterministic: json_obj! {
            "cells": Json::arr(cells, |c| json_obj! {
                c => [strategy, mode],
                "logical_bytes": c.stats.logical_bytes,
                "physical_bytes": c.stats.physical_bytes,
                "unique_records": c.stats.unique_blocks,
                "extents": c.scatter.extents,
                "mean_gap_bytes": c.scatter.mean_gap_bytes,
                c => [warm_boot_seconds, warm_boot_io_seconds],
                "fingerprint": format!("{:032x}", c.fingerprint),
            }),
        },
    };
    (sweep, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_chain_is_deterministic_and_shifted() {
        let a = version_chain(16, 4096, 3, 512, 7);
        let b = version_chain(16, 4096, 3, 512, 7);
        assert_eq!(a, b, "chain must be seed-deterministic");
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|v| v.len() == 16));
        // The shifted half really shifts: v1's first block differs from
        // v0's, but v0's content reappears displaced inside v1's stream.
        assert_ne!(a[0][0], a[1][0]);
        let flat1: Vec<u8> = a[1][..8].concat();
        let window = &a[0][0][..512];
        assert!(
            flat1.windows(window.len()).any(|w| w == window),
            "old content must survive, displaced"
        );
    }
}
