//! Property tests for the zero-copy shared-payload read path: whatever the
//! record size, codec, chunking or thread count, readers must see the exact
//! bytes a naive decompress-every-time oracle produces.

use proptest::prelude::*;
use squirrel_repro::compress::Codec;
use squirrel_repro::core::{Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use squirrel_repro::zfs::{CdcParams, PoolConfig, ZPool};
use std::collections::BTreeMap;
use std::sync::Arc;

const CODECS: [Codec; 4] = [Codec::Off, Codec::Gzip(6), Codec::Lzjb, Codec::Lz4];

fn block(bs: usize, seed: u8, compressible: bool) -> Vec<u8> {
    if compressible {
        vec![seed; bs]
    } else {
        (0..bs)
            .map(|i| seed.wrapping_mul(31).wrapping_add((i % 251) as u8))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shared read paths — `read_block_shared` and the hole-aware
    /// `read_block_or_hole` a boot storm resolves its working set with —
    /// return bytes identical to re-decompressing the pool record on every
    /// read, across random record sizes and codecs, on fixed records and on
    /// CDC chunks averaging 1–8 records (a zero block is a hole; reads cover
    /// holes and past-EOF blocks).
    #[test]
    fn zero_copy_read_path_matches_decompress_oracle(
        bs_pow in 9u32..13,
        codec_idx in 0usize..CODECS.len(),
        cdc_avg_pow in prop_oneof![Just(None), (0u32..4).prop_map(Some)],
        writes in proptest::collection::vec((0u64..24, any::<u8>(), any::<bool>()), 1..24),
        reads in proptest::collection::vec(0u64..26, 1..64),
    ) {
        let bs = 1usize << bs_pow;
        let config = PoolConfig::new(bs, CODECS[codec_idx]);
        let pool = match cdc_avg_pow {
            None => {
                let mut pool = ZPool::new(config);
                pool.create_file("f");
                for &(idx, seed, compressible) in &writes {
                    pool.write_block("f", idx, &block(bs, seed, compressible));
                }
                pool
            }
            Some(pow) => {
                let avg = (bs << pow).max(1024);
                let mut pool = ZPool::new(
                    config.with_cdc(CdcParams::with_average(avg)),
                );
                // Chunked files are import-only: the last write to an index wins.
                let blocks: BTreeMap<u64, Vec<u8>> = writes
                    .iter()
                    .map(|&(idx, seed, compressible)| (idx, block(bs, seed, compressible)))
                    .collect();
                pool.import_blocks_parallel("f", &blocks.into_iter().collect::<Vec<_>>());
                pool
            }
        };
        for &idx in &reads {
            // The oracle decompresses from the pool every time.
            let oracle = pool.read_block("f", idx).expect("file");
            let shared = pool.read_block_shared("f", idx).expect("file");
            prop_assert_eq!(&shared[..], &oracle[..], "shared read diverged at block {}", idx);
            match pool.read_block_or_hole("f", idx).expect("file") {
                Some(data) => prop_assert_eq!(&data[..], &oracle[..], "block {}", idx),
                None => prop_assert!(oracle.iter().all(|&b| b == 0), "hole {} reads data", idx),
            }
        }
        // A file the pool does not know stays unknown through every path.
        prop_assert_eq!(pool.read_block_shared("missing", 0), None);
        prop_assert_eq!(pool.read_block_or_hole("missing", 0), None);
    }
}

/// System-level determinism: a boot storm over a mixed warm/cold node set
/// produces bit-identical read checksums, read statistics, simulated boot
/// seconds, and metric snapshots at every worker-thread count.
#[test]
fn boot_storm_is_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            n_images: 6,
            scale: 8192,
            ..CorpusConfig::azure(8192, 42)
        }));
        let mut sq = Squirrel::new(
            SquirrelConfig::builder()
                .compute_nodes(3)
                .block_size(16 * 1024)
                .threads(threads)
                .build(),
            corpus,
        );
        sq.register(0).expect("register 0");
        sq.register(1).expect("register 1");
        // Evict one node's hoard so the storm mixes warm and cold serving.
        let _ = sq.evict_cache(2, 0).expect("evict");
        let storm = sq.boot_storm(0, 9).expect("storm");
        assert!(
            storm.warm_vms > 0 && storm.cold_vms > 0,
            "mixed storm expected"
        );
        let bits: Vec<u64> = storm.boot_seconds.iter().map(|s| s.to_bits()).collect();
        let snap = sq.metrics().snapshot();
        (
            storm.read_checksum,
            storm.bytes_served,
            storm.arc,
            bits,
            snap.to_json(),
        )
    };
    let reference = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), reference, "threads={threads}");
    }
}
