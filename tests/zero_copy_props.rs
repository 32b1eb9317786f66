//! Property tests for the zero-copy shared-payload read path: whatever the
//! block size, codec, cache capacity, or thread count, readers must see the
//! exact bytes a naive decompress-every-time oracle produces.

use proptest::prelude::*;
use squirrel_repro::compress::Codec;
use squirrel_repro::core::{Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use squirrel_repro::zfs::{PoolConfig, SharedArcCache, ZPool};
use std::sync::Arc;

const CODECS: [Codec; 5] = [Codec::Off, Codec::Gzip(6), Codec::Lzjb, Codec::Lz4, Codec::Zle];

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

    /// The cached read path — the shard-locked `SharedArcCache`; its serial
    /// shard type is held to the same oracle in-crate, beside
    /// `differential_shared_vs_serial` — returns bytes identical to
    /// re-decompressing the pool record on every read, across random block
    /// sizes, codecs, and cache capacities (including a zero-byte cache that
    /// evicts constantly, and reads of holes and past-EOF blocks).
    #[test]
    fn zero_copy_read_path_matches_decompress_oracle(
        bs_pow in 9u32..13,
        codec_idx in 0usize..CODECS.len(),
        capacity in prop_oneof![Just(0u64), 512u64..(1 << 16)],
        shards in 1usize..5,
        writes in proptest::collection::vec((0u64..24, any::<u8>(), any::<bool>()), 1..24),
        reads in proptest::collection::vec(0u64..26, 1..64),
    ) {
        let bs = 1usize << bs_pow;
        let mut pool = ZPool::new(PoolConfig::new(bs, CODECS[codec_idx]));
        pool.create_file("f");
        for &(idx, seed, compressible) in &writes {
            pool.write_block("f", idx, &block(bs, seed, compressible));
        }
        let shared = SharedArcCache::new(capacity, shards);
        for &idx in &reads {
            // The oracle decompresses from the pool every time.
            let oracle = pool.read_block("f", idx);
            let via_shared = shared.read_through(&pool, "f", idx).map(|d| d.to_vec());
            prop_assert_eq!(&via_shared, &oracle, "SharedArcCache diverged at block {}", idx);
        }
        // A file the pool does not know stays unknown through every path.
        prop_assert_eq!(shared.read_through(&pool, "missing", 0), None);
    }
}

/// System-level determinism: a boot storm over a mixed warm/cold node set
/// produces bit-identical read checksums, ARC statistics, simulated boot
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
        assert!(storm.warm_vms > 0 && storm.cold_vms > 0, "mixed storm expected");
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
