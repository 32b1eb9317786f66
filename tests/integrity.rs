//! Cross-crate integrity tests: the wire format, checksum scrubbing, and
//! data-path verification guard the whole propagation pipeline.

use squirrel_repro::compress::Codec;
use squirrel_repro::core::{Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use squirrel_repro::zfs::{PoolConfig, SendStream, ZPool};
use std::sync::Arc;

fn corpus() -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        n_images: 6,
        scale: 2048,
        ..CorpusConfig::azure(2048, 313)
    }))
}

#[test]
fn cache_streams_survive_the_wire_format_end_to_end() {
    // Build a scVolume from real corpus caches, ship it over the binary
    // wire format, and verify the replica byte-for-byte.
    let corpus = corpus();
    let bs = 16 * 1024;
    let mut scvol = ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)));
    for img in corpus.iter() {
        let cache = img.cache();
        let blocks: Vec<Vec<u8>> = cache.blocks(bs).collect();
        scvol.import_file(&format!("cache-{}", img.id()), &blocks, cache.bytes());
        scvol.snapshot(&format!("s{}", img.id()));
    }

    let mut replica = ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)));
    let tags: Vec<String> = scvol
        .snapshot_tags()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut prev: Option<String> = None;
    for tag in &tags {
        let stream = scvol.send_between(prev.as_deref(), tag).expect("send");
        let bytes = stream.encode();
        let decoded = SendStream::decode(&bytes).expect("decode");
        replica.recv(&decoded).expect("recv");
        prev = Some(tag.clone());
    }

    for img in corpus.iter() {
        let name = format!("cache-{}", img.id());
        let blocks = img.cache().blocks_count(bs);
        for b in 0..blocks {
            assert_eq!(
                scvol.read_block(&name, b),
                replica.read_block(&name, b),
                "{name} block {b}"
            );
        }
    }
    assert!(replica.check_refcounts());
    assert!(replica.scrub().is_clean());
}

#[test]
fn scrub_catches_corruption_in_a_replicated_cache() {
    let corpus = corpus();
    let bs = 16 * 1024;
    let mut pool = ZPool::new(PoolConfig::new(bs, Codec::Lz4));
    let img = corpus.image(0);
    let blocks: Vec<Vec<u8>> = img.cache().blocks(bs).collect();
    pool.import_file("cache-0", &blocks, img.cache().bytes());
    assert!(pool.scrub().is_clean());

    let victim = pool
        .block_refs("cache-0")
        .expect("file")
        .into_iter()
        .flatten()
        .next()
        .expect("at least one block")
        .key;
    assert!(pool.inject_corruption(victim));
    let report = pool.scrub();
    assert_eq!(report.corrupt, vec![victim]);
}

#[test]
fn full_system_boot_data_path_verifies_after_churn() {
    // Register, knock a node offline, register more, rejoin, then verify
    // actual bytes through the chain — the strongest end-to-end check.
    let corpus = corpus();
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(3)
            .block_size(16 * 1024)
            .build(),
        Arc::clone(&corpus),
    );
    sq.register(0).expect("r0");
    sq.node_offline(2).expect("offline");
    sq.register(1).expect("r1");
    sq.register(2).expect("r2");
    sq.node_rejoin(2).expect("rejoin");
    assert!(sq.check_replication().is_consistent());
    for img in 0..3 {
        for node in 0..3 {
            let v = sq.verify_boot(node, img).expect("verify");
            assert!(v.bytes_verified > 0, "node {node} image {img}");
        }
    }
}
