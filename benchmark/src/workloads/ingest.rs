//! `ingest` — the write path. Per image: import into the scVolume,
//! snapshot, send the diff, frame it, unframe it, receive it into one
//! ccVolume. `hash`, the compress side of `compress`, and the `zfs`
//! DDT/ingest pipeline do nearly all the work; `cluster`, `bootsim` and
//! `core` are idle.

use super::{cache_name, materialize, num, shuffle, Opts, Rep, Walls, Workload, BLOCK_SIZE, CODEC};
use crate::json::Json;
use crate::ladder::{LadderCosts, LadderInput};
use crate::trace::Tracer;
use squirrel_core::{DistributionPolicy, HoardBudget};
use squirrel_dataset::rng::SplitMix64;
use squirrel_dataset::{Corpus, CorpusConfig, ImageId};
use squirrel_hash::ContentHash;
use squirrel_zfs::{PoolConfig, SendStream, ZPool};
use std::sync::Arc;
use std::time::Instant;

pub struct Ingest {
    corpus_cfg: CorpusConfig,
    threads: usize,
    /// Import order: a `--seed` permutation of the catalog.
    order: Vec<ImageId>,
    /// Images whose every block is read back from the ccVolume.
    sample: Vec<ImageId>,
}

impl Ingest {
    pub fn new(opts: &Opts) -> Ingest {
        // The Azure census shape at 1/256 of the paper's byte volume: ~0.5 MB
        // of boot working set per image, ~8 records each.
        let images = if opts.quick { 16 } else { 128 };
        let corpus_cfg = CorpusConfig {
            n_images: images,
            ..CorpusConfig::azure(256, opts.corpus_seed)
        };
        let mut rng = SplitMix64::from_parts(&[opts.seed, 0x1a9e57]);
        let mut order: Vec<ImageId> = (0..images).collect();
        shuffle(&mut order, &mut rng);
        let mut sample = order.clone();
        shuffle(&mut sample, &mut rng);
        sample.truncate(32);
        Ingest {
            corpus_cfg,
            threads: opts.threads,
            order,
            sample,
        }
    }

    fn pool_config(&self) -> PoolConfig {
        PoolConfig::builder()
            .block_size(BLOCK_SIZE)
            .codec(CODEC)
            .threads(self.threads)
            .build()
    }
}

/// Every block of `name` read back from `pool` must hash to its source
/// block's SHA-256.
pub fn check_readback(pool: &ZPool, name: &str, source: &[(u64, Vec<u8>)]) -> Result<(), String> {
    for (idx, block) in source {
        let back = pool
            .read_block(name, *idx)
            .ok_or_else(|| format!("{name}: file missing"))?;
        if ContentHash::of(&back) != ContentHash::of(block) {
            return Err(format!(
                "{name}: block {idx} read back with different content"
            ));
        }
    }
    Ok(())
}

impl Workload for Ingest {
    fn name(&self) -> &'static str {
        "ingest"
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("images", num(self.corpus_cfg.n_images)),
            ("scale", num(self.corpus_cfg.scale as f64)),
            ("block_size", num(BLOCK_SIZE as u32)),
            ("codec", Json::str(CODEC.name())),
            ("readback_sample", num(self.sample.len() as u32)),
        ])
    }

    fn rate(&self) -> (&'static str, bool) {
        ("ingest_mb_per_s", true)
    }

    fn rep(&mut self, tracer: &mut Tracer, deep: bool) -> Result<Rep, String> {
        let t = Instant::now();
        let corpus = Corpus::generate(self.corpus_cfg.clone());
        let mut setup_s = t.elapsed().as_secs_f64();
        let mut sc = ZPool::new(self.pool_config());
        let mut cc = ZPool::new(self.pool_config());
        let (mut wall_s, mut logical, mut wire_total) = (0.0, 0u64, 0u64);
        tracer.open("ingest", "bench");
        for &image in &self.order {
            // Blocks are materialised per image between timed segments, so
            // peak RSS measures the pools and not an input buffer.
            let t = Instant::now();
            let blocks = materialize(&corpus, image, BLOCK_SIZE);
            setup_s += t.elapsed().as_secs_f64();
            let bytes = (blocks.len() * BLOCK_SIZE) as u64;
            logical += bytes;
            let name = cache_name(image);
            tracer.next_request();
            let t = Instant::now();
            tracer.call("zfs.import", "zfs", bytes, || {
                sc.import_blocks_parallel(&name, &blocks)
            });
            tracer.call("zfs.snapshot", "zfs", 0, || {
                sc.snapshot(&format!("reg-{image:06}"))
            });
            let stream = tracer
                .try_call("zfs.send", "zfs", 0, || sc.send_latest())
                .map_err(|e| format!("send {name}: {e}"))?;
            let wire = tracer.call("zfs.encode", "zfs", stream.wire_bytes(), || {
                stream.encode_framed()
            });
            let decoded = tracer
                .try_call("zfs.decode", "zfs", wire.len() as u64, || {
                    SendStream::decode_framed(&wire)
                })
                .map_err(|e| format!("decode {name}: {e}"))?;
            tracer
                .try_call("zfs.recv", "zfs", wire.len() as u64, || cc.recv(&decoded))
                .map_err(|e| format!("recv {name}: {e}"))?;
            wall_s += t.elapsed().as_secs_f64();
            wire_total += wire.len() as u64;
        }
        tracer.close();

        let (s, c) = (sc.stats(), cc.stats());
        if s != c {
            return Err(format!(
                "scVolume and ccVolume space stats differ: {s:?} vs {c:?}"
            ));
        }
        if cc.file_count() != self.order.len() {
            return Err(format!(
                "ccVolume holds {} of {} caches",
                cc.file_count(),
                self.order.len()
            ));
        }
        if deep {
            for &image in &self.sample {
                check_readback(
                    &cc,
                    &cache_name(image),
                    &materialize(&corpus, image, BLOCK_SIZE),
                )?;
            }
            for (which, pool) in [("scVolume", &sc), ("ccVolume", &cc)] {
                if !pool.check_refcounts() {
                    return Err(format!(
                        "{which}: DDT refcounts do not match the file tables"
                    ));
                }
                if !pool.scrub().is_clean() {
                    return Err(format!("{which}: scrub found corrupt records"));
                }
            }
        }
        let images = self.order.len() as u64;
        Ok(Rep {
            wall_s,
            setup_s: Some(setup_s),
            work: logical as f64 / 1e6,
            attempted: images,
            failed: 0,
            exact: vec![
                (
                    "stored_bytes_per_logical_byte",
                    s.total_disk_bytes() as f64 / logical as f64,
                ),
                (
                    "ddt_mem_bytes_per_image",
                    s.ddt_memory_bytes as f64 / images as f64,
                ),
            ],
            witness: format!("{s:?} wire={wire_total}"),
            ..Rep::default()
        })
    }

    fn ladder_input(&self) -> LadderInput {
        LadderInput {
            corpus: Arc::new(Corpus::generate(self.corpus_cfg.clone())),
            images: self.order.clone(),
            block_size: BLOCK_SIZE,
            nodes: 8,
            threads: self.threads,
            distribution: DistributionPolicy::Unicast,
            budget: HoardBudget::unlimited(),
        }
    }

    fn layer_metrics(&self, _costs: &LadderCosts, _walls: &Walls) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_read_back_block_fails_the_output_check() {
        let opts = Opts {
            seed: 1,
            corpus_seed: 2014,
            threads: 1,
            quick: true,
        };
        let w = Ingest::new(&opts);
        let corpus = Corpus::generate(w.corpus_cfg.clone());
        let blocks = materialize(&corpus, 3, BLOCK_SIZE);
        let mut pool = ZPool::new(w.pool_config());
        pool.import_blocks_parallel("cache-000003", &blocks);
        check_readback(&pool, "cache-000003", &blocks).expect("intact pool reads back");
        for nth in 0..pool.stats().unique_blocks {
            pool.corrupt_nth_block(nth).expect("pool has blocks");
        }
        let err = check_readback(&pool, "cache-000003", &blocks).unwrap_err();
        assert!(err.contains("different content"), "{err}");
    }

    #[test]
    fn the_seed_permutes_the_order_and_nothing_else() {
        let mk = |seed| {
            Ingest::new(&Opts {
                seed,
                corpus_seed: 2014,
                threads: 1,
                quick: true,
            })
        };
        let (a, b) = (mk(1), mk(2));
        assert_ne!(a.order, b.order);
        let sorted = |w: &Ingest| {
            let mut o = w.order.clone();
            o.sort_unstable();
            o
        };
        assert_eq!(sorted(&a), sorted(&b));
        let mut t = Tracer::new(false);
        let (ra, rb) = (
            mk(1).rep(&mut t, true).unwrap(),
            mk(2).rep(&mut t, true).unwrap(),
        );
        // Same unique blocks, so the same DDT; the pools' disk accounting
        // moves with the order by a fraction of a percent.
        assert_eq!(ra.exact[1], rb.exact[1]);
        assert!(
            (ra.exact[0].1 / rb.exact[0].1 - 1.0).abs() < 0.005,
            "{:?} {:?}",
            ra.exact,
            rb.exact
        );
        assert_eq!(ra.work, rb.work);
    }
}
