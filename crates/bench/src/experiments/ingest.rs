//! Ingest bench: the staged import pipeline (`ZPool::import_file`) versus a
//! `create_file` + `write_block` replay of the same blocks, swept over
//! worker-thread counts.
//!
//! The workload is a deterministic mix of unique, duplicate, and zero
//! blocks cut from a generated corpus image (default 512 x 64 KiB), so the
//! pipeline's fixed costs amortize the way a real cache ingest does.
//!
//! Two batch shapes run: the whole file, and a *registration-shaped* one —
//! six all-new records at sparse indices, what `materialize_cache` hands
//! the scVolume when an image is registered. What the gates read is the
//! census and the share plan `par::plan_shares` makes of each shape, which
//! are the same on any host; what the import costs in wall time, stage by
//! stage, is `benchmark/`'s `ingest` workload. Three gates:
//!
//! * **`deterministic_across_threads`** — pool space stats and the metric
//!   snapshot are bit-identical at every thread count, and equal to the
//!   `write_block` replay's, for both shapes.
//! * **`work_is_partitioned`** — on the file, the heaviest planned share of
//!   either parallel stage is at most 1/T of the stage's work plus one
//!   record, T = 2 and 8: T threads pulling shares finish together.
//! * **`register_shaped_batch_is_split`** — the six-record batch plans at
//!   least two compress shares: a registration reaches the second core.

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record};
use squirrel_compress::Codec;
use squirrel_dataset::{Corpus, CorpusConfig};
use squirrel_hash::par::{cost, plan_shares};
use squirrel_obs::{MetricsRegistry, MetricsSnapshot};
use squirrel_zfs::{PoolConfig, SpaceStats, ZPool};

/// Default workload shape: 512 blocks of 64 KiB (32 MiB logical).
pub const INGEST_BLOCKS: usize = 512;
const INGEST_BLOCK_SIZE: usize = 64 * 1024;
/// Percent of blocks that duplicate an earlier unique / are all-zero.
const DEDUP_PCT: u32 = 25;
const ZERO_PCT: u32 = 12;
/// File block indices of the registration-shaped batch.
const REGISTER_SHAPED: [u64; 6] = [3, 4, 9, 17, 18, 40];

/// What an import leaves behind: everything the determinism contract pins.
type Fingerprint = (SpaceStats, MetricsSnapshot);

/// The deterministic block mix: uniques from the corpus image, every
/// `100/DEDUP_PCT`-th block a repeat of an earlier unique, every
/// `100/ZERO_PCT`-th all zeros. Returns the blocks plus the
/// (unique, duplicate, zero) census.
fn build_workload(n_blocks: usize, bs: usize, seed: u64) -> (Vec<Vec<u8>>, (usize, usize, usize)) {
    let corpus = Corpus::generate(CorpusConfig::test_corpus(4, seed));
    let img = corpus.image(0);
    let virt = img.virtual_bytes().max(1);
    let dedup_every = (100 / DEDUP_PCT) as usize;
    let zero_every = (100 / ZERO_PCT) as usize;
    let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(n_blocks);
    let mut uniques: Vec<usize> = Vec::new();
    let (mut n_unique, mut n_dup, mut n_zero) = (0usize, 0usize, 0usize);
    for i in 0..n_blocks {
        if i % zero_every == zero_every - 1 {
            blocks.push(vec![0u8; bs]);
            n_zero += 1;
        } else if i % dedup_every == dedup_every - 1 && !uniques.is_empty() {
            // Repeat an earlier unique, walking the list so hits spread
            // over many DDT entries instead of hammering one.
            let src = uniques[n_dup % uniques.len()];
            blocks.push(blocks[src].clone());
            n_dup += 1;
        } else {
            let mut buf = vec![0u8; bs];
            // Stride by a prime so consecutive uniques come from distant
            // image regions (mixed texture, like a real cache capture).
            let off = (i as u64).wrapping_mul(2_097_169) % virt;
            img.read_at(off, &mut buf);
            // Stamp the index so wrapped reads stay unique.
            buf[..8].copy_from_slice(&(i as u64).to_le_bytes());
            uniques.push(blocks.len());
            blocks.push(buf);
            n_unique += 1;
        }
    }
    (blocks, (n_unique, n_dup, n_zero))
}

fn fingerprint(pool: &ZPool, reg: &MetricsRegistry) -> Fingerprint {
    (pool.stats(), reg.snapshot())
}

/// What `par::plan_shares` makes of one parallel ingest stage over `items`
/// records costing `item_ns` each.
struct StagePlan {
    shares: usize,
    heaviest_ns: u64,
    work_ns: u64,
    item_ns: u64,
}

impl StagePlan {
    fn of(items: usize, item_ns: u64) -> Self {
        let shares = plan_shares(std::iter::repeat_n(item_ns, items));
        StagePlan {
            shares: shares.len(),
            heaviest_ns: shares
                .iter()
                .map(|s| s.len() as u64 * item_ns)
                .max()
                .unwrap_or(0),
            work_ns: items as u64 * item_ns,
            item_ns,
        }
    }

    /// No share outweighs an even split over `threads` by more than a record.
    fn partitions_over(&self, threads: u64) -> bool {
        self.heaviest_ns <= self.work_ns / threads + self.item_ns
    }
}

/// The plans of a batch of `blocks` records of which `new` are compressed,
/// with the weights `ZPool`'s fixed-record ingest states: (prepare, compress).
fn stage_plans(blocks: usize, new: usize, bs: usize) -> (StagePlan, StagePlan) {
    (
        StagePlan::of(blocks, bs as u64 * cost::HASH),
        StagePlan::of(new, bs as u64 * cost::DEFLATE),
    )
}

fn plans_json((prepare, compress): &(StagePlan, StagePlan)) -> Json {
    json_obj! {
        "planned_shares": json_obj! {"prepare": prepare.shares, "compress": compress.shares},
        "heaviest_share_weight": json_obj! {"prepare": prepare.heaviest_ns, "compress": compress.heaviest_ns},
        "stage_weight": json_obj! {"prepare": prepare.work_ns, "compress": compress.work_ns},
    }
}

/// Whether the staged import of `batch` leaves the `write_block` replay's
/// pool state and metric snapshot at every thread count of the sweep.
fn matches_replay(cfg: &ExperimentConfig, batch: &[(u64, Vec<u8>)]) -> bool {
    let config = PoolConfig::new(INGEST_BLOCK_SIZE, Codec::Gzip(6));
    let replay = {
        let reg = MetricsRegistry::new();
        let mut pool = ZPool::new(config);
        pool.set_metrics(&reg.handle());
        pool.create_file("f");
        for (i, block) in batch {
            pool.write_block("f", *i, block);
        }
        fingerprint(&pool, &reg)
    };
    let sweep = sweep_equal(cfg, |threads| {
        let reg = MetricsRegistry::new();
        let mut pool = ZPool::new(config.with_threads(threads));
        pool.set_metrics(&reg.handle());
        pool.import_blocks_parallel("f", batch);
        fingerprint(&pool, &reg)
    });
    sweep.deterministic && sweep.outcome == replay
}

/// Sweep thread counts against the `write_block` replay, on the file and on
/// the registration-shaped batch, and report the imports as a [`Record`].
pub fn run_ingest(cfg: &ExperimentConfig, n_blocks: usize) -> Record {
    let bs = INGEST_BLOCK_SIZE;
    let (blocks, (n_unique, n_dup, n_zero)) = build_workload(n_blocks, bs, cfg.seed);
    // The first six uniques, at sparse indices: nothing dedups, nothing is zero.
    let uniques = blocks.iter().filter(|b| b.iter().any(|&x| x != 0));
    let register_shaped: Vec<(u64, Vec<u8>)> =
        REGISTER_SHAPED.into_iter().zip(uniques.cloned()).collect();
    let file: Vec<(u64, Vec<u8>)> = (0..).zip(blocks).collect();

    let deterministic = matches_replay(cfg, &file) && matches_replay(cfg, &register_shaped);
    let file_plans = stage_plans(n_blocks, n_unique, bs);
    let register_plans = stage_plans(register_shaped.len(), register_shaped.len(), bs);

    Record {
        experiment: "ingest",
        paper: false,
        params: json_obj! {
            "seed": cfg.seed,
            "block_size": bs,
            "blocks": n_blocks,
            "codec": "gzip-6",
        },
        gates: vec![
            // The parallel import leaves the same pool state and metric
            // snapshot at every thread count, and the serial replay's.
            ("deterministic_across_threads", deterministic),
            (
                "work_is_partitioned",
                [2, 8].into_iter().all(|threads| {
                    file_plans.0.partitions_over(threads) && file_plans.1.partitions_over(threads)
                }),
            ),
            (
                "register_shaped_batch_is_split",
                register_plans.1.shares >= 2,
            ),
        ],
        deterministic: json_obj! {
            "unique_blocks": n_unique,
            "dup_blocks": n_dup,
            "zero_blocks": n_zero,
            "file": plans_json(&file_plans),
            "register_shaped": plans_json(&register_plans),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_census_adds_up_and_is_deterministic() {
        let (blocks, (u, d, z)) = build_workload(96, 4096, 7);
        assert_eq!(blocks.len(), 96);
        assert_eq!(u + d + z, 96);
        assert!(u > 0 && d > 0 && z > 0, "mix must include all three kinds");
        let (again, census) = build_workload(96, 4096, 7);
        assert_eq!(blocks, again, "workload must be seed-deterministic");
        assert_eq!(census, (u, d, z));
        // Zero blocks really are zero; duplicates really repeat.
        assert!(blocks.iter().any(|b| b.iter().all(|&x| x == 0)));
    }
}
