//! Ingest bench: the staged import pipeline (`ZPool::import_file`) versus a
//! `create_file` + `write_block` replay of the same blocks, swept over
//! worker-thread counts.
//!
//! The workload is a deterministic mix of unique, duplicate, and zero
//! blocks cut from a generated corpus image, sized well past the old
//! micro-bench (default 512 x 64 KiB) so the pipeline's fixed costs
//! amortize the way a real cache ingest does. Each thread count runs on a
//! persistent [`WorkerPool`] shared across repeats — the production shape:
//! `Squirrel` spawns its workers once and every ingest reuses them.
//!
//! Everything this bench measures is host-clock, so apart from the block
//! census its numbers live in the record's `wall` block: throughput and a
//! per-stage breakdown (`prepare_ns` / `probe_ns` / `compress_ns` /
//! `commit_ns`, from the journal-quiet stage timers). Three gates:
//!
//! * **`deterministic_across_threads`** — pool space stats and the metric
//!   snapshot are bit-identical at every thread count, and equal to the
//!   `write_block` replay's.
//! * **`stage_breakdown_nonzero`** — the prepare and commit timers, which
//!   see every block, read above zero at every thread count.
//! * **`speedup_gate`** — `speedup_vs_serial` >= 0.95 at threads 2 and 8.
//!   Absolute speedup is hardware-dependent (a single-core container shows
//!   ~1.0x); the gate only asserts the parallel path never loses to serial.

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record, Sweep};
use squirrel_compress::Codec;
use squirrel_dataset::{Corpus, CorpusConfig};
use squirrel_hash::par::WorkerPool;
use squirrel_obs::{MetricsRegistry, MetricsSnapshot};
use squirrel_zfs::{PoolConfig, SpaceStats, ZPool};

/// Default workload shape: 512 blocks of 64 KiB (32 MiB logical).
pub const INGEST_BLOCKS: usize = 512;
pub const INGEST_BLOCK_SIZE: usize = 64 * 1024;
/// Percent of blocks that duplicate an earlier unique / are all-zero.
pub const DEDUP_PCT: u32 = 25;
pub const ZERO_PCT: u32 = 12;

/// Wall-clock nanoseconds per pipeline stage, from the pool's
/// journal-quiet stage timers.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseNanos {
    pub prepare_ns: u64,
    pub probe_ns: u64,
    pub compress_ns: u64,
    pub commit_ns: u64,
}

/// One thread count's clocks.
#[derive(Clone, Copy, Debug)]
pub struct IngestClock {
    /// Best-of-`repeat` wall seconds for one whole import.
    pub import_secs: f64,
    /// Stage breakdown of the best repeat.
    pub phases: PhaseNanos,
}

/// What an import leaves behind: everything the determinism contract pins.
pub type Fingerprint = (SpaceStats, MetricsSnapshot);

/// The deterministic block mix: uniques from the corpus image, every
/// `100/dedup_pct`-th block a repeat of an earlier unique, every
/// `100/zero_pct`-th all zeros. Returns the blocks plus the
/// (unique, duplicate, zero) census.
pub fn build_workload(
    n_blocks: usize,
    bs: usize,
    dedup_pct: u32,
    zero_pct: u32,
    seed: u64,
) -> (Vec<Vec<u8>>, (usize, usize, usize)) {
    let corpus = Corpus::generate(CorpusConfig::test_corpus(4, seed));
    let img = corpus.image(0);
    let virt = img.virtual_bytes().max(1);
    let dedup_every = (100 / dedup_pct.clamp(1, 100)) as usize;
    let zero_every = (100 / zero_pct.clamp(1, 100)) as usize;
    let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(n_blocks);
    let mut uniques: Vec<usize> = Vec::new();
    let (mut n_unique, mut n_dup, mut n_zero) = (0usize, 0usize, 0usize);
    for i in 0..n_blocks {
        if i % zero_every == zero_every - 1 {
            blocks.push(vec![0u8; bs]);
            n_zero += 1;
        } else if i % dedup_every == dedup_every - 1 && !uniques.is_empty() {
            // Repeat an earlier unique, walking the list so hits spread
            // over the DDT shards instead of hammering one entry.
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

fn phase_nanos(reg: &MetricsRegistry) -> PhaseNanos {
    let mut p = PhaseNanos::default();
    for (name, stats) in reg.wall_times() {
        match name.as_str() {
            "zpool_ingest_prepare" => p.prepare_ns = stats.total_nanos,
            "zpool_ingest_probe" => p.probe_ns = stats.total_nanos,
            "zpool_ingest_compress" => p.compress_ns = stats.total_nanos,
            "zpool_ingest_commit" => p.commit_ns = stats.total_nanos,
            _ => {}
        }
    }
    p
}

/// Sweep thread counts against the serial baseline and report the import
/// as a [`Record`].
pub fn run_ingest(
    cfg: &ExperimentConfig,
    n_blocks: usize,
    repeat: usize,
) -> (Sweep<Fingerprint, IngestClock>, Record) {
    let bs = INGEST_BLOCK_SIZE;
    let codec = Codec::Gzip(6);
    let (blocks, (n_unique, n_dup, n_zero)) =
        build_workload(n_blocks, bs, DEDUP_PCT, ZERO_PCT, cfg.seed);
    let logical = (n_blocks * bs) as u64;
    let repeat = repeat.max(1);

    // Serial baseline and determinism reference: a `write_block` replay.
    let mut serial_secs = f64::INFINITY;
    let mut serial_print = None;
    for _ in 0..repeat {
        let reg = MetricsRegistry::new();
        let mut pool = ZPool::new(PoolConfig::new(bs, codec));
        pool.set_metrics(&reg.handle());
        let t = std::time::Instant::now();
        pool.create_file("f");
        for (i, block) in blocks.iter().enumerate() {
            pool.write_block("f", i as u64, block);
        }
        serial_secs = serial_secs.min(t.elapsed().as_secs_f64());
        serial_print.get_or_insert_with(|| fingerprint(&pool, &reg));
    }
    let serial_print = serial_print.expect("at least one serial repeat");
    let serial_rate = n_blocks as f64 / serial_secs;

    let sweep = sweep_equal(cfg, |threads| {
        // One persistent pool per thread count, shared across repeats —
        // workers spawn on the warm-up import and are reused after, the
        // way a long-lived system ingests.
        let workers = WorkerPool::new(threads);
        let make_pool = |w: &WorkerPool| {
            let mut pool = ZPool::new(PoolConfig::new(bs, codec).with_threads(threads));
            pool.set_worker_pool(w.clone());
            pool
        };
        let mut warm = make_pool(&workers);
        warm.import_file("f", &blocks, logical);

        let mut clock = IngestClock { import_secs: f64::INFINITY, phases: PhaseNanos::default() };
        let mut print = None;
        for _ in 0..repeat {
            let reg = MetricsRegistry::new();
            let mut pool = make_pool(&workers);
            pool.set_metrics(&reg.handle());
            let t = std::time::Instant::now();
            pool.import_file("f", &blocks, logical);
            let secs = t.elapsed().as_secs_f64();
            if secs < clock.import_secs {
                clock = IngestClock { import_secs: secs, phases: phase_nanos(&reg) };
            }
            print.get_or_insert_with(|| fingerprint(&pool, &reg));
        }
        (print.expect("at least one parallel repeat"), clock)
    });
    let speedup = |c: &IngestClock| serial_secs / c.import_secs.max(1e-12);

    let record = Record {
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
            ("deterministic_across_threads", sweep.deterministic && sweep.outcome == serial_print),
            // The two stages that touch every block. Probe and compress can
            // round to zero on a coarse clock or an all-dedup import.
            (
                "stage_breakdown_nonzero",
                sweep.runs.iter().all(|r| r.extra.phases.prepare_ns > 0 && r.extra.phases.commit_ns > 0),
            ),
            // Parallel is never slower than serial (tolerance 5%).
            (
                "speedup_gate",
                sweep
                    .runs
                    .iter()
                    .filter(|r| r.threads == 2 || r.threads == 8)
                    .all(|r| speedup(&r.extra) >= 0.95),
            ),
        ],
        deterministic: json_obj! {
            "unique_blocks": n_unique,
            "dup_blocks": n_dup,
            "zero_blocks": n_zero,
        },
        wall: json_obj! {
            "serial_blocks_per_sec": serial_rate,
            "runs": Json::arr(&sweep.runs, |r| {
                let (clock, phases) = (&r.extra, r.extra.phases);
                json_obj! {
                    r => [threads, wall_secs],
                    clock => [import_secs],
                    "blocks_per_sec": n_blocks as f64 / clock.import_secs,
                    "speedup_vs_serial": speedup(clock),
                    phases => [prepare_ns, probe_ns, compress_ns, commit_ns],
                }
            }),
        },
    };
    (sweep, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_census_adds_up_and_is_deterministic() {
        let (blocks, (u, d, z)) = build_workload(96, 4096, DEDUP_PCT, ZERO_PCT, 7);
        assert_eq!(blocks.len(), 96);
        assert_eq!(u + d + z, 96);
        assert!(u > 0 && d > 0 && z > 0, "mix must include all three kinds");
        let (again, census) = build_workload(96, 4096, DEDUP_PCT, ZERO_PCT, 7);
        assert_eq!(blocks, again, "workload must be seed-deterministic");
        assert_eq!(census, (u, d, z));
        // Zero blocks really are zero; duplicates really repeat.
        assert!(blocks.iter().any(|b| b.iter().all(|&x| x == 0)));
    }

    #[test]
    fn ingest_sweep_is_deterministic_with_phase_breakdown() {
        let cfg = ExperimentConfig::smoke();
        // Tiny workload; state/metric equality against serial at every
        // thread count is the first gate.
        let (sweep, record) = run_ingest(&cfg, 48, 1);
        assert_eq!(sweep.runs.len(), 3);
        assert_eq!(record.gates[0], ("deterministic_across_threads", true));
        for r in &sweep.runs {
            assert!(r.extra.import_secs > 0.0);
            // The pipeline ran: every stage recorded wall time.
            assert!(r.extra.phases.prepare_ns > 0, "threads={}", r.threads);
            assert!(r.extra.phases.commit_ns > 0, "threads={}", r.threads);
        }
    }
}
