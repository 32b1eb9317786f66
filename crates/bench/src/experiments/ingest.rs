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
//! Beyond throughput, the run records a per-stage wall-clock breakdown
//! (`prepare_ns` / `probe_ns` / `compress_ns` / `commit_ns`, from the
//! journal-quiet stage timers) and enforces two contracts:
//!
//! * **Determinism** — pool space stats and the metric snapshot are
//!   bit-identical to the `write_block` replay at every thread count (the
//!   run aborts otherwise).
//! * **Never slower** — `speedup_vs_serial` must be >= 0.95 at threads 2
//!   and 8; the JSON carries `"speedup_gate": "pass"`/`"fail"` and CI
//!   greps for the pass marker.
//!
//! Results land in `results/BENCH_ingest.json`. Absolute speedup is
//! hardware-dependent (a single-core container shows ~1.0x); the gate only
//! asserts the parallel path never loses to serial.

use crate::config::ExperimentConfig;
use crate::csvout::fmt_f;
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

/// One thread count's measurement.
#[derive(Clone, Debug)]
pub struct IngestRun {
    pub threads: usize,
    /// Best-of-`repeat` wall seconds for one whole import.
    pub wall_secs: f64,
    pub blocks_per_sec: f64,
    pub speedup_vs_serial: f64,
    /// Stage breakdown of the best repeat.
    pub phases: PhaseNanos,
}

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

/// The determinism fingerprint: everything the contract pins.
fn fingerprint(pool: &ZPool, reg: &MetricsRegistry) -> (SpaceStats, MetricsSnapshot) {
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

/// Sweep thread counts against the serial baseline, verify determinism,
/// enforce the speedup gate, and persist `BENCH_ingest.json`.
pub fn run_ingest(cfg: &ExperimentConfig, n_blocks: usize, repeat: usize) -> Vec<IngestRun> {
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

    let mut runs = Vec::new();
    for threads in super::bootstorm::thread_sweep(cfg) {
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

        let mut wall = f64::INFINITY;
        let mut phases = PhaseNanos::default();
        let mut print = None;
        for _ in 0..repeat {
            let reg = MetricsRegistry::new();
            let mut pool = make_pool(&workers);
            pool.set_metrics(&reg.handle());
            let t = std::time::Instant::now();
            pool.import_file("f", &blocks, logical);
            let secs = t.elapsed().as_secs_f64();
            if secs < wall {
                wall = secs;
                phases = phase_nanos(&reg);
            }
            print.get_or_insert_with(|| fingerprint(&pool, &reg));
        }

        // The determinism contract, enforced: the parallel import leaves
        // the same pool state and metric snapshot as the serial replay.
        let print = print.expect("at least one parallel repeat");
        assert_eq!(print.0, serial_print.0, "threads={threads} diverged from serial stats");
        assert_eq!(print.1, serial_print.1, "threads={threads} diverged from serial metrics");

        runs.push(IngestRun {
            threads,
            wall_secs: wall,
            blocks_per_sec: n_blocks as f64 / wall,
            speedup_vs_serial: serial_secs / wall.max(1e-12),
            phases,
        });
    }

    // The perf gate: parallel is never slower than serial (tolerance 5%).
    let gate = runs
        .iter()
        .filter(|r| r.threads == 2 || r.threads == 8)
        .all(|r| r.speedup_vs_serial >= 0.95);
    let gate_word = if gate { "PASS" } else { "FAIL" };

    println!(
        "ingest workload: {n_blocks} x {bs} B ({n_unique} unique, {n_dup} dup, {n_zero} zero), \
         gzip-6, serial {serial_rate:.1} blocks/s"
    );
    for r in &runs {
        println!(
            "ingest threads={}: {:.1} blocks/s ({:.2}x serial), stages \
             prepare {:.2} ms / probe {:.2} ms / compress {:.2} ms / commit {:.2} ms",
            r.threads,
            r.blocks_per_sec,
            r.speedup_vs_serial,
            r.phases.prepare_ns as f64 / 1e6,
            r.phases.probe_ns as f64 / 1e6,
            r.phases.compress_ns as f64 / 1e6,
            r.phases.commit_ns as f64 / 1e6,
        );
    }
    println!("ingest speedup gate (>=0.95x at threads 2 and 8): {gate_word}");

    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = std::path::Path::new(dir).join("BENCH_ingest.json");
        std::fs::write(&path, render_json(n_blocks, (n_unique, n_dup, n_zero), serial_rate, gate, &runs))
            .expect("write BENCH_ingest.json");
        println!("ingest bench written to {}", path.display());
    }
    runs
}

/// Hand-rolled JSON (the workspace is std-only by policy).
fn render_json(
    n_blocks: usize,
    census: (usize, usize, usize),
    serial_rate: f64,
    gate: bool,
    runs: &[IngestRun],
) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"wall_secs\": {}, \"blocks_per_sec\": {}, \
                 \"speedup_vs_serial\": {}, \"prepare_ns\": {}, \"probe_ns\": {}, \
                 \"compress_ns\": {}, \"commit_ns\": {}}}",
                r.threads,
                fmt_f(r.wall_secs),
                fmt_f(r.blocks_per_sec),
                fmt_f(r.speedup_vs_serial),
                r.phases.prepare_ns,
                r.phases.probe_ns,
                r.phases.compress_ns,
                r.phases.commit_ns,
            )
        })
        .collect();
    format!(
        "{{\n  \"block_size\": {INGEST_BLOCK_SIZE},\n  \"blocks\": {n_blocks},\n  \
         \"unique_blocks\": {},\n  \"dup_blocks\": {},\n  \"zero_blocks\": {},\n  \
         \"codec\": \"gzip-6\",\n  \"serial_blocks_per_sec\": {},\n  \
         \"deterministic_across_threads\": true,\n  \"speedup_gate\": \"{}\",\n  \
         \"note\": \"speedup is hardware-dependent; the gate only asserts parallel \
         never loses to serial\",\n  \"parallel\": [\n{}\n  ]\n}}\n",
        census.0,
        census.1,
        census.2,
        fmt_f(serial_rate),
        if gate { "pass" } else { "fail" },
        entries.join(",\n"),
    )
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
        // Tiny workload: the run itself asserts state/metric equality
        // against serial at every thread count.
        let runs = run_ingest(&cfg, 48, 1);
        assert_eq!(runs.len(), 3);
        for r in &runs {
            assert!(r.blocks_per_sec > 0.0);
            // The pipeline ran: every stage recorded wall time.
            assert!(r.phases.prepare_ns > 0, "threads={}", r.threads);
            assert!(r.phases.commit_ns > 0, "threads={}", r.threads);
        }
    }

    #[test]
    fn json_has_the_acceptance_fields() {
        let runs = vec![IngestRun {
            threads: 2,
            wall_secs: 0.5,
            blocks_per_sec: 100.0,
            speedup_vs_serial: 1.1,
            phases: PhaseNanos { prepare_ns: 1, probe_ns: 2, compress_ns: 3, commit_ns: 4 },
        }];
        let json = render_json(50, (30, 10, 10), 90.0, true, &runs);
        for key in [
            "\"serial_blocks_per_sec\"",
            "\"speedup_vs_serial\"",
            "\"prepare_ns\"",
            "\"probe_ns\"",
            "\"compress_ns\"",
            "\"commit_ns\"",
            "\"speedup_gate\": \"pass\"",
            "\"deterministic_across_threads\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
