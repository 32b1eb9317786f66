//! Boot-storm bench: M VMs boot one image concurrently, served zero-copy
//! from the hoarded ccVolumes through the shard-locked ARC
//! (`Squirrel::boot_storm`).
//!
//! For each worker-thread count the experiment registers the image on a
//! fresh system, replays the storm `repeat` times (wall-clock floor, robust
//! to scheduler noise), and records aggregate read throughput, the per-boot
//! simulated-latency histogram (`squirrel_boot_storm_seconds_ms`), and the
//! copies-avoided counters. The run aborts if any thread count produces a
//! different read checksum, byte count, or latency histogram — the
//! determinism contract is part of what this bench verifies.
//!
//! Two more storms follow, untimed: the same storm again, then once more
//! after one record of node 0's cache rotted. `verify_hashed_bytes` records
//! what the ccVolumes decompressed + hashed to classify their nodes in the
//! first storm, in the repeat and after the rot; `"reverify_free": true`
//! says the repeat hashed nothing (registration's proof was remembered) and
//! the rot cost exactly the one record that changed.
//!
//! Results land in `results/BENCH_bootstorm.json`. Thread speedup is
//! hardware-dependent: a single-core container shows ~1.0x while the
//! checksum equality still proves the parallel path ran correctly.

use crate::config::ExperimentConfig;
use crate::csvout::fmt_f;
use squirrel_core::{BootStormReport, Squirrel, SquirrelConfig};
use squirrel_obs::HistogramSnapshot;

/// One thread count's measurement.
#[derive(Clone, Debug)]
pub struct StormRun {
    pub threads: usize,
    /// Best-of-`repeat` wall seconds for one whole storm.
    pub wall_secs: f64,
    /// Payload megabytes served per wall second (aggregate over all VMs).
    pub mb_per_sec: f64,
    /// ARC hits: payload copies (and decompressions) the shared read path
    /// avoided, per storm.
    pub copies_avoided: u64,
    pub arc_hit_rate: f64,
    /// Per-boot simulated latency histogram, in milliseconds.
    pub latency_ms: HistogramSnapshot,
    pub report: BootStormReport,
    /// Bytes the ccVolumes really hashed (`zpool_verify_hashed_bytes_total`)
    /// during the first storm, a repeat of it, and a storm after one record
    /// rotted.
    pub verify_hashed_bytes: [u64; 3],
    /// The repeat hashed nothing and the rot exactly one record.
    pub reverify_free: bool,
}

/// Default storm shape: 16 VMs over 4 compute nodes.
pub const STORM_VMS: u32 = 16;
pub const STORM_NODES: u32 = 4;

/// Thread counts to sweep: always 1/2/8, plus the `--threads` override when
/// it names a count not already in the sweep.
pub fn thread_sweep(cfg: &ExperimentConfig) -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 8];
    if cfg.threads != 0 && !sweep.contains(&cfg.threads) {
        sweep.push(cfg.threads);
    }
    sweep
}

/// One thread count's timed outcome of a [`sweep_equal`].
#[derive(Clone, Debug)]
pub struct SweepRun<T> {
    pub threads: usize,
    pub wall_secs: f64,
    pub outcome: T,
}

/// Run `at(threads)` on fresh state at every thread count of the sweep,
/// timing each, and assert every outcome equals the first — the witness
/// behind a bench's `"deterministic_across_threads": true`.
pub fn sweep_equal<T: PartialEq + std::fmt::Debug>(
    cfg: &ExperimentConfig,
    mut at: impl FnMut(usize) -> T,
) -> Vec<SweepRun<T>> {
    let mut runs: Vec<SweepRun<T>> = Vec::new();
    for threads in thread_sweep(cfg) {
        let t = std::time::Instant::now();
        let outcome = at(threads);
        let wall_secs = t.elapsed().as_secs_f64();
        if let Some(first) = runs.first() {
            assert_eq!(
                outcome, first.outcome,
                "threads={threads} diverged from threads={}",
                first.threads
            );
        }
        runs.push(SweepRun { threads, wall_secs, outcome });
    }
    runs
}

/// The entries of a bench's `"runs"` array: thread count and wall seconds.
pub fn runs_json<T>(runs: &[SweepRun<T>]) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!("    {{\"threads\": {}, \"wall_secs\": {}}}", r.threads, fmt_f(r.wall_secs))
        })
        .collect();
    entries.join(",\n")
}

/// Run the storm at one thread count on a fresh system.
fn storm_at(cfg: &ExperimentConfig, threads: usize, vms: u32, repeat: usize) -> StormRun {
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(STORM_NODES)
            .threads(threads)
            .build(),
        cfg.corpus(),
    );
    sq.register(0).expect("register image 0");
    let hashed = |sq: &Squirrel| {
        sq.metrics()
            .snapshot()
            .counter("zpool_verify_hashed_bytes_total{pool=\"ccvol\"}")
            .unwrap_or(0)
    };
    let registered = hashed(&sq);
    let mut first = None;

    let mut wall = f64::INFINITY;
    let mut report = None;
    for _ in 0..repeat.max(1) {
        let t = std::time::Instant::now();
        let r = sq.boot_storm(0, vms).expect("boot storm");
        wall = wall.min(t.elapsed().as_secs_f64());
        first.get_or_insert(hashed(&sq) - registered);
        if let Some(prev) = &report {
            let prev: &BootStormReport = prev;
            assert_eq!(prev.read_checksum, r.read_checksum, "storm repeat diverged");
        }
        report = Some(r);
    }
    let report = report.expect("at least one repeat");

    let snap = sq.metrics().snapshot();
    let latency = snap
        .histogram("squirrel_boot_storm_seconds_ms")
        .cloned()
        .unwrap_or_default();

    // Untimed, after the snapshot the report is built from: the storm
    // again, and once more with one rotted record on node 0.
    let before = hashed(&sq);
    let rerun = sq.boot_storm(0, vms).expect("repeat storm");
    assert_eq!(
        rerun.read_checksum, report.read_checksum,
        "storm repeat diverged"
    );
    let again = hashed(&sq) - before;
    sq.corrupt_cc_block(0, 0).expect("a record to rot");
    let sick = sq.boot_storm(0, vms).expect("storm after rot");
    assert!(sick.degraded_vms > 0, "the rotted node must serve degraded");
    let after_rot = hashed(&sq) - before - again;
    let record = sq.config().block_size as u64;
    StormRun {
        threads,
        wall_secs: wall,
        mb_per_sec: report.bytes_served as f64 / wall.max(1e-9) / 1e6,
        copies_avoided: report.arc.hits,
        arc_hit_rate: report.arc.hit_rate(),
        latency_ms: latency,
        report,
        verify_hashed_bytes: [first.expect("at least one repeat"), again, after_rot],
        reverify_free: again == 0 && after_rot == record,
    }
}

/// Sweep the thread counts, verify determinism across them, and persist
/// `BENCH_bootstorm.json` under the configured output directory.
pub fn run_bootstorm(cfg: &ExperimentConfig, vms: u32, repeat: usize) -> Vec<StormRun> {
    let runs: Vec<StormRun> = thread_sweep(cfg)
        .into_iter()
        .map(|t| storm_at(cfg, t, vms, repeat))
        .collect();

    // The determinism contract, enforced: read bytes, checksum, ARC stats,
    // and the latency histogram are bit-identical at every thread count.
    let first = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            run.report.read_checksum, first.report.read_checksum,
            "threads={} read different bytes",
            run.threads
        );
        assert_eq!(run.report.bytes_served, first.report.bytes_served);
        assert_eq!(run.report.arc, first.report.arc);
        assert_eq!(run.latency_ms, first.latency_ms, "threads={}", run.threads);
        assert_eq!(
            run.verify_hashed_bytes, first.verify_hashed_bytes,
            "threads={}",
            run.threads
        );
    }

    for run in &runs {
        println!(
            "bootstorm threads={}: {} VMs, {:.1} MB/s wall, {} copies avoided \
             (hit rate {:.2}), mean simulated boot {:.1} ms",
            run.threads,
            run.report.vms,
            run.mb_per_sec,
            run.copies_avoided,
            run.arc_hit_rate,
            run.latency_ms.mean(),
        );
    }

    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = std::path::Path::new(dir).join("BENCH_bootstorm.json");
        std::fs::write(&path, render_json(cfg, vms, &runs)).expect("write BENCH_bootstorm.json");
        println!("bootstorm bench written to {}", path.display());
    }
    runs
}

/// Hand-rolled JSON (the workspace is std-only by policy).
fn render_json(cfg: &ExperimentConfig, vms: u32, runs: &[StormRun]) -> String {
    let t1_wall = runs
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.wall_secs)
        .unwrap_or(runs[0].wall_secs);
    let first = &runs[0];
    let mut entries = Vec::new();
    for r in runs {
        let buckets: Vec<String> = r
            .latency_ms
            .buckets
            .iter()
            .map(|(idx, count)| format!("[{idx}, {count}]"))
            .collect();
        entries.push(format!(
            "    {{\"threads\": {}, \"wall_secs\": {}, \"mb_per_sec\": {}, \
             \"speedup_vs_t1\": {}, \"copies_avoided\": {}, \"arc_hit_rate\": {}, \
             \"verify_hashed_bytes\": {{\"first\": {}, \"again\": {}, \"after_rot\": {}}}, \
             \"latency_ms_histogram\": \
             {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"log2_buckets\": [{}]}}}}",
            r.threads,
            fmt_f(r.wall_secs),
            fmt_f(r.mb_per_sec),
            fmt_f(t1_wall / r.wall_secs.max(1e-9)),
            r.copies_avoided,
            fmt_f(r.arc_hit_rate),
            r.verify_hashed_bytes[0],
            r.verify_hashed_bytes[1],
            r.verify_hashed_bytes[2],
            r.latency_ms.count,
            r.latency_ms.sum,
            fmt_f(r.latency_ms.mean()),
            buckets.join(", "),
        ));
    }
    format!(
        "{{\n  \"images\": {},\n  \"scale\": {},\n  \"seed\": {},\n  \"vms\": {vms},\n  \
         \"nodes\": {STORM_NODES},\n  \"warm_vms\": {},\n  \"cold_vms\": {},\n  \
         \"blocks_per_vm\": {},\n  \"bytes_served_per_storm\": {},\n  \
         \"read_checksum\": \"{}\",\n  \
         \"deterministic_across_threads\": true,\n  \
         \"reverify_free\": {},\n  \
         \"note\": \"speedup is hardware-dependent; single-core containers show ~1.0x\",\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        cfg.images,
        cfg.scale,
        cfg.seed,
        first.report.warm_vms,
        first.report.cold_vms,
        first.report.blocks_per_vm,
        first.report.bytes_served,
        first.report.read_checksum,
        runs.iter().all(|r| r.reverify_free),
        entries.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_sweep_is_deterministic_and_zero_copy() {
        let cfg = ExperimentConfig::smoke();
        let runs = run_bootstorm(&cfg, 8, 1);
        assert_eq!(runs.len(), 3);
        assert!(runs.iter().all(|r| r.copies_avoided > 0));
        // 8 VMs over 4 nodes = 2 per node: each block misses once and hits
        // once, so the hit rate is exactly one half.
        assert!(runs.iter().all(|r| r.arc_hit_rate >= 0.5));
        assert_eq!(runs[0].latency_ms.count, 8, "one sample per VM");
        // Registration proved every record: no storm hashes anything until
        // one rots, and then only that one.
        let record = SquirrelConfig::builder().build().block_size as u64;
        assert!(runs.iter().all(|r| r.reverify_free));
        assert!(runs.iter().all(|r| r.verify_hashed_bytes == [0, 0, record]));
    }

    #[test]
    fn threads_flag_extends_the_sweep() {
        let cfg = ExperimentConfig { threads: 4, ..ExperimentConfig::smoke() };
        assert_eq!(thread_sweep(&cfg), vec![1, 2, 8, 4]);
        let cfg = ExperimentConfig { threads: 2, ..ExperimentConfig::smoke() };
        assert_eq!(thread_sweep(&cfg), vec![1, 2, 8]);
    }

    #[test]
    fn json_has_the_acceptance_fields() {
        let cfg = ExperimentConfig::smoke();
        let runs = run_bootstorm(&cfg, 4, 1);
        let json = render_json(&cfg, 4, &runs);
        for key in [
            "\"mb_per_sec\"",
            "\"latency_ms_histogram\"",
            "\"copies_avoided\"",
            "\"arc_hit_rate\"",
            "\"read_checksum\"",
            "\"speedup_vs_t1\"",
            "\"verify_hashed_bytes\"",
            "\"reverify_free\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
