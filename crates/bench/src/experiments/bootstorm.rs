//! Boot-storm bench: M VMs boot one image concurrently, served zero-copy
//! from the hoarded ccVolumes, each warm node's working set resolved once
//! (`Squirrel::boot_storm`).
//!
//! For each worker-thread count the experiment registers the image on a
//! fresh system, replays the storm `repeat` times (wall-clock floor, robust
//! to scheduler noise), and records aggregate read throughput, the per-boot
//! simulated-latency histogram (`squirrel_boot_storm_seconds_ms`), and the
//! copies-avoided counters. Every thread count must produce the same
//! [`StormOutcome`] — read checksum, byte count, read stats, latency
//! histogram — or the `deterministic_across_threads` gate is false.
//!
//! Two more storms follow, untimed: the same storm again, then once more
//! after one record of node 0's cache rotted. `verify_hashed_bytes` records
//! what the ccVolumes decompressed + hashed to classify their nodes in the
//! first storm, in the repeat and after the rot; the `reverify_free` gate
//! says the repeat hashed nothing (registration's proof was remembered) and
//! the rot cost exactly the one record that changed. `read_decompressed_bytes`
//! records what their reads decompressed in the first storm and the repeat;
//! the `decompress_once_per_record` gate says each was one working set — the
//! warm nodes share one payload per record — not one per warm node.
//!
//! Thread speedup (in the record's `wall` block) is hardware-dependent: a
//! single-core container shows ~1.0x while the checksum equality still
//! proves the parallel path ran correctly.

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record, Sweep};
use squirrel_core::{ArcStats, BootStormReport, Squirrel, SquirrelConfig};
use squirrel_obs::HistogramSnapshot;

/// What one storm sweep leaves behind at any thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct StormOutcome {
    pub warm_vms: u32,
    pub cold_vms: u32,
    pub blocks_per_vm: u64,
    pub bytes_served: u64,
    pub read_checksum: String,
    /// Warm-read statistics; every hit is a payload copy (and a
    /// decompression) the shared read path avoided.
    pub arc: ArcStats,
    /// Per-boot simulated latency histogram, in milliseconds.
    pub latency_ms: HistogramSnapshot,
    /// Bytes the ccVolumes really hashed (`zpool_verify_hashed_bytes_total`)
    /// during the first storm, a repeat of it, and a storm after one record
    /// rotted.
    pub verify_hashed_bytes: [u64; 3],
    /// The repeat hashed nothing and the rot exactly one record.
    pub reverify_free: bool,
    /// Bytes the ccVolumes' reads really decompressed
    /// (`zpool_read_decompressed_bytes_total`) in the first storm and in the
    /// repeat of it.
    pub read_decompressed_bytes: [u64; 2],
    /// Each of the two was `blocks_per_vm` records: once per record, not
    /// once per warm node.
    pub decompress_once_per_record: bool,
}

/// Default storm shape: 16 VMs over 4 compute nodes.
pub const STORM_VMS: u32 = 16;
pub const STORM_NODES: u32 = 4;

/// Run the storm at one thread count on a fresh system. Also returns the
/// best-of-`repeat` wall seconds for one whole storm.
fn storm_at(cfg: &ExperimentConfig, threads: usize, vms: u32, repeat: usize) -> (StormOutcome, f64) {
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(STORM_NODES)
            .threads(threads)
            .build(),
        cfg.corpus(),
    );
    sq.register(0).expect("register image 0");
    let counter =
        |sq: &Squirrel, series: &str| sq.metrics().snapshot().counter(series).unwrap_or(0);
    let hashed = |sq: &Squirrel| counter(sq, "zpool_verify_hashed_bytes_total{pool=\"ccvol\"}");
    let decompressed =
        |sq: &Squirrel| counter(sq, "zpool_read_decompressed_bytes_total{pool=\"ccvol\"}");
    let (hashed_registering, read_registering) = (hashed(&sq), decompressed(&sq));
    let mut first = None;

    let mut wall = f64::INFINITY;
    let mut report: Option<BootStormReport> = None;
    for _ in 0..repeat.max(1) {
        let t = std::time::Instant::now();
        let r = sq.boot_storm(0, vms).expect("boot storm");
        wall = wall.min(t.elapsed().as_secs_f64());
        first.get_or_insert((
            hashed(&sq) - hashed_registering,
            decompressed(&sq) - read_registering,
        ));
        if let Some(prev) = &report {
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
    let read_before = decompressed(&sq);
    let rerun = sq.boot_storm(0, vms).expect("repeat storm");
    assert_eq!(
        rerun.read_checksum, report.read_checksum,
        "storm repeat diverged"
    );
    let again = hashed(&sq) - before;
    let read_again = decompressed(&sq) - read_before;
    sq.corrupt_cc_block(0, 0).expect("a record to rot");
    let sick = sq.boot_storm(0, vms).expect("storm after rot");
    assert!(sick.degraded_vms > 0, "the rotted node must serve degraded");
    let after_rot = hashed(&sq) - before - again;
    let record = sq.config().block_size as u64;
    let (first, read_first) = first.expect("at least one repeat");
    let outcome = StormOutcome {
        warm_vms: report.warm_vms,
        cold_vms: report.cold_vms,
        blocks_per_vm: report.blocks_per_vm,
        bytes_served: report.bytes_served,
        read_checksum: report.read_checksum,
        arc: report.arc,
        latency_ms: latency,
        verify_hashed_bytes: [first, again, after_rot],
        reverify_free: again == 0 && after_rot == record,
        read_decompressed_bytes: [read_first, read_again],
        decompress_once_per_record: [read_first, read_again] == [report.blocks_per_vm * record; 2],
    };
    (outcome, wall)
}

/// Sweep the thread counts and report the storm as a [`Record`].
pub fn run_bootstorm(
    cfg: &ExperimentConfig,
    vms: u32,
    repeat: usize,
) -> (Sweep<StormOutcome, f64>, Record) {
    let sweep = sweep_equal(cfg, |threads| storm_at(cfg, threads, vms, repeat));
    let o = &sweep.outcome;
    let mb_per_sec = |storm_secs: f64| o.bytes_served as f64 / storm_secs.max(1e-9) / 1e6;

    // The sweep always starts at one thread.
    let t1_secs = sweep.runs[0].extra;
    let record = Record {
        experiment: "bootstorm",
        paper: false,
        params: json_obj! {cfg => [images, scale, seed], "vms": vms, "nodes": STORM_NODES},
        gates: vec![
            ("deterministic_across_threads", sweep.deterministic),
            ("reverify_free", o.reverify_free),
            ("decompress_once_per_record", o.decompress_once_per_record),
            // Warm VMs share their node's buffers: hit rate strictly positive.
            ("arc_hit_rate", o.arc.hit_rate() > 0.0),
        ],
        deterministic: json_obj! {
            o => [warm_vms, cold_vms, blocks_per_vm],
            "bytes_served_per_storm": o.bytes_served,
            o => [read_checksum],
            "copies_avoided": o.arc.hits,
            "arc_hit_rate": o.arc.hit_rate(),
            "verify_hashed_bytes": json_obj! {
                "first": o.verify_hashed_bytes[0],
                "again": o.verify_hashed_bytes[1],
                "after_rot": o.verify_hashed_bytes[2],
            },
            "read_decompressed_bytes": json_obj! {
                "first": o.read_decompressed_bytes[0],
                "again": o.read_decompressed_bytes[1],
            },
            "latency_ms_histogram": json_obj! {
                "count": o.latency_ms.count,
                "sum": o.latency_ms.sum,
                "mean": o.latency_ms.mean(),
                "log2_buckets": Json::arr(&o.latency_ms.buckets, |&(idx, count)| {
                    Json::Arr(vec![idx.into(), count.into()])
                }),
            },
        },
        wall: json_obj! {
            "runs": Json::arr(&sweep.runs, |r| json_obj! {
                r => [threads, wall_secs],
                "storm_secs": r.extra,
                "mb_per_sec": mb_per_sec(r.extra),
                "speedup_vs_t1": t1_secs / r.extra.max(1e-9),
            }),
        },
    };
    (sweep, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_sweep_is_deterministic_and_zero_copy() {
        let cfg = ExperimentConfig::smoke();
        let (sweep, _) = run_bootstorm(&cfg, 8, 1);
        assert_eq!(sweep.runs.len(), 3);
        assert!(sweep.deterministic);
        let o = &sweep.outcome;
        assert!(o.arc.hits > 0);
        // 8 VMs over 4 nodes = 2 per node: each block misses once and hits
        // once, so the hit rate is exactly one half.
        assert!(o.arc.hit_rate() >= 0.5);
        assert_eq!(o.latency_ms.count, 8, "one sample per VM");
        // Registration proved every record: no storm hashes anything until
        // one rots, and then only that one.
        let record = SquirrelConfig::builder().build().block_size as u64;
        assert!(o.reverify_free);
        assert_eq!(o.verify_hashed_bytes, [0, 0, record]);
        // Four warm nodes, one decompression per record per storm.
        assert!(o.decompress_once_per_record);
        assert_eq!(o.read_decompressed_bytes, [o.blocks_per_vm * record; 2]);
    }
}
