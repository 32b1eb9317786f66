//! Boot-storm bench: M VMs boot one image concurrently, served zero-copy
//! from the hoarded ccVolumes, each warm node's working set resolved once
//! (`Squirrel::boot_storm`).
//!
//! For each worker-thread count the experiment registers the image on a
//! fresh system, runs one storm, and records the bytes served, the per-boot
//! simulated-latency histogram (`squirrel_boot_storm_seconds_ms`), and the
//! copies-avoided counters. Every thread count must produce the same
//! [`StormOutcome`] — read checksum, byte count, read stats, latency
//! histogram — or the `deterministic_across_threads` gate is false.
//!
//! Two more storms follow, after the snapshot: the same storm again, then
//! once more after one record of node 0's cache rotted.
//! `verify_hashed_bytes` records what the ccVolumes decompressed + hashed
//! to classify their nodes in the first storm, in the repeat and after the
//! rot; the `reverify_free` gate says the repeat hashed nothing
//! (registration's proof was remembered) and the rot cost exactly the one
//! record that changed. `read_decompressed_bytes` records what their reads
//! decompressed in the first storm and the repeat; the
//! `decompress_once_per_record` gate says each was one working set — the
//! warm nodes share one payload per record — not one per warm node; and
//! `digested_bytes` what the read phase hashed in the first storm and after
//! the rot (`digest_once_per_working_set`: one working set, the four nodes
//! holding the same buffers, then two). What a storm costs in wall time is
//! `benchmark/`'s `boot_serve` workload.

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record, Sweep};
use squirrel_core::{ArcStats, Squirrel, SquirrelConfig};
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
    /// Bytes the read phase hashed (`squirrel_boot_storm_digested_bytes_total`)
    /// in the first storm and in the storm after the rot.
    pub digested_bytes: [u64; 2],
    /// One working set, then two: once per distinct source, not per VM.
    pub digest_once_per_working_set: bool,
}

/// Default storm shape: 16 VMs over 4 compute nodes.
pub const STORM_VMS: u32 = 16;
pub const STORM_NODES: u32 = 4;

/// Run the storm at one thread count on a fresh system.
fn storm_at(cfg: &ExperimentConfig, threads: usize, vms: u32) -> StormOutcome {
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
    let digested = |sq: &Squirrel| counter(sq, "squirrel_boot_storm_digested_bytes_total");
    let (hashed_registering, read_registering) = (hashed(&sq), decompressed(&sq));
    let report = sq.boot_storm(0, vms).expect("boot storm");
    let first = hashed(&sq) - hashed_registering;
    let read_first = decompressed(&sq) - read_registering;
    let digested_first = digested(&sq);

    let snap = sq.metrics().snapshot();
    let latency = snap
        .histogram("squirrel_boot_storm_seconds_ms")
        .cloned()
        .unwrap_or_default();

    // After the snapshot the report is built from: the storm again, and
    // once more with one rotted record on node 0.
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
    let digested_before_rot = digested(&sq);
    let sick = sq.boot_storm(0, vms).expect("storm after rot");
    assert!(sick.degraded_vms > 0, "the rotted node must serve degraded");
    let after_rot = hashed(&sq) - before - again;
    let digested_after_rot = digested(&sq) - digested_before_rot;
    let record = sq.config().block_size as u64;
    let working_set = report.blocks_per_vm * record;
    // One latency sample per VM; registration proved every record, so the
    // first storm hashes nothing; a node's VMs past its first hit its
    // buffers.
    assert_eq!(latency.count, u64::from(vms), "one sample per VM");
    assert_eq!(first, 0, "registration proved every record");
    let nodes_per_vm = f64::from(STORM_NODES) / f64::from(vms);
    assert!(
        report.arc.hit_rate() >= 1.0 - nodes_per_vm,
        "{:?}",
        report.arc
    );
    StormOutcome {
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
        decompress_once_per_record: [read_first, read_again] == [working_set; 2],
        digested_bytes: [digested_first, digested_after_rot],
        digest_once_per_working_set: [digested_first, digested_after_rot]
            == [working_set, 2 * working_set],
    }
}

/// Sweep the thread counts and report the storm as a [`Record`].
pub fn run_bootstorm(cfg: &ExperimentConfig, vms: u32) -> (Sweep<StormOutcome>, Record) {
    let sweep = sweep_equal(cfg, |threads| storm_at(cfg, threads, vms));
    let o = &sweep.outcome;
    let record = Record {
        experiment: "bootstorm",
        paper: false,
        params: json_obj! {cfg => [images, scale, seed], "vms": vms, "nodes": STORM_NODES},
        gates: vec![
            ("deterministic_across_threads", sweep.deterministic),
            ("reverify_free", o.reverify_free),
            ("decompress_once_per_record", o.decompress_once_per_record),
            ("digest_once_per_working_set", o.digest_once_per_working_set),
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
            "digested_bytes": json_obj! {
                "first": o.digested_bytes[0],
                "after_rot": o.digested_bytes[1],
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
    };
    (sweep, record)
}
