//! The observability layer's determinism contract, end to end: the metric
//! snapshot of a full workflow sequence is bit-identical at any thread
//! count, and its JSON export parses back.

use squirrel_repro::core::{Squirrel, SquirrelConfig};
use squirrel_repro::dataset::{Corpus, CorpusConfig};
use squirrel_repro::faults::{FaultConfig, FaultPlan};
use squirrel_repro::obs::json::Json;
use squirrel_repro::obs::MetricsSnapshot;
use std::sync::Arc;

/// Register, boot warm and cold, knock a node out, rejoin it, GC, and
/// storm — every workflow that records metrics.
fn run_workflows(threads: usize) -> Squirrel {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        scale: 1024,
        ..CorpusConfig::test_corpus(8, 99)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(4)
            .block_size(16 * 1024)
            .threads(threads)
            .build(),
        corpus,
    );
    sq.register(0).expect("r0");
    sq.node_offline(3).expect("offline");
    sq.register(1).expect("r1");
    for node in 0..3 {
        sq.boot(node, 0).expect("warm boot");
    }
    sq.boot(0, 5).expect("cold boot");
    sq.node_rejoin(3).expect("rejoin");
    sq.advance_days(30);
    sq.register(2).expect("r2");
    let _ = sq.gc();
    sq.verify_boot(1, 0).expect("verify");
    assert_eq!(sq.boot_storm(0, 6).expect("storm").warm_vms, 6);
    sq
}

#[test]
fn snapshots_are_bit_identical_across_thread_counts() {
    let reference = run_workflows(1).metrics().snapshot();
    assert!(!reference.counters.is_empty());
    assert!(!reference.events.is_empty());
    let reference_json = reference.to_json();
    for threads in [2, 8] {
        let snap = run_workflows(threads).metrics().snapshot();
        assert_eq!(snap, reference, "threads={threads}");
        assert_eq!(snap.to_json(), reference_json, "threads={threads}");
    }
}

/// Register image 0 on a fresh `nodes`-node cluster, over the lossy
/// per-node path when a fault plan is given: the nodes updated and the
/// metrics.
fn register_once(nodes: u32, threads: usize, plan: Option<FaultPlan>) -> (u32, MetricsSnapshot) {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        scale: 1024,
        ..CorpusConfig::test_corpus(8, 99)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(nodes)
            .block_size(16 * 1024)
            .threads(threads)
            .build(),
        corpus,
    );
    if let Some(plan) = plan {
        sq.set_fault_plan(plan);
    }
    let updated = sq.register(0).expect("register").nodes_updated;
    (updated, sq.metrics().snapshot())
}

#[test]
fn a_registration_verifies_its_payload_once_per_distinct_copy() {
    type Run = (u32, MetricsSnapshot);
    let count = |run: &Run, series| run.1.counter(series).unwrap_or(0);
    let verified = |run: &Run| count(run, "zpool_recv_verified_bytes_total{pool=\"ccvol\"}");
    let plan = |config| Some(FaultPlan::new(7, config));
    // The first diff's payload is every block the import missed in the
    // scVolume's DDT, so what the sender compressed is what a receiver
    // must decompress and hash.
    let clean = register_once(8, 1, None);
    let payload = count(&clean, "zpool_compress_in_bytes_total{pool=\"scvol\"}");
    assert!(payload > 0);
    // Clean path: eight nodes share one set of buffers, proved once.
    assert_eq!((clean.0, verified(&clean)), (8, payload));
    assert_eq!(verified(&register_once(1, 1, None)), payload);
    // Lossy path: every copy that arrives intact is the same bytes, decoded
    // and proved once — however many nodes take it, and however many
    // crashing receivers throw theirs away.
    let quiet = register_once(8, 1, Some(FaultPlan::quiet(7)));
    assert_eq!((quiet.0, verified(&quiet)), (8, payload));
    let crashy = || {
        plan(FaultConfig {
            crash_recv_prob: 0.3,
            ..FaultConfig::default()
        })
    };
    let lossy = register_once(8, 1, crashy());
    assert!(count(&lossy, "squirrel_fault_recv_crashes_total") > 0);
    assert_eq!((lossy.0, verified(&lossy)), (8, payload));
    // A flipped copy is refused by its frame digest before any proof.
    let flipped = |p, max_retries| {
        let config = FaultConfig {
            stream_corrupt_prob: p,
            max_retries,
            ..FaultConfig::default()
        };
        register_once(8, 1, plan(config))
    };
    let some = flipped(0.3, 4);
    assert!(count(&some, "squirrel_fault_stream_corruptions_total") > 0);
    assert_eq!((some.0, verified(&some)), (8, payload));
    let all = flipped(1.0, 1);
    assert_eq!(all.0, 0);
    assert_eq!(count(&all, "squirrel_fault_giveups_total"), 8);
    assert_eq!(verified(&all), 0);
    for threads in [2, 8] {
        assert_eq!(register_once(8, threads, None), clean, "threads={threads}");
        assert_eq!(
            register_once(8, threads, crashy()),
            lossy,
            "threads={threads}"
        );
    }
}

/// Register, boot, rot, repair, rejoin and re-register over the lossy path,
/// recording after each step what the ccVolumes really hashed
/// (`zpool_verify_hashed_bytes_total`) next to what their proofs covered.
fn proof_reuse_trail(threads: usize) -> (Vec<(&'static str, u64)>, MetricsSnapshot) {
    const BLOCK: u64 = 16 * 1024;
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        scale: 1024,
        ..CorpusConfig::test_corpus(8, 99)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(4)
            .block_size(BLOCK as usize)
            .threads(threads)
            .build(),
        corpus,
    );
    let counter =
        |sq: &Squirrel, series: &str| sq.metrics().snapshot().counter(series).unwrap_or(0);
    let hashed = |sq: &Squirrel| counter(sq, "zpool_verify_hashed_bytes_total{pool=\"ccvol\"}");
    let covered = |sq: &Squirrel| counter(sq, "zpool_recv_verified_bytes_total{pool=\"ccvol\"}");
    let compressed = |sq: &Squirrel| counter(sq, "zpool_compress_in_bytes_total{pool=\"scvol\"}");
    let mut trail = Vec::new();
    let mut last = 0u64;
    let mut step = |sq: &Squirrel, what: &'static str| {
        let now = hashed(sq);
        trail.push((what, now - last));
        last = now;
    };

    // A clean registration proves its payload once, for every receiver.
    sq.register(0).expect("r0");
    let payload0 = compressed(&sq);
    assert!(payload0 > 0);
    step(&sq, "register");
    // Every boot walks the whole cache file — and hashes none of it.
    for _ in 0..2 {
        assert!(sq.boot(1, 0).expect("boot").warm);
    }
    step(&sq, "two warm boots");
    // Rot is a new buffer on that node only: its next boot hashes exactly
    // that one record, finds it bad, and is served degraded.
    sq.corrupt_cc_block(1, 5).expect("victim");
    let sick = sq.boot(1, 0).expect("degraded boot");
    assert!(!sick.warm && sick.degraded);
    step(&sq, "boot on the rotted node");
    for node in [0, 2, 3] {
        assert!(sq.boot(node, 0).expect("boot").warm, "node {node}");
    }
    step(&sq, "boots elsewhere");
    // The repair installs the scVolume's frame — the buffer registration
    // proved — so scrub, repair and the warm boot after it hash nothing.
    let repair = sq.scrub_and_repair(1).expect("repair");
    assert!(repair.is_healed() && repair.repaired == 1, "{repair:?}");
    assert!(sq.boot(1, 0).expect("boot").warm);
    step(&sq, "scrub, repair, warm boot");
    // A rejoin's donor scrub and catch-up recv cover the diff again, on
    // buffers the registration the node missed already proved.
    sq.node_offline(3).expect("offline");
    sq.register(1).expect("r1");
    let payload1 = compressed(&sq) - payload0;
    step(&sq, "register while one node is away");
    let before = covered(&sq);
    sq.node_rejoin(3).expect("rejoin");
    assert!(covered(&sq) > before, "the catch-up stream was verified");
    step(&sq, "rejoin");
    // Over the lossy path the copy off the wire is new buffers, decoded
    // once for every receiver and proved by hashing it once.
    sq.set_fault_plan(FaultPlan::quiet(7));
    assert_eq!(sq.register(2).expect("r2").nodes_updated, 4);
    let payload2 = compressed(&sq) - payload0 - payload1;
    step(&sq, "register over the lossy path");

    assert!(payload1 > 0 && payload2 > 0);
    assert_eq!(
        trail,
        [
            ("register", payload0),
            ("two warm boots", 0),
            ("boot on the rotted node", BLOCK),
            ("boots elsewhere", 0),
            ("scrub, repair, warm boot", 0),
            ("register while one node is away", payload1),
            ("rejoin", 0),
            ("register over the lossy path", payload2),
        ]
    );
    (trail, sq.metrics().snapshot())
}

#[test]
fn a_stored_record_is_hashed_once_per_buffer_not_once_per_use() {
    let reference = proof_reuse_trail(1);
    for threads in [2, 8] {
        assert_eq!(proof_reuse_trail(threads), reference, "threads={threads}");
    }
}

/// What the ccVolumes really decompressed for reads, step by step, after
/// registering over the clean path or, with `plan`, the lossy one.
fn payload_reuse_trail(threads: usize, plan: Option<FaultPlan>) -> (Vec<u64>, MetricsSnapshot) {
    const BLOCK: u64 = 16 * 1024;
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        scale: 1024,
        ..CorpusConfig::test_corpus(8, 99)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(4)
            .block_size(BLOCK as usize)
            .threads(threads)
            .build(),
        corpus,
    );
    if let Some(plan) = plan {
        sq.set_fault_plan(plan);
    }
    assert_eq!(sq.register(0).expect("r0").nodes_updated, 4);
    let mut trail = Vec::new();
    let mut last = 0u64;
    let mut step = |sq: &Squirrel| {
        let now = sq
            .metrics()
            .snapshot()
            .counter("zpool_read_decompressed_bytes_total{pool=\"ccvol\"}")
            .expect("series");
        trail.push(now - last);
        last = now;
    };
    step(&sq);
    // Twelve VMs on four warm nodes read one working set: every node's ARC
    // misses each record once, and each record is decompressed once.
    let storm = sq.boot_storm(0, 12).expect("storm");
    let working_set = storm.blocks_per_vm * BLOCK;
    assert!(working_set > 0);
    assert_eq!(
        (storm.warm_vms, storm.arc.misses),
        (12, 4 * storm.blocks_per_vm)
    );
    step(&sq);
    // Nothing outlives the storm's own caches: the next one starts over.
    assert_eq!(sq.boot_storm(0, 12).expect("storm").arc, storm.arc);
    step(&sq);
    // A rotted record takes its node out of the warm set, not out of the
    // sharing: the three nodes left still decompress each record once.
    sq.corrupt_cc_block(1, 5).expect("victim");
    assert_eq!(sq.boot_storm(0, 12).expect("storm").warm_vms, 9);
    step(&sq);
    assert_eq!(trail, [0, working_set, working_set, working_set]);
    (trail, sq.metrics().snapshot())
}

#[test]
fn a_storm_decompresses_a_record_once_not_once_per_node() {
    let reference = payload_reuse_trail(1, None);
    for threads in [2, 8] {
        assert_eq!(
            payload_reuse_trail(threads, None),
            reference,
            "threads={threads}"
        );
    }
}

/// The copy a lossy registration decodes off the wire is one set of frames
/// in every receiver's DDT, so a storm over them decompresses a record once
/// fleet-wide, as after a clean registration.
#[test]
fn receivers_of_a_lossy_registration_share_frames() {
    let reference = payload_reuse_trail(1, Some(FaultPlan::quiet(7)));
    for threads in [2, 8] {
        let trail = payload_reuse_trail(threads, Some(FaultPlan::quiet(7)));
        assert_eq!(trail, reference, "threads={threads}");
    }
}

/// Boot replays `Squirrel::simulate` ran after registering image 0 on four
/// nodes, then after each of two storms over it.
fn replay_trail(threads: usize) -> (Vec<u64>, MetricsSnapshot) {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        scale: 1024,
        ..CorpusConfig::test_corpus(8, 99)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(4)
            .block_size(16 * 1024)
            .threads(threads)
            .build(),
        corpus,
    );
    let replays = |sq: &Squirrel| {
        sq.metrics()
            .snapshot()
            .counter("squirrel_boot_sim_replays_total")
            .unwrap_or(0)
    };
    sq.register(0).expect("r0");
    let mut trail = vec![replays(&sq)];
    for _ in 0..2 {
        assert_eq!(sq.boot_storm(0, 12).expect("storm").warm_vms, 12);
        trail.push(replays(&sq));
    }
    // Registration's first boot replays the cold path; four nodes holding
    // the same hoard derive one warm backend, replayed once for the first
    // storm's twelve VMs and remembered for the second's.
    assert_eq!(trail, [1, 2, 2]);
    (trail, sq.metrics().snapshot())
}

#[test]
fn a_storm_over_equal_pools_replays_once() {
    let reference = replay_trail(1);
    for threads in [2, 8] {
        assert_eq!(replay_trail(threads), reference, "threads={threads}");
    }
}

#[test]
fn one_snapshot_answers_the_acceptance_questions() {
    // One `snapshot()` call after the quickstart workflow must report the
    // register wire bytes, per-node boot hit/miss counts, DDT size, and
    // the copies a storm's shared reads avoided.
    let sq = run_workflows(0);
    let snap = sq.metrics().snapshot();
    assert!(
        snap.counter("squirrel_register_wire_bytes_total")
            .expect("wire")
            > 0
    );
    assert_eq!(
        snap.counter("squirrel_boot_total{node=\"0\",result=\"warm\"}"),
        Some(1)
    );
    assert_eq!(
        snap.counter("squirrel_boot_total{node=\"0\",result=\"cold\"}"),
        Some(1)
    );
    assert_eq!(
        snap.counter("squirrel_boot_total{node=\"2\",result=\"warm\"}"),
        Some(1)
    );
    assert!(snap.gauge_u64("squirrel_scvol_ddt_entries").expect("ddt") > 0);
    let avoided = snap
        .counter("squirrel_boot_storm_copies_avoided_total")
        .expect("storm");
    assert!(avoided > 0, "VMs sharing a node must share its buffers");
}

#[test]
fn real_system_snapshot_json_parses_and_lists_every_series() {
    let snap = run_workflows(0).metrics().snapshot();
    let json = Json::parse(&snap.to_json()).expect("json parse");
    let section = |name: &str| json.get(name).and_then(|s| s.as_arr(name)).expect(name);
    let counters: Vec<(&str, u64)> = section("counters")
        .iter()
        .map(|row| match row.as_arr("counter row").expect("row") {
            [name, value] => (
                name.as_str("name").expect("name"),
                value.as_u64("value").expect("value"),
            ),
            _ => panic!("counter row {row:?}"),
        })
        .collect();
    let want: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .map(|(name, v)| (name.as_str(), *v))
        .collect();
    assert!(!want.is_empty());
    assert_eq!(counters, want);
    assert_eq!(section("gauges").len(), snap.gauges.len());
    assert_eq!(section("histograms").len(), snap.histograms.len());
    assert_eq!(section("events").len(), snap.events.len());
}

#[test]
fn disabled_metrics_skip_the_whole_pipeline() {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        n_images: 4,
        scale: 2048,
        ..CorpusConfig::azure(2048, 99)
    }));
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(2)
            .block_size(16 * 1024)
            .metrics(false)
            .build(),
        corpus,
    );
    sq.register(0).expect("register");
    sq.boot(1, 0).expect("boot");
    let _ = sq.gc();
    assert_eq!(sq.metrics().snapshot(), MetricsSnapshot::default());
    assert!(sq.metrics().wall_times().is_empty());
}
