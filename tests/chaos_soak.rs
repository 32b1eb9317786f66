//! Cross-crate chaos: the full Squirrel stack soaked under a seeded fault
//! plan — dropped and duplicated transfers, in-flight bit flips, crashed
//! receives, rotten blocks, node churn and network partitions — with the
//! self-healing workflows (transactional recv, retry-with-backoff,
//! scrub-and-repair, replication catch-up, degraded boot) run on a cadence.
//!
//! The contract under test: for a pinned seed the whole run is bit-identical
//! at any worker-thread count, and the system converges to a consistent,
//! scrub-clean state once every link heals and the final repair pass runs.

use squirrel_repro::core::{chaos_soak, ChaosConfig, SharedStorage, TopologyConfig};
use squirrel_repro::faults::FaultConfig;

/// `read_checksum`s recorded before the soak loops were refactored: a change
/// to the soak, the repair stack or anything under them must replay these
/// exact trajectories.
const PINNED_FLAT: &str = "e0a967a9c6b6dd4396661e75e081bccce0e1695454b990df7f85afba4ab86ee4";
const PINNED_EC: &str = "38933f76c62ef2f8deb1eeacf1cba6a11e0924e8e81f21ed5738f365fc1b8057";

fn soak(seed: u64, threads: usize) -> ChaosConfig {
    ChaosConfig { days: 12, images: 6, nodes: 5, seed, threads, ..ChaosConfig::default() }
}

#[test]
fn chaos_soak_converges_and_is_thread_invariant() {
    let reference = chaos_soak(&soak(2014, 1));
    assert!(reference.converged, "{reference:?}");
    assert!(reference.scrub_clean, "{reference:?}");
    assert!(reference.fault.total_injected() > 0, "chaos must inject faults");
    assert_eq!(reference.registrations, 6);
    assert_eq!(reference.read_checksum, PINNED_FLAT);
    for threads in [2, 8] {
        assert_eq!(chaos_soak(&soak(2014, threads)), reference, "threads={threads}");
    }
}

/// The multi-rack, erasure-coded trajectory: domain outages, shard rot, EC
/// repair.
#[test]
fn ec_chaos_soak_replays_its_pinned_trajectory() {
    let r = chaos_soak(&ChaosConfig {
        topology: TopologyConfig { regions: 1, dcs_per_region: 2, racks_per_dc: 2 },
        storage_nodes: 8,
        storage: SharedStorage::ErasureCoded { k: 4, m: 2 },
        faults: FaultConfig::chaos_with_domains(),
        ..soak(2014, 1)
    });
    assert!(r.rack_outages > 0 && r.ec_repair_bytes > 0, "{r:?}");
    assert_eq!(r.read_checksum, PINNED_EC);
}

#[test]
fn chaos_soak_heals_even_under_heavy_loss() {
    let heavy = FaultConfig {
        drop_prob: 0.30,
        stream_corrupt_prob: 0.20,
        crash_recv_prob: 0.15,
        block_corrupt_prob: 0.60,
        ..FaultConfig::chaos()
    };
    let r = chaos_soak(&ChaosConfig { faults: heavy, ..soak(7, 1) });
    assert!(r.converged, "{r:?}");
    assert!(r.scrub_clean, "{r:?}");
    assert!(r.blocks_repaired > 0 || r.fault.block_corruptions == 0, "{r:?}");
}

#[test]
fn quiet_plan_soak_stays_warm_and_repairs_nothing() {
    let quiet = ChaosConfig { faults: FaultConfig::default(), ..soak(3, 1) };
    let r = chaos_soak(&quiet);
    assert!(r.converged && r.scrub_clean, "{r:?}");
    assert_eq!(r.fault.total_injected(), 0, "{:?}", r.fault);
    assert_eq!(r.degraded_boots, 0);
    assert_eq!(r.blocks_repaired, 0);
    assert!(r.consistent_before_final_repair, "nothing ever went out of sync");
}
