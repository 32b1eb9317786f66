//! Cross-crate chaos: the full Squirrel stack soaked under a seeded fault
//! plan — dropped and duplicated transfers, in-flight bit flips, crashed
//! receives, rotten blocks, node churn, partitions and rack outages — on
//! the fleet driver, with the self-healing workflows run on its cadences.
//!
//! The contract under test: for a pinned seed the whole run — report,
//! convergence outcome and metric snapshot — is bit-identical at any
//! worker-thread count, and `Squirrel::converge` leaves a consistent,
//! scrub-clean system behind.

use squirrel_repro::core::{
    soak_fleet, Convergence, DistributionPolicy, FleetConfig, FleetReport, HoardBudget,
    SharedStorage, TopologyConfig,
};
use squirrel_repro::faults::FaultConfig;
use squirrel_repro::obs::MetricsSnapshot;

/// `read_checksum`s of the seed-2014 flat and erasure-coded scenarios: a
/// change to the driver, the repair stack or anything under them must
/// replay these exact trajectories.
const PINNED_FLAT: &str = "2bb07f6ae7079886d66ed6b3f223fde6369fbe3cade55c3b68cc23d797e58d03";
const PINNED_EC: &str = "7950499c5690b9ed2e8e8e16d6df5090115755c49e5fbb6899a8a7109d890900";

/// A chaos scenario is a plain `FleetConfig`: a non-elastic five-node
/// fleet, one registration a day, light demand, a storm every fifth day
/// and a repair sweep every third.
fn flat(seed: u64) -> FleetConfig {
    FleetConfig {
        days: 12,
        images: 6,
        nodes: 5,
        min_online: 5,
        seed,
        threads: 1,
        boots_per_day: 6,
        registrations_per_day: 1,
        storm_every_days: 5,
        storm_vms: 8,
        repair_every_days: 3,
        faults: FaultConfig::chaos(),
        ..FleetConfig::default()
    }
}

/// The same scenario on four racks over two datacenters with 4+2 erasure
/// coding (a whole rack holds at most m = 2 shards of any stripe) and
/// correlated domain outages armed.
fn ec(seed: u64) -> FleetConfig {
    FleetConfig {
        topology: TopologyConfig {
            regions: 1,
            dcs_per_region: 2,
            racks_per_dc: 2,
        },
        storage_nodes: 8,
        storage: SharedStorage::ErasureCoded { k: 4, m: 2 },
        faults: FaultConfig::chaos_with_domains(),
        ..flat(seed)
    }
}

/// Tight enough that every registration pushes nodes over. With a budget
/// the repair stack does not reach a fixed point on every seed (ROADMAP
/// item 1), so budgeted scenarios pin seed 7, where it does.
const TIGHT: HoardBudget = HoardBudget {
    disk_bytes: 40 * 1024,
    ddt_mem_bytes: 0,
};

/// Run `cfg` at threads 1, 2 and 8, assert the whole outcome is equal, and
/// hand back the reference.
fn thread_invariant(cfg: FleetConfig) -> (FleetReport, Convergence, MetricsSnapshot) {
    let reference = soak_fleet(&FleetConfig { threads: 1, ..cfg });
    for threads in [2, 8] {
        assert_eq!(
            soak_fleet(&FleetConfig { threads, ..cfg }),
            reference,
            "threads={threads}"
        );
    }
    reference
}

#[test]
fn flat_seed_sweep_converges_with_the_domain_machinery_silent() {
    for seed in 1..=16 {
        let (r, c, snap) = soak_fleet(&flat(seed));
        assert!(c.converged && c.scrub_clean, "seed {seed}: {c:?}");
        assert!(r.fault.total_injected() > 0, "chaos must inject faults");
        assert_eq!(r.fault.rack_downs + r.fault.dc_downs, 0);
        for (name, v) in &snap.counters {
            let domain = name.starts_with("squirrel_domain_") || name.starts_with("squirrel_ec_");
            assert!(!domain || *v == 0, "seed {seed}: {name} = {v}");
        }
    }
}

#[test]
fn erasure_coded_seed_sweep_converges_through_rack_loss() {
    let mut rack_loss_repaired = false;
    for seed in 1..=16 {
        let (r, c, snap) = soak_fleet(&ec(seed));
        assert!(c.converged && c.scrub_clean, "seed {seed}: {c:?}");
        rack_loss_repaired |=
            r.fault.rack_downs > 0 && snap.counter_sum("squirrel_ec_repair_bytes_total") > 0;
    }
    assert!(
        rack_loss_repaired,
        "no seed lost a rack and repaired shards"
    );
}

#[test]
fn pinned_flat_scenario_replays_at_any_thread_count() {
    let (r, c, _) = thread_invariant(flat(2014));
    assert!(c.converged && c.scrub_clean, "{c:?}");
    assert_eq!(r.days.iter().map(|d| d.registrations).sum::<u64>(), 6);
    assert_eq!(r.read_checksum, PINNED_FLAT);
    assert_eq!(soak_fleet(&flat(2014)).0, r, "same seed, same report");
    assert_ne!(
        soak_fleet(&flat(12)).0.fault,
        r.fault,
        "different seeds, different schedules"
    );
}

#[test]
fn pinned_ec_scenario_survives_rack_loss_at_any_thread_count() {
    let (r, c, snap) = thread_invariant(ec(2014));
    assert!(c.converged && c.scrub_clean, "every shard healed: {c:?}");
    assert!(
        r.fault.rack_downs > 0,
        "domain chaos must take racks down: {:?}",
        r.fault
    );
    assert_eq!(
        snap.counter("squirrel_domain_rack_downs_total"),
        Some(r.fault.rack_downs)
    );
    assert!(snap.counter_sum("squirrel_ec_shards_rematerialized_total") > 0);
    assert!(snap.counter_sum("squirrel_ec_repair_bytes_total") > 0);
    assert_eq!(r.read_checksum, PINNED_EC);
}

#[test]
fn budget_pressure_converges_at_any_thread_count() {
    let (r, c, _) = thread_invariant(FleetConfig {
        budget: TIGHT,
        ..flat(7)
    });
    assert!(r.evictions > 0, "pressure must force evictions: {r:?}");
    assert!(c.within_budget && c.converged && c.scrub_clean, "{c:?}");
    // The budgeted run is a different trajectory than the unlimited one.
    let (unlimited, c, _) = soak_fleet(&flat(7));
    assert_eq!(unlimited.evictions, 0);
    assert!(c.within_budget && c.evictions == 0);
    assert_ne!(r.read_checksum, unlimited.read_checksum);
}

#[test]
fn peer_assisted_budgeted_ec_scenario_is_thread_invariant() {
    let cfg = FleetConfig {
        budget: TIGHT,
        distribution: DistributionPolicy::PeerAssisted,
        ..ec(7)
    };
    let (r, c, _) = thread_invariant(cfg);
    assert!(r.evictions > 0 && r.peer_bytes > 0, "{r:?}");
    assert!(c.within_budget && c.converged && c.scrub_clean, "{c:?}");
}

#[test]
fn every_distribution_policy_survives_the_soak() {
    for policy in DistributionPolicy::standard_set() {
        let (_, c, _) = soak_fleet(&FleetConfig {
            distribution: policy,
            ..flat(11)
        });
        assert!(c.converged && c.scrub_clean, "{}: {c:?}", policy.name());
    }
}

#[test]
fn heavy_loss_plan_still_heals() {
    let heavy = FaultConfig {
        drop_prob: 0.30,
        stream_corrupt_prob: 0.20,
        crash_recv_prob: 0.15,
        block_corrupt_prob: 0.60,
        ..FaultConfig::chaos()
    };
    let (r, c, _) = soak_fleet(&FleetConfig {
        faults: heavy,
        ..flat(7)
    });
    assert!(c.converged && c.scrub_clean, "{c:?}");
    let repaired = r.blocks_repaired + c.repair.blocks.repaired;
    assert!(repaired > 0 || r.fault.block_corruptions == 0, "{r:?}");
}

#[test]
fn quiet_plan_stays_warm_and_repairs_nothing() {
    let (r, c, _) = soak_fleet(&FleetConfig {
        faults: FaultConfig::default(),
        ..flat(3)
    });
    assert!(c.converged && c.scrub_clean, "{c:?}");
    assert_eq!(r.fault.total_injected(), 0, "{:?}", r.fault);
    assert_eq!(r.degraded_boots, 0);
    assert_eq!(r.blocks_repaired + c.repair.blocks.repaired, 0);
    assert!(c.consistent_before, "nothing ever went out of sync");
    assert_eq!(c.rejoin_failures, 0);
}
