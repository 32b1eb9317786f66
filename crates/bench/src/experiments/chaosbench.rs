//! Chaos-soak bench: a non-elastic fleet run through simulated days of
//! register/boot/gc under a seeded [`FaultPlan`](squirrel_core::FaultPlan)
//! — churn, partitions and bit rot from the daily fault tick, the
//! self-healing workflows on the fleet driver's cadences — ended by
//! `Squirrel::converge` (`squirrel_core::soak_fleet`).
//!
//! For each worker-thread count the soak replays the *same* fault schedule
//! on a fresh system; report, convergence outcome and metric snapshot must
//! compare equal (`deterministic_across_threads`), and the run must end in
//! a consistent, scrub-clean state (`converged`, `scrub_clean`) having
//! injected at least one fault (`faults_injected`). The topology bench runs
//! its multi-rack soak through the same [`sweep_soak`] and reports it with
//! the same [`soak_gates`] and [`soak_block`].

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record, Sweep};
use squirrel_core::{soak_fleet, Convergence, FaultConfig, FleetConfig, FleetReport};
use squirrel_obs::MetricsSnapshot;

/// Soak length in simulated days.
pub const SOAK_DAYS: u64 = 15;
/// Compute nodes under churn.
pub const SOAK_NODES: u32 = 6;

/// What one soak leaves behind: the driver's report, what `converge`
/// found, and the final metrics (where the repair / EC tallies live).
pub type Soak = (FleetReport, Convergence, MetricsSnapshot);

/// The chaos cadences on a non-elastic fleet of `nodes`: one registration
/// a day, light demand, a storm every fifth day, a repair sweep every
/// third. Callers set the topology, storage tier and fault schedule.
pub fn chaos_scenario(cfg: &ExperimentConfig, days: u64, nodes: u32, images: u32) -> FleetConfig {
    FleetConfig {
        days,
        images,
        scale: cfg.scale.max(8192),
        nodes,
        min_online: nodes,
        seed: cfg.seed,
        boots_per_day: 12,
        registrations_per_day: 1,
        storm_every_days: 5,
        storm_vms: 8,
        repair_every_days: 3,
        faults: FaultConfig::chaos(),
        ..FleetConfig::default()
    }
}

/// Soak `scenario` at every thread count of the sweep.
pub fn sweep_soak(cfg: &ExperimentConfig, scenario: FleetConfig) -> Sweep<Soak> {
    sweep_equal(cfg, |threads| soak_fleet(&FleetConfig { threads, ..scenario }))
}

/// The gates every soak carries: it ended consistent and scrub-clean, and
/// replayed bit-identically at every thread count.
pub fn soak_gates(sweep: &Sweep<Soak>) -> Vec<(&'static str, bool)> {
    let (_, c, _) = &sweep.outcome;
    vec![
        ("converged", c.converged),
        ("scrub_clean", c.scrub_clean),
        ("deterministic_across_threads", sweep.deterministic),
    ]
}

/// The soak outcome as a JSON object. Repair, EC and domain tallies are the
/// system's own counters over the whole run, `converge` included.
pub fn soak_block((r, c, snap): &Soak) -> Json {
    let f = &r.fault;
    let n = |series: &str| snap.counter_sum(series);
    json_obj! {
        c => [consistent_before],
        r => [read_checksum],
        "faults_injected": f.total_injected(),
        "fault_breakdown": json_obj! {
            f => [net_drops, net_duplicates, net_transients, stream_corruptions, recv_crashes,
                  block_corruptions, offlines, rejoins, flaps, partitions, heals, retries, giveups],
        },
        "domains": json_obj! {
            "rack_outages": f.rack_downs,
            "dc_outages": f.dc_downs,
            "ec_degraded_reads": n("squirrel_ec_degraded_reads_total"),
            "ec_shards_reconstructed": n("squirrel_ec_shards_reconstructed_total"),
            "ec_shards_rematerialized": n("squirrel_ec_shards_rematerialized_total"),
            "ec_repair_bytes": n("squirrel_ec_repair_bytes_total"),
            "ec_cross_domain_repair_bytes": n("squirrel_ec_cross_domain_repair_bytes_total"),
        },
        "repair": json_obj! {
            "blocks_repaired": n("squirrel_repair_blocks_total"),
            "blocks_unrepaired": n("squirrel_repair_unrepaired_total"),
            "refetch_bytes": n("squirrel_repair_bytes_total"),
            "sync_repaired_nodes": n("squirrel_repair_sync_nodes_total"),
            c => [rejoin_failures],
        },
        "workflows": json_obj! {
            "days": r.days.len(),
            r => [events, boots, warm_boots, degraded_boots, failed_boots, storms],
            "evictions": r.evictions + c.evictions,
        },
    }
}

/// Sweep the thread counts and report the soak as a [`Record`].
pub fn run_chaos(cfg: &ExperimentConfig) -> Record {
    // One image registers per day; more than `SOAK_DAYS` never land.
    let scenario = chaos_scenario(cfg, SOAK_DAYS, SOAK_NODES, cfg.images.min(12));
    let sweep = sweep_soak(cfg, scenario);
    let mut gates = soak_gates(&sweep);
    // Chaos actually happened: the plan injected a nonzero number of faults.
    gates.push(("faults_injected", sweep.outcome.0.fault.total_injected() > 0));
    Record {
        experiment: "chaos",
        paper: false,
        params: json_obj! {scenario => [images, scale, seed, nodes, days]},
        gates,
        deterministic: soak_block(&sweep.outcome),
    }
}
