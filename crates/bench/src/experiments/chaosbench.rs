//! Chaos-soak bench: a non-elastic fleet run through simulated days of
//! register/boot/gc under a seeded [`FaultPlan`](squirrel_core::FaultPlan)
//! — churn, partitions and bit rot from the daily fault tick, the
//! self-healing workflows on the fleet driver's cadences — ended by
//! `Squirrel::converge` (`squirrel_core::soak_fleet`).
//!
//! For each worker-thread count the soak replays the *same* fault schedule
//! on a fresh system; report, convergence outcome and metric snapshot must
//! compare equal, and each run must converge to a consistent, scrub-clean
//! state. Both properties are asserted here, so a passing bench *is* the
//! acceptance check. The topology bench runs its multi-rack soak through
//! the same [`sweep_soak`] and persists the same [`soak_json`] fragment.
//!
//! Results land in `results/BENCH_chaos.json`.

use crate::config::ExperimentConfig;
use crate::experiments::bootstorm::{runs_json, sweep_equal, SweepRun};
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

/// Soak `scenario` at every thread count of the sweep; every run must end
/// converged and scrub-clean, and all of them must compare equal.
pub fn sweep_soak(cfg: &ExperimentConfig, scenario: FleetConfig) -> Vec<SweepRun<Soak>> {
    let runs = sweep_equal(cfg, |threads| soak_fleet(&FleetConfig { threads, ..scenario }));
    for run in &runs {
        let (_, c, _) = &run.outcome;
        assert!(c.converged, "threads={}: soak did not converge", run.threads);
        assert!(c.scrub_clean, "threads={}: pools not scrub-clean", run.threads);
    }
    runs
}

/// The soak outcome as JSON members (hand-rolled: the workspace is std-only
/// by policy). Repair, EC and domain tallies are the system's own counters
/// over the whole run, `converge` included.
pub fn soak_json((r, c, snap): &Soak) -> String {
    let f = &r.fault;
    let n = |series: &str| snap.counter_sum(series);
    format!(
        "  \"converged\": {},\n  \"scrub_clean\": {},\n  \"consistent_before\": {},\n  \
         \"deterministic_across_threads\": true,\n  \
         \"read_checksum\": \"{}\",\n  \
         \"faults_injected\": {},\n  \
         \"fault_breakdown\": {{\"net_drops\": {}, \"net_duplicates\": {}, \
         \"net_transients\": {}, \"stream_corruptions\": {}, \"recv_crashes\": {}, \
         \"block_corruptions\": {}, \"offlines\": {}, \"rejoins\": {}, \"flaps\": {}, \
         \"partitions\": {}, \"heals\": {}, \"retries\": {}, \"giveups\": {}}},\n  \
         \"domains\": {{\"rack_outages\": {}, \"dc_outages\": {}, \"ec_degraded_reads\": {}, \
         \"ec_shards_reconstructed\": {}, \"ec_shards_rematerialized\": {}, \
         \"ec_repair_bytes\": {}, \"ec_cross_domain_repair_bytes\": {}}},\n  \
         \"repair\": {{\"blocks_repaired\": {}, \"blocks_unrepaired\": {}, \
         \"refetch_bytes\": {}, \"sync_repaired_nodes\": {}, \"rejoin_failures\": {}}},\n  \
         \"workflows\": {{\"days\": {}, \"events\": {}, \"boots\": {}, \"warm_boots\": {}, \
         \"degraded_boots\": {}, \"failed_boots\": {}, \"storms\": {}, \"evictions\": {}}}",
        c.converged,
        c.scrub_clean,
        c.consistent_before,
        r.read_checksum,
        f.total_injected(),
        f.net_drops,
        f.net_duplicates,
        f.net_transients,
        f.stream_corruptions,
        f.recv_crashes,
        f.block_corruptions,
        f.offlines,
        f.rejoins,
        f.flaps,
        f.partitions,
        f.heals,
        f.retries,
        f.giveups,
        f.rack_downs,
        f.dc_downs,
        n("squirrel_ec_degraded_reads_total"),
        n("squirrel_ec_shards_reconstructed_total"),
        n("squirrel_ec_shards_rematerialized_total"),
        n("squirrel_ec_repair_bytes_total"),
        n("squirrel_ec_cross_domain_repair_bytes_total"),
        n("squirrel_repair_blocks_total"),
        n("squirrel_repair_unrepaired_total"),
        n("squirrel_repair_bytes_total"),
        n("squirrel_repair_sync_nodes_total"),
        c.rejoin_failures,
        r.days.len(),
        r.events,
        r.boots,
        r.warm_boots,
        r.degraded_boots,
        r.failed_boots,
        r.storms,
        r.evictions + c.evictions,
    )
}

/// Sweep the thread counts, assert convergence and bit-identical outcomes,
/// and persist `BENCH_chaos.json` under the configured output directory.
pub fn run_chaos(cfg: &ExperimentConfig) -> Vec<SweepRun<Soak>> {
    // One image registers per day; more than `SOAK_DAYS` never land.
    let runs = sweep_soak(cfg, chaos_scenario(cfg, SOAK_DAYS, SOAK_NODES, cfg.images.min(12)));
    for run in &runs {
        let (r, c, snap) = &run.outcome;
        println!(
            "chaos threads={}: {} days, {} faults injected, {} blocks repaired, \
             {} nodes re-synced, {} degraded boots; converged={} ({:.2}s wall)",
            run.threads,
            r.days.len(),
            r.fault.total_injected(),
            snap.counter_sum("squirrel_repair_blocks_total"),
            snap.counter_sum("squirrel_repair_sync_nodes_total"),
            r.degraded_boots,
            c.converged,
            run.wall_secs,
        );
    }

    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = std::path::Path::new(dir).join("BENCH_chaos.json");
        std::fs::write(&path, render_json(cfg, &runs)).expect("write BENCH_chaos.json");
        println!("chaos bench written to {}", path.display());
    }
    runs
}

fn render_json(cfg: &ExperimentConfig, runs: &[SweepRun<Soak>]) -> String {
    format!(
        "{{\n  \"seed\": {},\n  \"nodes\": {SOAK_NODES},\n{},\n  \"runs\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        soak_json(&runs[0].outcome),
        runs_json(runs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_sweep_converges_and_json_has_the_acceptance_fields() {
        let cfg = ExperimentConfig::smoke();
        let runs = run_chaos(&cfg);
        assert_eq!(runs.len(), 3);
        assert!(runs[0].outcome.0.fault.total_injected() > 0);
        let json = render_json(&cfg, &runs);
        for key in [
            "\"converged\": true",
            "\"scrub_clean\": true",
            "\"deterministic_across_threads\": true",
            "\"faults_injected\"",
            "\"blocks_repaired\"",
            "\"read_checksum\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
