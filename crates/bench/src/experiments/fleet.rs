//! Fleet-scale traffic soak (`squirrel_core::run_fleet`): Zipf + diurnal
//! demand over an elastic fleet on the discrete-event scheduler, swept over
//! fleet size × distribution policy.
//!
//! Each cell runs the same seeded three-day scenario — catalog rollout,
//! per-hour autoscaling with rejoin re-hoarding, boot storms, nightly
//! decay/GC/scrub — under *unicast* and *peer-assisted* distribution. The
//! demand trajectory is policy-invariant (policies only change which ledger
//! a byte lands in), so degraded-boot rates must be **exactly** equal while
//! peer-assisted must move strictly fewer storage-tier bytes per day.
//!
//! Every cell repeats at each worker-thread count; the [`FleetReport`]s and
//! metric snapshots must be bit-identical across the sweep.
//!
//! Results land in `results/BENCH_fleet.json`.

use crate::config::ExperimentConfig;
use crate::experiments::bootstorm::{runs_json, sweep_equal, SweepRun};
use squirrel_core::{run_fleet_with_metrics, DistributionPolicy, FleetConfig, FleetReport};

/// Fleet sizes swept (compute-node slots).
pub const FLEET_NODE_COUNTS: [u32; 2] = [100, 1000];
/// Simulated days per soak.
pub const FLEET_DAYS: u64 = 3;
/// The policies compared: the naive baseline and the paper-favoured one.
pub const FLEET_POLICIES: [DistributionPolicy; 2] =
    [DistributionPolicy::Unicast, DistributionPolicy::PeerAssisted];

/// One (fleet size, policy) soak. Equality across thread counts is the
/// determinism witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetCell {
    pub nodes: u32,
    pub policy: DistributionPolicy,
    pub report: FleetReport,
}

/// One thread count's full sweep: every cell and its final metrics.
pub type FleetSweep = (Vec<FleetCell>, Vec<squirrel_obs::MetricsSnapshot>);

/// Scenario shape for one cell. Faults stay quiet and the budget unlimited
/// so the demand trajectory — and with it the degraded-boot rate — is
/// identical under every policy; the decay/budget/chaos machinery is
/// exercised by the core and facade soak tests instead.
fn fleet_config(
    cfg: &ExperimentConfig,
    nodes: u32,
    policy: DistributionPolicy,
    threads: usize,
) -> FleetConfig {
    FleetConfig {
        days: FLEET_DAYS,
        images: cfg.images.min(12),
        scale: cfg.scale.max(8192),
        nodes,
        min_online: (nodes / 10).clamp(4, nodes),
        seed: cfg.seed,
        threads,
        boots_per_day: (nodes / 2).clamp(24, 512),
        storm_vms: nodes.min(16),
        distribution: policy,
        ..FleetConfig::default()
    }
}

/// One thread count's sweep over every fleet size × policy.
fn sweep_once(
    cfg: &ExperimentConfig,
    node_counts: &[u32],
    threads: usize,
) -> FleetSweep {
    let mut cells = Vec::new();
    let mut snaps = Vec::new();
    for &nodes in node_counts {
        for policy in FLEET_POLICIES {
            let fc = fleet_config(cfg, nodes, policy, threads);
            let (report, snap) = run_fleet_with_metrics(&fc);
            cells.push(FleetCell { nodes, policy, report });
            snaps.push(snap);
        }
    }
    (cells, snaps)
}

/// Whole-sweep acceptance gates, computed from the reference run's cells.
struct Gates {
    p99_finite: bool,
    degraded_rate_bounded: bool,
    degraded_rates_equal: bool,
    peer_storage_below_unicast: bool,
}

fn gates(cells: &[FleetCell]) -> Gates {
    let pair = |nodes: u32, policy: DistributionPolicy| {
        cells
            .iter()
            .find(|c| c.nodes == nodes && c.policy == policy)
            .map(|c| &c.report)
    };
    let mut node_counts: Vec<u32> = cells.iter().map(|c| c.nodes).collect();
    node_counts.dedup();
    let mut degraded_rates_equal = true;
    let mut peer_storage_below_unicast = true;
    for nodes in node_counts {
        let (Some(uni), Some(peer)) = (
            pair(nodes, DistributionPolicy::Unicast),
            pair(nodes, DistributionPolicy::PeerAssisted),
        ) else {
            continue;
        };
        degraded_rates_equal &= uni.degraded_per_10k == peer.degraded_per_10k;
        peer_storage_below_unicast &=
            peer.storage_bytes_per_day() < uni.storage_bytes_per_day();
    }
    Gates {
        p99_finite: cells
            .iter()
            .all(|c| c.report.p99_boot_ms > 0 && c.report.p99_boot_ms < 3_600_000),
        degraded_rate_bounded: cells.iter().all(|c| c.report.degraded_per_10k <= 500),
        degraded_rates_equal,
        peer_storage_below_unicast,
    }
}

/// Sweep the thread counts, assert determinism and the policy gates, and
/// persist `BENCH_fleet.json`.
pub fn run_fleet_bench(cfg: &ExperimentConfig, node_counts: &[u32]) -> Vec<SweepRun<FleetSweep>> {
    let runs = sweep_equal(cfg, |threads| sweep_once(cfg, node_counts, threads));
    let cells = &runs[0].outcome.0;

    let g = gates(cells);
    assert!(g.p99_finite, "p99 out of range: {cells:#?}");
    assert!(g.degraded_rate_bounded, "degraded rate unbounded: {cells:#?}");
    assert!(g.degraded_rates_equal, "policies changed the demand outcome");
    assert!(
        g.peer_storage_below_unicast,
        "peer-assisted failed to relieve the storage tier"
    );

    for cell in cells {
        let r = &cell.report;
        println!(
            "fleet nodes={} policy={}: {} boots ({} warm, {} degraded, {} failed), \
             p50 {} ms, p99 {} ms, {} storage B/day, {} peer B, {} joins/{} leaves",
            cell.nodes,
            cell.policy.name(),
            r.boots,
            r.warm_boots,
            r.degraded_boots,
            r.failed_boots,
            r.p50_boot_ms,
            r.p99_boot_ms,
            r.storage_bytes_per_day(),
            r.peer_bytes,
            r.joins,
            r.leaves,
        );
    }

    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = std::path::Path::new(dir).join("BENCH_fleet.json");
        std::fs::write(&path, render_json(cfg, &runs)).expect("write BENCH_fleet.json");
        println!("fleet bench written to {}", path.display());
    }
    runs
}

/// Hand-rolled JSON (the workspace is std-only by policy). The acceptance
/// booleans are recomputed from the cells, not echoed from the asserts.
fn render_json(cfg: &ExperimentConfig, runs: &[SweepRun<FleetSweep>]) -> String {
    let cells = &runs[0].outcome.0;
    let g = gates(cells);
    let cell_entries: Vec<String> = cells
        .iter()
        .map(|c| {
            let r = &c.report;
            let day_rows: Vec<String> = r
                .days
                .iter()
                .map(|d| {
                    format!(
                        "      {{\"day\": {}, \"boots\": {}, \"warm_boots\": {}, \
                         \"degraded_boots\": {}, \"failed_boots\": {}, \
                         \"p50_boot_ms\": {}, \"p99_boot_ms\": {}, \
                         \"storage_tier_bytes\": {}, \"peer_bytes\": {}, \
                         \"joins\": {}, \"leaves\": {}}}",
                        d.day,
                        d.boots,
                        d.warm_boots,
                        d.degraded_boots,
                        d.failed_boots,
                        d.p50_boot_ms,
                        d.p99_boot_ms,
                        d.storage_tier_bytes,
                        d.peer_bytes,
                        d.joins,
                        d.leaves,
                    )
                })
                .collect();
            format!(
                "    {{\"policy\": \"{}\", \"nodes\": {}, \"events\": {}, \
                 \"boots\": {}, \"warm_boots\": {}, \"degraded_boots\": {}, \
                 \"failed_boots\": {}, \"storms\": {}, \"p50_boot_ms\": {}, \
                 \"p99_boot_ms\": {}, \"degraded_per_10k\": {}, \
                 \"storage_tier_bytes\": {}, \"storage_bytes_per_day\": {}, \
                 \"peer_bytes\": {}, \"joins\": {}, \"leaves\": {}, \
                 \"evictions\": {}, \"popularity_decays\": {}, \
                 \"read_checksum\": \"{}\",\n     \"days\": [\n{}\n    ]}}",
                c.policy.name(),
                c.nodes,
                r.events,
                r.boots,
                r.warm_boots,
                r.degraded_boots,
                r.failed_boots,
                r.storms,
                r.p50_boot_ms,
                r.p99_boot_ms,
                r.degraded_per_10k,
                r.storage_tier_bytes,
                r.storage_bytes_per_day(),
                r.peer_bytes,
                r.joins,
                r.leaves,
                r.evictions,
                r.popularity_decays,
                r.read_checksum,
                day_rows.join(",\n"),
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {},\n  \"days\": {FLEET_DAYS},\n  \
         \"deterministic_across_threads\": true,\n  \
         \"p99_finite\": {},\n  \
         \"degraded_rate_bounded\": {},\n  \
         \"degraded_rates_equal\": {},\n  \
         \"peer_storage_below_unicast\": {},\n  \
         \"cells\": [\n{}\n  ],\n  \"runs\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        g.p99_finite,
        g.degraded_rate_bounded,
        g.degraded_rates_equal,
        g.peer_storage_below_unicast,
        cell_entries.join(",\n"),
        runs_json(runs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fleet small enough for debug-mode CI.
    const SMOKE_NODES: [u32; 1] = [8];

    #[test]
    fn fleet_sweep_is_deterministic_and_gates_hold() {
        let cfg = ExperimentConfig::smoke();
        let runs = run_fleet_bench(&cfg, &SMOKE_NODES);
        assert_eq!(runs.len(), 3);
        let cells = &runs[0].outcome.0;
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.report.boots > 0));
        assert!(cells.iter().all(|c| c.report.days.len() == FLEET_DAYS as usize));
        // Elastic autoscaling actually cycled nodes.
        assert!(cells.iter().all(|c| c.report.joins > 0 && c.report.leaves > 0));
        // The nightly maintenance pass ran popularity decay.
        assert!(cells.iter().all(|c| c.report.popularity_decays > 0));
    }

    #[test]
    fn json_has_the_acceptance_fields() {
        let cfg = ExperimentConfig { threads: 1, ..ExperimentConfig::smoke() };
        let outcome = sweep_once(&cfg, &SMOKE_NODES, 1);
        let runs = vec![SweepRun { threads: 1, wall_secs: 0.1, outcome }];
        let json = render_json(&cfg, &runs);
        for key in [
            "\"deterministic_across_threads\": true",
            "\"p99_finite\": true",
            "\"degraded_rate_bounded\": true",
            "\"degraded_rates_equal\": true",
            "\"peer_storage_below_unicast\": true",
            "\"cells\"",
            "\"days\"",
            "\"storage_bytes_per_day\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
