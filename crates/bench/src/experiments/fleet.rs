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

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record, Sweep};
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

/// What every cell shares. Faults stay quiet and the budget unlimited so
/// the demand trajectory — and with it the degraded-boot rate — is identical
/// under every policy; the decay/budget/chaos machinery is exercised by the
/// core and facade soak tests instead.
fn scenario(cfg: &ExperimentConfig) -> FleetConfig {
    FleetConfig {
        days: FLEET_DAYS,
        images: cfg.images.min(12),
        scale: cfg.scale.max(8192),
        seed: cfg.seed,
        ..FleetConfig::default()
    }
}

/// One thread count's sweep over every fleet size × policy.
fn sweep_once(scenario: &FleetConfig, node_counts: &[u32], threads: usize) -> FleetSweep {
    let mut cells = Vec::new();
    let mut snaps = Vec::new();
    for &nodes in node_counts {
        for policy in FLEET_POLICIES {
            let fc = FleetConfig {
                nodes,
                min_online: (nodes / 10).clamp(4, nodes),
                threads,
                boots_per_day: (nodes / 2).clamp(24, 512),
                storm_vms: nodes.min(16),
                distribution: policy,
                ..*scenario
            };
            let (report, snap) = run_fleet_with_metrics(&fc);
            cells.push(FleetCell { nodes, policy, report });
            snaps.push(snap);
        }
    }
    (cells, snaps)
}

/// Whole-sweep acceptance gates, computed from the reference run's cells:
/// p99 boot latency finite, the degraded-boot rate bounded and **exactly**
/// equal under both policies, and peer-assisted moving strictly fewer
/// storage-tier bytes per day than unicast.
fn gates(cells: &[FleetCell]) -> Vec<(&'static str, bool)> {
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
    vec![
        (
            "p99_finite",
            cells
                .iter()
                .all(|c| c.report.p99_boot_ms > 0 && c.report.p99_boot_ms < 3_600_000),
        ),
        ("degraded_rate_bounded", cells.iter().all(|c| c.report.degraded_per_10k <= 500)),
        ("degraded_rates_equal", degraded_rates_equal),
        ("peer_storage_below_unicast", peer_storage_below_unicast),
    ]
}

fn cell_json(c: &FleetCell) -> Json {
    let r = &c.report;
    let day = |d: &squirrel_core::FleetDay| json_obj! {
        d => [day, boots, warm_boots, degraded_boots, failed_boots, p50_boot_ms, p99_boot_ms,
              storage_tier_bytes, peer_bytes, joins, leaves],
    };
    json_obj! {
        "policy": c.policy.name(),
        c => [nodes],
        r => [events, boots, warm_boots, degraded_boots, failed_boots, storms, p50_boot_ms,
              p99_boot_ms, degraded_per_10k, storage_tier_bytes],
        "storage_bytes_per_day": r.storage_bytes_per_day(),
        r => [peer_bytes, joins, leaves, evictions, popularity_decays, read_checksum],
        "days": Json::arr(&r.days, day),
    }
}

/// Sweep the thread counts and report the soak cells as a [`Record`].
pub fn run_fleet_bench(cfg: &ExperimentConfig, node_counts: &[u32]) -> (Sweep<FleetSweep>, Record) {
    let scenario = scenario(cfg);
    let sweep = sweep_equal(cfg, |threads| sweep_once(&scenario, node_counts, threads));
    let cells = &sweep.outcome.0;
    let mut all_gates = vec![("deterministic_across_threads", sweep.deterministic)];
    all_gates.extend(gates(cells));
    let record = Record {
        experiment: "fleet",
        paper: false,
        params: json_obj! {
            scenario => [images, scale, seed, days],
            "node_counts": Json::arr(node_counts, |&n| n.into()),
        },
        gates: all_gates,
        deterministic: json_obj! {"cells": Json::arr(cells, cell_json)},
    };
    (sweep, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fleet small enough for debug-mode CI.
    const SMOKE_NODES: [u32; 1] = [8];

    #[test]
    fn fleet_sweep_is_deterministic_and_gates_hold() {
        let cfg = ExperimentConfig::smoke();
        let (sweep, record) = run_fleet_bench(&cfg, &SMOKE_NODES);
        assert_eq!(record.enforce(), Ok(()));
        let cells = &sweep.outcome.0;
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.report.boots > 0));
        assert!(cells.iter().all(|c| c.report.days.len() == FLEET_DAYS as usize));
        // Elastic autoscaling actually cycled nodes.
        assert!(cells.iter().all(|c| c.report.joins > 0 && c.report.leaves > 0));
        // The nightly maintenance pass ran popularity decay.
        assert!(cells.iter().all(|c| c.report.popularity_decays > 0));
    }
}
