//! Hoard-budget sweep: catalog size vs per-node footprint vs degraded-boot
//! rate (`squirrel_core::Squirrel::enforce_hoard_budgets`).
//!
//! For each catalog size the sweep hoards the catalog on a small cluster at
//! three budget tiers — *generous* (unlimited), *exact* (the measured
//! footprint), *starved* (half of it) — skews image popularity with boots,
//! runs the enforcement pass, then probes every node × image boot to count
//! how many land degraded on shared storage. The paper's budget claim
//! (Section 4.4: ~10 GB disk and ~60 MB of DDT memory per node) is the
//! production default this sweep scales down.
//!
//! Every tier repeats at each worker-thread count; eviction decisions,
//! reports and metric snapshots must be bit-identical across the sweep. A
//! generous budget must degrade no boot at any catalog size; a starved one
//! must push a strictly positive share of them to shared storage.

use crate::config::ExperimentConfig;
use crate::record::{json_obj, sweep_equal, Json, Record, Sweep};
use squirrel_core::{HoardBudget, Squirrel, SquirrelConfig};
use squirrel_dataset::Corpus;
use std::sync::Arc;

/// Compute nodes in the budgeted cluster.
pub const BUDGET_NODES: u32 = 3;
/// Pool record size for the sweep.
pub const BUDGET_BLOCK_SIZE: usize = 16 * 1024;

/// One catalog × budget-tier cell. Pure integers and booleans; equality
/// across thread counts is the determinism witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierOutcome {
    /// "generous", "exact" or "starved".
    pub tier: &'static str,
    /// Images registered.
    pub catalog: u32,
    /// The per-node budget enforced (zeros = unlimited).
    pub budget: HoardBudget,
    /// Whole-cache evictions the enforcement pass performed.
    pub evictions: u64,
    pub disk_bytes_freed: u64,
    pub ddt_mem_bytes_freed: u64,
    /// Every node ended within budget.
    pub within_budget: bool,
    /// Largest per-node disk footprint after enforcement.
    pub node_disk_bytes: u64,
    /// Largest per-node in-core DDT footprint after enforcement.
    pub node_ddt_mem_bytes: u64,
    /// Probe boots attempted (nodes × catalog).
    pub probe_boots: u64,
    /// Probe boots served degraded from shared storage.
    pub degraded_boots: u64,
}

impl TierOutcome {
    pub fn degraded_rate(&self) -> f64 {
        self.degraded_boots as f64 / self.probe_boots.max(1) as f64
    }
}

/// One thread count's full sweep: every tier cell and its final metrics.
pub type BudgetSweep = (Vec<TierOutcome>, Vec<squirrel_obs::MetricsSnapshot>);

/// Catalog sizes swept: a quarter, half and the whole corpus.
fn catalogs(cfg: &ExperimentConfig) -> Vec<u32> {
    let max = cfg.images.min(16);
    let mut sizes: Vec<u32> = [max / 4, max / 2, max].into_iter().filter(|&c| c > 0).collect();
    sizes.dedup();
    sizes
}

/// Hoard `catalog` images under `budget`, skew popularity, enforce, probe.
fn run_tier(
    corpus: &Arc<Corpus>,
    catalog: u32,
    budget: HoardBudget,
    tier: &'static str,
    threads: usize,
) -> (TierOutcome, squirrel_obs::MetricsSnapshot) {
    let mut sq = Squirrel::new(
        SquirrelConfig::builder()
            .compute_nodes(BUDGET_NODES)
            .block_size(BUDGET_BLOCK_SIZE)
            .threads(threads)
            .hoard_budget(budget)
            .build(),
        Arc::clone(corpus),
    );
    for img in 0..catalog {
        sq.register(img).expect("register");
    }
    // Popularity skew: earlier images boot more, capped so the probe stays
    // cheap. Ties resolve by ascending image id inside the policy.
    for img in 0..catalog {
        let boots = (catalog - img).min(5);
        for _ in 0..boots {
            sq.boot(img % BUDGET_NODES, img).expect("skew boot");
        }
    }

    let report = sq.enforce_hoard_budgets();

    let mut probe_boots = 0u64;
    let mut degraded_boots = 0u64;
    for node in 0..BUDGET_NODES {
        for img in 0..catalog {
            let out = sq.boot(node, img).expect("probe boot");
            probe_boots += 1;
            if out.degraded {
                degraded_boots += 1;
            }
        }
    }

    let (mut disk, mut ddt) = (0u64, 0u64);
    for node in 0..BUDGET_NODES {
        let s = sq.ccvol_stats(node).expect("node stats");
        disk = disk.max(s.total_disk_bytes());
        ddt = ddt.max(s.ddt_memory_bytes);
    }
    let cell = TierOutcome {
        tier,
        catalog,
        budget,
        evictions: report.evictions.len() as u64,
        disk_bytes_freed: report.disk_bytes_freed,
        ddt_mem_bytes_freed: report.ddt_mem_bytes_freed,
        within_budget: report.is_within_budget(),
        node_disk_bytes: disk,
        node_ddt_mem_bytes: ddt,
        probe_boots,
        degraded_boots,
    };
    (cell, sq.metrics().snapshot())
}

/// One thread count's sweep over every catalog × tier.
fn sweep_once(
    corpus: &Arc<Corpus>,
    cfg: &ExperimentConfig,
    threads: usize,
) -> BudgetSweep {
    let mut cells = Vec::new();
    let mut snaps = Vec::new();
    for catalog in catalogs(cfg) {
        let (generous, snap) =
            run_tier(corpus, catalog, HoardBudget::unlimited(), "generous", threads);
        // The measured footprint parameterises the constrained tiers.
        let exact_budget = HoardBudget {
            disk_bytes: generous.node_disk_bytes,
            ddt_mem_bytes: generous.node_ddt_mem_bytes,
        };
        let starved_budget =
            HoardBudget { disk_bytes: generous.node_disk_bytes / 2, ddt_mem_bytes: 0 };
        cells.push(generous);
        snaps.push(snap);
        for (budget, tier) in [(exact_budget, "exact"), (starved_budget, "starved")] {
            let (cell, snap) = run_tier(corpus, catalog, budget, tier, threads);
            cells.push(cell);
            snaps.push(snap);
        }
    }
    (cells, snaps)
}

/// Sweep the thread counts, assert the tier invariants that are not gates,
/// and report the sweep as a [`Record`].
pub fn run_budget(cfg: &ExperimentConfig) -> (Sweep<BudgetSweep>, Record) {
    let corpus = cfg.corpus();
    let sweep = sweep_equal(cfg, |threads| sweep_once(&corpus, cfg, threads));
    let cells = &sweep.outcome.0;
    for cell in cells {
        match cell.tier {
            "generous" => assert_eq!(cell.evictions, 0, "{cell:?}"),
            "exact" => assert_eq!((cell.evictions, cell.degraded_boots), (0, 0), "{cell:?}"),
            _ => {
                assert!(cell.evictions > 0, "{cell:?}");
                assert!(cell.within_budget, "{cell:?}");
                assert!(cell.node_disk_bytes <= cell.budget.disk_bytes, "{cell:?}");
            }
        }
    }

    let tier = |tier: &'static str| cells.iter().filter(move |c| c.tier == tier);
    // Headline rates come from the largest catalog (the last tier group).
    let rate_of = |t: &'static str| tier(t).next_back().map(|c| c.degraded_rate()).unwrap_or(0.0);
    let paper = HoardBudget::paper();
    let record = Record {
        experiment: "budget",
        paper: false,
        params: json_obj! {
            cfg => [seed, images, scale],
            "nodes": BUDGET_NODES,
            "block_size": BUDGET_BLOCK_SIZE,
            "paper_budget": json_obj! {paper => [disk_bytes, ddt_mem_bytes]},
        },
        gates: vec![
            ("deterministic_across_threads", sweep.deterministic),
            ("generous_degraded_boot_rate", tier("generous").all(|c| c.degraded_boots == 0)),
            ("starved_degraded_boot_rate", tier("starved").all(|c| c.degraded_boots > 0)),
        ],
        deterministic: json_obj! {
            "generous_degraded_boot_rate": rate_of("generous"),
            "exact_degraded_boot_rate": rate_of("exact"),
            "starved_degraded_boot_rate": rate_of("starved"),
            "cells": Json::arr(cells, |c| json_obj! {
                c => [catalog, tier],
                "budget_disk_bytes": c.budget.disk_bytes,
                "budget_ddt_mem_bytes": c.budget.ddt_mem_bytes,
                c => [evictions, disk_bytes_freed, ddt_mem_bytes_freed, within_budget,
                      node_disk_bytes, node_ddt_mem_bytes, probe_boots, degraded_boots],
                "degraded_boot_rate": c.degraded_rate(),
            }),
        },
    };
    (sweep, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sweep_is_deterministic_and_tiers_behave() {
        let cfg = ExperimentConfig::smoke();
        let (sweep, record) = run_budget(&cfg);
        assert_eq!(record.enforce(), Ok(()));
        let cells = &sweep.outcome.0;
        assert!(cells.iter().any(|c| c.tier == "starved" && c.evictions > 0));
        assert!(cells
            .iter()
            .all(|c| c.tier != "generous" || c.degraded_boots == 0));
    }
}
