//! Seeded chaos soak: simulated days of register/boot/gc under a
//! deterministic [`FaultPlan`], with churn, partitions and bit rot injected
//! every step and the self-healing workflows run on a fixed cadence.
//!
//! The soak is the capstone check of the fault tentpole: for a pinned seed
//! the whole run — every fault decision, every retry, every repair, every
//! read checksum — is bit-identical at any worker-thread count, and the
//! system must converge to a consistent, scrub-clean state once the final
//! repair pass runs. Nothing in the driver consults wall clocks or ambient
//! randomness; the seed is the only source of nondeterminism.

use crate::dist::DistributionPolicy;
use crate::system::{HoardBudget, RepairSweep, SharedStorage, Squirrel, SquirrelConfig};
use squirrel_cluster::{NodeId, TopologyConfig};
use squirrel_dataset::{Corpus, CorpusConfig};
use squirrel_faults::{FaultConfig, FaultPlan, FaultReport, PartitionEvent};
use squirrel_hash::ContentHash;
use std::sync::Arc;

/// Shape of one soak run. Everything is derived from `seed`; two configs
/// that compare equal produce bit-identical [`ChaosReport`]s.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Simulated days to run.
    pub days: u64,
    /// Corpus size; one image is registered per day until they run out.
    pub images: u32,
    /// Compute nodes.
    pub nodes: u32,
    /// Master seed for both the corpus and the fault plan.
    pub seed: u64,
    /// Worker threads (`0` = all cores). Results are bit-identical at any
    /// setting.
    pub threads: usize,
    /// VMs per periodic boot storm.
    pub storm_vms: u32,
    /// Fault probabilities and retry policy.
    pub faults: FaultConfig,
    /// Per-node hoard budget. When limited, an enforcement pass runs after
    /// every registration and once more after the final repair, so the soak
    /// converges *under* budget pressure, not just under faults.
    pub budget: HoardBudget,
    /// How registration diffs and cache restores travel — every policy must
    /// survive the same chaos and converge to the same replicated state.
    pub distribution: DistributionPolicy,
    /// Failure-domain layout. Flat (one rack) keeps the classic soak; a
    /// multi-rack layout arms correlated domain outages — whole racks and
    /// datacenters dropping off the network from the same seeded plan.
    pub topology: TopologyConfig,
    /// Storage nodes backing the shared tier.
    pub storage_nodes: u32,
    /// Physical layer of the shared tier (replicated gluster or
    /// erasure-coded k+m shards spread across the topology's racks).
    pub storage: SharedStorage,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            days: 18,
            images: 10,
            nodes: 6,
            seed: 42,
            threads: 0,
            storm_vms: 8,
            faults: FaultConfig::chaos(),
            budget: HoardBudget::unlimited(),
            distribution: DistributionPolicy::Unicast,
            topology: TopologyConfig::flat(),
            storage_nodes: 4,
            storage: SharedStorage::Replicated,
        }
    }
}

/// Outcome of one soak. Pure integers, booleans and hex strings — `Eq`
/// equality between two reports *is* the determinism witness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct ChaosReport {
    pub days: u64,
    /// Registrations attempted (one per day while images remain).
    pub registrations: u64,
    /// Individual boots attempted (not counting storms).
    pub boots: u64,
    pub warm_boots: u64,
    /// Boots (and storm VMs) served degraded: cache present but corrupt,
    /// fell back to shared storage.
    pub degraded_boots: u64,
    pub storms: u64,
    pub gc_runs: u64,
    /// Churn events applied (offline/rejoin/flap).
    pub churn_applied: u64,
    /// Rejoins that failed (partitioned link or rejected stream) and were
    /// left for a later repair pass.
    pub rejoin_failures: u64,
    /// Corrupt records restored from an intact replica, over all passes.
    pub blocks_repaired: u64,
    /// Corrupt-record observations no pass could heal at the time.
    pub blocks_unrepaired: u64,
    /// Wire bytes moved by repair re-fetches and catch-up streams.
    pub repair_wire_bytes: u64,
    /// Lagging nodes pulled back in sync, over all passes.
    pub sync_repaired_nodes: u64,
    /// Whole-cache evictions the budget enforcement passes performed
    /// (always zero with an unlimited budget).
    pub budget_evictions: u64,
    /// Whether every node ended the run within its hoard budget
    /// (vacuously true with an unlimited budget).
    pub within_budget: bool,
    /// Rack outages applied (a rack's boundary links cut as one event).
    pub rack_outages: u64,
    /// Datacenter outages applied.
    pub dc_outages: u64,
    /// Cold reads the erasure-coded tier served degraded (reconstructed
    /// through parity; byte-identity is checked on every such read).
    pub ec_degraded_reads: u64,
    /// Data shards rebuilt from parity during degraded reads.
    pub ec_shards_reconstructed: u64,
    /// Shards repair passes re-materialized or relocated across domains.
    pub ec_shards_rematerialized: u64,
    /// Bytes the EC repair passes moved.
    pub ec_repair_bytes: u64,
    /// The subset of `ec_repair_bytes` that crossed a rack boundary.
    pub ec_cross_domain_repair_bytes: u64,
    /// Whether the replication invariant already held before the final
    /// repair pass (it usually doesn't — that's the point of the soak).
    pub consistent_before_final_repair: bool,
    /// The capstone assertion: after heal-all + final repair, every online
    /// node mirrors the scVolume.
    pub converged: bool,
    /// Every pool finished scrub-clean.
    pub scrub_clean: bool,
    /// Hash over every workflow outcome in order (registration tags, boot
    /// results, storm read checksums, error strings) — the run's
    /// determinism witness.
    pub read_checksum: String,
    /// Everything the plan injected.
    pub fault: FaultReport,
}

/// Run one chaos soak. See the module docs for the determinism contract.
pub fn chaos_soak(cfg: &ChaosConfig) -> ChaosReport {
    let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(cfg.images, cfg.seed)));
    let mut sq = Squirrel::new(
        SquirrelConfig {
            compute_nodes: cfg.nodes,
            storage_nodes: cfg.storage_nodes,
            block_size: 16 * 1024,
            threads: cfg.threads,
            hoard_budget: cfg.budget,
            distribution: cfg.distribution,
            topology: cfg.topology,
            shared_storage: cfg.storage,
            ..Default::default()
        },
        corpus,
    );
    sq.set_fault_plan(FaultPlan::new(cfg.seed, cfg.faults));
    let mut r = ChaosReport { days: cfg.days, ..ChaosReport::default() };
    let mut feed = String::new();
    let mut next_image: u32 = 0;

    for day in 0..cfg.days {
        // The day's churn, partition, domain-outage and bit-rot events.
        let tick = sq.fault_tick().expect("plan armed");
        r.churn_applied += u64::from(tick.churn.is_some());
        r.rejoin_failures += u64::from(tick.rejoined == Some(false));
        match tick.domain {
            Some(PartitionEvent::RackDown(rk)) => {
                r.rack_outages += 1;
                feed.push_str(&format!("rack-down:{rk}\n"));
            }
            Some(PartitionEvent::RackUp(rk)) => feed.push_str(&format!("rack-up:{rk}\n")),
            Some(PartitionEvent::DatacenterDown(dc)) => {
                r.dc_outages += 1;
                feed.push_str(&format!("dc-down:{dc}\n"));
            }
            Some(PartitionEvent::DatacenterUp(dc)) => feed.push_str(&format!("dc-up:{dc}\n")),
            _ => {}
        }
        if let Some(rot) = tick.rot {
            if rot.ec_shard.is_some() {
                feed.push_str(&format!("ec-rot:{:?}\n", rot.ec_shard));
            }
            feed.push_str(&format!("rot:{:?}:{}\n", rot.victim, rot.block_hit));
        }

        // One registration per day while images remain.
        if next_image < cfg.images {
            r.registrations += 1;
            match sq.register(next_image) {
                Ok(rep) => feed.push_str(&format!(
                    "reg:{}:{}:{}\n",
                    rep.snapshot_tag, rep.nodes_updated, rep.diff_wire_bytes
                )),
                Err(e) => feed.push_str(&format!("reg-err:{e}\n")),
            }
            next_image += 1;
        }

        // Budget pressure: every registration can push nodes over; evict
        // back under budget before the day's boots see the caches.
        if !cfg.budget.is_unlimited() {
            let b = sq.enforce_hoard_budgets();
            r.budget_evictions += b.evictions.len() as u64;
            feed.push_str(&format!(
                "budget:{}:{}:{}:{}\n",
                b.evictions.len(),
                b.nodes_over_budget,
                b.disk_bytes_freed,
                b.ddt_mem_bytes_freed
            ));
        }

        // A couple of boots on a deterministic node/image rotation.
        for k in 0..2u64 {
            let image = ((day + k) % u64::from(next_image.max(1))) as u32;
            let node = ((day * 3 + k * 5) % u64::from(cfg.nodes)) as NodeId;
            match sq.boot(node, image) {
                Ok(out) => {
                    r.boots += 1;
                    if out.warm {
                        r.warm_boots += 1;
                    }
                    if out.degraded {
                        r.degraded_boots += 1;
                    }
                    feed.push_str(&format!(
                        "boot:{node}:{image}:{}:{}\n",
                        out.warm, out.degraded
                    ));
                }
                Err(e) => feed.push_str(&format!("boot-err:{node}:{image}:{e}\n")),
            }
        }

        // Periodic boot storm over whatever nodes are up.
        if day % 5 == 4 {
            let image = (day % u64::from(next_image.max(1))) as u32;
            match sq.boot_storm(image, cfg.storm_vms) {
                Ok(storm) => {
                    r.storms += 1;
                    r.degraded_boots += u64::from(storm.degraded_vms);
                    feed.push_str(&format!("storm:{image}:{}\n", storm.read_checksum));
                }
                Err(e) => feed.push_str(&format!("storm-err:{image}:{e}\n")),
            }
        }

        // Periodic self-healing: scVolume first (it is the authoritative
        // repair donor), then the ccVolumes, then replication catch-up.
        if day % 3 == 2 {
            tally_repair(&mut r, sq.repair_sweep());
        }

        let _ = sq.gc();
        r.gc_runs += 1;
        sq.advance_days(1);
    }

    // Convergence: heal every link, bring every node back, run the full
    // repair stack, and check the paper's invariant.
    r.consistent_before_final_repair = sq.check_replication().is_consistent();
    sq.network_mut().heal_all();
    for n in 0..cfg.nodes {
        if !sq.node_is_online(n) && sq.node_rejoin(n).is_err() {
            r.rejoin_failures += 1;
        }
    }
    tally_repair(&mut r, sq.repair_sweep());
    // The final repair full-replicates lagging nodes, which can push them
    // back over budget: one last enforcement pass settles the steady state.
    r.within_budget = if cfg.budget.is_unlimited() {
        true
    } else {
        let b = sq.enforce_hoard_budgets();
        r.budget_evictions += b.evictions.len() as u64;
        feed.push_str(&format!(
            "budget-final:{}:{}\n",
            b.evictions.len(),
            b.nodes_over_budget
        ));
        b.is_within_budget()
    };
    r.converged = sq.check_replication().is_consistent();
    r.scrub_clean = sq.scrub_scvol().is_clean()
        && (0..cfg.nodes).all(|n| sq.scrub_node(n).is_some_and(|s| s.is_clean()))
        && sq.shared_storage_clean();
    if let Some(ec) = sq.ec_stats() {
        r.ec_degraded_reads = ec.degraded_reads;
        r.ec_shards_reconstructed = ec.read_reconstructions;
    }
    r.fault = sq.clear_fault_plan().expect("plan armed").report();
    r.read_checksum = ContentHash::of(feed.as_bytes()).to_hex();
    r
}

/// Add one repair sweep to the soak's running totals.
fn tally_repair(r: &mut ChaosReport, sweep: RepairSweep) {
    if let Some(ec) = sweep.ec {
        r.ec_shards_rematerialized += ec.shards_rematerialized + ec.shards_relocated;
        r.ec_repair_bytes += ec.repair_bytes;
        r.ec_cross_domain_repair_bytes += ec.cross_domain_repair_bytes;
    }
    r.blocks_repaired += sweep.blocks.repaired;
    r.blocks_unrepaired += sweep.blocks.unrepaired;
    r.repair_wire_bytes += sweep.blocks.refetch_bytes + sweep.sync.wire_bytes;
    r.sync_repaired_nodes += u64::from(sweep.sync.repaired);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ChaosConfig {
        ChaosConfig { days: 9, images: 5, nodes: 4, seed: 11, threads: 1, ..Default::default() }
    }

    #[test]
    fn soak_converges_and_ends_scrub_clean() {
        let r = chaos_soak(&tiny());
        assert!(r.converged, "{r:?}");
        assert!(r.scrub_clean, "{r:?}");
        assert_eq!(r.registrations, 5);
        assert_eq!(r.gc_runs, 9);
        assert!(r.fault.total_injected() > 0, "chaos must inject: {:?}", r.fault);
    }

    #[test]
    fn soak_is_bit_identical_for_one_seed() {
        let a = chaos_soak(&tiny());
        let b = chaos_soak(&tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn soak_is_thread_count_invariant() {
        let at = |threads| chaos_soak(&ChaosConfig { threads, ..tiny() });
        let reference = at(1);
        for threads in [2, 8] {
            assert_eq!(at(threads), reference, "threads={threads}");
        }
    }

    /// A budget that can hold roughly half the catalog's caches, derived
    /// from a deterministic unlimited probe over the same corpus.
    fn starved_budget(cfg: &ChaosConfig) -> HoardBudget {
        let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(cfg.images, cfg.seed)));
        let mut probe = Squirrel::new(
            SquirrelConfig {
                compute_nodes: 1,
                block_size: 16 * 1024,
                ..Default::default()
            },
            corpus,
        );
        for img in 0..cfg.images {
            probe.register(img).expect("probe register");
        }
        let full = probe.ccvol_stats(0).expect("node").total_disk_bytes();
        HoardBudget { disk_bytes: full / 2, ddt_mem_bytes: 0 }
    }

    #[test]
    fn budget_soak_converges_under_pressure() {
        let cfg = ChaosConfig { budget: starved_budget(&tiny()), ..tiny() };
        let r = chaos_soak(&cfg);
        assert!(r.budget_evictions > 0, "pressure must force evictions: {r:?}");
        assert!(r.within_budget, "{r:?}");
        assert!(r.converged, "{r:?}");
        assert!(r.scrub_clean, "{r:?}");
        assert_eq!(r.registrations, 5);
        // The budgeted run is a different trajectory than the unlimited one.
        let unlimited = chaos_soak(&tiny());
        assert_eq!(unlimited.budget_evictions, 0);
        assert!(unlimited.within_budget);
        assert_ne!(r.read_checksum, unlimited.read_checksum);
    }

    #[test]
    fn budget_soak_is_thread_count_invariant() {
        let budget = starved_budget(&tiny());
        let at = |threads| chaos_soak(&ChaosConfig { threads, budget, ..tiny() });
        let reference = at(1);
        assert!(reference.budget_evictions > 0);
        for threads in [2, 8] {
            assert_eq!(at(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn peer_assisted_soak_converges_and_is_thread_invariant() {
        let cfg = |threads| ChaosConfig {
            threads,
            distribution: DistributionPolicy::PeerAssisted,
            ..tiny()
        };
        let reference = chaos_soak(&cfg(1));
        assert!(reference.converged, "{reference:?}");
        assert!(reference.scrub_clean, "{reference:?}");
        assert_eq!(reference.registrations, 5);
        for threads in [2, 8] {
            assert_eq!(chaos_soak(&cfg(threads)), reference, "threads={threads}");
        }
    }

    #[test]
    fn every_distribution_policy_survives_the_soak() {
        for policy in DistributionPolicy::standard_set() {
            let r = chaos_soak(&ChaosConfig { distribution: policy, ..tiny() });
            assert!(r.converged, "{}: {r:?}", policy.name());
            assert!(r.scrub_clean, "{}: {r:?}", policy.name());
        }
    }

    /// Four racks over two datacenters; 4 compute nodes (one per rack) and
    /// 8 storage nodes (two per rack); 4+2 erasure coding, so a whole rack
    /// holds at most m = 2 shards of any stripe and its loss stays
    /// recoverable. Domain outages armed.
    fn ec_tiny() -> ChaosConfig {
        ChaosConfig {
            days: 12,
            topology: TopologyConfig { regions: 1, dcs_per_region: 2, racks_per_dc: 2 },
            storage_nodes: 8,
            storage: SharedStorage::ErasureCoded { k: 4, m: 2 },
            faults: squirrel_faults::FaultConfig::chaos_with_domains(),
            ..tiny()
        }
    }

    #[test]
    fn ec_soak_survives_rack_loss_and_converges() {
        let r = chaos_soak(&ec_tiny());
        assert!(r.rack_outages > 0, "domain chaos must take racks down: {r:?}");
        assert!(r.fault.rack_downs > 0, "{:?}", r.fault);
        assert!(r.converged, "{r:?}");
        assert!(r.scrub_clean, "every shard healed: {r:?}");
        assert!(
            r.ec_shards_rematerialized > 0,
            "repair must re-materialize shards: {r:?}"
        );
        assert!(r.ec_repair_bytes > 0, "{r:?}");
    }

    #[test]
    fn ec_soak_is_bit_identical_and_thread_invariant() {
        let at = |threads| chaos_soak(&ChaosConfig { threads, ..ec_tiny() });
        let reference = at(1);
        assert_eq!(at(1), reference, "same seed, same report");
        for threads in [2, 8] {
            assert_eq!(at(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn flat_soak_is_unchanged_by_the_domain_machinery() {
        let r = chaos_soak(&tiny());
        assert_eq!(r.rack_outages, 0);
        assert_eq!(r.fault.rack_downs + r.fault.dc_downs, 0);
        assert_eq!(r.ec_degraded_reads + r.ec_repair_bytes, 0);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = chaos_soak(&tiny());
        let b = chaos_soak(&ChaosConfig { seed: 12, ..tiny() });
        assert_ne!(a.fault, b.fault);
    }
}
