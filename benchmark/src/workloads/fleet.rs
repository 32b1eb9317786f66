//! `fleet_day` — mixed and event-driven. `run_fleet` drives everything at
//! once on `sched::EventQueue`: autoscale churn (`node_rejoin` re-hoarding),
//! boots, storms, the decay/budget/GC/scrub cadences, and a chaos fault
//! plan. It catches a gain in one workflow that is paid for in another, and
//! it is the only workload through `faults` and budget enforcement.
//!
//! `run_fleet` takes one master seed that shapes corpus, demand and fault
//! schedule together; across seeds the wall time of a simulated day swings
//! by tens of percent. The benchmark therefore pins it to the corpus seed:
//! `--seed` changes nothing here.

use super::{cache_name, materialize, num, Opts, Rep, Walls, Workload, CODEC};
use crate::json::Json;
use crate::ladder::{LadderCosts, LadderInput};
use crate::trace::Tracer;
use squirrel_core::{
    run_fleet_with_metrics, DistributionPolicy, FleetConfig, FleetReport, HoardBudget, Squirrel,
    SquirrelConfig,
};
use squirrel_dataset::{Corpus, CorpusConfig};
use squirrel_faults::FaultConfig;
use squirrel_obs::MetricsSnapshot;
use squirrel_zfs::{PoolConfig, ZPool};
use std::sync::Arc;
use std::time::Instant;

/// The hoard budget, as a percentage of what a fresh pool holding the whole
/// catalog occupies. A ccVolume also carries the snapshots inside the GC
/// window, so 119 % is already too little for it: on corpus seeds 1, 2, 3,
/// 5, 7, 11 and 2014 it leaves 5–21 % of boots degraded.
const BUDGET_PERCENT: u64 = 119;

pub struct FleetDay {
    cfg: FleetConfig,
    /// The corpus `run_fleet` generates for itself from `cfg`.
    corpus_cfg: CorpusConfig,
    /// Disk bytes of a fresh pool holding the whole catalog.
    footprint: u64,
    /// Full-size runs must stay on the budget-pressure path.
    assert_pressure: bool,
    last: Option<(FleetReport, MetricsSnapshot)>,
}

/// Disk bytes of a fresh pool holding every cache of the catalog.
fn hoard_footprint(corpus_cfg: CorpusConfig, block_size: usize, threads: usize) -> u64 {
    let corpus = Corpus::generate(corpus_cfg);
    let config = PoolConfig::builder()
        .block_size(block_size)
        .codec(CODEC)
        .threads(threads)
        .build();
    let mut pool = ZPool::new(config);
    for image in corpus.iter() {
        let blocks = materialize(&corpus, image.id(), block_size);
        pool.import_blocks_parallel(&cache_name(image.id()), &blocks);
    }
    pool.stats().total_disk_bytes()
}

impl FleetDay {
    pub fn new(opts: &Opts) -> FleetDay {
        let (nodes, days, images, boots_per_day) = if opts.quick {
            (12, 1, 8, 40)
        } else {
            (60, 2, 24, 120)
        };
        let (scale, block_size) = (4096, FleetConfig::default().block_size);
        // A budget the full hoard does not fit, so the maintenance pass
        // evicts and a share of boots is served degraded. Relative to the
        // catalog, not a byte count: catalogs from different corpus seeds
        // differ in size by tens of percent.
        let corpus_cfg = CorpusConfig {
            n_images: images,
            ..CorpusConfig::azure(scale, opts.corpus_seed)
        };
        let footprint = hoard_footprint(corpus_cfg.clone(), block_size, opts.threads);
        let cfg = FleetConfig {
            nodes,
            min_online: nodes / 10,
            days,
            images,
            scale,
            registrations_per_day: images,
            boots_per_day,
            storm_every_days: 1,
            storm_vms: 16,
            distribution: DistributionPolicy::PeerAssisted,
            faults: FaultConfig::chaos(),
            budget: HoardBudget {
                disk_bytes: footprint * BUDGET_PERCENT / 100,
                ddt_mem_bytes: 0,
            },
            block_size,
            seed: opts.corpus_seed,
            threads: opts.threads,
            ..FleetConfig::default()
        };
        FleetDay {
            cfg,
            corpus_cfg,
            footprint,
            assert_pressure: !opts.quick,
            last: None,
        }
    }

    /// The same corpus and cluster `run_fleet` builds for itself.
    fn system(&self) -> Squirrel {
        let corpus = Arc::new(Corpus::generate(self.corpus_cfg.clone()));
        let config = SquirrelConfig::builder()
            .compute_nodes(self.cfg.nodes)
            .block_size(self.cfg.block_size)
            .threads(self.cfg.threads)
            .hoard_budget(self.cfg.budget)
            .distribution(self.cfg.distribution)
            .build();
        Squirrel::new(config, corpus)
    }
}

/// Σtx − Σrx over the network ledger's counters; a conserving ledger gives 0.
fn ledger_imbalance(snap: &MetricsSnapshot) -> i128 {
    i128::from(snap.counter_sum("net_tx_bytes_total"))
        - i128::from(snap.counter_sum("net_rx_bytes_total"))
}

impl Workload for FleetDay {
    fn name(&self) -> &'static str {
        "fleet_day"
    }

    fn sizes(&self) -> Json {
        let c = &self.cfg;
        Json::obj([
            ("nodes", num(c.nodes)),
            ("min_online", num(c.min_online)),
            ("days", num(c.days as u32)),
            ("images", num(c.images)),
            ("scale", num(c.scale as f64)),
            ("registrations_per_day", num(c.registrations_per_day)),
            ("boots_per_day", num(c.boots_per_day)),
            ("storm_every_days", num(c.storm_every_days as u32)),
            ("storm_vms", num(c.storm_vms)),
            ("block_size", num(c.block_size as u32)),
            ("catalog_footprint_bytes", num(self.footprint as f64)),
            ("budget_disk_bytes", num(c.budget.disk_bytes as f64)),
            ("distribution", Json::str("peer-assisted")),
            ("faults", Json::str("chaos")),
            ("fleet_seed", num(c.seed as f64)),
        ])
    }

    fn rate(&self) -> (&'static str, bool) {
        ("fleet_wall_s_per_sim_day", false)
    }

    fn rep(&mut self, tracer: &mut Tracer, _deep: bool) -> Result<Rep, String> {
        // `run_fleet` sets itself up inside the timed call; the set-up
        // sample is the same construction done from here.
        let t = Instant::now();
        drop(self.system());
        let setup_s = t.elapsed().as_secs_f64();

        tracer.open("fleet_day", "bench");
        tracer.next_request();
        let t = Instant::now();
        let cfg = self.cfg;
        let (report, snap) =
            tracer.call("core.run_fleet", "core", 0, || run_fleet_with_metrics(&cfg));
        let wall_s = t.elapsed().as_secs_f64();
        tracer.close();

        if report.boots == 0 {
            return Err("the fleet served no boot".into());
        }
        if self.assert_pressure {
            let degraded = report.degraded_boots as f64 / report.boots as f64;
            if report.evictions == 0 || !(0.02..=0.25).contains(&degraded) {
                return Err(format!(
                    "fleet left the budget-pressure path: {} evictions, {:.3} of boots degraded \
                     (want > 0 and 0.02..=0.25)",
                    report.evictions, degraded
                ));
            }
        }
        let imbalance = ledger_imbalance(&snap);
        if imbalance != 0 {
            return Err(format!(
                "network ledger does not conserve bytes: Σtx − Σrx = {imbalance}"
            ));
        }
        let rep = Rep {
            wall_s,
            setup_s: Some(setup_s),
            work: report.days.len() as f64,
            attempted: report.boots + report.failed_boots,
            failed: report.failed_boots,
            exact: vec![
                ("fleet_sim_boot_ms_p99", report.p99_boot_ms as f64),
                (
                    "fleet_storage_bytes_per_day",
                    report.storage_bytes_per_day() as f64,
                ),
                ("fleet_degraded_per_10k", report.degraded_per_10k as f64),
            ],
            witness: report.read_checksum.clone(),
            ..Rep::default()
        };
        self.last = Some((report, snap));
        Ok(rep)
    }

    fn ladder_input(&self) -> LadderInput {
        LadderInput {
            corpus: Arc::new(Corpus::generate(self.corpus_cfg.clone())),
            images: (0..self.cfg.images).collect(),
            block_size: self.cfg.block_size,
            nodes: self.cfg.nodes,
            threads: self.cfg.threads,
            distribution: self.cfg.distribution,
            budget: self.cfg.budget,
        }
    }

    fn layer_metrics(&self, costs: &LadderCosts, walls: &Walls) -> Vec<(&'static str, f64)> {
        let Some((r, snap)) = &self.last else {
            return Vec::new();
        };
        // Per-call ladder costs × the calls the soak made. Registrations
        // reach however many nodes are online at the time: every recv the
        // pools counted that was not a rejoin's is a registration's.
        let recvs = snap.counter_sum("zpool_recv_streams_total") as f64;
        let register_updates = (recvs - r.joins as f64).max(0.0);
        let warm = (r.warm_boots) as f64;
        let cold = (r.boots - r.warm_boots) as f64;
        let rejoin = r.joins as f64 * costs.rejoin_s;
        let boot = warm * costs.warm_boot_s + cold * costs.cold_boot_s;
        let register = register_updates * costs.register_per_node_s;
        let cadence = self.cfg.days as f64
            * (costs.gc_s
                + costs.budget_s
                + f64::from(self.cfg.nodes) * costs.scrub_repair_s / 2.0)
            + costs.corpus_generate_s;
        let wall = walls.total_s;
        vec![
            ("core.fleet_events", r.events as f64),
            ("core.fleet_boots", r.boots as f64),
            ("core.fleet_joins", r.joins as f64),
            ("core.fleet_evictions", r.evictions as f64),
            ("core.fleet_rejoin_share", rejoin / wall),
            ("core.fleet_boot_share", boot / wall),
            ("core.fleet_register_share", register / wall),
            (
                "core.fleet_unexplained_share",
                1.0 - (rejoin + boot + register + cadence) / wall,
            ),
            ("core.warm_boot_ratio", warm / r.boots.max(1) as f64),
            ("faults.injected_total", r.fault.total_injected() as f64),
            ("faults.retries_total", r.fault.retries as f64),
            ("faults.giveups_total", r.fault.giveups as f64),
            ("cluster.storage_tx_bytes", r.storage_tier_bytes as f64),
            ("cluster.peer_tx_bytes", r.peer_bytes as f64),
            (
                "cluster.rx_bytes",
                snap.counter_sum("net_rx_bytes_total") as f64,
            ),
            (
                "cluster.ledger_imbalance_bytes",
                ledger_imbalance(snap) as f64,
            ),
        ]
    }
}
