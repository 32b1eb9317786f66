//! `register_fanout` — the replicate path, O(nodes). A fresh `Squirrel`
//! registers a handful of images; each registration's snapshot diff is
//! received (decompress + SHA-256 of the same payload) by every compute
//! node. Host time is `zfs::recv` validation plus `core` delivery plus the
//! `cluster` ledger; the compress side, `bootsim` and ingest are negligible.

use super::{num, shuffle, Opts, Rep, Walls, Workload, BLOCK_SIZE, CODEC};
use crate::json::Json;
use crate::ladder::{ledger_metrics, LadderCosts, LadderInput};
use crate::trace::Tracer;
use squirrel_core::{DistributionPolicy, HoardBudget, Squirrel, SquirrelConfig};
use squirrel_dataset::rng::SplitMix64;
use squirrel_dataset::{Corpus, CorpusConfig, ImageId};
use std::sync::Arc;
use std::time::Instant;

pub struct RegisterFanout {
    corpus_cfg: CorpusConfig,
    nodes: u32,
    threads: usize,
    /// Registration order: a `--seed` permutation of the catalog.
    order: Vec<ImageId>,
    /// The last repetition's network ledger, for the `cluster.*` counts.
    ledger: Vec<(&'static str, f64)>,
}

impl RegisterFanout {
    pub fn new(opts: &Opts) -> RegisterFanout {
        let (nodes, images) = if opts.quick { (16, 2) } else { (64, 4) };
        let corpus_cfg = CorpusConfig {
            n_images: images,
            ..CorpusConfig::azure(512, opts.corpus_seed)
        };
        let mut order: Vec<ImageId> = (0..images).collect();
        shuffle(
            &mut order,
            &mut SplitMix64::from_parts(&[opts.seed, 0x4e915]),
        );
        RegisterFanout {
            corpus_cfg,
            nodes,
            threads: opts.threads,
            order,
            ledger: Vec::new(),
        }
    }

    fn system(&self, corpus: Arc<Corpus>) -> Squirrel {
        let config = SquirrelConfig::builder()
            .block_size(BLOCK_SIZE)
            .codec(CODEC)
            .compute_nodes(self.nodes)
            .storage_nodes(4)
            .threads(self.threads)
            .distribution(DistributionPolicy::PeerAssisted)
            .build();
        Squirrel::new(config, corpus)
    }
}

impl Workload for RegisterFanout {
    fn name(&self) -> &'static str {
        "register_fanout"
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("compute_nodes", num(self.nodes)),
            ("storage_nodes", num(4)),
            ("images", num(self.corpus_cfg.n_images)),
            ("scale", num(self.corpus_cfg.scale as f64)),
            ("block_size", num(BLOCK_SIZE as u32)),
            ("codec", Json::str(CODEC.name())),
            ("distribution", Json::str("peer-assisted")),
        ])
    }

    fn rate(&self) -> (&'static str, bool) {
        ("register_node_updates_per_s", true)
    }

    fn rep(&mut self, tracer: &mut Tracer, _deep: bool) -> Result<Rep, String> {
        let t = Instant::now();
        let corpus = Arc::new(Corpus::generate(self.corpus_cfg.clone()));
        let mut sq = self.system(corpus);
        let setup_s = t.elapsed().as_secs_f64();

        let (mut wall_s, mut updated, mut lagging) = (0.0, 0u64, 0u64);
        let (mut sim_s, mut wire) = (0.0, 0u64);
        tracer.open("register_fanout", "bench");
        for &image in &self.order {
            tracer.next_request();
            let t = Instant::now();
            let report = tracer
                .try_call("core.register", "core", 0, || sq.register(image))
                .map_err(|e| format!("register {image}: {e}"))?;
            wall_s += t.elapsed().as_secs_f64();
            if report.nodes_updated != self.nodes || report.nodes_lagging != 0 {
                return Err(format!(
                    "register {image}: {} nodes updated, {} lagging, expected {} and 0",
                    report.nodes_updated, report.nodes_lagging, self.nodes
                ));
            }
            updated += u64::from(report.nodes_updated);
            lagging += u64::from(report.nodes_lagging);
            sim_s += report.seconds;
            wire += report.diff_wire_bytes;
        }
        tracer.close();

        // Peer-assisted distribution: the storage tier sends each diff once
        // and warm peers forward it.
        let storage_tx = sq.network().storage_tx_total();
        if storage_tx != wire {
            return Err(format!(
                "storage tier sent {storage_tx} B, the diffs sum to {wire} B"
            ));
        }
        if !sq.check_replication().is_consistent() {
            return Err("an online node does not mirror the scVolume".into());
        }
        self.ledger = ledger_metrics(sq.network()).to_vec();
        let registrations = self.order.len() as f64;
        Ok(Rep {
            wall_s,
            setup_s: Some(setup_s),
            work: updated as f64,
            attempted: updated + lagging,
            failed: lagging,
            exact: vec![
                ("sim_register_s", sim_s / registrations),
                (
                    "storage_tx_bytes_per_register",
                    storage_tx as f64 / registrations,
                ),
            ],
            witness: format!("{:?}", sq.scvol_stats()),
            ..Rep::default()
        })
    }

    fn ladder_input(&self) -> LadderInput {
        LadderInput {
            corpus: Arc::new(Corpus::generate(self.corpus_cfg.clone())),
            images: self.order.clone(),
            block_size: BLOCK_SIZE,
            nodes: self.nodes,
            threads: self.threads,
            distribution: DistributionPolicy::PeerAssisted,
            budget: HoardBudget::unlimited(),
        }
    }

    fn layer_metrics(&self, costs: &LadderCosts, walls: &Walls) -> Vec<(&'static str, f64)> {
        // One registration = materialise + import + snapshot + send on the
        // scVolume, one simulated first boot, one fan-out plan, then one
        // recv per compute node — applied to contiguous chunks of nodes on
        // `threads` workers, so recv's share of the wall is its busy time
        // over the worker count. What those do not explain is `core`'s own
        // delivery loop and the ledger.
        let nodes = f64::from(self.nodes);
        let lanes = (self.threads as f64).min(nodes);
        let per_image = |m: &std::collections::BTreeMap<ImageId, f64>| -> f64 {
            self.order
                .iter()
                .map(|i| m.get(i).copied().unwrap_or(0.0))
                .sum()
        };
        let recv = per_image(&costs.recv_s) * nodes / lanes;
        let once = per_image(&costs.capture_s)
            + per_image(&costs.import_s)
            + per_image(&costs.snapshot_s)
            + per_image(&costs.send_s)
            + per_image(&costs.bootsim_cold_s)
            + per_image(&costs.trace_gen_s)
            + self.order.len() as f64 * (costs.plan_fanout_s + nodes * costs.unicast_s);
        let mut metrics = vec![
            ("core.register_recv_share", recv / walls.total_s),
            (
                "core.register_self_share",
                1.0 - (recv + once) / walls.total_s,
            ),
        ];
        metrics.extend(self.ledger.iter().copied());
        metrics
    }
}
