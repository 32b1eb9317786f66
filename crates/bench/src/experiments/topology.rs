//! Topology bench: flat replication versus erasure coding on a multi-rack
//! cluster, under node, rack and datacenter loss.
//!
//! Two parts:
//!
//! 1. A **scenario sweep** at the volume layer. The same 4-rack / 2-DC
//!    cluster hosts both shared-storage designs — the paper's replicated
//!    gluster volume (2×2, one brick per rack) and the erasure-coded
//!    `ErasureCodedVolume` (k+m Reed–Solomon shards placed across distinct
//!    racks). Each design writes the same objects, then a failure domain is
//!    cut (nothing / one storage node / one rack / one datacenter) and every
//!    object is read back from a compute client: availability is the
//!    fraction of objects still readable, degraded reads count parity
//!    reconstructions, and the EC scrub pass reports how many repair bytes
//!    crossed a rack boundary to re-home stranded shards.
//! 2. An **EC chaos soak**: the chaos bench's fleet scenario on the
//!    multi-rack topology with rack/DC outages armed in the fault plan and
//!    the shared tier erasure coded. The soak must converge to a
//!    consistent, scrub-clean state and replay bit-identically at every
//!    thread count, with at least one rack outage injected and EC repair
//!    bytes moved.

use crate::config::ExperimentConfig;
use crate::experiments::chaosbench::{chaos_scenario, soak_block, soak_gates, sweep_soak, Soak};
use crate::record::{json_obj, Json, Record, Sweep};
use squirrel_cluster::{
    EcConfig, ErasureCodedVolume, GlusterConfig, GlusterVolume, LinkKind, Network, NodeId,
    TopologyConfig,
};
use squirrel_core::{FaultConfig, FleetConfig, SharedStorage};
use squirrel_hash::rng::SplitMix64;

/// Compute nodes of the scenario cluster.
pub const TOPO_COMPUTE: u32 = 4;
/// Storage nodes of the scenario cluster (two per rack).
pub const TOPO_STORAGE: u32 = 8;
/// Erasure geometry under test.
pub const EC_K: u32 = 4;
pub const EC_M: u32 = 2;
/// Objects written per scenario.
const OBJECTS: usize = 6;
/// Soak length in simulated days.
pub const TOPO_SOAK_DAYS: u64 = 14;

fn topo() -> TopologyConfig {
    TopologyConfig {
        regions: 1,
        dcs_per_region: 2,
        racks_per_dc: 2,
    }
}

fn fresh_net() -> Network {
    Network::with_topology(LinkKind::GbE, TOPO_COMPUTE, TOPO_STORAGE, topo())
}

fn storage_ids() -> Vec<NodeId> {
    (TOPO_COMPUTE..TOPO_COMPUTE + TOPO_STORAGE).collect()
}

/// Deterministic object payload (seed- and index-dependent, spans one to
/// two EC stripes so padding and multi-stripe paths are both exercised).
fn object_bytes(seed: u64, i: usize) -> Vec<u8> {
    let len = 160 * 1024 + i * 40 * 1024 + i * 13;
    let mut rng = SplitMix64::from_parts(&[seed, i as u64]);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Which failure domain a scenario cuts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loss {
    None,
    /// One storage node cut from every peer.
    Node,
    /// One whole rack down.
    Rack,
    /// One whole datacenter down.
    Datacenter,
}

impl Loss {
    pub const ALL: [Loss; 4] = [Loss::None, Loss::Node, Loss::Rack, Loss::Datacenter];

    pub fn name(self) -> &'static str {
        match self {
            Loss::None => "none",
            Loss::Node => "node",
            Loss::Rack => "rack",
            Loss::Datacenter => "datacenter",
        }
    }

    /// Cut the domain. The victim is always picked around the *last*
    /// storage node, so the coordinator (first storage node, rack 0, DC 0)
    /// and the reading client (compute node 0) stay up in every scenario.
    fn apply(self, net: &mut Network) {
        let victim = TOPO_COMPUTE + TOPO_STORAGE - 1;
        match self {
            Loss::None => {}
            Loss::Node => {
                for peer in 0..TOPO_COMPUTE + TOPO_STORAGE {
                    if peer != victim {
                        net.partition(victim, peer);
                    }
                }
            }
            Loss::Rack => {
                let rack = net.topology().rack_of(victim);
                net.rack_down(rack);
            }
            Loss::Datacenter => {
                let dc = net.topology().datacenter_of(victim);
                net.datacenter_down(dc);
            }
        }
    }
}

/// One (design, scenario) cell of the sweep.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    pub mode: &'static str,
    pub loss: Loss,
    pub objects: usize,
    pub available: usize,
    pub degraded_reads: u64,
    pub repair_bytes: u64,
    pub cross_domain_repair_bytes: u64,
    pub clean_after_repair: bool,
}

impl ScenarioResult {
    pub fn availability(&self) -> f64 {
        self.available as f64 / self.objects as f64
    }
}

/// Replicated gluster (2 stripes × 2 replicas, one brick per rack): write
/// the objects, cut the domain, read everything back with replica failover.
fn run_replicated(seed: u64, loss: Loss) -> ScenarioResult {
    let mut net = fresh_net();
    let gluster = GlusterVolume::new(GlusterConfig::default(), storage_ids()[..4].to_vec());
    let client: NodeId = 0;
    let mut offsets = Vec::with_capacity(OBJECTS);
    let mut pos = 0u64;
    for i in 0..OBJECTS {
        let len = object_bytes(seed, i).len() as u64;
        gluster
            .try_write(&mut net, client, pos, len)
            .expect("healthy write");
        offsets.push((pos, len));
        pos += len;
    }
    loss.apply(&mut net);
    let available = offsets
        .iter()
        .filter(|&&(off, len)| gluster.try_read(&mut net, client, off, len).is_ok())
        .count();
    ScenarioResult {
        mode: "replicated",
        loss,
        objects: OBJECTS,
        available,
        degraded_reads: 0,
        repair_bytes: 0,
        cross_domain_repair_bytes: 0,
        clean_after_repair: true,
    }
}

/// Erasure-coded k+m: write the objects, cut the domain, read everything
/// back (byte-identity is asserted on every successful read), then run the
/// scrub/repair pass and account its cross-domain traffic.
fn run_erasure(seed: u64, loss: Loss) -> ScenarioResult {
    let mut net = fresh_net();
    let mut vol = ErasureCodedVolume::new(
        EcConfig {
            k: EC_K,
            m: EC_M,
            ..EcConfig::default()
        },
        storage_ids(),
    );
    let root: NodeId = TOPO_COMPUTE; // first storage node: rack 0, DC 0
    let client: NodeId = 0;
    let payloads: Vec<Vec<u8>> = (0..OBJECTS).map(|i| object_bytes(seed, i)).collect();
    for (i, data) in payloads.iter().enumerate() {
        vol.write(&mut net, root, &format!("img-{i:03}"), data)
            .expect("healthy write");
    }
    loss.apply(&mut net);
    let mut available = 0;
    let mut degraded_reads = 0;
    for (i, data) in payloads.iter().enumerate() {
        match vol.try_read(&mut net, client, &format!("img-{i:03}")) {
            Ok(r) => {
                assert_eq!(&r.data, data, "degraded read returned wrong bytes");
                available += 1;
                degraded_reads += u64::from(r.degraded);
            }
            Err(e) => {
                // Only shard starvation is an acceptable failure mode.
                assert!(
                    matches!(e, squirrel_cluster::EcError::NotEnoughShards { .. }),
                    "unexpected read error: {e}"
                );
            }
        }
    }
    let repair = vol.scrub_and_repair(&mut net, root);
    ScenarioResult {
        mode: "erasure",
        loss,
        objects: OBJECTS,
        available,
        degraded_reads,
        repair_bytes: repair.repair_bytes,
        cross_domain_repair_bytes: repair.cross_domain_repair_bytes,
        clean_after_repair: repair.unrepaired_stripes == 0 && vol.is_clean(),
    }
}

fn soak_scenario(cfg: &ExperimentConfig) -> FleetConfig {
    FleetConfig {
        topology: topo(),
        storage_nodes: TOPO_STORAGE,
        storage: SharedStorage::ErasureCoded { k: EC_K, m: EC_M },
        faults: FaultConfig::chaos_with_domains(),
        ..chaos_scenario(cfg, TOPO_SOAK_DAYS, TOPO_COMPUTE, cfg.images.min(6))
    }
}

/// Run the scenario sweep and the soak and report both as a [`Record`].
pub fn run_topology(cfg: &ExperimentConfig) -> (Vec<ScenarioResult>, Sweep<Soak>, Record) {
    let mut scenarios = Vec::new();
    for loss in Loss::ALL {
        scenarios.push(run_replicated(cfg.seed, loss));
        scenarios.push(run_erasure(cfg.seed, loss));
    }

    // Both designs ride out a single-node loss; the headline gate is that
    // the erasure-coded tier also rides out a whole-rack loss (the 4-rack
    // placement caps any rack at m shards per stripe) *and* scrubs back to
    // clean by re-homing the lost shards across racks.
    let cell = |mode: &str, loss: Loss| {
        scenarios
            .iter()
            .find(|s| s.mode == mode && s.loss == loss)
            .expect("swept cell")
    };
    for mode in ["replicated", "erasure"] {
        assert_eq!(
            cell(mode, Loss::None).availability(),
            1.0,
            "{mode}: healthy reads failed"
        );
        assert_eq!(
            cell(mode, Loss::Node).availability(),
            1.0,
            "{mode}: node loss not survived"
        );
    }
    let ec_rack = cell("erasure", Loss::Rack);
    let ec_survives_rack_loss = ec_rack.availability() == 1.0
        && ec_rack.degraded_reads > 0
        && ec_rack.clean_after_repair
        && ec_rack.cross_domain_repair_bytes > 0;

    let soak = soak_scenario(cfg);
    let sweep = sweep_soak(cfg, soak);
    let (r, _, snap) = &sweep.outcome;

    let mut gates = vec![("ec_survives_rack_loss", ec_survives_rack_loss)];
    gates.extend(soak_gates(&sweep));
    // At least one correlated domain outage hit the soak, and EC repair ran.
    gates.push(("rack_outages", r.fault.rack_downs > 0));
    gates.push((
        "ec_repair_bytes",
        snap.counter_sum("squirrel_ec_repair_bytes_total") > 0,
    ));
    let record = Record {
        experiment: "topology",
        paper: false,
        params: json_obj! {
            soak => [images, scale, seed, days],
            "topology": json_obj! {
                "regions": 1u32,
                "datacenters": 2u32,
                "racks": 4u32,
                "compute_nodes": TOPO_COMPUTE,
                "storage_nodes": TOPO_STORAGE,
            },
            "erasure": json_obj! {
                "k": EC_K,
                "m": EC_M,
                "storage_overhead": f64::from(EC_K + EC_M) / f64::from(EC_K),
            },
            "replication": json_obj! {"replicas": 2u32, "storage_overhead": 2u32},
        },
        gates,
        deterministic: json_obj! {
            "scenarios": Json::arr(&scenarios, |s| json_obj! {
                s => [mode],
                "loss": s.loss.name(),
                s => [objects, available],
                "availability": s.availability(),
                s => [degraded_reads, repair_bytes, cross_domain_repair_bytes, clean_after_repair],
            }),
            "soak": soak_block(&sweep.outcome),
        },
    };
    (scenarios, sweep, record)
}
