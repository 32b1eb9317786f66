//! Data-center model: nodes, network links with per-node transfer ledgers,
//! IP multicast, and a glusterfs-like striped + replicated parallel file
//! system — the environment of the paper's Section 4.4 experiment.
//!
//! The DAS-4 deployment the paper measures has 64 compute nodes and 4
//! storage nodes running glusterfs with two levels of striping and two of
//! replication, connected by 1 GbE and QDR InfiniBand. Figure 18 charges
//! every byte that reaches a compute node's NIC; this crate implements that
//! ledger plus the storage-side distribution of reads.
//!
//! Beyond the flat DAS-4 model, the crate carries a failure-domain
//! [`Topology`] (region → datacenter → rack → node) with hierarchy-aware
//! link costs, CRUSH-style deterministic placement, and an
//! [`ErasureCodedVolume`] that stripes objects into k+m Reed–Solomon shards
//! spread across distinct racks — the substrate for correlated-failure
//! (rack/datacenter loss) chaos experiments.

mod erasure;
mod netsim;
mod parallelfs;
mod rscode;
mod topology;

pub use erasure::{
    EcConfig, EcError, EcReadReport, EcRepairReport, EcWriteReport, ErasureCodedVolume,
};
pub use netsim::{LinkKind, NetError, Network, NodeId, NodeRole, TrafficLedger};
pub use parallelfs::{GlusterConfig, GlusterVolume};
pub use rscode::{rs_encode, rs_reconstruct, RsError};
pub use topology::{Domain, LinkScope, Topology, TopologyConfig};
