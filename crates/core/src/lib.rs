//! Squirrel: scatter hoarding VM image contents on IaaS compute nodes.
//!
//! This crate is the paper's primary contribution: a *fully replicated*
//! storage architecture that keeps the deduplicated, compressed boot caches
//! of **all** registered VM images on **every** compute node of the data
//! center, so that any VM can boot anywhere without touching the network.
//!
//! Architecture (paper Figure 5): the storage nodes run a parallel file
//! system holding the full VMIs plus one *scVolume* — a dedup+gzip ZFS pool
//! of VMI caches. Every compute node runs a *ccVolume*, a replica of the
//! scVolume kept in sync via incremental snapshot streams.
//!
//! Workflows implemented here — one file each under `system/`, sharing one
//! source picker, one transfer-accounting path, one cache-state
//! classification and one block-repair loop:
//!
//! * [`Squirrel::register`] — first-boot the image on a storage node behind
//!   a copy-on-read cache, move the captured boot working set into the
//!   scVolume, snapshot it, and multicast the incremental snapshot diff to
//!   all online compute nodes (Section 3.2, Figure 6).
//! * [`Squirrel::boot`] — chain a copy-on-write image over the node's
//!   ccVolume; warm caches boot with *zero* network traffic, missing caches
//!   fall back to CoW-over-parallel-FS (Section 3.3, Figure 7).
//! * [`Squirrel::deregister`] + [`Squirrel::gc`] — delete the cache and
//!   collect snapshots older than the `n`-day propagation window, always
//!   keeping the latest (Section 3.4).
//! * [`Squirrel::node_offline`] / [`Squirrel::node_rejoin`] — lagging nodes
//!   catch up with an incremental stream when their last snapshot is still
//!   within the window, or fall back to full re-replication (Section 3.5).
//! * [`Squirrel::boot_storm`] — M concurrent boots of one image, served
//!   zero-copy from the hoarded ccVolumes: each warm node resolves its
//!   working set once and its VMs share those buffers; the read phase fans
//!   out over worker threads with bit-identical results at any thread count.
//! * [`Squirrel::set_fault_plan`] + the `scrub_and_repair` family — a
//!   seeded, deterministic fault schedule ([`squirrel_faults`]) drives
//!   drops, duplicates, in-flight bit flips, crashed receives, rotten
//!   blocks and churn; recovery is transactional recv, bounded
//!   retry-with-backoff, scrub-and-repair from intact replicas, and
//!   degraded boots that fall back to shared storage.
//! * [`Squirrel::converge`] — heal every link, rejoin every node, one
//!   repair sweep, one budget pass, then check the replication invariant
//!   and scrub every pool.
//! * [`run_fleet`] / [`soak_fleet`] — the one long-horizon driver, on the
//!   [`sched`] discrete-event core: Zipf + diurnal demand over an elastic
//!   fleet, popularity decay feeding budget enforcement, the daily fault
//!   tick, and per-day latency/byte roll-ups in a [`FleetReport`];
//!   `soak_fleet` ends the same run on `converge`.

mod dist;
pub mod fleet;
pub mod sched;
mod system;
mod trace;

pub use dist::{DistributionPolicy, TransferLeg, TransferPlan};
pub use fleet::{
    run_fleet, run_fleet_with_metrics, soak_fleet, FleetConfig, FleetDay, FleetReport,
};
pub use sched::{EventQueue, Scheduled};
pub use squirrel_cluster::{EcRepairReport, TopologyConfig};
pub use squirrel_faults::{FaultConfig, FaultPlan, FaultReport};
pub use system::{
    ArcStats, BootOutcome, BootStormReport, BootVerification, BudgetReport, Convergence,
    EvictReport, FaultTick, GcReport, HoardBudget, NodeReplication, RegisterReport,
    RegistrationInfo, RehoardReport, RejoinOutcome, RepairReport, RepairSweep, ReplicationReport,
    RotHit, SharedStorage, Squirrel, SquirrelConfig, SquirrelConfigBuilder, SquirrelError,
    SyncRepairReport,
};
pub use trace::paper_scale_trace;
