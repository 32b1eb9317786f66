//! The copy-on-read cache — the VMI caching layer of the paper's Figure 1.
//!
//! Two pieces:
//!
//! * [`VirtualDisk`] — the read interface a cache and its backing speak.
//! * [`CorCache`] — a copy-on-read cache: block-granular, populated on
//!   first access (the cold-cache path of Figure 1), serving locally from
//!   then on (warm). Squirrel stores these per-VMI caches in its cVolumes.
//!
//! The QCOW2 overlay above the cache has no byte layer here. Its 64 KiB
//! cluster over-fetch into the host page cache — the mechanism behind the
//! paper's observation (Section 4.2.3) that warm caches boot faster than
//! local images — is modelled on the simulated clock by `squirrel-bootsim`
//! (`QCOW2_CLUSTER`), which replays the boot trace through its own model of
//! the whole chain.

mod cor;
mod disk;

pub use cor::CorCache;
pub use disk::{MemDisk, VirtualDisk};
