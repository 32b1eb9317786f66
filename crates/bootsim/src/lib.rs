//! Trace-driven VM boot simulator — the machinery behind the paper's
//! Figure 11 (boot time vs cVolume block size) and the boot-time entries of
//! Table-like summaries.
//!
//! The simulator replays a boot read trace (from `squirrel-dataset`) through
//! a QCOW2-style request chain against one of four storage backends and
//! integrates I/O time over an explicit device model:
//!
//! * [`Backend::WarmCacheXfs`] — the warmed VMI cache as a compact plain
//!   file: short seeks, sequential transfers.
//! * [`Backend::BaseImageXfs`] — the classic CoW-over-local-VMI baseline:
//!   the boot working set is spread across the multi-GB image, so seeks are
//!   long.
//! * [`Backend::ColdCache`] — first boot: every miss crosses the network to
//!   the storage nodes and is written back to the local cache.
//! * [`Backend::DedupVolume`] — the warmed cache inside a dedup+gzip ZFS
//!   cVolume: DDT lookups, record-sized reads at scattered physical
//!   locations, whole-record decompression, and an ARC that keeps popular
//!   (cross-VMI shared) records resident.
//!
//! [`BootSim::boot_measured`] additionally replays a trace against a layout
//! *measured* from a real `squirrel-zfs` pool ([`MeasuredVolumeParams`]):
//! every seek is the actual head move between allocator-assigned extents,
//! which is how forward- vs reverse-dedup placement is priced.
//!
//! Both entry points drive one cluster loop (page cache by cluster, disk
//! head, total). A plain file is one device read per cluster. A cVolume is
//! replayed in two steps: [`BootSim::plan`] *walks* the trace once for a
//! record geometry and an ARC capacity — the records each first-touched
//! cluster overlaps, each touch an ARC hit, a raw-resident record or a
//! first fetch — and [`BootSim::price`] runs one per-record routine over the
//! plan: DDT lookup, device read, decompress. The walk depends on nothing
//! the price reads, so one [`BootPlan`] prices every backend of its
//! geometry. Records come from one of two sources: *statistical* (fixed
//! records placed by coin flips, for [`Backend::DedupVolume`]) or
//! *measured* (the pool's layout). The two differ only in where records
//! sit.
//!
//! Mechanisms reproduced (paper Section 4.2.3): QCOW2's 64 KiB cluster
//! over-fetch acting as free prefetch; dedup-induced scattering punishing
//! small records; whole-record decompression punishing records larger than
//! the cluster size (why 128 KiB boots slower than 64 KiB).

mod model;
mod sim;

pub use model::{CpuModel, DiskModel};
pub use sim::{Backend, BootPlan, BootReport, BootSim, DedupVolumeParams, MeasuredVolumeParams};
