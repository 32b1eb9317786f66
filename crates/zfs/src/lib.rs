//! A ZFS-like block store: inline deduplication + compression, snapshots,
//! and incremental send/recv — the storage engine Squirrel's cVolumes run on.
//!
//! The paper uses ZFS as an off-the-shelf mechanism; every quantity its
//! evaluation measures is an accounting property of a dedup+compress block
//! store, which this crate implements from scratch:
//!
//! * **Content addressing** — records keyed by SHA-256 (like
//!   `dedup=sha256`): fixed-size blocks, or content-defined chunks cut by a
//!   Gear scan; a file's table ([`pool::FileTable`]) holds one kind or the
//!   other, never both. Chunked files are imported and measured (layout,
//!   scatter, scrub, repair) only: they have no block reads, and `decode`
//!   and every receive path refuse a stream that carries one, so every
//!   record read or received is a fixed block. One refcounted dedup table
//!   ([`ddt`]) serves concurrent `&self` probes and takes every mutation
//!   from the serial commit path.
//! * **Inline compression** — every unique block is stored compressed with a
//!   configurable codec (gzip-6 by default, like the paper's choice).
//! * **Space accounting** ([`stats`]) — physical data, on-disk DDT, in-core
//!   DDT, and block-pointer metadata, the inputs to Figures 8–10 and 13.
//! * **Snapshots & incremental send** ([`send`]) — cheap read-only snapshots
//!   of the whole pool's file set and `zfs send -i`-style diff streams, the
//!   propagation mechanism of Squirrel's registration workflow (Section 3).
//! * **Staged parallel ingestion** ([`ingest`]) — whole-file imports split
//!   into pure prepare stages (records cut by chunking strategy, fused
//!   zero-scan + hash + DDT probe, then compression) that fan out over a
//!   persistent [`WorkerPool`](squirrel_hash::par::WorkerPool) shared
//!   across calls and pools, and a batched in-order serial commit —
//!   bit-identical to the serial write path at any thread count.
//! * **Zero-copy read path** ([`ZPool::read_block_or_hole`]) — payloads are
//!   shared immutable buffers: stored compressed records are [`Frame`]s,
//!   decompressed data is [`SharedPayload`] (`Arc<[u8]>`). A read
//!   decompresses on every call and remembers nothing; a caller serving
//!   many readers shares the buffer itself — a boot storm reads each
//!   distinct frame ([`ZPool::block_frame`]) once across its warm nodes,
//!   and their VMs share those buffers.
//! * **Proved once per buffer** ([`Frame::content_key`]) — a stored record
//!   is checked against its key by one decompress + SHA-256, which the
//!   frame remembers. The sender's DDT entry, the streams built from it and
//!   every receiver's DDT entry share the frame, so the proof a
//!   registration's one [`ZPool::verify`] made serves every later `recv`,
//!   [`ZPool::scrub`], [`ZPool::file_is_intact`] and repair on every pool.
//!   Nothing pre-fills the memo and nothing can mutate the bytes: a rotted,
//!   repaired or wire-decoded record is a different frame, born unproven.
//! * **Physical layout** — unique blocks are allocated sequentially in
//!   arrival order, so logically adjacent blocks of a deduplicated file end
//!   up scattered; the boot simulator reads this layout to reproduce the
//!   paper's Figure 11 seek behaviour.

pub mod config;
pub mod ddt;
mod history;
pub mod ingest;
mod meter;
#[cfg(test)]
mod oracle;
pub mod pool;
pub mod scrub;
pub mod send;
pub mod stats;

pub use config::{DedupMode, PoolConfig, PoolConfigBuilder};
pub use ddt::{BlockKey, DdtEntry, Frame, SharedPayload};
pub use pool::{BlockRef, CdcChunk, FileScatter, RecordLoc, ReverseDedupReport, ZPool};
pub use scrub::ScrubReport;
pub use send::{DecodeError, RecvError, SendError, SendStream, VerifiedStream, WIRE_BLOCK_HEADER};
pub use squirrel_hash::cdc::CdcParams;
pub use stats::{QuotaExcess, SpaceStats};
