//! Interned metric handles for the pool's hot paths.
//!
//! All pool metrics are counters and histograms (add-only, commutative), so
//! parallel ingestion commits and concurrent `recv` calls across replica
//! pools produce bit-identical registry snapshots at any thread count.
//! Series carry whatever labels the attached [`Metrics`] handle holds
//! (conventionally `pool="scvol"` / `pool="ccvol"`).

use squirrel_obs::{Counter, Histogram, Metrics};

pub(crate) struct PoolMeters {
    /// The attached handle itself, kept for stage timers
    /// ([`Metrics::timer`]) — journal-quiet wall-clock spans of the ingest
    /// pipeline stages.
    pub(crate) metrics: Metrics,
    pub(crate) ingest_blocks: Counter,
    pub(crate) ingest_bytes: Counter,
    pub(crate) zero_blocks: Counter,
    pub(crate) ddt_hits: Counter,
    pub(crate) ddt_misses: Counter,
    pub(crate) compress_in_bytes: Counter,
    pub(crate) compress_out_bytes: Counter,
    pub(crate) recv_streams: Counter,
    pub(crate) recv_wire_bytes: Counter,
    /// Logical payload bytes covered by a successful stream verification,
    /// recorded once per verification ([`ZPool::verify`](crate::ZPool::verify),
    /// or the one inside `recv` and `apply_all_on`) by whoever ran it — not
    /// once per pool the verified stream was applied to.
    pub(crate) recv_verified_bytes: Counter,
    pub(crate) scrub_blocks: Counter,
    /// Logical bytes of the records scrub walks covered.
    pub(crate) scrub_bytes: Counter,
    /// Bytes this pool actually decompressed + hashed to prove records
    /// (recv, scrub, intact checks, repairs): the misses of the per-buffer
    /// memo ([`Frame::content_key`](crate::Frame::content_key)). Covered
    /// minus hashed is what remembering proofs saved.
    pub(crate) verify_hashed_bytes: Counter,
    /// Bytes this pool's reads decompressed: every read of a record counts
    /// it, so callers that share a buffer (a boot storm) read it once.
    pub(crate) read_decompressed_bytes: Counter,
    pub(crate) compressed_block_bytes: Histogram,
    /// Chunks emitted by the CDC prepare stage (zero chunks included).
    pub(crate) chunking_chunks: Counter,
    /// Logical bytes those chunks covered (mean chunk size =
    /// `chunk_bytes / chunks`).
    pub(crate) chunking_chunk_bytes: Counter,
    /// Distinct blocks relocated by reverse-dedup passes.
    pub(crate) reverse_extents_rewritten: Counter,
    /// Compressed bytes whose old physical copies became holes under
    /// reverse dedup.
    pub(crate) reverse_bytes_freed: Counter,
}

impl PoolMeters {
    pub(crate) fn new(m: &Metrics) -> Self {
        PoolMeters {
            metrics: m.clone(),
            ingest_blocks: m.counter("zpool_ingest_blocks_total"),
            ingest_bytes: m.counter("zpool_ingest_bytes_total"),
            zero_blocks: m.counter("zpool_zero_blocks_total"),
            ddt_hits: m.counter("zpool_ddt_hits_total"),
            ddt_misses: m.counter("zpool_ddt_misses_total"),
            compress_in_bytes: m.counter("zpool_compress_in_bytes_total"),
            compress_out_bytes: m.counter("zpool_compress_out_bytes_total"),
            recv_streams: m.counter("zpool_recv_streams_total"),
            recv_wire_bytes: m.counter("zpool_recv_wire_bytes_total"),
            recv_verified_bytes: m.counter("zpool_recv_verified_bytes_total"),
            scrub_blocks: m.counter("zpool_scrub_blocks_total"),
            scrub_bytes: m.counter("zpool_scrub_bytes_total"),
            verify_hashed_bytes: m.counter("zpool_verify_hashed_bytes_total"),
            read_decompressed_bytes: m.counter("zpool_read_decompressed_bytes_total"),
            compressed_block_bytes: m.histogram("zpool_compressed_block_bytes"),
            chunking_chunks: m.counter("squirrel_chunking_chunks_total"),
            chunking_chunk_bytes: m.counter("squirrel_chunking_chunk_bytes_total"),
            reverse_extents_rewritten: m
                .counter("squirrel_chunking_reverse_extents_rewritten_total"),
            reverse_bytes_freed: m.counter("squirrel_chunking_reverse_bytes_freed_total"),
        }
    }

    pub(crate) fn disabled() -> Self {
        Self::new(&Metrics::disabled())
    }
}
