//! Staged, deterministic parallel ingestion.
//!
//! [`ZPool::write_block`] interleaves three very different costs: a zero
//! scan, a SHA-256 digest, and (for new blocks) a compression pass — all
//! CPU-bound and independent per block — with dedup-table and file-table
//! updates that must stay serial. This module splits the two: a *prepare*
//! phase fans the pure per-block work out over the pool's persistent
//! workers ([`squirrel_hash::par::WorkerPool`]), and a *commit* phase
//! applies the prepared plan in block order on the caller's thread.
//!
//! Hot-path structure (each stage wall-timed under a journal-quiet
//! `zpool_ingest_*` timer):
//!
//! 1. **prepare** (parallel, fused) — zero-scan + SHA-256 + DDT probe in
//!    one pass per block. The zero probe early-exits at the first nonzero
//!    cache line and the DDT serves lock-free `&self` lookups, so
//!    the whole per-block cost is essentially the hash.
//! 2. **probe** (serial) — first-occurrence scan over the prepared keys,
//!    fixing each batch-new key's representative block.
//! 3. **compress** (parallel) — one compression per new unique key, with
//!    codec dispatch hoisted out of the loop
//!    ([`squirrel_compress::Compressor`]).
//! 4. **commit** (serial, batched) — DDT inserts in first-occurrence order
//!    draining the prepared frames with a cursor (no per-block map
//!    lookups), pointer table and DDT pre-sized once, and
//!    meters updated with one `add(n)` per counter per batch.
//!
//! This is the only whole-file import ([`ZPool::import_file`],
//! [`ZPool::import_blocks_parallel`]) and the one place a
//! [`DedupMode::Reverse`] import runs [`ZPool::reverse_dedup_pass`].
//!
//! Determinism contract: for any `threads` setting the resulting pool state
//! is bit-identical to a `create_file` + [`ZPool::write_block`] replay (the
//! tests' reference) — same DDT entries, same physical allocation order
//! (the append-only allocator assigns offsets in first-occurrence order,
//! which commit preserves), same file tables, same send-stream bytes.
//! Compression runs exactly once per batch-new unique key, mirroring
//! `write_block`'s lazy `add_ref` closure.

use crate::config::{ChunkStrategy, DedupMode};
use crate::ddt::{BlockKey, Frame};
use crate::pool::{CdcChunk, FileTable, ZPool};
use squirrel_compress::Compressor;
use squirrel_hash::cdc::{chunk_boundaries_with, gear_table, CdcParams};
use squirrel_hash::par::cost;
use squirrel_hash::{ContentHash, FnvHashSet};
use std::sync::Arc;

/// A prepared DDT payload: compressed size plus the frame itself (absent in
/// accounting-only pools) — exactly what `DedupTable::add_ref` consumes.
/// The frame is unproven: compressing is not evidence that decompressing
/// gives the content back, so its first verification does the work.
type PreparedFrame = (u32, Option<Frame>);

/// One content-defined chunk out of the parallel boundary scan: its byte
/// range within the run buffer, and `None` for all-zero chunks (elided as
/// holes) or `(key, already-in-DDT)` otherwise.
type ScannedChunk = (usize, usize, Option<(BlockKey, bool)>);

impl ZPool {
    /// Import `blocks` as file `name` (replacing any existing file), using
    /// the pool's configured ingestion thread count. Each block must be
    /// exactly `block_size` bytes (callers zero-pad tails). The final
    /// logical length is set to `logical_len`.
    pub fn import_file(&mut self, name: &str, blocks: &[Vec<u8>], logical_len: u64) {
        let data: Vec<&[u8]> = blocks.iter().map(|b| b.as_slice()).collect();
        let idxs: Vec<u64> = (0..blocks.len() as u64).collect();
        self.ingest(name, &idxs, &data, Some(logical_len));
    }

    /// Parallel import of sparse `(block_index, data)` pairs (the register
    /// path's copy-on-read cache shape). Indices must be strictly
    /// increasing; unmentioned indices become holes. The logical length is
    /// block-granular, matching a [`ZPool::write_block`] replay.
    /// Generic over the payload container so both owned (`Box<[u8]>`,
    /// `Vec<u8>`) and shared (`Arc<[u8]>`) blocks import without copying.
    pub fn import_blocks_parallel<B: AsRef<[u8]>>(&mut self, name: &str, blocks: &[(u64, B)]) {
        debug_assert!(
            blocks.windows(2).all(|w| w[0].0 < w[1].0),
            "sparse import requires strictly increasing block indices"
        );
        let data: Vec<&[u8]> = blocks.iter().map(|(_, d)| d.as_ref()).collect();
        let idxs: Vec<u64> = blocks.iter().map(|(i, _)| *i).collect();
        self.ingest(name, &idxs, &data, None);
    }

    /// The shared staged pipeline. `idxs[j]` is the file block index of
    /// `data[j]`; both are in ascending block order. Dispatches on the
    /// pool's [`ChunkStrategy`], and finishes with a
    /// [`ZPool::reverse_dedup_pass`] under [`DedupMode::Reverse`].
    fn ingest(&mut self, name: &str, idxs: &[u64], data: &[&[u8]], logical_len: Option<u64>) {
        match self.config().chunking {
            ChunkStrategy::Fixed(_) => self.ingest_fixed(name, idxs, data, logical_len),
            ChunkStrategy::Cdc(params) => self.ingest_cdc(name, idxs, data, logical_len, params),
        }
        if self.config().dedup_mode == DedupMode::Reverse {
            self.reverse_dedup_pass(name);
        }
    }

    /// The fixed-record four-stage pipeline (bit-identical to a
    /// [`ZPool::write_block`] replay at any thread count).
    fn ingest_fixed(&mut self, name: &str, idxs: &[u64], data: &[&[u8]], logical_len: Option<u64>) {
        let cfg = *self.config();
        for b in data {
            assert_eq!(b.len(), cfg.block_size, "unaligned write");
        }
        // Replace the file first so any releases from the old incarnation
        // land before the fused prepare stage probes the DDT.
        self.create_file(name);

        // Stage 1 "prepare" (parallel, fused): zero-scan + hash + DDT probe
        // in one pass per block on the persistent workers. The probe reads
        // the pre-batch DDT through `&self` shard lookups; `known` records
        // whether the key already had an entry before this batch.
        let keys: Vec<Option<(BlockKey, bool)>> = {
            let t = self.meters.metrics.timer("zpool_ingest_prepare");
            let ddt = self.ddt();
            let hash_cost = |b: &&[u8]| b.len() as u64 * cost::HASH;
            self.worker_pool().parallel_map(data, hash_cost, |_j, b| {
                t.busy(|| {
                    ContentHash::of_nonzero(b).map(|h| {
                        let k = h.short();
                        (k, ddt.get(&k).is_some())
                    })
                })
            })
        };

        // Stage 2 "probe" (serial): first-occurrence scan for keys new to
        // the DDT. Scanning in block order fixes each new key's
        // representative block and, later, its physical allocation slot.
        let mut new_unique: Vec<(BlockKey, usize)> = Vec::new();
        {
            let _t = self.meters.metrics.timer("zpool_ingest_probe");
            let mut seen: FnvHashSet<BlockKey> = FnvHashSet::default();
            for (j, key) in keys.iter().enumerate() {
                if let Some((k, known)) = *key {
                    if !known && seen.insert(k) {
                        new_unique.push((k, j));
                    }
                }
            }
        }

        // Stage 3 "compress" (parallel, pure): compress one representative
        // per new unique key — exactly the work `write_block`'s lazy
        // `add_ref` closure performs, once per key — with codec dispatch
        // resolved once per batch instead of once per block.
        let mut prepared: Vec<(BlockKey, PreparedFrame)> = {
            let t = self.meters.metrics.timer("zpool_ingest_compress");
            let compressor = Compressor::new(cfg.codec);
            let deflate_cost = |_: &(BlockKey, usize)| cfg.block_size as u64 * cost::DEFLATE;
            self.worker_pool()
                .parallel_map(&new_unique, deflate_cost, |_j, &(k, rep)| {
                    t.busy(|| {
                        let frame = compressor.compress(data[rep]);
                        let psize = frame.len() as u32;
                        (k, (psize, cfg.retain_data.then(|| frame.into())))
                    })
                })
        };

        // Stage 4 "commit" (serial, batched): apply in block order. DDT
        // entries appear in first-occurrence order, so the append-only
        // physical allocator reproduces the `write_block` layout exactly — and
        // because `prepared` is *also* in first-occurrence order, commit
        // drains it with a plain cursor instead of per-block map removals.
        // Pointer table and DDT are pre-sized once from the scan;
        // meters take one batched `add` per counter.
        let _t = self.meters.metrics.timer("zpool_ingest_commit");
        let bs = cfg.block_size as u64;
        self.ddt_mut().reserve(prepared.len());
        let mut ptrs: Vec<Option<BlockKey>> =
            vec![None; idxs.last().map(|&i| i as usize + 1).unwrap_or(0)];
        let mut next = 0usize;
        let mut zeros = 0u64;
        let mut misses = 0u64;
        let mut compress_out = 0u64;
        for (j, key) in keys.iter().enumerate() {
            if let Some((k, _)) = *key {
                let was_new = self.ddt_mut().add_ref(k, || {
                    let (pk, (psize, payload)) = &mut prepared[next];
                    debug_assert_eq!(*pk, k, "prepared drains in first-occurrence order");
                    next += 1;
                    (*psize, cfg.block_size as u32, payload.take())
                });
                if was_new {
                    misses += 1;
                    let psize = prepared[next - 1].1 .0 as u64;
                    compress_out += psize;
                    self.meters.compressed_block_bytes.observe(psize);
                }
                ptrs[idxs[j] as usize] = Some(k);
            } else {
                zeros += 1;
            }
        }
        debug_assert_eq!(next, prepared.len(), "every prepared frame committed");
        let n = data.len() as u64;
        self.meters.ingest_blocks.add(n);
        self.meters.ingest_bytes.add(n * bs);
        self.meters.zero_blocks.add(zeros);
        self.meters.ddt_hits.add(n - zeros - misses);
        self.meters.ddt_misses.add(misses);
        self.meters.compress_in_bytes.add(misses * bs);
        self.meters.compress_out_bytes.add(compress_out);
        let mut len = idxs.last().map(|&i| (i + 1) * bs).unwrap_or(0);
        if let Some(l) = logical_len {
            len = l;
        }
        self.files_mut()
            .insert(name.to_string(), FileTable { ptrs: Arc::new(ptrs), chunks: None, len });
    }

    /// The CDC pipeline: same staged shape as
    /// [`ingest_fixed`](Self::ingest_fixed), but stage 1 also runs the Gear
    /// boundary scan on the workers, cutting each physically contiguous run
    /// of input blocks into content-defined chunks that then flow through
    /// the identical probe → compress → commit path. Chunk boundaries, key
    /// order, and physical allocation depend only on content, so the result
    /// is bit-identical at any thread count.
    fn ingest_cdc(
        &mut self,
        name: &str,
        idxs: &[u64],
        data: &[&[u8]],
        logical_len: Option<u64>,
        params: CdcParams,
    ) {
        let cfg = *self.config();
        for b in data {
            assert_eq!(b.len(), cfg.block_size, "unaligned write");
        }
        self.create_file(name);
        let bs = cfg.block_size as u64;

        // Contiguous runs of block indices: CDC must scan unbroken logical
        // byte ranges (a gap in a sparse import is a hole, and a chunk never
        // spans one).
        let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
        for j in 0..idxs.len() {
            match runs.last_mut() {
                Some(r) if idxs[j] == idxs[r.end - 1] + 1 => r.end = j + 1,
                _ => runs.push(j..j + 1),
            }
        }

        // Stage 1 "prepare" (parallel, fused): per run, concatenate the
        // blocks, Gear-scan the boundaries (memoized gear table, resolved
        // once per batch), then zero-scan + hash + DDT-probe each chunk.
        let gear = gear_table(params.gear_seed);
        let scanned: Vec<(Vec<u8>, Vec<ScannedChunk>)> = {
            let t = self.meters.metrics.timer("zpool_ingest_prepare");
            let ddt = self.ddt();
            // Every byte is scanned for boundaries, then hashed.
            let scan_cost =
                |run: &std::ops::Range<usize>| (run.len() * cfg.block_size) as u64 * 2 * cost::HASH;
            self.worker_pool()
                .parallel_map(&runs, scan_cost, |_r, run| {
                    t.busy(|| {
                        let mut buf = Vec::with_capacity(run.len() * cfg.block_size);
                        for j in run.clone() {
                            buf.extend_from_slice(data[j]);
                        }
                        let chunks = chunk_boundaries_with(&buf, &params, &gear)
                            .into_iter()
                            .map(|(s, e)| {
                                let key = ContentHash::of_nonzero(&buf[s..e]).map(|h| {
                                    let k = h.short();
                                    (k, ddt.get(&k).is_some())
                                });
                                (s, e, key)
                            })
                            .collect();
                        (buf, chunks)
                    })
                })
        };

        // Stage 2 "probe" (serial): first-occurrence scan across runs in
        // logical order, fixing each batch-new key's representative chunk.
        let mut new_unique: Vec<(BlockKey, usize, usize, usize)> = Vec::new();
        {
            let _t = self.meters.metrics.timer("zpool_ingest_probe");
            let mut seen: FnvHashSet<BlockKey> = FnvHashSet::default();
            for (r, (_, chunks)) in scanned.iter().enumerate() {
                for &(s, e, key) in chunks {
                    if let Some((k, known)) = key {
                        if !known && seen.insert(k) {
                            new_unique.push((k, r, s, e));
                        }
                    }
                }
            }
        }

        // Stage 3 "compress" (parallel, pure): one compression per
        // batch-new unique chunk.
        let mut prepared: Vec<(BlockKey, u32, PreparedFrame)> = {
            let t = self.meters.metrics.timer("zpool_ingest_compress");
            let compressor = Compressor::new(cfg.codec);
            let deflate_cost =
                |&(_, _, s, e): &(BlockKey, usize, usize, usize)| (e - s) as u64 * cost::DEFLATE;
            self.worker_pool()
                .parallel_map(&new_unique, deflate_cost, |_j, &(k, r, s, e)| {
                    t.busy(|| {
                        let frame = compressor.compress(&scanned[r].0[s..e]);
                        let psize = frame.len() as u32;
                        (
                            k,
                            (e - s) as u32,
                            (psize, cfg.retain_data.then(|| frame.into())),
                        )
                    })
                })
        };

        // Stage 4 "commit" (serial, batched): add_ref in first-occurrence
        // order (cursor drain, like the fixed path) while building the
        // chunk table in logical order; zero chunks become gaps.
        let _t = self.meters.metrics.timer("zpool_ingest_commit");
        self.ddt_mut().reserve(prepared.len());
        let mut chunk_table: Vec<CdcChunk> = Vec::new();
        let mut next = 0usize;
        let mut chunk_count = 0u64;
        let mut chunk_bytes = 0u64;
        let mut zeros = 0u64;
        let mut misses = 0u64;
        let mut compress_in = 0u64;
        let mut compress_out = 0u64;
        for (r, (_, chunks)) in scanned.iter().enumerate() {
            let run_off = idxs[runs[r].start] * bs;
            for &(s, e, key) in chunks {
                chunk_count += 1;
                chunk_bytes += (e - s) as u64;
                let Some((k, _)) = key else {
                    zeros += 1;
                    continue;
                };
                let was_new = self.ddt_mut().add_ref(k, || {
                    let (pk, lsize, (psize, payload)) = &mut prepared[next];
                    debug_assert_eq!(*pk, k, "prepared drains in first-occurrence order");
                    next += 1;
                    (*psize, *lsize, payload.take())
                });
                if was_new {
                    misses += 1;
                    let (_, lsize, (psize, _)) = prepared[next - 1];
                    compress_in += lsize as u64;
                    compress_out += psize as u64;
                    self.meters.compressed_block_bytes.observe(psize as u64);
                }
                chunk_table.push(CdcChunk {
                    key: k,
                    logical_off: run_off + s as u64,
                    len: (e - s) as u32,
                });
            }
        }
        debug_assert_eq!(next, prepared.len(), "every prepared frame committed");
        let n = data.len() as u64;
        self.meters.ingest_blocks.add(n);
        self.meters.ingest_bytes.add(n * bs);
        self.meters.zero_blocks.add(zeros);
        self.meters.ddt_hits.add(chunk_count - zeros - misses);
        self.meters.ddt_misses.add(misses);
        self.meters.compress_in_bytes.add(compress_in);
        self.meters.compress_out_bytes.add(compress_out);
        self.meters.chunking_chunks.add(chunk_count);
        self.meters.chunking_chunk_bytes.add(chunk_bytes);
        let mut len = idxs.last().map(|&i| (i + 1) * bs).unwrap_or(0);
        if let Some(l) = logical_len {
            len = l;
        }
        self.files_mut().insert(
            name.to_string(),
            FileTable {
                ptrs: Arc::new(Vec::new()),
                chunks: Some(Arc::new(chunk_table)),
                len,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::config::PoolConfig;
    use crate::pool::ZPool;
    use squirrel_compress::Codec;

    /// Synthetic batch with duplicates, zero blocks, and compressible data.
    fn test_blocks(bs: usize, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| match i % 5 {
                0 => vec![0u8; bs],                                   // hole
                1 => (0..bs).map(|j| (j % 13) as u8).collect(),       // repeated
                2 => (0..bs).map(|j| ((i * 31 + j) % 251) as u8).collect(),
                3 => vec![(i % 7) as u8; bs],                         // runs
                _ => (0..bs).map(|j| (j % 13) as u8).collect(),       // dup of 1
            })
            .collect()
    }

    /// The pipeline tests' reference: one `write_block` per block.
    fn write_block_replay(cfg: PoolConfig, blocks: &[Vec<u8>]) -> ZPool {
        let mut p = ZPool::new(cfg);
        p.create_file("f");
        for (i, b) in blocks.iter().enumerate() {
            p.write_block("f", i as u64, b);
        }
        p
    }

    #[test]
    fn parallel_import_matches_serial_bit_for_bit() {
        let bs = 1024;
        let blocks = test_blocks(bs, 64);
        let len = 64 * bs as u64;
        let mut serial = write_block_replay(PoolConfig::new(bs, Codec::Gzip(6)), &blocks);
        let serial_stats = serial.stats();
        serial.snapshot("s");
        let serial_wire = serial.send_latest().expect("snapshot").encode();

        for threads in [1, 2, 8] {
            let mut p = ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)).with_threads(threads));
            p.import_file("f", &blocks, len);
            assert_eq!(p.stats(), serial_stats, "threads={threads}");
            assert!(p.check_refcounts());
            // Physical layout (allocation order) must match exactly.
            assert_eq!(p.block_refs("f"), serial.block_refs("f"), "threads={threads}");
            // The wire bytes of a full send are a digest of the entire pool
            // state: tables, lengths, payload frames, and their order.
            p.snapshot("s");
            assert_eq!(
                p.send_latest().expect("snapshot").encode(),
                serial_wire,
                "threads={threads}"
            );
        }
    }

    /// `benchmark/`'s per-stage ingest rungs read these four timers by name,
    /// and a missing one reads as zero seconds, not as an error.
    #[test]
    fn every_import_times_its_four_stages() {
        use crate::config::ChunkStrategy;
        use squirrel_hash::cdc::CdcParams;
        let bs = 1024;
        let blocks = test_blocks(bs, 64);
        let cdc = ChunkStrategy::Cdc(CdcParams::with_average(2048));
        for chunking in [ChunkStrategy::Fixed(bs), cdc] {
            let reg = squirrel_obs::MetricsRegistry::new();
            let config = PoolConfig::new(bs, Codec::Gzip(6)).with_chunking(chunking);
            let mut p = ZPool::new(config.with_threads(2));
            p.set_metrics(&reg.handle());
            p.import_file("f", &blocks, 64 * bs as u64);
            let times = reg.wall_times();
            let names: Vec<&str> = times.iter().map(|(name, _)| name.as_str()).collect();
            let stages = ["commit", "compress", "prepare", "probe"];
            let want = stages.map(|s| format!("zpool_ingest_{s}"));
            assert_eq!(names, want, "{chunking:?}: sorted by name");
            for (name, stats) in &times {
                assert_eq!(stats.count, 1, "{chunking:?} {name}");
                if name.ends_with("prepare") || name.ends_with("compress") {
                    assert!(stats.busy_nanos > 0, "{chunking:?} {name}");
                }
            }
        }
    }

    #[test]
    fn parallel_import_reads_back_exactly() {
        let bs = 512;
        let blocks = test_blocks(bs, 40);
        let mut p = ZPool::new(PoolConfig::new(bs, Codec::Lz4).with_threads(4));
        p.import_file("f", &blocks, 40 * bs as u64);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(p.read_block("f", i as u64).expect("file"), *b);
        }
    }

    #[test]
    fn sparse_import_matches_serial_write_block_replay() {
        let bs = 512;
        let sparse: Vec<(u64, Box<[u8]>)> = vec![
            (1, vec![7u8; bs].into_boxed_slice()),
            (4, (0..bs).map(|j| (j % 9) as u8).collect()),
            (5, vec![7u8; bs].into_boxed_slice()), // dup of index 1
            (9, vec![0u8; bs].into_boxed_slice()), // explicit zero block
        ];
        let mut serial = ZPool::new(PoolConfig::new(bs, Codec::Lzjb));
        serial.create_file("c");
        for (idx, d) in &sparse {
            serial.write_block("c", *idx, d);
        }
        for threads in [1, 2, 8] {
            let mut p = ZPool::new(PoolConfig::new(bs, Codec::Lzjb).with_threads(threads));
            p.import_blocks_parallel("c", &sparse);
            assert_eq!(p.stats(), serial.stats(), "threads={threads}");
            assert_eq!(p.block_refs("c"), serial.block_refs("c"));
            assert_eq!(p.file_len("c"), serial.file_len("c"));
            assert!(p.check_refcounts());
        }
    }

    #[test]
    fn reimport_replaces_and_releases_old_blocks() {
        let bs = 512;
        let mut p = ZPool::new(PoolConfig::new(bs, Codec::Off).with_threads(2));
        p.import_file("f", &[vec![1u8; bs], vec![2u8; bs]], 2 * bs as u64);
        assert_eq!(p.stats().unique_blocks, 2);
        p.import_file("f", &[vec![3u8; bs]], bs as u64);
        assert_eq!(p.stats().unique_blocks, 1);
        assert!(p.check_refcounts());
    }

    #[test]
    fn batch_dedups_against_existing_pool_content() {
        let bs = 512;
        let mut p = ZPool::new(PoolConfig::new(bs, Codec::Off).with_threads(2));
        p.import_file("a", &[vec![5u8; bs]], bs as u64);
        let phys_before = p.stats().physical_bytes;
        // Same content under another name: no new physical allocation.
        p.import_file("b", &[vec![5u8; bs]], bs as u64);
        assert_eq!(p.stats().unique_blocks, 1);
        assert_eq!(p.stats().physical_bytes, phys_before);
        assert!(p.check_refcounts());
    }

    #[test]
    fn accounting_only_pool_imports_without_payloads() {
        let bs = 512;
        let blocks = test_blocks(bs, 20);
        let mut p =
            ZPool::new(PoolConfig::new(bs, Codec::Lzjb).accounting_only().with_threads(2));
        p.import_file("f", &blocks, 20 * bs as u64);
        let serial =
            write_block_replay(PoolConfig::new(bs, Codec::Lzjb).accounting_only(), &blocks);
        assert_eq!(p.stats(), serial.stats());
    }

    #[test]
    fn empty_import_creates_empty_file() {
        let mut p = ZPool::new(PoolConfig::new(512, Codec::Off).with_threads(8));
        p.import_file("f", &[], 0);
        assert!(p.has_file("f"));
        assert_eq!(p.file_len("f"), Some(0));
        assert_eq!(p.stats().unique_blocks, 0);
    }

    #[test]
    fn cdc_import_is_bit_identical_across_threads() {
        use crate::config::ChunkStrategy;
        use squirrel_hash::cdc::CdcParams;
        let bs = 1024;
        let blocks = test_blocks(bs, 48);
        let len = 48 * bs as u64;
        let mk = |threads| {
            PoolConfig::new(bs, Codec::Lz4)
                .with_chunking(ChunkStrategy::Cdc(CdcParams::with_average(2048)))
                .with_threads(threads)
        };
        let mut reference = ZPool::new(mk(1));
        reference.import_file("f", &blocks, len);
        let ref_stats = reference.stats();
        reference.snapshot("s");
        let ref_wire = reference.send_latest().expect("snapshot").encode();
        for threads in [2, 8] {
            let mut p = ZPool::new(mk(threads));
            p.import_file("f", &blocks, len);
            assert_eq!(p.stats(), ref_stats, "threads={threads}");
            assert_eq!(p.block_refs("f"), reference.block_refs("f"), "threads={threads}");
            assert!(p.check_refcounts());
            p.snapshot("s");
            assert_eq!(
                p.send_latest().expect("snapshot").encode(),
                ref_wire,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cdc_sparse_import_respects_holes() {
        use crate::config::ChunkStrategy;
        use squirrel_hash::cdc::CdcParams;
        let bs = 512;
        let sparse: Vec<(u64, Vec<u8>)> = vec![
            (1, (0..bs).map(|j| (j % 9) as u8).collect()),
            (2, (0..bs).map(|j| (j % 11) as u8).collect()),
            (7, vec![5u8; bs]),
        ];
        let mut p = ZPool::new(
            PoolConfig::new(bs, Codec::Lzjb)
                .with_chunking(ChunkStrategy::Cdc(CdcParams::with_average(1024)))
                .with_threads(2),
        );
        p.import_blocks_parallel("c", &sparse);
        // Gaps read as zeros; a chunk never spans the hole between runs.
        assert_eq!(p.read_block("c", 0).expect("file"), vec![0u8; bs]);
        assert_eq!(p.read_block("c", 3).expect("file"), vec![0u8; bs]);
        for (idx, d) in &sparse {
            assert_eq!(p.read_block("c", *idx).expect("file"), *d, "block {idx}");
        }
        assert!(p.check_refcounts());
    }

    #[test]
    fn cdc_import_dedups_shifted_content_better_than_fixed() {
        use crate::config::ChunkStrategy;
        use squirrel_hash::cdc::CdcParams;
        // A 64-byte prefix insertion shifts every fixed block boundary, so
        // fixed-block dedup finds nothing; Gear boundaries resynchronize a
        // few chunks in and the rest of the corpus dedups.
        let bs = 512;
        let n = 64usize;
        let base: Vec<u8> = (0..(n * bs) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let mut shifted = vec![0x77u8; 64];
        shifted.extend_from_slice(&base[..n * bs - 64]);
        let to_blocks =
            |data: &[u8]| -> Vec<Vec<u8>> { data.chunks(bs).map(|c| c.to_vec()).collect() };
        let growth = |cfg: PoolConfig| {
            let mut p = ZPool::new(cfg);
            p.import_file("v1", &to_blocks(&base), (n * bs) as u64);
            let before = p.stats().physical_bytes;
            p.import_file("v2", &to_blocks(&shifted), (n * bs) as u64);
            p.stats().physical_bytes - before
        };
        let fixed_growth = growth(PoolConfig::new(bs, Codec::Off));
        let cdc_growth = growth(
            PoolConfig::new(bs, Codec::Off)
                .with_chunking(ChunkStrategy::Cdc(CdcParams::with_average(2048))),
        );
        assert!(
            cdc_growth < fixed_growth / 2,
            "cdc grew {cdc_growth} vs fixed {fixed_growth}"
        );
    }
}
