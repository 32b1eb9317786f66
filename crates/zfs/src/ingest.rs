//! Staged, deterministic parallel ingestion.
//!
//! [`ZPool::write_block`] interleaves three very different costs: a zero
//! scan, a SHA-256 digest, and (for new blocks) a compression pass — all
//! CPU-bound and independent per record — with dedup-table and file-table
//! updates that must stay serial. This module splits the two: a *prepare*
//! phase fans the pure per-record work out over the pool's persistent
//! workers ([`squirrel_hash::par::WorkerPool`]), and a *commit* phase
//! applies the prepared plan in logical order on the caller's thread.
//!
//! Hot-path structure (each stage wall-timed under a journal-quiet
//! `zpool_ingest_*` timer):
//!
//! 1. **prepare** (parallel, fused) — cut each segment into records by the
//!    pool's [`PoolConfig::cdc`] — a fixed record is its block; under CDC the
//!    Gear scan cuts each run of consecutive blocks into chunks — then
//!    zero-scan + SHA-256 + DDT probe each record. The zero probe
//!    early-exits at the first nonzero cache line and the DDT serves
//!    lock-free `&self` lookups, so a fixed record costs essentially its
//!    hash.
//! 2. **probe** (serial) — first-occurrence scan over the prepared keys,
//!    fixing each batch-new key's representative record.
//! 3. **compress** (parallel) — one compression per new unique key, with
//!    codec dispatch hoisted out of the loop
//!    ([`squirrel_compress::Compressor`]).
//! 4. **commit** (serial, batched) — DDT inserts in first-occurrence order
//!    draining the prepared frames with a cursor (no per-record map
//!    lookups), the DDT pre-sized once, each key written to the file's
//!    records (a block pointer or a chunk), and meters updated with one
//!    `add(n)` per counter per batch.
//!
//! This is the only whole-file import ([`ZPool::import_file`],
//! [`ZPool::import_blocks_parallel`]) and the one place a
//! [`DedupMode::Reverse`] import runs [`ZPool::reverse_dedup_pass`].
//!
//! Determinism contract: for any `threads` setting the resulting pool state
//! is bit-identical — for fixed records, to a `create_file` +
//! [`ZPool::write_block`] replay (the tests' reference): same DDT entries,
//! same physical allocation order (the append-only allocator assigns
//! offsets in first-occurrence order, which commit preserves), same file
//! tables, same send-stream bytes. Chunk boundaries, key order and
//! allocation depend only on content, so CDC pools are too; golden stream
//! pins hold both. Compression runs exactly once per batch-new unique key,
//! mirroring `write_block`'s lazy `add_ref` closure.

use crate::config::DedupMode;
#[cfg(doc)]
use crate::config::PoolConfig;
use crate::ddt::{BlockKey, Frame};
use crate::pool::{CdcChunk, FileTable, Records, ZPool};
use squirrel_compress::Compressor;
use squirrel_hash::cdc::{chunk_boundaries_with, gear_table};
use squirrel_hash::par::cost;
use squirrel_hash::{ContentHash, FnvHashSet};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// A prepared DDT payload: compressed size plus the frame itself (absent in
/// accounting-only pools) — exactly what `DedupTable::add_ref` consumes.
/// The frame is unproven: compressing is not evidence that decompressing
/// gives the content back, so its first verification does the work.
type PreparedFrame = (u32, Option<Frame>);

/// One record cut in stage 1: its byte range within its segment, and `None`
/// for an all-zero record (elided as a hole) or `(key, already-in-DDT)`.
type CutRecord = (usize, usize, Option<(BlockKey, bool)>);

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

    /// The staged pipeline. `idxs[j]` is the file block index of `data[j]`;
    /// both are in ascending block order. Only stage 1 and the table commit
    /// writes depend on the pool's [`PoolConfig::cdc`]; a [`DedupMode::Reverse`]
    /// import ends with a [`ZPool::reverse_dedup_pass`].
    fn ingest(&mut self, name: &str, idxs: &[u64], data: &[&[u8]], logical_len: Option<u64>) {
        let cfg = *self.config();
        for b in data {
            assert_eq!(b.len(), cfg.block_size, "unaligned write");
        }
        // Replace the file first so any releases from the old incarnation
        // land before the fused prepare stage probes the DDT.
        self.create_file(name);
        let bs = cfg.block_size as u64;
        let cdc = cfg.cdc.map(|params| (params, gear_table(params.gear_seed)));

        // Segments, in block order: each block on its own under fixed
        // records; under CDC each run of consecutive block indices, an
        // unbroken logical byte range (a gap in a sparse import is a hole,
        // and a chunk never spans one).
        let mut segments: Vec<Range<usize>> = Vec::new();
        for j in 0..idxs.len() {
            match segments.last_mut() {
                Some(r) if cdc.is_some() && idxs[j] == idxs[r.end - 1] + 1 => r.end = j + 1,
                _ => segments.push(j..j + 1),
            }
        }

        // Stage 1 "prepare" (parallel, fused): cut each segment into records
        // — the block itself, or the Gear scan's chunks of the run — then
        // zero-scan + hash + DDT-probe each record. A one-block segment is
        // hashed in place; only a longer run is concatenated. The probe
        // reads the pre-batch DDT through `&self`; `known` records whether
        // the key already had an entry before this batch.
        let scanned: Vec<(Cow<[u8]>, Vec<CutRecord>)> = {
            let t = self.meters.metrics.timer("zpool_ingest_prepare");
            let ddt = self.ddt();
            // Every byte is hashed; under CDC it is first scanned for
            // boundaries too.
            let passes = if cdc.is_some() { 2 } else { 1 };
            let prepare_cost =
                |seg: &Range<usize>| (seg.len() * cfg.block_size) as u64 * passes * cost::HASH;
            self.worker_pool()
                .parallel_map(&segments, prepare_cost, |_, seg| {
                    t.busy(|| {
                        let bytes = match seg.len() {
                            1 => Cow::Borrowed(data[seg.start]),
                            _ => Cow::Owned(data[seg.clone()].concat()),
                        };
                        let record = |(s, e): (usize, usize)| {
                            let key = ContentHash::of_nonzero(&bytes[s..e]).map(|h| {
                                let k = h.short();
                                (k, ddt.get(&k).is_some())
                            });
                            (s, e, key)
                        };
                        let records = match &cdc {
                            None => vec![record((0, bytes.len()))],
                            Some((params, gear)) => chunk_boundaries_with(&bytes, params, gear)
                                .into_iter()
                                .map(record)
                                .collect(),
                        };
                        (bytes, records)
                    })
                })
        };

        // Stage 2 "probe" (serial): first-occurrence scan for keys new to
        // the DDT, in logical order. It fixes each new key's representative
        // record and, later, its physical allocation slot.
        let mut new_unique: Vec<(BlockKey, usize, usize, usize)> = Vec::new();
        {
            let _t = self.meters.metrics.timer("zpool_ingest_probe");
            let mut seen: FnvHashSet<BlockKey> = FnvHashSet::default();
            for (g, (_, records)) in scanned.iter().enumerate() {
                for &(s, e, key) in records {
                    if let Some((k, false)) = key {
                        if seen.insert(k) {
                            new_unique.push((k, g, s, e));
                        }
                    }
                }
            }
        }

        // Stage 3 "compress" (parallel, pure): compress one representative
        // per new unique key — exactly the work `write_block`'s lazy
        // `add_ref` closure performs, once per key — with codec dispatch
        // resolved once per batch instead of once per record.
        let mut prepared: Vec<(BlockKey, u32, PreparedFrame)> = {
            let t = self.meters.metrics.timer("zpool_ingest_compress");
            let compressor = Compressor::new(cfg.codec);
            let deflate_cost =
                |&(_, _, s, e): &(BlockKey, usize, usize, usize)| (e - s) as u64 * cost::DEFLATE;
            self.worker_pool()
                .parallel_map(&new_unique, deflate_cost, |_, &(k, g, s, e)| {
                    t.busy(|| {
                        let frame = compressor.compress(&scanned[g].0[s..e]);
                        let psize = frame.len() as u32;
                        (
                            k,
                            (e - s) as u32,
                            (psize, cfg.retain_data.then(|| frame.into())),
                        )
                    })
                })
        };

        // Stage 4 "commit" (serial, batched): apply in logical order. DDT
        // entries appear in first-occurrence order, so the append-only
        // physical allocator reproduces the `write_block` layout exactly — and
        // because `prepared` is *also* in first-occurrence order, commit
        // drains it with a plain cursor instead of per-record map removals.
        // The DDT is pre-sized once from the scan; meters take one batched
        // `add` per counter. Zero records become holes.
        let _t = self.meters.metrics.timer("zpool_ingest_commit");
        self.ddt_mut().reserve(prepared.len());
        let mut ptrs: Vec<Option<BlockKey>> = Vec::new();
        if cdc.is_none() {
            ptrs.resize(idxs.last().map_or(0, |&i| i as usize + 1), None);
        }
        let mut chunks: Vec<CdcChunk> = Vec::new();
        let mut next = 0usize;
        let mut n_records = 0u64;
        let mut zeros = 0u64;
        let mut misses = 0u64;
        let mut compress_in = 0u64;
        let mut compress_out = 0u64;
        for (g, (_, records)) in scanned.iter().enumerate() {
            let seg_off = idxs[segments[g].start] * bs;
            for &(s, e, key) in records {
                n_records += 1;
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
                let logical_off = seg_off + s as u64;
                match cdc {
                    None => ptrs[(logical_off / bs) as usize] = Some(k),
                    Some(_) => chunks.push(CdcChunk {
                        key: k,
                        logical_off,
                        len: (e - s) as u32,
                    }),
                }
            }
        }
        debug_assert_eq!(next, prepared.len(), "every prepared frame committed");
        let n = data.len() as u64;
        self.meters.ingest_blocks.add(n);
        self.meters.ingest_bytes.add(n * bs);
        self.meters.zero_blocks.add(zeros);
        self.meters.ddt_hits.add(n_records - zeros - misses);
        self.meters.ddt_misses.add(misses);
        self.meters.compress_in_bytes.add(compress_in);
        self.meters.compress_out_bytes.add(compress_out);
        let records = match cdc {
            None => Records::Blocks(Arc::new(ptrs)),
            Some(_) => {
                // The chunks cover every imported byte.
                self.meters.chunking_chunks.add(n_records);
                self.meters.chunking_chunk_bytes.add(n * bs);
                Records::Chunks(Arc::new(chunks))
            }
        };
        let len = logical_len.unwrap_or_else(|| idxs.last().map_or(0, |&i| (i + 1) * bs));
        self.files_mut()
            .insert(name.to_string(), FileTable { records, len });
        if cfg.dedup_mode == DedupMode::Reverse {
            self.reverse_dedup_pass(name);
        }
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
                0 => vec![0u8; bs],                             // hole
                1 => (0..bs).map(|j| (j % 13) as u8).collect(), // repeated
                2 => (0..bs).map(|j| ((i * 31 + j) % 251) as u8).collect(),
                3 => vec![(i % 7) as u8; bs],                   // runs
                _ => (0..bs).map(|j| (j % 13) as u8).collect(), // dup of 1
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
            assert_eq!(
                p.block_refs("f"),
                serial.block_refs("f"),
                "threads={threads}"
            );
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
        use squirrel_hash::cdc::CdcParams;
        let bs = 1024;
        let blocks = test_blocks(bs, 64);
        let fixed = PoolConfig::new(bs, Codec::Gzip(6));
        for config in [fixed, fixed.with_cdc(CdcParams::with_average(2048))] {
            let cdc = config.cdc;
            let reg = squirrel_obs::MetricsRegistry::new();
            let mut p = ZPool::new(config.with_threads(2));
            p.set_metrics(&reg.handle());
            p.import_file("f", &blocks, 64 * bs as u64);
            let times = reg.wall_times();
            let names: Vec<&str> = times.iter().map(|(name, _)| name.as_str()).collect();
            let stages = ["commit", "compress", "prepare", "probe"];
            let want = stages.map(|s| format!("zpool_ingest_{s}"));
            assert_eq!(names, want, "{cdc:?}: sorted by name");
            for (name, stats) in &times {
                assert_eq!(stats.count, 1, "{cdc:?} {name}");
                if name.ends_with("prepare") || name.ends_with("compress") {
                    assert!(stats.busy_nanos > 0, "{cdc:?} {name}");
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
        let mut p = ZPool::new(
            PoolConfig::new(bs, Codec::Lzjb)
                .accounting_only()
                .with_threads(2),
        );
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
        use squirrel_hash::cdc::CdcParams;
        let bs = 1024;
        let blocks = test_blocks(bs, 48);
        let len = 48 * bs as u64;
        let mk = |threads| {
            PoolConfig::new(bs, Codec::Lz4)
                .with_cdc(CdcParams::with_average(2048))
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
            assert_eq!(
                p.block_refs("f"),
                reference.block_refs("f"),
                "threads={threads}"
            );
            assert!(p.check_refcounts());
            p.snapshot("s");
            assert_eq!(
                p.send_latest().expect("snapshot").encode(),
                ref_wire,
                "threads={threads}"
            );
        }
    }

    /// `encode()` length and SHA-256 of a stream: what the golden pins hold.
    fn pin(stream: &crate::SendStream) -> String {
        let wire = stream.encode();
        format!(
            "{} {}",
            wire.len(),
            squirrel_hash::ContentHash::of(&wire).to_hex()
        )
    }

    /// Golden pins of pipeline-imported pools' streams, at threads 1, 2 and
    /// 8: fixed records full and incremental. Captured from the separate
    /// fixed and CDC imports the one staged pipeline replaced; a pool built
    /// by `import_file` / `import_blocks_parallel` must send these bytes.
    #[test]
    fn fixed_import_streams_match_golden() {
        let bs = 1024;
        for threads in [1, 2, 8] {
            let mut p = ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)).with_threads(threads));
            p.import_file("a", &test_blocks(bs, 24), 24 * bs as u64 - 100);
            p.snapshot("s1");
            let sparse: Vec<(u64, Vec<u8>)> = (0..).step_by(3).zip(test_blocks(bs, 12)).collect();
            p.import_blocks_parallel("b", &sparse);
            let mut a2 = test_blocks(bs, 24);
            a2.rotate_left(3);
            p.import_file("a", &a2, 24 * bs as u64);
            p.snapshot("s2");
            let full = p.send_between(None, "s1").expect("full");
            let inc = p.send_between(Some("s1"), "s2").expect("inc");
            assert_eq!(
                [&full, &inc].map(pin),
                [
                    "2390 86cf245f63f8fa69f5ba07a43038ab6fdeb0e38eb132aeac74cb7cc7622e1d3f",
                    "573 f14aeee11548b94778c255245cc6b0293e09bac6dd32065610daae5e16d8e392",
                ],
                "threads={threads}"
            );
        }
    }

    /// Golden pins of CDC pools' streams, at threads 1, 2 and 8: a full
    /// stream, an incremental after a shifted-prefix re-import, and an
    /// incremental carrying a sparse import whose holes split the scan
    /// into several runs (one with a zero block inside it).
    #[test]
    fn cdc_import_streams_match_golden() {
        use squirrel_hash::cdc::CdcParams;
        let bs = 512;
        let n = 48usize;
        let base: Vec<u8> = (0..(n * bs) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let mut shifted = vec![0x77u8; 64];
        shifted.extend_from_slice(&base[..n * bs - 64]);
        let to_blocks = |data: &[u8]| data.chunks(bs).map(<[u8]>::to_vec).collect::<Vec<_>>();
        let sparse: Vec<(u64, Vec<u8>)> = [0u64, 1, 2, 5, 6, 7, 8, 11, 15, 16, 17]
            .iter()
            .map(|&i| {
                let block = match i {
                    7 => vec![0u8; bs],
                    _ => base[i as usize * bs..(i as usize + 1) * bs].to_vec(),
                };
                (i, block)
            })
            .collect();
        for threads in [1, 2, 8] {
            let mut p = ZPool::new(
                PoolConfig::new(bs, Codec::Lz4)
                    .with_cdc(CdcParams::with_average(1024))
                    .with_threads(threads),
            );
            p.import_file("img", &to_blocks(&base), (n * bs) as u64);
            p.snapshot("s1");
            p.import_file("img", &to_blocks(&shifted), (n * bs) as u64);
            p.snapshot("s2");
            p.import_blocks_parallel("sparse", &sparse);
            p.snapshot("s3");
            let full = p.send_between(None, "s1").expect("full");
            let shifted = p.send_between(Some("s1"), "s2").expect("shifted");
            let runs = p.send_between(Some("s2"), "s3").expect("sparse");
            assert_eq!(
                [&full, &shifted, &runs].map(pin),
                [
                    "20237 b37dc7c40c59b59dd754ba5855506f3b4dcabe01bcd6ec7a1a4191baadc566fe",
                    "2085 740c864fc6af8435dc1a7ab53fce8ab710878cd1e095cf95e1554f252b82c2d2",
                    "4618 861147997330e90c7a19da62e4785dc915522b9c71ba1d5fc3fb50116c6f97ec",
                ],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cdc_sparse_import_respects_holes() {
        use squirrel_hash::cdc::CdcParams;
        let bs = 512;
        let sparse: Vec<(u64, Vec<u8>)> = vec![
            (1, (0..bs).map(|j| (j % 9) as u8).collect()),
            (2, (0..bs).map(|j| (j % 11) as u8).collect()),
            (7, vec![5u8; bs]),
        ];
        let mut p = ZPool::new(
            PoolConfig::new(bs, Codec::Lzjb)
                .with_cdc(CdcParams::with_average(1024))
                .with_threads(2),
        );
        p.import_blocks_parallel("c", &sparse);
        let mut image = vec![0u8; 8 * bs];
        for (idx, d) in &sparse {
            image[*idx as usize * bs..][..bs].copy_from_slice(d);
        }
        p.assert_chunks_tile("c", &image);
        // A chunk never spans the hole between runs.
        let imported = |b: u64| sparse.iter().any(|(idx, _)| *idx == b);
        for r in p.file_layout("c").expect("file") {
            let end = r.logical_off + u64::from(r.llen);
            let blocks = r.logical_off / bs as u64..end.div_ceil(bs as u64);
            assert!(blocks.clone().all(imported), "{r:?} covers {blocks:?}");
        }
        assert!(p.check_refcounts());
    }

    #[test]
    fn cdc_import_dedups_shifted_content_better_than_fixed() {
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
        let cdc_growth =
            growth(PoolConfig::new(bs, Codec::Off).with_cdc(CdcParams::with_average(2048)));
        assert!(
            cdc_growth < fixed_growth / 2,
            "cdc grew {cdc_growth} vs fixed {fixed_growth}"
        );
    }
}
