//! The pool: files of deduplicated, compressed records, plus whole-pool
//! snapshots.
//!
//! Model notes versus real ZFS: a pool holds one dataset whose files are the
//! VMI caches; snapshots capture the entire file set (Squirrel snapshots the
//! whole cVolume); a file's records (`Records`) are fixed `recordsize`
//! blocks or, for CDC imports, content-defined chunks; zero records become
//! holes. Only fixed records are read by block: a chunked file is imported,
//! snapshotted, laid out, scrubbed and repaired, but has no block reads and
//! no receive path. Reference counting is exact: one reference per live
//! file pointer plus one per snapshot pointer, so destroying snapshots
//! frees exactly the blocks nothing else uses.

use crate::config::PoolConfig;
use crate::ddt::{BlockKey, DdtEntry, DedupTable, Frame, SharedPayload};
use crate::history::{FileMap, History};
use crate::meter::PoolMeters;
use crate::stats::SpaceStats;
use squirrel_compress::{compress, decompress};
use squirrel_hash::par::WorkerPool;
use squirrel_hash::ContentHash;
use squirrel_obs::Metrics;
use std::sync::{Arc, OnceLock};

/// In-core bytes per dedup-table entry (ZFS DDT entries cost a few hundred
/// bytes each in ARC; the exact figure depends on the build).
const DDT_MEM_ENTRY_BYTES: u64 = 120;
/// On-disk bytes per dedup-table entry (the ZAP leaf footprint).
const DDT_DISK_ENTRY_BYTES: u64 = 108;
/// On-disk metadata bytes per file block pointer (amortized indirect
/// blocks; ZFS blkptr_t is 128 B but metadata is itself compressed).
const BP_DISK_BYTES: u64 = 40;

/// A resolved block pointer: where a file block lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRef {
    pub key: BlockKey,
    /// Physical byte offset of the compressed record.
    pub phys: u64,
    /// Compressed size.
    pub psize: u32,
}

/// One data record of a file's physical layout: where a logically
/// positioned record lives on the (modelled) disk. This is the
/// measured-layout input that `squirrel-bootsim`-style seek models consume
/// — real extents, not an assumed scatter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordLoc {
    /// Logical byte offset of the record in the file.
    pub logical_off: u64,
    /// Logical (uncompressed) record length.
    pub llen: u32,
    /// Physical byte offset of the compressed record.
    pub phys: u64,
    /// Compressed size on disk.
    pub psize: u32,
}

/// On-disk scatter of one file: how many physically contiguous extents its
/// logically ordered records form, and how far apart they sit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FileScatter {
    /// Data records (holes excluded).
    pub records: u64,
    /// Physically contiguous runs of records in logical order. `1` means a
    /// perfectly sequential file.
    pub extents: u64,
    /// Total compressed bytes of the records.
    pub data_bytes: u64,
    /// Physical span from the first to the last byte touched.
    pub span_bytes: u64,
    /// Mean physical distance between consecutive records in logical order
    /// (`0` when contiguous) — the per-transition seek distance a
    /// sequential reader pays.
    pub mean_gap_bytes: f64,
}

/// What a [`ZPool::reverse_dedup_pass`] did to one file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReverseDedupReport {
    /// Extent count before the pass.
    pub extents_before: u64,
    /// Extent count after relocation (near 1 for a dedup-free file).
    pub extents_after: u64,
    /// Distinct blocks relocated to the new sequential region.
    pub keys_rewritten: u64,
    /// Compressed bytes whose old physical copies became holes.
    pub bytes_freed: u64,
}

/// One content-defined chunk of a file: a key plus where the chunk's bytes
/// sit in the file's logical address space. Chunks are kept sorted by
/// `logical_off` and never overlap; gaps between chunks are holes (all-zero
/// content elided at ingest).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CdcChunk {
    pub key: BlockKey,
    pub logical_off: u64,
    pub len: u32,
}

/// A file's records: fixed-size block pointers or content-defined chunks,
/// never both. The vector sits behind an `Arc` so snapshots and send
/// streams share it: cloning a table is a refcount bump, and the
/// copy-on-write `Arc::make_mut` in [`ZPool::write_block`] only
/// materializes a private vector when a shared table is actually modified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Records {
    /// One pointer per `block_size` record; `None` = hole (zero block).
    Blocks(Arc<Vec<Option<BlockKey>>>),
    /// Content-defined chunks, sorted by `logical_off`. Chunked files are
    /// import-and-measure only: [`ZPool::write_block`] rejects them, block
    /// reads answer `None` and a stream that holds one is refused.
    Chunks(Arc<Vec<CdcChunk>>),
}

impl Default for Records {
    fn default() -> Self {
        Records::Blocks(Arc::default())
    }
}

/// One file's table: its records and logical length. The same type serves
/// live files, snapshots and a [`SendStream`](crate::SendStream)'s upserts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileTable {
    pub(crate) records: Records,
    /// Logical file length in bytes.
    pub(crate) len: u64,
}

impl FileTable {
    /// Every referenced block key, with multiplicity — one per live block
    /// pointer or chunk. This is the iteration all refcount bookkeeping
    /// (snapshot, delete, purge, recv, invariant checks) runs on.
    pub(crate) fn iter_keys(&self) -> impl Iterator<Item = BlockKey> + '_ {
        let (ptrs, chunks): (&[Option<BlockKey>], &[CdcChunk]) = match &self.records {
            Records::Blocks(ptrs) => (ptrs, &[]),
            Records::Chunks(chunks) => (&[], chunks),
        };
        ptrs.iter()
            .copied()
            .flatten()
            .chain(chunks.iter().map(|c| c.key))
    }

    /// Number of on-disk pointer records this table costs (block pointers
    /// including holes, or chunk records).
    pub(crate) fn ptr_count(&self) -> u64 {
        match &self.records {
            Records::Blocks(ptrs) => ptrs.len() as u64,
            Records::Chunks(chunks) => chunks.len() as u64,
        }
    }
}

/// The deduplicating, compressing, snapshotting block store.
pub struct ZPool {
    config: PoolConfig,
    ddt: DedupTable,
    files: FileMap,
    /// Snapshots in creation order, each retaining only what changed.
    snapshots: History,
    /// Pointer records ([`FileTable::ptr_count`]) all snapshots hold, kept
    /// as snapshots come and go so [`ZPool::stats`] never walks history.
    snap_ptrs: u64,
    /// One shared all-zero block, made by the first hole read: every hole
    /// read returns a reference to this buffer instead of materializing
    /// fresh zeros, and a pool nobody reads a hole from (most replicas of a
    /// fleet) never holds one.
    zero_block: OnceLock<SharedPayload>,
    /// Interned observability handles; no-ops until [`ZPool::set_metrics`].
    pub(crate) meters: PoolMeters,
    /// Persistent ingest workers, sized by `config.threads` and spawned
    /// lazily on the first parallel stage. Shareable across pools via
    /// [`ZPool::set_worker_pool`] so one `Squirrel` node runs all of its
    /// cVolumes on a single worker set.
    workers: WorkerPool,
}

impl ZPool {
    pub fn new(config: PoolConfig) -> Self {
        ZPool {
            config,
            ddt: DedupTable::new(),
            files: FileMap::new(),
            snapshots: History::default(),
            snap_ptrs: 0,
            zero_block: OnceLock::new(),
            meters: PoolMeters::disabled(),
            workers: WorkerPool::new(config.threads),
        }
    }

    /// Replace this pool's worker pool with a shared one (e.g. the owning
    /// node's), so sibling pools reuse one set of persistent threads
    /// instead of each lazily spawning their own.
    pub fn set_worker_pool(&mut self, pool: WorkerPool) {
        self.workers = pool;
    }

    /// The pool's persistent ingest workers.
    pub fn worker_pool(&self) -> &WorkerPool {
        &self.workers
    }

    /// Attach observability: every ingest/recv/scrub on this pool records
    /// counters and histograms through `metrics` (label the handle, e.g.
    /// `pool="scvol"`, before attaching). All pool metrics are add-only, so
    /// snapshots stay deterministic under parallel ingestion and fan-out.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.meters = PoolMeters::new(metrics);
    }

    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    pub fn block_size(&self) -> usize {
        self.config.block_size
    }

    // --- files -------------------------------------------------------------

    /// Create an empty file; replaces any existing file of the same name.
    pub fn create_file(&mut self, name: &str) {
        self.delete_file(name);
        self.files.insert(name.to_string(), FileTable::default());
    }

    pub fn has_file(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(|s| s.as_str())
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Logical length of `name` in bytes.
    pub fn file_len(&self, name: &str) -> Option<u64> {
        self.files.get(name).map(|f| f.len)
    }

    /// Delete a file from the live dataset (snapshots keep referencing its
    /// blocks until destroyed).
    pub fn delete_file(&mut self, name: &str) {
        if let Some(table) = self.files.remove(name) {
            for key in table.iter_keys() {
                self.ddt.release(&key);
            }
        }
    }

    /// Write one aligned block. `data` must be exactly `block_size` bytes
    /// (callers zero-pad tails, as the dataset layer does). All-zero data
    /// punches a hole.
    pub fn write_block(&mut self, name: &str, block_idx: u64, data: &[u8]) {
        assert_eq!(data.len(), self.config.block_size, "unaligned write");
        let table = self.files.get_mut(name).expect("write to unknown file");
        let Records::Blocks(ptrs) = &mut table.records else {
            panic!("write_block on a CDC-chunked file (chunked files are import-only)");
        };
        self.meters.ingest_blocks.inc();
        self.meters.ingest_bytes.add(data.len() as u64);
        let new_key = if squirrel_hash::is_zero_block(data) {
            self.meters.zero_blocks.inc();
            None
        } else {
            let key = ContentHash::of(data).short();
            let codec = self.config.codec;
            let retain = self.config.retain_data;
            let existed = self.ddt.get(&key).is_some();
            self.ddt.add_ref(key, || {
                let frame = compress(codec, data);
                let psize = frame.len() as u32;
                (psize, data.len() as u32, retain.then(|| frame.into()))
            });
            if existed {
                self.meters.ddt_hits.inc();
            } else {
                self.meters.ddt_misses.inc();
                let psize = self.ddt.get(&key).expect("just added").psize as u64;
                self.meters.compress_in_bytes.add(data.len() as u64);
                self.meters.compress_out_bytes.add(psize);
                self.meters.compressed_block_bytes.observe(psize);
            }
            Some(key)
        };
        // Copy-on-write: snapshots share the pointer vector; the first write
        // after a snapshot materializes a private copy, later writes mutate
        // it in place.
        let ptrs = Arc::make_mut(ptrs);
        if ptrs.len() <= block_idx as usize {
            ptrs.resize(block_idx as usize + 1, None);
        }
        let old = std::mem::replace(&mut ptrs[block_idx as usize], new_key);
        table.len = table
            .len
            .max((block_idx + 1) * self.config.block_size as u64);
        if let Some(old_key) = old {
            self.ddt.release(&old_key);
        }
    }

    /// Resolve a record pointer to its dedup-table entry. Every pointer —
    /// block or chunk, live or snapshotted — holds a reference, so a missing
    /// entry is a refcounting bug.
    pub(crate) fn entry(&self, key: &BlockKey) -> &DdtEntry {
        self.ddt.get(key).expect("dangling record pointer")
    }

    /// Pointer → DDT entry → frame: the stored record behind a pointer and
    /// the length it decompresses to.
    fn record(&self, key: &BlockKey) -> (&Frame, u32) {
        let entry = self.entry(key);
        let frame = entry.data.as_ref().expect("read from accounting-only pool");
        (frame, entry.lsize)
    }

    /// The decompressed record behind a pointer, in a buffer of the
    /// caller's own: every read decompresses, and counts toward
    /// `zpool_read_decompressed_bytes_total`.
    fn decompress_record(&self, key: &BlockKey) -> Vec<u8> {
        let (frame, lsize) = self.record(key);
        let block = decompress(frame, lsize as usize);
        self.meters.read_decompressed_bytes.add(block.len() as u64);
        block
    }

    /// The pointer behind fixed block `block_idx` of `name`, or `Some(None)`
    /// for a hole (including unwritten space past the table). `None` for a
    /// chunked or missing file: a chunked file has no block reads.
    fn block_ptr(&self, name: &str, block_idx: u64) -> Option<Option<BlockKey>> {
        let Records::Blocks(ptrs) = &self.files.get(name)?.records else {
            return None;
        };
        Some(ptrs.get(block_idx as usize).copied().flatten())
    }

    /// Read one block (zeros for holes and unwritten space) into a buffer
    /// of the caller's own. `None` for a chunked or missing file.
    pub fn read_block(&self, name: &str, block_idx: u64) -> Option<Vec<u8>> {
        let ptr = self.block_ptr(name, block_idx)?;
        Some(ptr.map_or_else(
            || vec![0u8; self.config.block_size],
            |key| self.decompress_record(&key),
        ))
    }

    /// [`read_block`](Self::read_block) as a shared payload, or `Some(None)`
    /// for a hole (including unwritten space past the table). Every call
    /// decompresses into a new buffer; a caller that reads one record for
    /// many consumers (a boot storm, via [`block_frame`](Self::block_frame))
    /// reads it once and hands out clones.
    pub fn read_block_or_hole(&self, name: &str, block_idx: u64) -> Option<Option<SharedPayload>> {
        let ptr = self.block_ptr(name, block_idx)?;
        Some(ptr.map(|key| self.decompress_record(&key).into()))
    }

    /// [`read_block_or_hole`](Self::read_block_or_hole) with a hole served
    /// as the pool's one zero block (a refcount bump).
    pub fn read_block_shared(&self, name: &str, block_idx: u64) -> Option<SharedPayload> {
        let block = self.read_block_or_hole(name, block_idx)?;
        Some(block.unwrap_or_else(|| self.zero_block_shared()))
    }

    /// The pool's shared all-zero block (what hole reads return).
    fn zero_block_shared(&self) -> SharedPayload {
        Arc::clone(
            self.zero_block
                .get_or_init(|| vec![0u8; self.config.block_size].into()),
        )
    }

    /// The stored frame behind fixed block `block_idx` of `name`, or
    /// `Some(None)` for a hole: pools holding one frame read equal bytes
    /// there. `None` for a chunked or missing file.
    pub fn block_frame(&self, name: &str, block_idx: u64) -> Option<Option<&Frame>> {
        let ptr = self.block_ptr(name, block_idx)?;
        Some(ptr.map(|key| self.record(&key).0))
    }

    fn block_ref_of(&self, key: BlockKey) -> BlockRef {
        let e = self.entry(&key);
        BlockRef {
            key,
            phys: e.phys,
            psize: e.psize,
        }
    }

    /// Resolved record pointers of `name` (for physical-layout analysis);
    /// `None` entries are holes. One entry per block pointer (fixed) or per
    /// chunk in logical order (CDC).
    pub fn block_refs(&self, name: &str) -> Option<Vec<Option<BlockRef>>> {
        let block_ref = |key: BlockKey| self.block_ref_of(key);
        Some(match &self.files.get(name)?.records {
            Records::Blocks(ptrs) => ptrs.iter().map(|p| p.map(block_ref)).collect(),
            Records::Chunks(chunks) => chunks.iter().map(|c| Some(block_ref(c.key))).collect(),
        })
    }

    // --- snapshots ----------------------------------------------------------

    /// Create a read-only snapshot of the whole file set. It takes a
    /// reference on every live pointer, but retains only the files that
    /// changed since the previous snapshot.
    pub fn snapshot(&mut self, tag: &str) {
        assert!(!self.has_snapshot(tag), "duplicate snapshot tag {tag}");
        for table in self.files.values() {
            self.snap_ptrs += table.ptr_count();
            for key in table.iter_keys() {
                self.ddt
                    .add_ref(key, || unreachable!("snapshot references live block"));
            }
        }
        self.snapshots.push(tag, &self.files);
    }

    /// Destroy a snapshot, freeing blocks nothing else references.
    pub fn destroy_snapshot(&mut self, tag: &str) -> bool {
        let Some(i) = self.snapshots.position(tag) else {
            return false;
        };
        let (ddt, snap_ptrs) = (&mut self.ddt, &mut self.snap_ptrs);
        self.snapshots.remove(i, |table| {
            *snap_ptrs -= table.ptr_count();
            for key in table.iter_keys() {
                ddt.release(&key);
            }
        });
        true
    }

    /// Number of snapshots ([`snapshot_tags`](Self::snapshot_tags) without
    /// the allocation).
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Snapshot tags, oldest first.
    pub fn snapshot_tags(&self) -> Vec<&str> {
        self.snapshots.tags().collect()
    }

    pub fn latest_snapshot(&self) -> Option<&str> {
        self.snapshots
            .len()
            .checked_sub(1)
            .map(|i| self.snapshots.tag(i))
    }

    /// File names captured by snapshot `tag`.
    pub fn snapshot_file_names(&self, tag: &str) -> Option<Vec<&str>> {
        let i = self.snapshots.position(tag)?;
        Some(self.snapshots.view(i).into_keys().collect())
    }

    pub fn has_snapshot(&self, tag: &str) -> bool {
        self.snapshots.position(tag).is_some()
    }

    pub(crate) fn history(&self) -> &History {
        &self.snapshots
    }

    pub(crate) fn files(&self) -> &FileMap {
        &self.files
    }

    pub(crate) fn files_mut(&mut self) -> &mut FileMap {
        &mut self.files
    }

    pub(crate) fn ddt(&self) -> &DedupTable {
        &self.ddt
    }

    pub(crate) fn ddt_mut(&mut self) -> &mut DedupTable {
        &mut self.ddt
    }

    // --- accounting ----------------------------------------------------------

    /// Current space accounting. Walks the live file tables only: the
    /// snapshots' pointer total is kept as they come and go.
    pub fn stats(&self) -> SpaceStats {
        let logical_bytes: u64 = self.files.values().map(|f| f.len).sum();
        let live_ptrs: u64 = self.files.values().map(|f| f.ptr_count()).sum();
        let unique_blocks = self.ddt.len() as u64;
        SpaceStats {
            block_size: self.config.block_size as u64,
            logical_bytes,
            unique_blocks,
            physical_bytes: self.ddt.physical_bytes(),
            ddt_disk_bytes: unique_blocks * DDT_DISK_ENTRY_BYTES,
            ddt_memory_bytes: unique_blocks * DDT_MEM_ENTRY_BYTES,
            bp_disk_bytes: (live_ptrs + self.snap_ptrs) * BP_DISK_BYTES,
        }
    }

    /// The snapshots' pointer records counted from every table they store,
    /// times the snapshots that hold it: what `snap_ptrs` must equal.
    fn walk_snap_ptrs(&self) -> u64 {
        let mut ptrs = 0;
        self.snapshots
            .for_each_table(|table, held| ptrs += table.ptr_count() * held);
        ptrs
    }

    /// [`stats`](Self::stats) with the snapshots' pointers counted by
    /// walking them: the reference the tests hold `stats()` to.
    #[cfg(test)]
    pub(crate) fn stats_by_walk(&self) -> SpaceStats {
        let live_ptrs: u64 = self.files.values().map(FileTable::ptr_count).sum();
        SpaceStats {
            bp_disk_bytes: (live_ptrs + self.walk_snap_ptrs()) * BP_DISK_BYTES,
            ..self.stats()
        }
    }

    /// Fraction of `name`'s nonzero blocks whose DDT refcount exceeds
    /// `threshold` — with `threshold` set to the number of references a
    /// lone file would hold (1 + live snapshots), this measures how much of
    /// the file is deduplicated against *other* content, the input to the
    /// boot simulator's scattering model.
    pub fn file_shared_fraction(&self, name: &str, threshold: u64) -> Option<f64> {
        let table = self.files.get(name)?;
        let mut total = 0u64;
        let mut shared = 0u64;
        for key in table.iter_keys() {
            total += 1;
            if self.ddt.get(&key).map(|e| e.refcount).unwrap_or(0) > threshold {
                shared += 1;
            }
        }
        Some(if total == 0 {
            0.0
        } else {
            shared as f64 / total as f64
        })
    }

    /// In-core dedup-table footprint: per-entry overhead × unique blocks —
    /// the paper's ~60 MB-per-node memory budget axis (Figure 10).
    pub fn ddt_memory_bytes(&self) -> u64 {
        self.ddt.len() as u64 * DDT_MEM_ENTRY_BYTES
    }

    /// How far this pool is over its configured hoard budget
    /// ([`PoolConfig::disk_quota_bytes`] / [`PoolConfig::ddt_mem_quota_bytes`];
    /// `0` = unlimited on that axis). The pool reports pressure; whole-cache
    /// eviction policy lives with the node layer.
    pub fn quota_excess(&self) -> crate::QuotaExcess {
        let s = self.stats();
        let over = |used: u64, quota: u64| {
            if quota == 0 {
                0
            } else {
                used.saturating_sub(quota)
            }
        };
        crate::QuotaExcess {
            disk_bytes: over(s.total_disk_bytes(), self.config.disk_quota_bytes),
            ddt_mem_bytes: over(s.ddt_memory_bytes, self.config.ddt_mem_quota_bytes),
        }
    }

    /// True when the pool is within its hoard budget on both axes (always
    /// true for unlimited pools).
    pub fn within_quota(&self) -> bool {
        self.quota_excess().is_zero()
    }

    /// Purge `name` everywhere: the live dataset *and* every snapshot drop
    /// the file, releasing all of its block references. Unlike
    /// [`delete_file`](Self::delete_file) — where snapshots keep pinning the
    /// payloads — a purge frees every DDT entry nothing else shares, which
    /// is what hoard-budget eviction needs to reclaim disk and DDT memory.
    /// Returns whether anything was removed.
    pub fn purge_file(&mut self, name: &str) -> bool {
        let live = self.files.remove(name);
        if let Some(table) = &live {
            for key in table.iter_keys() {
                self.ddt.release(&key);
            }
        }
        let (ddt, snap_ptrs) = (&mut self.ddt, &mut self.snap_ptrs);
        let held = self.snapshots.purge(name, |table, held| {
            *snap_ptrs -= table.ptr_count() * held;
            for key in table.iter_keys() {
                ddt.release_n(&key, held);
            }
        });
        live.is_some() || held
    }

    // --- physical layout ----------------------------------------------------

    /// The physical layout of `name`'s data records in logical order (holes
    /// excluded): fixed files yield one record per nonzero block pointer,
    /// chunked files one per chunk. `None` if the file does not exist.
    pub fn file_layout(&self, name: &str) -> Option<Vec<RecordLoc>> {
        let bs = self.config.block_size as u64;
        // A record's logical length is its entry's: a chunk's `len` is the
        // lsize its key was stored (or received, checked) with.
        let record = |logical_off: u64, key: &BlockKey| {
            let e = self.entry(key);
            RecordLoc {
                logical_off,
                llen: e.lsize,
                phys: e.phys,
                psize: e.psize,
            }
        };
        Some(match &self.files.get(name)?.records {
            Records::Blocks(ptrs) => (0..)
                .zip(ptrs.iter())
                .filter_map(|(i, p)| p.as_ref().map(|key| record(i * bs, key)))
                .collect(),
            Records::Chunks(chunks) => chunks
                .iter()
                .map(|c| record(c.logical_off, &c.key))
                .collect(),
        })
    }

    /// Measure `name`'s on-disk scatter: extents and physical gaps along
    /// the logical read order. This is what a sequential reader (a booting
    /// VM walking its cache) actually pays, and what
    /// `BootSim::boot_measured` prices.
    pub fn file_scatter(&self, name: &str) -> Option<FileScatter> {
        let layout = self.file_layout(name)?;
        let mut s = FileScatter::default();
        let mut gap_sum = 0u64;
        let mut min_phys = u64::MAX;
        let mut max_end = 0u64;
        let mut prev_end: Option<u64> = None;
        for r in &layout {
            s.records += 1;
            s.data_bytes += r.psize as u64;
            min_phys = min_phys.min(r.phys);
            max_end = max_end.max(r.phys + r.psize as u64);
            match prev_end {
                Some(end) if end == r.phys => {}
                other => {
                    s.extents += 1;
                    if let Some(end) = other {
                        gap_sum += end.abs_diff(r.phys);
                    }
                }
            }
            prev_end = Some(r.phys + r.psize as u64);
        }
        if s.records > 1 {
            s.mean_gap_bytes = gap_sum as f64 / (s.records - 1) as f64;
        }
        if s.records > 0 {
            s.span_bytes = max_end - min_phys;
        }
        Some(s)
    }

    /// RevDedup-style reverse pass: relocate every distinct block of
    /// `name`, in logical read order, onto fresh sequential extents at the
    /// allocation cursor. Older snapshots' pointers chase the moves for
    /// free (physical location lives only in the DDT entry), so *they*
    /// inherit the scatter while the latest import becomes contiguous; the
    /// superseded old extents become holes. Content, refcounts, and
    /// physical accounting are untouched — only placement changes. `None`
    /// if the file does not exist.
    pub fn reverse_dedup_pass(&mut self, name: &str) -> Option<ReverseDedupReport> {
        let before = self.file_scatter(name)?;
        let keys: Vec<BlockKey> = {
            let table = self.files.get(name).expect("checked above");
            let mut seen = squirrel_hash::FnvHashSet::default();
            table.iter_keys().filter(|k| seen.insert(*k)).collect()
        };
        let mut report = ReverseDedupReport {
            extents_before: before.extents,
            ..Default::default()
        };
        for key in keys {
            let (_, psize) = self.ddt.reassign_phys(&key).expect("live key");
            report.keys_rewritten += 1;
            report.bytes_freed += psize as u64;
        }
        report.extents_after = self.file_scatter(name).expect("still live").extents;
        self.meters
            .reverse_extents_rewritten
            .add(report.keys_rewritten);
        self.meters.reverse_bytes_freed.add(report.bytes_freed);
        Some(report)
    }

    /// Invariant check used by tests and the benchmark's ingest deep check:
    /// every refcount equals the number of live + snapshot pointers to that
    /// block, and the kept snapshot pointer total equals a walk of every
    /// snapshot's file tables (what [`stats`](Self::stats) reads).
    pub fn check_refcounts(&self) -> bool {
        if self.walk_snap_ptrs() != self.snap_ptrs {
            return false;
        }
        let mut counts: std::collections::HashMap<BlockKey, u64> = std::collections::HashMap::new();
        for table in self.files.values() {
            for key in table.iter_keys() {
                *counts.entry(key).or_insert(0) += 1;
            }
        }
        self.snapshots.for_each_table(|table, held| {
            for key in table.iter_keys() {
                *counts.entry(key).or_insert(0) += held;
            }
        });
        if counts.len() != self.ddt.len() {
            return false;
        }
        counts
            .iter()
            .all(|(k, &c)| self.ddt.get(k).map(|e| e.refcount) == Some(c))
    }
}

#[cfg(test)]
impl ZPool {
    /// The CDC import oracle, over the dedup table's own frames: `name`'s
    /// chunks tile `image` (the file's logical bytes, zeros for holes) —
    /// sorted, disjoint, every byte between them zero — and each chunk's
    /// stored frame inflates to its slice of `image` at its entry's length.
    pub(crate) fn assert_chunks_tile(&self, name: &str, image: &[u8]) {
        let table = self.files.get(name).expect("file");
        let Records::Chunks(chunks) = &table.records else {
            panic!("{name} is not chunked");
        };
        let mut end = 0;
        for c in chunks.iter() {
            let (off, len) = (c.logical_off as usize, c.len as usize);
            assert!(
                off >= end,
                "chunk at {off} overlaps the one ending at {end}"
            );
            assert!(
                image[end..off].iter().all(|&b| b == 0),
                "data in {end}..{off}"
            );
            assert_eq!(self.entry(&c.key).lsize, c.len, "chunk at {off}");
            let (_, frame) = self.payload_of(c.key).expect("stored frame");
            assert!(
                decompress(&frame, len) == image[off..off + len],
                "chunk at {off}"
            );
            end = off + len;
        }
        assert!(image[end..].iter().all(|&b| b == 0), "data past {end}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squirrel_compress::Codec;

    fn pool(bs: usize) -> ZPool {
        ZPool::new(PoolConfig::new(bs, Codec::Lzjb))
    }

    fn block(bs: usize, fill: u8) -> Vec<u8> {
        vec![fill; bs]
    }

    #[test]
    fn write_read_roundtrip() {
        let mut p = pool(1024);
        p.create_file("a");
        let data: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        p.write_block("a", 0, &data);
        assert_eq!(p.read_block("a", 0).expect("file"), data);
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut p = pool(512);
        p.create_file("a");
        p.write_block("a", 3, &block(512, 9));
        assert_eq!(p.read_block("a", 0).expect("file"), block(512, 0));
        assert_eq!(p.read_block("a", 100).expect("file"), block(512, 0));
    }

    #[test]
    fn zero_blocks_punch_holes_and_cost_nothing() {
        let mut p = pool(512);
        p.create_file("a");
        p.write_block("a", 0, &block(512, 0));
        assert_eq!(p.stats().unique_blocks, 0);
        assert_eq!(p.stats().physical_bytes, 0);
    }

    #[test]
    fn identical_blocks_dedup_across_files() {
        let mut p = pool(512);
        p.create_file("a");
        p.create_file("b");
        p.write_block("a", 0, &block(512, 7));
        p.write_block("b", 0, &block(512, 7));
        p.write_block("b", 1, &block(512, 8));
        let s = p.stats();
        assert_eq!(s.unique_blocks, 2);
        assert!(p.check_refcounts());
    }

    #[test]
    fn overwrite_releases_old_block() {
        let mut p = pool(512);
        p.create_file("a");
        p.write_block("a", 0, &block(512, 1));
        p.write_block("a", 0, &block(512, 2));
        assert_eq!(p.stats().unique_blocks, 1);
        assert_eq!(p.read_block("a", 0).expect("file"), block(512, 2));
        assert!(p.check_refcounts());
    }

    #[test]
    fn delete_file_frees_unshared_blocks() {
        let mut p = pool(512);
        p.create_file("a");
        p.create_file("b");
        p.write_block("a", 0, &block(512, 1));
        p.write_block("b", 0, &block(512, 1));
        p.write_block("b", 1, &block(512, 2));
        p.delete_file("b");
        let s = p.stats();
        assert_eq!(s.unique_blocks, 1, "shared block survives, private freed");
        assert!(p.check_refcounts());
    }

    #[test]
    fn snapshot_preserves_deleted_file_blocks() {
        let mut p = pool(512);
        p.create_file("a");
        p.write_block("a", 0, &block(512, 5));
        p.snapshot("s1");
        p.delete_file("a");
        assert_eq!(p.stats().unique_blocks, 1, "snapshot holds the block");
        p.destroy_snapshot("s1");
        assert_eq!(p.stats().unique_blocks, 0);
        assert!(p.check_refcounts());
    }

    #[test]
    fn snapshot_tags_ordered_and_unique() {
        let mut p = pool(512);
        p.snapshot("one");
        p.snapshot("two");
        assert_eq!(p.snapshot_tags(), vec!["one", "two"]);
        assert_eq!(p.latest_snapshot(), Some("two"));
        assert!(p.has_snapshot("one"));
        assert!(!p.destroy_snapshot("absent"));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot tag")]
    fn duplicate_snapshot_panics() {
        let mut p = pool(512);
        p.snapshot("x");
        p.snapshot("x");
    }

    #[test]
    fn purge_file_frees_snapshot_pinned_blocks() {
        let mut p = pool(512);
        p.create_file("a");
        p.create_file("b");
        p.write_block("a", 0, &block(512, 1));
        p.write_block("b", 0, &block(512, 1)); // shared with "a"
        p.write_block("b", 1, &block(512, 2)); // private to "b"
        p.snapshot("s1");
        p.snapshot("s2");
        assert!(p.purge_file("b"));
        assert!(!p.has_file("b"));
        for tag in ["s1", "s2"] {
            assert_eq!(
                p.snapshot_file_names(tag).expect("snapshot"),
                vec!["a"],
                "{tag} must forget the purged file"
            );
        }
        let s = p.stats();
        assert_eq!(s.unique_blocks, 1, "shared block survives, private freed");
        assert!(p.check_refcounts());
        assert!(!p.purge_file("b"), "second purge is a no-op");
        assert!(!p.purge_file("never-existed"));
    }

    #[test]
    fn quota_excess_reports_pressure_per_axis() {
        let mut p = pool(512);
        p.create_file("a");
        for i in 0..4u64 {
            p.write_block("a", i, &block(512, i as u8 + 1));
        }
        let s = p.stats();
        assert_eq!(p.ddt_memory_bytes(), s.ddt_memory_bytes);
        assert_eq!(p.ddt_memory_bytes(), 4 * 120);
        // Unlimited (the default): never over.
        assert!(p.within_quota());
        assert!(p.quota_excess().is_zero());
        // Budget exactly equal to the footprint: still within.
        let mut exact = ZPool::new(
            PoolConfig::new(512, Codec::Lzjb).with_quotas(s.total_disk_bytes(), s.ddt_memory_bytes),
        );
        exact.create_file("a");
        for i in 0..4u64 {
            exact.write_block("a", i, &block(512, i as u8 + 1));
        }
        assert!(
            exact.within_quota(),
            "quota == footprint is not over-budget"
        );
        // Starved on both axes: excess is the shortfall, per axis.
        let mut starved = ZPool::new(
            PoolConfig::new(512, Codec::Lzjb)
                .with_quotas(s.total_disk_bytes() - 10, s.ddt_memory_bytes - 100),
        );
        starved.create_file("a");
        for i in 0..4u64 {
            starved.write_block("a", i, &block(512, i as u8 + 1));
        }
        let excess = starved.quota_excess();
        assert_eq!(excess.disk_bytes, 10);
        assert_eq!(excess.ddt_mem_bytes, 100);
        assert!(!starved.within_quota());
        // Back under budget once the file is purged.
        assert!(starved.purge_file("a"));
        assert!(starved.within_quota());
    }

    #[test]
    fn import_file_sets_logical_len() {
        let mut p = pool(512);
        let blocks = vec![block(512, 1), block(512, 2)];
        p.import_file("img", &blocks, 900);
        assert_eq!(p.file_len("img"), Some(900));
        assert_eq!(p.read_block("img", 1).expect("file"), block(512, 2));
    }

    #[test]
    fn block_refs_expose_physical_layout() {
        let mut p = pool(512);
        p.create_file("a");
        p.write_block("a", 0, &block(512, 1));
        p.write_block("a", 1, &block(512, 0)); // hole
        p.write_block("a", 2, &block(512, 2));
        let refs = p.block_refs("a").expect("file");
        assert_eq!(refs.len(), 3);
        assert!(refs[0].is_some());
        assert!(refs[1].is_none());
        let (r0, r2) = (refs[0].expect("ref"), refs[2].expect("ref"));
        assert!(
            r2.phys >= r0.phys + r0.psize as u64,
            "arrival-order allocation"
        );
    }

    #[test]
    fn compression_shrinks_physical() {
        let mut p = ZPool::new(PoolConfig::new(4096, Codec::Gzip(6)));
        p.create_file("a");
        let compressible: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(4096).collect();
        p.write_block("a", 0, &compressible);
        let s = p.stats();
        assert!(s.physical_bytes < 2048, "{}", s.physical_bytes);
    }

    #[test]
    fn accounting_only_pool_tracks_sizes_without_data() {
        let mut p = ZPool::new(PoolConfig::new(512, Codec::Lzjb).accounting_only());
        p.create_file("a");
        p.write_block("a", 0, &block(512, 3));
        assert!(p.stats().physical_bytes > 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read_block("a", 0)));
        assert!(r.is_err(), "reading an accounting-only pool must panic");
    }

    #[test]
    fn create_file_replaces_existing() {
        let mut p = pool(512);
        p.create_file("a");
        p.write_block("a", 0, &block(512, 1));
        p.create_file("a");
        assert_eq!(p.file_len("a"), Some(0));
        assert_eq!(p.stats().unique_blocks, 0);
    }

    #[test]
    fn stats_bp_overhead_counts_live_and_snapshot_pointers() {
        let mut p = pool(512);
        p.create_file("a");
        p.write_block("a", 0, &block(512, 1));
        let before = p.stats().bp_disk_bytes;
        p.snapshot("s");
        let after = p.stats().bp_disk_bytes;
        assert_eq!(after, before * 2);
    }

    const READ: &str = "zpool_read_decompressed_bytes_total";

    /// A sender holding file "f" (three distinct records) and `n` receivers
    /// of its one stream, so all `n + 1` pools hold the same frames.
    /// Receivers count their reads into `registry`.
    fn sharing_pools(registry: &squirrel_obs::MetricsRegistry, n: usize) -> (ZPool, Vec<ZPool>) {
        let mut src = pool(512);
        src.import_file("f", &[block(512, 1), block(512, 2), block(512, 3)], 3 * 512);
        src.snapshot("s1");
        let stream = src.send_latest().expect("send");
        let receivers = (0..n)
            .map(|_| {
                let mut p = pool(512);
                p.set_metrics(&registry.handle());
                p.recv(&stream).expect("recv");
                p
            })
            .collect();
        (src, receivers)
    }

    /// The frame behind block `b` of "f" on `p`, as a handle of its own.
    fn frame_of(p: &ZPool, b: u64) -> Frame {
        p.block_frame("f", b)
            .expect("fixed file")
            .expect("data")
            .clone()
    }

    #[test]
    fn receivers_hold_the_senders_frames_and_every_read_decompresses() {
        let registry = squirrel_obs::MetricsRegistry::new();
        let decompressed = || registry.snapshot().counter(READ).expect("series");
        let (src, pools) = sharing_pools(&registry, 2);
        for b in 0..3 {
            assert!(pools
                .iter()
                .all(|p| Frame::ptr_eq(&frame_of(p, b), &frame_of(&src, b))));
        }
        // A shared frame is not a shared payload: each read decompresses
        // into a buffer of its own.
        let first = pools[0].read_block_shared("f", 0).expect("file");
        let again = pools[0].read_block_shared("f", 0).expect("file");
        assert_eq!((&*first, &*again), (&block(512, 1)[..], &block(512, 1)[..]));
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(pools[1].read_block("f", 0).expect("file"), block(512, 1));
        assert_eq!(decompressed(), 3 * 512);
        // Past the table is a hole; a missing file has no frames.
        assert!(matches!(src.block_frame("f", 3), Some(None)));
        assert!(src.block_frame("g", 0).is_none());
    }

    #[test]
    fn rot_makes_a_new_frame_on_its_pool_and_repair_installs_the_donors() {
        let registry = squirrel_obs::MetricsRegistry::new();
        let (src, mut pools) = sharing_pools(&registry, 2);
        let key = pools[0].block_refs("f").expect("file")[0]
            .expect("data")
            .key;
        // Rot on pool 1 is a new frame there only: it reads its own (wrong)
        // bytes, and the sender and pool 0 keep the shared frame.
        assert!(pools[1].inject_corruption(key));
        let rotten = frame_of(&pools[1], 0);
        assert!(!Frame::ptr_eq(&rotten, &frame_of(&src, 0)));
        assert!(Frame::ptr_eq(&frame_of(&pools[0], 0), &frame_of(&src, 0)));
        assert_ne!(pools[1].read_block("f", 0).expect("file"), block(512, 1));
        assert_eq!(pools[0].read_block("f", 0).expect("file"), block(512, 1));
        // The repair installs the donor's frame: sharing resumes, and the
        // rotten one is gone from the pool.
        let (psize, donor) = pools[0].payload_of(key).expect("donor");
        assert!(pools[1].repair_block(key, psize, &donor));
        assert!(Frame::ptr_eq(&frame_of(&pools[1], 0), &frame_of(&src, 0)));
        assert!(!Frame::ptr_eq(&frame_of(&pools[1], 0), &rotten));
        assert_eq!(pools[1].read_block("f", 0).expect("file"), block(512, 1));
        assert_eq!(
            registry.snapshot().counter(READ),
            Some(3 * 512),
            "one per read"
        );
    }

    fn cdc_pool(bs: usize) -> ZPool {
        use squirrel_hash::cdc::CdcParams;
        ZPool::new(PoolConfig::new(bs, Codec::Lzjb).with_cdc(CdcParams::with_average(1024)))
    }

    /// Patterned blocks with zero blocks, duplicates, and varied content.
    fn patterned(bs: usize, n: usize, salt: u8) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| match i % 4 {
                0 => vec![0u8; bs],
                1 | 3 => (0..bs)
                    .map(|j| (j as u8).wrapping_mul(7).wrapping_add(salt))
                    .collect(),
                _ => (0..bs)
                    .map(|j| (i as u8).wrapping_add(j as u8).wrapping_mul(13))
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn cdc_import_stores_every_chunk_of_its_input() {
        let bs = 512;
        let n = 24;
        let blocks = patterned(bs, n, 3);
        let mut cdc = cdc_pool(bs);
        cdc.import_file("img", &blocks, (n * bs) as u64);
        cdc.assert_chunks_tile("img", &blocks.concat());
        assert!(cdc.check_refcounts());
        // Chunked lifecycle: snapshot, delete, destroy all balance.
        cdc.snapshot("s");
        cdc.delete_file("img");
        assert!(cdc.check_refcounts());
        cdc.destroy_snapshot("s");
        assert_eq!(cdc.stats().unique_blocks, 0);
    }

    #[test]
    fn a_chunked_file_has_no_block_reads() {
        let bs = 512;
        let mut cdc = cdc_pool(bs);
        cdc.import_blocks_parallel("img", &[(0u64, vec![7u8; bs]), (4, vec![9u8; bs])]);
        // Data, a hole between the runs and unwritten space past them.
        for b in [0, 2, 4, 9] {
            assert_eq!(cdc.read_block("img", b), None, "block {b}");
            assert!(cdc.read_block_or_hole("img", b).is_none(), "block {b}");
            assert!(cdc.read_block_shared("img", b).is_none(), "block {b}");
            assert!(cdc.block_frame("img", b).is_none(), "block {b}");
        }
        // The file is there for everything else: its layout and its scrub.
        assert!(!cdc.file_layout("img").expect("file").is_empty());
        assert!(cdc.scrub().is_clean());
    }

    #[test]
    #[should_panic(expected = "chunked files are import-only")]
    fn write_block_on_chunked_file_panics() {
        let bs = 512;
        let mut cdc = cdc_pool(bs);
        cdc.import_file("img", &[vec![5u8; bs]], bs as u64);
        cdc.write_block("img", 0, &vec![6u8; bs]);
    }

    #[test]
    fn file_scatter_counts_extents_and_gaps() {
        let mut p = pool(512);
        p.create_file("a");
        p.write_block("a", 0, &block(512, 1));
        p.write_block("a", 1, &block(512, 2));
        let s = p.file_scatter("a").expect("file");
        assert_eq!(s.records, 2);
        assert_eq!(s.extents, 1, "back-to-back allocation is one extent");
        assert_eq!(s.mean_gap_bytes, 0.0);
        // An interleaving allocation from another file fragments "a".
        p.create_file("b");
        p.write_block("b", 0, &block(512, 3));
        p.write_block("a", 2, &block(512, 4));
        let s = p.file_scatter("a").expect("file");
        assert_eq!(s.records, 3);
        assert_eq!(s.extents, 2);
        assert!(s.mean_gap_bytes > 0.0);
        assert!(s.span_bytes > s.data_bytes, "gap stretches the span");
        assert!(p.file_scatter("nope").is_none());
    }

    #[test]
    fn reverse_pass_makes_interleaved_file_sequential() {
        let mut p = pool(512);
        p.create_file("a");
        p.create_file("b");
        for i in 0..4u64 {
            p.write_block("a", i, &block(512, 10 + i as u8));
            p.write_block("b", i, &block(512, 20 + i as u8));
        }
        assert!(
            p.file_scatter("b").expect("file").extents > 1,
            "interleaved"
        );
        p.snapshot("s1");
        let before: Vec<Vec<u8>> = (0..4)
            .map(|i| p.read_block("b", i).expect("file"))
            .collect();
        let phys_before = p.stats().physical_bytes;

        let report = p.reverse_dedup_pass("b").expect("file");
        assert!(report.extents_after < report.extents_before);
        assert_eq!(report.keys_rewritten, 4);
        assert_eq!(
            p.file_scatter("b").expect("file").extents,
            1,
            "fully sequential"
        );
        // Content, refcounts, and physical accounting are untouched.
        for i in 0..4u64 {
            assert_eq!(p.read_block("b", i).expect("file"), before[i as usize]);
            assert_eq!(
                p.read_block("a", i).expect("file"),
                block(512, 10 + i as u8)
            );
        }
        assert_eq!(p.stats().physical_bytes, phys_before, "holes, not growth");
        assert!(p.check_refcounts());
        assert!(p.reverse_dedup_pass("nope").is_none());
    }

    #[test]
    fn reverse_mode_import_lands_sequential() {
        use crate::config::DedupMode;
        let mut p =
            ZPool::new(PoolConfig::new(512, Codec::Lzjb).with_dedup_mode(DedupMode::Reverse));
        let v1: Vec<Vec<u8>> = (0..6).map(|i| block(512, 1 + i as u8)).collect();
        p.import_file("v1", &v1, 6 * 512);
        p.snapshot("s1");
        // v2 shares half of v1's blocks — scattered under forward dedup,
        // sequential after the import's trailing reverse pass.
        let v2: Vec<Vec<u8>> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    block(512, 1 + i as u8)
                } else {
                    block(512, 100 + i as u8)
                }
            })
            .collect();
        p.import_file("v2", &v2, 6 * 512);
        assert_eq!(p.file_scatter("v2").expect("file").extents, 1);
        for (i, b) in v2.iter().enumerate() {
            assert_eq!(p.read_block("v2", i as u64).expect("file"), *b);
        }
        assert!(p.check_refcounts());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use squirrel_compress::Codec;

    #[derive(Debug, Clone)]
    enum Op {
        Write { file: u8, idx: u8, fill: u8 },
        Delete { file: u8 },
        Snapshot,
        DestroyOldestSnapshot,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..3, 0u8..8, any::<u8>()).prop_map(|(file, idx, fill)| Op::Write {
                file,
                idx,
                fill
            }),
            (0u8..3).prop_map(|file| Op::Delete { file }),
            Just(Op::Snapshot),
            Just(Op::DestroyOldestSnapshot),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn refcounts_always_consistent(ops in proptest::collection::vec(op_strategy(), 1..60)) {
            let mut p = ZPool::new(PoolConfig::new(512, Codec::Lzjb));
            let mut snap_seq = 0u32;
            for f in 0..3 {
                p.create_file(&format!("f{f}"));
            }
            for op in ops {
                match op {
                    Op::Write { file, idx, fill } => {
                        p.write_block(&format!("f{file}"), idx as u64, &vec![fill; 512]);
                    }
                    Op::Delete { file } => {
                        let name = format!("f{file}");
                        p.delete_file(&name);
                        p.create_file(&name);
                    }
                    Op::Snapshot => {
                        p.snapshot(&format!("s{snap_seq}"));
                        snap_seq += 1;
                    }
                    Op::DestroyOldestSnapshot => {
                        if let Some(tag) = p.snapshot_tags().first().map(|s| s.to_string()) {
                            p.destroy_snapshot(&tag);
                        }
                    }
                }
                prop_assert!(p.check_refcounts());
            }
        }

        #[test]
        fn read_back_matches_last_write(
            writes in proptest::collection::vec((0u8..6, any::<u8>()), 1..40)
        ) {
            let mut p = ZPool::new(PoolConfig::new(512, Codec::Lz4));
            p.create_file("f");
            let mut model: std::collections::HashMap<u8, u8> = Default::default();
            for (idx, fill) in writes {
                p.write_block("f", idx as u64, &vec![fill; 512]);
                model.insert(idx, fill);
            }
            for (idx, fill) in model {
                prop_assert_eq!(p.read_block("f", idx as u64).expect("file"), vec![fill; 512]);
            }
        }

        /// A CDC import of any mix of zero, uniform and patterned blocks
        /// stores chunks that tile its bytes ([`ZPool::assert_chunks_tile`]).
        #[test]
        fn cdc_chunks_tile_the_imported_bytes(
            specs in proptest::collection::vec((0u8..4, any::<u8>()), 1..24)
        ) {
            use squirrel_hash::cdc::CdcParams;
            let bs = 512usize;
            let blocks: Vec<Vec<u8>> = specs
                .iter()
                .map(|&(kind, fill)| match kind {
                    0 => vec![0u8; bs],
                    1 => vec![fill; bs],
                    2 => (0..bs).map(|j| (j as u8).wrapping_mul(fill | 1)).collect(),
                    _ => (0..bs).map(|j| fill.wrapping_add(j as u8)).collect(),
                })
                .collect();
            let mut cdc = ZPool::new(
                PoolConfig::new(bs, Codec::Lz4)
                    .with_cdc(CdcParams::with_average(1024)),
            );
            cdc.import_file("f", &blocks, (blocks.len() * bs) as u64);
            cdc.assert_chunks_tile("f", &blocks.concat());
            prop_assert!(cdc.check_refcounts());
        }

        /// Differential: a reverse-dedup pass changes *placement only* —
        /// every file and snapshot reads back identically, refcounts and
        /// physical accounting are untouched, and the relocated file's
        /// extent count never grows.
        #[test]
        fn reverse_pass_preserves_content_and_never_fragments(
            specs in proptest::collection::vec((0u8..3, any::<u8>(), any::<bool>()), 2..24)
        ) {
            let bs = 512usize;
            let mut p = ZPool::new(PoolConfig::new(bs, Codec::Lzjb));
            p.create_file("old");
            p.create_file("new");
            // Interleave writes so "new" picks up scattered shared extents.
            for (i, &(kind, fill, share)) in specs.iter().enumerate() {
                let b: Vec<u8> = match kind {
                    0 => vec![fill | 1; bs],
                    1 => (0..bs).map(|j| fill.wrapping_add(j as u8) | 1).collect(),
                    _ => (0..bs).map(|j| (j as u8).wrapping_mul(fill | 1) | 1).collect(),
                };
                p.write_block("old", i as u64, &b);
                if share {
                    p.write_block("new", i as u64, &b);
                } else {
                    p.write_block("new", i as u64, &vec![(fill ^ 0xa5) | 1; bs]);
                }
            }
            p.snapshot("s1");
            let n = specs.len() as u64;
            let read_all = |p: &ZPool, name: &str| -> Vec<Vec<u8>> {
                (0..n).map(|i| p.read_block(name, i).expect("file")).collect()
            };
            let old_before = read_all(&p, "old");
            let new_before = read_all(&p, "new");
            let phys_before = p.stats().physical_bytes;
            let extents_before = p.file_scatter("new").expect("file").extents;

            let report = p.reverse_dedup_pass("new").expect("file");

            prop_assert_eq!(report.extents_before, extents_before);
            prop_assert!(report.extents_after <= extents_before);
            prop_assert_eq!(read_all(&p, "old"), old_before);
            prop_assert_eq!(read_all(&p, "new"), new_before);
            prop_assert_eq!(p.stats().physical_bytes, phys_before);
            prop_assert!(p.check_refcounts());
            prop_assert!(p.scrub().is_clean());
        }
    }
}
