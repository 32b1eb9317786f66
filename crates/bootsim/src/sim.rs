//! The boot simulation proper.

use crate::model::{BitSet, CpuModel, DiskModel, PageCache};
use squirrel_dataset::{BootTrace, ReadOp};
use squirrel_hash::rng::{fmix64, GOLDEN};
use squirrel_zfs::{RecordLoc, ZPool};
use std::collections::VecDeque;

#[cfg(test)]
mod reference;

/// QCOW2's default cluster size: every VM read reaches the backend in
/// cluster-granular requests (paper Section 4.2.3).
pub const QCOW2_CLUSTER: u64 = 64 * 1024;

/// Parameters of a dedup+compressed cVolume backend, measured from a real
/// [`squirrel_zfs::ZPool`] holding the cache corpus and scaled to paper
/// volume by the experiment harness.
#[derive(Clone, Copy, Debug)]
pub struct DedupVolumeParams {
    /// ZFS record size (the cVolume block size under test).
    pub record_size: u64,
    /// Mean compressed fraction of a record (psize / record size).
    pub compressed_fraction: f64,
    /// Dedup-table entries in the pool (drives lookup cost).
    pub ddt_entries: u64,
    /// Physical bytes of the pool (the span scattered reads seek across).
    pub pool_physical_bytes: u64,
    /// Fraction of this cache's records that dedup against *other* caches
    /// (their physical location is wherever the first writer put them) —
    /// the cache cross-similarity at this record size.
    pub shared_fraction: f64,
    /// Fraction of shared records resident in the ARC because other VMIs'
    /// boots keep them hot (popular base-OS records).
    pub hot_fraction: f64,
    /// Decompression CPU cost.
    pub decompress_ns_per_byte: f64,
    /// Records the ARC keeps *decompressed*; re-touching an evicted record
    /// pays decompression again (why 128 KiB records lose to 64 KiB ones
    /// under 64 KiB cluster requests).
    pub decompressed_cache_records: usize,
}

/// A cVolume backend described by a *measured* physical layout instead of
/// the statistical knobs of [`DedupVolumeParams`]: every record's logical
/// and physical placement comes straight from a real
/// [`ZPool::file_layout`], so the simulated head movement is exactly what
/// the pool's allocation (and any reverse-dedup relocation) produced. This
/// is how the chunking experiment prices forward- vs reverse-dedup layouts.
#[derive(Clone, Debug)]
pub struct MeasuredVolumeParams {
    /// The booted file's records in logical order (holes absent).
    pub layout: Vec<RecordLoc>,
    /// Dedup-table entries in the pool (drives lookup cost).
    pub ddt_entries: u64,
    /// Decompression CPU cost.
    pub decompress_ns_per_byte: f64,
    /// Capacity of the decompressed-record ARC.
    pub decompressed_cache_records: usize,
}

impl MeasuredVolumeParams {
    /// Measure file `name` in `pool`. `None` if the file does not exist.
    pub fn from_pool(pool: &ZPool, name: &str) -> Option<Self> {
        Some(MeasuredVolumeParams {
            layout: pool.file_layout(name)?,
            ddt_entries: pool.stats().unique_blocks,
            decompress_ns_per_byte: pool.config().codec.decompress_ns_per_byte(),
            decompressed_cache_records: 2048,
        })
    }
}

/// Storage backend behind the CoW image during boot.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// Warmed VMI cache as a compact plain file on the local file system.
    WarmCacheXfs,
    /// CoW directly over the full VMI on the local file system: the boot
    /// working set is scattered across `image_bytes`.
    BaseImageXfs { image_bytes: u64 },
    /// Cold cache: misses cross the network to the storage nodes (which
    /// read their own disks) and are written back to the local cache.
    ColdCache { net_mbps: f64, image_bytes: u64 },
    /// Warmed cache inside a dedup+compressed cVolume.
    DedupVolume(DedupVolumeParams),
}

/// Outcome of one simulated boot.
#[derive(Clone, Copy, Debug, Default)]
pub struct BootReport {
    pub total_seconds: f64,
    pub io_seconds: f64,
    pub disk_reads: u64,
    pub disk_bytes: u64,
    pub net_bytes: u64,
    pub ddt_lookups: u64,
    pub decompressed_bytes: u64,
}

impl BootReport {
    /// Event-scheduler pricing of this boot: the total latency as integral
    /// milliseconds (rounded). Discrete-event drivers aggregate in this
    /// unit so their reports stay `Eq`-comparable across runs.
    pub fn total_millis(&self) -> u64 {
        (self.total_seconds * 1000.0).round() as u64
    }
}

/// The simulator: device models plus the cluster-granular request chain.
#[derive(Clone, Copy, Debug, Default)]
pub struct BootSim {
    pub disk: DiskModel,
    pub cpu: CpuModel,
}

impl BootSim {
    pub fn new() -> Self {
        Self::default()
    }

    /// Boot several VMs concurrently on one node against the same backend
    /// kind. CPU-side boot work overlaps freely across VMs (the nodes have
    /// eight cores), but the disk serializes: each VM's completion time
    /// includes the device time of the I/O that queued ahead of it
    /// (approximated as half of every peer's device time, the average
    /// interleaving position). The per-VM trace replays fan out over
    /// `workers`; `boot` is pure and the queueing adjustment runs over the
    /// in-order solo reports, so the result is bit-identical at any pool
    /// size (a one-thread pool replays inline on the caller).
    pub fn boot_concurrent_on(
        &self,
        traces: &[BootTrace],
        backend: &Backend,
        workers: &squirrel_hash::par::WorkerPool,
    ) -> Vec<BootReport> {
        // A replay's cost follows the clusters it reads, not the reads that
        // touch them: ≈ 60 ns per 64 KiB of trace, measured 28 (cold,
        // baseline), 42 (warm, 64 KiB records) and 143 (warm, 16 KiB) on the
        // reference box (2-core Xeon VM, 132 MiB paper-scale trace).
        let replay_cost = |t: &BootTrace| t.total_bytes() / QCOW2_CLUSTER * 60;
        self.queue_on_one_disk(
            workers.parallel_map(traces, replay_cost, |_i, t| self.boot(t, backend)),
        )
    }

    /// [`boot_concurrent_on`](Self::boot_concurrent_on) for `vms` VMs that
    /// replay the *same* trace — a boot storm of one image on one node:
    /// `solo` is that trace's one [`boot`](Self::boot) on the node's
    /// backend, and every VM queues behind the device time of `vms - 1`
    /// copies of it. Bit-identical to replaying the trace `vms` times.
    pub fn boot_concurrent_same(&self, solo: BootReport, vms: usize) -> Vec<BootReport> {
        self.queue_on_one_disk(vec![solo; vms])
    }

    /// The queueing adjustment over in-order solo reports. The total is
    /// summed report by report even when they are all equal: `n × io`
    /// rounds differently from `n` additions.
    fn queue_on_one_disk(&self, solo: Vec<BootReport>) -> Vec<BootReport> {
        let total_io: f64 = solo.iter().map(|r| r.io_seconds).sum();
        solo.into_iter()
            .map(|mut r| {
                r.io_seconds += 0.5 * (total_io - r.io_seconds);
                r.total_seconds = self.cpu.os_boot_seconds + r.io_seconds;
                r
            })
            .collect()
    }

    /// Replay `trace` against `backend`; returns timing and I/O accounting.
    /// Per-boot state is dense: one bit per cluster (and per record) up to
    /// the highest offset the trace reads. A cVolume is [`plan`](Self::plan)
    /// then [`price`](Self::price).
    pub fn boot(&self, trace: &BootTrace, backend: &Backend) -> BootReport {
        let (image_bytes, net_mbps) = match *backend {
            Backend::WarmCacheXfs => (None, None),
            Backend::BaseImageXfs { image_bytes } => (Some(image_bytes), None),
            Backend::ColdCache {
                net_mbps,
                image_bytes,
            } => (Some(image_bytes), Some(net_mbps)),
            Backend::DedupVolume(ref p) => {
                return self.price(
                    &self.plan(trace, p.record_size, p.decompressed_cache_records),
                    p,
                );
            }
        };
        let (mut report, mut head) = (BootReport::default(), 0u64);
        first_touches(trace, |coff| {
            // A compact file reads at its logical offset; a full image
            // scatters the working set across itself.
            let phys = image_bytes.map_or(coff, |b| spread_offset(coff, b));
            self.device_read(&mut head, phys, QCOW2_CLUSTER, &mut report);
            if let Some(net_mbps) = net_mbps {
                // Cold cache: the read above is the storage node's (its own
                // head; approximated with the same model), plus network
                // transfer, plus local write-back (sequential, overlapped with
                // the next fetch: half cost).
                report.io_seconds += QCOW2_CLUSTER as f64 / (net_mbps * 1e6);
                report.io_seconds += 0.5 * QCOW2_CLUSTER as f64 / (self.disk.seq_mbps * 1e6);
                report.net_bytes += QCOW2_CLUSTER;
            }
        });
        self.finish(report)
    }

    /// Replay `trace` against a cVolume whose physical layout was *measured*
    /// from a real pool ([`MeasuredVolumeParams`]). Unlike
    /// [`Backend::DedupVolume`], which prices scatter statistically, every
    /// seek here is the actual head move between the allocator-assigned
    /// extents, so a reverse-dedup relocation shows up directly as fewer,
    /// shorter seeks. Clusters with no overlapping record are holes and cost
    /// nothing.
    pub fn boot_measured(&self, trace: &BootTrace, p: &MeasuredVolumeParams) -> BootReport {
        self.price_records(&self.plan_layout(trace, p), p.ddt_entries, p)
    }

    /// Walk `trace` over a cVolume of fixed `record_size` records whose ARC
    /// keeps `arc_records` decompressed: the page cache by cluster, the
    /// records each first-touched cluster overlaps, the ARC and raw
    /// residency. What the walk finds depends on nothing else, so one plan
    /// prices every [`DedupVolumeParams`] with this record size and ARC
    /// capacity ([`price`](Self::price)).
    ///
    /// # Panics
    ///
    /// If the trace reaches record 2³² — a working set past 2 TiB at
    /// 512 B records, whose dense residency bitsets would take 512 MiB
    /// each.
    pub fn plan(&self, trace: &BootTrace, record_size: u64, arc_records: usize) -> BootPlan {
        let records = FixedRecords {
            record_size,
            raw_resident: PageCache::new(record_size.next_power_of_two()),
        };
        BootPlan::walk(trace, arc_records, records, record_size)
    }

    /// [`plan`](Self::plan) over a measured layout's records.
    fn plan_layout(&self, trace: &BootTrace, p: &MeasuredVolumeParams) -> BootPlan {
        let records = LayoutRecords {
            layout: &p.layout,
            raw_resident: BitSet::default(),
        };
        BootPlan::walk(trace, p.decompressed_cache_records, records, 0)
    }

    /// The boot a [`plan`](Self::plan) describes, on the statistical volume
    /// `p`: equal, bit for bit, to [`boot`](Self::boot) of the planned trace
    /// against [`Backend::DedupVolume`]`(p)`. `p` must have the plan's record
    /// size and ARC capacity.
    pub fn price(&self, plan: &BootPlan, p: &DedupVolumeParams) -> BootReport {
        debug_assert_eq!(
            (plan.record_size, plan.arc_records),
            (p.record_size, p.decompressed_cache_records),
            "a plan prices only its own geometry"
        );
        self.price_records(plan, p.ddt_entries, &StatisticalRecords::new(p))
    }

    /// The one per-record routine: in trace order, every touch pays a DDT
    /// lookup; unless the ARC held the record decompressed, a first need
    /// for its raw bytes reads them from the device (if the source says
    /// they are anywhere the device must reach), and the whole record is
    /// decompressed to serve any part of it.
    fn price_records(
        &self,
        plan: &BootPlan,
        ddt_entries: u64,
        records: &impl RecordCosts,
    ) -> BootReport {
        let ddt_lookup_seconds = self.cpu.ddt_lookup_seconds(ddt_entries);
        let (mut report, mut head) = (BootReport::default(), 0u64);
        for run in &plan.runs {
            for rec in run.records() {
                report.ddt_lookups += 1;
                report.io_seconds += ddt_lookup_seconds;
                if run.touch == Touch::ArcHit {
                    continue;
                }
                if run.touch == Touch::Fetch {
                    if let Some((phys, psize)) = records.extent(rec) {
                        self.device_read(&mut head, phys, psize, &mut report);
                    }
                }
                let (seconds, llen) = records.decompress(rec);
                report.io_seconds += seconds;
                report.decompressed_bytes += llen;
            }
        }
        self.finish(report)
    }

    /// A replay's total: the OS's own boot work plus the I/O.
    fn finish(&self, mut report: BootReport) -> BootReport {
        report.total_seconds = self.cpu.os_boot_seconds + report.io_seconds;
        report
    }

    /// One device read of `len` bytes at `phys`, from the head's position.
    fn device_read(&self, head: &mut u64, phys: u64, len: u64, report: &mut BootReport) {
        report.io_seconds += self.disk.read_seconds(*head, phys, len);
        *head = phys + len;
        report.disk_reads += 1;
        report.disk_bytes += len;
    }
}

/// The one cluster loop: the page cache over the *logical* address space,
/// by cluster (QCOW2 cluster over-fetch makes later reads of the same
/// cluster free), hands the offset of each cluster's first touch to
/// `read_cluster`.
fn first_touches(trace: &BootTrace, mut read_cluster: impl FnMut(u64)) {
    let mut page_cache = BitSet::default();
    for op in &trace.ops {
        for cluster in clusters(op) {
            if page_cache.insert(cluster as usize) {
                read_cluster(cluster * QCOW2_CLUSTER);
            }
        }
    }
}

/// How one boot trace touches a cVolume's records, walked once for one
/// record geometry and one ARC capacity ([`BootSim::plan`]). A touch's cost
/// — the DDT lookup, where the device reads, the decompress time — depends
/// on the rest of the backend, so one plan prices every backend of that
/// geometry ([`BootSim::price`]) without walking the trace again.
#[derive(Clone, Debug, Default)]
pub struct BootPlan {
    /// Every record touch in trace order, as runs of consecutive records
    /// touched alike.
    runs: Vec<Run>,
    /// The fixed record size walked (0 for a measured layout).
    record_size: u64,
    arc_records: usize,
}

/// Records `first..first + count`, touched one after the other, alike.
/// Eight bytes: a fleet keeps a plan per image.
#[derive(Clone, Copy, Debug)]
struct Run {
    first: u32,
    count: u16,
    touch: Touch,
}

impl Run {
    fn records(self) -> std::ops::Range<usize> {
        let first = self.first as usize;
        first..first + usize::from(self.count)
    }
}

/// What a record touch needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Touch {
    /// Decompressed and ARC-resident: the DDT lookup only.
    ArcHit,
    /// Raw bytes already page-cache resident: the lookup and a decompress.
    Resident,
    /// The first need for the raw bytes: the lookup, the device read and a
    /// decompress.
    Fetch,
}

impl BootPlan {
    fn walk(
        trace: &BootTrace,
        arc_records: usize,
        mut records: impl RecordGeometry,
        record_size: u64,
    ) -> BootPlan {
        let mut arc = DecompressedArc::new(arc_records);
        let mut runs: Vec<Run> = Vec::new();
        first_touches(trace, |coff| {
            for rec in records.overlapping(coff) {
                let touch = if arc.contains(rec) {
                    Touch::ArcHit
                } else {
                    arc.admit(rec, records.llen(rec));
                    if records.first_need(rec) {
                        Touch::Fetch
                    } else {
                        Touch::Resident
                    }
                };
                match runs.last_mut() {
                    Some(run)
                        if run.touch == touch
                            && run.records().end == rec
                            && run.count < u16::MAX =>
                    {
                        run.count += 1;
                    }
                    _ => runs.push(Run {
                        first: u32::try_from(rec).expect("a trace spans under 2^32 records"),
                        count: 1,
                        touch,
                    }),
                }
            }
        });
        runs.shrink_to_fit(); // a plan is kept: its growth slack is not
        BootPlan {
            runs,
            record_size,
            arc_records,
        }
    }
}

/// The QCOW2 clusters `op` touches (a zero-length read touches one).
fn clusters(op: &ReadOp) -> std::ops::RangeInclusive<u64> {
    op.offset / QCOW2_CLUSTER..=(op.offset + op.len.max(1) as u64 - 1) / QCOW2_CLUSTER
}

/// Spread a compact working-set offset across a large image: 128 KiB extents
/// stay sequential (files), extents land pseudo-randomly (file-system
/// layout).
fn spread_offset(coff: u64, image_bytes: u64) -> u64 {
    const EXTENT: u64 = 128 * 1024;
    let extent = coff / EXTENT;
    let within = coff % EXTENT;
    let base = mix(extent, 0x77) % image_bytes.max(EXTENT);
    (base / EXTENT) * EXTENT + within
}

#[inline]
fn mix(x: u64, salt: u64) -> u64 {
    fmix64(x.wrapping_mul(GOLDEN) ^ salt.rotate_left(31))
}

/// Uniform [0,1) coin per (value, salt).
#[inline]
fn coin(x: u64, salt: u64) -> f64 {
    (mix(x, salt) >> 11) as f64 / (1u64 << 53) as f64
}

/// The ARC's decompressed records, by record index — one rule for both
/// replays. Records no larger than the cluster are admitted once
/// decompressed and later requests hit them; records *larger* than the
/// QCOW2 cluster are re-decompressed per request (the DMU hands out
/// request-sized buffers, the paper's explanation for 128 KiB losing to
/// 64 KiB). Past `cap` records the oldest admission leaves.
struct DecompressedArc {
    order: VecDeque<usize>,
    resident: BitSet,
    cap: usize,
}

impl DecompressedArc {
    fn new(cap: usize) -> Self {
        DecompressedArc {
            order: VecDeque::new(),
            resident: BitSet::default(),
            cap: cap.max(1),
        }
    }

    fn contains(&self, rec: usize) -> bool {
        self.resident.contains(rec)
    }

    /// `rec`, `llen` logical bytes, was just decompressed.
    fn admit(&mut self, rec: usize, llen: u64) {
        if llen <= QCOW2_CLUSTER && self.resident.insert(rec) {
            self.order.push_back(rec);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.resident.remove(old);
                }
            }
        }
    }
}

/// Where a cVolume's records sit in the *logical* address space, and which
/// ones are raw-resident: all a plan's walk reads.
trait RecordGeometry {
    /// The records overlapping the cluster at logical offset `coff`.
    fn overlapping(&self, coff: u64) -> std::ops::Range<usize>;
    /// Record `rec`'s logical bytes.
    fn llen(&self, rec: usize) -> u64;
    /// Record `rec`'s raw bytes are needed: mark them page-cache resident,
    /// and say whether this is the first need (the device must be asked).
    fn first_need(&mut self, rec: usize) -> bool;
}

/// What a touch of a record costs: the one thing the statistical and the
/// measured volume disagree on is where records sit physically.
trait RecordCosts {
    /// The `(phys, psize)` extent the device reads on `rec`'s first need,
    /// if the device reads at all.
    fn extent(&self, rec: usize) -> Option<(u64, u64)>;
    /// Seconds to decompress `rec`, and its logical bytes.
    fn decompress(&self, rec: usize) -> (f64, u64);
}

/// Fixed-size records: [`DedupVolumeParams`]' geometry.
struct FixedRecords {
    record_size: u64,
    /// Raw (compressed) records resident in the page cache, at the record
    /// size rounded up to a power of two (neighbours may alias).
    raw_resident: PageCache,
}

impl RecordGeometry for FixedRecords {
    fn overlapping(&self, coff: u64) -> std::ops::Range<usize> {
        let rs = self.record_size;
        (coff / rs) as usize..((coff + QCOW2_CLUSTER - 1) / rs + 1) as usize
    }

    fn llen(&self, _rec: usize) -> u64 {
        self.record_size
    }

    fn first_need(&mut self, rec: usize) -> bool {
        let off = rec as u64 * self.record_size;
        if self.raw_resident.contains(off, 1) {
            return false;
        }
        self.raw_resident.insert(off, self.record_size);
        true
    }
}

/// [`DedupVolumeParams`]' costs: shared and hot by coin flip. The per-boot
/// constants must stay the exact expressions the reference replay
/// (`sim/reference.rs`) evaluates per record, so that every addition to
/// `io_seconds` is the same `f64`: `replay_matches_the_hashset_reference`
/// compares by `to_bits`, and `* 1e-9` in place of `/ 1e9` already fails it.
struct StatisticalRecords<'a> {
    p: &'a DedupVolumeParams,
    psize: u64,
    decompress_seconds: f64,
}

impl<'a> StatisticalRecords<'a> {
    fn new(p: &'a DedupVolumeParams) -> Self {
        StatisticalRecords {
            p,
            psize: (p.record_size as f64 * p.compressed_fraction).max(1.0) as u64,
            decompress_seconds: p.record_size as f64 * p.decompress_ns_per_byte / 1e9,
        }
    }
}

impl RecordCosts for StatisticalRecords<'_> {
    fn extent(&self, rec: usize) -> Option<(u64, u64)> {
        let (p, rec) = (self.p, rec as u64);
        // Shared records live wherever their first writer put them (anywhere
        // in the pool); hot shared records are ARC-resident. The rest were
        // written at registration in one run: a compact region.
        // The hot coin is drawn for shared records only.
        if coin(rec, 0x5a5a) < p.shared_fraction {
            let hot = coin(rec, 0xa0a0) < p.hot_fraction;
            (!hot).then(|| (mix(rec, 0x11) % p.pool_physical_bytes.max(1), self.psize))
        } else {
            Some((rec * self.psize, self.psize))
        }
    }

    fn decompress(&self, _rec: usize) -> (f64, u64) {
        (self.decompress_seconds, self.p.record_size)
    }
}

/// A measured layout's records, by index. Records are variable-sized, so
/// raw residency is one bit per record (a byte-granular page cache over
/// physical space would alias neighbours).
struct LayoutRecords<'a> {
    layout: &'a [RecordLoc],
    raw_resident: BitSet,
}

impl RecordGeometry for LayoutRecords<'_> {
    fn overlapping(&self, coff: u64) -> std::ops::Range<usize> {
        // The layout is sorted by logical offset and records never overlap.
        let layout = self.layout;
        let first = layout.partition_point(|r| r.logical_off + r.llen as u64 <= coff);
        first..first + layout[first..].partition_point(|r| r.logical_off < coff + QCOW2_CLUSTER)
    }

    fn llen(&self, rec: usize) -> u64 {
        self.layout[rec].llen as u64
    }

    fn first_need(&mut self, rec: usize) -> bool {
        self.raw_resident.insert(rec)
    }
}

impl RecordCosts for MeasuredVolumeParams {
    fn extent(&self, rec: usize) -> Option<(u64, u64)> {
        let r = &self.layout[rec];
        Some((r.phys, r.psize as u64))
    }

    fn decompress(&self, rec: usize) -> (f64, u64) {
        let llen = self.layout[rec].llen;
        (llen as f64 * self.decompress_ns_per_byte / 1e9, llen as u64)
    }
}

/// Reasonable defaults for [`DedupVolumeParams`] given a record size and
/// corpus-level measurements; the experiment harness fills the measured
/// fields from real pool statistics.
impl DedupVolumeParams {
    pub fn new(record_size: u64) -> Self {
        DedupVolumeParams {
            record_size,
            compressed_fraction: 0.42,
            ddt_entries: 600_000,
            pool_physical_bytes: 10 << 30,
            shared_fraction: 0.65,
            hot_fraction: 0.93,
            decompress_ns_per_byte: 12.0,
            decompressed_cache_records: 2048,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squirrel_hash::par::WorkerPool;

    /// A paper-scale boot working set: 132 MiB covered by 16 KiB reads in
    /// extent-shuffled order (mirrors `BootTrace::generate`'s shape).
    fn trace(ws: u64) -> BootTrace {
        let mut ops = Vec::new();
        let extent = 128 * 1024u64;
        let n = ws / extent;
        // Deterministic shuffle of extents.
        let mut order: Vec<u64> = (0..n).collect();
        for i in (1..order.len()).rev() {
            let j = (mix(i as u64, 0x99) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        for e in order {
            let mut off = e * extent;
            while off < (e + 1) * extent {
                ops.push(ReadOp {
                    offset: off,
                    len: 16 * 1024,
                });
                off += 16 * 1024;
            }
        }
        BootTrace { ops }
    }

    const WS: u64 = 132 << 20;

    fn boot(backend: Backend) -> BootReport {
        BootSim::new().boot(&trace(WS), &backend)
    }

    fn params(bs: u64) -> DedupVolumeParams {
        // Shared fraction and DDT entries vary with record size like the
        // measured cache curves: more sharing and more entries at small
        // records.
        let blocks_per_64k = (65536 / bs).max(1) as f64;
        DedupVolumeParams {
            record_size: bs,
            compressed_fraction: 0.40 + 0.10 * (bs as f64 / 131_072.0),
            ddt_entries: (600_000.0 * blocks_per_64k) as u64,
            shared_fraction: (0.60 + 0.05 * blocks_per_64k.log2()).min(0.88),
            ..DedupVolumeParams::new(bs)
        }
    }

    #[test]
    fn baseline_boots_under_half_minute() {
        let r = boot(Backend::BaseImageXfs {
            image_bytes: 27 << 30,
        });
        assert!(
            r.total_seconds > 15.0 && r.total_seconds < 30.0,
            "{}",
            r.total_seconds
        );
    }

    #[test]
    fn warm_cache_beats_baseline() {
        // The paper's ~16% speedup of warm caches over local VMIs.
        let warm = boot(Backend::WarmCacheXfs);
        let base = boot(Backend::BaseImageXfs {
            image_bytes: 27 << 30,
        });
        assert!(
            warm.total_seconds < 0.95 * base.total_seconds,
            "warm {} vs base {}",
            warm.total_seconds,
            base.total_seconds
        );
    }

    #[test]
    fn cold_cache_slowest() {
        let cold = boot(Backend::ColdCache {
            net_mbps: 125.0,
            image_bytes: 27 << 30,
        });
        let base = boot(Backend::BaseImageXfs {
            image_bytes: 27 << 30,
        });
        assert!(cold.total_seconds > base.total_seconds);
        assert!(cold.net_bytes >= WS, "cold boot transfers the working set");
    }

    #[test]
    fn warm_zfs_64k_competitive_with_plain_cache() {
        let z = boot(Backend::DedupVolume(params(64 * 1024)));
        let base = boot(Backend::BaseImageXfs {
            image_bytes: 27 << 30,
        });
        assert!(
            z.total_seconds < base.total_seconds,
            "zfs-64k {} vs baseline {}",
            z.total_seconds,
            base.total_seconds
        );
    }

    #[test]
    fn tiny_records_boot_much_slower() {
        let z1k = boot(Backend::DedupVolume(params(1024)));
        let z64k = boot(Backend::DedupVolume(params(64 * 1024)));
        assert!(
            z1k.total_seconds > 1.5 * z64k.total_seconds,
            "1k {} vs 64k {}",
            z1k.total_seconds,
            z64k.total_seconds
        );
    }

    #[test]
    fn record_larger_than_cluster_is_slower() {
        let z128 = boot(Backend::DedupVolume(params(128 * 1024)));
        let z64 = boot(Backend::DedupVolume(params(64 * 1024)));
        assert!(
            z128.total_seconds > z64.total_seconds,
            "128k {} vs 64k {}",
            z128.total_seconds,
            z64.total_seconds
        );
    }

    #[test]
    fn concurrent_boots_contend_on_the_disk() {
        let sim = BootSim::new();
        let traces: Vec<BootTrace> = (0..4).map(|_| trace(WS)).collect();
        let solo = sim.boot(&traces[0], &Backend::WarmCacheXfs);
        let together = sim.boot_concurrent_on(&traces, &Backend::WarmCacheXfs, &WorkerPool::new(1));
        assert_eq!(together.len(), 4);
        for r in &together {
            assert!(
                r.total_seconds > solo.total_seconds,
                "{} vs {}",
                r.total_seconds,
                solo.total_seconds
            );
            // But far less than 4x serialized boots: CPU work overlaps.
            assert!(r.total_seconds < 4.0 * solo.total_seconds);
        }
    }

    #[test]
    fn concurrent_boot_bit_identical_at_any_thread_count() {
        let sim = BootSim::new();
        let traces: Vec<_> = (0..6).map(|i| trace(WS + i * 4096)).collect();
        let serial = sim.boot_concurrent_on(&traces, &Backend::WarmCacheXfs, &WorkerPool::new(1));
        for threads in [2usize, 8] {
            let par =
                sim.boot_concurrent_on(&traces, &Backend::WarmCacheXfs, &WorkerPool::new(threads));
            assert_eq!(par.len(), serial.len());
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(
                    p.total_seconds.to_bits(),
                    s.total_seconds.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(p.io_seconds.to_bits(), s.io_seconds.to_bits());
                assert_eq!(p.disk_reads, s.disk_reads);
                assert_eq!(p.disk_bytes, s.disk_bytes);
                assert_eq!(p.net_bytes, s.net_bytes);
                assert_eq!(p.ddt_lookups, s.ddt_lookups);
                assert_eq!(p.decompressed_bytes, s.decompressed_bytes);
            }
        }
    }

    #[test]
    fn same_trace_storm_equals_replaying_the_trace_per_vm() {
        let sim = BootSim::new();
        let t = trace(8 << 20);
        let workers = WorkerPool::new(2);
        for backend in [
            Backend::DedupVolume(params(64 * 1024)),
            Backend::ColdCache {
                net_mbps: 125.0,
                image_bytes: 27 << 30,
            },
        ] {
            let solo = sim.boot(&t, &backend);
            for n in 1..=64usize {
                let oracle = sim.boot_concurrent_on(&vec![t.clone(); n], &backend, &workers);
                let same = sim.boot_concurrent_same(solo, n);
                let bits = |r: &BootReport| {
                    (
                        (r.total_seconds.to_bits(), r.io_seconds.to_bits()),
                        (r.disk_reads, r.disk_bytes, r.net_bytes),
                        (r.ddt_lookups, r.decompressed_bytes),
                    )
                };
                assert_eq!(
                    same.iter().map(bits).collect::<Vec<_>>(),
                    oracle.iter().map(bits).collect::<Vec<_>>(),
                    "n={n} {backend:?}"
                );
            }
        }
    }

    #[test]
    fn concurrent_boot_of_one_equals_solo() {
        let sim = BootSim::new();
        let t = trace(WS);
        let solo = sim.boot(&t, &Backend::WarmCacheXfs);
        let one = sim.boot_concurrent_on(
            std::slice::from_ref(&t),
            &Backend::WarmCacheXfs,
            &WorkerPool::new(1),
        );
        assert!((one[0].total_seconds - solo.total_seconds).abs() < 1e-9);
    }

    #[test]
    fn page_cache_makes_repeat_reads_free() {
        // Re-reading the same offsets must add no I/O time.
        let mut t = trace(WS);
        let doubled: Vec<_> = t.ops.iter().chain(t.ops.iter()).copied().collect();
        t.ops = doubled;
        let once = boot(Backend::WarmCacheXfs);
        let twice = BootSim::new().boot(&t, &Backend::WarmCacheXfs);
        assert!((once.total_seconds - twice.total_seconds).abs() < 1e-6);
    }

    #[test]
    fn reports_are_deterministic() {
        let a = boot(Backend::DedupVolume(params(8192)));
        let b = boot(Backend::DedupVolume(params(8192)));
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
    }

    /// An interleaved two-file pool: file "b"'s records alternate with
    /// "a"'s on disk, so "b" is maximally fragmented until a reverse pass.
    fn interleaved_pool(bs: usize, n: u64) -> squirrel_zfs::ZPool {
        use squirrel_compress::Codec;
        let mut p = squirrel_zfs::ZPool::new(squirrel_zfs::PoolConfig::new(bs, Codec::Off));
        p.create_file("a");
        p.create_file("b");
        for i in 0..n {
            p.write_block("a", i, &vec![(i + 1) as u8; bs]);
            p.write_block("b", i, &vec![(i + 101) as u8; bs]);
        }
        p
    }

    /// Sequential cluster-sized reads over the first `bytes` of the image.
    fn seq_trace(bytes: u64) -> BootTrace {
        let ops = (0..bytes / QCOW2_CLUSTER)
            .map(|c| ReadOp {
                offset: c * QCOW2_CLUSTER,
                len: QCOW2_CLUSTER as u32,
            })
            .collect();
        BootTrace { ops }
    }

    #[test]
    fn measured_reverse_layout_boots_faster_than_scattered() {
        let (bs, n) = (4096usize, 64u64);
        let mut pool = interleaved_pool(bs, n);
        // Tight contiguity threshold so record-sized gaps cost real seeks.
        let sim = BootSim {
            disk: DiskModel {
                contiguous_bytes: 1024,
                ..Default::default()
            },
            cpu: CpuModel::default(),
        };
        let t = seq_trace(n * bs as u64);

        let before = MeasuredVolumeParams::from_pool(&pool, "b").expect("file");
        let scattered = sim.boot_measured(&t, &before);
        let rep = pool.reverse_dedup_pass("b").expect("file");
        assert!(rep.extents_after < rep.extents_before, "{rep:?}");
        let after = MeasuredVolumeParams::from_pool(&pool, "b").expect("file");
        let sequential = sim.boot_measured(&t, &after);

        // Same records, same bytes — only the head movement changed.
        assert_eq!(scattered.disk_bytes, sequential.disk_bytes);
        assert_eq!(scattered.ddt_lookups, sequential.ddt_lookups);
        assert_eq!(scattered.decompressed_bytes, sequential.decompressed_bytes);
        assert!(
            sequential.io_seconds < 0.5 * scattered.io_seconds,
            "sequential {} vs scattered {}",
            sequential.io_seconds,
            scattered.io_seconds
        );
    }

    #[test]
    fn measured_boot_skips_holes() {
        use squirrel_compress::Codec;
        let bs = 4096usize;
        let mut p = squirrel_zfs::ZPool::new(squirrel_zfs::PoolConfig::new(bs, Codec::Off));
        p.create_file("s");
        p.write_block("s", 40, &vec![9u8; bs]); // lands in cluster 2
        let params = MeasuredVolumeParams::from_pool(&p, "s").expect("file");

        let hole = BootTrace {
            ops: vec![ReadOp {
                offset: 0,
                len: 4096,
            }],
        };
        let r = BootSim::new().boot_measured(&hole, &params);
        assert_eq!(r.disk_reads, 0);
        assert_eq!(r.ddt_lookups, 0);
        assert_eq!(r.io_seconds, 0.0, "holes cost nothing");

        let data = BootTrace {
            ops: vec![ReadOp {
                offset: 40 * bs as u64,
                len: 4096,
            }],
        };
        let r2 = BootSim::new().boot_measured(&data, &params);
        assert_eq!(r2.disk_reads, 1);
        assert!(r2.io_seconds > 0.0);
    }

    /// A 32-block CDC pool at 4 KiB average chunks: variable-size records,
    /// some straddling a cluster boundary, in file "img".
    fn cdc_pool() -> squirrel_zfs::ZPool {
        use squirrel_compress::Codec;
        use squirrel_zfs::CdcParams;
        let bs = 4096usize;
        let mut p = squirrel_zfs::ZPool::new(
            squirrel_zfs::PoolConfig::new(bs, Codec::Lzjb).with_cdc(CdcParams::with_average(4096)),
        );
        let blocks: Vec<Vec<u8>> = (0..32)
            .map(|i| {
                (0..bs)
                    .map(|j| ((i * 131 + j * 7) % 251) as u8 | 1)
                    .collect()
            })
            .collect();
        p.import_file("img", &blocks, 32 * bs as u64);
        p
    }

    #[test]
    fn measured_boot_is_deterministic_and_accounts_cdc_record_sizes() {
        let params = MeasuredVolumeParams::from_pool(&cdc_pool(), "img").expect("file");
        let t = seq_trace(32 * 4096);

        let a = BootSim::new().boot_measured(&t, &params);
        let b = BootSim::new().boot_measured(&t, &params);
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        assert_eq!(a.disk_reads, b.disk_reads);

        // Every variable-size record is fetched and decompressed exactly
        // once: raw residency stops re-reads, the ARC stops re-decompression.
        let total_llen: u64 = params.layout.iter().map(|r| r.llen as u64).sum();
        let total_psize: u64 = params.layout.iter().map(|r| r.psize as u64).sum();
        assert_eq!(a.decompressed_bytes, total_llen);
        assert_eq!(a.disk_bytes, total_psize);
        // Records straddling a cluster boundary are looked up once per
        // touching cluster, so lookups can exceed the record count.
        assert!(a.ddt_lookups as usize >= params.layout.len());
    }

    #[test]
    fn boot_time_curve_has_paper_shape() {
        // Figure 11's qualitative curve: steep at 1–4 KiB, minimum around
        // 32–64 KiB, uptick at 128 KiB.
        let times: Vec<f64> = [1024u64, 2048, 4096, 8192, 16384, 32768, 65536, 131072]
            .iter()
            .map(|&bs| boot(Backend::DedupVolume(params(bs))).total_seconds)
            .collect();
        let min_idx = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .expect("nonempty")
            .0;
        assert!(
            (5..=6).contains(&min_idx),
            "minimum at 32–64 KiB, got index {min_idx}: {times:?}"
        );
        assert!(times[0] > times[6], "1 KiB slowest end: {times:?}");
    }

    /// A fine-grained boot read sequence for the reference tests: 128 KiB
    /// extents in shuffled order, each read sequentially in 4–64 KiB pieces
    /// (⌊ws / 128 KiB⌋ whole extents, at least one). `paper_scale_trace`
    /// (`squirrel-core`) reads each extent whole; these sub-cluster reads
    /// exercise the page cache's repeat touches.
    fn paper_shape_trace(ws_bytes: u64, seed: u64) -> BootTrace {
        const EXTENT: u64 = 128 * 1024;
        let ws = ws_bytes.max(EXTENT);
        let mut order: Vec<u64> = (0..ws / EXTENT).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (mix(i as u64 ^ seed, 0x7ace) % (i as u64 + 1)) as usize);
        }
        const KIB: [u64; 10] = [4, 4, 4, 4, 16, 16, 16, 32, 32, 64];
        let mut ops = Vec::new();
        for e in order {
            let (mut off, end, mut k) = (e * EXTENT, ((e + 1) * EXTENT).min(ws), 0);
            while off < end {
                let len = (KIB[(mix(e * 131 + k, seed) % 10) as usize] * 1024).min(end - off);
                ops.push(ReadOp {
                    offset: off,
                    len: len as u32,
                });
                off += len;
                k += 1;
            }
        }
        BootTrace { ops }
    }

    /// `n` reads at unaligned offsets in `span` with lengths up to 160 KiB:
    /// they overlap each other, and every 17th is empty.
    fn random_trace(n: u64, span: u64, seed: u64) -> BootTrace {
        let ops = (0..n)
            .map(|i| ReadOp {
                offset: mix(i, seed) % span,
                len: if i % 17 == 0 {
                    0
                } else {
                    (mix(i, seed ^ 0xfeed) % (160 << 10)) as u32
                },
            })
            .collect();
        BootTrace { ops }
    }

    fn bits(r: &BootReport) -> [u64; 7] {
        [
            r.total_seconds.to_bits(),
            r.io_seconds.to_bits(),
            r.disk_reads,
            r.disk_bytes,
            r.net_bytes,
            r.ddt_lookups,
            r.decompressed_bytes,
        ]
    }

    /// Which kinds of touch `plan` holds, OR-ed into `seen`: ARC hit, raw
    /// resident, fetch.
    fn note_touches(plan: &BootPlan, seen: &mut [bool; 3]) {
        for run in &plan.runs {
            seen[run.touch as usize] = true;
        }
    }

    /// One plan per (trace, record size, ARC capacity), priced for every
    /// statistical volume of that geometry: shared and hot fractions from
    /// none to all, and two sets of pricing constants. Record sizes cover
    /// 24 KiB (raw residency aliases neighbours at 32 KiB) and 128 KiB
    /// (larger than a cluster, never admitted); ARC capacities 1 and
    /// 100 000 (evicting on every admission, never evicting).
    #[test]
    fn replay_matches_the_hashset_reference() {
        let sim = BootSim::new();
        let traces = [
            paper_shape_trace(1000, 1),
            paper_shape_trace(40 << 20, 2),
            paper_shape_trace(96 << 20, 3),
            paper_shape_trace(132 << 20, 4),
            paper_shape_trace(300 << 20, 5),
            // 71 680 records of 4 KiB in one sequential run: past a `Run`'s
            // 65 535, so it splits.
            seq_trace(280 << 20),
            random_trace(3000, 48 << 20, 6),
        ];
        let plain = [
            Backend::WarmCacheXfs,
            Backend::BaseImageXfs {
                image_bytes: 27 << 30,
            },
            Backend::ColdCache {
                net_mbps: 125.0,
                image_bytes: 27 << 30,
            },
        ];
        let mut seen = [false; 3];
        for t in &traces {
            for b in &plain {
                assert_eq!(bits(&sim.boot(t, b)), bits(&reference::boot(&sim, t, b)));
            }
            for kib in [4u64, 16, 24, 64, 128] {
                for cap in [1usize, 64, 2048, 100_000] {
                    let plan = sim.plan(t, kib * 1024, cap);
                    note_touches(&plan, &mut seen);
                    let base = DedupVolumeParams {
                        decompressed_cache_records: cap,
                        ..params(kib * 1024)
                    };
                    let repriced = DedupVolumeParams {
                        compressed_fraction: 0.9,
                        ddt_entries: 1000,
                        pool_physical_bytes: 3 << 30,
                        decompress_ns_per_byte: 3.0,
                        ..base
                    };
                    let fractions = [(0.0, 0.0), (0.65, 0.93), (1.0, 1.0)];
                    let volumes = fractions
                        .iter()
                        .map(|&(shared_fraction, hot_fraction)| DedupVolumeParams {
                            shared_fraction,
                            hot_fraction,
                            ..base
                        })
                        .chain([repriced]);
                    for p in volumes {
                        let b = Backend::DedupVolume(p);
                        let expected = bits(&reference::boot(&sim, t, &b));
                        assert_eq!(bits(&sim.price(&plan, &p)), expected, "{p:?}");
                        assert_eq!(bits(&sim.boot(t, &b)), expected, "{p:?}");
                    }
                }
            }
        }
        assert_eq!(
            seen, [true; 3],
            "ARC hits, raw-resident and fetched records"
        );
        let sequential = sim.plan(&traces[5], 4096, 2048);
        assert!(
            sequential.runs.iter().any(|r| r.count == u16::MAX),
            "a run splits"
        );
    }

    /// One plan per (trace, layout, ARC capacity), priced for two sets of
    /// DDT and decompress constants.
    #[test]
    fn measured_replay_matches_the_hashset_reference() {
        let sim = BootSim {
            disk: DiskModel {
                contiguous_bytes: 1024,
                ..Default::default()
            },
            cpu: CpuModel::default(),
        };
        let mut layouts = vec![MeasuredVolumeParams::from_pool(&cdc_pool(), "img").expect("file")];
        // 128 KiB records are larger than a cluster: never admitted.
        for (bs, n) in [(4096usize, 64u64), (128 * 1024, 16)] {
            let mut pool = interleaved_pool(bs, n);
            layouts.push(MeasuredVolumeParams::from_pool(&pool, "b").expect("file"));
            pool.reverse_dedup_pass("b").expect("file");
            layouts.push(MeasuredVolumeParams::from_pool(&pool, "b").expect("file"));
            layouts.push(MeasuredVolumeParams::from_pool(&pool, "a").expect("file"));
        }
        let span = 2 << 20;
        // 24 KiB records at scattered extents: every third straddles a
        // cluster boundary, so the next cluster finds it in the ARC.
        let straddling = (0..span / (24 << 10))
            .map(|r| RecordLoc {
                logical_off: r * (24 << 10),
                llen: 24 << 10,
                phys: mix(r, 0x5eed) % (1 << 30),
                psize: 10_000,
            })
            .collect();
        layouts.push(MeasuredVolumeParams {
            layout: straddling,
            ..layouts[0].clone()
        });
        let traces = [
            seq_trace(span),
            paper_shape_trace(span, 7),
            random_trace(400, span, 8),
        ];
        let mut seen = [false; 3];
        for layout in &layouts {
            for cap in [1usize, 64, 2048, 100_000] {
                let p = MeasuredVolumeParams {
                    decompressed_cache_records: cap,
                    ..layout.clone()
                };
                let repriced = MeasuredVolumeParams {
                    ddt_entries: 7,
                    decompress_ns_per_byte: 40.0,
                    ..p.clone()
                };
                for t in &traces {
                    let plan = sim.plan_layout(t, &p);
                    note_touches(&plan, &mut seen);
                    for p in [&p, &repriced] {
                        let expected = bits(&reference::boot_measured(&sim, t, p));
                        let priced = sim.price_records(&plan, p.ddt_entries, p);
                        assert_eq!(
                            bits(&priced),
                            expected,
                            "cap {cap}, {} records, {} ops",
                            p.layout.len(),
                            t.ops.len()
                        );
                        assert_eq!(bits(&sim.boot_measured(t, p)), expected);
                    }
                }
            }
        }
        assert_eq!(
            seen, [true; 3],
            "ARC hits, raw-resident and fetched records"
        );
    }

    /// With nothing shared, the statistical volume writes its records in
    /// one compact run: a measured layout of the same fixed records at
    /// `phys = r × psize` must replay identically, because the two record
    /// sources differ only in where records sit.
    #[test]
    fn compact_layout_replays_like_the_statistical_volume() {
        let sim = BootSim::new();
        let span = 8 << 20;
        let traces = [seq_trace(span), paper_shape_trace(span, 9)];
        for kib in [4u64, 16, 64, 128] {
            for cap in [1usize, 64, 2048] {
                let stat = DedupVolumeParams {
                    shared_fraction: 0.0,
                    hot_fraction: 0.0,
                    decompressed_cache_records: cap,
                    ..params(kib * 1024)
                };
                let rs = stat.record_size;
                let psize = (rs as f64 * stat.compressed_fraction).max(1.0) as u64;
                let layout = (0..span / rs)
                    .map(|r| RecordLoc {
                        logical_off: r * rs,
                        llen: rs as u32,
                        phys: r * psize,
                        psize: psize as u32,
                    })
                    .collect();
                let measured = MeasuredVolumeParams {
                    layout,
                    ddt_entries: stat.ddt_entries,
                    decompress_ns_per_byte: stat.decompress_ns_per_byte,
                    decompressed_cache_records: cap,
                };
                for t in &traces {
                    assert_eq!(
                        bits(&sim.boot_measured(t, &measured)),
                        bits(&sim.boot(t, &Backend::DedupVolume(stat))),
                        "{kib} KiB records, cap {cap}, {} ops",
                        t.ops.len()
                    );
                }
            }
        }
    }
}
