//! The replay this crate shipped before dense per-boot state: SipHash sets
//! for the page cache, raw residency and the decompressed ARC, and
//! `read_record`'s per-boot constants recomputed per record. Kept as the
//! reference [`BootSim::boot`] and [`BootSim::boot_measured`] must equal bit
//! for bit.

use super::{coin, mix, spread_offset, Backend, BootReport, BootSim, DedupVolumeParams};
use super::{MeasuredVolumeParams, QCOW2_CLUSTER};
use squirrel_dataset::BootTrace;
use std::collections::{HashSet, VecDeque};

struct PageCache {
    granule: u64,
    cached: HashSet<u64>,
}

impl PageCache {
    fn new(granule: u64) -> Self {
        assert!(granule.is_power_of_two());
        PageCache {
            granule,
            cached: HashSet::new(),
        }
    }

    fn contains(&self, offset: u64, len: u64) -> bool {
        let first = offset / self.granule;
        let last = (offset + len.max(1) - 1) / self.granule;
        (first..=last).all(|g| self.cached.contains(&g))
    }

    fn insert(&mut self, offset: u64, len: u64) {
        let first = offset / self.granule;
        let last = (offset + len.max(1) - 1) / self.granule;
        for g in first..=last {
            self.cached.insert(g);
        }
    }
}

struct DedupState {
    raw_resident: PageCache,
    lru: VecDeque<u64>,
    lru_set: HashSet<u64>,
    lru_cap: usize,
}

impl DedupState {
    fn new(backend: &Backend) -> Self {
        let (granule, cap) = match backend {
            Backend::DedupVolume(p) => (p.record_size, p.decompressed_cache_records),
            _ => (QCOW2_CLUSTER, 1),
        };
        DedupState {
            raw_resident: PageCache::new(granule.next_power_of_two()),
            lru: Default::default(),
            lru_set: Default::default(),
            lru_cap: cap.max(1),
        }
    }

    fn decompressed_lru_insert(&mut self, rec: u64) {
        if self.lru_set.insert(rec) {
            self.lru.push_back(rec);
            if self.lru.len() > self.lru_cap {
                if let Some(old) = self.lru.pop_front() {
                    self.lru_set.remove(&old);
                }
            }
        }
    }
}

pub(super) fn boot(sim: &BootSim, trace: &BootTrace, backend: &Backend) -> BootReport {
    let mut report = BootReport::default();
    let mut page_cache = PageCache::new(QCOW2_CLUSTER);
    let mut head = 0u64;
    let mut zstate = DedupState::new(backend);
    for op in &trace.ops {
        let first = op.offset / QCOW2_CLUSTER;
        let last = (op.offset + op.len.max(1) as u64 - 1) / QCOW2_CLUSTER;
        for cluster in first..=last {
            let coff = cluster * QCOW2_CLUSTER;
            if page_cache.contains(coff, QCOW2_CLUSTER) {
                continue;
            }
            read_cluster(sim, backend, coff, &mut head, &mut zstate, &mut report);
            page_cache.insert(coff, QCOW2_CLUSTER);
        }
    }
    report.total_seconds = sim.cpu.os_boot_seconds + report.io_seconds;
    report
}

fn read_cluster(
    sim: &BootSim,
    backend: &Backend,
    coff: u64,
    head: &mut u64,
    zstate: &mut DedupState,
    report: &mut BootReport,
) {
    match backend {
        Backend::WarmCacheXfs => {
            report.io_seconds += sim.disk.read_seconds(*head, coff, QCOW2_CLUSTER);
            *head = coff + QCOW2_CLUSTER;
            report.disk_reads += 1;
            report.disk_bytes += QCOW2_CLUSTER;
        }
        Backend::BaseImageXfs { image_bytes } => {
            let phys = spread_offset(coff, *image_bytes);
            report.io_seconds += sim.disk.read_seconds(*head, phys, QCOW2_CLUSTER);
            *head = phys + QCOW2_CLUSTER;
            report.disk_reads += 1;
            report.disk_bytes += QCOW2_CLUSTER;
        }
        Backend::ColdCache {
            net_mbps,
            image_bytes,
        } => {
            let phys = spread_offset(coff, *image_bytes);
            report.io_seconds += sim.disk.read_seconds(*head, phys, QCOW2_CLUSTER);
            *head = phys + QCOW2_CLUSTER;
            report.io_seconds += QCOW2_CLUSTER as f64 / (net_mbps * 1e6);
            report.io_seconds += 0.5 * QCOW2_CLUSTER as f64 / (sim.disk.seq_mbps * 1e6);
            report.disk_reads += 1;
            report.disk_bytes += QCOW2_CLUSTER;
            report.net_bytes += QCOW2_CLUSTER;
        }
        Backend::DedupVolume(p) => {
            let first = coff / p.record_size;
            let last = (coff + QCOW2_CLUSTER - 1) / p.record_size;
            for rec in first..=last {
                read_record(sim, p, rec, head, zstate, report);
            }
        }
    }
}

fn read_record(
    sim: &BootSim,
    p: &DedupVolumeParams,
    rec: u64,
    head: &mut u64,
    z: &mut DedupState,
    report: &mut BootReport,
) {
    report.ddt_lookups += 1;
    report.io_seconds += sim.cpu.ddt_lookup_seconds(p.ddt_entries);
    if z.lru_set.contains(&rec) {
        return;
    }
    let psize = (p.record_size as f64 * p.compressed_fraction).max(1.0) as u64;
    if !z.raw_resident.contains(rec * p.record_size, 1) {
        let shared = coin(rec, 0x5a5a) < p.shared_fraction;
        let hot = coin(rec, 0xa0a0) < p.hot_fraction;
        if !(shared && hot) {
            let phys = if shared {
                mix(rec, 0x11) % p.pool_physical_bytes.max(1)
            } else {
                rec * psize
            };
            report.io_seconds += sim.disk.read_seconds(*head, phys, psize);
            *head = phys + psize;
            report.disk_reads += 1;
            report.disk_bytes += psize;
        }
        z.raw_resident.insert(rec * p.record_size, p.record_size);
    }
    report.io_seconds += p.record_size as f64 * p.decompress_ns_per_byte / 1e9;
    report.decompressed_bytes += p.record_size;
    if p.record_size <= QCOW2_CLUSTER {
        z.decompressed_lru_insert(rec);
    }
}

pub(super) fn boot_measured(
    sim: &BootSim,
    trace: &BootTrace,
    p: &MeasuredVolumeParams,
) -> BootReport {
    let mut report = BootReport::default();
    let mut page_cache = PageCache::new(QCOW2_CLUSTER);
    let mut head = 0u64;
    let mut raw_resident: HashSet<usize> = Default::default();
    let mut lru: VecDeque<usize> = Default::default();
    let mut lru_set: HashSet<usize> = Default::default();
    let lru_cap = p.decompressed_cache_records.max(1);
    for op in &trace.ops {
        let first = op.offset / QCOW2_CLUSTER;
        let last = (op.offset + op.len.max(1) as u64 - 1) / QCOW2_CLUSTER;
        for cluster in first..=last {
            let coff = cluster * QCOW2_CLUSTER;
            if page_cache.contains(coff, QCOW2_CLUSTER) {
                continue;
            }
            let cend = coff + QCOW2_CLUSTER;
            let mut i = p
                .layout
                .partition_point(|r| r.logical_off + r.llen as u64 <= coff);
            while i < p.layout.len() && p.layout[i].logical_off < cend {
                let rec = &p.layout[i];
                report.ddt_lookups += 1;
                report.io_seconds += sim.cpu.ddt_lookup_seconds(p.ddt_entries);
                if !lru_set.contains(&i) {
                    if raw_resident.insert(i) {
                        report.io_seconds +=
                            sim.disk.read_seconds(head, rec.phys, rec.psize as u64);
                        head = rec.phys + rec.psize as u64;
                        report.disk_reads += 1;
                        report.disk_bytes += rec.psize as u64;
                    }
                    report.io_seconds += rec.llen as f64 * p.decompress_ns_per_byte / 1e9;
                    report.decompressed_bytes += rec.llen as u64;
                    if (rec.llen as u64) <= QCOW2_CLUSTER && lru_set.insert(i) {
                        lru.push_back(i);
                        if lru.len() > lru_cap {
                            if let Some(old) = lru.pop_front() {
                                lru_set.remove(&old);
                            }
                        }
                    }
                }
                i += 1;
            }
            page_cache.insert(coff, QCOW2_CLUSTER);
        }
    }
    report.total_seconds = sim.cpu.os_boot_seconds + report.io_seconds;
    report
}
