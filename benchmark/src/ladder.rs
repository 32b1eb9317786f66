//! The per-layer ladder: direct calls into every layer on the traced
//! workload's own generated inputs, each inside a benchmark-side span.
//!
//! The facade workloads enter the system through one `core` call, so a span
//! around that call says nothing about the layers below it. The ladder climbs
//! down instead: it calls each lower layer the way the facade does — same
//! corpus, same record size, same codec, same node count — and times the
//! call from here. A layer's share of an end-to-end number is then
//! (ladder time per call × calls the workload makes) / untraced median wall.
//! Nothing inside the crates is instrumented; the only crate-side numbers
//! read are the already-public `squirrel-obs` counters and `wall_times()`.

use crate::calib;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{cache_name, materialize, CODEC};
use squirrel_bootsim::{Backend, BootSim, DedupVolumeParams};
use squirrel_cluster::{GlusterConfig, GlusterVolume, LinkKind, Network};
use squirrel_compress::{decompress, Compressor};
use squirrel_core::{
    paper_scale_trace, DistributionPolicy, EventQueue, HoardBudget, Squirrel, SquirrelConfig,
};
use squirrel_dataset::rng::SplitMix64;
use squirrel_dataset::{Corpus, ImageId};
use squirrel_hash::cdc::{chunk_boundaries, CdcParams};
use squirrel_hash::par::WorkerPool;
use squirrel_hash::{is_zero_block, ContentHash};
use squirrel_obs::MetricsRegistry;
use squirrel_qcow::{CorCache, MemDisk, VirtualDisk};
use squirrel_zfs::{PoolConfig, SendStream, ZPool};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The traced workload's inputs, handed to every rung.
pub struct LadderInput {
    pub corpus: Arc<Corpus>,
    /// The images the workload touches, in the order it presents them.
    pub images: Vec<ImageId>,
    pub block_size: usize,
    pub nodes: u32,
    pub threads: usize,
    pub distribution: DistributionPolicy,
    pub budget: HoardBudget,
}

type PerImage = BTreeMap<ImageId, f64>;

/// Host seconds per call, for the workloads' share arithmetic, plus the
/// per-layer metrics the ladder measured itself.
#[derive(Default)]
pub struct LadderCosts {
    /// Copy-on-read capture of the boot working set (materialise + CoR).
    pub capture_s: PerImage,
    pub import_s: PerImage,
    pub snapshot_s: PerImage,
    /// `send_latest` + `encode_framed` + `decode_framed`.
    pub send_s: PerImage,
    pub recv_s: PerImage,
    /// `file_is_intact` on the image's cache file.
    pub verify_s: PerImage,
    pub bootsim_warm_s: PerImage,
    pub bootsim_cold_s: PerImage,
    pub trace_gen_s: PerImage,
    pub unicast_s: f64,
    pub plan_fanout_s: f64,
    pub rejoin_s: f64,
    pub gc_s: f64,
    pub budget_s: f64,
    pub scrub_repair_s: f64,
    pub register_per_node_s: f64,
    pub warm_boot_s: f64,
    pub cold_boot_s: f64,
    pub corpus_generate_s: f64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// `f` inside a span, and the calibrated seconds it took.
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    bytes: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let r = tracer.call(name, layer, bytes, f);
    let s = t.elapsed().as_secs_f64();
    (r, s * calib::recent_speed())
}

fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-12)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    sum / f64::from(n.max(1))
}

pub fn run(input: &LadderInput, tracer: &mut Tracer, quick: bool) -> Result<LadderCosts, String> {
    let mut costs = LadderCosts::default();
    tracer.open("ladder", "bench");
    let blocks = dataset_rung(input, tracer, &mut costs);
    hash_and_compress_rungs(input, tracer, &blocks, &mut costs);
    qcow_rung(input, tracer, &blocks, &mut costs);
    zfs_rung(input, tracer, &blocks, &mut costs)?;
    drop(blocks);
    bootsim_rung(input, tracer, &mut costs);
    cluster_rung(input, tracer, &mut costs)?;
    core_rung(input, tracer, quick, &mut costs)?;
    obs_overhead_rung(input, tracer, quick, &mut costs)?;
    tracer.close();
    Ok(costs)
}

type Blocks = BTreeMap<ImageId, Vec<(u64, Vec<u8>)>>;

/// `dataset`: corpus generation and cache-block materialisation.
fn dataset_rung(input: &LadderInput, tracer: &mut Tracer, costs: &mut LadderCosts) -> Blocks {
    let cfg = input.corpus.config().clone();
    tracer.next_request();
    let (_, gen_s) = timed(tracer, "dataset.corpus_generate", "dataset", 0, || {
        black_box(Corpus::generate(cfg));
    });
    costs.corpus_generate_s = gen_s;
    let mut blocks = Blocks::new();
    let (mut bytes, mut secs) = (0u64, 0.0);
    for &image in &input.images {
        let view = input.corpus.image(image).cache();
        let n = view.blocks_count(input.block_size) * input.block_size as u64;
        let (b, s) = timed(tracer, "dataset.materialize", "dataset", n, || {
            materialize(&input.corpus, image, input.block_size)
        });
        costs.capture_s.insert(image, s);
        bytes += n;
        secs += s;
        blocks.insert(image, b);
    }
    costs.metrics.insert("dataset.corpus_generate_s", gen_s);
    costs
        .metrics
        .insert("dataset.materialize_mb_per_s", mb_per_s(bytes, secs));
    blocks
}

/// `hash` over every block the workload presents; `compress` over the
/// unique ones, which are all a dedup pool ever compresses.
fn hash_and_compress_rungs(
    input: &LadderInput,
    tracer: &mut Tracer,
    blocks: &Blocks,
    costs: &mut LadderCosts,
) {
    let cdc = CdcParams::with_average(input.block_size.next_power_of_two().max(1024));
    let compressor = Compressor::new(CODEC);
    let (mut bytes, mut sha_s, mut zero_s, mut cdc_s) = (0u64, 0.0, 0.0, 0.0);
    let (mut unique_in, mut unique_out, mut comp_s, mut decomp_s) = (0u64, 0u64, 0.0, 0.0);
    let mut seen: HashSet<ContentHash> = HashSet::new();
    for &image in &input.images {
        let image_blocks = &blocks[&image];
        let n: u64 = image_blocks.iter().map(|(_, b)| b.len() as u64).sum();
        bytes += n;
        tracer.next_request();
        let (hashes, s) = timed(tracer, "hash.sha256", "hash", n, || {
            image_blocks
                .iter()
                .map(|(_, b)| ContentHash::of(b))
                .collect::<Vec<_>>()
        });
        sha_s += s;
        zero_s += timed(tracer, "hash.zero_scan", "hash", n, || {
            black_box(
                image_blocks
                    .iter()
                    .filter(|(_, b)| is_zero_block(b))
                    .count(),
            );
        })
        .1;
        let flat: Vec<u8> = image_blocks
            .iter()
            .flat_map(|(_, b)| b.iter().copied())
            .collect();
        cdc_s += timed(tracer, "hash.cdc_scan", "hash", n, || {
            black_box(chunk_boundaries(&flat, &cdc));
        })
        .1;

        let fresh: Vec<&Vec<u8>> = image_blocks
            .iter()
            .zip(hashes)
            .filter(|((_, b), h)| !is_zero_block(b) && seen.insert(*h))
            .map(|((_, b), _)| b)
            .collect();
        let fresh_bytes: u64 = fresh.iter().map(|b| b.len() as u64).sum();
        let (frames, s) = timed(tracer, "compress.compress", "compress", fresh_bytes, || {
            fresh
                .iter()
                .map(|b| compressor.compress(b))
                .collect::<Vec<_>>()
        });
        comp_s += s;
        unique_in += fresh_bytes;
        unique_out += frames.iter().map(|f| f.len() as u64).sum::<u64>();
        decomp_s += timed(
            tracer,
            "compress.decompress",
            "compress",
            fresh_bytes,
            || {
                for (frame, b) in frames.iter().zip(&fresh) {
                    black_box(decompress(frame, b.len()));
                }
            },
        )
        .1;
    }
    let m = &mut costs.metrics;
    m.insert("hash.sha256_mb_per_s", mb_per_s(bytes, sha_s));
    m.insert("hash.sha256_busy_s", sha_s);
    m.insert("hash.bytes", bytes as f64);
    m.insert("hash.zero_scan_mb_per_s", mb_per_s(bytes, zero_s));
    m.insert("hash.cdc_scan_mb_per_s", mb_per_s(bytes, cdc_s));
    m.insert("compress.compress_mb_per_s", mb_per_s(unique_in, comp_s));
    m.insert("compress.compress_busy_s", comp_s);
    m.insert(
        "compress.decompress_mb_per_s",
        mb_per_s(unique_in, decomp_s),
    );
    m.insert("compress.decompress_busy_s", decomp_s);
    m.insert(
        "compress.ratio",
        unique_out as f64 / unique_in.max(1) as f64,
    );
    m.insert("compress.bytes_in", unique_in as f64);
}

/// `qcow`: the registration's first boot — the boot trace read through a
/// copy-on-read cache over an in-memory disk.
fn qcow_rung(input: &LadderInput, tracer: &mut Tracer, blocks: &Blocks, costs: &mut LadderCosts) {
    let registry = MetricsRegistry::new();
    let (mut bytes, mut secs) = (0u64, 0.0);
    for &image in &input.images {
        let flat: Vec<u8> = blocks[&image]
            .iter()
            .flat_map(|(_, b)| b.iter().copied())
            .collect();
        let trace = input.corpus.image(image).cache().boot_trace();
        let mut cor = CorCache::new(MemDisk::new(flat), input.block_size);
        cor.set_metrics(&registry.handle());
        tracer.next_request();
        let (_, s) = timed(
            tracer,
            "qcow.cor_capture",
            "qcow",
            trace.total_bytes(),
            || {
                let mut buf = Vec::new();
                for op in &trace.ops {
                    buf.resize(op.len as usize, 0);
                    cor.read_at(op.offset, &mut buf);
                }
            },
        );
        *costs.capture_s.entry(image).or_insert(0.0) += s;
        bytes += cor.cached_bytes();
        secs += s;
    }
    let snap = registry.snapshot();
    let m = &mut costs.metrics;
    m.insert("qcow.cor_capture_mb_per_s", mb_per_s(bytes, secs));
    m.insert("qcow.cor_fills", snap.counter_sum("cor_fills_total") as f64);
    m.insert(
        "qcow.cor_fill_bytes",
        snap.counter_sum("cor_fill_bytes_total") as f64,
    );
}

/// `zfs`: the scVolume → ccVolume pipeline, then the read side of the
/// receiving pool.
fn zfs_rung(
    input: &LadderInput,
    tracer: &mut Tracer,
    blocks: &Blocks,
    costs: &mut LadderCosts,
) -> Result<(), String> {
    let config = PoolConfig::builder()
        .block_size(input.block_size)
        .codec(CODEC)
        .threads(input.threads)
        .build();
    let registry = MetricsRegistry::new();
    let mut sc = ZPool::new(config);
    sc.set_metrics(&registry.handle());
    let mut cc = ZPool::new(config);
    let (mut logical, mut wire_total) = (0u64, 0u64);
    let (mut send_s, mut encode_s, mut decode_s) = (0.0, 0.0, 0.0);
    for &image in &input.images {
        let image_blocks = &blocks[&image];
        let name = cache_name(image);
        let n = (image_blocks.len() * input.block_size) as u64;
        logical += n;
        tracer.next_request();
        let (_, s) = timed(tracer, "zfs.import", "zfs", n, || {
            sc.import_blocks_parallel(&name, image_blocks)
        });
        costs.import_s.insert(image, s);
        let (_, s) = timed(tracer, "zfs.snapshot", "zfs", 0, || {
            sc.snapshot(&format!("reg-{image:06}"))
        });
        costs.snapshot_s.insert(image, s);
        let (stream, send) = timed(tracer, "zfs.send", "zfs", 0, || sc.send_latest());
        let stream = stream.map_err(|e| format!("ladder send {name}: {e}"))?;
        let (wire, enc) = timed(tracer, "zfs.encode", "zfs", stream.wire_bytes(), || {
            stream.encode_framed()
        });
        let (decoded, dec) = timed(tracer, "zfs.decode", "zfs", wire.len() as u64, || {
            SendStream::decode_framed(&wire)
        });
        let decoded = decoded.map_err(|e| format!("ladder decode {name}: {e}"))?;
        costs.send_s.insert(image, send + enc + dec);
        send_s += send;
        encode_s += enc;
        decode_s += dec;
        wire_total += wire.len() as u64;
        let (r, s) = timed(tracer, "zfs.recv", "zfs", wire.len() as u64, || {
            cc.recv(&decoded)
        });
        r.map_err(|e| format!("ladder recv {name}: {e}"))?;
        costs.recv_s.insert(image, s);
    }

    let mut verified = 0u64;
    for &image in &input.images {
        let name = cache_name(image);
        let len = cc.file_len(&name).unwrap_or(0);
        tracer.next_request();
        let (intact, s) = timed(tracer, "zfs.verify", "zfs", len, || {
            cc.file_is_intact(&name)
        });
        if intact != Some(true) {
            return Err(format!("ladder: {name} is not intact on the ccVolume"));
        }
        costs.verify_s.insert(image, s);
        verified += len;
    }
    let (mut reads, mut read_s) = (0u64, 0.0);
    for &image in input.images.iter().take(8) {
        let name = cache_name(image);
        let n_blocks = blocks[&image].len() as u64;
        tracer.next_request();
        read_s += timed(
            tracer,
            "zfs.read_block",
            "zfs",
            n_blocks * input.block_size as u64,
            || {
                for idx in 0..n_blocks {
                    black_box(cc.read_block_shared(&name, idx));
                }
            },
        )
        .1;
        reads += n_blocks;
    }
    tracer.next_request();
    let (scrub, scrub_s) = timed(tracer, "zfs.scrub", "zfs", 0, || cc.scrub());
    if !scrub.is_clean() {
        return Err("ladder: ccVolume scrub found corrupt records".into());
    }
    const STATS_CALLS: u32 = 100;
    let (_, stats_s) = timed(tracer, "zfs.stats", "zfs", 0, || {
        for _ in 0..STATS_CALLS {
            black_box(cc.stats());
        }
    });
    let tags: Vec<String> = sc.snapshot_tags().iter().map(|t| t.to_string()).collect();
    let doomed = &tags[..tags.len().saturating_sub(1)];
    let (_, destroy_s) = timed(tracer, "zfs.destroy_snapshot", "zfs", 0, || {
        for tag in doomed {
            sc.destroy_snapshot(tag);
        }
    });

    let n = input.images.len() as f64;
    let total = |m: &PerImage| m.values().sum::<f64>();
    let stats = cc.stats();
    let snap = registry.snapshot();
    let walls: BTreeMap<String, f64> = registry
        .wall_times()
        .into_iter()
        .map(|(k, w)| (k, w.total_nanos as f64 / 1e9))
        .collect();
    let stage = |name: &str| walls.get(name).copied().unwrap_or(0.0);
    let (hits, misses) = (
        snap.counter_sum("zpool_ddt_hits_total"),
        snap.counter_sum("zpool_ddt_misses_total"),
    );
    let recv_s = total(&costs.recv_s);
    let verify_s = total(&costs.verify_s);
    let m = &mut costs.metrics;
    m.insert(
        "zfs.import_mb_per_s",
        mb_per_s(logical, total(&costs.import_s)),
    );
    m.insert("zfs.import_busy_s", total(&costs.import_s));
    m.insert("zfs.ingest_prepare_s", stage("zpool_ingest_prepare"));
    m.insert("zfs.ingest_probe_s", stage("zpool_ingest_probe"));
    m.insert("zfs.ingest_compress_s", stage("zpool_ingest_compress"));
    m.insert("zfs.ingest_commit_s", stage("zpool_ingest_commit"));
    m.insert(
        "zfs.ddt_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert(
        "zfs.zero_block_ratio",
        snap.counter_sum("zpool_zero_blocks_total") as f64
            / snap.counter_sum("zpool_ingest_blocks_total").max(1) as f64,
    );
    m.insert("zfs.unique_blocks", stats.unique_blocks as f64);
    m.insert("zfs.physical_bytes", stats.physical_bytes as f64);
    m.insert("zfs.snapshot_us", total(&costs.snapshot_s) / n * 1e6);
    m.insert("zfs.send_us_per_stream", send_s / n * 1e6);
    m.insert("zfs.encode_mb_per_s", mb_per_s(wire_total, encode_s));
    m.insert("zfs.decode_mb_per_s", mb_per_s(wire_total, decode_s));
    m.insert("zfs.recv_us_per_stream", recv_s / n * 1e6);
    m.insert("zfs.recv_wire_mb_per_s", mb_per_s(wire_total, recv_s));
    m.insert("zfs.verify_us_per_file", verify_s / n * 1e6);
    m.insert("zfs.verify_mb_per_s", mb_per_s(verified, verify_s));
    m.insert("zfs.read_block_us", read_s / reads.max(1) as f64 * 1e6);
    m.insert(
        "zfs.scrub_mb_per_s",
        mb_per_s(scrub.bytes_verified, scrub_s),
    );
    m.insert("zfs.stats_us", stats_s / f64::from(STATS_CALLS) * 1e6);
    m.insert(
        "zfs.destroy_snapshot_us",
        destroy_s / doomed.len().max(1) as f64 * 1e6,
    );
    Ok(())
}

/// `bootsim`: the paper-scale trace replay behind every boot.
fn bootsim_rung(input: &LadderInput, tracer: &mut Tracer, costs: &mut LadderCosts) {
    let sim = BootSim::new();
    let scale = input.corpus.config().scale;
    let warm = Backend::DedupVolume(DedupVolumeParams::new(input.block_size as u64));
    let mut ops = 0u64;
    let mut first_trace = None;
    for &image in &input.images {
        let handle = input.corpus.image(image);
        let cold = Backend::ColdCache {
            net_mbps: LinkKind::GbE.mbps(),
            image_bytes: handle.virtual_bytes() * scale,
        };
        tracer.next_request();
        let (trace, s) = timed(tracer, "core.trace_gen", "core", 0, || {
            paper_scale_trace(handle.cache().bytes() * scale, u64::from(image))
        });
        costs.trace_gen_s.insert(image, s);
        ops += trace.ops.len() as u64;
        let (_, s) = timed(tracer, "bootsim.warm_boot", "bootsim", 0, || {
            black_box(sim.boot(&trace, &warm));
        });
        costs.bootsim_warm_s.insert(image, s);
        let (_, s) = timed(tracer, "bootsim.cold_boot", "bootsim", 0, || {
            black_box(sim.boot(&trace, &cold));
        });
        costs.bootsim_cold_s.insert(image, s);
        first_trace.get_or_insert(trace);
    }
    let traces = vec![first_trace.expect("ladder has images"); 64];
    let workers = WorkerPool::new(input.threads);
    tracer.next_request();
    let (_, storm_s) = timed(tracer, "bootsim.storm_adjust", "bootsim", 0, || {
        black_box(sim.boot_concurrent_on(&traces, &warm, &workers));
    });
    let warm_total: f64 = costs.bootsim_warm_s.values().sum();
    let m = &mut costs.metrics;
    m.insert(
        "bootsim.warm_boot_us",
        mean(costs.bootsim_warm_s.values().copied()) * 1e6,
    );
    m.insert(
        "bootsim.cold_boot_us",
        mean(costs.bootsim_cold_s.values().copied()) * 1e6,
    );
    m.insert(
        "bootsim.trace_ops_per_s",
        ops as f64 / warm_total.max(1e-12),
    );
    m.insert("bootsim.storm_adjust_us", storm_s * 1e6);
    m.insert(
        "core.trace_gen_us",
        mean(costs.trace_gen_s.values().copied()) * 1e6,
    );
}

/// `cluster`: the network ledger and the parallel file system, per call.
fn cluster_rung(
    input: &LadderInput,
    tracer: &mut Tracer,
    costs: &mut LadderCosts,
) -> Result<(), String> {
    const UNICASTS: u32 = 10_000;
    const PIPELINES: u32 = 200;
    const READS: u32 = 2_000;
    let mut net = Network::new(LinkKind::GbE, input.nodes, 4);
    let compute: Vec<u32> = net.compute_nodes().collect();
    let storage: Vec<u32> = net.storage_nodes().collect();
    tracer.next_request();
    let (r, unicast_s) = timed(tracer, "cluster.unicast", "cluster", 0, || {
        (0..UNICASTS).try_for_each(|i| {
            net.try_unicast(storage[0], compute[i as usize % compute.len()], 1 << 20)
                .map(drop)
        })
    });
    r.map_err(|e| format!("ladder unicast: {e}"))?;
    let (r, pipeline_s) = timed(tracer, "cluster.pipeline", "cluster", 0, || {
        (0..PIPELINES).try_for_each(|_| net.try_pipeline(storage[0], &compute, 1 << 20).map(drop))
    });
    r.map_err(|e| format!("ladder pipeline: {e}"))?;
    let gluster = GlusterVolume::new(GlusterConfig::default(), storage.clone());
    let (r, read_s) = timed(tracer, "cluster.gluster_read", "cluster", 0, || {
        (0..READS).try_for_each(|i| {
            gluster
                .try_read(&mut net, compute[i as usize % compute.len()], 0, 1 << 20)
                .map(drop)
        })
    });
    r.map_err(|e| format!("ladder gluster read: {e}"))?;
    costs.unicast_s = unicast_s / f64::from(UNICASTS);
    let m = &mut costs.metrics;
    m.insert("cluster.unicast_us", costs.unicast_s * 1e6);
    m.insert(
        "cluster.pipeline_us_per_leg",
        pipeline_s / f64::from(PIPELINES) / compute.len() as f64 * 1e6,
    );
    m.insert("cluster.gluster_read_us", read_s / f64::from(READS) * 1e6);
    Ok(())
}

fn system(input: &LadderInput, nodes: u32, metrics: bool) -> Squirrel {
    let config = SquirrelConfig::builder()
        .block_size(input.block_size)
        .codec(CODEC)
        .compute_nodes(nodes)
        .storage_nodes(4)
        .threads(input.threads)
        .metrics(metrics)
        .hoard_budget(input.budget)
        .distribution(input.distribution)
        .build();
    Squirrel::new(config, Arc::clone(&input.corpus))
}

/// Σtx, Σrx and their difference over every node's ledger.
pub fn ledger_metrics(net: &Network) -> [(&'static str, f64); 4] {
    let (tx, rx) = (0..net.node_count() as u32).fold((0u64, 0u64), |(tx, rx), n| {
        let l = net.ledger(n);
        (tx + l.tx_bytes, rx + l.rx_bytes)
    });
    [
        ("cluster.storage_tx_bytes", net.storage_tx_total() as f64),
        ("cluster.peer_tx_bytes", net.compute_tx_total() as f64),
        ("cluster.rx_bytes", rx as f64),
        ("cluster.ledger_imbalance_bytes", tx as f64 - rx as f64),
    ]
}

/// `core`: every facade workflow on a same-configuration `Squirrel`, per
/// call — what `fleet_day`'s events and the other workloads' calls cost.
fn core_rung(
    input: &LadderInput,
    tracer: &mut Tracer,
    quick: bool,
    costs: &mut LadderCosts,
) -> Result<(), String> {
    let images: Vec<ImageId> = input.images.iter().copied().take(8).collect();
    let (late, early) = images.split_last().expect("ladder has images");
    let nodes = input.nodes;
    let mut sq = system(input, nodes, true);
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("ladder {what}: {e}");

    // register: all but one image now, the last while some nodes are away.
    let (mut reg_s, mut updated) = (Vec::new(), 0u64);
    let first_round = if early.is_empty() { &images[..] } else { early };
    for &image in first_round {
        tracer.next_request();
        let (r, s) = timed(tracer, "core.register", "core", 0, || sq.register(image));
        updated += u64::from(r.map_err(|e| fail("register", &e))?.nodes_updated);
        reg_s.push(s);
    }
    costs.register_per_node_s = reg_s.iter().sum::<f64>() / updated.max(1) as f64;

    const PLANS: u32 = 200;
    let targets: Vec<u32> = (0..nodes).collect();
    tracer.next_request();
    let (_, plan_s) = timed(tracer, "core.plan_fanout", "core", 0, || {
        for _ in 0..PLANS {
            black_box(sq.plan_fanout(&targets, 1 << 20));
        }
    });
    costs.plan_fanout_s = plan_s / f64::from(PLANS);

    // boot: warm on every (node, image) pair in turn, then cold after
    // evicting a cache per node.
    let n_warm = if quick { 24 } else { 200 };
    let mut warm_s = Vec::new();
    let mut split = None;
    for i in 0..n_warm {
        let (node, image) = (
            i % nodes,
            first_round[(i / nodes) as usize % first_round.len()],
        );
        tracer.next_request();
        let (o, s) = timed(tracer, "core.boot", "core", 0, || sq.boot(node, image));
        let o = o.map_err(|e| fail("warm boot", &e))?;
        if !o.warm {
            return Err(format!(
                "ladder: boot of image {image} on node {node} was not warm"
            ));
        }
        split.get_or_insert(o.report);
        warm_s.push(s);
    }
    let mut cold_s = Vec::new();
    for node in 0..nodes.min(32) {
        let image = first_round[node as usize % first_round.len()];
        if !sq
            .evict_cache(node, image)
            .map_err(|e| fail("evict", &e))?
            .was_cached
        {
            return Err(format!(
                "ladder: node {node} had no cache of image {image} to evict"
            ));
        }
        tracer.next_request();
        let (o, s) = timed(tracer, "core.cold_boot", "core", 0, || sq.boot(node, image));
        if o.map_err(|e| fail("cold boot", &e))?.warm {
            return Err(format!(
                "ladder: boot of evicted image {image} on node {node} was warm"
            ));
        }
        cold_s.push(s);
    }
    costs.warm_boot_s = mean(warm_s.iter().copied());
    costs.cold_boot_s = mean(cold_s.iter().copied());

    const STORMS: u32 = 3;
    let storm_image = first_round[first_round.len() - 1];
    let (mut storm_s, mut arc_hits, mut arc_misses) = (0.0, 0u64, 0u64);
    for _ in 0..STORMS {
        tracer.next_request();
        let (r, s) = timed(tracer, "core.boot_storm", "core", 0, || {
            sq.boot_storm(storm_image, 32)
        });
        let r = r.map_err(|e| fail("boot storm", &e))?;
        storm_s += s;
        arc_hits += r.arc.hits;
        arc_misses += r.arc.misses;
    }

    // membership: a few nodes leave, miss a registration, and catch up.
    let away: Vec<u32> = (0..nodes).rev().take(4.min(nodes as usize - 1)).collect();
    tracer.next_request();
    let (r, offline_s) = timed(tracer, "core.node_offline", "core", 0, || {
        away.iter().try_for_each(|&n| sq.node_offline(n))
    });
    r.map_err(|e| fail("node_offline", &e))?;
    if !early.is_empty() {
        tracer.next_request();
        let (r, s) = timed(tracer, "core.register", "core", 0, || sq.register(*late));
        r.map_err(|e| fail("register", &e))?;
        reg_s.push(s);
    }
    let mut rejoin_s = 0.0;
    for &n in &away {
        tracer.next_request();
        let (r, s) = timed(tracer, "core.rejoin", "core", 0, || sq.node_rejoin(n));
        r.map_err(|e| fail("rejoin", &e))?;
        rejoin_s += s;
    }
    costs.rejoin_s = rejoin_s / away.len().max(1) as f64;

    // cadences: GC past the window, scrub-and-repair of a rotten block per
    // node, the replication check, budget enforcement.
    sq.advance_days(8);
    tracer.next_request();
    costs.gc_s = timed(tracer, "core.gc", "core", 0, || black_box(sq.gc())).1;
    let sick: Vec<u32> = (0..nodes.min(4)).collect();
    let mut repair_s = 0.0;
    for &n in &sick {
        sq.corrupt_cc_block(n, u64::from(n));
        tracer.next_request();
        let (r, s) = timed(tracer, "core.scrub_repair", "core", 0, || {
            sq.scrub_and_repair(n)
        });
        if !r.map_err(|e| fail("scrub_and_repair", &e))?.is_healed() {
            return Err(format!("ladder: scrub_and_repair left node {n} unhealed"));
        }
        repair_s += s;
    }
    costs.scrub_repair_s = repair_s / sick.len() as f64;
    const CHECKS: u32 = 5;
    tracer.next_request();
    let (_, check_s) = timed(tracer, "core.check_replication", "core", 0, || {
        for _ in 0..CHECKS {
            drop(black_box(sq.check_replication()));
        }
    });
    tracer.next_request();
    costs.budget_s = timed(tracer, "core.enforce_budget", "core", 0, || {
        black_box(sq.enforce_hoard_budgets())
    })
    .1;

    // sched: the event queue under `run_fleet`, push then pop.
    const EVENTS: u32 = 200_000;
    let mut rng = SplitMix64::new(0x5c4ed);
    tracer.next_request();
    let (_, sched_s) = timed(tracer, "core.sched", "core", 0, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..EVENTS {
            q.push(rng.below(86_400_000), i);
        }
        while let Some(e) = q.pop() {
            black_box(e.event);
        }
    });

    // obs: what reading the registry costs, and how much it holds.
    const SNAPSHOTS: u32 = 3;
    tracer.next_request();
    let (snap, snap_s) = timed(tracer, "obs.snapshot", "obs", 0, || {
        (1..SNAPSHOTS).for_each(|_| drop(black_box(sq.metrics().snapshot())));
        sq.metrics().snapshot()
    });

    let split = split.expect("ladder booted warm");
    let m = &mut costs.metrics;
    m.insert("core.register_ms_p50", median(&reg_s) * 1e3);
    m.insert("core.register_us_per_node", costs.register_per_node_s * 1e6);
    m.insert("core.plan_fanout_us", costs.plan_fanout_s * 1e6);
    m.insert("core.boot_us_p50", percentile(&warm_s, 50) * 1e6);
    m.insert("core.boot_us_p99", percentile(&warm_s, 99) * 1e6);
    m.insert("core.cold_boot_us_p50", percentile(&cold_s, 50) * 1e6);
    m.insert(
        "core.boot_storm_ms_per_call",
        storm_s / f64::from(STORMS) * 1e3,
    );
    m.insert(
        "core.warm_boot_ratio",
        warm_s.len() as f64 / (warm_s.len() + cold_s.len()) as f64,
    );
    m.insert("core.rejoin_ms_per_call", costs.rejoin_s * 1e3);
    m.insert(
        "core.node_offline_us",
        offline_s / away.len().max(1) as f64 * 1e6,
    );
    m.insert("core.gc_ms_per_call", costs.gc_s * 1e3);
    m.insert("core.enforce_budget_ms_per_call", costs.budget_s * 1e3);
    m.insert("core.scrub_repair_ms_per_node", costs.scrub_repair_s * 1e3);
    m.insert(
        "core.check_replication_ms",
        check_s / f64::from(CHECKS) * 1e3,
    );
    m.insert(
        "core.sched_events_per_s",
        f64::from(EVENTS) / sched_s.max(1e-12),
    );
    m.insert(
        "zfs.arc_hit_ratio",
        arc_hits as f64 / (arc_hits + arc_misses).max(1) as f64,
    );
    m.insert(
        "bootsim.sim_io_share",
        split.io_seconds / split.total_seconds,
    );
    m.insert("bootsim.sim_disk_reads", split.disk_reads as f64);
    m.insert("bootsim.sim_ddt_lookups", split.ddt_lookups as f64);
    m.insert(
        "bootsim.sim_decompressed_mb",
        split.decompressed_bytes as f64 / 1e6,
    );
    m.insert("obs.snapshot_ms", snap_s / f64::from(SNAPSHOTS) * 1e3);
    m.insert(
        "obs.series",
        (snap.counters.len() + snap.gauges.len() + snap.histograms.len()) as f64,
    );
    m.insert("obs.journal_events_dropped", snap.events_dropped as f64);
    m.extend(ledger_metrics(sq.network()));
    Ok(())
}

/// `obs`: the same small register-then-boot sequence with the registry on
/// and off; the best of three runs each, so a stray stall does not read as
/// instrumentation cost.
fn obs_overhead_rung(
    input: &LadderInput,
    tracer: &mut Tracer,
    quick: bool,
    costs: &mut LadderCosts,
) -> Result<(), String> {
    let images: Vec<ImageId> = input.images.iter().copied().take(4).collect();
    let nodes = input.nodes.min(16);
    let boots = if quick { 16 } else { 96 };
    let mut best = [f64::INFINITY; 2];
    for round in 0..6 {
        let on = round % 2 == 0;
        let mut sq = system(input, nodes, on);
        let name = if on {
            "obs.sequence_on"
        } else {
            "obs.sequence_off"
        };
        tracer.next_request();
        let (r, s) = timed(tracer, name, "obs", 0, || -> Result<(), String> {
            for &image in &images {
                sq.register(image)
                    .map_err(|e| format!("ladder obs register: {e}"))?;
            }
            for i in 0..boots {
                sq.boot(i % nodes, images[(i / nodes) as usize % images.len()])
                    .map_err(|e| format!("ladder obs boot: {e}"))?;
            }
            Ok(())
        });
        r?;
        best[usize::from(on)] = best[usize::from(on)].min(s);
    }
    costs
        .metrics
        .insert("obs.overhead_share", best[1] / best[0] - 1.0);
    Ok(())
}
