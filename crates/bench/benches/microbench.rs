//! Criterion micro-benchmarks for every substrate's hot path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use squirrel_bootsim::{Backend, BootSim, DedupVolumeParams};
use squirrel_compress::{compress, decompress, Codec};
use squirrel_core::{paper_scale_trace, Squirrel, SquirrelConfig};
use squirrel_curvefit::{fit_linear, fit_mmf};
use squirrel_dataset::{Corpus, CorpusConfig};
use squirrel_hash::{sha256, ContentHash};
use squirrel_qcow::{CorCache, CowImage, MemDisk, VirtualDisk};
use squirrel_zfs::{PoolConfig, ZPool};
use std::sync::Arc;

fn content_block(n: usize) -> Vec<u8> {
    // Mixed texture matching corpus content (compressible + filler).
    let corpus = Corpus::generate(CorpusConfig::test_corpus(1, 5));
    let img = corpus.image(0);
    let mut buf = vec![0u8; n];
    img.read_at(0, &mut buf);
    buf
}

fn bench_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    for size in [4096usize, 65536] {
        let data = content_block(size);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256(d))
        });
        g.bench_with_input(BenchmarkId::new("content_hash_short", size), &data, |b, d| {
            b.iter(|| ContentHash::of(d).short())
        });
    }
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("compress");
    let data = content_block(65536);
    for codec in [Codec::Gzip(6), Codec::Gzip(9), Codec::Lzjb, Codec::Lz4] {
        g.throughput(Throughput::Bytes(data.len() as u64));
        g.bench_with_input(BenchmarkId::new("compress", codec.name()), &data, |b, d| {
            b.iter(|| compress(codec, d))
        });
        let frame = compress(codec, &data);
        g.bench_with_input(BenchmarkId::new("decompress", codec.name()), &frame, |b, f| {
            b.iter(|| decompress(f, data.len()))
        });
    }
    g.finish();
}

fn bench_dataset(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataset");
    let corpus = Corpus::generate(CorpusConfig::test_corpus(4, 9));
    let img = corpus.image(0);
    g.throughput(Throughput::Bytes(65536));
    g.bench_function("image_block_64k", |b| {
        let mut idx = 0u64;
        b.iter(|| {
            let blk = img.block(65536, idx % img.nonzero_blocks(65536));
            idx += 1;
            blk
        })
    });
    g.finish();
}

fn bench_zfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("zfs");
    let block = content_block(16384);
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("write_block_unique", |b| {
        let mut pool = ZPool::new(PoolConfig::new(16384, Codec::Lz4));
        pool.create_file("f");
        let mut i = 0u64;
        let mut blk = block.clone();
        b.iter(|| {
            blk[0] = blk[0].wrapping_add(1); // force uniqueness
            pool.write_block("f", i % 4096, &blk);
            i += 1;
        })
    });
    g.bench_function("write_block_dedup_hit", |b| {
        let mut pool = ZPool::new(PoolConfig::new(16384, Codec::Lz4));
        pool.create_file("f");
        pool.write_block("f", 0, &block);
        let mut i = 1u64;
        b.iter(|| {
            pool.write_block("f", 1 + i % 4096, &block);
            i += 1;
        })
    });
    g.bench_function("snapshot_send_recv", |b| {
        b.iter(|| {
            let mut src = ZPool::new(PoolConfig::new(16384, Codec::Lz4));
            src.create_file("f");
            for i in 0..8u64 {
                let mut blk = block.clone();
                blk[1] = i as u8;
                src.write_block("f", i, &blk);
            }
            src.snapshot("s");
            let stream = src.send_between(None, "s").expect("send");
            let mut dst = ZPool::new(PoolConfig::new(16384, Codec::Lz4));
            dst.recv(&stream).expect("recv");
            dst
        })
    });
    g.finish();
}

/// What `par::MIN_SHARE` is sized from: how long a parked worker takes to
/// join a job. Each share waits for the other, so a call lasts until the
/// worker has woken and run one.
fn bench_pool_handoff(c: &mut Criterion) {
    let workers = squirrel_hash::par::WorkerPool::new(2);
    let both = std::sync::Barrier::new(2);
    c.bench_function("pool_handoff", |b| {
        b.iter(|| workers.run(2, |_| both.wait().is_leader()))
    });
}

/// One diff, N fresh receivers: the registration fan-out without the
/// network. The stream's frames are proved by the first fan-out and remember
/// it, so what is timed is the steady state: what applying metadata costs
/// per receiver, not what proving the payload costs.
fn bench_recv_fanout(c: &mut Criterion) {
    let config = PoolConfig::new(65536, Codec::Gzip(6));
    let mut src = ZPool::new(config);
    src.create_file("cache");
    let block = content_block(65536);
    for i in 0..16u64 {
        let mut blk = block.clone();
        blk[1] = i as u8;
        src.write_block("cache", i, &blk);
    }
    src.snapshot("s");
    let stream = src.send_between(None, "s").expect("send");
    let workers = squirrel_hash::par::WorkerPool::new(2);

    let mut g = c.benchmark_group("recv_fanout");
    for receivers in [1u64, 64] {
        g.throughput(Throughput::Elements(receivers));
        g.bench_function(receivers.to_string(), |b| {
            b.iter(|| {
                let mut pools: Vec<ZPool> = (0..receivers).map(|_| ZPool::new(config)).collect();
                let results = stream.apply_all_on(pools.iter_mut().collect(), &workers);
                assert!(results.iter().all(|r| r.is_ok()));
                pools
            })
        });
    }
    g.finish();
}

/// The warm-boot integrity check on a 16-record cache file: `first` on
/// frames nothing has proved yet (fresh from ingest: one decompress +
/// SHA-256 per record), `again` on the same pool afterwards (a walk over
/// remembered keys).
fn bench_file_is_intact(c: &mut Criterion) {
    let config = PoolConfig::new(65536, Codec::Gzip(6));
    let block = content_block(65536);
    let blocks: Vec<Vec<u8>> = (0..16u8)
        .map(|i| {
            let mut blk = block.clone();
            blk[1] = i;
            blk
        })
        .collect();
    let imported = || {
        let mut pool = ZPool::new(config);
        pool.import_file("cache", &blocks, 16 * 65536);
        pool
    };

    let mut g = c.benchmark_group("file_is_intact");
    g.throughput(Throughput::Bytes(16 * 65536));
    g.bench_function("first", |b| {
        b.iter_batched(
            imported,
            |pool| assert_eq!(pool.file_is_intact("cache"), Some(true)),
            criterion::BatchSize::PerIteration,
        )
    });
    g.bench_function("again", |b| {
        let pool = imported();
        b.iter(|| assert_eq!(pool.file_is_intact("cache"), Some(true)))
    });
    g.finish();
}

/// One 64 KiB gzip record read through `read_block_shared` on a receiver of
/// the pool that wrote it: `alone`, where the payload is dropped after every
/// read (a decompression each time), and `while_shared`, where a reader on
/// the *sending* pool holds the record's payload (a refcount bump).
fn bench_read_block_shared(c: &mut Criterion) {
    let config = PoolConfig::new(65536, Codec::Gzip(6));
    let mut src = ZPool::new(config);
    src.import_file("cache", &[content_block(65536)], 65536);
    src.snapshot("s");
    let mut dst = ZPool::new(config);
    dst.recv(&src.send_latest().expect("send")).expect("recv");

    let mut g = c.benchmark_group("read_block_shared");
    g.throughput(Throughput::Bytes(65536));
    g.bench_function("alone", |b| b.iter(|| dst.read_block_shared("cache", 0)));
    g.bench_function("while_shared", |b| {
        let _held = src.read_block_shared("cache", 0).expect("file");
        b.iter(|| dst.read_block_shared("cache", 0))
    });
    g.finish();
}

/// A warm `Squirrel::boot`: `memo_miss` on a system that has not simulated
/// this image on this pool state before (classify, derive the backend,
/// synthesise the paper-scale trace, replay it), `memo_hit` on one that has
/// (classify, derive the backend, look the replay up).
fn bench_boot(c: &mut Criterion) {
    let corpus = Arc::new(Corpus::generate(CorpusConfig::test_corpus(2, 5)));
    let registered = || {
        let config = SquirrelConfig::builder().compute_nodes(1).build();
        let mut sq = Squirrel::new(config, Arc::clone(&corpus));
        sq.register(0).expect("register");
        sq
    };

    let mut g = c.benchmark_group("boot");
    g.bench_function("memo_miss", |b| {
        b.iter_batched(
            registered,
            |mut sq| assert!(sq.boot(0, 0).expect("boot").warm),
            criterion::BatchSize::PerIteration,
        )
    });
    g.bench_function("memo_hit", |b| {
        let mut sq = registered();
        b.iter(|| assert!(sq.boot(0, 0).expect("boot").warm))
    });
    g.finish();
}

/// Ingest pipeline micro-number. The full thread sweep — phase breakdown,
/// determinism check, speedup gate, the `ingest` bench record — lives in
/// the `ingest` experiment (`squirrel-experiments ingest`); this keeps a
/// criterion-tracked throughput figure on the same workload builder.
fn bench_ingest(c: &mut Criterion) {
    let bs = squirrel_bench::experiments::ingest::INGEST_BLOCK_SIZE;
    let n_blocks = 192usize;
    let (blocks, _census) = squirrel_bench::experiments::ingest::build_workload(
        n_blocks,
        bs,
        squirrel_bench::experiments::ingest::DEDUP_PCT,
        squirrel_bench::experiments::ingest::ZERO_PCT,
        21,
    );
    let logical = (n_blocks * bs) as u64;

    let mut g = c.benchmark_group("ingest");
    g.throughput(Throughput::Bytes((n_blocks * bs) as u64));
    for threads in [1usize, 8] {
        // One persistent worker pool across iterations, the production shape.
        let workers = squirrel_hash::par::WorkerPool::new(threads);
        g.bench_function(format!("import_file_t{threads}"), |b| {
            b.iter(|| {
                let mut pool =
                    ZPool::new(PoolConfig::new(bs, Codec::Gzip(6)).with_threads(threads));
                pool.set_worker_pool(workers.clone());
                pool.import_file("f", &blocks, logical);
                pool
            })
        });
    }
    g.finish();
}

fn bench_qcow(c: &mut Criterion) {
    let mut g = c.benchmark_group("qcow");
    let base: Vec<u8> = content_block(1 << 20);
    g.throughput(Throughput::Bytes(65536));
    g.bench_function("cow_chain_read_64k", |b| {
        let mut chain = CowImage::new(CorCache::new(MemDisk::new(base.clone()), 65536));
        let mut buf = vec![0u8; 65536];
        let mut off = 0u64;
        b.iter(|| {
            chain.read_at(off % (1 << 20), &mut buf);
            off += 65536;
        })
    });
    g.finish();
}

/// What a `Squirrel::simulate` miss costs, in the fleet's shapes: the
/// paper-scale trace synthesis, then its replay — warm at 64 KiB and at
/// 16 KiB records (`FleetConfig`'s block size), cold, and the baseline.
/// Rates are records replayed per second (clusters for the plain backends,
/// ops for the synthesis).
fn bench_bootsim(c: &mut Criterion) {
    let mut g = c.benchmark_group("bootsim");
    let trace = paper_scale_trace(132 << 20, 1);
    g.throughput(Throughput::Elements(trace.ops.len() as u64));
    g.bench_function("paper_scale_trace_132mb_ws", |b| {
        b.iter(|| paper_scale_trace(132 << 20, 1))
    });
    let sim = BootSim::new();
    for (name, backend) in [
        ("boot_dedup_volume_132mb_ws", Backend::DedupVolume(DedupVolumeParams::new(65536))),
        ("boot_dedup_volume_16k_132mb_ws", Backend::DedupVolume(DedupVolumeParams::new(16384))),
        ("boot_cold_cache_132mb_ws", Backend::ColdCache { net_mbps: 125.0, image_bytes: 27 << 30 }),
        ("boot_baseline_132mb_ws", Backend::BaseImageXfs { image_bytes: 27 << 30 }),
    ] {
        let r = sim.boot(&trace, &backend);
        g.throughput(Throughput::Elements(r.ddt_lookups.max(r.disk_reads)));
        g.bench_function(name, |b| b.iter(|| sim.boot(&trace, &backend)));
    }
    g.finish();
}

fn bench_curvefit(c: &mut Criterion) {
    let mut g = c.benchmark_group("curvefit");
    let xs: Vec<f64> = (1..=300).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 0.05 * x + (x * 0.1).sin() * 0.01).collect();
    g.bench_function("fit_linear_300pts", |b| b.iter(|| fit_linear(&xs, &ys)));
    g.bench_function("fit_mmf_300pts", |b| b.iter(|| fit_mmf(&xs, &ys)));
    g.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_compress,
    bench_dataset,
    bench_zfs,
    bench_pool_handoff,
    bench_recv_fanout,
    bench_file_is_intact,
    bench_read_block_shared,
    bench_boot,
    bench_ingest,
    bench_qcow,
    bench_bootsim,
    bench_curvefit
);
criterion_main!(benches);
