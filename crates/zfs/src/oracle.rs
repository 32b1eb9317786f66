//! Differential test of the per-buffer proof memo ([`Frame::content_key`]):
//! a sender and two receivers that share frames are driven through random
//! histories, and after **every** step each pool's `scrub`, `file_is_intact`
//! and `recv` verdicts must equal a memo-free oracle that decompresses and
//! hashes the stored bytes again, every time. The history reaches every
//! change to a snapshot's file set (snapshot, recv, destroy, purge), so the
//! same steps hold `stats()` to a walk of every snapshot, and every
//! snapshot — its file set and every stream sent between any two — to a
//! reference model that clones the whole live file map per snapshot.

use crate::config::PoolConfig;
use crate::ddt::{BlockKey, Frame};
use crate::history::FileMap;
use crate::pool::{FileTable, Records, ZPool};
use crate::send::{RecvError, SendStream, StreamBlock};
use proptest::prelude::*;
use squirrel_compress::{decompress, Codec};
use squirrel_hash::cdc::CdcParams;
use squirrel_hash::par::WorkerPool;
use squirrel_hash::ContentHash;
use std::collections::{BTreeMap, BTreeSet};

const BS: usize = 1024;
const FILE_BLOCKS: usize = 6;

/// The truth about a frame, recomputed from its bytes: the key of what it
/// inflates to, if that is a whole `lsize`-byte record.
fn key_of(frame: &Frame, lsize: u32) -> Option<BlockKey> {
    let content = decompress(frame, lsize as usize);
    (content.len() == lsize as usize).then(|| ContentHash::of(&content).short())
}

fn is_rotten(p: &ZPool, key: BlockKey) -> bool {
    let entry = p.ddt().get(&key).expect("dangling block pointer");
    let frame = entry.data.as_ref().expect("data-retaining pool");
    key_of(frame, entry.lsize) != Some(key)
}

/// What `scrub().corrupt` must say.
fn oracle_corrupt(p: &ZPool) -> Vec<BlockKey> {
    let mut corrupt: Vec<BlockKey> = p
        .ddt()
        .iter()
        .map(|(k, _)| *k)
        .filter(|k| is_rotten(p, *k))
        .collect();
    corrupt.sort_unstable();
    corrupt
}

/// What `file_is_intact(name)` must say.
fn oracle_intact(p: &ZPool, name: &str) -> Option<bool> {
    let table = p.files().get(name)?;
    Some(table.iter_keys().all(|key| !is_rotten(p, key)))
}

/// The block a receiver of record size `block_size` must reject `stream`
/// for: the first, in payload order, whose bytes are not its key's.
fn oracle_rejects(stream: &SendStream, block_size: u32) -> Option<BlockKey> {
    let mut lsizes = BTreeMap::new();
    for (_, table) in &stream.upserts {
        match &table.records {
            Records::Blocks(ptrs) => {
                lsizes.extend(ptrs.iter().flatten().map(|key| (*key, block_size)))
            }
            Records::Chunks(chunks) => lsizes.extend(chunks.iter().map(|c| (c.key, c.len))),
        }
    }
    stream.payload.iter().find_map(|b| {
        let lsize = lsizes.get(&b.key).copied().unwrap_or(block_size);
        (key_of(b.data.as_ref()?, lsize) != Some(b.key)).then_some(b.key)
    })
}

/// The pointer a purged receiver `p` must refuse `stream` for: the first,
/// in upsert order, that neither the payload nor `p` holds. The sender's
/// diff assumes the purged file's blocks are still there; a receiver that
/// was never purged holds them all and must take the stream.
fn oracle_missing(stream: &SendStream, p: &ZPool) -> Option<BlockKey> {
    let sent: BTreeSet<BlockKey> = stream.payload.iter().map(|b| b.key).collect();
    stream
        .upserts
        .iter()
        .flat_map(|(_, table)| table.iter_keys())
        .find(|key| !sent.contains(key) && p.ddt().get(key).is_none())
}

/// Every verdict of every pool against the oracle. `step` rotates which
/// check gets to a not-yet-proved frame first.
fn check_verdicts(pools: &[ZPool], step: usize) -> Result<(), TestCaseError> {
    let workers = WorkerPool::new(2);
    for (i, p) in pools.iter().enumerate() {
        for check in 0..3 {
            match (check + step) % 3 {
                0 => prop_assert_eq!(p.scrub().corrupt, oracle_corrupt(p), "scrub, pool {}", i),
                1 => {
                    for name in p.file_names() {
                        prop_assert_eq!(
                            p.file_is_intact(name),
                            oracle_intact(p, name),
                            "file_is_intact({}), pool {}",
                            name,
                            i
                        );
                    }
                }
                _ => {
                    let Some(tip) = p.latest_snapshot() else {
                        continue;
                    };
                    let full = p.send_between(None, tip).expect("own snapshot");
                    // Another record size asks every fixed-size frame at
                    // another length than it was proved for: at twice the
                    // length an intact frame inflates short of the record,
                    // at half it inflates to other bytes; both must fail.
                    for bs in [BS as u32, 2 * BS as u32, BS as u32 / 2] {
                        let expected = oracle_rejects(&full, bs).map(RecvError::CorruptPayload);
                        let mut fresh = ZPool::new(PoolConfig {
                            block_size: bs as usize,
                            ..*p.config()
                        });
                        fresh.set_worker_pool(workers.clone());
                        prop_assert_eq!(
                            fresh.verify(&full).err(),
                            expected,
                            "verify at {}, pool {}",
                            bs,
                            i
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// One pool's snapshots as the reference keeps them: every snapshot a
/// whole clone of the live file map it was taken of.
type Model = Vec<(String, FileMap)>;

/// What `send_between` must build, from the model's whole maps: every tip
/// file whose table differs from base's, every base file the tip lacks, and
/// every upsert key no base table references, in key order.
fn reference_send(
    p: &ZPool,
    base: Option<&(String, FileMap)>,
    tip: &(String, FileMap),
) -> SendStream {
    let empty = FileMap::new();
    let base_files = base.map_or(&empty, |(_, files)| files);
    let base_keys: BTreeSet<BlockKey> = base_files.values().flat_map(|t| t.iter_keys()).collect();
    let mut upserts = Vec::new();
    let mut payload_keys = BTreeSet::new();
    for (name, table) in &tip.1 {
        if base_files.get(name) != Some(table) {
            upserts.push((name.clone(), table.clone()));
            payload_keys.extend(table.iter_keys().filter(|k| !base_keys.contains(k)));
        }
    }
    let deletes = base_files
        .keys()
        .filter(|n| !tip.1.contains_key(*n))
        .cloned()
        .collect();
    let payload = payload_keys
        .into_iter()
        .map(|key| {
            let e = p.ddt().get(&key).expect("snapshot references live block");
            StreamBlock {
                key,
                psize: e.psize,
                data: e.data.clone(),
            }
        })
        .collect();
    SendStream {
        base: base.map(|(tag, _)| tag.clone()),
        tip: tip.0.clone(),
        upserts,
        deletes,
        payload,
    }
}

/// Every snapshot of `p` against the model: tags, each file set, and the
/// encoded stream between every (base, tip) pair and from nothing.
fn check_history(p: &ZPool, model: &Model) -> Result<(), TestCaseError> {
    let tags: Vec<&str> = model.iter().map(|(tag, _)| tag.as_str()).collect();
    prop_assert_eq!(p.snapshot_tags(), tags);
    for (i, (tag, files)) in model.iter().enumerate() {
        let want: BTreeMap<&str, &FileTable> = files.iter().map(|(n, t)| (n.as_str(), t)).collect();
        prop_assert!(p.history().view(i) == want, "snapshot {}", tag);
        let names: Vec<&str> = files.keys().map(String::as_str).collect();
        prop_assert_eq!(p.snapshot_file_names(tag), Some(names));
    }
    for tip in model {
        for base in std::iter::once(None).chain(model.iter().map(Some)) {
            let sent = p
                .send_between(base.map(|(tag, _)| tag.as_str()), &tip.0)
                .expect("own snapshots");
            prop_assert!(
                sent.encode() == reference_send(p, base, tip).encode(),
                "stream {:?} -> {}",
                base.map(|(tag, _)| tag),
                tip.0
            );
        }
    }
    if let [.., base, tip] = &model[..] {
        let latest = p.send_latest().expect("two snapshots");
        prop_assert!(latest.encode() == reference_send(p, Some(base), tip).encode());
    }
    Ok(())
}

#[derive(Clone, Debug)]
enum Op {
    /// (Re)import file `file` on the sender in one of a few versions.
    Import {
        file: u8,
        version: u8,
    },
    /// Snapshot the sender.
    Snapshot,
    /// Send receiver `to` the diff from where it is to the sender's tip —
    /// the sender's own frames, or a copy through the framed wire format.
    Replicate {
        to: usize,
        framed: bool,
    },
    Rot {
        pool: usize,
        nth: u64,
    },
    /// Repair `victim`'s `nth` record with `donor`'s copy, rotten or not.
    Repair {
        victim: usize,
        donor: usize,
        nth: u64,
    },
    /// Destroy `pool`'s `nth` snapshot (modulo their number): the oldest,
    /// one in the middle or the latest.
    DestroySnapshot {
        pool: usize,
        nth: usize,
    },
    /// Drop file `file` from `pool`'s live set and every snapshot.
    Purge {
        pool: usize,
        file: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..3, 0u8..3).prop_map(|(file, version)| Op::Import { file, version }),
        3 => Just(Op::Snapshot),
        5 => (1usize..3, any::<bool>()).prop_map(|(to, framed)| Op::Replicate { to, framed }),
        3 => (0usize..3, any::<u64>()).prop_map(|(pool, nth)| Op::Rot { pool, nth }),
        3 => (0usize..3, 0usize..3, any::<u64>())
            .prop_map(|(victim, donor, nth)| Op::Repair { victim, donor, nth }),
        2 => (0usize..3, any::<usize>()).prop_map(|(pool, nth)| Op::DestroySnapshot { pool, nth }),
        1 => (0usize..3, 0u8..3).prop_map(|(pool, file)| Op::Purge { pool, file }),
    ]
}

/// Block `i` of `file` at `version`: every third block is common to all
/// files, and a version only rewrites the odd blocks.
fn block(file: u8, version: u8, i: usize) -> Vec<u8> {
    let seed = match i % 3 {
        0 => i,
        _ => 100 + file as usize * 40 + (i % 2) * version as usize * 10 + i,
    };
    (0..BS)
        .map(|j| ((seed * 31 + j * 7 + (seed * j) % 13) % 251) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn remembered_verdicts_equal_the_memo_free_oracle(
        cdc in any::<bool>(),
        threads in 0usize..3,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let cfg = PoolConfig {
            threads: [1, 2, 8][threads],
            cdc: cdc.then(|| CdcParams::with_average(1024)),
            ..PoolConfig::new(BS, Codec::Lzjb)
        };
        // Pool 0 sends; pools 1 and 2 receive.
        let mut pools: Vec<ZPool> = (0..3).map(|_| ZPool::new(cfg)).collect();
        let mut models: Vec<Model> = vec![Model::new(); 3];
        let mut next_tag = 0u32;
        // Receivers that purged a file: only they may lack a block the
        // sender's diff assumes.
        let mut purged = [false; 3];
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Import { file, version } => {
                    let blocks: Vec<Vec<u8>> =
                        (0..FILE_BLOCKS).map(|i| block(file, version, i)).collect();
                    pools[0].import_file(&format!("f{file}"), &blocks, (FILE_BLOCKS * BS) as u64);
                }
                Op::Snapshot => {
                    let tag = format!("s{next_tag}");
                    pools[0].snapshot(&tag);
                    models[0].push((tag, pools[0].files().clone()));
                    next_tag += 1;
                }
                Op::Replicate { to, framed } => {
                    let base = pools[to].latest_snapshot().map(String::from);
                    let tip = pools[0].latest_snapshot().map(String::from);
                    // Nothing to send, or the sender destroyed the base.
                    let sent = match tip {
                        Some(tip) if base.as_deref() != Some(&tip) => {
                            pools[0].send_between(base.as_deref(), &tip).ok()
                        }
                        _ => None,
                    };
                    if let Some(mut stream) = sent {
                        if framed {
                            stream = SendStream::decode_framed(&stream.encode_framed())
                                .expect("clean wire");
                        }
                        let expected = match oracle_rejects(&stream, BS as u32) {
                            Some(key) => Err(RecvError::CorruptPayload(key)),
                            None if purged[to] => oracle_missing(&stream, &pools[to])
                                .map_or(Ok(()), |key| Err(RecvError::MissingBlock(key))),
                            None => Ok(()),
                        };
                        prop_assert_eq!(pools[to].recv(&stream), expected, "step {}", step);
                        if expected.is_ok() {
                            models[to].push((stream.tip.clone(), pools[to].files().clone()));
                        }
                    }
                }
                Op::Rot { pool, nth } => {
                    let verdicts = |pools: &[ZPool]| -> Vec<Vec<BlockKey>> {
                        pools.iter().map(|p| p.scrub().corrupt).collect()
                    };
                    let before = verdicts(&pools);
                    pools[pool].corrupt_nth_block(nth);
                    let after = verdicts(&pools);
                    for other in (0..3).filter(|&o| o != pool) {
                        prop_assert_eq!(
                            &after[other], &before[other],
                            "rot on pool {} changed pool {}'s verdict", pool, other
                        );
                    }
                }
                Op::Repair { victim, donor, nth } => {
                    // Aim at records that are rotten on either side, when
                    // there are any: healing, and a rotten donor's refusal.
                    let mut keys = oracle_corrupt(&pools[victim]);
                    keys.extend(oracle_corrupt(&pools[donor]));
                    if keys.is_empty() {
                        keys.extend(pools[victim].ddt().iter().map(|(k, _)| *k));
                    }
                    keys.sort_unstable();
                    if let Some(&key) = keys.get((nth % keys.len().max(1) as u64) as usize) {
                        if let Some((psize, frame)) = pools[donor].payload_of(key) {
                            let heals = pools[victim]
                                .ddt()
                                .get(&key)
                                .is_some_and(|e| key_of(&frame, e.lsize) == Some(key));
                            prop_assert_eq!(
                                pools[victim].repair_block(key, psize, &frame),
                                heals,
                                "step {}", step
                            );
                        }
                    }
                }
                Op::DestroySnapshot { pool, nth } => {
                    let count = models[pool].len();
                    if count > 0 {
                        let (tag, _) = models[pool].remove(nth % count);
                        prop_assert!(pools[pool].destroy_snapshot(&tag));
                    }
                }
                Op::Purge { pool, file } => {
                    let name = format!("f{file}");
                    pools[pool].purge_file(&name);
                    for (_, files) in &mut models[pool] {
                        files.remove(&name);
                    }
                    purged[pool] = true;
                }
            }
            check_verdicts(&pools, step)?;
            for (i, p) in pools.iter().enumerate() {
                check_history(p, &models[i])?;
                prop_assert!(p.check_refcounts());
                prop_assert_eq!(p.stats(), p.stats_by_walk(), "stats(), pool {}, step {}", i, step);
            }
        }
    }
}

/// The history above only means something if receivers really end up
/// holding the sender's buffers — and wire copies really do not.
#[test]
fn receivers_share_the_senders_frames_and_wire_copies_do_not() {
    let cfg = PoolConfig::new(BS, Codec::Lzjb);
    let mut src = ZPool::new(cfg);
    let blocks: Vec<Vec<u8>> = (0..FILE_BLOCKS).map(|i| block(0, 0, i)).collect();
    src.import_file("f0", &blocks, (FILE_BLOCKS * BS) as u64);
    src.snapshot("s0");
    let stream = src.send_between(None, "s0").expect("send");
    let wire = SendStream::decode_framed(&stream.encode_framed()).expect("decode");
    let (mut shared, mut copied) = (ZPool::new(cfg), ZPool::new(cfg));
    shared.recv(&stream).expect("recv");
    copied.recv(&wire).expect("recv");
    for b in &stream.payload {
        let of = |p: &ZPool| p.payload_of(b.key).expect("payload").1;
        assert!(Frame::ptr_eq(&of(&src), &of(&shared)));
        assert!(!Frame::ptr_eq(&of(&src), &of(&copied)));
        assert_eq!(*of(&src), *of(&copied));
    }
}
