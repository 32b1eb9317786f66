//! Incremental snapshot send/recv — the `zfs send -i` mechanism Squirrel
//! uses to propagate new VMI caches from the storage node to every compute
//! node (paper, Sections 3.2 and 3.5).
//!
//! A stream captures the difference between two snapshots of the sender's
//! pool: files added or changed, files deleted, and the payload of blocks
//! the receiver cannot already have (blocks absent from the base snapshot).
//! The receiver must sit exactly at the base snapshot; otherwise `recv`
//! fails and the caller falls back to a full replication, exactly the
//! offline-propagation logic of Section 3.5.

use crate::ddt::{BlockKey, Frame};
use crate::meter::PoolMeters;
use crate::pool::{CdcChunk, FileTable, Records, ZPool};
use squirrel_hash::par::{cost, WorkerPool};
use squirrel_hash::{ContentHash, FnvHashSet};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// One block carried by a stream. The payload is the *same* frame the
/// sender's DDT entry holds — building a stream clones no block bytes — and
/// the receiver's DDT entry shares it too after `recv`, proof included. A
/// stream decoded off the wire carries fresh, unproven copies.
#[derive(Clone, Debug)]
pub struct StreamBlock {
    pub key: BlockKey,
    pub psize: u32,
    /// Compressed payload; `None` when the sending pool is accounting-only.
    pub data: Option<Frame>,
}

/// A serialized snapshot difference.
#[derive(Clone, Debug)]
pub struct SendStream {
    /// Base snapshot tag; `None` for a full (non-incremental) stream.
    pub base: Option<String>,
    /// Tip snapshot tag; `recv` recreates this snapshot on the receiver.
    pub tip: String,
    /// Files added or modified between base and tip (full new tables,
    /// sharing the sender's record vectors).
    pub upserts: Vec<(String, FileTable)>,
    /// Files deleted between base and tip.
    pub deletes: Vec<String>,
    /// Blocks the receiver cannot already have.
    pub payload: Vec<StreamBlock>,
}

/// Errors from [`ZPool::send_between`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    UnknownSnapshot(String),
}

/// Errors from [`ZPool::recv`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// The receiver does not hold the stream's base snapshot: a lagging node
    /// needs a full replication instead.
    MissingBase(String),
    /// The tip snapshot already exists locally (stream replayed).
    DuplicateTip(String),
    /// A payload block's content does not hash to its key — the stream was
    /// built from (or became) corrupt data. Nothing was applied.
    CorruptPayload(BlockKey),
    /// An upsert references a block that is neither in the stream payload
    /// nor already on the receiver, or a data-retaining receiver is sent a
    /// new block without its bytes. Nothing was applied.
    MissingBlock(BlockKey),
    /// A chunk's length differs from that of the record its key names —
    /// the one the receiver holds, else the payload's. Reading it would
    /// copy past the record's bytes. Nothing was applied.
    ChunkLength(BlockKey),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownSnapshot(t) => write!(f, "unknown snapshot {t}"),
        }
    }
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::MissingBase(t) => write!(f, "missing base snapshot {t}"),
            RecvError::DuplicateTip(t) => write!(f, "tip snapshot {t} already present"),
            RecvError::CorruptPayload(k) => write!(f, "corrupt payload block {k:032x}"),
            RecvError::MissingBlock(k) => write!(f, "stream missing payload block {k:032x}"),
            RecvError::ChunkLength(k) => write!(f, "chunk length differs from record {k:032x}"),
        }
    }
}

impl std::error::Error for SendError {}
impl std::error::Error for RecvError {}

/// Wire-size constants for [`SendStream::wire_bytes`].
const WIRE_PTR_BYTES: u64 = 18; // key prefix + flags
const WIRE_FILE_OVERHEAD: u64 = 64;
/// Framing of one record on the wire, beside its compressed frame: every
/// transfer of a record (a stream's payload, a repair, a re-hoard) charges it.
pub const WIRE_BLOCK_HEADER: u64 = 24;
/// One CDC chunk record: 16-byte key + 8-byte logical offset + 4-byte length.
const WIRE_CHUNK_BYTES: u64 = 28;

/// Upsert pointer-count sentinel marking a CDC chunk table instead of a
/// block-pointer vector. A real pointer vector of 2^32 - 1 entries would be
/// a multi-terabyte file table, far past anything the encoder produces, so
/// fixed-mode streams never emit this value and their encoding is
/// byte-identical to the pre-CDC format (pinned by the golden test).
const CHUNKED_SENTINEL: u32 = u32::MAX;

/// Errors from [`SendStream::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadMagic,
    BadString,
    /// The framed stream's trailing content digest does not match its body
    /// (bit rot or in-flight corruption). See [`SendStream::decode_framed`].
    BadChecksum,
    /// A chunk table is out of `logical_off` order, has overlapping chunks,
    /// or has a chunk starting at or past its file's length.
    BadChunkTable,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "stream truncated"),
            DecodeError::BadMagic => write!(f, "bad stream magic"),
            DecodeError::BadString => write!(f, "invalid utf-8 in stream"),
            DecodeError::BadChecksum => write!(f, "stream checksum mismatch"),
            DecodeError::BadChunkTable => write!(f, "chunk table out of order or past its file"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian binary reader for the wire format.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Bytes left to read — the upper bound any adversarial length field is
    /// clamped to before preallocating.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadString)
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

const STREAM_MAGIC: &[u8; 8] = b"SQRLSND1";
const FRAME_MAGIC: &[u8; 8] = b"SQRLFRM1";
/// Frame magic plus the trailing 16-byte content digest.
const FRAME_OVERHEAD: usize = 8 + 16;

impl SendStream {
    /// Serialize to the on-wire binary format (what a real deployment would
    /// multicast). `decode` inverts it exactly.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes() as usize);
        self.encode_into(&mut out);
        out
    }

    /// Append the [`encode`](Self::encode) image to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(STREAM_MAGIC);
        match &self.base {
            Some(b) => {
                out.push(1);
                put_string(out, b);
            }
            None => out.push(0),
        }
        put_string(out, &self.tip);

        out.extend_from_slice(&(self.upserts.len() as u32).to_le_bytes());
        for (name, table) in &self.upserts {
            put_string(out, name);
            out.extend_from_slice(&table.len.to_le_bytes());
            match &table.records {
                Records::Blocks(ptrs) => {
                    out.extend_from_slice(&(ptrs.len() as u32).to_le_bytes());
                    for p in ptrs.iter() {
                        match p {
                            Some(key) => {
                                out.push(1);
                                out.extend_from_slice(&key.to_le_bytes());
                            }
                            None => out.push(0),
                        }
                    }
                }
                Records::Chunks(chunks) => {
                    out.extend_from_slice(&CHUNKED_SENTINEL.to_le_bytes());
                    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
                    for c in chunks.iter() {
                        out.extend_from_slice(&c.key.to_le_bytes());
                        out.extend_from_slice(&c.logical_off.to_le_bytes());
                        out.extend_from_slice(&c.len.to_le_bytes());
                    }
                }
            }
        }

        out.extend_from_slice(&(self.deletes.len() as u32).to_le_bytes());
        for name in &self.deletes {
            put_string(out, name);
        }

        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        for b in &self.payload {
            out.extend_from_slice(&b.key.to_le_bytes());
            out.extend_from_slice(&b.psize.to_le_bytes());
            match &b.data {
                Some(d) => {
                    out.push(1);
                    out.extend_from_slice(&(d.len() as u32).to_le_bytes());
                    out.extend_from_slice(d);
                }
                None => out.push(0),
            }
        }
    }

    /// Parse a stream produced by [`encode`](Self::encode).
    pub fn decode(data: &[u8]) -> Result<SendStream, DecodeError> {
        let mut r = Reader { data, pos: 0 };
        if r.take(8)? != STREAM_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let base = match r.u8()? {
            0 => None,
            _ => Some(r.string()?),
        };
        let tip = r.string()?;

        // Every count is clamped to the bytes actually left in the buffer
        // before preallocating: a corrupted length field can make the parse
        // fail with `Truncated`, never reserve gigabytes.
        let n_upserts = r.u32()? as usize;
        let mut upserts = Vec::with_capacity(n_upserts.min(r.remaining()));
        for _ in 0..n_upserts {
            let name = r.string()?;
            let len = r.u64()?;
            let n_ptrs = r.u32()?;
            let records = if n_ptrs == CHUNKED_SENTINEL {
                let n_chunks = r.u32()? as usize;
                let mut chunks = Vec::with_capacity(n_chunks.min(r.remaining()));
                // Reads find a block's chunks by binary search and copy
                // them into place, so the table must be sorted, disjoint
                // and start inside the file. A chunk may run past `len`:
                // the last block of an import is zero-padded.
                let mut end = 0u64;
                for _ in 0..n_chunks {
                    let key = r.u128()?;
                    let logical_off = r.u64()?;
                    let clen = r.u32()?;
                    match logical_off.checked_add(clen.into()) {
                        Some(chunk_end) if logical_off >= end && logical_off < len => {
                            end = chunk_end;
                        }
                        _ => return Err(DecodeError::BadChunkTable),
                    }
                    chunks.push(CdcChunk {
                        key,
                        logical_off,
                        len: clen,
                    });
                }
                Records::Chunks(Arc::new(chunks))
            } else {
                let n_ptrs = n_ptrs as usize;
                let mut ptrs = Vec::with_capacity(n_ptrs.min(r.remaining()));
                for _ in 0..n_ptrs {
                    ptrs.push(match r.u8()? {
                        0 => None,
                        _ => Some(r.u128()?),
                    });
                }
                Records::Blocks(Arc::new(ptrs))
            };
            upserts.push((name, FileTable { records, len }));
        }

        let n_deletes = r.u32()? as usize;
        let mut deletes = Vec::with_capacity(n_deletes.min(r.remaining()));
        for _ in 0..n_deletes {
            deletes.push(r.string()?);
        }

        let n_payload = r.u32()? as usize;
        let mut payload = Vec::with_capacity(n_payload.min(r.remaining()));
        for _ in 0..n_payload {
            let key = r.u128()?;
            let psize = r.u32()?;
            let data = match r.u8()? {
                0 => None,
                _ => {
                    let n = r.u32()? as usize;
                    // A copy off the wire: proved when it is received.
                    Some(r.take(n)?.to_vec().into())
                }
            };
            payload.push(StreamBlock { key, psize, data });
        }

        Ok(SendStream {
            base,
            tip,
            upserts,
            deletes,
            payload,
        })
    }

    /// [`encode`](Self::encode) wrapped in an integrity frame: a distinct
    /// magic, the encoded body, and a trailing 128-bit content digest of the
    /// body. This is what actually crosses the (faulty) network — any bit
    /// flipped in flight makes [`decode_framed`](Self::decode_framed) fail
    /// with [`DecodeError::BadChecksum`] instead of applying garbage. The
    /// unframed `encode` format is unchanged (it is pinned by golden tests).
    pub fn encode_framed(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes() as usize + FRAME_OVERHEAD);
        out.extend_from_slice(FRAME_MAGIC);
        self.encode_into(&mut out);
        let digest = ContentHash::of(&out[FRAME_MAGIC.len()..]).short();
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Parse a stream produced by [`encode_framed`](Self::encode_framed),
    /// verifying the trailing digest before touching the body.
    pub fn decode_framed(data: &[u8]) -> Result<SendStream, DecodeError> {
        if data.len() < FRAME_OVERHEAD {
            return Err(DecodeError::Truncated);
        }
        if &data[..FRAME_MAGIC.len()] != FRAME_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let (inner, digest) = data[FRAME_MAGIC.len()..].split_at(data.len() - FRAME_OVERHEAD);
        let expected = u128::from_le_bytes(digest.try_into().expect("16-byte digest"));
        if ContentHash::of(inner).short() != expected {
            return Err(DecodeError::BadChecksum);
        }
        Self::decode(inner)
    }

    /// Bytes this stream occupies on the network: compressed payload plus
    /// pointer tables and framing. This is the quantity Figure 18's network
    /// accounting charges for cache propagation.
    pub fn wire_bytes(&self) -> u64 {
        let payload: u64 = self
            .payload
            .iter()
            .map(|b| b.psize as u64 + WIRE_BLOCK_HEADER)
            .sum();
        let tables: u64 = self
            .upserts
            .iter()
            .map(|(name, table)| {
                let record_bytes = match table.records {
                    Records::Blocks(_) => WIRE_PTR_BYTES,
                    Records::Chunks(_) => WIRE_CHUNK_BYTES,
                };
                name.len() as u64 + WIRE_FILE_OVERHEAD + table.ptr_count() * record_bytes
            })
            .sum();
        let deletes: u64 = self.deletes.iter().map(|n| n.len() as u64 + 8).sum();
        payload + tables + deletes + 128
    }

    /// Number of payload blocks.
    pub fn payload_blocks(&self) -> usize {
        self.payload.len()
    }

    /// Logical size of every block the stream's upsert tables reference:
    /// chunk records carry their length on the wire; block pointers are the
    /// pool record size. Payload validation and DDT staging both need this
    /// because CDC frames decompress to variable lengths.
    fn referenced_lsizes(&self, block_size: u32) -> BTreeMap<BlockKey, u32> {
        let mut sizes = BTreeMap::new();
        for (_, table) in &self.upserts {
            match &table.records {
                Records::Blocks(ptrs) => {
                    sizes.extend(ptrs.iter().flatten().map(|&key| (key, block_size)));
                }
                Records::Chunks(chunks) => sizes.extend(chunks.iter().map(|c| (c.key, c.len))),
            }
        }
        sizes
    }

    /// The pool-independent half of [`ZPool::recv`], done **once** however
    /// many pools the stream is then applied to: prove every payload block
    /// against its key, and resolve the logical sizes and the incoming-key
    /// set the pool-dependent half needs. Nothing here reads receiver
    /// state, and the payload frames are immutable and shared, so the proof
    /// holds for every pool of record size `block_size` that is handed this
    /// same stream — and a frame something already proved (an earlier
    /// verification, a donor's scrub) is not hashed again.
    ///
    /// Blocks are checked on `workers`, cut by what proving them costs: a
    /// frame already proved at its length weighs nothing, so a re-delivered
    /// or rejoin stream stays on the calling thread, as does a diff whose
    /// new records fall short of one share. The reported offender is the
    /// first **in payload order**, so the error is the same at any thread
    /// count. `meters` are those of the pool the work is accounted to.
    fn verify_on(
        &self,
        block_size: u32,
        workers: &WorkerPool,
        meters: &PoolMeters,
    ) -> Result<VerifiedStream<'_>, RecvError> {
        // Nothing is proved until `check_block` has passed over every block.
        let verified = VerifiedStream {
            stream: self,
            block_size,
            lsizes: self.referenced_lsizes(block_size),
            incoming: self.payload.iter().map(|b| b.key).collect(),
        };
        let checked = {
            let timer = meters.metrics.timer("zpool_recv_verify");
            let check = |_: usize, b: &StreamBlock| timer.busy(|| verified.check_block(b));
            // Proving a block is decompressing it and hashing the result.
            let prove_cost = |b: &StreamBlock| {
                let lsize = verified.lsize(b.key);
                match &b.data {
                    Some(frame) if !frame.is_proved_at(lsize) => {
                        u64::from(lsize) * (cost::INFLATE + cost::HASH)
                    }
                    _ => 0,
                }
            };
            workers
                .parallel_map(&self.payload, prove_cost, check)
                .into_iter()
                .fold(Checked::default(), Checked::then)
        };
        meters.verify_hashed_bytes.add(checked.hashed);
        if let Some(key) = checked.corrupt {
            return Err(RecvError::CorruptPayload(key));
        }
        meters.recv_verified_bytes.add(checked.covered);
        Ok(verified)
    }

    /// Apply this stream to many independent pools concurrently (the
    /// registration multicast: one prepared stream, N receiver ccVolumes).
    /// The payload is verified once up front — every pool is handed the
    /// same buffers — then each pool runs its own checks and the apply.
    /// Pools are spread over `workers` by what an apply costs each of them;
    /// results come back in pool order and are exactly what an in-order
    /// loop of [`ZPool::recv`] returns.
    pub fn apply_all_on(
        &self,
        pools: Vec<&mut ZPool>,
        workers: &WorkerPool,
    ) -> Vec<Result<(), RecvError>> {
        let Some(first) = pools.first() else {
            return Vec::new();
        };
        let verified = self.verify_on(first.block_size() as u32, workers, &first.meters);
        let recv = |p: &mut ZPool| match &verified {
            Ok(v) => p.recv_verified(v),
            // A rejected stream is rare and ends the fan-out; each pool
            // reports it through its own full check, in its own order.
            Err(_) => p.recv(self),
        };
        // What an apply costs a pool: a reference taken and dropped per
        // incoming record, then the tip mirrored by walking every live
        // pointer — the stream's and the pool's own — at ≈ 40 ns a
        // reference (a dedup-table lookup; `register_fanout` applies a
        // ≈ 100-record state in ≈ 4 µs).
        const TABLE_REF_NS: u64 = 40;
        let incoming: u64 = self.payload.len() as u64
            + self.upserts.iter().map(|(_, t)| t.ptr_count()).sum::<u64>();
        let apply_cost = |p: &ZPool| {
            let live: u64 = p.files().values().map(FileTable::ptr_count).sum();
            (live + 2 * incoming) * TABLE_REF_NS
        };
        // Each pool sits behind its own mutex, locked once by whichever
        // participant runs its share, so locks never contend.
        let cells: Vec<(u64, Mutex<&mut ZPool>)> = pools
            .into_iter()
            .map(|p| (apply_cost(p), Mutex::new(p)))
            .collect();
        workers.parallel_map(
            &cells,
            |c| c.0,
            |_, c| recv(&mut c.1.lock().expect("recv pool poisoned")),
        )
    }
}

/// A [`SendStream`] whose payload has been proved against its keys for
/// pools of one record size. Only a verification ([`ZPool::verify`], or
/// the one inside `recv` and `apply_all_on`) builds one, so a stream cannot
/// reach [`ZPool::recv_verified`] unverified.
pub struct VerifiedStream<'a> {
    stream: &'a SendStream,
    /// Record size the block-pointer lsizes (and so the proof) assume.
    block_size: u32,
    lsizes: BTreeMap<BlockKey, u32>,
    /// Keys the payload carries.
    incoming: BTreeSet<BlockKey>,
}

/// What one pass over a run of payload blocks found.
#[derive(Default)]
struct Checked {
    /// Logical bytes of the blocks passed over.
    covered: u64,
    /// Bytes of those actually decompressed + hashed (not yet proved).
    hashed: u64,
    /// First block, in payload order, whose content is not its key's.
    corrupt: Option<BlockKey>,
}

impl Checked {
    /// This run followed by `next`.
    fn then(self, next: Checked) -> Checked {
        Checked {
            covered: self.covered + next.covered,
            hashed: self.hashed + next.hashed,
            corrupt: self.corrupt.or(next.corrupt),
        }
    }
}

impl VerifiedStream<'_> {
    /// Logical size of payload block `key`; a block no upsert references
    /// is a whole record.
    fn lsize(&self, key: BlockKey) -> u32 {
        self.lsizes.get(&key).copied().unwrap_or(self.block_size)
    }

    /// Prove one payload block. Every block is passed over, past an
    /// offender too, so what a rejected stream leaves proved (and what that
    /// cost) does not depend on how the payload was cut into shares.
    fn check_block(&self, b: &StreamBlock) -> Checked {
        let mut checked = Checked::default();
        if let Some(frame) = &b.data {
            let lsize = self.lsize(b.key);
            checked.covered = u64::from(lsize);
            if frame.content_key(lsize, &mut checked.hashed) != Some(b.key) {
                checked.corrupt = Some(b.key);
            }
        }
        checked
    }
}

impl ZPool {
    /// Build a stream carrying the difference from snapshot `base` (or from
    /// nothing, for a full stream) to snapshot `tip`.
    pub fn send_between(&self, base: Option<&str>, tip: &str) -> Result<SendStream, SendError> {
        let find = |tag: &str| {
            self.history()
                .position(tag)
                .ok_or_else(|| SendError::UnknownSnapshot(tag.to_string()))
        };
        let tip = find(tip)?;
        let base = base.map(find).transpose()?;
        Ok(self.send_indexed(base, tip))
    }

    /// [`send_between`](Self::send_between) on snapshot positions. Only
    /// the names the deltas between base and tip hold are compared; the
    /// base's tables are walked once, to strike every incoming key the
    /// receiver already holds from the payload.
    fn send_indexed(&self, base: Option<usize>, tip: usize) -> SendStream {
        let history = self.history();
        let mut upserts = Vec::new();
        let mut deletes = Vec::new();
        match base {
            None => {
                for (name, table) in history.view(tip) {
                    upserts.push((name.to_string(), table.clone()));
                }
            }
            Some(base) => {
                for name in history.changed_between(base, tip) {
                    let new = history.table(tip, name);
                    if history.table(base, name) == new {
                        continue;
                    }
                    match new {
                        // Shares the snapshot's record vector (a refcount bump).
                        Some(table) => upserts.push((name.to_string(), table.clone())),
                        None => deletes.push(name.to_string()),
                    }
                }
            }
        }

        // Blocks the receiver cannot already have: every upsert key that no
        // table at base references.
        let mut incoming: FnvHashSet<BlockKey> = upserts
            .iter()
            .flat_map(|(_, table)| table.iter_keys())
            .collect();
        if let Some(base) = base.filter(|_| !incoming.is_empty()) {
            for key in history.view(base).values().flat_map(|t| t.iter_keys()) {
                incoming.remove(&key);
            }
        }
        let mut payload_keys: Vec<BlockKey> = incoming.into_iter().collect();
        payload_keys.sort_unstable();

        let payload = payload_keys
            .into_iter()
            .map(|key| {
                let e = self
                    .ddt()
                    .get(&key)
                    .expect("snapshot references live block");
                // Shares the DDT's compressed buffer (refcount bump).
                StreamBlock {
                    key,
                    psize: e.psize,
                    data: e.data.clone(),
                }
            })
            .collect();

        SendStream {
            base: base.map(|i| history.tag(i).to_string()),
            tip: history.tag(tip).to_string(),
            upserts,
            deletes,
            payload,
        }
    }

    /// Incremental stream from the pool's previous snapshot to its latest
    /// (the common registration step); full stream when only one exists.
    pub fn send_latest(&self) -> Result<SendStream, SendError> {
        match self.history().len() {
            0 => Err(SendError::UnknownSnapshot("<none>".to_string())),
            1 => Ok(self.send_indexed(None, 0)),
            n => Ok(self.send_indexed(Some(n - 2), n - 1)),
        }
    }

    /// Apply a stream **transactionally**. The receiver's latest snapshot
    /// must equal the stream's base (or the stream must be full); every
    /// payload block must hash to its key; every upsert pointer must resolve
    /// to either a payload block or a block already present, and every
    /// chunk must be as long as the record it names. All of that is
    /// checked *before* the first mutation, in that order, so any `Err`
    /// leaves the pool exactly as it was — a corrupt or impossible stream
    /// never half-applies. On success the receiver's live files match the
    /// sender's tip and a snapshot with the tip tag is created locally.
    ///
    /// This is [`verify`](Self::verify) followed by
    /// [`recv_verified`](Self::recv_verified).
    pub fn recv(&mut self, stream: &SendStream) -> Result<(), RecvError> {
        let verified = self.verify_for_recv(stream)?;
        self.recv_verified(&verified)
    }

    /// Prove `stream`'s payload for this pool's record size, on its workers
    /// and counted on its meters: one proof for every pool of that size the
    /// stream is then handed to ([`recv_verified`](Self::recv_verified)).
    pub fn verify<'s>(&self, stream: &'s SendStream) -> Result<VerifiedStream<'s>, RecvError> {
        stream.verify_on(self.block_size() as u32, self.worker_pool(), &self.meters)
    }

    /// The pool-dependent half of [`recv`](Self::recv): the tip and base
    /// checks, pointer resolution against this pool's DDT, then the apply.
    /// A stream verified for another record size is verified again for this
    /// one — the proof does not carry over.
    pub fn recv_verified(&mut self, verified: &VerifiedStream<'_>) -> Result<(), RecvError> {
        if verified.block_size != self.block_size() as u32 {
            return self.recv(verified.stream);
        }
        self.check_position(verified.stream)?;
        self.check_pointers(verified)?;
        self.apply_stream(verified);
        Ok(())
    }

    /// Single-receiver verification: the position checks come first, so a
    /// replayed or out-of-order stream is refused before any payload work.
    fn verify_for_recv<'s>(&self, stream: &'s SendStream) -> Result<VerifiedStream<'s>, RecvError> {
        self.check_position(stream)?;
        self.verify(stream)
    }

    /// Does the stream fit this pool's history? The tip must be new and the
    /// pool must sit exactly at the base: a diff applied past its base
    /// would mix two states. A pool elsewhere reports `MissingBase` — it
    /// needs a different stream (a full one, or a diff from where it is).
    fn check_position(&self, stream: &SendStream) -> Result<(), RecvError> {
        if self.has_snapshot(&stream.tip) {
            return Err(RecvError::DuplicateTip(stream.tip.clone()));
        }
        match &stream.base {
            Some(base) if self.latest_snapshot() != Some(base) => {
                Err(RecvError::MissingBase(base.clone()))
            }
            _ => Ok(()),
        }
    }

    /// Every upsert pointer resolves to a payload block or a block this
    /// pool already holds, and every chunk is as long as the record its key
    /// names: the one this pool holds, else the payload's.
    fn check_pointers(&self, verified: &VerifiedStream<'_>) -> Result<(), RecvError> {
        // A pool that serves reads needs the bytes of every record it does
        // not hold yet; an accounting-only sender's blocks carry none.
        if self.config().retain_data {
            for b in verified.stream.payload.iter().filter(|b| b.data.is_none()) {
                if self.ddt().get(&b.key).is_none() {
                    return Err(RecvError::MissingBlock(b.key));
                }
            }
        }
        for (_, table) in &verified.stream.upserts {
            match &table.records {
                Records::Blocks(ptrs) => {
                    for &key in ptrs.iter().flatten() {
                        if !verified.incoming.contains(&key) && self.ddt().get(&key).is_none() {
                            return Err(RecvError::MissingBlock(key));
                        }
                    }
                }
                Records::Chunks(chunks) => {
                    for c in chunks.iter() {
                        let lsize = match self.ddt().get(&c.key) {
                            Some(entry) => entry.lsize,
                            None if verified.incoming.contains(&c.key) => verified.lsize(c.key),
                            None => return Err(RecvError::MissingBlock(c.key)),
                        };
                        if lsize != c.len {
                            return Err(RecvError::ChunkLength(c.key));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The infallible half of [`recv`](Self::recv); only called on a
    /// stream that passed every check.
    fn apply_stream(&mut self, verified: &VerifiedStream<'_>) {
        let stream = verified.stream;
        self.meters.recv_streams.inc();
        self.meters.recv_wire_bytes.add(stream.wire_bytes());

        // Ingest payload blocks first so pointer installation always finds
        // its targets in the DDT.
        for b in &stream.payload {
            // add_ref with an initial "staging" reference; released after the
            // tables are installed so unreferenced payload doesn't leak.
            let (psize, lsize, data) = (b.psize, verified.lsize(b.key), b.data.clone());
            self.ddt_mut().add_ref(b.key, || (psize, lsize, data));
        }

        for name in &stream.deletes {
            self.delete_file(name);
        }
        for (name, table) in &stream.upserts {
            self.delete_file(name);
            for key in table.iter_keys() {
                self.ddt_mut().add_ref(key, || {
                    unreachable!("validated stream resolves every block")
                });
            }
            self.files_mut().insert(name.clone(), table.clone());
        }

        // Drop staging references.
        for b in &stream.payload {
            self.ddt_mut().release(&b.key);
        }

        // Mirror the sender's tip snapshot.
        self.snapshot(&stream.tip);
    }
}

#[cfg(test)]
mod proptests {
    use super::{SendStream, StreamBlock};
    use crate::config::PoolConfig;
    use crate::pool::ZPool;
    use proptest::prelude::*;
    use squirrel_compress::Codec;
    use squirrel_hash::cdc::CdcParams;

    /// A sender's history `s1 → s2`: the full stream of `s1` (a receiver's
    /// base), the wire image of the diff, and the pool config of both ends.
    struct Golden {
        cfg: PoolConfig,
        base: SendStream,
        diff: Vec<u8>,
    }

    impl Golden {
        fn new(src: &ZPool) -> Golden {
            let base = src.send_between(None, "s1").expect("full");
            let diff = src.send_between(Some("s1"), "s2").expect("diff").encode();
            Golden {
                cfg: *src.config(),
                base,
                diff,
            }
        }
    }

    /// A representative fixed-record history with upserts, deletes, and
    /// payload.
    fn fixed_golden() -> Golden {
        let mut src = ZPool::new(PoolConfig::new(512, Codec::Lzjb));
        src.create_file("cache-a");
        for i in 0..3u8 {
            src.write_block("cache-a", i as u64, &vec![i + 1; 512]);
        }
        src.snapshot("s1");
        src.create_file("cache-b");
        src.write_block("cache-b", 0, &vec![9u8; 512]);
        src.delete_file("cache-a");
        src.snapshot("s2");
        Golden::new(&src)
    }

    /// A CDC history: 16 blocks of content cut into ~1 KiB chunks, then
    /// re-imported behind a 64-byte prefix, so the diff's chunk table names
    /// chunks the receiver holds and chunks its payload carries.
    fn cdc_golden() -> Golden {
        let cdc = CdcParams::with_average(1024);
        let mut src = ZPool::new(PoolConfig::new(512, Codec::Lzjb).with_cdc(cdc));
        let base: Vec<u8> = (0..16 * 512u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let mut shifted = vec![0x77u8; 64];
        shifted.extend_from_slice(&base[..16 * 512 - 64]);
        let blocks = |data: &[u8]| data.chunks(512).map(<[u8]>::to_vec).collect::<Vec<_>>();
        src.import_file("img", &blocks(&base), 16 * 512);
        src.snapshot("s1");
        src.import_file("img", &blocks(&shifted), 16 * 512);
        src.snapshot("s2");
        Golden::new(&src)
    }

    /// Bytes of `wire` before its payload: header, tables and deletes.
    fn tables_end(wire: &[u8]) -> usize {
        let mut stream = SendStream::decode(wire).expect("clean wire");
        stream.payload.clear();
        stream.encode().len() - 4
    }

    /// Decode `bytes`; if that succeeds, receive the stream into a fresh
    /// pool (first brought to `golden`'s base when the stream names one)
    /// and read back every block of every file. Nothing may panic; what
    /// `recv` answers is not checked. A payload frame the wire damaged is
    /// the framed digest's to catch — `decompress` may panic on one (see
    /// squirrel-compress's `corrupt_input.rs`) — so a stream carrying one
    /// is decoded only.
    fn decode_recv_and_read(golden: &Golden, bytes: &[u8]) {
        let _ = SendStream::decode_framed(bytes);
        let Ok(stream) = SendStream::decode(bytes) else {
            return;
        };
        let diff = SendStream::decode(&golden.diff).expect("clean");
        let clean = [&golden.base.payload, &diff.payload];
        let intact = |b: &StreamBlock| {
            let same = |c: &StreamBlock| c.data.as_deref() == b.data.as_deref();
            b.data.is_none() || clean.iter().any(|payload| payload.iter().any(same))
        };
        if !stream.payload.iter().all(intact) {
            return;
        }
        let mut p = ZPool::new(golden.cfg);
        if stream.base.is_some() {
            p.recv(&golden.base).expect("clean base");
        }
        let _ = p.recv(&stream);
        let bs = golden.cfg.block_size as u64;
        for name in p.file_names() {
            // A damaged length can name exabytes: read the first blocks and
            // the first and last block of every record.
            let first = 0..p.file_len(name).unwrap_or(0).div_ceil(bs).min(64);
            let records = p.file_layout(name).expect("file");
            let ends = records.iter().flat_map(|r| {
                [r.logical_off, r.logical_off + u64::from(r.llen).max(1) - 1].map(|off| off / bs)
            });
            for b in first.chain(ends) {
                let _ = p.read_block(name, b);
                let _ = p.read_block_shared(name, b);
            }
        }
    }

    /// Flip `flips`' bits of `bytes`, each at its position modulo `within`.
    fn flip(bytes: &mut [u8], within: usize, flips: &[(u16, u8)]) {
        for &(pos, bit) in flips {
            if within == 0 {
                break;
            }
            bytes[pos as usize % within] ^= 1 << bit;
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Write { file: u8, idx: u8, fill: u8 },
        Delete { file: u8 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u8..4, 0u8..6, any::<u8>()).prop_map(|(file, idx, fill)| Op::Write { file, idx, fill }),
            1 => (0u8..4).prop_map(|file| Op::Delete { file }),
        ]
    }

    /// Every field of every chunk record — key, offset, length — nudged
    /// by each of a few steps, in a full stream (its chunks all in the
    /// payload) and in the diff (most of them held by the receiver).
    #[test]
    fn decode_survives_every_cdc_chunk_record_nudge() {
        let golden = cdc_golden();
        for clean in [golden.base.encode(), golden.diff.clone()] {
            // The one chunk table follows its sentinel and its count.
            let sentinel = clean
                .windows(4)
                .position(|w| w == [0xff; 4])
                .expect("chunk table");
            let count = clean[sentinel + 4..sentinel + 8]
                .try_into()
                .map(u32::from_le_bytes);
            let count = count.expect("chunk count");
            for record in (0..count as usize).map(|i| sentinel + 8 + 28 * i) {
                for (at, width) in [(0, 8), (16, 8), (24, 4)] {
                    for step in [1, -1, 511, -512, 2048, 1 << 31, i64::MAX, -1 << 40] {
                        let mut bytes = clean.clone();
                        let field = &mut bytes[record + at..record + at + width];
                        let mut value = [0u8; 8];
                        value[..width].copy_from_slice(field);
                        let moved = u64::from_le_bytes(value).wrapping_add(step as u64);
                        field.copy_from_slice(&moved.to_le_bytes()[..width]);
                        decode_recv_and_read(&golden, &bytes);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Streams survive the wire format exactly: any history's streams,
        /// encoded and decoded, replicate identically.
        #[test]
        fn incremental_replication_is_exact(
            epochs in proptest::collection::vec(
                proptest::collection::vec(op_strategy(), 0..8),
                1..5
            )
        ) {
            let mut src = ZPool::new(PoolConfig::new(512, Codec::Lz4));
            let mut dst = ZPool::new(PoolConfig::new(512, Codec::Lz4));
            for (e, ops) in epochs.iter().enumerate() {
                for op in ops {
                    match op {
                        Op::Write { file, idx, fill } => {
                            let name = format!("f{file}");
                            if !src.has_file(&name) {
                                src.create_file(&name);
                            }
                            src.write_block(&name, *idx as u64, &vec![*fill; 512]);
                        }
                        Op::Delete { file } => src.delete_file(&format!("f{file}")),
                    }
                }
                src.snapshot(&format!("s{e}"));
                let stream = src.send_latest().expect("send");
                // Round-trip through the binary wire format before applying.
                let stream = crate::send::SendStream::decode(&stream.encode()).expect("decode");
                dst.recv(&stream).expect("recv");
                prop_assert!(src.check_refcounts());
                prop_assert!(dst.check_refcounts());
            }
            // Replica live state == sender live state (== final snapshot).
            let src_files: Vec<String> = src.file_names().map(|s| s.to_string()).collect();
            let dst_files: Vec<String> = dst.file_names().map(|s| s.to_string()).collect();
            prop_assert_eq!(&src_files, &dst_files);
            for name in &src_files {
                prop_assert_eq!(src.file_len(name), dst.file_len(name));
                let blocks = src.file_len(name).unwrap_or(0).div_ceil(512);
                for b in 0..blocks {
                    prop_assert_eq!(src.read_block(name, b), dst.read_block(name, b));
                }
            }
        }

        /// Adversarial-input hardening: `decode` on truncated, bit-flipped,
        /// or arbitrary bytes always returns (Ok or DecodeError), never
        /// panics, and never over-allocates past the input size.
        #[test]
        fn decode_survives_truncation_and_bitflips(
            truncate_to in 0usize..400,
            flips in proptest::collection::vec((any::<u16>(), 0u8..8), 0..6)
        ) {
            let golden = fixed_golden();
            let mut bytes = golden.diff.clone();
            bytes.truncate(truncate_to.min(bytes.len()));
            let within = bytes.len();
            flip(&mut bytes, within, &flips);
            decode_recv_and_read(&golden, &bytes);
        }

        /// Completely random byte soup never panics either path.
        #[test]
        fn decode_survives_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let _ = SendStream::decode(&bytes);
            let _ = SendStream::decode_framed(&bytes);
        }

        /// Corrupted length fields in particular: clobber any aligned u32 in
        /// the image with an adversarial count and decode must fail cleanly
        /// (or succeed if the field was unused), not abort or balloon.
        #[test]
        fn decode_survives_length_field_corruption(
            offset in any::<u16>(),
            value in prop_oneof![Just(u32::MAX), Just(1 << 31), any::<u32>()]
        ) {
            let golden = fixed_golden();
            let mut bytes = golden.diff.clone();
            let i = offset as usize % (bytes.len() - 4);
            bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
            decode_recv_and_read(&golden, &bytes);
        }

        /// A CDC stream — chunk-table sentinel, chunk records, the payload
        /// chunks — bit-flipped anywhere, or only in its tables, decodes
        /// cleanly or not at all, and what it applies reads back.
        #[test]
        fn decode_survives_cdc_bitflips(
            full in any::<bool>(),
            in_tables in any::<bool>(),
            flips in proptest::collection::vec((any::<u16>(), 0u8..8), 1..6)
        ) {
            let golden = cdc_golden();
            let mut bytes = if full { golden.base.encode() } else { golden.diff.clone() };
            let within = if in_tables { tables_end(&bytes) } else { bytes.len() };
            flip(&mut bytes, within, &flips);
            decode_recv_and_read(&golden, &bytes);
        }

        /// A CDC stream cut short anywhere, or with any u32 of its tables
        /// (counts, chunk lengths, offset halves) clobbered.
        #[test]
        fn decode_survives_cdc_truncation_and_field_corruption(
            cut in any::<u16>(),
            offset in any::<u16>(),
            value in prop_oneof![Just(u32::MAX), Just(1 << 31), any::<u32>(), 0u32..8192]
        ) {
            let golden = cdc_golden();
            let mut bytes = golden.diff.clone();
            let i = offset as usize % (tables_end(&bytes) - 4);
            bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
            decode_recv_and_read(&golden, &bytes);
            bytes.truncate(cut as usize % bytes.len());
            decode_recv_and_read(&golden, &bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use squirrel_compress::Codec;

    fn pool() -> ZPool {
        ZPool::new(PoolConfig::new(512, Codec::Lzjb))
    }

    fn fill(p: &mut ZPool, name: &str, blocks: &[u8]) {
        p.create_file(name);
        for (i, &f) in blocks.iter().enumerate() {
            p.write_block(name, i as u64, &vec![f; 512]);
        }
    }

    #[test]
    fn full_stream_replicates_everything() {
        let mut src = pool();
        fill(&mut src, "cache-1", &[1, 2, 3]);
        src.snapshot("s1");
        let stream = src.send_between(None, "s1").expect("send");
        assert_eq!(stream.payload_blocks(), 3);

        let mut dst = pool();
        dst.recv(&stream).expect("recv");
        assert_eq!(dst.read_block("cache-1", 1).expect("file"), vec![2u8; 512]);
        assert_eq!(dst.latest_snapshot(), Some("s1"));
        assert!(dst.check_refcounts());
    }

    #[test]
    fn incremental_stream_carries_only_new_blocks() {
        let mut src = pool();
        fill(&mut src, "cache-1", &[1, 2, 3]);
        src.snapshot("s1");
        fill(&mut src, "cache-2", &[2, 3, 4]); // 2,3 dedup against cache-1
        src.snapshot("s2");

        let stream = src.send_between(Some("s1"), "s2").expect("send");
        assert_eq!(stream.payload_blocks(), 1, "only block '4' is new");
        assert_eq!(stream.upserts.len(), 1);
        assert!(stream.deletes.is_empty());

        let mut dst = pool();
        dst.recv(&src.send_between(None, "s1").expect("full"))
            .expect("seed");
        dst.recv(&stream).expect("incremental");
        assert_eq!(dst.read_block("cache-2", 2).expect("file"), vec![4u8; 512]);
        assert!(dst.check_refcounts());
    }

    #[test]
    fn recv_without_base_fails() {
        let mut src = pool();
        fill(&mut src, "a", &[1]);
        src.snapshot("s1");
        fill(&mut src, "b", &[2]);
        src.snapshot("s2");
        let inc = src.send_between(Some("s1"), "s2").expect("send");

        let mut lagging = pool();
        assert_eq!(
            lagging.recv(&inc),
            Err(RecvError::MissingBase("s1".to_string()))
        );
    }

    #[test]
    fn recv_duplicate_tip_fails() {
        let mut src = pool();
        fill(&mut src, "a", &[1]);
        src.snapshot("s1");
        let full = src.send_between(None, "s1").expect("send");
        let mut dst = pool();
        dst.recv(&full).expect("first");
        assert_eq!(
            dst.recv(&full),
            Err(RecvError::DuplicateTip("s1".to_string()))
        );
    }

    #[test]
    fn deletions_propagate() {
        let mut src = pool();
        fill(&mut src, "a", &[1]);
        fill(&mut src, "b", &[2]);
        src.snapshot("s1");
        src.delete_file("a");
        src.snapshot("s2");

        let mut dst = pool();
        dst.recv(&src.send_between(None, "s1").expect("full"))
            .expect("seed");
        dst.recv(&src.send_between(Some("s1"), "s2").expect("inc"))
            .expect("inc");
        assert!(!dst.has_file("a"));
        assert!(dst.has_file("b"));
        assert!(dst.check_refcounts());
    }

    #[test]
    fn send_latest_picks_last_pair() {
        let mut src = pool();
        fill(&mut src, "a", &[1]);
        src.snapshot("s1");
        fill(&mut src, "b", &[9]);
        src.snapshot("s2");
        let s = src.send_latest().expect("send");
        assert_eq!(s.base.as_deref(), Some("s1"));
        assert_eq!(s.tip, "s2");
    }

    #[test]
    fn wire_bytes_scale_with_payload() {
        let mut src = pool();
        fill(&mut src, "a", &[1]);
        src.snapshot("s1");
        fill(&mut src, "b", &[1]); // fully dedups
        src.snapshot("s2");
        fill(&mut src, "c", &[7, 8, 9]); // three new blocks
        src.snapshot("s3");
        let dedup_stream = src.send_between(Some("s1"), "s2").expect("send");
        let fresh_stream = src.send_between(Some("s2"), "s3").expect("send");
        assert!(
            fresh_stream.wire_bytes() > dedup_stream.wire_bytes(),
            "{} vs {}",
            fresh_stream.wire_bytes(),
            dedup_stream.wire_bytes()
        );
    }

    #[test]
    fn unknown_snapshots_error() {
        let src = pool();
        assert!(matches!(
            src.send_between(None, "nope"),
            Err(SendError::UnknownSnapshot(_))
        ));
    }

    #[test]
    fn wire_encode_decode_roundtrip() {
        let mut src = pool();
        fill(&mut src, "cache-a", &[1, 2, 3]);
        src.snapshot("s1");
        fill(&mut src, "cache-b", &[2, 9]);
        src.delete_file("cache-a");
        src.snapshot("s2");
        let stream = src.send_between(Some("s1"), "s2").expect("send");
        let bytes = stream.encode();
        let back = SendStream::decode(&bytes).expect("decode");
        assert_eq!(back.base, stream.base);
        assert_eq!(back.tip, stream.tip);
        assert_eq!(back.deletes, stream.deletes);
        assert_eq!(back.upserts.len(), stream.upserts.len());
        assert_eq!(back.payload.len(), stream.payload.len());

        // A receiver fed the decoded stream behaves identically.
        let mut dst = pool();
        dst.recv(&src.send_between(None, "s1").expect("full"))
            .expect("seed");
        dst.recv(&back).expect("recv decoded");
        assert!(!dst.has_file("cache-a"));
        assert_eq!(dst.read_block("cache-b", 1).expect("file"), vec![9u8; 512]);
        assert!(dst.check_refcounts());
    }

    /// Golden test: the wire encoding is byte-identical to the seed-era
    /// (pre-shared-payload) encoder. The lengths and SHA-256 digests below
    /// were captured from the seed code before `StreamBlock`/`FileMeta`
    /// switched to `Arc`-shared buffers; the zero-copy refactor must not
    /// change a single wire byte.
    #[test]
    fn wire_bytes_match_seed_golden() {
        let mut src = pool();
        fill(&mut src, "cache-a", &[1, 2, 3]);
        src.snapshot("s1");
        fill(&mut src, "cache-b", &[2, 9]);
        src.delete_file("cache-a");
        src.snapshot("s2");

        let full = src.send_between(None, "s1").expect("full").encode();
        assert_eq!(full.len(), 236);
        assert_eq!(
            squirrel_hash::ContentHash::of(&full).to_hex(),
            "aa5fcb6fa536a294f258eae0e3c073d8d85325fafaf8a27f7f5d11be3ae77e21"
        );

        let inc = src.send_between(Some("s1"), "s2").expect("inc").encode();
        assert_eq!(inc.len(), 146);
        assert_eq!(
            squirrel_hash::ContentHash::of(&inc).to_hex(),
            "244d7ca4c11273c43d5ad4cc4ddc7ce3b65ff87585ab89593dd26e43b6c253e7"
        );
    }

    #[test]
    fn framed_roundtrip_and_bitflip_detection() {
        let mut src = pool();
        fill(&mut src, "cache-a", &[1, 2, 3]);
        src.snapshot("s1");
        let stream = src.send_between(None, "s1").expect("send");
        let framed = stream.encode_framed();
        let back = SendStream::decode_framed(&framed).expect("decode framed");
        assert_eq!(back.tip, stream.tip);
        assert_eq!(back.payload.len(), stream.payload.len());

        // Every single-bit flip anywhere in the frame is detected.
        for byte in [8, framed.len() / 2, framed.len() - 1] {
            let mut bad = framed.clone();
            bad[byte] ^= 0x10;
            assert!(
                SendStream::decode_framed(&bad).is_err(),
                "flip at byte {byte} must not decode"
            );
        }
        // Wrong magic and short input are classified, not panics.
        assert_eq!(
            SendStream::decode_framed(b"tiny").unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            SendStream::decode_framed(&framed[8..]).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn recv_rejects_corrupt_payload_without_mutating() {
        let mut src = pool();
        fill(&mut src, "cache-a", &[1, 2, 3]);
        src.snapshot("s1");
        let mut stream = src.send_between(None, "s1").expect("send");
        // Corrupt one payload block's content (validly framed, wrong bytes
        // — what a stream built from a rotten source pool looks like).
        let victim = stream.payload[1].key;
        stream.payload[1].data =
            Some(squirrel_compress::compress(Codec::Lzjb, &vec![0xeeu8; 512]).into());

        let mut dst = pool();
        assert_eq!(dst.recv(&stream), Err(RecvError::CorruptPayload(victim)));
        // Transactional: nothing was applied.
        assert_eq!(dst.file_count(), 0);
        assert_eq!(dst.stats().unique_blocks, 0);
        assert_eq!(dst.latest_snapshot(), None);
        assert!(dst.check_refcounts());
    }

    #[test]
    fn recv_rejects_unresolvable_pointer_without_mutating() {
        let mut src = pool();
        fill(&mut src, "cache-a", &[1, 2]);
        src.snapshot("s1");
        let mut stream = src.send_between(None, "s1").expect("send");
        let dropped = stream.payload.pop().expect("payload").key;

        let mut dst = pool();
        assert_eq!(dst.recv(&stream), Err(RecvError::MissingBlock(dropped)));
        assert_eq!(dst.file_count(), 0);
        assert_eq!(dst.stats().unique_blocks, 0);
        assert!(dst.check_refcounts());
    }

    #[test]
    fn recv_refuses_a_frameless_block_into_a_data_retaining_pool() {
        let mut src = pool();
        fill(&mut src, "cache-a", &[1, 2]);
        src.snapshot("s1");
        let mut stream = src.send_between(None, "s1").expect("send");
        stream.payload[0].data = None;
        let victim = stream.payload[0].key;
        let mut dst = pool();
        assert_eq!(dst.recv(&stream), Err(RecvError::MissingBlock(victim)));
        assert_eq!(dst.file_count(), 0);
        assert_eq!(dst.stats().unique_blocks, 0);
        // A pool that keeps no bytes takes it.
        let mut accounting = ZPool::new(PoolConfig::new(512, Codec::Lzjb).accounting_only());
        accounting.recv(&stream).expect("accounting-only recv");
        assert!(accounting.check_refcounts());
    }

    #[test]
    fn adversarial_length_fields_fail_cleanly() {
        let mut src = pool();
        fill(&mut src, "f", &[1]);
        src.snapshot("s");
        let bytes = src.send_between(None, "s").expect("send").encode();
        // Overwrite the upsert-count field (right after magic + base flag +
        // tip string) with u32::MAX: must error, not allocate 4 G entries.
        let tip_end = 8 + 1 + 4 + 1; // magic, no-base flag, len("s")=1, "s"
        let mut bad = bytes.clone();
        bad[tip_end..tip_end + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            SendStream::decode(&bad).unwrap_err(),
            DecodeError::Truncated
        );
        // A huge string length dies the same way.
        let mut bad = bytes;
        bad[8 + 1..8 + 1 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // (base flag 0 means tip string comes first; clobber its length.)
        assert!(SendStream::decode(&bad).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            SendStream::decode(b"not a stream").unwrap_err(),
            DecodeError::BadMagic
        );
        assert_eq!(
            SendStream::decode(b"SQRL").unwrap_err(),
            DecodeError::Truncated
        );
        let mut src = pool();
        fill(&mut src, "f", &[1]);
        src.snapshot("s");
        let mut bytes = src.send_between(None, "s").expect("send").encode();
        bytes.truncate(bytes.len() - 3);
        assert_eq!(
            SendStream::decode(&bytes).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn encoded_size_tracks_wire_estimate() {
        let mut src = pool();
        fill(&mut src, "cache", &[1, 2, 3, 4, 5]);
        src.snapshot("s1");
        let stream = src.send_between(None, "s1").expect("send");
        let actual = stream.encode().len() as u64;
        let estimate = stream.wire_bytes();
        // The estimate is the accounting number; it must be within 2x of
        // the real serialization.
        assert!(
            actual <= estimate * 2 && estimate <= actual * 2,
            "{actual} vs {estimate}"
        );
    }

    #[test]
    fn apply_all_on_pool_matches_serial_recv() {
        use squirrel_hash::par::WorkerPool;
        let mut src = pool();
        fill(&mut src, "cache-1", &[1, 2, 3, 2]);
        src.snapshot("s1");
        let stream = src.send_between(None, "s1").expect("send");
        let mut reference = pool();
        reference.recv(&stream).expect("recv");

        for threads in [1, 2, 8] {
            let workers = WorkerPool::new(threads);
            let mut pools: Vec<ZPool> = (0..5).map(|_| pool()).collect();
            let results = stream.apply_all_on(pools.iter_mut().collect(), &workers);
            assert_eq!(results.len(), 5);
            assert!(results.iter().all(|r| r.is_ok()), "threads={threads}");
            for p in &pools {
                assert_eq!(p.stats(), reference.stats());
                assert!(p.check_refcounts());
                assert_eq!(
                    p.read_block("cache-1", 1),
                    reference.read_block("cache-1", 1)
                );
            }
            // The pool is reusable: a second fan-out over fresh receivers.
            let mut again: Vec<ZPool> = (0..3).map(|_| pool()).collect();
            let results = stream.apply_all_on(again.iter_mut().collect(), &workers);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        // Errors surface per pool, in pool order.
        let workers = WorkerPool::new(2);
        let mut good = pool();
        let mut dup = pool();
        dup.recv(&stream).expect("pre-seed");
        let results = stream.apply_all_on(vec![&mut good, &mut dup], &workers);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(RecvError::DuplicateTip("s1".to_string())));
    }

    #[test]
    fn cdc_streams_roundtrip_and_replicate() {
        use squirrel_hash::cdc::CdcParams;
        let bs = 512;
        let cfg = || PoolConfig::new(bs, Codec::Lzjb).with_cdc(CdcParams::with_average(1024));
        let mut src = ZPool::new(cfg());
        let blocks: Vec<Vec<u8>> = (0..16)
            .map(|i| (0..bs).map(|j| ((i * 37 + j * 11) % 251) as u8).collect())
            .collect();
        src.import_file("img", &blocks, 16 * bs as u64);
        src.snapshot("s1");
        let stream = src.send_between(None, "s1").expect("send");
        let on_wire = &stream.upserts[0].1;
        assert!(
            matches!(on_wire.records, Records::Chunks(_)),
            "chunk table on the wire"
        );
        // The chunk table survives the binary wire format exactly.
        let decoded = SendStream::decode(&stream.encode()).expect("decode");
        assert_eq!(&decoded.upserts[0].1, on_wire);
        let mut dst = ZPool::new(cfg());
        dst.recv(&decoded).expect("recv");
        for i in 0..16u64 {
            assert_eq!(
                dst.read_block("img", i),
                src.read_block("img", i),
                "block {i}"
            );
        }
        assert!(dst.check_refcounts());
        assert!(
            dst.scrub().is_clean(),
            "receiver DDT carries correct lsizes"
        );
        // An incremental on top: re-import with a shifted prefix, send s1→s2.
        let mut v2 = vec![vec![9u8; bs]];
        v2.extend(blocks[..15].iter().cloned());
        src.import_file("img", &v2, 16 * bs as u64);
        src.snapshot("s2");
        let inc = src.send_between(Some("s1"), "s2").expect("inc");
        let inc = SendStream::decode(&inc.encode()).expect("decode");
        dst.recv(&inc).expect("recv inc");
        for i in 0..16u64 {
            assert_eq!(
                dst.read_block("img", i),
                src.read_block("img", i),
                "v2 block {i}"
            );
        }
        assert!(dst.check_refcounts());
    }

    #[test]
    fn recv_refuses_a_diff_once_the_pool_moved_past_its_base() {
        let mut src = pool();
        fill(&mut src, "a", &[1]);
        src.snapshot("s1");
        fill(&mut src, "b", &[2]);
        src.snapshot("s2");
        fill(&mut src, "c", &[3]);
        src.snapshot("s3");
        let mut dst = pool();
        dst.recv(&src.send_between(None, "s1").expect("full"))
            .expect("seed");
        dst.recv(&src.send_between(Some("s1"), "s2").expect("inc"))
            .expect("s2");
        // The pool still *holds* s1, but it sits at s2: s1→s3 applied on top
        // would be a state the sender never had.
        let skip = src.send_between(Some("s1"), "s3").expect("s1→s3");
        assert_eq!(
            dst.recv(&skip),
            Err(RecvError::MissingBase("s1".to_string()))
        );
        assert_eq!(dst.snapshot_tags(), ["s1", "s2"]);
        dst.recv(&src.send_between(Some("s2"), "s3").expect("s2→s3"))
            .expect("in order");
        assert!(dst.check_refcounts());
    }

    // --- verify once, apply N times -----------------------------------------

    /// 4 KiB records, so a few dozen new blocks are enough logical payload
    /// for `verify` to split into several shares.
    const BS: usize = 4096;

    fn sized(block_size: usize) -> ZPool {
        ZPool::new(PoolConfig::new(block_size, Codec::Lzjb))
    }

    fn fill_sized(p: &mut ZPool, name: &str, fills: impl Iterator<Item = u8>) {
        p.create_file(name);
        for (i, f) in fills.enumerate() {
            p.write_block(name, i as u64, &vec![f; BS]);
        }
    }

    /// Sender history `s1 = {a}`, `s2 = {a, b}` where `b` shares two blocks
    /// with `a` (so the diff leans on the base) and adds 60 new ones:
    /// `(full s1, diff s1→s2)`.
    fn history() -> (SendStream, SendStream) {
        let mut src = sized(BS);
        fill_sized(&mut src, "a", 1..=3);
        src.snapshot("s1");
        fill_sized(&mut src, "b", (2..=3).chain(40..100));
        src.snapshot("s2");
        (
            src.send_between(None, "s1").expect("full"),
            src.send_between(Some("s1"), "s2").expect("diff"),
        )
    }

    /// `stream` as a receiver gets it: the same records, decoded off the
    /// wire into fresh frames that nothing has proved yet.
    fn off_the_wire(stream: &SendStream) -> SendStream {
        SendStream::decode(&stream.encode()).expect("round trip")
    }

    /// Swap payload block `i` for a validly framed block of other content.
    fn corrupt(stream: &mut SendStream, i: usize) -> BlockKey {
        stream.payload[i].data =
            Some(squirrel_compress::compress(Codec::Lzjb, &vec![0xee_u8; BS]).into());
        stream.payload[i].key
    }

    fn state(p: &ZPool) -> (crate::SpaceStats, Vec<String>, bool) {
        let tags = p.snapshot_tags().into_iter().map(String::from).collect();
        (p.stats(), tags, p.check_refcounts())
    }

    /// `apply_all_on` over `build()`'s pools returns the results and leaves
    /// the states of an in-order `recv` loop over the same pools, at any
    /// thread count. Returns the serial results for the caller to pin.
    fn fanout_matches_serial(
        stream: &SendStream,
        build: &dyn Fn() -> Vec<ZPool>,
    ) -> Vec<Result<(), RecvError>> {
        let mut serial = build();
        let expected: Vec<_> = serial.iter_mut().map(|p| p.recv(stream)).collect();
        for threads in [1, 2, 8] {
            let mut pools = build();
            let got = stream.apply_all_on(pools.iter_mut().collect(), &WorkerPool::new(threads));
            assert_eq!(got, expected, "threads={threads}");
            for (i, (p, s)) in pools.iter().zip(&serial).enumerate() {
                assert_eq!(state(p), state(s), "threads={threads} pool {i}");
            }
        }
        expected
    }

    /// Receivers of the diff: in sync, never seeded, already at the tip, in
    /// sync but with the base file purged (the diff's shared blocks are
    /// gone), and at twice the record size with a base snapshot of its own
    /// (every payload frame inflates short of its records there).
    fn mixed_receivers(full: &SendStream, diff: &SendStream) -> Vec<ZPool> {
        let seeded = || {
            let mut p = sized(BS);
            p.recv(full).expect("seed");
            p
        };
        let mut at_tip = seeded();
        at_tip.recv(diff).expect("tip");
        let mut purged = seeded();
        assert!(purged.purge_file("a"));
        let mut wide = sized(2 * BS);
        wide.snapshot("s1");
        vec![seeded(), sized(BS), at_tip, purged, wide]
    }

    #[test]
    fn fanout_over_mixed_receivers_matches_serial_recv() {
        let (full, diff) = history();
        let results = fanout_matches_serial(&diff, &|| mixed_receivers(&full, &diff));
        assert_eq!(results[0], Ok(()));
        assert_eq!(results[1], Err(RecvError::MissingBase("s1".to_string())));
        assert_eq!(results[2], Err(RecvError::DuplicateTip("s2".to_string())));
        assert!(
            matches!(results[3], Err(RecvError::MissingBlock(_))),
            "{:?}",
            results[3]
        );
        let first = diff.payload[0].key;
        assert_eq!(results[4], Err(RecvError::CorruptPayload(first)));

        // One corrupt payload block: whoever gets as far as the payload
        // reports it — after tip and base, before pointer resolution.
        let mut bad = diff.clone();
        let victim = corrupt(&mut bad, 7);
        let results = fanout_matches_serial(&bad, &|| mixed_receivers(&full, &diff));
        assert_eq!(results[0], Err(RecvError::CorruptPayload(victim)));
        assert_eq!(results[1], Err(RecvError::MissingBase("s1".to_string())));
        assert_eq!(results[2], Err(RecvError::DuplicateTip("s2".to_string())));
        assert_eq!(
            results[3],
            Err(RecvError::CorruptPayload(victim)),
            "payload before pointers"
        );
        assert_eq!(results[4], Err(RecvError::CorruptPayload(first)));
    }

    #[test]
    fn a_verdict_for_one_record_size_is_not_trusted_at_another() {
        let (full, _) = history();
        // An lzjb frame decoded for half the record size fails its hash,
        // and for twice it comes out short of the record; only the sender's
        // size passes. So which pool leads the fan-out (the stream is
        // verified for *its* size) must not leak into any other pool's
        // result.
        for sizes in [
            [BS, BS / 2, 2 * BS],
            [BS / 2, BS, 2 * BS],
            [2 * BS, BS / 2, BS],
        ] {
            let results =
                fanout_matches_serial(&full, &|| sizes.iter().map(|&bs| sized(bs)).collect());
            for (bs, r) in sizes.iter().zip(&results) {
                assert_eq!(r.is_ok(), *bs == BS, "record size {bs}: {r:?}");
            }
        }
    }

    #[test]
    fn fanout_of_a_cdc_stream_matches_serial_recv() {
        use squirrel_hash::cdc::CdcParams;
        let cdc = |bs: usize| {
            ZPool::new(PoolConfig::new(bs, Codec::Lzjb).with_cdc(CdcParams::with_average(2048)))
        };
        let mut src = cdc(BS);
        let blocks: Vec<Vec<u8>> = (0..48usize)
            .map(|i| {
                (0..BS)
                    .map(|j| ((i * 37 + j * 11 + (i * j) % 13) % 251) as u8)
                    .collect()
            })
            .collect();
        src.import_file("img", &blocks, (48 * BS) as u64);
        src.snapshot("s1");
        let full = src.send_between(None, "s1").expect("send");
        assert!(matches!(full.upserts[0].1.records, Records::Chunks(_)));
        // Chunk records carry their own lengths, so the record size of the
        // receiver does not enter the proof.
        let results = fanout_matches_serial(&full, &|| vec![cdc(BS), cdc(BS / 2), cdc(BS)]);
        assert!(results.iter().all(|r| r.is_ok()), "{results:?}");
        let mut bad = full.clone();
        let victim = corrupt(&mut bad, 3);
        let results = fanout_matches_serial(&bad, &|| vec![cdc(BS), cdc(BS / 2)]);
        assert_eq!(results, vec![Err(RecvError::CorruptPayload(victim)); 2]);
    }

    #[test]
    fn first_corrupt_block_in_payload_order_wins_at_any_thread_count() {
        let (_, mut diff) = history();
        assert_eq!(diff.payload_blocks(), 60);
        let late = corrupt(&mut diff, 50);
        let early = corrupt(&mut diff, 10);
        assert_ne!(early, late);
        let registry = squirrel_obs::MetricsRegistry::new();
        let on = |workers: &WorkerPool| {
            let mut p = sized(BS);
            p.set_worker_pool(workers.clone());
            p.set_metrics(&registry.handle());
            p
        };
        for threads in [1, 2, 8] {
            let workers = WorkerPool::new(threads);
            assert_eq!(
                on(&workers).verify(&off_the_wire(&diff)).err(),
                Some(RecvError::CorruptPayload(early)),
                "threads={threads}"
            );
            // 240 KiB of unproved payload really is split across workers.
            assert_eq!(
                workers.spawned_workers() > 0,
                threads > 1,
                "threads={threads}"
            );
        }
        // A clean stream's verified bytes are its logical payload, however
        // the ranges were cut.
        let covered = || {
            registry
                .snapshot()
                .counter("zpool_recv_verified_bytes_total")
        };
        assert_eq!(covered(), Some(0), "a rejected stream covers nothing");
        let (_, clean) = history();
        for threads in [1, 2, 8] {
            let before = covered().expect("series");
            assert!(on(&WorkerPool::new(threads)).verify(&clean).is_ok());
            assert_eq!(
                covered(),
                Some(before + 60 * BS as u64),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn a_lone_recv_splits_its_proof_over_unproved_frames_only() {
        let (full, mut diff) = history();
        corrupt(&mut diff, 50);
        let early = corrupt(&mut diff, 10);
        let registry = squirrel_obs::MetricsRegistry::new();
        let hashed = || {
            registry
                .snapshot()
                .counter("zpool_verify_hashed_bytes_total")
                .expect("series")
        };
        // A receiver at the diff's base, proving on `workers`.
        let at_base = |workers: &WorkerPool| {
            let mut p = sized(BS);
            p.recv(&full).expect("seed");
            p.set_worker_pool(workers.clone());
            p.set_metrics(&registry.handle());
            p
        };
        for threads in [1, 2, 8] {
            let workers = WorkerPool::new(threads);
            let mut p = at_base(&workers);
            let (before, hashed_before) = (state(&p), hashed());
            assert_eq!(
                p.recv(&off_the_wire(&diff)),
                Err(RecvError::CorruptPayload(early)),
                "threads={threads}"
            );
            assert_eq!(state(&p), before, "threads={threads}: pool untouched");
            // Every block is inflated and hashed, past both offenders,
            // however the payload was cut.
            assert_eq!(
                hashed() - hashed_before,
                60 * BS as u64,
                "threads={threads}"
            );
            assert_eq!(
                workers.spawned_workers() > 0,
                threads > 1,
                "threads={threads}"
            );
        }
        // A clean diff off the wire: the first receiver proves its frames;
        // a re-delivery of the same frames hashes nothing and wakes no one.
        let (_, clean) = history();
        let wire = off_the_wire(&clean);
        at_base(&WorkerPool::new(8))
            .recv(&wire)
            .expect("first delivery");
        let workers = WorkerPool::new(8);
        let mut p = at_base(&workers);
        let hashed_before = hashed();
        p.recv(&wire).expect("re-delivery");
        assert_eq!(hashed(), hashed_before);
        assert_eq!(workers.spawned_workers(), 0);
    }

    #[test]
    fn what_a_verification_hashes_does_not_depend_on_the_thread_count() {
        const HASHED: &str = "zpool_verify_hashed_bytes_total";
        const COVERED: &str = "zpool_recv_verified_bytes_total";
        for threads in [1, 2, 8] {
            let registry = squirrel_obs::MetricsRegistry::new();
            let count = |series| registry.snapshot().counter(series).expect("series");
            let fan_out = |stream: &SendStream, n: usize| {
                let mut pools: Vec<ZPool> = (0..n).map(|_| sized(BS)).collect();
                for p in &mut pools {
                    p.set_metrics(&registry.handle());
                }
                stream.apply_all_on(pools.iter_mut().collect(), &WorkerPool::new(threads))
            };
            // A fresh sender's frames are unproven: the first fan-out
            // hashes each once, a second one covers them again for free.
            let (full, _) = history();
            assert!(fan_out(&full, 3).iter().all(|r| r.is_ok()));
            assert_eq!(
                (count(HASHED), count(COVERED)),
                (3 * BS as u64, 3 * BS as u64)
            );
            assert!(fan_out(&full, 3).iter().all(|r| r.is_ok()));
            assert_eq!(
                (count(HASHED), count(COVERED)),
                (3 * BS as u64, 6 * BS as u64)
            );
            // A rejected stream: every share runs to its end, so all 60
            // blocks are hashed however they were cut, and the pools' own
            // checks afterwards find everything already proved.
            let (_, mut diff) = history();
            corrupt(&mut diff, 50);
            let early = corrupt(&mut diff, 10);
            let mut seeded: Vec<ZPool> = (0..3).map(|_| sized(BS)).collect();
            for p in &mut seeded {
                p.recv(&full).expect("seed");
                p.set_metrics(&registry.handle());
            }
            let results = diff.apply_all_on(seeded.iter_mut().collect(), &WorkerPool::new(threads));
            assert_eq!(results, vec![Err(RecvError::CorruptPayload(early)); 3]);
            assert_eq!(
                (count(HASHED), count(COVERED)),
                (63 * BS as u64, 6 * BS as u64),
                "threads={threads}"
            );
        }
    }

    // --- chunk tables off the wire ------------------------------------------

    /// A hand-built incremental `s1 → s2` that upserts file `evil` of length
    /// `len` with the `(key, logical_off, len)` chunk table `chunks` and
    /// carries no payload, encoded as the wire format lays it out.
    fn chunked_diff(len: u64, chunks: &[(BlockKey, u64, u32)]) -> Vec<u8> {
        let mut out = STREAM_MAGIC.to_vec();
        out.push(1);
        put_string(&mut out, "s1");
        put_string(&mut out, "s2");
        out.extend_from_slice(&1u32.to_le_bytes());
        put_string(&mut out, "evil");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&CHUNKED_SENTINEL.to_le_bytes());
        out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
        for &(key, off, clen) in chunks {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&off.to_le_bytes());
            out.extend_from_slice(&clen.to_le_bytes());
        }
        out.extend_from_slice(&0u32.to_le_bytes()); // deletes
        out.extend_from_slice(&0u32.to_le_bytes()); // payload
        out
    }

    /// A CDC receiver holding a sender's full stream of file `img` (16
    /// blocks of 512 B), and `img`'s chunks as `(key, logical_off, len)`.
    fn cdc_receiver() -> (ZPool, Vec<(BlockKey, u64, u32)>) {
        use squirrel_hash::cdc::CdcParams;
        let cfg = PoolConfig::new(512, Codec::Lzjb).with_cdc(CdcParams::with_average(1024));
        let mut src = ZPool::new(cfg);
        let blocks: Vec<Vec<u8>> = (0..16)
            .map(|i| (0..512).map(|j| ((i * 37 + j * 11) % 251) as u8).collect())
            .collect();
        src.import_file("img", &blocks, 16 * 512);
        src.snapshot("s1");
        let mut dst = ZPool::new(cfg);
        dst.recv(&src.send_between(None, "s1").expect("send"))
            .expect("recv");
        let Records::Chunks(chunks) = &dst.files()["img"].records else {
            panic!("a CDC import is chunked");
        };
        let chunks = chunks
            .iter()
            .map(|c| (c.key, c.logical_off, c.len))
            .collect();
        (dst, chunks)
    }

    #[test]
    fn recv_refuses_a_chunk_longer_than_the_record_it_names() {
        let (mut dst, chunks) = cdc_receiver();
        assert!(chunks.len() >= 2, "{chunks:?}");
        let (key, _, len) = chunks[0];
        let before = state(&dst);
        let long = SendStream::decode(&chunked_diff(16 * 512, &[(key, 0, len + 2048)]))
            .expect("a sorted table decodes");
        assert_eq!(dst.recv(&long), Err(RecvError::ChunkLength(key)));
        assert_eq!(state(&dst), before, "nothing applied");
        // The same chunk at its own length is taken and reads as `img` does.
        let right = SendStream::decode(&chunked_diff(16 * 512, &[(key, 0, len)])).expect("decode");
        dst.recv(&right).expect("recv");
        for b in 0..16 {
            let covered = b * 512 < u64::from(len);
            let want = if covered {
                dst.read_block("img", b)
            } else {
                Some(vec![0; 512])
            };
            assert_eq!(dst.read_block("evil", b), want, "block {b}");
        }
    }

    /// Swap payload block `i` of `stream` for the first half of its own
    /// content, stored raw under that half's key, and point every record
    /// that named the block at the new key. The frame proves against its
    /// key but inflates short of the record. Returns the new key.
    fn shorten_payload_block(stream: &mut SendStream, block_size: u32, i: usize) -> BlockKey {
        let old = stream.payload[i].key;
        let lsize = stream.referenced_lsizes(block_size)[&old] as usize;
        let frame = stream.payload[i]
            .data
            .as_ref()
            .expect("data-retaining sender");
        let half = &squirrel_compress::decompress(frame, lsize)[..lsize / 2];
        let key = ContentHash::of(half).short();
        let raw = squirrel_compress::compress(Codec::Off, half);
        stream.payload[i] = StreamBlock {
            key,
            psize: raw.len() as u32,
            data: Some(raw.into()),
        };
        for (_, table) in &mut stream.upserts {
            let rename = |k: &mut BlockKey| {
                if *k == old {
                    *k = key;
                }
            };
            match &mut table.records {
                Records::Blocks(ptrs) => Arc::make_mut(ptrs).iter_mut().flatten().for_each(rename),
                Records::Chunks(chunks) => Arc::make_mut(chunks)
                    .iter_mut()
                    .for_each(|c| rename(&mut c.key)),
            }
        }
        key
    }

    #[test]
    fn recv_refuses_a_frame_that_inflates_short_of_its_record() {
        use squirrel_hash::cdc::CdcParams;
        let fixed = PoolConfig::new(512, Codec::Lzjb);
        let cdc = fixed.with_cdc(CdcParams::with_average(1024));
        for cfg in [fixed, cdc] {
            let mut src = ZPool::new(cfg);
            let blocks: Vec<Vec<u8>> = (0..8)
                .map(|i| (0..512).map(|j| ((i * 37 + j * 11) % 251) as u8).collect())
                .collect();
            src.import_file("img", &blocks, 8 * 512);
            src.snapshot("s1");
            let mut stream = src.send_between(None, "s1").expect("send");
            let short = shorten_payload_block(&mut stream, 512, 0);
            let mut dst = ZPool::new(cfg);
            let before = state(&dst);
            assert_eq!(
                dst.recv(&stream),
                Err(RecvError::CorruptPayload(short)),
                "{cfg:?}"
            );
            assert_eq!(state(&dst), before, "nothing applied");
        }
    }

    #[test]
    fn decode_refuses_an_unsorted_overlapping_or_outlying_chunk_table() {
        let (mut dst, chunks) = cdc_receiver();
        assert!(chunks.len() >= 2, "{chunks:?}");
        let ((k0, off0, len0), (k1, off1, len1)) = (chunks[0], chunks[1]);
        let file = 16 * 512;
        for (len, bad) in [
            (file, vec![chunks[1], chunks[0]]),
            (file, vec![(k0, off0, len0 + 1), (k1, off1, len1)]),
            (file, vec![(k0, file, len0)]),
            (u64::MAX, vec![(k0, u64::MAX - 1, len0)]),
        ] {
            let wire = chunked_diff(len, &bad);
            let refused = SendStream::decode(&wire).err();
            assert_eq!(refused, Some(DecodeError::BadChunkTable), "{bad:?}");
        }
        // In order, the same two chunks read back where they belong.
        let sorted = SendStream::decode(&chunked_diff(16 * 512, &chunks[..2])).expect("decode");
        dst.recv(&sorted).expect("recv");
        assert_eq!(dst.read_block("evil", 0), dst.read_block("img", 0));
        assert_ne!(dst.read_block("evil", 0), Some(vec![0; 512]));
    }

    #[test]
    fn chain_of_increments_matches_direct_state() {
        let mut src = pool();
        let mut dst = pool();
        for step in 0..5u8 {
            fill(&mut src, &format!("cache-{step}"), &[step, step + 1]);
            src.snapshot(&format!("s{step}"));
            let stream = src.send_latest().expect("send");
            dst.recv(&stream).expect("recv");
        }
        assert_eq!(dst.file_count(), 5);
        for step in 0..5u8 {
            assert_eq!(
                dst.read_block(&format!("cache-{step}"), 0).expect("file"),
                vec![step; 512]
            );
        }
        assert!(dst.check_refcounts());
    }
}
