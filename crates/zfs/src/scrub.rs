//! Pool scrubbing: ZFS's end-to-end integrity walk.
//!
//! Every stored record must decompress and hash to its content-address
//! key; a mismatch means the stored bytes no longer are what the dedup
//! table says they are (bit rot, torn write, or a buggy codec). A record is
//! proved once per buffer ([`Frame::content_key`]): the walk re-hashes only
//! what nothing has proved yet — a rotted or repaired record is a new
//! buffer. Squirrel inherits this for free by running on a checksumming
//! store — replicated ccVolumes make repair as easy as re-fetching from
//! any peer.

use crate::ddt::{BlockKey, Frame};
use crate::pool::ZPool;
use squirrel_compress::compress;

/// Result of one scrub pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct ScrubReport {
    /// Unique records proved or found corrupt.
    pub blocks_checked: u64,
    /// Logical bytes of those records — covered by a proof, whether this
    /// pass hashed them or an earlier one did.
    pub bytes_verified: u64,
    /// Records whose content no longer matches their key.
    pub corrupt: Vec<BlockKey>,
    /// Records with no stored bytes (an accounting-only pool): nothing to
    /// prove either way, so neither checked nor corrupt.
    pub unverifiable: u64,
}

impl ScrubReport {
    /// No record was found corrupt (unverifiable ones are not).
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

impl ZPool {
    /// Walk every unique record and check that its stored bytes hash to its
    /// dedup key.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut hashed = 0u64;
        for (key, entry) in self.ddt().iter() {
            let Some(frame) = &entry.data else {
                report.unverifiable += 1;
                continue;
            };
            report.blocks_checked += 1;
            report.bytes_verified += entry.lsize as u64;
            if frame.content_key(entry.lsize, &mut hashed) != Some(*key) {
                report.corrupt.push(*key);
            }
        }
        report.corrupt.sort_unstable();
        self.meters.scrub_blocks.add(report.blocks_checked);
        self.meters.scrub_bytes.add(report.bytes_verified);
        self.meters.verify_hashed_bytes.add(hashed);
        report
    }

    /// Fault hook: overwrite the stored payload of `key` with a validly
    /// framed record of *different* content, simulating silent on-disk
    /// corruption that only a checksum walk can catch. Space accounting
    /// follows the garbage record's size, as it would on a real disk.
    /// Returns `false` if the key is not present.
    pub fn inject_corruption(&mut self, key: BlockKey) -> bool {
        let Some(entry) = self.ddt().get(&key) else {
            return false;
        };
        // Garbage of the record's own logical size so the scrub walk
        // decompresses it at the right length (CDC records vary).
        let lsize = entry.lsize as usize;
        // Deterministic garbage derived from the key.
        let mut garbage = vec![0u8; lsize];
        for (i, b) in garbage.iter_mut().enumerate() {
            *b = (key as u8).wrapping_add(i as u8).wrapping_mul(31) | 1;
        }
        let frame = compress(self.config().codec, &garbage);
        // A fresh buffer: whatever was proved about the old one is gone.
        self.ddt_mut()
            .replace_payload(key, frame.len() as u32, Some(frame.into()))
    }

    /// Fault hook: corrupt the `nth` unique block in key order (mod the
    /// block count, so any `u64` picks a victim deterministically). Returns
    /// the corrupted key, or `None` for an empty pool.
    pub fn corrupt_nth_block(&mut self, nth: u64) -> Option<BlockKey> {
        let mut keys: Vec<BlockKey> = self.ddt().iter().map(|(k, _)| *k).collect();
        if keys.is_empty() {
            return None;
        }
        keys.sort_unstable();
        let key = keys[(nth % keys.len() as u64) as usize];
        self.inject_corruption(key).then_some(key)
    }

    /// The stored compressed record of `key`: `(psize, frame)`. `None` when
    /// the key is absent or the pool is accounting-only. This is what a
    /// repair peer serves to a node whose copy of the block rotted.
    pub fn payload_of(&self, key: BlockKey) -> Option<(u32, Frame)> {
        let e = self.ddt().get(&key)?;
        Some((e.psize, e.data.clone()?))
    }

    /// Install a replacement payload for a corrupted block, verifying first
    /// that the decompressed content actually hashes to `key` — a repair
    /// source that is itself corrupt is rejected. Returns `true` when the
    /// block was repaired.
    pub fn repair_block(&mut self, key: BlockKey, psize: u32, frame: &Frame) -> bool {
        let Some(entry) = self.ddt().get(&key) else {
            return false;
        };
        let mut hashed = 0u64;
        let intact = frame.content_key(entry.lsize, &mut hashed) == Some(key);
        self.meters.verify_hashed_bytes.add(hashed);
        intact
            && self
                .ddt_mut()
                .replace_payload(key, psize, Some(frame.clone()))
    }

    /// Is every nonzero block of `name` intact (stored bytes still hash to
    /// their key)? `None` when the file does not exist. The warm boot path
    /// runs this before trusting a local cache; it is a per-file slice of
    /// [`scrub`](Self::scrub). A record with no stored bytes cannot be
    /// proved, so an accounting-only pool's files are never intact.
    pub fn file_is_intact(&self, name: &str) -> Option<bool> {
        let table = self.files().get(name)?;
        let mut hashed = 0u64;
        let intact = table.iter_keys().all(|key| {
            let entry = self.entry(&key);
            entry
                .data
                .as_ref()
                .is_some_and(|frame| frame.content_key(entry.lsize, &mut hashed) == Some(key))
        });
        self.meters.verify_hashed_bytes.add(hashed);
        Some(intact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolConfig;
    use squirrel_compress::Codec;

    fn pool_with_data() -> (ZPool, Vec<BlockKey>) {
        let mut p = ZPool::new(PoolConfig::new(512, Codec::Lzjb));
        p.create_file("f");
        for i in 0..6u8 {
            p.write_block("f", i as u64, &vec![i + 1; 512]);
        }
        let keys: Vec<BlockKey> = p
            .block_refs("f")
            .expect("file")
            .into_iter()
            .flatten()
            .map(|r| r.key)
            .collect();
        (p, keys)
    }

    #[test]
    fn clean_pool_scrubs_clean() {
        let (p, keys) = pool_with_data();
        let r = p.scrub();
        assert!(r.is_clean());
        assert_eq!(r.blocks_checked, keys.len() as u64);
        assert_eq!(r.bytes_verified, keys.len() as u64 * 512);
    }

    #[test]
    fn injected_corruption_is_found() {
        let (mut p, keys) = pool_with_data();
        assert!(p.inject_corruption(keys[2]));
        assert!(p.inject_corruption(keys[4]));
        let r = p.scrub();
        assert_eq!(r.corrupt.len(), 2);
        assert!(r.corrupt.contains(&keys[2]));
        assert!(r.corrupt.contains(&keys[4]));
    }

    #[test]
    fn inject_on_missing_key_is_noop() {
        let (mut p, _) = pool_with_data();
        assert!(!p.inject_corruption(0xdead_beef));
        assert!(p.scrub().is_clean());
    }

    #[test]
    fn corruption_keeps_physical_accounting_exact() {
        let (mut p, keys) = pool_with_data();
        p.inject_corruption(keys[1]);
        let recomputed: u64 = p.ddt().iter().map(|(_, e)| e.psize as u64).sum();
        assert_eq!(p.stats().physical_bytes, recomputed);
    }

    #[test]
    fn repair_restores_scrub_clean() {
        let (mut p, keys) = pool_with_data();
        let (psize, frame) = p.payload_of(keys[3]).expect("intact payload");
        assert!(p.inject_corruption(keys[3]));
        assert!(!p.scrub().is_clean());
        assert_eq!(p.file_is_intact("f"), Some(false));
        assert!(p.repair_block(keys[3], psize, &frame));
        assert!(p.scrub().is_clean());
        assert_eq!(p.file_is_intact("f"), Some(true));
        assert_eq!(p.read_block("f", 3).expect("file"), vec![4u8; 512]);
    }

    #[test]
    fn repair_rejects_corrupt_source() {
        let (mut p, keys) = pool_with_data();
        let mut donor = {
            let (d, _) = pool_with_data();
            d
        };
        donor.inject_corruption(keys[0]);
        let (psize, bad_frame) = donor.payload_of(keys[0]).expect("payload");
        p.inject_corruption(keys[0]);
        assert!(
            !p.repair_block(keys[0], psize, &bad_frame),
            "a corrupt donor must not be installed"
        );
        assert!(!p.scrub().is_clean(), "victim still corrupt");
        // Unknown keys are refused too.
        assert!(!p.repair_block(0xdead_beef, psize, &bad_frame));
    }

    #[test]
    fn corrupt_nth_block_is_deterministic() {
        let (mut a, _) = pool_with_data();
        let (mut b, _) = pool_with_data();
        let ka = a.corrupt_nth_block(41).expect("victim");
        let kb = b.corrupt_nth_block(41).expect("victim");
        assert_eq!(ka, kb, "same nth picks the same key");
        assert_eq!(a.scrub().corrupt, vec![ka]);
        // nth wraps mod the block count.
        let (mut c, _) = pool_with_data();
        let n = c.ddt().len() as u64;
        assert_eq!(c.corrupt_nth_block(41 + 7 * n), Some(ka));
        // The victim is a function of the key set, not of the DDT's
        // insertion history: a pool that wrote the same blocks in reverse
        // picks the same keys and scrubs to the same sorted list.
        let reversed = || {
            let mut p = ZPool::new(PoolConfig::new(512, Codec::Lzjb));
            p.create_file("f");
            for i in (0..6u8).rev() {
                p.write_block("f", i as u64, &vec![i + 1; 512]);
            }
            p
        };
        for nth in 0..n {
            let (mut fwd, _) = pool_with_data();
            assert_eq!(
                fwd.corrupt_nth_block(nth),
                reversed().corrupt_nth_block(nth)
            );
        }
        let (mut fwd, _) = pool_with_data();
        let mut rev = reversed();
        for nth in [1, 4] {
            assert_eq!(fwd.corrupt_nth_block(nth), rev.corrupt_nth_block(nth));
        }
        let corrupt = fwd.scrub().corrupt;
        assert_eq!(corrupt.len(), 2);
        assert_eq!(corrupt, rev.scrub().corrupt);
        // Empty pool has no victim.
        let mut empty = ZPool::new(PoolConfig::new(512, Codec::Lzjb));
        assert_eq!(empty.corrupt_nth_block(0), None);
    }

    #[test]
    fn file_is_intact_handles_holes_and_missing_files() {
        let (p, _) = pool_with_data();
        assert_eq!(p.file_is_intact("nope"), None);
        let mut holey = ZPool::new(PoolConfig::new(512, Codec::Lzjb));
        holey.create_file("h");
        holey.write_block("h", 2, &vec![0u8; 512]);
        assert_eq!(holey.file_is_intact("h"), Some(true), "holes are intact");
    }

    #[test]
    fn records_without_bytes_are_unverifiable_not_a_panic() {
        let mut p = ZPool::new(PoolConfig::new(512, Codec::Lzjb).accounting_only());
        p.create_file("f");
        for i in 0..3u8 {
            p.write_block("f", i as u64, &vec![i + 1; 512]);
        }
        p.create_file("holes");
        p.write_block("holes", 1, &vec![0u8; 512]);
        let r = p.scrub();
        assert_eq!(r.unverifiable, 3);
        assert_eq!((r.blocks_checked, r.bytes_verified), (0, 0));
        assert!(
            r.corrupt.is_empty() && r.is_clean(),
            "unprovable is not corrupt"
        );
        // Never warm on unproven bytes; a file of holes has nothing to prove.
        assert_eq!(p.file_is_intact("f"), Some(false));
        assert_eq!(p.file_is_intact("holes"), Some(true));
        assert_eq!(p.file_is_intact("nope"), None);
        // A data-retaining pool leaves nothing unverifiable.
        assert_eq!(pool_with_data().0.scrub().unverifiable, 0);
    }

    #[test]
    fn a_proof_is_per_buffer_rot_and_repair_start_over() {
        let registry = squirrel_obs::MetricsRegistry::new();
        let hashed = || {
            registry
                .snapshot()
                .counter("zpool_verify_hashed_bytes_total")
                .expect("series")
        };
        let (mut p, keys) = pool_with_data();
        p.set_metrics(&registry.handle());
        let (donor, _) = pool_with_data();
        let all = keys.len() as u64 * 512;
        assert!(p.scrub().is_clean());
        assert_eq!(hashed(), all, "freshly compressed frames are born unproven");
        assert!(p.scrub().is_clean());
        assert_eq!(p.file_is_intact("f"), Some(true));
        assert_eq!(hashed(), all, "proved once: nothing is hashed again");
        // Rot swaps in a different buffer; only that one is re-hashed, and
        // the report still covers every record.
        assert!(p.inject_corruption(keys[2]));
        let r = p.scrub();
        assert_eq!(r.corrupt, vec![keys[2]]);
        assert_eq!(r.bytes_verified, all);
        assert_eq!(hashed(), all + 512);
        assert_eq!(p.file_is_intact("f"), Some(false));
        assert_eq!(
            hashed(),
            all + 512,
            "a remembered mismatch stays a mismatch"
        );
        // The donor's frame was never proved (no scrub ran there): the
        // repair proves it, and the proof travels with the buffer.
        let (psize, frame) = donor.payload_of(keys[2]).expect("donor");
        assert!(p.repair_block(keys[2], psize, &frame));
        assert_eq!(hashed(), all + 1024);
        assert!(p.scrub().is_clean() && donor.scrub().is_clean());
        assert_eq!(hashed(), all + 1024);
    }

    #[test]
    fn cdc_pool_scrubs_injects_and_repairs_at_chunk_lsize() {
        use squirrel_hash::cdc::CdcParams;
        let bs = 512;
        let mut p =
            ZPool::new(PoolConfig::new(bs, Codec::Lzjb).with_cdc(CdcParams::with_average(1024)));
        let blocks: Vec<Vec<u8>> = (0..12)
            .map(|i| (0..bs).map(|j| ((i * 29 + j * 7) % 249) as u8).collect())
            .collect();
        p.import_file("img", &blocks, 12 * bs as u64);
        assert!(
            p.scrub().is_clean(),
            "variable-size records verify at their lsize"
        );
        assert_eq!(p.file_is_intact("img"), Some(true));

        let key = p.corrupt_nth_block(5).expect("victim chunk");
        assert_eq!(p.scrub().corrupt, vec![key]);
        assert_eq!(p.file_is_intact("img"), Some(false));

        let donor = {
            let mut d = ZPool::new(
                PoolConfig::new(bs, Codec::Lzjb).with_cdc(CdcParams::with_average(1024)),
            );
            d.import_file("img", &blocks, 12 * bs as u64);
            d
        };
        let (psize, frame) = donor.payload_of(key).expect("donor payload");
        assert!(p.repair_block(key, psize, &frame));
        assert!(p.scrub().is_clean());
        p.assert_chunks_tile("img", &blocks.concat());
    }

    #[test]
    fn recv_then_scrub_guards_the_propagation_path() {
        // A replica built purely from send streams must scrub clean; a
        // corrupted replica must not.
        let (mut src, keys) = pool_with_data();
        src.snapshot("s1");
        let mut dst = ZPool::new(PoolConfig::new(512, Codec::Lzjb));
        dst.recv(&src.send_between(None, "s1").expect("send"))
            .expect("recv");
        assert!(dst.scrub().is_clean());
        dst.inject_corruption(keys[0]);
        assert_eq!(dst.scrub().corrupt, vec![keys[0]]);
    }
}
