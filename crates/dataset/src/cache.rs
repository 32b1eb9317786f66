//! VMI caches (boot working sets) and boot read traces.
//!
//! A VMI cache holds exactly the bytes a VM reads while booting — in this
//! model, the image's boot working set region. [`CacheView`] exposes the
//! cache as a block stream (for dedup/compression analysis and for storing
//! into cVolumes); [`BootTrace`] generates the sequence of reads a booting
//! kernel issues against the image, which the boot simulator replays and the
//! copy-on-read layer uses to populate cold caches.

use crate::corpus::ImageHandle;
use crate::rng::SplitMix64;

/// One read request of a booting VM: `(offset, len)` in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadOp {
    pub offset: u64,
    pub len: u32,
}

/// Block-level view of an image's VMI cache.
#[derive(Clone, Copy)]
pub struct CacheView<'c> {
    image: ImageHandle<'c>,
}

impl<'c> CacheView<'c> {
    pub(crate) fn new(image: ImageHandle<'c>) -> Self {
        CacheView { image }
    }

    /// The image this cache belongs to.
    pub fn image(&self) -> ImageHandle<'c> {
        self.image
    }

    /// Cache size in bytes (the boot working set).
    pub fn bytes(&self) -> u64 {
        self.image.boot_atoms() * crate::atoms::ATOM_SIZE as u64
    }

    /// Number of cache blocks at `block_size`.
    pub fn blocks_count(&self, block_size: usize) -> u64 {
        self.bytes().div_ceil(block_size as u64)
    }

    /// One cache block (cache offsets coincide with image offsets: the boot
    /// working set occupies the head of the address space).
    pub fn block(&self, block_size: usize, idx: u64) -> Vec<u8> {
        debug_assert!(idx < self.blocks_count(block_size));
        let mut buf = vec![0u8; block_size];
        let off = idx * block_size as u64;
        let end = (off + block_size as u64).min(self.bytes());
        self.image.read_at(off, &mut buf[..(end - off) as usize]);
        buf
    }

    /// Iterate all cache blocks (tail zero-padded to a full block).
    pub fn blocks(&self, block_size: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..self.blocks_count(block_size)).map(move |i| self.block(block_size, i))
    }

    /// Like [`blocks`](Self::blocks), but the final block is truncated to
    /// the working-set length (see `ImageHandle::blocks_trimmed`).
    pub fn blocks_trimmed(&self, block_size: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
        let total = self.bytes();
        (0..self.blocks_count(block_size)).map(move |i| {
            let mut b = self.block(block_size, i);
            let start = i * block_size as u64;
            if start + block_size as u64 > total {
                b.truncate((total - start) as usize);
            }
            b
        })
    }

    /// The boot read trace: the request sequence that touches exactly this
    /// cache's bytes, with the mixed sequential/random pattern of a real
    /// boot (~70% sequential continuation, 4–64 KiB requests).
    pub fn boot_trace(&self) -> BootTrace {
        BootTrace::generate(self)
    }
}

/// A deterministic boot-time read trace over a cache's byte range.
#[derive(Clone, Debug)]
pub struct BootTrace {
    pub ops: Vec<ReadOp>,
}

impl BootTrace {
    fn generate(cache: &CacheView<'_>) -> Self {
        let total = cache.bytes();
        let mut rng = SplitMix64::from_parts(&[0xb007, cache.image.id() as u64]);
        // Cover the working set in "extents" visited in a shuffled order with
        // sequential runs inside each extent — boot reads cluster around
        // files (kernel, initrd, units) but files are scattered on disk.
        let extent = 128 * 1024u64.min(total.max(1));
        let n_extents = total.div_ceil(extent).max(1);
        let mut order: Vec<u64> = (0..n_extents).collect();
        // Fisher–Yates with our deterministic rng.
        for i in (1..order.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        let mut ops = Vec::new();
        for &e in &order {
            let start = e * extent;
            let end = (start + extent).min(total);
            let mut pos = start;
            while pos < end {
                let len = match rng.below(10) {
                    0..=3 => 4 * 1024,
                    4..=6 => 16 * 1024,
                    7..=8 => 32 * 1024,
                    _ => 64 * 1024,
                } as u64;
                let len = len.min(end - pos) as u32;
                ops.push(ReadOp { offset: pos, len });
                pos += len as u64;
            }
        }
        BootTrace { ops }
    }

    /// Total bytes read by the trace.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(|op| op.len as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::corpus::{Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::test_corpus(8, 21))
    }

    #[test]
    fn cache_is_much_smaller_than_image() {
        let c = corpus();
        for img in c.iter() {
            let cache = img.cache();
            assert!(
                cache.bytes() < img.nonzero_bytes() / 2,
                "image {}",
                img.id()
            );
            assert!(cache.bytes() > 0);
        }
    }

    #[test]
    fn cache_blocks_match_image_head() {
        let c = corpus();
        let img = c.image(0);
        let cache = img.cache();
        // Blocks fully inside the working set equal the image's blocks; the
        // final partial block is zero-padded past the working set, so only
        // compare aligned interior blocks.
        let bs = 512;
        assert_eq!(cache.block(bs, 0), img.block(bs, 0));
        assert_eq!(cache.block(bs, 1), img.block(bs, 1));
        let last = cache.blocks_count(bs) - 1;
        assert_eq!(cache.block(bs, last), img.block(bs, last));
    }

    #[test]
    fn trace_covers_cache_exactly_once() {
        let c = corpus();
        let cache = c.image(1).cache();
        let trace = cache.boot_trace();
        assert_eq!(trace.total_bytes(), cache.bytes());
        // No overlapping or out-of-range reads.
        let mut intervals: Vec<(u64, u64)> = trace
            .ops
            .iter()
            .map(|op| (op.offset, op.offset + op.len as u64))
            .collect();
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap {w:?}");
        }
        assert!(intervals.last().expect("nonempty").1 <= cache.bytes());
    }

    #[test]
    fn trace_is_deterministic_per_image() {
        let c = corpus();
        let t1 = c.image(2).cache().boot_trace();
        let t2 = c.image(2).cache().boot_trace();
        assert_eq!(t1.ops, t2.ops);
        let t3 = c.image(3).cache().boot_trace();
        assert_ne!(t1.ops, t3.ops);
    }

    #[test]
    fn trace_is_not_fully_sequential() {
        // Needs a working set spanning several 128 KiB extents, hence a
        // lower scale divisor than the default test corpus.
        let c = Corpus::generate(CorpusConfig {
            scale: 256,
            ..CorpusConfig::test_corpus(4, 21)
        });
        let trace = c.image(0).cache().boot_trace();
        let seq = trace
            .ops
            .windows(2)
            .filter(|w| w[0].offset + w[0].len as u64 == w[1].offset)
            .count();
        assert!(seq < trace.ops.len() - 1, "trace must contain seeks");
        assert!(
            seq > trace.ops.len() / 3,
            "trace must contain sequential runs"
        );
    }

    #[test]
    fn last_cache_block_zero_padded() {
        let c = corpus();
        let cache = c.image(4).cache();
        let bs = 100_000; // not a divisor of cache size
        let last = cache.blocks_count(bs) - 1;
        let block = cache.block(bs, last);
        assert_eq!(block.len(), bs);
    }
}
