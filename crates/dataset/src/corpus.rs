//! Corpus generation and image content access.
//!
//! A [`Corpus`] is the synthetic stand-in for the paper's 607-image Azure
//! repository: a census-driven set of [`ImageSpec`]s plus the shared content
//! machinery (dictionary, layout parameters). [`ImageHandle`] exposes lazy
//! block reads — content is synthesized on demand, never stored, so sweeping
//! eleven block sizes over hundreds of images stays in constant memory.

use crate::atoms::{fill_atom, ATOM_SIZE};
use crate::cache::CacheView;
use crate::census::{azure_census, scaled_census, CensusEntry, OsFamily};
use crate::dict::Dictionary;
use crate::layout::{build_layout, Geometry, Layout, LayoutParams};
use crate::rng::SplitMix64;
use std::sync::Arc;

/// Index of an image within its corpus.
pub type ImageId = u32;

/// Paper-scale geometry constants (bytes), divided by `CorpusConfig::scale`.
/// 16.4 TB raw / 607 images ≈ 27 GiB virtual; 1.4 TB nonzero ≈ 2.36 GiB;
/// 78.5 GB of caches ≈ 132 MiB boot working set.
const PAPER_VIRTUAL_BYTES: u64 = 27 << 30;
const PAPER_NONZERO_BYTES: u64 = 2420 << 20;
const PAPER_CACHE_BYTES: u64 = 132 << 20;

/// Corpus generation parameters.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Number of images (census proportions preserved).
    pub n_images: u32,
    /// Byte-volume divisor versus the paper's geometry. `scale = 1` is the
    /// full 16.4 TB; tests use 10_000+; experiments typically 256–2048.
    pub scale: u64,
    /// Master seed; every byte of the corpus derives from it.
    pub seed: u64,
    /// Content layout knobs.
    pub layout: LayoutParams,
    /// Census to draw family proportions from (defaults to Azure).
    pub census: Vec<CensusEntry>,
}

impl CorpusConfig {
    /// The paper's full dataset shape at a given scale divisor.
    pub fn azure(scale: u64, seed: u64) -> Self {
        CorpusConfig {
            n_images: 607,
            scale,
            seed,
            layout: LayoutParams::default(),
            census: azure_census(),
        }
    }

    /// A small corpus for tests: `n` images at a high scale divisor.
    pub fn test_corpus(n: u32, seed: u64) -> Self {
        CorpusConfig {
            n_images: n,
            scale: 4096,
            seed,
            layout: LayoutParams::default(),
            census: azure_census(),
        }
    }
}

/// One image's identity and geometry (content is derived lazily).
#[derive(Clone, Debug)]
pub struct ImageSpec {
    pub id: ImageId,
    pub family: OsFamily,
    pub release: u32,
    pub geometry: Geometry,
}

/// The generated corpus.
pub struct Corpus {
    cfg: CorpusConfig,
    dict: Arc<Dictionary>,
    images: Vec<ImageSpec>,
    layouts: Vec<Arc<Layout>>,
}

impl Corpus {
    /// Generate a corpus. Deterministic in `cfg.seed`.
    pub fn generate(cfg: CorpusConfig) -> Self {
        let dict = Arc::new(Dictionary::new(cfg.seed));
        let census = scaled_census(&cfg.census, cfg.n_images);
        let mut images = Vec::with_capacity(cfg.n_images as usize);
        let mut id: ImageId = 0;
        for entry in &census {
            for _ in 0..entry.count {
                let mut rng = SplitMix64::from_parts(&[cfg.seed, 0x6e0, id as u64]);
                let releases = entry.family.release_count();
                // Newer releases are more popular: quadratic skew toward the
                // high end, like real catalogs.
                let u = rng.unit_f64();
                let release = ((u.sqrt() * releases as f64) as u32).min(releases - 1);
                // Size diversity: ×0.6 .. ×1.9 lognormal-ish factor.
                let size_factor = 0.6 + 1.3 * rng.unit_f64() * rng.unit_f64().sqrt();
                // Boot working-set size is a property of the *release* (the
                // same OS files boot), so same-release caches have equal
                // lengths and dedup even at large block sizes.
                let mut crng =
                    SplitMix64::from_parts(&[cfg.seed, 0xca0, entry.family as u64, release as u64]);
                let cache_factor = 0.7 + 0.7 * crng.unit_f64();
                let atoms = |bytes: u64, factor: f64| -> u64 {
                    (((bytes / cfg.scale) as f64 * factor) as u64 / ATOM_SIZE as u64).max(8)
                };
                let boot_atoms = atoms(PAPER_CACHE_BYTES, cache_factor);
                let nonzero = atoms(PAPER_NONZERO_BYTES, size_factor);
                // Most of a community image is the distro's stock system
                // tree (kernel, userland, default packages); user software
                // is the smaller, diverse remainder.
                let system_atoms = (nonzero * 11 / 20).max(8);
                let user_atoms = nonzero.saturating_sub(boot_atoms + system_atoms).max(8);
                let virtual_atoms = atoms(PAPER_VIRTUAL_BYTES, size_factor)
                    .max(boot_atoms + system_atoms + user_atoms);
                images.push(ImageSpec {
                    id,
                    family: entry.family,
                    release,
                    geometry: Geometry {
                        boot_atoms,
                        system_atoms,
                        user_atoms,
                        virtual_atoms,
                    },
                });
                id += 1;
            }
        }
        let layouts = images
            .iter()
            .map(|img| {
                Arc::new(build_layout(
                    &cfg.layout,
                    cfg.seed,
                    img.id,
                    img.family,
                    img.release,
                    img.geometry,
                ))
            })
            .collect();
        Corpus {
            cfg,
            dict,
            images,
            layouts,
        }
    }

    pub fn config(&self) -> &CorpusConfig {
        &self.cfg
    }

    pub fn len(&self) -> usize {
        self.images.len()
    }

    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    pub fn images(&self) -> &[ImageSpec] {
        &self.images
    }

    /// Handle for lazy content access to image `id`.
    pub fn image(&self, id: ImageId) -> ImageHandle<'_> {
        ImageHandle {
            corpus: self,
            spec: &self.images[id as usize],
            layout: &self.layouts[id as usize],
        }
    }

    /// Iterate handles for all images.
    pub fn iter(&self) -> impl Iterator<Item = ImageHandle<'_>> {
        (0..self.images.len() as u32).map(move |id| self.image(id))
    }

    pub(crate) fn dict(&self) -> &Dictionary {
        &self.dict
    }

    pub(crate) fn seed(&self) -> u64 {
        self.cfg.seed
    }
}

/// Lazy content accessor for one image.
#[derive(Clone, Copy)]
pub struct ImageHandle<'c> {
    pub(crate) corpus: &'c Corpus,
    pub(crate) spec: &'c ImageSpec,
    pub(crate) layout: &'c Layout,
}

impl<'c> ImageHandle<'c> {
    pub fn id(&self) -> ImageId {
        self.spec.id
    }

    pub fn spec(&self) -> &ImageSpec {
        self.spec
    }

    /// Virtual (sparse) size in bytes — the "Original" column of Table 1.
    pub fn virtual_bytes(&self) -> u64 {
        self.spec.geometry.virtual_atoms * ATOM_SIZE as u64
    }

    /// Nonzero bytes (what a sparse-aware file system stores).
    pub fn nonzero_bytes(&self) -> u64 {
        self.layout.nonzero_bytes()
    }

    /// Number of blocks of `block_size` covering the nonzero area.
    pub fn nonzero_blocks(&self, block_size: usize) -> u64 {
        self.nonzero_bytes().div_ceil(block_size as u64)
    }

    /// Read `buf.len()` bytes at `offset`. Bytes past the nonzero area are
    /// zero; bytes past the virtual size are also zero (reads never fail).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) {
        buf.fill(0);
        let nz = self.nonzero_bytes();
        if offset >= nz {
            return;
        }
        let end = (offset + buf.len() as u64).min(nz);
        let first_atom = offset / ATOM_SIZE as u64;
        let last_atom = (end - 1) / ATOM_SIZE as u64;
        let mut atom_buf = [0u8; ATOM_SIZE];
        let iter = self.layout.atoms_at(first_atom, last_atom - first_atom + 1);
        for (atom_off, (group, idx)) in (first_atom..).zip(iter) {
            fill_atom(
                self.corpus.dict(),
                self.corpus.seed(),
                group,
                idx,
                &mut atom_buf,
            );
            let atom_start = atom_off * ATOM_SIZE as u64;
            let copy_start = offset.max(atom_start);
            let copy_end = end.min(atom_start + ATOM_SIZE as u64);
            if copy_start < copy_end {
                let src =
                    &atom_buf[(copy_start - atom_start) as usize..(copy_end - atom_start) as usize];
                let dst_off = (copy_start - offset) as usize;
                buf[dst_off..dst_off + src.len()].copy_from_slice(src);
            }
        }
    }

    /// One block of the image (zero-padded at the tail).
    pub fn block(&self, block_size: usize, block_idx: u64) -> Vec<u8> {
        let mut buf = vec![0u8; block_size];
        self.read_at(block_idx * block_size as u64, &mut buf);
        buf
    }

    /// Iterate all nonzero-area blocks of `block_size` (tail zero-padded to
    /// a full block, matching fixed-record stores).
    pub fn blocks(&self, block_size: usize) -> BlockIter<'c> {
        BlockIter {
            image: *self,
            block_size,
            next: 0,
            count: self.nonzero_blocks(block_size),
            trim_to: None,
        }
    }

    /// Like [`blocks`](Self::blocks), but the final block is truncated to
    /// the nonzero length instead of zero-padded. Analysis metrics use this
    /// so that corpora scaled far below paper volume do not overweight tail
    /// padding (at full scale the tail block is a negligible fraction).
    pub fn blocks_trimmed(&self, block_size: usize) -> BlockIter<'c> {
        BlockIter {
            image: *self,
            block_size,
            next: 0,
            count: self.nonzero_blocks(block_size),
            trim_to: Some(self.nonzero_bytes()),
        }
    }

    /// The image's VMI cache (boot working set view).
    pub fn cache(&self) -> CacheView<'c> {
        CacheView::new(*self)
    }

    pub(crate) fn boot_atoms(&self) -> u64 {
        self.layout.boot_atoms
    }
}

/// Iterator over an image's nonzero blocks.
pub struct BlockIter<'c> {
    image: ImageHandle<'c>,
    block_size: usize,
    next: u64,
    count: u64,
    /// When set, truncate the final block to this byte length.
    trim_to: Option<u64>,
}

impl Iterator for BlockIter<'_> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.count {
            return None;
        }
        let mut b = self.image.block(self.block_size, self.next);
        if let Some(limit) = self.trim_to {
            let start = self.next * self.block_size as u64;
            if start + self.block_size as u64 > limit {
                b.truncate((limit - start) as usize);
            }
        }
        self.next += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.count - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(CorpusConfig::test_corpus(12, 99))
    }

    #[test]
    fn corpus_respects_image_count() {
        let c = small();
        assert_eq!(c.len(), 12);
        assert!(
            c.images()
                .iter()
                .filter(|i| i.family == OsFamily::Ubuntu)
                .count()
                >= 7
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(CorpusConfig::test_corpus(6, 5));
        let b = Corpus::generate(CorpusConfig::test_corpus(6, 5));
        for id in 0..6 {
            assert_eq!(a.image(id).block(4096, 0), b.image(id).block(4096, 0));
            assert_eq!(a.image(id).nonzero_bytes(), b.image(id).nonzero_bytes());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(CorpusConfig::test_corpus(3, 1));
        let b = Corpus::generate(CorpusConfig::test_corpus(3, 2));
        assert_ne!(a.image(0).block(4096, 0), b.image(0).block(4096, 0));
    }

    #[test]
    fn read_at_is_consistent_with_blocks() {
        let c = small();
        let img = c.image(0);
        let direct = img.block(8192, 1);
        // Stitch the same range from two half reads.
        let mut stitched = vec![0u8; 8192];
        img.read_at(8192, &mut stitched[..4096]);
        img.read_at(8192 + 4096, &mut stitched[4096..]);
        assert_eq!(direct, stitched);
    }

    #[test]
    fn reads_past_nonzero_are_zero() {
        let c = small();
        let img = c.image(1);
        let mut buf = vec![0xffu8; 128];
        img.read_at(img.nonzero_bytes() + 10_000, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn straddling_read_matches_block_content() {
        let c = small();
        let img = c.image(2);
        // Read across an atom boundary at an odd offset and compare with a
        // large aligned block read covering the same bytes.
        let mut buf = vec![0u8; 700];
        img.read_at(300, &mut buf);
        let block = img.block(2048, 0);
        assert_eq!(&buf[..], &block[300..1000]);
    }

    #[test]
    fn virtual_size_exceeds_nonzero() {
        let c = small();
        for img in c.iter() {
            assert!(img.virtual_bytes() >= img.nonzero_bytes());
            // Sparse ratio should be large, per Table 1 (16.4 TB vs 1.4 TB).
            assert!(img.virtual_bytes() >= 5 * img.nonzero_bytes());
        }
    }

    #[test]
    fn block_iter_counts_match() {
        let c = small();
        let img = c.image(3);
        let bs = 4096;
        let n = img.blocks(bs).count() as u64;
        assert_eq!(n, img.nonzero_blocks(bs));
        assert_eq!(img.blocks(bs).len() as u64, n);
    }

    #[test]
    fn azure_config_shape() {
        let cfg = CorpusConfig::azure(4096, 7);
        assert_eq!(cfg.n_images, 607);
        assert_eq!(cfg.scale, 4096);
    }
}
