//! Copy-on-write images and copy-on-read caches — the VMI chaining layer of
//! the paper's Figure 1.
//!
//! Three pieces compose a boot chain:
//!
//! * [`VirtualDisk`] — the read interface every layer speaks.
//! * [`CowImage`] — a QCOW2-like copy-on-write overlay: writes allocate
//!   cluster-granular private copies; reads of unallocated clusters pass to
//!   the backing layer as *whole-cluster* requests. That over-fetch is the
//!   mechanism behind the paper's observation (Section 4.2.3) that warm
//!   caches boot ~16% faster than local images: the host page cache keeps
//!   the surplus sectors, which belong to the boot working set anyway.
//! * [`CorCache`] — a copy-on-read cache: block-granular, populated on
//!   first access (the cold-cache path of Figure 1), serving locally from
//!   then on (warm). Squirrel stores these per-VMI caches in its cVolumes.
//!
//! Boot timing is not read from these layers: `squirrel-bootsim` replays
//! the boot trace through its own model of the same chain.

mod cor;
mod cow;
mod disk;

pub use cor::CorCache;
pub use cow::CowImage;
pub use disk::{MemDisk, VirtualDisk};

/// Errors from the fallible image-layer constructors and installers
/// ([`CorCache::try_new`], [`CorCache::try_prepopulate`],
/// [`CowImage::try_with_cluster_size`]). The panicking variants treat these
/// as caller bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// A block/cluster size that is not a power of two of at least 512 bytes.
    BadGranule { bytes: usize },
    /// Prepopulated data whose length is not exactly one block.
    BadBlockLength { expected: usize, got: usize },
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::BadGranule { bytes } => {
                write!(f, "granule of {bytes} bytes is not a power of two >= 512")
            }
            ImageError::BadBlockLength { expected, got } => {
                write!(f, "expected a {expected}-byte block, got {got} bytes")
            }
        }
    }
}

impl std::error::Error for ImageError {}
