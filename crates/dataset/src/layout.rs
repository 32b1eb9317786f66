//! Per-image content layout: a run-length list of atom ranges.
//!
//! An image's nonzero address space is a concatenation of *runs*, each
//! referencing a contiguous range of atoms inside one [`AtomGroup`]. Three
//! regions are laid out, matching where real VMI content comes from:
//!
//! 1. **Boot working set** — the release's base atom sequence at fixed
//!    offsets (boot layouts don't shift), interrupted by *mutated segments*:
//!    contiguous runs of image-unique atoms modelling user tweaks to initrd,
//!    kernel updates, host configs. Contiguity is what lets small blocks
//!    dodge mutations while large blocks absorb them (Figure 2's dedup
//!    trend, Figure 12's cache cross-similarity).
//! 2. **System libraries** — the family's library pool in canonical order,
//!    but each image drops some libraries and inserts private ones, shifting
//!    everything after the edit point by a multiple of the atom size: shared
//!    content at *different offsets*, the alignment mechanism.
//! 3. **User software** — packages drawn Zipf-popular from a global pool,
//!    interleaved with image-unique data. Package boundaries land at
//!    image-specific offsets, so cross-image sharing is misaligned and only
//!    small blocks recover it.

use crate::atoms::{AtomGroup, ATOM_SIZE};
use crate::census::OsFamily;
use crate::rng::{SplitMix64, Zipf};

/// One run of contiguous atoms from a single group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    pub group: AtomGroup,
    /// First atom index within the group.
    pub start: u64,
    /// Number of atoms.
    pub len: u32,
}

/// A fully laid-out image: runs plus the prefix sums locating them.
#[derive(Clone, Debug)]
pub struct Layout {
    pub runs: Vec<Run>,
    /// `starts[i]` = first atom offset (within the image) of `runs[i]`;
    /// one extra entry holds the total atom count.
    pub starts: Vec<u64>,
    /// Atom count of the boot working set (the VMI cache covers exactly it).
    pub boot_atoms: u64,
}

/// Knobs for layout construction (defaults reproduce the paper's shapes).
#[derive(Clone, Copy, Debug)]
pub struct LayoutParams {
    /// Mutated-segment probability per boot segment.
    pub boot_mutation_rate: f64,
    /// Boot mutation segment length, in atoms (contiguous).
    pub boot_segment_atoms: u64,
    /// Size of the per-release pool of shared boot variants; mutated
    /// segments draw from it Zipf-style, so the pool gets exhausted as the
    /// catalog grows and late images add little new content.
    pub boot_variant_pool: u32,
    /// Probability that a mutated segment is image-private rather than a
    /// shared variant.
    pub boot_private_mutation: f64,
    /// Probability that a canonical library is dropped by this image.
    pub lib_drop_rate: f64,
    /// Probability of inserting a private blob between libraries.
    pub lib_insert_rate: f64,
    /// Fraction of the user region that is shared packages (vs unique data).
    pub pkg_fraction: f64,
    /// Global package pool size.
    pub pkg_pool: u64,
    /// Zipf exponent for package popularity.
    pub pkg_zipf_s: f64,
}

impl Default for LayoutParams {
    fn default() -> Self {
        LayoutParams {
            boot_mutation_rate: 0.055,
            boot_segment_atoms: 96, // 48 KiB segments
            boot_variant_pool: 48,
            boot_private_mutation: 0.2,
            lib_drop_rate: 0.05,
            lib_insert_rate: 0.05,
            pkg_fraction: 0.45,
            pkg_pool: 60_000,
            pkg_zipf_s: 1.08,
        }
    }
}

/// Geometry of one image, in atoms.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    pub boot_atoms: u64,
    pub system_atoms: u64,
    pub user_atoms: u64,
    /// Virtual (sparse) size in atoms, >= the sum of the regions.
    pub virtual_atoms: u64,
}

impl Geometry {
    pub fn nonzero_atoms(&self) -> u64 {
        self.boot_atoms + self.system_atoms + self.user_atoms
    }
}

/// Build the layout of image `image_id` (family, release) deterministically.
pub fn build_layout(
    params: &LayoutParams,
    corpus_seed: u64,
    image_id: u32,
    family: OsFamily,
    release: u32,
    geom: Geometry,
) -> Layout {
    let mut runs: Vec<Run> = Vec::with_capacity(256);
    let mut unique_stream = 0u32;
    let mut next_unique = |runs: &mut Vec<Run>, len: u64| {
        let stream = unique_stream;
        unique_stream += 1;
        runs.push(Run {
            group: AtomGroup::Unique {
                image: image_id,
                stream,
            },
            start: 0,
            len: len as u32,
        });
    };

    // --- Region 1: boot working set ---------------------------------------
    let mut rng = SplitMix64::from_parts(&[corpus_seed, 0x100, image_id as u64]);
    let base = AtomGroup::Base { family, release };
    let seg = params.boot_segment_atoms;
    let mut off = 0u64;
    while off < geom.boot_atoms {
        let len = seg.min(geom.boot_atoms - off);
        if rng.chance(params.boot_mutation_rate) {
            if rng.chance(params.boot_private_mutation) {
                next_unique(&mut runs, len);
            } else {
                // A popular shared modification: aligned with the base
                // layout so it deduplicates across the images carrying it.
                let u = rng.unit_f64();
                let variant = ((u * u * params.boot_variant_pool as f64) as u32)
                    .min(params.boot_variant_pool - 1);
                push_or_extend(
                    &mut runs,
                    Run {
                        group: AtomGroup::Variant {
                            family,
                            release,
                            variant,
                        },
                        start: off,
                        len: len as u32,
                    },
                );
            }
        } else {
            push_or_extend(
                &mut runs,
                Run {
                    group: base,
                    start: off,
                    len: len as u32,
                },
            );
        }
        off += len;
    }
    let boot_atoms = geom.boot_atoms;

    // --- Region 2: system libraries ---------------------------------------
    // Canonical library sequence: chunks of the family Lib pool in order.
    // Drops remove a chunk (shifting later content back); inserts add a
    // private chunk (shifting later content forward).
    let mut rng = SplitMix64::from_parts(&[corpus_seed, 0x200, image_id as u64]);
    let lib = AtomGroup::Lib { family };
    let lib_chunk = 64u64; // 32 KiB canonical library unit
    let mut emitted = 0u64;
    let mut canon = 0u64; // canonical library cursor (atoms)
    while emitted < geom.system_atoms {
        let len = lib_chunk.min(geom.system_atoms - emitted);
        if rng.chance(params.lib_insert_rate) {
            next_unique(&mut runs, len);
            emitted += len;
            continue; // canonical cursor unmoved: subsequent libs shift
        }
        if rng.chance(params.lib_drop_rate) {
            canon += len; // dropped: skip canonical content, no emission
            continue;
        }
        push_or_extend(
            &mut runs,
            Run {
                group: lib,
                start: canon,
                len: len as u32,
            },
        );
        canon += len;
        emitted += len;
    }

    // --- Region 3: user software -------------------------------------------
    let mut rng = SplitMix64::from_parts(&[corpus_seed, 0x300, image_id as u64]);
    let zipf = Zipf::new(params.pkg_pool, params.pkg_zipf_s);
    let mut emitted = 0u64;
    while emitted < geom.user_atoms {
        if rng.chance(params.pkg_fraction) {
            // A shared package: its atoms live at a pool-global position so
            // every image carrying it sees identical content.
            let pkg = zipf.sample(&mut rng);
            let mut prng = SplitMix64::from_parts(&[corpus_seed, 0x919, pkg]);
            let pkg_len = prng.range(24, 384); // 12–192 KiB packages
            let len = pkg_len.min(geom.user_atoms - emitted);
            runs.push(Run {
                group: AtomGroup::Pkg,
                start: pkg * 4096,
                len: len as u32,
            });
            emitted += len;
        } else {
            let len = rng.range(16, 256).min(geom.user_atoms - emitted);
            next_unique(&mut runs, len);
            emitted += len;
        }
    }

    let mut starts = Vec::with_capacity(runs.len() + 1);
    let mut acc = 0u64;
    for r in &runs {
        starts.push(acc);
        acc += r.len as u64;
    }
    starts.push(acc);
    debug_assert_eq!(acc, geom.nonzero_atoms());

    Layout {
        runs,
        starts,
        boot_atoms,
    }
}

/// Merge adjacent runs from the same group when contiguous (keeps run lists
/// short for the common unmutated stretches).
fn push_or_extend(runs: &mut Vec<Run>, run: Run) {
    if let Some(last) = runs.last_mut() {
        if last.group == run.group
            && last.start + last.len as u64 == run.start
            && last.len as u64 + run.len as u64 <= u32::MAX as u64
        {
            last.len += run.len;
            return;
        }
    }
    runs.push(run);
}

impl Layout {
    /// Total nonzero atoms.
    pub fn nonzero_atoms(&self) -> u64 {
        *self.starts.last().expect("nonempty starts")
    }

    /// Nonzero bytes.
    pub fn nonzero_bytes(&self) -> u64 {
        self.nonzero_atoms() * ATOM_SIZE as u64
    }

    /// Locate the run covering `atom_off`; returns (run index, offset within
    /// the run).
    #[inline]
    pub fn locate(&self, atom_off: u64) -> (usize, u64) {
        debug_assert!(atom_off < self.nonzero_atoms());
        let i = match self.starts.binary_search(&atom_off) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (i, atom_off - self.starts[i])
    }

    /// Iterate `(group, group_atom_idx)` for `count` atoms starting at
    /// `atom_off`, clamped to the nonzero area.
    pub fn atoms_at(&self, atom_off: u64, count: u64) -> AtomIter<'_> {
        AtomIter {
            layout: self,
            pos: atom_off,
            end: (atom_off + count).min(self.nonzero_atoms()),
        }
    }
}

/// Iterator over atom identities of an address range.
pub struct AtomIter<'a> {
    layout: &'a Layout,
    pos: u64,
    end: u64,
}

impl Iterator for AtomIter<'_> {
    type Item = (AtomGroup, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.end {
            return None;
        }
        let (ri, within) = self.layout.locate(self.pos);
        let run = &self.layout.runs[ri];
        self.pos += 1;
        Some((run.group, run.start + within))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry {
            boot_atoms: 512,
            system_atoms: 1024,
            user_atoms: 2048,
            virtual_atoms: 40_960,
        }
    }

    fn layout(image: u32) -> Layout {
        build_layout(
            &LayoutParams::default(),
            42,
            image,
            OsFamily::Ubuntu,
            2,
            geom(),
        )
    }

    #[test]
    fn layout_covers_geometry_exactly() {
        let l = layout(1);
        assert_eq!(l.nonzero_atoms(), geom().nonzero_atoms());
        assert_eq!(l.boot_atoms, 512);
    }

    #[test]
    fn locate_is_consistent_with_starts() {
        let l = layout(2);
        for off in [0u64, 1, 511, 512, 1000, 3583] {
            let (ri, within) = l.locate(off);
            assert_eq!(l.starts[ri] + within, off);
            assert!(within < l.runs[ri].len as u64);
        }
    }

    #[test]
    fn same_release_images_share_most_boot_atoms() {
        let a = layout(10);
        let b = layout(11);
        let atoms_a: Vec<_> = a.atoms_at(0, 512).collect();
        let atoms_b: Vec<_> = b.atoms_at(0, 512).collect();
        let same = atoms_a.iter().zip(&atoms_b).filter(|(x, y)| x == y).count();
        assert!(same > 350, "shared boot atoms {same}/512");
        assert!(same < 512, "mutations must exist");
    }

    #[test]
    fn user_regions_differ_between_images() {
        let a = layout(10);
        let b = layout(11);
        let ua: Vec<_> = a.atoms_at(1536, 512).collect();
        let ub: Vec<_> = b.atoms_at(1536, 512).collect();
        let same = ua.iter().zip(&ub).filter(|(x, y)| x == y).count();
        assert!(same < 256, "user regions too similar: {same}");
    }

    #[test]
    fn atom_iter_stops_at_nonzero_end() {
        let l = layout(3);
        let n = l.atoms_at(l.nonzero_atoms() - 5, 100).count();
        assert_eq!(n, 5);
    }

    #[test]
    fn deterministic_layouts() {
        let a = layout(7);
        let b = layout(7);
        assert_eq!(a.runs, b.runs);
    }

    #[test]
    fn packages_shared_across_images() {
        // Two images should both carry at least one popular package (group
        // Pkg with identical start), thanks to the Zipf head.
        let heads = |l: &Layout| {
            l.runs
                .iter()
                .filter(|r| matches!(r.group, AtomGroup::Pkg))
                .map(|r| r.start)
                .collect::<std::collections::HashSet<_>>()
        };
        let mut shared = 0;
        for other in 20..40u32 {
            let h1 = heads(&layout(19));
            let h2 = heads(&layout(other));
            if h1.intersection(&h2).next().is_some() {
                shared += 1;
            }
        }
        assert!(shared > 5, "images sharing a package: {shared}/20");
    }
}
