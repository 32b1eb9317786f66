//! Atom identity and byte synthesis.
//!
//! An *atom* is the 512-byte unit of content identity: two image regions
//! referencing the same [`AtomGroup`] and index hold identical bytes. Groups
//! model where VM image content actually comes from:
//!
//! * [`AtomGroup::Base`] — a distro release's boot working set. Consecutive
//!   releases inherit a fraction of their base atoms from the previous
//!   release, so e.g. Ubuntu 12.04 and 12.10 caches are similar but not
//!   identical.
//! * [`AtomGroup::Common`] — bits shared across all Linux families
//!   (bootloaders, firmware blobs, POSIX userland fragments).
//! * [`AtomGroup::Lib`] — a family-wide library pool (the distro's package
//!   base that most images of that family carry).
//! * [`AtomGroup::Pkg`] — a globally shared software package, Zipf-popular
//!   across images.
//! * [`AtomGroup::Unique`] — image-private content (user data, logs, build
//!   artifacts, mutated segments).

use crate::census::OsFamily;
use crate::dict::{Dictionary, WORD_PROB, WORD_READ};
use crate::rng::SplitMix64;

/// Content-identity unit, in bytes.
pub const ATOM_SIZE: usize = 512;

/// Fraction of base atoms a release inherits from its predecessor.
const RELEASE_INHERIT: f64 = 0.62;
/// Fraction of base atoms that are common across all Linux families.
const COMMON_LINUX: f64 = 0.06;

/// Where an atom's bytes come from (its identity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomGroup {
    /// Boot working set of (family, release).
    Base { family: OsFamily, release: u32 },
    /// Cross-family shared Linux content.
    Common,
    /// Family-wide library pool.
    Lib { family: OsFamily },
    /// Globally shared software package pool.
    Pkg,
    /// A shared boot-working-set variant: the k-th popular modification of
    /// a release's boot content (kernel update, common tweak). The pool is
    /// finite, so late images mostly reuse existing variants — the source
    /// of the saturating memory curves in the paper's Figures 16–17.
    Variant {
        family: OsFamily,
        release: u32,
        variant: u32,
    },
    /// Private to one image; `stream` separates independent unique ranges.
    Unique { image: u32, stream: u32 },
}

impl AtomGroup {
    /// Stable 64-bit identity used for seeding byte synthesis.
    fn seed_word(&self) -> u64 {
        match *self {
            AtomGroup::Base { family, release } => {
                0x01_0000 | ((family as u64) << 8) | release as u64
            }
            AtomGroup::Common => 0x02_0000,
            AtomGroup::Lib { family } => 0x03_0000 | family as u64,
            AtomGroup::Pkg => 0x04_0000,
            AtomGroup::Variant {
                family,
                release,
                variant,
            } => {
                0x06_0000_0000 | ((family as u64) << 24) | ((release as u64) << 16) | variant as u64
            }
            AtomGroup::Unique { image, stream } => {
                0x05_0000_0000 | ((image as u64) << 12) | stream as u64
            }
        }
    }
}

/// Inheritance granularity, in atoms (64 KiB). Release-to-release changes
/// happen at file/extent granularity, not per 512-byte atom — whole segments
/// inherit or diverge together, so blocks up to the segment size survive
/// intact across releases and deduplicate.
pub const INHERIT_SEGMENT_ATOMS: u64 = 128;

/// Resolve release inheritance: a `Base` atom may actually be the previous
/// release's atom (chains allowed), or cross-family common content. The walk
/// is deterministic per (family, release, segment), where a segment is
/// [`INHERIT_SEGMENT_ATOMS`] consecutive atoms.
#[inline]
pub fn resolve_atom(group: AtomGroup, idx: u64) -> (AtomGroup, u64) {
    match group {
        AtomGroup::Base {
            family,
            mut release,
        } => {
            let seg = idx / INHERIT_SEGMENT_ATOMS;
            let mut coin = SplitMix64::from_parts(&[0xba5e, family as u64, seg]);
            // The cross-family pool is Linux userland; Windows shares none
            // of it (its releases still dedup among themselves).
            if family != OsFamily::Windows && coin.chance(COMMON_LINUX) {
                return (AtomGroup::Common, idx);
            }
            // Each release keeps `RELEASE_INHERIT` of the previous one's
            // segments; the per-step coin depends on (family, release, seg)
            // so different release pairs diverge at different segments.
            while release > 0 {
                let mut step =
                    SplitMix64::from_parts(&[0x1e4e, family as u64, release as u64, seg]);
                if step.chance(RELEASE_INHERIT) {
                    release -= 1;
                } else {
                    break;
                }
            }
            (AtomGroup::Base { family, release }, idx)
        }
        other => (other, idx),
    }
}

/// Probability that a word token repeats one of the last few words instead
/// of drawing a fresh one. Real file content (identifiers in binaries,
/// keys in config files) repeats locally, which is what lets gzip find
/// matches even inside 1 KiB blocks.
const LOCAL_REPEAT: f64 = 0.6;

/// `rng.chance(p)` without the float: [`SplitMix64::unit_f64`] is exactly
/// `m · 2⁻⁵³` for the draw's top 53 bits `m`, so `m · 2⁻⁵³ < p` iff
/// `m < ⌈p · 2⁵³⌉`. The same draw, decided by one integer comparison.
const fn chance_threshold(p: f64) -> u64 {
    assert!(0.0 <= p && p <= 1.0);
    let scaled = p * (1u64 << 53) as f64;
    let floor = scaled as u64;
    if (floor as f64) < scaled {
        floor + 1
    } else {
        floor
    }
}

const WORD_THRESHOLD: u64 = chance_threshold(WORD_PROB);
const LOCAL_REPEAT_THRESHOLD: u64 = chance_threshold(LOCAL_REPEAT);

#[inline]
fn draw_below(rng: &mut SplitMix64, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// Synthesize atom bytes into `out` (must be `ATOM_SIZE` long).
///
/// Texture: dictionary words (corpus-wide, compressible) interleaved with
/// random filler, with heavy *local* word repetition, all driven by a
/// SplitMix64 seeded from the atom identity — a counter-based draw, so any
/// thread can synthesise any atom in any order and get the same bytes.
///
/// Every token is one fixed-width copy into a padded scratch buffer: a word
/// writes its whole [`WORD_READ`]-byte window, a filler token its whole
/// 8-byte draw, and the cursor advances by the token's own length, so the
/// next token overwrites the overhang. The atom is the first `ATOM_SIZE`
/// bytes; the draws, decided as integer comparisons, are those of a
/// per-token variable-length copy.
pub fn fill_atom(dict: &Dictionary, corpus_seed: u64, group: AtomGroup, idx: u64, out: &mut [u8]) {
    let (group, idx) = resolve_atom(group, idx);
    let mut rng = SplitMix64::from_parts(&[corpus_seed, group.seed_word(), idx]);
    let mut recent = [0usize; 8];
    let mut n_recent = 0usize;
    let mut cursor = 0usize;
    let mut pos = 0usize;
    let mut padded = [0u8; ATOM_SIZE + WORD_READ];
    while pos < ATOM_SIZE {
        if draw_below(&mut rng, WORD_THRESHOLD) {
            let widx = if n_recent > 0 && draw_below(&mut rng, LOCAL_REPEAT_THRESHOLD) {
                recent[rng.below(n_recent as u64) as usize]
            } else {
                let i = dict.skewed_index(&mut rng);
                recent[cursor] = i;
                cursor = (cursor + 1) % recent.len();
                n_recent = (n_recent + 1).min(recent.len());
                i
            };
            let (window, len) = dict.word_window(widx);
            padded[pos..pos + WORD_READ].copy_from_slice(window);
            pos += len;
        } else {
            // 4–8 bytes of incompressible filler.
            let n = rng.range(4, 9) as usize;
            padded[pos..pos + 8].copy_from_slice(&rng.next_u64().to_le_bytes());
            pos += n;
        }
    }
    out.copy_from_slice(&padded[..ATOM_SIZE]);
}

/// The per-token variable-length copy [`fill_atom`] replaced: the reference
/// its output is held to.
#[cfg(test)]
fn reference_fill_atom(
    dict: &Dictionary,
    corpus_seed: u64,
    group: AtomGroup,
    idx: u64,
    out: &mut [u8],
) {
    debug_assert_eq!(out.len(), ATOM_SIZE);
    let (group, idx) = resolve_atom(group, idx);
    let mut rng = SplitMix64::from_parts(&[corpus_seed, group.seed_word(), idx]);
    let mut recent = [0usize; 8];
    let mut n_recent = 0usize;
    let mut cursor = 0usize;
    let mut pos = 0usize;
    while pos < ATOM_SIZE {
        if rng.chance(WORD_PROB) {
            let widx = if n_recent > 0 && rng.chance(LOCAL_REPEAT) {
                recent[rng.below(n_recent as u64) as usize]
            } else {
                let i = dict.skewed_index(&mut rng);
                recent[cursor] = i;
                cursor = (cursor + 1) % recent.len();
                n_recent = (n_recent + 1).min(recent.len());
                i
            };
            let w = dict.word(widx);
            let take = w.len().min(ATOM_SIZE - pos);
            out[pos..pos + take].copy_from_slice(&w[..take]);
            pos += take;
        } else {
            // 4–8 bytes of incompressible filler.
            let n = rng.range(4, 9) as usize;
            let r = rng.next_u64().to_le_bytes();
            let take = n.min(ATOM_SIZE - pos);
            out[pos..pos + take].copy_from_slice(&r[..take]);
            pos += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn atom(group: AtomGroup, idx: u64) -> Vec<u8> {
        let dict = Dictionary::new(77);
        let mut buf = vec![0u8; ATOM_SIZE];
        fill_atom(&dict, 77, group, idx, &mut buf);
        buf
    }

    /// Every variant of [`AtomGroup`], chosen and parameterised by draws.
    fn any_group(kind: u8, a: u32, b: u32, c: u32) -> AtomGroup {
        let family = OsFamily::ALL[a as usize % OsFamily::ALL.len()];
        match kind {
            0 => AtomGroup::Base {
                family,
                release: b % 12,
            },
            1 => AtomGroup::Common,
            2 => AtomGroup::Lib { family },
            3 => AtomGroup::Pkg,
            4 => AtomGroup::Variant {
                family,
                release: b % 12,
                variant: c % 64,
            },
            _ => AtomGroup::Unique {
                image: b % 4096,
                stream: c % 4096,
            },
        }
    }

    fn both_fills(dict: &Dictionary, seed: u64, group: AtomGroup, idx: u64) -> [Vec<u8>; 2] {
        let mut fast = vec![0u8; ATOM_SIZE];
        let mut reference = vec![0u8; ATOM_SIZE];
        fill_atom(dict, seed, group, idx, &mut fast);
        reference_fill_atom(dict, seed, group, idx, &mut reference);
        [fast, reference]
    }

    proptest! {
        /// The fixed-width writer lays down the reference's bytes for any
        /// atom of any group under any corpus seed.
        #[test]
        fn fill_equals_the_reference_copy(
            seed in any::<u64>(),
            kind in 0u8..6,
            params in (any::<u32>(), any::<u32>(), any::<u32>()),
            idx in any::<u64>(),
        ) {
            let dict = Dictionary::new(seed);
            let group = any_group(kind, params.0, params.1, params.2);
            let [fast, reference] = both_fills(&dict, seed, group, idx);
            prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn fill_equals_the_reference_copy_at_the_pinned_seeds() {
        for seed in [2014, 7] {
            let dict = Dictionary::new(seed);
            for kind in 0..6 {
                for idx in 0..200 {
                    let group = any_group(kind, idx as u32, 3 * idx as u32, idx as u32 / 5);
                    let [fast, reference] = both_fills(&dict, seed, group, idx);
                    assert_eq!(fast, reference, "seed {seed}, {group:?}, atom {idx}");
                }
            }
        }
    }

    #[test]
    fn thresholds_decide_as_chance_does() {
        // The boundary, exactly: the largest 53-bit draw below the
        // threshold passes `unit_f64() < p`, the threshold itself fails.
        let unit = |m: u64| m as f64 / (1u64 << 53) as f64;
        for (p, threshold) in [
            (WORD_PROB, WORD_THRESHOLD),
            (LOCAL_REPEAT, LOCAL_REPEAT_THRESHOLD),
        ] {
            assert!(unit(threshold - 1) < p && unit(threshold) >= p, "p = {p}");
        }
        assert_eq!(chance_threshold(0.0), 0);
        assert_eq!(chance_threshold(0.5), 1 << 52);
        assert_eq!(chance_threshold(1.0), 1 << 53);
        // And on a stream of draws.
        let mut rng = SplitMix64::new(40);
        for _ in 0..10_000 {
            for (p, threshold) in [
                (WORD_PROB, WORD_THRESHOLD),
                (LOCAL_REPEAT, LOCAL_REPEAT_THRESHOLD),
            ] {
                assert_eq!(draw_below(&mut rng.clone(), threshold), rng.chance(p));
            }
        }
    }

    #[test]
    fn atoms_are_deterministic() {
        let g = AtomGroup::Lib {
            family: OsFamily::Ubuntu,
        };
        assert_eq!(atom(g, 5), atom(g, 5));
        assert_ne!(atom(g, 5), atom(g, 6));
    }

    #[test]
    fn groups_produce_distinct_content() {
        let a = atom(AtomGroup::Common, 1);
        let b = atom(AtomGroup::Pkg, 1);
        let c = atom(
            AtomGroup::Unique {
                image: 3,
                stream: 0,
            },
            1,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn release_inheritance_creates_overlap() {
        // Consecutive Ubuntu releases share many base atoms; distant ones
        // share fewer but still some.
        let f = OsFamily::Ubuntu;
        // Sample enough atoms to cover many inheritance segments.
        let n = 200 * INHERIT_SEGMENT_ATOMS;
        let share = |r1: u32, r2: u32| {
            let mut same = 0;
            for idx in 0..n {
                let a = resolve_atom(
                    AtomGroup::Base {
                        family: f,
                        release: r1,
                    },
                    idx,
                );
                let b = resolve_atom(
                    AtomGroup::Base {
                        family: f,
                        release: r2,
                    },
                    idx,
                );
                if a == b {
                    same += 1;
                }
            }
            same as f64 / n as f64
        };
        let adjacent = share(4, 5);
        let distant = share(0, 7);
        assert!(adjacent > 0.45, "adjacent {adjacent}");
        assert!(
            distant < adjacent,
            "distant {distant} vs adjacent {adjacent}"
        );
        assert!(share(3, 3) == 1.0);
    }

    #[test]
    fn families_do_not_share_base_except_common() {
        let n = 200 * INHERIT_SEGMENT_ATOMS;
        let mut same = 0u64;
        for idx in 0..n {
            let a = resolve_atom(
                AtomGroup::Base {
                    family: OsFamily::Ubuntu,
                    release: 0,
                },
                idx,
            );
            let b = resolve_atom(
                AtomGroup::Base {
                    family: OsFamily::Debian,
                    release: 0,
                },
                idx,
            );
            if a == b {
                same += 1;
            }
        }
        // Sharing only happens where both resolve to Common (~6% each).
        assert!((same as f64) < 0.03 * n as f64, "same {same}/{n}");
    }

    #[test]
    fn atom_bytes_are_compressible_but_not_trivial() {
        // Rough entropy probe: distinct byte count should be broad (mixed
        // texture), and repeated dictionary words make long-range repeats.
        let a = atom(AtomGroup::Common, 9);
        let distinct = a.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(distinct > 60, "distinct {distinct}");
    }

    #[test]
    fn unique_streams_are_independent() {
        let a = atom(
            AtomGroup::Unique {
                image: 1,
                stream: 0,
            },
            0,
        );
        let b = atom(
            AtomGroup::Unique {
                image: 1,
                stream: 1,
            },
            0,
        );
        let c = atom(
            AtomGroup::Unique {
                image: 2,
                stream: 0,
            },
            0,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
