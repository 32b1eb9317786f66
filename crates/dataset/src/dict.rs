//! Shared vocabulary giving atoms their compressible texture.
//!
//! Real VM image content (binaries, config, libraries) compresses roughly
//! 2–3x under gzip, and larger blocks compress better because repeats span
//! further than small blocks can see. We reproduce that by synthesizing atom
//! bytes as a mix of dictionary words (repeated across the whole corpus) and
//! incompressible filler. The word/filler balance below is calibrated by the
//! `calibration` tests in `analysis.rs` to land in the paper's ratio range.

use crate::rng::SplitMix64;

/// Number of words in the corpus-wide dictionary.
pub const DICT_WORDS: usize = 16384;
/// Word lengths span 4..=12 bytes.
const WORD_MIN: usize = 4;
const WORD_MAX: usize = 12;

/// Probability that the next emitted token is a dictionary word rather than
/// random filler. Calibrated for gzip-6 ≈ 2.5x on 128 KiB blocks.
pub const WORD_PROB: f64 = 0.85;

/// Bytes every word can be read as: the longest word, rounded up to one
/// 16-byte copy.
pub const WORD_READ: usize = 16;
const _: () = assert!(WORD_MAX <= WORD_READ);

/// The corpus-wide word dictionary, generated once per corpus seed.
pub struct Dictionary {
    /// Flat word bytes plus offsets, to keep the whole thing in two
    /// allocations. [`WORD_READ`] zero bytes follow the last word, so any
    /// word can be read as one fixed-width window ([`word_window`](Self::word_window)).
    bytes: Vec<u8>,
    offsets: Vec<u32>,
}

impl Dictionary {
    /// Build the dictionary for `corpus_seed`.
    pub fn new(corpus_seed: u64) -> Self {
        let mut rng = SplitMix64::from_parts(&[corpus_seed, 0xd1c7]);
        let mut bytes = Vec::with_capacity(DICT_WORDS * (WORD_MIN + WORD_MAX) / 2);
        let mut offsets = Vec::with_capacity(DICT_WORDS + 1);
        offsets.push(0u32);
        for _ in 0..DICT_WORDS {
            let len = rng.range(WORD_MIN as u64, WORD_MAX as u64 + 1) as usize;
            for _ in 0..len {
                // Printable-ish alphabet: mimics the byte histogram skew of
                // real file-system content (ASCII-heavy with binary sprinkle).
                let b = match rng.below(10) {
                    0..=6 => rng.range(b'a' as u64, b'z' as u64 + 1) as u8,
                    7 => rng.range(b'0' as u64, b'9' as u64 + 1) as u8,
                    8 => b'/',
                    _ => rng.next_u64() as u8,
                };
                bytes.push(b);
            }
            offsets.push(bytes.len() as u32);
        }
        bytes.resize(bytes.len() + WORD_READ, 0);
        Dictionary { bytes, offsets }
    }

    /// Word `idx` (0-based).
    #[inline]
    pub fn word(&self, idx: usize) -> &[u8] {
        let start = self.offsets[idx] as usize;
        let end = self.offsets[idx + 1] as usize;
        &self.bytes[start..end]
    }

    /// Word `idx` as the [`WORD_READ`] bytes starting at it, and its
    /// length: the word, then whatever follows it. A writer that copies the
    /// whole window and advances by the length lays words down with one
    /// fixed-width copy each.
    #[inline]
    pub fn word_window(&self, idx: usize) -> (&[u8; WORD_READ], usize) {
        let start = self.offsets[idx] as usize;
        let len = self.offsets[idx + 1] as usize - start;
        let window = self.bytes[start..start + WORD_READ]
            .try_into()
            .expect("padded tail");
        (window, len)
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pick a word index with a quadratically skewed distribution: a hot head
    /// (frequent words compress extremely well) plus a long tail.
    #[inline]
    pub fn skewed_index(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit_f64();
        ((u * u * self.len() as f64) as usize).min(self.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = Dictionary::new(1);
        let b = Dictionary::new(1);
        let c = Dictionary::new(2);
        assert_eq!(a.word(17), b.word(17));
        assert_eq!(a.word(4095), b.word(4095));
        assert_ne!(
            (0..64).map(|i| a.word(i).to_vec()).collect::<Vec<_>>(),
            (0..64).map(|i| c.word(i).to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn word_lengths_in_range() {
        let d = Dictionary::new(3);
        for i in 0..d.len() {
            let l = d.word(i).len();
            assert!((WORD_MIN..=WORD_MAX).contains(&l), "word {i} len {l}");
        }
    }

    #[test]
    fn skewed_index_prefers_head() {
        let d = Dictionary::new(5);
        let mut rng = SplitMix64::new(8);
        let mut head = 0;
        for _ in 0..10_000 {
            if d.skewed_index(&mut rng) < DICT_WORDS / 10 {
                head += 1;
            }
        }
        // sqrt(0.1) ≈ 0.316 of samples land in the first decile.
        assert!((2500..4000).contains(&head), "head {head}");
    }

    #[test]
    fn every_window_starts_with_its_word() {
        let d = Dictionary::new(4);
        for i in 0..d.len() {
            let (window, len) = d.word_window(i);
            assert_eq!(&window[..len], d.word(i), "word {i}");
        }
        // The last word's window runs into the zero padding.
        let last = d.len() - 1;
        let (window, len) = d.word_window(last);
        assert!(window[len..].iter().all(|&b| b == 0));
    }

    #[test]
    fn dict_has_expected_size() {
        let d = Dictionary::new(9);
        assert_eq!(d.len(), DICT_WORDS);
        assert!(!d.is_empty());
    }
}
