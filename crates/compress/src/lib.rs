//! Block compression substrate for the Squirrel reproduction.
//!
//! The paper compares ZFS's inline compression routines — gzip-6, gzip-9,
//! lzjb, and lz4 — on VM image blocks (Figure 3). No compression crates are
//! in the allowed dependency set, so this crate implements three codec
//! families from scratch:
//!
//! * [`Codec::Gzip`] — LZSS over a 32 KiB window followed by a canonical
//!   Huffman pass; the level steers match-search effort like zlib's levels.
//! * [`Codec::Lzjb`] — a port of ZFS's lzjb (hash-table LZ with 3-bit match
//!   lengths and 10-bit offsets).
//! * [`Codec::Lz4`] — an LZ4-style byte-oriented LZ with greedy hash-chain
//!   matching and run-length tokens.
//!
//! All codecs share the frame convention of [`compress`]: a 1-byte method tag
//! so that incompressible blocks are stored raw instead of expanding, exactly
//! like ZFS falls back to uncompressed records.

#![forbid(unsafe_code)]

mod bitio;
mod huffman;
mod lz4;
mod lzjb;
mod lzss;

/// Compression routine selector, mirroring ZFS `compression=` values used in
/// the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression; frames still detect all-zero blocks.
    Off,
    /// LZSS + Huffman, level 1..=9 (paper uses 6 and 9).
    Gzip(u8),
    /// ZFS's historical default LZ codec.
    Lzjb,
    /// Fast byte-oriented LZ in the style of LZ4.
    Lz4,
}

impl Codec {
    /// Canonical name as used in the paper's figure legends.
    pub fn name(&self) -> String {
        match self {
            Codec::Off => "off".to_string(),
            Codec::Gzip(l) => format!("gzip-{l}"),
            Codec::Lzjb => "lzjb".to_string(),
            Codec::Lz4 => "lz4".to_string(),
        }
    }

    /// CPU cost to decompress one byte, in nanoseconds, used by the boot
    /// simulator. Calibrated from the relative throughputs of the real codecs
    /// (lz4/lzjb several GB/s-class, gzip hundreds of MB/s).
    pub fn decompress_ns_per_byte(&self) -> f64 {
        match self {
            Codec::Off => 0.0,
            // gzip inflate ran at ~80 MB/s per core on 2014 hardware.
            Codec::Gzip(_) => 12.0,
            Codec::Lzjb => 0.8,
            Codec::Lz4 => 0.5,
        }
    }
}

/// Word-wise all-zero probe with an early exit at the first nonzero 64-byte
/// group, so data blocks (the common case) bail after one cache line.
#[inline]
fn all_zero(data: &[u8]) -> bool {
    let mut groups = data.chunks_exact(64);
    for g in groups.by_ref() {
        let mut acc = 0u64;
        for w in g.chunks_exact(8) {
            acc |= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        }
        if acc != 0 {
            return false;
        }
    }
    groups.remainder().iter().all(|&b| b == 0)
}

/// Method tags for the 1-byte frame header.
const TAG_RAW: u8 = 0;
const TAG_ZERO: u8 = 1;
const TAG_GZIP: u8 = 2;
const TAG_LZJB: u8 = 3;
const TAG_LZ4: u8 = 4;

/// Compress `data` with `codec`, producing a self-describing frame.
///
/// The frame never expands by more than one byte: if the codec's output would
/// be at least as large as the input, the block is stored raw. All-zero
/// blocks collapse to a 1-byte frame regardless of codec (ZFS's zero-block
/// elision).
///
/// One-shot convenience over [`Compressor`]; batch callers should build a
/// `Compressor` once and reuse it so codec dispatch (and gzip's effort
/// lookup) happens per batch, not per block.
pub fn compress(codec: Codec, data: &[u8]) -> Vec<u8> {
    Compressor::new(codec).compress(data)
}

/// A codec with its dispatch resolved ahead of time.
///
/// The ingest hot path compresses thousands of blocks with one codec; a
/// `Compressor` hoists the per-block `match` on [`Codec`] — including the
/// gzip level → LZSS-effort translation — out of the loop. Output frames
/// are byte-identical to [`compress`] with the same codec.
#[derive(Clone, Copy, Debug)]
pub struct Compressor {
    plan: Plan,
}

/// Pre-resolved codec dispatch (gzip level already mapped to LZSS effort).
#[derive(Clone, Copy, Debug)]
enum Plan {
    Off,
    Gzip { effort: usize },
    Lzjb,
    Lz4,
}

impl Compressor {
    /// Resolve `codec` into a reusable compression plan.
    pub fn new(codec: Codec) -> Self {
        let plan = match codec {
            Codec::Off => Plan::Off,
            Codec::Gzip(level) => Plan::Gzip {
                effort: lzss::effort_for_level(level),
            },
            Codec::Lzjb => Plan::Lzjb,
            Codec::Lz4 => Plan::Lz4,
        };
        Compressor { plan }
    }

    /// Compress one block into a self-describing frame; identical framing
    /// (zero elision, raw fallback) to the free [`compress`].
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        if all_zero(data) {
            return vec![TAG_ZERO];
        }
        let body = match self.plan {
            Plan::Off => None,
            Plan::Gzip { effort } => Some((
                TAG_GZIP,
                huffman::huffman_compress(&lzss::compress(data, effort)),
            )),
            Plan::Lzjb => Some((TAG_LZJB, lzjb::compress(data))),
            Plan::Lz4 => Some((TAG_LZ4, lz4::compress(data))),
        };
        match body {
            Some((tag, body)) if body.len() < data.len() => {
                let mut out = Vec::with_capacity(body.len() + 1);
                out.push(tag);
                out.extend_from_slice(&body);
                out
            }
            _ => {
                let mut out = Vec::with_capacity(data.len() + 1);
                out.push(TAG_RAW);
                out.extend_from_slice(data);
                out
            }
        }
    }
}

/// Decompress a frame produced by [`compress`]. `expected_len` is the
/// original block length, which callers keep beside every frame (records
/// and CDC chunks alike); a gzip frame never decodes to more than it.
pub fn decompress(frame: &[u8], expected_len: usize) -> Vec<u8> {
    let (&tag, body) = frame.split_first().expect("empty frame");
    match tag {
        TAG_RAW => body.to_vec(),
        TAG_ZERO => vec![0; expected_len],
        // LZSS + Huffman (DEFLATE's two stages) undone in one pass.
        TAG_GZIP => lzss::inflate(body, expected_len),
        TAG_LZJB => lzjb::decompress(body, expected_len),
        TAG_LZ4 => lz4::decompress(body, expected_len),
        other => panic!("unknown compression tag {other}"),
    }
}

/// Compressed size of `data` under `codec` (frame included).
pub fn compressed_len(codec: Codec, data: &[u8]) -> usize {
    compress(codec, data).len()
}

/// The generator behind this crate's test inputs. The seed is xored with a
/// fixed word so the inputs stay the ones the thresholds were tuned on.
#[cfg(test)]
pub(crate) fn test_rng(seed: u64) -> squirrel_hash::rng::SplitMix64 {
    squirrel_hash::rng::SplitMix64::new(seed ^ 0x5851_f42d_4c95_7f2d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codecs() -> Vec<Codec> {
        vec![
            Codec::Off,
            Codec::Gzip(6),
            Codec::Gzip(9),
            Codec::Lzjb,
            Codec::Lz4,
        ]
    }

    fn roundtrip(codec: Codec, data: &[u8]) {
        let frame = compress(codec, data);
        let back = decompress(&frame, data.len());
        assert_eq!(back, data, "codec {:?} len {}", codec, data.len());
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for codec in codecs() {
            roundtrip(codec, b"");
            roundtrip(codec, b"a");
            roundtrip(codec, b"ab");
            roundtrip(codec, b"squirrel");
        }
    }

    #[test]
    fn zero_blocks_collapse_to_one_byte() {
        for codec in codecs() {
            let frame = compress(codec, &[0u8; 4096]);
            assert_eq!(frame.len(), 1, "{codec:?}");
            assert_eq!(decompress(&frame, 4096), vec![0u8; 4096]);
        }
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        for codec in [Codec::Gzip(6), Codec::Gzip(9), Codec::Lzjb, Codec::Lz4] {
            let frame = compress(codec, &data);
            assert!(
                frame.len() < data.len() / 3,
                "{codec:?} got {} for {}",
                frame.len(),
                data.len()
            );
            roundtrip(codec, &data);
        }
    }

    #[test]
    fn random_data_stored_raw_not_expanded() {
        let mut rng = test_rng(7);
        let data: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        for codec in codecs() {
            let frame = compress(codec, &data);
            assert!(frame.len() <= data.len() + 1, "{codec:?}");
            roundtrip(codec, &data);
        }
    }

    #[test]
    fn gzip_beats_fast_codecs_on_text() {
        // The figure-3 ordering the paper relies on, measured on realistic
        // mixed content (repeated vocabulary with varying numbers) rather
        // than a trivial cycle where every codec degenerates to one match.
        let mut rng = test_rng(42);
        let vocab = [
            "kernel", "initrd", "libc", "systemd", "daemon", "config", "mount", "device", "driver",
            "module", "service", "socket", "target",
        ];
        let mut text = Vec::new();
        while text.len() < 32768 {
            let w = vocab[(rng.next_u64() % vocab.len() as u64) as usize];
            text.extend_from_slice(w.as_bytes());
            text.extend_from_slice(format!("-{:x} ", rng.next_u64() % 4096).as_bytes());
        }
        let g6 = compressed_len(Codec::Gzip(6), &text);
        let lz4 = compressed_len(Codec::Lz4, &text);
        let lzjb = compressed_len(Codec::Lzjb, &text);
        assert!(g6 < lz4, "gzip {g6} vs lz4 {lz4}");
        assert!(g6 < lzjb, "gzip {g6} vs lzjb {lzjb}");
    }

    #[test]
    fn gzip9_at_least_as_good_as_gzip6() {
        let mut rng = test_rng(99);
        // Mixed compressible data: random words repeated.
        let words: Vec<Vec<u8>> = (0..64)
            .map(|_| (0..8).map(|_| b'a' + (rng.next_u64() % 26) as u8).collect())
            .collect();
        let mut data = Vec::new();
        while data.len() < 32768 {
            data.extend_from_slice(&words[(rng.next_u64() % 64) as usize]);
        }
        let g6 = compressed_len(Codec::Gzip(6), &data);
        let g9 = compressed_len(Codec::Gzip(9), &data);
        assert!(g9 <= g6 + 16, "g9 {g9} vs g6 {g6}");
    }

    #[test]
    fn larger_blocks_compress_better_on_structured_data() {
        // The core mechanism behind Figure 2's gzip trend: bigger windows see
        // more repeats.
        let mut rng = test_rng(3);
        let motifs: Vec<Vec<u8>> = (0..256)
            .map(|_| (0..64).map(|_| rng.next_u64() as u8 & 0x3f).collect())
            .collect();
        let data: Vec<u8> = (0..131072 / 64)
            .flat_map(|_| motifs[(rng.next_u64() % 256) as usize].clone())
            .collect();
        let ratio = |bs: usize| {
            let mut orig = 0usize;
            let mut comp = 0usize;
            for chunk in data.chunks(bs) {
                orig += chunk.len();
                comp += compressed_len(Codec::Gzip(6), chunk);
            }
            orig as f64 / comp as f64
        };
        let small = ratio(1024);
        let large = ratio(65536);
        assert!(large > small, "large {large:.3} <= small {small:.3}");
    }

    #[test]
    fn compressor_matches_free_function() {
        let mut rng = test_rng(11);
        let blocks: Vec<Vec<u8>> = (0..8)
            .map(|i| match i % 4 {
                0 => vec![0u8; 2048],
                1 => (0..2048).map(|_| rng.next_u64() as u8).collect(),
                2 => (0..2048).map(|j| (j % 7) as u8).collect(),
                _ => b"squirrel".iter().copied().cycle().take(2048).collect(),
            })
            .collect();
        for codec in codecs() {
            let c = Compressor::new(codec);
            for b in &blocks {
                assert_eq!(c.compress(b), compress(codec, b), "{codec:?}");
            }
        }
    }

    #[test]
    fn unknown_tag_panics() {
        let r = std::panic::catch_unwind(|| decompress(&[250, 1, 2], 2));
        assert!(r.is_err());
    }

    #[test]
    fn codec_names_match_paper_legends() {
        assert_eq!(Codec::Gzip(6).name(), "gzip-6");
        assert_eq!(Codec::Lzjb.name(), "lzjb");
        assert_eq!(Codec::Lz4.name(), "lz4");
        assert_eq!(Codec::Off.name(), "off");
    }

    #[test]
    fn decompress_cost_ordering() {
        assert!(Codec::Gzip(6).decompress_ns_per_byte() > Codec::Lzjb.decompress_ns_per_byte());
        assert!(Codec::Lzjb.decompress_ns_per_byte() >= Codec::Lz4.decompress_ns_per_byte());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn roundtrip_gzip6(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let frame = compress(Codec::Gzip(6), &data);
            prop_assert_eq!(decompress(&frame, data.len()), data);
        }

        #[test]
        fn roundtrip_gzip9(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let frame = compress(Codec::Gzip(9), &data);
            prop_assert_eq!(decompress(&frame, data.len()), data);
        }

        #[test]
        fn roundtrip_lzjb(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let frame = compress(Codec::Lzjb, &data);
            prop_assert_eq!(decompress(&frame, data.len()), data);
        }

        #[test]
        fn roundtrip_lz4(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let frame = compress(Codec::Lz4, &data);
            prop_assert_eq!(decompress(&frame, data.len()), data);
        }

        #[test]
        fn roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..8192)) {
            for codec in [Codec::Gzip(6), Codec::Lzjb, Codec::Lz4] {
                let frame = compress(codec, &data);
                prop_assert!(frame.len() <= data.len() + 1);
                prop_assert_eq!(decompress(&frame, data.len()), data.clone());
            }
        }

        #[test]
        fn frame_never_expands_by_more_than_tag(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
            for codec in [Codec::Off, Codec::Gzip(6), Codec::Lzjb, Codec::Lz4] {
                prop_assert!(compress(codec, &data).len() <= data.len() + 1);
            }
        }
    }
}
