//! LZSS match stage of the gzip-like codec.
//!
//! Produces a byte-oriented token stream (later entropy-coded by the Huffman
//! stage): groups of eight items are prefixed by a flag byte whose bits say
//! literal (0) or match (1). A match is `len_code` (one byte, encoding
//! lengths 3..=258) followed by a little-endian u16 distance (1..=32768,
//! stored minus one). The 32 KiB window and 258-byte max match mirror
//! DEFLATE's parameters, which is what makes the block-size-vs-ratio trend in
//! the paper's Figure 2 come out: blocks smaller than the window cannot
//! exploit long-range redundancy.

use crate::huffman::Symbols;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Match-finder effort (max hash-chain probes) for a zlib-style level.
pub fn effort_for_level(level: u8) -> usize {
    match level {
        0..=1 => 4,
        2..=3 => 16,
        4..=5 => 48,
        6 => 128,
        7 => 256,
        8 => 512,
        _ => 1024,
    }
}

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Hash-chain tables, one set per thread, reused by every [`compress`] call
/// on it. Positions are stored as `base + position`, where each call takes
/// a fresh `base` above everything earlier calls stored: an entry below the
/// current base is an empty slot, so `head` is never cleared between calls
/// (only when the 32-bit tags wrap), and `prev` is never initialised at all —
/// a slot is read only for a position the same call inserted.
struct Chains {
    /// Tag of the most recent position with each hash.
    head: Box<[u32]>,
    /// `prev[i % WINDOW]`: what `head` held when position `i` was inserted.
    prev: Box<[u32]>,
    /// First tag the next call may use; at least 1, so a zeroed slot is empty.
    next_base: u32,
}

impl Chains {
    fn new() -> Self {
        Chains {
            head: vec![0; HASH_SIZE].into_boxed_slice(),
            prev: vec![0; WINDOW].into_boxed_slice(),
            next_base: 1,
        }
    }

    /// Reserve tags `base..base + n` for one call and return `base`.
    fn reserve(&mut self, n: usize) -> u32 {
        assert!(n < u32::MAX as usize, "lzss input must be under 4 GiB");
        let n = n as u32;
        if self.next_base > u32::MAX - n {
            self.head.fill(0);
            self.next_base = 1;
        }
        let base = self.next_base;
        self.next_base += n;
        base
    }

    /// Link position `j` (tagged) in front of its hash's chain.
    #[inline]
    fn insert(&mut self, data: &[u8], j: usize, base: u32) {
        let h = hash3(data, j);
        self.prev[j % WINDOW] = self.head[h];
        self.head[h] = base + j as u32;
    }
}

thread_local! {
    static CHAINS: std::cell::RefCell<Chains> = std::cell::RefCell::new(Chains::new());
}

/// Length of the common prefix of `a` and `b` (equal lengths), eight bytes
/// at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..].iter().zip(&b[l..]).take_while(|(x, y)| x == y).count()
}

/// LZSS-compress `data` with up to `effort` chain probes per position.
pub fn compress(data: &[u8], effort: usize) -> Vec<u8> {
    CHAINS.with_borrow_mut(|chains| compress_with(chains, data, effort))
}

fn compress_with(chains: &mut Chains, data: &[u8], effort: usize) -> Vec<u8> {
    let n = data.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n == 0 {
        return out;
    }
    let base = chains.reserve(n);

    let mut flag_pos = 0usize;
    // Start "full" so the first item opens a fresh flag byte before any
    // payload is emitted; rollover must happen before payload bytes, or the
    // next group's flag byte would land in the middle of this item's payload.
    let mut flag_bit = 8u8;

    macro_rules! bump_flag {
        ($is_match:expr) => {
            if flag_bit == 8 {
                flag_bit = 0;
                flag_pos = out.len();
                out.push(0);
            }
            if $is_match {
                out[flag_pos] |= 1 << flag_bit;
            }
            flag_bit += 1;
        };
    }

    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let mut tag = chains.head[hash3(data, i)];
            let mut probes = effort;
            let limit = i.saturating_sub(WINDOW);
            let max_len = (n - i).min(MAX_MATCH);
            let here = &data[i..i + max_len];
            // A tag below `base` is an empty slot or another call's entry:
            // the chain ends there.
            while tag >= base && probes > 0 {
                let cand = (tag - base) as usize;
                if cand < limit {
                    break; // chain left the window
                }
                // Quick reject: compare the byte one past the current best.
                if best_len == 0 || data[cand + best_len] == here[best_len] {
                    let l = common_prefix(&data[cand..cand + max_len], here);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l >= max_len {
                            break;
                        }
                    }
                }
                tag = chains.prev[cand % WINDOW];
                probes -= 1;
            }
        }

        if best_len >= MIN_MATCH {
            bump_flag!(true);
            out.push((best_len - MIN_MATCH) as u8);
            out.extend_from_slice(&((best_dist - 1) as u16).to_le_bytes());
            // Insert every covered position into the chains so later matches
            // can reference the middle of this match.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            for j in i..end {
                chains.insert(data, j, base);
            }
            i += best_len;
        } else {
            bump_flag!(false);
            out.push(data[i]);
            if i + MIN_MATCH <= n {
                chains.insert(data, i, base);
            }
            i += 1;
        }
    }
    out
}

/// The longest token stream [`compress`] can emit for `len` input bytes
/// (all literals: one flag byte per eight), and so the most a decoder for a
/// `len`-byte block ever reads.
pub fn max_token_bytes(len: usize) -> usize {
    len + len / 8 + 2
}

/// Reverse of [`compress`] and of the Huffman stage in one pass: each item
/// is decoded from the Huffman `frame` straight into an `expected_len`-byte
/// block. The block bounds the output and ends decoding (the token stream
/// carries no explicit end marker); a match that runs past it is cut there.
pub fn inflate(frame: &[u8], expected_len: usize) -> Vec<u8> {
    let mut tokens = Symbols::open(frame, max_token_bytes(expected_len));
    let mut out = vec![0u8; expected_len];
    let mut written = 0usize;
    'outer: while written < expected_len && tokens.left() > 0 {
        tokens.refill();
        let flags = tokens.next();
        for bit in 0..8 {
            if written >= expected_len || tokens.left() == 0 {
                break 'outer;
            }
            tokens.refill();
            if flags & (1 << bit) == 0 {
                out[written] = tokens.next();
                written += 1;
                continue;
            }
            assert!(tokens.left() >= 3, "corrupt lzss stream: match cut short");
            let len = tokens.next() as usize + MIN_MATCH;
            let dist = u16::from_le_bytes([tokens.next(), tokens.next()]) as usize + 1;
            assert!(dist <= written, "corrupt lzss stream: match before start of block");
            let (from, to) = (written - dist, written);
            if dist >= 16 && to + len + 16 <= expected_len {
                // Whole 16-byte chunks, each read wholly behind the write;
                // the last may spill up to 15 bytes past the match, which
                // later items overwrite or the final truncate drops.
                for k in (0..len).step_by(16) {
                    let chunk: [u8; 16] = out[from + k..from + k + 16].try_into().expect("16");
                    out[to + k..to + k + 16].copy_from_slice(&chunk);
                }
                written += len;
            } else {
                // Self-overlapping (each copied byte may be one this copy
                // wrote) or at the end of the block.
                written = expected_len.min(to + len);
                for i in to..written {
                    out[i] = out[i - dist];
                }
            }
        }
    }
    tokens.finish();
    out.truncate(written);
    out
}

/// Second stage of the two-stage decoder this crate shipped before
/// [`inflate`]: a token buffer back into bytes, the last match whole even
/// past `expected_len`. Kept as the reference [`inflate`] is compared
/// against.
#[cfg(test)]
pub fn decompress(tokens: &[u8], expected_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0usize;
    'outer: while pos < tokens.len() && out.len() < expected_len {
        let flags = tokens[pos];
        pos += 1;
        for bit in 0..8 {
            if out.len() >= expected_len || pos >= tokens.len() {
                break 'outer;
            }
            if flags & (1 << bit) != 0 {
                assert!(pos + 3 <= tokens.len(), "corrupt lzss stream: match cut short");
                let len = tokens[pos] as usize + MIN_MATCH;
                let dist =
                    u16::from_le_bytes([tokens[pos + 1], tokens[pos + 2]]) as usize + 1;
                pos += 3;
                assert!(dist <= out.len(), "corrupt lzss stream: match before start of block");
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Self-overlapping match (the RLE case): each copied
                    // byte may be one this copy wrote.
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            } else {
                out.push(tokens[pos]);
                pos += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::{huffman_compress, huffman_decompress};

    fn rt(data: &[u8], effort: usize) {
        let toks = compress(data, effort);
        assert_eq!(inflate_tokens(&toks, data.len()), data);
        assert_eq!(decompress(&toks, data.len()), data);
    }

    /// The two-stage reference on a Huffman `frame`: token buffer, then
    /// bytes.
    fn two_stage(frame: &[u8], expected_len: usize) -> Vec<u8> {
        decompress(&huffman_decompress(frame, max_token_bytes(expected_len)), expected_len)
    }

    fn inflate_tokens(tokens: &[u8], expected_len: usize) -> Vec<u8> {
        inflate(&huffman_compress(tokens), expected_len)
    }

    /// The match finder this crate shipped before the tagged per-thread
    /// tables: fresh `usize::MAX`-filled chains per call, byte-wise match
    /// extension. Kept as the reference [`compress`] must equal byte for byte.
    fn reference_compress(data: &[u8], effort: usize) -> Vec<u8> {
        let n = data.len();
        let mut out = Vec::with_capacity(n / 2 + 16);
        if n == 0 {
            return out;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; WINDOW];
        let mut flag_pos = 0usize;
        let mut flag_bit = 8u8;
        macro_rules! bump_flag {
            ($is_match:expr) => {
                if flag_bit == 8 {
                    flag_bit = 0;
                    flag_pos = out.len();
                    out.push(0);
                }
                if $is_match {
                    out[flag_pos] |= 1 << flag_bit;
                }
                flag_bit += 1;
            };
        }
        let mut i = 0usize;
        while i < n {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= n {
                let h = hash3(data, i);
                let mut cand = head[h];
                let mut probes = effort;
                let limit = i.saturating_sub(WINDOW);
                let max_len = (n - i).min(MAX_MATCH);
                while cand != usize::MAX && cand >= limit && probes > 0 {
                    if best_len == 0 || data[cand + best_len] == data[i + best_len] {
                        let mut l = 0usize;
                        while l < max_len && data[cand + l] == data[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = i - cand;
                            if l >= max_len {
                                break;
                            }
                        }
                    }
                    let next = prev[cand % WINDOW];
                    if next >= cand {
                        break;
                    }
                    cand = next;
                    probes -= 1;
                }
            }
            if best_len >= MIN_MATCH {
                bump_flag!(true);
                out.push((best_len - MIN_MATCH) as u8);
                out.extend_from_slice(&((best_dist - 1) as u16).to_le_bytes());
                let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
                for j in i..end {
                    let h = hash3(data, j);
                    prev[j % WINDOW] = head[h];
                    head[h] = j;
                }
                i += best_len;
            } else {
                bump_flag!(false);
                out.push(data[i]);
                if i + MIN_MATCH <= n {
                    let h = hash3(data, i);
                    prev[i % WINDOW] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        }
        out
    }

    const EFFORTS: [usize; 3] = [4, 128, 1024];
    /// 32 KiB + 100 crosses the window once; by 160 KiB chains have left
    /// the window and every `prev` slot has been overwritten four times.
    const LENGTHS: [usize; 9] = [0, 1, 2, 3, 257, 4 << 10, 64 << 10, WINDOW + 100, 160 << 10];

    /// Inputs that stress different parts of the search: corpus bytes (real
    /// block content), a four-letter alphabet (chains far longer than any
    /// effort, ties everywhere), and shuffled 64-byte motifs (long matches
    /// at long distances).
    fn inputs(len: usize) -> Vec<Vec<u8>> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use squirrel_dataset::{Corpus, CorpusConfig};
        let corpus = Corpus::generate(CorpusConfig::test_corpus(2, 2014));
        let mut from_corpus = vec![0u8; len];
        if len > 0 {
            corpus.image(1).read_at(64 << 10, &mut from_corpus);
        }
        let mut rng = StdRng::seed_from_u64(len as u64);
        let four_letters = (0..len).map(|_| rng.random_range(0..4u8)).collect();
        let motifs: Vec<[u8; 64]> =
            (0..48).map(|_| std::array::from_fn(|_| rng.random())).collect();
        let mut shuffled = Vec::with_capacity(len + 64);
        while shuffled.len() < len {
            shuffled.extend_from_slice(&motifs[rng.random_range(0..motifs.len())]);
        }
        shuffled.truncate(len);
        vec![from_corpus, four_letters, shuffled]
    }

    #[test]
    fn tokens_equal_the_reference_match_finder() {
        for len in LENGTHS {
            for (which, data) in inputs(len).iter().enumerate() {
                for effort in EFFORTS {
                    // Long low-entropy inputs at full effort are quadratic
                    // in the reference; the 64 KiB case already covers them.
                    if which == 1 && effort == 1024 && len > 64 << 10 {
                        continue;
                    }
                    let want = reference_compress(data, effort);
                    let got = compress(data, effort);
                    assert_eq!(got, want, "input {which}, len {len}, effort {effort}");
                    assert_eq!(decompress(&want, len), *data, "input {which}, len {len}");
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_leaks_nothing_between_calls() {
        // Same thread, so the second call sees the first one's tables: a
        // different block of the same length, then the first block again.
        let a = &inputs(64 << 10)[0];
        let b = &inputs(64 << 10)[2];
        let (want_a, want_b) = (reference_compress(a, 128), reference_compress(b, 128));
        for data_want in [(a, &want_a), (b, &want_b), (a, &want_a), (a, &want_a)] {
            assert_eq!(&compress(data_want.0, 128), data_want.1);
        }
    }

    #[test]
    fn tags_wrap_without_resurrecting_old_entries() {
        let a = &inputs(4 << 10)[1];
        let b = &inputs(4 << 10)[2];
        let mut chains = Chains::new();
        // Leave room for one call but not two: the second must clear `head`
        // rather than let its low tags alias the first call's high ones.
        chains.next_base = u32::MAX - 5000;
        assert_eq!(compress_with(&mut chains, a, 128), reference_compress(a, 128));
        assert!(chains.next_base > u32::MAX - 5000);
        assert_eq!(compress_with(&mut chains, b, 128), reference_compress(b, 128));
        assert_eq!(chains.next_base, 1 + (4 << 10));
        assert_eq!(compress_with(&mut chains, a, 128), reference_compress(a, 128));
    }

    #[test]
    fn decompress_rejects_what_compress_never_emits() {
        // A match reaching before the start of the block, and a match
        // token cut off after its length byte.
        for tokens in [&[0b1, 0, 5, 0][..], &[0b10, b'a', 0, 0]] {
            assert!(std::panic::catch_unwind(|| decompress(tokens, 16)).is_err());
            assert!(std::panic::catch_unwind(|| inflate_tokens(tokens, 16)).is_err());
        }
    }

    #[test]
    fn inflate_equals_the_two_stage_reference() {
        use squirrel_dataset::{Corpus, CorpusConfig};
        let corpus = Corpus::generate(CorpusConfig::test_corpus(2, 2014));
        let mut blocks: Vec<Vec<u8>> = [4 << 10, 16 << 10, 64 << 10, 128 << 10]
            .into_iter()
            .flat_map(|bs| [corpus.image(0).block(bs, 1), corpus.image(1).block(bs, 3)])
            .collect();
        for len in [4 << 10, 64 << 10] {
            blocks.extend(inputs(len).into_iter().skip(1));
        }
        blocks.push(vec![b'x'; 1000]);
        blocks.push(vec![7u8; MAX_MATCH * 3 + 5]);
        blocks.push((0..WINDOW + 100).map(|i| (i % 251) as u8).collect());
        for (which, data) in blocks.iter().enumerate() {
            let n = data.len();
            assert!(data.iter().any(|&b| b != 0), "block {which} holds data");
            for level in [1, 6, 9] {
                let frame = huffman_compress(&compress(data, effort_for_level(level)));
                let at = |len: usize| (inflate(&frame, len), two_stage(&frame, len));
                // At its own length both give back the block, byte for byte.
                assert_eq!(at(n), (data.clone(), data.clone()), "block {which} gzip-{level}");
                // At double, both stop where the token stream ends.
                assert_eq!(at(2 * n), (data.clone(), data.clone()), "block {which} gzip-{level}");
                // At half, the reference finishes its last match past the
                // block; the one pass stops at it. Either way the result is
                // short and wrong, which is what an oracle that decodes at
                // a mis-stated length relies on.
                let (got, mut want) = at(n / 2);
                assert!(want.len() >= n / 2);
                want.truncate(n / 2);
                assert_eq!(got, want, "block {which} gzip-{level} at half length");
                assert_ne!(got, *data);
            }
        }
    }

    #[test]
    fn roundtrip_empty() {
        rt(b"", 128);
    }

    #[test]
    fn roundtrip_short_strings() {
        rt(b"a", 128);
        rt(b"aa", 128);
        rt(b"aaa", 128);
        rt(b"abcabcabcabc", 128);
    }

    #[test]
    fn roundtrip_overlapping_match_rle() {
        // dist=1 self-overlapping copy is the classic tricky case.
        rt(&vec![b'x'; 1000], 128);
    }

    #[test]
    fn roundtrip_exact_window_boundary() {
        let mut data = vec![0u8; WINDOW + 100];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        rt(&data, 64);
    }

    #[test]
    fn long_repeats_shrink_a_lot() {
        let data: Vec<u8> = b"0123456789abcdef".iter().copied().cycle().take(4096).collect();
        let toks = compress(&data, 128);
        assert!(toks.len() < data.len() / 4, "{} vs {}", toks.len(), data.len());
    }

    #[test]
    fn higher_effort_never_worse_on_repetitive_input() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("entry-{:04} ", i % 97).as_bytes());
        }
        let low = compress(&data, 4).len();
        let high = compress(&data, 1024).len();
        assert!(high <= low, "high {high} low {low}");
        rt(&data, 4);
        rt(&data, 1024);
    }

    #[test]
    fn max_match_length_encodable() {
        // A run longer than MAX_MATCH must be split into several matches.
        let data = vec![7u8; MAX_MATCH * 3 + 5];
        rt(&data, 128);
    }
}
