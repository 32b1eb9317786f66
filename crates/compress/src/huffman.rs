//! Canonical Huffman entropy stage of the gzip-like codec.
//!
//! Frame layout:
//! * u32 LE: decoded length in bytes;
//! * u16 LE: byte count of the RLE-coded code-length table;
//! * RLE table: each byte encodes `(run, value)` — high nibble is run length
//!   minus one (1..=16 repeats), low nibble the 4-bit code length — covering
//!   all 256 symbols (0 = unused, 1..=15 = code length);
//! * LSB-first bitstream of canonical codes.
//!
//! Like DEFLATE, the code-length table is itself compressed, so the framing
//! overhead stays small but nonzero — small blocks still pay relatively more
//! header, one of the two mechanisms behind the paper's Figure 2 trend.

use crate::bitio::BitReader;

const MAX_CODE_LEN: u32 = 15;

/// Build Huffman code lengths for `freq` (256 symbols), depth-limited to
/// [`MAX_CODE_LEN`] by iteratively flattening the histogram (zlib's trick).
fn build_lengths(freq: &[u64; 256]) -> [u8; 256] {
    let mut f = *freq;
    loop {
        let lengths = try_build_lengths(&f);
        if lengths.iter().all(|&l| (l as u32) <= MAX_CODE_LEN) {
            return lengths;
        }
        for v in f.iter_mut() {
            if *v > 0 {
                *v = (*v >> 2) + 1;
            }
        }
    }
}

/// One Huffman construction pass; may exceed the depth limit.
fn try_build_lengths(freq: &[u64; 256]) -> [u8; 256] {
    // Node arena: first 256 are leaves, internal nodes appended after.
    // Weights live in the heap entries; nodes only need their children.
    #[derive(Clone, Copy)]
    struct Node {
        left: u16,
        right: u16,
    }
    let mut nodes: Vec<Node> = (0..256)
        .map(|_| Node {
            left: u16::MAX,
            right: u16::MAX,
        })
        .collect();

    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u16)>> = freq
        .iter()
        .enumerate()
        .filter(|(_, &w)| w > 0)
        .map(|(s, &w)| std::cmp::Reverse((w, s as u16)))
        .collect();

    let mut lengths = [0u8; 256];
    match heap.len() {
        0 => return lengths,
        1 => {
            // Single distinct symbol: give it a 1-bit code.
            let std::cmp::Reverse((_, s)) = heap.pop().expect("one element");
            lengths[s as usize] = 1;
            return lengths;
        }
        _ => {}
    }

    while heap.len() > 1 {
        let std::cmp::Reverse((w1, n1)) = heap.pop().expect("len > 1");
        let std::cmp::Reverse((w2, n2)) = heap.pop().expect("len > 1");
        let id = nodes.len() as u16;
        nodes.push(Node {
            left: n1,
            right: n2,
        });
        heap.push(std::cmp::Reverse((w1 + w2, id)));
    }
    let root = heap.pop().expect("root").0 .1;

    // Iterative depth-first traversal assigning depths to leaves.
    let mut stack = vec![(root, 0u8)];
    while let Some((id, depth)) = stack.pop() {
        let node = nodes[id as usize];
        if node.left == u16::MAX {
            lengths[id as usize] = depth.max(1);
        } else {
            stack.push((node.left, depth + 1));
            stack.push((node.right, depth + 1));
        }
    }
    lengths
}

/// Canonical code assignment: shorter codes first, ties by symbol order.
/// Codes are stored bit-reversed so they can be emitted LSB-first.
fn assign_codes(lengths: &[u8; 256]) -> [u16; 256] {
    let mut count = [0u16; (MAX_CODE_LEN + 1) as usize];
    for &l in lengths.iter() {
        count[l as usize] += 1;
    }
    count[0] = 0;
    let mut next = [0u16; (MAX_CODE_LEN + 2) as usize];
    let mut code = 0u16;
    for l in 1..=MAX_CODE_LEN as usize {
        code = (code + count[l - 1]) << 1;
        next[l] = code;
    }
    let mut codes = [0u16; 256];
    for s in 0..256 {
        let l = lengths[s] as usize;
        if l > 0 {
            let c = next[l];
            next[l] += 1;
            codes[s] = reverse_bits(c, l as u32);
        }
    }
    codes
}

#[inline]
fn reverse_bits(v: u16, n: u32) -> u16 {
    v.reverse_bits() >> (16 - n)
}

/// Entropy-code `data` (any byte stream).
pub(crate) fn huffman_compress(data: &[u8]) -> Vec<u8> {
    let freq = histogram(data);
    let lengths = build_lengths(&freq);
    let codes = assign_codes(&lengths);
    let rle = rle_encode_lengths(&lengths);

    // The histogram sizes the body exactly; 8 spare bytes take the last
    // whole-word store, and are cut off again at the end.
    let body_bits: u64 = freq
        .iter()
        .zip(&lengths)
        .map(|(&f, &l)| f * u64::from(l))
        .sum();
    let head = 6 + rle.len();
    let len = head + body_bits.div_ceil(8) as usize;
    let mut out = vec![0u8; len + 8];
    out[..4].copy_from_slice(&(data.len() as u32).to_le_bytes());
    out[4..6].copy_from_slice(&(rle.len() as u16).to_le_bytes());
    out[6..head].copy_from_slice(&rle);

    // One lookup per symbol: code in the low half, length in the high.
    let packed: [u32; 256] = std::array::from_fn(|s| codes[s] as u32 | (lengths[s] as u32) << 16);
    // LSB-first: fewer than 8 bits are pending between stores, so three
    // codes of at most 15 bits always fit the 64-bit accumulator.
    let (mut pos, mut acc, mut nbits) = (head, 0u64, 0u32);
    let mut put = |symbols: &[u8]| {
        for &b in symbols {
            let e = packed[b as usize];
            acc |= u64::from(e & 0xffff) << nbits;
            nbits += e >> 16;
        }
        out[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
        let bytes = nbits / 8;
        pos += bytes as usize;
        acc >>= bytes * 8;
        nbits %= 8;
    };
    let mut triples = data.chunks_exact(3);
    for t in &mut triples {
        put(t);
    }
    put(triples.remainder());
    debug_assert_eq!(
        pos as u64 * 8 + u64::from(nbits),
        head as u64 * 8 + body_bits
    );
    out.truncate(len);
    out
}

/// Symbol counts of `data`, kept in four interleaved tables so that
/// repeated bytes do not serialise on one counter.
fn histogram(data: &[u8]) -> [u64; 256] {
    let mut tables = [[0u32; 256]; 4];
    let mut quads = data.chunks_exact(4);
    for q in &mut quads {
        for (table, &b) in tables.iter_mut().zip(q) {
            table[b as usize] += 1;
        }
    }
    for &b in quads.remainder() {
        tables[0][b as usize] += 1;
    }
    std::array::from_fn(|s| tables.iter().map(|t| u64::from(t[s])).sum())
}

/// RLE over the 256 code-length nibbles: one byte per run, high nibble =
/// run length minus one (1..=16), low nibble = code length.
fn rle_encode_lengths(lengths: &[u8; 256]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let mut i = 0usize;
    while i < 256 {
        let v = lengths[i];
        let mut run = 1usize;
        while run < 16 && i + run < 256 && lengths[i + run] == v {
            run += 1;
        }
        out.push((((run - 1) as u8) << 4) | v);
        i += run;
    }
    out
}

fn rle_decode_lengths(rle: &[u8]) -> [u8; 256] {
    let mut lengths = [0u8; 256];
    let mut i = 0usize;
    for &b in rle {
        let run = (b >> 4) as usize + 1;
        assert!(i + run <= 256, "corrupt code-length table");
        lengths[i..i + run].fill(b & 0x0f);
        i += run;
    }
    assert_eq!(i, 256, "corrupt code-length table");
    lengths
}

/// Stream bits that index the primary decode table. Codes in real token
/// streams are almost all shorter; longer ones take the canonical walk.
const TABLE_BITS: u32 = 11;

/// Decode tables for one code-length assignment.
struct Decoder {
    /// Indexed by the next [`TABLE_BITS`] stream bits: `len << 8 | sym` for
    /// the code those bits start with, or 0 when that code is longer than
    /// the table (or no code starts that way).
    primary: [u16; 1 << TABLE_BITS],
    /// Canonical tables for the long codes: per length, how many codes
    /// there are, the first (MSB-first) code value, and where its symbols
    /// start in `sorted` — symbols in (length, symbol) order.
    count: [u16; (MAX_CODE_LEN + 1) as usize],
    first_code: [u32; (MAX_CODE_LEN + 1) as usize],
    first_sym: [u16; (MAX_CODE_LEN + 1) as usize],
    sorted: [u8; 256],
}

impl Decoder {
    /// Build the tables, rejecting lengths that no prefix code can have
    /// (over-subscribed: Kraft sum above one). An incomplete code is fine —
    /// a single-symbol stream has one 1-bit code.
    fn new(lengths: &[u8; 256]) -> Self {
        let mut count = [0u16; (MAX_CODE_LEN + 1) as usize];
        for &l in lengths.iter() {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let kraft: u32 = (1..=MAX_CODE_LEN)
            .map(|l| (count[l as usize] as u32) << (MAX_CODE_LEN - l))
            .sum();
        assert!(
            kraft <= 1 << MAX_CODE_LEN,
            "corrupt code-length table: not a prefix code"
        );

        let mut first_code = [0u32; (MAX_CODE_LEN + 1) as usize];
        let mut first_sym = [0u16; (MAX_CODE_LEN + 1) as usize];
        let mut code = 0u32;
        let mut sym_base = 0u16;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code + count[l - 1] as u32) << 1;
            first_code[l] = code;
            first_sym[l] = sym_base;
            sym_base += count[l];
        }
        let mut sorted = [0u8; 256];
        let mut next_slot = first_sym;
        for (s, &l) in lengths.iter().enumerate() {
            if l > 0 {
                sorted[next_slot[l as usize] as usize] = s as u8;
                next_slot[l as usize] += 1;
            }
        }

        // The encoder's own codes, already bit-reversed into stream order:
        // every table index whose low `l` bits equal the code decodes to it.
        let codes = assign_codes(lengths);
        let mut primary = [0u16; 1 << TABLE_BITS];
        for (s, &l) in lengths.iter().enumerate() {
            let l = l as u32;
            if l == 0 || l > TABLE_BITS {
                continue;
            }
            let entry = (l as u16) << 8 | s as u16;
            for slot in primary[codes[s] as usize..].iter_mut().step_by(1 << l) {
                *slot = entry;
            }
        }
        Decoder {
            primary,
            count,
            first_code,
            first_sym,
            sorted,
        }
    }

    /// The symbol that `bits` (the next stream bits, LSB first, at least
    /// [`MAX_CODE_LEN`] of them) starts with, and its code length.
    #[inline]
    fn decode(&self, bits: u64) -> (u8, u32) {
        let entry = self.primary[(bits & ((1 << TABLE_BITS) - 1)) as usize];
        if entry != 0 {
            return (entry as u8, (entry >> 8) as u32);
        }
        self.decode_long(bits)
    }

    /// Canonical walk over the lengths the table does not cover: the first
    /// `len` stream bits, read MSB first, are a code of that length iff they
    /// fall in its `[first_code, first_code + count)` range.
    #[cold]
    fn decode_long(&self, bits: u64) -> (u8, u32) {
        for len in TABLE_BITS + 1..=MAX_CODE_LEN {
            let code = reverse_bits((bits & ((1 << len) - 1)) as u16, len) as u32;
            let idx = code.wrapping_sub(self.first_code[len as usize]);
            if idx < self.count[len as usize] as u32 {
                return (
                    self.sorted[(self.first_sym[len as usize] as u32 + idx) as usize],
                    len,
                );
            }
        }
        panic!("corrupt huffman stream");
    }
}

/// The symbols of a [`huffman_compress`] frame, decoded one at a time
/// straight from its bitstream: [`refill`](Self::refill), then at most
/// three [`next`](Self::next) calls while [`left`](Self::left) allows.
///
/// The frame's own length field is not trusted beyond the caller's
/// `max_len` (the caller knows how long a token stream for its block can
/// be), and [`finish`](Self::finish) checks that the body held every bit
/// the decoded symbols consumed: a damaged header can neither size an
/// allocation nor keep a decoder reading padding.
pub(crate) struct Symbols<'a> {
    decoder: Decoder,
    bits: BitReader<'a>,
    left: usize,
}

impl<'a> Symbols<'a> {
    #[inline]
    pub(crate) fn open(frame: &'a [u8], max_len: usize) -> Self {
        assert!(
            frame.len() >= 7,
            "corrupt huffman frame: {} bytes",
            frame.len()
        );
        let n = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let rle_len = u16::from_le_bytes(frame[4..6].try_into().expect("2 bytes")) as usize;
        let body_start = 6 + rle_len;
        assert!(
            body_start <= frame.len(),
            "corrupt huffman frame: code-length table cut short"
        );
        Symbols {
            decoder: Decoder::new(&rle_decode_lengths(&frame[6..body_start])),
            bits: BitReader::new(&frame[body_start..]),
            left: n.min(max_len),
        }
    }

    /// Symbols still to come.
    #[inline]
    pub(crate) fn left(&self) -> usize {
        self.left
    }

    /// Make room for three more symbols (56 window bits ≥ 3 × 15).
    #[inline]
    pub(crate) fn refill(&mut self) {
        self.bits.refill();
    }

    /// The next symbol; the caller has checked `left() > 0`.
    #[inline]
    pub(crate) fn next(&mut self) -> u8 {
        let (sym, len) = self.decoder.decode(self.bits.peek(MAX_CODE_LEN));
        self.bits.consume(len);
        self.left -= 1;
        sym
    }

    /// Panic if the symbols read so far ran past the end of the body.
    #[inline]
    pub(crate) fn finish(self) {
        assert!(
            !self.bits.overran(),
            "corrupt huffman stream: body cut short"
        );
    }
}

/// The first stage of the two-stage decoder this crate shipped before
/// [`Symbols`]: every symbol of the frame, at most `max_len`, into a token
/// buffer. Kept as the reference the one-pass inflate is compared against.
#[cfg(test)]
pub(crate) fn huffman_decompress(frame: &[u8], max_len: usize) -> Vec<u8> {
    assert!(
        frame.len() >= 7,
        "corrupt huffman frame: {} bytes",
        frame.len()
    );
    let n = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
    let n = n.min(max_len);
    let rle_len = u16::from_le_bytes(frame[4..6].try_into().expect("2 bytes")) as usize;
    let body_start = 6 + rle_len;
    assert!(
        body_start <= frame.len(),
        "corrupt huffman frame: code-length table cut short"
    );
    let decoder = Decoder::new(&rle_decode_lengths(&frame[6..body_start]));

    let mut r = BitReader::new(&frame[body_start..]);
    let mut out = vec![0u8; n];
    for slot in out.iter_mut() {
        if r.available() < MAX_CODE_LEN {
            r.refill();
            assert!(!r.overran(), "corrupt huffman stream: body cut short");
        }
        let (sym, len) = decoder.decode(r.peek(MAX_CODE_LEN));
        r.consume(len);
        *slot = sym;
    }
    assert!(!r.overran(), "corrupt huffman stream: body cut short");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::write_bits;

    fn rt(data: &[u8]) {
        let frame = huffman_compress(data);
        assert_eq!(huffman_decompress(&frame, data.len()), data);
        assert_eq!(reference_decompress(&frame), data);
    }

    /// The decoder this crate shipped before the lookup table: canonical
    /// `first_code`/`first_sym` walk, one stream bit at a time. Kept as the
    /// reference the table decoder is compared against.
    fn reference_decompress(frame: &[u8]) -> Vec<u8> {
        let n = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let rle_len = u16::from_le_bytes(frame[4..6].try_into().expect("2 bytes")) as usize;
        let body_start = 6 + rle_len;
        let lengths = rle_decode_lengths(&frame[6..body_start]);

        let mut count = [0u16; (MAX_CODE_LEN + 1) as usize];
        for &l in lengths.iter() {
            count[l as usize] += 1;
        }
        count[0] = 0;
        let mut first_code = [0u32; (MAX_CODE_LEN + 2) as usize];
        let mut first_sym = [0u16; (MAX_CODE_LEN + 2) as usize];
        let mut code = 0u32;
        let mut sym_base = 0u16;
        for l in 1..=MAX_CODE_LEN as usize {
            code = (code + count[l - 1] as u32) << 1;
            first_code[l] = code;
            first_sym[l] = sym_base;
            sym_base += count[l];
        }
        let mut sorted = Vec::with_capacity(sym_base as usize);
        for l in 1..=MAX_CODE_LEN as usize {
            for (s, &sl) in lengths.iter().enumerate() {
                if sl as usize == l {
                    sorted.push(s as u8);
                }
            }
        }

        let mut r = BitReader::new(&frame[body_start..]);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut code = 0u32;
            let mut len = 0usize;
            loop {
                code = (code << 1) | r.read(1) as u32;
                len += 1;
                assert!(len <= MAX_CODE_LEN as usize, "corrupt huffman stream");
                let idx = code.wrapping_sub(first_code[len]);
                if idx < count[len] as u32 {
                    out.push(sorted[(first_sym[len] as u32 + idx) as usize]);
                    break;
                }
            }
        }
        out
    }

    /// `n` symbols drawn so that symbol `s` appears about `freq[s]` times
    /// in every `sum(freq)`, in a scrambled order.
    fn sample(freq: &[u64], n: usize, seed: u64) -> Vec<u8> {
        let total: u64 = freq.iter().sum();
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut t = x % total;
                freq.iter()
                    .position(|&f| {
                        let hit = t < f;
                        t = t.wrapping_sub(f);
                        hit
                    })
                    .expect("t < total") as u8
            })
            .collect()
    }

    /// The histogram of `depth_limit_respected_on_exponential_freqs`, small
    /// enough to sample from: codes run to the 15-bit limit.
    fn fibonacci_freqs(symbols: usize) -> Vec<u64> {
        let (mut a, mut b) = (1u64, 2u64);
        (0..symbols)
            .map(|_| {
                let f = a;
                (a, b) = (b, a + b);
                f
            })
            .collect()
    }

    /// `huffman_compress` as it was before it packed whole words: one
    /// histogram, then the header and every code through the bit-at-a-time
    /// reference writer.
    fn reference_compress(data: &[u8]) -> Vec<u8> {
        let mut freq = [0u64; 256];
        for &b in data {
            freq[b as usize] += 1;
        }
        let lengths = build_lengths(&freq);
        let codes = assign_codes(&lengths);
        let rle = rle_encode_lengths(&lengths);
        let head = (data.len() as u32)
            .to_le_bytes()
            .into_iter()
            .chain((rle.len() as u16).to_le_bytes())
            .chain(rle);
        let body = data
            .iter()
            .map(|&b| (u64::from(codes[b as usize]), u32::from(lengths[b as usize])));
        write_bits(head.map(|b| (u64::from(b), 8)).chain(body))
    }

    /// Every symbol of `freq` exactly as often as it says, scrambled.
    fn exact(freq: &[u64], seed: u64) -> Vec<u8> {
        let mut data: Vec<u8> = (0u8..)
            .zip(freq)
            .flat_map(|(s, &f)| std::iter::repeat_n(s, f as usize))
            .collect();
        let mut x = seed | 1;
        for i in (1..data.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            data.swap(i, (x % (i as u64 + 1)) as usize);
        }
        data
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// 0..=4 KiB over 1, 2, 4 or 256 letters, or (`letters == 0`) the
        /// 16-symbol Fibonacci histogram, whose codes reach the 15-bit
        /// limit, in a scrambled order.
        #[test]
        fn word_packing_equals_the_bit_writer_on_any_input(
            letters in proptest::prop_oneof![
                proptest::prelude::Just(0u16),
                proptest::prelude::Just(1),
                proptest::prelude::Just(2),
                proptest::prelude::Just(4),
                proptest::prelude::Just(256),
            ],
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4097),
        ) {
            let data: Vec<u8> = if letters == 0 {
                exact(&fibonacci_freqs(16), raw.len() as u64)
            } else {
                raw.iter().map(|&b| (b as u16 % letters) as u8).collect()
            };
            proptest::prop_assert_eq!(huffman_compress(&data), reference_compress(&data));
        }
    }

    #[test]
    fn word_packing_equals_the_bit_writer_on_short_and_deep_inputs() {
        // Every length up to two triples and a quad, so each remainder of
        // the packing and counting loops runs, with codes of 1 to 8 bits.
        for len in 0..=7 {
            for letters in [1u8, 2, 3, 255] {
                let data: Vec<u8> = (0..len)
                    .map(|i| (i * 97 % letters as usize) as u8)
                    .collect();
                assert_eq!(
                    huffman_compress(&data),
                    reference_compress(&data),
                    "{len} bytes over {letters} letters"
                );
            }
        }
        // Fibonacci histograms: 16 symbols give codes of exactly 15 bits,
        // more are flattened back under the limit.
        for symbols in 2..=20 {
            let data = exact(&fibonacci_freqs(symbols), symbols as u64);
            let lengths = build_lengths(&histogram(&data));
            let longest = u32::from(*lengths.iter().max().expect("256 lengths"));
            assert!(longest <= MAX_CODE_LEN, "{symbols} symbols");
            assert_eq!(longest == MAX_CODE_LEN, symbols == 16, "{symbols} symbols");
            assert_eq!(
                huffman_compress(&data),
                reference_compress(&data),
                "{symbols} symbols"
            );
        }
    }

    #[test]
    fn table_decode_equals_bit_walk_on_random_histograms() {
        let mut seed = 0x2014u64;
        for round in 0..40usize {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let symbols = [1, 2, 3, 17, 64, 200, 256][round % 7];
            // Flat, geometric and spiky histograms.
            let freq: Vec<u64> = (0..symbols as u64)
                .map(|s| match round % 3 {
                    0 => 1 + (seed >> (s % 40)) % 50,
                    1 => 1 + ((1u64 << 40) >> (s % 41)),
                    _ => 1 + (seed.rotate_left(s as u32) % 7).pow(6),
                })
                .collect();
            let data = sample(&freq, 1 + (seed % 5000) as usize, seed);
            let frame = huffman_compress(&data);
            assert_eq!(
                huffman_decompress(&frame, data.len()),
                data,
                "round {round}"
            );
            assert_eq!(reference_decompress(&frame), data, "round {round}");
        }
    }

    #[test]
    fn long_codes_take_the_walk_and_agree() {
        let freq = fibonacci_freqs(24);
        let data = sample(&freq, 200_000, 7);
        let mut hist = [0u64; 256];
        for &b in &data {
            hist[b as usize] += 1;
        }
        let lengths = build_lengths(&hist);
        let longest = *lengths.iter().max().expect("256 lengths") as u32;
        assert!(
            longest > TABLE_BITS,
            "longest code {longest} never leaves the table"
        );
        assert!(longest <= MAX_CODE_LEN);
        rt(&data);
    }

    #[test]
    fn decoder_rejects_oversubscribed_lengths() {
        // Three 1-bit codes: no prefix code has them.
        let mut lengths = [0u8; 256];
        lengths[..3].fill(1);
        assert!(std::panic::catch_unwind(|| Decoder::new(&lengths)).is_err());
        // Two are a complete code, one is the single-symbol case.
        lengths[2] = 0;
        Decoder::new(&lengths);
        lengths[1] = 0;
        Decoder::new(&lengths);
    }

    #[test]
    fn length_field_is_clamped_not_trusted() {
        let data = b"hello world hello world";
        let mut frame = huffman_compress(data);
        // A caller that expects fewer bytes gets a prefix...
        assert_eq!(huffman_decompress(&frame, 5), &data[..5]);
        // ...and a header claiming 4 GiB allocates and decodes only what the
        // caller allows, then fails on the body it does not have.
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let r = std::panic::catch_unwind(|| huffman_decompress(&frame, data.len() * 2));
        assert!(r.is_err());
        assert_eq!(huffman_decompress(&frame, data.len()), data);
    }

    #[test]
    fn roundtrip_empty() {
        rt(b"");
    }

    #[test]
    fn roundtrip_single_symbol() {
        rt(b"aaaaaaaaaaaaaaaaaaaaaaaa");
        rt(b"a");
    }

    #[test]
    fn roundtrip_two_symbols() {
        rt(b"ababbbabababaabbbb");
    }

    #[test]
    fn roundtrip_all_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        rt(&data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // 95% one symbol: entropy well under 1 bit/byte.
        let mut data = vec![0u8; 10_000];
        for i in (0..data.len()).step_by(20) {
            data[i] = (i / 20) as u8;
        }
        let frame = huffman_compress(&data);
        assert!(frame.len() < data.len() / 2, "{}", frame.len());
        rt(&data);
    }

    #[test]
    fn depth_limit_respected_on_exponential_freqs() {
        // Fibonacci-like frequencies force deep trees; the flattening loop
        // must cap them at MAX_CODE_LEN.
        let mut freq = [0u64; 256];
        let mut a = 1u64;
        let mut b = 2u64;
        for f in freq.iter_mut().take(40) {
            *f = a;
            let c = a + b;
            a = b;
            b = c.min(1 << 55);
        }
        let lengths = build_lengths(&freq);
        assert!(lengths.iter().all(|&l| (l as u32) <= MAX_CODE_LEN));
        // And all used symbols got codes.
        for (s, &l) in lengths.iter().enumerate().take(40) {
            assert!(l > 0, "symbol {s}");
        }
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut freq = [0u64; 256];
        for (s, f) in freq.iter_mut().enumerate() {
            *f = (s as u64 % 17) + 1;
        }
        let lengths = build_lengths(&freq);
        let codes = assign_codes(&lengths);
        // Check pairwise prefix-freeness on the bit-reversed (LSB-first) codes.
        for a in 0..256 {
            for b in 0..256 {
                if a == b {
                    continue;
                }
                let (la, lb) = (lengths[a] as u32, lengths[b] as u32);
                if la == 0 || lb == 0 || la > lb {
                    continue;
                }
                let mask = (1u16 << la) - 1;
                assert!(
                    (codes[a] & mask) != (codes[b] & mask) || la == lb && codes[a] != codes[b],
                    "code {a} is a prefix of {b}"
                );
            }
        }
    }

    #[test]
    fn corrupt_stream_panics_not_hangs() {
        let mut frame = huffman_compress(b"hello world hello world");
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        // Either decodes to garbage of the right length or panics; must not hang.
        let _ = std::panic::catch_unwind(|| huffman_decompress(&frame, 23));
    }
}
