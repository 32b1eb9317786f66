//! The LSB-first bit reader of the Huffman stage.

/// The writer the Huffman stage used before it packed whole words, one
/// bit at a time: the low `n` bits of each field, LSB first, the last byte
/// zero-padded. Kept as the reference the word-packing encoder is compared
/// against.
#[cfg(test)]
pub(crate) fn write_bits(fields: impl IntoIterator<Item = (u64, u32)>) -> Vec<u8> {
    let mut out = Vec::new();
    let mut at = 0usize;
    for (bits, n) in fields {
        for k in 0..n {
            if at.is_multiple_of(8) {
                out.push(0);
            }
            out[at / 8] |= (((bits >> k) & 1) as u8) << (at % 8);
            at += 1;
        }
    }
    out
}

/// Reads bits LSB-first from a byte slice through a 64-bit window:
/// [`refill`](Self::refill), then any number of [`peek`](Self::peek) /
/// [`consume`](Self::consume) pairs while enough bits remain.
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index to load; runs past `data.len()` once the stream is
    /// being padded with zeros.
    pos: usize,
    /// Low `nbits` bits are the next stream bits. Anything above them is a
    /// prefix of the byte at `pos`, which the next refill ORs in again.
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    /// Top the window up to at least 56 valid bits. Past the end of the
    /// data the stream continues with zero bits; [`overran`](Self::overran)
    /// tells a decoder that it consumed some of them.
    #[inline]
    pub fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            self.acc |= u64::from_le_bytes(word.try_into().expect("8 bytes")) << self.nbits;
            let bytes = (63 - self.nbits) >> 3;
            self.pos += bytes as usize;
            self.nbits += bytes * 8;
        } else {
            while self.nbits <= 56 {
                let byte = self.data.get(self.pos).copied().unwrap_or(0);
                self.pos += 1;
                self.acc |= (byte as u64) << self.nbits;
                self.nbits += 8;
            }
        }
    }

    /// Valid bits in the window.
    #[cfg(test)]
    pub fn available(&self) -> u32 {
        self.nbits
    }

    /// The next `n` bits (n <= 32) without consuming them; only the low
    /// [`available`](Self::available) ones are meaningful.
    #[inline]
    pub fn peek(&self, n: u32) -> u64 {
        debug_assert!(n <= 32);
        self.acc & ((1u64 << n) - 1)
    }

    /// Drop `n` bits that a `peek` has looked at.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.nbits);
        self.acc >>= n;
        self.nbits -= n;
    }

    /// Have more bits been consumed than the data holds?
    #[inline]
    pub fn overran(&self) -> bool {
        self.pos * 8 - self.nbits as usize > self.data.len() * 8
    }

    /// Refill, peek and consume in one step (n <= 32).
    #[cfg(test)]
    pub fn read(&mut self, n: u32) -> u64 {
        self.refill();
        let val = self.peek(n);
        self.consume(n);
        val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        let fields: Vec<(u64, u32)> = vec![
            (1, 1),
            (0, 1),
            (0b101, 3),
            (0xff, 8),
            (0x1234, 16),
            (0x1f_ffff, 21),
            (1, 1),
            (0xdead_beef, 32),
        ];
        let bytes = write_bits(fields.iter().copied());
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read(n), v, "width {n}");
        }
    }

    #[test]
    fn reference_writer_pads_the_last_byte_with_zeros() {
        assert!(write_bits([]).is_empty());
        assert_eq!(write_bits([(0b1, 1)]), vec![1]);
        assert_eq!(write_bits([(0xff, 8), (0, 1)]), vec![0xff, 0]);
    }

    #[test]
    fn reader_past_end_yields_zeros() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read(8), 0xff);
        assert_eq!(r.read(8), 0);
    }

    #[test]
    fn overrun_is_reported_only_once_padding_is_consumed() {
        let mut r = BitReader::new(&[0xab, 0xcd]);
        assert_eq!(r.read(16), 0xcdab);
        assert!(!r.overran());
        assert_eq!(r.read(1), 0);
        assert!(r.overran());
    }

    #[test]
    fn word_and_byte_refills_agree() {
        // 23 bytes: the first refills take the 8-byte path, the last ones
        // the byte path; odd widths keep the window misaligned throughout.
        let data: Vec<u8> = (0..23u8).map(|i| i.wrapping_mul(73) ^ 0x5a).collect();
        let mut r = BitReader::new(&data);
        let mut bit = 0usize;
        for n in (1..=15).cycle().take(40) {
            let want = (0..n).fold(0u64, |v, k| {
                let b = data
                    .get((bit + k) / 8)
                    .map_or(0, |&x| (x >> ((bit + k) % 8)) & 1);
                v | (b as u64) << k
            });
            assert_eq!(r.read(n as u32), want, "at bit {bit}, width {n}");
            bit += n;
            assert_eq!(r.overran(), bit > data.len() * 8);
        }
    }

    #[test]
    fn bit_order_is_lsb_first() {
        let mut r = BitReader::new(&[0b101]);
        assert_eq!((r.read(1), r.read(1), r.read(1)), (1, 0, 1));
        assert_eq!(write_bits([(1, 1), (0, 1), (1, 1)]), vec![0b101]);
    }
}
