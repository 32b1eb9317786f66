//! Minimal LSB-first bit readers/writers shared by the Huffman stage.

/// Appends bits LSB-first into a byte vector.
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits accumulated but not yet flushed (low bits valid).
    acc: u64,
    /// Number of valid bits in `acc`.
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter { out: Vec::new(), acc: 0, nbits: 0 }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BitWriter { out: Vec::with_capacity(cap), acc: 0, nbits: 0 }
    }

    /// Write the low `n` bits of `bits` (n <= 32: fewer than 32 bits are
    /// ever pending, so the accumulator cannot overflow before flushing).
    #[inline]
    pub fn write(&mut self, bits: u64, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(bits < (1u64 << n));
        self.acc |= bits << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Flush the final partial byte (zero-padded) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let pending = self.nbits.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..pending]);
        self.out
    }
}

impl Default for BitWriter {
    fn default() -> Self {
        Self::new()
    }
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
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
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
        let mut w = BitWriter::new();
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
        for &(v, n) in &fields {
            w.write(v, n);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read(n), v, "width {n}");
        }
    }

    #[test]
    fn empty_writer_produces_empty_buffer() {
        assert!(BitWriter::new().finish().is_empty());
    }

    #[test]
    fn partial_byte_is_flushed() {
        let mut w = BitWriter::new();
        w.write(0b1, 1);
        let b = w.finish();
        assert_eq!(b, vec![1]);
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
                let b = data.get((bit + k) / 8).map_or(0, |&x| (x >> ((bit + k) % 8)) & 1);
                v | (b as u64) << k
            });
            assert_eq!(r.read(n as u32), want, "at bit {bit}, width {n}");
            bit += n;
            assert_eq!(r.overran(), bit > data.len() * 8);
        }
    }

    #[test]
    fn bit_order_is_lsb_first() {
        let mut w = BitWriter::new();
        w.write(0b1, 1); // bit 0
        w.write(0b0, 1); // bit 1
        w.write(0b1, 1); // bit 2
        assert_eq!(w.finish(), vec![0b101]);
    }
}
