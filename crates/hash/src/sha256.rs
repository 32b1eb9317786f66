//! From-scratch SHA-256 (FIPS 180-4).
//!
//! Implemented here because no cryptography crates are in the allowed
//! dependency set; verified against the NIST test vectors in the tests below.

#[cfg(target_arch = "x86_64")]
mod x86;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use squirrel_hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), squirrel_hash::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher with the standard initialization vector.
    pub fn new() -> Self {
        Sha256 { state: H0, len: 0, buf: [0; 64], buf_len: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                // Input fully absorbed into the partial buffer; the tail
                // code below must not touch buf_len.
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // All whole blocks in one call, so a vector backend shuffles the
        // state in and out once per update, not once per block.
        let (whole, rem) = input.split_at(input.len() & !63);
        compress_blocks(&mut self.state, whole);
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            // No room for the length: it goes in a block of its own.
            compress_blocks(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// Fold every whole 64-byte block of `blocks` into `state` (a trailing
/// partial block is ignored — `update` never passes one).
///
/// Two routines compute this function and cannot differ in output: the
/// SHA-NI one where the CPU has the instructions, the scalar one everywhere
/// else. The choice follows what the code observes about the machine; there
/// is nothing to configure.
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(sha_ni) = x86::ShaNi::detect() {
        return sha_ni.compress_blocks(state, blocks);
    }
    compress_blocks_scalar(state, blocks);
}

/// Portable FIPS 180-4 block function: the only path on CPUs without SHA
/// extensions, and the reference the SHA-NI routine is tested against.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: [u8; 32]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_message() {
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    type BlockFn = fn(&mut [u32; 8], &[u8]);

    /// The SHA-NI routine as a plain function, or `None` (with a skip line)
    /// on a CPU without the instructions.
    fn sha_ni_routine() -> Option<BlockFn> {
        #[cfg(target_arch = "x86_64")]
        if x86::ShaNi::detect().is_some() {
            return Some(|state, blocks| {
                x86::ShaNi::detect().expect("detected above").compress_blocks(state, blocks)
            });
        }
        eprintln!("skip: no SHA extensions on this CPU, SHA-NI half not run");
        None
    }

    /// FIPS 180-4 padding done by hand, so a routine is checked without
    /// `update`/`finalize` in between; the padded message goes in as two
    /// calls cut at the block containing `split`.
    fn digest_with(routine: BlockFn, data: &[u8], split: usize) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        let (head, tail) = padded.split_at(split.min(data.len()) & !63);
        routine(&mut state, head);
        routine(&mut state, tail);
        let mut out = [0u8; 32];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| crate::rng::mix64(seed ^ (i / 8)).to_le_bytes()[(i % 8) as usize])
            .collect()
    }

    #[test]
    fn nist_vectors_hold_on_both_routines() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        let routines = [Some(compress_blocks_scalar as BlockFn), sha_ni_routine()];
        for (which, routine) in routines.into_iter().enumerate() {
            let Some(routine) = routine else { continue };
            for (msg, want) in vectors {
                let got = hex(digest_with(routine, msg, 0));
                assert_eq!(got, want, "routine {which}, len {}", msg.len());
            }
        }
    }

    #[test]
    fn sha_ni_equals_scalar_on_random_inputs() {
        let Some(sha_ni) = sha_ni_routine() else { return };
        let lengths = (0..=300).chain([4 << 10, 64 << 10, 1 << 20]);
        for len in lengths {
            let data = pseudo_random(len, 0x5eed ^ len as u64);
            // The block function itself, from an arbitrary chaining value
            // (a trailing partial block is ignored by both).
            let start: [u32; 8] =
                std::array::from_fn(|i| crate::rng::mix64(len as u64 + i as u64) as u32);
            let (mut a, mut b) = (start, start);
            compress_blocks_scalar(&mut a, &data);
            sha_ni(&mut b, &data);
            assert_eq!(a, b, "state after {len} bytes");
            // And the whole hash, which is what `sha256` dispatches to.
            let want = digest_with(compress_blocks_scalar, &data, 0);
            assert_eq!(digest_with(sha_ni, &data, 0), want, "len {len}");
            assert_eq!(sha256(&data), want, "dispatched, len {len}");
        }
    }

    #[test]
    fn routines_carry_state_across_calls_at_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 13) as u8).collect();
        let want = sha256(&data);
        let routines = [Some(compress_blocks_scalar as BlockFn), sha_ni_routine()];
        for routine in routines.into_iter().flatten() {
            for split in SPLIT_POINTS {
                assert_eq!(digest_with(routine, &data, split), want, "split at {split}");
            }
        }
    }

    const SPLIT_POINTS: [usize; 11] = [0, 1, 55, 56, 63, 64, 65, 128, 200, 299, 300];

    #[test]
    fn incremental_equals_oneshot_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 13) as u8).collect();
        let want = sha256(&data);
        for split in SPLIT_POINTS {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths_stable() {
        // Exercise padding logic at every length around the block boundary.
        for len in 50..=70 {
            let data = vec![0xa5u8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
