//! An LZJB-style codec (the scheme ZFS historically used for `compression=on`).
//!
//! Original implementation of the well-known format family: a control byte
//! carries eight flags; a set flag introduces a two-byte copy token packing a
//! 6-bit match length (lengths 3..=66) and a 10-bit backward offset
//! (1..=1024). Match candidates come from a 1 KiB last-occurrence table
//! hashed on a 3-byte prefix — one probe, no chains, which is what makes the
//! codec fast and its ratio modest, exactly the Figure 3 trade-off.

const MATCH_BITS: u32 = 6;
const MATCH_MIN: usize = 3;
const MATCH_MAX: usize = MATCH_MIN + (1 << MATCH_BITS) - 1; // 66
const OFFSET_MASK: usize = (1 << (16 - MATCH_BITS)) - 1; // 1023 -> offsets 1..=1024
const TABLE_SIZE: usize = 1024;

#[inline]
fn hash(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) << 16 | (data[i + 1] as u32) << 8 | (data[i + 2] as u32);
    (v.wrapping_mul(0x9e37_79b1) >> 22) as usize % TABLE_SIZE
}

/// Compress `data`; output may be larger than input on incompressible data
/// (the framing layer falls back to raw storage in that case).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    let mut out = Vec::with_capacity(n + n / 8 + 2);
    let mut table = [0usize; TABLE_SIZE];
    let mut table_set = [false; TABLE_SIZE];

    let mut i = 0usize;
    let mut ctrl_pos = out.len();
    out.push(0);
    let mut ctrl_bit = 0u8;

    while i < n {
        if ctrl_bit == 8 {
            ctrl_bit = 0;
            ctrl_pos = out.len();
            out.push(0);
        }
        let mut emitted_match = false;
        if i + MATCH_MIN <= n {
            let h = hash(data, i);
            let cand = table[h];
            let valid = table_set[h];
            table[h] = i;
            table_set[h] = true;
            if valid && cand < i {
                let offset = i - cand;
                if offset <= OFFSET_MASK + 1 {
                    let max_len = (n - i).min(MATCH_MAX);
                    let mut l = 0usize;
                    while l < max_len && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l >= MATCH_MIN {
                        out[ctrl_pos] |= 1 << ctrl_bit;
                        let token =
                            (((l - MATCH_MIN) as u16) << (16 - MATCH_BITS)) | ((offset - 1) as u16);
                        out.extend_from_slice(&token.to_be_bytes());
                        i += l;
                        emitted_match = true;
                    }
                }
            }
        }
        if !emitted_match {
            out.push(data[i]);
            i += 1;
        }
        ctrl_bit += 1;
    }
    out
}

/// Decompress an LZJB stream of known decoded length.
pub fn decompress(src: &[u8], expected_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0usize;
    while pos < src.len() && out.len() < expected_len {
        let ctrl = src[pos];
        pos += 1;
        for bit in 0..8 {
            if out.len() >= expected_len || pos >= src.len() {
                break;
            }
            if ctrl & (1 << bit) != 0 {
                let token = u16::from_be_bytes([src[pos], src[pos + 1]]);
                pos += 2;
                let len = (token >> (16 - MATCH_BITS)) as usize + MATCH_MIN;
                let offset = (token as usize & OFFSET_MASK) + 1;
                let start = out.len() - offset;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                out.push(src[pos]);
                pos += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c, data.len()), data);
    }

    #[test]
    fn roundtrip_basic() {
        rt(b"");
        rt(b"z");
        rt(b"hello hello hello hello");
    }

    #[test]
    fn roundtrip_runs() {
        rt(&vec![0xaa; 5000]);
    }

    #[test]
    fn max_match_split() {
        rt(&vec![1u8; MATCH_MAX * 4 + 7]);
    }

    #[test]
    fn offset_window_limit() {
        // Repeat at distance > 1024 is invisible to lzjb; must still roundtrip.
        let mut data = vec![0u8; 3000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 7) as u8;
        }
        rt(&data);
    }

    #[test]
    fn compresses_repetitive_input() {
        let data: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(4096).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 2, "{}", c.len());
    }

    #[test]
    fn token_encoding_boundaries() {
        // Exercise offset exactly 1 and exactly 1024.
        let mut data = Vec::new();
        data.extend_from_slice(&[9u8; 10]); // offset-1 matches
        data.extend(std::iter::repeat_n(0u8, 1024));
        data.extend_from_slice(&[9u8; 10]);
        rt(&data);
    }
}
