//! ZLE (zero-length encoding): ZFS's cheapest codec, compressing only runs
//! of zero bytes. Useful as an ablation point between `off` and the LZ
//! codecs — VM images are full of zeroed regions even inside nonzero
//! blocks (slack space, bss segments).
//!
//! Format: a token byte; values 0..=127 mean "copy the next `token + 1`
//! literal bytes"; values 128..=255 mean "emit `token - 126` zero bytes"
//! (runs of 2..=129; single zeros travel as literals).

/// Compress `data` (may expand on zero-free input; the framing layer falls
/// back to raw storage in that case).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 8);
    let mut i = 0usize;
    while i < data.len() {
        // Count a zero run.
        let mut z = 0usize;
        while i + z < data.len() && data[i + z] == 0 && z < 129 {
            z += 1;
        }
        if z >= 2 {
            out.push((z + 126) as u8);
            i += z;
            continue;
        }
        // Literal run: until the next zero *pair* or 128 bytes.
        let start = i;
        let mut len = 0usize;
        while i + len < data.len() && len < 128 {
            if data[i + len] == 0 && i + len + 1 < data.len() && data[i + len + 1] == 0 {
                break;
            }
            len += 1;
        }
        debug_assert!(len > 0);
        out.push((len - 1) as u8);
        out.extend_from_slice(&data[start..start + len]);
        i += len;
    }
    out
}

/// Decompress a ZLE stream of known decoded length.
pub fn decompress(src: &[u8], expected_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(expected_len);
    let mut i = 0usize;
    while i < src.len() && out.len() < expected_len {
        let token = src[i];
        i += 1;
        if token < 128 {
            let n = token as usize + 1;
            out.extend_from_slice(&src[i..i + n]);
            i += n;
        } else {
            let n = token as usize - 126;
            out.resize(out.len() + n, 0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c, data.len()), data, "len {}", data.len());
    }

    #[test]
    fn roundtrip_basic() {
        rt(b"");
        rt(b"a");
        rt(b"\0");
        rt(b"abc\0\0\0\0def");
        rt(&[0u8; 1000]);
    }

    #[test]
    fn roundtrip_alternating() {
        let data: Vec<u8> = (0..500)
            .map(|i| if i % 3 == 0 { 0 } else { i as u8 })
            .collect();
        rt(&data);
    }

    #[test]
    fn long_zero_runs_shrink_massively() {
        let mut data = vec![1u8; 100];
        data.extend_from_slice(&[0u8; 4000]);
        data.extend_from_slice(&[2u8; 100]);
        let c = compress(&data);
        assert!(c.len() < 300, "{}", c.len());
        rt(&data);
    }

    #[test]
    fn single_zeros_are_literals() {
        // "a\0b" must not produce a zero-run token.
        rt(b"a\0b\0c");
    }

    #[test]
    fn max_run_boundaries() {
        rt(&[0u8; 129]);
        rt(&[0u8; 130]);
        rt(&[7u8; 128]);
        rt(&[7u8; 129]);
    }

    #[test]
    fn incompressible_expands_bounded() {
        let data: Vec<u8> = (1..=255u8).cycle().take(1024).collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 128 + 2, "{}", c.len());
    }
}
