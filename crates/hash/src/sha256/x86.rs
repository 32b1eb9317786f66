//! SHA-256 block function on the x86 SHA extensions (SHA-NI).
//!
//! The only `unsafe` in this crate's hashing lives here, behind [`ShaNi`]: a
//! token that exists only after the CPU was seen to support every
//! instruction set the routine uses, so holding one is the proof that
//! calling the `#[target_feature]` function is sound.

use super::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};
use std::sync::OnceLock;

/// Proof that this CPU has `sha`, `sse2`, `ssse3` and `sse4.1`.
#[derive(Clone, Copy)]
pub(super) struct ShaNi(());

impl ShaNi {
    /// The token, if the running CPU supports the routine. The CPUID probe
    /// runs once per process.
    pub(super) fn detect() -> Option<ShaNi> {
        static DETECTED: OnceLock<Option<ShaNi>> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            (is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse2")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1"))
            .then_some(ShaNi(()))
        })
    }

    /// Fold every whole 64-byte block of `blocks` into `state`; same
    /// contract as the scalar `compress_blocks`.
    #[inline]
    pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: a `ShaNi` is only ever built by `detect`, after
        // `is_x86_feature_detected!` reported `sha`, `sse2`, `ssse3` and
        // `sse4.1` — exactly the features `compress_blocks_sha_ni` enables.
        unsafe { compress_blocks_sha_ni(state, blocks) }
    }
}

/// Four rounds: `wk` carries `W[t..t+4] + K[t..t+4]`, two rounds per
/// `sha256rnds2` (the instruction reads the low two lanes).
macro_rules! rounds4 {
    ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
        let k = _mm_set_epi32(
            K[4 * $i + 3] as i32,
            K[4 * $i + 2] as i32,
            K[4 * $i + 1] as i32,
            K[4 * $i] as i32,
        );
        let wk = _mm_add_epi32($w, k);
        $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
        $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }};
}

/// The next four message-schedule words from the previous sixteen.
macro_rules! schedule {
    ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
        _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
            $w3,
        )
    };
}

/// Sixteen rounds past the first sixteen, extending the schedule as it goes.
macro_rules! rounds16 {
    ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
        $w0 = schedule!($w0, $w1, $w2, $w3);
        rounds4!($abef, $cdgh, $w0, $i);
        $w1 = schedule!($w1, $w2, $w3, $w0);
        rounds4!($abef, $cdgh, $w1, $i + 1);
        $w2 = schedule!($w2, $w3, $w0, $w1);
        rounds4!($abef, $cdgh, $w2, $i + 2);
        $w3 = schedule!($w3, $w0, $w1, $w2);
        rounds4!($abef, $cdgh, $w3, $i + 3);
    }};
}

/// Safe to define, unsafe to call from code compiled without these features:
/// the caller must have seen the CPU report all four. Inside, the intrinsics
/// are plain calls; the `unsafe` blocks are the raw-pointer loads and stores
/// only, each in bounds of a slice or array this function borrows (and the
/// `sse2` they need is among the features `ShaNi::detect` checked).
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian message words → little-endian lanes.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b_u64 as i64, 0x0405_0607_0001_0203);

    // The instructions want the state as (A,B,E,F) and (C,D,G,H), high lane
    // first; shuffle in once per call and back out once at the end.
    let state_ptr = state.as_mut_ptr().cast::<__m128i>();
    // SAFETY: `state` is 32 bytes: two unaligned 16-byte loads, in bounds.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state_ptr),
            _mm_loadu_si128(state_ptr.add(1)),
        )
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        // SAFETY: `chunks_exact(64)` makes `block` exactly 64 bytes: four
        // unaligned 16-byte loads, in bounds.
        let (mut w0, mut w1, mut w2, mut w3) = unsafe {
            (
                _mm_shuffle_epi8(_mm_loadu_si128(p), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), byte_swap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), byte_swap),
            )
        };
        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        // Rounds 16..64: the schedule rotates through the four registers.
        rounds16!(abef, cdgh, w0, w1, w2, w3, 4);
        rounds16!(abef, cdgh, w0, w1, w2, w3, 8);
        rounds16!(abef, cdgh, w0, w1, w2, w3, 12);
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    // SAFETY: `state` is 32 bytes, exclusively borrowed: two unaligned
    // 16-byte stores, in bounds.
    unsafe {
        _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}
