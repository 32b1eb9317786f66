//! A damaged frame may make `decompress` panic (callers sit behind framed
//! digests), but promptly and without trusting a length it read from the
//! frame: no allocation, and no output, beyond what the caller's
//! `expected_len` allows.
//!
//! Measured, not timed: this test binary's allocator records the largest
//! single request each thread makes.

use proptest::prelude::*;
use squirrel_compress::{compress, decompress, Codec};
use squirrel_dataset::{Corpus, CorpusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::catch_unwind;
use std::sync::Once;

struct PeakTracking;

thread_local! {
    /// Largest allocation this thread asked for since it last reset this.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = LARGEST_REQUEST.try_with(|peak| peak.set(peak.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` touches only a const-initialised,
// destructor-free thread-local and cannot allocate or unwind.
unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// Run `decompress` on a possibly damaged frame. It may return or panic;
/// either way it must not have asked for more than `limit` bytes at once,
/// and what it returns is no longer than `limit`. A gzip-tagged frame
/// decodes in place, so for it the limits are the block itself: one
/// `expected_len` allocation (or the little a panic message takes) and no
/// more than `expected_len` bytes back.
fn survives(frame: &[u8], expected_len: usize, limit: usize, what: &str) {
    let (alloc_limit, out_limit) = match frame.first() {
        Some(&TAG_GZIP) => (expected_len.max(1024), expected_len),
        _ => (limit, limit),
    };
    quiet_decoder_panics();
    LARGEST_REQUEST.set(0);
    IN_DECODER.set(true);
    let result = catch_unwind(|| decompress(frame, expected_len));
    IN_DECODER.set(false);
    let largest = LARGEST_REQUEST.get();
    assert!(
        largest <= alloc_limit,
        "{what}: allocated {largest} bytes at once, limit {alloc_limit}"
    );
    if let Ok(out) = result {
        assert!(
            out.len() <= out_limit,
            "{what}: returned {} bytes, limit {out_limit}",
            out.len()
        );
    }
}

const TAG_GZIP: u8 = 2;

thread_local! {
    /// Set while this thread is inside the `decompress` under test.
    static IN_DECODER: Cell<bool> = const { Cell::new(false) };
}

/// A decoder panic is an expected outcome here: keep those (and only those)
/// out of the log.
fn quiet_decoder_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_DECODER.get() {
                default(info);
            }
        }));
    });
}

const BLOCK: usize = 64 << 10;

#[test]
fn damaged_gzip_headers_neither_balloon_nor_spin() {
    let corpus = Corpus::generate(CorpusConfig::test_corpus(4, 2014));
    let block = corpus.image(0).block(BLOCK, 1);
    let frame = compress(Codec::Gzip(6), &block);
    assert_eq!(frame[0], TAG_GZIP, "a gzip frame");
    survives(&frame, BLOCK, BLOCK, "intact frame");

    // Frame: tag, u32 decoded length, u16 table length, RLE code-length
    // table, bitstream. Flip every bit of everything before the bitstream.
    let table_len = u16::from_le_bytes([frame[5], frame[6]]) as usize;
    for byte in 1..7 + table_len {
        for bit in 0..8 {
            let mut damaged = frame.clone();
            damaged[byte] ^= 1 << bit;
            survives(
                &damaged,
                BLOCK,
                BLOCK,
                &format!("byte {byte} bit {bit} flipped"),
            );
        }
    }
    // The decoded-length field set to the extremes outright.
    for claim in [u32::MAX, 1 << 31, (BLOCK as u32) * 2, 0] {
        let mut damaged = frame.clone();
        damaged[1..5].copy_from_slice(&claim.to_le_bytes());
        survives(&damaged, BLOCK, BLOCK, &format!("length field {claim}"));
    }
    for keep in 1..64 {
        survives(
            &frame[..keep],
            BLOCK,
            BLOCK,
            &format!("truncated to {keep}"),
        );
    }
}

/// One block every codec shrinks, so every tag's decoder is reached.
fn valid_frames() -> Vec<Vec<u8>> {
    let data: Vec<u8> = (0..4096u32)
        .map(|i| {
            if i % 256 < 96 {
                0
            } else {
                (i % 61 * (i / 512 + 1)) as u8
            }
        })
        .collect();
    let frames: Vec<Vec<u8>> = [Codec::Off, Codec::Gzip(6), Codec::Lzjb, Codec::Lz4]
        .iter()
        .map(|&codec| compress(codec, &data))
        .chain([compress(Codec::Gzip(6), &[0u8; 4096])])
        .collect();
    let tags: Vec<u8> = frames.iter().map(|f| f[0]).collect();
    assert_eq!(tags, [0, 2, 3, 4, 1], "one frame per tag");
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any tag in front of any bytes: `decompress` returns or panics, and
    /// its output stays proportional to what it was given.
    #[test]
    fn decode_survives_random_bodies(
        tag in 0u8..6,
        body in proptest::collection::vec(any::<u8>(), 0..300),
        expected_len in 0usize..8192
    ) {
        let mut frame = vec![tag];
        frame.extend_from_slice(&body);
        // lz4 run lengths add up to 255 per input byte; nothing else expands more.
        let limit = 2 * (expected_len + 255 * frame.len()) + 1024;
        survives(&frame, expected_len, limit, "random body");
    }

    /// Real frames of every tag, cut short and bit-flipped.
    #[test]
    fn decode_survives_truncation_and_bitflips(
        which in 0usize..5,
        truncate_to in 1usize..4200,
        flips in proptest::collection::vec((any::<u16>(), 0u8..8), 0..6)
    ) {
        let mut frame = valid_frames().swap_remove(which);
        frame.truncate(truncate_to.min(frame.len()));
        for (pos, bit) in flips {
            let i = pos as usize % frame.len();
            frame[i] ^= 1 << bit;
        }
        survives(&frame, 4096, 2 * (4096 + 255 * frame.len()) + 1024, "mutated frame");
    }
}
