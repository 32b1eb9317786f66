//! Frames are a stored and transmitted format: pool contents, wire streams
//! and every committed `results/BENCH_*.json` depend on their exact bytes.
//! A codec change that alters them must fail here, in the codec's own crate.

use squirrel_compress::{compress, decompress, Codec};
use squirrel_dataset::{Corpus, CorpusConfig};
use squirrel_hash::ContentHash;

/// SHA-256 of `compress(codec, block)` for block 1 of image 0 of the pinned
/// test corpus at 64 KiB, taken from the commit before the table-driven
/// inflate and the scratch-reusing match finder. Corpus chains are shorter
/// than gzip-6's 128 probes, so gzip-9 finds the same matches; gzip-1 (4
/// probes) is pinned too so the effort knob is covered.
const GOLDEN: [(Codec, &str); 5] = [
    (
        Codec::Gzip(1),
        "7b8f5182113f10f3e2a6c36d24a72a666f07db26587db942089312ce45e32da5",
    ),
    (
        Codec::Gzip(6),
        "0bee64a86bde637795587a03ce33f9cded306f220aa2afc196f127f989e75541",
    ),
    (
        Codec::Gzip(9),
        "0bee64a86bde637795587a03ce33f9cded306f220aa2afc196f127f989e75541",
    ),
    (
        Codec::Lzjb,
        "930e08f7261015daa07de3aa4d1195e6c5fd754b511ce4b3cdd11dace61429c3",
    ),
    (
        Codec::Lz4,
        "b4018888d52ca8f102a4a9a067f4ac2da2941a155107c1e6980ef6753e2fbcbe",
    ),
];

#[test]
fn frames_of_a_corpus_block_are_pinned() {
    let corpus = Corpus::generate(CorpusConfig::test_corpus(4, 2014));
    let block = corpus.image(0).block(64 << 10, 1);
    assert_eq!(block.len(), 64 << 10);
    for (codec, want) in GOLDEN {
        let frame = compress(codec, &block);
        assert!(
            frame.len() < block.len(),
            "{codec:?}: stored raw, nothing pinned"
        );
        assert_eq!(decompress(&frame, block.len()), block, "{codec:?}");
        assert_eq!(
            ContentHash::of(&frame).to_hex(),
            want,
            "{codec:?} ({} bytes)",
            frame.len()
        );
    }
}

/// SHA-256 of the gzip frames of two shorter inputs from the same corpus,
/// taken from the commit before the link-then-parse match finder: a 16 KiB
/// record (the fleet simulator's record size, half the match window) and a
/// 12 345-byte slice, odd-length as content-defined chunks are.
const GOLDEN_SHORT: [(&str, Codec, &str); 4] = [
    (
        "record",
        Codec::Gzip(1),
        "6c1c06aa2f699302c58ca16279ee39a7b622de011d9aa8535be0328ed566e433",
    ),
    (
        "record",
        Codec::Gzip(6),
        "239c8922df523b85af2f667fba80e43aab9c7663861e6ca1c3668cdb26976db6",
    ),
    (
        "slice",
        Codec::Gzip(1),
        "4b0b334cc0701df278fe70dbcab391355de24a1351c977638511282a49e204b5",
    ),
    (
        "slice",
        Codec::Gzip(6),
        "d70a0afa3178b5f05ad5f8d18f770eedb2a43a1b039a7cf6e0ada94bfea0c227",
    ),
];

#[test]
fn frames_of_a_record_and_an_odd_slice_are_pinned() {
    let corpus = Corpus::generate(CorpusConfig::test_corpus(4, 2014));
    let record = corpus.image(0).block(16 << 10, 1);
    let mut slice = vec![0u8; 12_345];
    corpus.image(1).read_at(3 << 16, &mut slice);
    for (what, codec, want) in GOLDEN_SHORT {
        let data = if what == "record" { &record } else { &slice };
        let frame = compress(codec, data);
        assert!(
            frame.len() < data.len(),
            "{what} {codec:?}: stored raw, nothing pinned"
        );
        assert_eq!(decompress(&frame, data.len()), *data, "{what} {codec:?}");
        let got = ContentHash::of(&frame).to_hex();
        assert_eq!(got, want, "{what} {codec:?} ({} bytes)", frame.len());
    }
}
