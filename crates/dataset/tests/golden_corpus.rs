//! Every figure, pool state and wire stream of the reproduction is computed
//! over bytes this crate synthesises, so those bytes are pinned here, in
//! the crate that makes them. A change to atom synthesis that alters a
//! single byte fails in this file first.

use squirrel_dataset::atoms::{fill_atom, AtomGroup};
use squirrel_dataset::dict::Dictionary;
use squirrel_dataset::{Corpus, CorpusConfig, OsFamily, ATOM_SIZE};
use squirrel_hash::{ContentHash, Sha256};

/// SHA-256 of each image's non-zero bytes in `test_corpus(8, 2014)`.
const TEST_CORPUS_IMAGES: [&str; 8] = [
    "7337d79c30c8e161ae35db460b00d1e216d84a64f669ec11f9b27303fcfd852c",
    "6a4f025d29b8510d23682bcc7d8b1d1355e4043195198e654b96e144e401ac95",
    "30715585c1544b66f22313f9de92040d40b9dbd19adfeb96c4dc8b8811175bc9",
    "3c0d7187bcefb883a32345f095f7de111e2d4f0f9e2e6b5dff4f257b23eb8392",
    "17fbd670d919211b0344b20fa3db0d0af1db2cca0709d465df12fe4ddfdd9a97",
    "742bdd1b5193c90bdad42f05435a3e996bade23458b9c46f29f70a22058eebf3",
    "240f160e705a2dfb62e74391d46ed4d3d983c95e506b6609b35a8de92b740792",
    "b52ab60b000463ab8ef5a285eaf169fd69303ad180427aca552a9c6e3135d75d",
];

/// SHA-256 of the concatenated 64 KiB cache blocks (tail zero-padded) of
/// images 0–3 of `azure(512, 2014)`.
const AZURE_CACHES: [&str; 4] = [
    "4c18d415a9561884de9b28b20d25b215c706727f0a905b74a1bf4aeec63c8bac",
    "788d826b168a31a1b1a85fc2a83ba4f56ed1c8b8bbcd6fa2d9a11e0dda67d05e",
    "cdf92a595a2a6336883994c7fb1a127cbda654c9e846780dce0108fd483e6d09",
    "76c3081f4783d42674f5311f886381d012a9d4dcb9d09911518eda473be9fcd6",
];

/// SHA-256 of atom 12 345 of one group of every `AtomGroup` variant,
/// corpus seed 2014.
const ATOMS: [(AtomGroup, &str); 6] = [
    (
        AtomGroup::Base {
            family: OsFamily::Ubuntu,
            release: 3,
        },
        "6f18de4ecf4a573796ee07ddec7e10e096e248a66735632dd5a3dd83781d357a",
    ),
    (
        AtomGroup::Common,
        "3e6a27bd0095aeb4596d4721356c116c21a402abe4dfa1631b45d62a9dc530bd",
    ),
    (
        AtomGroup::Lib {
            family: OsFamily::Debian,
        },
        "9c7c03d8a305fd9b01931cb466fb12c1329d2ab303d062f276f7378c8e5fda74",
    ),
    (
        AtomGroup::Pkg,
        "d9001c6c6b0977a9d000d14e0efe215784389d99e55db688d04b117680758b99",
    ),
    (
        AtomGroup::Variant {
            family: OsFamily::RedHatCentos,
            release: 1,
            variant: 4,
        },
        "018610ac9a43d1e4bc0dc3e4dccab8b7a1d58a095e436014523624929c22c9c6",
    ),
    (
        AtomGroup::Unique {
            image: 17,
            stream: 2,
        },
        "6d3b4c3aa5e7a7b85ac43d42534fd26d81cfaea41bda9a436eac0f601d1c5487",
    ),
];

fn hex(digest: [u8; 32]) -> String {
    ContentHash(digest).to_hex()
}

#[test]
fn corpus_bytes_are_pinned() {
    let corpus = Corpus::generate(CorpusConfig::test_corpus(8, 2014));
    let images: Vec<String> = corpus
        .iter()
        .map(|image| {
            let mut bytes = vec![0u8; image.nonzero_bytes() as usize];
            image.read_at(0, &mut bytes);
            hex(ContentHash::of(&bytes).0)
        })
        .collect();

    let azure = Corpus::generate(CorpusConfig::azure(512, 2014));
    let caches: Vec<String> = (0..4)
        .map(|id| {
            let mut sha = Sha256::new();
            for block in azure.image(id).cache().blocks(64 << 10) {
                sha.update(&block);
            }
            hex(sha.finalize())
        })
        .collect();

    let dict = Dictionary::new(2014);
    let atoms: Vec<String> = ATOMS
        .iter()
        .map(|&(group, _)| {
            let mut atom = [0u8; ATOM_SIZE];
            fill_atom(&dict, 2014, group, 12_345, &mut atom);
            hex(ContentHash::of(&atom).0)
        })
        .collect();

    assert_eq!(images, TEST_CORPUS_IMAGES);
    assert_eq!(caches, AZURE_CACHES);
    assert_eq!(atoms, ATOMS.map(|(_, want)| want));
}
