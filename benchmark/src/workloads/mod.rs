//! The four workloads. Each one is a fixed amount of work per repetition on
//! fresh state, so every count repeats exactly; only the host clock varies.
//!
//! The corpus is pinned to `Opts::corpus_seed`; `--seed` permutes the order
//! in which the workload presents that corpus (import order, registration
//! order, boot order, verification samples). The multiset of work is the
//! same for every `--seed`, which is what keeps a host-clock median from one
//! seed comparable with the median from another.

pub mod boot;
pub mod fleet;
pub mod ingest;
pub mod register;

use crate::json::Json;
use crate::ladder::{LadderCosts, LadderInput};
use crate::trace::Tracer;
use squirrel_compress::Codec;
use squirrel_dataset::rng::SplitMix64;
use squirrel_dataset::{Corpus, ImageId};

/// The paper's cVolume settings (Section 4): 64 KiB records, gzip-6.
pub const BLOCK_SIZE: usize = 64 * 1024;
pub const CODEC: Codec = Codec::Gzip(6);

#[derive(Clone, Debug)]
pub struct Opts {
    /// Permutes the request stream.
    pub seed: u64,
    /// Generates the corpus (and, for `fleet_day`, everything else).
    pub corpus_seed: u64,
    pub threads: usize,
    /// ~1/10 size smoke run.
    pub quick: bool,
}

/// What one timed repetition produced.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Seconds inside calls into the crates (Σ timed segments).
    pub wall_s: f64,
    /// Named sub-walls of `wall_s`, where a share is taken of one of them.
    pub parts: Vec<(&'static str, f64)>,
    /// Seconds of input generation and state construction this repetition
    /// did outside the timed segments; `None` when set-up is shared.
    pub setup_s: Option<f64>,
    /// Numerator (or denominator) of the workload's rate: logical MB, node
    /// updates, boots, simulated days.
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated-clock and accounting metrics: must repeat bit-exactly.
    pub exact: Vec<(&'static str, f64)>,
    /// Digest of everything else the repetition output: must repeat too.
    pub witness: String,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// The sizes this run used, for `result.json`.
    fn sizes(&self) -> Json;
    /// Name and direction of the host-clock rate: `true` when the metric is
    /// `work / wall`, `false` when it is `wall / work`.
    fn rate(&self) -> (&'static str, bool);
    /// One repetition on fresh state. `deep` adds the expensive output
    /// checks (read-back, scrub, replay verification); the cheap ones run
    /// every time. An `Err` is a failed output check.
    fn rep(&mut self, tracer: &mut Tracer, deep: bool) -> Result<Rep, String>;
    /// Inputs for the per-layer ladder: the same corpus and settings.
    fn ladder_input(&self) -> LadderInput;
    /// Workload-specific per-layer metrics: shares of the untraced walls
    /// explained by ladder costs × the calls this workload makes, and the
    /// counts of the traced repetition.
    fn layer_metrics(&self, costs: &LadderCosts, walls: &Walls) -> Vec<(&'static str, f64)>;
}

/// Untraced medians of a workload's wall and of its named sub-walls.
pub struct Walls {
    pub total_s: f64,
    pub parts: Vec<(&'static str, f64)>,
}

impl Walls {
    pub fn part(&self, name: &str) -> f64 {
        self.parts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(self.total_s, |(_, s)| *s)
    }
}

/// Build a workload and return it with its shared set-up samples (empty
/// when the workload sets up inside every repetition).
pub fn build(name: &str, opts: &Opts) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    Ok(match name {
        "ingest" => (Box::new(ingest::Ingest::new(opts)), Vec::new()),
        "register_fanout" => (Box::new(register::RegisterFanout::new(opts)), Vec::new()),
        "boot_serve" => {
            let (w, setup) = boot::BootServe::new(opts)?;
            (Box::new(w), setup)
        }
        "fleet_day" => (Box::new(fleet::FleetDay::new(opts)), Vec::new()),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// The name `Squirrel` gives an image's cache file; the pool-level workload
/// and the ladder use the same.
pub fn cache_name(image: ImageId) -> String {
    format!("cache-{image:06}")
}

/// An image's boot working set as `(block index, block)` pairs, the shape
/// `ZPool::import_blocks_parallel` takes.
pub fn materialize(corpus: &Corpus, image: ImageId, block_size: usize) -> Vec<(u64, Vec<u8>)> {
    corpus
        .image(image)
        .cache()
        .blocks(block_size)
        .enumerate()
        .map(|(i, b)| (i as u64, b))
        .collect()
}

/// Seeded Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `n` as a JSON number.
pub fn num(n: impl Into<f64>) -> Json {
    Json::Num(n.into())
}
