//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 4), plus the ablations DESIGN.md calls out.
//!
//! Each experiment is a library function returning structured rows (so the
//! integration tests can assert shapes) and printing the same series the
//! paper plots; the `squirrel-experiments` binary dispatches subcommands to
//! them and writes CSVs under `results/`. The eight benches return a
//! [`record::Record`] — named gates, a deterministic block, a wall block —
//! that the binary persists and enforces.
//!
//! Scaling convention: corpora run at a byte-volume divisor
//! (`ExperimentConfig::scale`); every printed byte quantity is reported both
//! as measured and as the `x scale` paper-volume projection (ratios are
//! scale-free by construction of the dataset).

pub mod config;
pub mod csvout;
pub mod experiments;
pub mod record;

pub use config::ExperimentConfig;
