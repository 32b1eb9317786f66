//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 4), plus the ablations DESIGN.md calls out.
//!
//! Each experiment is a library function returning a [`record::Record`] —
//! the series the paper plots as its deterministic block and the shape
//! claims the reproduction is judged by as named gates, never a clock —
//! that the `squirrel-experiments` binary prints, persists under `results/`
//! and enforces.
//!
//! Scaling convention: corpora run at a byte-volume divisor
//! (`ExperimentConfig::scale`); every byte quantity is recorded both as
//! measured and as the `x scale` paper-volume projection (ratios are
//! scale-free by construction of the dataset).

pub mod config;
pub mod experiments;
pub mod record;

pub use config::ExperimentConfig;
