//! Shared experiment configuration and corpus construction.

use squirrel_dataset::{Corpus, CorpusConfig};
use std::sync::Arc;

/// Block-size sweeps used by the figures.
pub const FULL_BS_SWEEP: [usize; 11] = [
    1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576,
];
pub const ZFS_BS_SWEEP: [usize; 6] = [4096, 8192, 16384, 32768, 65536, 131072];
pub const BOOT_BS_SWEEP: [usize; 8] = [1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072];

/// Knobs shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Corpus size (607 = the full Azure census shape).
    pub images: u32,
    /// Byte-volume divisor versus the paper's 16.4 TB.
    pub scale: u64,
    /// Master seed.
    pub seed: u64,
    /// Output directory for records (`results/` by default); None disables.
    pub out_dir: Option<String>,
    /// Worker threads for corpus sweeps (0 = all cores).
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            images: 96,
            scale: 512,
            seed: 2014,
            out_dir: Some("results".to_string()),
            threads: 0,
        }
    }
}

impl ExperimentConfig {
    /// Tiny setup for tests.
    pub fn smoke() -> Self {
        ExperimentConfig {
            images: 16,
            scale: 8192,
            seed: 7,
            out_dir: None,
            threads: 0,
        }
    }

    /// Build the corpus for these settings.
    pub fn corpus(&self) -> Arc<Corpus> {
        let cfg = CorpusConfig {
            n_images: self.images,
            scale: self.scale,
            ..CorpusConfig::azure(self.scale, self.seed)
        };
        Arc::new(Corpus::generate(cfg))
    }

    /// Paper-volume projection factor for byte quantities.
    pub fn projection(&self) -> f64 {
        // Byte volumes scale by `scale`; image-count differences scale
        // linearly too (the paper's corpus has 607 images).
        self.scale as f64 * 607.0 / self.images as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_config_builds_small_corpus() {
        let cfg = ExperimentConfig::smoke();
        let corpus = cfg.corpus();
        assert_eq!(corpus.len(), 16);
    }

    #[test]
    fn projection_scales_with_both_knobs() {
        let full = ExperimentConfig {
            images: 607,
            scale: 1,
            ..Default::default()
        };
        assert!((full.projection() - 1.0).abs() < 1e-9);
        let half = ExperimentConfig {
            images: 607,
            scale: 2,
            ..Default::default()
        };
        assert!((half.projection() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sweeps_are_sorted() {
        assert!(FULL_BS_SWEEP.windows(2).all(|w| w[0] < w[1]));
        assert!(ZFS_BS_SWEEP.windows(2).all(|w| w[0] < w[1]));
        assert!(BOOT_BS_SWEEP.windows(2).all(|w| w[0] < w[1]));
    }
}
