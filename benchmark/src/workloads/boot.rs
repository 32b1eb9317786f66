//! `boot_serve` — the read path. A small cluster with every image
//! registered and a fifth of the (node, image) caches evicted serves single
//! boots drawn from a Zipf popularity curve, then one boot storm. The same
//! `hash`/`compress`/`zfs` layers as `ingest`, used the other way round
//! (decompress + verify instead of hash + compress), plus `bootsim` and the
//! shared ARC; with 16 nodes, O(nodes) work is absent.

use super::{num, shuffle, Opts, Rep, Walls, Workload, BLOCK_SIZE, CODEC};
use crate::calib;
use crate::json::Json;
use crate::ladder::{ledger_metrics, LadderCosts, LadderInput};
use crate::stats::median;
use crate::trace::Tracer;
use squirrel_core::{DistributionPolicy, HoardBudget, Squirrel, SquirrelConfig};
use squirrel_dataset::rng::{SplitMix64, Zipf};
use squirrel_dataset::{Corpus, CorpusConfig, ImageId};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

pub struct BootServe {
    corpus_cfg: CorpusConfig,
    nodes: u32,
    threads: usize,
    storm_vms: u32,
    sq: Squirrel,
    evicted: BTreeSet<(u32, ImageId)>,
    /// The repetition's single boots: a multiset pinned by the corpus seed,
    /// in an order chosen by `--seed`.
    boots: Vec<(u32, ImageId)>,
    /// The storm boots the catalog's most popular image.
    storm_image: ImageId,
    /// Warm (node, image) pairs replayed through the real CoW → CoR →
    /// ccVolume data path by the deep check.
    verify_sample: Vec<(u32, ImageId)>,
}

/// A boot is warm exactly when the node's cache was not evicted.
pub fn check_warm_flag(node: u32, image: ImageId, warm: bool, evicted: bool) -> Result<(), String> {
    if warm == evicted {
        let (got, want) = if warm {
            ("warm", "cold")
        } else {
            ("cold", "warm")
        };
        return Err(format!(
            "boot of image {image} on node {node} was {got}, expected {want}"
        ));
    }
    Ok(())
}

impl BootServe {
    /// Every image registered on every node, then the pinned caches evicted.
    fn cluster(
        corpus_cfg: &CorpusConfig,
        nodes: u32,
        threads: usize,
        evicted: &BTreeSet<(u32, ImageId)>,
    ) -> Result<Squirrel, String> {
        let corpus = Arc::new(Corpus::generate(corpus_cfg.clone()));
        let config = SquirrelConfig::builder()
            .block_size(BLOCK_SIZE)
            .codec(CODEC)
            .compute_nodes(nodes)
            .storage_nodes(4)
            .threads(threads)
            .build();
        let mut sq = Squirrel::new(config, corpus);
        for image in 0..corpus_cfg.n_images {
            sq.register(image)
                .map_err(|e| format!("set-up register {image}: {e}"))?;
        }
        for &(node, image) in evicted {
            let r = sq
                .evict_cache(node, image)
                .map_err(|e| format!("set-up evict: {e}"))?;
            if !r.was_cached {
                return Err(format!("set-up: node {node} had no cache of image {image}"));
            }
        }
        Ok(sq)
    }

    /// Builds the serving cluster several times — registration of the whole
    /// catalog included — and keeps the last; the build times (calibrated
    /// seconds, like every host-clock time) are the workload's set-up samples.
    pub fn new(opts: &Opts) -> Result<(BootServe, Vec<f64>), String> {
        let (nodes, images, n_boots, storm_vms, setups) = if opts.quick {
            (4, 8, 20, 8, 1)
        } else {
            (16, 32, 100, 32, 3)
        };
        let corpus_cfg = CorpusConfig {
            n_images: images,
            ..CorpusConfig::azure(512, opts.corpus_seed)
        };

        // Pinned by the corpus seed: which caches are gone and which boots
        // the repetition holds. Image rank = image id, so the Zipf head is
        // one OS family, as in a real catalog.
        let mut pinned = SplitMix64::from_parts(&[opts.corpus_seed, 0xb007]);
        let mut pairs: Vec<(u32, ImageId)> = (0..nodes)
            .flat_map(|n| (0..images).map(move |i| (n, i)))
            .collect();
        shuffle(&mut pairs, &mut pinned);
        let evicted: BTreeSet<(u32, ImageId)> = pairs[..pairs.len() / 5].iter().copied().collect();
        let zipf = Zipf::new(u64::from(images), 1.1);
        let mut boots: Vec<(u32, ImageId)> = (0..n_boots)
            .map(|_| {
                (
                    pinned.below(u64::from(nodes)) as u32,
                    zipf.sample(&mut pinned) as ImageId,
                )
            })
            .collect();
        // Whatever the draw, a repetition exercises both paths.
        let first = |cold: bool| pairs.iter().copied().find(|p| evicted.contains(p) == cold);
        boots.extend(first(true).into_iter().chain(first(false)));
        let mut popularity = vec![0u32; images as usize];
        boots.iter().for_each(|&(_, i)| popularity[i as usize] += 1);
        let storm_image = (0..images)
            .max_by_key(|&i| (popularity[i as usize], std::cmp::Reverse(i)))
            .unwrap_or(0);

        let mut rng = SplitMix64::from_parts(&[opts.seed, 0xb007]);
        shuffle(&mut boots, &mut rng);
        let mut verify_sample: Vec<(u32, ImageId)> = pairs
            .iter()
            .copied()
            .filter(|p| !evicted.contains(p))
            .collect();
        shuffle(&mut verify_sample, &mut rng);
        verify_sample.truncate(4);

        // One cluster alive at a time, as in a real set-up: the previous one
        // is dropped before the next is built.
        let mut setup = Vec::new();
        let mut sq = None;
        for _ in 0..setups {
            drop(sq.take());
            let ((built, s), speed) = calib::bracket(|| {
                let t = Instant::now();
                (
                    Self::cluster(&corpus_cfg, nodes, opts.threads, &evicted),
                    t.elapsed().as_secs_f64(),
                )
            });
            sq = Some(built?);
            setup.push(s * speed);
        }
        let sq = sq.expect("at least one set-up");
        let w = BootServe {
            corpus_cfg,
            nodes,
            threads: opts.threads,
            storm_vms,
            sq,
            evicted,
            boots,
            storm_image,
            verify_sample,
        };
        Ok((w, setup))
    }
}

impl Workload for BootServe {
    fn name(&self) -> &'static str {
        "boot_serve"
    }

    fn sizes(&self) -> Json {
        Json::obj([
            ("compute_nodes", num(self.nodes)),
            ("images", num(self.corpus_cfg.n_images)),
            ("scale", num(self.corpus_cfg.scale as f64)),
            ("block_size", num(BLOCK_SIZE as u32)),
            ("codec", Json::str(CODEC.name())),
            ("evicted_pairs", num(self.evicted.len() as u32)),
            ("boots_per_rep", num(self.boots.len() as u32)),
            ("storm_vms_per_rep", num(self.storm_vms)),
            ("zipf_exponent", num(1.1)),
        ])
    }

    fn rate(&self) -> (&'static str, bool) {
        ("boots_per_s", true)
    }

    fn rep(&mut self, tracer: &mut Tracer, deep: bool) -> Result<Rep, String> {
        let (mut warm_s, mut cold_s) = (Vec::new(), Vec::new());
        let mut outcomes = Vec::with_capacity(self.boots.len());
        tracer.open("boot_serve", "bench");
        let t = Instant::now();
        for &(node, image) in &self.boots {
            tracer.next_request();
            let sq = &mut self.sq;
            outcomes.push(tracer.try_call("core.boot", "core", 0, || sq.boot(node, image)));
        }
        let boots_wall = t.elapsed().as_secs_f64();
        tracer.next_request();
        let t = Instant::now();
        let (sq, image, vms) = (&mut self.sq, self.storm_image, self.storm_vms);
        let storm = tracer.try_call("core.boot_storm", "core", 0, || sq.boot_storm(image, vms));
        let storm_wall = t.elapsed().as_secs_f64();
        tracer.close();

        for (&(node, image), outcome) in self.boots.iter().zip(outcomes) {
            let o = outcome.map_err(|e| format!("boot of image {image} on node {node}: {e}"))?;
            check_warm_flag(node, image, o.warm, self.evicted.contains(&(node, image)))?;
            if o.warm { &mut warm_s } else { &mut cold_s }.push(o.report.total_seconds);
        }
        let storm = storm.map_err(|e| format!("boot storm: {e}"))?;
        if storm.warm_vms + storm.cold_vms != storm.vms || storm.vms != self.storm_vms {
            return Err(format!(
                "storm served {} warm + {} cold of {} VMs",
                storm.warm_vms, storm.cold_vms, self.storm_vms
            ));
        }
        if warm_s.is_empty() || cold_s.is_empty() {
            return Err("the repetition must see both warm and cold boots".into());
        }
        if deep {
            for &(node, image) in &self.verify_sample {
                let v = self
                    .sq
                    .verify_boot(node, image)
                    .map_err(|e| format!("verify_boot image {image} on node {node}: {e}"))?;
                if v.bytes_verified == 0 || v.backing_fetches != 0 {
                    return Err(format!(
                        "verify_boot image {image} on node {node}: {} B verified, {} backing fetches",
                        v.bytes_verified, v.backing_fetches
                    ));
                }
            }
        }
        let served = self.boots.len() as u64 + u64::from(self.storm_vms);
        Ok(Rep {
            wall_s: boots_wall + storm_wall,
            parts: vec![("boots", boots_wall), ("storm", storm_wall)],
            setup_s: None,
            work: served as f64,
            attempted: served,
            failed: 0,
            exact: vec![
                ("sim_warm_boot_s_p50", median(&warm_s)),
                ("sim_cold_boot_s_p50", median(&cold_s)),
            ],
            witness: format!(
                "warm={} cold={} storm={}w+{}c {}",
                warm_s.len(),
                cold_s.len(),
                storm.warm_vms,
                storm.cold_vms,
                storm.read_checksum
            ),
        })
    }

    fn ladder_input(&self) -> LadderInput {
        LadderInput {
            corpus: Arc::new(Corpus::generate(self.corpus_cfg.clone())),
            images: (0..self.corpus_cfg.n_images).collect(),
            block_size: BLOCK_SIZE,
            nodes: self.nodes,
            threads: self.threads,
            distribution: DistributionPolicy::Unicast,
            budget: HoardBudget::unlimited(),
        }
    }

    fn layer_metrics(&self, costs: &LadderCosts, walls: &Walls) -> Vec<(&'static str, f64)> {
        // A warm boot = synthesise the paper-scale trace, verify the cache
        // file (decompress + SHA-256), replay the trace in `bootsim`. A cold
        // boot skips the verify and reads through gluster instead.
        let (mut verify, mut sim, mut trace_gen, mut warm) = (0.0, 0.0, 0.0, 0u32);
        let cost = |m: &std::collections::BTreeMap<ImageId, f64>, i: ImageId| {
            m.get(&i).copied().unwrap_or(0.0)
        };
        for &(node, image) in &self.boots {
            trace_gen += cost(&costs.trace_gen_s, image);
            if self.evicted.contains(&(node, image)) {
                sim += cost(&costs.bootsim_cold_s, image);
            } else {
                warm += 1;
                verify += cost(&costs.verify_s, image);
                sim += cost(&costs.bootsim_warm_s, image);
            }
        }
        let boots_wall = walls.part("boots");
        let mut metrics = vec![
            ("core.boot_verify_share", verify / boots_wall),
            ("core.boot_sim_share", sim / boots_wall),
            (
                "core.boot_self_share",
                1.0 - (verify + sim + trace_gen) / boots_wall,
            ),
            (
                "core.warm_boot_ratio",
                f64::from(warm) / self.boots.len() as f64,
            ),
        ];
        metrics.extend(ledger_metrics(self.sq.network()));
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_warm_flag_fails_the_output_check() {
        assert!(check_warm_flag(3, 7, true, false).is_ok());
        assert!(check_warm_flag(3, 7, false, true).is_ok());
        let err = check_warm_flag(3, 7, true, true).unwrap_err();
        assert!(err.contains("was warm, expected cold"), "{err}");
        let err = check_warm_flag(3, 7, false, false).unwrap_err();
        assert!(err.contains("was cold, expected warm"), "{err}");
    }

    #[test]
    fn quick_repetition_sees_both_paths_and_repeats_exactly() {
        let opts = Opts {
            seed: 5,
            corpus_seed: 2014,
            threads: 1,
            quick: true,
        };
        let (mut w, setup) = BootServe::new(&opts).unwrap();
        assert_eq!(setup.len(), 1);
        let mut t = Tracer::new(false);
        let a = w.rep(&mut t, true).unwrap();
        let b = w.rep(&mut t, false).unwrap();
        assert_eq!(a.exact, b.exact);
        assert_eq!(a.witness, b.witness);
        // An expectation that disagrees with the system fails the check.
        let first = w.boots[0];
        if !w.evicted.remove(&first) {
            w.evicted.insert(first);
        }
        assert!(w.rep(&mut t, false).unwrap_err().contains("expected"));
    }
}
