//! What an experiment returns, and the one place it is written and
//! enforced.
//!
//! A [`Record`] holds what the code *computes*, never what the host
//! *clocks*: `results/BENCH_<experiment>.json` (`PAPER_<experiment>.json`
//! for a table or figure of the paper) holds `{experiment, params, gates,
//! deterministic}` — byte-identical on every run of the same code at any
//! thread count, so `git diff` on it is a drift check. What the code costs
//! in wall time is the `benchmark/` package's to measure.
//!
//! Each gate is a named boolean computed once by the experiment;
//! [`Record::enforce`] is the only place a false one becomes a failure. A
//! paper record's gates are the shape claims EXPERIMENTS.md makes about its
//! figure; one named `diverges_*` pins a known divergence from the paper, so
//! closing it is a deliberate diff. [`sweep_equal`] is the only
//! thread-determinism witness of a bench: its `deterministic_across_threads`
//! gate is that verdict.

use crate::config::ExperimentConfig;
use std::path::Path;

pub use squirrel_obs::json::Json;
pub use squirrel_obs::json_obj;

/// One experiment's result.
#[derive(Clone, Debug)]
pub struct Record {
    /// Names the file: `BENCH_<experiment>.json`, or `PAPER_<experiment>.json`
    /// when `paper`.
    pub experiment: &'static str,
    /// One of the paper's own tables and figures.
    pub paper: bool,
    /// The inputs: corpus knobs and workload shape.
    pub params: Json,
    /// Named acceptance verdicts, each decided exactly once.
    pub gates: Vec<(&'static str, bool)>,
    /// Simulated and accounting results: equal on every host and run.
    pub deterministic: Json,
}

impl Record {
    /// A table or figure of the paper on `cfg`'s corpus.
    pub fn paper(
        experiment: &'static str,
        cfg: &ExperimentConfig,
        gates: Vec<(&'static str, bool)>,
        deterministic: Json,
    ) -> Record {
        Record {
            experiment,
            paper: true,
            params: json_obj! {cfg => [images, scale, seed]},
            gates,
            deterministic,
        }
    }

    /// The committed file's content.
    pub fn to_json(&self) -> Json {
        json_obj! {
            "experiment": self.experiment,
            "params": self.params.clone(),
            "gates": Json::Obj(
                self.gates.iter().map(|&(name, ok)| (name.to_string(), ok.into())).collect()
            ),
            "deterministic": self.deterministic.clone(),
        }
    }

    /// The text of the committed file.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// `Err` naming every false gate.
    pub fn enforce(&self) -> Result<(), String> {
        let failed: Vec<&str> = self
            .gates
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|&(name, _)| name)
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: gate failed: {}",
                self.experiment,
                failed.join(", ")
            ))
        }
    }

    /// The committed file's name: `PAPER_<experiment>.json` for a table or
    /// figure of the paper, else `BENCH_<experiment>.json`.
    pub fn file_name(&self) -> String {
        let family = if self.paper { "PAPER" } else { "BENCH" };
        format!("{family}_{}.json", self.experiment)
    }

    /// Write the committed file under `cfg.out_dir` (nothing when unset).
    pub fn persist(&self, cfg: &ExperimentConfig) -> std::io::Result<()> {
        let Some(dir) = &cfg.out_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        let path = Path::new(dir).join(self.file_name());
        std::fs::write(&path, self.render())?;
        println!("{} record: {}", self.experiment, path.display());
        Ok(())
    }
}

/// Thread counts to sweep: always 1/2/8, plus the `--threads` override when
/// it names a count not already in the sweep.
fn thread_sweep(cfg: &ExperimentConfig) -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 8];
    if cfg.threads != 0 && !sweep.contains(&cfg.threads) {
        sweep.push(cfg.threads);
    }
    sweep
}

/// A [`sweep_equal`] result: the first thread count's outcome, and whether
/// every other count reproduced it.
#[derive(Clone, Debug)]
pub struct Sweep<T> {
    pub outcome: T,
    pub deterministic: bool,
}

/// Run `at(threads)` on fresh state at every thread count of the sweep and
/// report whether every outcome equals the first — the verdict behind a
/// bench's `deterministic_across_threads` gate.
pub fn sweep_equal<T: PartialEq + std::fmt::Debug>(
    cfg: &ExperimentConfig,
    mut at: impl FnMut(usize) -> T,
) -> Sweep<T> {
    let mut reference: Option<(usize, T)> = None;
    let mut deterministic = true;
    for threads in thread_sweep(cfg) {
        let outcome = at(threads);
        match &reference {
            None => reference = Some((threads, outcome)),
            Some((first, expected)) if outcome != *expected => {
                eprintln!(
                    "threads={threads} diverged from threads={first}:\n{outcome:?}\nexpected:\n{expected:?}"
                );
                deterministic = false;
            }
            Some(_) => {}
        }
    }
    let (_, outcome) = reference.expect("the sweep is never empty");
    Sweep {
        outcome,
        deterministic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{
        bootstorm, chunking, distribution, fleet, ingest, topology, Run, COMMANDS,
    };

    #[test]
    fn threads_flag_extends_the_sweep() {
        let cfg = ExperimentConfig {
            threads: 4,
            ..ExperimentConfig::smoke()
        };
        assert_eq!(thread_sweep(&cfg), vec![1, 2, 8, 4]);
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::smoke()
        };
        assert_eq!(thread_sweep(&cfg), vec![1, 2, 8]);
    }

    #[test]
    fn sweep_equal_reports_divergence_instead_of_asserting() {
        let cfg = ExperimentConfig::smoke();
        let mut asked = Vec::new();
        let same = sweep_equal(&cfg, |threads| {
            asked.push(threads);
            7u32
        });
        assert!(same.deterministic);
        assert_eq!(same.outcome, 7);
        assert_eq!(asked, vec![1, 2, 8]);
        let differs = sweep_equal(&cfg, |threads| threads.min(2));
        assert!(!differs.deterministic);
        assert_eq!(
            differs.outcome, 1,
            "the first thread count is the reference"
        );
    }

    #[test]
    fn a_false_gate_fails_enforce_by_name() {
        let mut record = Record {
            experiment: "sample",
            paper: false,
            params: json_obj! {},
            gates: vec![("converged", true), ("scrub_clean", false)],
            deterministic: json_obj! {},
        };
        let err = record.enforce().unwrap_err();
        assert!(
            err.contains("sample") && err.contains("scrub_clean"),
            "{err}"
        );
        assert!(!err.contains("converged"), "{err}");
        record.gates[1].1 = true;
        assert_eq!(record.enforce(), Ok(()));
    }

    /// The six benches whose pinned sizes are too slow for a debug build,
    /// at smoke sizes; every other command runs as [`COMMANDS`] has it.
    fn smoke_size(names: &str) -> Option<Run> {
        let run: Run = match names {
            "bootstorm" => |cfg| bootstorm::run_bootstorm(cfg, 8).1,
            "ingest" => |cfg| ingest::run_ingest(cfg, 48),
            "distribution" => |cfg| distribution::run_distribution(cfg, &[12, 16]).1,
            "fleet" => |cfg| fleet::run_fleet_bench(cfg, &[8]).1,
            // 64 x 8 KiB: the smallest chain whose pool outgrows the disk
            // model's contiguity window (see `reverse_not_slower`).
            "chunking" => |cfg| chunking::run_chunking(cfg, 64, 8192, 3).1,
            // `rack_outages` / `ec_repair_bytes` speak about one fault
            // schedule: the CI cell's seed, not the smoke one.
            "topology" => |cfg| {
                topology::run_topology(&ExperimentConfig {
                    seed: 2014,
                    ..cfg.clone()
                })
                .2
            },
            _ => return None,
        };
        Some(run)
    }

    /// The gate names of the committed record: `results/` pins them once.
    fn committed_gates(record: &Record) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .join(record.file_name());
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let json = Json::parse(&text).expect("a committed record parses");
        let gates = json
            .get("gates")
            .and_then(|g| g.as_obj("gates"))
            .expect("a gates object");
        gates.iter().map(|(name, _)| name.clone()).collect()
    }

    /// Every command at smoke scale: it holds the gates its committed record
    /// names, at threads 1 and 8 alike, and records no clock.
    #[test]
    fn every_record_holds_its_gates_at_any_thread_count_and_nothing_timed() {
        for &(names, _, run) in COMMANDS {
            let run = smoke_size(names).unwrap_or(run);
            let run_at = |threads| {
                run(&ExperimentConfig {
                    threads,
                    ..ExperimentConfig::smoke()
                })
            };
            // Two runs that must agree byte for byte, at the two ends of the
            // thread sweep — and at once: half the wall time on two cores.
            let (record, again) = std::thread::scope(|scope| {
                let second = scope.spawn(|| run_at(8));
                (run_at(1), second.join().expect("second run"))
            });
            let name = record.experiment;
            let gates: Vec<&str> = record.gates.iter().map(|g| g.0).collect();
            assert_eq!(gates, committed_gates(&record), "{name}");
            assert_eq!(record.enforce(), Ok(()), "{name}");

            let text = record.render();
            assert_eq!(
                Json::parse(&text).expect("parses back"),
                record.to_json(),
                "{name}"
            );
            assert_eq!(again.render(), text, "{name}: 8 threads differ from 1");
            for timed in ["_secs\":", "_ns\":", "_per_sec\":"] {
                assert!(!text.contains(timed), "{name}: a `*{timed}` key in {text}");
            }
        }
    }
}
