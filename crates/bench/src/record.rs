//! What a bench experiment returns, and the one place it is written and
//! enforced.
//!
//! A [`Record`] separates what the code *computes* from what the host
//! *clocks*: `results/BENCH_<experiment>.json` holds `{experiment, params,
//! gates, deterministic}` — byte-identical on every run of the same code, so
//! `git diff` on it is a drift check — and the `wall` block goes, one line
//! per run, to the append-only `results/history.jsonl` keyed by commit.
//!
//! Each gate is a named boolean computed once by the experiment;
//! [`Record::enforce`] is the only place a false one becomes a failure.
//! [`sweep_equal`] is the only thread-determinism witness: every bench's
//! `deterministic_across_threads` gate is its verdict.

use crate::config::ExperimentConfig;
use std::io::Write;
use std::path::Path;

pub use squirrel_obs::json::Json;
pub use squirrel_obs::json_obj;

/// One experiment's result.
#[derive(Clone, Debug)]
pub struct Record {
    /// Names the file: `BENCH_<experiment>.json`.
    pub experiment: &'static str,
    /// The inputs: corpus knobs and workload shape.
    pub params: Json,
    /// Named acceptance verdicts, each decided exactly once.
    pub gates: Vec<(&'static str, bool)>,
    /// Simulated and accounting results: equal on every host and run.
    pub deterministic: Json,
    /// Host-clock measurements; never committed next to the above.
    pub wall: Json,
}

impl Record {
    /// The committed part: everything but `wall`.
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

    /// The text of `BENCH_<experiment>.json`.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// `Err` naming every false gate.
    pub fn enforce(&self) -> Result<(), String> {
        let failed: Vec<&str> =
            self.gates.iter().filter(|(_, ok)| !ok).map(|&(name, _)| name).collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: gate failed: {}", self.experiment, failed.join(", ")))
        }
    }

    /// Write `BENCH_<experiment>.json` and append the `wall` block — with
    /// the host's SHA-256 backend, which never goes in the committed file —
    /// to `history.jsonl`, both under `cfg.out_dir` (nothing when unset).
    pub fn persist(&self, cfg: &ExperimentConfig) -> std::io::Result<()> {
        let Some(dir) = &cfg.out_dir else { return Ok(()) };
        std::fs::create_dir_all(dir)?;
        let path = Path::new(dir).join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.render())?;
        let line = json_obj! {
            "commit": head_commit(),
            "experiment": self.experiment,
            "params": self.params.clone(),
            // Which CPU path clocked this line: lets a trend across hosts
            // tell a code change from a machine change.
            "sha256_backend": squirrel_hash::sha256_backend(),
            "wall": self.wall.clone(),
        };
        let mut history = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(Path::new(dir).join("history.jsonl"))?;
        writeln!(history, "{}", line.render_line())?;
        println!("{} record: {}", self.experiment, path.display());
        Ok(())
    }
}

/// `git rev-parse --short HEAD`, with `+dirty` appended when tracked files
/// outside `results/` differ from it, or `"unknown"` outside a checkout.
fn head_commit() -> String {
    let git = |args: &[&str]| match std::process::Command::new("git").args(args).output() {
        Ok(out) if out.status.success() => Some(String::from_utf8_lossy(&out.stdout).into_owned()),
        _ => None,
    };
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else { return "unknown".to_string() };
    let dirty = git(&["status", "--porcelain", "-uno", "--", ":(top)", ":(top,exclude)results"])
        .is_some_and(|s| !s.is_empty());
    format!("{}{}", head.trim(), if dirty { "+dirty" } else { "" })
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

/// One thread count's clocks: the whole `at` call, plus whatever finer
/// timing the experiment took itself.
#[derive(Clone, Debug)]
pub struct SweepRun<W> {
    pub threads: usize,
    pub wall_secs: f64,
    pub extra: W,
}

/// A [`sweep_equal`] result: the first thread count's outcome, whether every
/// other count reproduced it, and each count's clocks.
#[derive(Clone, Debug)]
pub struct Sweep<T, W = ()> {
    pub outcome: T,
    pub deterministic: bool,
    pub runs: Vec<SweepRun<W>>,
}

impl<T> Sweep<T> {
    /// The `wall` block of a sweep that took no finer timing of its own.
    pub fn wall(&self) -> Json {
        json_obj! {"runs": Json::arr(&self.runs, |r| json_obj! {r => [threads, wall_secs]})}
    }
}

/// Run `at(threads)` on fresh state at every thread count of the sweep,
/// timing each, and report whether every outcome equals the first — the
/// verdict behind a bench's `deterministic_across_threads` gate. `at`
/// returns the outcome to compare and any wall-clock extras to keep.
pub fn sweep_equal<T: PartialEq + std::fmt::Debug, W>(
    cfg: &ExperimentConfig,
    mut at: impl FnMut(usize) -> (T, W),
) -> Sweep<T, W> {
    let mut reference: Option<(usize, T)> = None;
    let mut deterministic = true;
    let mut runs = Vec::new();
    for threads in thread_sweep(cfg) {
        let t = std::time::Instant::now();
        let (outcome, extra) = at(threads);
        runs.push(SweepRun { threads, wall_secs: t.elapsed().as_secs_f64(), extra });
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
    Sweep { outcome, deterministic, runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{
        bootstorm, budget, chaosbench, chunking, distribution, fleet, ingest, topology,
    };

    #[test]
    fn threads_flag_extends_the_sweep() {
        let cfg = ExperimentConfig { threads: 4, ..ExperimentConfig::smoke() };
        assert_eq!(thread_sweep(&cfg), vec![1, 2, 8, 4]);
        let cfg = ExperimentConfig { threads: 2, ..ExperimentConfig::smoke() };
        assert_eq!(thread_sweep(&cfg), vec![1, 2, 8]);
    }

    #[test]
    fn sweep_equal_reports_divergence_instead_of_asserting() {
        let cfg = ExperimentConfig::smoke();
        let same = sweep_equal(&cfg, |_| (7u32, ()));
        assert!(same.deterministic);
        assert_eq!((same.outcome, same.runs.len()), (7, 3));
        let differs = sweep_equal(&cfg, |threads| (threads.min(2), threads));
        assert!(!differs.deterministic);
        assert_eq!(differs.outcome, 1, "the first thread count is the reference");
        assert_eq!(differs.runs.iter().map(|r| r.extra).collect::<Vec<_>>(), vec![1, 2, 8]);
    }

    #[test]
    fn a_false_gate_fails_enforce_by_name() {
        let mut record = Record {
            experiment: "sample",
            params: json_obj! {},
            gates: vec![("converged", true), ("scrub_clean", false)],
            deterministic: json_obj! {},
            wall: json_obj! {},
        };
        let err = record.enforce().unwrap_err();
        assert!(err.contains("sample") && err.contains("scrub_clean"), "{err}");
        assert!(!err.contains("converged"), "{err}");
        record.gates[1].1 = true;
        assert_eq!(record.enforce(), Ok(()));
    }

    type Experiment = fn(&ExperimentConfig) -> Record;

    /// Every bench at smoke scale, with the gate names `ci.sh` grepped for
    /// before `squirrel-experiments ci` replaced it (the four `"*_ns"`
    /// presence greps are the one `stage_breakdown_nonzero`).
    const EXPERIMENTS: [(Experiment, &str); 8] = [
        (
            |cfg| bootstorm::run_bootstorm(cfg, 8, 1).1,
            "deterministic_across_threads reverify_free decompress_once_per_record arc_hit_rate",
        ),
        (
            |cfg| ingest::run_ingest(cfg, 48, 1).1,
            "deterministic_across_threads stage_breakdown_nonzero speedup_gate",
        ),
        (
            chaosbench::run_chaos,
            "converged scrub_clean deterministic_across_threads faults_injected",
        ),
        (
            // `rack_outages` / `ec_repair_bytes` speak about one fault
            // schedule: the CI cell's seed, not the smoke one.
            |cfg| topology::run_topology(&ExperimentConfig { seed: 2014, ..cfg.clone() }).2,
            "ec_survives_rack_loss converged scrub_clean deterministic_across_threads \
             rack_outages ec_repair_bytes",
        ),
        (
            |cfg| budget::run_budget(cfg).1,
            "deterministic_across_threads generous_degraded_boot_rate starved_degraded_boot_rate",
        ),
        (
            |cfg| distribution::run_distribution(cfg, &[12, 16]).1,
            "peer_below_unicast_1k peer_below_unicast_10k multicast_below_unicast_1k \
             deterministic_across_threads verify_once",
        ),
        (
            |cfg| fleet::run_fleet_bench(cfg, &[8]).1,
            "deterministic_across_threads p99_finite degraded_rate_bounded degraded_rates_equal \
             peer_storage_below_unicast",
        ),
        (
            |cfg| chunking::run_chunking(cfg, 64, 4096, 3).1,
            "deterministic_across_threads reverse_not_slower cdc_dedup_gte_fixed",
        ),
    ];

    /// The one gate that compares host-clock readings against each other
    /// (`stage_breakdown_nonzero` only needs two timers to have ticked).
    /// Timing 48 blocks once beside the other tests of a parallel runner is
    /// noise, so here it is checked by name only; `squirrel-experiments ci`
    /// enforces its value.
    const WALL_GATE: &str = "speedup_gate";

    #[test]
    fn every_bench_record_holds_its_gates_and_nothing_timed() {
        let cfg = ExperimentConfig::smoke();
        for (run, gate_names) in EXPERIMENTS {
            let run_once = || {
                let mut record = run(&cfg);
                for gate in &mut record.gates {
                    gate.1 |= gate.0 == WALL_GATE;
                }
                record
            };
            // Both runs at once: half the wall time on two cores.
            let (record, again) = std::thread::scope(|scope| {
                let second = scope.spawn(run_once);
                (run_once(), second.join().expect("second run"))
            });
            let name = record.experiment;
            let names: Vec<&str> = record.gates.iter().map(|g| g.0).collect();
            assert_eq!(names.join(" "), gate_names, "{name}");
            assert_eq!(record.enforce(), Ok(()), "{name}");

            let text = record.render();
            assert_eq!(Json::parse(&text).expect("parses back"), record.to_json(), "{name}");
            assert_eq!(again.render(), text, "{name}: a second run differs");
            for timed in ["_secs\":", "_ns\":", "_per_sec\":"] {
                assert!(!text.contains(timed), "{name}: a `*{timed}` key in {text}");
            }
        }
    }
}
