//! The Squirrel reproduction's benchmark: four workloads, two clocks, and a
//! per-layer ladder timed from outside the crates. See `README.md`.
//!
//! ```text
//! squirrel-benchmark [run] [--workload W] [--seed S] [--seconds T | --reps N]
//!                    [--threads T] [--trace [0|1]] [--quick] [--corpus-seed C]
//! squirrel-benchmark compare a.json b.json
//! squirrel-benchmark check a.json b.json BENCHMARK.json
//! squirrel-benchmark spec
//! ```

mod calib;
mod compare;
mod json;
mod ladder;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::{run_workload, RunCfg};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Opts;

const USAGE: &str = "usage:
  squirrel-benchmark [run] [--workload W] [--seed S] [--seconds T | --reps N]
                     [--threads T] [--trace [0|1]] [--quick] [--corpus-seed C]
  squirrel-benchmark compare a.json b.json
  squirrel-benchmark check a.json b.json BENCHMARK.json
  squirrel-benchmark spec";

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` beside the package; the
/// driver's checkout is not a repository and says so.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if head.is_empty() => "unknown".into(),
        None => head.into(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_string()))
            })
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

struct Cli {
    cfg: RunCfg,
    workloads: Vec<&'static str>,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cfg = RunCfg {
        opts: Opts {
            seed: spec::CORPUS_SEED,
            corpus_seed: spec::CORPUS_SEED,
            threads: 2,
            quick: false,
        },
        seconds: f64::from(spec::RUN_SECONDS),
        reps: None,
        trace: false,
    };
    let mut workloads: Vec<&'static str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: '{v}' is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = spec::WORKLOADS.iter().find(|w| w.0 == name.as_str());
                workloads = vec![known.ok_or_else(|| format!("unknown workload '{name}'"))?.0];
            }
            "--seed" => cfg.opts.seed = num(flag, value("a number")?)?,
            "--corpus-seed" => cfg.opts.corpus_seed = num(flag, value("a number")?)?,
            "--threads" => cfg.opts.threads = num(flag, value("a number")?)?,
            "--seconds" => cfg.seconds = num(flag, value("a number")?)?,
            "--reps" => cfg.reps = Some(num(flag, value("a number")?)?),
            "--quick" => cfg.opts.quick = true,
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cfg.opts.threads == 0
        || cfg.reps == Some(0)
        || !cfg.seconds.is_finite()
        || cfg.seconds <= 0.0
    {
        return Err("--threads, --reps and --seconds must be positive".into());
    }
    if cfg.opts.quick && cfg.reps.is_none() {
        cfg.reps = Some(1);
    }
    Ok(Cli { cfg, workloads })
}

fn run(args: &[String]) -> Result<(), String> {
    let Cli { cfg, workloads } = parse_run(args)?;
    if cfg.opts.threads > nproc() {
        eprintln!(
            "warning: --threads {} on {} cores: host-clock numbers will include oversubscription",
            cfg.opts.threads,
            nproc()
        );
    }
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let result_path = out.join("result.json");
    // A failed run leaves no result behind, not even an older one.
    let _ = std::fs::remove_file(&result_path);

    let mut results = Vec::new();
    for name in workloads {
        let r =
            run_workload(name, &cfg).map_err(|e| format!("{name}: output check failed: {e}"))?;
        r.print();
        if let Some(trace) = &r.trace {
            let path = out.join(format!("trace_{name}.json"));
            std::fs::write(&path, trace.to_line())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        results.push(r);
    }

    let metric_clocks = spec::END_TO_END
        .iter()
        .map(|m| (m.name, Json::str(m.clock.name())))
        .collect::<Vec<_>>();
    let result = Json::obj([
        ("benchmark", Json::str("squirrel")),
        ("quick", Json::Bool(cfg.opts.quick)),
        (
            "provenance",
            Json::obj([
                ("git_commit", Json::str(git_commit())),
                ("rustc", Json::str(rustc_version())),
                ("nproc", Json::Num(nproc() as f64)),
                ("threads", Json::Num(cfg.opts.threads as f64)),
                ("seed", Json::Num(cfg.opts.seed as f64)),
                ("corpus_seed", Json::Num(cfg.opts.corpus_seed as f64)),
                ("seconds", Json::Num(cfg.seconds)),
                ("reps", cfg.reps.map_or(Json::Null, |n| Json::Num(n as f64))),
                ("traced", Json::Bool(cfg.trace)),
            ]),
        ),
        ("clocks", Json::obj(metric_clocks)),
        (
            "workloads",
            Json::Arr(results.iter().map(|r| r.to_json()).collect()),
        ),
    ]);
    std::fs::write(&result_path, result.to_pretty())
        .map_err(|e| format!("{}: {e}", result_path.display()))?;
    println!("wrote {}", result_path.display());
    // The driver reads the last line of standard output.
    for r in &results {
        println!("{}", r.contract_line().to_line());
    }
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b).and_then(|agree| {
                agree
                    .then_some(())
                    .ok_or_else(|| "the two results do not agree".to_string())
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("check") => match &args[1..] {
            [a, b, spec] => compare::check(a, b, spec),
            _ => Err(USAGE.to_string()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(())
        }
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
