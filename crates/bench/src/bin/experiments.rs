//! `squirrel-experiments`: regenerate every table and figure of the paper.
//!
//! ```text
//! squirrel-experiments <command> [--images N] [--scale S] [--seed S]
//!                                [--out DIR] [--threads T]
//! ```
//!
//! Run it without arguments for the command list ([`COMMANDS`] plus `all`,
//! `smoke` and `ci`). Defaults (96 images at 1/512 volume) finish in minutes
//! in release mode; pass `--images 607 --scale 512` for a fuller run. Every
//! byte quantity is printed both as measured and as the paper-volume
//! projection.
//!
//! The eight benches return a [`Record`]: `<out>/BENCH_<name>.json` gets its
//! gates and deterministic block, `<out>/history.jsonl` its wall block, and
//! a false gate exits non-zero naming it. `ci` runs them at the pinned CI
//! sizes of [`CI_CELLS`]; afterwards `git diff -- 'results/BENCH_*.json'`
//! is empty unless a simulated number moved.

use squirrel_bench::experiments::{
    ablations, boottime, bootstorm, budget, chaosbench, chunking, distribution, extrapolate,
    fleet, ingest, network, storage, sweeps, topology, whatif,
};
use squirrel_bench::record::Record;
use squirrel_bench::ExperimentConfig;

const DISK_BS: [usize; 4] = [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024];

type Command = fn(&ExperimentConfig);

/// A table or figure: run it for its printed rows and CSVs.
macro_rules! figure {
    ($run:path $(, $arg:expr)*) => {
        |cfg| {
            $run(cfg $(, $arg)*);
        }
    };
}

/// Every command — its names (aliases share a row) and what it runs — in
/// the order `all` runs them.
const COMMANDS: &[(&str, Command)] = &[
    ("ingest", |cfg| finish(cfg, ingest::run_ingest(cfg, ingest::INGEST_BLOCKS, 3).1)),
    ("chunking", |cfg| {
        let (blocks, bs) = (chunking::CHUNKING_BLOCKS, chunking::CHUNKING_BLOCK_SIZE);
        finish(cfg, chunking::run_chunking(cfg, blocks, bs, chunking::CHUNKING_VERSIONS).1)
    }),
    ("bootstorm", |cfg| finish(cfg, bootstorm::run_bootstorm(cfg, bootstorm::STORM_VMS, 3).1)),
    ("chaos", |cfg| finish(cfg, chaosbench::run_chaos(cfg))),
    ("topology", |cfg| finish(cfg, topology::run_topology(cfg).2)),
    ("budget", |cfg| finish(cfg, budget::run_budget(cfg).1)),
    ("distribution", |cfg| {
        finish(cfg, distribution::run_distribution(cfg, &distribution::DIST_NODE_COUNTS).1)
    }),
    ("fleet", |cfg| finish(cfg, fleet::run_fleet_bench(cfg, &fleet::FLEET_NODE_COUNTS).1)),
    ("table2", figure!(sweeps::run_table2)),
    ("table1", figure!(sweeps::run_table1)),
    ("fig2", figure!(sweeps::run_fig2)),
    ("fig3", figure!(sweeps::run_fig3)),
    ("fig4", figure!(sweeps::run_fig4)),
    ("fig8 fig9 fig10", figure!(storage::run_fig8_9_10)),
    ("fig11", figure!(boottime::run_fig11)),
    ("fig12", figure!(sweeps::run_fig12)),
    ("fig13", figure!(storage::run_fig13)),
    (
        "fig14 fig15",
        figure!(extrapolate::run_extrapolation, extrapolate::Resource::DiskBytes, &DISK_BS, 3000),
    ),
    (
        "fig16 fig17",
        figure!(extrapolate::run_extrapolation, extrapolate::Resource::MemoryBytes, &DISK_BS, 3000),
    ),
    ("fig18", figure!(network::run_fig18)),
    ("ablation-sync", figure!(ablations::run_ablation_sync)),
    ("ablation-ccr", figure!(ablations::run_ablation_ccr, 64 * 1024)),
    ("ablation-hoard", figure!(ablations::run_ablation_hoard)),
    ("ablation-chunking", figure!(ablations::run_ablation_chunking)),
    ("whatif-windows", figure!(whatif::run_whatif_windows)),
];

/// The CI cells: each bench at its pinned size and seed, spelled as the
/// command line that reproduces it.
const CI_CELLS: &[(&str, &[&str])] = &[
    ("bootstorm", &["--images", "16", "--scale", "8192", "--seed", "7", "--threads", "2"]),
    ("ingest", &[]),
    ("chaos", &["--images", "12", "--seed", "2014"]),
    ("topology", &["--images", "8", "--scale", "8192", "--seed", "2014"]),
    ("budget", &["--images", "8", "--scale", "8192", "--seed", "7", "--threads", "2"]),
    ("distribution", &["--images", "8", "--scale", "8192", "--seed", "7", "--threads", "2"]),
    ("fleet", &["--images", "8", "--scale", "8192", "--seed", "2014", "--threads", "2"]),
    ("chunking", &["--images", "8", "--scale", "8192", "--seed", "7", "--threads", "2"]),
];

/// Show a bench record's clocks and verdicts (its numbers are the file it
/// persists), then fail the process on a false gate.
fn finish(cfg: &ExperimentConfig, record: Record) {
    print!("{} wall: {}", record.experiment, record.wall.render());
    record.persist(cfg).expect("write the bench record");
    match record.enforce() {
        Ok(()) => println!("{}: all {} gates hold", record.experiment, record.gates.len()),
        Err(failed) => {
            eprintln!("{failed}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    let names: Vec<&str> = COMMANDS.iter().map(|(names, _)| *names).collect();
    eprintln!(
        "usage: squirrel-experiments <command> [--images N] [--scale S] [--seed S] [--out DIR] [--threads T]\n\
         commands: {} all smoke ci",
        names.join(" ")
    );
    std::process::exit(2);
}

fn parse_config<S: AsRef<str>>(args: &[S]) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::default();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &str {
            args.get(i + 1).map(|s| s.as_ref()).unwrap_or_else(|| usage())
        };
        match args[i].as_ref() {
            "--images" => cfg.images = value(i).parse().unwrap_or_else(|_| usage()),
            "--scale" => cfg.scale = value(i).parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value(i).parse().unwrap_or_else(|_| usage()),
            "--out" => cfg.out_dir = Some(value(i).to_string()),
            "--threads" => cfg.threads = value(i).parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
        i += 2;
    }
    cfg
}

fn run(cmd: &str, cfg: &ExperimentConfig) {
    let Some((_, command)) = COMMANDS.iter().find(|(names, _)| names.split(' ').any(|n| n == cmd))
    else {
        usage()
    };
    command(cfg);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let cfg = parse_config(&args[1..]);
    eprintln!(
        "# corpus: {} images, scale 1/{}, seed {} (projection x{:.0})",
        cfg.images,
        cfg.scale,
        cfg.seed,
        cfg.projection()
    );
    // Wall-clock numbers depend on it; simulated and accounting ones do not.
    eprintln!("# host: sha256 backend {}", squirrel_hash::sha256_backend());

    match cmd.as_str() {
        "all" => COMMANDS.iter().for_each(|(_, command)| command(&cfg)),
        "smoke" => {
            // A fast end-to-end pass with a tiny corpus for CI-style checks.
            let cfg =
                ExperimentConfig { out_dir: cfg.out_dir.clone(), ..ExperimentConfig::smoke() };
            ["table2", "table1", "fig13", "fig18"].iter().for_each(|cmd| run(cmd, &cfg));
        }
        "ci" => {
            for (cmd, cell_args) in CI_CELLS {
                println!("== {cmd} {}", cell_args.join(" "));
                run(cmd, &ExperimentConfig { out_dir: cfg.out_dir.clone(), ..parse_config(cell_args) });
            }
        }
        cmd => run(cmd, &cfg),
    }
}
