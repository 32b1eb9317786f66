//! `squirrel-experiments`: regenerate every table and figure of the paper.
//!
//! ```text
//! squirrel-experiments <command> [--images N] [--scale S] [--seed S]
//!                                [--out DIR] [--threads T]
//! ```
//!
//! Run it without arguments for the command list ([`COMMANDS`] plus `all`
//! and `ci`). Defaults (96 images at 1/512 volume) finish in minutes in
//! release mode; pass `--images 607 --scale 512` for a fuller run. Every
//! byte quantity is recorded both as measured and as the paper-volume
//! projection.
//!
//! Every command returns a [`Record`]: `<out>/BENCH_<name>.json` (a bench)
//! or `<out>/PAPER_<name>.json` (a table or figure of the paper) gets its
//! gates and deterministic block, `<out>/history.jsonl` a bench's wall
//! block (from a committed tree only), and a false gate exits non-zero
//! naming it. `ci` runs them at the pinned sizes of [`CI_CELLS`]; afterwards
//! `git diff -- 'results/*.json'` is empty unless a simulated number moved.

use squirrel_bench::experiments::{
    ablations, boottime, bootstorm, budget, chaosbench, chunking, distribution, extrapolate,
    fleet, ingest, network, storage, sweeps, topology, whatif,
};
use squirrel_bench::record::Record;
use squirrel_bench::ExperimentConfig;

type Command = fn(&ExperimentConfig) -> Record;

/// Every command — its names (aliases share a row) and what it runs — in
/// the order `all` runs them.
const COMMANDS: &[(&str, Command)] = &[
    ("ingest", |cfg| ingest::run_ingest(cfg, ingest::INGEST_BLOCKS, 3).1),
    ("chunking", |cfg| {
        let (blocks, bs) = (chunking::CHUNKING_BLOCKS, chunking::CHUNKING_BLOCK_SIZE);
        chunking::run_chunking(cfg, blocks, bs, chunking::CHUNKING_VERSIONS).1
    }),
    ("bootstorm", |cfg| bootstorm::run_bootstorm(cfg, bootstorm::STORM_VMS, 3).1),
    ("chaos", chaosbench::run_chaos),
    ("topology", |cfg| topology::run_topology(cfg).2),
    ("budget", |cfg| budget::run_budget(cfg).1),
    ("distribution", |cfg| distribution::run_distribution(cfg, &distribution::DIST_NODE_COUNTS).1),
    ("fleet", |cfg| fleet::run_fleet_bench(cfg, &fleet::FLEET_NODE_COUNTS).1),
    ("table2", sweeps::run_table2),
    ("table1", sweeps::run_table1),
    ("fig2 fig4", sweeps::run_fig2_fig4),
    ("fig3", sweeps::run_fig3),
    ("fig8 fig9 fig10", storage::run_fig8_9_10),
    ("fig11", boottime::run_fig11),
    ("fig12", sweeps::run_fig12),
    ("fig13", storage::run_fig13),
    ("fig14 fig15", |cfg| extrapolate::run_extrapolation(cfg, extrapolate::Resource::DiskBytes)),
    ("fig16 fig17", |cfg| extrapolate::run_extrapolation(cfg, extrapolate::Resource::MemoryBytes)),
    ("fig18", network::run_fig18),
    ("ablation-sync", ablations::run_ablation_sync),
    ("ablation-ccr", ablations::run_ablation_ccr),
    ("ablation-hoard", ablations::run_ablation_hoard),
    ("ablation-chunking", ablations::run_ablation_chunking),
    ("whatif-windows", whatif::run_whatif_windows),
];

/// The reference configuration of EXPERIMENTS.md (the defaults), with the
/// thread count pinned like the bench cells'.
const REFERENCE: &[&str] = &["--threads", "2"];

/// The CI cells: each bench at its pinned size and seed and each paper
/// record at the reference configuration, spelled as the command line that
/// reproduces it.
const CI_CELLS: &[(&str, &[&str])] = &[
    ("bootstorm", &["--images", "16", "--scale", "8192", "--seed", "7", "--threads", "2"]),
    ("ingest", &[]),
    ("chaos", &["--images", "12", "--seed", "2014"]),
    ("topology", &["--images", "8", "--scale", "8192", "--seed", "2014"]),
    ("budget", &["--images", "8", "--scale", "8192", "--seed", "7", "--threads", "2"]),
    ("distribution", &["--images", "8", "--scale", "8192", "--seed", "7", "--threads", "2"]),
    ("fleet", &["--images", "8", "--scale", "8192", "--seed", "2014", "--threads", "2"]),
    ("chunking", &["--images", "8", "--scale", "8192", "--seed", "7", "--threads", "2"]),
    ("table2", REFERENCE),
    ("table1", REFERENCE),
    ("fig2", REFERENCE),
    ("fig3", REFERENCE),
    ("fig8", REFERENCE),
    ("fig11", REFERENCE),
    ("fig12", REFERENCE),
    ("fig13", REFERENCE),
    ("fig14", REFERENCE),
    ("fig16", REFERENCE),
    ("fig18", REFERENCE),
    ("ablation-sync", REFERENCE),
    ("ablation-ccr", REFERENCE),
    ("ablation-hoard", REFERENCE),
    ("ablation-chunking", REFERENCE),
    ("whatif-windows", REFERENCE),
];

/// Show what the record is read for — a paper record's rows, a bench's
/// clocks (its numbers are the file it persists) — then its verdicts, and
/// fail the process on a false gate.
fn finish(cfg: &ExperimentConfig, record: Record) {
    let (label, shown) =
        if record.paper { ("", &record.deterministic) } else { (" wall", &record.wall) };
    print!("{}{label}: {}", record.experiment, shown.render());
    record.persist(cfg).expect("write the record");
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
         commands: {} all ci",
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
    finish(cfg, command(cfg));
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
        "all" => COMMANDS.iter().for_each(|(_, command)| finish(&cfg, command(&cfg))),
        "ci" => {
            for (cmd, cell_args) in CI_CELLS {
                println!("== {cmd} {}", cell_args.join(" "));
                run(cmd, &ExperimentConfig { out_dir: cfg.out_dir.clone(), ..parse_config(cell_args) });
            }
        }
        cmd => run(cmd, &cfg),
    }
}
