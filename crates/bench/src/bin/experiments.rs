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
//! gates and deterministic block, and a false gate exits non-zero naming
//! it. `ci` runs them at the pinned sizes of [`CI_CELLS`]; afterwards
//! `git diff -- results` is empty unless a simulated number moved. Nothing
//! here reads a clock: wall time is the `benchmark/` package's.

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
    ("ingest", |cfg| ingest::run_ingest(cfg, ingest::INGEST_BLOCKS)),
    ("chunking", |cfg| {
        let (blocks, bs) = (chunking::CHUNKING_BLOCKS, chunking::CHUNKING_BLOCK_SIZE);
        chunking::run_chunking(cfg, blocks, bs, chunking::CHUNKING_VERSIONS).1
    }),
    ("bootstorm", |cfg| bootstorm::run_bootstorm(cfg, bootstorm::STORM_VMS).1),
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

/// Show the record's deterministic block, persist it, then its verdicts,
/// and fail the process on a false gate.
fn finish(cfg: &ExperimentConfig, record: Record) {
    print!("{}: {}", record.experiment, record.deterministic.render());
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

/// The flags after the command; `None` for anything the usage line does not
/// allow, a zero `--images` or `--scale` included (an empty corpus or a zero
/// volume divisor has no figure to draw).
fn parse_config<S: AsRef<str>>(args: &[S]) -> Option<ExperimentConfig> {
    let mut cfg = ExperimentConfig::default();
    for pair in args.chunks(2) {
        let [flag, value] = pair else { return None };
        let value = value.as_ref();
        match flag.as_ref() {
            "--images" => cfg.images = number(value, 1)?,
            "--scale" => cfg.scale = number(value, 1)?,
            "--seed" => cfg.seed = number(value, 0)?,
            "--out" => cfg.out_dir = Some(value.to_string()),
            "--threads" => cfg.threads = number(value, 0)?,
            _ => return None,
        }
    }
    Some(cfg)
}

/// `text` as a number no smaller than `least`: the one parse of every
/// numeric flag.
fn number<T: std::str::FromStr + PartialOrd + From<u8>>(text: &str, least: u8) -> Option<T> {
    text.parse().ok().filter(|n| *n >= T::from(least))
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
    let cfg = parse_config(&args[1..]).unwrap_or_else(|| usage());
    eprintln!(
        "# corpus: {} images, scale 1/{}, seed {} (projection x{:.0})",
        cfg.images,
        cfg.scale,
        cfg.seed,
        cfg.projection()
    );

    match cmd.as_str() {
        "all" => COMMANDS.iter().for_each(|(_, command)| finish(&cfg, command(&cfg))),
        "ci" => {
            for (cmd, cell_args) in CI_CELLS {
                println!("== {cmd} {}", cell_args.join(" "));
                let cell = parse_config(cell_args).unwrap_or_else(|| usage());
                run(cmd, &ExperimentConfig { out_dir: cfg.out_dir.clone(), ..cell });
            }
        }
        cmd => run(cmd, &cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_images_or_scale_is_a_usage_error() {
        for flag in ["--images", "--scale"] {
            assert!(parse_config(&[flag, "0"]).is_none(), "{flag} 0");
            assert!(parse_config(&[flag, "1"]).is_some(), "{flag} 1");
        }
        // Zero is a seed, and `--threads 0` means every core.
        let cfg = parse_config(&["--seed", "0", "--threads", "0"]).expect("zero is allowed");
        assert_eq!((cfg.seed, cfg.threads), (0, 0));
        let bad: [&[&str]; 4] = [
            &["--images"],
            &["--images", "x"],
            &["--scale", "-1"],
            &["-x", "1"],
        ];
        for args in bad {
            assert!(parse_config(args).is_none(), "{args:?}");
        }
    }
}
