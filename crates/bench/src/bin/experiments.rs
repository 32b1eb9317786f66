//! `squirrel-experiments`: regenerate every table and figure of the paper.
//!
//! ```text
//! squirrel-experiments <command> [--images N] [--scale S] [--seed S]
//!                                [--out DIR] [--threads T]
//! ```
//!
//! Run it without arguments for the command list: the names of
//! [`COMMANDS`], the one table of experiments, plus `all` and `ci`.
//! Defaults (96 images at 1/512 volume) finish in minutes in release mode;
//! pass `--images 607 --scale 512` for a fuller run. Every byte quantity is
//! recorded both as measured and as the paper-volume projection.
//!
//! Every command returns a [`Record`]: `<out>/BENCH_<name>.json` (a bench)
//! or `<out>/PAPER_<name>.json` (a table or figure of the paper) gets its
//! gates and deterministic block, and a false gate exits non-zero naming
//! it. `ci` runs each at its row's CI flags (the pinned sizes); afterwards
//! `git diff -- results` is empty unless a simulated number moved. Nothing
//! here reads a clock: wall time is the `benchmark/` package's.

use squirrel_bench::experiments::COMMANDS;
use squirrel_bench::record::Record;
use squirrel_bench::ExperimentConfig;

/// Show the record's deterministic block, persist it, then its verdicts,
/// and fail the process on a false gate.
fn finish(cfg: &ExperimentConfig, record: Record) {
    print!("{}: {}", record.experiment, record.deterministic.render());
    record.persist(cfg).expect("write the record");
    match record.enforce() {
        Ok(()) => println!(
            "{}: all {} gates hold",
            record.experiment,
            record.gates.len()
        ),
        Err(failed) => {
            eprintln!("{failed}");
            std::process::exit(1);
        }
    }
}

fn usage() -> ! {
    let names: Vec<&str> = COMMANDS.iter().map(|(names, ..)| *names).collect();
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

/// A row's CI flags, spelled as on the command line.
fn ci_config(flags: &str) -> Option<ExperimentConfig> {
    parse_config(&flags.split_whitespace().collect::<Vec<_>>())
}

/// `text` as a number no smaller than `least`: the one parse of every
/// numeric flag.
fn number<T: std::str::FromStr + PartialOrd + From<u8>>(text: &str, least: u8) -> Option<T> {
    text.parse().ok().filter(|n| *n >= T::from(least))
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
        "all" => COMMANDS
            .iter()
            .for_each(|(.., command)| finish(&cfg, command(&cfg))),
        "ci" => {
            for (names, flags, command) in COMMANDS {
                println!("== {names} {flags}");
                let cell = ExperimentConfig {
                    out_dir: cfg.out_dir.clone(),
                    ..ci_config(flags).unwrap_or_else(|| usage())
                };
                finish(&cell, command(&cell));
            }
        }
        cmd => {
            let Some((.., command)) = COMMANDS
                .iter()
                .find(|(names, ..)| names.split(' ').any(|n| n == cmd))
            else {
                usage()
            };
            finish(&cfg, command(&cfg));
        }
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

    #[test]
    fn every_ci_cell_parses_and_no_name_names_two_commands() {
        let mut taken = std::collections::HashSet::from(["all", "ci"]);
        for (names, flags, _) in COMMANDS {
            assert!(ci_config(flags).is_some(), "{names}: {flags}");
            for name in names.split(' ') {
                assert!(taken.insert(name), "{name} names two commands");
            }
        }
    }
}
