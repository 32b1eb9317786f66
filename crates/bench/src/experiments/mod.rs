//! One module per family of tables/figures, and [`COMMANDS`], the one list
//! of them.

pub mod ablations;
pub mod bootstorm;
pub mod boottime;
pub mod budget;
pub mod chaosbench;
pub mod chunking;
pub mod distribution;
pub mod extrapolate;
pub mod fleet;
pub mod ingest;
pub mod network;
pub mod storage;
pub mod sweeps;
pub mod topology;
pub mod whatif;

use crate::config::ExperimentConfig;
use crate::record::Record;

/// The reference configuration of EXPERIMENTS.md (the defaults), with the
/// thread count pinned like the bench cells'.
const REFERENCE: &str = "--threads 2";
/// The small corpus three benches pin.
const SMALL: &str = "--images 8 --scale 8192 --seed 7 --threads 2";

/// What a command runs: one experiment on one configuration.
pub type Run = fn(&ExperimentConfig) -> Record;

/// Every experiment, in the order `squirrel-experiments all` runs them: its
/// names (aliases share a row), the flags of its CI cell — each bench at
/// its pinned size and seed, each paper record at the reference
/// configuration, spelled as the command line that reproduces it — and its
/// run at the pinned workload size.
pub const COMMANDS: &[(&str, &str, Run)] = &[
    ("ingest", "", |cfg| {
        ingest::run_ingest(cfg, ingest::INGEST_BLOCKS)
    }),
    ("chunking", SMALL, |cfg| {
        let (blocks, bs) = (chunking::CHUNKING_BLOCKS, chunking::CHUNKING_BLOCK_SIZE);
        chunking::run_chunking(cfg, blocks, bs, chunking::CHUNKING_VERSIONS).1
    }),
    (
        "bootstorm",
        "--images 16 --scale 8192 --seed 7 --threads 2",
        |cfg| bootstorm::run_bootstorm(cfg, bootstorm::STORM_VMS).1,
    ),
    ("chaos", "--images 12 --seed 2014", chaosbench::run_chaos),
    ("topology", "--images 8 --scale 8192 --seed 2014", |cfg| {
        topology::run_topology(cfg).2
    }),
    ("budget", SMALL, budget::run_budget),
    ("distribution", SMALL, |cfg| {
        distribution::run_distribution(cfg, &distribution::DIST_NODE_COUNTS).1
    }),
    (
        "fleet",
        "--images 8 --scale 8192 --seed 2014 --threads 2",
        |cfg| fleet::run_fleet_bench(cfg, &fleet::FLEET_NODE_COUNTS).1,
    ),
    ("table2", REFERENCE, sweeps::run_table2),
    ("table1", REFERENCE, sweeps::run_table1),
    ("fig2 fig4", REFERENCE, sweeps::run_fig2_fig4),
    ("fig3", REFERENCE, sweeps::run_fig3),
    ("fig8 fig9 fig10", REFERENCE, storage::run_fig8_9_10),
    ("fig11", REFERENCE, boottime::run_fig11),
    ("fig12", REFERENCE, sweeps::run_fig12),
    ("fig13", REFERENCE, storage::run_fig13),
    ("fig14 fig15", REFERENCE, |cfg| {
        extrapolate::run_extrapolation(cfg, extrapolate::Resource::DiskBytes)
    }),
    ("fig16 fig17", REFERENCE, |cfg| {
        extrapolate::run_extrapolation(cfg, extrapolate::Resource::MemoryBytes)
    }),
    ("fig18", REFERENCE, network::run_fig18),
    ("ablation-sync", REFERENCE, ablations::run_ablation_sync),
    ("ablation-ccr", REFERENCE, ablations::run_ablation_ccr),
    ("ablation-hoard", REFERENCE, ablations::run_ablation_hoard),
    (
        "ablation-chunking",
        REFERENCE,
        ablations::run_ablation_chunking,
    ),
    ("whatif-windows", REFERENCE, whatif::run_whatif_windows),
];
