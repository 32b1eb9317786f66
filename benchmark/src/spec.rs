//! The benchmark's fixed vocabulary: workload names with the reason each
//! exists, the end-to-end metrics with unit, direction, bound and clock,
//! and the per-layer metrics. `BENCHMARK.json` is `spec` printed from these
//! tables; `check.sh` fails when the two drift apart.

use crate::json::Json;

/// How long one run measures when neither `--seconds` nor `--reps` is given;
/// also `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 20;

/// Seed of the corpus every workload runs on (the paper's year).
pub const CORPUS_SEED: u64 = 2014;

/// The value an end-to-end metric reads on a workload it is not measured
/// on. Every run prints every name; see the README.
pub const NOT_MEASURED: f64 = 1.0;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest",
        "Write path: hash, the compress side and the zfs DDT/ingest pipeline do nearly all the \
         work; cluster, bootsim and core are idle.",
    ),
    (
        "register_fanout",
        "Replicate path, O(nodes): every node's recv re-validates the same diff; where shared \
         pool state must show and where ingest/boot_serve must not move.",
    ),
    (
        "boot_serve",
        "Read path: the ingest layers the other way round (decompress + verify), plus bootsim \
         and the shared ARC; few nodes, so a write-side win that costs reads shows here.",
    ),
    (
        "fleet_day",
        "Mixed and event-driven: churn, boots, storms, decay/budget/GC/scrub and a chaos fault \
         plan at once; catches a gain in one workflow that is paid for in another.",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of our own code; varies from run to run.
    Host,
    /// Simulated time, the paper's result; repeats exactly.
    Sim,
    /// Bytes and counts; repeat exactly.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
    /// The workloads that measure it; empty means all of them.
    pub workloads: &'static [&'static str],
}

impl EndToEnd {
    pub fn measured_on(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

/// Host-clock times are calibrated seconds (see `calib`). Even so, ten
/// runs of one commit spread (quartile distance / median) by 1.5–2 % when
/// the host is calm and by up to 4.5 % when it drifts (uncalibrated: 2–15 %),
/// and a bound has to be about three times the spread to be decided by the
/// code and not by the host: a rate may worsen by 15 % before it counts.
/// Peak RSS does not drift (spread < 2 %) and keeps a tenth; set-up is the
/// noisiest and gets the largest bound the contract allows. Simulated and
/// accounting metrics repeat exactly on one commit, so any bound wider than
/// rounding would do; 1 % keeps a real change in the paper's numbers from
/// slipping through while `compare` still demands bit-equality.
const RATE: f64 = 0.15;
const RSS: f64 = 0.10;
const EXACT: f64 = 0.01;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    clock: Clock,
    workloads: &'static [&'static str],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        clock,
        workloads,
    }
}

/// Simulated seconds carry their own unit so the two clocks are never
/// mistaken for each other.
pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", false, 0.25, Clock::Host, &[]),
    e2e("peak_rss_mb", "MB", false, RSS, Clock::Host, &[]),
    e2e(
        "ingest_mb_per_s",
        "MB/s",
        true,
        RATE,
        Clock::Host,
        &["ingest"],
    ),
    e2e(
        "register_node_updates_per_s",
        "1/s",
        true,
        RATE,
        Clock::Host,
        &["register_fanout"],
    ),
    e2e(
        "boots_per_s",
        "1/s",
        true,
        RATE,
        Clock::Host,
        &["boot_serve"],
    ),
    e2e(
        "fleet_wall_s_per_sim_day",
        "s/day",
        false,
        RATE,
        Clock::Host,
        &["fleet_day"],
    ),
    e2e(
        "stored_bytes_per_logical_byte",
        "ratio",
        false,
        EXACT,
        Clock::Count,
        &["ingest"],
    ),
    e2e(
        "ddt_mem_bytes_per_image",
        "B",
        false,
        EXACT,
        Clock::Count,
        &["ingest"],
    ),
    e2e(
        "sim_register_s",
        "sim_s",
        false,
        EXACT,
        Clock::Sim,
        &["register_fanout"],
    ),
    e2e(
        "storage_tx_bytes_per_register",
        "B",
        false,
        EXACT,
        Clock::Count,
        &["register_fanout"],
    ),
    e2e(
        "sim_warm_boot_s_p50",
        "sim_s",
        false,
        EXACT,
        Clock::Sim,
        &["boot_serve"],
    ),
    e2e(
        "sim_cold_boot_s_p50",
        "sim_s",
        false,
        EXACT,
        Clock::Sim,
        &["boot_serve"],
    ),
    e2e(
        "fleet_sim_boot_ms_p99",
        "sim_ms",
        false,
        EXACT,
        Clock::Sim,
        &["fleet_day"],
    ),
    e2e(
        "fleet_storage_bytes_per_day",
        "B",
        false,
        EXACT,
        Clock::Count,
        &["fleet_day"],
    ),
    e2e(
        "fleet_degraded_per_10k",
        "count",
        false,
        EXACT,
        Clock::Count,
        &["fleet_day"],
    ),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `(name, unit, higher is better)`. The prefix is the layer: a crate name,
/// or `trace` for the validity of the traced run itself.
pub const PER_LAYER: [(&str, &str, bool); 92] = [
    ("hash.sha256_mb_per_s", "MB/s", true),
    ("hash.sha256_busy_s", "s", false),
    ("hash.bytes", "B", false),
    ("hash.zero_scan_mb_per_s", "MB/s", true),
    ("hash.cdc_scan_mb_per_s", "MB/s", true),
    ("compress.compress_mb_per_s", "MB/s", true),
    ("compress.compress_busy_s", "s", false),
    ("compress.decompress_mb_per_s", "MB/s", true),
    ("compress.decompress_busy_s", "s", false),
    ("compress.ratio", "ratio", false),
    ("compress.bytes_in", "B", false),
    ("dataset.corpus_generate_s", "s", false),
    ("dataset.materialize_mb_per_s", "MB/s", true),
    ("zfs.import_mb_per_s", "MB/s", true),
    ("zfs.import_busy_s", "s", false),
    ("zfs.ingest_prepare_s", "s", false),
    ("zfs.ingest_probe_s", "s", false),
    ("zfs.ingest_compress_s", "s", false),
    ("zfs.ingest_commit_s", "s", false),
    ("zfs.ddt_hit_ratio", "ratio", true),
    ("zfs.zero_block_ratio", "ratio", true),
    ("zfs.unique_blocks", "count", false),
    ("zfs.physical_bytes", "B", false),
    ("zfs.snapshot_us", "us", false),
    ("zfs.send_us_per_stream", "us", false),
    ("zfs.encode_mb_per_s", "MB/s", true),
    ("zfs.decode_mb_per_s", "MB/s", true),
    ("zfs.recv_us_per_stream", "us", false),
    ("zfs.recv_wire_mb_per_s", "MB/s", true),
    ("zfs.verify_us_per_file", "us", false),
    ("zfs.verify_mb_per_s", "MB/s", true),
    ("zfs.read_block_us", "us", false),
    ("zfs.scrub_mb_per_s", "MB/s", true),
    ("zfs.stats_us", "us", false),
    ("zfs.arc_hit_ratio", "ratio", true),
    ("zfs.destroy_snapshot_us", "us", false),
    ("qcow.cor_capture_mb_per_s", "MB/s", true),
    ("qcow.cor_fills", "count", false),
    ("qcow.cor_fill_bytes", "B", false),
    ("bootsim.warm_boot_us", "us", false),
    ("bootsim.cold_boot_us", "us", false),
    ("bootsim.trace_ops_per_s", "1/s", true),
    ("bootsim.storm_adjust_us", "us", false),
    ("bootsim.sim_io_share", "ratio", false),
    ("bootsim.sim_disk_reads", "count", false),
    ("bootsim.sim_ddt_lookups", "count", false),
    ("bootsim.sim_decompressed_mb", "MB", false),
    ("cluster.unicast_us", "us", false),
    ("cluster.pipeline_us_per_leg", "us", false),
    ("cluster.gluster_read_us", "us", false),
    ("cluster.storage_tx_bytes", "B", false),
    ("cluster.peer_tx_bytes", "B", false),
    ("cluster.rx_bytes", "B", false),
    ("cluster.ledger_imbalance_bytes", "B", false),
    ("core.register_ms_p50", "ms", false),
    ("core.register_us_per_node", "us", false),
    ("core.plan_fanout_us", "us", false),
    ("core.register_recv_share", "ratio", false),
    ("core.register_self_share", "ratio", false),
    ("core.boot_us_p50", "us", false),
    ("core.boot_us_p99", "us", false),
    ("core.cold_boot_us_p50", "us", false),
    ("core.trace_gen_us", "us", false),
    ("core.boot_verify_share", "ratio", false),
    ("core.boot_sim_share", "ratio", false),
    ("core.boot_self_share", "ratio", false),
    ("core.boot_storm_ms_per_call", "ms", false),
    ("core.warm_boot_ratio", "ratio", true),
    ("core.rejoin_ms_per_call", "ms", false),
    ("core.node_offline_us", "us", false),
    ("core.gc_ms_per_call", "ms", false),
    ("core.enforce_budget_ms_per_call", "ms", false),
    ("core.scrub_repair_ms_per_node", "ms", false),
    ("core.check_replication_ms", "ms", false),
    ("core.sched_events_per_s", "1/s", true),
    ("core.fleet_events", "count", false),
    ("core.fleet_boots", "count", false),
    ("core.fleet_joins", "count", false),
    ("core.fleet_evictions", "count", false),
    ("core.fleet_rejoin_share", "ratio", false),
    ("core.fleet_boot_share", "ratio", false),
    ("core.fleet_register_share", "ratio", false),
    ("core.fleet_unexplained_share", "ratio", false),
    ("obs.overhead_share", "ratio", false),
    ("obs.snapshot_ms", "ms", false),
    ("obs.series", "count", false),
    ("obs.journal_events_dropped", "count", false),
    ("faults.injected_total", "count", false),
    ("faults.retries_total", "count", false),
    ("faults.giveups_total", "count", false),
    ("trace.overhead_share", "ratio", false),
    ("trace.spans", "count", false),
];

fn better(higher: bool) -> Json {
    Json::str(if higher { "higher" } else { "lower" })
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    const COMMAND: [&str; 8] = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let command = COMMAND.into_iter().map(Json::str).collect();
    Json::obj([
        ("command", Json::Arr(command)),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.higher_is_better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, higher)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", better(higher)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && benchmark_json().to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn every_workload_measures_its_own_rate_and_the_shared_metrics() {
        for (w, _) in WORKLOADS {
            let n = END_TO_END.iter().filter(|m| m.measured_on(w)).count();
            assert!(n >= 5, "{w} measures {n}");
        }
    }
}
