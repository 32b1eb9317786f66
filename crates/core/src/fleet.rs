//! Fleet-scale traffic simulation on the discrete-event scheduler.
//!
//! The one long-horizon driver: a paper-shaped catalog (the Azure census at
//! a byte-volume divisor), seeded Zipf + diurnal demand emitting boot and
//! storm events over O(1k) compute nodes, elastic autoscaling (nodes leave
//! overnight and rejoin — re-hoarding through the configured
//! [`DistributionPolicy`] — as the morning ramp needs them), popularity
//! decay feeding hoard-budget enforcement on a cadence, and periodic
//! GC/scrub/fault events reusing the seeded [`FaultPlan`]. A chaos soak is
//! a [`FleetConfig`] like any other — a lively `faults` schedule,
//! `min_online == nodes` for a non-elastic fleet, optionally a multi-rack
//! `topology` under an erasure-coded `storage` tier — run through
//! [`soak_fleet`], which ends on [`Squirrel::converge`].
//!
//! Demand is *semantics-aware*: Zipf ranks are assigned over the catalog
//! ordered by OS family and release, so the heavy head of the distribution
//! lands on one family cluster — the shape "Semantics-aware VMI Management"
//! (PAPERS.md) observes in production catalogs.
//!
//! Everything runs off one [`EventQueue`] keyed by
//! `(time_ms, seq)` and one SplitMix64 stream drawn only in the serial event
//! loop: for a pinned [`FleetConfig`] the whole soak — every boot latency,
//! every per-day byte tally, every metric snapshot — is bit-identical at any
//! worker-thread count. Equality of two [`FleetReport`]s *is* the
//! determinism witness.

use crate::dist::DistributionPolicy;
use crate::sched::EventQueue;
use crate::system::{Convergence, HoardBudget, SharedStorage, Squirrel, SquirrelConfig};
use squirrel_cluster::{NodeId, TopologyConfig};
use squirrel_dataset::rng::{SplitMix64, Zipf};
use squirrel_dataset::{Corpus, CorpusConfig, ImageId};
use squirrel_faults::{ChurnEvent, FaultConfig, FaultPlan, FaultReport};
use squirrel_hash::ContentHash;
use squirrel_obs::MetricsSnapshot;
use std::sync::Arc;

const HOUR_MS: u64 = 3_600_000;
const DAY_MS: u64 = 24 * HOUR_MS;

/// Relative demand weight per hour of day: overnight trough, morning ramp,
/// business-hours plateau, evening peak. Integer weights keep every demand
/// computation exact.
const DIURNAL: [u64; 24] = [
    2, 1, 1, 1, 1, 2, // 00:00–05:59 trough
    3, 5, 8, 10, 11, 12, // 06:00–11:59 ramp
    12, 11, 11, 10, 10, 11, // 12:00–17:59 plateau
    12, 13, 12, 9, 6, 3, // 18:00–23:59 evening peak, wind-down
];

const fn diurnal_sum() -> u64 {
    let mut s = 0;
    let mut i = 0;
    while i < 24 {
        s += DIURNAL[i];
        i += 1;
    }
    s
}

const DIURNAL_SUM: u64 = diurnal_sum();
/// Peak hourly weight — the hour the fleet must be fully scaled out for.
const DIURNAL_MAX: u64 = 13;

/// Zipf exponent of image popularity (must not be exactly 1).
const ZIPF_EXPONENT: f64 = 1.1;
/// Popularity decay factor of the nightly maintenance pass.
const DECAY_FACTOR: f64 = 0.5;

/// Shape of one fleet soak. Everything derives from `seed`; two configs that
/// compare equal produce bit-identical [`FleetReport`]s at any thread count.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Simulated days to run.
    pub days: u64,
    /// Catalog size (Azure-census shape; 607 = the paper's full catalog).
    pub images: u32,
    /// Corpus byte-volume divisor versus the paper's geometry.
    pub scale: u64,
    /// Fleet size: compute-node slots the autoscaler can fill.
    pub nodes: u32,
    /// Autoscale floor: nodes kept online through the overnight trough.
    pub min_online: u32,
    /// Master seed for the corpus, the demand stream and the fault plan.
    pub seed: u64,
    /// Worker threads (`0` = all cores). Results are bit-identical at any
    /// setting.
    pub threads: usize,
    /// Individual boots per simulated day, apportioned over the diurnal
    /// curve.
    pub boots_per_day: u32,
    /// A correlated boot storm every this many days (0 disables).
    pub storm_every_days: u64,
    /// VMs per boot storm.
    pub storm_vms: u32,
    /// Catalog registrations rolled out per day until it is exhausted.
    pub registrations_per_day: u32,
    /// Days between scrub/repair passes (0 disables). Maintenance (decay +
    /// budget enforcement) and GC run every night.
    pub repair_every_days: u64,
    /// Per-node hoard budget the maintenance pass enforces.
    pub budget: HoardBudget,
    /// How registration diffs, rejoin streams and re-hoards travel.
    pub distribution: DistributionPolicy,
    /// Fault probabilities drawn by the daily fault tick and armed under
    /// every delivery.
    pub faults: FaultConfig,
    /// Pool record size.
    pub block_size: usize,
    /// Failure-domain layout. A multi-rack layout lets the fault plan draw
    /// correlated outages — whole racks and datacenters dropping off the
    /// network.
    pub topology: TopologyConfig,
    /// Storage nodes backing the shared tier.
    pub storage_nodes: u32,
    /// Physical layer of the shared tier (replicated gluster or
    /// erasure-coded k+m shards spread across the topology's racks).
    pub storage: SharedStorage,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            days: 4,
            images: 12,
            scale: 8192,
            nodes: 24,
            min_online: 6,
            seed: 42,
            threads: 0,
            boots_per_day: 96,
            storm_every_days: 2,
            storm_vms: 12,
            registrations_per_day: 4,
            repair_every_days: 2,
            budget: HoardBudget::unlimited(),
            distribution: DistributionPolicy::Unicast,
            faults: FaultConfig::default(),
            block_size: 16 * 1024,
            topology: TopologyConfig::flat(),
            storage_nodes: 4,
            storage: SharedStorage::Replicated,
        }
    }
}

/// One simulated day's roll-up. Pure integers — `Eq` across thread counts is
/// the determinism witness; latencies are rounded milliseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetDay {
    pub day: u64,
    /// Successful boots (individual + storm VMs).
    pub boots: u64,
    pub warm_boots: u64,
    /// Boots served degraded from shared storage (corrupt or evicted cache).
    pub degraded_boots: u64,
    /// Boot attempts that failed (no capacity, unreachable storage, errored
    /// storm). Failed boots never count toward popularity.
    pub failed_boots: u64,
    pub storms: u64,
    pub p50_boot_ms: u64,
    pub p99_boot_ms: u64,
    /// Bytes the storage tier transmitted this day (ledger delta): cold
    /// reads, registration diffs, rejoin streams served by the scVolume.
    pub storage_tier_bytes: u64,
    /// Bytes warm compute peers transmitted on the tier's behalf.
    pub peer_bytes: u64,
    /// Autoscale (and churn-recovery) rejoins.
    pub joins: u64,
    /// Autoscale scale-downs.
    pub leaves: u64,
    /// Whole-cache evictions by the maintenance pass.
    pub evictions: u64,
    pub registrations: u64,
}

/// Outcome of one fleet soak.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct FleetReport {
    pub nodes: u32,
    /// Events the scheduler processed.
    pub events: u64,
    /// Per-day roll-ups, in day order.
    pub days: Vec<FleetDay>,
    pub boots: u64,
    pub warm_boots: u64,
    pub degraded_boots: u64,
    pub failed_boots: u64,
    pub storms: u64,
    /// Whole-run latency percentiles (rounded milliseconds).
    pub p50_boot_ms: u64,
    pub p99_boot_ms: u64,
    /// Degraded boots per 10 000 successful boots.
    pub degraded_per_10k: u64,
    pub storage_tier_bytes: u64,
    pub peer_bytes: u64,
    pub joins: u64,
    pub leaves: u64,
    pub evictions: u64,
    /// Maintenance passes that ran popularity decay.
    pub popularity_decays: u64,
    /// Images whose popularity cooled to zero across all decay passes.
    pub images_cooled: u64,
    /// Corrupt records healed by the periodic repair passes.
    pub blocks_repaired: u64,
    /// Hash over every workflow outcome in order — the determinism witness.
    pub read_checksum: String,
    /// Everything the fault plan injected.
    pub fault: FaultReport,
}

impl FleetReport {
    /// Mean storage-tier bytes per simulated day.
    pub fn storage_bytes_per_day(&self) -> u64 {
        self.storage_tier_bytes / (self.days.len().max(1) as u64)
    }
}

/// Event payloads. Demand draws happen in the serial event loop (at schedule
/// time for boots, at fire time for storms), so payloads stay small and the
/// one RNG stream orders every decision.
enum Event {
    /// Hourly autoscale + demand generation for the hour ahead.
    HourTick,
    /// Roll one catalog image out to the fleet.
    Register(ImageId),
    /// One VM boot: preferred node slot and image drawn at schedule time.
    Boot {
        slot: u32,
        image: ImageId,
    },
    /// A correlated boot storm (image drawn at fire time).
    Storm,
    /// Daily seeded churn/partition/rot draws from the armed plan.
    FaultTick,
    /// Popularity decay + hoard-budget enforcement.
    Maintenance,
    Gc,
    Repair,
    /// Day-boundary roll-up.
    DayEnd,
}

/// Counters accumulated between day boundaries.
#[derive(Default)]
struct DayAcc {
    lat_ms: Vec<u64>,
    boots: u64,
    warm: u64,
    degraded: u64,
    failed: u64,
    storms: u64,
    joins: u64,
    leaves: u64,
    evictions: u64,
    registrations: u64,
}

/// Boots apportioned to `hour` (of the whole run): cumulative-quota
/// dithering over the diurnal weights, so every day's hours sum exactly to
/// `boots_per_day`.
fn hour_boots(boots_per_day: u64, hour: u64) -> u64 {
    let h = (hour % 24) as usize;
    let before: u64 = DIURNAL[..h].iter().sum();
    let lo = before * boots_per_day / DIURNAL_SUM;
    let hi = (before + DIURNAL[h]) * boots_per_day / DIURNAL_SUM;
    hi - lo
}

/// Online-node target for hour-of-day `h`: the floor plus the diurnal share
/// of the elastic span, fully scaled out at the peak weight.
fn target_online(cfg: &FleetConfig, h: usize) -> u32 {
    let floor = cfg.min_online.clamp(1, cfg.nodes);
    let span = u64::from(cfg.nodes - floor);
    floor + (span * DIURNAL[h] / DIURNAL_MAX) as u32
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[((n as u64 - 1) * p / 100) as usize],
    }
}

/// Run one fleet soak. See the module docs for the determinism contract.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_with_metrics(cfg).0
}

/// [`run_fleet`], additionally returning the final metrics snapshot of the
/// internal system — the second half of the thread-invariance witness
/// (snapshot equality across `threads` settings).
pub fn run_fleet_with_metrics(cfg: &FleetConfig) -> (FleetReport, MetricsSnapshot) {
    let (report, sq) = drive(cfg);
    let snapshot = sq.metrics().snapshot();
    (report, snapshot)
}

/// The same run, then [`Squirrel::converge`] on the system it leaves behind
/// (the fault plan is disarmed by then: faults stop, links heal, one repair
/// sweep runs), then the snapshot. Equality of the whole triple across
/// `threads` settings is the determinism witness of a chaos soak.
pub fn soak_fleet(cfg: &FleetConfig) -> (FleetReport, Convergence, MetricsSnapshot) {
    let (report, mut sq) = drive(cfg);
    let convergence = sq.converge();
    let snapshot = sq.metrics().snapshot();
    (report, convergence, snapshot)
}

/// The event loop: build the system, arm the plan, run the horizon, and
/// hand back the finished report with the system as the last event left it.
fn drive(cfg: &FleetConfig) -> (FleetReport, Squirrel) {
    assert!(
        cfg.days > 0 && cfg.nodes > 0 && cfg.images > 0,
        "empty fleet config"
    );
    let corpus_cfg = CorpusConfig {
        n_images: cfg.images,
        ..CorpusConfig::azure(cfg.scale, cfg.seed)
    };
    let corpus = Arc::new(Corpus::generate(corpus_cfg));

    // Semantics-aware demand ranks: the catalog ordered by (family, release,
    // id), so Zipf's heavy head lands on one OS-family cluster.
    let mut rank_to_image: Vec<ImageId> = (0..cfg.images).collect();
    rank_to_image.sort_by_key(|&img| {
        let spec = &corpus.images()[img as usize];
        (spec.family, spec.release, img)
    });

    let mut sq = Squirrel::new(
        SquirrelConfig {
            compute_nodes: cfg.nodes,
            storage_nodes: cfg.storage_nodes,
            block_size: cfg.block_size,
            threads: cfg.threads,
            hoard_budget: cfg.budget,
            distribution: cfg.distribution,
            topology: cfg.topology,
            shared_storage: cfg.storage,
            ..Default::default()
        },
        Arc::clone(&corpus),
    );
    sq.set_fault_plan(FaultPlan::new(cfg.seed, cfg.faults));
    let obs = sq.obs_handle().clone();

    let zipf = Zipf::new(u64::from(cfg.images), ZIPF_EXPONENT);
    let mut rng = SplitMix64::from_parts(&[cfg.seed, 0xf1ee7]);

    // Prime the horizon: hour ticks, day boundaries, the registration
    // rollout and every cadenced maintenance event. Demand events are
    // scheduled dynamically by the hour ticks.
    let mut q: EventQueue<Event> = EventQueue::new();
    let mut next_image: u32 = 0;
    for day in 0..cfg.days {
        let base = day * DAY_MS;
        for h in 0..24u64 {
            q.push(base + h * HOUR_MS, Event::HourTick);
        }
        for k in 0..u64::from(cfg.registrations_per_day) {
            if next_image < cfg.images {
                q.push(base + HOUR_MS + k * 60_000, Event::Register(next_image));
                next_image += 1;
            }
        }
        q.push(base + HOUR_MS / 2, Event::FaultTick);
        q.push(base + 3 * HOUR_MS, Event::Maintenance);
        q.push(base + 4 * HOUR_MS, Event::Gc);
        if cfg.repair_every_days > 0 && (day + 1) % cfg.repair_every_days == 0 {
            q.push(base + 5 * HOUR_MS, Event::Repair);
        }
        q.push(base + DAY_MS - 1, Event::DayEnd);
    }

    let mut report = FleetReport {
        nodes: cfg.nodes,
        ..FleetReport::default()
    };
    let mut feed = String::new();
    let mut acc = DayAcc::default();
    let mut all_ms: Vec<u64> = Vec::new();
    let (mut prev_storage_tx, mut prev_peer_tx) = (0u64, 0u64);

    while let Some(ev) = q.pop() {
        report.events += 1;
        let t = ev.time_ms;
        match ev.event {
            Event::HourTick => {
                let hour = t / HOUR_MS;
                let h = (hour % 24) as usize;
                // Autoscale toward the diurnal target: rejoin lowest-id
                // offline nodes on the ramp (catching up through the
                // configured distribution policy), shed highest-id online
                // nodes on the wind-down.
                let target = target_online(cfg, h);
                let online: Vec<NodeId> =
                    (0..cfg.nodes).filter(|&n| sq.node_is_online(n)).collect();
                if (online.len() as u32) < target {
                    let mut need = target - online.len() as u32;
                    for n in 0..cfg.nodes {
                        if need == 0 {
                            break;
                        }
                        if !sq.node_is_online(n) {
                            need -= 1;
                            match sq.node_rejoin(n) {
                                Ok(_) => {
                                    acc.joins += 1;
                                    obs.inc("squirrel_fleet_joins_total");
                                }
                                Err(e) => feed.push_str(&format!("join-err:{n}:{e}\n")),
                            }
                        }
                    }
                } else if (online.len() as u32) > target {
                    for &n in online.iter().rev().take(online.len() - target as usize) {
                        let _ = sq.node_offline(n);
                        acc.leaves += 1;
                        obs.inc("squirrel_fleet_leaves_total");
                    }
                }
                obs.set_gauge(
                    "squirrel_fleet_online_nodes",
                    (0..cfg.nodes).filter(|&n| sq.node_is_online(n)).count() as u64,
                );

                // The hour's demand: Zipf image, uniform preferred slot,
                // uniform start inside the hour (strictly before the day
                // boundary, so attribution never slips a day).
                for _ in 0..hour_boots(u64::from(cfg.boots_per_day), hour) {
                    let image = rank_to_image[zipf.sample(&mut rng) as usize];
                    let slot = rng.below(u64::from(cfg.nodes)) as u32;
                    let at = t + rng.below(HOUR_MS - 1000);
                    q.push(at, Event::Boot { slot, image });
                }
                if cfg.storm_every_days > 0
                    && h == 20
                    && (hour / 24 + 1).is_multiple_of(cfg.storm_every_days)
                {
                    q.push(t + rng.below(HOUR_MS - 1000), Event::Storm);
                }
            }
            Event::Register(image) => {
                acc.registrations += 1;
                match sq.register(image) {
                    Ok(rep) => feed.push_str(&format!(
                        "reg:{image}:{}:{}:{}\n",
                        rep.snapshot_tag, rep.nodes_updated, rep.diff_wire_bytes
                    )),
                    Err(e) => feed.push_str(&format!("reg-err:{image}:{e}\n")),
                }
            }
            Event::Boot { slot, image } => {
                // Place the VM on the first online node scanning up from the
                // preferred slot (a deterministic stand-in for a placement
                // scheduler).
                let node = (0..cfg.nodes)
                    .map(|k| (slot + k) % cfg.nodes)
                    .find(|&n| sq.node_is_online(n));
                let Some(node) = node else {
                    acc.failed += 1;
                    obs.inc("squirrel_fleet_failed_boots_total");
                    feed.push_str("boot-nocap\n");
                    continue;
                };
                match sq.boot(node, image) {
                    Ok(out) => {
                        let ms = out.report.total_millis();
                        acc.lat_ms.push(ms);
                        acc.boots += 1;
                        acc.warm += u64::from(out.warm);
                        acc.degraded += u64::from(out.degraded);
                        obs.inc("squirrel_fleet_boots_total");
                        obs.observe("squirrel_fleet_boot_ms", ms);
                        if out.degraded {
                            obs.inc("squirrel_fleet_degraded_total");
                        }
                        feed.push_str(&format!(
                            "boot:{node}:{image}:{}:{}:{ms}\n",
                            out.warm, out.degraded
                        ));
                    }
                    Err(e) => {
                        acc.failed += 1;
                        obs.inc("squirrel_fleet_failed_boots_total");
                        feed.push_str(&format!("boot-err:{node}:{image}:{e}\n"));
                    }
                }
            }
            Event::Storm => {
                let image = rank_to_image[zipf.sample(&mut rng) as usize];
                match sq.boot_storm(image, cfg.storm_vms) {
                    Ok(storm) => {
                        acc.storms += 1;
                        acc.boots += u64::from(storm.vms);
                        acc.warm += u64::from(storm.warm_vms);
                        acc.degraded += u64::from(storm.degraded_vms);
                        obs.add("squirrel_fleet_boots_total", u64::from(storm.vms));
                        for &s in &storm.boot_seconds {
                            let ms = (s * 1000.0).round() as u64;
                            acc.lat_ms.push(ms);
                            obs.observe("squirrel_fleet_boot_ms", ms);
                        }
                        if storm.degraded_vms > 0 {
                            obs.add(
                                "squirrel_fleet_degraded_total",
                                u64::from(storm.degraded_vms),
                            );
                        }
                        feed.push_str(&format!("storm:{image}:{}\n", storm.read_checksum));
                    }
                    Err(e) => {
                        acc.failed += u64::from(cfg.storm_vms);
                        obs.add(
                            "squirrel_fleet_failed_boots_total",
                            u64::from(cfg.storm_vms),
                        );
                        feed.push_str(&format!("storm-err:{image}:{e}\n"));
                    }
                }
            }
            Event::FaultTick => {
                let tick = sq.fault_tick().expect("plan armed");
                match (tick.churn, tick.rejoined) {
                    (Some(ChurnEvent::Offline(n)), _) => {
                        feed.push_str(&format!("churn-off:{n}\n"));
                    }
                    (Some(ChurnEvent::Rejoin(n) | ChurnEvent::Flap(n)), Some(ok)) => {
                        feed.push_str(&format!("churn-join:{n}:{ok}\n"));
                    }
                    _ => {}
                }
                // Domain events and shard rot only exist on multi-rack /
                // erasure-coded layouts, so a flat run's feed never moves.
                if let Some(event) = tick.domain {
                    feed.push_str(&format!("domain:{event:?}\n"));
                }
                if let Some(rot) = tick.rot {
                    if let Some(shard) = &rot.ec_shard {
                        feed.push_str(&format!("ec-rot:{shard:?}\n"));
                    }
                    feed.push_str(&format!("rot:{:?}:{}\n", rot.victim, rot.block_hit));
                }
            }
            Event::Maintenance => {
                let cooled = sq.decay_popularity(DECAY_FACTOR);
                report.popularity_decays += 1;
                report.images_cooled += cooled;
                feed.push_str(&format!("decay:{cooled}\n"));
                if !cfg.budget.is_unlimited() {
                    let b = sq.enforce_hoard_budgets();
                    acc.evictions += b.evictions.len() as u64;
                    feed.push_str(&format!(
                        "budget:{}:{}\n",
                        b.evictions.len(),
                        b.nodes_over_budget
                    ));
                }
            }
            Event::Gc => {
                let gc = sq.gc();
                feed.push_str(&format!("gc:{}\n", gc.snapshots_collected));
            }
            Event::Repair => {
                let sweep = sq.repair_sweep();
                let (repaired, synced) = (sweep.blocks.repaired, sweep.sync.repaired);
                report.blocks_repaired += repaired;
                feed.push_str(&format!("repair:{repaired}:{synced}\n"));
            }
            Event::DayEnd => {
                let day = t / DAY_MS;
                acc.lat_ms.sort_unstable();
                let storage_tx = sq.network().storage_tx_total();
                let peer_tx = sq.network().compute_tx_total();
                let row = FleetDay {
                    day,
                    boots: acc.boots,
                    warm_boots: acc.warm,
                    degraded_boots: acc.degraded,
                    failed_boots: acc.failed,
                    storms: acc.storms,
                    p50_boot_ms: percentile(&acc.lat_ms, 50),
                    p99_boot_ms: percentile(&acc.lat_ms, 99),
                    storage_tier_bytes: storage_tx - prev_storage_tx,
                    peer_bytes: peer_tx - prev_peer_tx,
                    joins: acc.joins,
                    leaves: acc.leaves,
                    evictions: acc.evictions,
                    registrations: acc.registrations,
                };
                prev_storage_tx = storage_tx;
                prev_peer_tx = peer_tx;
                obs.event(
                    "fleet_day",
                    &[
                        ("day", day.into()),
                        ("boots", row.boots.into()),
                        ("p50_ms", row.p50_boot_ms.into()),
                        ("p99_ms", row.p99_boot_ms.into()),
                        ("degraded", row.degraded_boots.into()),
                        ("storage_bytes", row.storage_tier_bytes.into()),
                        ("peer_bytes", row.peer_bytes.into()),
                    ],
                );
                feed.push_str(&format!(
                    "day:{day}:{}:{}:{}:{}:{}\n",
                    row.boots,
                    row.p50_boot_ms,
                    row.p99_boot_ms,
                    row.storage_tier_bytes,
                    row.peer_bytes
                ));
                all_ms.extend(std::mem::take(&mut acc.lat_ms));
                report.boots += row.boots;
                report.warm_boots += row.warm_boots;
                report.degraded_boots += row.degraded_boots;
                report.failed_boots += row.failed_boots;
                report.storms += row.storms;
                report.storage_tier_bytes += row.storage_tier_bytes;
                report.peer_bytes += row.peer_bytes;
                report.joins += row.joins;
                report.leaves += row.leaves;
                report.evictions += row.evictions;
                report.days.push(row);
                acc = DayAcc::default();
                sq.advance_days(1);
            }
        }
    }

    all_ms.sort_unstable();
    report.p50_boot_ms = percentile(&all_ms, 50);
    report.p99_boot_ms = percentile(&all_ms, 99);
    report.degraded_per_10k = report.degraded_boots * 10_000 / report.boots.max(1);
    report.fault = sq.clear_fault_plan().expect("plan armed").report();
    report.read_checksum = ContentHash::of(feed.as_bytes()).to_hex();
    (report, sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        FleetConfig {
            days: 2,
            images: 6,
            nodes: 8,
            min_online: 3,
            boots_per_day: 48,
            storm_vms: 6,
            registrations_per_day: 3,
            seed: 11,
            threads: 1,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_soak_runs_the_whole_horizon() {
        let r = run_fleet(&tiny());
        assert_eq!(r.days.len(), 2);
        assert_eq!(r.boots + r.failed_boots, 48 * 2 + 6, "demand + one storm");
        assert!(r.boots > 0, "{r:?}");
        assert!(r.p99_boot_ms >= r.p50_boot_ms, "{r:?}");
        assert!(r.p99_boot_ms > 0, "{r:?}");
        assert!(r.joins > 0 && r.leaves > 0, "autoscaler must act: {r:?}");
        assert_eq!(r.popularity_decays, 2);
        let registered: u64 = r.days.iter().map(|d| d.registrations).sum();
        assert_eq!(registered, 6);
    }

    #[test]
    fn fleet_soak_is_bit_identical_for_one_seed() {
        let a = run_fleet(&tiny());
        let b = run_fleet(&tiny());
        assert_eq!(a, b);
    }

    #[test]
    fn fleet_soak_is_thread_count_invariant() {
        let at = |threads| run_fleet(&FleetConfig { threads, ..tiny() });
        let reference = at(1);
        for threads in [2, 8] {
            assert_eq!(at(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn different_seeds_give_different_trajectories() {
        let a = run_fleet(&tiny());
        let b = run_fleet(&FleetConfig { seed: 12, ..tiny() });
        assert_ne!(a.read_checksum, b.read_checksum);
    }

    #[test]
    fn diurnal_demand_sums_to_the_daily_quota() {
        for bpd in [1u64, 7, 48, 96, 1000] {
            let total: u64 = (0..24).map(|h| hour_boots(bpd, h)).sum();
            assert_eq!(total, bpd, "boots_per_day={bpd}");
        }
    }

    #[test]
    fn autoscale_targets_follow_the_curve() {
        let cfg = FleetConfig {
            nodes: 100,
            min_online: 10,
            ..FleetConfig::default()
        };
        let trough = target_online(&cfg, 1);
        let peak = target_online(&cfg, 19);
        assert_eq!(peak, 100, "peak hour scales fully out");
        assert!(trough < peak, "{trough} vs {peak}");
        assert!(trough >= 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 50), 7);
    }
}
