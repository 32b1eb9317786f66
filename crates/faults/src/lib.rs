//! Deterministic, seeded fault injection for the Squirrel reproduction.
//!
//! The paper's central robustness claim is that a compute node can lose its
//! cache, crash mid-replication, or fall off the network and the cluster
//! still boots VMs. This crate supplies the *adversary* for exercising that
//! claim: a [`FaultPlan`] — a seeded schedule of network faults (dropped,
//! duplicated, transiently failing transfers, per-link partitions), storage
//! faults (bit-flips in encoded send streams, ccVolume block corruption,
//! crashes mid-`recv`), and node churn (offline/rejoin/flap sequences).
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic.** Every decision comes from one SplitMix64 stream
//!    seeded at construction; the same seed yields the same fault schedule,
//!    so a chaos soak is bit-reproducible and thread-count independent as
//!    long as the plan is only consulted from serial orchestration code.
//! 2. **Std-only, leaf crate.** No dependencies; node ids are plain `u32`
//!    (mirroring `squirrel_cluster::NodeId`), so every layer can take a plan
//!    without dependency cycles.
//! 3. **Accountable.** Every injected fault is counted in a [`FaultReport`]
//!    the recovery layer surfaces next to its repair metrics.

/// Node identifier; mirrors `squirrel_cluster::NodeId` without the dep.
pub type NodeId = u32;

/// SplitMix64, a leaf copy of `squirrel_hash::rng::SplitMix64`: the committed
/// `benchmark/Cargo.lock` freezes the crate graph, so this crate gains no
/// dependency edge. Its draws are pinned by `results/` and the fleet pins,
/// not by equality to the canonical copy.
#[derive(Clone, Debug)]
struct FaultRng {
    state: u64,
}

impl FaultRng {
    fn new(seed: u64) -> Self {
        FaultRng { state: seed ^ 0x5bd1_e995_9d1b_58d3 }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[inline]
    fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

/// Per-operation fault probabilities and the recovery policy knobs.
///
/// All probabilities are per *consultation* (one transfer attempt, one recv,
/// one simulated day's churn draw), in `[0, 1]`. [`Default`] is completely
/// quiet — a plan built from it injects nothing, so wiring a plan through a
/// workflow is behavior-preserving until rates are raised.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// A transfer's payload is lost in flight (charged, then retried).
    pub drop_prob: f64,
    /// A transfer is delivered twice (the duplicate is charged too).
    pub duplicate_prob: f64,
    /// The link throws a transient error before any bytes move.
    pub transient_prob: f64,
    /// One bit of the encoded send stream flips in flight.
    pub stream_corrupt_prob: f64,
    /// The receiver crashes mid-`recv` (transactional recv rolls back).
    pub crash_recv_prob: f64,
    /// One stored ccVolume/scVolume block silently rots, per day.
    pub block_corrupt_prob: f64,
    /// A random online node fail-stops, per churn draw.
    pub offline_prob: f64,
    /// A random offline node comes back, per churn draw.
    pub rejoin_prob: f64,
    /// A node flaps: goes down and immediately rejoins, per churn draw.
    pub flap_prob: f64,
    /// A random storage↔compute link partitions, per draw.
    pub partition_prob: f64,
    /// A partitioned link heals, per draw.
    pub heal_prob: f64,
    /// A whole rack drops off the network, per domain draw.
    pub rack_down_prob: f64,
    /// A downed rack comes back, per domain draw.
    pub rack_heal_prob: f64,
    /// A whole datacenter drops off the network, per domain draw.
    pub dc_down_prob: f64,
    /// A downed datacenter comes back, per domain draw.
    pub dc_heal_prob: f64,
    /// Delivery attempts after the first before the sender gives up.
    pub max_retries: u32,
    /// First retry backoff; attempt `k` waits `base * 2^k` seconds.
    pub backoff_base_secs: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            transient_prob: 0.0,
            stream_corrupt_prob: 0.0,
            crash_recv_prob: 0.0,
            block_corrupt_prob: 0.0,
            offline_prob: 0.0,
            rejoin_prob: 0.0,
            flap_prob: 0.0,
            partition_prob: 0.0,
            heal_prob: 0.0,
            rack_down_prob: 0.0,
            rack_heal_prob: 0.0,
            dc_down_prob: 0.0,
            dc_heal_prob: 0.0,
            max_retries: 4,
            backoff_base_secs: 0.05,
        }
    }
}

impl FaultConfig {
    /// A lively schedule for chaos soaks: every fault class enabled at
    /// rates high enough to fire many times over a simulated month, low
    /// enough that bounded retries almost always converge.
    pub fn chaos() -> Self {
        FaultConfig {
            drop_prob: 0.08,
            duplicate_prob: 0.04,
            transient_prob: 0.06,
            stream_corrupt_prob: 0.06,
            crash_recv_prob: 0.05,
            block_corrupt_prob: 0.35,
            offline_prob: 0.20,
            rejoin_prob: 0.45,
            flap_prob: 0.10,
            partition_prob: 0.15,
            heal_prob: 0.40,
            // Domain outages stay off in the flat-cluster chaos schedule;
            // see [`FaultConfig::chaos_with_domains`].
            rack_down_prob: 0.0,
            rack_heal_prob: 0.0,
            dc_down_prob: 0.0,
            dc_heal_prob: 0.0,
            max_retries: 6,
            backoff_base_secs: 0.05,
        }
    }

    /// The [`chaos`](Self::chaos) schedule plus correlated domain outages:
    /// whole racks (and, rarely, whole datacenters) drop off the network
    /// and come back. For soaks over a multi-rack cluster topology.
    pub fn chaos_with_domains() -> Self {
        FaultConfig {
            rack_down_prob: 0.12,
            rack_heal_prob: 0.50,
            dc_down_prob: 0.03,
            dc_heal_prob: 0.60,
            ..Self::chaos()
        }
    }
}

/// Outcome of consulting the plan about one transfer delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferFault {
    /// The transfer goes through normally.
    Delivered,
    /// Payload lost in flight: bytes were charged, nothing arrived.
    Drop,
    /// Payload arrives twice (receiver must deduplicate).
    Duplicate,
    /// The link errors before any bytes move.
    Transient,
}

/// One step of a node-churn script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Fail-stop: the node goes offline.
    Offline(NodeId),
    /// The node comes back and wants to catch up.
    Rejoin(NodeId),
    /// Down-and-up within one step (rejoin immediately follows offline).
    Flap(NodeId),
}

/// One step of a partition schedule: single storage↔compute links the
/// propagation path uses, or whole failure domains (racks, datacenters)
/// falling off the network together. Domain ids index the cluster
/// topology's global rack/datacenter numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionEvent {
    /// Cut the link between two nodes.
    Cut(NodeId, NodeId),
    /// Heal the link between two nodes.
    Heal(NodeId, NodeId),
    /// Every link crossing this rack's boundary goes down.
    RackDown(u32),
    /// The rack's boundary links come back.
    RackUp(u32),
    /// Every link crossing this datacenter's boundary goes down.
    DatacenterDown(u32),
    /// The datacenter's boundary links come back.
    DatacenterUp(u32),
}

/// Tally of every fault the plan injected. Returned by
/// [`FaultPlan::report`]; the recovery layer surfaces it next to its
/// `squirrel_repair_*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct FaultReport {
    pub net_drops: u64,
    pub net_duplicates: u64,
    pub net_transients: u64,
    pub stream_corruptions: u64,
    pub recv_crashes: u64,
    pub block_corruptions: u64,
    pub offlines: u64,
    pub rejoins: u64,
    pub flaps: u64,
    pub partitions: u64,
    pub heals: u64,
    pub rack_downs: u64,
    pub rack_ups: u64,
    pub dc_downs: u64,
    pub dc_ups: u64,
    /// Delivery retries the recovery layer reported back via
    /// [`FaultPlan::note_retry`].
    pub retries: u64,
    /// Deliveries abandoned after `max_retries` (the node is left lagging
    /// for the repair workflow).
    pub giveups: u64,
}

impl FaultReport {
    /// Total faults injected (excluding the recovery-side retry/giveup
    /// tallies).
    pub fn total_injected(&self) -> u64 {
        self.net_drops
            + self.net_duplicates
            + self.net_transients
            + self.stream_corruptions
            + self.recv_crashes
            + self.block_corruptions
            + self.offlines
            + self.rejoins
            + self.flaps
            + self.partitions
            + self.heals
            + self.rack_downs
            + self.rack_ups
            + self.dc_downs
            + self.dc_ups
    }
}

/// A seeded, deterministic fault schedule.
///
/// The plan is a consumable oracle: workflows ask it questions ("does this
/// transfer fail?", "does this recv crash?") in their serial orchestration
/// sections, and the answers — driven by one SplitMix64 stream — are
/// identical run to run for the same seed and question order. Never consult
/// a plan from inside a parallel region; decide first, fan out after.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rng: FaultRng,
    config: FaultConfig,
    report: FaultReport,
}

impl FaultPlan {
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultPlan { seed, rng: FaultRng::new(seed), config, report: FaultReport::default() }
    }

    /// A plan that injects nothing (all probabilities zero) but still
    /// carries the retry policy — useful for wiring tests.
    pub fn quiet(seed: u64) -> Self {
        Self::new(seed, FaultConfig::default())
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Everything injected so far.
    pub fn report(&self) -> FaultReport {
        self.report
    }

    /// Decide the fate of one transfer delivery attempt.
    pub fn transfer_fault(&mut self) -> TransferFault {
        // One draw per class, in fixed order, so the schedule is stable
        // under probability tweaks to later classes.
        if self.rng.chance(self.config.drop_prob) {
            self.report.net_drops += 1;
            return TransferFault::Drop;
        }
        if self.rng.chance(self.config.transient_prob) {
            self.report.net_transients += 1;
            return TransferFault::Transient;
        }
        if self.rng.chance(self.config.duplicate_prob) {
            self.report.net_duplicates += 1;
            return TransferFault::Duplicate;
        }
        TransferFault::Delivered
    }

    /// Maybe flip one bit of a `len`-byte encoded stream in flight: the
    /// index of the bit to flip (counted), or `None`. An empty stream has
    /// nothing to flip and draws nothing.
    pub fn stream_corruption(&mut self, len: usize) -> Option<u64> {
        if len == 0 || !self.rng.chance(self.config.stream_corrupt_prob) {
            return None;
        }
        self.report.stream_corruptions += 1;
        Some(self.rng.below(len as u64 * 8))
    }

    /// Does this `recv` crash mid-apply?
    pub fn crash_mid_recv(&mut self) -> bool {
        let crash = self.rng.chance(self.config.crash_recv_prob);
        if crash {
            self.report.recv_crashes += 1;
        }
        crash
    }

    /// Maybe rot one stored block this step. Returns the victim: `None`
    /// node means the scVolume, otherwise a compute node in `[0, nodes)`;
    /// the `u64` selects the nth unique block (mod the pool's block count).
    pub fn block_corruption(&mut self, nodes: NodeId) -> Option<(Option<NodeId>, u64)> {
        if nodes == 0 || !self.rng.chance(self.config.block_corrupt_prob) {
            return None;
        }
        self.report.block_corruptions += 1;
        // One draw in [0, nodes]: the last value targets the scVolume.
        let pick = self.rng.below(nodes as u64 + 1);
        let victim = if pick == nodes as u64 { None } else { Some(pick as NodeId) };
        Some((victim, self.rng.next_u64()))
    }

    /// Draw one churn event over `nodes` compute nodes, if any fires.
    /// `online` reports whether a node is currently up, letting the plan
    /// aim offlines at live nodes and rejoins at dead ones.
    pub fn churn_event(
        &mut self,
        nodes: NodeId,
        mut online: impl FnMut(NodeId) -> bool,
    ) -> Option<ChurnEvent> {
        if nodes == 0 {
            return None;
        }
        let pick = self.rng.below(nodes as u64) as NodeId;
        if self.rng.chance(self.config.flap_prob) {
            self.report.flaps += 1;
            return Some(ChurnEvent::Flap(pick));
        }
        if online(pick) {
            if self.rng.chance(self.config.offline_prob) {
                self.report.offlines += 1;
                return Some(ChurnEvent::Offline(pick));
            }
        } else if self.rng.chance(self.config.rejoin_prob) {
            self.report.rejoins += 1;
            return Some(ChurnEvent::Rejoin(pick));
        }
        None
    }

    /// Draw one partition event on the link between `storage` and a compute
    /// node in `[0, nodes)`. `cut` reports whether that link is currently
    /// partitioned, steering cuts at healthy links and heals at cut ones.
    pub fn partition_event(
        &mut self,
        storage: NodeId,
        nodes: NodeId,
        mut cut: impl FnMut(NodeId) -> bool,
    ) -> Option<PartitionEvent> {
        if nodes == 0 {
            return None;
        }
        let pick = self.rng.below(nodes as u64) as NodeId;
        if cut(pick) {
            if self.rng.chance(self.config.heal_prob) {
                self.report.heals += 1;
                return Some(PartitionEvent::Heal(storage, pick));
            }
        } else if self.rng.chance(self.config.partition_prob) {
            self.report.partitions += 1;
            return Some(PartitionEvent::Cut(storage, pick));
        }
        None
    }

    /// Draw one correlated domain outage over `racks` racks and `dcs`
    /// datacenters (global topology ids), if any fires. `rack_down` /
    /// `dc_down` report current outage state, steering downs at live
    /// domains and heals at downed ones. The rack draw always precedes the
    /// datacenter draw so the schedule is stable under probability tweaks.
    pub fn domain_event(
        &mut self,
        racks: u32,
        dcs: u32,
        mut rack_down: impl FnMut(u32) -> bool,
        mut dc_down: impl FnMut(u32) -> bool,
    ) -> Option<PartitionEvent> {
        if racks > 0 {
            let pick = self.rng.below(u64::from(racks)) as u32;
            if rack_down(pick) {
                if self.rng.chance(self.config.rack_heal_prob) {
                    self.report.rack_ups += 1;
                    return Some(PartitionEvent::RackUp(pick));
                }
            } else if self.rng.chance(self.config.rack_down_prob) {
                self.report.rack_downs += 1;
                return Some(PartitionEvent::RackDown(pick));
            }
        }
        if dcs > 0 {
            let pick = self.rng.below(u64::from(dcs)) as u32;
            if dc_down(pick) {
                if self.rng.chance(self.config.dc_heal_prob) {
                    self.report.dc_ups += 1;
                    return Some(PartitionEvent::DatacenterUp(pick));
                }
            } else if self.rng.chance(self.config.dc_down_prob) {
                self.report.dc_downs += 1;
                return Some(PartitionEvent::DatacenterDown(pick));
            }
        }
        None
    }

    /// Deterministic exponential backoff: attempt `k` (0-based retry index)
    /// waits `backoff_base_secs * 2^k` simulated seconds.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        self.config.backoff_base_secs * f64::from(1u32 << attempt.min(16))
    }

    pub fn max_retries(&self) -> u32 {
        self.config.max_retries
    }

    /// The recovery layer reports each delivery retry it performs.
    pub fn note_retry(&mut self) {
        self.report.retries += 1;
    }

    /// The recovery layer reports each delivery it abandoned.
    pub fn note_giveup(&mut self) {
        self.report.giveups += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mk = || {
            let mut p = FaultPlan::new(42, FaultConfig::chaos());
            let mut log = Vec::new();
            for _ in 0..200 {
                log.push(format!("{:?}", p.transfer_fault()));
                log.push(format!("{:?}", p.crash_mid_recv()));
                log.push(format!("{:?}", p.block_corruption(8)));
                log.push(format!("{:?}", p.churn_event(8, |n| n % 2 == 0)));
                log.push(format!("{:?}", p.partition_event(8, 8, |n| n == 3)));
            }
            (log, p.report())
        };
        let (a, ra) = mk();
        let (b, rb) = mk();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let mut p = FaultPlan::quiet(7);
        for _ in 0..100 {
            assert_eq!(p.transfer_fault(), TransferFault::Delivered);
            assert!(!p.crash_mid_recv());
            assert_eq!(p.stream_corruption(64), None);
            assert_eq!(p.block_corruption(4), None);
            assert_eq!(p.churn_event(4, |_| true), None);
            assert_eq!(p.partition_event(4, 4, |_| false), None);
        }
        assert_eq!(p.report(), FaultReport::default());
    }

    #[test]
    fn chaos_plan_fires_every_class() {
        let mut p = FaultPlan::new(2014, FaultConfig::chaos());
        for _ in 0..600 {
            let _ = p.transfer_fault();
            let _ = p.crash_mid_recv();
            let _ = p.stream_corruption(256);
            let _ = p.block_corruption(8);
            let _ = p.churn_event(8, |n| n % 3 != 0);
            let _ = p.partition_event(8, 8, |n| n % 4 == 0);
        }
        let r = p.report();
        assert!(r.net_drops > 0, "{r:?}");
        assert!(r.net_duplicates > 0, "{r:?}");
        assert!(r.net_transients > 0, "{r:?}");
        assert!(r.stream_corruptions > 0, "{r:?}");
        assert!(r.recv_crashes > 0, "{r:?}");
        assert!(r.block_corruptions > 0, "{r:?}");
        assert!(r.offlines > 0 && r.rejoins > 0 && r.flaps > 0, "{r:?}");
        assert!(r.partitions > 0 && r.heals > 0, "{r:?}");
        assert!(r.total_injected() > 0);
    }

    #[test]
    fn stream_corruption_picks_one_bit_of_the_stream() {
        let mut p = FaultPlan::new(
            9,
            FaultConfig { stream_corrupt_prob: 1.0, ..FaultConfig::default() },
        );
        let bits: Vec<u64> = (0..64).map(|_| p.stream_corruption(128).expect("certain")).collect();
        assert!(bits.iter().all(|&b| b < 128 * 8), "{bits:?}");
        assert!(bits.iter().any(|&b| b != bits[0]), "the bit is drawn, not fixed");
        // Empty input: nothing to flip, nothing drawn, nothing counted.
        let next = p.clone().stream_corruption(128);
        assert_eq!(p.stream_corruption(0), None);
        assert_eq!(p.stream_corruption(128), next);
        assert_eq!(p.report().stream_corruptions, 65);
    }

    #[test]
    fn backoff_doubles_deterministically() {
        let p = FaultPlan::quiet(1);
        assert!((p.backoff_secs(0) - 0.05).abs() < 1e-12);
        assert!((p.backoff_secs(1) - 0.10).abs() < 1e-12);
        assert!((p.backoff_secs(3) - 0.40).abs() < 1e-12);
        // Clamped exponent: no overflow for absurd attempt counts.
        assert!(p.backoff_secs(40).is_finite());
    }

    #[test]
    fn domain_chaos_fires_and_steers_by_state() {
        let mut p = FaultPlan::new(404, FaultConfig::chaos_with_domains());
        let mut rack_state = [false; 4];
        let mut dc_state = [false; 2];
        for _ in 0..400 {
            let (rs, ds) = (rack_state, dc_state);
            match p.domain_event(4, 2, |r| rs[r as usize], |d| ds[d as usize]) {
                Some(PartitionEvent::RackDown(r)) => {
                    assert!(!rack_state[r as usize], "down of a downed rack");
                    rack_state[r as usize] = true;
                }
                Some(PartitionEvent::RackUp(r)) => {
                    assert!(rack_state[r as usize], "heal of a live rack");
                    rack_state[r as usize] = false;
                }
                Some(PartitionEvent::DatacenterDown(d)) => {
                    assert!(!dc_state[d as usize]);
                    dc_state[d as usize] = true;
                }
                Some(PartitionEvent::DatacenterUp(d)) => {
                    assert!(dc_state[d as usize]);
                    dc_state[d as usize] = false;
                }
                Some(other) => panic!("domain_event returned {other:?}"),
                None => {}
            }
        }
        let r = p.report();
        assert!(r.rack_downs > 0 && r.rack_ups > 0, "{r:?}");
        assert!(r.dc_downs > 0 && r.dc_ups > 0, "{r:?}");
        assert!(r.total_injected() >= r.rack_downs + r.rack_ups + r.dc_downs + r.dc_ups);
    }

    #[test]
    fn quiet_and_flat_plans_draw_no_domain_events() {
        let mut p = FaultPlan::quiet(5);
        for _ in 0..50 {
            assert_eq!(p.domain_event(4, 2, |_| false, |_| false), None);
        }
        assert_eq!(p.report(), FaultReport::default());
        // Zero domains: nothing to pick from even under chaos rates.
        let mut c = FaultPlan::new(6, FaultConfig::chaos_with_domains());
        for _ in 0..50 {
            assert_eq!(c.domain_event(0, 0, |_| false, |_| false), None);
        }
    }

    #[test]
    fn retry_and_giveup_tallies_accumulate() {
        let mut p = FaultPlan::quiet(3);
        p.note_retry();
        p.note_retry();
        p.note_giveup();
        let r = p.report();
        assert_eq!((r.retries, r.giveups), (2, 1));
        assert_eq!(r.total_injected(), 0, "recovery tallies are not injections");
    }
}
