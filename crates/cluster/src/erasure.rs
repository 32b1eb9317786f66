//! An erasure-coded shared volume: k+m Reed–Solomon shards placed across
//! failure domains by the cluster [`Topology`].
//!
//! This replaces flat replication for the scVolume's *physical* layer:
//! where [`GlusterVolume`](crate::parallelfs::GlusterVolume) writes every
//! byte to `replicas` bricks, an [`ErasureCodedVolume`] stripes an object
//! into `k` data + `m` parity shards (storage overhead `(k+m)/k` instead of
//! `replicas`×) and places each stripe's shards on distinct racks via
//! CRUSH-style hashing ([`Topology::place`]). Reads serve from any `k`
//! reachable, intact shards; losing a data shard triggers
//! reconstruct-from-parity, charged to the network ledger as real (often
//! cross-domain) bytes. Repair re-materializes lost shards — and relocates
//! shards stranded in a downed domain onto replacement nodes in live
//! domains.
//!
//! Every byte stored is real: shard payloads live in the volume, every
//! decode is actual GF(256) arithmetic, and every read verifies the
//! decoded object against its recorded checksum — a degraded read can
//! *fail*, but it can never return wrong bytes.

use crate::netsim::{NetError, Network, NodeId};
use crate::rscode::{rs_encode, rs_reconstruct, RsError};
use crate::topology::LinkScope;
use std::collections::BTreeMap;

/// FNV-1a 64-bit — the shard/object integrity hash (std-only, this crate
/// stays a leaf).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Geometry of the erasure code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EcConfig {
    /// Data shards per stripe.
    pub k: u32,
    /// Parity shards per stripe (the code tolerates any `m` losses).
    pub m: u32,
    /// Bytes per shard per stripe; a stripe covers `k * shard_unit` bytes
    /// of object data.
    pub shard_unit: u64,
}

impl Default for EcConfig {
    /// 4+2 over 64 KiB shard units: tolerates a whole rack when shards
    /// spread over ≥ 3 racks, at 1.5× storage overhead (vs 2× replication).
    fn default() -> Self {
        EcConfig {
            k: 4,
            m: 2,
            shard_unit: 64 * 1024,
        }
    }
}

/// Errors from the erasure-coded volume.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EcError {
    /// Invalid k/m geometry or mismatched shard lengths (see [`RsError`]).
    Code(RsError),
    /// A network transfer failed.
    Net(NetError),
    /// No object of that name.
    UnknownObject(String),
    /// Fewer than `k` shards of a stripe are reachable and intact.
    NotEnoughShards {
        object: String,
        stripe: u32,
        available: u32,
        needed: u32,
    },
    /// The decoded object failed its integrity check (never returned as
    /// data: the read errors instead).
    Corrupt(String),
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::Code(e) => write!(f, "erasure coding failed: {e}"),
            EcError::Net(e) => write!(f, "shard transfer failed: {e}"),
            EcError::UnknownObject(name) => write!(f, "no such object {name}"),
            EcError::NotEnoughShards {
                object,
                stripe,
                available,
                needed,
            } => write!(
                f,
                "object {object} stripe {stripe}: {available} shards reachable, {needed} needed"
            ),
            EcError::Corrupt(name) => write!(f, "object {name} decoded to corrupt bytes"),
        }
    }
}

impl std::error::Error for EcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EcError::Code(e) => Some(e),
            EcError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RsError> for EcError {
    fn from(e: RsError) -> Self {
        EcError::Code(e)
    }
}

impl From<NetError> for EcError {
    fn from(e: NetError) -> Self {
        EcError::Net(e)
    }
}

/// One stored shard: where it lives and (if present) its bytes.
#[derive(Clone, Debug)]
struct Shard {
    home: NodeId,
    /// `None` while the shard is lost: the home was unreachable at write
    /// time, or repair hasn't re-materialized it yet.
    data: Option<Vec<u8>>,
    checksum: u64,
}

impl Shard {
    fn is_healthy(&self) -> bool {
        self.data
            .as_deref()
            .is_some_and(|d| fnv1a(d) == self.checksum)
    }
}

#[derive(Clone, Debug)]
struct StoredObject {
    len: u64,
    checksum: u64,
    /// `stripes[s]` holds `k + m` shards; `[0, k)` are data, `[k, k+m)`
    /// parity.
    stripes: Vec<Vec<Shard>>,
}

/// What one read looked like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcReadReport {
    /// The object's bytes, verified against the stored checksum.
    pub data: Vec<u8>,
    /// Payload bytes that crossed the network to serve this read.
    pub net_bytes: u64,
    /// Some stripe could not be served by its k data shards alone, so the
    /// read decoded it from parity (see `reconstructed`).
    pub degraded: bool,
    /// Data shards reconstructed from parity.
    pub reconstructed: u64,
}

/// Outcome of one write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EcWriteReport {
    pub stripes: u32,
    /// Shards stored with real bytes on their home node.
    pub shards_stored: u32,
    /// Shards whose home was unreachable at write time (left lost; repair
    /// re-materializes them).
    pub shards_missed: u32,
    /// Payload bytes charged to the network.
    pub net_bytes: u64,
}

/// Outcome of one scrub-and-repair pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EcRepairReport {
    pub stripes_scanned: u64,
    /// Lost or corrupt shards rebuilt onto a (possibly new) home.
    pub shards_rematerialized: u64,
    /// Healthy shards moved out of an unreachable domain.
    pub shards_relocated: u64,
    /// Stripes with fewer than `k` usable donors — left for a later pass
    /// (or for a fresh [`ErasureCodedVolume::write`] from an authoritative
    /// copy).
    pub unrepaired_stripes: u64,
    /// Objects owning at least one unrepaired stripe.
    pub unrepaired_objects: Vec<String>,
    pub repair_bytes: u64,
    pub cross_domain_repair_bytes: u64,
}

/// The erasure-coded shared volume. See the module docs.
pub struct ErasureCodedVolume {
    config: EcConfig,
    /// Storage nodes eligible to host shards, in id order.
    candidates: Vec<NodeId>,
    objects: BTreeMap<String, StoredObject>,
}

impl ErasureCodedVolume {
    /// Build over `candidates` (the storage nodes). Panics unless
    /// `k`, `m` are nonzero, `k + m <= 255`, and there are at least `k + m`
    /// candidate nodes — fewer would force co-located shards and the
    /// fault-tolerance claim would be vacuous.
    pub fn new(config: EcConfig, candidates: Vec<NodeId>) -> Self {
        assert!(
            config.k > 0 && config.m > 0 && config.k + config.m <= 255,
            "bad erasure geometry k={} m={}",
            config.k,
            config.m
        );
        assert!(
            candidates.len() as u32 >= config.k + config.m,
            "need at least k+m={} shard hosts, got {}",
            config.k + config.m,
            candidates.len()
        );
        assert!(config.shard_unit > 0, "shard unit must be nonzero");
        ErasureCodedVolume {
            config,
            candidates,
            objects: BTreeMap::new(),
        }
    }

    pub fn config(&self) -> EcConfig {
        self.config
    }

    pub fn has_object(&self, name: &str) -> bool {
        self.objects.contains_key(name)
    }

    pub fn object_len(&self, name: &str) -> Option<u64> {
        self.objects.get(name).map(|o| o.len)
    }

    /// Drop `name` and its shards (deregistration). Returns whether the
    /// object existed.
    pub fn remove_object(&mut self, name: &str) -> bool {
        self.objects.remove(name).is_some()
    }

    /// Shard homes of `name`, per stripe — for placement assertions.
    pub fn shard_homes(&self, name: &str) -> Option<Vec<Vec<NodeId>>> {
        self.objects.get(name).map(|o| {
            o.stripes
                .iter()
                .map(|s| s.iter().map(|sh| sh.home).collect())
                .collect()
        })
    }

    /// Placement key for a stripe: stable under everything but the object
    /// name and stripe index.
    fn stripe_key(name: &str, stripe: usize) -> u64 {
        fnv1a(name.as_bytes()) ^ (stripe as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Store `data` as `name` (replacing any object of that name), striping
    /// into k data + m parity shards per stripe, placed across distinct
    /// racks. Shards whose home is
    /// unreachable from `client` are recorded as lost (not silently written
    /// through a partition); the write itself never fails on partitions —
    /// repair re-materializes the losses, exactly like a real object store
    /// acking a quorum write.
    pub fn write(
        &mut self,
        net: &mut Network,
        client: NodeId,
        name: &str,
        data: &[u8],
    ) -> Result<EcWriteReport, EcError> {
        let k = self.config.k as usize;
        let m = self.config.m as usize;
        let stripe_data = self.config.shard_unit as usize * k;
        let mut report = EcWriteReport::default();
        let mut stripes = Vec::new();
        // An empty object still gets one (padded, all-zero) stripe so reads
        // and scrubs have something to verify.
        let source: &[u8] = if data.is_empty() { &[0u8] } else { data };
        for (s, chunk) in source.chunks(stripe_data.max(1)).enumerate() {
            let mut padded = chunk.to_vec();
            padded.resize(stripe_data, 0);
            let shards_data: Vec<Vec<u8>> = padded
                .chunks(self.config.shard_unit as usize)
                .map(<[u8]>::to_vec)
                .collect();
            let parity = rs_encode(k, m, &shards_data)?;
            let homes = net
                .topology()
                .place(Self::stripe_key(name, s), &self.candidates, k + m);
            debug_assert_eq!(homes.len(), k + m);
            let mut stripe = Vec::with_capacity(k + m);
            for (i, bytes) in shards_data.iter().chain(parity.iter()).enumerate() {
                let home = homes[i];
                let checksum = fnv1a(bytes);
                if net.is_reachable(client, home) {
                    if home != client {
                        net.try_unicast(client, home, bytes.len() as u64)?;
                        report.net_bytes += bytes.len() as u64;
                    }
                    report.shards_stored += 1;
                    stripe.push(Shard {
                        home,
                        data: Some(bytes.clone()),
                        checksum,
                    });
                } else {
                    report.shards_missed += 1;
                    stripe.push(Shard {
                        home,
                        data: None,
                        checksum,
                    });
                }
            }
            stripes.push(stripe);
            report.stripes += 1;
        }
        self.objects.insert(
            name.to_string(),
            StoredObject {
                len: data.len() as u64,
                checksum: fnv1a(data),
                stripes,
            },
        );
        Ok(report)
    }

    /// Read `name` back for `client`, from any `k` reachable intact shards
    /// per stripe (data shards preferred — a healthy volume never decodes).
    /// Reconstruction charges the parity transfers to the ledger like any
    /// other byte; the decoded object is verified against the stored
    /// checksum before it is returned.
    pub fn try_read(
        &self,
        net: &mut Network,
        client: NodeId,
        name: &str,
    ) -> Result<EcReadReport, EcError> {
        let k = self.config.k as usize;
        let m = self.config.m as usize;
        let obj = self
            .objects
            .get(name)
            .ok_or_else(|| EcError::UnknownObject(name.to_string()))?;
        let mut out = Vec::with_capacity(obj.len as usize);
        let mut net_bytes = 0u64;
        let mut degraded = false;
        let mut reconstructed = 0u64;
        // Decide every transfer first (reads must not charge a stripe and
        // then die on the next one): for each stripe pick the k serving
        // shards, erroring before any byte moves.
        let mut plan: Vec<Vec<usize>> = Vec::with_capacity(obj.stripes.len());
        for (s, stripe) in obj.stripes.iter().enumerate() {
            let usable: Vec<usize> = (0..k + m)
                .filter(|&i| {
                    let sh = &stripe[i];
                    sh.is_healthy() && net.is_reachable(sh.home, client)
                })
                .collect();
            if usable.len() < k {
                return Err(EcError::NotEnoughShards {
                    object: name.to_string(),
                    stripe: s as u32,
                    available: usable.len() as u32,
                    needed: k as u32,
                });
            }
            plan.push(usable.into_iter().take(k).collect());
        }
        for (stripe, serving) in obj.stripes.iter().zip(&plan) {
            for &i in serving {
                let sh = &stripe[i];
                if sh.home != client {
                    let len = sh.data.as_ref().expect("healthy").len() as u64;
                    net.try_unicast(sh.home, client, len)?;
                    net_bytes += len;
                }
            }
            if serving.iter().take(k).eq((0..k).collect::<Vec<_>>().iter()) {
                for &i in serving {
                    out.extend_from_slice(stripe[i].data.as_ref().expect("healthy"));
                }
            } else {
                degraded = true;
                let mut shards: Vec<Option<Vec<u8>>> = (0..k + m)
                    .map(|i| {
                        if serving.contains(&i) {
                            stripe[i].data.clone()
                        } else {
                            None
                        }
                    })
                    .collect();
                reconstructed += (0..k).filter(|i| shards[*i].is_none()).count() as u64;
                rs_reconstruct(k, m, &mut shards)?;
                for shard in shards.into_iter().take(k) {
                    out.extend_from_slice(&shard.expect("reconstructed"));
                }
            }
        }
        out.truncate(obj.len as usize);
        if fnv1a(&out) != obj.checksum {
            return Err(EcError::Corrupt(name.to_string()));
        }
        Ok(EcReadReport {
            data: out,
            net_bytes,
            degraded,
            reconstructed,
        })
    }

    /// Are all shards of all objects present and intact? (Reachability is a
    /// network question, not a data-health one: a partition degrades reads
    /// but does not make the volume dirty.)
    pub fn is_clean(&self) -> bool {
        self.objects
            .values()
            .all(|o| o.stripes.iter().all(|s| s.iter().all(Shard::is_healthy)))
    }

    /// Fault hook: flip one byte of the `nth` stored shard (mod the shard
    /// population, objects in name order). Returns the victim's
    /// `(object, stripe, shard)` or `None` while the volume is empty or
    /// every shard is already lost.
    pub fn corrupt_nth_shard(&mut self, nth: u64) -> Option<(String, u32, u32)> {
        let present: Vec<(String, u32, u32)> = self
            .objects
            .iter()
            .flat_map(|(name, o)| {
                o.stripes.iter().enumerate().flat_map(move |(s, stripe)| {
                    stripe.iter().enumerate().filter_map(move |(i, sh)| {
                        sh.data.as_ref().map(|_| (name.clone(), s as u32, i as u32))
                    })
                })
            })
            .collect();
        if present.is_empty() {
            return None;
        }
        let (name, s, i) = present[(nth % present.len() as u64) as usize].clone();
        let shard =
            &mut self.objects.get_mut(&name).expect("present").stripes[s as usize][i as usize];
        if let Some(data) = shard.data.as_mut() {
            data[0] ^= 0xff;
        }
        Some((name, s, i))
    }

    /// Scrub every stripe and repair what a pass can: rebuild lost or
    /// corrupt shards from any `k` healthy donors reachable from
    /// `coordinator`, and relocate shards stranded on unreachable nodes
    /// onto replacement hosts in reachable domains. Donor gathers and
    /// replacement placements are charged to the ledger, and the report's
    /// `repair_bytes` and `cross_domain_repair_bytes` are read off its
    /// per-scope tallies. Stripes with fewer than `k` reachable
    /// donors are left unrepaired (see
    /// [`EcRepairReport::unrepaired_objects`]).
    pub fn scrub_and_repair(&mut self, net: &mut Network, coordinator: NodeId) -> EcRepairReport {
        let k = self.config.k as usize;
        let m = self.config.m as usize;
        let mut report = EcRepairReport::default();
        let intra_before = net.scope_bytes(LinkScope::IntraRack);
        let cross_before = net.cross_domain_bytes();
        let names: Vec<String> = self.objects.keys().cloned().collect();
        for name in names {
            let mut object_unrepaired = false;
            let stripe_count = self.objects[&name].stripes.len();
            for s in 0..stripe_count {
                report.stripes_scanned += 1;
                let reachable = |n: NodeId, net: &Network| net.is_reachable(coordinator, n);
                // Victims: lost/corrupt shards anywhere, plus healthy
                // shards stranded behind a domain cut (relocated out).
                let (donors, victims): (Vec<usize>, Vec<usize>) = {
                    let stripe = &self.objects[&name].stripes[s];
                    let donors = (0..k + m)
                        .filter(|&i| stripe[i].is_healthy() && reachable(stripe[i].home, net))
                        .collect::<Vec<_>>();
                    let victims = (0..k + m)
                        .filter(|&i| !stripe[i].is_healthy() || !reachable(stripe[i].home, net))
                        .collect::<Vec<_>>();
                    (donors, victims)
                };
                if victims.is_empty() {
                    continue;
                }
                if donors.len() < k {
                    report.unrepaired_stripes += 1;
                    object_unrepaired = true;
                    continue;
                }
                // Gather k donors to the coordinator and rebuild the full
                // stripe.
                let mut shards: Vec<Option<Vec<u8>>> = vec![None; k + m];
                let mut gather_err = false;
                for &i in donors.iter().take(k) {
                    let (home, data) = {
                        let sh = &self.objects[&name].stripes[s][i];
                        (sh.home, sh.data.clone().expect("healthy donor"))
                    };
                    if home != coordinator
                        && net
                            .try_unicast(home, coordinator, data.len() as u64)
                            .is_err()
                    {
                        gather_err = true;
                        break;
                    }
                    shards[i] = Some(data);
                }
                if gather_err || rs_reconstruct(k, m, &mut shards).is_err() {
                    report.unrepaired_stripes += 1;
                    object_unrepaired = true;
                    continue;
                }
                // Replacement homes for stranded victims: reachable
                // candidates not hosting a retained shard, rack-spread by
                // the placement hash.
                let retained: std::collections::BTreeSet<NodeId> = (0..k + m)
                    .filter(|i| !victims.contains(i))
                    .map(|i| self.objects[&name].stripes[s][i].home)
                    .collect();
                let avail: Vec<NodeId> = self
                    .candidates
                    .iter()
                    .copied()
                    .filter(|&n| reachable(n, net) && !retained.contains(&n))
                    .collect();
                let mut replacements = net
                    .topology()
                    .place(Self::stripe_key(&name, s), &avail, victims.len())
                    .into_iter();
                // A victim left where it is does not stop the stripe's other
                // victims from moving; the stripe counts as unrepaired once.
                let mut stranded = false;
                for &i in &victims {
                    let (old_home, was_healthy) = {
                        let sh = &self.objects[&name].stripes[s][i];
                        (sh.home, sh.is_healthy())
                    };
                    let home = if reachable(old_home, net) {
                        old_home
                    } else {
                        match replacements.next() {
                            Some(n) => n,
                            None => {
                                stranded = true;
                                continue;
                            }
                        }
                    };
                    let data = shards[i].clone().expect("reconstructed");
                    if home != coordinator
                        && net
                            .try_unicast(coordinator, home, data.len() as u64)
                            .is_err()
                    {
                        stranded = true;
                        continue;
                    }
                    let checksum = fnv1a(&data);
                    let sh = &mut self.objects.get_mut(&name).expect("present").stripes[s][i];
                    sh.home = home;
                    sh.data = Some(data);
                    sh.checksum = checksum;
                    if was_healthy {
                        report.shards_relocated += 1;
                    } else {
                        report.shards_rematerialized += 1;
                    }
                }
                if stranded {
                    report.unrepaired_stripes += 1;
                    object_unrepaired = true;
                }
            }
            if object_unrepaired {
                report.unrepaired_objects.push(name);
            }
        }
        report.cross_domain_repair_bytes = net.cross_domain_bytes() - cross_before;
        report.repair_bytes =
            net.scope_bytes(LinkScope::IntraRack) - intra_before + report.cross_domain_repair_bytes;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::LinkKind;
    use crate::topology::TopologyConfig;

    /// 4 compute + 8 storage over 4 racks: storage nodes 4..12, two per
    /// rack (node i in rack i%4).
    fn setup() -> (Network, ErasureCodedVolume) {
        let net = Network::with_topology(
            LinkKind::GbE,
            4,
            8,
            TopologyConfig {
                regions: 1,
                dcs_per_region: 2,
                racks_per_dc: 2,
            },
        );
        let vol = ErasureCodedVolume::new(EcConfig::default(), (4..12).collect());
        (net, vol)
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn roundtrip_is_exact_and_direct() {
        let (mut net, mut vol) = setup();
        let data = payload(300_000);
        let w = vol.write(&mut net, 0, "obj", &data).unwrap();
        assert_eq!(w.shards_missed, 0);
        assert!(w.net_bytes > 0);
        let r = vol.try_read(&mut net, 1, "obj").unwrap();
        assert_eq!(r.data, data);
        assert!(!r.degraded);
        assert_eq!(vol.object_len("obj"), Some(300_000));
    }

    #[test]
    fn stripes_spread_across_distinct_racks() {
        let (mut net, mut vol) = setup();
        vol.write(&mut net, 0, "obj", &payload(600_000)).unwrap();
        for stripe in vol.shard_homes("obj").unwrap() {
            assert_eq!(stripe.len(), 6);
            let racks: std::collections::BTreeSet<u32> =
                stripe.iter().map(|&n| net.topology().rack_of(n)).collect();
            assert!(
                racks.len() >= 4,
                "6 shards over 4 racks use every rack: {stripe:?}"
            );
        }
    }

    #[test]
    fn rack_loss_degrades_but_reads_are_byte_identical() {
        let (mut net, mut vol) = setup();
        let data = payload(500_000);
        vol.write(&mut net, 0, "obj", &data).unwrap();
        let healthy = vol.try_read(&mut net, 1, "obj").unwrap();
        // Client 1 lives in rack 1; take rack 0 down (client keeps its own
        // rack so it can still reach the survivors).
        assert_eq!(net.topology().rack_of(1), 1);
        net.rack_down(0);
        let degraded = vol.try_read(&mut net, 1, "obj").unwrap();
        assert_eq!(
            degraded.data, healthy.data,
            "degraded read is byte-identical"
        );
        assert!(degraded.degraded, "rack 0 hosted data shards");
        assert!(degraded.reconstructed > 0);
        net.heal_all();
    }

    #[test]
    fn more_than_m_unreachable_shards_is_a_typed_error() {
        let (mut net, mut vol) = setup();
        vol.write(&mut net, 0, "obj", &payload(100_000)).unwrap();
        // Cut the client off from every storage node: 0 reachable < k.
        for n in 4..12 {
            net.partition(1, n);
        }
        match vol.try_read(&mut net, 1, "obj") {
            Err(EcError::NotEnoughShards {
                available: 0,
                needed: 4,
                ..
            }) => {}
            other => panic!("expected NotEnoughShards, got {other:?}"),
        }
        net.heal_all();
    }

    #[test]
    fn corrupt_shard_is_detected_and_repaired_in_place() {
        let (mut net, mut vol) = setup();
        let data = payload(200_000);
        vol.write(&mut net, 0, "obj", &data).unwrap();
        assert!(vol.is_clean());
        let victim = vol.corrupt_nth_shard(3).expect("shards exist");
        assert!(!vol.is_clean());
        let rep = vol.scrub_and_repair(&mut net, 4);
        assert_eq!(rep.shards_rematerialized, 1, "{victim:?}: {rep:?}");
        assert!(rep.repair_bytes > 0);
        assert!(vol.is_clean());
        // Reads after repair serve the original bytes.
        assert_eq!(vol.try_read(&mut net, 2, "obj").unwrap().data, data);
    }

    #[test]
    fn repair_relocates_shards_out_of_a_downed_rack() {
        let (mut net, mut vol) = setup();
        let data = payload(400_000);
        vol.write(&mut net, 0, "obj", &data).unwrap();
        net.rack_down(0);
        // Coordinator in rack 1 (storage node 5): shards homed in rack 0
        // are stranded and must move to reachable racks.
        let rep = vol.scrub_and_repair(&mut net, 5);
        assert!(rep.shards_relocated > 0, "{rep:?}");
        assert_eq!(rep.unrepaired_stripes, 0, "{rep:?}");
        assert!(
            rep.cross_domain_repair_bytes > 0,
            "relocation crosses racks"
        );
        for stripe in vol.shard_homes("obj").unwrap() {
            for home in stripe {
                assert_ne!(
                    net.topology().rack_of(home),
                    0,
                    "no shard left in the dead rack"
                );
            }
        }
        // With the rack still down, reads are now direct again.
        let r = vol.try_read(&mut net, 1, "obj").unwrap();
        assert_eq!(r.data, data);
        net.heal_all();
    }

    #[test]
    fn a_stripe_with_several_stranded_shards_counts_as_unrepaired_once() {
        // 2+3 over six hosts, three per datacenter (DC 0 = racks 0 and 1,
        // DC 1 = racks 2 and 3): one datacenter holds three of the stripe's
        // five shards, the other two shards and one spare host.
        let (mut net, _) = setup();
        let config = EcConfig {
            k: 2,
            m: 3,
            shard_unit: 1024,
        };
        let mut vol = ErasureCodedVolume::new(config, vec![4, 5, 8, 6, 7, 10]);
        vol.write(&mut net, 0, "obj", &payload(2000)).unwrap();
        let homes = &vol.shard_homes("obj").unwrap()[0];
        let in_dc0 = homes
            .iter()
            .filter(|&&n| net.topology().datacenter_of(n) == 0)
            .count();
        // Down the crowded datacenter; coordinate from compute node 0 or 2
        // in the other one.
        let (down, coordinator) = if in_dc0 == 3 { (0, 2) } else { (1, 0) };
        net.datacenter_down(down);
        let rep = vol.scrub_and_repair(&mut net, coordinator);
        assert_eq!(rep.stripes_scanned, 1);
        assert_eq!(rep.shards_relocated, 1, "one replacement home: {rep:?}");
        assert_eq!(rep.unrepaired_stripes, 1, "{rep:?}");
        assert_eq!(rep.unrepaired_objects, vec!["obj".to_string()]);
    }

    #[test]
    fn write_through_partition_records_losses_and_repair_heals() {
        let (mut net, mut vol) = setup();
        let data = payload(250_000);
        // Client 0 cannot reach storage nodes 4 and 8 (rack 0).
        net.partition(0, 4);
        net.partition(0, 8);
        let w = vol.write(&mut net, 0, "obj", &data).unwrap();
        assert!(w.shards_missed > 0, "{w:?}");
        assert!(!vol.is_clean());
        // Degraded but correct read from a different client.
        let r = vol.try_read(&mut net, 2, "obj").unwrap();
        assert_eq!(r.data, data);
        net.heal_all();
        let rep = vol.scrub_and_repair(&mut net, 4);
        assert_eq!(
            rep.shards_rematerialized,
            u64::from(w.shards_missed),
            "{rep:?}"
        );
        assert!(vol.is_clean());
    }

    #[test]
    fn rewriting_with_write_recovers_from_beyond_parity_loss() {
        let (mut net, mut vol) = setup();
        let data = payload(150_000);
        vol.write(&mut net, 0, "obj", &data).unwrap();
        // Rot more shards than parity can absorb.
        for nth in 0..4 {
            vol.corrupt_nth_shard(nth);
        }
        let rep = vol.scrub_and_repair(&mut net, 4);
        if rep.unrepaired_stripes > 0 {
            assert_eq!(rep.unrepaired_objects, vec!["obj".to_string()]);
            vol.write(&mut net, 4, "obj", &data).unwrap();
        }
        assert!(vol.is_clean());
        assert_eq!(vol.try_read(&mut net, 1, "obj").unwrap().data, data);
    }

    #[test]
    fn empty_object_roundtrips() {
        let (mut net, mut vol) = setup();
        vol.write(&mut net, 0, "empty", &[]).unwrap();
        assert_eq!(vol.object_len("empty"), Some(0));
        let r = vol.try_read(&mut net, 1, "empty").unwrap();
        assert!(r.data.is_empty());
    }

    #[test]
    fn unknown_object_and_display() {
        let (mut net, vol) = setup();
        assert!(matches!(
            vol.try_read(&mut net, 0, "ghost"),
            Err(EcError::UnknownObject(_))
        ));
        let e: Box<dyn std::error::Error> = Box::new(EcError::NotEnoughShards {
            object: "o".into(),
            stripe: 2,
            available: 3,
            needed: 4,
        });
        assert_eq!(
            e.to_string(),
            "object o stripe 2: 3 shards reachable, 4 needed"
        );
    }
}
