//! A glusterfs-like parallel file system over the storage nodes.
//!
//! The paper configures glusterfs with "two levels of striping and two
//! levels of replication" across four storage nodes: a read of `bytes`
//! spreads over the stripe set (good random-access performance over four
//! disks) while each written byte lands on two replicas (tolerating one
//! disk failure per replica group).

use crate::netsim::{NetError, Network, NodeId};

/// Striping/replication shape.
#[derive(Clone, Copy, Debug)]
pub struct GlusterConfig {
    pub stripe: u32,
    pub replicas: u32,
    /// Stripe unit in bytes.
    pub stripe_unit: u64,
}

impl Default for GlusterConfig {
    fn default() -> Self {
        GlusterConfig {
            stripe: 2,
            replicas: 2,
            stripe_unit: 128 * 1024,
        }
    }
}

/// The parallel FS: a view over the network's storage nodes.
pub struct GlusterVolume {
    config: GlusterConfig,
    bricks: Vec<NodeId>,
}

impl GlusterVolume {
    /// Build over the given brick nodes; needs `stripe × replicas` bricks.
    pub fn new(config: GlusterConfig, bricks: Vec<NodeId>) -> Self {
        assert_eq!(
            bricks.len() as u32,
            config.stripe * config.replicas,
            "brick count must equal stripe x replicas"
        );
        GlusterVolume { config, bricks }
    }

    /// Bricks serving stripe `s` (one per replica).
    fn stripe_bricks(&self, s: u32) -> impl Iterator<Item = NodeId> + '_ {
        let stripe = self.config.stripe;
        self.bricks
            .iter()
            .copied()
            .enumerate()
            .filter(move |(i, _)| (*i as u32) % stripe == s)
            .map(|(_, n)| n)
    }

    /// Serve a client read of `bytes` at `offset` for `client`, with
    /// replica failover: each stripe is served by its first replica
    /// reachable from `client` (the primary on a healthy network) and sends
    /// its share over the network. Returns the transfer seconds of the
    /// slowest stripe (they proceed in parallel). Only when *every* replica
    /// of a stripe is behind a partition does the read fail — and it fails
    /// before any byte is charged.
    pub fn try_read(
        &self,
        net: &mut Network,
        client: NodeId,
        offset: u64,
        bytes: u64,
    ) -> Result<f64, NetError> {
        let mut per_stripe = vec![0u64; self.config.stripe as usize];
        let unit = self.config.stripe_unit;
        let mut pos = offset;
        let end = offset + bytes;
        while pos < end {
            let chunk_end = ((pos / unit) + 1) * unit;
            let take = chunk_end.min(end) - pos;
            let stripe = ((pos / unit) % self.config.stripe as u64) as usize;
            per_stripe[stripe] += take;
            pos += take;
        }
        // Pick every stripe's serving replica first, so a dead stripe
        // leaves the ledgers untouched.
        let mut serving = Vec::new();
        for (s, &b) in per_stripe.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let primary = self
                .stripe_bricks(s as u32)
                .next()
                .expect("stripe has bricks");
            let brick = self
                .stripe_bricks(s as u32)
                .find(|&br| net.is_reachable(br, client))
                .ok_or(NetError::Partitioned {
                    src: primary,
                    dst: client,
                })?;
            serving.push((brick, b));
        }
        let mut slowest = 0.0f64;
        for (brick, b) in serving {
            let report = net.try_unicast(brick, client, b)?;
            slowest = slowest.max(report.seconds);
        }
        Ok(slowest)
    }

    /// Serve a client write with replica failover: every byte goes to each
    /// *reachable* replica of its stripe (a replica behind a partition is
    /// skipped and heals later via replication repair, like a real gluster
    /// self-heal). Only when a stripe has *no* reachable replica does the
    /// write fail, and it fails before any byte is charged.
    pub fn try_write(
        &self,
        net: &mut Network,
        client: NodeId,
        offset: u64,
        bytes: u64,
    ) -> Result<f64, NetError> {
        let unit = self.config.stripe_unit;
        let mut per_stripe = vec![0u64; self.config.stripe as usize];
        let mut pos = offset;
        let end = offset + bytes;
        while pos < end {
            let chunk_end = ((pos / unit) + 1) * unit;
            let take = chunk_end.min(end) - pos;
            let stripe = ((pos / unit) % self.config.stripe as u64) as usize;
            per_stripe[stripe] += take;
            pos += take;
        }
        // Validate every stripe first so total loss charges nothing.
        let mut serving: Vec<(Vec<NodeId>, u64)> = Vec::new();
        for (s, &b) in per_stripe.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let primary = self
                .stripe_bricks(s as u32)
                .next()
                .expect("stripe has bricks");
            let reachable: Vec<NodeId> = self
                .stripe_bricks(s as u32)
                .filter(|&br| net.is_reachable(client, br))
                .collect();
            if reachable.is_empty() {
                return Err(NetError::Partitioned {
                    src: client,
                    dst: primary,
                });
            }
            serving.push((reachable, b));
        }
        let mut slowest = 0.0f64;
        for (bricks, b) in serving {
            for brick in bricks {
                let secs = net
                    .try_unicast(client, brick, b)
                    .expect("reachability was checked")
                    .seconds;
                slowest = slowest.max(secs);
            }
        }
        Ok(slowest)
    }

    pub fn bricks(&self) -> &[NodeId] {
        &self.bricks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::LinkKind;

    fn setup() -> (Network, GlusterVolume) {
        // 2 compute (0,1) + 4 storage (2..6).
        let net = Network::new(LinkKind::GbE, 2, 4);
        let vol = GlusterVolume::new(GlusterConfig::default(), vec![2, 3, 4, 5]);
        (net, vol)
    }

    #[test]
    #[should_panic(expected = "brick count")]
    fn wrong_brick_count_panics() {
        GlusterVolume::new(GlusterConfig::default(), vec![2, 3, 4]);
    }

    #[test]
    fn read_spreads_across_stripes() {
        let (mut net, vol) = setup();
        // 512 KiB = 4 stripe units, alternating stripe 0/1.
        vol.try_read(&mut net, 0, 0, 512 * 1024).unwrap();
        let s0: u64 = net.ledger(2).tx_bytes;
        let s1: u64 = net.ledger(3).tx_bytes;
        assert_eq!(s0 + s1, 512 * 1024);
        assert_eq!(s0, s1, "even split across stripes");
        assert_eq!(net.ledger(0).rx_bytes, 512 * 1024, "client receives all");
    }

    #[test]
    fn write_replicates() {
        let (mut net, vol) = setup();
        vol.try_write(&mut net, 1, 0, 256 * 1024).unwrap();
        let total_storage_rx: u64 = (2..6).map(|n| net.ledger(n).rx_bytes).sum();
        assert_eq!(total_storage_rx, 2 * 256 * 1024, "two replicas per byte");
        assert_eq!(net.ledger(1).tx_bytes, 2 * 256 * 1024);
    }

    #[test]
    fn write_fails_over_to_reachable_replicas() {
        let (mut net, vol) = setup();
        // Stripe 0's bricks are 2 and 4; cut the primary only.
        net.partition(1, 2);
        vol.try_write(&mut net, 1, 0, 128 * 1024).unwrap();
        assert_eq!(net.ledger(2).rx_bytes, 0, "partitioned replica skipped");
        assert_eq!(
            net.ledger(4).rx_bytes,
            128 * 1024,
            "surviving replica written"
        );
        net.heal(1, 2);
    }

    #[test]
    fn write_with_no_reachable_replica_is_an_error_and_charges_nothing() {
        let (mut net, vol) = setup();
        // Stripe 0 = bricks {2, 4}; kill both. Stripe 1 stays healthy, but
        // the write must fail atomically without charging it.
        net.partition(1, 2);
        net.partition(1, 4);
        let before: u64 = (2..6).map(|n| net.ledger(n).rx_bytes).sum();
        assert_eq!(
            vol.try_write(&mut net, 1, 0, 512 * 1024),
            Err(NetError::Partitioned { src: 1, dst: 2 })
        );
        let after: u64 = (2..6).map(|n| net.ledger(n).rx_bytes).sum();
        assert_eq!(before, after, "failed write charges nothing");
        net.heal_all();
    }

    #[test]
    fn unaligned_read_accounts_exact_bytes() {
        let (mut net, vol) = setup();
        vol.try_read(&mut net, 0, 100, 1000).unwrap();
        assert_eq!(net.ledger(0).rx_bytes, 1000);
    }

    #[test]
    fn parallel_stripes_faster_than_serial() {
        let (mut net, vol) = setup();
        let t = vol.try_read(&mut net, 0, 0, 1 << 20).unwrap();
        let serial = (1u64 << 20) as f64 / (LinkKind::GbE.mbps() * 1e6);
        assert!(t < serial, "striped read {t} vs serial {serial}");
    }
}
