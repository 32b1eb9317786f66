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

    /// Split `[offset, offset + bytes)` over the stripes and pick, for each
    /// stripe that holds some of it, its replicas reachable from `client`
    /// (primary first) with the stripe's share of the bytes. Everything a
    /// transfer could fail on is settled here, so the caller errors before
    /// charging a byte: a client that is itself a brick is a
    /// [`NetError::SelfTransfer`], and a stripe with no reachable replica
    /// is `dead_stripe(primary)`.
    fn serving(
        &self,
        net: &Network,
        client: NodeId,
        offset: u64,
        bytes: u64,
        dead_stripe: impl Fn(NodeId) -> NetError,
    ) -> Result<Vec<(Vec<NodeId>, u64)>, NetError> {
        if self.bricks.contains(&client) {
            return Err(NetError::SelfTransfer { node: client });
        }
        let stripe = self.config.stripe as usize;
        let unit = self.config.stripe_unit;
        let mut per_stripe = vec![0u64; stripe];
        let mut pos = offset;
        let end = offset + bytes;
        while pos < end {
            let take = ((pos / unit + 1) * unit).min(end) - pos;
            per_stripe[((pos / unit) % stripe as u64) as usize] += take;
            pos += take;
        }
        let mut serving = Vec::new();
        for (s, &b) in per_stripe.iter().enumerate().filter(|(_, &b)| b > 0) {
            let reachable: Vec<NodeId> = self.bricks[s..]
                .iter()
                .step_by(stripe)
                .copied()
                .filter(|&br| net.is_reachable(br, client))
                .collect();
            if reachable.is_empty() {
                return Err(dead_stripe(self.bricks[s]));
            }
            serving.push((reachable, b));
        }
        Ok(serving)
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
        let serving = self.serving(net, client, offset, bytes, |primary| {
            NetError::Partitioned {
                src: primary,
                dst: client,
            }
        })?;
        let mut slowest = 0.0f64;
        for (bricks, b) in serving {
            slowest = slowest.max(net.try_unicast(bricks[0], client, b)?);
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
        let serving = self.serving(net, client, offset, bytes, |primary| {
            NetError::Partitioned {
                src: client,
                dst: primary,
            }
        })?;
        let mut slowest = 0.0f64;
        for (bricks, b) in serving {
            for brick in bricks {
                slowest = slowest.max(net.try_unicast(client, brick, b)?);
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
    fn a_brick_client_is_refused_before_any_byte_moves() {
        let (mut net, vol) = setup();
        // Brick 4 replicates stripe 0; brick 3 is stripe 1's primary.
        assert_eq!(
            vol.try_write(&mut net, 4, 0, 512 * 1024),
            Err(NetError::SelfTransfer { node: 4 })
        );
        assert_eq!(
            vol.try_read(&mut net, 3, 0, 512 * 1024),
            Err(NetError::SelfTransfer { node: 3 })
        );
        assert!((0..6).all(|n| net.ledger(n) == Default::default()));
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
