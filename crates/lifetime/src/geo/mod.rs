//! Geo-replication: multi-region shard fleets with Δ-aware WAN
//! propagation.
//!
//! # Topology
//!
//! A geo deployment runs `R` *regions*, each holding a full shard fleet
//! (`S` shards, the same [`crate::engine::ShardMap`] everywhere, so an
//! object lives on shard `s` *in every region*) plus one **relay** — the
//! region's ingress serializer for remote writes. Clients attach to the
//! fleet of one region and speak the unmodified §5 lifetime protocol to
//! it; the geo layer is entirely server-to-server:
//!
//! ```text
//!   region 0                               region 1
//!   ┌──────────────┐   GeoBatch (WAN)     ┌──────────────┐
//!   │ shard ─ shard │ ───────────────────▶ │    relay     │
//!   │   │  ╲   │    │ ◀─────────────────── │  │        │  │
//!   │   ▼   ╲  ▼    │   GeoBatchAck        │  ▼GeoApply▼  │
//!   │    relay      │                      │ shard ─ shard│
//!   └──────▲───────┘                       └──────▲───────┘
//!      clients 0..k                          clients k..n
//! ```
//!
//! * **Egress** — when a shard applies a fresh causal client write it
//!   appends the write to one outgoing channel per peer region. Channels
//!   are deadline-batched — flushed when full or at a deadline, whichever
//!   comes first (Δ-aware urgency: the flush deadline is chosen so the
//!   write reaches every region before its Δ promise expires there) — and
//!   retransmitted until the peer relay's cumulative ack covers them.
//! * **Ingress** — the relay ingests batches in per-sender order, holds
//!   each remote write until its causal dependencies are applied locally
//!   (per-writer watermarks against the write's vector stamp), and
//!   forwards **one** [`crate::msg::Msg::GeoApply`] at a time to the
//!   owning local shard, waiting for the (durability-gated) ack. That
//!   serialization mirrors the client-side cross-shard write barrier, so
//!   each region's store stays causally closed.
//! * **Migration** — a client moves regions by draining its in-flight
//!   writes, sending [`crate::msg::Msg::GeoAttach`] with its `Context_i`
//!   to the destination relay, and resuming only after the relay confirms
//!   the destination fleet has applied everything the context covers.
//!
//! Geo replication is restricted to the **causal family** (Cc/Tcc): the
//! paper's timed serializations compose across regions only causally —
//! physical-family linearization would need a cross-region total order,
//! which is exactly what WAN latencies make unaffordable.
//!
//! The conformance story (region-aware oracle widening) is derived in
//! DESIGN.md §17 and implemented by [`widened_bound_geo`].

use serde::{Deserialize, Serialize};
use tc_clocks::Delta;
use tc_sim::{LatencyModel, NetworkModel, NodeId};

use crate::ProtocolConfig;

mod harness;
mod relay;

pub use harness::{conformance_geo, geo_retx, run_geo_with, widened_bound_geo};
pub use relay::GeoRelayEngine;

/// The egress discipline of every shard's outgoing cross-region channels,
/// under every driver: flush an open batch once it holds
/// [`EGRESS_MAX_ENTRIES`] writes or once its oldest has waited
/// [`EGRESS_MAX_DELAY`], whichever comes first.
pub const EGRESS_MAX_ENTRIES: usize = 4;

/// The egress flush deadline, the Δ-aware urgency term: it bounds how long
/// a write may wait before leaving for a peer region, and
/// [`widened_bound_geo`] widens by it.
pub const EGRESS_MAX_DELAY: Delta = Delta::from_ticks(20);

/// Retransmit interval for unacked egress batches (and the relay's
/// unacked forwarded apply). Keep it above one WAN round trip
/// ([`WanProfile::max_latency`] × 2) of every deployment it serves — 240
/// ticks for three regions at 60 ticks a hop — or retransmissions race
/// their own acks.
pub const RETX_AFTER: Delta = Delta::from_ticks(300);

/// The node-id layout of a geo deployment: `R·S` shards (region-major),
/// then `R` relays, then the clients.
///
/// Keeping the layout in one struct lets every component — engines,
/// drivers, the oracle — agree on who is where without threading raw
/// indexes around.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionMap {
    /// Number of regions (`R ≥ 1`).
    pub regions: usize,
    /// Shards per region (`S ≥ 1`); the same object→shard map is used in
    /// every region.
    pub shards_per_region: usize,
}

impl RegionMap {
    /// Creates a layout. Panics if either dimension is zero.
    #[must_use]
    pub fn new(regions: usize, shards_per_region: usize) -> Self {
        assert!(regions >= 1, "a geo deployment needs at least one region");
        assert!(shards_per_region >= 1, "a region needs at least one shard");
        RegionMap {
            regions,
            shards_per_region,
        }
    }

    /// Node index of shard `shard` in `region`.
    #[must_use]
    pub fn shard_node(&self, region: usize, shard: usize) -> usize {
        debug_assert!(region < self.regions && shard < self.shards_per_region);
        region * self.shards_per_region + shard
    }

    /// Node index of `region`'s relay.
    #[must_use]
    pub fn relay_node(&self, region: usize) -> usize {
        debug_assert!(region < self.regions);
        self.regions * self.shards_per_region + region
    }

    /// First client node index (clients follow all shards and relays).
    #[must_use]
    pub fn client_base(&self) -> usize {
        self.regions * (self.shards_per_region + 1)
    }

    /// The region a shard or relay node belongs to; `None` for clients.
    #[must_use]
    pub fn region_of(&self, node: usize) -> Option<usize> {
        if node < self.regions * self.shards_per_region {
            Some(node / self.shards_per_region)
        } else if node < self.client_base() {
            Some(node - self.regions * self.shards_per_region)
        } else {
            None
        }
    }

    /// The shard node indexes of `region`, in shard order.
    #[must_use]
    pub fn region_shards(&self, region: usize) -> Vec<usize> {
        (0..self.shards_per_region)
            .map(|s| self.shard_node(region, s))
            .collect()
    }

    /// The addresses of `region`'s shard fleet, in shard order — what a
    /// client attached there, or the region's relay, speaks to.
    #[must_use]
    pub fn fleet(&self, region: usize) -> Vec<NodeId> {
        self.region_shards(region)
            .into_iter()
            .map(NodeId::new)
            .collect()
    }

    /// The geo wiring of every shard of `region`: its own relay and one
    /// outgoing channel per peer region.
    #[must_use]
    pub fn shard_config(&self, region: usize) -> GeoShardConfig {
        GeoShardConfig {
            region: region as u32,
            local_relay: NodeId::new(self.relay_node(region)),
            peer_relays: (0..self.regions)
                .filter(|&r| r != region)
                .map(|r| NodeId::new(self.relay_node(r)))
                .collect(),
            client_base: self.client_base(),
        }
    }
}

/// What a geo deployment adds to a flat run's configuration, under every
/// driver: the region layout, the WAN between regions, how many clients
/// each region homes, and the scripted moves. The protocol, the workload,
/// the total client count and the seed stay in the driver's own
/// configuration ([`crate::RunConfig`], `tc_store::RuntimeConfig`), and
/// [`GeoLayout::validate`] checks the two agree.
#[derive(Clone, Debug)]
pub struct GeoLayout {
    /// Region/shard layout.
    pub regions: RegionMap,
    /// Cross-region latency and skew profile. Real drivers ignore the
    /// skew: their threads read one shared epoch.
    pub wan: WanProfile,
    /// Clients attached to each region (sites are region-major: client
    /// `c` of region `r` is site `r · clients_per_region + c`).
    pub clients_per_region: usize,
    /// Scripted client migrations (at most one per client).
    pub migrations: Vec<Migration>,
}

impl GeoLayout {
    /// Total clients across all regions.
    #[must_use]
    pub fn n_clients(&self) -> usize {
        self.regions.regions * self.clients_per_region
    }

    /// The home region of a client site.
    #[must_use]
    pub fn home_region(&self, site: usize) -> usize {
        site / self.clients_per_region
    }

    /// Every node of `region`: its shards, its relay and its home clients
    /// — the isolated side of a region partition.
    #[must_use]
    pub fn region_nodes(&self, region: usize) -> Vec<usize> {
        let clients = self.regions.client_base() + region * self.clients_per_region;
        let mut nodes = self.regions.region_shards(region);
        nodes.push(self.regions.relay_node(region));
        nodes.extend(clients..clients + self.clients_per_region);
        nodes
    }

    /// The engine-level plan of `site`'s scripted move, if it has one.
    #[must_use]
    pub fn migration_plan(&self, site: usize) -> Option<GeoMigrationPlan> {
        let m = self.migrations.iter().find(|m| m.client == site)?;
        Some(GeoMigrationPlan {
            at_op: m.at_op,
            relay: NodeId::new(self.regions.relay_node(m.to_region)),
            servers: self.regions.fleet(m.to_region),
        })
    }

    /// Checks the layout against the run it will carry: `n_clients` sites
    /// of `ops_per_client` operations each, under `protocol`. Every geo
    /// driver calls it before building a node.
    ///
    /// # Panics
    ///
    /// Panics, naming the check, unless the protocol is causal-family
    /// (DESIGN.md §17), `protocol.shards` is the per-region fleet size,
    /// every region homes a client, `n_clients` is `regions ×
    /// clients_per_region`, and each client moves at most once, in range
    /// and before its workload ends.
    pub fn validate(&self, protocol: &ProtocolConfig, n_clients: usize, ops_per_client: usize) {
        assert!(
            protocol.kind.is_causal_family(),
            "geo replication needs the causal family (Cc/Tcc), got {:?}",
            protocol.kind
        );
        assert_eq!(
            protocol.shards, self.regions.shards_per_region,
            "protocol.shards is the per-region fleet size"
        );
        assert!(self.clients_per_region >= 1, "each region needs a client");
        assert_eq!(
            n_clients,
            self.n_clients(),
            "n_clients must equal regions × clients_per_region"
        );
        for (i, m) in self.migrations.iter().enumerate() {
            assert!(m.client < n_clients, "migration client in range");
            assert!(
                m.to_region < self.regions.regions,
                "migration region in range"
            );
            assert!(
                m.at_op < ops_per_client,
                "a migration must fire before the client's workload ends"
            );
            assert!(
                self.migrations[..i].iter().all(|o| o.client != m.client),
                "client {} has more than one migration scheduled",
                m.client
            );
        }
    }
}

/// Per-region-pair WAN characteristics: latency grows with inter-region
/// distance (regions sit on a line; the pair `(a, b)` is `|a − b|` hops
/// apart), and each region's clocks may be skewed.
///
/// Latencies are **uniform with a hard upper bound**, which the geo oracle
/// widening charges as its WAN term ([`WanProfile::max_latency`]). Message
/// loss is *not* modelled here: loss comes only from the fault plan
/// (partition windows), whose disruption the oracle already accounts for.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WanProfile {
    /// One-hop minimum latency (ticks).
    pub lat_lo: u64,
    /// One-hop maximum latency (ticks).
    pub lat_hi: u64,
    /// Per-region clock skew step: region `r`'s clock runs
    /// `region_skew(r)` ticks from truth (alternating sign so the fleet
    /// mean stays near zero).
    pub skew_step: i64,
}

impl WanProfile {
    /// A symmetric skew-free profile.
    #[must_use]
    pub fn symmetric(lat_lo: u64, lat_hi: u64) -> Self {
        WanProfile {
            lat_lo,
            lat_hi,
            skew_step: 0,
        }
    }

    /// Hop distance between two regions (at least 1 for distinct pairs).
    #[must_use]
    pub fn distance(a: usize, b: usize) -> u64 {
        a.abs_diff(b) as u64
    }

    /// The link model for messages from region `a` to region `b`:
    /// uniform latency scaled by hop distance, non-FIFO (WAN paths
    /// reorder; the geo protocol tolerates it by design).
    #[must_use]
    pub fn link(&self, a: usize, b: usize) -> NetworkModel {
        let d = Self::distance(a, b).max(1);
        NetworkModel {
            latency: LatencyModel::Uniform {
                lo: Delta::from_ticks(self.lat_lo * d),
                hi: Delta::from_ticks(self.lat_hi * d),
            },
            fifo: false,
        }
    }

    /// The largest latency any cross-region message can see — the WAN
    /// term of the geo oracle widening.
    #[must_use]
    pub fn max_latency(&self, regions: usize) -> u64 {
        self.lat_hi * (regions.saturating_sub(1) as u64).max(1)
    }

    /// Region `r`'s clock skew: `0, −step, +step, −2·step, +2·step, …` so
    /// the worst pairwise skew grows slowly with the region count.
    #[must_use]
    pub fn region_skew(&self, r: usize) -> i64 {
        let magnitude = r.div_ceil(2) as i64 * self.skew_step;
        if r.is_multiple_of(2) {
            magnitude
        } else {
            -magnitude
        }
    }
}

/// Geo configuration of one shard engine: where its relays are. Its
/// outgoing cross-region channels batch by [`EGRESS_MAX_ENTRIES`] and
/// [`EGRESS_MAX_DELAY`] and
/// retransmit every [`RETX_AFTER`].
#[derive(Clone, Debug)]
pub struct GeoShardConfig {
    /// This shard's region (carried in batch frames for observability).
    pub region: u32,
    /// The region's own relay — notified of every local apply so its
    /// dependency watermarks cover local writes.
    pub local_relay: NodeId,
    /// The relays of every *other* region, one outgoing channel each.
    pub peer_relays: Vec<NodeId>,
    /// First client node index ([`RegionMap::client_base`]): remote
    /// writes carry the writer's *site*; the shard keys its causal
    /// cursors by writer *node* (`client_base + site`), so direct writes
    /// after a migration line up with geo-applied ones.
    pub client_base: usize,
}

/// A scripted client migration: global client `client` moves to
/// `to_region` after completing `at_op` operations (drain → attach →
/// resume, carrying cache and `Context_i`).
#[derive(Clone, Copy, Debug)]
pub struct Migration {
    /// Global client index (`0 ≤ client < regions · clients_per_region`).
    pub client: usize,
    /// Operations to complete at the home region before moving.
    pub at_op: usize,
    /// Destination region.
    pub to_region: usize,
}

/// A client's scripted region move: after `at_op` completed operations it
/// drains its in-flight writes, attaches to `relay`, and continues
/// against `servers` (the destination region's fleet) — carrying its
/// cache and `Context_i` with it.
#[derive(Clone, Debug)]
pub struct GeoMigrationPlan {
    /// Migrate once this many operations have completed.
    pub at_op: usize,
    /// The destination region's relay (attach endpoint).
    pub relay: NodeId,
    /// The destination region's shard fleet, in shard order.
    pub servers: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_map_layout_is_region_major() {
        let m = RegionMap::new(3, 2);
        assert_eq!(m.shard_node(0, 0), 0);
        assert_eq!(m.shard_node(0, 1), 1);
        assert_eq!(m.shard_node(2, 1), 5);
        assert_eq!(m.relay_node(0), 6);
        assert_eq!(m.relay_node(2), 8);
        assert_eq!(m.client_base(), 9);
    }

    #[test]
    fn region_of_classifies_every_node() {
        let m = RegionMap::new(3, 2);
        assert_eq!(m.region_of(0), Some(0));
        assert_eq!(m.region_of(5), Some(2));
        assert_eq!(m.region_of(6), Some(0));
        assert_eq!(m.region_of(8), Some(2));
        assert_eq!(m.region_of(9), None);
        assert_eq!(m.region_shards(1), vec![2, 3]);
    }

    /// A 3-region, 2-shard, 2-clients-per-region layout with `moves`
    /// (client, at op, to region).
    fn layout(moves: &[(usize, usize, usize)]) -> GeoLayout {
        let migrations = moves.iter().map(|&(client, at_op, to_region)| Migration {
            client,
            at_op,
            to_region,
        });
        GeoLayout {
            regions: RegionMap::new(3, 2),
            wan: WanProfile::symmetric(40, 60),
            clients_per_region: 2,
            migrations: migrations.collect(),
        }
    }

    fn tcc(shards: usize) -> ProtocolConfig {
        let delta = Delta::from_ticks(200);
        ProtocolConfig::of(crate::ProtocolKind::Tcc { delta }).with_shards(shards)
    }

    #[test]
    #[should_panic(expected = "needs the causal family")]
    fn a_physical_level_cannot_span_regions() {
        let sc = ProtocolConfig::of(crate::ProtocolKind::Sc).with_shards(2);
        layout(&[]).validate(&sc, 6, 10);
    }

    #[test]
    #[should_panic(expected = "per-region fleet size")]
    fn the_protocol_names_the_per_region_shard_count() {
        layout(&[]).validate(&tcc(6), 6, 10);
    }

    #[test]
    #[should_panic(expected = "each region needs a client")]
    fn a_region_without_clients_is_refused() {
        let empty = GeoLayout {
            clients_per_region: 0,
            ..layout(&[])
        };
        empty.validate(&tcc(2), 0, 10);
    }

    #[test]
    #[should_panic(expected = "n_clients must equal regions × clients_per_region")]
    fn the_client_count_matches_the_layout() {
        layout(&[]).validate(&tcc(2), 5, 10);
    }

    #[test]
    #[should_panic(expected = "migration client in range")]
    fn a_migration_names_a_client_of_the_run() {
        layout(&[(6, 3, 1)]).validate(&tcc(2), 6, 10);
    }

    #[test]
    #[should_panic(expected = "migration region in range")]
    fn a_migration_names_a_region_of_the_layout() {
        layout(&[(0, 3, 3)]).validate(&tcc(2), 6, 10);
    }

    #[test]
    #[should_panic(expected = "before the client's workload ends")]
    fn a_migration_fires_before_the_workload_ends() {
        layout(&[(0, 10, 1)]).validate(&tcc(2), 6, 10);
    }

    #[test]
    #[should_panic(expected = "client 1 has more than one migration")]
    fn a_client_moves_at_most_once() {
        // The sim used to take the first and the threaded driver the last.
        layout(&[(1, 3, 1), (1, 5, 2)]).validate(&tcc(2), 6, 10);
    }

    #[test]
    fn wan_latency_scales_with_distance() {
        let p = WanProfile::symmetric(40, 60);
        let near = p.link(0, 1);
        let far = p.link(0, 2);
        match (near.latency, far.latency) {
            (LatencyModel::Uniform { lo: a, hi: b }, LatencyModel::Uniform { lo: c, hi: d }) => {
                assert_eq!((a.ticks(), b.ticks()), (40, 60));
                assert_eq!((c.ticks(), d.ticks()), (80, 120));
            }
            other => panic!("expected uniform links, got {other:?}"),
        }
        assert_eq!(p.max_latency(3), 120);
        assert_eq!(p.max_latency(1), 60, "degenerate single region");
    }

    #[test]
    fn skew_alternates_in_sign() {
        let p = WanProfile {
            lat_lo: 1,
            lat_hi: 2,
            skew_step: 5,
        };
        assert_eq!(p.region_skew(0), 0);
        assert_eq!(p.region_skew(1), -5);
        assert_eq!(p.region_skew(2), 5);
        assert_eq!(p.region_skew(3), -10);
    }
}
