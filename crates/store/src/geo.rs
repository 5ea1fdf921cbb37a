//! The threaded geo driver: multi-region shard fleets over OS threads,
//! with WAN latency injected by a courier thread.
//!
//! This is the real-concurrency counterpart of
//! [`tc_lifetime::run_geo`]: the *same* sans-io engines — shard
//! ([`tc_lifetime::ServerEngine`] with geo egress), per-region relay
//! ([`tc_lifetime::GeoRelayEngine`]), client ([`tc_lifetime::engine::ClientEngine`]
//! with optional migration) — run here over `std::sync::mpsc` channels
//! and the [`Instant`]-based tick clock, judged by the same live monitor
//! as every other real-time driver. [`run_threaded_geo`] is the geo case
//! of the one channel fleet builder that [`crate::run_threaded`] is the
//! flat case of; this module holds what only geo adds: the
//! configuration and the courier.
//!
//! # Topology
//!
//! Node ids follow [`RegionMap`]: `R·S` shards region-major, then `R`
//! relays, then the clients. One thread per node, plus one **WAN
//! courier**: every message whose endpoints sit in *different* regions is
//! detoured through the courier, which holds it for a deterministic
//! jittered latency drawn from the [`WanProfile`] (scaled by hop
//! distance) before forwarding — same-region traffic stays on direct
//! channels at memory speed. The courier delivers by deadline order, not
//! arrival order, so the WAN is non-FIFO exactly as in the simulator;
//! the geo protocol's cumulative acks and gap buffers tolerate it by
//! design.
//!
//! [`GeoRuntimeConfig::wan_outages`] cuts one region off the WAN for a
//! tick window (messages to or from it drop at the courier) — the
//! threaded rendering of the simulator's region partition; batch
//! retransmission drains the backlog after the heal.
//!
//! # What the threaded driver does *not* model
//!
//! Per-region clock skew ([`WanProfile::skew_step`]) is ignored: every
//! thread reads one shared epoch, so ε stays the tick-rounding bound.
//! Skewed-clock geo runs are a simulator scenario, where the oracle can
//! widen for skew exactly. Monitor widening here is the generous
//! real-time slack ([`crate::MONITOR_SLACK`]) plus the geo terms (egress batch
//! deadline, two WAN traversals); observed staleness is reported exactly
//! as always.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use tc_clocks::{Delta, Time};
use tc_lifetime::geo::EGRESS_BATCH;
use tc_lifetime::{Migration, Msg, ProtocolConfig, RegionMap, WanProfile};
use tc_sim::workload::Workload;
use tc_sim::NodeId;

use crate::jitter::{splitmix64, JitterRng};
use crate::reactor::TimerSlack;
use crate::runtime::{
    recv_by, run_channels, Inbound, RuntimeConfig, RuntimeResult, Shared, TickClock,
};
use crate::wheel::TimerWheel;

/// Configuration of one threaded geo run.
#[derive(Clone, Debug)]
pub struct GeoRuntimeConfig {
    /// The common runtime knobs. `base.protocol.shards` is the *per
    /// region* fleet size and must equal `regions.shards_per_region`;
    /// `base.n_clients` is the total across regions;
    /// `base.shard_outages` names shards by node index
    /// ([`RegionMap::shard_node`]).
    pub base: RuntimeConfig,
    /// Region/shard layout.
    pub regions: RegionMap,
    /// WAN latency profile (skew is ignored here — see the module docs).
    pub wan: WanProfile,
    /// Clients per region; site `i` homes in region
    /// `i / clients_per_region`.
    pub clients_per_region: usize,
    /// Scripted client region moves (at most one per client).
    pub migrations: Vec<Migration>,
    /// WAN partitions: region `r` exchanges no cross-region messages
    /// during `[from, until)` ticks. Same-region traffic is unaffected.
    pub wan_outages: Vec<(usize, Time, Time)>,
}

impl GeoRuntimeConfig {
    /// A ready-to-run geo configuration: the threaded defaults of
    /// [`RuntimeConfig::for_protocol`], with the monitor widened by the
    /// geo terms — the egress flush deadline ([`EGRESS_BATCH`]) plus two
    /// worst-case WAN traversals (write out, invalidation knowledge back)
    /// — on top of the usual [`crate::MONITOR_SLACK`].
    ///
    /// # Panics
    ///
    /// Panics if the protocol is not in the causal family (geo composes
    /// timed serializations causally — see DESIGN.md §17) or if the
    /// per-region shard count disagrees with `regions`.
    #[must_use]
    pub fn for_protocol(
        protocol: ProtocolConfig,
        regions: RegionMap,
        wan: WanProfile,
        clients_per_region: usize,
        workload: Workload,
        ops_per_client: usize,
        seed: u64,
    ) -> Self {
        assert!(
            protocol.kind.is_causal_family(),
            "geo replication needs the causal family (Cc/Tcc), got {:?}",
            protocol.kind
        );
        assert_eq!(
            protocol.shards, regions.shards_per_region,
            "protocol.shards is the per-region fleet size"
        );
        assert!(clients_per_region >= 1, "each region needs a client");
        let n_clients = regions.regions * clients_per_region;
        let mut base =
            RuntimeConfig::for_protocol(protocol, n_clients, workload, ops_per_client, seed);
        if !base.monitor_delta.is_infinite() {
            let widen = EGRESS_BATCH.max_delay.ticks() + 2 * wan.max_latency(regions.regions);
            base.monitor_delta = base.monitor_delta + Delta::from_ticks(widen);
        }
        GeoRuntimeConfig {
            base,
            regions,
            wan,
            clients_per_region,
            migrations: Vec::new(),
            wan_outages: Vec::new(),
        }
    }

    /// Widens the monitor's Δ by `extra` ticks — callers injecting WAN
    /// outages account for the blackout plus a retransmit round, exactly
    /// as the simulator oracle does.
    #[must_use]
    pub fn widen_monitor(mut self, extra: u64) -> Self {
        if !self.base.monitor_delta.is_infinite() {
            self.base.monitor_delta = self.base.monitor_delta + Delta::from_ticks(extra);
        }
        self
    }

    pub(crate) fn home_region(&self, site: usize) -> usize {
        site / self.clients_per_region
    }
}

/// Whether a message crossing `(from, to)` rides the WAN: both endpoints
/// are region infrastructure (shard or relay) of *different* regions.
/// Client traffic never does — clients speak LAN to whichever fleet they
/// are attached to, the same mobility abstraction the simulator uses.
pub(crate) fn is_wan(regions: &RegionMap, from: NodeId, to: NodeId) -> bool {
    matches!(
        (regions.region_of(from.index()), regions.region_of(to.index())),
        (Some(a), Some(b)) if a != b
    )
}

/// The courier's inbox: (from, to, message) triples crossing regions.
pub(crate) type WanPacket = (NodeId, NodeId, Msg);

/// Holds each cross-region message for a jittered latency, then forwards
/// it into the receiver's inbox. Messages touching a region inside one of
/// its `wan_outages` windows (at send time) are dropped — retransmission
/// recovers them after the heal. Returns once every sender is gone: every
/// shard and relay has exited, so nothing is left to deliver to.
pub(crate) fn wan_courier(
    rx: &Receiver<WanPacket>,
    node_txs: &[Sender<Inbound>],
    geo: &GeoRuntimeConfig,
    clock: TickClock,
    shared: &Shared,
) {
    let _slack = TimerSlack::pin();
    let mut rng = JitterRng::new(splitmix64(geo.base.seed ^ 0x47454F)); // "GEO"
    let mut wheel: TimerWheel<u64> = TimerWheel::new(&clock);
    let mut due: Vec<u64> = Vec::new();
    let mut payloads: HashMap<u64, WanPacket> = HashMap::new();
    let mut seq: u64 = 0;
    let region = |node: NodeId| {
        geo.regions
            .region_of(node.index())
            .expect("WAN endpoints are region infrastructure")
    };
    let cut = |region: usize, now: Time| {
        geo.wan_outages
            .iter()
            .any(|(r, from, until)| *r == region && *from <= now && now < *until)
    };
    loop {
        wheel.pop_due_into(Instant::now(), &mut due);
        for token in &due {
            if let Some((from, to, msg)) = payloads.remove(token) {
                let _ = node_txs[to.index()].send(Inbound::Msg(from, msg));
            }
        }
        let Ok(received) = recv_by(rx, wheel.next_deadline()) else {
            break;
        };
        let Some((from, to, msg)) = received else {
            continue; // a delivery is due
        };
        let (a, b) = (region(from), region(to));
        let now = clock.now();
        if cut(a, now) || cut(b, now) {
            continue; // partitioned: the WAN eats it
        }
        let hops = WanProfile::distance(a, b).max(1);
        let ticks = rng.range(geo.wan.lat_lo * hops, geo.wan.lat_hi * hops);
        let delay = clock
            .delta_to_duration(Delta::from_ticks(ticks.max(1)))
            .expect("finite WAN latency");
        seq += 1;
        wheel.arm(Instant::now() + delay, seq);
        payloads.insert(seq, (from, to, msg));
    }
    wheel.report(&mut shared.lock().metrics);
}

/// Runs one threaded geo execution to completion and judges it with the
/// live monitor.
///
/// # Panics
///
/// Panics if a worker thread panics, the configuration is inconsistent
/// (see [`GeoRuntimeConfig::for_protocol`] and
/// [`RegionMap::validate_migrations`]), or the recorded trace violates a
/// history invariant.
#[must_use]
pub fn run_threaded_geo(config: &GeoRuntimeConfig) -> RuntimeResult {
    run_channels(&config.base, Some(config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::{
        assert_recovered_by_replay, assert_retuned_online, temp_wal_dir, ADAPTIVE_BAND,
    };
    use tc_lifetime::geo::RETX_AFTER;
    use tc_lifetime::{ProtocolKind, StalePolicy};
    use tc_sim::metrics::names;

    fn geo_config(seed: u64) -> GeoRuntimeConfig {
        let mut protocol = ProtocolConfig::of(ProtocolKind::Tcc {
            delta: Delta::from_ticks(400),
        })
        .with_shards(2);
        protocol.stale = StalePolicy::Invalidate;
        GeoRuntimeConfig::for_protocol(
            protocol,
            RegionMap::new(3, 2),
            WanProfile::symmetric(20, 60),
            2,
            Workload::new(4, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40))),
            30,
            seed,
        )
    }

    #[test]
    fn threaded_geo_three_regions_completes_and_holds() {
        let cfg = geo_config(51);
        let r = run_threaded_geo(&cfg);
        assert_eq!(r.ops_done, 6 * 30, "every op must be recorded");
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert!(r.counter(names::GEO_BATCH) > 0, "egress must batch");
        assert!(
            r.counter(names::GEO_APPLIED) > 0,
            "remote writes must reach peer regions"
        );
        assert_eq!(r.shard_requests.len(), 6, "one row per (region, shard)");
        assert!(r.shard_requests.iter().sum::<u64>() > 0);
    }

    #[test]
    fn threaded_geo_migration_carries_context() {
        let mut cfg = geo_config(53);
        cfg.migrations = vec![Migration {
            client: 0,
            at_op: 10,
            to_region: 2,
        }];
        let r = run_threaded_geo(&cfg);
        assert_eq!(r.ops_done, 6 * 30);
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert_eq!(
            r.counter(names::GEO_MIGRATED),
            1,
            "the scripted move must complete"
        );
    }

    #[test]
    fn threaded_geo_wan_partition_heals_via_retransmission() {
        let mut cfg = geo_config(57);
        cfg.base.ops_per_client = 150;
        // Region 2 off the WAN during [500, 2500) ticks (25–125 ms at the
        // 50 µs tick): long enough that batches are lost mid-run, short
        // against the run length so the backlog fully drains after the
        // heal. The monitor is widened by the blackout plus a retransmit
        // round, exactly as the simulator oracle widens for disruption.
        cfg.wan_outages = vec![(2, Time::from_ticks(500), Time::from_ticks(2_500))];
        cfg = cfg.widen_monitor(2_000 + 2 * RETX_AFTER.ticks());
        let r = run_threaded_geo(&cfg);
        assert_eq!(r.ops_done, 6 * 150, "partition must not lose operations");
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert!(
            r.counter(names::GEO_BATCH_RETRANSMIT) > 0,
            "the blackout must force batch retransmissions"
        );
        assert!(r.counter(names::GEO_APPLIED) > 0);
    }

    #[test]
    fn threaded_geo_kill_shard_over_wal_recovers_by_replay() {
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        let wal = temp_wal_dir("geo-killshard");
        let mut cfg = geo_config(59);
        cfg.base.ops_per_client = 150;
        cfg.base.protocol = cfg.base.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        cfg.base.wal_dir = Some(wal.clone());
        // Region 0's shard 0 (node 0) down during [300, 1300) ticks: 150
        // ops × ≥5 ticks of think time cannot finish before tick 300, so
        // the kill always lands mid-run; MONITOR_SLACK (20 000 ticks)
        // dwarfs the 1 000-tick outage.
        cfg.base.shard_outages = vec![(0, Time::from_ticks(300), Time::from_ticks(1_300))];
        let r = run_threaded_geo(&cfg);
        assert_recovered_by_replay(&r, 6 * 150);
        assert!(r.counter(names::GEO_APPLIED) > 0);
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn threaded_geo_adaptive_controller_retunes_delta_online() {
        let mut cfg = geo_config(61);
        cfg.base.protocol.kind = ProtocolKind::Tcc {
            delta: Delta::from_ticks(4_000),
        };
        cfg.base.ops_per_client = 100;
        cfg.base.adaptive = Some(ADAPTIVE_BAND);
        assert_retuned_online(&run_threaded_geo(&cfg), 6 * 100);
    }
}
