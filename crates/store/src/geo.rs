//! The threaded geo driver: multi-region shard fleets over OS threads,
//! with WAN latency injected by a courier thread.
//!
//! [`run_threaded_geo`] is the geo case of the one channel fleet builder
//! that [`crate::run_threaded`] is the flat case of, laid out by the same
//! [`GeoLayout`] as [`tc_lifetime::run_geo_with`] and stepping the same
//! engines. This module holds what only geo adds: the monitor widening
//! ([`RuntimeConfig::for_geo`]) and the **WAN courier** — every message
//! between the infrastructure of *different* regions is held for a
//! deterministic jittered latency drawn from the [`WanProfile`] (scaled
//! by hop distance) and delivered in deadline order, so the WAN is
//! non-FIFO exactly as in the simulator; same-region traffic stays on
//! direct channels. A [`tc_sim::FaultKind::Partition`] in
//! [`RuntimeConfig::faults`] drops a send across its cut before it
//! reaches the courier. Per-region clock skew ([`WanProfile::skew_step`])
//! is ignored: every thread reads one shared epoch, so skewed-clock geo
//! runs are a simulator scenario (DESIGN.md §17).

use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use tc_clocks::Delta;
use tc_lifetime::engine::splitmix64;
use tc_lifetime::geo::EGRESS_MAX_DELAY;
use tc_lifetime::{GeoLayout, Msg, ProtocolConfig, RegionMap, WanProfile};
use tc_sim::workload::Workload;
use tc_sim::NodeId;

use crate::jitter::JitterRng;
use crate::reactor::TimerSlack;
use crate::runtime::{
    recv_by, run_channels, Inbound, RuntimeConfig, RuntimeResult, Shared, TickClock,
};
use crate::wheel::TimerWheel;

impl RuntimeConfig {
    /// A ready-to-run configuration of `layout`'s whole fleet: the
    /// defaults of [`RuntimeConfig::for_protocol`] over
    /// [`GeoLayout::n_clients`] sites, with the monitor widened by the geo
    /// terms — the egress flush deadline ([`EGRESS_MAX_DELAY`]) plus two
    /// worst-case WAN traversals (write out, invalidation knowledge back)
    /// — on top of the usual [`crate::MONITOR_SLACK`]. `protocol.shards`
    /// is the *per region* fleet size.
    #[must_use]
    pub fn for_geo(
        protocol: ProtocolConfig,
        layout: &GeoLayout,
        workload: Workload,
        ops_per_client: usize,
        seed: u64,
    ) -> Self {
        let mut config = RuntimeConfig::for_protocol(
            protocol,
            layout.n_clients(),
            workload,
            ops_per_client,
            seed,
        );
        let widen = EGRESS_MAX_DELAY.ticks() + 2 * layout.wan.max_latency(layout.regions.regions);
        config.monitor_delta = config.monitor_delta + Delta::from_ticks(widen);
        config
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

/// Holds each cross-region message for a latency drawn from `layout`'s
/// WAN profile (jitter seeded from the run `seed`), then forwards it into
/// the receiver's inbox. Returns once every sender is gone: every shard
/// and relay has exited, so nothing is left to deliver to.
pub(crate) fn wan_courier(
    rx: &Receiver<WanPacket>,
    node_txs: &[Sender<Inbound>],
    layout: &GeoLayout,
    seed: u64,
    clock: TickClock,
    shared: &Shared,
) {
    let _slack = TimerSlack::pin();
    let mut rng = JitterRng::new(splitmix64(seed ^ 0x47454F)); // "GEO"
    let mut wheel: TimerWheel<WanPacket> = TimerWheel::new(&clock);
    let mut due: Vec<WanPacket> = Vec::new();
    let region = |node: NodeId| {
        layout
            .regions
            .region_of(node.index())
            .expect("WAN endpoints are region infrastructure")
    };
    loop {
        wheel.pop_due_into(Instant::now(), &mut due);
        for (from, to, msg) in due.drain(..) {
            let _ = node_txs[to.index()].send(Inbound::Msg(from, msg));
        }
        let Ok(received) = recv_by(rx, wheel.next_deadline()) else {
            break;
        };
        let Some((from, to, msg)) = received else {
            continue; // a delivery is due
        };
        let hops = WanProfile::distance(region(from), region(to)).max(1);
        let ticks = rng.range(layout.wan.lat_lo * hops, layout.wan.lat_hi * hops);
        let delay = clock
            .delta_to_duration(Delta::from_ticks(ticks.max(1)))
            .expect("finite WAN latency");
        wheel.arm(Instant::now() + delay, (from, to, msg));
    }
    wheel.report(&mut shared.lock().metrics);
}

/// Runs `config` laid out as `layout` to completion and judges it with
/// the live monitor.
///
/// # Panics
///
/// Panics if a worker thread panics, `layout` does not fit `config`
/// ([`GeoLayout::validate`]), [`RuntimeConfig::faults`] holds a kind this
/// driver cannot render, or the recorded trace violates a history
/// invariant.
#[must_use]
pub fn run_threaded_geo(config: &RuntimeConfig, layout: &GeoLayout) -> RuntimeResult {
    run_channels(config, Some(layout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::tests::{
        assert_done_on_time, assert_recovered_by_replay, assert_retuned_online, temp_wal_dir,
        ADAPTIVE_BAND,
    };
    use tc_lifetime::{
        conformance_geo, geo_retx, run_geo_with, Migration, OracleVerdict, ProtocolKind, RunConfig,
        RunOptions, StalePolicy,
    };
    use tc_sim::metrics::names;
    use tc_sim::{FaultPlan, Window, WorldConfig};

    fn layout() -> GeoLayout {
        GeoLayout {
            regions: RegionMap::new(3, 2),
            wan: WanProfile::symmetric(20, 60),
            clients_per_region: 2,
            migrations: Vec::new(),
        }
    }

    fn geo_config(seed: u64) -> RuntimeConfig {
        let delta = Delta::from_ticks(400);
        let mut protocol = ProtocolConfig::of(ProtocolKind::Tcc { delta }).with_shards(2);
        protocol.stale = StalePolicy::Invalidate;
        let workload = Workload::new(4, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40)));
        RuntimeConfig::for_geo(protocol, &layout(), workload, 30, seed)
    }

    #[test]
    fn threaded_geo_three_regions_completes_and_holds() {
        let r = run_threaded_geo(&geo_config(51), &layout());
        assert_done_on_time(&r, 6 * 30);
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
        let mut layout = layout();
        layout.migrations = vec![Migration {
            client: 0,
            at_op: 10,
            to_region: 2,
        }];
        let r = run_threaded_geo(&geo_config(53), &layout);
        assert_done_on_time(&r, 6 * 30);
        assert_eq!(
            r.counter(names::GEO_MIGRATED),
            1,
            "the scripted move must complete"
        );
    }

    /// One partition value, two drivers: region 2 — shards, relay and
    /// home clients — cut off during `[500, 2500)` ticks (25–125 ms at the
    /// 50 µs tick on the threaded driver), long enough that batches are
    /// lost mid-run and short against a 150-op run, so the backlog drains
    /// after the heal. The simulator's oracle and the threaded monitor
    /// both charge [`geo_retx`] for it. The simulator also skews the
    /// regions' clocks 3 ticks apart; the threaded driver ignores skew.
    #[test]
    fn one_region_partition_heals_via_retransmission_on_both_drivers() {
        let mut layout = layout();
        layout.wan.skew_step = 3;
        let plan = FaultPlan::none().partition(Window::ticks(500, 2_500), layout.region_nodes(2));

        let mut cfg = geo_config(57);
        cfg.ops_per_client = 150;
        let sim_config = RunConfig {
            protocol: cfg.protocol,
            n_clients: cfg.n_clients,
            workload: cfg.workload.clone(),
            ops_per_client: 150,
            world: WorldConfig::deterministic(Delta::from_ticks(2), 57),
        };
        let opts = RunOptions {
            plan: plan.clone(),
            ..RunOptions::default()
        };
        let sim = run_geo_with(&sim_config, &layout, opts);
        assert_eq!(sim.history.len(), 6 * 150, "no op lost to the outage");
        assert!(sim.counter(names::GEO_BATCH_RETRANSMIT) > 0);
        let c = conformance_geo(&sim_config, &layout, &plan, &sim);
        assert_eq!(c.verdict, OracleVerdict::Conforms, "{:?}", c.verdict);

        cfg.monitor_delta = cfg.monitor_delta + geo_retx(&plan).expect("the partition heals");
        cfg.faults = plan;
        // Δ + slack + egress + two WAN hops + the outage + two retransmit
        // intervals: the bound the courier-cut version of this run had.
        assert_eq!(
            cfg.monitor_delta.ticks(),
            400 + crate::MONITOR_SLACK.ticks() + 20 + 2 * 120 + 2_000 + 2 * 300
        );
        let r = run_threaded_geo(&cfg, &layout);
        assert_done_on_time(&r, 6 * 150);
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
        cfg.ops_per_client = 150;
        cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        cfg.wal_dir = Some(wal.clone());
        // Region 0's shard 0 (node 0) down during [300, 1300) ticks: 150
        // ops × ≥5 ticks of think time cannot finish before tick 300, so
        // the kill always lands mid-run; MONITOR_SLACK (20 000 ticks)
        // dwarfs the 1 000-tick outage.
        cfg.faults = FaultPlan::none().kill_shard(Window::ticks(300, 1_300), 0);
        let r = run_threaded_geo(&cfg, &layout());
        assert_recovered_by_replay(&r, 6 * 150);
        assert!(r.counter(names::GEO_APPLIED) > 0);
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn threaded_geo_adaptive_controller_retunes_delta_online() {
        let mut cfg = geo_config(61);
        cfg.protocol.kind = ProtocolKind::Tcc {
            delta: Delta::from_ticks(4_000),
        };
        cfg.ops_per_client = 100;
        cfg.adaptive = Some(ADAPTIVE_BAND);
        assert_retuned_online(&run_threaded_geo(&cfg, &layout()), 6 * 100);
    }
}
