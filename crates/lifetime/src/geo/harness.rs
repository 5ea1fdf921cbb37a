//! The geo configuration of the simulation harness: an `R`-region world
//! over the one world builder ([`crate::run_with`] is its no-geo case),
//! judged by the one oracle at a region-aware widened bound.
//!
//! The node layout follows [`super::RegionMap`]: `R·S` shards (region-major),
//! then `R` relays, then the clients (region-major,
//! `clients_per_region` each). WAN latency applies to exactly the links
//! the geo protocol crosses — shard→peer-relay batches and the acks
//! coming back; intra-region traffic keeps the world's base (LAN) model.
//! Client mobility is abstracted: a migrating client's attach handshake
//! travels at LAN latency (the client is "already there" when it
//! attaches), a simplification recorded in DESIGN.md §17.
//!
//! # The geo-widened bound
//!
//! A remote write's staleness at a reading region is bounded by the full
//! propagation path, so [`widened_bound_geo`] extends the single-region
//! [`widened_bound`] with exactly that path's worst case (derivation in
//! DESIGN.md §17):
//!
//! ```text
//! base  +  fsync_delay      (egress waits for origin durability)
//!       +  geo batch delay  (the egress channel's flush deadline)
//!       +  wan_max          (slowest region pair, one batch hop)
//!       +  W·(2·lat + fsync_delay + 4)   (relay ingress serialization:
//!                                         every earlier write may drain
//!                                         first, one local round-trip +
//!                                         destination fsync each)
//!       +  disruption + 2·retx           (iff the plan can black-hole a
//!                                         geo frame: the outage plus one
//!                                         batch and one apply retransmit
//!                                         interval)
//! ```

use tc_clocks::{Delta, Epsilon};
use tc_sim::{FaultKind, FaultPlan, Scope, Window};

use super::{GeoLayout, EGRESS_MAX_DELAY, RETX_AFTER};
use crate::harness::run_impl;
use crate::oracle::{fsync_delay, judge, widened_bound, Conformance};
use crate::{RunConfig, RunOptions, RunResult};

impl GeoLayout {
    /// Merges this profile's per-region clock skews into `plan` as
    /// whole-run [`FaultKind::ClockSkew`] rules over every node of each
    /// region (shards, relay, and home clients). Run and oracle both see
    /// the skew through the plan, so the effective ε they agree on
    /// (`2·max_abs_skew`) is exactly the injected divergence. Simulator
    /// only: a real driver's threads share one clock.
    #[must_use]
    pub fn plan_with_region_skew(&self, mut plan: FaultPlan) -> FaultPlan {
        if self.wan.skew_step == 0 {
            return plan;
        }
        for region in 0..self.regions.regions {
            let offset = self.wan.region_skew(region);
            if offset == 0 {
                continue;
            }
            for node in self.region_nodes(region) {
                plan = plan.with(
                    Window::always(),
                    Scope::All,
                    FaultKind::ClockSkew { node, offset },
                );
            }
        }
        plan
    }
}

/// The geo path's own fault term: a plan that can black-hole a geo frame
/// costs its longest outage once more, plus one batch and one apply
/// retransmit interval ([`RETX_AFTER`] each); a plan that cannot costs
/// nothing. `None` when the disruption is unbounded. [`widened_bound_geo`]
/// adds it to the simulator's bound, and a real-driver caller injecting a
/// WAN partition adds it to its monitor's Δ — one term, both drivers.
#[must_use]
pub fn geo_retx(plan: &FaultPlan) -> Option<Delta> {
    let disruption = plan.max_disruption()?.ticks();
    Some(Delta::from_ticks(if disruption > 0 {
        disruption + 2 * RETX_AFTER.ticks()
    } else {
        0
    }))
}

/// The geo-widened staleness bound of `config` laid out as `layout`
/// under `plan` (see the module docs for the term-by-term derivation),
/// or `None` when the level is untimed or an outage/deadline term is
/// unbounded.
///
/// `plan` is the *caller's* plan — region skew rules affect the bound
/// only through `eps`, which the caller (or [`run_geo_with`]) already
/// inflated.
#[must_use]
pub fn widened_bound_geo(
    config: &RunConfig,
    layout: &GeoLayout,
    plan: &FaultPlan,
    eps: Epsilon,
) -> Option<Delta> {
    let base = widened_bound(config, plan, eps)?;
    let egress = EGRESS_MAX_DELAY.ticks();
    let wan = layout.wan.max_latency(layout.regions.regions);
    let lat = config.world.net.latency.upper_bound().ticks();
    let fsync = fsync_delay(&config.protocol)?;
    // Relay ingress serialization: one apply in flight at a time, so in
    // the worst case every other write of the run drains ahead of this
    // one, each costing a local round-trip, a destination fsync window,
    // and scheduling slack.
    let per_apply = 2 * lat + fsync + 4;
    let queue = (config.n_clients * config.ops_per_client) as u64 * per_apply;
    let geo_retx = geo_retx(plan)?.ticks();
    Some(Delta::from_ticks(
        base.ticks() + fsync + egress + wan + queue + geo_retx,
    ))
}

/// Judges one geo run the way [`crate::oracle::conformance`] judges a
/// single-region run, with [`widened_bound_geo`] as the timed bound and
/// causal convergence across every region's clients as the untimed
/// guarantee. `plan` must be the plan the run was given (pre-skew-merge:
/// skew enters through `result.epsilon`).
#[must_use]
pub fn conformance_geo(
    config: &RunConfig,
    layout: &GeoLayout,
    plan: &FaultPlan,
    result: &RunResult,
) -> Conformance {
    judge(
        result,
        widened_bound_geo(config, layout, plan, result.epsilon),
        config.n_clients * config.ops_per_client,
        true,
    )
}

/// Runs `config` laid out as `layout` to quiescence as `opts` asks —
/// everything [`crate::run_with`] offers a flat fleet (fault plans, WAL
/// stores, adaptive Δ, traces, private sources) composes with regions.
/// Plan node indices follow [`super::RegionMap`]; the [`super::WanProfile`]
/// skews are merged into the plan.
///
/// # Panics
///
/// Panics if `layout` does not fit `config` ([`GeoLayout::validate`]),
/// the run fails to quiesce within its event budget, or the protocol
/// produced an invalid trace.
#[must_use]
pub fn run_geo_with(config: &RunConfig, layout: &GeoLayout, opts: RunOptions<'_>) -> RunResult {
    layout.validate(&config.protocol, config.n_clients, config.ops_per_client);
    run_impl(config, Some(layout), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::{Migration, RegionMap, WanProfile};
    use crate::{OracleVerdict, ProtocolConfig, ProtocolKind};
    use tc_core::checker::{satisfies_ccv, Outcome};
    use tc_sim::metrics::names;
    use tc_sim::workload::Workload;
    use tc_sim::WorldConfig;

    fn geo_config(kind: ProtocolKind, seed: u64) -> (RunConfig, GeoLayout) {
        let config = RunConfig {
            protocol: ProtocolConfig::of(kind).with_shards(2),
            n_clients: 6,
            workload: Workload::new(4, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40))),
            ops_per_client: 20,
            world: WorldConfig::deterministic(Delta::from_ticks(2), seed),
        };
        let layout = GeoLayout {
            regions: RegionMap::new(3, 2),
            wan: WanProfile {
                lat_lo: 40,
                lat_hi: 60,
                skew_step: 3,
            },
            clients_per_region: 2,
            migrations: Vec::new(),
        };
        (config, layout)
    }

    #[test]
    fn three_region_tcc_run_conforms() {
        let (config, layout) = geo_config(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(200),
            },
            7,
        );
        let result = run_geo_with(&config, &layout, RunOptions::default());
        assert_eq!(result.history.len(), 6 * 20, "every op recorded");
        assert!(result.counter(names::GEO_BATCH) > 0, "batches flowed");
        assert!(
            result.counter(names::GEO_APPLIED) > 0,
            "remote writes landed: {:?}",
            result.metrics.counters
        );
        let c = conformance_geo(&config, &layout, &FaultPlan::none(), &result);
        assert_eq!(c.verdict, OracleVerdict::Conforms, "{:?}", c.verdict);
        assert!(c.observed_staleness <= c.bound.unwrap());
    }

    #[test]
    fn untimed_cc_geo_run_converges() {
        let (config, layout) = geo_config(ProtocolKind::Cc, 11);
        let result = run_geo_with(&config, &layout, RunOptions::default());
        assert_eq!(result.bound, None, "Cc carries no timed bound");
        assert_eq!(satisfies_ccv(&result.history), Outcome::Satisfied);
        let c = conformance_geo(&config, &layout, &FaultPlan::none(), &result);
        assert_eq!(c.verdict, OracleVerdict::Conforms);
    }

    #[test]
    fn geo_runs_are_deterministic() {
        let (config, layout) = geo_config(ProtocolKind::Cc, 5);
        let a = run_geo_with(&config, &layout, RunOptions::default());
        let b = run_geo_with(&config, &layout, RunOptions::default());
        assert_eq!(a.history.to_string(), b.history.to_string());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn client_migration_carries_context_and_conforms() {
        let (config, mut layout) = geo_config(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(200),
            },
            17,
        );
        // Client 0 moves region 0 → 2 mid-workload; client 5 moves 2 → 1.
        layout.migrations = vec![
            Migration {
                client: 0,
                at_op: 8,
                to_region: 2,
            },
            Migration {
                client: 5,
                at_op: 12,
                to_region: 1,
            },
        ];
        let result = run_geo_with(&config, &layout, RunOptions::default());
        assert_eq!(result.history.len(), 6 * 20, "migrants finish elsewhere");
        assert_eq!(
            result.counter(names::GEO_MIGRATED),
            2,
            "both migrations completed: {:?}",
            result.metrics.counters
        );
        let c = conformance_geo(&config, &layout, &FaultPlan::none(), &result);
        assert_eq!(c.verdict, OracleVerdict::Conforms, "{:?}", c.verdict);
    }

    #[test]
    fn widened_bound_geo_extends_the_base_bound() {
        let (config, layout) = geo_config(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(200),
            },
            0,
        );
        let base = widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO).unwrap();
        let geo = widened_bound_geo(&config, &layout, &FaultPlan::none(), Epsilon::ZERO).unwrap();
        // egress 20 + wan 120 + queue 120·(2·2+4) = 960.
        assert_eq!(geo.ticks(), base.ticks() + 20 + 120 + 960);
        // A disruptive plan charges its window once in the base bound and
        // once more (plus two retransmit intervals) for the geo path.
        let plan = FaultPlan::none().partition(Window::ticks(0, 100), vec![0]);
        let noisy = widened_bound_geo(&config, &layout, &plan, Epsilon::ZERO).unwrap();
        let noisy_base = widened_bound(&config, &plan, Epsilon::ZERO).unwrap();
        assert_eq!(geo_retx(&plan), Some(Delta::from_ticks(100 + 2 * 300)));
        assert_eq!(geo_retx(&FaultPlan::none()), Some(Delta::ZERO));
        assert_eq!(
            noisy.ticks(),
            noisy_base.ticks() + 20 + 120 + 960 + 100 + 2 * 300
        );
        // Untimed levels carry no bound.
        let (cc, layout) = geo_config(ProtocolKind::Cc, 0);
        assert_eq!(
            widened_bound_geo(&cc, &layout, &FaultPlan::none(), Epsilon::ZERO),
            None
        );
    }
}
