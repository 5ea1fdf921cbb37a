//! The geo configuration of the simulation harness: an `R`-region world
//! over the one world builder ([`crate::run_with`] is its no-geo case),
//! judged by the one oracle at a region-aware widened bound.
//!
//! The node layout follows [`RegionMap`]: `R·S` shards (region-major),
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
use tc_sim::workload::Workload;
use tc_sim::{FaultKind, FaultPlan, Scope, Window, WorldConfig};

use super::{Migration, RegionMap, WanProfile, EGRESS_BATCH, RETX_AFTER};
use crate::harness::run_impl;
use crate::oracle::{judge, widened_bound, Conformance};
use crate::{ProtocolConfig, RunConfig, RunOptions, RunResult};

/// Configuration of one geo run.
#[derive(Clone, Debug)]
pub struct GeoRunConfig {
    /// The protocol under test — must be causal-family, with
    /// `protocol.shards == regions.shards_per_region`.
    pub protocol: ProtocolConfig,
    /// Region/shard layout.
    pub regions: RegionMap,
    /// Cross-region latency and skew profile.
    pub wan: WanProfile,
    /// Clients attached to each region (sites are region-major: client
    /// `c` of region `r` is site `r · clients_per_region + c`).
    pub clients_per_region: usize,
    /// The workload every client runs.
    pub workload: Workload,
    /// Operations each client performs.
    pub ops_per_client: usize,
    /// Base world: the *intra-region* network model, clocks, and seed.
    pub world: WorldConfig,
    /// Scripted client migrations (at most one per client).
    pub migrations: Vec<Migration>,
}

impl GeoRunConfig {
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

    /// The single-region [`RunConfig`] view of this configuration — what
    /// the base oracle terms (Δ, round trips, LAN latency, retry, push
    /// batch, fsync) are computed from.
    #[must_use]
    pub fn base_run_config(&self) -> RunConfig {
        RunConfig {
            protocol: self.protocol,
            n_clients: self.n_clients(),
            workload: self.workload.clone(),
            ops_per_client: self.ops_per_client,
            world: self.world.clone(),
        }
    }

    /// Merges this profile's per-region clock skews into `plan` as
    /// whole-run [`FaultKind::ClockSkew`] rules over every node of each
    /// region (shards, relay, and home clients). Run and oracle both see
    /// the skew through the plan, so the effective ε they agree on
    /// (`world ε + 2·max_abs_skew`) is inflated by exactly the injected
    /// divergence.
    #[must_use]
    pub fn plan_with_region_skew(&self, mut plan: FaultPlan) -> FaultPlan {
        if self.wan.skew_step == 0 {
            return plan;
        }
        let map = self.regions;
        for region in 0..map.regions {
            let offset = self.wan.region_skew(region);
            if offset == 0 {
                continue;
            }
            let mut nodes = map.region_shards(region);
            nodes.push(map.relay_node(region));
            for c in 0..self.clients_per_region {
                nodes.push(map.client_base() + region * self.clients_per_region + c);
            }
            for node in nodes {
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

/// The geo-widened staleness bound for `config` under `plan` (see the
/// module docs for the term-by-term derivation), or `None` when the
/// level is untimed or a latency/outage/deadline term is unbounded.
///
/// `plan` is the *caller's* plan — region skew rules affect the bound
/// only through `eps`, which the caller (or [`run_geo`]) already
/// inflated.
#[must_use]
pub fn widened_bound_geo(config: &GeoRunConfig, plan: &FaultPlan, eps: Epsilon) -> Option<Delta> {
    let base = widened_bound(&config.base_run_config(), plan, eps)?;
    let egress = EGRESS_BATCH.max_delay.ticks();
    let wan = config.wan.max_latency(config.regions.regions);
    let lat = config.world.net.latency.upper_bound()?.ticks();
    // Finite whenever `base` is (an infinite fsync deadline already
    // returned `None` above); zero for ephemeral stores and per-write
    // syncing.
    let fsync = match config.protocol.durability.fsync() {
        None => 0,
        Some(policy) => {
            if policy.max_delay.is_infinite() {
                return None;
            }
            policy.max_delay.ticks()
        }
    };
    // Relay ingress serialization: one apply in flight at a time, so in
    // the worst case every other write of the run drains ahead of this
    // one, each costing a local round-trip, a destination fsync window,
    // and scheduling slack.
    let per_apply = 2 * lat + fsync + 4;
    let queue = (config.n_clients() * config.ops_per_client) as u64 * per_apply;
    let disruption = plan.max_disruption()?;
    let geo_retx = if disruption.ticks() > 0 {
        // The geo path loses its own frames to the same outage: charge the
        // window again plus one batch and one apply retransmit interval.
        disruption.ticks() + 2 * RETX_AFTER.ticks()
    } else {
        0
    };
    Some(Delta::from_ticks(
        base.ticks() + fsync + egress + wan + queue + geo_retx,
    ))
}

/// Judges one geo run the way [`crate::oracle::conformance`] judges a
/// single-region run, with [`widened_bound_geo`] as the timed bound and
/// causal convergence across every region's clients as the untimed
/// guarantee. `plan` must be the same plan passed to [`run_geo`]
/// (pre-skew-merge: skew enters through `result.epsilon`).
#[must_use]
pub fn conformance_geo(config: &GeoRunConfig, plan: &FaultPlan, result: &RunResult) -> Conformance {
    judge(
        result,
        widened_bound_geo(config, plan, result.epsilon),
        config.n_clients() * config.ops_per_client,
        true,
    )
}

/// Runs one geo deployment to quiescence under an injected [`FaultPlan`]
/// (node indices follow [`RegionMap`]; [`WanProfile`] skews are merged in
/// automatically).
///
/// # Panics
///
/// As [`run_geo_with`].
#[must_use]
pub fn run_geo(config: &GeoRunConfig, plan: FaultPlan) -> RunResult {
    run_geo_with(
        config,
        RunOptions {
            plan,
            ..RunOptions::default()
        },
    )
}

/// Runs one geo deployment to quiescence as `opts` asks — everything
/// [`crate::run_with`] offers a flat fleet (WAL stores, adaptive Δ,
/// traces, private sources) composes with regions.
///
/// # Panics
///
/// Panics if the protocol is not causal-family, the shard counts
/// disagree, the migration script is invalid
/// ([`RegionMap::validate_migrations`]), the run fails to quiesce within
/// its event budget, or the protocol produced an invalid trace.
#[must_use]
pub fn run_geo_with(config: &GeoRunConfig, opts: RunOptions<'_>) -> RunResult {
    assert!(
        config.protocol.kind.is_causal_family(),
        "geo replication composes causally; physical-family levels cannot span regions"
    );
    assert_eq!(
        config.protocol.shards, config.regions.shards_per_region,
        "protocol shard count must match the per-region fleet size"
    );
    assert!(config.clients_per_region >= 1, "regions need clients");
    config.regions.validate_migrations(
        &config.migrations,
        config.n_clients(),
        config.ops_per_client,
    );
    run_impl(&config.base_run_config(), Some(config), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleVerdict, ProtocolKind};
    use tc_core::checker::{satisfies_ccv, Outcome};
    use tc_sim::metrics::names;

    fn geo_config(kind: ProtocolKind, seed: u64) -> GeoRunConfig {
        GeoRunConfig {
            protocol: ProtocolConfig::of(kind).with_shards(2),
            regions: RegionMap::new(3, 2),
            wan: WanProfile {
                lat_lo: 40,
                lat_hi: 60,
                skew_step: 3,
            },
            clients_per_region: 2,
            workload: Workload::new(4, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40))),
            ops_per_client: 20,
            world: WorldConfig::deterministic(Delta::from_ticks(2), seed),
            migrations: Vec::new(),
        }
    }

    #[test]
    fn three_region_tcc_run_conforms() {
        let config = geo_config(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(200),
            },
            7,
        );
        let result = run_geo(&config, FaultPlan::none());
        assert_eq!(result.history.len(), 6 * 20, "every op recorded");
        assert!(result.counter(names::GEO_BATCH) > 0, "batches flowed");
        assert!(
            result.counter(names::GEO_APPLIED) > 0,
            "remote writes landed: {:?}",
            result.metrics.counters
        );
        let c = conformance_geo(&config, &FaultPlan::none(), &result);
        assert_eq!(c.verdict, OracleVerdict::Conforms, "{:?}", c.verdict);
        assert!(c.observed_staleness <= c.bound.unwrap());
    }

    #[test]
    fn untimed_cc_geo_run_converges() {
        let config = geo_config(ProtocolKind::Cc, 11);
        let result = run_geo(&config, FaultPlan::none());
        assert_eq!(result.bound, None, "Cc carries no timed bound");
        assert_eq!(satisfies_ccv(&result.history), Outcome::Satisfied);
        let c = conformance_geo(&config, &FaultPlan::none(), &result);
        assert_eq!(c.verdict, OracleVerdict::Conforms);
    }

    #[test]
    fn geo_runs_are_deterministic() {
        let config = geo_config(ProtocolKind::Cc, 5);
        let a = run_geo(&config, FaultPlan::none());
        let b = run_geo(&config, FaultPlan::none());
        assert_eq!(a.history.to_string(), b.history.to_string());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn region_partition_heals_and_conforms() {
        let config = geo_config(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(200),
            },
            13,
        );
        // Cut region 2 (shards 4–5, relay 8, clients 13–14) off from the
        // world for 600 ticks. Its clients keep writing locally
        // (availability); the backlog drains after the heal.
        let map = config.regions;
        let mut isolated = map.region_shards(2);
        isolated.push(map.relay_node(2));
        isolated.push(map.client_base() + 4);
        isolated.push(map.client_base() + 5);
        let plan = FaultPlan::none().partition(Window::ticks(200, 800), isolated);
        let result = run_geo(&config, plan.clone());
        assert_eq!(result.history.len(), 6 * 20, "no op lost to the outage");
        assert!(
            result.counter(names::GEO_BATCH_RETRANSMIT) > 0,
            "the outage must have forced retransmissions: {:?}",
            result.metrics.counters
        );
        let c = conformance_geo(&config, &plan, &result);
        assert_eq!(c.verdict, OracleVerdict::Conforms, "{:?}", c.verdict);
    }

    #[test]
    fn client_migration_carries_context_and_conforms() {
        let mut config = geo_config(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(200),
            },
            17,
        );
        // Client 0 moves region 0 → 2 mid-workload; client 5 moves 2 → 1.
        config.migrations = vec![
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
        let result = run_geo(&config, FaultPlan::none());
        assert_eq!(result.history.len(), 6 * 20, "migrants finish elsewhere");
        assert_eq!(
            result.counter(names::GEO_MIGRATED),
            2,
            "both migrations completed: {:?}",
            result.metrics.counters
        );
        let c = conformance_geo(&config, &FaultPlan::none(), &result);
        assert_eq!(c.verdict, OracleVerdict::Conforms, "{:?}", c.verdict);
    }

    #[test]
    fn widened_bound_geo_extends_the_base_bound() {
        let config = geo_config(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(200),
            },
            0,
        );
        let base =
            widened_bound(&config.base_run_config(), &FaultPlan::none(), Epsilon::ZERO).unwrap();
        let geo = widened_bound_geo(&config, &FaultPlan::none(), Epsilon::ZERO).unwrap();
        // egress 20 + wan 120 + queue 120·(2·2+4) = 960.
        assert_eq!(geo.ticks(), base.ticks() + 20 + 120 + 960);
        // A disruptive plan charges its window once in the base bound and
        // once more (plus two retransmit intervals) for the geo path.
        let plan = FaultPlan::none().partition(Window::ticks(0, 100), vec![0]);
        let noisy = widened_bound_geo(&config, &plan, Epsilon::ZERO).unwrap();
        let noisy_base = widened_bound(&config.base_run_config(), &plan, Epsilon::ZERO).unwrap();
        assert_eq!(
            noisy.ticks(),
            noisy_base.ticks() + 20 + 120 + 960 + 100 + 2 * 300
        );
        // Untimed levels carry no bound.
        assert_eq!(
            widened_bound_geo(
                &geo_config(ProtocolKind::Cc, 0),
                &FaultPlan::none(),
                Epsilon::ZERO
            ),
            None
        );
    }
}
