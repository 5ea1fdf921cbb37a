//! Cross-crate conformance: the §5 lifetime protocols, run on the
//! simulator, produce executions that the §2–3 checkers accept — across
//! protocols, propagation modes, network models, and a fault plan's loss
//! and clock skew.

use timed_consistency::clocks::{Delta, Epsilon};
use timed_consistency::core::checker::{
    check_on_time, min_delta, satisfies_ccv, satisfies_sc_with, Outcome, SearchOptions,
};
use timed_consistency::lifetime::{
    run, run_with_faults, Propagation, ProtocolConfig, ProtocolKind, RunConfig, RunResult,
};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::{
    FaultKind, FaultPlan, LatencyModel, NetworkModel, Scope, Window, WorldConfig,
};

fn config(kind: ProtocolKind, seed: u64) -> RunConfig {
    RunConfig {
        protocol: ProtocolConfig::of(kind),
        n_clients: 3,
        workload: Workload::new(5, 0.7, 0.65, (Delta::from_ticks(4), Delta::from_ticks(30))),
        ops_per_client: 50,
        world: WorldConfig::deterministic(Delta::from_ticks(4), seed),
    }
}

#[test]
fn all_protocols_complete_under_all_policies() {
    for kind in [
        ProtocolKind::sc(),
        ProtocolKind::Tsc {
            delta: Delta::from_ticks(70),
        },
        ProtocolKind::cc(),
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(70),
        },
        ProtocolKind::TccLogical { xi_delta: 6.0 },
        ProtocolKind::NoCache,
    ] {
        for propagation in [Propagation::Pull, Propagation::PushInvalidate] {
            let mut cfg = config(kind, 11);
            cfg.protocol.propagation = propagation;
            let r = run(&cfg);
            assert_eq!(
                r.history.len(),
                150,
                "{} / {propagation:?} lost operations",
                kind.label()
            );
        }
    }
}

#[test]
fn physical_family_is_sc_under_every_knob() {
    for kind in [
        ProtocolKind::sc(),
        ProtocolKind::Tsc {
            delta: Delta::from_ticks(40),
        },
    ] {
        for propagation in [Propagation::Pull, Propagation::PushInvalidate] {
            for seed in 0..3 {
                let mut cfg = config(kind, seed);
                cfg.protocol.propagation = propagation;
                let r = run(&cfg);
                assert!(
                    satisfies_sc_with(&r.history, SearchOptions::default()).holds(),
                    "{} / {propagation:?} seed {seed} broke SC:\n{}",
                    kind.label(),
                    r.history
                );
            }
        }
    }
}

#[test]
fn causal_family_is_ccv_under_every_knob() {
    for kind in [
        ProtocolKind::cc(),
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(40),
        },
        ProtocolKind::TccLogical { xi_delta: 6.0 },
    ] {
        for propagation in [Propagation::Pull, Propagation::PushInvalidate] {
            for seed in 0..3 {
                let mut cfg = config(kind, seed);
                cfg.protocol.propagation = propagation;
                let r = run(&cfg);
                assert_eq!(
                    satisfies_ccv(&r.history),
                    Outcome::Satisfied,
                    "{} / {propagation:?} seed {seed} broke CCv:\n{}",
                    kind.label(),
                    r.history
                );
            }
        }
    }
}

#[test]
fn timed_protocols_bound_staleness_under_lossy_wan_and_skewed_clocks() {
    let delta = Delta::from_ticks(300);
    for seed in 0..4 {
        let mut cfg = config(ProtocolKind::Tsc { delta }, seed);
        cfg.world.net = NetworkModel {
            latency: LatencyModel::Uniform {
                lo: Delta::from_ticks(2),
                hi: Delta::from_ticks(20),
            },
            fifo: true,
        };
        // 3 % loss for the whole run, and each client's clock (nodes 1..=3)
        // off true time by up to 5 ticks: ε = 10.
        let plan = [(1, 5), (2, -5), (3, 3)].into_iter().fold(
            FaultPlan::none().with(
                Window::always(),
                Scope::All,
                FaultKind::Drop { probability: 0.03 },
            ),
            |plan, (node, offset)| {
                plan.with(
                    Window::always(),
                    Scope::All,
                    FaultKind::ClockSkew { node, offset },
                )
            },
        );
        let r = run_with_faults(&cfg, plan);
        assert_eq!(r.epsilon, Epsilon::from_ticks(10));
        assert!(r.counter(names::FAULT_DROPPED) > 0, "the plan must drop");
        assert_eq!(r.history.len(), 150, "retries must mask drops");
        // Staleness bound: Δ + retransmission window + 2ε + rounding. A
        // dropped validate reply can delay freshness by one retry period.
        let retry = 500u64;
        let bound = delta.ticks() + retry + 2 * 20 + 2 * r.epsilon.ticks() + 4;
        let measured = min_delta(&r.history).ticks();
        assert!(
            measured <= bound,
            "seed {seed}: staleness {measured} above bound {bound}"
        );
    }
}

#[test]
fn timed_traces_are_on_time_at_their_effective_delta() {
    // The recorded execution itself satisfies Definition 1 at the
    // protocol's effective Δ (Δ + latency + slack) — tying the protocol
    // layer back to the paper's formal definitions.
    let delta = Delta::from_ticks(90);
    for seed in 0..4 {
        let r = run(&config(ProtocolKind::Tcc { delta }, seed));
        let effective = Delta::from_ticks(delta.ticks() + 4 * 4 + 4);
        assert!(
            check_on_time(&r.history, effective, Epsilon::ZERO).holds(),
            "seed {seed}: trace not timed at its effective Δ"
        );
    }
}

/// An old entry is kept and checked with its shard, by a validation
/// unless the last check of it found it changed, then by a refetch. The
/// client counts every check as a validation, whichever request carries
/// it; the shard counts the requests.
#[test]
fn mark_old_validates_instead_of_refetching() {
    for n_clients in [1, 5] {
        let mut cfg = config(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(30),
            },
            5,
        );
        cfg.n_clients = n_clients;
        let r = run(&cfg);
        let checks = r.counter(names::VALIDATE);
        let refetches = r.counter(names::SERVER_FETCH) - r.counter(names::FETCH);
        assert!(checks > 0, "{n_clients} sites: old entries are checked");
        assert_eq!(
            r.counter(names::SERVER_VALIDATE) + refetches,
            checks,
            "{n_clients} sites: each check is one request"
        );
        if n_clients == 1 {
            // No other site writes, so no check finds a change.
            assert_eq!(refetches, 0, "a lone site never refetches");
        } else {
            assert!(refetches > 0, "checks that follow a change refetch");
            assert!(
                r.counter(names::SERVER_VALIDATE) > 0,
                "checks that follow none validate"
            );
        }
    }
}

#[test]
fn logical_tcc_traces_carry_stamps_and_definition6_is_monotone() {
    // Two facts about the §5.4 machinery, checked on live traces:
    //
    // 1. TCC-ξ runs stamp every operation with L(op), so the Definition 6
    //    checker applies directly; other causal runs, which it does not
    //    judge, stamp none.
    // 2. Definition 6 violations are monotone in the ξ budget (every W_r
    //    shrinks as Δξ grows) — and the real-time effect of a tight budget
    //    is bounded staleness (smaller than plain CC's), which is the
    //    protocol's actual promise.
    //
    // Note what is *not* asserted: a hard Definition 6 guarantee at the
    // configured budget. A missed write's ξ reflects its WRITER's
    // knowledge, and a chatty-but-deaf writer stamps fresh writes with an
    // arbitrarily small ξ — the semantic gap in logical timeliness that
    // the paper's conclusion flags as future work.
    use timed_consistency::clocks::SumXi;
    use timed_consistency::core::checker::check_on_time_xi;
    use timed_consistency::core::stats::StalenessStats;
    let stamped = |r: &RunResult| {
        r.history
            .ids()
            .filter(|&id| r.history.logical_of(id).is_some())
            .count()
    };
    let tcc = run(&config(
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(40),
        },
        0,
    ));
    assert_eq!(stamped(&tcc), 0, "TCC runs stamp no op");
    let mut tight_staleness = 0.0;
    let mut loose_staleness = 0.0;
    for seed in 0..6 {
        let r = run(&config(ProtocolKind::TccLogical { xi_delta: 2.0 }, seed));
        assert_eq!(stamped(&r), r.history.len(), "TCC-ξ runs stamp every op");
        let v_small = check_on_time_xi(&r.history, &SumXi, 2.0).violations().len();
        let v_mid = check_on_time_xi(&r.history, &SumXi, 20.0)
            .violations()
            .len();
        let v_big = check_on_time_xi(&r.history, &SumXi, 2_000.0)
            .violations()
            .len();
        assert!(v_small >= v_mid && v_mid >= v_big, "Δξ monotonicity");
        assert_eq!(v_big, 0, "a huge budget accepts everything");
        tight_staleness += StalenessStats::of(&r.history).mean_staleness();

        let loose = run(&config(ProtocolKind::TccLogical { xi_delta: 500.0 }, seed));
        loose_staleness += StalenessStats::of(&loose.history).mean_staleness();
    }
    assert!(
        tight_staleness < loose_staleness,
        "tight ξ budget must reduce real-time staleness ({tight_staleness} vs {loose_staleness})"
    );
}
