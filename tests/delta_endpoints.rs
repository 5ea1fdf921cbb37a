//! Δ's upper endpoint is the paper's identity (Figure 4: SC = TSC(Δ = ∞),
//! and likewise CC = TCC(∞)): rule 3 and the checking time never fire at
//! an infinite Δ, so `ProtocolKind::sc()` and `ProtocolKind::cc()` are the
//! timed kinds there, and must behave exactly like them at any finite Δ
//! longer than the run — the same history, op for op, and the same value
//! of every counter. The oracle judges them without a finite bound.

use tc_bench::standard_run;
use timed_consistency::clocks::Delta;
use timed_consistency::lifetime::{
    conformance, run, OracleVerdict, Propagation, ProtocolConfig, ProtocolKind, RunConfig,
    RunResult,
};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::{FaultPlan, LatencyModel, NetworkModel, WorldConfig};

/// A Δ no run below reaches: the longest lasts about 3 200 ticks.
const LONGER_THAN_THE_RUN: Delta = Delta::from_ticks(1_000_000);

/// Seeds 0–19 × {Pull, PushInvalidate} × {1, 2 shards} × {constant
/// 5-tick FIFO, uniform 2–30-tick non-FIFO} latency: 160 configurations
/// of 5 sites × 60 ops over 8 objects.
fn grid(kind: ProtocolKind) -> Vec<RunConfig> {
    let nets = [
        NetworkModel::reliable(Delta::from_ticks(5)),
        NetworkModel {
            latency: LatencyModel::Uniform {
                lo: Delta::from_ticks(2),
                hi: Delta::from_ticks(30),
            },
            fifo: false,
        },
    ];
    let mut configs = Vec::with_capacity(160);
    for seed in 0..20 {
        for propagation in [Propagation::Pull, Propagation::PushInvalidate] {
            for shards in [1, 2] {
                for net in nets {
                    let mut protocol = ProtocolConfig::of(kind).with_shards(shards);
                    protocol.propagation = propagation;
                    configs.push(RunConfig {
                        protocol,
                        n_clients: 5,
                        workload: Workload::new(
                            8,
                            0.8,
                            0.7,
                            (Delta::from_ticks(1), Delta::from_ticks(20)),
                        ),
                        ops_per_client: 60,
                        world: WorldConfig { net, seed },
                    });
                }
            }
        }
    }
    configs
}

/// The run of `endpoint` matches the run of `timed` — the same
/// configuration at a finite Δ — op for op and counter for counter, and
/// has no finite bound. With `judged`, the oracle also passes it.
fn assert_identical(endpoint: &RunConfig, timed: &RunConfig, judged: bool) {
    let what = format!("{:?} seed {}", endpoint.protocol, endpoint.world.seed);
    let a = run(endpoint);
    let b = run(timed);
    assert!(
        a.finished_at.ticks() < LONGER_THAN_THE_RUN.ticks(),
        "{what}"
    );
    assert_eq!(a.history.len(), b.history.len(), "{what}: op count");
    for (x, y) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(x, y, "{what}: histories diverge");
    }
    assert_eq!(a.metrics.counters, b.metrics.counters, "{what}: counters");
    assert_eq!(a.bound, None, "{what}: Δ = ∞ has no finite bound");
    assert_eq!(a.counter(names::ON_TIME_VIOLATIONS), 0, "{what}");
    if judged {
        assert_conforms(endpoint, &a, &what);
    }
}

fn assert_conforms(config: &RunConfig, result: &RunResult, what: &str) {
    let c = conformance(config, &FaultPlan::none(), result);
    assert_eq!(c.verdict, OracleVerdict::Conforms, "{what}");
    assert_eq!(c.bound, None, "{what}: Δ = ∞ has no finite bound");
    assert_eq!(result.counter(names::ON_TIME_VIOLATIONS), 0, "{what}");
}

/// Runs the grid at `endpoint` and at `at(LONGER_THAN_THE_RUN)`, judging
/// the endpoint's runs of the seeds below `judged_seeds` in the oracle.
fn check_identity(endpoint: ProtocolKind, at: impl Fn(Delta) -> ProtocolKind, judged_seeds: u64) {
    let timed = grid(at(LONGER_THAN_THE_RUN));
    let cells: Vec<_> = grid(endpoint).into_iter().zip(timed).collect();
    tc_bench::parallel_map(&cells, |(endpoint, timed)| {
        assert_identical(endpoint, timed, endpoint.world.seed < judged_seeds);
    });
}

#[test]
fn sc_is_tsc_at_a_delta_longer_than_the_run() {
    assert_eq!(
        ProtocolKind::sc(),
        ProtocolKind::Tsc {
            delta: Delta::INFINITE
        }
    );
    // The oracle's SC search costs up to seconds on one of these 300-op
    // histories, so it judges the first two seeds' 32 configurations; the
    // other 288 are still checked identical to TSC at a finite Δ.
    check_identity(ProtocolKind::sc(), |delta| ProtocolKind::Tsc { delta }, 2);
}

#[test]
fn cc_is_tcc_at_a_delta_longer_than_the_run() {
    assert_eq!(
        ProtocolKind::cc(),
        ProtocolKind::Tcc {
            delta: Delta::INFINITE
        }
    );
    check_identity(ProtocolKind::cc(), |delta| ProtocolKind::Tcc { delta }, 20);
}

/// The oracle's widened bound saturates at Δ = ∞ instead of overflowing:
/// protocol-compare's fleet (`standard_run`, seeds 0–4) conforms with no
/// on-time violation under TSC(∞) and TCC(∞).
#[test]
fn timed_kinds_at_an_infinite_delta_conform_on_the_standard_fleet() {
    for kind in [ProtocolKind::sc(), ProtocolKind::cc()] {
        for seed in 0..5 {
            let config = standard_run(kind, seed, 200);
            let result = run(&config);
            assert_eq!(result.history.len(), 800);
            assert_conforms(&config, &result, &format!("{} seed {seed}", kind.label()));
        }
    }
}
