//! Fault-injection conformance matrix: every class of injected fault —
//! drop, duplication, reordering, partition + heal, clock-skew spike,
//! client and server crash–restart — is run under the timed protocols and
//! judged by the checker-in-the-loop oracle. Faults may stall a run or
//! widen its staleness by exactly what the plan can cause; they must never
//! make the protocol lie about its guarantee.

use timed_consistency::clocks::Delta;
use timed_consistency::lifetime::{
    conformance, run_with_faults, OracleVerdict, ProtocolConfig, ProtocolKind, RunConfig,
};
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::{FaultKind, FaultPlan, Scope, Window, WorldConfig};

/// Harness node layout: node 0 is the server, nodes 1..=n are clients.
const SERVER: usize = 0;
const CLIENT_1: usize = 1;

const DELTA: u64 = 60;
const N_CLIENTS: usize = 3;
const OPS: usize = 30;

fn config(kind: ProtocolKind, seed: u64) -> RunConfig {
    RunConfig {
        protocol: ProtocolConfig::of(kind),
        n_clients: N_CLIENTS,
        workload: Workload::adversarial(),
        ops_per_client: OPS,
        world: WorldConfig::deterministic(Delta::from_ticks(3), seed),
    }
}

fn timed_kinds() -> [ProtocolKind; 2] {
    [
        ProtocolKind::Tsc {
            delta: Delta::from_ticks(DELTA),
        },
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(DELTA),
        },
    ]
}

/// The six-plan matrix of the acceptance criteria. Every plan heals before
/// quiescence (an unhealed outage would exceed the event budget, by
/// design), and every probabilistic knob is either 0 or 1 so the *shape*
/// of each fault is pinned; rate-based sweeps live in `tc-exp faults`.
fn fault_matrix() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drop: total blackout for 400 ticks",
            FaultPlan::none().with(
                Window::ticks(200, 600),
                Scope::All,
                FaultKind::Drop { probability: 1.0 },
            ),
        ),
        (
            "duplicate: every message delivered twice, 25 ticks late",
            FaultPlan::none().with(
                Window::always(),
                Scope::All,
                FaultKind::Duplicate {
                    probability: 1.0,
                    extra_delay: Delta::from_ticks(25),
                },
            ),
        ),
        (
            "reorder: 40-tick jitter defeats FIFO for the whole run",
            FaultPlan::none().with(
                Window::always(),
                Scope::All,
                FaultKind::Reorder {
                    max_jitter: Delta::from_ticks(40),
                },
            ),
        ),
        (
            "partition: server isolated for 400 ticks, then heals",
            FaultPlan::none().partition(Window::ticks(300, 700), vec![SERVER]),
        ),
        (
            "skew spike: client 1's clock jumps +80 ticks for a while",
            FaultPlan::none().with(
                Window::ticks(150, 550),
                Scope::All,
                FaultKind::ClockSkew {
                    node: CLIENT_1,
                    offset: 80,
                },
            ),
        ),
        (
            "crash-restart: client 1 loses its cache mid-run",
            FaultPlan::none().crash(Window::ticks(250, 650), CLIENT_1),
        ),
        (
            "crash-restart: the server itself goes down for 400 ticks",
            FaultPlan::none().crash(Window::ticks(250, 650), SERVER),
        ),
    ]
}

/// The core acceptance test: the full matrix, under both timed protocols,
/// across several seeds. Every run must be *acceptable* — either it
/// conformed outright (all ops done, untimed + widened-timed guarantees
/// hold) or it stalled safely. `Violated` is a protocol bug, full stop.
///
/// Each (protocol, plan, seed) cell is an independent simulation, so the
/// 42-cell matrix fans out over [`tc_bench::parallel_map`]; results come
/// back in input order and the assertions below run exactly as in the
/// serial loop.
#[test]
fn fault_matrix_never_violates_the_oracle() {
    let mut cells = Vec::new();
    for kind in timed_kinds() {
        for (label, plan) in fault_matrix() {
            for seed in [7, 21, 1999] {
                cells.push((kind, label, plan.clone(), seed));
            }
        }
    }
    let verdicts = tc_bench::parallel_map(&cells, |(kind, label, plan, seed)| {
        let cfg = config(*kind, *seed);
        let result = run_with_faults(&cfg, plan.clone());
        let c = conformance(&cfg, plan, &result);
        assert!(
            c.acceptable(),
            "{} / {label} / seed {seed}: {:?}\n\
             observed staleness {} vs bound {:?}, {}ops recorded of {}\n{}",
            kind.label(),
            c.verdict,
            c.observed_staleness.ticks(),
            c.bound.map(|b| b.ticks()),
            c.ops_recorded,
            c.ops_expected,
            result.history,
        );
        c.verdict
    });
    let total = verdicts.len();
    let conformed = verdicts
        .iter()
        .filter(|v| **v == OracleVerdict::Conforms)
        .count();
    // Healing plans should mostly complete; if everything stalled the
    // matrix would be vacuous (safety trivially holds on empty traces).
    assert!(
        conformed * 2 > total,
        "only {conformed}/{total} runs conformed — faults are stalling \
         nearly everything, so the timed checks are barely exercised"
    );
}

/// Each fault class must actually *fire* — otherwise the matrix silently
/// tests fault-free runs. The world counts every injected event.
#[test]
fn every_fault_class_actually_fires() {
    let expectations: Vec<(&str, FaultPlan, &str)> = vec![
        (
            "drop",
            FaultPlan::none().with(
                Window::ticks(200, 600),
                Scope::All,
                FaultKind::Drop { probability: 1.0 },
            ),
            "fault_dropped",
        ),
        (
            "duplicate",
            FaultPlan::none().with(
                Window::always(),
                Scope::All,
                FaultKind::Duplicate {
                    probability: 1.0,
                    extra_delay: Delta::from_ticks(25),
                },
            ),
            "fault_duplicated",
        ),
        (
            "reorder",
            FaultPlan::none().with(
                Window::always(),
                Scope::All,
                FaultKind::Reorder {
                    max_jitter: Delta::from_ticks(40),
                },
            ),
            "fault_jittered",
        ),
        (
            "partition",
            FaultPlan::none().partition(Window::ticks(300, 700), vec![SERVER]),
            "fault_dropped",
        ),
        (
            "client crash",
            FaultPlan::none().crash(Window::ticks(250, 650), CLIENT_1),
            "client_restart",
        ),
        (
            "server crash",
            FaultPlan::none().crash(Window::ticks(250, 650), SERVER),
            "server_restart",
        ),
    ];
    for (label, plan, counter) in expectations {
        let cfg = config(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(DELTA),
            },
            7,
        );
        let result = run_with_faults(&cfg, plan);
        assert!(
            result.metrics.counters.get(counter).copied().unwrap_or(0) > 0,
            "{label}: counter `{counter}` never incremented — the fault \
             plan did not fire and the matrix run was effectively fault-free"
        );
    }
}

/// The skew spike must show up in the run's *effective* ε (twice the
/// largest injected offset) — that widened ε is what makes Definition 2's
/// checks sound under the spike.
#[test]
fn skew_spike_widens_the_effective_epsilon() {
    let plan = FaultPlan::none().with(
        Window::ticks(150, 550),
        Scope::All,
        FaultKind::ClockSkew {
            node: CLIENT_1,
            offset: 80,
        },
    );
    let cfg = config(
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(DELTA),
        },
        21,
    );
    let quiet = run_with_faults(&cfg, FaultPlan::none());
    let skewed = run_with_faults(&cfg, plan.clone());
    assert_eq!(
        skewed.epsilon.ticks(),
        quiet.epsilon.ticks() + 2 * 80,
        "effective ε must include twice the injected skew"
    );
    let c = conformance(&cfg, &plan, &skewed);
    assert!(c.acceptable(), "verdict: {:?}", c.verdict);
}

/// Identical seeds reproduce identical faulted executions — histories and
/// every cost/fault counter. A different seed diverges (the faults and the
/// workload both re-roll).
#[test]
fn faulted_runs_are_deterministic_in_seed() {
    let plan = || {
        FaultPlan::none()
            .with(
                Window::ticks(100, 500),
                Scope::All,
                FaultKind::Drop { probability: 0.3 },
            )
            .with(
                Window::always(),
                Scope::All,
                FaultKind::Reorder {
                    max_jitter: Delta::from_ticks(20),
                },
            )
            .crash(Window::ticks(250, 650), CLIENT_1)
    };
    let kind = ProtocolKind::Tcc {
        delta: Delta::from_ticks(DELTA),
    };
    let a = run_with_faults(&config(kind, 1234), plan());
    let b = run_with_faults(&config(kind, 1234), plan());
    assert_eq!(a.history.to_string(), b.history.to_string());
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.finished_at, b.finished_at);
    let c = run_with_faults(&config(kind, 1235), plan());
    assert_ne!(
        a.history.to_string(),
        c.history.to_string(),
        "a different seed must produce a different faulted execution"
    );
}

/// An empty fault plan must not perturb the base simulation: `run` and
/// `run_with_faults(…, none)` are bit-identical, so fault-free baselines
/// stay comparable with faulted runs of the same seed.
#[test]
fn empty_plan_is_exactly_the_fault_free_run() {
    let kind = ProtocolKind::Tsc {
        delta: Delta::from_ticks(DELTA),
    };
    let cfg = config(kind, 42);
    let plain = timed_consistency::lifetime::run(&cfg);
    let faultless = run_with_faults(&cfg, FaultPlan::none());
    assert_eq!(plain.history.to_string(), faultless.history.to_string());
    assert_eq!(plain.metrics, faultless.metrics);
}

/// The shard fleet rides through faults too: with the object space split
/// over ≥2 shards, drop and reorder storms (which hit *every* link,
/// including each per-shard request stream independently) must leave the
/// conformance oracle green for both timed protocols. Node indices shift
/// under sharding — shards occupy nodes `0..shards`, clients follow — so
/// this case sticks to `Scope::All` faults plus a crash of shard 0 and of
/// one client addressed by their post-shift indices.
#[test]
fn sharded_fleet_survives_drop_and_reorder_faults() {
    const SHARDS: usize = 3;
    let plans = vec![
        (
            "drop: blackout for 400 ticks across the fleet",
            FaultPlan::none().with(
                Window::ticks(200, 600),
                Scope::All,
                FaultKind::Drop { probability: 1.0 },
            ),
        ),
        (
            "reorder: 40-tick jitter on every fleet link",
            FaultPlan::none().with(
                Window::always(),
                Scope::All,
                FaultKind::Reorder {
                    max_jitter: Delta::from_ticks(40),
                },
            ),
        ),
        (
            "crash-restart: shard 0 goes down for 400 ticks",
            FaultPlan::none().crash(Window::ticks(250, 650), 0),
        ),
        (
            "crash-restart: client 1 (node shards+1) loses its cache",
            FaultPlan::none().crash(Window::ticks(250, 650), SHARDS + 1),
        ),
    ];
    let mut cells = Vec::new();
    for kind in timed_kinds() {
        for (label, plan) in &plans {
            for seed in [7, 21] {
                cells.push((kind, *label, plan.clone(), seed));
            }
        }
    }
    tc_bench::parallel_map(&cells, |(kind, label, plan, seed)| {
        let mut cfg = config(*kind, *seed);
        cfg.protocol = cfg.protocol.with_shards(SHARDS);
        let result = run_with_faults(&cfg, plan.clone());
        let c = conformance(&cfg, plan, &result);
        assert!(
            c.acceptable(),
            "{} / {label} / seed {seed} at {SHARDS} shards: {:?}\n\
             observed staleness {} vs bound {:?}, {} ops recorded of {}",
            kind.label(),
            c.verdict,
            c.observed_staleness.ticks(),
            c.bound.map(|b| b.ticks()),
            c.ops_recorded,
            c.ops_expected,
        );
    });
}

/// `KillShard` over the WAL backend: a seeded kill/restart of a durable
/// shard must recover its version store and causal cursors *by replay* —
/// the oracle stays green, the restart demonstrably replays log records,
/// and under per-write fsync nothing is ever lost (the unsynced tail, the
/// only thing a crash may take, is empty between events).
#[test]
fn kill_shard_over_wal_recovers_by_replay() {
    use timed_consistency::durable::WalStore;
    use timed_consistency::lifetime::store::ShardStore;
    use timed_consistency::lifetime::{run_with, DurabilityMode, FsyncPolicy, RunOptions};

    let mut cells = Vec::new();
    for kind in timed_kinds() {
        for seed in [7u64, 21, 1999] {
            cells.push((kind, seed));
        }
    }
    let conformed: usize = tc_bench::parallel_map(&cells, |(kind, seed)| {
        let mut cfg = config(*kind, *seed);
        cfg.protocol = cfg
            .protocol
            .with_shards(2)
            .with_durability(DurabilityMode::Durable {
                fsync: FsyncPolicy::PER_WRITE,
            });
        let plan = FaultPlan::none().kill_shard(Window::ticks(250, 650), 0);
        let root = std::env::temp_dir().join(format!(
            "tc-conformance-{}-{}-{seed}",
            std::process::id(),
            kind.label(),
        ));
        let _ = std::fs::remove_dir_all(&root);
        let factory = |shard: usize| -> Box<dyn ShardStore> {
            Box::new(WalStore::open(
                root.join(format!("shard-{shard}")),
                shard as u16,
                64,
            ))
        };
        let result = run_with(
            &cfg,
            RunOptions {
                plan: plan.clone(),
                stores: Some(&factory),
                ..RunOptions::default()
            },
        );
        let c = conformance(&cfg, &plan, &result);
        assert!(
            c.acceptable(),
            "{} / kill-shard over WAL / seed {seed}: {:?}\n\
             observed staleness {} vs bound {:?}, {} ops recorded of {}",
            kind.label(),
            c.verdict,
            c.observed_staleness.ticks(),
            c.bound.map(|b| b.ticks()),
            c.ops_recorded,
            c.ops_expected,
        );
        let counter = |name: &str| result.metrics.counters.get(name).copied().unwrap_or(0);
        assert!(
            counter("server_restart") >= 1,
            "{} seed {seed}: the killed shard must have restarted",
            kind.label()
        );
        assert!(
            counter("wal_replayed") > 0,
            "{} seed {seed}: restart must replay the log, not forget",
            kind.label()
        );
        assert_eq!(
            counter("wal_lost"),
            0,
            "{} seed {seed}: per-write fsync leaves nothing to lose",
            kind.label()
        );
        let _ = std::fs::remove_dir_all(&root);
        usize::from(c.verdict == OracleVerdict::Conforms)
    })
    .into_iter()
    .sum();
    assert!(
        conformed * 2 > cells.len(),
        "only {conformed}/{} kill-shard runs conformed — the outage is \
         stalling nearly everything",
        cells.len()
    );
}

/// Untimed levels ride through the matrix too: the oracle then checks
/// only the untimed guarantee (SC / CCv) and reports no bound.
#[test]
fn untimed_levels_keep_their_safety_under_faults() {
    let mut cells = Vec::new();
    for kind in [ProtocolKind::sc(), ProtocolKind::cc()] {
        for (label, plan) in fault_matrix() {
            cells.push((kind, label, plan));
        }
    }
    tc_bench::parallel_map(&cells, |(kind, label, plan)| {
        let cfg = config(*kind, 99);
        let result = run_with_faults(&cfg, plan.clone());
        let c = conformance(&cfg, plan, &result);
        assert!(c.bound.is_none(), "untimed level must have no Δ bound");
        assert!(
            c.acceptable(),
            "{} / {label}: {:?}",
            kind.label(),
            c.verdict
        );
    });
}
