//! Engine equivalence: the sans-io §5 state machines must behave the same
//! under all three drivers — the deterministic simulator, the threaded
//! in-process runtime, and the evented epoll reactor over loopback TCP.
//!
//! Every driver instantiates the *same* `ClientEngine`/`ServerEngine`
//! types and draws each client's operation stream from the same private
//! seed derivation (`tc_lifetime::engine::client_rng_seed`), so the
//! per-site sequence of (kind, object) — and the exact values written —
//! depends only on `(seed, site, n_clients)`, never on the driver. What a
//! *read returns* legitimately differs (real scheduling reorders server
//! arrivals), so read values are compared only against the consistency
//! checkers, not across drivers.
//!
//! For each protocol family this asserts:
//!
//! 1. all drivers complete the full workload with **zero** live-monitor
//!    violations at the configured Δ;
//! 2. per-site (kind, object) sequences and written values are identical
//!    across drivers — the jitter-free fingerprint of "same engine, same
//!    inputs" (for the reactor this additionally certifies that the
//!    `tc-wire` frame codec, handshakes, heartbeats, and the incremental
//!    decode path are invisible to the protocol);
//! 3. the real-runtime histories independently satisfy the level's checker
//!    (SC search for the physical family, CCv for the causal family).

use std::time::Duration;

use tc_bench::site_fingerprint;
use timed_consistency::clocks::Delta;
use timed_consistency::core::checker::{satisfies_ccv, satisfies_sc_with, SearchOptions};
use timed_consistency::core::SiteId;
use timed_consistency::lifetime::{
    run_with_private_sources, ProtocolConfig, ProtocolKind, RunConfig,
};
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::WorldConfig;
use timed_consistency::store::{run_reactor, run_threaded, RuntimeConfig};

const SEED: u64 = 42;
const N_CLIENTS: usize = 3;
const OPS: usize = 40;

fn workload() -> Workload {
    Workload::new(6, 0.8, 0.65, (Delta::from_ticks(3), Delta::from_ticks(12)))
}

fn check_equivalence(kind: ProtocolKind) {
    check_equivalence_of(ProtocolConfig::of(kind));
}

fn check_equivalence_of(protocol: ProtocolConfig) {
    check_equivalence_under(protocol, workload());
}

fn check_equivalence_under(protocol: ProtocolConfig, workload: Workload) {
    let kind = protocol.kind;
    let sim = run_with_private_sources(
        &RunConfig {
            protocol,
            n_clients: N_CLIENTS,
            workload: workload.clone(),
            ops_per_client: OPS,
            world: WorldConfig::deterministic(Delta::from_ticks(3), SEED),
        },
        SEED,
    );
    let mut threaded_cfg = RuntimeConfig::for_protocol(protocol, N_CLIENTS, workload, OPS, SEED);
    // A short tick keeps the test fast; the monitor Δ already carries the
    // real-time slack.
    threaded_cfg.tick = Duration::from_micros(20);
    let threaded = run_threaded(&threaded_cfg);
    let reactor = run_reactor(&threaded_cfg);

    // 1. Every driver completes the workload, monitor-clean.
    assert_eq!(sim.history.len(), N_CLIENTS * OPS, "{kind:?}: sim ops");
    assert!(
        sim.on_time.holds(),
        "{kind:?}: sim monitor violations: {}",
        sim.on_time.violations().len()
    );
    for (driver, run) in [("threaded", &threaded), ("reactor", &reactor)] {
        assert_eq!(run.ops_done, N_CLIENTS * OPS, "{kind:?}: {driver} ops");
        assert!(
            run.on_time.holds(),
            "{kind:?}: {driver} monitor violations: {}",
            run.on_time.violations().len()
        );
        // For timed levels, "monitor-clean" must mean clean *at the
        // configured Δ*: pin the verdict's bound and the run's observed
        // staleness to it instead of settling for any finite value.
        if !threaded_cfg.monitor_delta.is_infinite() {
            assert_eq!(
                run.on_time.delta(),
                threaded_cfg.monitor_delta,
                "{kind:?}: {driver} verdict must be judged at the configured monitor Δ"
            );
            assert!(
                run.observed_staleness <= threaded_cfg.monitor_delta,
                "{kind:?}: {driver} observed staleness {} exceeds the configured bound {}",
                run.observed_staleness,
                threaded_cfg.monitor_delta
            );
        }
        // A site's operations carry strictly increasing times: the next
        // op's timer never fires before the clock has moved on a tick,
        // whatever the think time.
        for site in 0..N_CLIENTS {
            let times: Vec<_> = run
                .history
                .site_ops(SiteId::new(site))
                .iter()
                .map(|&id| run.history.time_of(id))
                .collect();
            assert!(
                times.windows(2).all(|w| w[0] < w[1]),
                "{kind:?}: {driver} site {site} times not strictly increasing: {times:?}"
            );
        }
    }

    // 2. Identical per-site programs modulo read values, across all three
    // drivers — for the reactor this is what certifies the wire codec,
    // the incremental frame decoder and the evented effect execution
    // invisible.
    for site in 0..N_CLIENTS {
        let reference = site_fingerprint(&sim.history, site);
        for (driver, history) in [
            ("threaded", &threaded.history),
            ("reactor", &reactor.history),
        ] {
            assert_eq!(
                &site_fingerprint(history, site),
                &reference,
                "{kind:?}: site {site} diverged between sim and {driver}"
            );
        }
    }

    // 3. The real-runtime histories stand on their own under the level's
    // checker.
    for (driver, history) in [
        ("threaded", &threaded.history),
        ("reactor", &reactor.history),
    ] {
        if kind.is_causal_family() {
            assert!(
                satisfies_ccv(history).holds(),
                "{kind:?}: {driver} history must be causally consistent"
            );
        } else {
            assert!(
                satisfies_sc_with(history, SearchOptions::default()).holds(),
                "{kind:?}: {driver} history must be sequentially consistent"
            );
        }
    }
}

#[test]
fn sc_engines_are_driver_independent() {
    check_equivalence(ProtocolKind::sc());
}

#[test]
fn tsc_engines_are_driver_independent() {
    check_equivalence(ProtocolKind::Tsc {
        delta: Delta::from_ticks(400),
    });
}

#[test]
fn causal_engines_are_driver_independent() {
    check_equivalence(ProtocolKind::cc());
}

/// No think time: every `SetTimer` asks for zero ticks, so each site's
/// op cycle is nothing but the drivers' timer rounding — the next tick
/// boundary, never the same tick. All three drivers must still complete,
/// run identical per-site programs, keep per-site times strictly
/// increasing, and stay monitor-clean.
#[test]
fn zero_think_time_engines_are_driver_independent() {
    check_equivalence_under(
        ProtocolConfig::of(ProtocolKind::Tsc {
            delta: Delta::from_ticks(400),
        }),
        Workload::new(6, 0.8, 0.65, (Delta::ZERO, Delta::ZERO)),
    );
}

/// Sharding must be invisible to engine equivalence: with the object space
/// split over a fleet, every driver still runs identical per-site programs
/// and stays monitor-clean at the configured Δ.
#[test]
fn sharded_engines_are_driver_independent() {
    check_equivalence_of(
        ProtocolConfig::of(ProtocolKind::Tsc {
            delta: Delta::from_ticks(400),
        })
        .with_shards(3),
    );
}

/// The causal family crosses shards through the client-side write barrier;
/// the equivalence guarantee must survive that too.
#[test]
fn sharded_causal_engines_are_driver_independent() {
    check_equivalence_of(ProtocolConfig::of(ProtocolKind::cc()).with_shards(2));
}

/// Storage must be invisible to the protocol: under a durable per-write
/// config, a simulated run over the default in-memory store and one over
/// the `tc-durable` WAL backend produce **byte-identical** histories,
/// per-site fingerprints, and verdicts. (Metrics legitimately differ —
/// only the WAL run counts appends and fsyncs — so they are exactly what
/// this test does *not* compare.)
#[test]
fn wal_backend_is_byte_identical_to_memory_fault_free() {
    use timed_consistency::durable::WalStore;
    use timed_consistency::lifetime::store::ShardStore;
    use timed_consistency::lifetime::{run, run_with, DurabilityMode, FsyncPolicy, RunOptions};

    for kind in [
        ProtocolKind::Tsc {
            delta: Delta::from_ticks(400),
        },
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(400),
        },
    ] {
        let protocol =
            ProtocolConfig::of(kind)
                .with_shards(2)
                .with_durability(DurabilityMode::Durable {
                    fsync: FsyncPolicy::PER_WRITE,
                });
        let config = RunConfig {
            protocol,
            n_clients: N_CLIENTS,
            workload: workload(),
            ops_per_client: OPS,
            world: WorldConfig::deterministic(Delta::from_ticks(3), SEED),
        };
        let mem = run(&config);
        let wal_root =
            std::env::temp_dir().join(format!("tc-equivalence-{}-{kind:?}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_root);
        let factory = |shard: usize| -> Box<dyn ShardStore> {
            Box::new(WalStore::open(
                wal_root.join(format!("shard-{shard}")),
                shard as u16,
                64,
            ))
        };
        let wal = run_with(
            &config,
            RunOptions {
                stores: Some(&factory),
                ..RunOptions::default()
            },
        );

        // Operation-by-operation identity, reads and timestamps included.
        // (Comparing the whole `History` Debug output would be wrong: its
        // logical-stamp map is a `HashMap`, whose iteration order is
        // instance-random even for equal contents.)
        assert_eq!(mem.history.len(), wal.history.len(), "{kind:?}: op count");
        for (a, b) in mem.history.iter().zip(wal.history.iter()) {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{kind:?}: the WAL backend must be invisible to the recorded history"
            );
        }
        for site in 0..N_CLIENTS {
            assert_eq!(
                site_fingerprint(&mem.history, site),
                site_fingerprint(&wal.history, site),
                "{kind:?}: site {site} diverged between storage backends"
            );
        }
        assert_eq!(mem.on_time.holds(), wal.on_time.holds());
        assert_eq!(mem.on_time.delta(), wal.on_time.delta());
        assert_eq!(mem.finished_at, wal.finished_at, "{kind:?}: same schedule");
        assert_eq!(mem.events, wal.events, "{kind:?}: same event count");
        // Sanity: the WAL run really did go through the log.
        let fsyncs = wal.metrics.counters.get("wal_fsync").copied().unwrap_or(0);
        assert!(fsyncs > 0, "{kind:?}: the WAL run must have fsynced");
        let _ = std::fs::remove_dir_all(&wal_root);
    }
}

/// The fingerprint really is seed-determined: two threaded runs of the
/// same configuration execute the same per-site programs even though
/// their interleavings differ.
#[test]
fn threaded_runs_are_reproducible_per_site() {
    let cfg = {
        let mut c = RuntimeConfig::for_protocol(
            ProtocolConfig::of(ProtocolKind::sc()),
            N_CLIENTS,
            workload(),
            OPS,
            SEED,
        );
        c.tick = Duration::from_micros(20);
        c
    };
    let a = run_threaded(&cfg);
    let b = run_threaded(&cfg);
    for site in 0..N_CLIENTS {
        assert_eq!(
            site_fingerprint(&a.history, site),
            site_fingerprint(&b.history, site),
            "site {site} diverged between two threaded runs"
        );
    }
}
