//! Transport fault injection: partition one shard mid-run — its listener
//! and every live connection to it die, the address stays down, then the
//! listener rebinds — and demand that the protocol rides it out over the
//! evented epoll reactor.
//!
//! The reconnect path is where a transport earns its keep: the engines
//! were designed for lossy delivery (per-request retry timers, causal
//! retransmission, server-side delivery cursors), so a TCP link dying and
//! coming back must look to them like nothing worse than a burst of
//! message loss. Concretely this test asserts, under a one-shard
//! `FaultKind::Partition` in the run's `FaultPlan`:
//!
//! * every client still completes its full workload — the backoff dialer
//!   reaches the reborn listener, redoes the link's one handshake, and the
//!   engines' retry timers re-cover everything lost in flight;
//! * the on-time monitor — with its Δ widened by the outage, since no
//!   Δ-bounded protocol can propagate writes through a dead shard —
//!   reports **zero** violations;
//! * the fault actually happened and was actually healed (listener
//!   restart, failed dials, and reconnect counters are all non-zero);
//! * per-site operation programs are untouched by the fault: the
//!   partitioned run's fingerprints equal a fault-free threaded run's on
//!   the same seed.

use tc_bench::site_fingerprint;
use timed_consistency::clocks::Delta;
use timed_consistency::lifetime::{ProtocolConfig, ProtocolKind};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::{FaultPlan, Window};
use timed_consistency::store::{
    run_reactor_with, run_threaded, ReactorConfig, RuntimeConfig, RuntimeResult,
};

const SEED: u64 = 77;
const N_CLIENTS: usize = 2;
const OPS: usize = 100;

/// The shared fleet: two shards under TSC at Δ = 400 ticks, fault-free.
fn runtime() -> RuntimeConfig {
    let protocol = ProtocolConfig::of(ProtocolKind::Tsc {
        delta: Delta::from_ticks(400),
    })
    .with_shards(2);
    RuntimeConfig::for_protocol(
        protocol,
        N_CLIENTS,
        Workload::new(6, 0.8, 0.65, (Delta::from_ticks(3), Delta::from_ticks(12))),
        OPS,
        SEED,
    )
}

/// The partitioned reactor run: shard 0 cut off during [400, 2 400)
/// ticks — killed at 20 ms and down for ~100 ms at the 50 µs tick,
/// several protocol lifetimes (Δ = 400 ticks = 20 ms) — early enough that
/// plenty of workload remains on both sides of the outage.
fn partitioned_config() -> ReactorConfig {
    let mut cfg = ReactorConfig::new(runtime());
    cfg.runtime.faults = FaultPlan::none().partition(Window::ticks(400, 2_400), vec![0]);
    // A Δ-bounded protocol cannot push writes through a dead shard, so the
    // oracle's bound must absorb the worst-case blackout: downtime + the
    // last redial slot (≤ 50 ms) + handshake. The kill hard-closes every
    // link, so detection is immediate, not a read timeout. At a 50 µs tick
    // that is ~3 000 ticks; 10 000 gives slow CI room without blunting the
    // verdict — the monitor still judges every read.
    cfg.runtime.monitor_delta = Delta::from_ticks(cfg.runtime.monitor_delta.ticks() + 10_000);
    cfg
}

/// Everything a partitioned run must exhibit.
fn assert_outage_absorbed(faulted: &RuntimeResult) {
    // The workload survived the outage completely.
    assert_eq!(
        faulted.ops_done,
        N_CLIENTS * OPS,
        "every op must complete despite the listener outage"
    );
    // ... and on time, under the outage-widened Δ.
    assert!(
        faulted.on_time.holds(),
        "monitor violations under the partition: {}",
        faulted.on_time.violations().len()
    );

    // The fault fired and was healed: one listener restart, at least one
    // dial into the dead window, and the shard-0 link — which carries both
    // clients — re-admitted by one handshake.
    assert_eq!(
        faulted.counter(names::TCP_LISTENER_RESTART),
        1,
        "the partition must kill and rebind exactly one listener"
    );
    assert!(
        faulted.counter(names::TCP_CONNECT_FAILED) > 0,
        "redials during the downtime must fail before the rebind"
    );
    assert!(
        faulted.counter(names::TCP_RECONNECT) >= 1,
        "the reborn listener must re-admit the link"
    );
    // One initial handshake per shard link, unaffected by the mid-run fault.
    assert_eq!(faulted.counter(names::TCP_CONNECT), 2);
    // Both shards served traffic — shard 0 again after its rebirth.
    assert_eq!(faulted.shard_requests.len(), 2);
    assert!(
        faulted.shard_requests.iter().all(|&n| n > 0),
        "both shards must serve requests: {:?}",
        faulted.shard_requests
    );

    // The fault changes timing, never programs: per-site fingerprints
    // match a fault-free in-process run of the same seed.
    let clean = run_threaded(&runtime());
    for site in 0..N_CLIENTS {
        assert_eq!(
            site_fingerprint(&faulted.history, site),
            site_fingerprint(&clean.history, site),
            "site {site}: the partition must not alter the operation program"
        );
    }
}

/// The reactor's redial path is a timer-wheel state machine: the outage
/// must show up as restart/reconnect counters, a completed workload and
/// untouched per-site programs. Registrations must also drain to zero even
/// though the outage hard-closed every connection to the dead shard.
#[test]
fn reactor_absorbs_the_same_listener_outage() {
    let faulted = run_reactor_with(&partitioned_config());
    assert_outage_absorbed(&faulted);
    assert_eq!(
        faulted.counter(names::REACTOR_CONN_OPENED),
        faulted.counter(names::REACTOR_CONN_CLOSED),
        "partition-killed registrations must still drain to zero"
    );
}
