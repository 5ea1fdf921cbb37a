//! Connection-churn soak: hundreds of junk dials against the reactor's
//! shard listeners — connections that never complete a handshake, hang up
//! silently, or speak a protocol violation — while a real workload runs
//! over the same listeners.
//!
//! What a thread-per-connection transport sheds by letting a thread die,
//! an evented reactor must shed by *bookkeeping*: every accepted fd is a
//! registration in the epoll set and a slot in the connection slab, and a
//! leak of either survives until the process dies. This soak asserts the
//! three things that make churn survivable:
//!
//! 1. **no fd leak** — every accepted registration is deregistered by the
//!    end of the run ([`names::REACTOR_CONN_OPENED`] equals
//!    [`names::REACTOR_CONN_CLOSED`]), with hundreds of churn dials
//!    actually landing;
//! 2. **no workload disturbance** — every client completes every
//!    operation, with zero live-monitor violations at the configured Δ;
//! 3. **no consistency damage** — the recorded history independently
//!    satisfies the level's checker, and per-site programs match a
//!    churn-free threaded run of the same seed.

use tc_bench::site_fingerprint;
use timed_consistency::clocks::Delta;
use timed_consistency::core::checker::{satisfies_sc_with, SearchOptions};
use timed_consistency::lifetime::{ProtocolConfig, ProtocolKind};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::store::{run_reactor_with, run_threaded, ReactorConfig, RuntimeConfig};

const SEED: u64 = 91;
const N_CLIENTS: usize = 4;
// Long enough that the churn dialer lands its soak quota while ops are
// still in flight: the nanosecond epoll_pwait2 waits (DESIGN.md §16)
// finish a 60-op run too quickly for 300 full-blast dials to land.
const OPS: usize = 120;
/// Junk dials attempted, back to back, so they all land while the
/// workload is still in flight.
const CHURN_DIALS: usize = 500;

#[test]
fn reactor_survives_connection_churn_without_leaking() {
    let protocol = ProtocolConfig::of(ProtocolKind::Tsc {
        delta: Delta::from_ticks(400),
    })
    .with_shards(2);
    let runtime = RuntimeConfig::for_protocol(
        protocol,
        N_CLIENTS,
        Workload::new(6, 0.8, 0.65, (Delta::from_ticks(3), Delta::from_ticks(12))),
        OPS,
        SEED,
    );
    let mut config = ReactorConfig::new(runtime.clone());
    config.churn_dials = CHURN_DIALS;

    let soaked = run_reactor_with(&config);

    // 1. The churn actually happened at soak scale, and every accepted
    // registration — protocol links and junk alike — was reaped.
    assert!(
        soaked.counter(names::REACTOR_CHURN_DIAL) >= 300,
        "hundreds of churn dials must land (got {})",
        soaked.counter(names::REACTOR_CHURN_DIAL)
    );
    // The protocol traffic rides one link per shard, whatever the fleet.
    assert!(
        soaked.counter(names::REACTOR_CONN_OPENED)
            >= protocol.shards as u64 + soaked.counter(names::REACTOR_CHURN_DIAL),
        "every landed dial must have been accepted and registered"
    );
    assert_eq!(
        soaked.counter(names::REACTOR_CONN_OPENED),
        soaked.counter(names::REACTOR_CONN_CLOSED),
        "registrations must drain to zero — an inequality is an fd leak"
    );

    // 2. The workload is untouched: complete and monitor-clean.
    assert_eq!(
        soaked.ops_done,
        N_CLIENTS * OPS,
        "churn must not cost the workload a single operation"
    );
    assert!(
        soaked.on_time.holds(),
        "monitor violations under churn: {}",
        soaked.on_time.violations().len()
    );
    assert_eq!(
        soaked.counter(names::TCP_RECONNECT),
        0,
        "junk dials must never displace an established protocol link"
    );

    // 3. The history stands on its own under the oracle, and the per-site
    // programs equal a churn-free run's.
    assert!(
        satisfies_sc_with(&soaked.history, SearchOptions::default()).holds(),
        "churned history must remain sequentially consistent"
    );
    let clean = run_threaded(&runtime);
    for site in 0..N_CLIENTS {
        assert_eq!(
            site_fingerprint(&soaked.history, site),
            site_fingerprint(&clean.history, site),
            "site {site}: churn must not alter the operation program"
        );
    }
}
