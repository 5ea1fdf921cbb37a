//! Quickstart: the three faces of the library in one file.
//!
//! 1. Write a tiny execution down in the paper's notation and ask which
//!    consistency criteria it satisfies, and from which Δ onwards it is
//!    *timed*.
//! 2. Run the paper's §5 lifetime protocol in the simulator and verify the
//!    recorded execution mechanically.
//! 3. Run the same protocol on real threads, judged live by the on-time
//!    monitor.
//!
//! Run with: `cargo run --example quickstart`

use timed_consistency::clocks::Delta;
use timed_consistency::core::checker::{classify, min_delta};
use timed_consistency::core::History;
use timed_consistency::lifetime::{self, ProtocolConfig, ProtocolKind, RunConfig};
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::WorldConfig;
use timed_consistency::store::{run_threaded, RuntimeConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Histories and checkers ────────────────────────────────────────
    // Site 0 writes X=7 at t=100; site 1 wrote X=1 at t=80 and keeps
    // reading its own value. Sequentially consistent — but is it timely?
    let h = History::parse("w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220")?;
    let needed = min_delta(&h);
    println!("execution:\n{h}");
    println!("smallest Δ making it timed: {needed} ticks");
    for d in [50, needed.ticks(), 500] {
        let c = classify(&h, Delta::from_ticks(d));
        println!(
            "Δ={d:>3}:  LIN={:?}  SC={:?}  TSC={:?}  CC={:?}  TCC={:?}",
            c.lin, c.sc, c.tsc, c.cc, c.tcc
        );
    }

    // ── 2. The lifetime protocol, simulated and verified ────────────────
    let result = lifetime::run(&RunConfig {
        protocol: ProtocolConfig::of(ProtocolKind::Tsc {
            delta: Delta::from_ticks(100),
        }),
        n_clients: 3,
        workload: Workload::interactive(),
        ops_per_client: 30,
        world: WorldConfig::deterministic(Delta::from_ticks(2), 7),
    });
    println!(
        "\nTSC(Δ=100) simulation: {} ops, hit rate {:.0}%, measured staleness {} ticks",
        result.history.len(),
        100.0 * result.hit_rate(),
        min_delta(&result.history)
    );
    assert!(min_delta(&result.history) <= Delta::from_ticks(100 + 2 * 2 + 4));

    // ── 3. The same engines on real threads, judged live ────────────────
    // One OS thread per site and per shard, 50 µs ticks; every completed
    // operation goes through a live on-time monitor, so the verdict below
    // is about the execution that actually happened.
    let run = run_threaded(&RuntimeConfig::for_protocol(
        ProtocolConfig::of(ProtocolKind::Tcc {
            delta: Delta::from_ticks(200), // 10 ms
        }),
        3,
        Workload::interactive(),
        100,
        7,
    ));
    assert!(run.on_time.holds(), "the live monitor found a late read");
    println!(
        "\nTCC(Δ=200) on threads: {} ops in {:.0?}, observed staleness {} ticks, monitor clean",
        run.ops_done,
        run.wall,
        run.observed_staleness.ticks(),
    );
    Ok(())
}
