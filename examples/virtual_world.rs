//! The paper's §4 motivation, live: a multi-user virtual environment where
//! "the action of one user must be seen by others in a timely fashion".
//!
//! Four players share sixteen hot objects over real threads
//! (`run_threaded`: the §5 lifetime protocol, one OS thread per site, a
//! live on-time monitor judging every operation) under three regimes of
//! the Δ knob:
//!
//! * **Causal (Δ = ∞)** — cached reads return instantly and may be
//!   arbitrarily stale: the Figure 1 pathology.
//! * **Timed causal, Δ = 200 ticks (10 ms)** — nearly the same cache, but
//!   no read is ever more than Δ behind: bounded staleness bought with a
//!   few more validations.
//! * **Timed causal, Δ = 1 tick** — Δ below the players' think time: no
//!   cached copy survives to its next read and every read is a round
//!   trip. This is the paper's "in extreme cases, local caches become
//!   useless" endpoint.
//!
//! Run with: `cargo run --example virtual_world`

use timed_consistency::clocks::Delta;
use timed_consistency::lifetime::{ProtocolConfig, ProtocolKind};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::store::{run_threaded, RuntimeConfig};

const PLAYERS: usize = 4;
const MOVES: usize = 400;

/// Runs one regime and prints its row; returns (hit rate, validations).
fn play(label: &str, kind: ProtocolKind) -> (f64, u64) {
    let run = run_threaded(&RuntimeConfig::for_protocol(
        ProtocolConfig::of(kind),
        PLAYERS,
        Workload::interactive(), // 16 hot objects, 70 % reads, short thinks
        MOVES,
        7,
    ));
    assert_eq!(run.ops_done, PLAYERS * MOVES);
    assert!(
        run.on_time.holds(),
        "{label}: the live monitor found a late read"
    );
    // Reads served locally, over every read that consulted the cache.
    let hit_rate = run.hit_rate();
    let validations = run.counter(names::VALIDATE);
    println!(
        "  {label:<22} {:>7.1}%  {validations:>11}  {:>15}  on time",
        100.0 * hit_rate,
        run.observed_staleness.ticks(),
    );
    (hit_rate, validations)
}

fn main() {
    println!(
        "  {:<22} {:>8}  {:>11}  {:>15}  monitor",
        "regime", "hit rate", "validations", "staleness/ticks"
    );
    let (causal_hit, causal_val) = play("causal (Δ = ∞)", ProtocolKind::Cc);
    let (bounded_hit, _) = play(
        "timed causal (Δ = 200)",
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(200),
        },
    );
    let (floor_hit, floor_val) = play(
        "timed causal (Δ = 1)",
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(1),
        },
    );

    // The shape, not the digits: staleness moves with host scheduling, hit
    // rates and validation counts barely do.
    assert!(bounded_hit > 0.15 && causal_hit >= bounded_hit - 0.1);
    assert!(floor_hit < 0.05 && floor_val > causal_val);

    println!(
        "\nthe Δ knob spans Figure 4b's whole spectrum: ∞ = causal, instant \
         but as stale as the slowest writer's news; a bounded Δ keeps the \
         cache and caps staleness at Δ; Δ below the think time validates \
         every read — local caches become useless."
    );
}
