//! The paper's §4 web-caching story as a runnable scenario: browsers cache
//! pages from an origin server; the TTL of a cached page is exactly the
//! timed-consistency Δ.
//!
//! Simulates a fleet of browsers on a read-mostly Zipf workload under the
//! TSC lifetime protocol at several TTLs, then at one TTL compares pull
//! (if-modified-since revalidation, Gwertzman & Seltzer) with server push
//! invalidation (Cao & Liu). Every run's recorded history is fed back to
//! the consistency checkers.
//!
//! Run with: `cargo run --example web_cache`

use timed_consistency::clocks::Delta;
use timed_consistency::core::checker::{min_delta, satisfies_sc_with, SearchOptions};
use timed_consistency::core::stats::StalenessStats;
use timed_consistency::lifetime::{run, Propagation, ProtocolConfig, ProtocolKind, RunConfig};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::WorldConfig;

fn browse(ttl: Delta, propagation: Propagation, seed: u64) -> (f64, f64, u64, bool) {
    let result = run(&RunConfig {
        protocol: ProtocolConfig {
            kind: ProtocolKind::Tsc { delta: ttl },
            propagation,
            retry_after: timed_consistency::lifetime::DEFAULT_RETRY_AFTER,
            shards: 1,
            durability: timed_consistency::lifetime::DurabilityMode::Ephemeral,
        },
        n_clients: 5,
        workload: Workload::web(), // 64 pages, Zipf 0.9, 95% reads
        ops_per_client: 120,
        world: WorldConfig::deterministic(Delta::from_ticks(4), seed),
    });
    let reads = result.history.reads().count().max(1) as f64;
    let revalidations =
        (result.counter(names::VALIDATE) + result.counter(names::FETCH)) as f64 / reads;
    let stats = StalenessStats::of(&result.history);
    let sc = satisfies_sc_with(&result.history, SearchOptions::default()).holds();
    (
        result.hit_rate(),
        revalidations,
        stats.max_staleness().ticks(),
        sc,
    )
}

fn main() {
    println!("TTL sweep (pull, if-modified-since):");
    println!(
        "  {:>8}  {:>9}  {:>12}  {:>13}  {:>3}",
        "TTL(Δ)", "hit rate", "reval/read", "max staleness", "SC?"
    );
    for ttl in [10u64, 100, 1_000, 10_000] {
        let (hit, reval, stale, sc) = browse(Delta::from_ticks(ttl), Propagation::Pull, 1);
        println!(
            "  {ttl:>8}  {:>8.1}%  {reval:>12.3}  {stale:>13}  {:>3}",
            hit * 100.0,
            if sc { "yes" } else { "NO" }
        );
    }

    println!("\npush invalidation vs pull at TTL = 1000:");
    for (label, propagation) in [
        ("pull", Propagation::Pull),
        ("push", Propagation::PushInvalidate),
    ] {
        let (hit, reval, stale, _) = browse(Delta::from_ticks(1_000), propagation, 1);
        println!(
            "  {label}: hit rate {:.1}%, revalidations/read {reval:.3}, max staleness {stale}",
            hit * 100.0
        );
    }

    println!(
        "\nmoral: a TTL'd web cache *is* a timed-consistency protocol — the \
         TTL is Δ. Short TTLs buy freshness with revalidation traffic; push \
         invalidation buys both at the cost of server fan-out."
    );

    // And the headline guarantee, mechanically: staleness never exceeds
    // TTL + network latency.
    let result = run(&RunConfig {
        protocol: ProtocolConfig::of(ProtocolKind::Tsc {
            delta: Delta::from_ticks(500),
        }),
        n_clients: 5,
        workload: Workload::web(),
        ops_per_client: 120,
        world: WorldConfig::deterministic(Delta::from_ticks(4), 2),
    });
    let measured = min_delta(&result.history);
    println!("\nTTL=500 run: measured worst staleness {measured} ≤ 500 + slack");
    assert!(measured.ticks() <= 500 + 2 * 4 + 4);
}
