//! Simulation study 5: the §4 web-caching story.
//!
//! Part 1 scripts the paper's Dow-Jones/CNN scenario on the causal cache
//! rules: two unrelated cached pages satisfy CC; fetching a newer CNN page
//! that *causally depends* on a newer Dow-Jones index forces the cached
//! index to be invalidated (CC), and under TCC the index also dies of old
//! age after Δ even with no further downloads.
//!
//! Part 2 measures a TTL-style web workload (Zipf 0.9, 95% reads) on the
//! TSC lifetime protocol, sweeping the TTL (= Δ) and comparing pull
//! (adaptive-TTL, Gwertzman & Seltzer) against server push invalidation
//! (Cao & Liu) — the paper's observation that both are timed consistency
//! at different Δ.
//!
//! Flags: `--ops N` (default 200), `--seeds K` (default 3).

use super::{Args, Report};
use crate::{f3, pct, Table};
use tc_clocks::{Delta, SiteClock, Time, VectorClock};
use tc_core::stats::StalenessStats;
use tc_core::{ObjectId, Value};
use tc_lifetime::cache::{Cache, CacheEntry};
use tc_lifetime::{
    run as simulate, Propagation, ProtocolConfig, ProtocolKind, RunConfig, StalePolicy,
};
use tc_sim::metrics::names;
use tc_sim::workload::Workload;
use tc_sim::WorldConfig;

fn scripted_scenario() -> Table {
    let mut t = Table::new(
        "§4 scenario: Dow-Jones index + CNN page in one browser cache",
        &["step", "DJ entry", "CNN entry"],
    );
    let dj = ObjectId::from_letter('D');
    let cnn = ObjectId::from_letter('C');
    // Sites: 0 = browser, 1 = Dow-Jones publisher, 2 = CNN newsroom.
    let mut browser_ctx = VectorClock::new(0, 3);
    let mut dow_jones = VectorClock::new(1, 3);
    let mut newsroom = VectorClock::new(2, 3);
    // TCC with Δ = a few hours: the causal rule, and the β rule beside it.
    let delta = Delta::from_ticks(500);
    let mut cache = Cache::new(ProtocolKind::Tcc { delta }, 2);

    let entry = |value: u64, stamp: &VectorClock, beta: u64| CacheEntry {
        value: Value::new(value),
        alpha_t: Time::from_ticks(beta),
        omega_t: Time::from_ticks(beta),
        alpha_v: Some(stamp.clone()),
        omega_v: Some(stamp.clone()),
        beta: Time::from_ticks(beta),
        old: false,
    };
    let show = |cache: &Cache, o: ObjectId| -> String {
        match cache.get(o) {
            None => "invalidated".into(),
            Some(e) if e.old => format!("v{} (old)", e.value),
            Some(e) => format!("v{} (fresh)", e.value),
        }
    };

    // Step 1: cache both pages; the writes are causally unrelated. A
    // fetched version's lifetime covers the fetching browser's context at
    // fetch time, so caching CNN makes the earlier DJ entry *suspect*
    // (marked old); an if-modified-since revalidation (HTTP 304) confirms
    // it and extends its lifetime — the §5.2 mark-old flow.
    let dj_v1 = dow_jones.tick();
    let cnn_v1 = newsroom.tick();
    cache.join_context(&mut browser_ctx, &dj_v1);
    cache.insert(dj, entry(1, &browser_ctx, 100));
    cache.join_context(&mut browser_ctx, &cnn_v1);
    cache.insert(cnn, entry(2, &browser_ctx, 120));
    cache.sweep_causal(&browser_ctx, 0, StalePolicy::MarkOld);
    // Revalidate the suspect DJ page: the server still holds v1, so the
    // lifetime advances to the whole context.
    let checked = Time::from_ticks(125);
    cache.revalidate(dj, checked, checked, &browser_ctx);
    t.row(&[
        &"1: cache both, revalidate DJ (304)",
        &show(&cache, dj),
        &show(&cache, cnn),
    ]);

    // Step 2: weeks pass with no downloads — the cache still satisfies CC
    // (the paper's point: concurrent pages may coexist indefinitely)...
    cache.sweep_causal(&browser_ctx, 0, StalePolicy::MarkOld);
    t.row(&[
        &"2: no downloads for weeks (CC ok)",
        &show(&cache, dj),
        &show(&cache, cnn),
    ]);
    // ...but TCC with Δ = a few hours ages both pages out regardless.
    let hours_later = Time::from_ticks(10_000);
    let mut tcc_cache = cache.clone();
    tcc_cache.sweep_beta(
        hours_later.saturating_sub_delta(delta),
        StalePolicy::MarkOld,
    );
    t.row(&[
        &"2': same, under TCC(Δ=hours)",
        &show(&tcc_cache, dj),
        &show(&tcc_cache, cnn),
    ]);

    // Step 3: the market moves; the newsroom *reads the new index* and
    // publishes a story about it — a causal edge from DJ v3 to CNN v4.
    // The user downloads the new CNN page; its stamp causally dominates
    // the cached DJ index's lifetime, so CC forces the old index out
    // (no revalidation can save it: the server now holds v3).
    let dj_v3 = dow_jones.tick();
    newsroom.observe(&dj_v3);
    let cnn_v4 = newsroom.tick();
    cache.join_context(&mut browser_ctx, &cnn_v4);
    cache.insert(cnn, entry(4, &browser_ctx, 130));
    cache.sweep_causal(&browser_ctx, 0, StalePolicy::Invalidate);
    t.row(&[
        &"3: fetch CNN v4 (reports DJ fall)",
        &show(&cache, dj),
        &show(&cache, cnn),
    ]);
    assert!(cache.get(dj).is_none(), "stale Dow-Jones page must die");
    assert!(cache.get(cnn).is_some());
    t
}

fn ttl_study(ops: usize, seeds: u64) -> Table {
    let mut t = Table::new(
        "Web workload: TTL (=Δ) sweep, pull vs push invalidation",
        &[
            "TTL (Δ)",
            "mode",
            "hit rate",
            "server msgs/read",
            "mean staleness",
        ],
    );
    for d in [10u64, 100, 1_000, 10_000] {
        for push in [false, true] {
            let mut hit = 0.0;
            let mut msgs = 0.0;
            let mut stale = 0.0;
            for seed in 0..seeds {
                let mut protocol = ProtocolConfig::of(ProtocolKind::Tsc {
                    delta: Delta::from_ticks(d),
                });
                if push {
                    protocol.propagation = Propagation::PushInvalidate;
                }
                let cfg = RunConfig {
                    protocol,
                    n_clients: 6,
                    workload: Workload::web(),
                    ops_per_client: ops,
                    world: WorldConfig::deterministic(Delta::from_ticks(5), seed),
                };
                let r = simulate(&cfg);
                hit += r.hit_rate();
                let reads = r.history.reads().count().max(1) as f64;
                msgs += (r.counter(names::FETCH) + r.counter(names::VALIDATE)) as f64 / reads;
                stale += StalenessStats::of(&r.history).mean_staleness();
            }
            let k = seeds as f64;
            t.row(&[
                &d,
                &(if push { "push" } else { "pull" }),
                &pct(hit / k),
                &f3(msgs / k),
                &f3(stale / k),
            ]);
        }
    }
    t
}

pub fn run(args: &Args) -> Report {
    let ops = args.uint("ops").unwrap_or(200) as usize;
    let seeds = args.uint("seeds").unwrap_or(3);
    let mut report = Report::default();
    report.table(scripted_scenario());
    report.table(ttl_study(ops, seeds));
    report.note(
        "expected shape: pull trades staleness for traffic as TTL grows; push \
         keeps staleness near the network latency at the cost of fan-out messages",
    );
    report
}
