//! Simulation study 1 (the paper's promised "detailed simulations"): the
//! timeliness–cost trade-off of the lifetime protocols as Δ varies.
//!
//! For TSC and TCC, sweeps Δ and reports server traffic (fetches +
//! validations per read), cache hit rate, invalidations/old-markings, and
//! the measured staleness of the recorded execution. Small Δ ⇒ caches are
//! useless (the paper's "extreme case"); large Δ ⇒ cheap but stale.
//!
//! Flags: `--ops N` (per client, default 150), `--seeds K` (default 5),
//! `--policy {mark-old,invalidate}` (ablation, default mark-old),
//! `--push` (push invalidations instead of pull).

use super::{Args, Key, Report, Takes, OPS, SEEDS};
use crate::{f3, pct, standard_run, Table};
use tc_clocks::Delta;
use tc_core::stats::StalenessStats;
use tc_lifetime::{run as simulate, Propagation, ProtocolKind, StalePolicy};
use tc_sim::metrics::names;

pub const KEYS: &[Key] = &[
    OPS,
    SEEDS,
    Key::new("policy", Takes::Choice(&["mark-old", "invalidate"])),
    Key::new("push", Takes::Switch),
];

pub fn run(args: &Args) -> Report {
    let ops = args.uint("ops").unwrap_or(150) as usize;
    let seeds = args.uint("seeds").unwrap_or(5);
    let policy = match args.text("policy") {
        Some("invalidate") => StalePolicy::Invalidate,
        _ => StalePolicy::MarkOld,
    };
    let push = args.switch("push");
    let mut report = Report::default();

    type MakeKind = fn(Delta) -> ProtocolKind;
    let families: [(&str, MakeKind); 2] = [
        ("TSC", |d| ProtocolKind::Tsc { delta: d }),
        ("TCC", |d| ProtocolKind::Tcc { delta: d }),
    ];
    for (family, mk) in families {
        let mut t = Table::new(
            format!(
                "Δ-cost trade-off, {family} lifetime protocol (policy {policy:?}, {} propagation)",
                if push { "push" } else { "pull" }
            ),
            &[
                "Δ",
                "hit rate",
                "server msgs/read",
                "invalidations",
                "marked old",
                "mean staleness",
                "max staleness",
            ],
        );
        for d in [5u64, 20, 50, 100, 200, 500, 2_000, 10_000] {
            let delta = Delta::from_ticks(d);
            let mut hits = 0.0;
            let mut msgs_per_read = 0.0;
            let mut inval = 0u64;
            let mut marked = 0u64;
            let mut mean_stale = 0.0;
            let mut max_stale = 0u64;
            for seed in 0..seeds {
                let mut cfg = standard_run(mk(delta), seed, ops);
                cfg.protocol.stale = policy;
                if push {
                    cfg.protocol.propagation = Propagation::PushInvalidate;
                }
                let r = simulate(&cfg);
                let reads = r.history.reads().count().max(1) as f64;
                hits += r.hit_rate();
                msgs_per_read +=
                    (r.counter(names::FETCH) + r.counter(names::VALIDATE)) as f64 / reads;
                inval += r.counter(names::INVALIDATE);
                marked += r.counter(names::MARK_OLD);
                let stats = StalenessStats::of(&r.history);
                mean_stale += stats.mean_staleness();
                max_stale = max_stale.max(stats.max_staleness().ticks());
            }
            let k = seeds as f64;
            t.row(&[
                &d,
                &pct(hits / k),
                &f3(msgs_per_read / k),
                &(inval / seeds),
                &(marked / seeds),
                &f3(mean_stale / k),
                &max_stale,
            ]);
        }
        report.table(t);
    }
    report.note(
        "expected shape: hit rate rises and server traffic falls as Δ grows; \
         measured max staleness stays below Δ plus network latency and clock error",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn titles(argv: &[&str]) -> String {
        let mut argv = argv.to_vec();
        argv.extend(["--ops", "5", "--seeds", "1"]);
        run(&Args::parse(KEYS, &argv).expect("flags parse")).text(false)
    }

    #[test]
    fn push_and_policy_reach_the_protocol() {
        assert!(titles(&[]).contains("(policy MarkOld, pull propagation)"));
        assert!(titles(&["--push"]).contains("(policy MarkOld, push propagation)"));
        assert!(titles(&["--policy", "invalidate"]).contains("(policy Invalidate, pull"));
        assert!(titles(&["--policy", "mark-old"]).contains("(policy MarkOld, pull"));
    }

    #[test]
    fn a_misspelt_policy_or_push_is_rejected() {
        for argv in [&["--policy", "evict"][..], &["--policy"], &["--pushh"]] {
            assert!(Args::parse(KEYS, argv).is_err(), "{argv:?}");
        }
    }
}
