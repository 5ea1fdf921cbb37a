//! Simulation study 1 (the paper's promised "detailed simulations"): the
//! timeliness–cost trade-off of the lifetime protocols as Δ varies.
//!
//! For TSC and TCC, sweeps Δ and reports server traffic (fetches +
//! validations per read), cache hit rate, old-markings, and the measured
//! staleness of the recorded execution. Small Δ ⇒ caches are useless (the
//! paper's "extreme case"); large Δ ⇒ cheap but stale.
//!
//! Two subcommands share the sweep: `delta-cost` (pull), and its ablation
//! `delta-cost-push` (push invalidations instead of pull).

use super::Report;
use crate::{f3, pct, standard_run, Table};
use tc_clocks::Delta;
use tc_core::stats::StalenessStats;
use tc_lifetime::{run as simulate, Propagation, ProtocolKind};
use tc_sim::metrics::names;

/// Operations per client, and seeds averaged per cell.
const OPS: usize = 150;
const SEEDS: u64 = 5;

pub fn run() -> Report {
    sweep(false)
}

pub fn push() -> Report {
    sweep(true)
}

fn sweep(push: bool) -> Report {
    let mut report = Report::default();

    type MakeKind = fn(Delta) -> ProtocolKind;
    let families: [(&str, MakeKind); 2] = [
        ("TSC", |d| ProtocolKind::Tsc { delta: d }),
        ("TCC", |d| ProtocolKind::Tcc { delta: d }),
    ];
    for (family, mk) in families {
        let mut t = Table::new(
            format!(
                "Δ-cost trade-off, {family} lifetime protocol ({} propagation)",
                if push { "push" } else { "pull" }
            ),
            &[
                "Δ",
                "hit rate",
                "server msgs/read",
                "marked old",
                "mean staleness",
                "max staleness",
            ],
        );
        for d in [5u64, 20, 50, 100, 200, 500, 2_000, 10_000] {
            let delta = Delta::from_ticks(d);
            let mut hits = 0.0;
            let mut msgs_per_read = 0.0;
            let mut marked = 0u64;
            let mut mean_stale = 0.0;
            let mut max_stale = 0u64;
            for seed in 0..SEEDS {
                let mut cfg = standard_run(mk(delta), seed, OPS);
                if push {
                    cfg.protocol.propagation = Propagation::PushInvalidate;
                }
                let r = simulate(&cfg);
                let reads = r.history.reads().count().max(1) as f64;
                hits += r.hit_rate();
                msgs_per_read +=
                    (r.counter(names::FETCH) + r.counter(names::VALIDATE)) as f64 / reads;
                marked += r.counter(names::MARK_OLD);
                let stats = StalenessStats::of(&r.history);
                mean_stale += stats.mean_staleness();
                max_stale = max_stale.max(stats.max_staleness().ticks());
            }
            let k = SEEDS as f64;
            t.row(&[
                &d,
                &pct(hits / k),
                &f3(msgs_per_read / k),
                &(marked / SEEDS),
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
