//! Simulation study 4: how well does the logical-clock TCC approximation
//! (§5.4, Definition 6) track real-time TCC?
//!
//! Runs the ξ-based lifetime protocol across a sweep of `xi_delta`
//! (tolerated known-global-event gap) and reports the *real-time*
//! staleness of the resulting executions, next to the physical-clock TCC
//! protocol at comparable thresholds. A good ξ budget buys bounded
//! real-time staleness without any physical clock at the clients — but
//! only while the system stays active (ξ measures activity, not time),
//! which the idle-tail column exposes.
//!
//! Flags: `--ops N` (default 150), `--seeds K` (default 5).

use super::{Args, Report};
use crate::{f3, pct, standard_run, Table};
use tc_clocks::Delta;
use tc_core::checker::min_delta;
use tc_core::stats::StalenessStats;
use tc_lifetime::{run as simulate, ProtocolKind};

pub fn run(args: &Args) -> Report {
    let ops = args.uint("ops").unwrap_or(150) as usize;
    let seeds = args.uint("seeds").unwrap_or(5);

    let mut t = Table::new(
        "Logical TCC (Definition 6): xi_delta vs real-time staleness",
        &[
            "protocol",
            "threshold",
            "hit rate",
            "mean staleness (ticks)",
            "max staleness (ticks)",
            "stale reads >200t",
        ],
    );

    let logical = [1.0f64, 4.0, 12.0, 40.0, 120.0].map(|xi_delta| {
        let kind = ProtocolKind::TccLogical { xi_delta };
        ("TCC-xi", format!("ξΔ={xi_delta}"), kind)
    });
    let physical = [20u64, 80, 300].map(|d| {
        let delta = Delta::from_ticks(d);
        ("TCC", format!("Δ={d}"), ProtocolKind::Tcc { delta })
    });
    for (protocol, threshold, kind) in logical.into_iter().chain(physical) {
        let mut hit = 0.0;
        let mut mean = 0.0;
        let mut max = 0u64;
        let mut late = 0usize;
        for seed in 0..seeds {
            let r = simulate(&standard_run(kind, seed, ops));
            hit += r.hit_rate();
            let s = StalenessStats::of(&r.history);
            mean += s.mean_staleness();
            max = max.max(min_delta(&r.history).ticks());
            late += s.stale_reads(Delta::from_ticks(200));
        }
        let k = seeds as f64;
        t.row(&[
            &protocol,
            &threshold,
            &pct(hit / k),
            &f3(mean / k),
            &max,
            &late,
        ]);
    }
    let mut report = Report::default();
    report.table(t);
    report.note(
        "expected shape: staleness grows with xi_delta, mirroring Δ for the \
         physical protocol at matched activity rates; ξ needs no client clocks",
    );
    report
}
