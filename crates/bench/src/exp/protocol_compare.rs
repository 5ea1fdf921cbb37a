//! Simulation study 2: all six protocol levels under one identical
//! workload — the §5.3 claim that "this implementation of TCC tends to
//! invalidate more objects than the implementation of CC … but less than
//! the implementation of TSC", plus the SC-vs-CC write-cost gap (SC writes
//! are synchronous server round trips; CC writes are asynchronous).
//!
//! Flags: `--ops N` (default 200), `--seeds K` (default 5), `--delta D`
//! (default 80).

use super::{Args, Report};
use crate::{f3, pct, standard_run, Table};
use tc_clocks::Delta;
use tc_core::checker::{
    min_delta, satisfies_cc_fast, satisfies_ccv, satisfies_sc_with, Outcome, SearchOptions,
};
use tc_core::stats::StalenessStats;
use tc_lifetime::{run as simulate, ProtocolKind};
use tc_sim::metrics::names;

pub fn run(args: &Args) -> Report {
    let ops = args.uint("ops").unwrap_or(200) as usize;
    let seeds = args.uint("seeds").unwrap_or(5);
    let delta = Delta::from_ticks(args.uint("delta").unwrap_or(80));

    let kinds = [
        ProtocolKind::NoCache,
        ProtocolKind::Sc,
        ProtocolKind::Tsc { delta },
        ProtocolKind::Cc,
        ProtocolKind::Tcc { delta },
        ProtocolKind::TccLogical { xi_delta: 12.0 },
    ];

    let mut t = Table::new(
        format!("Protocol comparison at Δ={delta} (means over {seeds} seeds, {ops} ops/client)"),
        &[
            "protocol",
            "hit rate",
            "stale marks+invals",
            "server msgs/op",
            "mean staleness",
            "max staleness",
            "consistency check",
            "CM rate",
        ],
    );

    // Per kind, in `kinds` order: (hit rate, stale-handling events,
    // messages per op), for the shape asserts below the table.
    let mut shape = Vec::with_capacity(kinds.len());
    for kind in kinds {
        let mut hit = 0.0;
        let mut stale_events = 0u64;
        let mut msgs_per_op = 0.0;
        let mut mean_stale = 0.0;
        let mut max_stale = 0u64;
        let mut checks_ok = true;
        let mut cm_hits = 0u64;
        for seed in 0..seeds {
            let cfg = standard_run(kind, seed, ops);
            let r = simulate(&cfg);
            hit += r.hit_rate();
            stale_events += r.counter(names::INVALIDATE) + r.counter(names::MARK_OLD);
            let n_ops = r.history.len().max(1) as f64;
            msgs_per_op += r.counter(names::MESSAGE) as f64 / n_ops;
            let stats = StalenessStats::of(&r.history);
            mean_stale += stats.mean_staleness();
            max_stale = max_stale.max(min_delta(&r.history).ticks());
            // The hard guarantee: SC for the physical family, CCv for the
            // convergent causal family. Causal memory (the paper's CC) is
            // reported as an empirical rate — see DESIGN.md on CM vs CCv.
            if kind.is_causal_family() {
                checks_ok &= satisfies_ccv(&r.history) == Outcome::Satisfied;
                cm_hits += u64::from(satisfies_cc_fast(&r.history) == Outcome::Satisfied);
            } else {
                checks_ok &= satisfies_sc_with(&r.history, SearchOptions::default()).holds();
                cm_hits += 1;
            }
        }
        let k = seeds as f64;
        t.row(&[
            &kind.label(),
            &pct(hit / k),
            &(stale_events / seeds),
            &f3(msgs_per_op / k),
            &f3(mean_stale / k),
            &max_stale,
            &(if checks_ok { "ok" } else { "FAILED" }),
            &pct(cm_hits as f64 / seeds as f64),
        ]);
        assert!(
            checks_ok,
            "{} run violated its consistency level",
            kind.label()
        );
        shape.push((hit / k, stale_events / seeds, msgs_per_op / k));
    }
    let [nocache, sc, tsc, cc, tcc, _] = shape[..] else {
        unreachable!("one row per kind");
    };
    assert!(
        tsc.1 >= tcc.1 && tcc.1 >= cc.1,
        "§5.3 ordering broken: stale-handling events TSC {} / TCC {} / CC {}",
        tsc.1,
        tcc.1,
        cc.1
    );
    assert!(
        cc.2 < sc.2,
        "asynchronous writes must save messages: CC {} vs SC {} per op",
        cc.2,
        sc.2
    );
    assert!(
        tcc.2 < tsc.2,
        "asynchronous writes must save messages under the same Δ: TCC {} vs TSC {} per op",
        tcc.2,
        tsc.2
    );
    assert_eq!(nocache.0, 0.0, "NoCache must never hit a cache");
    let mut report = Report::default();
    report.table(t);
    report.note(
        "expected shape: stale-handling events TSC >= TCC >= CC (the §5.3 \
         ordering); NoCache has hit rate 0 and the most traffic; asynchronous \
         writes save messages per op (CC < SC, TCC-xi < TSC, and TCC < TSC \
         under the same Δ): every causal write is acknowledged \
         (WriteAckCausal), but the client never waits for the ack and resends \
         a write only once it is overdue, so a fault-free causal write costs \
         its request and its ack and nothing more",
    );
    report
}
