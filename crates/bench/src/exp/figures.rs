//! Regenerates every figure of the paper as a mechanical check:
//!
//! * Figure 1 — the SC-but-not-timed execution.
//! * Figures 2/3 — the `W_r` window under perfect vs ε-synchronized clocks.
//! * Figure 5 — the SC execution, its 5b witness, and the TSC thresholds.
//! * Figure 6 — the CC execution and the TCC thresholds.
//! * Figure 7 — the ξ-maps on the paper's vector timestamps.
//!
//! Flags: `--fig N` for a single figure.

use super::{Args, Key, Report, Takes};
use crate::{f3, Table};
use tc_clocks::{Delta, Epsilon, NormXi, SumXi, XiMap};
use tc_core::checker::{
    check_on_time, classify, min_delta, min_delta_eps, satisfies_cc, satisfies_lin, satisfies_sc,
    satisfies_tcc, satisfies_tsc,
};
use tc_core::examples::{fig1_execution, fig5_execution, fig5b_serialization, fig6_execution};
use tc_core::{History, HistoryBuilder};

fn outcome(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn fig1() -> Table {
    let h = fig1_execution();
    let mut t = Table::new(
        "Figure 1: SC + CC hold, LIN fails, timedness depends on Δ",
        &["criterion", "verdict"],
    );
    t.row(&[&"SC", &outcome(satisfies_sc(&h).holds())]);
    t.row(&[&"CC", &outcome(satisfies_cc(&h).holds())]);
    t.row(&[&"LIN", &outcome(satisfies_lin(&h).holds())]);
    t.row(&[&"min Δ for timedness", &min_delta(&h)]);
    for d in [50u64, 120, 200, 280, 400] {
        let label = format!("TSC(Δ={d})");
        t.row(&[
            &label,
            &outcome(satisfies_tsc(&h, Delta::from_ticks(d)).holds()),
        ]);
    }
    t
}

/// The operation layout of Figures 2 and 3: one read of `w`, with an older
/// write w1, two intermediate writes w2/w3, and a recent write w4.
fn fig2_3_history() -> History {
    let mut b = HistoryBuilder::new();
    b.write(0, 'X', 1, 10); // w1: older than the source — never offends
    b.write(0, 'X', 2, 40); // w  : the write the read returns
    b.write(0, 'X', 3, 60); // w2: in the W_r window under perfect clocks
    b.write(0, 'X', 4, 75); // w3: near the window's right edge
    b.write(0, 'X', 5, 130); // w4: newer than T(r) − Δ — tolerated
    b.read(1, 'X', 2, 140); // r reads w
    b.build().expect("figure 2/3 layout is well-formed")
}

fn fig2_3() -> Table {
    let h = fig2_3_history();
    let delta = Delta::from_ticks(60); // T(r) − Δ = 80: w2@60, w3@75 offend
    let mut t = Table::new(
        "Figures 2-3: W_r under perfect vs approximately-synchronized clocks (Δ=60)",
        &["ε", "on time", "|W_r|", "min Δ"],
    );
    for eps in [0u64, 3, 10, 20, 40] {
        let eps = Epsilon::from_ticks(eps);
        let rep = check_on_time(&h, delta, eps);
        let missed = rep
            .violations()
            .first()
            .map(|v| v.missed.len())
            .unwrap_or(0);
        t.row(&[
            &eps,
            &outcome(rep.holds()),
            &missed,
            &min_delta_eps(&h, eps),
        ]);
    }
    t
}

fn fig5() -> Table {
    let h = fig5_execution();
    let s = fig5b_serialization(&h);
    let mut t = Table::new(
        "Figure 5: SC execution, 5b witness, TSC thresholds (gaps 27 and 96)",
        &["check", "result"],
    );
    t.row(&[&"5b serialization legal", &outcome(s.is_legal(&h))]);
    t.row(&[
        &"5b respects program order",
        &outcome(s.respects_program_order(&h)),
    ]);
    t.row(&[&"5b respects real time", &outcome(s.respects_times(&h))]);
    t.row(&[&"SC", &outcome(satisfies_sc(&h).holds())]);
    t.row(&[&"LIN", &outcome(satisfies_lin(&h).holds())]);
    t.row(&[&"min Δ (expected 96)", &min_delta(&h)]);
    for d in [10u64, 26, 27, 50, 96, 97, 150] {
        let label = format!("TSC(Δ={d})");
        t.row(&[
            &label,
            &outcome(satisfies_tsc(&h, Delta::from_ticks(d)).holds()),
        ]);
    }
    t
}

fn fig6() -> Table {
    let h = fig6_execution();
    let mut t = Table::new(
        "Figure 6: CC-not-SC execution, TCC threshold (gap 80 from r4(C)0@155 vs w2(C)3@75)",
        &["check", "result"],
    );
    t.row(&[&"CC", &outcome(satisfies_cc(&h).holds())]);
    t.row(&[&"SC", &outcome(satisfies_sc(&h).holds())]);
    t.row(&[&"min Δ (expected 80)", &min_delta(&h)]);
    for d in [10u64, 30, 79, 80, 120] {
        let label = format!("TCC(Δ={d})");
        t.row(&[
            &label,
            &outcome(satisfies_tcc(&h, Delta::from_ticks(d)).holds()),
        ]);
    }
    t.row(&[
        &"TSC(Δ=∞) (SC fails, so no)",
        &outcome(satisfies_tsc(&h, Delta::INFINITE).holds()),
    ]);
    let c = classify(&h, Delta::from_ticks(80));
    t.row(&[
        &"hierarchy consistent",
        &outcome(c.hierarchy_violation().is_none()),
    ]);
    t
}

fn fig7() -> Table {
    let mut t = Table::new(
        "Figure 7: ξ-maps on the paper's vector timestamps",
        &["timestamp", "ξ=Σt[i]", "ξ=‖t‖₂"],
    );
    for (label, v) in [
        ("<3,4>", vec![3u64, 4]),
        ("<3,2>", vec![3, 2]),
        ("<2,4>", vec![2, 4]),
        ("<35,4,0,72>", vec![35, 4, 0, 72]),
        ("<2,1,0,18>", vec![2, 1, 0, 18]),
    ] {
        t.row(&[&label, &f3(SumXi.xi(&v)), &f3(NormXi.xi(&v))]);
    }
    t
}

/// Figure 4 is `hierarchy` and `delta-sweep`.
pub const KEYS: &[Key] = &[Key::new(
    "fig",
    Takes::Choice(&["1", "2", "3", "5", "6", "7"]),
)];

pub fn run(args: &Args) -> Report {
    let which = args.text("fig");
    let wanted = |n: &str| which.is_none_or(|w| w == n);
    let mut report = Report::default();
    if wanted("1") {
        report.table(fig1());
    }
    if wanted("2") || wanted("3") {
        report.table(fig2_3());
    }
    if wanted("5") {
        report.table(fig5());
    }
    if wanted("6") {
        report.table(fig6());
    }
    if wanted("7") {
        report.table(fig7());
    }
    report
}
