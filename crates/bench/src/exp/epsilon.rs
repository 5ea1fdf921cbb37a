//! Simulation study 3: sensitivity of the on-time classification to the
//! clock-synchronization bound ε (Definition 2 vs Definition 1).
//!
//! For a fixed population of replica-generated executions, sweeping ε
//! shrinks the `W_r` windows by 2ε, so (a) more reads classify as on time
//! and (b) the minimal Δ for timedness decreases — Figure 3's effect,
//! measured.

use super::Report;
use crate::{f3, pct, Table};
use tc_clocks::{Delta, Epsilon};
use tc_core::checker::{check_on_time, min_delta_eps};
use tc_core::generator::{replica_history, ReplicaHistoryConfig};

/// Replica histories judged.
const HISTORIES: u64 = 150;
const DELTA: Delta = Delta::from_ticks(40);

pub fn run() -> Report {
    let cfg = ReplicaHistoryConfig {
        delay: (10, 150),
        ops_per_site: 8,
        ..ReplicaHistoryConfig::default()
    };
    let histories: Vec<_> = (0..HISTORIES)
        .map(|seed| replica_history(&cfg, seed))
        .collect();

    let mut t = Table::new(
        format!("ε sensitivity of on-time classification (Δ={DELTA}, {HISTORIES} histories)"),
        &["ε", "timed fraction", "late reads (total)", "mean min-Δ"],
    );
    for e in [0u64, 5, 10, 20, 40, 80, 160] {
        let eps = Epsilon::from_ticks(e);
        let mut timed = 0usize;
        let mut late = 0usize;
        let mut min_deltas = 0.0;
        for h in &histories {
            let rep = check_on_time(h, DELTA, eps);
            timed += usize::from(rep.holds());
            late += rep.violations().len();
            min_deltas += min_delta_eps(h, eps).ticks() as f64;
        }
        t.row(&[
            &eps,
            &pct(timed as f64 / HISTORIES as f64),
            &late,
            &f3(min_deltas / HISTORIES as f64),
        ]);
    }
    let mut report = Report::default();
    report.table(t);
    report.note(
        "expected shape: timed fraction is monotone non-decreasing in ε and \
         mean minimal Δ is monotone non-increasing (each window shrinks by 2ε)",
    );
    report
}
