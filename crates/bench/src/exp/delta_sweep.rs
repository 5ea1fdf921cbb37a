//! Figure 4b, empirically: as Δ grows, the set of TSC executions grows
//! from LIN (Δ = 0) to SC (Δ = ∞); likewise TCC grows from timed-CC to CC.
//!
//! Sweeps Δ over replica-generated histories with a fixed propagation
//! delay profile and reports the fraction satisfying each criterion —
//! the crossover happens around the propagation bound.
//!
//! Histories are independent, so generation and checking fan out over
//! [`crate::parallel_map`]: each history is generated and classified
//! once (LIN, SC, and on-time at every Δ of the sweep) in one parallel
//! pass, then the per-Δ rows aggregate the per-history verdicts — the
//! same numbers the serial nested loop produced, in the same order.
//!
//! Flags: `--histories N` (default 200).

use super::{Args, Report};
use crate::{parallel_map, pct, Table};
use tc_clocks::{Delta, Epsilon};
use tc_core::checker::{check_on_time, satisfies_lin, satisfies_sc_with, SearchOptions};
use tc_core::generator::{replica_history, ReplicaHistoryConfig};

/// The sweep, in ticks; `u64::MAX` is [`Delta::INFINITE`].
const DELTAS: [u64; 11] = [0, 10, 20, 40, 60, 80, 100, 120, 160, 240, u64::MAX];

/// Per-history verdicts, computed once.
struct Judged {
    lin: bool,
    sc: bool,
    on_time: Vec<bool>,
}

pub fn run(args: &Args) -> Report {
    let n = args.uint("histories").unwrap_or(200);

    let cfg = ReplicaHistoryConfig {
        delay: (10, 120),
        ops_per_site: 8,
        ..ReplicaHistoryConfig::default()
    };
    let opts = SearchOptions::default();

    let seeds: Vec<u64> = (0..n).collect();
    let judged = parallel_map(&seeds, |&seed| {
        let h = replica_history(&cfg, seed);
        Judged {
            lin: satisfies_lin(&h).holds(),
            sc: satisfies_sc_with(&h, opts).holds(),
            on_time: DELTAS
                .iter()
                .map(|&d| check_on_time(&h, Delta::from_ticks(d), Epsilon::ZERO).holds())
                .collect(),
        }
    });

    let lin_frac = judged.iter().filter(|j| j.lin).count() as f64 / n as f64;
    let sc_frac = judged.iter().filter(|j| j.sc).count() as f64 / n as f64;

    let mut t = Table::new(
        format!(
            "Figure 4b (empirical): TSC(Δ) fraction over {n} replica histories \
             (propagation delay 10-120); LIN = {}, SC = {}",
            pct(lin_frac),
            pct(sc_frac)
        ),
        &["Δ", "timed", "TSC", "TCC"],
    );

    for (i, &d) in DELTAS.iter().enumerate() {
        let mut timed = 0usize;
        let mut tsc = 0usize;
        let mut tcc = 0usize;
        for j in &judged {
            let on_time = j.on_time[i];
            timed += usize::from(on_time);
            if on_time {
                // Replica histories are CC by construction.
                tcc += 1;
                if j.sc {
                    tsc += 1;
                }
            }
        }
        t.row(&[
            &Delta::from_ticks(d),
            &pct(timed as f64 / n as f64),
            &pct(tsc as f64 / n as f64),
            &pct(tcc as f64 / n as f64),
        ]);
    }
    let mut report = Report::default();
    report.table(t);
    report.note(
        "expected shape: TSC rises from the LIN fraction at Δ=0 to the SC \
         fraction at Δ=∞; TCC reaches 100% once Δ covers the 120-tick delay bound",
    );
    report
}
