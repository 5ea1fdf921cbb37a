//! Fault-rate × Δ sweep under the conformance oracle: how much message
//! loss can the TSC / TCC protocols absorb before they start trading
//! progress (stalls, retries) for safety — and does the oracle ever catch
//! them lying?
//!
//! For each drop rate and Δ, runs the protocol over several seeds under a
//! whole-run probabilistic drop rule (plus a fixed 20-tick reorder rule so
//! losses interleave with reordering), then reports the oracle verdicts,
//! completed-op fraction, observed staleness vs the fault-free bound, and
//! retry traffic. Violations should be *zero* at every point of the sweep;
//! everything else is the price of the faults.
//!
//! Every (Δ, protocol, drop rate, seed) cell is an independent simulation,
//! so the sweep fans out over [`crate::parallel_map`]; results are
//! re-ordered by input index, making the table (and every per-seed oracle
//! verdict) byte-identical to the serial path.
//!
//! Flags: `--seeds N` (default 5), `--ops N` (default 40).
//! (`TC_BENCH_THREADS=1` pins the pool to one worker for A/B wall-clock
//! runs under `time`.)

use super::{Args, Report};
use crate::{f3, parallel_map, pct, standard_run, Table};
use tc_clocks::Delta;
use tc_lifetime::{conformance, run_with_faults, OracleVerdict, ProtocolKind};
use tc_sim::metrics::names;
use tc_sim::{FaultKind, FaultPlan, Scope, Window};

fn plan(drop_rate: f64) -> FaultPlan {
    let p = FaultPlan::none().with(
        Window::always(),
        Scope::All,
        FaultKind::Reorder {
            max_jitter: Delta::from_ticks(20),
        },
    );
    if drop_rate > 0.0 {
        p.with(
            Window::always(),
            Scope::All,
            FaultKind::Drop {
                probability: drop_rate,
            },
        )
    } else {
        p
    }
}

/// One independent simulation of the sweep.
struct Cell {
    kind: ProtocolKind,
    drop_rate: f64,
    seed: u64,
}

/// What one simulation contributes to its table row.
struct CellStats {
    verdict: OracleVerdict,
    done: usize,
    expected: usize,
    staleness: u64,
    retries: u64,
}

pub fn run(args: &Args) -> Report {
    let seeds = args.uint("seeds").unwrap_or(5);
    let ops = args.uint("ops").unwrap_or(40) as usize;

    let mut t = Table::new(
        format!(
            "Fault tolerance sweep: drop rate x Δ, {seeds} seeds x {ops} \
             ops/client, whole-run drop + 20-tick reorder jitter \
             (verdicts from the checker-in-the-loop oracle)"
        ),
        &[
            "protocol",
            "Δ",
            "drop",
            "conform",
            "stall",
            "violate",
            "ops done",
            "staleness p100",
            "retries/run",
        ],
    );

    // Flatten the sweep into independent cells, innermost index = seed.
    let mut cells = Vec::new();
    for delta in [40u64, 80, 160] {
        for kind in [
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(delta),
            },
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(delta),
            },
        ] {
            for drop_rate in [0.0, 0.05, 0.15, 0.30] {
                for seed in 0..seeds {
                    cells.push(Cell {
                        kind,
                        drop_rate,
                        seed,
                    });
                }
            }
        }
    }

    let stats = parallel_map(&cells, |cell| {
        let cfg = standard_run(cell.kind, cell.seed, ops);
        let p = plan(cell.drop_rate);
        let result = run_with_faults(&cfg, p.clone());
        let c = conformance(&cfg, &p, &result);
        CellStats {
            verdict: c.verdict,
            done: c.ops_recorded,
            expected: c.ops_expected,
            staleness: c.observed_staleness.ticks(),
            retries: result.counter(names::RETRY)
                + result.counter(names::CAUSAL_RETRANSMIT)
                + result.counter(names::STALE_REPLY),
        }
    });

    for (group, runs) in cells
        .chunks(seeds as usize)
        .zip(stats.chunks(seeds as usize))
    {
        let cell = &group[0];
        let mut conforms = 0usize;
        let mut stalls = 0usize;
        let mut violations = 0usize;
        let mut done = 0usize;
        let mut expected = 0usize;
        let mut worst_staleness = 0u64;
        let mut retries = 0u64;
        for s in runs {
            match s.verdict {
                OracleVerdict::Conforms => conforms += 1,
                OracleVerdict::Stalled => stalls += 1,
                OracleVerdict::Violated(_) => violations += 1,
            }
            done += s.done;
            expected += s.expected;
            worst_staleness = worst_staleness.max(s.staleness);
            retries += s.retries;
        }
        let delta = match cell.kind {
            ProtocolKind::Tsc { delta } | ProtocolKind::Tcc { delta } => delta.ticks(),
            _ => unreachable!("sweep only covers the timed protocols"),
        };
        let n = seeds as f64;
        t.row(&[
            &cell.kind.label(),
            &delta,
            &pct(cell.drop_rate),
            &pct(conforms as f64 / n),
            &pct(stalls as f64 / n),
            &pct(violations as f64 / n),
            &pct(done as f64 / expected as f64),
            &worst_staleness,
            &f3(retries as f64 / n),
        ]);
    }
    let mut report = Report::default();
    report.table(t);
    report.note(
        "expected shape: violations stay at 0.0% everywhere; higher drop \
         rates cost retries and (at tight Δ) stalls, never safety",
    );
    report
}
