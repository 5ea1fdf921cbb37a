//! Checker scaling study: the naive O(R·W) batch checker vs the
//! sweep-line batch checker vs the streaming [`OnTimeMonitor`], over
//! replica-generated histories from 10² to 10⁷ operations.
//!
//! Each path computes the full timed verdict (`check_on_time` **and**
//! `min_delta`; the monitor produces both in one ingestion pass), and the
//! three reports are asserted equal before anything is timed — the
//! experiment doubles as a cross-validation at scale. The naive path is
//! capped at 10⁴ ops (beyond that it is minutes of pure rescanning; the
//! cap is reported in the table as `-`). A fourth `rebuild` path times
//! history *construction* (builder + index derivation) from pre-extracted
//! operation tuples, isolating the layout cost from the generator.
//!
//! Besides wall time, every row records **allocations per operation** and
//! **bytes per operation** via the counting global allocator
//! (`crate::alloc`), so allocation regressions
//! in the history layout or checker internals fail as loudly as time
//! regressions: a run (`tc-exp smoke` included) panics when the
//! `sweep_line` or `rebuild` path exceeds [`MAX_ALLOCS_PER_OP`].
//!
//! Outputs a table (`results/checker_scale.txt`). `tc-exp smoke` runs
//! [`smoke`]: sizes {100, 1000}, one rep each — the CI bench-rot check.

use std::time::Instant;

use super::Report;
use crate::{alloc, f3, Table};
use tc_clocks::{Delta, Epsilon};
use tc_core::checker::{
    check_on_time, check_on_time_naive, min_delta_eps, min_delta_eps_naive, OnTimeMonitor,
};
use tc_core::generator::{replica_history, ReplicaHistoryConfig};
use tc_core::{History, HistoryBuilder, Operation};

/// History sizes of the full run and of the smoke run.
const SIZES: &[usize] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
const SMOKE_SIZES: &[usize] = &[100, 1_000];
/// Largest size the naive path is run at.
const NAIVE_CAP: usize = 10_000;
/// Δ used for the timed check: half the worst-case propagation delay, so
/// violations actually occur and the violation paths are exercised.
const DELTA: Delta = Delta::from_ticks(30);
const EPS: Epsilon = Epsilon::from_ticks(3);
/// Allocation ceiling every run holds the `sweep_line` and `rebuild`
/// paths to: generous at small sizes, where fixed build costs amortize
/// over few ops (observed worst case 0.23, at 100 ops), but far below what any
/// accidental per-operation allocation would produce.
const MAX_ALLOCS_PER_OP: f64 = 0.5;

fn history_of(total_ops: usize) -> History {
    let cfg = ReplicaHistoryConfig {
        n_sites: 4,
        n_objects: 8,
        ops_per_site: total_ops / 4,
        read_fraction: 0.6,
        max_time_step: 12,
        delay: (5, 60),
    };
    replica_history(&cfg, 1)
}

/// One operation flattened to plain fields, for the `rebuild` path (the
/// closure must not touch the original `History`'s memory).
#[derive(Clone, Copy)]
struct OpTuple {
    write: bool,
    site: usize,
    object: u32,
    value: u64,
    time: u64,
}

fn tuples_of(h: &History) -> Vec<OpTuple> {
    h.iter()
        .map(|op| OpTuple {
            write: op.is_write(),
            site: op.site().index(),
            object: op.object().index(),
            value: op.value().raw(),
            time: op.time().ticks(),
        })
        .collect()
}

fn rebuild(tuples: &[OpTuple]) -> History {
    let mut b = HistoryBuilder::new();
    for t in tuples {
        if t.write {
            b.write(t.site, t.object, t.value, t.time);
        } else {
            b.read(t.site, t.object, t.value, t.time);
        }
    }
    b.build().expect("tuples came from a valid history")
}

/// Times `f` over `reps` evaluations, then counts the allocator traffic
/// of one more: (seconds per evaluation, traffic of one evaluation). The
/// probe is a separate un-timed evaluation so counter loads never sit
/// inside the timed loop.
fn measure<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, alloc::Counts) {
    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    let secs = started.elapsed().as_secs_f64() / reps as f64;
    (secs, alloc::measure(f).1)
}

/// The full run; repetitions scale down with size.
pub fn run() -> Report {
    scale(SIZES, |ops| (200_000 / ops).clamp(1, 100))
}

pub fn smoke() -> Report {
    scale(SMOKE_SIZES, |_| 1)
}

/// Measures every path at every size in `sizes`, timing `reps(ops)`
/// evaluations of each.
fn scale(sizes: &[usize], reps: fn(usize) -> usize) -> Report {
    let mut t = Table::new(
        format!(
            "Checker scaling: batch-naive vs sweep-line vs streaming monitor \
             vs history rebuild (replica histories, 4 sites, 8 objects, \
             Δ={}, ε={}; naive capped at {NAIVE_CAP} ops; allocs counted on)",
            DELTA.ticks(),
            EPS.ticks(),
        ),
        &[
            "ops",
            "path",
            "ms/check",
            "ops/sec",
            "violations",
            "allocs/op",
            "bytes/op",
        ],
    );

    for &size in sizes {
        let h = history_of(size);
        let ops = h.len();
        let tuples = tuples_of(&h);
        // Pre-sorted ingestion order for the monitor (the recorder's
        // natural feed); sorting is not part of the measured path.
        let mut sorted: Vec<Operation> = h.iter().collect();
        sorted.sort_by_key(|o| (o.time(), o.id()));

        // Cross-validate the paths before timing anything.
        let sweep = check_on_time(&h, DELTA, EPS);
        let sweep_min = min_delta_eps(&h, EPS);
        let ingest = || {
            let mut m = OnTimeMonitor::new(DELTA, EPS);
            for op in &sorted {
                m.ingest_op(op);
            }
            (m.min_delta(), m.into_report())
        };
        let (monitor_min, monitor_report) = ingest();
        assert_eq!(monitor_min, sweep_min, "monitor min_delta diverged");
        assert_eq!(monitor_report, sweep, "monitor report diverged");
        let run_naive = ops <= NAIVE_CAP;
        if run_naive {
            assert_eq!(check_on_time_naive(&h, DELTA, EPS), sweep, "sweep diverged");
            assert_eq!(
                min_delta_eps_naive(&h, EPS),
                sweep_min,
                "sweep min diverged"
            );
        }
        let violations = sweep.violations().len();

        let reps = reps(ops);

        let paths = [
            (
                "batch_naive",
                run_naive.then(|| {
                    let naive = || {
                        (
                            check_on_time_naive(&h, DELTA, EPS),
                            min_delta_eps_naive(&h, EPS),
                        )
                    };
                    measure(reps, naive)
                }),
            ),
            (
                "sweep_line",
                Some(measure(reps, || {
                    (check_on_time(&h, DELTA, EPS), min_delta_eps(&h, EPS))
                })),
            ),
            ("monitor", Some(measure(reps, ingest))),
            ("rebuild", Some(measure(reps, || rebuild(&tuples)))),
        ];
        for (path, measured) in paths {
            let Some((secs, counts)) = measured else {
                t.row(&[&ops, &path, &"-", &"-", &violations, &"-", &"-"]);
                continue;
            };
            let ops_per_sec = ops as f64 / secs;
            let allocs_per_op = counts.allocs as f64 / ops as f64;
            let bytes_per_op = counts.bytes as f64 / ops as f64;
            assert!(
                !matches!(path, "sweep_line" | "rebuild") || allocs_per_op <= MAX_ALLOCS_PER_OP,
                "{path} at {ops} ops: {allocs_per_op:.4} allocs/op > ceiling {MAX_ALLOCS_PER_OP}"
            );
            t.row(&[
                &ops,
                &path,
                &f3(secs * 1e3),
                &format!("{ops_per_sec:.0}"),
                &violations,
                &format!("{allocs_per_op:.4}"),
                &format!("{bytes_per_op:.1}"),
            ]);
        }
    }

    let mut report = Report::default();
    report.table(t);
    report.note(
        "expected shape: sweep_line and monitor ops/sec stay near-flat as \
         size grows; batch_naive ops/sec collapses linearly (O(R*W) total)",
    );
    report
}
