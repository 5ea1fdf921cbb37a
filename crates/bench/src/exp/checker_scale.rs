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
//! (`crate::alloc`, `count-allocs` feature), so allocation regressions
//! in the history layout or checker internals fail as loudly as time
//! regressions: `tc-exp smoke` fails when the `sweep_line` or `rebuild`
//! path exceeds [`MAX_ALLOCS_PER_OP`].
//!
//! Outputs a table (`results/checker_scale.txt`) and, with `--out PATH`,
//! the machine-readable document checked in as `BENCH_checker.json`
//! (ops/sec and allocs/op per path and size).
//!
//! Flags: `--smoke` (sizes {100, 1000} and one rep — the CI bench-rot
//! check), `--out PATH`.

use std::time::Instant;

use super::{field, items, number, string, Args, Report};
use crate::{alloc, f3, Table};
use tc_clocks::{Delta, Epsilon};
use tc_core::checker::{
    check_on_time, check_on_time_naive, min_delta_eps, min_delta_eps_naive, OnTimeMonitor,
};
use tc_core::generator::{replica_history, ReplicaHistoryConfig};
use tc_core::{History, HistoryBuilder, Operation};

/// Largest size the naive path is run at.
const NAIVE_CAP: usize = 10_000;
/// Δ used for the timed check: half the worst-case propagation delay, so
/// violations actually occur and the violation paths are exercised.
const DELTA: Delta = Delta::from_ticks(30);
const EPS: Epsilon = Epsilon::from_ticks(3);
/// Allocation ceiling `tc-exp smoke` holds the `sweep_line` and `rebuild`
/// paths to: generous at smoke sizes, where fixed build costs amortize
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

pub fn run(args: &Args) -> Report {
    let smoke = args.switch("smoke");
    let sizes: &[usize] = if smoke {
        &[100, 1_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000]
    };

    let mut t = Table::new(
        format!(
            "Checker scaling: batch-naive vs sweep-line vs streaming monitor \
             vs history rebuild (replica histories, 4 sites, 8 objects, \
             Δ={}, ε={}; naive capped at {NAIVE_CAP} ops; allocs counted {})",
            DELTA.ticks(),
            EPS.ticks(),
            if alloc::enabled() { "on" } else { "OFF" },
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
    let mut results = Vec::new();

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

        // Repetitions scale down with size; --smoke runs everything once.
        let reps = if smoke {
            1
        } else {
            (200_000 / ops).clamp(1, 100)
        };

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
                results.push(serde_json::json!({
                    "ops": ops,
                    "path": path,
                    "skipped": (format!("naive path capped at {NAIVE_CAP} ops")),
                }));
                continue;
            };
            let ops_per_sec = ops as f64 / secs;
            let allocs_per_op = counts.allocs as f64 / ops as f64;
            let bytes_per_op = counts.bytes as f64 / ops as f64;
            t.row(&[
                &ops,
                &path,
                &f3(secs * 1e3),
                &format!("{ops_per_sec:.0}"),
                &violations,
                &format!("{allocs_per_op:.4}"),
                &format!("{bytes_per_op:.1}"),
            ]);
            results.push(serde_json::json!({
                "ops": ops,
                "path": path,
                "ms_per_check": (secs * 1e3),
                "ops_per_sec": ops_per_sec,
                "violations": violations,
                "allocs_per_op": allocs_per_op,
                "bytes_per_op": bytes_per_op,
            }));
        }
    }

    let mut report = Report::default();
    report.table(t);
    report.note(
        "expected shape: sweep_line and monitor ops/sec stay near-flat as \
         size grows; batch_naive ops/sec collapses linearly (O(R*W) total)",
    );
    let counting = alloc::enabled();
    report.doc = Some(serde_json::json!({
        "experiment": "checker_scale",
        "delta": (DELTA.ticks()),
        "eps": (EPS.ticks()),
        "naive_cap": NAIVE_CAP,
        "smoke": smoke,
        "alloc_counting": counting,
        "results": results,
    }));
    report
}

/// The document keeps its allocation columns, and — when the counting
/// allocator is installed — the layout-sensitive paths stay under
/// [`MAX_ALLOCS_PER_OP`].
pub fn check_smoke(report: &Report) -> Result<(), String> {
    let doc = report.doc.as_ref().ok_or("no document")?;
    let counting = field(doc, "alloc_counting")? == &serde_json::Value::Bool(true);
    let mut measured = 0;
    for row in items(doc, "results")? {
        if field(row, "skipped").is_ok() {
            continue;
        }
        measured += 1;
        let (path, ops) = (string(row, "path")?, number(row, "ops")?);
        let allocs_per_op = number(row, "allocs_per_op")?;
        number(row, "bytes_per_op")?;
        if counting
            && (path == "sweep_line" || path == "rebuild")
            && allocs_per_op > MAX_ALLOCS_PER_OP
        {
            return Err(format!(
                "{path} at {ops} ops: {allocs_per_op:.4} allocs/op > ceiling {MAX_ALLOCS_PER_OP}"
            ));
        }
    }
    if measured == 0 {
        return Err("no measured rows".to_string());
    }
    Ok(())
}
