//! The experiment runner (`tc-exp`, [`exp`]) and the plumbing it shares
//! with the root test suites: table rendering, the ordered worker pool,
//! and the standard run configuration every sweep draws from.
//!
//! Each `tc-exp` subcommand regenerates one of the paper's figures or one
//! of the simulation studies its conclusion promises; [`exp::EXPERIMENTS`]
//! maps subcommands to paper artifacts and `results/` files, and
//! `EXPERIMENTS.md` records the measured outputs.

pub mod alloc;
pub mod exp;

use std::fmt::Display;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use tc_clocks::Delta;
use tc_core::{History, SiteId, Value};
use tc_lifetime::{ProtocolConfig, ProtocolKind, RunConfig};
use tc_sim::workload::Workload;
use tc_sim::WorldConfig;

/// A printable experiment table that can also be dumped as JSON with
/// `--json`.
#[derive(Debug)]
pub struct Table {
    /// Table title (figure/experiment id).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells, already rendered to strings.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(ToString::to_string).collect());
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:>w$} |", w = w));
            }
            line
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// The table as a JSON value (`{title, columns, rows}`).
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "title": (self.title.as_str()),
            "columns": (self.columns.clone()),
            "rows": (self.rows.clone()),
        })
    }
}

/// Worker count for [`parallel_map`]: `TC_BENCH_THREADS` when set (and
/// positive), otherwise the machine's available parallelism.
#[must_use]
pub fn pool_size() -> usize {
    std::env::var("TC_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs `f` over every item on a scoped worker pool and returns the
/// results **in input order** — experiment cells are independent, so
/// fanning them across cores changes wall-clock only, never output.
///
/// Work is handed out through a shared atomic cursor (no per-worker
/// striping), results come back over a channel tagged with their input
/// index and are re-sorted into place; the output is therefore
/// byte-identical to `items.iter().map(f).collect()` regardless of
/// scheduling. With one worker (or one item) it simply maps serially.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, pool_size(), f)
}

/// [`parallel_map`] with an explicit worker count.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map_with<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    let slots = std::thread::scope(|s| {
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    tx.send((i, f(&items[i])))
                        .expect("collector outlives workers");
                })
            })
            .collect();
        drop(tx);
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        // Joined by hand so a worker's own panic payload is what
        // propagates, not the scope's generic one.
        for worker in pool {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        slots
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index was produced exactly once"))
        .collect()
}

/// The standard simulation setup shared by the Δ-sweep experiments:
/// 4 clients, Zipf(0.8) over 8 objects, 70% reads, constant 3-tick network
/// latency, perfect clocks.
#[must_use]
pub fn standard_run(kind: ProtocolKind, seed: u64, ops_per_client: usize) -> RunConfig {
    RunConfig {
        protocol: ProtocolConfig::of(kind),
        n_clients: 4,
        workload: Workload::new(8, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40))),
        ops_per_client,
        world: WorldConfig::deterministic(Delta::from_ticks(3), seed),
    }
}

/// The driver-independent fingerprint of one site's behaviour: operation
/// kinds, objects, and written values in program order. Read *values* are
/// excluded — they depend on timing, the one thing concurrently-scheduled
/// drivers do not share. Equal fingerprints across drivers certify "same
/// engine, same inputs, same per-site program" (the invariant the
/// engine-equivalence suite asserts).
#[must_use]
pub fn site_fingerprint(history: &History, site: usize) -> Vec<(bool, u64, Option<Value>)> {
    history
        .site_ops(SiteId::new(site))
        .iter()
        .map(|&id| {
            let op = history.op(id);
            (
                op.is_write(),
                u64::from(op.object().index()),
                op.is_write().then(|| op.value()),
            )
        })
        .collect()
}

/// Format a float with 3 decimals (table cell helper).
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a rate as a percentage with 1 decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yy"]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| long-header |"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_validates_width() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[&1]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 5, 16] {
            assert_eq!(parallel_map_with(&items, workers, |x| x * x), serial);
        }
        assert_eq!(parallel_map(&items, |x| x * x), serial);
        assert!(parallel_map_with(&[] as &[u64], 4, |x| *x).is_empty());
    }

    #[test]
    fn parallel_map_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            parallel_map_with(&[1u64, 2, 3], 2, |&x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn standard_run_shape() {
        let cfg = standard_run(ProtocolKind::cc(), 1, 10);
        assert_eq!(cfg.n_clients, 4);
        assert_eq!(cfg.ops_per_client, 10);
    }
}
