//! Metric names, units, directions and bounds; what a run measured; how it
//! is printed, written and compared.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which of a metric's samples (one per repetition) is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// The quartile on the better side: the upper one for a throughput,
    /// the lower one for a time. A repetition on a shared host is only
    /// ever slowed by what else runs there, for seconds at a time, so the
    /// better quartile repeats from run to run where the median follows
    /// the disturbance.
    BetterQuartile,
    /// The best sample. For `setup_s` only: a reactor fleet's stop either
    /// catches the shard's last poll or waits out one more poll tick (up to
    /// 5 ms on 2 ms of work), and which it is most of the time changes from
    /// run to run. The work itself is what the quickest set-up shows.
    Best,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub pick: Pick,
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        pick: Pick::BetterQuartile,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        pick: Pick::BetterQuartile,
    }
}

const SETUP: Def = Def {
    pick: Pick::Best,
    ..lo("setup_s", "s")
};

/// What a user of the system sees, with the share of the parent's value
/// by which each may get worse before a change counts as a regression.
/// `BENCHMARK.json` states the same list; a test keeps the two equal.
///
/// The two timings carry the widest bound the benchmark contract allows:
/// on the shared two-core hosts this runs on, machine speed drifts by
/// 10-20% within minutes (see README, "How steady it is").
pub const END_TO_END: [(Def, f64); 4] = [
    (SETUP, 0.25),
    (hi("ops_per_s", "ops/s"), 0.25),
    (lo("msgs_per_op", "msg/op"), 0.02),
    (lo("wire_bytes_per_op", "B/op"), 0.02),
];

/// The ledger: one layer per module, time as self time per completed
/// operation unless the name says otherwise.
pub const PER_LAYER: [Def; 49] = [
    lo("engine.client_ns_per_op", "ns/op"),
    lo("engine.client_calls_per_op", "1/op"),
    hi("engine.hit_rate", "ratio"),
    lo("engine.retries_per_op", "1/op"),
    lo("engine.allocs_per_op", "1/op"),
    lo("engine.server_ns_per_op", "ns/op"),
    lo("engine.server_calls_per_op", "1/op"),
    lo("store.apply_ns_per_write", "ns"),
    lo("store.read_ns_per_req", "ns"),
    lo("store.sync_ns_per_write", "ns"),
    lo("store.syncs_per_write", "ratio"),
    lo("durable.bytes_per_write", "B"),
    lo("durable.cold_replay_ms", "ms"),
    lo("wire.encode_ns_per_frame", "ns"),
    lo("wire.decode_ns_per_frame", "ns"),
    lo("wire.bytes_per_frame", "B"),
    lo("wire.frames_per_op", "1/op"),
    lo("wire.allocs_per_frame", "count"),
    lo("monitor.ingest_ns_per_op", "ns/op"),
    lo("recorder.record_ns_per_op", "ns/op"),
    lo("metrics.add_ns_per_call", "ns"),
    lo("metrics.calls_per_op", "1/op"),
    lo("monitor.stale_max_ticks", "ticks"),
    lo("monitor.late_writes", "count"),
    lo("clocks.vc_ns_per_op", "ns"),
    lo("checker.recheck_ns_per_op", "ns/op"),
    lo("sim.ns_per_op", "ns/op"),
    lo("sim.events_per_op", "1/op"),
    lo("sim.ns_per_op_short", "ns/op"),
    lo("sim.ns_per_op_8obj", "ns/op"),
    lo("driver.wall_ns_per_op", "ns/op"),
    lo("driver.cpu_ns_per_op", "ns/op"),
    lo("driver.sys_share", "ratio"),
    lo("driver.idle_share", "ratio"),
    lo("driver.residual_ns_per_op", "ns/op"),
    lo("driver.lat_mean_us", "us"),
    lo("driver.lat_p99_us", "us"),
    lo("driver.lat_max_us", "us"),
    lo("driver.shard_requests_per_op", "1/op"),
    lo("process.rss_peak_mib", "MiB"),
    lo("ledger.layers_ns_per_op", "ns/op"),
    lo("ledger.wait_ns_per_op", "ns/op"),
    lo("ledger.loop_ns_per_op", "ns/op"),
    lo("ledger.untraced_ns_per_op", "ns/op"),
    lo("ledger.trace_overhead_ratio", "ratio"),
    lo("ledger.reconcile_ratio", "ratio"),
    lo("ledger.span_clock_ns", "ns"),
    lo("ledger.span_in_loop_ns", "ns"),
    lo("ledger.spans_per_op", "1/op"),
];

/// The `p`-quantile of `sorted`, interpolating between neighbours.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// One metric of one run: one sample per repetition.
pub struct Measured {
    pub name: &'static str,
    pub samples: Vec<f64>,
}

/// A metric's samples in order, and the one number reported for them.
struct Summary {
    value: f64,
    sorted: Vec<f64>,
}

impl Summary {
    fn quantile(&self, p: f64) -> f64 {
        quantile(&self.sorted, p)
    }

    fn min(&self) -> f64 {
        self.sorted[0]
    }

    fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }
}

impl Measured {
    pub fn one(name: &'static str, value: f64) -> Measured {
        Measured {
            name,
            samples: vec![value],
        }
    }

    fn summary(&self, def: &Def) -> Summary {
        assert!(!self.samples.is_empty(), "a metric needs a sample");
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let p = match (def.pick, def.better) {
            (Pick::BetterQuartile, Better::Higher) => 0.75,
            (Pick::BetterQuartile, Better::Lower) => 0.25,
            (Pick::Best, Better::Higher) => 1.0,
            (Pick::Best, Better::Lower) => 0.0,
        };
        Summary {
            value: quantile(&sorted, p),
            sorted,
        }
    }
}

/// What one run of one workload produced: either the end-to-end metrics
/// (real driver, spans off) or the per-layer ledger.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations or checks failed, and anything the ledger flags.
    pub notes: Vec<String>,
    pub metrics: Vec<Measured>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics in definition order, each with its definition.
    ///
    /// # Panics
    ///
    /// Panics if a defined metric was not measured — a bug in this
    /// benchmark that must not reach a result line.
    fn rows(&self) -> Vec<(&'static Def, Summary)> {
        let defs: Vec<&'static Def> = if self.traced {
            PER_LAYER.iter().collect()
        } else {
            END_TO_END.iter().map(|(d, _)| d).collect()
        };
        assert_eq!(
            defs.len(),
            self.metrics.len(),
            "measured exactly the defined metrics"
        );
        defs.into_iter()
            .map(|d| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                (d, m.summary(d))
            })
            .collect()
    }

    /// The result object the benchmark contract asks for on the last line
    /// of standard output.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.rows()
                        .into_iter()
                        .map(|(d, s)| {
                            (
                                d.name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(s.value)),
                                    ("unit", Json::str(d.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The metrics as a result file keeps them, samples included.
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.rows()
                .into_iter()
                .map(|(d, s)| {
                    (
                        d.name.to_string(),
                        Json::obj([
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better.word())),
                            ("value", Json::Num(s.value)),
                            ("median", Json::Num(s.quantile(0.5))),
                            ("q1", Json::Num(s.quantile(0.25))),
                            ("q3", Json::Num(s.quantile(0.75))),
                            ("min", Json::Num(s.min())),
                            ("max", Json::Num(s.max())),
                            ("n", Json::Num(s.sorted.len() as f64)),
                            (
                                "samples",
                                Json::Arr(s.sorted.iter().map(|v| Json::Num(*v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn print(&self) {
        let kind = if self.traced {
            "per-layer ledger"
        } else {
            "end to end"
        };
        println!("== {} · {kind}", self.workload);
        println!(
            "{:<32} {:>12} {:>12} {:>12} {:>12} {:>3}  {:<7} {:<6} bound",
            "metric", "value", "median", "min", "max", "n", "unit", "better"
        );
        for (d, s) in self.rows() {
            let bound = END_TO_END
                .iter()
                .find(|(e, _)| e.name == d.name && !self.traced)
                .map_or_else(|| "-".to_string(), |(_, b)| format!("{:.0}%", b * 100.0));
            println!(
                "{:<32} {:>12} {:>12} {:>12} {:>12} {:>3}  {:<7} {:<6} {bound}",
                d.name,
                short(s.value),
                short(s.quantile(0.5)),
                short(s.min()),
                short(s.max()),
                s.sorted.len(),
                d.unit,
                d.better.word(),
            );
        }
        println!("value: the better quartile of the n repetitions (setup_s: the best; n = 1: the sample)");
        println!(
            "attempted {} · failed {} · {}",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        for note in &self.notes {
            println!("  ! {note}");
        }
    }

    /// Where a real-driver operation's time goes, from a per-layer
    /// outcome: CPU time as ledger layers plus the driver's own residual,
    /// and wall time as CPU plus idle.
    pub fn print_attribution(&self) {
        let rows = self.rows();
        let v = |name: &str| {
            let row = rows.iter().find(|(d, _)| d.name == name);
            row.unwrap_or_else(|| panic!("no metric {name}")).1.value
        };
        println!("attribution, per completed operation of the real driver:");
        println!(
            "  cpu {} ns = layers {} ns (engine + store + wire + monitor + recorder + metrics on the processor, from the ledger loop) + driver residual {} ns; {:.0}% of cpu is kernel time",
            short(v("driver.cpu_ns_per_op")),
            short(v("ledger.layers_ns_per_op")),
            short(v("driver.residual_ns_per_op")),
            v("driver.sys_share") * 100.0,
        );
        println!(
            "  wall {} ns on each busy thread: {:.0}% of that thread time is idle (timers, poll sleeps, waiting for the peer)",
            short(v("driver.wall_ns_per_op")),
            v("driver.idle_share") * 100.0,
        );
        println!(
            "  ledger loop: {} ns/op with spans off, x{:.2} with spans on; layer self times add up to {:.3} of the former",
            short(v("ledger.untraced_ns_per_op")),
            v("ledger.trace_overhead_ratio"),
            v("ledger.reconcile_ratio"),
        );
    }
}

/// Five significant digits: enough to read, the files keep every digit.
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e5 {
        format!("{v:.0}")
    } else {
        let digits = (4 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// One metric of one workload, as read back from a result file.
struct Side {
    value: f64,
    q1: f64,
    q3: f64,
    min: f64,
    max: f64,
}

fn side(file: &Json, workload: &str, group: &str, metric: &str) -> Option<Side> {
    let w = file
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?;
    let m = w.get(group)?.get(metric)?;
    let field = |key| m.get(key)?.as_f64();
    Some(Side {
        value: field("value")?,
        q1: field("q1")?,
        q3: field("q3")?,
        min: field("min")?,
        max: field("max")?,
    })
}

/// Compares result file `b` (the change) against `a` (the parent): one row
/// per (end-to-end metric, workload), judged by the metric's direction and
/// bound, then the ledger's rows with their ratios. Returns how many pairs
/// of gated workloads regressed.
///
/// A pair is `unresolved` when it did not regress but the repetitions of
/// either side spread wider than the bound (distance between their
/// quartiles, as a share of the value) — unless every repetition of `b`
/// reads better than every repetition of `a`.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let listed = a
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("the first file has no `workloads`")?;
    let names: Vec<&str> = listed
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    // A workload outside `BENCHMARK.json` is reported, not counted.
    let ungated = |name: &str| {
        listed.iter().any(|w| {
            w.get("name").and_then(Json::as_str) == Some(name)
                && w.get("gated") == Some(&Json::Bool(false))
        })
    };
    let mut regressions = 0;
    println!(
        "{:<14} {:<18} {:>11} {:>23} {:>11} {:>23} {:>8}  verdict",
        "workload", "metric", "A value", "A min..max", "B value", "B min..max", "B/A"
    );
    for w in &names {
        for (d, bound) in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                side(a, w, "end_to_end", d.name),
                side(b, w, "end_to_end", d.name),
            ) else {
                return Err(format!("{w}/{} is missing from a file", d.name));
            };
            let worse_by = match d.better {
                Better::Higher => (sa.value - sb.value) / sa.value,
                Better::Lower => (sb.value - sa.value) / sa.value,
            };
            let spread = |s: &Side| (s.q3 - s.q1) / s.value;
            let all_better = match d.better {
                Better::Higher => sb.min > sa.max,
                Better::Lower => sb.max < sa.min,
            };
            let verdict = if worse_by > *bound && ungated(w) {
                "regressed, not gated"
            } else if worse_by > *bound {
                regressions += 1;
                "REGRESSED"
            } else if all_better {
                "better"
            } else if spread(&sa).max(spread(&sb)) > *bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{:<14} {:<18} {:>11} {:>23} {:>11} {:>23} {:>8.4}  {verdict} ({} is better, bound {:.0}%)",
                w,
                d.name,
                short(sa.value),
                format!("{}..{}", short(sa.min), short(sa.max)),
                short(sb.value),
                format!("{}..{}", short(sb.min), short(sb.max)),
                sb.value / sa.value,
                d.better.word(),
                bound * 100.0,
            );
        }
    }
    println!("\nledger (no bounds; B/A is the change's value over the parent's)");
    for w in &names {
        for d in &PER_LAYER {
            if let (Some(sa), Some(sb)) = (
                side(a, w, "per_layer", d.name),
                side(b, w, "per_layer", d.name),
            ) {
                let ratio = if sa.value == 0.0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", sb.value / sa.value)
                };
                println!(
                    "{:<14} {:<32} {:>12} {:>12} {:>8}",
                    w,
                    d.name,
                    short(sa.value),
                    short(sb.value),
                    ratio
                );
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(ops: [f64; 3]) -> Json {
        let outcome = Outcome {
            workload: "sat-mixed",
            traced: false,
            attempted: 1,
            failed: 0,
            notes: Vec::new(),
            metrics: END_TO_END
                .iter()
                .map(|(d, _)| Measured {
                    name: d.name,
                    samples: if d.name == "ops_per_s" {
                        ops.to_vec()
                    } else {
                        vec![1.0]
                    },
                })
                .collect(),
        };
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("sat-mixed")),
                ("end_to_end", outcome.metrics_json()),
            ])]),
        )])
    }

    #[test]
    fn a_drop_past_the_bound_is_a_regression_and_a_small_one_is_not() {
        let parent = file([100.0, 101.0, 99.0]);
        assert_eq!(compare(&parent, &file([100.5, 99.5, 100.0])), Ok(0));
        assert_eq!(compare(&parent, &file([85.0, 86.0, 84.0])), Ok(0));
        assert_eq!(compare(&parent, &file([70.0, 71.0, 69.0])), Ok(1));
        // Higher throughput is never a regression.
        assert_eq!(compare(&parent, &file([150.0, 151.0, 149.0])), Ok(0));
    }

    #[test]
    fn the_reported_value_is_the_better_quartile() {
        let m = Measured {
            name: "x",
            samples: vec![5.0, 1.0, 3.0, 2.0, 4.0],
        };
        assert_eq!(m.summary(&hi("x", "u")).value, 4.0);
        assert_eq!(m.summary(&lo("x", "u")).value, 2.0);
        assert_eq!(m.summary(&lo("x", "u")).quantile(0.5), 3.0);
        assert_eq!(m.summary(&SETUP).value, 1.0);
        assert_eq!(Measured::one("x", 7.0).summary(&hi("x", "u")).value, 7.0);
    }
}
