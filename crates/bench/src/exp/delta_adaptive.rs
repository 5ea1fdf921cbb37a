//! Adaptive Δ vs the best static Δ, under fault bursts.
//!
//! The lifetime protocol keeps its Δ promise under message faults *by
//! construction*: a delayed response carries a server-stamped lifetime
//! that has already expired by the time it limps in, so the client
//! refetches instead of serving it — drops and jitter cost round trips,
//! never correctness. A static Δ therefore picks its poison up front:
//! tight, and every fault burst turns the validation traffic into retry
//! storms; loose, and every quiet phase serves stale data the network
//! could easily have refreshed. The adaptive control plane refuses the
//! trade: it holds Δ at the tight floor while the fleet keeps up and
//! relaxes the moment backpressure (retries) says round trips are
//! expensive, committing the whole path as a judged Δ-schedule.
//!
//! This experiment runs a static sweep and the adaptive controller over
//! identical fault plans (two drop+jitter bursts on a contended
//! read-mostly workload, where readers are rarely the writers and cache
//! entries genuinely age toward Δ) and scores every run on three axes:
//!
//! * **violations** against the promised Δ — the static scalar or the
//!   in-force schedule — widened only by the tight fault-free margin
//!   (round trip + 2ε + slack), with the oracle judging the adaptive
//!   runs against the schedule actually in force;
//! * **staleness**: mean *missed freshness* — for every read, how long
//!   a newer write had already been sitting at the server while the
//!   read served the older value (zero for a read nothing had
//!   outdated). This is the quantity Δ enforcement caps;
//! * **traffic**: total round trips (validations + fetches), plus the
//!   retries the fault windows forced — the price of freshness, and
//!   what a burst multiplies when Δ is held tight through it.
//!
//! Headline, asserted at exit: at equal (zero) violation count the
//! adaptive run serves fresher data (lower missed freshness) than the
//! static Δ of equal budget (its time-averaged Δ), and no static
//! configuration matches it on staleness, traffic, and budget at once.
//!
//! Outputs a table (`results/adaptive_delta.txt`) and two
//! Chrome/Perfetto trace-event timelines, which `tc-exp delta-adaptive
//! --trace PATH` writes: the adaptive run at `PATH` (Δ-schedule counter
//! track, per-site op slices, send→recv flow arrows, timer marks) and the
//! loose static ceiling at `PATH.static.json` for side-by-side comparison.
//! `tc-exp smoke` runs [`smoke`] (one seed, short runs) and checks both
//! timelines' shape.

use std::collections::HashMap;

use super::Report;
use crate::{f3, Table};
use serde_json::Value as Json;
use tc_clocks::{Delta, Epsilon, Time};
use tc_core::checker::{OnTimeMonitor, OnTimeViolation};
use tc_core::{History, ObjectId, OpKind, Value};
use tc_lifetime::{
    conformance, run_with, ControllerConfig, DeltaSchedule, ProtocolConfig, ProtocolKind,
    RunConfig, RunOptions, RunResult,
};
use tc_sim::workload::Workload;
use tc_sim::{FaultKind, FaultPlan, Scope, Window, WorldConfig};
use tc_trace::export_run;

/// Loose ceiling Δ: survives the bursts cheaply, overpays staleness in
/// quiet phases. The static sweep tops out here and the adaptive
/// controller uses it as `delta_max`.
const BASE_DELTA: u64 = 400;
/// Tight floor Δ: the freshness a healthy network sustains. The
/// adaptive run starts here (`delta_min`), so the anchor it measures is
/// the enforced-tight staleness, not the loose start's.
const FLOOR_DELTA: u64 = 80;
/// Network latency (ticks) of the deterministic world.
const LAT: u64 = 2;
/// Static sweep, tightest first.
const STATIC_DELTAS: [u64; 4] = [60, 120, 240, BASE_DELTA];
const N_CLIENTS: usize = 3;
/// Operations per client and seeds of the full run, and of the smoke run.
const OPS: usize = 320;
const SEEDS: usize = 3;
const SMOKE_OPS: usize = 100;
const SMOKE_SEEDS: usize = 1;
/// The suffix each timeline's path adds to the `--trace` path.
const ADAPTIVE_TRACE: &str = "";
const STATIC_TRACE: &str = ".static.json";
/// Retry pacing: slow enough that a jittered-but-undropped response is
/// not raced (and masked) by a fresh retransmission, fast enough that
/// dropped requests surface as backpressure mid-burst.
const RETRY_AFTER: u64 = 120;
/// Each burst: drops start `BURST_LEAD` ticks before the jitter does
/// (queues build before reordering peaks), then both run for
/// `BURST_LEN` ticks.
const BURST_LEAD: u64 = 120;
const BURST_LEN: u64 = 400;
/// Peak delivery jitter inside a burst. Kept under `BASE_DELTA` minus
/// the tight margin so the loose ceiling genuinely survives the bursts.
const JITTER: u64 = 350;

/// The tight fault-free widening: one TSC round trip (2·lat), the ±ε
/// allowance on both endpoints (ε = 0 here: perfect clocks), and the
/// harness's constant slack. Deliberately excludes the oracle's
/// disruption and retry terms — a fault that broke enforcement would
/// show up as a violation, not be excused.
fn tight_margin(eps: Epsilon) -> Delta {
    Delta::from_ticks(2 * LAT + 2 * eps.ticks() + 4)
}

/// Contended read-mostly workload: 4 hot objects under Zipf 1.0, 90%
/// reads, short think times. Re-reads come fast enough that cache
/// entries live out their whole lifetime — so entry age really does
/// sweep up toward Δ — while the other clients' writes (fleet-wide, one
/// every few dozen ticks on the hot object) make that age cost real
/// staleness. A write-heavy mix would hide Δ entirely: writers refresh
/// their own cache on every store.
fn workload() -> Workload {
    Workload::new(4, 1.0, 0.9, (Delta::from_ticks(5), Delta::from_ticks(15)))
}

fn config(delta: u64, ops: usize, seed: u64) -> RunConfig {
    let mut protocol = ProtocolConfig::of(ProtocolKind::Tsc {
        delta: Delta::from_ticks(delta),
    });
    protocol.retry_after = Delta::from_ticks(RETRY_AFTER);
    RunConfig {
        protocol,
        n_clients: N_CLIENTS,
        workload: workload(),
        ops_per_client: ops,
        world: WorldConfig::deterministic(Delta::from_ticks(LAT), seed),
    }
}

/// Controller tuned for hostile air: the law's 3:2 headroom ratio over
/// the observed staleness high-water and the tight floor keep the in-force
/// Δ ahead of the staleness front a burst can build between two
/// controller ticks, without parking the quiet-phase equilibrium far
/// above what the fleet needs.
fn controller() -> ControllerConfig {
    ControllerConfig::new(
        Delta::from_ticks(FLOOR_DELTA),
        Delta::from_ticks(BASE_DELTA),
        Delta::from_ticks(40),
    )
}

/// Two fault bursts placed inside the measured horizon: drops (retry
/// pressure — the controller's early warning) leading into delivery
/// jitter (genuinely reordered messages).
fn bursts(horizon: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for pos in [horizon * 18 / 100, horizon * 60 / 100] {
        plan = plan
            .with(
                Window::ticks(pos.saturating_sub(BURST_LEAD), pos + BURST_LEN),
                Scope::All,
                FaultKind::Drop { probability: 0.25 },
            )
            .with(
                Window::ticks(pos, pos + BURST_LEN),
                Scope::All,
                FaultKind::Reorder {
                    max_jitter: Delta::from_ticks(JITTER),
                },
            );
    }
    plan
}

/// Judged-at-tight-margin outcome of one run.
struct Judged {
    violations: Vec<OnTimeViolation>,
    min_delta: Delta,
}

/// Replays a finished history through a fresh monitor whose threshold is
/// the *promised* Δ — the static scalar, or the adaptive schedule in
/// force at each read's own instant — widened only by [`tight_margin`].
fn judge(history: &History, eps: Epsilon, base: Delta, schedule: Option<&DeltaSchedule>) -> Judged {
    let margin = tight_margin(eps);
    let mut monitor = OnTimeMonitor::new(base + margin, eps);
    if let Some(schedule) = schedule {
        schedule.apply_to(&mut monitor, margin);
    }
    monitor.ingest_history(history);
    Judged {
        violations: monitor.violations().to_vec(),
        min_delta: monitor.min_delta(),
    }
}

/// Mean *missed freshness* over all reads: for each read, the number of
/// ticks a strictly newer write to the same object had already been
/// applied at the server while this read returned the older value (zero
/// when the read's value was still the newest). Unlike raw value age —
/// which is dominated by how often anyone happens to write — this is
/// the staleness a tighter Δ would actually have removed, and Δ
/// enforcement caps it at roughly Δ plus the round-trip margin.
fn mean_missed_freshness(history: &History) -> f64 {
    let mut writers: HashMap<(ObjectId, Value), Time> = HashMap::new();
    let mut writes_by_obj: HashMap<ObjectId, Vec<u64>> = HashMap::new();
    for op in history.iter() {
        if op.kind() == OpKind::Write {
            writers.insert((op.object(), op.value()), op.time());
            writes_by_obj
                .entry(op.object())
                .or_default()
                .push(op.time().ticks());
        }
    }
    for times in writes_by_obj.values_mut() {
        times.sort_unstable();
    }
    let (mut sum, mut n) = (0u64, 0u64);
    for op in history.iter() {
        if op.kind() != OpKind::Read {
            continue;
        }
        n += 1;
        let t_read = op.time().ticks();
        // Ticks the returned value had been live; initial values date
        // from the beginning of time.
        let t_value = if op.value().is_initial() {
            0
        } else {
            match writers.get(&(op.object(), op.value())) {
                Some(t) => t.ticks(),
                None => continue,
            }
        };
        if let Some(times) = writes_by_obj.get(&op.object()) {
            // Earliest strictly-newer write that had landed before the
            // read completed: everything after it was missed time.
            let next = times.partition_point(|&t| t <= t_value);
            if let Some(&t_next) = times.get(next) {
                sum += t_read.saturating_sub(t_next);
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Per-configuration scoreboard aggregated over seeds.
#[derive(Clone, Copy, Default)]
struct Score {
    violations: usize,
    staleness: f64,
    max_staleness: u64,
    retries: u64,
    round_trips: u64,
}

impl Score {
    fn absorb(&mut self, result: &RunResult, judged: &Judged, seeds: usize) {
        self.violations += judged.violations.len();
        self.staleness += mean_missed_freshness(&result.history) / seeds as f64;
        self.max_staleness = self.max_staleness.max(judged.min_delta.ticks());
        self.retries += result.counter(tc_sim::metrics::names::RETRY);
        self.round_trips += result.counter(tc_sim::metrics::names::VALIDATE)
            + result.counter(tc_sim::metrics::names::FETCH);
    }
}

pub fn run() -> Report {
    compare(OPS, SEEDS)
}

pub fn smoke() -> Report {
    compare(SMOKE_OPS, SMOKE_SEEDS)
}

/// The static sweep and the adaptive runs, `ops` per client over the
/// first `n_seeds` seeds, with both timelines of the first seed.
fn compare(ops: usize, n_seeds: usize) -> Report {
    let mut report = Report::default();
    let seeds: Vec<u64> = [7_u64, 42, 1999, 31337, 77, 1234]
        .into_iter()
        .take(n_seeds)
        .collect();

    // Measure the fault-free horizon once so the burst windows land well
    // inside the run rather than guessing at the workload's pacing.
    let calib = tc_lifetime::run(&config(BASE_DELTA, ops, seeds[0]));
    let horizon = calib.finished_at.ticks();
    let shards = config(BASE_DELTA, ops, 0).protocol.shards;

    let mut t = Table::new(
        format!(
            "Adaptive Δ vs static sweep under fault bursts (TSC, {N_CLIENTS} clients × {ops} \
             ops, contended read-mostly workload, 2 bursts of 25% drop + {JITTER}-tick \
             jitter over ~{horizon} ticks, {} seed(s); judged at the tight fault-free margin)",
            seeds.len()
        ),
        &[
            "config",
            "violations",
            "Δ budget",
            "staleness",
            "max staleness",
            "retries",
            "round trips",
        ],
    );

    // Static sweep.
    let mut static_scores = Vec::new();
    for &d in &STATIC_DELTAS {
        let mut score = Score::default();
        for (i, &seed) in seeds.iter().enumerate() {
            let cfg = config(d, ops, seed);
            let result = run_with(
                &cfg,
                RunOptions {
                    plan: bursts(horizon),
                    traced: true,
                    ..RunOptions::default()
                },
            );
            let judged = judge(&result.history, result.epsilon, Delta::from_ticks(d), None);
            score.absorb(&result, &judged, seeds.len());
            // The loose ceiling's timeline, for side-by-side comparison —
            // judged counterfactually against the tight floor promise, so
            // its violation markers flag every read this configuration
            // served that a floor-Δ promise would have rejected.
            if i == 0 && d == BASE_DELTA {
                let counterfactual = judge(
                    &result.history,
                    result.epsilon,
                    Delta::from_ticks(FLOOR_DELTA),
                    None,
                );
                report.traces.push((
                    STATIC_TRACE,
                    export_run(&result, &counterfactual.violations, shards, N_CLIENTS),
                ));
            }
        }
        t.row(&[
            &format!("static Δ={d}"),
            &score.violations,
            &f3(d as f64),
            &f3(score.staleness),
            &score.max_staleness,
            &score.retries,
            &score.round_trips,
        ]);
        static_scores.push((d, score));
    }

    // Adaptive runs over the identical plans.
    let ctrl = controller();
    let mut adaptive = Score::default();
    let mut adaptive_avg = 0.0;
    let mut schedule_len = 0usize;
    for (i, &seed) in seeds.iter().enumerate() {
        let cfg = config(FLOOR_DELTA, ops, seed);
        let plan = bursts(horizon);
        let result = run_with(
            &cfg,
            RunOptions {
                plan: plan.clone(),
                adaptive: Some(ctrl),
                traced: true,
                ..RunOptions::default()
            },
        );
        let verdict = conformance(&cfg, &plan, &result);
        assert!(
            verdict.acceptable(),
            "seed {seed}: oracle verdict against the in-force schedule: {:?}",
            verdict.verdict
        );
        let schedule = result
            .delta_schedule
            .as_ref()
            .expect("adaptive runs return the commanded schedule");
        let judged = judge(
            &result.history,
            result.epsilon,
            Delta::from_ticks(FLOOR_DELTA),
            Some(schedule),
        );
        adaptive.absorb(&result, &judged, seeds.len());
        adaptive_avg += schedule.time_averaged(result.finished_at) / seeds.len() as f64;
        schedule_len += schedule.len();
        // The timeline marks the *tight-margin* violations, not the run's
        // fault-widened ones, so it shows any instant the promise broke.
        if i == 0 {
            let timeline = export_run(&result, &judged.violations, shards, N_CLIENTS);
            report.traces.push((ADAPTIVE_TRACE, timeline));
        }
    }
    t.row(&[
        &"adaptive",
        &adaptive.violations,
        &f3(adaptive_avg),
        &f3(adaptive.staleness),
        &adaptive.max_staleness,
        &adaptive.retries,
        &adaptive.round_trips,
    ]);
    report.table(t);

    // Scoreboard. The budget peer is the tightest static whose Δ covers
    // the adaptive budget — the scalar promise you would have to buy to
    // spend what the schedule spent.
    let peer = static_scores
        .iter()
        .find(|&&(d, _)| d as f64 >= adaptive_avg)
        .or(static_scores.last())
        .copied()
        .expect("non-empty sweep");
    let fresher_than_peer =
        adaptive.violations <= peer.1.violations && adaptive.staleness < peer.1.staleness;
    // Pareto: a static config dominates only by matching the adaptive
    // run on budget, freshness, AND burst cost at once.
    let dominated_by: Vec<u64> = static_scores
        .iter()
        .filter(|&&(d, s)| {
            s.violations <= adaptive.violations
                && (d as f64) <= adaptive_avg
                && s.staleness <= adaptive.staleness
                && s.round_trips <= adaptive.round_trips
        })
        .map(|&(d, _)| d)
        .collect();
    report.note(format!(
        "budget peer static Δ={}: staleness {} vs adaptive {} (budget {}, {} schedule \
         revisions); dominating statics: {dominated_by:?}",
        peer.0,
        f3(peer.1.staleness),
        f3(adaptive.staleness),
        f3(adaptive_avg),
        schedule_len,
    ));

    assert_eq!(
        adaptive.violations, 0,
        "adaptive run violated its own in-force schedule at the tight margin"
    );
    assert!(
        fresher_than_peer,
        "adaptive mean value age {:.1} did not beat its budget peer static Δ={} ({:.1})",
        adaptive.staleness, peer.0, peer.1.staleness
    );
    assert!(
        dominated_by.is_empty(),
        "static Δ {dominated_by:?} matched the adaptive run on budget, staleness and \
         round trips at once"
    );
    report.note(format!(
        "verdict: at zero violations the adaptive schedule serves {}% fresher reads than \
         the static Δ of equal budget, and no static matches it on staleness, round trips \
         and budget at once",
        ((1.0 - adaptive.staleness / peer.1.staleness) * 100.0) as i64
    ));
    report
}

/// Both timelines are loadable trace-event JSON carrying the markers the
/// comparison is read from: `delta_change` schedule revisions on the
/// adaptive trace, seeded `violation` markers on the counterfactual
/// static one.
pub fn check_smoke(report: &Report) -> Result<(), String> {
    if report.traces.len() != 2 {
        return Err("expected the adaptive and the static timeline".to_string());
    }
    for (suffix, trace) in &report.traces {
        let (name, marker) = if *suffix == STATIC_TRACE {
            ("static", "violation")
        } else {
            ("adaptive", "delta_change")
        };
        let mut marks = 0;
        for e in items(trace, "traceEvents")? {
            field(e, "pid")?;
            if field(e, "ph")? != &Json::from("M") {
                field(e, "ts")?;
            }
            marks += usize::from(field(e, "name").is_ok_and(|n| n == &marker.into()));
        }
        if marks == 0 {
            return Err(format!("{name} timeline: no {marker} markers"));
        }
    }
    Ok(())
}

/// `object[key]`, for the smoke check (the `serde_json` stand-in has no
/// accessors of its own).
fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    match value {
        Json::Object(map) => map.get(key).ok_or_else(|| format!("no `{key}` field")),
        _ => Err(format!("`{key}` looked up in a non-object")),
    }
}

/// The elements of `object[key]`.
fn items<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match field(value, key)? {
        Json::Array(items) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}
