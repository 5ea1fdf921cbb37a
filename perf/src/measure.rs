//! One run of one workload: either the end-to-end metrics (real driver,
//! spans off) or the per-layer ledger (ledger loop with spans, probes, and
//! a few real-driver repetitions for the driver's own lines).

use std::path::Path;

use tc_core::checker::check_on_time;
use tc_sim::metrics::names;
use tc_store::RuntimeConfig;

use crate::driver::{self, fingerprints, Failures, Rep, Sample};
use crate::host;
use crate::ledger::{self, Ledger};
use crate::probes::{self, SimRun};
use crate::report::{Measured, Outcome};
use crate::span::{self, Layer};
use crate::workloads::{Driver, Spec};

/// Fleet start-ups timed for `setup_s`.
const SETUPS: usize = 31;
/// Fewest timed repetitions behind a reported value, however short `--seconds`.
const MIN_REPS: usize = 5;
/// Most timed repetitions, however long `--seconds`.
const MAX_REPS: usize = 200;
/// Ledger loops run with spans on, and as many with spans off.
const LEDGER_LOOPS: usize = 3;
/// How far the layers' self times may be from the loop's cost with spans
/// off before the ledger flags itself.
const RECONCILE_TOLERANCE: f64 = 0.15;

pub struct Plan<'a> {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Seconds of real-driver repetitions to measure.
    pub seconds: f64,
    /// Where write-ahead logs and trace files go.
    pub scratch: &'a Path,
}

/// Operations attempted on the real drivers and everything that failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Failures,
}

impl Tally {
    fn check(
        &mut self,
        what: &str,
        rep: &Rep,
        expected_ops: usize,
        reference: Option<&[u64]>,
    ) -> Sample {
        self.attempted += expected_ops as u64;
        let (failures, sample) = driver::verify(what, rep, expected_ops, reference);
        self.failures.absorb(failures);
        sample
    }

    fn fail(&mut self, line: String) {
        self.failures.checks.push(line);
    }

    fn outcome(
        self,
        spec: &Spec,
        traced: bool,
        mut notes: Vec<String>,
        metrics: Vec<Measured>,
    ) -> Outcome {
        let failed = self.failures.count();
        if self.failures.missing > 0 {
            notes.push(format!(
                "{} operations did not complete",
                self.failures.missing
            ));
        }
        if self.failures.violations > 0 {
            notes.push(format!(
                "{} reads were late at the configured Δ",
                self.failures.violations
            ));
        }
        notes.extend(self.failures.checks);
        Outcome {
            workload: spec.name,
            traced,
            attempted: self.attempted.max(1),
            failed,
            notes,
            metrics,
        }
    }
}

fn expected_ops(spec: &Spec, ops_per_site: usize) -> usize {
    spec.sites * ops_per_site
}

/// Runs the ledger loop once over a fresh store of the workload's kind.
fn ledger_run(plan: &Plan, ops_per_site: usize, traced: bool) -> (RuntimeConfig, Ledger) {
    let dir = driver::wal_dir(plan.spec, plan.scratch);
    let config = plan.spec.runtime(plan.seed, ops_per_site, dir.clone());
    let ledger = ledger::run(&config, driver::shard_store(dir.as_deref()), traced);
    driver::remove_wal(dir.as_deref());
    (config, ledger)
}

/// The run's reference: the ledger loop with spans off and the simulator's
/// replay, both over the run's exact inputs. Each must complete every
/// operation with no late read; the batch checker must agree with the
/// ledger's monitor; and the two must have run the same per-site programs.
fn reference(plan: &Plan, tally: &mut Tally) -> (Ledger, SimRun) {
    let spec = plan.spec;
    let all = spec.ledger_ops_per_site;
    let expected = expected_ops(spec, all);
    let (config, ledger) = ledger_run(plan, all, false);
    let sim = probes::sim(spec, plan.seed, all, spec.objects);
    for (what, ops, late) in [
        (
            "ledger loop",
            ledger.counts.ops as usize,
            ledger.report.violations().len(),
        ),
        (
            "simulator",
            sim.result.history.len(),
            sim.result.on_time.violations().len(),
        ),
    ] {
        if ops != expected {
            tally.fail(format!(
                "{what}: {ops} operations completed, {expected} expected"
            ));
        }
        if late > 0 {
            tally.fail(format!("{what}: {late} late reads"));
        }
    }
    let batch = check_on_time(&ledger.history, config.monitor_delta, config.monitor_eps);
    if batch.violations().len() != ledger.report.violations().len() {
        tally.fail("ledger loop: batch checker and monitor disagree".to_string());
    }
    if fingerprints(&ledger.history, spec.sites, all)
        != fingerprints(&sim.result.history, spec.sites, all)
    {
        tally.fail("ledger loop and simulator ran different per-site programs".to_string());
    }
    (ledger, sim)
}

/// An untimed repetition at a tenth of the size, then timed full-size ones
/// until `seconds` of driver wall time are measured. Every repetition is
/// verified against the reference fingerprints.
fn timed_reps(plan: &Plan, seconds: f64, reference: &[u64], tally: &mut Tally) -> Vec<Sample> {
    let spec = plan.spec;
    let warm_ops = (spec.ops_per_site / 10).max(1);
    let warm = driver::run_rep(spec, plan.seed, warm_ops, plan.scratch);
    tally.check("warm-up", &warm, expected_ops(spec, warm_ops), None);

    let mut reps = Vec::new();
    let mut measured = 0.0;
    while reps.len() < MIN_REPS || (measured < seconds && reps.len() < MAX_REPS) {
        let rep = driver::run_rep(spec, plan.seed, spec.ops_per_site, plan.scratch);
        let sample = tally.check(
            &format!("repetition {}", reps.len() + 1),
            &rep,
            expected_ops(spec, spec.ops_per_site),
            Some(reference),
        );
        measured += sample.wall_s;
        reps.push(sample);
    }
    reps
}

fn samples(name: &'static str, reps: &[Sample], f: impl Fn(&Sample) -> f64) -> Measured {
    Measured {
        name,
        samples: reps.iter().map(f).collect(),
    }
}

/// The end-to-end metrics: what a user of the fleet sees.
pub fn end_to_end(plan: &Plan) -> Outcome {
    let spec = plan.spec;
    let mut tally = Tally::default();

    // Set-up: a whole fleet start to stop — configuration, store, threads,
    // listeners, connections and handshakes, tear-down — around the least
    // work a fleet can do, one operation per site.
    let setup = (0..SETUPS)
        .map(|i| {
            let started = std::time::Instant::now();
            let rep = driver::run_rep(spec, plan.seed, 1, plan.scratch);
            let took = started.elapsed().as_secs_f64();
            tally.check(&format!("set-up {}", i + 1), &rep, spec.sites, None);
            took
        })
        .collect();

    let (ledger, _) = reference(plan, &mut tally);
    let prints = fingerprints(&ledger.history, spec.sites, spec.ops_per_site);
    let reps = timed_reps(plan, plan.seconds, &prints, &mut tally);

    let ops = ledger.counts.ops.max(1) as f64;
    let metrics = vec![
        Measured {
            name: "setup_s",
            samples: setup,
        },
        samples("ops_per_s", &reps, |r| r.ops / r.wall_s),
        Measured::one("msgs_per_op", ledger.counts.msgs as f64 / ops),
        Measured::one("wire_bytes_per_op", ledger.counts.wire_bytes as f64 / ops),
    ];
    tally.outcome(spec, false, Vec::new(), metrics)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer ledger.
pub fn per_layer(plan: &Plan) -> Outcome {
    let spec = plan.spec;
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    let tight = span::calibrate();
    // The reference loop also warms up: it faults in the heap that the two
    // measured loops then reuse, so neither pays for first touch.
    let (first, sim_full) = reference(plan, &mut tally);
    let all = spec.ledger_ops_per_site;
    // Three loops each way, alternating, and the quickest of each kind:
    // a loop lasts a tenth of a second, short enough for one disturbance
    // on the host to distort it.
    let whole = fingerprints(&first.history, spec.sites, all);
    let prints = fingerprints(&first.history, spec.sites, spec.ops_per_site);
    let first = first.counts;
    let mut quickest: [Option<Ledger>; 2] = [None, None];
    for i in 0..2 * LEDGER_LOOPS {
        let traced = i % 2 == 0;
        let (_, again) = ledger_run(plan, all, traced);
        if again.counts != first || fingerprints(&again.history, spec.sites, all) != whole {
            tally.fail(format!(
                "the ledger loop did not repeat: {:?} vs {first:?}",
                again.counts
            ));
        }
        let best = &mut quickest[usize::from(traced)];
        if best.as_ref().is_none_or(|b| again.wall < b.wall) {
            *best = Some(again);
        }
    }
    let [untraced, traced] = quickest.map(|l| l.expect("loops of both kinds ran"));
    let trace = traced
        .trace
        .as_ref()
        .expect("a traced run carries its trace");
    let trace_file = plan
        .scratch
        .join(format!("{}-seed{}.trace.json", spec.name, plan.seed));
    if let Err(e) = span::write_chrome(&trace_file, &trace.raw) {
        notes.push(format!("could not write {}: {e}", trace_file.display()));
    }

    // The driver's own lines come from real repetitions, spans off.
    let reps = timed_reps(plan, plan.seconds / 2.0, &prints, &mut tally);

    let sim_short = probes::sim(spec, plan.seed, (all / 10).max(1), spec.objects);
    let sim_8obj = probes::sim(spec, plan.seed, all, 8);
    let wal_probe_dir =
        plan.scratch
            .join(format!("wal-probe-{}-{}", spec.name, std::process::id()));
    let wal = probes::wal(spec, &wal_probe_dir);
    driver::remove_wal(Some(&wal_probe_dir));

    let ops = untraced.counts.ops.max(1) as f64;
    // What a span costs where it is paid: the processor time the loop
    // takes with spans on beyond what it takes with them off, per span. On
    // these hosts that is anything from one to two times what the
    // tight-loop calibration reads (the clock's cost moves with the
    // machine's state), so the calibration only says how the cost splits
    // between a span's own interval and its parent.
    let span_in_loop_ns = ((traced.cpu_s - untraced.cpu_s) * 1e9 / trace.spans() as f64).max(0.0);
    let cal = tight.scaled((span_in_loop_ns / tight.whole_ns()).clamp(0.5, 3.0));
    let self_ns = |layer| trace.self_ns(layer, cal);
    let count = |layer| trace.totals(layer).count as f64;
    let allocs = |layer| trace.totals(layer).self_allocs as f64;
    let counter = |name: &str| untraced.metrics.counters.get(name).copied().unwrap_or(0) as f64;

    // The layers the real driver runs; in-process channels carry no frames.
    let mut on_path = vec![
        Layer::Client,
        Layer::Server,
        Layer::StoreApply,
        Layer::StoreRead,
        Layer::StoreSync,
        Layer::Recorder,
        Layer::Monitor,
        Layer::Metrics,
    ];
    if spec.driver == Driver::Reactor {
        on_path.extend([Layer::Encode, Layer::Decode]);
    }
    // The loop blocks nowhere but in the store's fsync, so the time it
    // spent off the processor is that layer's waiting, not its work.
    let wait_ns = if spec.wal {
        ((traced.wall.as_secs_f64() - traced.cpu_s) * 1e9).max(0.0)
    } else {
        0.0
    };
    let layers_ns_per_op =
        (on_path.iter().map(|l| self_ns(*l)).sum::<f64>() - wait_ns).max(0.0) / ops;
    let untraced_ns = untraced.wall.as_nanos() as f64;
    // Reconciled on processor time: how long an fsync waits for the disk
    // differs from one loop to the next and is no layer's work.
    let reconcile =
        (Layer::ALL.iter().map(|l| self_ns(*l)).sum::<f64>() - wait_ns) / (untraced.cpu_s * 1e9);
    if (reconcile - 1.0).abs() > RECONCILE_TOLERANCE {
        notes.push(format!(
            "ledger flagged: layer self times are {reconcile:.3} of the loop's cost with spans off (tolerance {RECONCILE_TOLERANCE})"
        ));
    }

    let looked_up =
        counter(names::CACHE_HIT) + counter(names::CACHE_MISS) + counter(names::VALIDATE);
    let threads = spec.threads() as f64;
    let one = Measured::one;
    let metrics = vec![
        one("engine.client_ns_per_op", self_ns(Layer::Client) / ops),
        one(
            "engine.client_calls_per_op",
            untraced.counts.client_events as f64 / ops,
        ),
        one(
            "engine.hit_rate",
            ratio(counter(names::CACHE_HIT), looked_up),
        ),
        one("engine.retries_per_op", counter(names::RETRY) / ops),
        one("engine.allocs_per_op", allocs(Layer::Client) / ops),
        one("engine.server_ns_per_op", self_ns(Layer::Server) / ops),
        one(
            "engine.server_calls_per_op",
            untraced.counts.server_events as f64 / ops,
        ),
        one(
            "store.apply_ns_per_write",
            ratio(self_ns(Layer::StoreApply), count(Layer::StoreApply)),
        ),
        one(
            "store.read_ns_per_req",
            ratio(self_ns(Layer::StoreRead), count(Layer::StoreRead)),
        ),
        one(
            "store.sync_ns_per_write",
            ratio(self_ns(Layer::StoreSync), count(Layer::StoreApply)),
        ),
        one(
            "store.syncs_per_write",
            ratio(count(Layer::StoreSync), count(Layer::StoreApply)),
        ),
        one("durable.bytes_per_write", wal.bytes_per_write),
        one("durable.cold_replay_ms", wal.cold_replay_ms),
        one(
            "wire.encode_ns_per_frame",
            ratio(self_ns(Layer::Encode), count(Layer::Encode)),
        ),
        one(
            "wire.decode_ns_per_frame",
            ratio(self_ns(Layer::Decode), count(Layer::Decode)),
        ),
        one(
            "wire.bytes_per_frame",
            ratio(
                untraced.counts.wire_bytes as f64,
                untraced.counts.msgs as f64,
            ),
        ),
        one("wire.frames_per_op", untraced.counts.msgs as f64 / ops),
        one(
            "wire.allocs_per_frame",
            ratio(
                allocs(Layer::Encode) + allocs(Layer::Decode),
                count(Layer::Encode),
            ),
        ),
        one("monitor.ingest_ns_per_op", self_ns(Layer::Monitor) / ops),
        one("recorder.record_ns_per_op", self_ns(Layer::Recorder) / ops),
        one(
            "metrics.add_ns_per_call",
            ratio(self_ns(Layer::Metrics), untraced.counts.metric_calls as f64),
        ),
        one(
            "metrics.calls_per_op",
            untraced.counts.metric_calls as f64 / ops,
        ),
        samples("monitor.stale_max_ticks", &reps, |r| r.stale_max_ticks),
        one("monitor.late_writes", untraced.late_writes as f64),
        one("clocks.vc_ns_per_op", probes::vector_clock_ns(spec.sites)),
        samples("checker.recheck_ns_per_op", &reps, |r| r.recheck_ns_per_op),
        one("sim.ns_per_op", sim_full.ns_per_op),
        one(
            "sim.events_per_op",
            sim_full.result.events as f64 / sim_full.result.history.len().max(1) as f64,
        ),
        one("sim.ns_per_op_short", sim_short.ns_per_op),
        one("sim.ns_per_op_8obj", sim_8obj.ns_per_op),
        samples("driver.wall_ns_per_op", &reps, |r| r.wall_s * 1e9 / r.ops),
        samples("driver.cpu_ns_per_op", &reps, |r| r.cpu_s * 1e9 / r.ops),
        samples("driver.sys_share", &reps, |r| ratio(r.sys_s, r.cpu_s)),
        samples("driver.idle_share", &reps, |r| {
            1.0 - r.cpu_s / (r.wall_s * threads)
        }),
        samples("driver.residual_ns_per_op", &reps, |r| {
            r.cpu_s * 1e9 / r.ops - layers_ns_per_op
        }),
        samples("driver.lat_mean_us", &reps, |r| r.lat_mean_us),
        samples("driver.lat_p99_us", &reps, |r| r.lat_p99_us),
        samples("driver.lat_max_us", &reps, |r| r.lat_max_us),
        samples("driver.shard_requests_per_op", &reps, |r| {
            r.shard_requests / r.ops
        }),
        one("process.rss_peak_mib", host::usage().peak_rss_mib),
        one("ledger.layers_ns_per_op", layers_ns_per_op),
        one("ledger.wait_ns_per_op", wait_ns / ops),
        one("ledger.loop_ns_per_op", self_ns(Layer::Loop) / ops),
        one("ledger.untraced_ns_per_op", untraced_ns / ops),
        one(
            "ledger.trace_overhead_ratio",
            traced.wall.as_nanos() as f64 / untraced_ns,
        ),
        one("ledger.reconcile_ratio", reconcile),
        one("ledger.span_clock_ns", tight.whole_ns()),
        one("ledger.span_in_loop_ns", span_in_loop_ns),
        one("ledger.spans_per_op", trace.spans() as f64 / ops),
    ];
    tally.outcome(spec, true, notes, metrics)
}
