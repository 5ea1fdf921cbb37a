//! Adaptive Δ control plane: retune the freshness threshold online.
//!
//! The paper fixes Δ per run, but its guarantee is really a contract the
//! system can *manage* (cf. "Algorithms for Timed Consistency Models"):
//! when the fleet keeps up — the streaming [`OnTimeMonitor`]'s running
//! `min_delta` sits far below the commanded Δ — the threshold can be
//! tightened, buying clients fresher reads for the same traffic; under
//! backpressure (retries, violations against the widened bound) it must be
//! relaxed before the guarantee is broken rather than after.
//!
//! [`DeltaController`] is the pure decision kernel: integer-only
//! arithmetic over `(now, observed min_delta, pressure)` samples, so every
//! driver — simulated or real — reaches identical decisions from identical
//! inputs. Each decision yields a [`DeltaCommand`]: the Δ to broadcast to
//! clients ([`crate::Msg::DeltaUpdate`]) and the instant from which the
//! *judge* holds the fleet to it.
//!
//! # Δ-schedule soundness
//!
//! Clients enforce whatever Δ they last heard; the monitor judges against
//! the piecewise-constant [`DeltaSchedule`] the controller committed to.
//! The two are reconciled by an asymmetric effective-time rule:
//!
//! * a **relaxation** enters the judged schedule immediately — clients
//!   still enforcing the old, tighter Δ trivially satisfy the looser
//!   bound while the update propagates;
//! * a **tightening** enters the judged schedule only at
//!   `now + 2×interval` — clients that have not yet heard the update keep
//!   enforcing the old Δ, and judging them against the tighter one before
//!   it could possibly reach them would manufacture violations. (A client
//!   that applies the tighter Δ *early* is always safe: enforcing tighter
//!   than judged can only reduce staleness.)
//!
//! Commands are re-broadcast every controller tick (idempotent per
//! sequence number), so a client that misses one hears the next; the lag
//! must cover a couple of controller intervals plus delivery.

use serde::Serialize;
use tc_clocks::{Delta, Time};
use tc_core::checker::OnTimeMonitor;

use crate::{Msg, ProtocolKind};

/// A piecewise-constant Δ timetable: the thresholds a run's controller
/// committed to, in effective-time order. This is what the oracle judges
/// against — the schedule *actually in force* at each instant, not a
/// scalar.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct DeltaSchedule {
    /// Δ in force from the start of the run.
    pub initial: Delta,
    /// Revisions `(effective_from, delta)`, sorted by effective time.
    pub changes: Vec<(Time, Delta)>,
}

impl DeltaSchedule {
    /// A schedule that never changes: `delta` for the whole run.
    #[must_use]
    pub fn fixed(delta: Delta) -> Self {
        DeltaSchedule {
            initial: delta,
            changes: Vec::new(),
        }
    }

    /// Appends a revision. Effective times are clamped monotone — a
    /// revision dated before the last one snaps to it (last writer wins at
    /// equal times), mirroring [`OnTimeMonitor::schedule_change`].
    pub fn push(&mut self, at: Time, delta: Delta) {
        let at = match self.changes.last() {
            Some(&(prev, _)) => at.max(prev),
            None => at,
        };
        match self.changes.last_mut() {
            Some(entry) if entry.0 == at => entry.1 = delta,
            _ => self.changes.push((at, delta)),
        }
    }

    /// The Δ in force at `t`.
    #[must_use]
    pub fn delta_at(&self, t: Time) -> Delta {
        let idx = self.changes.partition_point(|&(at, _)| at <= t);
        if idx == 0 {
            self.initial
        } else {
            self.changes[idx - 1].1
        }
    }

    /// Number of revisions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the schedule is the fixed initial Δ with no revisions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Time-averaged Δ over `[0, end)` — the "Δ budget" a schedule spends.
    /// A static run spends exactly its scalar Δ; an adaptive run that
    /// tightens in quiet phases spends less.
    #[must_use]
    pub fn time_averaged(&self, end: Time) -> f64 {
        if end == Time::ZERO {
            return self.initial.ticks() as f64;
        }
        let mut acc = 0.0;
        let mut cursor = Time::ZERO;
        let mut current = self.initial;
        for &(at, delta) in &self.changes {
            let at = at.min(end);
            acc += current.ticks() as f64 * (at.ticks() - cursor.ticks()) as f64;
            cursor = at;
            current = delta;
            if cursor == end {
                break;
            }
        }
        acc += current.ticks() as f64 * (end.ticks().saturating_sub(cursor.ticks())) as f64;
        acc / end.ticks() as f64
    }

    /// Replays the schedule into a monitor (all entries at once) so a
    /// finished history can be judged post-hoc against the in-force Δ.
    /// `widening` is added to every threshold — the same fault/latency
    /// margin the scalar oracle adds to a static Δ.
    pub fn apply_to(&self, monitor: &mut OnTimeMonitor, widening: Delta) {
        for &(at, delta) in &self.changes {
            monitor.schedule_change(at, widen(delta, widening));
        }
    }
}

/// Adds a widening margin to a threshold, saturating at infinite.
#[must_use]
pub fn widen(delta: Delta, widening: Delta) -> Delta {
    if delta.is_infinite() || widening.is_infinite() {
        Delta::INFINITE
    } else {
        Delta::from_ticks(delta.ticks().saturating_add(widening.ticks()))
    }
}

/// Headroom ratio `num/den` of the control law: the commanded Δ targets
/// `observed_min_delta × 3 / 2`, clamped to the configured band.
const HEADROOM: (u64, u64) = (3, 2);

/// How many controller intervals after its decision a *tightening* takes
/// judged effect: commands are re-broadcast every interval, so the lag
/// covers one missed broadcast plus delivery.
const APPLY_LAG_INTERVALS: u64 = 2;

/// Tuning knobs of the [`DeltaController`]. All arithmetic is integer so
/// decisions replay identically across drivers.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Tightest Δ the controller may command.
    pub delta_min: Delta,
    /// Loosest Δ the controller may command (also the relaxation ceiling).
    pub delta_max: Delta,
    /// Controller tick period. Decisions (and re-broadcasts) happen at
    /// this cadence, and a tightening takes judged effect two intervals
    /// after it is decided.
    pub interval: Delta,
}

impl ControllerConfig {
    /// The law over `[delta_min, delta_max]`, ticking every `interval`:
    /// 1.5× headroom over the observed staleness, tightenings honored
    /// after `2×interval`.
    #[must_use]
    pub fn new(delta_min: Delta, delta_max: Delta, interval: Delta) -> Self {
        ControllerConfig {
            delta_min,
            delta_max,
            interval,
        }
    }

    /// The Δ the law steers toward for a given observed staleness.
    #[must_use]
    pub fn target(&self, observed: Delta) -> Delta {
        let (num, den) = HEADROOM;
        let scaled = observed.ticks().saturating_mul(num) / den;
        Delta::from_ticks(scaled.clamp(self.delta_min.ticks(), self.delta_max.ticks()))
    }

    /// How far in the future a tightening takes judged effect.
    fn apply_lag(&self) -> Delta {
        Delta::from_ticks(self.interval.ticks().saturating_mul(APPLY_LAG_INTERVALS))
    }
}

/// One controller decision: what to tell the clients, and from when the
/// judge holds the fleet to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaCommand {
    /// Monotone command sequence number (clients ignore stale ones).
    pub seq: u64,
    /// The Δ clients must enforce from receipt.
    pub delta: Delta,
    /// The instant the judged [`DeltaSchedule`] switches to `delta`:
    /// `now` for relaxations, `now + 2×interval` for tightenings.
    pub judge_from: Time,
}

/// Controller ticks after the last backpressure during which a new
/// staleness maximum is still attributed to the fault: jittered and
/// retried deliveries complete well after the drops that signalled the
/// episode, so the trailing spikes belong to it too.
const FAULT_TRAIL_TICKS: u64 = 8;

/// Per-quiet-tick decay divisor of the transient staleness component:
/// a quarter of the fault-episode memory is forgotten each tick, so the
/// controller re-tightens within a few intervals of the network healing.
const TRANSIENT_DECAY_DIV: u64 = 4;

/// The adaptive-Δ decision kernel: tighten geometrically while the fleet
/// keeps up, relax multiplicatively (at least back to the safe target)
/// under pressure. Pure and deterministic — drivers feed it samples and
/// carry out its commands.
///
/// The monitor's `min_delta` input is a lifetime high-water mark, so the
/// controller splits each *increase* of it into two estimates by
/// provenance: spikes that land during (or trailing) a backpressure
/// episode are a **transient** fault component that decays once the
/// episode ends, while spikes in quiet air raise a permanent **anchor**
/// — the staleness the workload naturally exhibits. Steering off
/// `max(anchor, transient)` instead of the raw high-water mark is what
/// lets the controller re-tighten after a fault burst rather than
/// staying pinned at the worst staleness ever seen.
#[derive(Clone, Debug)]
pub struct DeltaController {
    cfg: ControllerConfig,
    current: Delta,
    seq: u64,
    schedule: DeltaSchedule,
    /// Raw high-water of the monotone `observed` input, to detect rises.
    high_water: Delta,
    /// Staleness demonstrated in quiet air — never forgotten.
    anchor: Delta,
    /// Staleness coincident with backpressure — decays when quiet.
    transient: Delta,
    /// A quiet-air rise awaiting confirmation: it only hardens into the
    /// anchor after [`FAULT_TRAIL_TICKS`] further quiet ticks. If
    /// backpressure arrives first, the rise was the leading edge of a
    /// fault episode (spikes outrun the retries that explain them) and
    /// it reclassifies as transient. The pending value counts toward the
    /// steering estimate either way, so hysteresis never delays a relax.
    pending: Option<(Delta, u64)>,
    /// Controller ticks since backpressure last fired (`u64::MAX` =
    /// never).
    since_pressure: u64,
}

impl DeltaController {
    /// A controller starting from `initial` (typically the static Δ the
    /// run was configured with).
    #[must_use]
    pub fn new(cfg: ControllerConfig, initial: Delta) -> Self {
        let initial = Delta::from_ticks(
            initial
                .ticks()
                .clamp(cfg.delta_min.ticks(), cfg.delta_max.ticks()),
        );
        DeltaController {
            cfg,
            current: initial,
            seq: 0,
            schedule: DeltaSchedule::fixed(initial),
            high_water: Delta::ZERO,
            anchor: Delta::ZERO,
            transient: Delta::ZERO,
            pending: None,
            since_pressure: u64::MAX,
        }
    }

    /// The Δ currently commanded.
    #[must_use]
    pub fn current(&self) -> Delta {
        self.current
    }

    /// The tuning knobs.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// The judged schedule committed so far.
    #[must_use]
    pub fn schedule(&self) -> &DeltaSchedule {
        &self.schedule
    }

    /// The last command's sequence number (0 before any change) — used by
    /// hosts to re-broadcast the current Δ idempotently.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// One control tick at true time `now`, fed the monitor's running
    /// `observed` min-Δ and a boolean backpressure signal (retries or
    /// violations since the last tick). Returns a command when Δ changes.
    pub fn tick(&mut self, now: Time, observed: Delta, pressure: bool) -> Option<DeltaCommand> {
        self.since_pressure = if pressure {
            0
        } else {
            self.since_pressure.saturating_add(1)
        };
        let faulty = self.since_pressure <= FAULT_TRAIL_TICKS;
        if observed > self.high_water {
            self.high_water = observed;
            if faulty {
                self.transient = self.transient.max(observed);
            } else {
                let held = self.pending.map_or(Delta::ZERO, |(v, _)| v);
                self.pending = Some((held.max(observed), 0));
            }
        }
        if let Some((held, age)) = self.pending {
            if faulty {
                // Backpressure caught up with the rise: it belongs to
                // the fault episode, not the workload.
                self.transient = self.transient.max(held);
                self.pending = None;
            } else if age >= FAULT_TRAIL_TICKS {
                self.anchor = self.anchor.max(held);
                self.pending = None;
            } else {
                self.pending = Some((held, age + 1));
            }
        }
        if !faulty && self.transient > Delta::ZERO {
            let t = self.transient.ticks();
            self.transient = Delta::from_ticks(t.saturating_sub((t / TRANSIENT_DECAY_DIV).max(1)));
        }
        let held = self.pending.map_or(Delta::ZERO, |(v, _)| v);
        let target = self.cfg.target(self.anchor.max(self.transient).max(held));
        let cur = self.current.ticks();
        let next = if pressure {
            // Relax fast: double, at least up to the safe target, capped.
            cur.saturating_mul(2)
                .max(target.ticks())
                .min(self.cfg.delta_max.ticks())
        } else if cur > target.ticks() {
            // Tighten slowly: close half the gap per tick (at least one
            // tick of progress), converging geometrically onto the target.
            cur - ((cur - target.ticks()) / 2).max(1)
        } else if cur < target.ticks() {
            // Observed staleness rose above the commanded band without
            // tripping the pressure signal: step straight to safety.
            target.ticks()
        } else {
            cur
        };
        let next = Delta::from_ticks(next);
        if next == self.current {
            return None;
        }
        let tightening = next < self.current;
        self.current = next;
        self.seq += 1;
        let judge_from = if tightening {
            now.saturating_add_delta(self.cfg.apply_lag())
        } else {
            now
        };
        self.schedule.push(judge_from, next);
        Some(DeltaCommand {
            seq: self.seq,
            delta: next,
            judge_from,
        })
    }
}

/// What a driver reads off the run for one control tick: the live
/// monitor's running `min_delta`, violation count and ingested-operation
/// count, and the run's retry counter.
#[derive(Clone, Copy, Debug)]
pub struct Readings {
    /// The monitor's running `min_delta`.
    pub observed: Delta,
    /// Violations the monitor has flagged so far.
    pub violations: usize,
    /// Operations the monitor has ingested so far.
    pub ingested: usize,
    /// Client retries counted so far.
    pub retries: u64,
}

/// A revision of the judged schedule, for the driver to install in the
/// monitor and count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleChange {
    /// The instant the monitor starts judging against `threshold`.
    pub judge_from: Time,
    /// The commanded Δ plus the run's widening margin.
    pub threshold: Delta,
    /// Whether the command tightened Δ (else it relaxed it).
    pub tightened: bool,
}

/// What one [`ControlPolicy::sample`] decided.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlDecision {
    /// Set when this tick changed Δ.
    pub change: Option<ScheduleChange>,
    /// The command in force, to (re-)broadcast to every client — `None`
    /// until the controller has issued one. Idempotent per sequence
    /// number, so a client that missed one (drop, outage) hears the next.
    pub broadcast: Option<Msg>,
    /// Whether to sample again: `false` once every expected operation has
    /// been ingested.
    pub keep_sampling: bool,
}

/// The control-plane policy every driver runs: a [`DeltaController`] plus
/// the pressure signal, widening margin and stop rule around it. Pure —
/// readings in, decision out; the driver owns *when* a sample is taken and
/// *how* a command reaches the clients.
#[derive(Clone, Debug)]
pub struct ControlPolicy {
    controller: DeltaController,
    /// The margin the judged schedule carries over each commanded Δ:
    /// exactly what the static monitor bound carries over the protocol's
    /// configured Δ.
    widening: Delta,
    expected_ops: usize,
    last_violations: usize,
    last_retries: u64,
}

impl ControlPolicy {
    /// The policy of a run of `kind` whose monitor judges the static Δ at
    /// `monitor_delta` and whose workload records `expected_ops`
    /// operations. A monitor tighter than the protocol's Δ widens by
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `kind` carries no Δ (adaptive control needs a timed
    /// level: `Tsc` or `Tcc`).
    #[must_use]
    pub fn new(
        ctrl: ControllerConfig,
        kind: ProtocolKind,
        monitor_delta: Delta,
        expected_ops: usize,
    ) -> Self {
        let base = kind
            .delta()
            .expect("adaptive Δ control needs a timed protocol kind (Tsc/Tcc)");
        let widening = if monitor_delta.is_infinite() {
            Delta::INFINITE
        } else {
            Delta::from_ticks(monitor_delta.ticks().saturating_sub(base.ticks()))
        };
        ControlPolicy {
            controller: DeltaController::new(ctrl, base),
            widening,
            expected_ops,
            last_violations: 0,
            last_retries: 0,
        }
    }

    /// The period between samples.
    #[must_use]
    pub fn interval(&self) -> Delta {
        self.controller.config().interval
    }

    /// One control tick at true time `now`. Backpressure is new Δ
    /// violations against the widened schedule, or new client retries
    /// (lost or slow messages), since the last tick.
    pub fn sample(&mut self, now: Time, readings: Readings) -> ControlDecision {
        let pressure =
            readings.violations > self.last_violations || readings.retries > self.last_retries;
        self.last_violations = readings.violations;
        self.last_retries = readings.retries;
        let prev = self.controller.current();
        let change = self
            .controller
            .tick(now, readings.observed, pressure)
            .map(|cmd| ScheduleChange {
                judge_from: cmd.judge_from,
                threshold: widen(cmd.delta, self.widening),
                tightened: cmd.delta < prev,
            });
        let broadcast = (self.controller.seq() > 0).then(|| Msg::DeltaUpdate {
            seq: self.controller.seq(),
            delta: self.controller.current(),
        });
        ControlDecision {
            change,
            broadcast,
            keep_sampling: readings.ingested < self.expected_ops,
        }
    }

    /// The judged schedule committed so far.
    #[must_use]
    pub fn schedule(&self) -> &DeltaSchedule {
        self.controller.schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ControllerConfig {
        ControllerConfig::new(
            Delta::from_ticks(20),
            Delta::from_ticks(10_000),
            Delta::from_ticks(100),
        )
    }

    #[test]
    fn schedule_lookup_and_average() {
        let mut s = DeltaSchedule::fixed(Delta::from_ticks(100));
        s.push(Time::from_ticks(50), Delta::from_ticks(200));
        s.push(Time::from_ticks(75), Delta::from_ticks(40));
        assert_eq!(s.delta_at(Time::from_ticks(0)), Delta::from_ticks(100));
        assert_eq!(s.delta_at(Time::from_ticks(50)), Delta::from_ticks(200));
        assert_eq!(s.delta_at(Time::from_ticks(74)), Delta::from_ticks(200));
        assert_eq!(s.delta_at(Time::from_ticks(80)), Delta::from_ticks(40));
        // [0,50)@100 + [50,75)@200 + [75,100)@40 over 100 ticks.
        let avg = s.time_averaged(Time::from_ticks(100));
        assert!((avg - (100.0 * 50.0 + 200.0 * 25.0 + 40.0 * 25.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_push_clamps_monotone() {
        let mut s = DeltaSchedule::fixed(Delta::from_ticks(10));
        s.push(Time::from_ticks(100), Delta::from_ticks(20));
        s.push(Time::from_ticks(40), Delta::from_ticks(30));
        assert_eq!(
            s.changes,
            vec![(Time::from_ticks(100), Delta::from_ticks(30))]
        );
    }

    #[test]
    fn tightens_geometrically_toward_the_target_band() {
        let mut c = DeltaController::new(cfg(), Delta::from_ticks(8_000));
        let observed = Delta::from_ticks(200); // target = 300
        let mut now = Time::from_ticks(0);
        let mut changes = 0;
        for _ in 0..64 {
            now = now.saturating_add_delta(Delta::from_ticks(100));
            if c.tick(now, observed, false).is_some() {
                changes += 1;
            }
        }
        assert_eq!(c.current(), Delta::from_ticks(300), "settles on the target");
        assert!(changes <= 16, "geometric convergence, not a step per tick");
        // Settled: further quiet ticks are silent.
        assert_eq!(c.tick(now, observed, false), None);
    }

    #[test]
    fn pressure_relaxes_fast_and_is_capped() {
        let mut c = DeltaController::new(cfg(), Delta::from_ticks(40));
        let cmd = c
            .tick(Time::from_ticks(100), Delta::from_ticks(30), true)
            .expect("pressure must relax");
        assert_eq!(cmd.delta, Delta::from_ticks(80));
        assert_eq!(cmd.judge_from, Time::from_ticks(100), "relax judges now");
        for i in 0..20 {
            c.tick(Time::from_ticks(200 + i), Delta::from_ticks(30), true);
        }
        assert_eq!(
            c.current(),
            Delta::from_ticks(10_000),
            "capped at delta_max"
        );
    }

    #[test]
    fn fault_spikes_decay_and_the_controller_retightens() {
        let mut c = DeltaController::new(cfg(), Delta::from_ticks(1_000));
        let mut now = Time::ZERO;
        let mut step = |c: &mut DeltaController, observed: u64, pressure: bool| {
            now = now.saturating_add_delta(Delta::from_ticks(100));
            c.tick(now, Delta::from_ticks(observed), pressure)
        };
        // Quiet air: natural staleness 40 anchors, Δ settles on target 60.
        for _ in 0..32 {
            step(&mut c, 40, false);
        }
        assert_eq!(c.current(), Delta::from_ticks(60));
        // Fault burst: the high-water mark spikes to 2000 under
        // backpressure — relax past it.
        for _ in 0..4 {
            step(&mut c, 2_000, true);
        }
        assert!(
            c.current() >= Delta::from_ticks(3_000),
            "pressure must relax past the spike"
        );
        // Healed: the spike was pressure-coincident, so it decays after
        // the trailing window and the controller re-tightens all the way
        // back to the quiet-air band — even though the monotone observed
        // input still reports the burst's high-water mark.
        for _ in 0..64 {
            step(&mut c, 2_000, false);
        }
        assert_eq!(
            c.current(),
            Delta::from_ticks(60),
            "the burst must be forgotten, not pinned into Δ forever"
        );
    }

    #[test]
    fn tightening_is_judged_with_lag() {
        let mut c = DeltaController::new(cfg(), Delta::from_ticks(1_000));
        let cmd = c
            .tick(Time::from_ticks(500), Delta::from_ticks(20), false)
            .expect("gap to close");
        assert!(cmd.delta < Delta::from_ticks(1_000));
        assert_eq!(
            cmd.judge_from,
            Time::from_ticks(500 + 200),
            "tighten judges only after 2×interval"
        );
        assert_eq!(
            c.schedule().delta_at(Time::from_ticks(699)),
            Delta::from_ticks(1_000)
        );
        assert_eq!(c.schedule().delta_at(Time::from_ticks(700)), cmd.delta);
    }

    #[test]
    fn observed_above_band_steps_to_target_without_pressure() {
        let mut c = DeltaController::new(cfg(), Delta::from_ticks(50));
        let cmd = c
            .tick(Time::from_ticks(10), Delta::from_ticks(2_000), false)
            .expect("must step up");
        assert_eq!(cmd.delta, Delta::from_ticks(3_000), "1.5× headroom");
        assert_eq!(cmd.judge_from, Time::from_ticks(10), "relax judges now");
    }

    #[test]
    fn commands_carry_monotone_seqs() {
        let mut c = DeltaController::new(cfg(), Delta::from_ticks(5_000));
        let mut last = 0;
        let mut now = Time::ZERO;
        for _ in 0..32 {
            now = now.saturating_add_delta(Delta::from_ticks(100));
            if let Some(cmd) = c.tick(now, Delta::from_ticks(100), false) {
                assert!(cmd.seq > last);
                last = cmd.seq;
            }
        }
        assert_eq!(c.seq(), last);
    }

    #[test]
    fn schedule_records_every_command() {
        let mut c = DeltaController::new(cfg(), Delta::from_ticks(4_000));
        let mut now = Time::ZERO;
        let mut n = 0;
        for _ in 0..32 {
            now = now.saturating_add_delta(Delta::from_ticks(100));
            if c.tick(now, Delta::from_ticks(64), false).is_some() {
                n += 1;
            }
        }
        assert_eq!(c.schedule().len(), n);
        assert_eq!(c.schedule().initial, Delta::from_ticks(4_000));
    }

    fn policy(base: u64, monitor_delta: Delta, expected_ops: usize) -> ControlPolicy {
        let kind = ProtocolKind::Tsc {
            delta: Delta::from_ticks(base),
        };
        ControlPolicy::new(cfg(), kind, monitor_delta, expected_ops)
    }

    fn readings(violations: usize, retries: u64, ingested: usize) -> Readings {
        Readings {
            observed: Delta::from_ticks(100),
            violations,
            ingested,
            retries,
        }
    }

    #[test]
    fn policy_signals_pressure_on_new_violations_or_new_retries() {
        // At the band's ceiling a quiet tick can only tighten and a
        // pressured one cannot move, so `change` tells the two apart.
        for (violations, retries) in [(1, 0), (0, 1)] {
            let mut p = policy(10_000, Delta::from_ticks(10_000), 10);
            let d = p.sample(Time::from_ticks(100), readings(violations, retries, 0));
            assert_eq!(d.change, None, "a new violation or retry is pressure");
            // The same totals again are not *new*: the tick is quiet.
            let d = p.sample(Time::from_ticks(200), readings(violations, retries, 0));
            assert!(d.change.is_some_and(|c| c.tightened));
        }
    }

    #[test]
    fn policy_broadcasts_only_once_a_command_exists_and_then_every_tick() {
        // Already on target (observed 100 → 150): nothing to command.
        let mut p = policy(150, Delta::from_ticks(150), 10);
        let d = p.sample(Time::from_ticks(100), readings(0, 0, 0));
        assert_eq!((d.change, d.broadcast), (None, None));
        // Pressure relaxes to 300: command 1, judged from now, widened by 0.
        let d = p.sample(Time::from_ticks(200), readings(0, 1, 0));
        let relaxed = Msg::DeltaUpdate {
            seq: 1,
            delta: Delta::from_ticks(300),
        };
        assert_eq!(
            d.change,
            Some(ScheduleChange {
                judge_from: Time::from_ticks(200),
                threshold: Delta::from_ticks(300),
                tightened: false,
            })
        );
        assert_eq!(d.broadcast, Some(relaxed));
        // Every later tick re-broadcasts the command in force, changed or
        // not.
        let d = p.sample(Time::from_ticks(300), readings(0, 1, 0));
        assert!(matches!(d.broadcast, Some(Msg::DeltaUpdate { seq, .. }) if seq >= 1));
        assert_eq!(p.schedule().initial, Delta::from_ticks(150));
    }

    #[test]
    fn policy_stops_sampling_once_every_expected_op_is_ingested() {
        let mut p = policy(150, Delta::from_ticks(150), 10);
        assert!(
            p.sample(Time::from_ticks(100), readings(0, 0, 9))
                .keep_sampling
        );
        assert!(
            !p.sample(Time::from_ticks(200), readings(0, 0, 10))
                .keep_sampling
        );
    }

    #[test]
    fn policy_widens_by_the_monitor_margin_saturating_at_zero() {
        let threshold = |monitor_delta: Delta| {
            let mut p = policy(1_000, monitor_delta, 10);
            let change = p.sample(Time::from_ticks(100), readings(0, 0, 0)).change;
            change.expect("a gap to close").threshold
        };
        // observed 100 → target 150; one quiet tick halves the gap: 575.
        assert_eq!(threshold(Delta::from_ticks(1_040)), Delta::from_ticks(615));
        assert_eq!(threshold(Delta::INFINITE), Delta::INFINITE);
        // A monitor tighter than the protocol's Δ widens by nothing — the
        // difference used to underflow (a debug panic, a near-infinite
        // judged threshold in release).
        assert_eq!(threshold(Delta::from_ticks(400)), Delta::from_ticks(575));
    }
}
