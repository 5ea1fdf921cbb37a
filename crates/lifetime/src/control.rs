//! Adaptive Δ control plane: retune the freshness threshold online.
//!
//! The paper fixes Δ per run, but its guarantee is really a contract the
//! system can *manage* (cf. "Algorithms for Timed Consistency Models"):
//! when the fleet keeps up — the streaming
//! [`OnTimeMonitor`](tc_core::checker::OnTimeMonitor)'s running
//! `min_delta` sits far below the commanded Δ — the threshold can be
//! tightened, buying clients fresher reads for the same traffic; under
//! backpressure (retries, violations against the widened bound) it must be
//! relaxed before the guarantee is broken rather than after.
//!
//! [`DeltaController`] is the one controller every driver ticks: each
//! tick reads the live monitor and the retry counter and steers Δ by an
//! integer-only law over `(now, observed min_delta, pressure)`, so every
//! driver — simulated or real — reaches identical decisions from identical
//! inputs. Each change is a Δ to broadcast to clients
//! ([`crate::Msg::DeltaUpdate`]) and an instant from which the *judge*
//! holds the fleet to it.
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

use tc_clocks::{Delta, Time};
pub use tc_core::checker::DeltaSchedule;
use tc_sim::metrics::names;
use tc_sim::{Metrics, TraceRecorder};

use crate::{Msg, ProtocolKind};

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

/// Controller ticks after the last backpressure during which a new
/// staleness maximum is still attributed to the fault: jittered and
/// retried deliveries complete well after the drops that signalled the
/// episode, so the trailing spikes belong to it too.
const FAULT_TRAIL_TICKS: u64 = 8;

/// Per-quiet-tick decay divisor of the transient staleness component:
/// a quarter of the fault-episode memory is forgotten each tick, so the
/// controller re-tightens within a few intervals of the network healing.
const TRANSIENT_DECAY_DIV: u64 = 4;

/// The adaptive-Δ controller every driver ticks: the decision law plus
/// the pressure signal, widening margin and stop rule around it. A driver
/// owns only *when* a tick runs and *how* the command reaches the clients.
///
/// The law tightens geometrically while the fleet keeps up and relaxes
/// multiplicatively (at least back to the safe target) under pressure.
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
    /// The margin the judged schedule carries over each commanded Δ:
    /// exactly what the static monitor bound carries over the protocol's
    /// configured Δ.
    widening: Delta,
    expected_ops: usize,
    last_violations: usize,
    last_retries: u64,
    current: Delta,
    /// Monotone command sequence number (0 before any change); clients
    /// ignore stale ones.
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
    /// The controller of a run of `kind` whose monitor judges the static Δ
    /// at `monitor_delta` and whose workload records `expected_ops`
    /// operations. It starts from the protocol's Δ clamped into the band;
    /// a monitor tighter than the protocol's Δ widens by nothing.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.interval` is infinite (the controller would never
    /// tick again), if `cfg.delta_min` exceeds `cfg.delta_max`, or if
    /// `kind` has no finite Δ (clamping SC's or CC's ∞ into the band would
    /// silently run TSC or TCC at `delta_max`).
    #[must_use]
    pub fn new(
        cfg: ControllerConfig,
        kind: ProtocolKind,
        monitor_delta: Delta,
        expected_ops: usize,
    ) -> Self {
        assert!(
            !cfg.interval.is_infinite(),
            "adaptive Δ control needs a finite interval"
        );
        assert!(
            cfg.delta_min <= cfg.delta_max,
            "adaptive Δ control needs delta_min ≤ delta_max, got {} > {}",
            cfg.delta_min,
            cfg.delta_max
        );
        let Some(base) = kind.delta().filter(|delta| !delta.is_infinite()) else {
            panic!(
                "adaptive Δ control needs a finite Δ (Tsc/Tcc), not {}",
                kind.label()
            );
        };
        let widening = if monitor_delta.is_infinite() {
            Delta::INFINITE
        } else {
            Delta::from_ticks(monitor_delta.ticks().saturating_sub(base.ticks()))
        };
        let initial = base.clamp(cfg.delta_min, cfg.delta_max);
        DeltaController {
            cfg,
            widening,
            expected_ops,
            last_violations: 0,
            last_retries: 0,
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

    /// The period between ticks.
    #[must_use]
    pub fn interval(&self) -> Delta {
        self.cfg.interval
    }

    /// The judged schedule committed so far.
    #[must_use]
    pub fn schedule(&self) -> &DeltaSchedule {
        &self.schedule
    }

    /// One control tick at true time `now`: reads the live monitor in
    /// `recorder` and the `RETRY` counter in `metrics`, steers Δ, and
    /// installs a change — widened by the monitor's margin — in the
    /// monitor, counting it as `DELTA_UPDATE` plus `DELTA_TIGHTEN` or
    /// `DELTA_RELAX`. Backpressure is new Δ violations against the widened
    /// schedule, or new client retries (lost or slow messages), since the
    /// last tick.
    ///
    /// Returns the command in force for the driver to (re-)broadcast —
    /// `None` until the controller has issued one; idempotent per sequence
    /// number, so a client that missed one (drop, outage) hears the next —
    /// and whether to keep ticking: `false` once every expected operation
    /// has been ingested.
    ///
    /// # Panics
    ///
    /// Panics if `recorder` has no monitor attached.
    pub fn tick(
        &mut self,
        now: Time,
        recorder: &mut TraceRecorder,
        metrics: &mut Metrics,
    ) -> (Option<Msg>, bool) {
        let monitor = recorder.monitor().expect("the driver attaches a monitor");
        let (observed, violations) = (monitor.min_delta(), monitor.violations().len());
        let more = monitor.ingested() < self.expected_ops;
        let retries = metrics.get(names::RETRY);
        let pressure = violations > self.last_violations || retries > self.last_retries;
        self.last_violations = violations;
        self.last_retries = retries;
        let prev = self.current;
        if let Some(judge_from) = self.steer(now, observed, pressure) {
            metrics.add(names::DELTA_UPDATE, 1);
            let direction = if self.current < prev {
                names::DELTA_TIGHTEN
            } else {
                names::DELTA_RELAX
            };
            metrics.add(direction, 1);
            recorder.monitor_schedule_change(judge_from, self.current + self.widening);
        }
        let broadcast = (self.seq > 0).then_some(Msg::DeltaUpdate {
            seq: self.seq,
            delta: self.current,
        });
        (broadcast, more)
    }

    /// The law: one step at true time `now`, fed the monitor's running
    /// `observed` min-Δ and whether backpressure fired since the last
    /// step. Pure and integer-only, so every driver reaches identical
    /// decisions from identical inputs. When Δ changes, commits the next
    /// command (`current`, `seq`, `schedule`) and returns the instant the
    /// judged schedule switches to it: `now` for a relaxation,
    /// `now + 2×interval` for a tightening.
    fn steer(&mut self, now: Time, observed: Delta, pressure: bool) -> Option<Time> {
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
        Some(judge_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_clocks::Epsilon;
    use tc_core::{ObjectId, SiteId};

    fn cfg() -> ControllerConfig {
        ControllerConfig::new(
            Delta::from_ticks(20),
            Delta::from_ticks(10_000),
            Delta::from_ticks(100),
        )
    }

    /// A TSC run's controller over `band`, starting from `base`, whose
    /// monitor judges at `monitor_delta` and which expects 10 operations.
    fn tsc(band: ControllerConfig, base: u64, monitor_delta: Delta) -> DeltaController {
        let kind = ProtocolKind::Tsc {
            delta: Delta::from_ticks(base),
        };
        DeltaController::new(band, kind, monitor_delta, 10)
    }

    /// [`tsc`] with no widening, for the law alone.
    fn controller(base: u64) -> DeltaController {
        tsc(cfg(), base, Delta::from_ticks(base))
    }

    /// A recorder whose monitor judges at `threshold` and has seen one
    /// read 100 ticks stale: two writes, and a read of the first 100
    /// ticks after the second.
    fn stale_read(threshold: Delta) -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        rec.attach_monitor(threshold, Epsilon::from_ticks(0));
        let (site, object) = (SiteId::new(0), ObjectId::new(0));
        let (old, new) = (rec.next_value(), rec.next_value());
        rec.record_write(site, object, old, Time::from_ticks(0));
        rec.record_write(site, object, new, Time::from_ticks(10));
        rec.record_read(SiteId::new(1), object, old, Time::from_ticks(110));
        assert_eq!(rec.monitor().unwrap().min_delta(), Delta::from_ticks(100));
        rec
    }

    #[test]
    fn tightens_geometrically_toward_the_target_band() {
        let mut c = controller(8_000);
        let observed = Delta::from_ticks(200); // target = 300
        let mut now = Time::from_ticks(0);
        let mut changes = 0;
        for _ in 0..64 {
            now = now.saturating_add_delta(Delta::from_ticks(100));
            if c.steer(now, observed, false).is_some() {
                changes += 1;
            }
        }
        assert_eq!(c.current, Delta::from_ticks(300), "settles on the target");
        assert!(changes <= 16, "geometric convergence, not a step per tick");
        // Settled: further quiet ticks are silent.
        assert_eq!(c.steer(now, observed, false), None);
    }

    #[test]
    fn pressure_relaxes_fast_and_is_capped() {
        let mut c = controller(40);
        let judge_from = c
            .steer(Time::from_ticks(100), Delta::from_ticks(30), true)
            .expect("pressure must relax");
        assert_eq!(c.current, Delta::from_ticks(80));
        assert_eq!(judge_from, Time::from_ticks(100), "relax judges now");
        for i in 0..20 {
            c.steer(Time::from_ticks(200 + i), Delta::from_ticks(30), true);
        }
        assert_eq!(c.current, Delta::from_ticks(10_000), "capped at delta_max");
    }

    #[test]
    fn fault_spikes_decay_and_the_controller_retightens() {
        let mut c = controller(1_000);
        let mut now = Time::ZERO;
        let mut step = |c: &mut DeltaController, observed: u64, pressure: bool| {
            now = now.saturating_add_delta(Delta::from_ticks(100));
            c.steer(now, Delta::from_ticks(observed), pressure)
        };
        // Quiet air: natural staleness 40 anchors, Δ settles on target 60.
        for _ in 0..32 {
            step(&mut c, 40, false);
        }
        assert_eq!(c.current, Delta::from_ticks(60));
        // Fault burst: the high-water mark spikes to 2000 under
        // backpressure — relax past it.
        for _ in 0..4 {
            step(&mut c, 2_000, true);
        }
        assert!(
            c.current >= Delta::from_ticks(3_000),
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
            c.current,
            Delta::from_ticks(60),
            "the burst must be forgotten, not pinned into Δ forever"
        );
    }

    #[test]
    fn tightening_is_judged_with_lag() {
        let mut c = controller(1_000);
        let judge_from = c
            .steer(Time::from_ticks(500), Delta::from_ticks(20), false)
            .expect("gap to close");
        assert!(c.current < Delta::from_ticks(1_000));
        assert_eq!(
            judge_from,
            Time::from_ticks(500 + 200),
            "tighten judges only after 2×interval"
        );
        assert_eq!(
            c.schedule.delta_at(Time::from_ticks(699)),
            Delta::from_ticks(1_000)
        );
        assert_eq!(c.schedule.delta_at(Time::from_ticks(700)), c.current);
    }

    #[test]
    fn observed_above_band_steps_to_target_without_pressure() {
        let mut c = controller(50);
        let judge_from = c
            .steer(Time::from_ticks(10), Delta::from_ticks(2_000), false)
            .expect("must step up");
        assert_eq!(c.current, Delta::from_ticks(3_000), "1.5× headroom");
        assert_eq!(judge_from, Time::from_ticks(10), "relax judges now");
    }

    #[test]
    fn every_command_bumps_the_seq_and_enters_the_schedule() {
        let mut c = controller(4_000);
        let mut now = Time::ZERO;
        for _ in 0..32 {
            now = now.saturating_add_delta(Delta::from_ticks(100));
            let seq = c.seq;
            let changed = c.steer(now, Delta::from_ticks(64), false).is_some();
            assert_eq!(c.seq, seq + u64::from(changed));
        }
        assert!(c.seq > 0);
        assert_eq!(c.schedule.len() as u64, c.seq);
        assert_eq!(c.schedule.initial, Delta::from_ticks(4_000));
    }

    #[test]
    #[should_panic(expected = "needs a finite interval")]
    fn an_infinite_interval_is_refused() {
        let band = ControllerConfig::new(Delta::ZERO, Delta::INFINITE, Delta::INFINITE);
        let _ = tsc(band, 100, Delta::INFINITE);
    }

    #[test]
    #[should_panic(expected = "needs delta_min ≤ delta_max, got 300 > 200")]
    fn an_inverted_band_is_refused() {
        let band =
            ControllerConfig::new(Delta::from_ticks(300), Delta::from_ticks(200), Delta::ZERO);
        let _ = tsc(band, 100, Delta::INFINITE);
    }

    /// A kind without a finite Δ is refused by name.
    fn refuse(kind: ProtocolKind) {
        let _ = DeltaController::new(cfg(), kind, Delta::INFINITE, 10);
    }

    #[test]
    #[should_panic(expected = "needs a finite Δ (Tsc/Tcc), not SC")]
    fn sc_is_refused() {
        refuse(ProtocolKind::sc());
    }

    #[test]
    #[should_panic(expected = "needs a finite Δ (Tsc/Tcc), not CC")]
    fn cc_is_refused() {
        refuse(ProtocolKind::cc());
    }

    #[test]
    #[should_panic(expected = "needs a finite Δ (Tsc/Tcc), not TCC-xi")]
    fn logical_tcc_is_refused() {
        refuse(ProtocolKind::TccLogical { xi_delta: 4.0 });
    }

    #[test]
    #[should_panic(expected = "needs a finite Δ (Tsc/Tcc), not NoCache")]
    fn no_cache_is_refused() {
        refuse(ProtocolKind::NoCache);
    }

    #[test]
    fn tick_signals_pressure_on_new_violations_or_new_retries() {
        // At the band's ceiling a quiet tick can only tighten and a
        // pressured one cannot move, so the counters tell the two apart.
        for violated in [true, false] {
            let mut c = tsc(cfg(), 10_000, Delta::from_ticks(10_000));
            // The stale read violates a monitor judging at 50; else a
            // retry is the pressure.
            let threshold = if violated { 50 } else { 10_000 };
            let mut rec = stale_read(Delta::from_ticks(threshold));
            let mut metrics = Metrics::new();
            if !violated {
                metrics.add(names::RETRY, 1);
            }
            let (command, _) = c.tick(Time::from_ticks(100), &mut rec, &mut metrics);
            assert_eq!(command, None, "a new violation or retry is pressure");
            // The same totals again are not *new*: the tick is quiet.
            c.tick(Time::from_ticks(200), &mut rec, &mut metrics);
            assert_eq!(metrics.get(names::DELTA_TIGHTEN), 1);
        }
    }

    #[test]
    fn tick_broadcasts_only_once_a_command_exists_and_then_every_tick() {
        // Already on target (observed 100 → 150): nothing to command.
        let mut c = tsc(cfg(), 150, Delta::from_ticks(150));
        let (mut rec, mut metrics) = (stale_read(Delta::from_ticks(150)), Metrics::new());
        assert_eq!(
            c.tick(Time::from_ticks(100), &mut rec, &mut metrics),
            (None, true)
        );
        assert!(rec.monitor().unwrap().schedule().is_empty());
        // A retry relaxes to 300: command 1, judged from now, widened by 0.
        metrics.add(names::RETRY, 1);
        let relaxed = Msg::DeltaUpdate {
            seq: 1,
            delta: Delta::from_ticks(300),
        };
        let (command, _) = c.tick(Time::from_ticks(200), &mut rec, &mut metrics);
        assert_eq!(command, Some(relaxed));
        assert_eq!(
            rec.monitor().unwrap().schedule(),
            [(Time::from_ticks(200), Delta::from_ticks(300))]
        );
        assert_eq!(metrics.get(names::DELTA_RELAX), 1);
        // Every later tick re-broadcasts the command in force, changed or
        // not.
        let (command, _) = c.tick(Time::from_ticks(300), &mut rec, &mut metrics);
        assert!(matches!(command, Some(Msg::DeltaUpdate { seq, .. }) if seq >= 1));
        assert_eq!(c.schedule().initial, Delta::from_ticks(150));
    }

    #[test]
    fn tick_stops_once_every_expected_op_is_ingested() {
        let mut c = tsc(cfg(), 150, Delta::from_ticks(150));
        let mut rec = TraceRecorder::new();
        rec.attach_monitor(Delta::from_ticks(150), Epsilon::from_ticks(0));
        for t in 0..10 {
            let value = rec.next_value();
            rec.record_write(SiteId::new(0), ObjectId::new(0), value, Time::from_ticks(t));
            let (_, more) = c.tick(Time::from_ticks(t), &mut rec, &mut Metrics::new());
            assert_eq!(more, t < 9, "after {} of 10 ops", t + 1);
        }
    }

    #[test]
    fn tick_widens_by_the_monitor_margin_saturating_at_zero() {
        let threshold = |monitor_delta: Delta| {
            let mut c = tsc(cfg(), 1_000, monitor_delta);
            let mut rec = stale_read(monitor_delta);
            c.tick(Time::from_ticks(100), &mut rec, &mut Metrics::new());
            let judged = rec.monitor().unwrap().schedule();
            judged.last().expect("a gap to close").1
        };
        // observed 100 → target 150; one quiet tick halves the gap: 575.
        assert_eq!(threshold(Delta::from_ticks(1_040)), Delta::from_ticks(615));
        assert_eq!(threshold(Delta::INFINITE), Delta::INFINITE);
        // A monitor tighter than the protocol's Δ widens by nothing — the
        // difference used to underflow (a debug panic, a near-infinite
        // judged threshold in release).
        assert_eq!(threshold(Delta::from_ticks(400)), Delta::from_ticks(575));
    }

    /// A retry since the last tick is pressure, read off the counters: the
    /// tick relaxes Δ from 4 000 to the band's 8 000, judged from now at
    /// the threshold widened by the monitor's 100-tick margin. The next,
    /// quiet tick tightens, judged from two intervals on. Each change is
    /// counted once, in its own direction.
    #[test]
    fn a_tick_installs_and_counts_the_change() {
        let (ticks, at) = (Delta::from_ticks, Time::from_ticks);
        let band = ControllerConfig::new(ticks(50), ticks(8_000), ticks(20));
        let mut controller = tsc(band, 4_000, ticks(4_100));
        let mut recorder = TraceRecorder::new();
        recorder.attach_monitor(ticks(4_100), Epsilon::from_ticks(0));
        let mut metrics = Metrics::new();
        metrics.add(names::RETRY, 3);
        let mut tick = |now| {
            let (command, more) = controller.tick(at(now), &mut recorder, &mut metrics);
            assert!(more, "nothing is ingested yet");
            let judged = *recorder.monitor().unwrap().schedule().last().unwrap();
            let counted = [
                names::DELTA_UPDATE,
                names::DELTA_RELAX,
                names::DELTA_TIGHTEN,
            ];
            (command, judged, counted.map(|name| metrics.get(name)))
        };
        let relaxed = Msg::DeltaUpdate {
            seq: 1,
            delta: ticks(8_000),
        };
        assert_eq!(
            tick(100),
            (Some(relaxed), (at(100), ticks(8_100)), [1, 1, 0])
        );
        let (command, judged, counted) = tick(120);
        let Some(Msg::DeltaUpdate { seq: 2, delta }) = command else {
            panic!("a quiet tick tightens: {command:?}");
        };
        assert!(delta < ticks(8_000));
        assert_eq!(judged, (at(160), ticks(delta.ticks() + 100)));
        assert_eq!(counted, [2, 1, 1]);
    }
}
