//! The node core: what sits between an engine and whichever driver hosts
//! it, written once for the simulator and the real drivers.
//!
//! A driver steps a [`Host`] ([`ClientCore`], [`ShardCore`], [`RelayCore`])
//! at the moment it observed an event and hands the emitted effects to
//! [`execute`]. It plugs in a [`TimeSource`] — [`SimClock`] reads a
//! simulated node's drifting local clock and true time off its `Context`,
//! `tc-store`'s `TickClock` ticks an `Instant` down against one shared
//! epoch — and a [`Port`], where sends, timers, counters and records land.
//! [`control_tick`] is the one adaptive-Δ control tick and [`judge_run`]
//! the tail that judges a finished run.

use std::time::Duration;

use tc_clocks::{Delta, Time};
use tc_core::checker::TimedReport;
use tc_core::History;
use tc_sim::metrics::names;
use tc_sim::{Metrics, MetricsSnapshot, NodeId, TraceRecorder};

use crate::control::{ControlPolicy, Readings};
use crate::engine::{Effect, Event, Inputs, Now, PrivateSources, TIMER_NEXT_OP};
use crate::{ClientEngine, GeoRelayEngine, Msg, ServerEngine};

/// What time is to a driver: how the moment it observed an event reads on
/// the node's clocks, and when a timer a step arms falls due.
pub trait TimeSource {
    /// The moment a driver observed an event.
    type At: Copy;
    /// When an armed timer falls due, in the driver's own terms.
    type Deadline;

    /// The node's `(local, true)` time at `at`: the clock the protocol may
    /// time-stamp with, and the true time recorded operations carry.
    fn read(&self, at: Self::At) -> (Time, Time);

    /// When a timer armed `after` past a step at true time `t` falls due;
    /// `None` arms nothing.
    fn deadline(&self, t: Time, after: Delta) -> Option<Self::Deadline>;

    /// How long an operation issued at `issued` has taken by now, where the
    /// driver measures latency at all.
    fn elapsed(&self, issued: Self::At) -> Option<Duration>;
}

/// The simulator's time source. A step reads its `Context`'s
/// `(local_now, true_now)`, and a timer is the `after` that
/// `Context::set_timer` counts from the step's instant in true time.
/// Simulated runs measure no wall-clock latency.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimClock;

impl TimeSource for SimClock {
    type At = (Time, Time);
    type Deadline = Delta;

    fn read(&self, at: (Time, Time)) -> (Time, Time) {
        at
    }

    /// Every timer, an infinite one included, goes to the world as armed.
    fn deadline(&self, _t: Time, after: Delta) -> Option<Delta> {
        Some(after)
    }

    fn elapsed(&self, _issued: (Time, Time)) -> Option<Duration> {
        None
    }
}

/// Where one engine's effects land: the only seam between [`execute`] and
/// a concrete driver.
pub trait Port {
    /// What [`Port::arm`] takes: the [`TimeSource::Deadline`] of the
    /// driver's time source.
    type Deadline;

    /// Delivers `msg` to node `to`. Delivery may silently fail (a lossy
    /// network, a hung-up channel, a link mid-reconnect): the engines'
    /// retry timers own recovery, so a lost send is never an error here.
    fn send(&mut self, to: NodeId, msg: Msg);
    /// Arms engine timer `token` to fire at `deadline`.
    fn arm(&mut self, deadline: Self::Deadline, token: u64);
    /// Where counters and recorded operations land: the run's counters,
    /// and its recorder where this node records (only clients do).
    fn telemetry(&mut self) -> (&mut Metrics, Option<&mut TraceRecorder>);
}

/// Executes what one engine step emitted, in emission order, leaving `out`
/// empty for the next step. A timer is the `time` source's deadline
/// counted from `t`, the true time of the step; a zero-valued counter
/// increment still materializes the counter, which experiment snapshots
/// rely on.
pub fn execute<T: TimeSource>(
    out: &mut Vec<Effect>,
    port: &mut impl Port<Deadline = T::Deadline>,
    time: &T,
    t: Time,
) {
    for effect in out.drain(..) {
        match effect {
            Effect::Send { to, msg } => port.send(to, msg),
            Effect::SetTimer { after, token } => {
                if let Some(deadline) = time.deadline(t, after) {
                    port.arm(deadline, token);
                }
            }
            Effect::Metric { name, add } => port.telemetry().0.add(name, add),
            Effect::Record(op) => op.apply(port.telemetry().1.expect("only clients record")),
        }
    }
}

/// An engine as a driver sees it: events in, effects out.
pub trait Host<T: TimeSource> {
    /// Feeds one event to the engine, preceded by the clock sample the
    /// engine contract requires, collecting the emitted effects into `out`
    /// for the driver to [`execute`]. `at` is the moment the driver
    /// observed the event, and the step runs at the time the node's clocks
    /// read then; no host reads a clock itself. `shared` lends the inputs
    /// a client without [`PrivateSources`] of its own draws on: the
    /// simulator's world RNG and shared value counter. Returns the step's
    /// true time, which its timers count from.
    fn step(
        &mut self,
        event: Event,
        at: T::At,
        shared: Option<&mut dyn Inputs>,
        out: &mut Vec<Effect>,
    ) -> Time;

    /// Whether the host's own work is over. Only a client ever finishes by
    /// itself; infrastructure runs until it is told to stop.
    fn finished(&self) -> bool {
        false
    }

    /// Whether timer `token` firing now would do anything. A driver drops
    /// a dead timer instead of stepping the host with it: a client's
    /// retry whose reply came first ([`ClientEngine::timer_is_live`]), any
    /// engine timer of a shard that is down.
    fn timer_is_live(&self, _token: u64) -> bool {
        true
    }
}

/// One client: the engine, its input sources, and per-operation latency
/// bookkeeping where the driver measures latency.
pub struct ClientCore<T: TimeSource> {
    /// The hosted engine.
    pub engine: ClientEngine,
    /// The site's private sources; `None` draws on what the driver lends.
    sources: Option<PrivateSources>,
    time: T,
    me: NodeId,
    latencies: Vec<Duration>,
    op_started: Option<T::At>,
    completed: usize,
}

impl<T: TimeSource> ClientCore<T> {
    /// The core of node `me` hosting `engine`, drawing from `sources`, or
    /// from the driver's shared inputs when `None`.
    pub fn new(engine: ClientEngine, sources: Option<PrivateSources>, time: T, me: NodeId) -> Self {
        ClientCore {
            engine,
            sources,
            time,
            me,
            latencies: Vec::new(),
            op_started: None,
            completed: 0,
        }
    }

    /// Surrenders the recorded per-operation latencies.
    #[must_use]
    pub fn into_latencies(self) -> Vec<Duration> {
        self.latencies
    }
}

impl<T: TimeSource> Host<T> for ClientCore<T> {
    /// Latency bookkeeping rides along: an operation's clock starts when
    /// its op-issue timer was observed and stops once the step in which
    /// the engine's completion count advances has run.
    fn step(
        &mut self,
        event: Event,
        at: T::At,
        shared: Option<&mut dyn Inputs>,
        out: &mut Vec<Effect>,
    ) -> Time {
        if matches!(event, Event::Timer { token } if token == TIMER_NEXT_OP) {
            self.op_started = Some(at);
        }
        let (local, truth) = self.time.read(at);
        let mut io: &mut dyn Inputs = match &mut self.sources {
            Some(own) => own,
            None => shared.expect("a client without sources of its own draws on shared ones"),
        };
        let me = self.me;
        self.engine
            .handle(Event::Now(Now { me, local, truth }), &mut io, out);
        self.engine.handle(event, &mut io, out);
        if self.engine.ops_done() > self.completed {
            self.completed = self.engine.ops_done();
            if let Some(issued) = self.op_started.take() {
                self.latencies.extend(self.time.elapsed(issued));
            }
        }
        truth
    }

    /// The workload is complete with nothing in flight.
    fn finished(&self) -> bool {
        self.engine.finished() && self.engine.is_idle()
    }

    fn timer_is_live(&self, token: u64) -> bool {
        self.engine.timer_is_live(token)
    }
}

/// An edge reported by [`OutageGate::poll`]: the shard just crossed into
/// or out of a kill window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutageEdge {
    /// The shard just entered a kill window: volatile state dies here.
    WentDown,
    /// The shard just left a kill window: feed [`Event::Restart`].
    CameUp,
}

/// One shard's kill/restart windows against its time source, consulted by
/// [`ShardCore`] on every step.
struct OutageGate {
    windows: Vec<(Time, Time)>,
    /// Inside a kill window as of the last poll.
    down: bool,
}

/// The timer [`ShardCore`] arms at every kill-window edge: apart from
/// every server engine token (client node indexes, the geo flush range,
/// the `u64::MAX` family).
const TIMER_OUTAGE_EDGE: u64 = u64::MAX - 3;

impl OutageGate {
    /// The gate for shard node `shard`, filtering `outages` (a
    /// [`tc_sim::FaultPlan::shard_outages`] rendering) down to its rows.
    fn new(shard: usize, outages: &[(usize, Time, Time)]) -> Self {
        OutageGate {
            windows: outages
                .iter()
                .filter(|(s, _, _)| *s == shard)
                .map(|(_, from, until)| (*from, *until))
                .collect(),
            down: false,
        }
    }

    /// Arms a [`TIMER_OUTAGE_EDGE`] at every window edge, counted from the
    /// step at `t`, so the driver steps the shard there however quiet it is.
    fn arm_edges(&self, t: Time, out: &mut Vec<Effect>) {
        for &(from, until) in &self.windows {
            for edge in [from, until] {
                out.push(Effect::SetTimer {
                    after: Delta::from_ticks(edge.ticks().saturating_sub(t.ticks())),
                    token: TIMER_OUTAGE_EDGE,
                });
            }
        }
    }

    /// Advances the gate to `now`, reporting a crossed edge if any. The
    /// shard is down during `[from, until)` of each window, matching the
    /// simulator's crash-at-`from`, restart-at-`until` schedule.
    fn poll(&mut self, now: Time) -> Option<OutageEdge> {
        let in_window = self
            .windows
            .iter()
            .any(|(from, until)| *from <= now && now < *until);
        match (self.down, in_window) {
            (false, true) => {
                self.down = true;
                Some(OutageEdge::WentDown)
            }
            (true, false) => {
                self.down = false;
                Some(OutageEdge::CameUp)
            }
            _ => None,
        }
    }
}

/// One shard: its engine, the clock sample that must precede every event,
/// and the shard's kill/restart windows. The simulator gives it none: a
/// simulated crash is the world's, with the timers of a dead incarnation
/// retired.
pub struct ShardCore<T> {
    /// The hosted engine.
    pub engine: ServerEngine,
    time: T,
    me: NodeId,
    outages: OutageGate,
}

impl<T: TimeSource> ShardCore<T> {
    /// The core of shard node `me`, killed and restarted as the rows of
    /// `outages` (shards named by node index) that name it say.
    pub fn new(engine: ServerEngine, time: T, me: NodeId, outages: &[(usize, Time, Time)]) -> Self {
        ShardCore {
            engine,
            time,
            me,
            outages: OutageGate::new(me.index(), outages),
        }
    }
}

impl<T: TimeSource> Host<T> for ShardCore<T> {
    /// The kill/restart policy rides along. `Event::Start` arms a timer at
    /// every window edge. Each step first crosses any edge its time lies
    /// past, counting `CRASH` or `RESTART`. While down the shard serves
    /// nothing: a message dead-letters (the simulator's down-node path)
    /// and a timer dies with the volatile state it would have flushed. The
    /// step that finds the shard up again feeds `Event::Restart` — a WAL
    /// replay under a durable store — before its own event.
    fn step(
        &mut self,
        event: Event,
        at: T::At,
        _shared: Option<&mut dyn Inputs>,
        out: &mut Vec<Effect>,
    ) -> Time {
        let (local, truth) = self.time.read(at);
        if event == Event::Start {
            self.outages.arm_edges(truth, out);
        }
        let edge = self.outages.poll(truth);
        match edge {
            Some(OutageEdge::WentDown) => out.push(Effect::metric(names::CRASH)),
            Some(OutageEdge::CameUp) => out.push(Effect::metric(names::RESTART)),
            None => {}
        }
        if self.outages.down {
            if matches!(event, Event::Message { .. }) {
                out.push(Effect::metric(names::FAULT_DROPPED_DOWN));
            }
            return truth;
        }
        let me = self.me;
        self.engine
            .handle(Event::Now(Now { me, local, truth }), out);
        if edge == Some(OutageEdge::CameUp) {
            self.engine.handle(Event::Restart, out);
        }
        if !matches!(event, Event::Timer { token } if token == TIMER_OUTAGE_EDGE) {
            self.engine.handle(event, out);
        }
        truth
    }

    fn timer_is_live(&self, token: u64) -> bool {
        token == TIMER_OUTAGE_EDGE || !self.outages.down
    }
}

/// A geo relay is infrastructure like a shard: it steps on bare events
/// (the relay engine time-stamps nothing, so no clock sample precedes
/// them; its timers count from the time the event was observed at) and
/// never finishes by itself.
pub struct RelayCore<T> {
    engine: GeoRelayEngine,
    time: T,
}

impl<T: TimeSource> RelayCore<T> {
    /// The core hosting `engine`.
    pub fn new(engine: GeoRelayEngine, time: T) -> Self {
        RelayCore { engine, time }
    }
}

impl<T: TimeSource> Host<T> for RelayCore<T> {
    fn step(
        &mut self,
        event: Event,
        at: T::At,
        _shared: Option<&mut dyn Inputs>,
        out: &mut Vec<Effect>,
    ) -> Time {
        self.engine.handle(event, out);
        self.time.read(at).1
    }
}

/// One adaptive control tick at true time `now`: reads the live monitor in
/// `recorder` and the `RETRY` counter in `metrics`, lets `policy` decide,
/// and installs a schedule change in the monitor, counting it as
/// `DELTA_UPDATE` plus `DELTA_TIGHTEN` or `DELTA_RELAX`. Returns the
/// command in force for the driver to (re-)broadcast, and whether to keep
/// sampling. A driver owns only *when* a tick runs and *how* the command
/// reaches the clients.
///
/// # Panics
///
/// Panics if `recorder` has no monitor attached.
pub fn control_tick(
    policy: &mut ControlPolicy,
    now: Time,
    recorder: &mut TraceRecorder,
    metrics: &mut Metrics,
) -> (Option<Msg>, bool) {
    let monitor = recorder.monitor().expect("the driver attaches a monitor");
    let readings = Readings {
        observed: monitor.min_delta(),
        violations: monitor.violations().len(),
        ingested: monitor.ingested(),
        retries: metrics.get(names::RETRY),
    };
    let decision = policy.sample(now, readings);
    if let Some(change) = decision.change {
        metrics.add(names::DELTA_UPDATE, 1);
        let direction = if change.tightened {
            names::DELTA_TIGHTEN
        } else {
            names::DELTA_RELAX
        };
        metrics.add(direction, 1);
        recorder.monitor_schedule_change(change.judge_from, change.threshold);
    }
    (decision.broadcast, decision.keep_sampling)
}

/// The tail every driver ends a run with: finishes `recorder` into the
/// run's history, its monitor's verdict and running `min_delta`, and adds
/// the monitor's own counters to `metrics`.
///
/// # Panics
///
/// Panics if `recorder` has no monitor attached, or if the recorded trace
/// violates a history invariant (a protocol bug).
#[must_use]
pub fn judge_run(
    recorder: TraceRecorder,
    metrics: &mut MetricsSnapshot,
) -> (History, TimedReport, Delta) {
    let monitor = recorder.monitor().expect("the driver attaches a monitor");
    let observed_staleness = monitor.min_delta();
    let late_writes = monitor.late_writes();
    let (history, report) = recorder
        .finish_with_report()
        .expect("protocol produced an invalid trace");
    let on_time = report.expect("the driver attaches a monitor");
    let counters = &mut metrics.counters;
    let violations = on_time.violations().len() as u64;
    counters.insert(names::ON_TIME_VIOLATIONS.to_string(), violations);
    counters.insert(names::MONITOR_LATE_WRITES.to_string(), late_writes);
    (history, on_time, observed_staleness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ControllerConfig;
    use crate::ProtocolKind;
    use tc_clocks::Epsilon;

    #[test]
    fn outage_gate_reports_edges_once_per_window() {
        let outages = vec![
            (0, Time::from_ticks(10), Time::from_ticks(20)),
            (1, Time::from_ticks(0), Time::from_ticks(5)), // another shard
        ];
        let mut gate = OutageGate::new(0, &outages);
        // Armed from tick 4: one edge timer due at each of 10 and 20.
        let mut edges = Vec::new();
        gate.arm_edges(Time::from_ticks(4), &mut edges);
        let afters: Vec<u64> = edges
            .iter()
            .map(|e| match e {
                Effect::SetTimer {
                    after,
                    token: TIMER_OUTAGE_EDGE,
                } => after.ticks(),
                other => panic!("unexpected effect {other:?}"),
            })
            .collect();
        assert_eq!(afters, vec![6, 16]);
        assert_eq!(gate.poll(Time::from_ticks(0)), None);
        assert_eq!(
            gate.poll(Time::from_ticks(10)),
            Some(OutageEdge::WentDown),
            "the window is inclusive at its start"
        );
        assert!(gate.down);
        assert_eq!(gate.poll(Time::from_ticks(15)), None, "edges fire once");
        assert_eq!(
            gate.poll(Time::from_ticks(20)),
            Some(OutageEdge::CameUp),
            "the shard restarts at the window's end"
        );
        assert!(!gate.down);
        assert_eq!(gate.poll(Time::from_ticks(25)), None);

        let mut unarmed = OutageGate::new(2, &outages);
        unarmed.arm_edges(Time::ZERO, &mut edges);
        assert_eq!(edges.len(), 2, "a shard with no window arms nothing");
        assert_eq!(unarmed.poll(Time::from_ticks(10)), None);
    }

    /// A retry since the last tick is pressure, read off the counters: the
    /// tick relaxes Δ from 4 000 to the band's 8 000, judged from now at
    /// the threshold widened by the monitor's 100-tick margin. The next,
    /// quiet tick tightens, judged from two intervals on. Each change is
    /// counted once, in its own direction.
    #[test]
    fn one_control_tick_installs_and_counts_the_change() {
        let (ticks, at) = (Delta::from_ticks, Time::from_ticks);
        let band = ControllerConfig::new(ticks(50), ticks(8_000), ticks(20));
        let kind = ProtocolKind::Tsc {
            delta: ticks(4_000),
        };
        let mut policy = ControlPolicy::new(band, kind, ticks(4_100), 10);
        let mut recorder = TraceRecorder::new();
        recorder.attach_monitor(ticks(4_100), Epsilon::from_ticks(0));
        let mut metrics = Metrics::new();
        metrics.add(names::RETRY, 3);
        let mut tick = |now| {
            let (command, more) = control_tick(&mut policy, at(now), &mut recorder, &mut metrics);
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
