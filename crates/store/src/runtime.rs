//! The real-time driver core, and the channel driver built on it.
//!
//! This is the counterpart of the deterministic simulator adapter in
//! `tc-lifetime`: the *same* [`ClientEngine`]/[`ServerEngine`] types run
//! here over OS threads, `std::sync::mpsc` channels, and an
//! [`Instant`]-based clock, with every recorded operation fed into a live
//! [`OnTimeMonitor`] — so real-concurrency
//! executions get streaming timed-consistency verdicts, not just simulated
//! ones.
//!
//! # The driver core
//!
//! Everything a real-time driver does around an engine exists once, here:
//!
//! * **stepping** — `ClientCore` / `ShardCore` (the `Host` trait): the
//!   tick of the instant the driver observed the event, event, effects
//!   out; a shard's kill/restart policy rides inside `ShardCore`;
//! * **effect execution** — `execute` interprets every [`Effect`] against
//!   a `Port` (where a send goes, which wheel a timer lands in);
//! * **the node loop** — `ChannelNode`: timer wheel, blocking receive,
//!   bounded drain, step, execute — one thread per node;
//! * **the channel fleet builder** — `run_channels`: [`run_threaded`] is
//!   its flat case, [`crate::run_threaded_geo`] its geo case;
//! * **the control plane** — `ControlPlane` samples the live monitor and
//!   ticks the adaptive Δ controller; the channel drivers call it from a
//!   sleeping thread, the reactor from a timer;
//! * **run state and result assembly** — `Telemetry`, `Shared`,
//!   `TickClock`, `TimerWheel` (in `wheel`), `finish_run`.
//!
//! [`crate::run_reactor`] hosts the same cores in two epoll loops and
//! implements `Port` over its connection table instead of channels.
//!
//! # Layout
//!
//! Node ids follow the simulator harness: shards first, region-major
//! (node 0 is *the* server in a single-shard run), then one relay per
//! region in a geo run, then client site `i`. One thread per node, each
//! on its own unbounded inbox. A client exits once its workload is
//! finished and nothing is in flight; once every client has, each shard
//! and relay is sent an explicit stop on its inbox and exits after
//! serving what was queued before it.
//!
//! # Time
//!
//! Real time is ticked down to the protocol's [`Time`] unit by dividing the
//! elapsed time since a shared epoch by [`RuntimeConfig::tick`]. All
//! threads read the same epoch, so ε is bounded by tick rounding (±1 tick
//! per reader) — the monitor gets a small ε to absorb it. Scheduling
//! jitter cannot be bounded the way simulated latency can, so
//! [`RuntimeConfig::for_protocol`] widens the monitor's Δ by a generous
//! real-time slack; the run's *observed* staleness is still reported
//! exactly, and the monitor verdict asserts the widened bound.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tc_clocks::{Delta, Epsilon, Time};
use tc_core::checker::{OnTimeMonitor, TimedReport};
use tc_core::History;
use tc_durable::WalStore;
use tc_lifetime::control::{ControlPolicy, ControllerConfig, DeltaSchedule, Readings};
use tc_lifetime::engine::{
    ClientEngine, Effect, Event, Now, PrivateSources, ServerEngine, TIMER_NEXT_OP,
};
use tc_lifetime::{GeoRelayEngine, Msg, ProtocolConfig};
use tc_sim::metrics::names;
use tc_sim::workload::Workload;
use tc_sim::{Metrics, MetricsSnapshot, NodeId, TraceRecorder};

use crate::geo::{is_wan, wan_courier, GeoRuntimeConfig, RelayCore, WanPacket};
use crate::reactor::TimerSlack;
use crate::wheel::TimerWheel;

/// Configuration of one threaded run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// The protocol under test.
    pub protocol: ProtocolConfig,
    /// Number of client sites (threads).
    pub n_clients: usize,
    /// The workload every client runs.
    pub workload: Workload,
    /// Operations each client performs.
    pub ops_per_client: usize,
    /// Base seed; client `i` draws from
    /// [`tc_lifetime::engine::client_rng_seed`]`(seed, i)` — the same
    /// derivation the simulator's private-source mode uses, so sim and
    /// threaded runs of one configuration perform identical per-site
    /// operation sequences.
    pub seed: u64,
    /// Real-time duration of one protocol tick.
    pub tick: Duration,
    /// Δ handed to the on-time monitor.
    pub monitor_delta: Delta,
    /// ε handed to the on-time monitor (absorbs tick rounding).
    pub monitor_eps: Epsilon,
    /// When set, every shard engine runs over a `tc-durable` WAL store
    /// rooted at `<wal_dir>/shard-<i>` instead of the in-memory store —
    /// crash/restart then *recovers* durable state by replay instead of
    /// forgetting it. `None` keeps the default in-memory backend.
    pub wal_dir: Option<PathBuf>,
    /// Shard kill/restart windows in protocol ticks (shard down during
    /// `[from, until)`, restarted at `until`) — the real-time drivers'
    /// rendering of [`tc_sim::FaultPlan::shard_outages`]. Empty by
    /// default.
    pub shard_outages: Vec<(usize, Time, Time)>,
    /// When set, a [`tc_lifetime::DeltaController`] retunes Δ online: a control thread
    /// samples the live monitor every `interval`, broadcasts
    /// [`Msg::DeltaUpdate`] commands to every client, and shifts the
    /// monitor's judged schedule (widened by the same slack as the static
    /// bound) from each command's `judge_from`. `None` (the default) keeps
    /// the static Δ — and byte-identical behaviour with earlier drivers.
    pub adaptive: Option<ControllerConfig>,
}

/// Extra Δ given to the monitor on top of the protocol's own threshold:
/// OS scheduling can delay any thread unboundedly in principle, so the
/// *verdict* bound is generous while
/// [`RuntimeResult::observed_staleness`] stays exact. 20 000 ticks = 1 s
/// at the default 50 µs tick.
pub const MONITOR_SLACK: Delta = Delta::from_ticks(20_000);

impl RuntimeConfig {
    /// A ready-to-run configuration: 50 µs ticks, monitor at the
    /// protocol's Δ plus [`MONITOR_SLACK`] (or unbounded for untimed
    /// levels), ε of 2 ticks for rounding.
    #[must_use]
    pub fn for_protocol(
        protocol: ProtocolConfig,
        n_clients: usize,
        workload: Workload,
        ops_per_client: usize,
        seed: u64,
    ) -> Self {
        let monitor_delta = match protocol.kind.delta() {
            Some(delta) => Delta::from_ticks(delta.ticks().saturating_add(MONITOR_SLACK.ticks())),
            None => Delta::INFINITE,
        };
        RuntimeConfig {
            protocol,
            n_clients,
            workload,
            ops_per_client,
            seed,
            tick: Duration::from_micros(50),
            monitor_delta,
            monitor_eps: Epsilon::from_ticks(2),
            wal_dir: None,
            shard_outages: Vec::new(),
            adaptive: None,
        }
    }
}

/// Builds one shard's engine over the configured storage backend: the
/// in-memory store by default, or a [`WalStore`] under
/// `<wal_dir>/shard-<i>` when a WAL directory is set. Opening a dirty
/// directory recovers the previous incarnation's durable state — this is
/// the single point where every real-time driver (threaded, geo, reactor)
/// decides what a shard remembers.
pub(crate) fn build_shard_engine(
    protocol: ProtocolConfig,
    wal_dir: Option<&Path>,
    shard: usize,
) -> ServerEngine {
    match wal_dir {
        None => ServerEngine::new(protocol),
        Some(dir) => {
            // An ephemeral config never syncs, so a WAL store under it
            // would defer write acks forever — reject the combination
            // loudly instead of hanging the run.
            assert!(
                protocol.durability.is_durable(),
                "wal_dir is set but the protocol durability mode is Ephemeral; \
                 configure DurabilityMode::Durable with an fsync policy"
            );
            ServerEngine::with_store(
                protocol,
                Box::new(WalStore::open(
                    dir.join(format!("shard-{shard}")),
                    shard as u16,
                    tc_durable::DEFAULT_SNAPSHOT_EVERY,
                )),
            )
        }
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

/// One shard's kill/restart windows against the tick clock — the
/// real-time counterpart of the simulator's scheduled crash/restart
/// events, consulted by [`ShardCore`] on every step.
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

/// Latency distribution of completed operations (issue → completion).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Completed operations measured.
    pub count: usize,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// 99th-percentile latency in microseconds (nearest-rank).
    pub p99_us: f64,
    /// Worst observed latency in microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    pub(crate) fn from_durations(mut v: Vec<Duration>) -> Self {
        if v.is_empty() {
            return LatencySummary::default();
        }
        v.sort_unstable();
        let count = v.len();
        let sum: Duration = v.iter().sum();
        let rank = ((0.99 * count as f64).ceil() as usize).clamp(1, count);
        LatencySummary {
            count,
            mean_us: sum.as_secs_f64() * 1e6 / count as f64,
            p99_us: v[rank - 1].as_secs_f64() * 1e6,
            max_us: v[count - 1].as_secs_f64() * 1e6,
        }
    }
}

/// Everything a threaded run produces.
#[derive(Clone, Debug)]
pub struct RuntimeResult {
    /// The recorded execution (sites are client indices), checker-ready.
    pub history: History,
    /// The live monitor's verdict at the configured Δ and ε.
    pub on_time: TimedReport,
    /// The monitor's running `min_delta`: the smallest Δ for which this
    /// run was timed.
    pub observed_staleness: Delta,
    /// Protocol cost counters (same names as the simulator's).
    pub metrics: MetricsSnapshot,
    /// Operations completed across all clients.
    pub ops_done: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Per-operation latency distribution.
    pub latency: LatencySummary,
    /// Requests served by each shard (fetch + validate + write), indexed by
    /// shard — the fleet's load-balance statistic.
    pub shard_requests: Vec<u64>,
    /// The Δ-schedule the controller commanded, when the run was adaptive
    /// ([`RuntimeConfig::adaptive`]); `None` for static-Δ runs.
    pub delta_schedule: Option<DeltaSchedule>,
}

impl RuntimeResult {
    /// Completed operations per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.ops_done as f64 / self.wall.as_secs_f64()
        }
    }

    /// A named cost counter, zero when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }

    /// Cache hit rate over all client reads that consulted the cache
    /// (the simulator's `RunResult::hit_rate`, same formula).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.counter(names::CACHE_HIT) as f64;
        let misses = self.counter(names::CACHE_MISS) as f64 + self.counter(names::VALIDATE) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

/// The shared tick clock: every thread derives protocol [`Time`] from one
/// epoch, so "local" and "true" time coincide up to rounding, and every
/// driver timer is a deadline on that same clock
/// ([`TickClock::deadline_after`]).
#[derive(Clone, Copy)]
pub(crate) struct TickClock {
    epoch: Instant,
    tick_nanos: u64,
}

impl TickClock {
    pub(crate) fn new(tick: Duration) -> Self {
        TickClock::starting_at(Instant::now(), tick)
    }

    /// A clock whose tick 0 begins at `epoch`.
    pub(crate) fn starting_at(epoch: Instant, tick: Duration) -> Self {
        TickClock {
            epoch,
            tick_nanos: (tick.as_nanos() as u64).max(1),
        }
    }

    pub(crate) fn now(&self) -> Time {
        self.tick_at(Instant::now())
    }

    /// The tick the clock reads at `at`.
    pub(crate) fn tick_at(&self, at: Instant) -> Time {
        Time::from_ticks(
            at.saturating_duration_since(self.epoch).as_nanos() as u64 / self.tick_nanos,
        )
    }

    /// How many tick boundaries `epoch + k · tick` lie at or before `at`
    /// (boundary 0 is the epoch itself).
    pub(crate) fn boundaries_passed(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64 / self.tick_nanos + 1)
    }

    /// The first tick boundary at or after `at`, as its `k`.
    pub(crate) fn boundary_at_or_after(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| (d.as_nanos() as u64).div_ceil(self.tick_nanos))
    }

    /// The real-time length of `delta` — a *period* (the controller's
    /// sampling interval, a WAN hold), not a timer: engine timers are
    /// deadlines on the clock itself, see [`TickClock::deadline_after`].
    /// `None` for an infinite delta.
    pub(crate) fn delta_to_duration(&self, delta: Delta) -> Option<Duration> {
        if delta.is_infinite() {
            return None;
        }
        Some(Duration::from_nanos(
            self.tick_nanos.saturating_mul(delta.ticks().max(1)),
        ))
    }

    /// The instant at which this clock will have advanced by `delta` ticks
    /// from the reading `t` an engine step was fed: the tick *boundary*
    /// `epoch + (t + max(delta, 1)) · tick`. This is the driver timer
    /// contract — an engine's `SetTimer { after: k }` fires when the
    /// shared clock reads `t + k`, as it does in the simulator, not `k`
    /// ticks plus whatever was left of tick `t`, and not `k` ticks from
    /// whatever the clock reads by the time the effect is executed. Zero
    /// rounds up to one tick, so a timer never fires before the clock
    /// reads `t + 1` (the per-site strictly-increasing-time invariant of a
    /// [`History`]), and threads whose timers land on the same tick wake
    /// at the same instant. `None` for an infinite delta: "never" arms
    /// nothing.
    pub(crate) fn deadline_after(&self, t: Time, delta: Delta) -> Option<Instant> {
        if delta.is_infinite() {
            return None;
        }
        let at = t.ticks().saturating_add(delta.ticks().max(1));
        Some(self.epoch + Duration::from_nanos(self.tick_nanos.saturating_mul(at)))
    }
}

/// What engine steps leave behind besides sends and timers: the counters
/// and, on the thread that hosts the clients, the recorded history with
/// its live monitor. On the reactor each thread owns one — only the
/// client thread's records — and [`finish_run`] merges them; the channel
/// drivers share one behind [`Shared`].
pub(crate) struct Telemetry {
    pub(crate) metrics: Metrics,
    recorder: Option<TraceRecorder>,
}

impl Telemetry {
    /// Counters only, for a thread that hosts no client: shards and relays
    /// record nothing.
    pub(crate) fn counters() -> Self {
        Telemetry {
            metrics: Metrics::new(),
            recorder: None,
        }
    }

    /// Counters plus the run's recorder, with the live monitor attached at
    /// `config`'s Δ and ε.
    pub(crate) fn recording(config: &RuntimeConfig) -> Self {
        let mut recorder = TraceRecorder::new();
        recorder.attach_monitor(config.monitor_delta, config.monitor_eps);
        Telemetry {
            metrics: Metrics::new(),
            recorder: Some(recorder),
        }
    }

    fn recorder(&mut self) -> &mut TraceRecorder {
        self.recorder
            .as_mut()
            .expect("only the thread hosting the clients records")
    }

    fn monitor(&self) -> &OnTimeMonitor {
        self.recorder
            .as_ref()
            .and_then(TraceRecorder::monitor)
            .expect("monitor attached by the driver")
    }
}

/// The channel drivers' run state: the one [`Telemetry`] every node thread
/// steps into, behind a mutex taken once per step. The reactor does not
/// use it — its threads own their telemetry.
pub(crate) struct Shared(Mutex<Telemetry>);

impl Shared {
    /// The shared state of one run of `config`: empty counters and a
    /// recorder with the live monitor attached at the configured Δ and ε.
    pub(crate) fn new(config: &RuntimeConfig) -> Self {
        Shared(Mutex::new(Telemetry::recording(config)))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Telemetry> {
        self.0.lock().expect("telemetry lock")
    }

    pub(crate) fn into_inner(self) -> Telemetry {
        self.0.into_inner().expect("telemetry lock")
    }
}

/// Where one engine's effects land — the only seam between the shared
/// effect executor ([`execute`]) and a concrete driver: a channel node's
/// senders and wheel ([`ChannelNode`]), or a reactor's connection table
/// and composite timer tokens ([`crate::reactor`]).
pub(crate) trait Port {
    /// Delivers `msg` to node `to`. Delivery may silently fail (a hung-up
    /// channel, a link mid-reconnect): the engines' retry timers own
    /// recovery, so a lost send is never an error here.
    fn send(&mut self, to: NodeId, msg: Msg);
    /// Arms engine timer `token` to fire once `deadline` has passed.
    fn arm(&mut self, deadline: Instant, token: u64);
}

/// Executes what one engine step emitted, leaving `out` empty for the next
/// step — the one place an [`Effect`] is interpreted, whichever driver
/// hosts the engine. A timer is a deadline on the shared tick clock,
/// counted from `t`, the tick the step was fed
/// ([`TickClock::deadline_after`]); an infinite delta means "never" and
/// arms nothing. Counters and records go into the caller's `telemetry`.
pub(crate) fn execute(
    out: &mut Vec<Effect>,
    port: &mut impl Port,
    clock: &TickClock,
    t: Time,
    telemetry: &mut Telemetry,
) {
    for effect in out.drain(..) {
        match effect {
            Effect::Send { to, msg } => port.send(to, msg),
            Effect::SetTimer { after, token } => {
                if let Some(deadline) = clock.deadline_after(t, after) {
                    port.arm(deadline, token);
                }
            }
            // Unconditional like the sim adapter: zero-increments
            // materialize the counter so snapshots carry it.
            Effect::Metric { name, add } => telemetry.metrics.add(name, add),
            Effect::Record(op) => op.apply(telemetry.recorder()),
        }
    }
}

/// An engine as a driver sees it: events in, effects out. Implemented by
/// [`ClientCore`], [`ShardCore`] and the geo relay engine, so the channel
/// node loop and the reactors step whatever they host the same way.
pub(crate) trait Host {
    /// Feeds one event to the engine — preceded by a clock sample where
    /// the engine contract requires one — collecting the emitted effects
    /// into `out` for the driver to [`execute`]. `at` is the instant the
    /// driver observed the event (the pass that popped a timer, the `read`
    /// that returned a frame's bytes), and the step runs at the tick the
    /// clock read then: an event happens when it reaches the host, not
    /// when the host's thread gets round to it. No host reads the clock
    /// itself. Returns that tick, which the effects' timers count from.
    fn step(&mut self, event: Event, at: Instant, out: &mut Vec<Effect>) -> Time;

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

/// The driver-independent heart of one client: the engine, its private
/// input sources, the shared tick clock, and per-operation latency
/// bookkeeping. Every real-time driver steps clients through this one
/// type, so "what a client does per event" (clock injection order,
/// op-issue latency stamps, completion counting) is defined exactly once.
pub(crate) struct ClientCore {
    pub(crate) engine: ClientEngine,
    sources: PrivateSources,
    clock: TickClock,
    me: NodeId,
    latencies: Vec<Duration>,
    op_started: Option<Instant>,
    completed: usize,
}

impl ClientCore {
    /// The core of client `site` (node `me`) of `config`'s fleet, speaking
    /// to `servers`; its operation stream is derived from the run seed.
    pub(crate) fn for_site(
        config: &RuntimeConfig,
        servers: Vec<NodeId>,
        me: NodeId,
        site: usize,
        clock: TickClock,
    ) -> Self {
        ClientCore {
            engine: ClientEngine::new(
                config.protocol,
                servers,
                site,
                config.n_clients,
                config.workload.clone(),
                config.ops_per_client,
            ),
            sources: PrivateSources::new(config.seed, site, config.n_clients),
            clock,
            me,
            latencies: Vec::new(),
            op_started: None,
            completed: 0,
        }
    }

    /// Surrenders the recorded per-operation latencies.
    pub(crate) fn into_latencies(self) -> Vec<Duration> {
        self.latencies
    }
}

impl Host for ClientCore {
    /// Latency bookkeeping rides along: the op clock starts when the
    /// op-issue timer was observed and stops once the step in which the
    /// engine's completion count advances has run.
    fn step(&mut self, event: Event, at: Instant, out: &mut Vec<Effect>) -> Time {
        if matches!(
            event,
            Event::Timer {
                token: TIMER_NEXT_OP
            }
        ) {
            self.op_started = Some(at);
        }
        let t = self.clock.tick_at(at);
        let now = Now {
            me: self.me,
            local: t,
            truth: t,
        };
        self.engine.handle(Event::Now(now), &mut self.sources, out);
        self.engine.handle(event, &mut self.sources, out);
        if self.engine.ops_done() > self.completed {
            self.completed = self.engine.ops_done();
            if let Some(started) = self.op_started.take() {
                self.latencies.push(started.elapsed());
            }
        }
        t
    }

    /// The workload is complete with nothing in flight.
    fn finished(&self) -> bool {
        self.engine.finished() && self.engine.is_idle()
    }

    fn timer_is_live(&self, token: u64) -> bool {
        self.engine.timer_is_live(token)
    }
}

/// The driver-independent heart of one shard: its engine, the clock
/// sample that must precede every event, and the shard's kill/restart
/// policy — shared by the channel node loop and the shard reactor, which
/// owns its engine inside the event loop instead of behind an inbox.
pub(crate) struct ShardCore {
    pub(crate) engine: ServerEngine,
    clock: TickClock,
    me: NodeId,
    outages: OutageGate,
}

impl ShardCore {
    /// The core of shard node `me`, killed and restarted as the rows of
    /// `outages` (shards named by node index) that name it say.
    pub(crate) fn new(
        engine: ServerEngine,
        clock: TickClock,
        me: NodeId,
        outages: &[(usize, Time, Time)],
    ) -> Self {
        ShardCore {
            engine,
            clock,
            me,
            outages: OutageGate::new(me.index(), outages),
        }
    }
}

impl Host for ShardCore {
    /// The kill/restart policy rides along. `Event::Start` arms a timer at
    /// every window edge. Each step first crosses any edge its tick lies
    /// past, counting `CRASH` or `RESTART`. While down the shard serves
    /// nothing: a message dead-letters (the simulator's down-node path)
    /// and a timer dies with the volatile state it would have flushed. The
    /// step that finds the shard up again feeds `Event::Restart` — a WAL
    /// replay under a durable store — before its own event.
    fn step(&mut self, event: Event, at: Instant, out: &mut Vec<Effect>) -> Time {
        let t = self.clock.tick_at(at);
        if matches!(event, Event::Start) {
            self.outages.arm_edges(t, out);
        }
        let edge = self.outages.poll(t);
        if let Some(edge) = edge {
            let name = match edge {
                OutageEdge::WentDown => names::CRASH,
                OutageEdge::CameUp => names::RESTART,
            };
            out.push(Effect::Metric { name, add: 1 });
        }
        if self.outages.down {
            if matches!(event, Event::Message { .. }) {
                out.push(Effect::Metric {
                    name: names::FAULT_DROPPED_DOWN,
                    add: 1,
                });
            }
            return t;
        }
        let now = Now {
            me: self.me,
            local: t,
            truth: t,
        };
        self.engine.handle(Event::Now(now), out);
        if edge == Some(OutageEdge::CameUp) {
            self.engine.handle(Event::Restart, out);
        }
        if !matches!(
            event,
            Event::Timer {
                token: TIMER_OUTAGE_EDGE
            }
        ) {
            self.engine.handle(event, out);
        }
        t
    }

    fn timer_is_live(&self, token: u64) -> bool {
        token == TIMER_OUTAGE_EDGE || !self.outages.down
    }
}

/// Cap on how many already-queued messages one node-loop pass drains
/// beyond the blocking receive. Bounded so a request flood cannot postpone
/// a due timer indefinitely; 128 messages is far past any burst a fleet
/// produces between timer deadlines.
const DRAIN_BATCH: usize = 128;

/// A channel node's [`Port`]: sends go through the driver's routing
/// closure, timers into the node's own wheel.
struct ChannelPort<S> {
    send: S,
    timers: TimerWheel,
}

impl<S: FnMut(NodeId, Msg)> Port for ChannelPort<S> {
    fn send(&mut self, to: NodeId, msg: Msg) {
        (self.send)(to, msg);
    }

    fn arm(&mut self, deadline: Instant, token: u64) {
        self.timers.arm(deadline, token);
    }
}

/// What a channel node's inbox carries.
pub(crate) enum Inbound {
    /// A protocol message from the named node.
    Msg(NodeId, Msg),
    /// Exit once everything queued before this is served: [`run_channels`]
    /// sends it to every shard and relay once the clients are done.
    Stop,
}

/// The one blocking wait of a channel thread: the next item on `inbox`,
/// waiting until `deadline` at most (`Ok(None)` once it has passed) or,
/// without one, until something arrives. `Err` once every sender is gone.
pub(crate) fn recv_by<T>(
    inbox: &Receiver<T>,
    deadline: Option<Instant>,
) -> Result<Option<T>, RecvError> {
    let Some(deadline) = deadline else {
        return inbox.recv().map(Some);
    };
    let wait = deadline.saturating_duration_since(Instant::now());
    if wait.is_zero() {
        return Ok(None);
    }
    match inbox.recv_timeout(wait) {
        Ok(item) => Ok(Some(item)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => Err(RecvError),
    }
}

/// One thread-per-node engine host over in-process channels: the node
/// loop of [`run_channels`]. What a node *is* — a client, a shard, a geo
/// relay — is its [`Host`]; where its sends go is the `send` closure. A
/// client ends when its host reports [`Host::finished`], every other node
/// at [`Inbound::Stop`].
pub(crate) struct ChannelNode<'a, H, S> {
    host: H,
    port: ChannelPort<S>,
    clock: TickClock,
    shared: &'a Shared,
    effects: Vec<Effect>,
}

impl<'a, H: Host, S: FnMut(NodeId, Msg)> ChannelNode<'a, H, S> {
    pub(crate) fn new(host: H, send: S, clock: TickClock, shared: &'a Shared) -> Self {
        ChannelNode {
            host,
            port: ChannelPort {
                send,
                timers: TimerWheel::new(&clock),
            },
            clock,
            shared,
            effects: Vec::new(),
        }
    }

    /// Feeds one event, observed at `at`, to the host and executes what it
    /// emits, taking the telemetry lock once. The effects scratch is left
    /// empty, so a step allocates nothing once it is warm.
    fn feed(&mut self, event: Event, at: Instant) {
        let t = self.host.step(event, at, &mut self.effects);
        let mut telemetry = self.shared.lock();
        execute(
            &mut self.effects,
            &mut self.port,
            &self.clock,
            t,
            &mut telemetry,
        );
    }

    /// The node loop: feed `Event::Start`, then, pass by pass, collect the
    /// due timers, block on the inbox towards the next deadline when
    /// nothing is due, drain a bounded batch of what else is queued, and
    /// step the host through the batch in order — the timers at the
    /// instant the pass began, every message at the one instant read after
    /// the drain. Returns the host for the caller to read its results off.
    ///
    /// # Panics
    ///
    /// Panics if the inbox disconnects: the builder holds every sender
    /// until the node has stopped.
    pub(crate) fn run(mut self, inbox: &Receiver<Inbound>) -> H {
        let _slack = TimerSlack::pin();
        self.feed(Event::Start, Instant::now());
        // Scratch reused across passes; steady-state passes allocate
        // nothing.
        let mut due: Vec<u64> = Vec::new();
        let mut events: Vec<Event> = Vec::new();
        let mut stopping = false;
        while !stopping && !self.host.finished() {
            // The sweep collects every due timer before any fires:
            // handling one may arm new ones, which belong to the next
            // pass.
            let now = Instant::now();
            self.port.timers.pop_due_into(now, &mut due);
            events.extend(due.iter().map(|&token| Event::Timer { token }));
            let popped = events.len();
            if events.is_empty() {
                // Block towards the next deadline — indefinitely with none
                // armed: a message wakes the thread at once (the channel
                // wait parks on a condvar).
                match recv_by(inbox, self.port.timers.next_deadline())
                    .expect("the fleet builder holds every sender")
                {
                    Some(Inbound::Msg(from, msg)) => events.push(Event::Message { from, msg }),
                    Some(Inbound::Stop) => stopping = true,
                    None => continue, // a deadline is due
                }
            }
            // Opportunistically drain whatever else is already queued so a
            // burst is served in one pass instead of one wakeup per
            // message. The channel is FIFO and the batch is processed in
            // drain order, so per-sender ordering is exactly what
            // sequential receives gave, and a stop comes after everything
            // queued before it.
            while !stopping && events.len() < DRAIN_BATCH {
                match inbox.try_recv() {
                    Ok(Inbound::Msg(from, msg)) => events.push(Event::Message { from, msg }),
                    Ok(Inbound::Stop) => stopping = true,
                    Err(_) => break,
                }
            }
            let received = if events.len() > popped {
                Instant::now()
            } else {
                now
            };
            for (i, event) in events.drain(..).enumerate() {
                // A dead timer would step the host for nothing.
                if let Event::Timer { token } = event {
                    if !self.host.timer_is_live(token) {
                        continue;
                    }
                }
                self.feed(event, if i < popped { now } else { received });
            }
        }
        self.port.timers.report(&mut self.shared.lock().metrics);
        self.host
    }
}

/// The adaptive control plane as the real-time drivers host it: the
/// shared [`ControlPolicy`] over the readings of the telemetry that holds
/// the monitor. A driver owns *when* a sample is taken (a sleeping thread,
/// a reactor timer) and *how* the resulting command reaches the clients
/// (their inboxes, a direct feed).
pub(crate) struct ControlPlane {
    policy: ControlPolicy,
    /// Sender of every command: a synthetic node id past every real node
    /// of a flat fleet (clients ignore the sender of a `DeltaUpdate`).
    from: NodeId,
}

impl ControlPlane {
    /// The control plane `config` asks for: `None` unless the run is
    /// adaptive.
    ///
    /// # Panics
    ///
    /// Panics if an adaptive run is configured over an untimed protocol.
    pub(crate) fn new(config: &RuntimeConfig) -> Option<Self> {
        Some(ControlPlane {
            policy: ControlPolicy::new(
                config.adaptive?,
                config.protocol.kind,
                config.monitor_delta,
                config.n_clients * config.ops_per_client,
            ),
            from: NodeId::new(config.protocol.shards + config.n_clients),
        })
    }

    /// The real-time period between samples.
    pub(crate) fn interval(&self, clock: &TickClock) -> Duration {
        clock
            .delta_to_duration(self.policy.interval())
            .unwrap_or(Duration::from_millis(5))
    }

    /// One control tick: reads the live monitor and the retry counter of
    /// the clients' `telemetry`, lets the policy decide, and installs a
    /// schedule change in the monitor. Returns the command in force for
    /// the driver to (re-)broadcast, and whether to keep sampling.
    pub(crate) fn sample(
        &mut self,
        clock: &TickClock,
        telemetry: &mut Telemetry,
    ) -> (Option<(NodeId, Msg)>, bool) {
        let monitor = telemetry.monitor();
        let readings = Readings {
            observed: monitor.min_delta(),
            violations: monitor.violations().len(),
            ingested: monitor.ingested(),
            retries: telemetry.metrics.get(names::RETRY),
        };
        let decision = self.policy.sample(clock.now(), readings);
        if let Some(change) = decision.change {
            telemetry.metrics.add(names::DELTA_UPDATE, 1);
            telemetry.metrics.add(
                if change.tightened {
                    names::DELTA_TIGHTEN
                } else {
                    names::DELTA_RELAX
                },
                1,
            );
            telemetry
                .recorder()
                .monitor_schedule_change(change.judge_from, change.threshold);
        }
        let command = decision.broadcast.map(|msg| (self.from, msg));
        (command, decision.keep_sampling)
    }

    /// The Δ-schedule commanded over the run.
    pub(crate) fn into_schedule(self) -> DeltaSchedule {
        self.policy.schedule().clone()
    }
}

/// The channel drivers' control thread: sleep an interval, sample,
/// broadcast — until the plane says every operation is in or `done` is
/// raised (whichever first). Returns the commanded schedule.
pub(crate) fn control_loop(
    mut plane: ControlPlane,
    clock: TickClock,
    shared: &Shared,
    done: &AtomicBool,
    mut broadcast: impl FnMut(NodeId, Msg),
) -> DeltaSchedule {
    let _slack = TimerSlack::pin();
    let interval = plane.interval(&clock);
    loop {
        std::thread::sleep(interval);
        if done.load(Ordering::Acquire) {
            break;
        }
        let (command, more) = plane.sample(&clock, &mut shared.lock());
        if let Some((from, msg)) = command {
            broadcast(from, msg);
        }
        if !more {
            break;
        }
    }
    plane.into_schedule()
}

/// Runs one threaded execution to completion and judges it.
///
/// # Panics
///
/// Panics if a worker thread panics or the recorded trace violates a
/// history invariant (a protocol bug — exactly what the monitor-in-the-
/// loop runtime exists to surface).
#[must_use]
pub fn run_threaded(config: &RuntimeConfig) -> RuntimeResult {
    run_channels(config, None)
}

/// The one channel fleet builder, runner and result assembler, in the
/// simulator harness's shape: node order is shards → relays (geo only) →
/// clients, so a flat run is exactly the no-geo case — one region, no
/// relay, no WAN courier. One thread per node on an id-indexed inbox,
/// plus the courier for geo and the control thread for adaptive runs.
/// Once every client is done, each shard and relay is sent
/// [`Inbound::Stop`]; the courier ends when their senders are gone.
pub(crate) fn run_channels(
    config: &RuntimeConfig,
    geo: Option<&GeoRuntimeConfig>,
) -> RuntimeResult {
    let shards = config.protocol.shards;
    let fleet_shards = geo.map_or(shards, |geo| geo.regions.regions * shards);
    // Every node a client does not finish: the shards, then the relays.
    let infra = geo.map_or(shards, |geo| geo.regions.client_base());
    if let Some(geo) = geo {
        assert_eq!(
            config.n_clients,
            geo.regions.regions * geo.clients_per_region,
            "base.n_clients must equal regions × clients_per_region"
        );
        geo.regions
            .validate_migrations(&geo.migrations, config.n_clients, config.ops_per_client);
    }
    let clock = TickClock::new(config.tick);
    let shared = Shared::new(config);
    let (node_txs, mut node_rxs): (Vec<_>, Vec<_>) = (0..infra + config.n_clients)
        .map(|_| {
            let (tx, rx) = mpsc::channel::<Inbound>();
            (tx, Some(rx))
        })
        .unzip();
    let (wan_tx, wan_rx) = mpsc::channel::<WanPacket>();

    let started = Instant::now();
    let shared_ref = &shared;
    let node_txs = &node_txs[..];
    let done = AtomicBool::new(false);
    let done_ref = &done;
    let (latencies, shard_requests, delta_schedule): (
        Vec<Duration>,
        Vec<u64>,
        Option<DeltaSchedule>,
    ) = std::thread::scope(|scope| {
        // Where node `me`'s sends go: geo traffic between regions detours
        // through the courier, everything else straight into the
        // receiver's inbox. A node that has exited drops what it is sent —
        // the simulator's dead-letter path.
        let route = |me: NodeId| {
            let wan_tx = wan_tx.clone();
            move |to: NodeId, msg: Msg| {
                if geo.is_some_and(|geo| is_wan(&geo.regions, me, to)) {
                    let _ = wan_tx.send((me, to, msg));
                } else {
                    let _ = node_txs[to.index()].send(Inbound::Msg(me, msg));
                }
            }
        };
        let mut take_inbox = |node: usize| node_rxs[node].take().expect("one inbox per node");
        let mut shard_workers = Vec::with_capacity(fleet_shards);
        for node in 0..fleet_shards {
            let me = NodeId::new(node);
            let mut engine = build_shard_engine(config.protocol, config.wal_dir.as_deref(), node);
            if let Some(geo) = geo {
                engine = engine.with_geo(geo.regions.shard_config(node / shards));
            }
            let host = ShardCore::new(engine, clock, me, &config.shard_outages);
            let (send, inbox) = (route(me), take_inbox(node));
            shard_workers.push(scope.spawn(move || {
                let node = ChannelNode::new(host, send, clock, shared_ref);
                node.run(&inbox).engine.requests_served()
            }));
        }
        if let Some(geo) = geo {
            for region in 0..geo.regions.regions {
                let host = RelayCore {
                    engine: GeoRelayEngine::new(geo.regions.fleet(region), config.n_clients),
                    clock,
                };
                let node = geo.regions.relay_node(region);
                let (send, inbox) = (route(NodeId::new(node)), take_inbox(node));
                scope.spawn(move || ChannelNode::new(host, send, clock, shared_ref).run(&inbox));
            }
            scope.spawn(move || wan_courier(&wan_rx, node_txs, geo, clock, shared_ref));
        }
        let mut client_workers = Vec::with_capacity(config.n_clients);
        for site in 0..config.n_clients {
            let me = NodeId::new(infra + site);
            let servers = match geo {
                Some(geo) => geo.regions.fleet(geo.home_region(site)),
                None => (0..shards).map(NodeId::new).collect(),
            };
            let mut host = ClientCore::for_site(config, servers, me, site, clock);
            if let Some(plan) = geo.and_then(|g| g.regions.migration_plan(&g.migrations, site)) {
                host.engine = host.engine.with_migration(plan);
            }
            let (send, inbox) = (route(me), take_inbox(me.index()));
            client_workers.push(scope.spawn(move || {
                let node = ChannelNode::new(host, send, clock, shared_ref);
                node.run(&inbox).into_latencies()
            }));
        }
        // The courier's own sender: what is left are the nodes'.
        drop(wan_tx);
        let controller_worker = ControlPlane::new(config).map(|plane| {
            scope.spawn(move || {
                let broadcast = |from: NodeId, msg: Msg| {
                    for tx in &node_txs[infra..] {
                        let _ = tx.send(Inbound::Msg(from, msg.clone()));
                    }
                };
                control_loop(plane, clock, shared_ref, done_ref, broadcast)
            })
        });
        let latencies = client_workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        // Clients are done: release the controller (its ingested-ops
        // stop rule normally beats this flag; the flag covers stalls) and
        // stop the infrastructure. Geo propagation still in flight stops
        // with it — every recorded operation has already completed.
        done.store(true, Ordering::Release);
        for tx in &node_txs[..infra] {
            let _ = tx.send(Inbound::Stop);
        }
        let delta_schedule =
            controller_worker.map(|w| w.join().expect("controller thread panicked"));
        let shard_requests = shard_workers
            .into_iter()
            .map(|w| w.join().expect("shard thread panicked"))
            .collect();
        (latencies, shard_requests, delta_schedule)
    });
    let wall = started.elapsed();
    finish_run(
        shared.into_inner(),
        Vec::new(),
        latencies,
        shard_requests,
        wall,
        delta_schedule,
    )
}

/// Assembles a [`RuntimeResult`] out of a finished run's telemetry — the
/// one holding the recorder, plus the counters of every other thread that
/// kept its own — the common tail of every real-time driver, so all
/// report through identical monitor/metrics plumbing.
pub(crate) fn finish_run(
    telemetry: Telemetry,
    thread_metrics: Vec<Metrics>,
    latencies: Vec<Duration>,
    shard_requests: Vec<u64>,
    wall: Duration,
    delta_schedule: Option<DeltaSchedule>,
) -> RuntimeResult {
    let observed_staleness = telemetry.monitor().min_delta();
    let Telemetry { metrics, recorder } = telemetry;
    let mut metrics = metrics.snapshot();
    for other in thread_metrics {
        let other = other.snapshot();
        for (name, n) in other.counters {
            *metrics.counters.entry(name).or_insert(0) += n;
        }
        metrics.histogram_means.extend(other.histogram_means);
    }
    let (history, report) = recorder
        .expect("the run's recorder")
        .finish_with_report()
        .expect("protocol produced an invalid trace");
    let on_time = report.expect("monitor attached by the driver");
    let ops_done = history.len();
    RuntimeResult {
        history,
        on_time,
        observed_staleness,
        metrics,
        ops_done,
        wall,
        latency: LatencySummary::from_durations(latencies),
        shard_requests,
        delta_schedule,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tc_lifetime::engine::RecordOp;
    use tc_lifetime::ProtocolKind;
    use tc_sim::metrics::names;

    fn small(kind: ProtocolKind, seed: u64) -> RuntimeConfig {
        RuntimeConfig::for_protocol(
            ProtocolConfig::of(kind),
            2,
            Workload::new(4, 0.8, 0.7, (Delta::from_ticks(2), Delta::from_ticks(10))),
            15,
            seed,
        )
    }

    pub(crate) fn temp_wal_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "tc-store-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

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

    #[test]
    fn threaded_kill_shard_over_wal_recovers_by_replay() {
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        let wal = temp_wal_dir("killshard");
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            },
            23,
        );
        cfg.ops_per_client = 200;
        cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        cfg.wal_dir = Some(wal.clone());
        // Down during [300, 1300) ticks: 200 ops × ≥2 ticks think time
        // cannot finish before tick 300, so the kill always lands mid-run;
        // MONITOR_SLACK (20 000 ticks) dwarfs the 1 000-tick outage.
        cfg.shard_outages = vec![(0, Time::from_ticks(300), Time::from_ticks(1_300))];
        assert_recovered_by_replay(&run_threaded(&cfg), 2 * 200);
        let _ = std::fs::remove_dir_all(&wal);
    }

    /// What a run must show after a per-write-fsync shard was killed and
    /// restarted mid-run: every op done, a clean verdict, state recovered
    /// from the log with nothing lost.
    pub(crate) fn assert_recovered_by_replay(r: &RuntimeResult, ops: usize) {
        assert_eq!(r.ops_done, ops, "every op must complete post-restart");
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert!(r.counter(names::CRASH) >= 1, "the kill window must land");
        assert!(r.counter(names::RESTART) >= 1);
        assert!(r.counter(names::SERVER_RESTART) >= 1);
        assert!(
            r.counter(names::WAL_REPLAYED) > 0,
            "restart must recover state by replaying the log"
        );
        assert_eq!(
            r.counter(names::WAL_LOST),
            0,
            "per-write fsync leaves no unsynced tail to lose"
        );
        assert!(r.counter(names::WAL_FSYNC) > 0);
    }

    #[test]
    fn threaded_wal_backend_matches_memory_semantics_fault_free() {
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        let wal = temp_wal_dir("faultfree");
        let mut cfg = small(ProtocolKind::Sc, 29);
        cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        cfg.wal_dir = Some(wal.clone());
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15);
        assert!(r.on_time.holds());
        assert!(
            r.counter(names::WAL_APPEND) > 0 && r.counter(names::WAL_FSYNC) > 0,
            "writes must go through the log"
        );
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn threaded_sc_completes_and_holds() {
        let r = run_threaded(&small(ProtocolKind::Sc, 11));
        assert_eq!(r.ops_done, 2 * 15, "every op must be recorded");
        assert!(r.on_time.holds(), "monitor must report zero violations");
        assert!(r.throughput() > 0.0);
        assert!(
            r.counter(names::FETCH) > 0,
            "SC clients fetch from the server"
        );
    }

    #[test]
    fn threaded_tsc_is_judged_by_the_monitor() {
        let cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            },
            12,
        );
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15);
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        // The monitor judged this run against the *configured* bound — a
        // zero-violation verdict is meaningful only at that Δ, so pin it
        // (not merely "some finite Δ").
        assert!(!cfg.monitor_delta.is_infinite());
        assert_eq!(
            r.on_time.delta(),
            cfg.monitor_delta,
            "the verdict must be relative to the configured monitor Δ"
        );
        assert!(
            r.observed_staleness <= cfg.monitor_delta,
            "observed staleness {} must stay within the configured bound {}",
            r.observed_staleness,
            cfg.monitor_delta
        );
    }

    #[test]
    fn threaded_adaptive_controller_retunes_delta_online() {
        // A deliberately loose base Δ (4 000 ticks = 200 ms at the 50 µs
        // tick) gives the controller real distance to close even under CI
        // scheduling jitter.
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(4_000),
            },
            41,
        );
        cfg.ops_per_client = 150;
        cfg.adaptive = Some(ADAPTIVE_BAND);
        assert_retuned_online(&run_threaded(&cfg), 2 * 150);
    }

    /// A controller with real distance to close from a base Δ of 4 000.
    pub(crate) const ADAPTIVE_BAND: ControllerConfig = ControllerConfig {
        delta_min: Delta::from_ticks(50),
        delta_max: Delta::from_ticks(8_000),
        interval: Delta::from_ticks(20),
    };

    /// What an [`ADAPTIVE_BAND`] run from a base Δ of 4 000 must show.
    pub(crate) fn assert_retuned_online(r: &RuntimeResult, ops: usize) {
        assert_eq!(r.ops_done, ops, "adaptive control must not drop ops");
        let schedule = r
            .delta_schedule
            .as_ref()
            .expect("adaptive runs report their commanded schedule");
        assert!(
            !schedule.is_empty(),
            "the loose base must leave tightening room"
        );
        for &(_, d) in &schedule.changes {
            assert!(
                d >= ADAPTIVE_BAND.delta_min && d <= ADAPTIVE_BAND.delta_max,
                "commanded Δ {d} outside the configured band"
            );
        }
        let (_, last) = *schedule.changes.last().unwrap();
        assert!(
            last.ticks() < 4_000,
            "controller must tighten below the loose base, got {last}"
        );
        assert!(r.counter(names::DELTA_UPDATE) > 0);
        assert!(
            r.counter(names::DELTA_APPLIED) > 0,
            "clients must hear and apply at least one command"
        );
        // The verdict is judged against the schedule actually in force
        // (each command widened by the same slack as the static bound).
        assert!(
            r.on_time.holds(),
            "violations against the in-force schedule: {}",
            r.on_time.violations().len()
        );
    }

    #[test]
    fn server_batch_drain_preserves_request_order() {
        // Pre-fill the inbox far beyond one drain batch before the node
        // loop runs at all, so every message is served through the batched
        // try_recv path, with a stop queued behind the backlog and one more
        // request behind the stop — then assert the replies echo the
        // request epochs in exactly the order the requests were enqueued,
        // and that the node stopped where it was told to.
        let cfg = small(ProtocolKind::Sc, 0);
        let engine = ServerEngine::new(cfg.protocol);
        let clock = TickClock::new(cfg.tick);
        let (tx, rx) = mpsc::channel::<Inbound>();
        let me = NodeId::new(0);
        let client = NodeId::new(1);
        let n = 500u64;
        let fetch = |epoch| {
            let object = tc_core::ObjectId::new(0);
            Inbound::Msg(client, Msg::FetchReq { object, epoch })
        };
        for epoch in 0..n {
            tx.send(fetch(epoch)).unwrap();
        }
        tx.send(Inbound::Stop).unwrap();
        tx.send(fetch(n)).unwrap();
        let shared = Shared::new(&cfg);
        let mut replies: Vec<(NodeId, Msg)> = Vec::new();
        let send = |to: NodeId, msg: Msg| replies.push((to, msg));
        let host = ShardCore::new(engine, clock, me, &[]);
        let served = ChannelNode::new(host, send, clock, &shared)
            .run(&rx)
            .engine
            .requests_served();
        assert_eq!(served, n, "the backlog is served, nothing past the stop");
        let epochs: Vec<u64> = replies
            .iter()
            .map(|(to, msg)| {
                assert_eq!(*to, client);
                match msg {
                    Msg::FetchRep { epoch, .. } => *epoch,
                    other => panic!("unexpected reply {other:?}"),
                }
            })
            .collect();
        assert_eq!(
            epochs,
            (0..n).collect::<Vec<_>>(),
            "batched draining must preserve channel FIFO order"
        );
    }

    #[test]
    fn deadline_after_lands_on_the_tick_boundary_the_clock_will_read() {
        let tick = Duration::from_micros(50);
        let clock = TickClock::new(tick);
        for k in [1u64, 3, 40] {
            let before = clock.now().ticks();
            let deadline = clock
                .deadline_after(clock.now(), Delta::from_ticks(k))
                .unwrap();
            let after = clock.now().ticks();
            // On a boundary: a whole number of ticks past the epoch…
            let offset = deadline.duration_since(clock.epoch).as_nanos() as u64;
            assert_eq!(offset % clock.tick_nanos, 0, "k={k}: off the tick grid");
            // …exactly k ticks past the reading it was computed from.
            let at = offset / clock.tick_nanos;
            assert!(
                (before + k..=after + k).contains(&at),
                "k={k}: deadline tick {at} not in [{}, {}]",
                before + k,
                after + k
            );
            // Never more than k ticks away: what is left of the current
            // tick counts towards the k.
            assert!(deadline.saturating_duration_since(Instant::now()) <= tick * k as u32);
        }
        // A thread woken at the deadline reads a clock that has advanced
        // by at least k: per-site times stay strictly increasing.
        let t = clock.now().ticks();
        let deadline = clock
            .deadline_after(clock.now(), Delta::from_ticks(2))
            .unwrap();
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        assert!(clock.now().ticks() >= t + 2);
    }

    #[test]
    fn deadline_after_rounds_zero_up_and_never_arms_infinity() {
        let clock = TickClock::new(Duration::from_micros(50));
        let t = clock.now().ticks();
        let zero = clock.deadline_after(clock.now(), Delta::ZERO).unwrap();
        let t2 = clock.now().ticks();
        let at = zero.duration_since(clock.epoch).as_nanos() as u64 / clock.tick_nanos;
        assert!(
            (t + 1..=t2 + 1).contains(&at),
            "Delta::ZERO must mean the next tick boundary"
        );
        assert_eq!(clock.deadline_after(clock.now(), Delta::INFINITE), None);
    }

    /// A [`Port`] that keeps what is armed, (deadline, token), and drops
    /// every send.
    struct Arms(Vec<(Instant, u64)>);

    impl Port for Arms {
        fn send(&mut self, _: NodeId, _: Msg) {}
        fn arm(&mut self, deadline: Instant, token: u64) {
            self.0.push((deadline, token));
        }
    }

    /// A clock of one-second ticks whose tick 0 ends in 20 ms, so a test
    /// can observe an event in tick `t` and step its host once the clock
    /// reads `t + 1`.
    fn slow_clock() -> (TickClock, Duration) {
        let tick = Duration::from_secs(1);
        let epoch = Instant::now() - tick + Duration::from_millis(20);
        (TickClock::starting_at(epoch, tick), tick)
    }

    fn wait_past(clock: &TickClock, t: Time) {
        while clock.now() <= t {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A step's timers count from the tick the step was fed, not from
    /// whatever the clock reads once its effects are executed: a timer
    /// armed `k` ticks out of a step at tick `t` is due at boundary `t + k`
    /// even when the clock has moved on to `t + 1` in between.
    #[test]
    fn timers_are_armed_from_the_tick_the_step_was_fed() {
        let (clock, tick) = slow_clock();
        let k = 3;
        let mut cfg = small(ProtocolKind::Sc, 7);
        let think = Delta::from_ticks(k);
        cfg.workload = Workload::new(4, 0.8, 0.7, (think, think));
        let mut core = ClientCore::for_site(&cfg, vec![NodeId::new(0)], NodeId::new(1), 0, clock);
        let mut out = Vec::new();
        let t = core.step(Event::Start, Instant::now(), &mut out);
        assert!(
            matches!(out[..], [Effect::SetTimer { after, token: TIMER_NEXT_OP }] if after == think)
        );
        wait_past(&clock, t);
        let mut arms = Arms(Vec::new());
        execute(
            &mut out,
            &mut arms,
            &clock,
            t,
            &mut Telemetry::recording(&cfg),
        );
        let boundary = clock.epoch + tick * (t.ticks() + k) as u32;
        assert_eq!(
            arms.0,
            vec![(boundary, TIMER_NEXT_OP)],
            "due at t + k, not (t + 1) + k"
        );
    }

    /// An event's tick is the tick at which the driver observed it, not
    /// the tick the clock reads by the time the host is stepped: a request
    /// read in tick `t` is answered with `server_now = t`, and its reply,
    /// read in tick `t` too, completes the read at `t` and arms the next
    /// operation at boundary `t + 1` — although the clock reads `t + 1`
    /// before either host steps.
    #[test]
    fn an_event_steps_at_the_tick_the_driver_observed_it() {
        let (clock, tick) = slow_clock();
        let mut cfg = small(ProtocolKind::Sc, 7);
        cfg.workload = Workload::new(4, 0.8, 1.0, (Delta::ZERO, Delta::ZERO));
        let (shard, site) = (NodeId::new(0), NodeId::new(1));
        let mut client = ClientCore::for_site(&cfg, vec![shard], site, 0, clock);
        let mut server = ShardCore::new(ServerEngine::new(cfg.protocol), clock, shard, &[]);
        let sent = |out: &mut Vec<Effect>| {
            out.drain(..)
                .find_map(|e| match e {
                    Effect::Send { msg, .. } => Some(msg),
                    _ => None,
                })
                .expect("the step sends")
        };
        let mut out = Vec::new();
        let observed = Instant::now();
        let t = client.step(Event::Start, observed, &mut out);
        out.clear();
        let next_op = Event::Timer {
            token: TIMER_NEXT_OP,
        };
        assert_eq!(client.step(next_op, observed, &mut out), t);
        let request = sent(&mut out);
        assert!(matches!(request, Msg::FetchReq { .. }), "a miss fetches");

        wait_past(&clock, t);
        let event = Event::Message {
            from: site,
            msg: request,
        };
        assert_eq!(server.step(event, observed, &mut out), t);
        let reply = sent(&mut out);
        assert!(
            matches!(reply, Msg::FetchRep { server_now, .. } if server_now == t),
            "answered at the tick the request was read: {reply:?}"
        );

        let event = Event::Message {
            from: shard,
            msg: reply,
        };
        assert_eq!(client.step(event, observed, &mut out), t);
        let read_at = out.iter().find_map(|e| match e {
            Effect::Record(RecordOp::Read { at, .. }) => Some(*at),
            _ => None,
        });
        assert_eq!(read_at, Some(t), "the reply completes the read at t");
        let mut arms = Arms(Vec::new());
        execute(
            &mut out,
            &mut arms,
            &clock,
            t,
            &mut Telemetry::recording(&cfg),
        );
        let boundary = clock.epoch + tick * (t.ticks() + 1) as u32;
        assert_eq!(arms.0, vec![(boundary, TIMER_NEXT_OP)]);
    }

    #[test]
    fn delta_to_duration_never_arms_an_infinite_timer() {
        let clock = TickClock::new(Duration::from_micros(50));
        assert_eq!(
            clock.delta_to_duration(Delta::from_ticks(3)),
            Some(Duration::from_micros(150))
        );
        // Zero rounds up to one tick so a due timer still makes progress.
        assert_eq!(
            clock.delta_to_duration(Delta::ZERO),
            Some(Duration::from_micros(50))
        );
        // The regression: an infinite delta used to produce a ~584-year
        // Duration and a timer that could never meaningfully fire.
        assert_eq!(clock.delta_to_duration(Delta::INFINITE), None);
    }

    #[test]
    fn threaded_fleet_shards_the_load_and_stays_consistent() {
        let mut cfg = small(ProtocolKind::Sc, 17);
        cfg.protocol = cfg.protocol.with_shards(4);
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15, "every op must be recorded");
        assert!(r.on_time.holds(), "monitor must report zero violations");
        assert_eq!(r.shard_requests.len(), 4);
        assert!(
            r.shard_requests.iter().sum::<u64>() > 0,
            "the fleet must have served requests"
        );
        assert!(
            r.shard_requests.iter().filter(|&&n| n > 0).count() >= 2,
            "a 4-object keyspace over 4 shards must hit >1 shard: {:?}",
            r.shard_requests
        );
    }

    #[test]
    fn threaded_fleet_handles_batched_causal_pushes() {
        use tc_lifetime::{Propagation, PushBatch, StalePolicy};
        let mut cfg = small(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(400),
            },
            19,
        );
        cfg.protocol = cfg.protocol.with_shards(2).with_push_batch(PushBatch {
            max_entries: 4,
            max_delay: Delta::from_ticks(40),
        });
        cfg.protocol.propagation = Propagation::PushInvalidate;
        cfg.protocol.stale = StalePolicy::Invalidate;
        // Widen the monitor for the batch-flush deadline like the oracle.
        cfg.monitor_delta = cfg.monitor_delta + Delta::from_ticks(40);
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15);
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert_eq!(r.shard_requests.len(), 2);
    }

    #[test]
    fn threaded_causal_flushes_unacked_writes() {
        let r = run_threaded(&small(ProtocolKind::Cc, 13));
        assert_eq!(r.ops_done, 2 * 15);
        assert!(r.on_time.holds());
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let s = LatencySummary::from_durations((1..=100).map(Duration::from_micros).collect());
        assert_eq!(s.count, 100);
        assert!(s.mean_us <= s.p99_us && s.p99_us <= s.max_us);
        assert!((s.max_us - 100.0).abs() < 1e-6);
    }
}
