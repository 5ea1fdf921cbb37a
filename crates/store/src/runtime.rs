//! The channel driver, and what every real-time driver adds to the node
//! core.
//!
//! The hosts, the effect executor, the control tick and the tail that
//! judges a run are `tc_lifetime::node`'s, shared with the simulator; this
//! module gives them real time and threads:
//!
//! * **time** — `TickClock`, the node core's `TimeSource` on every real
//!   driver: the [`Instant`] an event was observed at, ticked down against
//!   one shared epoch;
//! * **the node loop** — `ChannelNode`: timer wheel, blocking receive,
//!   bounded drain, step, execute — one thread per node;
//! * **the channel fleet builder** — [`run_threaded`];
//! * **the control plane** — `controller` builds the run's
//!   `DeltaController`, which the channel drivers tick over the clients'
//!   telemetry from a sleeping thread, the reactor from a timer;
//! * **run state and result assembly** — `Telemetry`, `Shared`,
//!   `TimerWheel` (in `wheel`), `finish_run`.
//!
//! [`crate::run_reactor`] hosts the same cores in two epoll loops and
//! implements `Port` over its connection table instead of channels.
//!
//! # Layout
//!
//! Node ids follow the simulator harness: shards first (node 0 is *the*
//! server in a single-shard run), then client site `i`. One thread per
//! node, each on its own unbounded inbox. A client exits once its workload
//! is finished and nothing is in flight; once every client has, each shard
//! is sent an explicit stop on its inbox and exits after serving what was
//! queued before it.
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
use tc_core::checker::TimedReport;
use tc_core::History;
use tc_durable::WalStore;
use tc_lifetime::control::{ControllerConfig, DeltaController, DeltaSchedule};
use tc_lifetime::engine::{ClientEngine, Effect, Event, PrivateSources, ServerEngine};
use tc_lifetime::node::{execute, judge_run, ClientCore, Host, Port, ShardCore, TimeSource};
use tc_lifetime::{Msg, ProtocolConfig};
use tc_sim::metrics::names;
use tc_sim::workload::Workload;
use tc_sim::{FaultKind, FaultPlan, Metrics, MetricsSnapshot, NodeId, TraceRecorder};

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
    /// Faults to inject, in protocol ticks, with node indices in the
    /// simulator harness's layout — the simulator's own plan type. A real
    /// driver renders [`FaultKind::KillShard`] through the shard core's
    /// outage gate and [`FaultKind::Partition`] on its transport (the
    /// channel drivers drop a send across the cut; the reactor kills and
    /// rebinds one shard's listener and links), and refuses every other
    /// kind with a panic naming it. Empty by default.
    pub faults: FaultPlan,
    /// When set, a [`DeltaController`] retunes Δ online: it ticks over the
    /// live monitor every `interval` (on the channel drivers' control
    /// thread, on the reactor's client-loop timer), broadcasts
    /// [`Msg::DeltaUpdate`] commands to every client, and shifts the
    /// monitor's judged schedule (widened by the same slack as the static
    /// bound) from each change's judged time. Every driver refuses, before
    /// it starts a thread, what [`DeltaController::new`] refuses. `None`
    /// (the default) keeps the static Δ — and byte-identical behaviour
    /// with earlier drivers.
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
            faults: FaultPlan::none(),
            adaptive: None,
        }
    }
}

/// Panics, naming the kind, on the first rule of `plan` the `driver`
/// cannot render. Every real driver renders [`FaultKind::KillShard`];
/// `cut` says which isolated sets it renders a [`FaultKind::Partition`]
/// for. Message faults, clock skew and node crashes are the simulator's
/// alone.
pub(crate) fn refuse_unrenderable(plan: &FaultPlan, driver: &str, cut: impl Fn(&[usize]) -> bool) {
    for rule in &plan.rules {
        let rendered = match &rule.kind {
            FaultKind::KillShard { .. } => true,
            FaultKind::Partition { isolated } => cut(isolated),
            _ => false,
        };
        assert!(
            rendered,
            "the {driver} driver cannot render {:?}; only the simulator injects it",
            rule.kind
        );
    }
}

/// Builds one shard's engine over the configured storage backend: the
/// in-memory store by default, or a [`WalStore`] under
/// `<wal_dir>/shard-<i>` when a WAL directory is set. Opening a dirty
/// directory recovers the previous incarnation's durable state — this is
/// the single point where every real-time driver (threaded, reactor)
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

/// The core of client `site` (node `me`) of `config`'s fleet, speaking to
/// `servers`, drawing on the site's private sources derived from the run
/// seed.
pub(crate) fn site_core(
    config: &RuntimeConfig,
    servers: Vec<NodeId>,
    me: NodeId,
    site: usize,
    clock: TickClock,
) -> ClientCore<TickClock> {
    let engine = ClientEngine::new(
        config.protocol,
        servers,
        site,
        config.n_clients,
        config.workload.clone(),
        config.ops_per_client,
    );
    let sources = PrivateSources::new(config.seed, site, config.n_clients);
    ClientCore::new(engine, Some(sources), clock, me)
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
/// ([`TickClock::deadline`]).
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

    /// The instant tick `t` begins.
    pub(crate) fn instant_of(&self, t: Time) -> Instant {
        self.epoch + Duration::from_nanos(self.tick_nanos.saturating_mul(t.ticks()))
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
    /// sampling interval), not a timer: engine timers are
    /// deadlines on the clock itself, see [`TickClock::deadline`].
    /// `None` for an infinite delta.
    pub(crate) fn delta_to_duration(&self, delta: Delta) -> Option<Duration> {
        if delta.is_infinite() {
            return None;
        }
        Some(Duration::from_nanos(
            self.tick_nanos.saturating_mul(delta.ticks().max(1)),
        ))
    }
}

/// Real time for the node core: an event steps at the tick the clock read
/// at the instant the driver observed it, local time equal to true time,
/// and a timer is a deadline on the clock itself.
impl TimeSource for TickClock {
    type At = Instant;
    type Deadline = Instant;

    fn read(&self, at: Instant) -> (Time, Time) {
        let t = self.tick_at(at);
        (t, t)
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
    fn deadline(&self, t: Time, delta: Delta) -> Option<Instant> {
        if delta.is_infinite() {
            return None;
        }
        let at = t.ticks().saturating_add(delta.ticks().max(1));
        Some(self.instant_of(Time::from_ticks(at)))
    }

    fn elapsed(&self, issued: Instant) -> Option<Duration> {
        Some(issued.elapsed())
    }
}

/// What engine steps leave behind besides sends and timers: the counters
/// and, on the thread that hosts the clients, the recorded history with
/// its live monitor. On the reactor each thread owns one — only the
/// client thread's records — and [`finish_run`] merges them; the channel
/// drivers share one behind [`Shared`].
#[derive(Default)]
pub(crate) struct Telemetry {
    pub(crate) metrics: Metrics,
    recorder: Option<TraceRecorder>,
}

impl Telemetry {
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

    /// Its counters and recorder, as a port hands them to the executor.
    pub(crate) fn parts(&mut self) -> (&mut Metrics, Option<&mut TraceRecorder>) {
        (&mut self.metrics, self.recorder.as_mut())
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

/// Cap on how many already-queued messages one node-loop pass drains
/// beyond the blocking receive. Bounded so a request flood cannot postpone
/// a due timer indefinitely; 128 messages is far past any burst a fleet
/// produces between timer deadlines.
const DRAIN_BATCH: usize = 128;

/// A channel node's [`Port`]: sends go through the driver's routing
/// closure, timers into the node's own wheel, counters and records into
/// the run's shared telemetry.
struct ChannelPort<'r, S> {
    send: &'r mut S,
    timers: &'r mut TimerWheel,
    telemetry: &'r mut Telemetry,
}

impl<S: FnMut(NodeId, Msg)> Port for ChannelPort<'_, S> {
    type Deadline = Instant;

    fn send(&mut self, to: NodeId, msg: Msg) {
        (self.send)(to, msg);
    }

    fn arm(&mut self, deadline: Instant, token: u64) {
        self.timers.arm(deadline, token);
    }

    fn telemetry(&mut self) -> (&mut Metrics, Option<&mut TraceRecorder>) {
        self.telemetry.parts()
    }
}

/// What a channel node's inbox carries.
enum Inbound {
    /// A protocol message from the named node.
    Msg(NodeId, Msg),
    /// Exit once everything queued before this is served: [`run_threaded`]
    /// sends it to every shard once the clients are done.
    Stop,
}

/// The one blocking wait of a channel thread: the next item on `inbox`,
/// waiting until `deadline` at most (`Ok(None)` once it has passed) or,
/// without one, until something arrives. `Err` once every sender is gone.
fn recv_by<T>(inbox: &Receiver<T>, deadline: Option<Instant>) -> Result<Option<T>, RecvError> {
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
/// loop of [`run_threaded`]. What a node *is* — a client or a shard — is
/// its [`Host`]; where its sends go is the `send` closure. A client ends
/// when its host reports [`Host::finished`], a shard at [`Inbound::Stop`].
struct ChannelNode<'a, H, S> {
    host: H,
    send: S,
    timers: TimerWheel,
    clock: TickClock,
    shared: &'a Shared,
    effects: Vec<Effect>,
}

impl<'a, H: Host<TickClock>, S: FnMut(NodeId, Msg)> ChannelNode<'a, H, S> {
    pub(crate) fn new(host: H, send: S, clock: TickClock, shared: &'a Shared) -> Self {
        ChannelNode {
            host,
            send,
            timers: TimerWheel::new(&clock),
            clock,
            shared,
            effects: Vec::new(),
        }
    }

    /// Feeds one event, observed at `at`, to the host and executes what it
    /// emits, taking the telemetry lock once. The effects scratch is left
    /// empty, so a step allocates nothing once it is warm.
    fn feed(&mut self, event: Event, at: Instant) {
        let t = self.host.step(event, at, None, &mut self.effects);
        let mut port = ChannelPort {
            send: &mut self.send,
            timers: &mut self.timers,
            telemetry: &mut self.shared.lock(),
        };
        execute(&mut self.effects, &mut port, &self.clock, t);
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
            self.timers.pop_due_into(now, &mut due);
            events.extend(due.iter().map(|&token| Event::Timer { token }));
            let popped = events.len();
            if events.is_empty() {
                // Block towards the next deadline — indefinitely with none
                // armed: a message wakes the thread at once (the channel
                // wait parks on a condvar).
                match recv_by(inbox, self.timers.next_deadline())
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
        self.timers.report(&mut self.shared.lock().metrics);
        self.host
    }
}

/// The adaptive Δ controller `config` asks for, with its tick period in
/// `clock`'s real time: `None` unless the run is adaptive. Every real
/// driver builds it here, before it starts a thread.
///
/// # Panics
///
/// As [`DeltaController::new`]: on an infinite interval, an inverted band
/// or an untimed protocol.
pub(crate) fn controller(
    config: &RuntimeConfig,
    clock: &TickClock,
) -> Option<(DeltaController, Duration)> {
    let controller = DeltaController::new(
        config.adaptive?,
        config.protocol.kind,
        config.monitor_delta,
        config.n_clients * config.ops_per_client,
    );
    let interval = clock
        .delta_to_duration(controller.interval())
        .expect("the controller refuses an infinite interval");
    Some((controller, interval))
}

/// The channel drivers' control thread: sleep an interval, tick,
/// broadcast — until the controller says every operation is in or `done`
/// is raised (whichever first). Returns the commanded schedule.
pub(crate) fn control_loop(
    (mut controller, interval): (DeltaController, Duration),
    clock: TickClock,
    shared: &Shared,
    done: &AtomicBool,
    mut broadcast: impl FnMut(Msg),
) -> DeltaSchedule {
    let _slack = TimerSlack::pin();
    loop {
        std::thread::sleep(interval);
        if done.load(Ordering::Acquire) {
            break;
        }
        let (command, more) = {
            let mut telemetry = shared.lock();
            let (metrics, recorder) = telemetry.parts();
            let recorder = recorder.expect("the clients' telemetry records");
            controller.tick(clock.now(), recorder, metrics)
        };
        if let Some(msg) = command {
            broadcast(msg);
        }
        if !more {
            break;
        }
    }
    controller.schedule().clone()
}

/// Runs one threaded execution to completion and judges it.
///
/// Node order is the simulator harness's, shards → clients. One thread per
/// node on an id-indexed inbox, plus the control thread for adaptive runs.
/// Once every client is done, each shard is sent an explicit stop.
///
/// # Panics
///
/// Panics if a worker thread panics, [`RuntimeConfig::faults`] holds a
/// kind this driver cannot render, or the recorded trace violates a
/// history invariant (a protocol bug — exactly what the monitor-in-the-
/// loop runtime exists to surface).
#[must_use]
pub fn run_threaded(config: &RuntimeConfig) -> RuntimeResult {
    let shards = config.protocol.shards;
    refuse_unrenderable(&config.faults, "channel", |_| true);
    // Read once: a fault-free send consults no plan and reads no clock.
    let faults = &config.faults;
    let partitioned = faults
        .rules
        .iter()
        .any(|rule| matches!(rule.kind, FaultKind::Partition { .. }));
    let clock = TickClock::new(config.tick);
    let controller = controller(config, &clock);
    let shared = Shared::new(config);
    let (node_txs, mut node_rxs): (Vec<_>, Vec<_>) = (0..shards + config.n_clients)
        .map(|_| {
            let (tx, rx) = mpsc::channel::<Inbound>();
            (tx, Some(rx))
        })
        .unzip();

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
        // Where node `me`'s sends go: a send across an active partition
        // is dropped, everything else goes straight into the receiver's
        // inbox. A node that has exited drops what it is sent — the
        // simulator's dead-letter path.
        let route = |me: NodeId| {
            move |to: NodeId, msg: Msg| {
                if partitioned && faults.partitions(clock.now(), me.index(), to.index()) {
                    return;
                }
                let _ = node_txs[to.index()].send(Inbound::Msg(me, msg));
            }
        };
        let mut take_inbox = |node: usize| node_rxs[node].take().expect("one inbox per node");
        let mut shard_workers = Vec::with_capacity(shards);
        for node in 0..shards {
            let me = NodeId::new(node);
            let engine = build_shard_engine(config.protocol, config.wal_dir.as_deref(), node);
            let host = ShardCore::new(engine, clock, me, &config.faults);
            let (send, inbox) = (route(me), take_inbox(node));
            shard_workers.push(scope.spawn(move || {
                let node = ChannelNode::new(host, send, clock, shared_ref);
                node.run(&inbox).engine.requests_served()
            }));
        }
        let mut client_workers = Vec::with_capacity(config.n_clients);
        for site in 0..config.n_clients {
            let me = NodeId::new(shards + site);
            let servers = (0..shards).map(NodeId::new).collect();
            let host = site_core(config, servers, me, site, clock);
            let (send, inbox) = (route(me), take_inbox(me.index()));
            client_workers.push(scope.spawn(move || {
                let node = ChannelNode::new(host, send, clock, shared_ref);
                node.run(&inbox).into_latencies()
            }));
        }
        let controller_worker = controller.map(|controller| {
            scope.spawn(move || {
                // The sender is past every node (clients ignore it).
                let from = NodeId::new(shards + config.n_clients);
                let broadcast = |msg: Msg| {
                    for tx in &node_txs[shards..] {
                        let _ = tx.send(Inbound::Msg(from, msg.clone()));
                    }
                };
                control_loop(controller, clock, shared_ref, done_ref, broadcast)
            })
        });
        let latencies = client_workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        // Clients are done: release the controller (its ingested-ops
        // stop rule normally beats this flag; the flag covers stalls) and
        // stop the shards.
        done.store(true, Ordering::Release);
        for tx in &node_txs[..shards] {
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
/// kept its own — judged by the node core's [`judge_run`], the tail the
/// simulator ends with too.
pub(crate) fn finish_run(
    telemetry: Telemetry,
    thread_metrics: Vec<Metrics>,
    latencies: Vec<Duration>,
    shard_requests: Vec<u64>,
    wall: Duration,
    delta_schedule: Option<DeltaSchedule>,
) -> RuntimeResult {
    let Telemetry { metrics, recorder } = telemetry;
    let mut metrics = metrics.snapshot();
    for other in thread_metrics {
        for (name, n) in other.snapshot().counters {
            *metrics.counters.entry(name).or_insert(0) += n;
        }
    }
    let recorder = recorder.expect("the run's recorder");
    let (history, on_time, observed_staleness) = judge_run(recorder, &mut metrics);
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
    use tc_lifetime::engine::{RecordOp, TIMER_NEXT_OP, TIMER_WAL_FLUSH};
    use tc_lifetime::node::SimClock;
    use tc_lifetime::{ProtocolKind, DEFAULT_RETRY_AFTER};
    use tc_sim::metrics::names;
    use tc_sim::Window;

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

    type Driver = fn(&RuntimeConfig) -> RuntimeResult;

    /// The two real drivers, each with its own seed.
    const REAL_DRIVERS: [(Driver, u64); 2] = [(run_threaded, 23), (crate::run_reactor, 33)];

    #[test]
    fn real_drivers_kill_shard_over_wal_recovers_by_replay() {
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        for (run, seed) in REAL_DRIVERS {
            // One WAL directory per driver.
            let wal = temp_wal_dir(&format!("killshard-{seed}"));
            let mut cfg = small(
                ProtocolKind::Tsc {
                    delta: Delta::from_ticks(400),
                },
                seed,
            );
            cfg.ops_per_client = 200;
            cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
                fsync: FsyncPolicy::PER_WRITE,
            });
            cfg.wal_dir = Some(wal.clone());
            // Down during [300, 1300) ticks: 200 ops × ≥2 ticks think time
            // cannot finish before tick 300, so the kill always lands
            // mid-run; MONITOR_SLACK (20 000 ticks) dwarfs the 1 000-tick
            // outage. On the reactor the link stays up throughout, only
            // the engine dies.
            cfg.faults = FaultPlan::none().kill_shard(Window::ticks(300, 1_300), 0);
            assert_recovered_by_replay(&run(&cfg), 2 * 200);
            let _ = std::fs::remove_dir_all(&wal);
        }
    }

    /// A flat partition is the route's one check: every send between
    /// shard 0 and its clients drops during `[300, 1300)` ticks, the
    /// clients' retry timers carry them across, and the run holds at the
    /// static monitor bound (MONITOR_SLACK dwarfs the 1 000-tick cut).
    #[test]
    fn threaded_partition_of_a_shard_heals_via_retry() {
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            },
            31,
        );
        cfg.ops_per_client = 200;
        cfg.faults = FaultPlan::none().partition(Window::ticks(300, 1_300), vec![0]);
        let r = run_threaded(&cfg);
        assert_done_on_time(&r, 2 * 200);
        assert!(r.counter(names::RETRY) > 0, "the cut must force retries");
    }

    #[test]
    #[should_panic(expected = "the channel driver cannot render Drop")]
    fn a_message_fault_is_refused_by_the_channel_driver() {
        let mut cfg = small(ProtocolKind::Sc, 3);
        cfg.faults = FaultPlan::none().with(
            Window::always(),
            tc_sim::Scope::All,
            FaultKind::Drop { probability: 0.1 },
        );
        let _ = run_threaded(&cfg);
    }

    /// Every one of the run's `ops` operations recorded, and the live
    /// monitor clean.
    pub(crate) fn assert_done_on_time(r: &RuntimeResult, ops: usize) {
        assert_eq!(r.ops_done, ops, "every op must be recorded");
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
    }

    /// What a run must show after a per-write-fsync shard was killed and
    /// restarted mid-run: every op done, a clean verdict, state recovered
    /// from the log with nothing lost.
    pub(crate) fn assert_recovered_by_replay(r: &RuntimeResult, ops: usize) {
        assert_done_on_time(r, ops);
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
        assert_monitor_counters(&r);
        assert!(r.throughput() > 0.0);
        assert!(
            r.counter(names::FETCH) > 0,
            "SC clients fetch from the server"
        );
    }

    /// A real driver reports the monitor's counters as the simulator
    /// harness does, read off the verdict it returns.
    pub(crate) fn assert_monitor_counters(r: &RuntimeResult) {
        for name in [names::ON_TIME_VIOLATIONS, names::MONITOR_LATE_WRITES] {
            assert!(r.metrics.counters.contains_key(name), "{name} missing");
        }
        assert_eq!(
            r.counter(names::ON_TIME_VIOLATIONS),
            r.on_time.violations().len() as u64
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
        assert_done_on_time(&r, 2 * 15);
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
    fn real_drivers_adaptive_controller_retunes_delta_online() {
        // A deliberately loose base Δ (4 000 ticks = 200 ms at the 50 µs
        // tick) gives the controller real distance to close even under CI
        // scheduling jitter.
        for (run, seed) in REAL_DRIVERS {
            let mut cfg = small(
                ProtocolKind::Tsc {
                    delta: Delta::from_ticks(4_000),
                },
                seed,
            );
            cfg.ops_per_client = 150;
            cfg.adaptive = Some(ADAPTIVE_BAND);
            assert_retuned_online(&run(&cfg), 2 * 150);
        }
    }

    /// Both real drivers refuse an inverted band before they start a
    /// thread (the reactor would otherwise wait on its shards forever).
    #[test]
    fn real_drivers_refuse_an_inverted_band() {
        let mut cfg = small(ProtocolKind::Tsc { delta: Delta::ZERO }, 41);
        let inverted = ControllerConfig::new(Delta::from_ticks(2), Delta::ZERO, Delta::ZERO);
        cfg.adaptive = Some(inverted);
        for (run, _) in REAL_DRIVERS {
            assert!(std::panic::catch_unwind(|| run(&cfg)).is_err());
        }
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
        let host = ShardCore::new(engine, clock, me, &FaultPlan::none());
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
    fn deadline_lands_on_the_tick_boundary_the_clock_will_read() {
        let tick = Duration::from_micros(50);
        let clock = TickClock::new(tick);
        for k in [1u64, 3, 40] {
            let before = clock.now().ticks();
            let deadline = clock.deadline(clock.now(), Delta::from_ticks(k)).unwrap();
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
        let deadline = clock.deadline(clock.now(), Delta::from_ticks(2)).unwrap();
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        assert!(clock.now().ticks() >= t + 2);
    }

    #[test]
    fn deadline_rounds_zero_up_and_never_arms_infinity() {
        let clock = TickClock::new(Duration::from_micros(50));
        let t = clock.now().ticks();
        let zero = clock.deadline(clock.now(), Delta::ZERO).unwrap();
        let t2 = clock.now().ticks();
        let at = zero.duration_since(clock.epoch).as_nanos() as u64 / clock.tick_nanos;
        assert!(
            (t + 1..=t2 + 1).contains(&at),
            "Delta::ZERO must mean the next tick boundary"
        );
        assert_eq!(clock.deadline(clock.now(), Delta::INFINITE), None);
    }

    /// One client and one shard of a fleet of one, stepped through `time`
    /// at fixed ticks: `Start` at 10, the op-issue timer at 13, the
    /// request at 14, the reply at 15. `at` renders a tick as the moment a
    /// driver observed it, `due` a deadline armed by a step at a tick as
    /// the tick it falls due at. Returns every effect but the timers, the
    /// timers as (tick due, token), and the liveness answers asked once the
    /// reply is in.
    fn exchange<T: TimeSource + Copy>(
        time: T,
        at: impl Fn(u64) -> T::At,
        due: impl Fn(u64, T::Deadline) -> u64,
    ) -> (Vec<Effect>, Vec<(u64, u64)>, [bool; 3]) {
        let (shard, site) = (NodeId::new(0), NodeId::new(1));
        let protocol = ProtocolConfig::of(ProtocolKind::Sc);
        let think = Delta::from_ticks(3);
        let workload = Workload::new(4, 0.8, 1.0, (think, think));
        let engine = ClientEngine::new(protocol, vec![shard], 0, 1, workload, 2);
        let mut client = ClientCore::new(engine, Some(PrivateSources::new(7, 0, 1)), time, site);
        let mut server =
            ShardCore::new(ServerEngine::new(protocol), time, shard, &FaultPlan::none());
        let (mut effects, mut arms, mut out) = (Vec::new(), Vec::new(), Vec::new());
        // Each step's event is the op-issue timer or the previous step's send.
        let mut event = Event::Start;
        for tick in [10, 13, 14, 15] {
            let t = match tick {
                14 => server.step(event, at(tick), None, &mut out),
                _ => client.step(event, at(tick), None, &mut out),
            };
            assert_eq!(
                t,
                Time::from_ticks(tick),
                "a step runs at its observed tick"
            );
            event = Event::Timer {
                token: TIMER_NEXT_OP,
            };
            for effect in out.drain(..) {
                match effect {
                    Effect::SetTimer { after, token } => {
                        arms.push((due(tick, time.deadline(t, after).unwrap()), token));
                    }
                    Effect::Send { to, ref msg } => {
                        let from = if to == shard { site } else { shard };
                        let msg = msg.clone();
                        event = Event::Message { from, msg };
                        effects.push(effect);
                    }
                    _ => effects.push(effect),
                }
            }
        }
        let live = [
            client.timer_is_live(1), // the request's retry
            client.timer_is_live(TIMER_NEXT_OP),
            server.timer_is_live(TIMER_WAL_FLUSH),
        ];
        (effects, arms, live)
    }

    /// The node core steps alike under both time sources, at the tick the
    /// driver observed each event: the simulator's `(local, true)` readings
    /// and `Instant`s on a `TickClock` that already reads past tick 1 000
    /// give the same effects, the same timers due at the same ticks —
    /// counted from the step's tick, not the clock's — and the same
    /// liveness answers: the retry, due after the reply, is dead.
    #[test]
    fn a_node_steps_at_the_tick_the_driver_observed_it_under_both_clocks() {
        let tick = Duration::from_micros(50);
        let clock = TickClock::starting_at(Instant::now() - tick * 1_000, tick);
        let real = exchange(
            clock,
            |t| clock.epoch + tick * t as u32,
            |_, deadline| clock.tick_at(deadline).ticks(),
        );
        let simulated = exchange(
            SimClock,
            |t| (Time::from_ticks(t), Time::from_ticks(t)),
            |t, after| t + after.ticks().max(1),
        );
        assert_eq!(real, simulated);
        let (effects, arms, live) = real;
        let read_at_15 =
            |e: &Effect| matches!(e, Effect::Record(RecordOp::Read { at, .. }) if at.ticks() == 15);
        assert!(
            effects.iter().any(read_at_15),
            "the reply completes the read"
        );
        let retry_due = 13 + DEFAULT_RETRY_AFTER.ticks();
        assert_eq!(
            arms,
            [(13, TIMER_NEXT_OP), (retry_due, 1), (18, TIMER_NEXT_OP)]
        );
        assert_eq!(live, [false, true, true]);
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
    fn threaded_fleet_handles_sharded_causal_pushes() {
        use tc_lifetime::{Propagation, StalePolicy};
        let mut cfg = small(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(400),
            },
            19,
        );
        cfg.protocol = cfg.protocol.with_shards(2);
        cfg.protocol.propagation = Propagation::PushInvalidate;
        cfg.protocol.stale = StalePolicy::Invalidate;
        let r = run_threaded(&cfg);
        assert!(r.counter(names::PUSH) > 0, "pushes must flow");
        assert_done_on_time(&r, 2 * 15);
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
