//! The two engine hosts both real drivers run, whatever carries their
//! messages: [`SiteHost`], every client site of a run with their timer
//! wheel, the run's recorder and live monitor, the host's counters and
//! the adaptive Δ controller ticked from that wheel; and [`ShardHost`],
//! one shard with its engine timers and counters. A host owns its
//! [`Transport`] and steps its engines in one place; one loop owns each
//! host, so no step takes a lock. The driver supplies the transport and
//! the loop that waits — it starts the host, fires what its wheel pops
//! and delivers what arrives — and arms timers of its own in a host's
//! wheel as `Link` tokens the host hands back.
//!
//! A host is built before its run's clock exists: `new` builds the
//! engines (a WAL replay included), which needs no clock, and `start`
//! hosts them in their cores on the clock the run fixed at the instant
//! its sites start, hands the wheel that clock, and steps `Start`.
//! Until then a host steps nothing; its transport and counters already
//! serve the driver's own set-up (accepting, dialling, handshakes).

use std::time::{Duration, Instant};

use tc_lifetime::control::DeltaController;
use tc_lifetime::engine::{ClientEngine, Effect, Event, PrivateSources};
use tc_lifetime::node::{execute, judge_run, ClientCore, Host, Port, ShardCore};
use tc_lifetime::{Msg, ServerEngine};
use tc_sim::{FaultPlan, Metrics, NodeId, TraceRecorder};

use crate::runtime::{build_shard_engine, LatencySummary, RuntimeConfig, RuntimeResult, TickClock};
use crate::wheel::TimerWheel;

/// Where a hosted engine's sends go: the one thing a transport supplies.
/// A send may be lost (a cut, a link mid-reconnect, a peer gone); the
/// engines' retry timers own recovery.
pub(crate) trait Transport {
    /// The timers the driver arms for itself in its host's wheel.
    type Timer: Copy;

    /// Carries `msg` from node `from` towards node `to`.
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg);
}

/// Timer tokens of a [`SiteHost`]'s wheel: engine timers tagged with their
/// site, the controller's sampling tick, and the driver's own `L`.
#[derive(Clone, Copy)]
pub(crate) enum SiteTimer<L> {
    Engine { site: usize, token: u64 },
    Controller,
    Link(L),
}

/// Timer tokens of a [`ShardHost`]'s wheel: engine timers, and the
/// driver's own `L`.
#[derive(Clone, Copy)]
pub(crate) enum ShardTimer<L> {
    Engine(u64),
    Link(L),
}

/// One engine step's effects landing: sends on the transport as node `me`,
/// timers in the host's wheel under `engine_timer`'s token, counters and
/// records in the host's own telemetry.
struct HostPort<'r, X, K, F> {
    me: NodeId,
    transport: &'r mut X,
    timers: &'r mut TimerWheel<K>,
    engine_timer: F,
    metrics: &'r mut Metrics,
    recorder: Option<&'r mut TraceRecorder>,
}

impl<X: Transport, K, F: Fn(u64) -> K> Port for HostPort<'_, X, K, F> {
    type Deadline = Instant;

    fn send(&mut self, to: NodeId, msg: Msg) {
        self.transport.send(self.me, to, msg);
    }

    fn arm(&mut self, deadline: Instant, token: u64) {
        self.timers.arm(deadline, (self.engine_timer)(token));
    }

    fn telemetry(&mut self) -> (&mut Metrics, Option<&mut TraceRecorder>) {
        (self.metrics, self.recorder.as_deref_mut())
    }
}

/// One hosted client: its engine core, and whether it is done.
struct Site {
    core: ClientCore<TickClock>,
    /// Workload complete with nothing in flight; excluded from `remaining`.
    finished: bool,
}

/// The adaptive Δ controller `config` asks for: `None` unless the run is
/// adaptive. Every real driver builds it before it builds a host.
///
/// # Panics
///
/// As [`DeltaController::new`]: on an infinite interval, an inverted band
/// or an untimed protocol.
pub(crate) fn controller(config: &RuntimeConfig) -> Option<DeltaController> {
    Some(DeltaController::new(
        config.adaptive?,
        config.protocol.kind,
        config.monitor_delta,
        config.n_clients * config.ops_per_client,
    ))
}

/// The controller's tick period in `clock`'s real time.
fn period(clock: &TickClock, controller: &DeltaController) -> Duration {
    clock
        .delta_to_duration(controller.interval())
        .expect("the controller refuses an infinite interval")
}

/// Every client site of a run, in the one loop that owns them, sending
/// over `X`.
pub(crate) struct SiteHost<X: Transport> {
    pub(crate) net: X,
    shards: usize,
    /// Each site's engine and private sources as built; `start` moves
    /// them into `sites`.
    built: Vec<(ClientEngine, PrivateSources)>,
    /// The run's clock, from `start` on.
    clock: Option<TickClock>,
    sites: Vec<Site>,
    /// Sites not yet finished; the host's work is over at zero.
    remaining: usize,
    pub(crate) timers: TimerWheel<SiteTimer<X::Timer>>,
    /// The host's counters.
    pub(crate) metrics: Metrics,
    /// The run's recorder, with the live monitor attached.
    pub(crate) recorder: TraceRecorder,
    /// The adaptive Δ controller, when the run is adaptive.
    controller: Option<DeltaController>,
    /// The effects of one engine step; reused so a steady-state step
    /// allocates nothing.
    effects: Vec<Effect>,
}

impl<X: Transport> SiteHost<X> {
    /// Every site of `config`'s fleet, built but not started, sending over
    /// `net`, each drawing on its private sources derived from the run
    /// seed, with the recorder's monitor at the configured Δ and ε and the
    /// run's [`controller`].
    pub(crate) fn new(config: &RuntimeConfig, net: X, controller: Option<DeltaController>) -> Self {
        let (shards, n) = (config.protocol.shards, config.n_clients);
        let built = (0..n)
            .map(|site| {
                let servers = (0..shards).map(NodeId::new).collect();
                let (workload, ops) = (config.workload.clone(), config.ops_per_client);
                let engine = ClientEngine::new(config.protocol, servers, site, n, workload, ops);
                (engine, PrivateSources::new(config.seed, site, n))
            })
            .collect();
        let mut recorder = TraceRecorder::new();
        recorder.attach_monitor(config.monitor_delta, config.monitor_eps);
        SiteHost {
            net,
            shards,
            built,
            clock: None,
            remaining: n,
            sites: Vec::new(),
            timers: TimerWheel::new(),
            metrics: Metrics::new(),
            recorder,
            controller,
            effects: Vec::new(),
        }
    }

    /// One adaptive control tick at `now`: tick, feed the command in force
    /// to every site still running, re-arm until the controller says every
    /// expected operation has been ingested.
    fn controller_tick(&mut self, now: Instant) {
        let (Some(controller), Some(clock)) = (self.controller.as_mut(), self.clock) else {
            return;
        };
        let interval = period(&clock, controller);
        let (command, more) = controller.tick(clock.now(), &mut self.recorder, &mut self.metrics);
        if let Some(msg) = command {
            // The sender is past every node (clients ignore it).
            let from = NodeId::new(self.shards + self.sites.len());
            for site in 0..self.sites.len() {
                if !self.sites[site].finished {
                    let msg = msg.clone();
                    self.feed(site, Event::Message { from, msg }, now);
                }
            }
        }
        if more {
            self.timers.arm(now + interval, SiteTimer::Controller);
        }
    }

    /// Feeds one event, observed at `at`, to `site` and executes what it
    /// emits: the one place a real driver steps a site.
    fn feed(&mut self, site: usize, event: Event, at: Instant) {
        let clock = self.clock.as_ref().expect("a site steps once started");
        let state = &mut self.sites[site];
        let t = state.core.step(event, at, None, &mut self.effects);
        let mut port = HostPort {
            me: NodeId::new(self.shards + site),
            transport: &mut self.net,
            timers: &mut self.timers,
            engine_timer: move |token| SiteTimer::Engine { site, token },
            metrics: &mut self.metrics,
            recorder: Some(&mut self.recorder),
        };
        execute(&mut self.effects, &mut port, clock, t);
        if !state.finished && state.core.finished() {
            state.finished = true;
            self.remaining -= 1;
        }
    }

    /// Assembles the finished run's [`RuntimeResult`] out of this host's
    /// counters, the wheel's, every other counter bag of the run
    /// (`other_metrics`: the shards', and any driver thread's) and the
    /// recorder, judged by the node core's [`judge_run`] — the tail the
    /// simulator ends with too.
    pub(crate) fn finish_run(
        mut self,
        other_metrics: Vec<Metrics>,
        shard_requests: Vec<u64>,
        wall: Duration,
    ) -> RuntimeResult {
        self.timers.report(&mut self.metrics);
        let mut metrics = self.metrics.snapshot();
        for other in other_metrics {
            for (name, n) in other.snapshot().counters {
                *metrics.counters.entry(name).or_insert(0) += n;
            }
        }
        let (history, on_time, observed_staleness) = judge_run(self.recorder, &mut metrics);
        let latencies = self
            .sites
            .into_iter()
            .flat_map(|site| site.core.into_latencies())
            .collect();
        RuntimeResult {
            ops_done: history.len(),
            history,
            on_time,
            observed_staleness,
            metrics,
            wall,
            latency: LatencySummary::from_durations(latencies),
            shard_requests,
            delta_schedule: self.controller.map(|c| c.schedule().clone()),
        }
    }

    /// Hosts every site in its core on `clock`, gives the wheel that
    /// clock, starts every site at `at` and, for an adaptive run, arms the
    /// controller's first tick an interval later.
    pub(crate) fn start(&mut self, clock: TickClock, at: Instant) {
        debug_assert!(self.clock.is_none(), "a site host starts once");
        self.clock = Some(clock);
        self.timers.start(clock);
        let shards = self.shards;
        self.sites = self
            .built
            .drain(..)
            .enumerate()
            .map(|(site, (engine, sources))| Site {
                core: ClientCore::new(engine, Some(sources), clock, NodeId::new(shards + site)),
                finished: false,
            })
            .collect();
        for site in 0..self.sites.len() {
            self.feed(site, Event::Start, at);
        }
        if let Some(controller) = &self.controller {
            self.timers
                .arm(at + period(&clock, controller), SiteTimer::Controller);
        }
    }

    /// Whether [`SiteHost::start`] has run.
    pub(crate) fn started(&self) -> bool {
        self.clock.is_some()
    }

    /// Serves one timer the wheel popped at `now`: a live engine timer
    /// steps its site, a dead one (a retry whose reply came first, or any
    /// timer of a finished site) steps nothing, the controller's ticks the
    /// controller, and a driver's own is handed back.
    pub(crate) fn fire(&mut self, timer: SiteTimer<X::Timer>, now: Instant) -> Option<X::Timer> {
        match timer {
            SiteTimer::Engine { site, token } => {
                let state = &self.sites[site];
                if !state.finished && state.core.timer_is_live(token) {
                    self.feed(site, Event::Timer { token }, now);
                }
            }
            SiteTimer::Controller => self.controller_tick(now),
            SiteTimer::Link(link) => return Some(link),
        }
        None
    }

    /// Feeds `msg` from node `from` to the hosted site `to`, observed at
    /// `at`.
    pub(crate) fn deliver(&mut self, from: NodeId, to: NodeId, msg: Msg, at: Instant) {
        self.feed(to.index() - self.shards, Event::Message { from, msg }, at);
    }

    /// Whether the host's work is over: every site has finished.
    pub(crate) fn finished(&self) -> bool {
        self.remaining == 0
    }
}

/// One shard, in the loop that owns it, sending over `X`.
pub(crate) struct ShardHost<X: Transport> {
    pub(crate) net: X,
    /// The engine as built, with the fault plan that kills it; `start`
    /// moves it into `core`.
    built: Option<(ServerEngine, FaultPlan)>,
    /// The engine's core and the run's clock, from `start` on.
    core: Option<(ShardCore<TickClock>, TickClock)>,
    me: NodeId,
    /// Never cleared: a down shard's engine timers are popped and dropped
    /// as dead, and a driver's own timers survive an outage.
    pub(crate) timers: TimerWheel<ShardTimer<X::Timer>>,
    /// The host's counters (a shard records nothing).
    pub(crate) metrics: Metrics,
    /// As [`SiteHost`]'s.
    effects: Vec<Effect>,
}

impl<X: Transport> ShardHost<X> {
    /// Shard `shard` of `config`'s fleet over the configured store (a WAL
    /// replays here), built but not started, sending over `net`, to be
    /// killed and restarted as the run's fault plan says.
    pub(crate) fn new(config: &RuntimeConfig, shard: usize, net: X) -> Self {
        let engine = build_shard_engine(config.protocol, config.wal_dir.as_deref(), shard);
        ShardHost {
            net,
            built: Some((engine, config.faults.clone())),
            core: None,
            me: NodeId::new(shard),
            timers: TimerWheel::new(),
            metrics: Metrics::new(),
            effects: Vec::new(),
        }
    }

    /// Feeds one event, observed at `at`, to the shard and executes what it
    /// emits: the one place a real driver steps a shard.
    fn feed(&mut self, event: Event, at: Instant) {
        let (core, clock) = self.core.as_mut().expect("a shard steps once started");
        let t = core.step(event, at, None, &mut self.effects);
        let mut port = HostPort {
            me: self.me,
            transport: &mut self.net,
            timers: &mut self.timers,
            engine_timer: ShardTimer::Engine,
            metrics: &mut self.metrics,
            recorder: None,
        };
        execute(&mut self.effects, &mut port, clock, t);
    }

    /// Hands in the finished shard: the requests it served (none, if it
    /// never started), and the host's counters with the wheel's added.
    pub(crate) fn finish(mut self) -> (u64, Metrics) {
        self.timers.report(&mut self.metrics);
        let served = self
            .core
            .map_or(0, |(core, _)| core.engine.requests_served());
        (served, self.metrics)
    }

    /// Hosts the engine in its core on `clock`, gives the wheel that
    /// clock and starts the engine at `at`.
    pub(crate) fn start(&mut self, clock: TickClock, at: Instant) {
        let (engine, faults) = self.built.take().expect("a shard host starts once");
        self.core = Some((ShardCore::new(engine, clock, self.me, &faults), clock));
        self.timers.start(clock);
        self.feed(Event::Start, at);
    }

    /// Whether [`ShardHost::start`] has run.
    pub(crate) fn started(&self) -> bool {
        self.core.is_some()
    }

    /// As [`SiteHost::fire`], for the shard's engine.
    pub(crate) fn fire(&mut self, timer: ShardTimer<X::Timer>, now: Instant) -> Option<X::Timer> {
        match timer {
            ShardTimer::Engine(token) => {
                let (core, _) = self.core.as_ref().expect("engine timers arm once started");
                if core.timer_is_live(token) {
                    self.feed(Event::Timer { token }, now);
                }
                None
            }
            ShardTimer::Link(link) => Some(link),
        }
    }

    /// Feeds `msg` from node `from` to the shard, observed at `at`.
    pub(crate) fn deliver(&mut self, from: NodeId, msg: Msg, at: Instant) {
        self.feed(Event::Message { from, msg }, at);
    }
}
