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

use std::time::{Duration, Instant};

use tc_lifetime::control::DeltaController;
use tc_lifetime::engine::{ClientEngine, Effect, Event, PrivateSources};
use tc_lifetime::node::{execute, judge_run, ClientCore, Host, Port, ShardCore};
use tc_lifetime::Msg;
use tc_sim::{Metrics, NodeId, TraceRecorder};

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

/// The adaptive Δ controller `config` asks for, with its tick period in
/// `clock`'s real time: `None` unless the run is adaptive. Every real
/// driver builds it before it starts a host.
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

/// Every client site of a run, in the one loop that owns them, sending
/// over `X`.
pub(crate) struct SiteHost<X: Transport> {
    pub(crate) net: X,
    shards: usize,
    clock: TickClock,
    sites: Vec<Site>,
    /// Sites not yet finished; the host's work is over at zero.
    remaining: usize,
    pub(crate) timers: TimerWheel<SiteTimer<X::Timer>>,
    /// The host's counters.
    pub(crate) metrics: Metrics,
    /// The run's recorder, with the live monitor attached.
    pub(crate) recorder: TraceRecorder,
    /// The adaptive Δ controller and its period, when the run is adaptive.
    controller: Option<(DeltaController, Duration)>,
    /// The effects of one engine step; reused so a steady-state step
    /// allocates nothing.
    effects: Vec<Effect>,
}

impl<X: Transport> SiteHost<X> {
    /// Every site of `config`'s fleet, unstarted, sending over `net`, each
    /// drawing on its private sources derived from the run seed, with the
    /// recorder's monitor at the configured Δ and ε and the run's
    /// [`controller`].
    pub(crate) fn new(
        config: &RuntimeConfig,
        clock: TickClock,
        net: X,
        controller: Option<(DeltaController, Duration)>,
    ) -> Self {
        let (shards, n) = (config.protocol.shards, config.n_clients);
        let sites: Vec<Site> = (0..n)
            .map(|site| {
                let servers = (0..shards).map(NodeId::new).collect();
                let (workload, ops) = (config.workload.clone(), config.ops_per_client);
                let engine = ClientEngine::new(config.protocol, servers, site, n, workload, ops);
                let sources = PrivateSources::new(config.seed, site, n);
                let core =
                    ClientCore::new(engine, Some(sources), clock, NodeId::new(shards + site));
                Site {
                    core,
                    finished: false,
                }
            })
            .collect();
        let mut recorder = TraceRecorder::new();
        recorder.attach_monitor(config.monitor_delta, config.monitor_eps);
        SiteHost {
            net,
            shards,
            clock,
            remaining: sites.len(),
            sites,
            timers: TimerWheel::new(&clock),
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
        let Some((controller, interval)) = self.controller.as_mut() else {
            return;
        };
        let interval = *interval;
        let (command, more) =
            controller.tick(self.clock.now(), &mut self.recorder, &mut self.metrics);
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
        execute(&mut self.effects, &mut port, &self.clock, t);
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
            delta_schedule: self.controller.map(|(c, _)| c.schedule().clone()),
        }
    }

    /// Starts every site at `at` and, for an adaptive run, arms the
    /// controller's first tick an interval later.
    pub(crate) fn start(&mut self, at: Instant) {
        for site in 0..self.sites.len() {
            self.feed(site, Event::Start, at);
        }
        if let Some((_, interval)) = self.controller {
            self.timers.arm(at + interval, SiteTimer::Controller);
        }
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
    core: ShardCore<TickClock>,
    me: NodeId,
    clock: TickClock,
    /// Never cleared: a down shard's engine timers are popped and dropped
    /// as dead, and a driver's own timers survive an outage.
    pub(crate) timers: TimerWheel<ShardTimer<X::Timer>>,
    /// The host's counters (a shard records nothing).
    pub(crate) metrics: Metrics,
    /// As [`SiteHost`]'s.
    effects: Vec<Effect>,
}

impl<X: Transport> ShardHost<X> {
    /// Shard `shard` of `config`'s fleet over the configured store,
    /// sending over `net`, killed and restarted as the run's fault plan
    /// says.
    pub(crate) fn new(config: &RuntimeConfig, shard: usize, clock: TickClock, net: X) -> Self {
        let engine = build_shard_engine(config.protocol, config.wal_dir.as_deref(), shard);
        let me = NodeId::new(shard);
        ShardHost {
            net,
            core: ShardCore::new(engine, clock, me, &config.faults),
            me,
            clock,
            timers: TimerWheel::new(&clock),
            metrics: Metrics::new(),
            effects: Vec::new(),
        }
    }

    /// Feeds one event, observed at `at`, to the shard and executes what it
    /// emits: the one place a real driver steps a shard.
    fn feed(&mut self, event: Event, at: Instant) {
        let t = self.core.step(event, at, None, &mut self.effects);
        let mut port = HostPort {
            me: self.me,
            transport: &mut self.net,
            timers: &mut self.timers,
            engine_timer: ShardTimer::Engine,
            metrics: &mut self.metrics,
            recorder: None,
        };
        execute(&mut self.effects, &mut port, &self.clock, t);
    }

    /// Hands in the finished shard: the requests it served, and the
    /// host's counters with the wheel's added.
    pub(crate) fn finish(mut self) -> (u64, Metrics) {
        self.timers.report(&mut self.metrics);
        (self.core.engine.requests_served(), self.metrics)
    }

    /// Starts the shard's engine at `at`.
    pub(crate) fn start(&mut self, at: Instant) {
        self.feed(Event::Start, at);
    }

    /// As [`SiteHost::fire`], for the shard's engine.
    pub(crate) fn fire(&mut self, timer: ShardTimer<X::Timer>, now: Instant) -> Option<X::Timer> {
        match timer {
            ShardTimer::Engine(token) => {
                if self.core.timer_is_live(token) {
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
