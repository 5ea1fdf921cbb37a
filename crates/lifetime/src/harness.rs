//! One-call simulation harness: build a world of one shard fleet and its
//! clients, run a protocol under a workload, return the recorded history
//! plus cost metrics.

use std::cell::{RefCell, RefMut};
use std::rc::Rc;

use rand::rngs::StdRng;
use tc_clocks::{Delta, Epsilon, Time};
use tc_core::checker::TimedReport;
use tc_core::{History, Value};
use tc_sim::metrics::names;
use tc_sim::workload::Workload;
use tc_sim::{
    Context, FaultPlan, Metrics, MetricsSnapshot, NetEvent, NodeId, Process, TraceRecorder, World,
    WorldConfig,
};

use crate::control::{ControllerConfig, DeltaController, DeltaSchedule};
use crate::engine::{Effect, Event, Inputs, PrivateSources};
use crate::node::{execute, judge_run, ClientCore, Host, Port, ShardCore, SimClock};
use crate::oracle::widened_bound;
use crate::store::ShardStore;
use crate::{ClientEngine, Msg, ProtocolConfig, ServerEngine};

/// A per-shard store builder: called once per shard node index to
/// construct the [`ShardStore`] backend that shard's engine runs over.
pub type StoreFactory<'a> = &'a dyn Fn(usize) -> Box<dyn ShardStore>;

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The protocol under test.
    pub protocol: ProtocolConfig,
    /// Number of client sites.
    pub n_clients: usize,
    /// The workload every client runs.
    pub workload: Workload,
    /// Operations each client performs.
    pub ops_per_client: usize,
    /// Network, clocks and seed.
    pub world: WorldConfig,
}

/// What a run does beyond its configuration; the default is a fault-free,
/// static-Δ, untraced run over in-memory stores and the world's shared
/// sources. Every combination composes.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Faults to inject. Node indices follow the harness layout: the
    /// shards first (`0..protocol.shards`), then the client sites. Plans
    /// whose faults never heal (an unbounded partition, a crash with no
    /// restart, 100% drop forever) make the protocol retry past the event
    /// budget — quiescence requires the plan to eventually let messages
    /// through.
    pub plan: FaultPlan,
    /// When set, clients draw their workload and written values from
    /// [`crate::engine::PrivateSources`] seeded with it instead of the
    /// world's shared RNG and the recorder's shared value counter — see
    /// [`run_with_private_sources`].
    pub private_seed: Option<u64>,
    /// When set, every shard's engine is built over `stores(node)` (e.g.
    /// `tc-durable`'s WAL store), called once per shard in node order.
    pub stores: Option<StoreFactory<'a>>,
    /// When set, a controller node ticks a [`DeltaController`] every
    /// `interval`, retuning Δ from the streaming monitor's running
    /// `min_delta` and the run's backpressure signals, and broadcasting
    /// [`Msg::DeltaUpdate`] commands to every client. Needs a timed
    /// protocol kind (`Tsc` or `Tcc`) at a finite Δ, a finite `interval`
    /// and `delta_min ≤ delta_max`.
    pub adaptive: Option<ControllerConfig>,
    /// Capture every send, delivery and timer fire into
    /// [`RunResult::net_events`], ready for `tc-trace`.
    pub traced: bool,
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The recorded execution, ready for the `tc-core` checkers. Sites are
    /// client indices.
    pub history: History,
    /// Protocol cost counters (fetches, validations, invalidations, cache
    /// hits, messages, …).
    pub metrics: MetricsSnapshot,
    /// The run's clock bound ε: twice the plan's largest clock skew, since
    /// a simulated node's clock is off true time only by the skew rules in
    /// force. This is what Definition 2 checkers must be given.
    pub epsilon: Epsilon,
    /// Events the simulator dispatched.
    pub events: usize,
    /// True time when the run went quiescent.
    pub finished_at: Time,
    /// Streaming on-time verdict, judged while the run executed by the
    /// recorder's [`tc_core::checker::OnTimeMonitor`] at
    /// [`RunResult::bound`], or at [`Delta::INFINITE`] when there is none
    /// (then the report holds trivially but `observed_staleness` is still
    /// exact).
    pub on_time: TimedReport,
    /// The monitor's running `min_delta`: the smallest Δ for which the
    /// recorded history is timed under the run's effective ε.
    pub observed_staleness: Delta,
    /// The fault-widened staleness bound of the run's configuration and
    /// plan ([`crate::oracle::widened_bound`]); `None` when there is no
    /// finite one (a level without a finite Δ, or a never-healing plan).
    pub bound: Option<Delta>,
    /// The Δ-schedule the adaptive controller committed to (`None` for
    /// static-Δ runs). When present, [`RunResult::on_time`] was judged
    /// against this schedule — every read against the Δ in force at its
    /// own instant, each threshold widened by the same margin as the
    /// static bound — not against a scalar.
    pub delta_schedule: Option<DeltaSchedule>,
    /// Wire-level events captured for timeline export (`None` unless the
    /// run was [`RunOptions::traced`]).
    pub net_events: Option<Vec<NetEvent>>,
}

impl RunResult {
    /// Convenience: a named counter from the metrics.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }

    /// Cache hit rate over all client reads that consulted the cache.
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

/// Runs one simulation to quiescence.
///
/// # Panics
///
/// Panics if the run fails to quiesce within a generous event budget, or
/// if the protocol produced an invalid trace (e.g. returned a value that
/// was never written) — both indicate protocol bugs, which is exactly what
/// this harness exists to surface.
#[must_use]
pub fn run(config: &RunConfig) -> RunResult {
    run_with(config, RunOptions::default())
}

/// Runs one simulation to quiescence under an injected [`FaultPlan`]
/// ([`RunOptions::plan`]).
///
/// # Panics
///
/// As [`run_with`].
#[must_use]
pub fn run_with_faults(config: &RunConfig, plan: FaultPlan) -> RunResult {
    run_with(
        config,
        RunOptions {
            plan,
            ..RunOptions::default()
        },
    )
}

/// Runs one fault-free simulation whose clients draw their workload and
/// written values from [`crate::engine::PrivateSources`] seeded with
/// `base_seed`, instead of the world's shared RNG and the recorder's
/// shared value counter.
///
/// With private sources each client's operation sequence depends only on
/// `(base_seed, site, n_clients)` — exactly how the threaded runtime in
/// `tc-store` seeds its clients — so a simulated and a threaded run of the
/// same configuration perform the same per-site operations. The
/// engine-equivalence suite is built on this entry point; experiments use
/// [`run`]/[`run_with_faults`], whose shared sources keep historical runs
/// byte-identical.
#[must_use]
pub fn run_with_private_sources(config: &RunConfig, base_seed: u64) -> RunResult {
    run_with(
        config,
        RunOptions {
            private_seed: Some(base_seed),
            ..RunOptions::default()
        },
    )
}

/// Runs one simulation to quiescence as `opts` asks.
///
/// # Panics
///
/// As [`run`]; additionally if `opts.adaptive` is set and
/// [`DeltaController::new`] refuses it (an infinite interval, an inverted
/// band, a protocol kind with no Δ).
#[must_use]
pub fn run_with(config: &RunConfig, opts: RunOptions<'_>) -> RunResult {
    let RunOptions {
        plan,
        private_seed,
        stores,
        adaptive,
        traced,
    } = opts;
    let mut world: World<Msg> = World::new(config.world.clone());
    // The ε and the fault-widened bound are both fixed by the plan before
    // the run, so the recorder can judge on-time behaviour online.
    let epsilon = Epsilon::from_ticks(2 * plan.max_abs_skew());
    let bound = widened_bound(config, &plan, epsilon);
    let monitor_delta = bound.unwrap_or(Delta::INFINITE);
    let mut initial_recorder = TraceRecorder::new();
    initial_recorder.attach_monitor(monitor_delta, epsilon);
    if traced {
        initial_recorder.enable_net_log();
    }
    let recorder = Rc::new(RefCell::new(initial_recorder));
    let infra_recorder = || traced.then(|| recorder.clone());

    // The shards first (with one shard, node 0 is the server), then the
    // client sites.
    let fleet: Vec<NodeId> = (0..config.protocol.shards)
        .map(|shard| {
            let me = NodeId::new(shard);
            let engine = match stores {
                None => ServerEngine::new(config.protocol),
                Some(factory) => ServerEngine::with_store(config.protocol, factory(me.index())),
            };
            let host = ShardCore::new(engine, SimClock, me, &FaultPlan::none());
            world.add_node(SimNode::new(host, infra_recorder()))
        })
        .collect();
    let mut clients = Vec::with_capacity(config.n_clients);
    for site in 0..config.n_clients {
        let engine = ClientEngine::new(
            config.protocol,
            fleet.clone(),
            site,
            config.n_clients,
            config.workload.clone(),
            config.ops_per_client,
        );
        let sources = private_seed.map(|seed| PrivateSources::new(seed, site, config.n_clients));
        let me = NodeId::new(config.protocol.shards + site);
        let host = ClientCore::new(engine, sources, SimClock, me);
        clients.push(world.add_node(SimNode::new(host, Some(recorder.clone()))));
        assert_eq!(clients[site], me);
    }
    let expected_ops = config.n_clients * config.ops_per_client;
    let controller = adaptive.map(|ctrl| {
        world.add_node(ControllerNode {
            controller: DeltaController::new(
                ctrl,
                config.protocol.kind,
                monitor_delta,
                expected_ops,
            ),
            clients,
            recorder: recorder.clone(),
        })
    });
    let faulted = !plan.is_empty();
    world.set_fault_plan(plan);
    // Every op costs at most a handful of events even with retries.
    // Faulted runs retry more and ride out outage windows; controller
    // ticks and command broadcasts ride on top for adaptive runs.
    let mut budget = expected_ops * 200 + 10_000;
    if faulted {
        budget *= 4;
    }
    if controller.is_some() {
        budget *= 4;
    }
    let events = world.run_to_quiescence(budget);
    let finished_at = world.now();
    let mut metrics = world.metrics().snapshot();
    let delta_schedule = controller.map(|id| {
        let node: &ControllerNode = world.node(id).expect("the controller node");
        node.controller.schedule().clone()
    });
    drop(world);
    let mut recorder = Rc::try_unwrap(recorder)
        .expect("all clients dropped with the world")
        .into_inner();
    let net_events = recorder.take_net_log();
    let (history, on_time, observed_staleness) = judge_run(recorder, &mut metrics);
    RunResult {
        history,
        metrics,
        epsilon,
        events,
        finished_at,
        on_time,
        observed_staleness,
        bound,
        delta_schedule,
        net_events,
    }
}

/// The run's net-event log, when `recorder` is present and traced.
fn net_log(recorder: Option<&Rc<RefCell<TraceRecorder>>>) -> Option<RefMut<'_, TraceRecorder>> {
    recorder
        .map(|rec| rec.borrow_mut())
        .filter(|rec| rec.net_enabled())
}

/// The simulator's seam under a node core: a [`Port`] over the world's
/// [`Context`], and the shared [`Inputs`] a client without private
/// sources draws on — the world's seeded RNG and the recorder's value
/// counter, in exactly the order the engine asks.
struct SimPort<'a, 'w> {
    ctx: &'a mut Context<'w, Msg>,
    recorder: Option<RefMut<'a, TraceRecorder>>,
}

impl Port for SimPort<'_, '_> {
    type Deadline = Delta;

    fn send(&mut self, to: NodeId, msg: Msg) {
        if let Some(log) = self.recorder.as_mut().filter(|rec| rec.net_enabled()) {
            log.log_net(NetEvent::Send {
                at: self.ctx.true_now(),
                from: self.ctx.me().index(),
                to: to.index(),
                tag: msg.tag(),
            });
        }
        self.ctx.send(to, msg);
    }

    fn arm(&mut self, after: Delta, token: u64) {
        self.ctx.set_timer(after, token);
    }

    fn telemetry(&mut self) -> (&mut Metrics, Option<&mut TraceRecorder>) {
        (self.ctx.metrics(), self.recorder.as_deref_mut())
    }
}

impl Inputs for SimPort<'_, '_> {
    fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }

    fn next_value(&mut self) -> Value {
        let recorder = self.recorder.as_mut().expect("only clients draw values");
        recorder.next_value()
    }
}

/// A simulated node: a node core ([`ClientCore`] or [`ShardCore`])
/// stepped at its `Context`'s clock readings, its effects executed into
/// the world. A dead timer is logged and dropped without a step, as on the
/// real drivers.
struct SimNode<H> {
    host: H,
    /// The run's recorder: a client's operations and value counter, and
    /// the net-event log of a traced run (infrastructure holds it only
    /// then).
    recorder: Option<Rc<RefCell<TraceRecorder>>>,
    /// The effects of one step; reused, so a warm step allocates none.
    effects: Vec<Effect>,
}

impl<H: Host<SimClock>> SimNode<H> {
    fn new(host: H, recorder: Option<Rc<RefCell<TraceRecorder>>>) -> Self {
        SimNode {
            host,
            recorder,
            effects: Vec::new(),
        }
    }

    fn drive(&mut self, ctx: &mut Context<'_, Msg>, event: Event) {
        let at = (ctx.local_now(), ctx.true_now());
        let recorder = self.recorder.as_ref().map(|rec| rec.borrow_mut());
        let mut port = SimPort { ctx, recorder };
        let t = self
            .host
            .step(event, at, Some(&mut port), &mut self.effects);
        execute(&mut self.effects, &mut port, &SimClock, t);
    }
}

impl<H: Host<SimClock> + 'static> Process for SimNode<H> {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.drive(ctx, Event::Start);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.drive(ctx, Event::Restart);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
        if let Some(mut log) = net_log(self.recorder.as_ref()) {
            log.log_net(NetEvent::Timer {
                at: ctx.true_now(),
                node: ctx.me().index(),
                token,
            });
        }
        if self.host.timer_is_live(token) {
            self.drive(ctx, Event::Timer { token });
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        if let Some(mut log) = net_log(self.recorder.as_ref()) {
            log.log_net(NetEvent::Recv {
                at: ctx.true_now(),
                from: from.index(),
                to: ctx.me().index(),
                tag: msg.tag(),
            });
        }
        self.drive(ctx, Event::Message { from, msg });
    }
}

/// The controller's timer token — distinct from every engine token (the
/// controller node owns its own timer namespace anyway).
const TIMER_CONTROLLER: u64 = 0xAD_AF;

/// The simulated control plane: a [`DeltaController::tick`] every
/// interval, its command broadcast to every client.
struct ControllerNode {
    controller: DeltaController,
    clients: Vec<NodeId>,
    recorder: Rc<RefCell<TraceRecorder>>,
}

impl Process for ControllerNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(self.controller.interval(), TIMER_CONTROLLER);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {
        // Nothing addresses the controller.
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _token: u64) {
        let recorder = &mut self.recorder.borrow_mut();
        let (command, more) = self
            .controller
            .tick(ctx.true_now(), recorder, ctx.metrics());
        if let Some(msg) = command {
            for &c in &self.clients {
                ctx.send(c, msg.clone());
            }
        }
        // Stop re-arming once every op is in, so the world can quiesce.
        if more {
            ctx.set_timer(self.controller.interval(), TIMER_CONTROLLER);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Propagation, ProtocolKind};
    use tc_clocks::Delta;
    use tc_core::checker::{
        min_delta, satisfies_cc_fast, satisfies_ccv, satisfies_sc_with, Outcome, SearchOptions,
    };
    use tc_sim::{FaultKind, FaultPlan, NetworkModel, Scope, Window};

    fn base_config(kind: ProtocolKind, seed: u64) -> RunConfig {
        RunConfig {
            protocol: ProtocolConfig::of(kind),
            n_clients: 3,
            workload: Workload::new(4, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40))),
            ops_per_client: 40,
            world: WorldConfig::deterministic(Delta::from_ticks(3), seed),
        }
    }

    /// A host that arms one timer at start and calls every timer dead.
    struct DeadTimers(Vec<Event>);

    impl Host<SimClock> for DeadTimers {
        fn step(
            &mut self,
            event: Event,
            (_, truth): (Time, Time),
            _: Option<&mut dyn Inputs>,
            out: &mut Vec<Effect>,
        ) -> Time {
            if event == Event::Start {
                out.push(Effect::SetTimer {
                    after: Delta::from_ticks(5),
                    token: 7,
                });
            }
            self.0.push(event);
            truth
        }

        fn timer_is_live(&self, _: u64) -> bool {
            false
        }
    }

    /// The simulator drops a dead timer as the real drivers do: the timer
    /// fires, its mark is logged, and the host is never stepped with it.
    #[test]
    fn sim_node_never_steps_a_dead_timer() {
        let mut world: World<Msg> = World::new(WorldConfig::deterministic(Delta::from_ticks(1), 1));
        let mut recorder = TraceRecorder::new();
        recorder.enable_net_log();
        let recorder = Rc::new(RefCell::new(recorder));
        let id = world.add_node(SimNode::new(DeadTimers(Vec::new()), Some(recorder.clone())));
        assert_eq!(world.run_to_quiescence(10), 2, "the start and the timer");
        let node: &SimNode<DeadTimers> = world.node(id).unwrap();
        assert_eq!(node.host.0, [Event::Start]);
        let log = recorder.borrow_mut().take_net_log().unwrap();
        assert!(matches!(
            log[..],
            [NetEvent::Timer { at, token: 7, .. }] if at == Time::from_ticks(5)
        ));
    }

    #[test]
    fn runs_complete_and_record_all_ops() {
        for kind in [
            ProtocolKind::sc(),
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(50),
            },
            ProtocolKind::cc(),
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(50),
            },
            ProtocolKind::TccLogical { xi_delta: 10.0 },
            ProtocolKind::NoCache,
        ] {
            let r = run(&base_config(kind, 42));
            assert_eq!(
                r.history.len(),
                3 * 40,
                "{}: every op must be recorded",
                kind.label()
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(&base_config(ProtocolKind::cc(), 7));
        let b = run(&base_config(ProtocolKind::cc(), 7));
        assert_eq!(a.history.to_string(), b.history.to_string());
        assert_eq!(a.metrics, b.metrics);
        let c = run(&base_config(ProtocolKind::cc(), 8));
        assert_ne!(a.history.to_string(), c.history.to_string());
    }

    #[test]
    fn sc_protocol_induces_sc() {
        for seed in 0..8 {
            let r = run(&base_config(ProtocolKind::sc(), seed));
            let v = satisfies_sc_with(&r.history, SearchOptions::default());
            assert!(
                v.outcome().holds(),
                "SC protocol produced a non-SC trace (seed {seed}):\n{}",
                r.history
            );
        }
    }

    #[test]
    fn cc_protocol_induces_ccv_always_and_cm_on_these_seeds() {
        for seed in 0..8 {
            let r = run(&base_config(ProtocolKind::cc(), seed));
            // The hard guarantee of the convergent implementation:
            assert_eq!(
                satisfies_ccv(&r.history),
                Outcome::Satisfied,
                "CC protocol produced a non-CCv trace (seed {seed}):\n{}",
                r.history
            );
            // Causal memory (the paper's CC) is *not* guaranteed by any
            // convergent store (see tc_core::examples::cm_vs_ccv_execution)
            // but holds on these pinned small-scale runs; kept as a
            // regression canary for the cache rules.
            assert_eq!(
                satisfies_cc_fast(&r.history),
                Outcome::Satisfied,
                "CM regression on pinned seed {seed}:\n{}",
                r.history
            );
        }
    }

    #[test]
    fn tsc_protocol_bounds_staleness() {
        let delta = Delta::from_ticks(60);
        let lat = Delta::from_ticks(3);
        for seed in 0..8 {
            let r = run(&base_config(ProtocolKind::Tsc { delta }, seed));
            let bound = delta.ticks() + 2 * lat.ticks() + 2 * r.epsilon.ticks() + 4;
            assert!(
                min_delta(&r.history).ticks() <= bound,
                "TSC staleness {} exceeds bound {bound} (seed {seed})",
                min_delta(&r.history).ticks()
            );
            assert!(
                satisfies_sc_with(&r.history, SearchOptions::default()).holds(),
                "TSC trace must also be SC (seed {seed})"
            );
        }
    }

    #[test]
    fn tcc_protocol_bounds_staleness() {
        let delta = Delta::from_ticks(60);
        let lat = Delta::from_ticks(3);
        for seed in 0..8 {
            let r = run(&base_config(ProtocolKind::Tcc { delta }, seed));
            let bound = delta.ticks() + 4 * lat.ticks() + 2 * r.epsilon.ticks() + 4;
            assert!(
                min_delta(&r.history).ticks() <= bound,
                "TCC staleness {} exceeds bound {bound} (seed {seed})",
                min_delta(&r.history).ticks()
            );
            assert_eq!(satisfies_ccv(&r.history), Outcome::Satisfied);
        }
    }

    #[test]
    fn nocache_reads_always_fetch() {
        let r = run(&base_config(ProtocolKind::NoCache, 3));
        assert_eq!(r.counter(names::CACHE_HIT), 0);
        let reads = r.history.reads().count() as u64;
        assert_eq!(r.counter(names::FETCH), reads);
    }

    #[test]
    fn smaller_delta_costs_more_traffic() {
        let cheap = run(&base_config(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(2_000),
            },
            5,
        ));
        let costly = run(&base_config(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(5),
            },
            5,
        ));
        assert!(
            costly.counter(names::VALIDATE) + costly.counter(names::FETCH)
                > cheap.counter(names::VALIDATE) + cheap.counter(names::FETCH),
            "tight Δ must talk to the server more (cheap {} vs costly {})",
            cheap.counter(names::VALIDATE) + cheap.counter(names::FETCH),
            costly.counter(names::VALIDATE) + costly.counter(names::FETCH),
        );
        assert!(costly.hit_rate() < cheap.hit_rate());
    }

    #[test]
    fn push_invalidation_keeps_caches_fresh() {
        let mut cfg = base_config(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(100),
            },
            11,
        );
        cfg.protocol.propagation = Propagation::PushInvalidate;
        let r = run(&cfg);
        assert!(r.counter(names::PUSH) > 0, "pushes must flow");
        // Staleness should now be bounded by push latency, far below Δ.
        assert!(min_delta(&r.history).ticks() <= 100 + 2 * 3 + 4);
    }

    #[test]
    fn sharded_fleet_preserves_every_protocol_guarantee() {
        // The consistency arguments must survive object partitioning: SC
        // search, CCv, and the timed bounds all hold at every fleet size.
        let lat = Delta::from_ticks(3);
        for shards in [2, 3, 4] {
            for seed in 0..4 {
                let mut cfg = base_config(ProtocolKind::sc(), seed);
                cfg.protocol = cfg.protocol.with_shards(shards);
                let r = run(&cfg);
                assert_eq!(r.history.len(), 3 * 40, "SC {shards} shards seed {seed}");
                assert!(
                    satisfies_sc_with(&r.history, SearchOptions::default()).holds(),
                    "SC broke at {shards} shards (seed {seed}):\n{}",
                    r.history
                );

                let mut cfg = base_config(ProtocolKind::cc(), seed);
                cfg.protocol = cfg.protocol.with_shards(shards);
                let r = run(&cfg);
                assert_eq!(r.history.len(), 3 * 40, "CC {shards} shards seed {seed}");
                assert_eq!(
                    satisfies_ccv(&r.history),
                    Outcome::Satisfied,
                    "CCv broke at {shards} shards (seed {seed}):\n{}",
                    r.history
                );

                let delta = Delta::from_ticks(60);
                let mut cfg = base_config(ProtocolKind::Tsc { delta }, seed);
                cfg.protocol = cfg.protocol.with_shards(shards);
                let r = run(&cfg);
                let bound = delta.ticks() + 2 * lat.ticks() + 2 * r.epsilon.ticks() + 4;
                assert!(
                    min_delta(&r.history).ticks() <= bound,
                    "TSC staleness {} exceeds bound {bound} at {shards} shards (seed {seed})",
                    min_delta(&r.history).ticks()
                );

                let mut cfg = base_config(ProtocolKind::Tcc { delta }, seed);
                cfg.protocol = cfg.protocol.with_shards(shards);
                let r = run(&cfg);
                assert_eq!(satisfies_ccv(&r.history), Outcome::Satisfied);
                let bound = delta.ticks() + 4 * lat.ticks() + 2 * r.epsilon.ticks() + 4;
                assert!(
                    min_delta(&r.history).ticks() <= bound,
                    "TCC staleness {} exceeds bound {bound} at {shards} shards (seed {seed})",
                    min_delta(&r.history).ticks()
                );
            }
        }
    }

    #[test]
    fn single_shard_config_is_byte_identical_to_the_fleet_of_one() {
        // `with_shards(1)` must not perturb anything: same history string,
        // same metrics as the plain config.
        let a = run(&base_config(ProtocolKind::cc(), 9));
        let mut cfg = base_config(ProtocolKind::cc(), 9);
        cfg.protocol = cfg.protocol.with_shards(1);
        let b = run(&cfg);
        assert_eq!(a.history.to_string(), b.history.to_string());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn sharded_pushes_flow_and_respect_the_delta_bound() {
        let delta = Delta::from_ticks(100);
        let mut cfg = base_config(ProtocolKind::Tsc { delta }, 11);
        cfg.protocol = cfg.protocol.with_shards(2);
        cfg.protocol.propagation = Propagation::PushInvalidate;
        let r = run(&cfg);
        assert!(r.counter(names::PUSH) > 0, "pushes must flow");
        // The client-side rules enforce Δ; pushes only make caches fresher.
        let bound = delta.ticks() + 2 * 3 + 2 * r.epsilon.ticks() + 4;
        assert!(
            min_delta(&r.history).ticks() <= bound,
            "pushed staleness {} exceeds {bound}",
            min_delta(&r.history).ticks()
        );
        assert!(r.on_time.holds(), "monitor must stay green under pushes");
    }

    #[test]
    fn works_with_skewed_clocks_and_a_lossy_network() {
        let mut cfg = base_config(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(80),
            },
            13,
        );
        cfg.world.net = NetworkModel {
            latency: tc_sim::LatencyModel::Uniform {
                lo: Delta::from_ticks(1),
                hi: Delta::from_ticks(10),
            },
            fifo: true,
        };
        // 5 % loss for the whole run, and each client's clock (nodes 1..=3;
        // the shard is node 0) off true time by up to 4 ticks: ε = 8.
        let plan = [(1, 4), (2, -4), (3, 2)].into_iter().fold(
            FaultPlan::none().with(
                Window::always(),
                Scope::All,
                FaultKind::Drop { probability: 0.05 },
            ),
            |plan, (node, offset)| {
                plan.with(
                    Window::always(),
                    Scope::All,
                    FaultKind::ClockSkew { node, offset },
                )
            },
        );
        let r = run_with_faults(&cfg, plan.clone());
        assert_eq!(r.epsilon, Epsilon::from_ticks(8));
        assert!(r.counter(names::FAULT_DROPPED) > 0, "the plan must drop");
        assert_eq!(r.history.len(), 3 * 40, "drops must be masked by retries");
        assert_eq!(satisfies_ccv(&r.history), Outcome::Satisfied);
        let judged = crate::oracle::conformance(&cfg, &plan, &r);
        assert_eq!(judged.verdict, crate::oracle::OracleVerdict::Conforms);
    }
}
