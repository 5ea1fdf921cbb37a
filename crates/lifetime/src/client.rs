//! Simulator adapter for [`ClientEngine`]: a thin [`Process`] impl that
//! injects the world's clocks, routes the engine's randomness and value
//! allocation, and replays emitted effects into the [`tc_sim::World`].
//!
//! All protocol logic lives in [`crate::engine`]; this file owns only the
//! sim-side plumbing. Effects are executed strictly in emission order,
//! which (together with delegating `rng`/`next_value` to the world's
//! shared sources) keeps simulated runs byte-identical with the
//! pre-engine, `Process`-welded implementation.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use tc_core::Value;
use tc_sim::workload::Workload;
use tc_sim::{Context, NetEvent, NodeId, Process, TraceRecorder};

use crate::engine::{ClientEngine, Effect, Event, Inputs, Now, PrivateSources};
use crate::geo::GeoMigrationPlan;
use crate::msg::Msg;
use crate::ProtocolConfig;

/// Replays a batch of engine effects into the simulator, in order.
/// `recorder` is required iff the effects can contain [`Effect::Record`]
/// (i.e. for client engines).
pub(crate) fn replay_effects(
    ctx: &mut Context<'_, Msg>,
    recorder: Option<&Rc<RefCell<TraceRecorder>>>,
    effects: Vec<Effect>,
) {
    for effect in effects {
        match effect {
            Effect::Send { to, msg } => {
                if let Some(rec) = recorder {
                    let mut rec = rec.borrow_mut();
                    if rec.net_enabled() {
                        rec.log_net(NetEvent::Send {
                            at: ctx.true_now(),
                            from: ctx.me().index(),
                            to: to.index(),
                            tag: msg.tag(),
                        });
                    }
                }
                ctx.send(to, msg);
            }
            Effect::SetTimer { after, token } => ctx.set_timer(after, token),
            // Zero-increments still materialize the counter — experiment
            // tables rely on swept-but-empty counters being present.
            Effect::Metric { name, add } => ctx.metrics().add(name, add),
            Effect::Record(op) => op.apply(
                &mut recorder
                    .expect("only client engines record operations")
                    .borrow_mut(),
            ),
        }
    }
}

/// Captures a delivery/timer event for timeline export (no-op unless the
/// recorder's net log is enabled).
pub(crate) fn log_delivery(
    recorder: &Rc<RefCell<TraceRecorder>>,
    ctx: &Context<'_, Msg>,
    event: &Event,
) {
    let mut rec = recorder.borrow_mut();
    if !rec.net_enabled() {
        return;
    }
    match event {
        Event::Message { from, msg } => rec.log_net(NetEvent::Recv {
            at: ctx.true_now(),
            from: from.index(),
            to: ctx.me().index(),
            tag: msg.tag(),
        }),
        Event::Timer { token } => rec.log_net(NetEvent::Timer {
            at: ctx.true_now(),
            node: ctx.me().index(),
            token: *token,
        }),
        _ => {}
    }
}

/// The engine's [`Inputs`], bound to simulator sources: by default the
/// world's seeded RNG and the recorder's shared value counter (exact
/// pre-engine draw order); optionally a client-private source for
/// cross-driver equivalence runs.
struct SimInputs<'a, 'w> {
    ctx: &'a mut Context<'w, Msg>,
    recorder: &'a Rc<RefCell<TraceRecorder>>,
    private: Option<&'a mut PrivateSources>,
}

impl Inputs for SimInputs<'_, '_> {
    fn rng(&mut self) -> &mut StdRng {
        match &mut self.private {
            Some(p) => p.rng(),
            None => self.ctx.rng(),
        }
    }

    fn next_value(&mut self) -> Value {
        match &mut self.private {
            Some(p) => p.next_value(),
            None => self.recorder.borrow_mut().next_value(),
        }
    }
}

/// The simulated client node: a [`ClientEngine`] plus its recorder handle.
pub(crate) struct ClientNode {
    engine: ClientEngine,
    recorder: Rc<RefCell<TraceRecorder>>,
    private: Option<PrivateSources>,
}

impl ClientNode {
    /// Creates a client driven by the world's shared sources (the default;
    /// byte-identical with the historical implementation).
    ///
    /// `site` is this client's 0-based index among `n_clients` clients; it
    /// doubles as the trace site id and the vector-clock component.
    /// `servers` holds every shard's node id, in shard order.
    pub(crate) fn new(
        config: ProtocolConfig,
        servers: Vec<NodeId>,
        site: usize,
        n_clients: usize,
        workload: Workload,
        ops_target: usize,
        recorder: Rc<RefCell<TraceRecorder>>,
    ) -> Self {
        ClientNode {
            engine: ClientEngine::new(config, servers, site, n_clients, workload, ops_target),
            recorder,
            private: None,
        }
    }

    /// Switches workload sampling and value allocation to
    /// [`PrivateSources`] derived from `base_seed` instead of the world's
    /// shared sources. With private sources the client's operation
    /// sequence depends only on `(base_seed, site, n_clients)` — the same
    /// sequence the threaded runtime's clients produce, which is what the
    /// engine-equivalence suite compares.
    pub(crate) fn with_private_sources(
        mut self,
        base_seed: u64,
        site: usize,
        n_clients: usize,
    ) -> Self {
        self.private = Some(PrivateSources::new(base_seed, site, n_clients));
        self
    }

    /// Schedules a scripted region migration (see [`crate::geo`]).
    ///
    /// # Panics
    ///
    /// Panics if the protocol kind is not in the causal family or the
    /// destination fleet size differs from the configured shard count.
    pub(crate) fn with_migration(mut self, plan: GeoMigrationPlan) -> Self {
        self.engine = self.engine.with_migration(plan);
        self
    }

    fn drive(&mut self, ctx: &mut Context<'_, Msg>, event: Event) {
        log_delivery(&self.recorder, ctx, &event);
        let now = Now {
            me: ctx.me(),
            local: ctx.local_now(),
            truth: ctx.true_now(),
        };
        let mut out = Vec::new();
        {
            let mut io = SimInputs {
                ctx,
                recorder: &self.recorder,
                private: self.private.as_mut(),
            };
            self.engine.handle(Event::Now(now), &mut io, &mut out);
            self.engine.handle(event, &mut io, &mut out);
        }
        replay_effects(ctx, Some(&self.recorder), out);
    }
}

impl Process for ClientNode {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.drive(ctx, Event::Start);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.drive(ctx, Event::Restart);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
        self.drive(ctx, Event::Timer { token });
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.drive(ctx, Event::Message { from, msg });
    }
}
