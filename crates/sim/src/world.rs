//! The simulation kernel: nodes, messages, timers, and per-node hardware
//! clocks, all driven from one deterministic event queue.

use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tc_clocks::{Delta, DriftingClock, Epsilon, SyncedClock, Time};

use crate::fault::FaultPlan;
use crate::metrics::names;
use crate::{Metrics, NetworkModel};

/// Seed perturbation for the fault RNG stream: faults draw from their own
/// generator so an inactive fault plan cannot shift the base simulation's
/// random choices.
const FAULT_SEED_XOR: u64 = 0xFA41_7FA4_17FA_4170;

/// Identifies a node (process) within one [`World`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(usize);

impl NodeId {
    /// A node id from a raw index. Drivers outside the simulator (the
    /// threaded runtime) use this to address sans-io engines with the same
    /// id space the simulator would.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// The underlying index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// A simulated process. Implementations hold protocol state and react to
/// startup, messages and timers through the [`Context`].
///
/// The `Any` supertrait lets experiments downcast nodes back to their
/// concrete type after a run ([`World::node`]) to extract protocol state.
pub trait Process: Any {
    /// The protocol's message type.
    type Msg;

    /// Called once when the simulation starts (time 0).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message arrives.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, token: u64) {
        let _ = (ctx, token);
    }

    /// Called when the node restarts after an injected crash
    /// ([`crate::FaultKind::Crash`]). While down the node receives nothing
    /// and all its pending timers die; implementations should discard
    /// volatile state (caches) here, keep only what the protocol declares
    /// durable, and re-arm whatever timers drive their main loop.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }
}

/// The process's window onto the world during one event callback.
pub struct Context<'a, M> {
    node: NodeId,
    true_now: Time,
    local_now: Time,
    epsilon: Epsilon,
    outbox: Vec<(NodeId, M)>,
    timers: Vec<(Delta, u64)>,
    metrics: &'a mut Metrics,
    rng: &'a mut StdRng,
    n_nodes: usize,
}

impl<'a, M> Context<'a, M> {
    /// This node's id.
    #[must_use]
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the world.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The node's *local clock* reading — what a real protocol would
    /// timestamp with. Differs from [`Context::true_now`] by at most the
    /// world's ε bound.
    #[must_use]
    pub fn local_now(&self) -> Time {
        self.local_now
    }

    /// True simulation time. Use only for instrumentation and ground-truth
    /// traces; protocols must not read it.
    #[must_use]
    pub fn true_now(&self) -> Time {
        self.true_now
    }

    /// The guaranteed clock-synchronization bound ε of this world.
    #[must_use]
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Sends `msg` to `to` (delivered after the network's latency, unless
    /// dropped). Messages to self are also routed through the network.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.metrics.incr(names::MESSAGE);
        self.outbox.push((to, msg));
    }

    /// Schedules [`Process::on_timer`] with `token` after `after` ticks of
    /// true time (minimum 1 tick; a zero delay still yields to the queue).
    pub fn set_timer(&mut self, after: Delta, token: u64) {
        self.timers.push((after, token));
    }

    /// The world's deterministic random source.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The shared metric bag.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }
}

/// Per-node hardware clock configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum ClockConfig {
    /// Every node reads true time (ε = 0) — Definition 1's setting.
    Perfect,
    /// Drifting clocks resynchronized periodically — Definition 2's
    /// setting. Drift and initial offsets are sampled per node.
    Synced {
        /// Maximum absolute drift in ppm (sampled in `[-max, max]`).
        max_drift_ppm: f64,
        /// Maximum absolute initial offset in ticks.
        max_initial_offset: i64,
        /// One-way error of each resynchronization, in ticks.
        sync_error: u64,
        /// Interval between resynchronizations.
        sync_interval: Delta,
    },
}

impl ClockConfig {
    /// The pairwise divergence bound ε this configuration guarantees.
    #[must_use]
    pub fn epsilon(&self) -> Epsilon {
        match *self {
            ClockConfig::Perfect => Epsilon::ZERO,
            ClockConfig::Synced {
                max_drift_ppm,
                sync_error,
                sync_interval,
                ..
            } => {
                let drift_term =
                    (max_drift_ppm.abs() * 1e-6 * sync_interval.ticks() as f64).ceil() as u64;
                Epsilon::from_ticks(2 * (sync_error + drift_term))
            }
        }
    }
}

/// World-level configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldConfig {
    /// The network model.
    pub net: NetworkModel,
    /// The clock model.
    pub clock: ClockConfig,
    /// Seed for every random choice (latencies, drops, drifts, workloads).
    pub seed: u64,
}

impl WorldConfig {
    /// Reliable constant-latency network, perfect clocks — the protocol
    /// unit-test default.
    #[must_use]
    pub fn deterministic(latency: Delta, seed: u64) -> Self {
        WorldConfig {
            net: NetworkModel::reliable(latency),
            clock: ClockConfig::Perfect,
            seed,
        }
    }
}

struct Event<M> {
    time: Time,
    seq: u64,
    kind: EventKind<M>,
}

enum EventKind<M> {
    Start(NodeId),
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: M,
    },
    Timer {
        node: NodeId,
        token: u64,
        // Timers are tagged with the incarnation that set them, so a crash
        // (which bumps the incarnation) retires every pending timer.
        incarnation: u64,
    },
    Crash(NodeId),
    Restart(NodeId),
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The deterministic discrete-event world.
///
/// ```
/// use tc_clocks::{Delta, Time};
/// use tc_sim::{Context, NodeId, Process, World, WorldConfig};
///
/// struct Echo;
/// impl Process for Echo {
///     type Msg = u32;
///     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
///         if msg < 3 {
///             ctx.send(from, msg + 1);
///         }
///     }
/// }
/// struct Starter { peer: NodeId, last: u32 }
/// impl Process for Starter {
///     type Msg = u32;
///     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
///         ctx.send(self.peer, 0);
///     }
///     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: NodeId, msg: u32) {
///         self.last = msg;
///         if msg < 3 {
///             ctx.send(from, msg); // keep the ping-pong going
///         }
///     }
/// }
///
/// let mut world = World::new(WorldConfig::deterministic(Delta::from_ticks(5), 1));
/// let echo = world.add_node(Echo);
/// let starter = world.add_node(Starter { peer: echo, last: 0 });
/// world.run_until(Time::from_ticks(1_000));
/// assert_eq!(world.node::<Starter>(starter).unwrap().last, 3);
/// ```
pub struct World<M> {
    config: WorldConfig,
    procs: Vec<Option<Box<dyn Process<Msg = M>>>>,
    clocks: Vec<Option<SyncedClock>>,
    queue: BinaryHeap<Event<M>>,
    now: Time,
    seq: u64,
    rng: StdRng,
    metrics: Metrics,
    fifo_last: HashMap<(NodeId, NodeId), Time>,
    link_overrides: HashMap<(usize, usize), NetworkModel>,
    epsilon: Epsilon,
    started: bool,
    faults: FaultPlan,
    fault_rng: StdRng,
    incarnations: Vec<u64>,
    down: Vec<bool>,
}

impl<M: Clone + 'static> World<M> {
    /// Creates an empty world.
    #[must_use]
    pub fn new(config: WorldConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let fault_rng = StdRng::seed_from_u64(config.seed ^ FAULT_SEED_XOR);
        let epsilon = config.clock.epsilon();
        World {
            config,
            procs: Vec::new(),
            clocks: Vec::new(),
            queue: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            rng,
            metrics: Metrics::new(),
            fifo_last: HashMap::new(),
            link_overrides: HashMap::new(),
            epsilon,
            started: false,
            faults: FaultPlan::none(),
            fault_rng,
            incarnations: Vec::new(),
            down: Vec::new(),
        }
    }

    /// Installs a fault plan. Crash rules are scheduled immediately as
    /// crash/restart events; message and clock rules are consulted as the
    /// run proceeds. Call after adding the nodes the plan refers to and
    /// before the world runs.
    ///
    /// # Panics
    ///
    /// Panics if the world has already started, or if a rule names a node
    /// index that does not exist yet.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "fault plans must be installed before the world runs"
        );
        for (node, crash_at, restart_at) in plan.crash_schedule() {
            assert!(
                node < self.procs.len(),
                "crash rule names unknown node {node}"
            );
            self.push_event(crash_at, EventKind::Crash(NodeId(node)));
            if restart_at < Time::MAX {
                self.push_event(restart_at, EventKind::Restart(NodeId(node)));
            }
        }
        self.faults = plan;
    }

    /// Overrides the network model for the directed link `from → to`
    /// (node indices). Messages on that link sample latency, drops, and
    /// FIFO behaviour from `model` instead of the world default — how a
    /// geo topology gives its WAN pairs a different profile from the
    /// intra-region fabric. Links without an override are untouched, so a
    /// world with no overrides behaves byte-identically to one built
    /// before this hook existed.
    ///
    /// # Panics
    ///
    /// Panics if the world has already started running.
    pub fn set_link_model(&mut self, from: usize, to: usize, model: NetworkModel) {
        assert!(
            !self.started,
            "link overrides must be installed before the world runs"
        );
        self.link_overrides.insert((from, to), model);
    }

    /// Adds a node; its [`Process::on_start`] runs at time 0 in insertion
    /// order when the world first runs.
    ///
    /// # Panics
    ///
    /// Panics if called after the world has started running.
    pub fn add_node(&mut self, proc: impl Process<Msg = M>) -> NodeId {
        assert!(!self.started, "nodes must be added before the world runs");
        let id = NodeId(self.procs.len());
        self.procs.push(Some(Box::new(proc)));
        let clock = match self.config.clock {
            ClockConfig::Perfect => None,
            ClockConfig::Synced {
                max_drift_ppm,
                max_initial_offset,
                sync_error,
                sync_interval,
            } => {
                let drift = self.rng.gen_range(-max_drift_ppm..=max_drift_ppm);
                let offset = self.rng.gen_range(-max_initial_offset..=max_initial_offset);
                Some(SyncedClock::new(
                    DriftingClock::new(drift, offset),
                    sync_error,
                    sync_interval,
                ))
            }
        };
        self.clocks.push(clock);
        self.incarnations.push(0);
        self.down.push(false);
        self.push_event(Time::ZERO, EventKind::Start(id));
        id
    }

    /// Current simulation (true) time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The ε bound of this world's clocks.
    #[must_use]
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The shared metric bag.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Downcasts a node to its concrete type for post-run inspection.
    #[must_use]
    pub fn node<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let boxed = self.procs[id.0].as_ref()?;
        (boxed.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Runs until the queue is empty or the next event is after `limit`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, limit: Time) -> usize {
        self.started = true;
        let mut processed = 0;
        while let Some(ev) = self.queue.peek() {
            if ev.time > limit {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.now = ev.time;
            self.dispatch(ev);
            processed += 1;
        }
        self.now = self.now.max(limit);
        processed
    }

    /// Runs until no events remain (the world is quiescent).
    ///
    /// # Panics
    ///
    /// Panics after `max_events` dispatches, to catch livelocks in
    /// protocols that reschedule themselves forever.
    pub fn run_to_quiescence(&mut self, max_events: usize) -> usize {
        self.started = true;
        let mut processed = 0;
        while let Some(ev) = self.queue.pop() {
            self.now = ev.time;
            self.dispatch(ev);
            processed += 1;
            assert!(
                processed <= max_events,
                "world did not quiesce within {max_events} events"
            );
        }
        processed
    }

    fn push_event(&mut self, time: Time, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    fn local_reading(&mut self, node: NodeId) -> Time {
        let base = self.base_reading(node);
        let skew = self.faults.skew(self.now, node.0);
        if skew == 0 {
            base
        } else {
            Time::from_ticks((base.ticks() as i64).saturating_add(skew).max(0) as u64)
        }
    }

    fn base_reading(&mut self, node: NodeId) -> Time {
        let now = self.now;
        match &mut self.clocks[node.0] {
            None => now,
            Some(clock) => {
                if clock.due(now) {
                    // Cristian-style sync: the server estimate is true time
                    // plus a bounded random error.
                    let err_bound = match self.config.clock {
                        ClockConfig::Synced { sync_error, .. } => sync_error as i64,
                        ClockConfig::Perfect => 0,
                    };
                    let err = if err_bound == 0 {
                        0
                    } else {
                        self.rng.gen_range(-err_bound..=err_bound)
                    };
                    let estimate = Time::from_ticks((now.ticks() as i64 + err).max(0) as u64);
                    clock.sync(now, estimate);
                }
                clock.read(now)
            }
        }
    }

    fn dispatch(&mut self, ev: Event<M>) {
        type Action<'a, M> = Box<dyn FnOnce(&mut dyn Process<Msg = M>, &mut Context<'_, M>) + 'a>;
        let (node, action): (NodeId, Action<'_, M>) = match ev.kind {
            EventKind::Start(node) => (node, Box::new(|p, ctx| p.on_start(ctx))),
            EventKind::Deliver { to, from, msg } => {
                if self.down[to.0] {
                    // A crashed node hears nothing; in-flight messages
                    // addressed to it are lost, exactly like packets to
                    // a dead host.
                    self.metrics.incr(names::FAULT_DROPPED_DOWN);
                    return;
                }
                (to, Box::new(move |p, ctx| p.on_message(ctx, from, msg)))
            }
            EventKind::Timer {
                node,
                token,
                incarnation,
            } => {
                if self.down[node.0] || incarnation != self.incarnations[node.0] {
                    return; // timer set by a previous incarnation
                }
                (node, Box::new(move |p, ctx| p.on_timer(ctx, token)))
            }
            EventKind::Crash(node) => {
                self.incarnations[node.0] += 1;
                self.down[node.0] = true;
                self.metrics.incr(names::CRASH);
                return;
            }
            EventKind::Restart(node) => {
                self.down[node.0] = false;
                self.metrics.incr(names::RESTART);
                (node, Box::new(|p, ctx| p.on_restart(ctx)))
            }
        };

        let local_now = self.local_reading(node);
        let mut proc = self.procs[node.0].take().expect("node exists");
        let mut ctx = Context {
            node,
            true_now: self.now,
            local_now,
            epsilon: self.epsilon,
            outbox: Vec::new(),
            timers: Vec::new(),
            metrics: &mut self.metrics,
            rng: &mut self.rng,
            n_nodes: self.procs.len(),
        };
        action(proc.as_mut(), &mut ctx);
        let Context { outbox, timers, .. } = ctx;
        self.procs[node.0] = Some(proc);

        for (to, msg) in outbox {
            if self
                .faults
                .kills_message(self.now, node.0, to.0, &mut self.fault_rng)
            {
                self.metrics.incr(names::FAULT_DROPPED);
                continue;
            }
            // Per-link override, if one is installed for this (from, to)
            // pair; cloning the small model avoids holding a borrow of
            // `self` across the RNG draws below.
            let net = self
                .link_overrides
                .get(&(node.0, to.0))
                .unwrap_or(&self.config.net)
                .clone();
            if net.drops(&mut self.rng) {
                self.metrics.incr(names::DROPPED);
                continue;
            }
            let latency = net.latency.sample(&mut self.rng);
            let mut arrival = self.now + latency;
            if net.fifo {
                let last = self.fifo_last.entry((node, to)).or_insert(Time::ZERO);
                arrival = arrival.max(*last);
                *last = arrival;
            }
            // Reorder jitter is applied after the FIFO clamp (and without
            // updating it): the fault models a multipath detour that
            // genuinely reorders even on an otherwise-FIFO network.
            let jitter = self
                .faults
                .reorder_jitter(self.now, node.0, to.0, &mut self.fault_rng);
            if jitter.ticks() > 0 {
                self.metrics.incr(names::FAULT_JITTERED);
            }
            let arrival = arrival + jitter;
            let dup = self
                .faults
                .duplicates(self.now, node.0, to.0, &mut self.fault_rng);
            if let Some(lag) = dup {
                self.metrics.incr(names::FAULT_DUPLICATED);
                let copy_at = arrival + Delta::from_ticks(lag.ticks().max(1));
                self.push_event(
                    copy_at,
                    EventKind::Deliver {
                        to,
                        from: node,
                        msg: msg.clone(),
                    },
                );
            }
            self.push_event(
                arrival,
                EventKind::Deliver {
                    to,
                    from: node,
                    msg,
                },
            );
        }
        for (after, token) in timers {
            let at = self.now + Delta::from_ticks(after.ticks().max(1));
            self.push_event(
                at,
                EventKind::Timer {
                    node,
                    token,
                    incarnation: self.incarnations[node.0],
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        peer: Option<NodeId>,
        received: Vec<(Time, u32)>,
        timer_fired: u64,
    }

    impl Counter {
        fn new(peer: Option<NodeId>) -> Self {
            Counter {
                peer,
                received: Vec::new(),
                timer_fired: 0,
            }
        }
    }

    impl Process for Counter {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, 1);
                ctx.send(peer, 2);
                ctx.send(peer, 3);
            }
            ctx.set_timer(Delta::from_ticks(10), 99);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: NodeId, msg: u32) {
            self.received.push((ctx.true_now(), msg));
        }

        fn on_timer(&mut self, _ctx: &mut Context<'_, u32>, token: u64) {
            self.timer_fired = token;
        }
    }

    #[test]
    fn messages_deliver_with_constant_latency() {
        let mut w: World<u32> = World::new(WorldConfig::deterministic(Delta::from_ticks(7), 3));
        let b = w.add_node(Counter::new(None));
        let _a = w.add_node(Counter::new(Some(b)));
        w.run_until(Time::from_ticks(100));
        let node = w.node::<Counter>(b).unwrap();
        assert_eq!(node.received.len(), 3);
        for (t, _) in &node.received {
            assert_eq!(*t, Time::from_ticks(7));
        }
        assert_eq!(node.timer_fired, 99);
        assert_eq!(w.metrics().get("message"), 3);
    }

    #[test]
    fn fifo_preserves_send_order() {
        let cfg = WorldConfig {
            net: NetworkModel {
                latency: crate::LatencyModel::Uniform {
                    lo: Delta::from_ticks(1),
                    hi: Delta::from_ticks(50),
                },
                drop_probability: 0.0,
                fifo: true,
            },
            clock: ClockConfig::Perfect,
            seed: 11,
        };
        let mut w: World<u32> = World::new(cfg);
        let b = w.add_node(Counter::new(None));
        let _a = w.add_node(Counter::new(Some(b)));
        w.run_until(Time::from_ticks(1_000));
        let msgs: Vec<u32> = w
            .node::<Counter>(b)
            .unwrap()
            .received
            .iter()
            .map(|(_, m)| *m)
            .collect();
        assert_eq!(msgs, vec![1, 2, 3]);
    }

    #[test]
    fn non_fifo_can_reorder() {
        // With wide uniform latency and many trials, some seed reorders.
        let mut reordered = false;
        for seed in 0..50 {
            let cfg = WorldConfig {
                net: NetworkModel {
                    latency: crate::LatencyModel::Uniform {
                        lo: Delta::from_ticks(1),
                        hi: Delta::from_ticks(100),
                    },
                    drop_probability: 0.0,
                    fifo: false,
                },
                clock: ClockConfig::Perfect,
                seed,
            };
            let mut w: World<u32> = World::new(cfg);
            let b = w.add_node(Counter::new(None));
            let _a = w.add_node(Counter::new(Some(b)));
            w.run_until(Time::from_ticks(1_000));
            let msgs: Vec<u32> = w
                .node::<Counter>(b)
                .unwrap()
                .received
                .iter()
                .map(|(_, m)| *m)
                .collect();
            if msgs != vec![1, 2, 3] {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "non-FIFO network never reordered in 50 seeds");
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let run = |seed: u64| -> Vec<(Time, u32)> {
            let cfg = WorldConfig {
                net: NetworkModel::wan(),
                clock: ClockConfig::Perfect,
                seed,
            };
            let mut w: World<u32> = World::new(cfg);
            let b = w.add_node(Counter::new(None));
            let _a = w.add_node(Counter::new(Some(b)));
            w.run_until(Time::from_ticks(10_000));
            w.node::<Counter>(b).unwrap().received.clone()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn drops_suppress_delivery() {
        let cfg = WorldConfig {
            net: NetworkModel {
                latency: crate::LatencyModel::Constant(Delta::from_ticks(1)),
                drop_probability: 1.0,
                fifo: true,
            },
            clock: ClockConfig::Perfect,
            seed: 1,
        };
        let mut w: World<u32> = World::new(cfg);
        let b = w.add_node(Counter::new(None));
        let _a = w.add_node(Counter::new(Some(b)));
        w.run_until(Time::from_ticks(100));
        assert!(w.node::<Counter>(b).unwrap().received.is_empty());
        assert_eq!(w.metrics().get("dropped"), 3);
    }

    #[test]
    fn synced_clocks_stay_within_epsilon() {
        struct ClockProbe {
            readings: Vec<(Time, Time)>,
        }
        impl Process for ClockProbe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(Delta::from_ticks(50), 0);
            }
            fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, ()>, _t: u64) {
                self.readings.push((ctx.true_now(), ctx.local_now()));
                if ctx.true_now() < Time::from_ticks(50_000) {
                    ctx.set_timer(Delta::from_ticks(50), 0);
                }
            }
        }
        let cfg = WorldConfig {
            net: NetworkModel::reliable(Delta::from_ticks(1)),
            clock: ClockConfig::Synced {
                max_drift_ppm: 200.0,
                max_initial_offset: 40,
                sync_error: 5,
                sync_interval: Delta::from_ticks(1_000),
            },
            seed: 9,
        };
        let eps = cfg.clock.epsilon();
        let mut w: World<()> = World::new(cfg);
        let a = w.add_node(ClockProbe { readings: vec![] });
        let b = w.add_node(ClockProbe { readings: vec![] });
        w.run_until(Time::from_ticks(60_000));
        let ra = &w.node::<ClockProbe>(a).unwrap().readings;
        let rb = &w.node::<ClockProbe>(b).unwrap().readings;
        assert!(!ra.is_empty() && ra.len() == rb.len());
        for ((t1, l1), (t2, l2)) in ra.iter().zip(rb) {
            assert_eq!(t1, t2);
            let div = l1.ticks().abs_diff(l2.ticks());
            assert!(
                div <= eps.ticks(),
                "clock divergence {div} exceeds ε {} at {t1}",
                eps.ticks()
            );
        }
    }

    #[test]
    fn quiescence_counts_events_and_detects_livelock() {
        let mut w: World<u32> = World::new(WorldConfig::deterministic(Delta::from_ticks(1), 2));
        let b = w.add_node(Counter::new(None));
        let _a = w.add_node(Counter::new(Some(b)));
        // 2 starts + 3 deliveries + 2 timers.
        assert_eq!(w.run_to_quiescence(100), 7);
    }

    struct Restartable {
        peer: Option<NodeId>,
        received: Vec<(Time, u32)>,
        restarts: u32,
        locals: Vec<(Time, Time)>,
    }

    impl Restartable {
        fn new(peer: Option<NodeId>) -> Self {
            Restartable {
                peer,
                received: Vec::new(),
                restarts: 0,
                locals: Vec::new(),
            }
        }
    }

    impl Process for Restartable {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.set_timer(Delta::from_ticks(10), 0);
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u32>, _from: NodeId, msg: u32) {
            self.received.push((ctx.true_now(), msg));
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u32>, _token: u64) {
            self.locals.push((ctx.true_now(), ctx.local_now()));
            if let Some(peer) = self.peer {
                ctx.send(peer, self.locals.len() as u32);
            }
            if ctx.true_now() < Time::from_ticks(200) {
                ctx.set_timer(Delta::from_ticks(10), 0);
            }
        }

        fn on_restart(&mut self, ctx: &mut Context<'_, u32>) {
            self.restarts += 1;
            ctx.set_timer(Delta::from_ticks(10), 0);
        }
    }

    use crate::fault::{FaultKind, FaultPlan, Scope, Window};

    fn faulted_pair(plan: FaultPlan) -> (World<u32>, NodeId, NodeId) {
        let mut w: World<u32> = World::new(WorldConfig::deterministic(Delta::from_ticks(5), 4));
        let sink = w.add_node(Restartable::new(None));
        let src = w.add_node(Restartable::new(Some(sink)));
        w.set_fault_plan(plan);
        (w, sink, src)
    }

    #[test]
    fn crash_retires_timers_and_drops_deliveries_then_restarts() {
        let plan = FaultPlan::none().crash(Window::ticks(15, 95), 0);
        let (mut w, sink, _src) = faulted_pair(plan);
        w.run_until(Time::from_ticks(300));
        let node = w.node::<Restartable>(sink).unwrap();
        assert_eq!(node.restarts, 1);
        // The sink's pre-crash self-timer chain dies with the crash and is
        // re-armed only by on_restart: no local readings in [15, 95).
        assert!(node
            .locals
            .iter()
            .all(|(t, _)| t.ticks() < 15 || t.ticks() >= 95));
        // Messages sent to it while down are dropped, and the source keeps
        // sending every 10 ticks throughout.
        assert!(w.metrics().get("fault_dropped_down") > 0);
        assert!(node
            .received
            .iter()
            .all(|(t, _)| t.ticks() < 15 || t.ticks() >= 95));
        assert_eq!(w.metrics().get("crash"), 1);
        assert_eq!(w.metrics().get("restart"), 1);
    }

    #[test]
    fn partition_drops_cross_traffic_until_heal() {
        let plan = FaultPlan::none().partition(Window::ticks(0, 100), vec![0]);
        let (mut w, sink, _src) = faulted_pair(plan);
        w.run_until(Time::from_ticks(300));
        let node = w.node::<Restartable>(sink).unwrap();
        assert!(w.metrics().get("fault_dropped") >= 9);
        assert!(!node.received.is_empty());
        assert!(node.received.iter().all(|(t, _)| t.ticks() >= 100));
    }

    #[test]
    fn skew_spike_shifts_local_clock_in_window_only() {
        let plan = FaultPlan::none().with(
            Window::ticks(50, 100),
            Scope::All,
            FaultKind::ClockSkew {
                node: 0,
                offset: 1_000,
            },
        );
        let (mut w, sink, _src) = faulted_pair(plan);
        w.run_until(Time::from_ticks(200));
        for (t, local) in &w.node::<Restartable>(sink).unwrap().locals {
            if (50..100).contains(&t.ticks()) {
                assert_eq!(local.ticks(), t.ticks() + 1_000, "skew active at {t}");
            } else {
                assert_eq!(local, t, "no skew outside the window at {t}");
            }
        }
    }

    #[test]
    fn duplicates_deliver_twice() {
        let plan = FaultPlan::none().with(
            Window::always(),
            Scope::To(0),
            FaultKind::Duplicate {
                probability: 1.0,
                extra_delay: Delta::from_ticks(3),
            },
        );
        let (mut w, sink, _src) = faulted_pair(plan);
        w.run_until(Time::from_ticks(108));
        let node = w.node::<Restartable>(sink).unwrap();
        // Source fires at 10,20,...,100: 10 sends, each delivered twice.
        assert_eq!(node.received.len(), 20);
        assert_eq!(w.metrics().get("fault_duplicated"), 10);
    }

    #[test]
    fn faulted_runs_are_deterministic_in_seed() {
        let run = |seed: u64| -> (Vec<(Time, u32)>, u64) {
            let cfg = WorldConfig::deterministic(Delta::from_ticks(5), seed);
            let mut w: World<u32> = World::new(cfg);
            let sink = w.add_node(Restartable::new(None));
            let _src = w.add_node(Restartable::new(Some(sink)));
            w.set_fault_plan(FaultPlan::none().with(
                Window::always(),
                Scope::All,
                FaultKind::Drop { probability: 0.4 },
            ));
            w.run_until(Time::from_ticks(500));
            (
                w.node::<Restartable>(sink).unwrap().received.clone(),
                w.metrics().get("fault_dropped"),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn empty_fault_plan_does_not_perturb_the_run() {
        let run = |with_plan: bool| -> Vec<(Time, u32)> {
            let cfg = WorldConfig {
                net: NetworkModel::wan(),
                clock: ClockConfig::Perfect,
                seed: 12,
            };
            let mut w: World<u32> = World::new(cfg);
            let b = w.add_node(Counter::new(None));
            let _a = w.add_node(Counter::new(Some(b)));
            if with_plan {
                w.set_fault_plan(FaultPlan::none());
            }
            w.run_until(Time::from_ticks(10_000));
            w.node::<Counter>(b).unwrap().received.clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn fault_plan_validates_crash_targets() {
        let mut w: World<u32> = World::new(WorldConfig::deterministic(Delta::from_ticks(1), 2));
        let _b = w.add_node(Counter::new(None));
        w.set_fault_plan(FaultPlan::none().crash(Window::ticks(1, 2), 7));
    }

    #[test]
    fn link_override_changes_only_its_link() {
        // Counter's on_start sends 1, 2 to its peer; with a reliable
        // 1-tick default both arrive at tick 1. Overriding only the
        // a → b link to a constant 50 moves those arrivals; a world with
        // no overrides is untouched.
        let run = |override_link: bool| -> Vec<(Time, u32)> {
            let mut w: World<u32> = World::new(WorldConfig::deterministic(Delta::from_ticks(1), 3));
            let b = w.add_node(Counter::new(None));
            let a = w.add_node(Counter::new(Some(b)));
            if override_link {
                w.set_link_model(
                    a.index(),
                    b.index(),
                    NetworkModel::reliable(Delta::from_ticks(50)),
                );
            }
            w.run_until(Time::from_ticks(1_000));
            w.node::<Counter>(b).unwrap().received.clone()
        };
        let base = run(false);
        let wan = run(true);
        assert!(base.iter().all(|(t, _)| *t == Time::from_ticks(1)));
        assert!(wan.iter().all(|(t, _)| *t == Time::from_ticks(50)));
        let msgs = |v: &[(Time, u32)]| v.iter().map(|(_, m)| *m).collect::<Vec<_>>();
        assert_eq!(msgs(&base), msgs(&wan));
    }

    #[test]
    fn link_override_is_directional() {
        // Override a → b only; b's replies (none here) would be untouched.
        // Check the reverse direction stays at the default latency by
        // overriding b → a and observing a's deliveries are unaffected.
        let mut w: World<u32> = World::new(WorldConfig::deterministic(Delta::from_ticks(2), 4));
        let b = w.add_node(Counter::new(None));
        let a = w.add_node(Counter::new(Some(b)));
        w.set_link_model(
            b.index(),
            a.index(),
            NetworkModel::reliable(Delta::from_ticks(77)),
        );
        w.run_until(Time::from_ticks(1_000));
        let got = w.node::<Counter>(b).unwrap().received.clone();
        assert!(got.iter().all(|(t, _)| *t == Time::from_ticks(2)));
    }

    #[test]
    #[should_panic(expected = "before the world runs")]
    fn link_overrides_after_start_panic() {
        let mut w: World<u32> = World::new(WorldConfig::deterministic(Delta::from_ticks(1), 2));
        let b = w.add_node(Counter::new(None));
        w.run_until(Time::from_ticks(10));
        w.set_link_model(0, b.index(), NetworkModel::lan());
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn adding_nodes_after_start_panics() {
        let mut w: World<u32> = World::new(WorldConfig::deterministic(Delta::from_ticks(1), 2));
        let b = w.add_node(Counter::new(None));
        w.run_until(Time::from_ticks(10));
        let _ = b;
        w.add_node(Counter::new(None));
    }
}
