//! Evented reactor TCP driver: the fourth driver of the sans-io §5
//! lifetime engines, built for connection counts the thread-per-connection
//! transport cannot reach.
//!
//! [`crate::transport::run_tcp`] spends four OS threads per (site, shard)
//! link — a client loop, a link reader, and a writer pair — which tops out
//! around a few hundred connections on a small machine. This module runs
//! the *unchanged* [`ClientEngine`]/[`ServerEngine`] fleet over the same
//! `tc-wire` framing with **two** kinds of threads total:
//!
//! * one **shard reactor** per shard: a hand-rolled epoll loop (see
//!   [`sys`] for the scoped FFI binding — the workspace vendors no `mio`)
//!   owning the listener and every accepted connection as a registered fd,
//!   with per-connection read/write buffers and an incremental
//!   [`tc_wire::FrameDecoder`] (see [`conn`]);
//! * one **client reactor** hosting *all* [`ClientCore`]s: their engine
//!   timers live in one [`TimerWheel`] folded into the epoll timeout, and
//!   their per-shard links follow the same Hello/HelloAck handshake,
//!   heartbeat, and backoff-reconnect rules as the blocking transport.
//!
//! The protocol surface is byte-identical to `run_tcp` — same handshake
//! validation, same heartbeat/read-timeout liveness rules, same
//! dead-letter semantics for sends on a down link, same [`ListenerChaos`]
//! fault injection — so [`run_reactor`] returns the same
//! [`RuntimeResult`] shape and the conformance oracle, the
//! [`OnTimeMonitor`](tc_core::checker::OnTimeMonitor), and the metrics
//! pipeline apply unchanged. `tests/engine_equivalence.rs` pins all four
//! drivers to identical per-site operation fingerprints.
//!
//! # Liveness bookkeeping
//!
//! Connections live in a [`Slab`] whose tokens carry a **generation**
//! number: an epoll event batch may contain events for a connection an
//! earlier event in the same batch closed, and a reconnect may reuse the
//! closed connection's slot (and fd). A stale token simply fails to
//! resolve instead of reaching the wrong connection. The server counts
//! every accept as [`names::REACTOR_CONN_OPENED`] and every deregistration
//! as [`names::REACTOR_CONN_CLOSED`]; a leak-free run ends with the two
//! equal, which the connection-churn soak test asserts under hundreds of
//! half-open dials ([`ConnectionChurn`]).
//!
//! # Time
//!
//! An engine timer is a deadline on the shared tick clock: `SetTimer
//! { after: k }` armed while the clock reads `t` is due at the tick
//! boundary `t + max(k, 1)` ([`TickClock::deadline_after`]) — the instant
//! the simulator would fire it — never before the clock reads `t + 1`, and
//! every hosted site whose timer lands on the same tick is served by one
//! wake. Each loop pass waits in `epoll_pwait2` (nanosecond timeout; see
//! [`sys`] for the millisecond fallback on old kernels) for exactly the
//! time to the earliest deadline, with the thread's kernel timer slack
//! pinned to 1 ns for the run ([`TimerSlack`]; the default 50 µs slack is
//! one whole tick at the default tick length). What still separates a
//! deadline from the pass that serves it — scheduling, a busy thread — is
//! counted, not assumed: [`names::TIMER_FIRED`] and
//! [`names::TIMER_LATE_NS`] in the run's metrics. Per-site operation
//! *sequences* never depend on any of this (they are RNG-derived, not
//! timing-derived).

mod conn;
mod sys;

pub(crate) use sys::TimerSlack;

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tc_lifetime::control::{widen, DeltaController, DeltaSchedule};
use tc_lifetime::engine::{ClientEngine, Effect, Event, PrivateSources, ServerEngine};
use tc_lifetime::Msg;
use tc_sim::metrics::names;
use tc_sim::{Metrics, NetEvent, NodeId, TraceRecorder};
use tc_wire::{write_frame, WireMsg};

use crate::jitter::link_seed;
use crate::runtime::{
    adaptive_widening, finish_run, step_server, ClientCore, OutageEdge, OutageGate, RuntimeConfig,
    RuntimeResult, Shared, TickClock, TimerWheel,
};
use crate::transport::{ListenerChaos, TcpRuntimeConfig};

use conn::{Close, Conn, READ_CHUNK};
use sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Synthetic connection load for the churn soak test: a side thread that
/// dials shard listeners, never completes a handshake, and hangs up — the
/// reactor must shed these without leaking a registration or disturbing
/// the protocol traffic sharing the listener.
#[derive(Clone, Copy, Debug)]
pub struct ConnectionChurn {
    /// Total junk dials to perform over the run.
    pub connections: usize,
    /// Pause between dials (zero = as fast as the dialer can).
    pub every: Duration,
}

/// Configuration of one reactor run: the TCP transport knobs (heartbeat,
/// read timeout, backoff, chaos) plus the reactor's own fault plan.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Runtime + transport timing and fault-injection knobs, shared with
    /// [`crate::transport::run_tcp_with`] so the two drivers are
    /// configured identically.
    pub tcp: TcpRuntimeConfig,
    /// Optional connection-churn injection.
    pub churn: Option<ConnectionChurn>,
}

impl ReactorConfig {
    /// Reactor defaults: transport defaults, no churn.
    #[must_use]
    pub fn new(runtime: RuntimeConfig) -> Self {
        ReactorConfig {
            tcp: TcpRuntimeConfig::new(runtime),
            churn: None,
        }
    }
}

/// The listener's epoll token; connection tokens (generation ≪ 32 | slot)
/// can never reach it.
const TOKEN_LISTENER: u64 = u64::MAX;
/// The shard's stop signal: its end of a socket pair whose other end
/// [`run_reactor_with`] writes a byte to once the clients are done, so a
/// shard waiting out its poll granularity stops at once instead of up to
/// 5 ms later — inside every run's measured wall time.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Interest every registered connection always has; `EPOLLOUT` is OR-ed
/// in only while the outbox holds unsent bytes.
const BASE_INTEREST: u32 = EPOLLIN | EPOLLRDHUP;

/// Initial dials are issued in waves of this many connections…
const DIAL_WAVE: usize = 32;
/// …spaced this far apart, so a 1k-client fleet does not overrun the
/// listener backlog (and the single accepting core) in one burst.
const DIAL_WAVE_EVERY: Duration = Duration::from_millis(2);

/// A generational slot map: tokens are `(generation << 32) | slot`, so a
/// token outlives neither its connection nor a slot reuse.
struct Slab<T> {
    slots: Vec<Option<(u32, T)>>,
    free: Vec<usize>,
    next_gen: u32,
}

fn pack(slot: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | slot as u64
}

fn unpack(token: u64) -> (usize, u32) {
    (token as u32 as usize, (token >> 32) as u32)
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
        }
    }

    fn insert(&mut self, value: T) -> u64 {
        self.next_gen = self.next_gen.wrapping_add(1);
        let gen = self.next_gen;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some((gen, value));
                slot
            }
            None => {
                self.slots.push(Some((gen, value)));
                self.slots.len() - 1
            }
        };
        pack(slot, gen)
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let (slot, gen) = unpack(token);
        match self.slots.get_mut(slot) {
            Some(Some((g, value))) if *g == gen => Some(value),
            _ => None,
        }
    }

    fn remove(&mut self, token: u64) -> Option<T> {
        let (slot, gen) = unpack(token);
        let cell = self.slots.get_mut(slot)?;
        if matches!(cell, Some((g, _)) if *g == gen) {
            let (_, value) = cell.take().expect("matched Some");
            self.free.push(slot);
            Some(value)
        } else {
            None
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// A snapshot of the live tokens, for sweeps that may close entries.
    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, cell)| cell.as_ref().map(|(gen, _)| pack(slot, *gen)))
            .collect()
    }
}

/// One registered connection's socket + buffers + current interest mask.
struct Endpoint {
    stream: TcpStream,
    conn: Conn,
    interest: u32,
}

/// Re-syncs `EPOLLOUT` interest with the outbox state.
fn sync_interest(epoll: &Epoll, ep: &mut Endpoint, token: u64) {
    let want = if ep.conn.wants_write() {
        BASE_INTEREST | EPOLLOUT
    } else {
        BASE_INTEREST
    };
    if want != ep.interest && epoll.modify(ep.stream.as_raw_fd(), want, token).is_ok() {
        ep.interest = want;
    }
}

/// Pushes outbox bytes as far as the socket allows and re-arms (or
/// disarms) write interest. `Some` means the connection died writing.
fn flush(epoll: &Epoll, ep: &mut Endpoint, token: u64, now: Instant) -> Option<Close> {
    if let Some(verdict) = ep.conn.on_writable(&mut ep.stream, now) {
        return Some(verdict);
    }
    sync_interest(epoll, ep, token);
    None
}

/// What the liveness sweep decided for one connection.
enum SweepAction {
    Nothing,
    Heartbeat,
    DeadPeer,
}

/// Decides timeout/heartbeat for one endpoint — shared by both reactors.
fn sweep_endpoint(ep: &Endpoint, now: Instant, cfg: &TcpRuntimeConfig) -> SweepAction {
    if now.duration_since(ep.conn.last_read) > cfg.read_timeout {
        SweepAction::DeadPeer
    } else if now.duration_since(ep.conn.last_write) >= cfg.heartbeat {
        SweepAction::Heartbeat
    } else {
        SweepAction::Nothing
    }
}

/// How often the liveness sweep runs: fine enough that a heartbeat is
/// never late by more than half its period and chaos schedules are
/// honoured, coarse enough that a busy loop does not walk every
/// connection on every pass.
fn sweep_every(cfg: &TcpRuntimeConfig) -> Duration {
    (cfg.heartbeat / 2).clamp(Duration::from_millis(1), Duration::from_millis(5))
}

/// The epoll timeout for one loop pass: the earliest of the next timer
/// deadline and the next liveness sweep.
fn wait_timeout(next_deadline: Option<Instant>, next_sweep: Instant, now: Instant) -> Duration {
    next_deadline
        .map_or(next_sweep, |deadline| deadline.min(next_sweep))
        .saturating_duration_since(now)
}

// ---------------------------------------------------------------------
// Shard side
// ---------------------------------------------------------------------

/// Peer state of one accepted connection.
enum ServerPeer {
    /// Accepted, no Hello yet (may be a churn dial that never sends one —
    /// the read timeout reaps those).
    AwaitHello,
    /// Handshake complete: frames on this connection speak for `site`.
    Up { site: usize },
}

struct ServerConn {
    ep: Endpoint,
    peer: ServerPeer,
}

/// Timer tokens of the shard reactor's wheel: engine flush deadlines plus
/// the chaos rebind alarm. `Ord` only to satisfy the heap — deadlines and
/// arming order decide pops.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ShardTimer {
    Engine(u64),
    Rebind,
}

struct ShardReactor<'a> {
    shard: usize,
    shards: usize,
    cfg: &'a TcpRuntimeConfig,
    engine: ServerEngine,
    clock: TickClock,
    me: NodeId,
    epoll: Epoll,
    listener: Option<TcpListener>,
    addr: SocketAddr,
    conns: Slab<ServerConn>,
    /// site → live connection token. A reconnect replaces the route; the
    /// superseded connection's close leaves the new route alone.
    routes: HashMap<usize, u64>,
    timers: TimerWheel<ShardTimer>,
    /// Kill/restart windows for this shard. While down, protocol messages
    /// dead-letter and engine timers fire into the void — but the wheel is
    /// never cleared ([`ShardTimer::Rebind`] must survive an outage).
    outages: OutageGate,
    shared: &'a Shared,
    /// Wire-event capture for timeline export; checked before any lock.
    net: bool,
    /// Scratch reused across events, so a steady-state pass allocates
    /// nothing: the read buffer lent to every connection, the frames one
    /// readable event decoded, and the effects of one engine step.
    scratch: Vec<u8>,
    frames: Vec<(u16, WireMsg)>,
    effects: Vec<Effect>,
}

impl<'a> ShardReactor<'a> {
    fn new(
        shard: usize,
        shards: usize,
        cfg: &'a TcpRuntimeConfig,
        clock: TickClock,
        listener: TcpListener,
        addr: SocketAddr,
        shared: &'a Shared,
    ) -> Self {
        ShardReactor {
            shard,
            shards,
            cfg,
            engine: crate::runtime::build_shard_engine(
                cfg.runtime.protocol,
                cfg.runtime.wal_dir.as_deref(),
                shard,
            ),
            clock,
            me: NodeId::new(shard),
            epoll: Epoll::new().expect("epoll create"),
            listener: Some(listener),
            addr,
            conns: Slab::new(),
            routes: HashMap::new(),
            timers: TimerWheel::new(),
            outages: OutageGate::new(shard, &cfg.runtime.shard_outages),
            shared,
            net: cfg.runtime.capture_net,
            scratch: vec![0; READ_CHUNK],
            frames: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Deregisters and drops a connection, unrouting its site (only if the
    /// route still names this connection — a reconnect may have replaced
    /// it already).
    fn close(&mut self, token: u64) {
        if let Some(entry) = self.conns.remove(token) {
            let _ = self.epoll.del(entry.ep.stream.as_raw_fd());
            if let ServerPeer::Up { site } = entry.peer {
                if self.routes.get(&site) == Some(&token) {
                    self.routes.remove(&site);
                }
            }
            self.shared.add_metric(names::REACTOR_CONN_CLOSED, 1);
        }
    }

    /// Queues a frame and flushes as far as the socket allows. `false`
    /// means the connection was dead (or died writing) and is gone.
    fn queue_and_flush(&mut self, token: u64, msg: &WireMsg) -> bool {
        let now = Instant::now();
        let shard_tag = self.shard as u16;
        let closed = {
            let Some(entry) = self.conns.get_mut(token) else {
                return false;
            };
            entry.ep.conn.queue(shard_tag, msg);
            flush(&self.epoll, &mut entry.ep, token, now).is_some()
        };
        if closed {
            self.close(token);
            return false;
        }
        true
    }

    /// Feeds one event to the shard engine and executes the effects. A
    /// down shard serves nothing: inbound protocol messages dead-letter
    /// here (the simulator's down-node path).
    fn step_engine(&mut self, event: Event) {
        if self.outages.is_down() {
            if matches!(event, Event::Message { .. }) {
                self.shared.add_metric(names::FAULT_DROPPED_DOWN, 1);
            }
            return;
        }
        let mut out = std::mem::take(&mut self.effects);
        step_server(&mut self.engine, &self.clock, self.me, event, &mut out);
        for effect in out.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    let site = to.index() - self.shards;
                    if self.net {
                        self.shared.log_net(NetEvent::Send {
                            at: self.clock.now(),
                            from: self.shard,
                            to: to.index(),
                            tag: msg.tag(),
                        });
                    }
                    let delivered = match self.routes.get(&site).copied() {
                        Some(token) => self.queue_and_flush(token, &WireMsg::Proto(msg)),
                        None => false,
                    };
                    if !delivered {
                        self.shared.add_metric(names::TCP_SEND_DROPPED, 1);
                    }
                }
                Effect::SetTimer { after, token } => {
                    if let Some(deadline) = self.clock.deadline_after(after) {
                        self.timers.arm(deadline, ShardTimer::Engine(token));
                    }
                }
                Effect::Metric { name, add } => self.shared.add_metric(name, add),
                Effect::Record(_) => unreachable!("the server engine records nothing"),
            }
        }
        self.effects = out;
    }

    /// Drains the accept queue, registering every new connection.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let token = self.conns.insert(ServerConn {
                        ep: Endpoint {
                            stream,
                            conn: Conn::new(Instant::now()),
                            interest: BASE_INTEREST,
                        },
                        peer: ServerPeer::AwaitHello,
                    });
                    if self.epoll.add(fd, BASE_INTEREST, token).is_err() {
                        self.conns.remove(token);
                        continue;
                    }
                    self.shared.add_metric(names::REACTOR_CONN_OPENED, 1);
                }
                // WouldBlock (queue drained) or a transient accept error:
                // either way the next readiness event resumes accepting.
                Err(_) => return,
            }
        }
    }

    /// Reacts to readiness bits for one connection token.
    fn handle_conn_event(&mut self, token: u64, bits: u32) {
        let now = Instant::now();
        let Some(entry) = self.conns.get_mut(token) else {
            return; // closed earlier in this same event batch
        };
        let mut frames = std::mem::take(&mut self.frames);
        let mut verdict = None;
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
            verdict = entry.ep.conn.on_readable(
                &mut entry.ep.stream,
                now,
                &mut self.scratch,
                &mut frames,
            );
        }
        if verdict.is_none() && bits & EPOLLOUT != 0 {
            verdict = flush(&self.epoll, &mut entry.ep, token, now);
        }
        // Frames decoded before an EOF/error still count (the blocking
        // driver reads them the same way before noticing the close).
        self.dispatch_frames(token, &mut frames);
        self.frames = frames;
        if verdict.is_some() {
            self.close(token);
        }
    }

    fn dispatch_frames(&mut self, token: u64, frames: &mut Vec<(u16, WireMsg)>) {
        for (_tag, msg) in frames.drain(..) {
            // A previous frame (Bye, protocol rot) may have closed us.
            let peer_site = match self.conns.get_mut(token) {
                Some(entry) => match entry.peer {
                    ServerPeer::AwaitHello => None,
                    ServerPeer::Up { site } => Some(site),
                },
                None => return,
            };
            match (peer_site, msg) {
                (
                    None,
                    WireMsg::Hello {
                        site,
                        n_clients,
                        shard: dialled,
                        protocol,
                    },
                ) => self.handle_hello(token, site, n_clients, dialled, protocol),
                (None, _) => {
                    // Any frame before Hello is a protocol violation: the
                    // churn injector sends exactly this shape on purpose.
                    self.close(token);
                }
                (Some(site), WireMsg::Proto(msg)) => {
                    if self.net {
                        self.shared.log_net(NetEvent::Recv {
                            at: self.clock.now(),
                            from: self.shards + site,
                            to: self.shard,
                            tag: msg.tag(),
                        });
                    }
                    let from = NodeId::new(self.shards + site);
                    self.step_engine(Event::Message { from, msg });
                }
                (Some(_), WireMsg::Heartbeat) => {}
                (Some(_), WireMsg::Bye) => self.close(token),
                (Some(_), _) => self.close(token), // a second Hello, a stray Ack
            }
        }
    }

    /// The handshake: validation identical to the blocking transport's
    /// accept loop, so the two drivers reject the same misconfigurations
    /// with the same reasons.
    fn handle_hello(
        &mut self,
        token: u64,
        site: u32,
        n_clients: u32,
        dialled: u32,
        protocol: tc_lifetime::ProtocolConfig,
    ) {
        let rc = &self.cfg.runtime;
        let reason = if protocol != rc.protocol {
            Some("protocol config mismatch".to_string())
        } else if dialled as usize != self.shard {
            Some(format!("dialled shard {dialled}, reached {}", self.shard))
        } else if n_clients as usize != rc.n_clients || site >= n_clients {
            Some(format!("bad id space: site {site} of {n_clients}"))
        } else {
            None
        };
        match reason {
            Some(reason) => {
                // Best-effort reject, then drop the connection.
                self.queue_and_flush(token, &WireMsg::HelloReject { reason });
                self.close(token);
            }
            None => {
                let site = site as usize;
                if let Some(entry) = self.conns.get_mut(token) {
                    entry.peer = ServerPeer::Up { site };
                }
                self.routes.insert(site, token);
                self.queue_and_flush(
                    token,
                    &WireMsg::HelloAck {
                        shard: self.shard as u32,
                    },
                );
            }
        }
    }

    /// Read-timeout + heartbeat sweep over every live connection.
    fn sweep(&mut self, now: Instant) {
        for token in self.conns.tokens() {
            let action = match self.conns.get_mut(token) {
                Some(entry) => sweep_endpoint(&entry.ep, now, self.cfg),
                None => continue,
            };
            match action {
                SweepAction::DeadPeer => self.close(token),
                SweepAction::Heartbeat => {
                    self.shared.add_metric(names::TCP_HEARTBEAT, 1);
                    self.queue_and_flush(token, &WireMsg::Heartbeat);
                }
                SweepAction::Nothing => {}
            }
        }
    }

    /// Chaos kill: unregister + drop the listener, hard-close every live
    /// connection, and arm the rebind alarm.
    fn chaos_kill(&mut self, down_for: Duration) {
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.del(listener.as_raw_fd());
        }
        for token in self.conns.tokens() {
            self.close(token);
        }
        self.routes.clear();
        self.timers
            .arm(Instant::now() + down_for, ShardTimer::Rebind);
    }

    /// Chaos rebind: the same address (std sets `SO_REUSEADDR` on Unix
    /// listeners, so the killed connections' TIME_WAIT entries don't block
    /// it), with a grace loop in case the OS lags.
    fn rebind(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let reborn = loop {
            match TcpListener::bind(self.addr) {
                Ok(l) => break l,
                Err(e) => {
                    assert!(
                        Instant::now() < deadline,
                        "shard {} listener rebind failed: {e}",
                        self.shard
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        reborn.set_nonblocking(true).expect("nonblocking listener");
        self.epoll
            .add(reborn.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .expect("register reborn listener");
        self.shared.add_metric(names::TCP_LISTENER_RESTART, 1);
        self.listener = Some(reborn);
    }

    /// The event loop. Exits when `wake` becomes readable — a byte (every
    /// client said its goodbyes) or a hang-up — returning the shard's
    /// served-request count.
    fn run(mut self, chaos: Option<ListenerChaos>, started: Instant, wake: &UnixStream) -> u64 {
        let _slack = TimerSlack::pin();
        let fd = self
            .listener
            .as_ref()
            .expect("listener present")
            .as_raw_fd();
        self.epoll
            .add(fd, EPOLLIN, TOKEN_LISTENER)
            .expect("register listener");
        self.epoll
            .add(wake.as_raw_fd(), EPOLLIN, TOKEN_WAKE)
            .expect("register wake stream");
        let mut chaos_pending = chaos;
        let mut events = [EpollEvent { events: 0, data: 0 }; 128];
        let mut due = Vec::new();
        let mut next_sweep = Instant::now();
        let mut stopping = false;
        while !stopping {
            let now = Instant::now();
            if let Some(c) = chaos_pending {
                if now.duration_since(started) >= c.kill_after {
                    chaos_pending = None;
                    self.chaos_kill(c.down_for);
                }
            }
            // Outage edges come before anything else this pass: on the up
            // edge the engine restarts (replaying the WAL under a durable
            // store) before any queued traffic reaches it.
            match self.outages.poll(self.clock.now()) {
                Some(OutageEdge::WentDown) => self.shared.add_metric(names::CRASH, 1),
                Some(OutageEdge::CameUp) => {
                    self.shared.add_metric(names::RESTART, 1);
                    self.step_engine(Event::Restart);
                }
                None => {}
            }
            self.timers.pop_due_into(now, &mut due);
            for &timer in &due {
                match timer {
                    // A due engine timer on a down shard dies with the
                    // volatile state it would have flushed; the rebind
                    // alarm is the reactor's own and always fires.
                    ShardTimer::Engine(_) if self.outages.is_down() => {}
                    ShardTimer::Engine(token) => {
                        if self.net {
                            self.shared.log_net(NetEvent::Timer {
                                at: self.clock.now(),
                                node: self.shard,
                                token,
                            });
                        }
                        self.step_engine(Event::Timer { token });
                    }
                    ShardTimer::Rebind => self.rebind(),
                }
            }
            let mut now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + sweep_every(self.cfg);
                now = Instant::now();
            }
            let mut timeout = wait_timeout(self.timers.next_deadline(), next_sweep, now);
            if let Some(c) = chaos_pending {
                let kill_at = started + c.kill_after;
                timeout = timeout.min(kill_at.saturating_duration_since(now));
            }
            if self.outages.is_armed() {
                // Kill/restart edges are clock-driven, not fd-driven: cap
                // the wait so they are noticed promptly.
                timeout = timeout.min(Duration::from_millis(5));
            }
            let n = self.epoll.wait(&mut events, timeout).expect("epoll wait");
            for ev in &events[..n] {
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => stopping = true,
                    _ => self.handle_conn_event(token, bits),
                }
            }
        }
        // Drain every registration so opened == closed on a clean exit.
        for token in self.conns.tokens() {
            self.close(token);
        }
        self.timers.report(self.shared);
        self.engine.requests_served()
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// One (site, shard) link's lifecycle state.
enum LinkState {
    /// No connection; a `Redial` timer is (or is about to be) armed.
    Down { attempt: u32 },
    /// Hello written, waiting for the ack.
    AwaitAck { token: u64 },
    /// Handshake complete: protocol frames flow.
    Up { token: u64 },
}

/// One hosted client: its engine core plus per-shard link states.
struct ClientState {
    core: ClientCore,
    links: Vec<LinkState>,
    /// Completed handshakes per shard (first = connect, rest = reconnect).
    connects: Vec<u64>,
    /// Whether `Event::Start` has been fed (gated on every link being up,
    /// like the blocking transport's link-wait, so the opening op isn't
    /// taxed a retry round-trip).
    started: bool,
    /// Workload complete with nothing in flight; excluded from `remaining`.
    finished: bool,
}

struct ClientConn {
    ep: Endpoint,
    client: usize,
    shard: usize,
}

/// Timer tokens of the client reactor's wheel: engine timers tagged with
/// their owning client, per-link redial alarms, and the adaptive Δ
/// controller's sampling tick.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ClientTimer {
    Engine { client: usize, token: u64 },
    Redial { client: usize, shard: usize },
    Controller,
}

/// The adaptive control plane hosted inside the client reactor: the
/// controller itself plus the sampling state its pressure signal needs.
/// The reactor's single thread owns every client, so commands are fed to
/// the hosted engines directly — the in-loop equivalent of the channel
/// broadcast the threaded drivers use.
struct ControllerState {
    controller: DeltaController,
    widening: tc_clocks::Delta,
    expected_ops: usize,
    last_violations: usize,
    last_retries: u64,
}

struct ClientReactor<'a> {
    cfg: &'a TcpRuntimeConfig,
    shards: usize,
    addrs: &'a [SocketAddr],
    clock: TickClock,
    epoll: Epoll,
    conns: Slab<ClientConn>,
    clients: Vec<ClientState>,
    timers: TimerWheel<ClientTimer>,
    shared: &'a Shared,
    /// Clients not yet `finished`; the loop exits at zero.
    remaining: usize,
    /// The adaptive Δ control plane, when the run is adaptive.
    controller: Option<ControllerState>,
    /// Wire-event capture for timeline export (mirrors
    /// [`RuntimeConfig::capture_net`]); checked before taking any lock.
    net: bool,
    /// Scratch reused across events, as in [`ShardReactor`].
    scratch: Vec<u8>,
    frames: Vec<(u16, WireMsg)>,
    effects: Vec<Effect>,
}

impl<'a> ClientReactor<'a> {
    fn new(
        cfg: &'a TcpRuntimeConfig,
        shards: usize,
        addrs: &'a [SocketAddr],
        clock: TickClock,
        shared: &'a Shared,
    ) -> Self {
        let rc = &cfg.runtime;
        let clients: Vec<ClientState> = (0..rc.n_clients)
            .map(|site| {
                let engine = ClientEngine::new(
                    rc.protocol,
                    (0..shards).map(NodeId::new).collect(),
                    site,
                    rc.n_clients,
                    rc.workload.clone(),
                    rc.ops_per_client,
                );
                ClientState {
                    core: ClientCore::new(
                        engine,
                        PrivateSources::new(rc.seed, site, rc.n_clients),
                        clock,
                        NodeId::new(shards + site),
                    ),
                    links: (0..shards)
                        .map(|_| LinkState::Down { attempt: 0 })
                        .collect(),
                    connects: vec![0; shards],
                    started: false,
                    finished: false,
                }
            })
            .collect();
        let remaining = clients.len();
        let controller = rc.adaptive.map(|ctrl| {
            let base = rc
                .protocol
                .kind
                .delta()
                .expect("adaptive Δ control needs a timed protocol kind (Tsc/Tcc)");
            ControllerState {
                controller: DeltaController::new(ctrl, base),
                widening: adaptive_widening(rc.monitor_delta, &rc.protocol),
                expected_ops: rc.n_clients * rc.ops_per_client,
                last_violations: 0,
                last_retries: 0,
            }
        });
        ClientReactor {
            cfg,
            shards,
            addrs,
            clock,
            epoll: Epoll::new().expect("epoll create"),
            conns: Slab::new(),
            clients,
            timers: TimerWheel::new(),
            shared,
            remaining,
            controller,
            net: rc.capture_net,
            scratch: vec![0; READ_CHUNK],
            frames: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// The controller's real-time duration between samples.
    fn controller_interval(&self) -> Duration {
        self.controller
            .as_ref()
            .and_then(|cs| {
                self.clock
                    .delta_to_duration(cs.controller.config().interval)
            })
            .unwrap_or(Duration::from_millis(5))
    }

    /// One adaptive control tick: sample the live monitor and the retry
    /// counter, tick the controller, shift the monitor's judged schedule,
    /// and feed the current command to every hosted client — the in-loop
    /// equivalent of the threaded drivers' channel broadcast. Re-arms
    /// itself until every expected operation has been ingested.
    fn controller_tick(&mut self) {
        let Some(mut cs) = self.controller.take() else {
            return;
        };
        let (observed, violations, ingested) = {
            let rec = self.shared.recorder.lock().expect("recorder lock");
            let m = rec.monitor().expect("monitor attached by the driver");
            (m.min_delta(), m.violations().len(), m.ingested())
        };
        let retries = {
            let metrics = self.shared.metrics.lock().expect("metrics lock");
            metrics.get(names::RETRY)
        };
        let pressure = violations > cs.last_violations || retries > cs.last_retries;
        cs.last_violations = violations;
        cs.last_retries = retries;
        let prev = cs.controller.current();
        if let Some(cmd) = cs.controller.tick(self.clock.now(), observed, pressure) {
            self.shared.add_metric(names::DELTA_UPDATE, 1);
            self.shared.add_metric(
                if cmd.delta < prev {
                    names::DELTA_TIGHTEN
                } else {
                    names::DELTA_RELAX
                },
                1,
            );
            self.shared
                .recorder
                .lock()
                .expect("recorder lock")
                .monitor_schedule_change(cmd.judge_from, widen(cmd.delta, cs.widening));
        }
        if cs.controller.seq() > 0 {
            let from = NodeId::new(self.shards + self.clients.len());
            let msg = Msg::DeltaUpdate {
                seq: cs.controller.seq(),
                delta: cs.controller.current(),
            };
            for client in 0..self.clients.len() {
                if !self.clients[client].finished {
                    self.feed(
                        client,
                        Event::Message {
                            from,
                            msg: msg.clone(),
                        },
                    );
                }
            }
        }
        let rearm = ingested < cs.expected_ops;
        self.controller = Some(cs);
        if rearm {
            let interval = self.controller_interval();
            self.timers
                .arm(Instant::now() + interval, ClientTimer::Controller);
        }
    }

    /// Deregisters a connection and downgrades its link to `Down`,
    /// arming an immediate redial (the blocking transport's link thread
    /// also retries at once; backoff starts on *failed* dials). A
    /// superseded connection — one the link no longer names — just dies.
    fn close_link(&mut self, token: u64) {
        let Some(entry) = self.conns.remove(token) else {
            return;
        };
        let _ = self.epoll.del(entry.ep.stream.as_raw_fd());
        let (client, shard) = (entry.client, entry.shard);
        let link = &mut self.clients[client].links[shard];
        let owns = matches!(
            link,
            LinkState::AwaitAck { token: t } | LinkState::Up { token: t } if *t == token
        );
        if owns {
            *link = LinkState::Down { attempt: 0 };
            if !self.clients[client].finished {
                self.timers
                    .arm(Instant::now(), ClientTimer::Redial { client, shard });
            }
        }
    }

    /// Queues a frame (tagged with the link's target shard) and flushes.
    /// `false` means the connection was dead or died writing.
    fn queue_and_flush(&mut self, token: u64, msg: &WireMsg) -> bool {
        let now = Instant::now();
        let closed = {
            let Some(entry) = self.conns.get_mut(token) else {
                return false;
            };
            let shard_tag = entry.shard as u16;
            entry.ep.conn.queue(shard_tag, msg);
            flush(&self.epoll, &mut entry.ep, token, now).is_some()
        };
        if closed {
            self.close_link(token);
            return false;
        }
        true
    }

    /// Feeds one event to a hosted client and executes the effects —
    /// the reactor's analogue of `ClientRt::feed`, with sends routed
    /// through the link table and timers tagged with the client index.
    fn feed(&mut self, client: usize, event: Event) {
        let mut out = std::mem::take(&mut self.effects);
        self.clients[client].core.step(event, &mut out);
        for effect in out.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    let shard = to.index();
                    if self.net {
                        self.shared.log_net(NetEvent::Send {
                            at: self.clock.now(),
                            from: self.shards + client,
                            to: shard,
                            tag: msg.tag(),
                        });
                    }
                    let delivered = match self.clients[client].links[shard] {
                        LinkState::Up { token } => {
                            self.queue_and_flush(token, &WireMsg::Proto(msg))
                        }
                        _ => false,
                    };
                    if !delivered {
                        self.shared.add_metric(names::TCP_SEND_DROPPED, 1);
                    }
                }
                Effect::SetTimer { after, token } => {
                    if let Some(deadline) = self.clock.deadline_after(after) {
                        self.timers
                            .arm(deadline, ClientTimer::Engine { client, token });
                    }
                }
                Effect::Metric { name, add } => self.shared.add_metric(name, add),
                Effect::Record(op) => self.shared.record(op),
            }
        }
        self.effects = out;
        if !self.clients[client].finished && self.clients[client].core.finished_idle() {
            self.clients[client].finished = true;
            self.remaining -= 1;
        }
    }

    /// Dials one link: blocking connect (instant on loopback — refused
    /// connections fail immediately), blocking Hello write, then the
    /// socket goes nonblocking and into the slab awaiting its ack.
    fn dial(&mut self, client: usize, shard: usize) {
        if self.clients[client].finished {
            return;
        }
        let attempt = match self.clients[client].links[shard] {
            LinkState::Down { attempt } => attempt,
            // A live connection beat the redial timer; nothing to do.
            _ => return,
        };
        let rc = &self.cfg.runtime;
        let hello = WireMsg::Hello {
            site: client as u32,
            n_clients: rc.n_clients as u32,
            shard: shard as u32,
            protocol: rc.protocol,
        };
        let dialled = (|| {
            let mut stream =
                TcpStream::connect_timeout(&self.addrs[shard], self.cfg.read_timeout).ok()?;
            let _ = stream.set_nodelay(true);
            write_frame(&mut stream, shard as u16, &hello).ok()?;
            stream.set_nonblocking(true).ok()?;
            Some(stream)
        })();
        match dialled {
            Some(stream) => {
                let fd = stream.as_raw_fd();
                let token = self.conns.insert(ClientConn {
                    ep: Endpoint {
                        stream,
                        conn: Conn::new(Instant::now()),
                        interest: BASE_INTEREST,
                    },
                    client,
                    shard,
                });
                if self.epoll.add(fd, BASE_INTEREST, token).is_err() {
                    self.conns.remove(token);
                    self.retry(client, shard, attempt);
                    return;
                }
                self.clients[client].links[shard] = LinkState::AwaitAck { token };
            }
            None => self.retry(client, shard, attempt),
        }
    }

    /// Books a failed dial and schedules the next under backoff — the
    /// same deterministic jittered schedule as the blocking transport.
    fn retry(&mut self, client: usize, shard: usize, attempt: u32) {
        self.shared.add_metric(names::TCP_CONNECT_FAILED, 1);
        assert!(
            attempt < self.cfg.backoff.max_attempts,
            "shard {shard} unreachable after {attempt} attempts"
        );
        let seed = link_seed(self.cfg.runtime.seed, client, shard);
        let delay = self.cfg.backoff.delay(attempt, seed);
        self.clients[client].links[shard] = LinkState::Down {
            attempt: attempt + 1,
        };
        self.timers.arm(
            Instant::now() + delay,
            ClientTimer::Redial { client, shard },
        );
    }

    /// Feeds `Event::Start` once every link of `client` is up.
    fn maybe_start(&mut self, client: usize) {
        if self.clients[client].started {
            return;
        }
        let all_up = self.clients[client]
            .links
            .iter()
            .all(|l| matches!(l, LinkState::Up { .. }));
        if all_up {
            self.clients[client].started = true;
            self.feed(client, Event::Start);
        }
    }

    fn handle_conn_event(&mut self, token: u64, bits: u32) {
        let now = Instant::now();
        let Some(entry) = self.conns.get_mut(token) else {
            return;
        };
        let mut frames = std::mem::take(&mut self.frames);
        let mut verdict = None;
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
            verdict = entry.ep.conn.on_readable(
                &mut entry.ep.stream,
                now,
                &mut self.scratch,
                &mut frames,
            );
        }
        if verdict.is_none() && bits & EPOLLOUT != 0 {
            verdict = flush(&self.epoll, &mut entry.ep, token, now);
        }
        self.dispatch_frames(token, &mut frames);
        self.frames = frames;
        if verdict.is_some() {
            self.close_link(token);
        }
    }

    fn dispatch_frames(&mut self, token: u64, frames: &mut Vec<(u16, WireMsg)>) {
        for (_tag, msg) in frames.drain(..) {
            let Some(entry) = self.conns.get_mut(token) else {
                return; // closed by an earlier frame
            };
            let (client, shard) = (entry.client, entry.shard);
            match msg {
                WireMsg::HelloAck { .. } => {
                    let awaiting = matches!(
                        self.clients[client].links[shard],
                        LinkState::AwaitAck { token: t } if t == token
                    );
                    if awaiting {
                        self.clients[client].links[shard] = LinkState::Up { token };
                        let connects = self.clients[client].connects[shard];
                        self.shared.add_metric(
                            if connects == 0 {
                                names::TCP_CONNECT
                            } else {
                                names::TCP_RECONNECT
                            },
                            1,
                        );
                        self.clients[client].connects[shard] += 1;
                        self.maybe_start(client);
                    }
                }
                WireMsg::HelloReject { reason } => {
                    panic!("shard {shard} rejected site {client}: {reason}")
                }
                WireMsg::Proto(msg) => {
                    let current = matches!(
                        self.clients[client].links[shard],
                        LinkState::Up { token: t } if t == token
                    );
                    // A superseded connection's stragglers are dropped —
                    // the engines' retry timers own recovery.
                    if current {
                        if self.net {
                            self.shared.log_net(NetEvent::Recv {
                                at: self.clock.now(),
                                from: shard,
                                to: self.shards + client,
                                tag: msg.tag(),
                            });
                        }
                        let from = NodeId::new(shard);
                        self.feed(client, Event::Message { from, msg });
                    }
                }
                WireMsg::Heartbeat => {}
                // A server never sends Hello or Bye mid-session; treat
                // either as the link dying.
                WireMsg::Hello { .. } | WireMsg::Bye => self.close_link(token),
            }
        }
    }

    /// Read-timeout + heartbeat sweep over every live link.
    fn sweep(&mut self, now: Instant) {
        for token in self.conns.tokens() {
            let action = match self.conns.get_mut(token) {
                Some(entry) => sweep_endpoint(&entry.ep, now, self.cfg),
                None => continue,
            };
            match action {
                SweepAction::DeadPeer => self.close_link(token),
                SweepAction::Heartbeat => {
                    self.shared.add_metric(names::TCP_HEARTBEAT, 1);
                    self.queue_and_flush(token, &WireMsg::Heartbeat);
                }
                SweepAction::Nothing => {}
            }
        }
    }

    /// The event loop: initial dials staggered in waves, then timers +
    /// readiness until every client finishes, then an orderly goodbye on
    /// every live link. Returns all per-operation latencies plus the
    /// commanded Δ-schedule when the run was adaptive.
    fn run(mut self) -> (Vec<Duration>, Option<DeltaSchedule>) {
        // This loop runs on the caller's thread: the guard hands the
        // thread back with the slack it came with.
        let _slack = TimerSlack::pin();
        let base = Instant::now();
        for client in 0..self.clients.len() {
            for shard in 0..self.shards {
                let wave = (client * self.shards + shard) / DIAL_WAVE;
                self.timers.arm(
                    base + DIAL_WAVE_EVERY * wave as u32,
                    ClientTimer::Redial { client, shard },
                );
            }
        }
        if self.controller.is_some() {
            let interval = self.controller_interval();
            self.timers.arm(base + interval, ClientTimer::Controller);
        }
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        let mut due = Vec::new();
        let mut next_sweep = base;
        while self.remaining > 0 {
            let now = Instant::now();
            self.timers.pop_due_into(now, &mut due);
            for &timer in &due {
                match timer {
                    ClientTimer::Engine { client, token } => {
                        if !self.clients[client].finished {
                            if self.net {
                                self.shared.log_net(NetEvent::Timer {
                                    at: self.clock.now(),
                                    node: self.shards + client,
                                    token,
                                });
                            }
                            self.feed(client, Event::Timer { token });
                        }
                    }
                    ClientTimer::Redial { client, shard } => self.dial(client, shard),
                    ClientTimer::Controller => self.controller_tick(),
                }
            }
            let mut now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + sweep_every(self.cfg);
                now = Instant::now();
            }
            if self.remaining == 0 {
                break;
            }
            let timeout = wait_timeout(self.timers.next_deadline(), next_sweep, now);
            let n = self.epoll.wait(&mut events, timeout).expect("epoll wait");
            for ev in &events[..n] {
                let (bits, token) = (ev.events, ev.data);
                self.handle_conn_event(token, bits);
            }
        }
        // Orderly goodbye: a Bye on every live link, flushed as far as the
        // socket allows, then close. A blocked socket just loses its
        // goodbye — the shard's read timeout reaps it, exactly like the
        // blocking driver's half-close path.
        for token in self.conns.tokens() {
            self.queue_and_flush(token, &WireMsg::Bye);
            self.close_link(token);
        }
        self.timers.report(self.shared);
        let schedule = self
            .controller
            .take()
            .map(|cs| cs.controller.into_schedule());
        let latencies = self
            .clients
            .into_iter()
            .flat_map(|c| c.core.into_latencies())
            .collect();
        (latencies, schedule)
    }
}

// ---------------------------------------------------------------------
// Churn injection + entry points
// ---------------------------------------------------------------------

/// The churn dialer: junk connections that never complete a handshake.
/// Odd dials speak a protocol violation (a frame before Hello) so the
/// reject path runs; even dials hang up silently (a pre-Hello EOF).
fn churn_loop(
    churn: ConnectionChurn,
    addrs: &[SocketAddr],
    shutdown: &AtomicBool,
    shared: &Shared,
) {
    for i in 0..churn.connections {
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
        let addr = addrs[i % addrs.len()];
        if let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            shared.add_metric(names::REACTOR_CHURN_DIAL, 1);
            if i % 2 == 1 {
                let _ = write_frame(&mut stream, 0, &WireMsg::Heartbeat);
            }
        }
        if !churn.every.is_zero() {
            std::thread::sleep(churn.every);
        }
    }
}

/// Runs one execution of the lifetime protocol over the evented reactor
/// with transport defaults, returning the same [`RuntimeResult`] shape as
/// the other three drivers — identical seeds produce identical per-site
/// operation sequences across all of them.
///
/// # Panics
///
/// Panics if a reactor thread panics, a shard rejects a handshake (a
/// configuration mismatch inside one process is a harness bug), or a
/// shard stays unreachable past the backoff budget.
#[must_use]
pub fn run_reactor(config: &RuntimeConfig) -> RuntimeResult {
    run_reactor_with(&ReactorConfig::new(config.clone()))
}

/// [`run_reactor`] with explicit transport timing, fault-injection, and
/// connection-churn knobs.
///
/// # Panics
///
/// As [`run_reactor`]; additionally if the chaos plan names a shard
/// outside the fleet or a listener cannot be bound.
#[must_use]
pub fn run_reactor_with(config: &ReactorConfig) -> RuntimeResult {
    let cfg = &config.tcp;
    let rc = &cfg.runtime;
    let shards = rc.protocol.shards;
    if let Some(c) = cfg.chaos {
        assert!(c.shard < shards, "chaos shard {} out of range", c.shard);
    }
    let clock = TickClock::new(rc.tick);
    let mut recorder = TraceRecorder::new();
    recorder.attach_monitor(rc.monitor_delta, rc.monitor_eps);
    if rc.capture_net {
        recorder.enable_net_log();
    }
    let shared = Shared {
        recorder: Mutex::new(recorder),
        metrics: Mutex::new(Metrics::new()),
    };

    // Bind every shard listener up front so clients know all addresses.
    let mut listeners = Vec::with_capacity(shards);
    let mut addrs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        addrs.push(listener.local_addr().expect("listener address"));
        listeners.push(Some(listener));
    }

    // One wake stream per shard: the shard reactor watches its `rx`, this
    // thread writes the `tx` once the clients are done.
    let (wake_txs, wake_rxs): (Vec<UnixStream>, Vec<UnixStream>) = (0..shards)
        .map(|_| UnixStream::pair().expect("wake socket pair"))
        .unzip();
    let shutdown = AtomicBool::new(false);
    let started = Instant::now();
    let shared_ref = &shared;
    let shutdown_ref = &shutdown;
    let addrs_ref = &addrs[..];
    let wake_rxs_ref = &wake_rxs[..];
    let (latencies, shard_requests, delta_schedule): (
        Vec<Duration>,
        Vec<u64>,
        Option<DeltaSchedule>,
    ) = crossbeam::thread::scope(|scope| {
        let mut shard_workers = Vec::with_capacity(shards);
        for (shard, slot) in listeners.iter_mut().enumerate() {
            let listener = slot.take().expect("listener taken once");
            let addr = addrs_ref[shard];
            let chaos = cfg.chaos.filter(|c| c.shard == shard);
            shard_workers.push(scope.spawn(move |_| {
                ShardReactor::new(shard, shards, cfg, clock, listener, addr, shared_ref).run(
                    chaos,
                    started,
                    &wake_rxs_ref[shard],
                )
            }));
        }
        let churn_worker = config.churn.map(|churn| {
            scope.spawn(move |_| churn_loop(churn, addrs_ref, shutdown_ref, shared_ref))
        });
        // The client reactor runs on the scope's own thread: every
        // ClientCore in one evented loop.
        let (latencies, delta_schedule) =
            ClientReactor::new(cfg, shards, addrs_ref, clock, shared_ref).run();
        shutdown.store(true, Ordering::Relaxed);
        for mut tx in &wake_txs {
            // Cannot fail short of a dead shard thread, which the join
            // below reports.
            let _ = tx.write_all(&[0]);
        }
        let shard_requests: Vec<u64> = shard_workers
            .into_iter()
            .map(|w| w.join().expect("shard reactor panicked"))
            .collect();
        if let Some(w) = churn_worker {
            w.join().expect("churn thread panicked");
        }
        (latencies, shard_requests, delta_schedule)
    })
    .expect("a reactor thread panicked");
    let wall = started.elapsed();
    finish_run(shared, latencies, shard_requests, wall, delta_schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_clocks::Delta;
    use tc_lifetime::{ProtocolConfig, ProtocolKind};
    use tc_sim::workload::Workload;

    fn small(kind: ProtocolKind, seed: u64) -> RuntimeConfig {
        RuntimeConfig::for_protocol(
            ProtocolConfig::of(kind),
            2,
            Workload::new(4, 0.8, 0.7, (Delta::from_ticks(2), Delta::from_ticks(10))),
            12,
            seed,
        )
    }

    #[test]
    fn slab_generations_invalidate_stale_tokens() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(a), Some("a"));
        // The freed slot is reused, but under a fresh generation: the old
        // token no longer resolves — the property that makes same-batch
        // events for a just-closed fd harmless.
        let c = slab.insert("c");
        assert_ne!(a, c, "slot reuse must mint a distinct token");
        assert_eq!(unpack(a).0, unpack(c).0, "the slot itself is recycled");
        assert!(slab.get_mut(a).is_none(), "stale tokens must not resolve");
        assert_eq!(slab.get_mut(c), Some(&mut "c"));
        assert_eq!(slab.remove(a), None, "stale remove is a no-op");
        assert_eq!(slab.len(), 2);
        let live = slab.tokens();
        assert!(live.contains(&b) && live.contains(&c));
        assert_eq!(slab.remove(b), Some("b"));
        assert_eq!(slab.remove(c), Some("c"));
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn reactor_sc_completes_and_holds() {
        let r = run_reactor(&small(ProtocolKind::Sc, 31));
        assert_eq!(r.ops_done, 2 * 12, "every op must be recorded");
        assert!(r.on_time.holds(), "monitor must report zero violations");
        assert!(r.counter(names::TCP_CONNECT) > 0, "links must handshake");
        assert_eq!(r.counter(names::TCP_RECONNECT), 0, "no faults injected");
        // fd hygiene even on the happy path: every accepted registration
        // was drained by the time the run finished.
        assert_eq!(
            r.counter(names::REACTOR_CONN_OPENED),
            r.counter(names::REACTOR_CONN_CLOSED),
            "registrations must drain to zero"
        );
    }

    #[test]
    fn run_reactor_hands_the_calling_thread_back_with_its_timer_slack() {
        // The client reactor runs on the caller's thread with the slack
        // pinned; the caller must get its own value back. A fresh thread,
        // so the reading is this test's alone.
        std::thread::spawn(|| {
            let before = sys::timer_slack().expect("PR_GET_TIMERSLACK");
            let r = run_reactor(&small(ProtocolKind::Sc, 35));
            assert_eq!(r.ops_done, 2 * 12);
            assert_eq!(sys::timer_slack().unwrap(), before);
            // Both reactor threads counted what their timers suffered.
            let fired = r.counter(names::TIMER_FIRED);
            assert!(fired >= 2 * 12, "every op issue is a timer: {fired}");
            assert!(r.metrics.counters.contains_key(names::TIMER_LATE_NS));
        })
        .join()
        .expect("caller thread");
    }

    #[test]
    fn reactor_tsc_fleet_is_judged_by_the_monitor() {
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            },
            32,
        );
        cfg.protocol = cfg.protocol.with_shards(2);
        let r = run_reactor(&cfg);
        assert_eq!(r.ops_done, 2 * 12);
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
        assert_eq!(r.shard_requests.len(), 2);
        assert!(r.shard_requests.iter().sum::<u64>() > 0);
        // Each of 2 clients handshakes with each of 2 shards exactly once.
        assert_eq!(r.counter(names::TCP_CONNECT), 4);
    }

    #[test]
    fn reactor_adaptive_run_commands_schedule_and_captures_net() {
        use tc_lifetime::control::ControllerConfig;
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(4_000),
            },
            37,
        );
        cfg.ops_per_client = 100;
        cfg.adaptive = Some(ControllerConfig::new(
            Delta::from_ticks(50),
            Delta::from_ticks(8_000),
            Delta::from_ticks(20),
        ));
        cfg.capture_net = true;
        let r = run_reactor(&cfg);
        assert_eq!(r.ops_done, 2 * 100);
        let schedule = r
            .delta_schedule
            .as_ref()
            .expect("adaptive runs report their commanded schedule");
        assert!(
            !schedule.is_empty(),
            "the loose base leaves tightening room"
        );
        let (_, last) = *schedule.changes.last().unwrap();
        assert!(
            last.ticks() < 4_000,
            "in-loop controller must tighten below the loose base, got {last}"
        );
        assert!(
            r.counter(names::DELTA_APPLIED) > 0,
            "clients must apply at least one in-loop command"
        );
        assert!(
            r.on_time.holds(),
            "violations against the in-force schedule: {}",
            r.on_time.violations().len()
        );
        // The wire-level log feeds the timeline exporter: sends, matching
        // deliveries, and timer fires must all appear.
        let net = r
            .net_events
            .as_ref()
            .expect("capture_net must surface the event log");
        assert!(net.iter().any(|e| matches!(e, NetEvent::Send { .. })));
        assert!(net.iter().any(|e| matches!(e, NetEvent::Recv { .. })));
        assert!(net.iter().any(|e| matches!(e, NetEvent::Timer { .. })));
    }

    #[test]
    fn reactor_sheds_churn_without_leaking_registrations() {
        let mut config = ReactorConfig::new(small(ProtocolKind::Sc, 33));
        config.churn = Some(ConnectionChurn {
            connections: 40,
            every: Duration::from_millis(1),
        });
        let r = run_reactor_with(&config);
        assert_eq!(r.ops_done, 2 * 12, "churn must not disturb the workload");
        assert!(r.on_time.holds());
        assert!(
            r.counter(names::REACTOR_CHURN_DIAL) > 0,
            "the churn dialer must have landed connections"
        );
        assert_eq!(
            r.counter(names::REACTOR_CONN_OPENED),
            r.counter(names::REACTOR_CONN_CLOSED),
            "every churn registration must be reaped"
        );
    }
}
