//! The socket driver: the sans-io §5 lifetime engines over loopback TCP,
//! evented, at connection counts a thread per connection cannot reach.
//!
//! The *unchanged* [`ClientEngine`](tc_lifetime::engine::ClientEngine) /
//! [`ServerEngine`](tc_lifetime::engine::ServerEngine) fleet runs over
//! `tc-wire` framing with **two** kinds of threads total:
//!
//! * one **shard reactor** per shard: a hand-rolled epoll loop (see
//!   `sys` for the scoped FFI binding — the workspace vendors no `mio`)
//!   owning the listener and every accepted connection as a registered fd,
//!   with per-connection read/write buffers and an incremental
//!   [`tc_wire::FrameDecoder`] (see `conn`);
//! * one **client reactor** hosting *all* `ClientCore`s: their engine
//!   timers live in one `TimerWheel` folded into the epoll timeout, and
//!   all hosted sites share **one connection per shard** — a small state
//!   machine (dial, heartbeat, redial under a jittered exponential
//!   backoff) admitted by one handshake.
//!
//! Both step the node core's `ClientCore` / `ShardCore`
//! (`tc_lifetime::node`, shared with the simulator), hand the effects to
//! its `execute` through a `Port` over their connection table, and share
//! the per-connection plumbing itself (see `table`). The result is the same
//! [`RuntimeResult`] shape the channel drivers return, so the conformance
//! oracle, the [`OnTimeMonitor`](tc_core::checker::OnTimeMonitor), and the
//! metrics pipeline apply unchanged; `tests/engine_equivalence.rs` pins
//! every driver to identical per-site operation fingerprints.
//!
//! # Links
//!
//! Every `Proto` frame on a client↔shard link travels on a **lane** — the
//! frame header's u16 routing field — naming the site it speaks for, so
//! one socket per shard carries every hosted site. The shard admits the
//! *link*, not each site: on dial the client queues one
//! [`WireMsg::Hello`] carrying its full `ProtocolConfig`, and the link is
//! usable at once — a shard serves a connection's frames in order, so
//! nothing sent behind the Hello overtakes it. The shard compares the
//! Hello against its own config, shard index and client id space, and
//! either makes the connection its one route to the fleet and answers
//! [`WireMsg::HelloAck`], or answers [`WireMsg::HelloReject`] and closes,
//! because two processes silently disagreeing on Δ would void every timed
//! guarantee the monitor is about to certify. A `Proto` frame off that
//! route, or on a lane outside the id space, closes the link. An idle
//! connection carries a [`WireMsg::Heartbeat`] every 10 ms, so the peer's
//! 250 ms read timeout only ever fires on a genuinely dead link. A link
//! that dies (error, EOF, heartbeat silence) leaves its shard without a
//! route — the engines' `Effect::Send`s across it dead-letter, exactly
//! like the simulator's lossy network — and is redialled under a capped
//! exponential backoff (2–50 ms, jittered per shard link), with one new
//! handshake. Engine state never restarts, so server delivery cursors and
//! client epochs resume where they left off; the protocol's retry timers
//! re-cover anything lost in flight. [`ListenerChaos`] kills one shard's
//! listener (and every live connection to it) mid-run, keeps the address
//! unreachable for a while, then rebinds it — the transport-level analogue
//! of the simulator's crash faults, driving the reconnect path under the
//! conformance oracle. Both edges are timers on the shard's wheel.
//!
//! Frames are queued where engines produce them and each connection is
//! written once per loop pass, right before the wait (see `table`): what
//! every hosted site sends a shard in one pass leaves in one `write`.
//! [`names::REACTOR_FRAMES_OUT`] over [`names::REACTOR_WRITES`] is the
//! batching a run achieved.
//!
//! # Liveness bookkeeping
//!
//! Connections live in a slab whose tokens carry a **generation** number:
//! an epoll event batch may contain events for a connection an earlier
//! event in the same batch closed, and a reconnect may reuse the closed
//! connection's slot (and fd). A stale token simply fails to resolve
//! instead of reaching the wrong connection. The server counts every
//! accept as [`names::REACTOR_CONN_OPENED`] and every deregistration as
//! [`names::REACTOR_CONN_CLOSED`]; a leak-free run ends with the two
//! equal, which the connection-churn soak test asserts under hundreds of
//! half-open dials ([`ReactorConfig::churn_dials`]).
//!
//! # Time
//!
//! An event's tick is the tick at which the reactor *observed* it: a due
//! timer steps at the instant its loop pass popped it, and a frame at the
//! instant the `read` that returned its bytes came back — the clock is
//! read right after that syscall and before decoding, so no reply is
//! stamped earlier than the shard step that sent it. A reply that reaches
//! the client within the tick its request left in completes the operation
//! in that tick, however long the one thread hosting every site then takes
//! to get round to it.
//!
//! An engine timer is a deadline on the shared tick clock: `SetTimer
//! { after: k }` armed by a step at tick `t` is due at the tick
//! boundary `t + max(k, 1)` (`TickClock::deadline`) — the instant
//! the simulator would fire it — never before the clock reads `t + 1`, and
//! every hosted site whose timer lands on the same tick is served by one
//! wake. Each loop pass waits in `epoll_pwait2` (nanosecond timeout; see
//! `sys` for the millisecond fallback on old kernels) for at most the
//! time to the earliest deadline, with the thread's kernel timer slack
//! pinned to 1 ns for the run (`TimerSlack`; the default 50 µs slack is
//! one whole tick at the default tick length). While the thread's links
//! moved bytes within the last two ticks, the wait *polls* instead —
//! zero-timeout waits with a `yield` between them (see `table`) — so a
//! busy round trip pays for no kernel wake-up on either side; a quiet
//! thread sleeps. [`names::REACTOR_POLLS`] and [`names::REACTOR_SLEEPS`]
//! count the two outcomes. What still separates a deadline from the pass
//! that serves it — scheduling, a busy thread — is counted, not assumed:
//! [`names::TIMER_FIRED`] and [`names::TIMER_LATE_NS`] in the run's
//! metrics. Per-site operation *sequences* never depend on any of this
//! (they are RNG-derived, not timing-derived).

mod conn;
mod sys;
mod table;

pub(crate) use sys::TimerSlack;

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tc_lifetime::control::DeltaSchedule;
use tc_lifetime::engine::{Effect, Event};
use tc_lifetime::node::{execute, ClientCore, Host, Port, ShardCore};
use tc_lifetime::Msg;
use tc_sim::metrics::names;
use tc_sim::{Metrics, NodeId, TraceRecorder};
use tc_wire::{write_frame, WireMsg};

use crate::jitter::{link_seed, splitmix64};
use crate::runtime::{
    build_shard_engine, finish_run, site_core, ControlPlane, RuntimeConfig, RuntimeResult,
    Telemetry, TickClock,
};
use crate::wheel::TimerWheel;

use sys::{EpollEvent, EPOLLIN};
use table::{ConnTable, Links};

/// An idle connection sends a keep-alive this often.
const HEARTBEAT: Duration = Duration::from_millis(10);
/// A connection with no inbound frame for this long is dead — 25 missed
/// heartbeats, so only a genuinely dead link ever trips it. It also bounds
/// each blocking dial.
const READ_TIMEOUT: Duration = Duration::from_millis(250);
/// First redial delay; the slot doubles each failed attempt.
const REDIAL_BASE: Duration = Duration::from_millis(2);
/// Upper bound on any single redial delay.
const REDIAL_CAP: Duration = Duration::from_millis(50);
/// Consecutive failed dials before the client reactor declares the shard
/// unreachable and panics (a harness failure, not a protocol outcome — a
/// real deployment would surface an error instead): 1.4–2.8 s of
/// redialling.
const REDIAL_ATTEMPTS: u32 = 60;

/// The delay before redial number `attempt` (0-based): the exponential
/// slot `REDIAL_BASE · 2^attempt`, capped at [`REDIAL_CAP`], jittered into
/// `[50 %, 100 %)` of the slot by `seed`. Deterministic — runs are
/// reproducible — yet different per shard link, so redials to different
/// shards are not synchronized.
fn redial_delay(attempt: u32, seed: u64) -> Duration {
    let slot = REDIAL_BASE
        .saturating_mul(1 << attempt.min(16))
        .min(REDIAL_CAP);
    let r = splitmix64(seed ^ u64::from(attempt));
    let frac = 0.5 + (r >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
    slot.mul_f64(frac)
}

/// Fault injection: kill one shard's listener (and every live connection
/// to it) mid-run, hold the address down, then rebind it.
#[derive(Clone, Copy, Debug)]
pub struct ListenerChaos {
    /// Which shard to kill.
    pub shard: usize,
    /// Run time after which the listener dies.
    pub kill_after: Duration,
    /// How long the shard stays unreachable before rebinding.
    pub down_for: Duration,
}

/// Configuration of one reactor run: the common runtime knobs plus the
/// socket driver's own fault plan.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Protocol, fleet shape, workload, tick, and monitor bounds.
    pub runtime: RuntimeConfig,
    /// Optional listener fault injection.
    pub chaos: Option<ListenerChaos>,
    /// Synthetic connection load for the churn soak: a side thread dials
    /// the shard listeners this many times, as fast as it can, never
    /// completes a handshake, and hangs up — the reactor must shed these
    /// without leaking a registration or disturbing the protocol traffic
    /// sharing the listener. Zero dials nothing.
    pub churn_dials: usize,
}

impl ReactorConfig {
    /// No fault injection, no churn.
    #[must_use]
    pub fn new(runtime: RuntimeConfig) -> Self {
        ReactorConfig {
            runtime,
            chaos: None,
            churn_dials: 0,
        }
    }
}

/// The listener's epoll token; connection tokens (generation ≪ 32 | slot)
/// can never reach it.
const TOKEN_LISTENER: u64 = u64::MAX;
/// The shard's stop signal: its end of a socket pair whose other end
/// [`run_reactor_with`] writes a byte to once the clients are done, so a
/// shard blocked in its wait stops at once — the reactor's rendering of
/// the channel nodes' explicit stop.
const TOKEN_WAKE: u64 = u64::MAX - 1;

// ---------------------------------------------------------------------
// Shard side
// ---------------------------------------------------------------------

/// Timer tokens of the shard reactor's wheel: engine flush deadlines plus
/// the chaos kill and rebind alarms.
#[derive(Clone, Copy)]
enum ShardTimer {
    Engine(u64),
    Kill { down_for: Duration },
    Rebind,
}

struct ShardReactor<'a> {
    shard: usize,
    shards: usize,
    cfg: &'a ReactorConfig,
    core: ShardCore<TickClock>,
    clock: TickClock,
    /// Accepted connections; one that has not sent a Hello may be a churn
    /// dial that never will — the read timeout reaps those.
    table: ConnTable<()>,
    listener: Option<TcpListener>,
    addr: SocketAddr,
    /// The connection whose Hello was accepted last: the client reactor's
    /// link, every site's route. A reconnect replaces it; the superseded
    /// connection's close leaves the new route alone.
    link: Option<u64>,
    /// Never cleared: a down shard's engine timers are popped and dropped
    /// as dead, and [`ShardTimer::Rebind`] survives an outage.
    timers: TimerWheel<ShardTimer>,
    /// This thread's counters; [`run_reactor_with`] merges them into the
    /// result when the thread exits.
    telemetry: Telemetry,
    /// The effects of one engine step; reused so a steady-state step
    /// allocates nothing.
    effects: Vec<Effect>,
}

impl Links for ShardReactor<'_> {
    type Peer = ();

    fn table(&mut self) -> &mut ConnTable<()> {
        &mut self.table
    }

    fn on_frame(&mut self, token: u64, lane: u16, msg: WireMsg, at: Instant) {
        // A previous frame (Bye, protocol rot) may have closed us.
        if self.table.peer_mut(token).is_none() {
            return;
        }
        let linked = self.link == Some(token);
        match msg {
            WireMsg::Hello {
                n_clients,
                shard: dialled,
                protocol,
            } => self.handle_hello(token, n_clients, dialled, protocol),
            // Only the attached link speaks, and only for a site in the
            // fleet's id space.
            WireMsg::Proto(msg) if linked && usize::from(lane) < self.cfg.runtime.n_clients => {
                let from = NodeId::new(self.shards + usize::from(lane));
                self.step_engine(Event::Message { from, msg }, at);
            }
            WireMsg::Heartbeat if linked => {}
            // A Bye or a stray ack ends the link, and so does any frame
            // before the Hello: the churn injector sends exactly that shape
            // on purpose.
            _ => self.close(token),
        }
    }

    /// Deregisters and drops a connection, unrouting the fleet if it was
    /// the link (a reconnect may have replaced it already).
    fn close(&mut self, token: u64) {
        if self.table.remove(token).is_some() {
            if self.link == Some(token) {
                self.link = None;
            }
            self.telemetry.metrics.add(names::REACTOR_CONN_CLOSED, 1);
        }
    }
}

/// The shard engine's effects: sends are queued on the link, on the
/// site's lane — dead-lettering, counted, while there is no link — timers
/// go into the reactor's wheel as [`ShardTimer::Engine`], and counters
/// into the thread's own telemetry.
struct ShardPort<'r> {
    shards: usize,
    link: Option<u64>,
    table: &'r mut ConnTable<()>,
    timers: &'r mut TimerWheel<ShardTimer>,
    telemetry: &'r mut Telemetry,
}

impl Port for ShardPort<'_> {
    type Deadline = Instant;

    fn send(&mut self, to: NodeId, msg: Msg) {
        let lane = (to.index() - self.shards) as u16;
        self.table.send_on(self.link, lane, &WireMsg::Proto(msg));
    }

    fn arm(&mut self, deadline: Instant, token: u64) {
        self.timers.arm(deadline, ShardTimer::Engine(token));
    }

    fn telemetry(&mut self) -> (&mut Metrics, Option<&mut TraceRecorder>) {
        self.telemetry.parts()
    }
}

impl<'a> ShardReactor<'a> {
    fn new(
        shard: usize,
        cfg: &'a ReactorConfig,
        clock: TickClock,
        listener: TcpListener,
        addr: SocketAddr,
    ) -> Self {
        let rc = &cfg.runtime;
        let engine = build_shard_engine(rc.protocol, rc.wal_dir.as_deref(), shard);
        ShardReactor {
            shard,
            shards: rc.protocol.shards,
            cfg,
            core: ShardCore::new(engine, clock, NodeId::new(shard), &rc.shard_outages),
            clock,
            table: ConnTable::new(rc.tick),
            listener: Some(listener),
            addr,
            link: None,
            timers: TimerWheel::new(&clock),
            telemetry: Telemetry::default(), // a shard records nothing
            effects: Vec::new(),
        }
    }

    /// Feeds one event, observed at `at`, to the shard engine and executes
    /// the effects.
    fn step_engine(&mut self, event: Event, at: Instant) {
        let t = self.core.step(event, at, None, &mut self.effects);
        let mut port = ShardPort {
            shards: self.shards,
            link: self.link,
            table: &mut self.table,
            timers: &mut self.timers,
            telemetry: &mut self.telemetry,
        };
        execute(&mut self.effects, &mut port, &self.clock, t);
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
                    if self.table.insert(stream, ()).is_some() {
                        self.telemetry.metrics.add(names::REACTOR_CONN_OPENED, 1);
                    }
                }
                // WouldBlock (queue drained) or a transient accept error:
                // either way the next readiness event resumes accepting.
                Err(_) => return,
            }
        }
    }

    /// The link's handshake: a Hello must match this shard's protocol
    /// config, index and client id space exactly, or it is refused with the
    /// reason and the connection closed — two processes silently
    /// disagreeing on Δ would void every timed guarantee. An accepted
    /// connection becomes the link, and is acked.
    fn handle_hello(
        &mut self,
        token: u64,
        n_clients: u32,
        dialled: u32,
        protocol: tc_lifetime::ProtocolConfig,
    ) {
        let rc = &self.cfg.runtime;
        let reason = if protocol != rc.protocol {
            Some("protocol config mismatch".to_string())
        } else if dialled as usize != self.shard {
            Some(format!("dialled shard {dialled}, reached {}", self.shard))
        } else if n_clients as usize != rc.n_clients {
            Some(format!(
                "bad id space: {n_clients} sites, not {}",
                rc.n_clients
            ))
        } else {
            None
        };
        match reason {
            Some(reason) => {
                // Best-effort reject, then drop the connection.
                self.queue_and_flush(token, 0, &WireMsg::HelloReject { reason });
                self.close(token);
            }
            None => {
                self.link = Some(token);
                let shard = self.shard as u32;
                self.table.queue(token, 0, &WireMsg::HelloAck { shard });
            }
        }
    }

    /// Chaos kill: unregister + drop the listener, hard-close (and so
    /// unroute) every live connection, and arm the rebind alarm.
    fn chaos_kill(&mut self, down_for: Duration) {
        if let Some(listener) = self.listener.take() {
            let _ = self.table.epoll.del(listener.as_raw_fd());
        }
        for token in self.table.tokens() {
            self.close(token);
        }
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
        self.table
            .epoll
            .add(reborn.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .expect("register reborn listener");
        self.telemetry.metrics.add(names::TCP_LISTENER_RESTART, 1);
        self.listener = Some(reborn);
    }

    /// The event loop, with `chaos`'s kill armed `kill_after` past
    /// `started`. Exits when `wake` becomes readable — a byte (every client
    /// said its goodbyes) or a hang-up — returning the shard's
    /// served-request count and the thread's counters.
    fn run(
        mut self,
        chaos: Option<ListenerChaos>,
        started: Instant,
        wake: &UnixStream,
    ) -> (u64, Metrics) {
        let _slack = TimerSlack::pin();
        let fd = self
            .listener
            .as_ref()
            .expect("listener present")
            .as_raw_fd();
        self.table
            .epoll
            .add(fd, EPOLLIN, TOKEN_LISTENER)
            .expect("register listener");
        self.table
            .epoll
            .add(wake.as_raw_fd(), EPOLLIN, TOKEN_WAKE)
            .expect("register wake stream");
        if let Some(c) = chaos {
            let kill = ShardTimer::Kill {
                down_for: c.down_for,
            };
            self.timers.arm(started + c.kill_after, kill);
        }
        let mut events = [EpollEvent { events: 0, data: 0 }; 128];
        let mut due = Vec::new();
        let mut stopping = false;
        self.step_engine(Event::Start, Instant::now());
        while !stopping {
            let now = Instant::now();
            self.timers.pop_due_into(now, &mut due);
            for &timer in &due {
                match timer {
                    ShardTimer::Engine(token) if self.core.timer_is_live(token) => {
                        self.step_engine(Event::Timer { token }, now);
                    }
                    ShardTimer::Engine(_) => {}
                    ShardTimer::Kill { down_for } => self.chaos_kill(down_for),
                    ShardTimer::Rebind => self.rebind(),
                }
            }
            let now = self.sweep();
            let now = self.flush_queued(now);
            let timeout = self.table.wait_timeout(self.timers.next_deadline(), now);
            let n = self.table.wait(&mut events, timeout, now);
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
        for token in self.table.tokens() {
            self.close(token);
        }
        let mut metrics = self.telemetry.metrics;
        self.timers.report(&mut metrics);
        self.table.report(&mut metrics);
        (self.core.engine.requests_served(), metrics)
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// One shard link's lifecycle state: the one connection every hosted site
/// reaches that shard over.
enum LinkState {
    /// No connection; a `Redial` timer is (or is about to be) armed.
    Down { attempt: u32 },
    /// Connected, with the Hello queued: every site sends over it.
    Up { token: u64 },
}

/// One hosted client: its engine core, and whether it is done.
struct ClientState {
    core: ClientCore<TickClock>,
    /// Workload complete with nothing in flight; excluded from `remaining`.
    finished: bool,
}

/// Timer tokens of the client reactor's wheel: engine timers tagged with
/// their owning client, per-shard redial alarms, and the adaptive Δ
/// controller's sampling tick.
#[derive(Clone, Copy)]
enum ClientTimer {
    Engine { client: usize, token: u64 },
    Redial { shard: usize },
    Controller,
}

struct ClientReactor<'a> {
    cfg: &'a ReactorConfig,
    shards: usize,
    addrs: &'a [SocketAddr],
    clock: TickClock,
    /// Each connection's peer state is the shard it links to.
    table: ConnTable<usize>,
    links: Vec<LinkState>,
    /// Per shard: some link's Hello was acked — a later ack is a reconnect.
    acked: Vec<bool>,
    /// Whether the sites were started: once, as soon as every shard link
    /// is first up, so no opening op is taxed a retry round trip.
    started: bool,
    clients: Vec<ClientState>,
    timers: TimerWheel<ClientTimer>,
    /// The run's recorder and live monitor, and this thread's counters —
    /// the thread owns them, so no operation takes a lock.
    telemetry: Telemetry,
    /// Clients not yet `finished`; the loop exits at zero.
    remaining: usize,
    /// The adaptive Δ control plane, when the run is adaptive. The
    /// reactor's single thread owns every client, so commands are fed to
    /// the hosted engines directly — the in-loop equivalent of the channel
    /// broadcast the channel drivers use.
    controller: Option<ControlPlane>,
    /// The effects of one engine step, as in [`ShardReactor`].
    effects: Vec<Effect>,
}

impl Links for ClientReactor<'_> {
    type Peer = usize;

    fn table(&mut self) -> &mut ConnTable<usize> {
        &mut self.table
    }

    fn on_frame(&mut self, token: u64, lane: u16, msg: WireMsg, at: Instant) {
        let Some(&mut shard) = self.table.peer_mut(token) else {
            return; // closed by an earlier frame
        };
        let client = usize::from(lane);
        match msg {
            WireMsg::Heartbeat => {}
            WireMsg::HelloReject { reason } => panic!("shard {shard} rejected the link: {reason}"),
            WireMsg::HelloAck { .. } => {
                let name = if self.acked[shard] {
                    names::TCP_RECONNECT
                } else {
                    names::TCP_CONNECT
                };
                self.acked[shard] = true;
                self.telemetry.metrics.add(name, 1);
            }
            WireMsg::Proto(msg) if client < self.clients.len() => {
                let from = NodeId::new(shard);
                self.feed(client, Event::Message { from, msg }, at);
            }
            // A server never sends Hello or Bye mid-session, nor speaks on
            // a lane no hosted site owns: treat any of it as the link dying.
            _ => self.close(token),
        }
    }

    /// Deregisters a shard's connection and downgrades the link to `Down`,
    /// arming an immediate redial (backoff starts on *failed* dials) while
    /// any site still runs.
    fn close(&mut self, token: u64) {
        let Some(shard) = self.table.remove(token) else {
            return;
        };
        self.links[shard] = LinkState::Down { attempt: 0 };
        if self.remaining > 0 {
            self.timers
                .arm(Instant::now(), ClientTimer::Redial { shard });
        }
    }
}

/// One hosted client's effects: sends are queued on the client's lane of
/// the shard's link — dead-lettering, counted, while the link is down —
/// timers go into the reactor's wheel tagged with the client, and counters
/// and records into the thread's telemetry.
struct ClientPort<'r> {
    client: usize,
    links: &'r [LinkState],
    table: &'r mut ConnTable<usize>,
    timers: &'r mut TimerWheel<ClientTimer>,
    telemetry: &'r mut Telemetry,
}

impl Port for ClientPort<'_> {
    type Deadline = Instant;

    fn send(&mut self, to: NodeId, msg: Msg) {
        let route = match self.links[to.index()] {
            LinkState::Up { token } => Some(token),
            LinkState::Down { .. } => None,
        };
        self.table
            .send_on(route, self.client as u16, &WireMsg::Proto(msg));
    }

    fn arm(&mut self, deadline: Instant, token: u64) {
        let client = self.client;
        self.timers
            .arm(deadline, ClientTimer::Engine { client, token });
    }

    fn telemetry(&mut self) -> (&mut Metrics, Option<&mut TraceRecorder>) {
        self.telemetry.parts()
    }
}

impl<'a> ClientReactor<'a> {
    fn new(cfg: &'a ReactorConfig, addrs: &'a [SocketAddr], clock: TickClock) -> Self {
        let rc = &cfg.runtime;
        let shards = rc.protocol.shards;
        let clients: Vec<ClientState> = (0..rc.n_clients)
            .map(|site| {
                let servers = (0..shards).map(NodeId::new).collect();
                let me = NodeId::new(shards + site);
                ClientState {
                    core: site_core(rc, servers, me, site, clock),
                    finished: false,
                }
            })
            .collect();
        ClientReactor {
            cfg,
            shards,
            addrs,
            clock,
            table: ConnTable::new(rc.tick),
            links: (0..shards)
                .map(|_| LinkState::Down { attempt: 0 })
                .collect(),
            acked: vec![false; shards],
            started: false,
            remaining: clients.len(),
            clients,
            timers: TimerWheel::new(&clock),
            telemetry: Telemetry::recording(rc),
            controller: ControlPlane::new(rc),
            effects: Vec::new(),
        }
    }

    /// One adaptive control tick, popped at `now`: sample, feed the
    /// command in force to every hosted client still running, re-arm until
    /// the plane says every expected operation has been ingested.
    fn controller_tick(&mut self, now: Instant) {
        let Some(plane) = self.controller.as_mut() else {
            return;
        };
        let (command, more) = plane.sample(&self.clock, &mut self.telemetry);
        let interval = plane.interval(&self.clock);
        if let Some((from, msg)) = command {
            for client in 0..self.clients.len() {
                if !self.clients[client].finished {
                    let msg = msg.clone();
                    self.feed(client, Event::Message { from, msg }, now);
                }
            }
        }
        if more {
            self.timers.arm(now + interval, ClientTimer::Controller);
        }
    }

    /// Feeds one event, observed at `at`, to a hosted client and executes
    /// the effects.
    fn feed(&mut self, client: usize, event: Event, at: Instant) {
        let state = &mut self.clients[client];
        let t = state.core.step(event, at, None, &mut self.effects);
        let mut port = ClientPort {
            client,
            links: &self.links,
            table: &mut self.table,
            timers: &mut self.timers,
            telemetry: &mut self.telemetry,
        };
        execute(&mut self.effects, &mut port, &self.clock, t);
        if !state.finished && state.core.finished() {
            state.finished = true;
            self.remaining -= 1;
        }
    }

    /// Dials one shard link: blocking connect (instant on loopback —
    /// refused connections fail immediately), then the socket goes
    /// nonblocking into the table with the link's Hello queued; the
    /// pass-end flush sends it. The link is usable from here on, and the
    /// first time every shard's is, every site starts.
    fn dial(&mut self, shard: usize) {
        let LinkState::Down { attempt } = self.links[shard] else {
            return; // a live connection beat the redial timer
        };
        let dialled = TcpStream::connect_timeout(&self.addrs[shard], READ_TIMEOUT)
            .ok()
            .and_then(|stream| {
                let _ = stream.set_nodelay(true);
                stream.set_nonblocking(true).ok()?;
                Some(stream)
            });
        let Some(token) = dialled.and_then(|stream| self.table.insert(stream, shard)) else {
            return self.retry(shard, attempt);
        };
        self.links[shard] = LinkState::Up { token };
        let rc = &self.cfg.runtime;
        let hello = WireMsg::Hello {
            n_clients: rc.n_clients as u32,
            shard: shard as u32,
            protocol: rc.protocol,
        };
        self.table.queue(token, 0, &hello);
        let all_up = self
            .links
            .iter()
            .all(|link| matches!(link, LinkState::Up { .. }));
        if all_up && !self.started {
            self.started = true;
            let at = Instant::now();
            for client in 0..self.clients.len() {
                self.feed(client, Event::Start, at);
            }
        }
    }

    /// Books a failed dial and schedules the next under the deterministic
    /// jittered [`redial_delay`] schedule.
    fn retry(&mut self, shard: usize, attempt: u32) {
        self.telemetry.metrics.add(names::TCP_CONNECT_FAILED, 1);
        assert!(
            attempt < REDIAL_ATTEMPTS,
            "shard {shard} unreachable after {attempt} attempts"
        );
        let delay = redial_delay(attempt, link_seed(self.cfg.runtime.seed, shard));
        self.links[shard] = LinkState::Down {
            attempt: attempt + 1,
        };
        self.timers
            .arm(Instant::now() + delay, ClientTimer::Redial { shard });
    }

    /// The event loop: one dial per shard, then timers + readiness until
    /// every client finishes, then an orderly goodbye on every live link.
    /// Returns all per-operation latencies, the commanded Δ-schedule when
    /// the run was adaptive, and the thread's telemetry.
    fn run(mut self) -> (Vec<Duration>, Option<DeltaSchedule>, Telemetry) {
        // This loop runs on the caller's thread: the guard hands the
        // thread back with the slack it came with.
        let _slack = TimerSlack::pin();
        let base = Instant::now();
        for shard in 0..self.shards {
            self.timers.arm(base, ClientTimer::Redial { shard });
        }
        if let Some(plane) = &self.controller {
            self.timers
                .arm(base + plane.interval(&self.clock), ClientTimer::Controller);
        }
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        let mut due = Vec::new();
        while self.remaining > 0 {
            let now = Instant::now();
            self.timers.pop_due_into(now, &mut due);
            for &timer in &due {
                match timer {
                    ClientTimer::Engine { client, token } => {
                        // A finished client's timers and dead timers (a
                        // retry whose reply came first) step nothing.
                        let state = &self.clients[client];
                        if !state.finished && state.core.timer_is_live(token) {
                            self.feed(client, Event::Timer { token }, now);
                        }
                    }
                    ClientTimer::Redial { shard } => self.dial(shard),
                    ClientTimer::Controller => self.controller_tick(now),
                }
            }
            let now = self.sweep();
            if self.remaining == 0 {
                break;
            }
            let now = self.flush_queued(now);
            let timeout = self.table.wait_timeout(self.timers.next_deadline(), now);
            let n = self.table.wait(&mut events, timeout, now);
            for ev in &events[..n] {
                let (bits, token) = (ev.events, ev.data);
                self.handle_conn_event(token, bits);
            }
        }
        // Orderly goodbye: a Bye on every live link, flushed as far as the
        // socket allows, then close. A blocked socket just loses its
        // goodbye — the shard's read timeout reaps it.
        for token in self.table.tokens() {
            self.queue_and_flush(token, 0, &WireMsg::Bye);
            self.close(token);
        }
        self.timers.report(&mut self.telemetry.metrics);
        self.table.report(&mut self.telemetry.metrics);
        let schedule = self.controller.take().map(ControlPlane::into_schedule);
        let latencies = self
            .clients
            .into_iter()
            .flat_map(|c| c.core.into_latencies())
            .collect();
        (latencies, schedule, self.telemetry)
    }
}

// ---------------------------------------------------------------------
// Churn injection + entry points
// ---------------------------------------------------------------------

/// The churn dialer: `dials` junk connections, back to back, that never
/// complete a handshake. Odd dials speak a protocol violation (a frame
/// before Hello) so the reject path runs; even dials hang up silently (a
/// pre-Hello EOF). Returns the thread's counters.
fn churn_loop(dials: usize, addrs: &[SocketAddr], shutdown: &AtomicBool) -> Metrics {
    let mut metrics = Metrics::new();
    for i in 0..dials {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let addr = addrs[i % addrs.len()];
        if let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            metrics.add(names::REACTOR_CHURN_DIAL, 1);
            if i % 2 == 1 {
                let _ = write_frame(&mut stream, 0, &WireMsg::Heartbeat);
            }
        }
    }
    metrics
}

/// Runs one execution of the lifetime protocol over the evented reactor
/// with socket-driver defaults, returning the same [`RuntimeResult`] shape
/// as the channel drivers — identical seeds produce identical per-site
/// operation sequences across all of them.
///
/// # Panics
///
/// Panics if a reactor thread panics, a shard rejects a handshake (a
/// configuration mismatch inside one process is a harness bug), or a
/// shard stays unreachable past the redial budget.
#[must_use]
pub fn run_reactor(config: &RuntimeConfig) -> RuntimeResult {
    run_reactor_with(&ReactorConfig::new(config.clone()))
}

/// [`run_reactor`] with listener fault injection and connection churn.
///
/// # Panics
///
/// As [`run_reactor`]; additionally if the fleet has more sites than a
/// frame header's u16 lane can name (65 536), if the chaos plan names a
/// shard outside the fleet, or if a listener cannot be bound.
#[must_use]
pub fn run_reactor_with(cfg: &ReactorConfig) -> RuntimeResult {
    let rc = &cfg.runtime;
    let shards = rc.protocol.shards;
    assert!(
        rc.n_clients <= usize::from(u16::MAX) + 1,
        "{} sites exceed the 65 536 lanes of a shard link",
        rc.n_clients
    );
    if let Some(c) = cfg.chaos {
        assert!(c.shard < shards, "chaos shard {} out of range", c.shard);
    }
    let clock = TickClock::new(rc.tick);

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
    let shutdown_ref = &shutdown;
    let addrs_ref = &addrs[..];
    let wake_rxs_ref = &wake_rxs[..];
    let (latencies, delta_schedule, telemetry, shard_requests, thread_metrics) =
        std::thread::scope(|scope| {
            let mut shard_workers = Vec::with_capacity(shards);
            for (shard, slot) in listeners.iter_mut().enumerate() {
                let listener = slot.take().expect("listener taken once");
                let addr = addrs_ref[shard];
                let chaos = cfg.chaos.filter(|c| c.shard == shard);
                shard_workers.push(scope.spawn(move || {
                    ShardReactor::new(shard, cfg, clock, listener, addr).run(
                        chaos,
                        started,
                        &wake_rxs_ref[shard],
                    )
                }));
            }
            let churn_worker = (cfg.churn_dials > 0)
                .then(|| scope.spawn(move || churn_loop(cfg.churn_dials, addrs_ref, shutdown_ref)));
            // The client reactor runs on the scope's own thread: every
            // ClientCore in one evented loop.
            let (latencies, delta_schedule, telemetry) =
                ClientReactor::new(cfg, addrs_ref, clock).run();
            shutdown.store(true, Ordering::Relaxed);
            for mut tx in &wake_txs {
                // Cannot fail short of a dead shard thread, which the join
                // below reports.
                let _ = tx.write_all(&[0]);
            }
            let (shard_requests, mut thread_metrics): (Vec<u64>, Vec<Metrics>) = shard_workers
                .into_iter()
                .map(|w| w.join().expect("shard reactor panicked"))
                .unzip();
            if let Some(w) = churn_worker {
                thread_metrics.push(w.join().expect("churn thread panicked"));
            }
            (
                latencies,
                delta_schedule,
                telemetry,
                shard_requests,
                thread_metrics,
            )
        });
    let wall = started.elapsed();
    finish_run(
        telemetry,
        thread_metrics,
        latencies,
        shard_requests,
        wall,
        delta_schedule,
    )
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
    fn redial_delay_is_deterministic_capped_and_jittered() {
        for attempt in 0..24 {
            let d1 = redial_delay(attempt, 0xFEED);
            let d2 = redial_delay(attempt, 0xFEED);
            assert_eq!(d1, d2, "same seed must give the same delay");
            assert!(
                d1 <= REDIAL_CAP,
                "attempt {attempt} exceeds the cap: {d1:?}"
            );
            let slot = REDIAL_BASE
                .saturating_mul(1 << attempt.min(16))
                .min(REDIAL_CAP);
            assert!(d1 >= slot.mul_f64(0.5), "jitter must stay in [50%, 100%)");
        }
        // Different seeds de-synchronise (thundering-herd protection).
        assert_ne!(redial_delay(3, 1), redial_delay(3, 2));
    }

    /// Runs shard 0 of `cfg` as a live reactor on a fresh loopback
    /// listener while `probe` talks to it, then stops it. `probe` returns
    /// the telemetry of whatever client side it ran. Returns the requests
    /// the shard's engine served and the run's metrics and history,
    /// assembled by `finish_run`.
    fn with_live_shard(
        cfg: &ReactorConfig,
        probe: impl FnOnce(SocketAddr, TickClock) -> Telemetry,
    ) -> (u64, RuntimeResult) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (wake_tx, wake_rx) = UnixStream::pair().unwrap();
        let clock = TickClock::new(cfg.runtime.tick);
        let started = Instant::now();
        let ((served, shard_metrics), telemetry) = std::thread::scope(|scope| {
            // Owned in here, so a probe that panics hangs the stream up and
            // the shard stops instead of the scope waiting on it forever.
            let mut wake_tx = wake_tx;
            let shard = scope.spawn(|| {
                ShardReactor::new(0, cfg, clock, listener, addr).run(None, started, &wake_rx)
            });
            let telemetry = probe(addr, clock);
            wake_tx.write_all(&[0]).unwrap();
            (shard.join().expect("shard reactor panicked"), telemetry)
        });
        let r = finish_run(
            telemetry,
            vec![shard_metrics],
            Vec::new(),
            Vec::new(),
            started.elapsed(),
            None,
        );
        (served, r)
    }

    /// A raw connection to a live shard, reads bounded so a hung shard
    /// fails the test instead of stalling it.
    fn raw_dial(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
    }

    /// The next frame a live shard sends on `stream` that is not a
    /// keep-alive (one may precede the answer on a slow host).
    fn read_reply(stream: &mut TcpStream) -> std::io::Result<(u16, WireMsg)> {
        loop {
            match tc_wire::read_frame(stream)? {
                (_, WireMsg::Heartbeat) => {}
                frame => return Ok(frame),
            }
        }
    }

    /// A `FetchReq` for object 0, as a raw peer would send it.
    fn fetch() -> WireMsg {
        WireMsg::Proto(Msg::FetchReq {
            object: tc_core::ObjectId::new(0),
            epoch: 1,
        })
    }

    /// Dials a *live* shard reactor with raw sockets. A Hello that
    /// disagrees with it on the config, the shard or the id space must be
    /// answered `HelloReject` with the reason and a hang-up — never routed.
    /// A good one is acked, and a `Proto` written right behind it, before
    /// the ack, is served. A normal run on the same listener afterwards
    /// must be untouched.
    #[test]
    fn mismatched_hello_is_rejected_by_a_live_shard() {
        let cfg = ReactorConfig::new(small(ProtocolKind::Sc, 39));
        let rc = &cfg.runtime;
        let hello = |n_clients: usize, shard: u32, protocol: ProtocolConfig| WireMsg::Hello {
            n_clients: n_clients as u32,
            shard,
            protocol,
        };
        let other_delta = ProtocolConfig::of(ProtocolKind::Tsc {
            delta: Delta::from_ticks(999),
        });
        let probes = [
            (hello(2, 0, other_delta), "protocol config mismatch"),
            (hello(2, 1, rc.protocol), "dialled shard 1, reached 0"),
            (hello(3, 0, rc.protocol), "bad id space: 3 sites, not 2"),
        ];
        let (_, r) = with_live_shard(&cfg, |addr, clock| {
            for (hello, reason) in &probes {
                let mut stream = raw_dial(addr);
                write_frame(&mut stream, 0, hello).unwrap();
                match read_reply(&mut stream) {
                    Ok((0, WireMsg::HelloReject { reason: got })) => assert_eq!(&got, reason),
                    other => panic!("expected HelloReject({reason}) on lane 0, got {other:?}"),
                }
                assert!(
                    read_reply(&mut stream).is_err(),
                    "the shard must hang up after rejecting"
                );
            }
            // One write: the request cannot wait for the ack.
            let mut stream = raw_dial(addr);
            let mut bytes = tc_wire::encode_frame(0, &hello(2, 0, rc.protocol));
            tc_wire::encode_frame_into(&mut bytes, 1, &fetch());
            stream.write_all(&bytes).unwrap();
            match read_reply(&mut stream) {
                Ok((0, WireMsg::HelloAck { shard: 0 })) => {}
                other => panic!("expected HelloAck on lane 0, got {other:?}"),
            }
            match read_reply(&mut stream) {
                Ok((1, WireMsg::Proto(Msg::FetchRep { epoch: 1, .. }))) => {}
                other => panic!("expected site 1's FetchRep on lane 1, got {other:?}"),
            }
            drop(stream);
            // Nothing was left behind: the same listener serves a
            // well-configured fleet as if the probes had never dialled.
            let (latencies, _, telemetry) = ClientReactor::new(&cfg, &[addr], clock).run();
            assert_eq!(latencies.len(), 2 * 12);
            telemetry
        });
        assert_eq!(r.ops_done, 2 * 12);
        assert!(r.on_time.holds(), "the following run must be monitor-clean");
        assert_eq!(r.counter(names::TCP_CONNECT), 1, "one link, one handshake");
        // One connection per probe and for the raw link, then one link
        // carrying both sites.
        assert_eq!(
            r.counter(names::REACTOR_CONN_OPENED),
            probes.len() as u64 + 2
        );
        assert_eq!(
            r.counter(names::REACTOR_CONN_OPENED),
            r.counter(names::REACTOR_CONN_CLOSED),
            "rejected registrations must be reaped"
        );
    }

    /// Only the attached link speaks, and only for a site in the id space:
    /// a `Proto` before any Hello, or on a lane past the fleet, closes the
    /// connection before the engine sees it.
    #[test]
    fn a_proto_frame_on_an_unattached_lane_closes_the_link() {
        let cfg = ReactorConfig::new(small(ProtocolKind::Sc, 45));
        let rc = &cfg.runtime;
        let (served, r) = with_live_shard(&cfg, |addr, _| {
            let mut stream = raw_dial(addr);
            write_frame(&mut stream, 0, &fetch()).unwrap();
            assert!(
                read_reply(&mut stream).is_err(),
                "the shard must hang up on a frame before the Hello"
            );
            let mut stream = raw_dial(addr);
            let hello = WireMsg::Hello {
                n_clients: rc.n_clients as u32,
                shard: 0,
                protocol: rc.protocol,
            };
            write_frame(&mut stream, 0, &hello).unwrap();
            match read_reply(&mut stream) {
                Ok((0, WireMsg::HelloAck { shard: 0 })) => {}
                other => panic!("expected HelloAck on lane 0, got {other:?}"),
            }
            write_frame(&mut stream, rc.n_clients as u16, &fetch()).unwrap();
            assert!(
                read_reply(&mut stream).is_err(),
                "the shard must hang up on a lane outside the id space"
            );
            Telemetry::recording(rc)
        });
        assert_eq!(served, 0, "no stray request may reach the engine");
        assert_eq!(r.counter(names::REACTOR_CONN_OPENED), 2);
        assert_eq!(r.counter(names::REACTOR_CONN_CLOSED), 2);
    }

    #[test]
    #[should_panic(expected = "65537 sites exceed the 65 536 lanes")]
    fn a_fleet_wider_than_the_lane_space_is_refused() {
        let mut cfg = small(ProtocolKind::Sc, 43);
        cfg.n_clients = 65_537;
        let _ = run_reactor(&cfg);
    }

    #[test]
    fn reactor_sc_completes_and_holds() {
        let r = run_reactor(&small(ProtocolKind::Sc, 31));
        assert_eq!(r.ops_done, 2 * 12, "every op must be recorded");
        assert!(r.on_time.holds(), "monitor must report zero violations");
        crate::runtime::tests::assert_monitor_counters(&r);
        assert_eq!(
            r.counter(names::TCP_CONNECT),
            1,
            "one handshake admits the link to the single shard"
        );
        assert_eq!(
            r.counter(names::REACTOR_CONN_OPENED),
            1,
            "both sites share one link"
        );
        assert_eq!(r.counter(names::TCP_RECONNECT), 0, "no faults injected");
        // fd hygiene even on the happy path: every accepted registration
        // was drained by the time the run finished.
        assert_eq!(
            r.counter(names::REACTOR_CONN_OPENED),
            r.counter(names::REACTOR_CONN_CLOSED),
            "registrations must drain to zero"
        );
        // Both reactor threads reported their output counters, and no
        // write went out without a frame in it.
        for name in [names::REACTOR_WRITES, names::REACTOR_FRAMES_OUT] {
            assert!(r.metrics.counters.contains_key(name), "{name} missing");
        }
        let (writes, frames) = (
            r.counter(names::REACTOR_WRITES),
            r.counter(names::REACTOR_FRAMES_OUT),
        );
        assert!(
            0 < writes && writes <= frames,
            "{writes} writes, {frames} frames"
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

    /// Two shards, at 2 sites and at 300 — the scale whose cold start once
    /// needed dials staggered in waves — each over exactly one link per
    /// shard.
    #[test]
    fn reactor_tsc_fleet_is_judged_by_the_monitor() {
        for sites in [2, 300] {
            let mut cfg = small(
                ProtocolKind::Tsc {
                    delta: Delta::from_ticks(400),
                },
                32,
            );
            cfg.protocol = cfg.protocol.with_shards(2);
            cfg.n_clients = sites;
            let r = run_reactor(&cfg);
            assert_eq!(r.ops_done, sites * 12);
            assert!(
                r.on_time.holds(),
                "{sites} sites, violations: {}",
                r.on_time.violations().len()
            );
            assert_eq!(r.shard_requests.len(), 2);
            assert!(r.shard_requests.iter().sum::<u64>() > 0);
            // One handshake per shard link, whatever the fleet size.
            assert_eq!(r.counter(names::TCP_CONNECT), 2, "{sites} sites");
            assert_eq!(r.counter(names::REACTOR_CONN_OPENED), 2, "{sites} sites");
            assert_eq!(r.counter(names::REACTOR_CONN_CLOSED), 2, "{sites} sites");
        }
    }

    /// The poll window closes: with 40 ticks of think time between
    /// operations, both reactor threads go back to sleeping in the kernel
    /// once their links fall quiet, and together they keep a core busy
    /// for under a quarter of the run — the guard against a poll that
    /// never stops.
    #[test]
    fn poll_window_closes_when_the_fleet_is_quiet() {
        let think = Delta::from_ticks(40);
        let mut rc = small(ProtocolKind::Sc, 47);
        rc.workload = Workload::new(4, 0.8, 0.7, (think, think));
        rc.ops_per_client = 100;
        let cfg = ReactorConfig::new(rc);
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (mut wake_tx, wake_rx) = UnixStream::pair().unwrap();
        let clock = TickClock::new(cfg.runtime.tick);
        let started = Instant::now();
        let threads: [(&str, Metrics, Duration); 2] = std::thread::scope(|scope| {
            let shard = scope.spawn(|| {
                let cpu = sys::thread_cpu_time();
                let reactor = ShardReactor::new(0, &cfg, clock, listener, addr);
                let (_, metrics) = reactor.run(None, started, &wake_rx);
                ("shard", metrics, sys::thread_cpu_time() - cpu)
            });
            let cpu = sys::thread_cpu_time();
            let (latencies, _, telemetry) = ClientReactor::new(&cfg, &[addr], clock).run();
            assert_eq!(latencies.len(), 2 * 100);
            let client = ("client", telemetry.metrics, sys::thread_cpu_time() - cpu);
            wake_tx.write_all(&[0]).unwrap();
            [shard.join().expect("shard reactor panicked"), client]
        });
        let wall = started.elapsed();
        let mut cpu = Duration::ZERO;
        for (thread, metrics, used) in &threads {
            assert!(
                metrics.get(names::REACTOR_SLEEPS) > 0,
                "the {thread} thread never slept"
            );
            cpu += *used;
        }
        // A quarter of the wall time on each of the two threads.
        assert!(
            cpu < wall * 2 / 4,
            "two reactor threads used {cpu:?} of processor time in {wall:?}"
        );
    }

    /// A saturated fleet's waits poll: 32 sites with no think time keep
    /// both links busy, so the reactor threads find their next event
    /// without sleeping for it.
    #[test]
    fn poll_window_keeps_a_busy_fleet_polling() {
        let mut cfg = small(ProtocolKind::Sc, 49);
        cfg.workload = Workload::new(4, 0.8, 0.7, (Delta::ZERO, Delta::ZERO));
        cfg.n_clients = 32;
        cfg.ops_per_client = 50;
        let r = run_reactor(&cfg);
        assert_eq!(r.ops_done, 32 * 50);
        assert!(r.counter(names::REACTOR_POLLS) > 0, "no wait polled");
    }

    #[test]
    fn reactor_kill_shard_over_wal_recovers_by_replay() {
        use crate::runtime::tests::{assert_recovered_by_replay, temp_wal_dir};
        use tc_clocks::Time;
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        let wal = temp_wal_dir("reactor-killshard");
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            },
            33,
        );
        cfg.ops_per_client = 200;
        cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        cfg.wal_dir = Some(wal.clone());
        // Down during [300, 1300) ticks: 200 ops × ≥2 ticks think time
        // cannot finish before tick 300, so the kill always lands mid-run;
        // the link stays up throughout, only the engine dies.
        cfg.shard_outages = vec![(0, Time::from_ticks(300), Time::from_ticks(1_300))];
        assert_recovered_by_replay(&run_reactor(&cfg), 2 * 200);
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn reactor_adaptive_controller_retunes_delta_online() {
        use crate::runtime::tests::{assert_retuned_online, ADAPTIVE_BAND};
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(4_000),
            },
            37,
        );
        cfg.ops_per_client = 100;
        cfg.adaptive = Some(ADAPTIVE_BAND);
        assert_retuned_online(&run_reactor(&cfg), 2 * 100);
    }
}
