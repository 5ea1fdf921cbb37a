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
//!   [`tc_wire::FrameDecoder`] (see `conn`), around the shard's
//!   `ShardHost`;
//! * one **client reactor** around the `SiteHost` of *all* sites: their
//!   engine timers, the Δ controller's tick and the per-shard redial
//!   alarms live in the host's one `TimerWheel`, folded into the epoll
//!   timeout, and all hosted sites share **one connection per shard** — a
//!   small state machine (dial, heartbeat, redial under a jittered
//!   exponential backoff) admitted by one handshake.
//!
//! The hosts (`crate::host`, shared with the channel driver) step the
//! node core's `ClientCore` / `ShardCore` (`tc_lifetime::node`, shared
//! with the simulator) and hand the effects to its `execute`; what a
//! reactor adds is the transport — a send queued on a lane of a link —
//! and the per-connection plumbing itself (see `table`). The result is the
//! same [`RuntimeResult`] shape the channel driver returns, so the
//! conformance oracle, the
//! [`OnTimeMonitor`](tc_core::checker::OnTimeMonitor), and the metrics
//! pipeline apply unchanged; `tests/engine_equivalence.rs` pins every
//! driver to identical per-site operation fingerprints.
//!
//! # Links
//!
//! Every `Proto` frame on a client↔shard link travels on a **lane** — the
//! frame header's routing varint, at most `u16::MAX`, one byte below 128 —
//! naming the site it speaks for, so
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
//! route, or on a lane outside the id space, closes the link; so does a
//! request or a Δ command from a shard — Δ commands come from the site
//! host's own controller, never over a link. An idle
//! connection carries a [`WireMsg::Heartbeat`] every 10 ms, so the peer's
//! 250 ms read timeout only ever fires on a genuinely dead link. A link
//! that dies (error, EOF, heartbeat silence) leaves its shard without a
//! route — the engines' `Effect::Send`s across it dead-letter, exactly
//! like the simulator's lossy network — and is redialled under a capped
//! exponential backoff (2–50 ms, jittered per shard link), with one new
//! handshake. Engine state never restarts, so server delivery cursors and
//! client epochs resume where they left off; the protocol's retry timers
//! re-cover anything lost in flight. A [`tc_sim::FaultKind::Partition`]
//! of one shard in [`RuntimeConfig::faults`] is rendered as a real
//! partition severs TCP: at `window.from` the shard's listener and every
//! live connection to it die, and at `window.until` the listener rebinds
//! the same address, driving the reconnect path under the monitor. Both
//! edges are timers on the shard's wheel.
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
//! The run's one clock is fixed by the client reactor, at the instant its
//! last shard link is first up and its sites start; that instant is the
//! last one of tick 0 (`TickClock::started_at`), so the sites' first
//! operations are due on the loop's first pass. The client publishes the
//! clock in a `OnceLock` the run owns before it sends any request. A
//! shard reactor accepts and handshakes without it, and starts its host
//! on it in the first pass whose wait returns with it published — at the
//! latest the pass that reads the first request — so every thread ticks
//! against one epoch, and no shard steps before it.
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
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use tc_lifetime::control::DeltaController;
use tc_lifetime::engine::splitmix64;
use tc_lifetime::Msg;
use tc_sim::metrics::names;
use tc_sim::{FaultKind, Metrics, NodeId};
use tc_wire::{write_frame, WireMsg};

use crate::host::{controller, ShardHost, ShardTimer, SiteHost, SiteTimer, Transport};
use crate::runtime::{refuse_unrenderable, RuntimeConfig, RuntimeResult, TickClock};

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

/// The jitter seed of the client reactor's link to one shard (every
/// hosted site shares it): deterministic per run — identical
/// configurations replay identical backoff schedules — yet distinct per
/// shard, so the redials of links that died together do not stay
/// synchronized.
fn link_seed(run_seed: u64, shard: usize) -> u64 {
    splitmix64(run_seed ^ shard as u64)
}

/// Configuration of one reactor run: the common runtime knobs plus the
/// socket driver's own load.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Protocol, fleet shape, workload, tick, monitor bounds and faults.
    pub runtime: RuntimeConfig,
    /// Synthetic connection load for the churn soak: a side thread dials
    /// the shard listeners this many times, as fast as it can, never
    /// completes a handshake, and hangs up — the reactor must shed these
    /// without leaking a registration or disturbing the protocol traffic
    /// sharing the listener. Zero dials nothing.
    pub churn_dials: usize,
}

impl ReactorConfig {
    /// No churn.
    #[must_use]
    pub fn new(runtime: RuntimeConfig) -> Self {
        ReactorConfig {
            runtime,
            churn_dials: 0,
        }
    }
}

/// The listener's epoll token; connection tokens (generation ≪ 32 | slot)
/// can never reach it.
const TOKEN_LISTENER: u64 = u64::MAX;
/// The shard's stop signal: its end of a socket pair whose other end
/// [`run_reactor_with`] writes a byte to once the clients are done, so a
/// shard blocked in its wait stops at once.
const TOKEN_WAKE: u64 = u64::MAX - 1;

// ---------------------------------------------------------------------
// Shard side
// ---------------------------------------------------------------------

/// The shard reactor's own timers on its host's wheel: the two edges of a
/// partition of the shard.
#[derive(Clone, Copy)]
enum Edge {
    Kill,
    Rebind,
}

struct ShardReactor<'a> {
    shard: usize,
    cfg: &'a ReactorConfig,
    /// The shard's engine, its wheel (which also carries the partition
    /// edges), this thread's counters, and the connection table.
    host: ShardHost<FleetLink>,
    /// Where the client reactor publishes the run's clock; the shard
    /// starts on it.
    published: &'a OnceLock<TickClock>,
    listener: Option<TcpListener>,
    addr: SocketAddr,
}

impl Links for ShardReactor<'_> {
    type Peer = ();

    fn table(&mut self) -> &mut ConnTable<()> {
        &mut self.host.net.table
    }

    fn on_frame(&mut self, token: u64, lane: u16, msg: WireMsg, at: Instant) {
        // A previous frame (Bye, protocol rot) may have closed us.
        if self.host.net.table.peer_mut(token).is_none() {
            return;
        }
        let linked = self.host.net.link == Some(token);
        match msg {
            WireMsg::Hello {
                n_clients,
                shard: dialled,
                protocol,
            } => self.handle_hello(token, n_clients, dialled, protocol),
            // Only the attached link speaks, only for a site in the fleet's
            // id space, and only requests.
            WireMsg::Proto(msg)
                if linked && usize::from(lane) < self.cfg.runtime.n_clients && msg.is_request() =>
            {
                // The client publishes the clock before it sends any
                // request, but this pass may have looked before it did.
                self.start_if_published();
                let from = NodeId::new(self.host.net.shards + usize::from(lane));
                self.host.deliver(from, msg, at);
            }
            WireMsg::Heartbeat if linked => {}
            // A Bye, a stray ack or a client-bound message ends the link,
            // and so does any frame before the Hello: the churn injector
            // sends exactly that shape on purpose.
            _ => self.close(token),
        }
    }

    /// Deregisters and drops a connection, unrouting the fleet if it was
    /// the link (a reconnect may have replaced it already).
    fn close(&mut self, token: u64) {
        if self.host.net.table.remove(token).is_some() {
            if self.host.net.link == Some(token) {
                self.host.net.link = None;
            }
            self.host.metrics.add(names::REACTOR_CONN_CLOSED, 1);
        }
    }
}

/// The shard's transport: a send is queued on the link, on the addressed
/// site's lane — dead-lettering, counted, while there is no link.
struct FleetLink {
    shards: usize,
    /// Accepted connections; one that has not sent a Hello may be a churn
    /// dial that never will — the read timeout reaps those.
    table: ConnTable<()>,
    /// The connection whose Hello was accepted last: the client reactor's
    /// link, every site's route. A reconnect replaces it; the superseded
    /// connection's close leaves the new route alone.
    link: Option<u64>,
}

impl Transport for FleetLink {
    type Timer = Edge;

    fn send(&mut self, _from: NodeId, to: NodeId, msg: Msg) {
        let lane = (to.index() - self.shards) as u16;
        self.table.send_on(self.link, lane, &WireMsg::Proto(msg));
    }
}

impl<'a> ShardReactor<'a> {
    fn new(
        shard: usize,
        cfg: &'a ReactorConfig,
        published: &'a OnceLock<TickClock>,
        listener: TcpListener,
        addr: SocketAddr,
    ) -> Self {
        let rc = &cfg.runtime;
        let fleet = FleetLink {
            shards: rc.protocol.shards,
            table: ConnTable::new(rc.tick),
            link: None,
        };
        ShardReactor {
            shard,
            cfg,
            host: ShardHost::new(rc, shard, fleet),
            published,
            listener: Some(listener),
            addr,
        }
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
                    if self.host.net.table.insert(stream, ()).is_some() {
                        self.host.metrics.add(names::REACTOR_CONN_OPENED, 1);
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
                self.host.net.link = Some(token);
                let shard = self.shard as u32;
                self.host
                    .net
                    .table
                    .queue(token, 0, &WireMsg::HelloAck { shard });
            }
        }
    }

    /// A partition's first edge: unregister + drop the listener and
    /// hard-close (and so unroute) every live connection.
    fn kill(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.host.net.table.epoll.del(listener.as_raw_fd());
        }
        for token in self.host.net.table.tokens() {
            self.close(token);
        }
    }

    /// A partition's heal: rebind the same address (std sets
    /// `SO_REUSEADDR` on Unix listeners, so the killed connections'
    /// TIME_WAIT entries don't block it), with a grace loop in case the OS
    /// lags.
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
        self.host
            .net
            .table
            .epoll
            .add(reborn.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .expect("register reborn listener");
        self.host.metrics.add(names::TCP_LISTENER_RESTART, 1);
        self.listener = Some(reborn);
    }

    /// Starts the shard on the run's clock once the client reactor has
    /// published it — stepping `Start` and arming both edges of every
    /// partition of this shard on its wheel — and does nothing before, or
    /// after.
    fn start_if_published(&mut self) {
        if self.host.started() {
            return;
        }
        let Some(&clock) = self.published.get() else {
            return;
        };
        self.host.start(clock, Instant::now());
        let cut = FaultKind::Partition {
            isolated: vec![self.shard],
        };
        let rules = &self.cfg.runtime.faults.rules;
        for window in rules.iter().filter(|r| r.kind == cut).map(|r| r.window) {
            for (at, edge) in [(window.from, Edge::Kill), (window.until, Edge::Rebind)] {
                let deadline = clock.instant_of(at);
                self.host.timers.arm(deadline, ShardTimer::Link(edge));
            }
        }
    }

    /// The event loop. It accepts and handshakes from the first pass, and
    /// starts the shard in the first pass whose wait returns with the
    /// run's clock published — at the latest, the pass that reads the
    /// first request, which the client sends only after publishing. Exits
    /// when `wake` becomes readable — a byte (every site finished) or a
    /// hang-up — returning the shard's served-request count and the
    /// thread's counters.
    fn run(mut self, wake: &UnixStream) -> (u64, Metrics) {
        let _slack = TimerSlack::pin();
        let listener = self.listener.as_ref().expect("listener present");
        let epoll = &self.host.net.table.epoll;
        let registered = epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER);
        registered.expect("register listener");
        let registered = epoll.add(wake.as_raw_fd(), EPOLLIN, TOKEN_WAKE);
        registered.expect("register wake stream");
        let mut events = [EpollEvent { events: 0, data: 0 }; 128];
        let mut due = Vec::new();
        let mut stopping = false;
        while !stopping {
            let now = Instant::now();
            self.host.timers.pop_due_into(now, &mut due);
            for &timer in &due {
                match self.host.fire(timer, now) {
                    Some(Edge::Kill) => self.kill(),
                    Some(Edge::Rebind) => self.rebind(),
                    None => {}
                }
            }
            let now = self.sweep();
            let now = self.flush_queued(now);
            let deadline = self.host.timers.next_deadline();
            let timeout = self.host.net.table.wait_timeout(deadline, now);
            let n = self.host.net.table.wait(&mut events, timeout, now);
            self.start_if_published();
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
        for token in self.host.net.table.tokens() {
            self.close(token);
        }
        self.host.net.table.report(&mut self.host.metrics);
        self.host.finish()
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// One shard link's lifecycle state: the one connection every hosted site
/// reaches that shard over.
enum LinkState {
    /// No connection; a redial timer is (or is about to be) armed.
    Down { attempt: u32 },
    /// Connected, with the Hello queued: every site sends over it.
    Up { token: u64 },
}

struct ClientReactor<'a> {
    cfg: &'a ReactorConfig,
    shards: usize,
    addrs: &'a [SocketAddr],
    /// Per shard: some link's Hello was acked — a later ack is a reconnect.
    acked: Vec<bool>,
    /// Where the run's clock is published for the shard reactors.
    published: &'a OnceLock<TickClock>,
    /// Every site of the run over the shard links; its wheel also carries
    /// each link's redial alarm, as `Link(shard)`.
    host: SiteHost<ShardLinks>,
}

impl Links for ClientReactor<'_> {
    type Peer = usize;

    fn table(&mut self) -> &mut ConnTable<usize> {
        &mut self.host.net.table
    }

    fn on_frame(&mut self, token: u64, lane: u16, msg: WireMsg, at: Instant) {
        let Some(&mut shard) = self.host.net.table.peer_mut(token) else {
            return; // closed by an earlier frame
        };
        let site = usize::from(lane);
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
                self.host.metrics.add(name, 1);
            }
            // Δ commands come from the host's own controller, never a link.
            WireMsg::Proto(msg)
                if site < self.cfg.runtime.n_clients
                    && !msg.is_request()
                    && !matches!(msg, Msg::DeltaUpdate { .. }) =>
            {
                let to = NodeId::new(self.shards + site);
                self.host.deliver(NodeId::new(shard), to, msg, at);
            }
            // A server never sends Hello, Bye, a request or a Δ command,
            // nor speaks on a lane no hosted site owns: treat any of it as
            // the link dying.
            _ => self.close(token),
        }
    }

    /// Deregisters a shard's connection and downgrades the link to `Down`,
    /// arming an immediate redial (backoff starts on *failed* dials) while
    /// any site still runs.
    fn close(&mut self, token: u64) {
        let Some(shard) = self.host.net.table.remove(token) else {
            return;
        };
        self.host.net.links[shard] = LinkState::Down { attempt: 0 };
        if !self.host.finished() {
            self.host.timers.arm(Instant::now(), SiteTimer::Link(shard));
        }
    }
}

/// The sites' transport: a send is queued on the sending site's lane of
/// the addressed shard's link — dead-lettering, counted, while the link is
/// down.
struct ShardLinks {
    shards: usize,
    /// Each connection's peer state is the shard it links to.
    table: ConnTable<usize>,
    links: Vec<LinkState>,
}

impl Transport for ShardLinks {
    /// A shard whose link is due a redial.
    type Timer = usize;

    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        let route = match self.links[to.index()] {
            LinkState::Up { token } => Some(token),
            LinkState::Down { .. } => None,
        };
        let lane = (from.index() - self.shards) as u16;
        self.table.send_on(route, lane, &WireMsg::Proto(msg));
    }
}

impl<'a> ClientReactor<'a> {
    /// Every site of `cfg`'s fleet, built but not started, behind shard
    /// links that are all down, with the run's `controller`, to publish
    /// the run's clock in `published`.
    fn new(
        cfg: &'a ReactorConfig,
        addrs: &'a [SocketAddr],
        published: &'a OnceLock<TickClock>,
        controller: Option<DeltaController>,
    ) -> Self {
        let rc = &cfg.runtime;
        let shards = rc.protocol.shards;
        let links = ShardLinks {
            shards,
            table: ConnTable::new(rc.tick),
            links: (0..shards)
                .map(|_| LinkState::Down { attempt: 0 })
                .collect(),
        };
        ClientReactor {
            cfg,
            shards,
            addrs,
            acked: vec![false; shards],
            published,
            host: SiteHost::new(rc, links, controller),
        }
    }

    /// Dials one shard link: blocking connect (instant on loopback —
    /// refused connections fail immediately), then the socket goes
    /// nonblocking into the table with the link's Hello queued; the
    /// pass-end flush sends it. The link is usable from here on, and the
    /// first time every shard's is, the run's clock is fixed and published
    /// and every site starts on it — so no opening op is taxed a retry
    /// round trip, and every request follows the publication.
    fn dial(&mut self, shard: usize) {
        let LinkState::Down { attempt } = self.host.net.links[shard] else {
            return; // a live connection beat the redial timer
        };
        let dialled = TcpStream::connect_timeout(&self.addrs[shard], READ_TIMEOUT)
            .ok()
            .and_then(|stream| {
                let _ = stream.set_nodelay(true);
                stream.set_nonblocking(true).ok()?;
                Some(stream)
            });
        let Some(token) = dialled.and_then(|stream| self.host.net.table.insert(stream, shard))
        else {
            return self.retry(shard, attempt);
        };
        self.host.net.links[shard] = LinkState::Up { token };
        let rc = &self.cfg.runtime;
        let hello = WireMsg::Hello {
            n_clients: rc.n_clients as u32,
            shard: shard as u32,
            protocol: rc.protocol,
        };
        self.host.net.table.queue(token, 0, &hello);
        let all_up = self
            .host
            .net
            .links
            .iter()
            .all(|link| matches!(link, LinkState::Up { .. }));
        if all_up && !self.host.started() {
            // The first to start on the cell fixes the run's clock.
            let at = Instant::now();
            let clock = *self
                .published
                .get_or_init(|| TickClock::started_at(at, self.cfg.runtime.tick));
            self.host.start(clock, at);
        }
    }

    /// Books a failed dial and schedules the next under the deterministic
    /// jittered [`redial_delay`] schedule.
    fn retry(&mut self, shard: usize, attempt: u32) {
        self.host.metrics.add(names::TCP_CONNECT_FAILED, 1);
        assert!(
            attempt < REDIAL_ATTEMPTS,
            "shard {shard} unreachable after {attempt} attempts"
        );
        let delay = redial_delay(attempt, link_seed(self.cfg.runtime.seed, shard));
        self.host.net.links[shard] = LinkState::Down {
            attempt: attempt + 1,
        };
        self.host
            .timers
            .arm(Instant::now() + delay, SiteTimer::Link(shard));
    }

    /// The event loop: one dial per shard, then timers + readiness until
    /// every site finishes; then a byte on every stream of `wake`, so the
    /// shard reactors wind down while this thread says an orderly goodbye
    /// on every live link. Returns the site host, the table's counters
    /// added, for the run's result.
    fn run(mut self, wake: &[UnixStream]) -> SiteHost<ShardLinks> {
        // This loop runs on the caller's thread: the guard hands the
        // thread back with the slack it came with.
        let _slack = TimerSlack::pin();
        let base = Instant::now();
        for shard in 0..self.shards {
            self.host.timers.arm(base, SiteTimer::Link(shard));
        }
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        let mut due = Vec::new();
        while !self.host.finished() {
            let now = Instant::now();
            self.host.timers.pop_due_into(now, &mut due);
            for &timer in &due {
                if let Some(shard) = self.host.fire(timer, now) {
                    self.dial(shard);
                }
            }
            let now = self.sweep();
            if self.host.finished() {
                break;
            }
            let now = self.flush_queued(now);
            let deadline = self.host.timers.next_deadline();
            let timeout = self.host.net.table.wait_timeout(deadline, now);
            let n = self.host.net.table.wait(&mut events, timeout, now);
            for ev in &events[..n] {
                let (bits, token) = (ev.events, ev.data);
                self.handle_conn_event(token, bits);
            }
        }
        for mut tx in wake {
            // Cannot fail short of a dead shard thread, which its join
            // reports.
            let _ = tx.write_all(&[0]);
        }
        // Orderly goodbye: a Bye on every live link, flushed as far as the
        // socket allows, then close. A blocked socket, or a shard that
        // stopped first, just loses its goodbye: a stopping shard
        // deregisters every connection itself.
        for token in self.host.net.table.tokens() {
            self.queue_and_flush(token, 0, &WireMsg::Bye);
            self.close(token);
        }
        self.host.net.table.report(&mut self.host.metrics);
        self.host
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
/// as the channel driver — identical seeds produce identical per-site
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

/// [`run_reactor`] with connection churn.
///
/// # Panics
///
/// As [`run_reactor`]; additionally if the fleet has more sites than a
/// frame header's lane can name (65 536, lanes `0..=u16::MAX`), if
/// [`RuntimeConfig::faults`] holds a rule the reactor cannot render —
/// anything but a shard's `Crash` and a `Partition` of exactly one
/// shard — or
/// if a listener cannot be bound.
#[must_use]
pub fn run_reactor_with(cfg: &ReactorConfig) -> RuntimeResult {
    let rc = &cfg.runtime;
    let shards = rc.protocol.shards;
    assert!(
        rc.n_clients <= usize::from(u16::MAX) + 1,
        "{} sites exceed the 65 536 lanes of a shard link",
        rc.n_clients
    );
    refuse_unrenderable(
        rc,
        "reactor",
        |isolated| matches!(isolated, [node] if *node < shards),
    );
    let controller = controller(rc);

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

    // One wake stream per shard: the shard reactor watches its `rx`, the
    // client reactor writes the `tx` once every site has finished.
    let (wake_txs, wake_rxs): (Vec<UnixStream>, Vec<UnixStream>) = (0..shards)
        .map(|_| UnixStream::pair().expect("wake socket pair"))
        .unzip();
    let shutdown = AtomicBool::new(false);
    // The run's clock: fixed by the client reactor when its last link is
    // up, read by every shard reactor.
    let published = OnceLock::new();
    let started = Instant::now();
    let shutdown_ref = &shutdown;
    let (addrs_ref, published_ref) = (&addrs[..], &published);
    let wake_rxs_ref = &wake_rxs[..];
    let (sites, shard_requests, thread_metrics) = std::thread::scope(|scope| {
        // Owned in here, so a client reactor that panics hangs the streams
        // up and the shards stop instead of the scope waiting on them.
        let wake_txs = wake_txs;
        let mut shard_workers = Vec::with_capacity(shards);
        for (shard, slot) in listeners.iter_mut().enumerate() {
            let listener = slot.take().expect("listener taken once");
            let addr = addrs_ref[shard];
            shard_workers.push(scope.spawn(move || {
                ShardReactor::new(shard, cfg, published_ref, listener, addr)
                    .run(&wake_rxs_ref[shard])
            }));
        }
        let churn_worker = (cfg.churn_dials > 0)
            .then(|| scope.spawn(move || churn_loop(cfg.churn_dials, addrs_ref, shutdown_ref)));
        // The client reactor runs on the scope's own thread: every
        // site in one evented loop, which wakes the shards as it ends.
        let sites = ClientReactor::new(cfg, addrs_ref, published_ref, controller).run(&wake_txs);
        shutdown.store(true, Ordering::Relaxed);
        let (shard_requests, mut thread_metrics): (Vec<u64>, Vec<Metrics>) = shard_workers
            .into_iter()
            .map(|w| w.join().expect("shard reactor panicked"))
            .unzip();
        if let Some(w) = churn_worker {
            thread_metrics.push(w.join().expect("churn thread panicked"));
        }
        (sites, shard_requests, thread_metrics)
    });
    // Judged after the join: judging while the woken shard threads exit
    // delayed their exit, and so `wall` (by about 1.5 % of a saturated
    // run, on a 2-core host).
    sites.finish_run(thread_metrics, shard_requests, started.elapsed())
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

    #[test]
    fn link_seed_is_deterministic_and_distinct_per_link() {
        assert_eq!(link_seed(7, 2), link_seed(7, 2));
        // Both coordinates matter: shard and run seed each
        // de-synchronise the schedule.
        assert_ne!(link_seed(7, 2), link_seed(7, 3));
        assert_ne!(link_seed(7, 2), link_seed(8, 2));
    }

    /// Runs shard 0 of `cfg` as a live reactor on a fresh loopback
    /// listener while `probe` talks to it, then stops it. The shard starts
    /// on the clock published in the cell `probe` is handed. `probe`
    /// returns the site host of whatever client side it ran. Returns the
    /// requests the shard's engine served and the run's metrics and
    /// history, assembled by `finish_run`.
    fn with_live_shard(
        cfg: &ReactorConfig,
        probe: impl FnOnce(SocketAddr, &OnceLock<TickClock>) -> SiteHost<ShardLinks>,
    ) -> (u64, RuntimeResult) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (wake_tx, wake_rx) = UnixStream::pair().unwrap();
        let published = OnceLock::new();
        let started = Instant::now();
        let ((served, shard_metrics), sites) = std::thread::scope(|scope| {
            // Owned in here, so a probe that panics hangs the stream up and
            // the shard stops instead of the scope waiting on it forever.
            let mut wake_tx = wake_tx;
            let shard =
                scope.spawn(|| ShardReactor::new(0, cfg, &published, listener, addr).run(&wake_rx));
            let sites = probe(addr, &published);
            wake_tx.write_all(&[0]).unwrap();
            (shard.join().expect("shard reactor panicked"), sites)
        });
        let r = sites.finish_run(vec![shard_metrics], Vec::new(), started.elapsed());
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
        let cfg = ReactorConfig::new(small(ProtocolKind::sc(), 39));
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
        let (_, r) = with_live_shard(&cfg, |addr, published| {
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
            // One write: the request cannot wait for the ack. A client
            // publishes the run's clock before it sends any request.
            let _ = published.set(TickClock::started_at(Instant::now(), rc.tick));
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
            let sites = ClientReactor::new(&cfg, &[addr], published, None).run(&[]);
            assert_eq!(sites.recorder.len(), 2 * 12);
            sites
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

    /// A shard reactor steps on the clock the client reactor publishes,
    /// not on one of its own: though the shard is built and its loop
    /// running before the client fixes the clock, its first reply's
    /// `server_now` is never ahead of the client's tick when the `read`
    /// that returned the reply comes back. One-microsecond ticks make a
    /// second epoch show.
    #[test]
    fn a_shards_first_reply_is_stamped_on_the_clients_clock() {
        let mut rc = small(ProtocolKind::sc(), 55);
        rc.tick = Duration::from_micros(1);
        let cfg = ReactorConfig::new(rc);
        let rc = &cfg.runtime;
        for _ in 0..5 {
            let (served, _) = with_live_shard(&cfg, |addr, published| {
                // The shard's set-up is over well before the client's.
                std::thread::sleep(Duration::from_millis(2));
                let mut stream = raw_dial(addr);
                let clock = TickClock::started_at(Instant::now(), rc.tick);
                assert!(published.set(clock).is_ok(), "nothing else fixes the clock");
                let hello = WireMsg::Hello {
                    n_clients: rc.n_clients as u32,
                    shard: 0,
                    protocol: rc.protocol,
                };
                let mut bytes = tc_wire::encode_frame(0, &hello);
                tc_wire::encode_frame_into(&mut bytes, 0, &fetch());
                stream.write_all(&bytes).unwrap();
                match read_reply(&mut stream) {
                    Ok((0, WireMsg::HelloAck { shard: 0 })) => {}
                    other => panic!("expected HelloAck on lane 0, got {other:?}"),
                }
                match read_reply(&mut stream) {
                    Ok((0, WireMsg::Proto(Msg::FetchRep { server_now, .. }))) => {
                        let read = clock.tick_at(Instant::now());
                        assert!(
                            server_now <= read,
                            "the shard stamped tick {server_now}, ahead of the client's tick {read} at the read"
                        );
                    }
                    other => panic!("expected a FetchRep on lane 0, got {other:?}"),
                }
                ClientReactor::new(&cfg, &[addr], published, None).host
            });
            assert_eq!(served, 1, "the fetch was served");
        }
    }

    /// Only the attached link speaks, only for a site in the id space, and
    /// only requests: a `Proto` before any Hello, on a lane past the fleet,
    /// or of a client-bound kind closes the connection before the engine
    /// sees it, and the shard serves the next link as before.
    #[test]
    fn a_proto_frame_on_an_unattached_lane_closes_the_link() {
        let cfg = ReactorConfig::new(small(ProtocolKind::sc(), 45));
        let rc = &cfg.runtime;
        let (served, r) = with_live_shard(&cfg, |addr, published| {
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
            let attach = || {
                let mut stream = raw_dial(addr);
                write_frame(&mut stream, 0, &hello).unwrap();
                match read_reply(&mut stream) {
                    Ok((0, WireMsg::HelloAck { shard: 0 })) => stream,
                    other => panic!("expected HelloAck on lane 0, got {other:?}"),
                }
            };
            let mut stream = attach();
            let push = WireMsg::Proto(Msg::InvalidatePush {
                object: tc_core::ObjectId::new(0),
                alpha_t: tc_clocks::Time::from_ticks(1),
                alpha_v: None,
            });
            write_frame(&mut stream, 0, &push).unwrap();
            assert!(
                read_reply(&mut stream).is_err(),
                "the shard must hang up on a client-bound message"
            );
            // The shard survived it: the next link is admitted, and says
            // goodbye.
            let mut stream = attach();
            write_frame(&mut stream, 0, &WireMsg::Bye).unwrap();
            assert!(read_reply(&mut stream).is_err(), "a Bye ends the link");
            ClientReactor::new(&cfg, &[addr], published, None).host
        });
        assert_eq!(served, 0, "no stray request may reach the engine");
        assert_eq!(r.counter(names::REACTOR_CONN_OPENED), 4);
        assert_eq!(r.counter(names::REACTOR_CONN_CLOSED), 4);
    }

    /// A shard never sends a request, and no Δ command comes over a link
    /// (the site host's own controller feeds those): a client reactor that
    /// reads either on a shard's link hangs that link up and redials,
    /// before any hosted engine sees the frame.
    #[test]
    fn a_request_from_a_shard_closes_its_link() {
        let cfg = ReactorConfig::new(small(ProtocolKind::sc(), 51));
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (addrs, published) = ([addr], OnceLock::new());
        let mut reactor = ClientReactor::new(&cfg, &addrs, &published, None);
        let command = WireMsg::Proto(Msg::DeltaUpdate {
            seq: 1,
            delta: Delta::from_ticks(5),
        });
        for frame in [fetch(), command] {
            reactor.dial(0);
            let LinkState::Up { token } = reactor.host.net.links[0] else {
                panic!("the dial to a bound listener must link");
            };
            reactor.on_frame(token, 0, frame, Instant::now());
            assert!(
                reactor.host.net.table.peer_mut(token).is_none(),
                "the link is closed"
            );
            assert!(matches!(
                reactor.host.net.links[0],
                LinkState::Down { attempt: 0 }
            ));
            assert!(reactor.host.recorder.is_empty(), "no op completed");
            assert_eq!(
                reactor.host.metrics.get(names::DELTA_APPLIED),
                0,
                "no site applied a Δ"
            );
        }
    }

    #[test]
    #[should_panic(expected = "65537 sites exceed the 65 536 lanes")]
    fn a_fleet_wider_than_the_lane_space_is_refused() {
        let mut cfg = small(ProtocolKind::sc(), 43);
        cfg.n_clients = 65_537;
        let _ = run_reactor(&cfg);
    }

    #[test]
    #[should_panic(expected = "the reactor driver cannot render Crash { node: 2 }")]
    fn a_site_crash_is_refused_by_the_reactor() {
        // Two shards: node 2 is the first site.
        let mut cfg = small(ProtocolKind::sc(), 53);
        cfg.protocol = cfg.protocol.with_shards(2);
        cfg.faults = tc_sim::FaultPlan::none().crash(tc_sim::Window::ticks(10, 20), 2);
        let _ = run_reactor(&cfg);
    }

    #[test]
    #[should_panic(expected = "the reactor driver cannot render Partition { isolated: [0, 1] }")]
    fn a_partition_of_two_nodes_is_refused_by_the_reactor() {
        let mut cfg = small(ProtocolKind::sc(), 47);
        cfg.protocol = cfg.protocol.with_shards(2);
        cfg.faults = tc_sim::FaultPlan::none().partition(tc_sim::Window::ticks(10, 20), vec![0, 1]);
        let _ = run_reactor_with(&ReactorConfig::new(cfg));
    }

    #[test]
    fn real_drivers_hand_the_calling_thread_back_with_its_timer_slack() {
        // Both real drivers host every site on the caller's thread with the
        // slack pinned; the caller must get its own value back. A fresh
        // thread, so the reading is this test's alone.
        for (driver, run, seed) in crate::runtime::tests::REAL_DRIVERS {
            std::thread::spawn(move || {
                let before = sys::timer_slack().expect("PR_GET_TIMERSLACK");
                let r = run(&small(ProtocolKind::sc(), seed));
                assert_eq!(r.ops_done, 2 * 12, "{driver}");
                assert_eq!(sys::timer_slack().unwrap(), before, "{driver}");
                // Every thread counted what its timers suffered.
                let fired = r.counter(names::TIMER_FIRED);
                assert!(
                    fired >= 2 * 12,
                    "{driver}: every op issue is a timer: {fired}"
                );
                assert!(r.metrics.counters.contains_key(names::TIMER_LATE_NS));
            })
            .join()
            .expect("caller thread");
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
        let mut rc = small(ProtocolKind::sc(), 47);
        rc.workload = Workload::new(4, 0.8, 0.7, (think, think));
        rc.ops_per_client = 100;
        let cfg = ReactorConfig::new(rc);
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (mut wake_tx, wake_rx) = UnixStream::pair().unwrap();
        let published = OnceLock::new();
        let started = Instant::now();
        let threads: [(&str, Metrics, Duration); 2] = std::thread::scope(|scope| {
            let shard = scope.spawn(|| {
                let cpu = sys::thread_cpu_time();
                let reactor = ShardReactor::new(0, &cfg, &published, listener, addr);
                let (_, metrics) = reactor.run(&wake_rx);
                ("shard", metrics, sys::thread_cpu_time() - cpu)
            });
            let cpu = sys::thread_cpu_time();
            let sites = ClientReactor::new(&cfg, &[addr], &published, None).run(&[]);
            assert_eq!(sites.recorder.len(), 2 * 100);
            let client = ("client", sites.metrics, sys::thread_cpu_time() - cpu);
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
        let mut cfg = small(ProtocolKind::sc(), 49);
        cfg.workload = Workload::new(4, 0.8, 0.7, (Delta::ZERO, Delta::ZERO));
        cfg.n_clients = 32;
        cfg.ops_per_client = 50;
        let r = run_reactor(&cfg);
        assert_eq!(r.ops_done, 32 * 50);
        assert!(r.counter(names::REACTOR_POLLS) > 0, "no wait polled");
    }
}
