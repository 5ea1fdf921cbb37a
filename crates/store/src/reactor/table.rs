//! The connection table both reactors share: an epoll instance, a
//! generational [`Slab`] of registered endpoints, and the per-connection
//! plumbing — readiness handling, queueing with one flush per connection
//! per loop pass, the liveness sweep — written once over the [`Links`]
//! trait, which names the only things a shard reactor and a client
//! reactor do differently with a connection: what a decoded frame means,
//! and what "close" means.
//!
//! Frames are *queued*, never written where they are produced: a loop
//! pass encodes everything its timers, sweep and events send onto the
//! connections' outboxes, and [`Links::flush_queued`] writes each queued
//! connection once, right before the pass waits. On a client link that
//! multiplexes every hosted site, that is one `write` for the whole pass's
//! traffic to a shard instead of one per frame. Coalescing never waits: the
//! bytes leave at the end of the pass that produced them.
//!
//! The wait itself ([`ConnTable::wait`]) has an explicit policy. A table
//! that moved bytes within the last [`POLL_WINDOW_TICKS`] ticks *polls* —
//! zero-timeout waits with a `yield` between them — because on a busy link
//! the answer to what it just wrote is a few microseconds away, and a
//! kernel sleep and wake-up would cost as much again on each side of every
//! round trip. Once the window has closed, it blocks until the next
//! deadline, as an idle loop should.

use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use tc_sim::metrics::names;
use tc_sim::Metrics;
use tc_wire::WireMsg;

use super::conn::{Close, Conn, READ_CHUNK};
use super::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use super::{HEARTBEAT, READ_TIMEOUT};

/// Interest every registered connection always has; `EPOLLOUT` is OR-ed
/// in only while the outbox holds unsent bytes.
const BASE_INTEREST: u32 = EPOLLIN | EPOLLRDHUP;

/// How often the liveness sweep walks every connection: half the
/// heartbeat period, so a keep-alive is never late by more than half its
/// period and chaos schedules are honoured, yet coarse enough that a busy
/// loop does not walk every connection on every pass.
const SWEEP_EVERY: Duration = Duration::from_millis(5);

/// How long after it last moved bytes a table polls instead of sleeping,
/// in the run's own ticks. A one-tick window measured lower `sat-mixed`
/// throughput than two (it closes before a late reply lands, which then
/// costs a sleep and a wake-up after all); a longer one only keeps a quiet
/// fleet's cores busy for longer.
const POLL_WINDOW_TICKS: u32 = 2;

/// A generational slot map: tokens are `(generation << 32) | slot`, so a
/// token outlives neither its connection nor a slot reuse.
pub(super) struct Slab<T> {
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
    pub(super) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
        }
    }

    pub(super) fn insert(&mut self, value: T) -> u64 {
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

    pub(super) fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let (slot, gen) = unpack(token);
        match self.slots.get_mut(slot) {
            Some(Some((g, value))) if *g == gen => Some(value),
            _ => None,
        }
    }

    pub(super) fn remove(&mut self, token: u64) -> Option<T> {
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
    pub(super) fn tokens(&self) -> Vec<u64> {
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
    /// Already listed in [`ConnTable::queued`] this pass.
    queued: bool,
}

/// Every registered connection of one reactor, each with the reactor's own
/// per-connection state `P`, plus the scratch reused across events so a
/// steady-state pass allocates nothing: the read buffer lent to every
/// connection, the frames one readable event decoded (each with the
/// instant its bytes were read), and the connections this pass queued
/// frames on.
pub(super) struct ConnTable<P> {
    pub(super) epoll: Epoll,
    conns: Slab<(Endpoint, P)>,
    scratch: Vec<u8>,
    frames: Vec<(Instant, u16, WireMsg)>,
    /// Connections with frames queued since the last
    /// [`Links::flush_queued`], each listed once.
    queued: Vec<u64>,
    /// When the next liveness sweep is due.
    next_sweep: Instant,
    /// When a connection last read or wrote a byte, and for how long after
    /// that [`ConnTable::wait`] polls.
    last_io: Instant,
    poll_window: Duration,
    /// `write` calls issued, frames queued, keep-alives queued, protocol
    /// frames dropped for want of a route, and waits that polled or slept,
    /// counted here — one table, one thread, no lock — and added to the
    /// run's metrics once by [`ConnTable::report`]. Frames over writes is
    /// the batching a run achieved.
    writes: u64,
    frames_out: u64,
    heartbeats: u64,
    dropped: u64,
    polls: u64,
    sleeps: u64,
}

impl<P> ConnTable<P> {
    /// An empty table for a run whose protocol tick lasts `tick`.
    pub(super) fn new(tick: Duration) -> Self {
        let now = Instant::now();
        ConnTable {
            epoll: Epoll::new().expect("epoll create"),
            conns: Slab::new(),
            scratch: vec![0; READ_CHUNK],
            frames: Vec::new(),
            queued: Vec::new(),
            next_sweep: now,
            last_io: now,
            poll_window: tick * POLL_WINDOW_TICKS,
            writes: 0,
            frames_out: 0,
            heartbeats: 0,
            dropped: 0,
            polls: 0,
            sleeps: 0,
        }
    }

    /// Registers a connected, nonblocking `stream`. `None` if epoll
    /// refused the registration (the stream is dropped).
    pub(super) fn insert(&mut self, stream: TcpStream, peer: P) -> Option<u64> {
        let fd = stream.as_raw_fd();
        let endpoint = Endpoint {
            stream,
            conn: Conn::new(Instant::now()),
            interest: BASE_INTEREST,
            queued: false,
        };
        let token = self.conns.insert((endpoint, peer));
        if self.epoll.add(fd, BASE_INTEREST, token).is_err() {
            self.conns.remove(token);
            return None;
        }
        Some(token)
    }

    /// Deregisters and drops a connection, handing back its peer state;
    /// `None` for a stale token.
    pub(super) fn remove(&mut self, token: u64) -> Option<P> {
        let (ep, peer) = self.conns.remove(token)?;
        let _ = self.epoll.del(ep.stream.as_raw_fd());
        Some(peer)
    }

    /// The reactor's own state for a live connection.
    pub(super) fn peer_mut(&mut self, token: u64) -> Option<&mut P> {
        self.conns.get_mut(token).map(|(_, peer)| peer)
    }

    /// A snapshot of the live tokens, for passes that may close entries.
    pub(super) fn tokens(&self) -> Vec<u64> {
        self.conns.tokens()
    }

    /// The epoll timeout for one loop pass: the earliest of the next timer
    /// deadline and the next liveness sweep.
    pub(super) fn wait_timeout(&self, next_deadline: Option<Instant>, now: Instant) -> Duration {
        next_deadline
            .map_or(self.next_sweep, |deadline| deadline.min(self.next_sweep))
            .saturating_duration_since(now)
    }

    /// Waits up to `timeout` from `now` for readiness events, filling
    /// `events` and returning how many arrived.
    ///
    /// While a connection moved bytes within the poll window, the wait
    /// polls: a zero-timeout `epoll` wait, and a `yield` before the next,
    /// until an event arrives, the timeout runs out or the window closes.
    /// The `yield` is what keeps polling cheap on a host with fewer cores
    /// than busy threads: a poller hands its core to whichever runnable
    /// thread shares it — the peer it waits for, among others — instead of
    /// spinning it away. Whatever is left of the timeout once the window
    /// has closed is slept in the kernel. A wait that slept counts one
    /// [`names::REACTOR_SLEEPS`]; one that polled and never slept, one
    /// [`names::REACTOR_POLLS`]; one with nothing left to wait for and its
    /// window already closed, neither.
    pub(super) fn wait(
        &mut self,
        events: &mut [EpollEvent],
        timeout: Duration,
        now: Instant,
    ) -> usize {
        let end = now + timeout;
        let poll_end = end.min(self.last_io + self.poll_window);
        let (mut at, mut polled) = (now, false);
        while at < poll_end {
            polled = true;
            let n = self.epoll.wait(events, Duration::ZERO).expect("epoll wait");
            if n > 0 {
                self.polls += 1;
                return n;
            }
            std::thread::yield_now();
            at = Instant::now();
        }
        let rest = end.saturating_duration_since(at);
        if !rest.is_zero() {
            self.sleeps += 1;
        } else if polled {
            self.polls += 1;
        }
        self.epoll.wait(events, rest).expect("epoll wait")
    }

    /// Adds this table's counters ([`names::REACTOR_WRITES`],
    /// [`names::REACTOR_FRAMES_OUT`], [`names::TCP_HEARTBEAT`],
    /// [`names::TCP_SEND_DROPPED`], [`names::REACTOR_POLLS`],
    /// [`names::REACTOR_SLEEPS`]) to `metrics`. Called once, when the
    /// owning reactor thread exits.
    pub(super) fn report(&self, metrics: &mut Metrics) {
        metrics.add(names::REACTOR_WRITES, self.writes);
        metrics.add(names::REACTOR_FRAMES_OUT, self.frames_out);
        metrics.add(names::TCP_HEARTBEAT, self.heartbeats);
        metrics.add(names::TCP_SEND_DROPPED, self.dropped);
        metrics.add(names::REACTOR_POLLS, self.polls);
        metrics.add(names::REACTOR_SLEEPS, self.sleeps);
    }

    /// Encodes a frame on `lane` onto connection `token`'s outbox; the
    /// pass's [`Links::flush_queued`] writes it. `false` for a dead
    /// connection. A queued frame whose connection dies before or during
    /// that flush is lost like any frame in flight.
    pub(super) fn queue(&mut self, token: u64, lane: u16, msg: &WireMsg) -> bool {
        let Some((ep, _)) = self.conns.get_mut(token) else {
            return false;
        };
        ep.conn.queue(lane, msg);
        self.frames_out += 1;
        if !ep.queued {
            ep.queued = true;
            self.queued.push(token);
        }
        true
    }

    /// Queues an engine's frame on `route` — the connection its
    /// destination is attached through, `None` while there is none — or
    /// drops it, counted, when it cannot be queued: the engines' retry
    /// timers own recovery, as they do for any lost message.
    pub(super) fn send_on(&mut self, route: Option<u64>, lane: u16, msg: &WireMsg) {
        if !route.is_some_and(|token| self.queue(token, lane, msg)) {
            self.dropped += 1;
        }
    }

    /// Reads and/or flushes one connection as its readiness `bits` ask,
    /// leaving the decoded frames, stamped, in `self.frames`. `None` for a
    /// stale token; `Some(true)` if the connection died.
    fn pump(&mut self, token: u64, bits: u32) -> Option<bool> {
        let (ep, _) = self.conns.get_mut(token)?;
        let mut verdict = None;
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
            verdict = ep
                .conn
                .on_readable(&mut ep.stream, &mut self.scratch, &mut self.frames);
        }
        if verdict.is_none() && bits & EPOLLOUT != 0 {
            verdict = flush(&self.epoll, ep, token, Instant::now(), &mut self.writes);
        }
        self.last_io = self.last_io.max(ep.conn.last_read.max(ep.conn.last_write));
        Some(verdict.is_some())
    }
}

/// Pushes outbox bytes as far as the socket allows, counting the `write`
/// calls into `writes`, and re-syncs `EPOLLOUT` interest with the outbox
/// state. `Some` means the connection died writing.
fn flush(
    epoll: &Epoll,
    ep: &mut Endpoint,
    token: u64,
    now: Instant,
    writes: &mut u64,
) -> Option<Close> {
    if let Some(verdict) = ep.conn.on_writable(&mut ep.stream, now, writes) {
        return Some(verdict);
    }
    let want = if ep.conn.wants_write() {
        BASE_INTEREST | EPOLLOUT
    } else {
        BASE_INTEREST
    };
    if want != ep.interest && epoll.modify(ep.stream.as_raw_fd(), want, token).is_ok() {
        ep.interest = want;
    }
    None
}

/// A reactor as its connection table sees it. The required methods are
/// what differs between the shard and the client side; the provided ones
/// are the plumbing that does not.
pub(super) trait Links {
    /// The reactor's per-connection state.
    type Peer;

    fn table(&mut self) -> &mut ConnTable<Self::Peer>;

    /// Acts on one frame of connection `token`, decoded from `lane` (the
    /// frame header's routing field: the site a frame speaks for on a
    /// client↔shard link) out of bytes read at `at`. An earlier frame of
    /// the same batch may already have closed the connection.
    fn on_frame(&mut self, token: u64, lane: u16, msg: WireMsg, at: Instant);

    /// Tears down connection `token` (a no-op for a stale token) with
    /// whatever that means on this side: unrouting the sites it carried,
    /// or downgrading a shard link and arming its redial.
    fn close(&mut self, token: u64);

    /// Reacts to readiness bits for one connection token. Frames decoded
    /// before an EOF/error still count.
    fn handle_conn_event(&mut self, token: u64, bits: u32) {
        let Some(died) = self.table().pump(token, bits) else {
            return; // closed earlier in this same event batch
        };
        let mut frames = std::mem::take(&mut self.table().frames);
        for (at, lane, msg) in frames.drain(..) {
            self.on_frame(token, lane, msg, at);
        }
        self.table().frames = frames;
        if died {
            self.close(token);
        }
    }

    /// Writes every connection queued on since the last call, once each,
    /// closing those that die writing. Called once per loop pass, right
    /// before the wait; `now` stamps the writes. Returns the instant to
    /// compute the wait from: `now` if nothing was queued, else a fresh
    /// reading.
    fn flush_queued(&mut self, now: Instant) -> Instant {
        if self.table().queued.is_empty() {
            return now;
        }
        let mut queued = std::mem::take(&mut self.table().queued);
        for token in queued.drain(..) {
            let table = self.table();
            let Some((ep, _)) = table.conns.get_mut(token) else {
                continue; // closed after queueing
            };
            ep.queued = false;
            let died = flush(&table.epoll, ep, token, now, &mut table.writes).is_some();
            table.last_io = table.last_io.max(ep.conn.last_write);
            if died {
                self.close(token);
            }
        }
        self.table().queued = queued;
        Instant::now()
    }

    /// Queues a frame and writes the connection at once, as far as the
    /// socket allows — for the frames a close follows (`HelloReject`,
    /// `Bye`), which the pass-end flush would never see. Best effort: the
    /// caller closes the connection next, whether or not the write went
    /// through.
    fn queue_and_flush(&mut self, token: u64, lane: u16, msg: &WireMsg) {
        let table = self.table();
        if table.queue(token, lane, msg) {
            let (ep, _) = table.conns.get_mut(token).expect("queued on a live token");
            flush(&table.epoll, ep, token, Instant::now(), &mut table.writes);
        }
    }

    /// Runs the read-timeout + heartbeat sweep over every live connection
    /// if it is due. Returns the instant to compute this pass's wait from.
    fn sweep(&mut self) -> Instant {
        let now = Instant::now();
        if now < self.table().next_sweep {
            return now;
        }
        for token in self.table().tokens() {
            let Some((ep, _)) = self.table().conns.get_mut(token) else {
                continue;
            };
            if now.duration_since(ep.conn.last_read) > READ_TIMEOUT {
                self.close(token);
            } else if now.duration_since(ep.conn.last_write) >= HEARTBEAT {
                // A keep-alive speaks for the connection, not a site:
                // either end ignores its lane.
                let table = self.table();
                table.heartbeats += 1;
                table.queue(token, 0, &WireMsg::Heartbeat);
            }
        }
        self.table().next_sweep = now + SWEEP_EVERY;
        Instant::now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
