//! `tc-store`: the real-time drivers of the PODC '99 reproduction's §5
//! lifetime engines.
//!
//! The protocol itself lives in `tc-lifetime` as sans-io state machines
//! (`ClientEngine`, `ServerEngine`): events in, effects out. This crate is
//! what turns those effects into sends and timers in real time, judged
//! by a live [`OnTimeMonitor`](tc_core::checker::OnTimeMonitor). The
//! engines' hosts, the effect executor, the control tick and the judged
//! result tail are `tc_lifetime::node`'s, the same code the simulator
//! steps; this crate holds what only real drivers have, one copy of each:
//!
//! * the tick clock (`TickClock`, in [`runtime`]) — the node core's time
//!   source: an `Instant` ticked down against one shared epoch, fixed
//!   once, at the instant the run's sites start;
//! * the site host (`SiteHost`) — every client site of a run in one
//!   loop, with their timer wheel, the run's recorder and counters, and
//!   the adaptive Δ controller ticked from that wheel; the shard host
//!   (`ShardHost`) — one shard, its engine timers and its counters. Each
//!   is owned by the one loop that runs it, so no step takes a lock;
//! * the channel loop (in [`run_threaded`]) — one loop on the calling
//!   thread serving the site host and every shard host: each host sends
//!   into its outbox, the loop moves every outbox onto one FIFO queue and
//!   delivers it in order, and sleeps towards the earliest deadline on any
//!   host's wheel;
//! * the connection table ([`reactor`]) — epoll, a generational slab of
//!   endpoints, readiness handling, queueing with one flush per connection
//!   per loop pass, the liveness sweep, a wait that polls while a link is
//!   busy;
//! * the timer wheel (`TimerWheel`) — a ring of per-tick buckets, every
//!   engine deadline being a tick boundary.
//!
//! Three entry points sit on top, all returning a [`RuntimeResult`]; the
//! two drivers differ only in their transport and the loop that waits on
//! it:
//!
//! | driver | transport | threads |
//! |---|---|---|
//! | [`run_threaded`] | in-process: an outbox per host, one FIFO queue between them | the caller's, for every site and every shard |
//! | [`run_reactor`] / [`run_reactor_with`] | loopback TCP + `tc-wire`, one link per shard, a lane per site | the sites on the caller's thread in an epoll loop, one epoll loop per shard |
//!
//! Identical seeds give identical per-site operation programs under every
//! driver and under the simulator (`tests/engine_equivalence.rs`).

// `deny`, not `forbid`: the reactor's epoll binding (`reactor::sys`) is
// the one scoped, checked-return exception — it opts in with a
// module-level `allow`, which `forbid` would make impossible.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod host;
pub mod reactor;
pub mod runtime;
mod wheel;

pub use reactor::{run_reactor, run_reactor_with, ReactorConfig};
pub use runtime::{run_threaded, LatencySummary, RuntimeConfig, RuntimeResult, MONITOR_SLACK};
