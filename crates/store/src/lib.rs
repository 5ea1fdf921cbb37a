//! `tc-store`: the real-time drivers of the PODC '99 reproduction's §5
//! lifetime engines.
//!
//! The protocol itself lives in `tc-lifetime` as sans-io state machines
//! (`ClientEngine`, `ServerEngine`, the geo relay): events in, effects
//! out. This crate is what turns those effects into sends and timers on
//! real threads, judged by a live
//! [`OnTimeMonitor`](tc_core::checker::OnTimeMonitor). The hosts, the
//! effect executor, the control tick and the judged result tail are
//! `tc_lifetime::node`'s, the same code the simulator steps; this crate
//! holds what only real drivers have, one copy of each:
//!
//! * the tick clock (`TickClock`, in [`runtime`]) — the node core's time
//!   source: an `Instant` ticked down against one shared epoch;
//! * the node loop (`ChannelNode`) — timer wheel, blocking receive
//!   towards the next deadline, bounded drain, step, execute; clients end
//!   when their workload is done, every other node at an explicit stop on
//!   its inbox;
//! * the channel fleet builder (`run_channels`) — shards, relays (geo
//!   only), clients, the WAN courier (geo only), the control thread;
//! * the connection table ([`reactor`]) — epoll, a generational slab of
//!   endpoints, readiness handling, queueing with one flush per connection
//!   per loop pass, the liveness sweep, a wait that polls while a link is
//!   busy;
//! * the timer wheel (`TimerWheel`) — a ring of per-tick buckets, every
//!   engine deadline being a tick boundary;
//! * the control plane (`ControlPlane`) — when the node core's control
//!   tick runs, and where its command goes.
//!
//! Three entry points sit on top, all returning a [`RuntimeResult`]:
//!
//! | driver | transport | uses |
//! |---|---|---|
//! | [`run_threaded`] | in-process channels, one thread per node | the fleet builder's flat case: node loop, control plane on a sleeping thread |
//! | [`run_threaded_geo`] | the same, as a multi-region topology with a WAN courier | the fleet builder's geo case: relays and the courier on top |
//! | [`run_reactor`] / [`run_reactor_with`] | loopback TCP + `tc-wire`, two epoll threads, one link per shard | connection table, `Port` over it, control plane on a timer |
//!
//! Identical seeds give identical per-site operation programs under every
//! driver and under the simulator (`tests/engine_equivalence.rs`).

// `deny`, not `forbid`: the reactor's epoll binding (`reactor::sys`) is
// the one scoped, checked-return exception — it opts in with a
// module-level `allow`, which `forbid` would make impossible.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod geo;
mod jitter;
pub mod reactor;
pub mod runtime;
mod wheel;

pub use geo::{run_threaded_geo, GeoRuntimeConfig};
pub use reactor::{run_reactor, run_reactor_with, ListenerChaos, ReactorConfig};
pub use runtime::{run_threaded, LatencySummary, RuntimeConfig, RuntimeResult, MONITOR_SLACK};
