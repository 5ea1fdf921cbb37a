//! A deterministic discrete-event simulator for distributed protocols.
//!
//! The PODC '99 paper's conclusion promises "detailed simulations … of
//! systems based on the consistency criteria described in this paper"; this
//! crate is that testbed. It provides:
//!
//! * [`World`] — the event-driven kernel: message delivery, timers, and
//!   per-node local clocks. Runs are fully deterministic in the seed.
//! * [`NetworkModel`] / [`LatencyModel`] — constant or uniform (always
//!   bounded) message latencies and optional FIFO channels.
//! * [`fault`] — the simulator's one fault vocabulary: message drops,
//!   duplication, reordering, partitions, clock skew, and crash–restart.
//!   A plan's drop and partition rules are the only source of message
//!   loss, and its `ClockSkew` offsets the only way a local clock leaves
//!   true time — so §3.2's ε is twice the plan's largest offset.
//! * [`workload`] — Zipf object popularity and operation-mix samplers.
//! * [`Metrics`] — named counters shared by every experiment.
//! * [`TraceRecorder`] — records the reads and writes a protocol executes
//!   into a [`tc_core::History`], so any simulated protocol can be
//!   *verified* against the paper's consistency checkers after the fact.
//!
//! Protocol code implements [`Process`] and interacts with the world only
//! through [`Context`], which is what keeps runs reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod metrics;
mod net;
mod trace;
pub mod workload;
mod world;

pub use fault::{FaultKind, FaultPlan, FaultRule, Scope, Window};
pub use metrics::{Metrics, MetricsSnapshot};
pub use net::{LatencyModel, NetworkModel};
pub use trace::{NetEvent, TraceRecorder};
pub use world::{Context, NodeId, Process, World, WorldConfig};
