//! # timed-consistency
//!
//! A reproduction of *Timed Consistency for Shared Distributed Objects*
//! (Torres-Rojas, Ahamad & Raynal, PODC '99) as a family of Rust crates,
//! re-exported here as one facade:
//!
//! * [`clocks`] — logical clocks (Lamport, vector, plausible), ξ-maps, and
//!   physical-clock models with an ε synchronization bound.
//! * [`core`] — operations, histories, serializations, and checkers for
//!   LIN, SC, CC and the paper's timed criteria TSC / TCC.
//! * [`sim`] — a deterministic discrete-event simulator (network, drifting
//!   clocks, workloads).
//! * [`lifetime`] — the §5 lifetime-based consistency protocols (SC, TSC,
//!   CC, TCC, and the logical-clock TCC approximation).
//! * [`store`] — the real-time drivers of those protocols (threads over
//!   channels, epoll over TCP, geo), judged by a live on-time monitor.
//! * [`durable`] — a WAL+snapshot shard storage backend: crash–restart
//!   recovers durable state by replay instead of forgetting it.
//!
//! ## Quickstart
//!
//! ```
//! use timed_consistency::core::examples::fig5_execution;
//! use timed_consistency::core::checker::{satisfies_tsc};
//! use timed_consistency::clocks::Delta;
//!
//! let history = fig5_execution();
//! // Figure 5's execution is TSC only once Δ exceeds 96 ticks.
//! assert!(!satisfies_tsc(&history, Delta::from_ticks(50)).holds());
//! assert!(satisfies_tsc(&history, Delta::from_ticks(97)).holds());
//! ```

#![forbid(unsafe_code)]

pub use tc_clocks as clocks;
pub use tc_core as core;
pub use tc_durable as durable;
pub use tc_lifetime as lifetime;
pub use tc_sim as sim;
pub use tc_store as store;
pub use tc_trace as trace;
pub use tc_wire as wire;

// The README's Rust blocks compile and run with the doctests, so the
// quick-start cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
