//! Histories, serializations and consistency checkers for *timed
//! consistency* — the primary contribution of Torres-Rojas, Ahamad &
//! Raynal, *Timed Consistency for Shared Distributed Objects* (PODC '99).
//!
//! # What lives here
//!
//! * [`Operation`], [`History`], [`HistoryBuilder`] — the paper's §2 model:
//!   read/write operations with *effective times*, per-site program orders,
//!   unique written values, and the derived reads-from relation.
//! * [`CausalOrder`] — Lamport causality adapted to shared objects.
//! * [`Serialization`] — legality, order-respecting and the *timed
//!   serialization* predicate (Definitions 1–2) for verifying witnesses.
//! * [`checker`] — decision procedures for LIN, SC, CC and the paper's
//!   timed criteria TSC (Definition 3) and TCC (Definition 4), plus the
//!   on-time analysis, minimal-Δ computation and hierarchy classification
//!   (Figure 4).
//! * [`examples`] — the paper's Figures 1, 5a and 6a, encoded exactly.
//! * [`generator`] — random and replica-simulated history generators for
//!   the experiments.
//! * [`stats`] — per-read staleness statistics.
//! * [`FxHashMap`] — the fast-hashed map the per-operation state of the
//!   monitor and the protocol engines keys on small integer ids.
//!
//! # Quickstart
//!
//! ```
//! use tc_clocks::Delta;
//! use tc_core::checker::{classify, min_delta};
//! use tc_core::History;
//!
//! let h = History::parse("w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220")?;
//! assert_eq!(min_delta(&h).ticks(), 120);
//! let c = classify(&h, Delta::from_ticks(120));
//! assert!(c.tsc.holds() && c.lin.fails());
//! # Ok::<(), tc_core::ParseHistoryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
pub mod checker;
pub mod examples;
pub mod generator;
mod hash;
mod history;
mod op;
mod serialization;
pub mod stats;

pub use causal::CausalOrder;
pub use hash::{FxHashMap, FxHasher};
pub use history::{History, HistoryBuilder, HistoryError, IntoObject, ParseHistoryError};
pub use op::{ObjectId, OpId, OpKind, Operation, SiteId, Value};
pub use serialization::Serialization;
