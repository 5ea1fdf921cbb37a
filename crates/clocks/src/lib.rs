//! Clock substrate for timed consistency.
//!
//! This crate implements every notion of time used by the paper *Timed
//! Consistency for Shared Distributed Objects* (Torres-Rojas, Ahamad &
//! Raynal, PODC '99):
//!
//! * **Physical time** — [`Time`] instants, the timed-consistency threshold
//!   [`Delta`], and the clock-synchronization bound [`Epsilon`] together with
//!   the *definitely-occurred-before* relation of the paper's Definition 2
//!   ([`time::definitely_before`]).
//! * **Logical time** — [`LamportClock`], [`VectorClock`] and the
//!   constant-size *plausible clocks* ([`RevClock`], [`CombClock`]) of
//!   Torres-Rojas & Ahamad (WDAG '96), all unified under the [`Timestamp`]
//!   and [`SiteClock`] traits with `join`/`meet` (the max/min computations of
//!   §5.3 of the paper).
//! * **ξ-maps** (Definition 5) — order-preserving maps from logical
//!   timestamps to ℝ used by the logical-clock approximation of timed causal
//!   consistency (§5.4): [`SumXi`], [`NormXi`].
//!
//! # Example
//!
//! ```
//! use tc_clocks::{ClockOrdering, SiteClock, Timestamp, VectorClock};
//!
//! let mut a = VectorClock::new(0, 2); // site 0 of 2
//! let mut b = VectorClock::new(1, 2); // site 1 of 2
//! let ta = a.tick();                  // event at site 0
//! let tb = b.observe(&ta);            // site 1 receives it
//! assert_eq!(ta.compare(&tb), ClockOrdering::Before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lamport;
mod ordering;
mod plausible;
pub mod time;
mod vector;
pub mod xi;

pub use lamport::{LamportClock, LamportStamp};
pub use ordering::{ClockOrdering, SiteClock, Timestamp};
pub use plausible::{CombClock, CombStamp, RevClock, RevStamp};
pub use time::{Delta, Epsilon, Time};
pub use vector::VectorClock;
pub use xi::{NormXi, SumXi, XiMap};
