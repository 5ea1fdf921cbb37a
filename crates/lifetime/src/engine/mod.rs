//! Sans-io protocol engines: the §5 lifetime state machines as pure
//! event→effect transducers.
//!
//! [`ClientEngine`] and [`ServerEngine`] hold *all* protocol state and
//! logic, but perform no I/O: they never touch a network, a clock, a
//! recorder, or a timer wheel. A *driver* feeds them [`Event`]s and
//! executes the [`Effect`]s they emit. Every driver steps them through
//! the same hosts and effect executor ([`crate::node`]), and three exist:
//!
//! * the deterministic simulator harness ([`crate::run_with`]), which
//!   executes effects into a [`tc_sim::World`];
//! * the threaded runtime (`tc_store::runtime`), which runs the *same*
//!   engine types over OS threads, channels, and `Instant`-based clocks;
//!   and
//! * the evented reactor (`tc_store::reactor`), which hosts them in two
//!   epoll loops over loopback TCP and `tc-wire` frames.
//!
//! # Why engines may not read clocks
//!
//! Timed consistency is *about* time: rule 3 (`Context_i := max(t_i − Δ,
//! Context_i)`) and the checking-time sweeps are clock-driven, so a hidden
//! clock read inside the protocol would make its behaviour depend on who is
//! asking. By forcing every clock sample through [`Event::Now`], a driver
//! decides exactly which instant the protocol sees — the simulator injects
//! its virtual (possibly skewed) per-node clock, the threaded runtime
//! injects a ticked-down `Instant`, and a test can inject anything at all.
//! The same argument banishes randomness and fresh-value allocation into
//! [`Inputs`]: the simulator routes them to the world's seeded RNG and the
//! shared trace counter (keeping runs byte-identical with the pre-engine
//! implementation), while the threaded runtime gives every client a private
//! seeded stream so cross-driver runs stay comparable.
//!
//! Determinism contract: given the same construction parameters, the same
//! event sequence, and the same [`Inputs`] draws, an engine emits the same
//! effect sequence. Everything observable — messages, timers, recorded
//! operations, metrics — leaves through the effect vector, in order.

use rand::rngs::StdRng;
use tc_clocks::{Delta, Time, VectorClock};
use tc_core::{ObjectId, SiteId, Value};

use crate::msg::Msg;

mod client;
mod server;
mod shard;

pub use client::ClientEngine;
pub use server::{ServerEngine, TIMER_WAL_FLUSH};
pub use shard::{splitmix64, ShardMap};

/// Timer token for "issue the next planned operation". Exposed so drivers
/// can recognize op-issue instants (the threaded runtime starts its
/// per-operation latency clock here).
pub const TIMER_NEXT_OP: u64 = 0;

/// Base of the resend deadline tokens of a send window
/// ([`crate::channel`]), a client's causal write stream to a shard. The
/// timer waiting for deadline `t` has token `TIMER_RESEND + t`, and it is
/// live while its window waits for that deadline
/// ([`ClientEngine::timer_is_live`]). Request-retry timers
/// use the request epoch (which starts at 1) as their token, and no run
/// reaches 2⁶² requests or ticks, so the ranges never collide.
pub const TIMER_RESEND: u64 = 1 << 62;

/// Base of the server's per-client ack deadline tokens: the causal ack a
/// shard owes client node `c` goes standalone on token
/// `TIMER_ACK_BASE + c` if no reply carried it first
/// ([`ServerEngine::ack_wait`]). Below the [`TIMER_RESEND`] range.
pub const TIMER_ACK_BASE: u64 = 1 << 61;

/// A clock sample injected by the driver via [`Event::Now`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Now {
    /// The engine's own address in the driver's id space. Injected rather
    /// than constructed-in because a simulator node learns its id only
    /// after being added to the world; the causal LWW tie-break
    /// arbitration needs it.
    pub me: tc_sim::NodeId,
    /// The node's local clock — what the protocol may timestamp with.
    pub local: Time,
    /// Ground-truth time: what recorded operations carry (the checkers
    /// judge real staleness, so traces must carry honest times) and what
    /// an armed timer counts in, so a deadline an engine reckons against
    /// it falls when the timer does.
    pub truth: Time,
}

/// What a driver can tell an engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A clock sample. Must precede the first lifecycle event and should
    /// precede every activation: engines time-stamp with the *latest*
    /// injected sample and never read a clock themselves.
    Now(Now),
    /// The node is starting for the first time.
    Start,
    /// The node restarted after a crash: volatile state is gone, durable
    /// state drives recovery.
    Restart,
    /// A message arrived.
    Message {
        /// The sender.
        from: tc_sim::NodeId,
        /// The payload.
        msg: Msg,
    },
    /// A timer set via [`Effect::SetTimer`] fired.
    Timer {
        /// The token the timer was armed with.
        token: u64,
    },
}

/// A trace-recording instruction (the sans-io form of what the sim-bound
/// implementation did through `Rc<RefCell<TraceRecorder>>`).
#[derive(Clone, Debug, PartialEq)]
pub enum RecordOp {
    /// A write by `site` became part of the execution at `at`.
    Write {
        /// The logical site (client index).
        site: SiteId,
        /// The written object.
        object: ObjectId,
        /// The (globally unique) written value.
        value: Value,
        /// Effective time of the write.
        at: Time,
        /// The writer's vector stamp (causal family; judged by the
        /// logical-clock checkers).
        logical: Option<VectorClock>,
    },
    /// A read by `site` returned `value` at `at`.
    Read {
        /// The logical site (client index).
        site: SiteId,
        /// The read object.
        object: ObjectId,
        /// The observed value.
        value: Value,
        /// Effective time of the read.
        at: Time,
        /// The reader's vector stamp (causal family).
        logical: Option<VectorClock>,
    },
}

impl RecordOp {
    /// Appends this operation to `recorder` — the one place a recording
    /// instruction is interpreted, whichever driver holds the recorder.
    #[inline]
    pub fn apply(self, recorder: &mut tc_sim::TraceRecorder) {
        match self {
            RecordOp::Write {
                site,
                object,
                value,
                at,
                logical: Some(logical),
            } => recorder.record_write_stamped(site, object, value, at, logical),
            RecordOp::Write {
                site,
                object,
                value,
                at,
                logical: None,
            } => recorder.record_write(site, object, value, at),
            RecordOp::Read {
                site,
                object,
                value,
                at,
                logical: Some(logical),
            } => recorder.record_read_stamped(site, object, value, at, logical),
            RecordOp::Read {
                site,
                object,
                value,
                at,
                logical: None,
            } => recorder.record_read(site, object, value, at),
        }
    }
}

/// What an engine asks its driver to do. Effects must be executed in
/// emission order; the simulator adapter's byte-identity with the
/// pre-engine implementation depends on it.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Transmit `msg` to `to`.
    Send {
        /// Destination node.
        to: tc_sim::NodeId,
        /// The payload.
        msg: Msg,
    },
    /// Arm a timer: deliver [`Event::Timer`] with `token` after `after`.
    SetTimer {
        /// Delay until the timer fires.
        after: Delta,
        /// Token echoed back in the event.
        token: u64,
    },
    /// Append an operation to the run's trace.
    Record(RecordOp),
    /// Add `add` to the counter `name` (a `tc_sim::metrics::names` const).
    Metric {
        /// Counter name.
        name: &'static str,
        /// Increment.
        add: u64,
    },
}

impl Effect {
    pub(crate) fn metric(name: &'static str) -> Effect {
        Effect::Metric { name, add: 1 }
    }
}

/// The two non-deterministic inputs a client engine consumes, abstracted so
/// each driver can bind them to its own sources.
///
/// The simulator binds `rng` to the world's seeded generator and
/// `next_value` to the shared trace counter — reproducing the pre-engine
/// draw order exactly. The threaded runtime (and the cross-driver
/// equivalence tests) bind both to [`PrivateSources`], whose draws depend
/// only on the client itself.
pub trait Inputs {
    /// The randomness source for workload sampling.
    fn rng(&mut self) -> &mut StdRng;
    /// A fresh value, globally unique across the run.
    fn next_value(&mut self) -> Value;
}

/// Lets a driver lend its sources as `&mut dyn Inputs`.
impl<I: Inputs + ?Sized> Inputs for &mut I {
    fn rng(&mut self) -> &mut StdRng {
        (**self).rng()
    }

    fn next_value(&mut self) -> Value {
        (**self).next_value()
    }
}

/// Per-client deterministic input sources: a seeded private RNG plus a
/// striped value allocator (`k`-th write of site `i` among `n` clients gets
/// value `k·n + i + 1` — globally unique with no coordination).
///
/// Because draws depend only on `(seed, site, n_clients)`, two drivers
/// giving their clients the same parameters produce the same per-site
/// operation sequences regardless of scheduling — the property the
/// engine-equivalence suite asserts.
#[derive(Clone, Debug)]
pub struct PrivateSources {
    rng: StdRng,
    site: usize,
    n_clients: usize,
    writes: u64,
}

impl PrivateSources {
    /// Sources for client `site` of `n_clients`, derived from `base_seed`
    /// via [`client_rng_seed`].
    #[must_use]
    pub fn new(base_seed: u64, site: usize, n_clients: usize) -> Self {
        use rand::SeedableRng;
        PrivateSources {
            rng: StdRng::seed_from_u64(client_rng_seed(base_seed, site)),
            site,
            n_clients,
            writes: 0,
        }
    }
}

impl Inputs for PrivateSources {
    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn next_value(&mut self) -> Value {
        let v = Value::new(self.writes * self.n_clients as u64 + self.site as u64 + 1);
        self.writes += 1;
        v
    }
}

/// The per-client RNG seed both drivers derive from a run's base seed, so
/// their clients sample identical operation sequences.
#[must_use]
pub fn client_rng_seed(base_seed: u64, site: usize) -> u64 {
    // SplitMix64-style spread keeps neighbouring sites' streams unrelated.
    base_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(site as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn private_sources_stripe_values_disjointly() {
        let mut a = PrivateSources::new(7, 0, 3);
        let mut b = PrivateSources::new(7, 1, 3);
        let va: Vec<_> = (0..4).map(|_| a.next_value()).collect();
        let vb: Vec<_> = (0..4).map(|_| b.next_value()).collect();
        assert_eq!(va, [1, 4, 7, 10].map(Value::new));
        assert_eq!(vb, [2, 5, 8, 11].map(Value::new));
    }

    #[test]
    fn private_sources_are_reproducible() {
        let mut a = PrivateSources::new(42, 2, 4);
        let mut b = PrivateSources::new(42, 2, 4);
        let xa: u64 = a.rng().gen();
        let xb: u64 = b.rng().gen();
        assert_eq!(xa, xb);
        assert_eq!(a.next_value(), b.next_value());
    }

    #[test]
    fn client_seeds_differ_per_site() {
        let seeds: std::collections::HashSet<_> = (0..16).map(|s| client_rng_seed(99, s)).collect();
        assert_eq!(seeds.len(), 16);
    }
}
