//! The wire protocol between client caches and the object server.

use tc_clocks::{ClockOrdering, Time, Timestamp, VectorClock};
use tc_core::{ObjectId, Value};

/// A version as stored by a shard and shipped in its replies: the value
/// plus its start-time stamps in whichever clock family the run uses.
#[derive(Clone, Debug, PartialEq)]
pub struct WireVersion {
    /// The stored value.
    pub value: Value,
    /// Physical start time `X^α`: the server-assigned stamp in the physical
    /// family, the writer's issue time in the causal family.
    pub alpha_t: Time,
    /// The causal family's stamp. `None` for a physical version, which is
    /// ordered by `alpha_t` alone, and for the initial version.
    pub causal: Option<CausalStamp>,
}

/// What a causal version carries beyond its value and `α_t`.
#[derive(Clone, Debug, PartialEq)]
pub struct CausalStamp {
    /// Logical start time: the writer's vector stamp.
    pub alpha_v: VectorClock,
    /// The writing client's node index. Concurrent versions are ordered by
    /// `(alpha_t, writer)`, last writer wins.
    pub writer: usize,
}

impl WireVersion {
    /// The version every object starts with: no stamp, so any causal write
    /// replaces it.
    #[must_use]
    pub fn initial() -> WireVersion {
        WireVersion {
            value: Value::INITIAL,
            alpha_t: Time::ZERO,
            causal: None,
        }
    }

    /// The vector stamp (causal family only).
    #[must_use]
    pub fn alpha_v(&self) -> Option<&VectorClock> {
        self.causal.as_ref().map(|c| &c.alpha_v)
    }

    /// Whether a causal write by `writer`, stamped `alpha_v` at `alpha_t`,
    /// replaces this version under the shard's last-writer-wins rule: a
    /// version without a stamp always yields, a causally later write wins,
    /// an earlier or equal one never does, and between concurrent ones the
    /// larger `(alpha_t, writer)` wins. Clients resolve a fetched version
    /// against their own unacked writes with this same rule.
    #[must_use]
    pub fn loses_to(&self, alpha_v: &VectorClock, alpha_t: Time, writer: usize) -> bool {
        let Some(current) = &self.causal else {
            return true;
        };
        match alpha_v.compare(&current.alpha_v) {
            ClockOrdering::After => true,
            ClockOrdering::Before | ClockOrdering::Equal => false,
            ClockOrdering::Concurrent => (alpha_t, writer) > (self.alpha_t, current.writer),
        }
    }
}

/// Server's answer to a validation request.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidateOutcome {
    /// The cached version is still current; its lifetime may be advanced
    /// to the server's reply time.
    StillValid,
    /// A newer version exists; here it is (saves the second round trip of
    /// a plain HTTP 304-style protocol).
    Newer(WireVersion),
}

/// Protocol messages.
///
/// Synchronous requests carry the client's request *epoch* — a per-client
/// counter bumped for every new (not retransmitted) request — which the
/// server echoes verbatim in the matching reply. The client discards any
/// reply whose epoch is not its current one, which is what makes the
/// protocol safe under message duplication and arbitrarily delayed replies:
/// a late duplicate of an old reply can never complete a newer operation
/// with stale data. Causal-family writes are asynchronous and are acked
/// cumulatively instead: a shard owes each writer its per-writer delivery
/// cursor, and the owed cursor rides as `acked` on the next reply the
/// shard sends that site ([`Msg::FetchRep`], [`Msg::ValidateRep`]; a
/// [`Msg::WriteAck`] goes only to physical-family writers, who are never
/// owed one), or leaves as a standalone [`Msg::WriteAckCausal`]
/// once it has waited half the writer's resend interval
/// ([`crate::ServerEngine::ack_wait`]), or at once for a write its writer
/// waits on. An ack is a fact about
/// the shard's store, not an answer to a request, so the client applies it
/// whatever the reply's epoch.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Client → server: cache miss on `object`, or the check of an old
    /// entry whose last check found it changed.
    FetchReq {
        /// The requested object.
        object: ObjectId,
        /// The client's request epoch (echoed in the reply).
        epoch: u64,
    },
    /// Server → client: the current version.
    FetchRep {
        /// The requested object.
        object: ObjectId,
        /// Its current version.
        version: WireVersion,
        /// Server's local clock at reply time — the honest ending time the
        /// client may record for the version (`X^ω`).
        server_now: Time,
        /// Epoch of the request being answered.
        epoch: u64,
        /// The cumulative causal ack this reply carries, if the shard owed
        /// the site one (see [`Msg::WriteAckCausal`]).
        acked: Option<u64>,
    },
    /// Client → server: is my cached version still current? Versions are
    /// identified by their (globally unique) value — the if-modified-since
    /// token of this protocol.
    ValidateReq {
        /// The cached object.
        object: ObjectId,
        /// Value of the cached version.
        value: Value,
        /// The client's request epoch (echoed in the reply). Epoch 0
        /// answers no operation: a client draining with causal writes
        /// unacked sends it for its ack, which the reply carries if it is
        /// owed, or which leaves as soon as the covering fsync lands.
        epoch: u64,
    },
    /// Server → client: validation verdict.
    ValidateRep {
        /// The validated object.
        object: ObjectId,
        /// Verdict (and replacement version if newer).
        outcome: ValidateOutcome,
        /// Server's local clock at reply time.
        server_now: Time,
        /// Epoch of the request being answered.
        epoch: u64,
        /// The cumulative causal ack this reply carries, if any.
        acked: Option<u64>,
    },
    /// Client → server: a physical-family write. The server assigns `α`,
    /// which orders it, and answers with a [`Msg::WriteAck`].
    WriteReq {
        /// The written object.
        object: ObjectId,
        /// The (globally unique) value.
        value: Value,
        /// The client's request epoch (echoed in the ack).
        epoch: u64,
    },
    /// Client → server: a causal-family write, stamped by its writer and
    /// shipped asynchronously; the cumulative ack ([`Msg::WriteAckCausal`],
    /// or one riding on a reply) only stops retransmission.
    WriteReqCausal {
        /// The written object.
        object: ObjectId,
        /// The (globally unique) value.
        value: Value,
        /// Writer's vector stamp.
        alpha_v: VectorClock,
        /// Writer's local physical time: the version's `α_t`.
        issued_at: Time,
        /// Position of this write in the writer's per-shard stream,
        /// starting at 1. Each shard's delivery cursor advances over *this*
        /// sequence, so in-order delivery survives the writer's stream being
        /// striped across an object-partitioned fleet. With one shard it
        /// equals the writer's own vector-clock entry.
        shard_seq: u64,
        /// The writer will wait on this write's ack: it drains after this
        /// write (its workload ends), the fleet has more than one shard (the
        /// cross-shard write barrier may hold the writer's next write for
        /// it), or the write is a resend.
        /// The shard sends that ack as soon as the write is durable instead
        /// of holding it for a reply to ride on.
        ack_now: bool,
    },
    /// Server → client: physical-family write acknowledgement carrying the
    /// server-assigned `α`.
    WriteAck {
        /// The written object.
        object: ObjectId,
        /// Server-assigned start time of the new version.
        alpha_t: Time,
        /// Epoch of the request being answered.
        epoch: u64,
    },
    /// Server → client: a standalone cumulative causal-family write
    /// acknowledgement, sent when no reply to the site left within
    /// [`crate::ServerEngine::ack_wait`] of the ack being owed, or at once
    /// for a write its writer waits on (`ack_now`). Purely a
    /// retransmission stopper — the writes were already applied locally and
    /// recorded by the writer; the ack says every write of this site to the
    /// sending shard with `shard_seq <= upto` is durable there, so the
    /// writer may drop them from its send window. The shard delivers a
    /// writer's stream in order ([`crate::channel`]), so one cursor covers
    /// the whole prefix, and a late or duplicated ack is harmless.
    WriteAckCausal {
        /// The shard's delivery cursor for the addressed writer.
        upto: u64,
    },
    /// Receiver → sender of an ordered stream ([`crate::channel`]): items
    /// past `upto` wait here for item `upto + 1`, which has not arrived.
    /// A shard sends it at once while it holds a writer's causal writes,
    /// and the writer resends that item within a round trip instead of at
    /// its deadline. It acks nothing.
    Gap {
        /// The receiver's cursor: the highest item delivered in order.
        upto: u64,
    },
    /// Server → clients: push-mode invalidation of `object` (any cached
    /// version with an older `α` is dead).
    InvalidatePush {
        /// The overwritten object.
        object: ObjectId,
        /// Start time of the new current version.
        alpha_t: Time,
        /// Vector stamp of the new current version (causal family).
        alpha_v: Option<VectorClock>,
    },
    /// Control plane → client: a Δ revision from the adaptive controller
    /// (see [`crate::control::DeltaController`]). The client enforces
    /// `delta` from receipt; commands are re-broadcast each controller
    /// tick, and `seq` makes application idempotent and reorder-safe (a
    /// stale command never overrides a newer one).
    DeltaUpdate {
        /// Monotone command sequence number.
        seq: u64,
        /// The Δ to enforce from receipt.
        delta: tc_clocks::Delta,
    },
}

impl Msg {
    /// Short stable label of the message kind, for metrics and timeline
    /// export.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Msg::FetchReq { .. } => "fetch_req",
            Msg::FetchRep { .. } => "fetch_rep",
            Msg::ValidateReq { .. } => "validate_req",
            Msg::ValidateRep { .. } => "validate_rep",
            Msg::WriteReq { .. } => "write_req",
            Msg::WriteReqCausal { .. } => "write_req_causal",
            Msg::WriteAck { .. } => "write_ack",
            Msg::WriteAckCausal { .. } => "write_ack_causal",
            Msg::Gap { .. } => "gap",
            Msg::InvalidatePush { .. } => "invalidate_push",
            Msg::DeltaUpdate { .. } => "delta_update",
        }
    }

    /// The cumulative causal ack this message carries: a standalone
    /// [`Msg::WriteAckCausal`]'s cursor, or one riding on a reply.
    #[must_use]
    pub fn acked(&self) -> Option<u64> {
        match self {
            Msg::WriteAckCausal { upto } => Some(*upto),
            Msg::FetchRep { acked, .. } | Msg::ValidateRep { acked, .. } => *acked,
            _ => None,
        }
    }

    /// Lets an owed causal ack ride on this message: sets `acked` on a
    /// reply and returns `true`; any other kind is left as it is.
    pub fn carry_ack(&mut self, upto: u64) -> bool {
        match self {
            Msg::FetchRep { acked, .. } | Msg::ValidateRep { acked, .. } => {
                *acked = Some(upto);
                true
            }
            _ => false,
        }
    }

    /// Whether this is a request a client sends a shard, as opposed to a
    /// reply, ack, gap report, push or Δ command bound for a client.
    #[must_use]
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            Msg::FetchReq { .. }
                | Msg::ValidateReq { .. }
                | Msg::WriteReq { .. }
                | Msg::WriteReqCausal { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_cloneable_and_comparable() {
        let m = Msg::FetchReq {
            object: ObjectId::from_letter('A'),
            epoch: 1,
        };
        assert_eq!(m.clone(), m);
        let v = WireVersion {
            value: Value::new(5),
            alpha_t: Time::from_ticks(10),
            causal: None,
        };
        let rep = Msg::FetchRep {
            object: ObjectId::from_letter('A'),
            version: v.clone(),
            server_now: Time::from_ticks(11),
            epoch: 1,
            acked: None,
        };
        assert_ne!(rep, m);
        assert_eq!(ValidateOutcome::Newer(v.clone()), ValidateOutcome::Newer(v));
        assert_ne!(
            ValidateOutcome::StillValid,
            ValidateOutcome::Newer(WireVersion::initial())
        );
    }

    /// Last-writer-wins between a stored version and a causal write: a
    /// version without a stamp (physical or initial) always yields, a
    /// causally later write wins and an earlier or equal one never does,
    /// and between concurrent ones `(alpha_t, writer)` decides — the
    /// version's own α and writer, no separate tie-break.
    #[test]
    fn a_causal_write_replaces_a_version_by_clock_then_time_then_writer() {
        let at = Time::from_ticks;
        let clock = |site, entries: &[u64]| VectorClock::from_entries(site, entries.to_vec());
        let stored = WireVersion {
            value: Value::new(5),
            alpha_t: at(10),
            causal: Some(CausalStamp {
                alpha_v: clock(0, &[2, 1]),
                writer: 3,
            }),
        };
        let later = clock(1, &[2, 2]);
        let earlier = clock(1, &[1, 1]);
        let concurrent = clock(1, &[1, 2]);
        assert!(WireVersion::initial().loses_to(&earlier, at(0), 0));
        assert!(stored.loses_to(&later, at(0), 0));
        assert!(!stored.loses_to(&earlier, at(99), 9));
        assert!(!stored.loses_to(&clock(1, &[2, 1]), at(99), 9));
        assert!(stored.loses_to(&concurrent, at(11), 0));
        assert!(!stored.loses_to(&concurrent, at(9), 9));
        assert!(stored.loses_to(&concurrent, at(10), 4));
        assert!(!stored.loses_to(&concurrent, at(10), 3));
    }
}
