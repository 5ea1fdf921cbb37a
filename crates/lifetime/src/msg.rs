//! The wire protocol between client caches and the object server.

use serde::{Deserialize, Serialize};
use tc_clocks::{Time, VectorClock};
use tc_core::{ObjectId, Value};

/// A version as shipped over the wire: the value plus its start-time
/// timestamps in whichever clock family the run uses.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WireVersion {
    /// The stored value.
    pub value: Value,
    /// Physical start time `X^α` (server-assigned in the physical family;
    /// the writer's local stamp in the causal family).
    pub alpha_t: Time,
    /// Logical start time (causal family only).
    pub alpha_v: Option<VectorClock>,
    /// The server's last-writer-wins tie-break key for this version,
    /// `(issue time, writer node)`. Lets a client resolve a fetched
    /// version against its own still-unacked writes with *exactly* the
    /// arbitration the server will apply once they land.
    pub tiebreak: (Time, usize),
}

/// Server's answer to a validation request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
/// shard sends that site ([`Msg::FetchRep`], [`Msg::ValidateRep`],
/// [`Msg::WriteAck`]), or leaves as a standalone [`Msg::WriteAckCausal`]
/// once it has waited [`crate::engine::ACK_DELAY`]. An ack is a fact about
/// the shard's store, not an answer to a request, so the client applies it
/// whatever the reply's epoch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Msg {
    /// Client → server: cache miss on `object`.
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
        /// The client's request epoch (echoed in the reply).
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
    /// Client → server: a write. In the physical family the server assigns
    /// `α` and acks; in the causal family `alpha_v` carries the writer's
    /// vector stamp and the ack only stops retransmission.
    WriteReq {
        /// The written object.
        object: ObjectId,
        /// The (globally unique) value.
        value: Value,
        /// Writer's vector stamp (causal family).
        alpha_v: Option<VectorClock>,
        /// Writer's local physical time (used as a tie-breaking hint and as
        /// the causal-family `α_t`).
        issued_at: Time,
        /// The client's request epoch (physical family; causal writes are
        /// asynchronous and send 0).
        epoch: u64,
        /// Position of this write in the writer's per-shard stream,
        /// starting at 1 (causal family; physical writes send 0). Each
        /// shard's delivery cursor advances over *this* sequence, so the
        /// gap check survives the writer's stream being striped across an
        /// object-partitioned fleet. With one shard it equals the writer's
        /// own vector-clock entry.
        shard_seq: u64,
        /// Causal family: the writer drains after this write — it ends
        /// the writer's workload, or a region migration falls due — and so
        /// will wait on its ack. The shard sends that ack as soon as the
        /// write is durable instead of holding it for a reply to ride on.
        /// Physical writes send `false` (their ack is the reply).
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
        /// The cumulative causal ack this reply carries, if any.
        acked: Option<u64>,
    },
    /// Server → client: a standalone cumulative causal-family write
    /// acknowledgement, sent when no reply to the site left within
    /// [`crate::engine::ACK_DELAY`] of the ack being owed, or at once for
    /// a write its writer waits on (`ack_now`). Purely a
    /// retransmission stopper — the writes were already applied locally and
    /// recorded by the writer; the ack says every write of this site to the
    /// sending shard with `shard_seq <= upto` is durable there, so the
    /// writer may drop them from its unacked buffer. Delivery is
    /// prefix-closed (the shard drops a write beyond a gap), so one cursor
    /// covers the whole prefix, and a late or duplicated ack is harmless.
    WriteAckCausal {
        /// The shard's delivery cursor for the addressed writer.
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
    /// Server → client: a deadline-batched run of invalidations, coalesced
    /// per destination client (see [`crate::PushBatch`]). Entries are in
    /// application order; each is exactly the payload of one
    /// [`Msg::InvalidatePush`].
    InvalidateBatch {
        /// The coalesced invalidations, oldest first.
        entries: Vec<InvalidateEntry>,
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
    /// Origin shard → remote region's relay: a deadline-batched run of
    /// locally-originated causal writes crossing the WAN (see
    /// [`crate::geo`]). Each (origin shard, destination relay) channel
    /// numbers its batches from 1; the shard retransmits every
    /// unacknowledged batch on a timer, and the relay's cumulative
    /// [`Msg::GeoBatchAck`] cursor makes redelivery idempotent.
    GeoBatch {
        /// Region index of the originating fleet (metrics/debug only).
        origin: u32,
        /// Position of this batch in the channel's stream, starting at 1.
        seq: u64,
        /// The replicated writes, in local application order.
        entries: Vec<GeoWrite>,
    },
    /// Relay → origin shard: cumulative acknowledgement — every batch on
    /// this channel with `seq <= upto` has been ingested.
    GeoBatchAck {
        /// Highest contiguous batch sequence ingested.
        upto: u64,
    },
    /// Relay → local shard: apply one remote write. The relay forwards
    /// writes one at a time in causal-dependency order and waits for the
    /// matching [`Msg::GeoApplyAck`], which is what makes every remote
    /// write's causal past visible in the region before the write itself.
    GeoApply {
        /// The remote write (its vector stamp names the writer and the
        /// writer's global write index).
        entry: GeoWrite,
    },
    /// Shard → relay: the remote write by `writer` with global index `k`
    /// (= the writer's own vector-clock entry) has been applied.
    GeoApplyAck {
        /// The writer's site index.
        writer: u32,
        /// The writer's global write index.
        k: u64,
    },
    /// Shard → its own region's relay: a *locally-originated* causal write
    /// by `writer` with global index `k` was applied directly. The relay
    /// max-merges `k` into its applied-watermark for `writer`, so remote
    /// writes that causally depend on destination-local writes are never
    /// stuck waiting for a WAN round trip that will not come.
    GeoLocalApply {
        /// The writer's site index.
        writer: u32,
        /// The writer's global write index.
        k: u64,
    },
    /// Migrating client → destination region's relay: the session-handoff
    /// request carrying the client's full `Context_i` vector. The relay
    /// replies [`Msg::GeoAttachOk`] only once its applied watermark
    /// dominates `context_v` componentwise — after which every write the
    /// client has ever observed is visible in the destination region and
    /// the cache it carries is safe to keep.
    GeoAttach {
        /// The migrating client's site index.
        site: u32,
        /// The client's causal context at handoff.
        context_v: tc_clocks::VectorClock,
    },
    /// Relay → client: handoff accepted; the client may retarget its
    /// shard list to the destination region and resume.
    GeoAttachOk {
        /// The migrating client's site index (echoed).
        site: u32,
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
            Msg::WriteAck { .. } => "write_ack",
            Msg::WriteAckCausal { .. } => "write_ack_causal",
            Msg::InvalidatePush { .. } => "invalidate_push",
            Msg::InvalidateBatch { .. } => "invalidate_batch",
            Msg::DeltaUpdate { .. } => "delta_update",
            Msg::GeoBatch { .. } => "geo_batch",
            Msg::GeoBatchAck { .. } => "geo_batch_ack",
            Msg::GeoApply { .. } => "geo_apply",
            Msg::GeoApplyAck { .. } => "geo_apply_ack",
            Msg::GeoLocalApply { .. } => "geo_local_apply",
            Msg::GeoAttach { .. } => "geo_attach",
            Msg::GeoAttachOk { .. } => "geo_attach_ok",
        }
    }

    /// The cumulative causal ack this message carries: a standalone
    /// [`Msg::WriteAckCausal`]'s cursor, or one riding on a reply.
    #[must_use]
    pub fn acked(&self) -> Option<u64> {
        match self {
            Msg::WriteAckCausal { upto } => Some(*upto),
            Msg::FetchRep { acked, .. }
            | Msg::ValidateRep { acked, .. }
            | Msg::WriteAck { acked, .. } => *acked,
            _ => None,
        }
    }

    /// Lets an owed causal ack ride on this message: sets `acked` on a
    /// reply and returns `true`; any other kind is left as it is.
    pub fn carry_ack(&mut self, upto: u64) -> bool {
        match self {
            Msg::FetchRep { acked, .. }
            | Msg::ValidateRep { acked, .. }
            | Msg::WriteAck { acked, .. } => {
                *acked = Some(upto);
                true
            }
            _ => false,
        }
    }

    /// Whether this is a geo-replication control message (server↔relay or
    /// migrating-client↔relay traffic), as opposed to the client↔server
    /// protocol proper.
    #[must_use]
    pub fn is_geo(&self) -> bool {
        matches!(
            self,
            Msg::GeoBatch { .. }
                | Msg::GeoBatchAck { .. }
                | Msg::GeoApply { .. }
                | Msg::GeoApplyAck { .. }
                | Msg::GeoLocalApply { .. }
                | Msg::GeoAttach { .. }
                | Msg::GeoAttachOk { .. }
        )
    }
}

/// One replicated write inside a [`Msg::GeoBatch`] (and the payload of a
/// [`Msg::GeoApply`]): everything a remote region needs to apply the write
/// through the standard causal path, byte-for-byte what the writer's own
/// [`Msg::WriteReq`] carried. The vector stamp names the writer
/// (`alpha_v.site()`) and the writer's global write index (the writer's
/// own component), and `shard_seq` lines up with the destination shard's
/// per-writer delivery cursor because every region runs the same
/// [`crate::ShardMap`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GeoWrite {
    /// The written object.
    pub object: ObjectId,
    /// The (globally unique) value.
    pub value: Value,
    /// The writer's vector stamp (site = writer, own entry = global index).
    pub alpha_v: VectorClock,
    /// The writer's local physical time at issue (LWW tie-break, `α_t`).
    pub issued_at: Time,
    /// Position of the write in the writer's per-shard stream (starting
    /// at 1), against the object's owning shard — identical in every
    /// region by the shared shard map.
    pub shard_seq: u64,
}

impl GeoWrite {
    /// The writer's site index.
    #[must_use]
    pub fn writer(&self) -> usize {
        self.alpha_v.site()
    }

    /// The writer's global write index `k` (its own vector-clock entry).
    #[must_use]
    pub fn k(&self) -> u64 {
        self.alpha_v.own_entry()
    }
}

/// One entry of a [`Msg::InvalidateBatch`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InvalidateEntry {
    /// The overwritten object.
    pub object: ObjectId,
    /// Start time of the new current version.
    pub alpha_t: Time,
    /// Vector stamp of the new current version (causal family).
    pub alpha_v: Option<VectorClock>,
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
            alpha_v: None,
            tiebreak: (Time::from_ticks(10), 1),
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
            ValidateOutcome::Newer(WireVersion {
                value: Value::new(1),
                alpha_t: Time::ZERO,
                alpha_v: None,
                tiebreak: (Time::ZERO, 0)
            })
        );
    }
}
