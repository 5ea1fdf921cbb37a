//! Payload codec: every [`tc_lifetime::Msg`] variant plus the transport's
//! own session messages (handshake, heartbeat, goodbye), encoded with
//! explicit one-byte variant tags.
//!
//! The encoding is deliberately boring: tag byte, then fields in
//! declaration order, little-endian, `Option` as a presence byte,
//! `Vec` as a `u32` length prefix. The one variable-width field is the
//! vector clock ([`put_vclock`]): its components are varints, because an
//! N-entry clock of small event counts is most of a causal frame. Scalars
//! (epoch, time, value, seq) stay fixed-width, so frames that carry no
//! clock have one size per kind. Boring survives: a reader one protocol
//! version behind fails loudly on the frame header, never by
//! misinterpreting fields.

use std::sync::Arc;

use tc_clocks::{Delta, Time, VectorClock};
use tc_core::{ObjectId, Value};
use tc_lifetime::{
    DurabilityMode, FsyncPolicy, GeoWrite, InvalidateEntry, Msg, Propagation, ProtocolConfig,
    ProtocolKind, PushBatch, StalePolicy, ValidateOutcome, WireVersion,
};

use crate::codec::{Reader, WireError, Writer};

/// Everything that travels inside a frame: transport session control plus
/// the lifetime protocol's own messages.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Client → shard, first frame on every (re)connection: who is
    /// connecting and under which protocol configuration. The shard
    /// rejects a mismatch — two processes disagreeing on Δ, the shard
    /// count, or the stale policy would *silently* void every timed
    /// guarantee, so the disagreement must be loud and immediate.
    Hello {
        /// The client's site index (trace site, vector-clock component).
        site: u32,
        /// Total clients in the run (shards validate the id space).
        n_clients: u32,
        /// The shard index the client believes it dialled.
        shard: u32,
        /// The client's full protocol configuration.
        protocol: ProtocolConfig,
    },
    /// Shard → client: handshake accepted; frames may flow.
    HelloAck {
        /// The shard index confirming.
        shard: u32,
    },
    /// Shard → client: handshake refused (config/version/shard mismatch).
    /// The connection closes after this frame.
    HelloReject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Keep-alive, sent by an idle writer so the peer's read timeout only
    /// fires on a genuinely dead connection.
    Heartbeat,
    /// Orderly goodbye: the client finished its workload; the shard may
    /// drop connection state without treating the close as a failure.
    Bye,
    /// A lifetime-protocol message.
    Proto(Msg),
}

const TAG_HELLO: u8 = 0;
const TAG_HELLO_ACK: u8 = 1;
const TAG_HELLO_REJECT: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_BYE: u8 = 4;
const TAG_PROTO: u8 = 5;

const TAG_FETCH_REQ: u8 = 0;
const TAG_FETCH_REP: u8 = 1;
const TAG_VALIDATE_REQ: u8 = 2;
const TAG_VALIDATE_REP: u8 = 3;
const TAG_WRITE_REQ: u8 = 4;
const TAG_WRITE_ACK: u8 = 5;
const TAG_WRITE_ACK_CAUSAL: u8 = 6;
const TAG_INVALIDATE_PUSH: u8 = 7;
const TAG_INVALIDATE_BATCH: u8 = 8;
const TAG_DELTA_UPDATE: u8 = 9;
const TAG_GEO_BATCH: u8 = 10;
const TAG_GEO_BATCH_ACK: u8 = 11;
const TAG_GEO_APPLY: u8 = 12;
const TAG_GEO_APPLY_ACK: u8 = 13;
const TAG_GEO_LOCAL_APPLY: u8 = 14;
const TAG_GEO_ATTACH: u8 = 15;
const TAG_GEO_ATTACH_OK: u8 = 16;

/// Encodes a [`Time`] (u64 ticks, LE).
pub fn put_time(w: &mut Writer, t: Time) {
    w.u64(t.ticks());
}

/// Decodes a [`Time`].
pub fn get_time(r: &mut Reader<'_>, what: &'static str) -> Result<Time, WireError> {
    Ok(Time::from_ticks(r.u64(what)?))
}

/// Encodes a [`Delta`] (u64 ticks, LE).
pub fn put_delta(w: &mut Writer, d: Delta) {
    w.u64(d.ticks());
}

/// Decodes a [`Delta`].
pub fn get_delta(r: &mut Reader<'_>, what: &'static str) -> Result<Delta, WireError> {
    Ok(Delta::from_ticks(r.u64(what)?))
}

/// Encodes an [`ObjectId`] (u32 index, LE).
pub fn put_object(w: &mut Writer, o: ObjectId) {
    w.u32(o.index());
}

/// Decodes an [`ObjectId`].
pub fn get_object(r: &mut Reader<'_>) -> Result<ObjectId, WireError> {
    Ok(ObjectId::new(r.u32("object")?))
}

/// Encodes a [`Value`] (u64 raw, LE).
pub fn put_value(w: &mut Writer, v: Value) {
    w.u64(v.raw());
}

/// Decodes a [`Value`].
pub fn get_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    Ok(Value::new(r.u64("value")?))
}

/// Fewest bytes a [`VectorClock`] can occupy: owner, width and one entry,
/// a one-byte varint each.
const MIN_VCLOCK: usize = 3;

/// Fewest bytes an [`InvalidateEntry`] can occupy: object, `alpha_t` and
/// the presence byte of an absent clock.
const MIN_INVALIDATE_ENTRY: usize = 4 + 8 + 1;

/// Fewest bytes a [`GeoWrite`] can occupy: object, value, a minimal clock,
/// `issued_at` and `shard_seq`.
const MIN_GEO_WRITE: usize = 4 + 8 + MIN_VCLOCK + 8 + 8;

/// Encodes a [`VectorClock`] as `uvar(site) uvar(width) uvar(entry)…`:
/// components are event counts, so a clock costs about a byte or two per
/// site instead of eight. The one place a causal timestamp becomes bytes —
/// frames, WAL records and snapshots all come through here.
pub fn put_vclock(w: &mut Writer, vc: &VectorClock) {
    w.uvar(vc.site() as u64);
    w.uvar(vc.n_sites() as u64);
    for &e in vc.entries() {
        w.uvar(e);
    }
}

/// Decodes a [`VectorClock`], validating site/width sanity.
pub fn get_vclock(r: &mut Reader<'_>) -> Result<VectorClock, WireError> {
    let site = r.uvar("vclock site")?;
    let n = r.uvar("vclock width")?;
    if n == 0 || site >= n || n > u64::from(u16::MAX) {
        return Err(WireError::BadVectorClock);
    }
    let n = n as usize;
    // Every entry is at least one byte: a forged width fails here, before
    // it can size an allocation.
    if n > r.remaining() {
        return Err(WireError::Truncated {
            what: "vclock entry",
        });
    }
    // Decoded in place into the clock's shared slice: one allocation.
    let mut entries: Arc<[u64]> = std::iter::repeat_n(0, n).collect();
    let slots = Arc::get_mut(&mut entries).expect("a fresh slice is unshared");
    for slot in slots {
        *slot = r.uvar("vclock entry")?;
    }
    Ok(VectorClock::from_entries(site as usize, entries))
}

/// Encodes an optional [`VectorClock`] behind a presence byte.
pub fn put_opt_vclock(w: &mut Writer, vc: Option<&VectorClock>) {
    match vc {
        None => w.u8(0),
        Some(vc) => {
            w.u8(1);
            put_vclock(w, vc);
        }
    }
}

/// Decodes an optional [`VectorClock`].
pub fn get_opt_vclock(r: &mut Reader<'_>) -> Result<Option<VectorClock>, WireError> {
    match r.u8("vclock presence")? {
        0 => Ok(None),
        1 => Ok(Some(get_vclock(r)?)),
        tag => Err(WireError::UnknownTag {
            what: "vclock presence",
            tag,
        }),
    }
}

fn put_version(w: &mut Writer, v: &WireVersion) {
    put_value(w, v.value);
    put_time(w, v.alpha_t);
    put_opt_vclock(w, v.alpha_v.as_ref());
    put_time(w, v.tiebreak.0);
    w.u64(v.tiebreak.1 as u64);
}

fn get_version(r: &mut Reader<'_>) -> Result<WireVersion, WireError> {
    Ok(WireVersion {
        value: get_value(r)?,
        alpha_t: get_time(r, "alpha_t")?,
        alpha_v: get_opt_vclock(r)?,
        tiebreak: (
            get_time(r, "tiebreak time")?,
            r.u64("tiebreak node")? as usize,
        ),
    })
}

fn put_geo_write(w: &mut Writer, g: &GeoWrite) {
    put_object(w, g.object);
    put_value(w, g.value);
    put_vclock(w, &g.alpha_v);
    put_time(w, g.issued_at);
    w.u64(g.shard_seq);
}

fn get_geo_write(r: &mut Reader<'_>) -> Result<GeoWrite, WireError> {
    Ok(GeoWrite {
        object: get_object(r)?,
        value: get_value(r)?,
        alpha_v: get_vclock(r)?,
        issued_at: get_time(r, "issued_at")?,
        shard_seq: r.u64("shard_seq")?,
    })
}

fn put_entry(w: &mut Writer, e: &InvalidateEntry) {
    put_object(w, e.object);
    put_time(w, e.alpha_t);
    put_opt_vclock(w, e.alpha_v.as_ref());
}

fn get_entry(r: &mut Reader<'_>) -> Result<InvalidateEntry, WireError> {
    Ok(InvalidateEntry {
        object: get_object(r)?,
        alpha_t: get_time(r, "alpha_t")?,
        alpha_v: get_opt_vclock(r)?,
    })
}

/// Encodes a [`ProtocolConfig`] (the handshake's compatibility contract).
pub fn put_protocol(w: &mut Writer, c: &ProtocolConfig) {
    match c.kind {
        ProtocolKind::Sc => w.u8(0),
        ProtocolKind::Tsc { delta } => {
            w.u8(1);
            put_delta(w, delta);
        }
        ProtocolKind::Cc => w.u8(2),
        ProtocolKind::Tcc { delta } => {
            w.u8(3);
            put_delta(w, delta);
        }
        ProtocolKind::TccLogical { xi_delta } => {
            w.u8(4);
            w.f64(xi_delta);
        }
        ProtocolKind::NoCache => w.u8(5),
    }
    w.u8(match c.stale {
        StalePolicy::Invalidate => 0,
        StalePolicy::MarkOld => 1,
    });
    w.u8(match c.propagation {
        Propagation::Pull => 0,
        Propagation::PushInvalidate => 1,
    });
    put_delta(w, c.retry_after);
    w.u32(c.shards as u32);
    w.u32(c.push_batch.max_entries as u32);
    put_delta(w, c.push_batch.max_delay);
    match c.durability {
        DurabilityMode::Ephemeral => w.u8(0),
        DurabilityMode::Durable { fsync } => {
            w.u8(1);
            w.u32(fsync.max_pending as u32);
            put_delta(w, fsync.max_delay);
        }
    }
}

/// Decodes a [`ProtocolConfig`].
pub fn get_protocol(r: &mut Reader<'_>) -> Result<ProtocolConfig, WireError> {
    let kind = match r.u8("protocol kind")? {
        0 => ProtocolKind::Sc,
        1 => ProtocolKind::Tsc {
            delta: get_delta(r, "tsc delta")?,
        },
        2 => ProtocolKind::Cc,
        3 => ProtocolKind::Tcc {
            delta: get_delta(r, "tcc delta")?,
        },
        4 => ProtocolKind::TccLogical {
            xi_delta: r.f64("xi delta")?,
        },
        5 => ProtocolKind::NoCache,
        tag => {
            return Err(WireError::UnknownTag {
                what: "protocol kind",
                tag,
            })
        }
    };
    let stale = match r.u8("stale policy")? {
        0 => StalePolicy::Invalidate,
        1 => StalePolicy::MarkOld,
        tag => {
            return Err(WireError::UnknownTag {
                what: "stale policy",
                tag,
            })
        }
    };
    let propagation = match r.u8("propagation")? {
        0 => Propagation::Pull,
        1 => Propagation::PushInvalidate,
        tag => {
            return Err(WireError::UnknownTag {
                what: "propagation",
                tag,
            })
        }
    };
    let retry_after = get_delta(r, "retry_after")?;
    let shards = r.u32("shards")? as usize;
    let push_batch = PushBatch {
        max_entries: r.u32("push batch entries")? as usize,
        max_delay: get_delta(r, "push batch delay")?,
    };
    let durability = match r.u8("durability mode")? {
        0 => DurabilityMode::Ephemeral,
        1 => DurabilityMode::Durable {
            fsync: FsyncPolicy {
                max_pending: r.u32("fsync max pending")? as usize,
                max_delay: get_delta(r, "fsync max delay")?,
            },
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "durability mode",
                tag,
            })
        }
    };
    Ok(ProtocolConfig {
        kind,
        stale,
        propagation,
        retry_after,
        shards,
        push_batch,
        durability,
    })
}

/// Encodes a lifetime-protocol message.
pub fn put_msg(w: &mut Writer, msg: &Msg) {
    match msg {
        Msg::FetchReq { object, epoch } => {
            w.u8(TAG_FETCH_REQ);
            put_object(w, *object);
            w.u64(*epoch);
        }
        Msg::FetchRep {
            object,
            version,
            server_now,
            epoch,
        } => {
            w.u8(TAG_FETCH_REP);
            put_object(w, *object);
            put_version(w, version);
            put_time(w, *server_now);
            w.u64(*epoch);
        }
        Msg::ValidateReq {
            object,
            value,
            epoch,
        } => {
            w.u8(TAG_VALIDATE_REQ);
            put_object(w, *object);
            put_value(w, *value);
            w.u64(*epoch);
        }
        Msg::ValidateRep {
            object,
            outcome,
            server_now,
            epoch,
        } => {
            w.u8(TAG_VALIDATE_REP);
            put_object(w, *object);
            match outcome {
                ValidateOutcome::StillValid => w.u8(0),
                ValidateOutcome::Newer(version) => {
                    w.u8(1);
                    put_version(w, version);
                }
            }
            put_time(w, *server_now);
            w.u64(*epoch);
        }
        Msg::WriteReq {
            object,
            value,
            alpha_v,
            issued_at,
            epoch,
            shard_seq,
        } => {
            w.u8(TAG_WRITE_REQ);
            put_object(w, *object);
            put_value(w, *value);
            put_opt_vclock(w, alpha_v.as_ref());
            put_time(w, *issued_at);
            w.u64(*epoch);
            w.u64(*shard_seq);
        }
        Msg::WriteAck {
            object,
            alpha_t,
            epoch,
        } => {
            w.u8(TAG_WRITE_ACK);
            put_object(w, *object);
            put_time(w, *alpha_t);
            w.u64(*epoch);
        }
        Msg::WriteAckCausal { object, value } => {
            w.u8(TAG_WRITE_ACK_CAUSAL);
            put_object(w, *object);
            put_value(w, *value);
        }
        Msg::InvalidatePush {
            object,
            alpha_t,
            alpha_v,
        } => {
            w.u8(TAG_INVALIDATE_PUSH);
            put_object(w, *object);
            put_time(w, *alpha_t);
            put_opt_vclock(w, alpha_v.as_ref());
        }
        Msg::InvalidateBatch { entries } => {
            w.u8(TAG_INVALIDATE_BATCH);
            w.u32(entries.len() as u32);
            for e in entries {
                put_entry(w, e);
            }
        }
        Msg::DeltaUpdate { seq, delta } => {
            w.u8(TAG_DELTA_UPDATE);
            w.u64(*seq);
            put_delta(w, *delta);
        }
        Msg::GeoBatch {
            origin,
            seq,
            entries,
        } => {
            w.u8(TAG_GEO_BATCH);
            w.u32(*origin);
            w.u64(*seq);
            w.u32(entries.len() as u32);
            for e in entries {
                put_geo_write(w, e);
            }
        }
        Msg::GeoBatchAck { upto } => {
            w.u8(TAG_GEO_BATCH_ACK);
            w.u64(*upto);
        }
        Msg::GeoApply { entry } => {
            w.u8(TAG_GEO_APPLY);
            put_geo_write(w, entry);
        }
        Msg::GeoApplyAck { writer, k } => {
            w.u8(TAG_GEO_APPLY_ACK);
            w.u32(*writer);
            w.u64(*k);
        }
        Msg::GeoLocalApply { writer, k } => {
            w.u8(TAG_GEO_LOCAL_APPLY);
            w.u32(*writer);
            w.u64(*k);
        }
        Msg::GeoAttach { site, context_v } => {
            w.u8(TAG_GEO_ATTACH);
            w.u32(*site);
            put_vclock(w, context_v);
        }
        Msg::GeoAttachOk { site } => {
            w.u8(TAG_GEO_ATTACH_OK);
            w.u32(*site);
        }
    }
}

/// Decodes a lifetime-protocol message.
pub fn get_msg(r: &mut Reader<'_>) -> Result<Msg, WireError> {
    Ok(match r.u8("msg tag")? {
        TAG_FETCH_REQ => Msg::FetchReq {
            object: get_object(r)?,
            epoch: r.u64("epoch")?,
        },
        TAG_FETCH_REP => Msg::FetchRep {
            object: get_object(r)?,
            version: get_version(r)?,
            server_now: get_time(r, "server_now")?,
            epoch: r.u64("epoch")?,
        },
        TAG_VALIDATE_REQ => Msg::ValidateReq {
            object: get_object(r)?,
            value: get_value(r)?,
            epoch: r.u64("epoch")?,
        },
        TAG_VALIDATE_REP => {
            let object = get_object(r)?;
            let outcome = match r.u8("validate outcome")? {
                0 => ValidateOutcome::StillValid,
                1 => ValidateOutcome::Newer(get_version(r)?),
                tag => {
                    return Err(WireError::UnknownTag {
                        what: "validate outcome",
                        tag,
                    })
                }
            };
            Msg::ValidateRep {
                object,
                outcome,
                server_now: get_time(r, "server_now")?,
                epoch: r.u64("epoch")?,
            }
        }
        TAG_WRITE_REQ => Msg::WriteReq {
            object: get_object(r)?,
            value: get_value(r)?,
            alpha_v: get_opt_vclock(r)?,
            issued_at: get_time(r, "issued_at")?,
            epoch: r.u64("epoch")?,
            shard_seq: r.u64("shard_seq")?,
        },
        TAG_WRITE_ACK => Msg::WriteAck {
            object: get_object(r)?,
            alpha_t: get_time(r, "alpha_t")?,
            epoch: r.u64("epoch")?,
        },
        TAG_WRITE_ACK_CAUSAL => Msg::WriteAckCausal {
            object: get_object(r)?,
            value: get_value(r)?,
        },
        TAG_INVALIDATE_PUSH => Msg::InvalidatePush {
            object: get_object(r)?,
            alpha_t: get_time(r, "alpha_t")?,
            alpha_v: get_opt_vclock(r)?,
        },
        TAG_INVALIDATE_BATCH => {
            let n = r.u32("batch length")? as usize;
            // Cap preallocation by what the buffer could possibly hold so
            // a forged length cannot force a huge allocation before
            // Truncated fires.
            let mut entries = Vec::with_capacity(n.min(r.remaining() / MIN_INVALIDATE_ENTRY + 1));
            for _ in 0..n {
                entries.push(get_entry(r)?);
            }
            Msg::InvalidateBatch { entries }
        }
        TAG_DELTA_UPDATE => Msg::DeltaUpdate {
            seq: r.u64("seq")?,
            delta: get_delta(r, "delta")?,
        },
        TAG_GEO_BATCH => {
            let origin = r.u32("geo origin")?;
            let seq = r.u64("geo batch seq")?;
            let n = r.u32("geo batch length")? as usize;
            // Same forged-length guard as InvalidateBatch.
            let mut entries = Vec::with_capacity(n.min(r.remaining() / MIN_GEO_WRITE + 1));
            for _ in 0..n {
                entries.push(get_geo_write(r)?);
            }
            Msg::GeoBatch {
                origin,
                seq,
                entries,
            }
        }
        TAG_GEO_BATCH_ACK => Msg::GeoBatchAck {
            upto: r.u64("geo upto")?,
        },
        TAG_GEO_APPLY => Msg::GeoApply {
            entry: get_geo_write(r)?,
        },
        TAG_GEO_APPLY_ACK => Msg::GeoApplyAck {
            writer: r.u32("geo writer")?,
            k: r.u64("geo k")?,
        },
        TAG_GEO_LOCAL_APPLY => Msg::GeoLocalApply {
            writer: r.u32("geo writer")?,
            k: r.u64("geo k")?,
        },
        TAG_GEO_ATTACH => Msg::GeoAttach {
            site: r.u32("geo site")?,
            context_v: get_vclock(r)?,
        },
        TAG_GEO_ATTACH_OK => Msg::GeoAttachOk {
            site: r.u32("geo site")?,
        },
        tag => return Err(WireError::UnknownTag { what: "msg", tag }),
    })
}

/// Encodes a [`WireMsg`] payload (without frame header).
pub fn put_wire_msg(w: &mut Writer, msg: &WireMsg) {
    match msg {
        WireMsg::Hello {
            site,
            n_clients,
            shard,
            protocol,
        } => {
            w.u8(TAG_HELLO);
            w.u32(*site);
            w.u32(*n_clients);
            w.u32(*shard);
            put_protocol(w, protocol);
        }
        WireMsg::HelloAck { shard } => {
            w.u8(TAG_HELLO_ACK);
            w.u32(*shard);
        }
        WireMsg::HelloReject { reason } => {
            w.u8(TAG_HELLO_REJECT);
            w.string(reason);
        }
        WireMsg::Heartbeat => w.u8(TAG_HEARTBEAT),
        WireMsg::Bye => w.u8(TAG_BYE),
        WireMsg::Proto(msg) => {
            w.u8(TAG_PROTO);
            put_msg(w, msg);
        }
    }
}

/// Decodes a [`WireMsg`] payload (without frame header).
pub fn get_wire_msg(r: &mut Reader<'_>) -> Result<WireMsg, WireError> {
    Ok(match r.u8("wire msg tag")? {
        TAG_HELLO => WireMsg::Hello {
            site: r.u32("site")?,
            n_clients: r.u32("n_clients")?,
            shard: r.u32("shard")?,
            protocol: get_protocol(r)?,
        },
        TAG_HELLO_ACK => WireMsg::HelloAck {
            shard: r.u32("shard")?,
        },
        TAG_HELLO_REJECT => WireMsg::HelloReject {
            reason: r.string("reason")?,
        },
        TAG_HEARTBEAT => WireMsg::Heartbeat,
        TAG_BYE => WireMsg::Bye,
        TAG_PROTO => WireMsg::Proto(get_msg(r)?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "wire msg",
                tag,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &WireMsg) {
        let mut w = Writer::new();
        put_wire_msg(&mut w, msg);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = get_wire_msg(&mut r).expect("decodes");
        r.finish().expect("no trailing bytes");
        assert_eq!(&decoded, msg);
    }

    #[test]
    fn session_messages_round_trip() {
        round_trip(&WireMsg::Heartbeat);
        round_trip(&WireMsg::Bye);
        round_trip(&WireMsg::HelloAck { shard: 3 });
        round_trip(&WireMsg::HelloReject {
            reason: "Δ mismatch".to_string(),
        });
        round_trip(&WireMsg::Hello {
            site: 2,
            n_clients: 4,
            shard: 1,
            protocol: ProtocolConfig::of(ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            })
            .with_shards(2),
        });
    }

    #[test]
    fn delta_update_round_trips() {
        for delta in [Delta::ZERO, Delta::from_ticks(1_234), Delta::INFINITE] {
            round_trip(&WireMsg::Proto(Msg::DeltaUpdate { seq: 7, delta }));
        }
    }

    #[test]
    fn protocol_config_round_trips_every_kind() {
        for kind in [
            ProtocolKind::Sc,
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(123),
            },
            ProtocolKind::Cc,
            ProtocolKind::Tcc {
                delta: Delta::INFINITE,
            },
            ProtocolKind::TccLogical { xi_delta: 2.5 },
            ProtocolKind::NoCache,
        ] {
            for durability in [
                DurabilityMode::Ephemeral,
                DurabilityMode::Durable {
                    fsync: FsyncPolicy::PER_WRITE,
                },
                DurabilityMode::Durable {
                    fsync: FsyncPolicy {
                        max_pending: 32,
                        max_delay: Delta::from_ticks(250),
                    },
                },
            ] {
                let mut config = ProtocolConfig::of(kind)
                    .with_shards(7)
                    .with_durability(durability);
                config.stale = StalePolicy::Invalidate;
                config.propagation = Propagation::PushInvalidate;
                config.push_batch = PushBatch {
                    max_entries: 8,
                    max_delay: Delta::from_ticks(40),
                };
                let mut w = Writer::new();
                put_protocol(&mut w, &config);
                let bytes = w.into_bytes();
                let mut r = Reader::new(&bytes);
                assert_eq!(get_protocol(&mut r).unwrap(), config);
                r.finish().unwrap();
            }
        }
    }

    #[test]
    fn geo_messages_round_trip() {
        let entry = GeoWrite {
            object: ObjectId::new(3),
            value: Value::new(77),
            alpha_v: VectorClock::from_entries(1, vec![4, 9, 0]),
            issued_at: Time::from_ticks(12_345),
            shard_seq: 9,
        };
        round_trip(&WireMsg::Proto(Msg::GeoBatch {
            origin: 2,
            seq: 5,
            entries: vec![entry.clone(), entry.clone()],
        }));
        round_trip(&WireMsg::Proto(Msg::GeoBatch {
            origin: 0,
            seq: 1,
            entries: Vec::new(),
        }));
        round_trip(&WireMsg::Proto(Msg::GeoBatchAck { upto: 41 }));
        round_trip(&WireMsg::Proto(Msg::GeoApply { entry }));
        round_trip(&WireMsg::Proto(Msg::GeoApplyAck { writer: 1, k: 9 }));
        round_trip(&WireMsg::Proto(Msg::GeoLocalApply { writer: 0, k: 2 }));
        round_trip(&WireMsg::Proto(Msg::GeoAttach {
            site: 4,
            context_v: VectorClock::from_entries(4, vec![1, 2, 3, 4, 5]),
        }));
        round_trip(&WireMsg::Proto(Msg::GeoAttachOk { site: 4 }));
    }

    #[test]
    fn vclock_costs_what_its_entries_carry() {
        let vc = VectorClock::from_entries(1, vec![0, 127, 128, 16_384]);
        let mut w = Writer::new();
        put_vclock(&mut w, &vc);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 1 + 1 + 1 + 2 + 3);
        let mut r = Reader::new(&bytes);
        assert_eq!(get_vclock(&mut r), Ok(vc));
        r.finish().unwrap();
    }

    #[test]
    fn vclock_forged_width_fails_before_it_sizes_an_allocation() {
        // Owner 0 of a clock claiming 65 535 entries, a dozen bytes long.
        let mut bytes = vec![0x00, 0xFF, 0xFF, 0x03];
        bytes.extend_from_slice(&[1; 8]);
        let mut r = Reader::new(&bytes);
        assert_eq!(
            get_vclock(&mut r),
            Err(WireError::Truncated {
                what: "vclock entry"
            })
        );
        // One entry wider and it is not a clock at all.
        let mut r = Reader::new(&[0x00, 0x80, 0x80, 0x04]);
        assert_eq!(get_vclock(&mut r), Err(WireError::BadVectorClock));
    }

    #[test]
    fn forged_batch_lengths_are_capped_by_the_minimal_entry() {
        // The guards divide by these; a shrinking codec must shrink them.
        let mut w = Writer::new();
        put_entry(
            &mut w,
            &InvalidateEntry {
                object: ObjectId::new(0),
                alpha_t: Time::ZERO,
                alpha_v: None,
            },
        );
        assert_eq!(w.len(), MIN_INVALIDATE_ENTRY);
        let mut w = Writer::new();
        put_geo_write(
            &mut w,
            &GeoWrite {
                object: ObjectId::new(0),
                value: Value::new(0),
                alpha_v: VectorClock::new(0, 1),
                issued_at: Time::ZERO,
                shard_seq: 0,
            },
        );
        assert_eq!(w.len(), MIN_GEO_WRITE);
        // A batch claiming u32::MAX entries in a short buffer is Truncated.
        for tag in [TAG_INVALIDATE_BATCH, TAG_GEO_BATCH] {
            let mut w = Writer::new();
            w.u8(tag);
            if tag == TAG_GEO_BATCH {
                w.u32(0); // origin
                w.u64(1); // seq
            }
            w.u32(u32::MAX);
            let bytes = w.into_bytes();
            assert!(matches!(
                get_msg(&mut Reader::new(&bytes)),
                Err(WireError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn vclock_rejects_owner_out_of_range() {
        // Site 5 of a 2-wide clock.
        let mut r = Reader::new(&[5, 2, 0, 0]);
        assert_eq!(get_vclock(&mut r), Err(WireError::BadVectorClock));
    }
}
