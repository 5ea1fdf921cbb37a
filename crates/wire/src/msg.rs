//! Payload codec: every [`tc_lifetime::Msg`] variant plus the transport's
//! own session messages (handshake, heartbeat, goodbye), encoded with
//! explicit one-byte variant tags.
//!
//! The encoding is deliberately boring: tag byte, then fields in
//! declaration order, every integer a canonical LEB128 varint (object,
//! value, time, Δ, epoch, seq, ids, `Vec` lengths), `Option` as a presence
//! byte, `f64` as its bit pattern. A vector clock ([`put_vclock`]) is
//! written as its smallest entry plus each entry's offset from it, because
//! the N entries of a causal stamp sit within a few dozen of each other.
//! Boring survives: a reader of another wire generation fails loudly on
//! the frame header, never by misinterpreting fields.
//!
//! Generations: 1 wrote every integer fixed-width (a clock as
//! `u32 u32 u64…`); 2 made only the clock's entries varints; 3 made every
//! payload integer a varint and offsets clock entries from their base; 4
//! (this one) makes the causal ack cumulative — tag 6 carries a cursor
//! where it carried an object and a value — and gives each reply an
//! "acked" tag whose layout is the plain reply's plus that cursor, and the
//! write an "ack now" tag with the plain write's layout, so a message
//! using neither is byte-identical to generation 3's.

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
    /// Client → shard, first frame on every (re)connection — one per link,
    /// however many sites it carries: which fleet is connecting and under
    /// which protocol configuration. The shard rejects a mismatch — two
    /// processes disagreeing on Δ, the shard count, or the stale policy
    /// would *silently* void every timed guarantee, so the disagreement
    /// must be loud and immediate.
    Hello {
        /// Total clients in the run: the lanes a link may speak on.
        n_clients: u32,
        /// The shard index the client believes it dialled.
        shard: u32,
        /// The client's full protocol configuration.
        protocol: ProtocolConfig,
    },
    /// Shard → client: the link's `Hello` was accepted. Nothing waits for
    /// it — a shard serves a connection's frames in order, so the client
    /// sends right behind its `Hello` — it only counts the link connected.
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

// Tag 0 was the per-site `Hello`: a site id ahead of today's fields.
// It stays unknown rather than reused. Read as today's layout, an old Hello
// can decode (an SC site dialling shard 1 does), and an unknown tag refuses every
// one without a new wire generation, which would also retire every WAL.
const TAG_HELLO_ACK: u8 = 1;
const TAG_HELLO_REJECT: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_BYE: u8 = 4;
const TAG_PROTO: u8 = 5;
const TAG_HELLO: u8 = 6;

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
// A reply with an owed causal ack riding on it: the plain reply's fields,
// then the cursor.
const TAG_FETCH_REP_ACKED: u8 = 17;
const TAG_VALIDATE_REP_ACKED: u8 = 18;
const TAG_WRITE_ACK_ACKED: u8 = 19;
// A causal write whose writer waits on its ack: a plain write's fields.
const TAG_WRITE_REQ_ACK_NOW: u8 = 20;

/// A message's tag: `plain`, or its `twin` when the message is flagged
/// (an ack rides on the reply, or the write wants its ack now).
fn flagged_tag(flagged: bool, plain: u8, twin: u8) -> u8 {
    if flagged {
        twin
    } else {
        plain
    }
}

/// Encodes the cursor of a reply's riding ack, if any (last field).
fn put_acked(w: &mut Writer, acked: Option<u64>) {
    if let Some(upto) = acked {
        w.uvar(upto);
    }
}

/// Decodes the cursor an acked reply tag promises.
fn get_acked(r: &mut Reader<'_>, with_ack: bool) -> Result<Option<u64>, WireError> {
    with_ack.then(|| r.uvar("acked")).transpose()
}

/// Encodes a [`Time`] (ticks, varint).
pub fn put_time(w: &mut Writer, t: Time) {
    w.uvar(t.ticks());
}

/// Decodes a [`Time`].
pub fn get_time(r: &mut Reader<'_>, what: &'static str) -> Result<Time, WireError> {
    Ok(Time::from_ticks(r.uvar(what)?))
}

/// Encodes a [`Delta`] (ticks, varint; `INFINITE` is ten bytes).
pub fn put_delta(w: &mut Writer, d: Delta) {
    w.uvar(d.ticks());
}

/// Decodes a [`Delta`].
pub fn get_delta(r: &mut Reader<'_>, what: &'static str) -> Result<Delta, WireError> {
    Ok(Delta::from_ticks(r.uvar(what)?))
}

/// Encodes an [`ObjectId`] (index, varint).
pub fn put_object(w: &mut Writer, o: ObjectId) {
    w.uvar(u64::from(o.index()));
}

/// Decodes an [`ObjectId`]; an index above `u32::MAX` is
/// [`WireError::OutOfRange`].
pub fn get_object(r: &mut Reader<'_>) -> Result<ObjectId, WireError> {
    Ok(ObjectId::new(r.uvar_u32("object")?))
}

/// Encodes a [`Value`] (raw word, varint).
pub fn put_value(w: &mut Writer, v: Value) {
    w.uvar(v.raw());
}

/// Decodes a [`Value`].
pub fn get_value(r: &mut Reader<'_>) -> Result<Value, WireError> {
    Ok(Value::new(r.uvar("value")?))
}

/// Fewest bytes a [`VectorClock`] can occupy: owner, width, base and one
/// offset, a one-byte varint each.
const MIN_VCLOCK: usize = 4;

/// Fewest bytes an [`InvalidateEntry`] can occupy: object, `alpha_t` and
/// the presence byte of an absent clock.
const MIN_INVALIDATE_ENTRY: usize = 1 + 1 + 1;

/// Fewest bytes a [`GeoWrite`] can occupy: object, value, a minimal clock,
/// `issued_at` and `shard_seq`.
const MIN_GEO_WRITE: usize = 1 + 1 + MIN_VCLOCK + 1 + 1;

/// Encodes a [`VectorClock`] as `uvar(site) uvar(width) uvar(base)
/// uvar(entry − base)…` with `base` its smallest entry: the entries of a
/// causal stamp are event counts that sit close together, so an offset
/// costs a byte where the count itself would cost two or three, and a
/// clock never costs more than its plain varint entries plus the base.
/// The one place a causal timestamp becomes bytes — frames, WAL records
/// and snapshots all come through here.
pub fn put_vclock(w: &mut Writer, vc: &VectorClock) {
    let entries = vc.entries();
    let base = entries.iter().copied().min().unwrap_or(0);
    w.uvar(vc.site() as u64);
    w.uvar(entries.len() as u64);
    w.uvar(base);
    for &e in entries {
        w.uvar(e - base);
    }
}

/// Decodes a [`VectorClock`], validating site/width sanity and the base
/// form: an entry past `u64::MAX`, or a base that is not the smallest
/// entry (no offset is zero, so the clock has a shorter encoding), is
/// [`WireError::BadVectorClock`].
pub fn get_vclock(r: &mut Reader<'_>) -> Result<VectorClock, WireError> {
    let site = r.uvar("vclock site")?;
    let n = r.uvar("vclock width")?;
    if n == 0 || site >= n || n > u64::from(u16::MAX) {
        return Err(WireError::BadVectorClock);
    }
    let n = n as usize;
    let base = r.uvar("vclock base")?;
    // Every offset is at least one byte: a forged width fails here, before
    // it can size an allocation.
    if n > r.remaining() {
        return Err(WireError::Truncated {
            what: "vclock entry",
        });
    }
    // Decoded in place into the clock's shared slice: one allocation.
    let mut entries: Arc<[u64]> = std::iter::repeat_n(0, n).collect();
    let slots = Arc::get_mut(&mut entries).expect("a fresh slice is unshared");
    let mut least = u64::MAX;
    for slot in slots {
        let offset = r.uvar("vclock entry")?;
        least = least.min(offset);
        *slot = base.checked_add(offset).ok_or(WireError::BadVectorClock)?;
    }
    if least != 0 {
        return Err(WireError::BadVectorClock);
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
    w.uvar(v.tiebreak.1 as u64);
}

fn get_version(r: &mut Reader<'_>) -> Result<WireVersion, WireError> {
    Ok(WireVersion {
        value: get_value(r)?,
        alpha_t: get_time(r, "alpha_t")?,
        alpha_v: get_opt_vclock(r)?,
        tiebreak: (
            get_time(r, "tiebreak time")?,
            r.uvar("tiebreak node")? as usize,
        ),
    })
}

fn put_geo_write(w: &mut Writer, g: &GeoWrite) {
    put_object(w, g.object);
    put_value(w, g.value);
    put_vclock(w, &g.alpha_v);
    put_time(w, g.issued_at);
    w.uvar(g.shard_seq);
}

fn get_geo_write(r: &mut Reader<'_>) -> Result<GeoWrite, WireError> {
    Ok(GeoWrite {
        object: get_object(r)?,
        value: get_value(r)?,
        alpha_v: get_vclock(r)?,
        issued_at: get_time(r, "issued_at")?,
        shard_seq: r.uvar("shard_seq")?,
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
    w.uvar(c.shards as u64);
    w.uvar(c.push_batch.max_entries as u64);
    put_delta(w, c.push_batch.max_delay);
    match c.durability {
        DurabilityMode::Ephemeral => w.u8(0),
        DurabilityMode::Durable { fsync } => {
            w.u8(1);
            w.uvar(fsync.max_pending as u64);
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
    let shards = r.uvar_u32("shards")? as usize;
    let push_batch = PushBatch {
        max_entries: r.uvar_u32("push batch entries")? as usize,
        max_delay: get_delta(r, "push batch delay")?,
    };
    let durability = match r.u8("durability mode")? {
        0 => DurabilityMode::Ephemeral,
        1 => DurabilityMode::Durable {
            fsync: FsyncPolicy {
                max_pending: r.uvar_u32("fsync max pending")? as usize,
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
            w.uvar(*epoch);
        }
        Msg::FetchRep {
            object,
            version,
            server_now,
            epoch,
            acked,
        } => {
            w.u8(flagged_tag(
                acked.is_some(),
                TAG_FETCH_REP,
                TAG_FETCH_REP_ACKED,
            ));
            put_object(w, *object);
            put_version(w, version);
            put_time(w, *server_now);
            w.uvar(*epoch);
            put_acked(w, *acked);
        }
        Msg::ValidateReq {
            object,
            value,
            epoch,
        } => {
            w.u8(TAG_VALIDATE_REQ);
            put_object(w, *object);
            put_value(w, *value);
            w.uvar(*epoch);
        }
        Msg::ValidateRep {
            object,
            outcome,
            server_now,
            epoch,
            acked,
        } => {
            w.u8(flagged_tag(
                acked.is_some(),
                TAG_VALIDATE_REP,
                TAG_VALIDATE_REP_ACKED,
            ));
            put_object(w, *object);
            match outcome {
                ValidateOutcome::StillValid => w.u8(0),
                ValidateOutcome::Newer(version) => {
                    w.u8(1);
                    put_version(w, version);
                }
            }
            put_time(w, *server_now);
            w.uvar(*epoch);
            put_acked(w, *acked);
        }
        Msg::WriteReq {
            object,
            value,
            alpha_v,
            issued_at,
            epoch,
            shard_seq,
            ack_now,
        } => {
            w.u8(flagged_tag(*ack_now, TAG_WRITE_REQ, TAG_WRITE_REQ_ACK_NOW));
            put_object(w, *object);
            put_value(w, *value);
            put_opt_vclock(w, alpha_v.as_ref());
            put_time(w, *issued_at);
            w.uvar(*epoch);
            w.uvar(*shard_seq);
        }
        Msg::WriteAck {
            object,
            alpha_t,
            epoch,
            acked,
        } => {
            w.u8(flagged_tag(
                acked.is_some(),
                TAG_WRITE_ACK,
                TAG_WRITE_ACK_ACKED,
            ));
            put_object(w, *object);
            put_time(w, *alpha_t);
            w.uvar(*epoch);
            put_acked(w, *acked);
        }
        Msg::WriteAckCausal { upto } => {
            w.u8(TAG_WRITE_ACK_CAUSAL);
            w.uvar(*upto);
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
            w.uvar(entries.len() as u64);
            for e in entries {
                put_entry(w, e);
            }
        }
        Msg::DeltaUpdate { seq, delta } => {
            w.u8(TAG_DELTA_UPDATE);
            w.uvar(*seq);
            put_delta(w, *delta);
        }
        Msg::GeoBatch {
            origin,
            seq,
            entries,
        } => {
            w.u8(TAG_GEO_BATCH);
            w.uvar(u64::from(*origin));
            w.uvar(*seq);
            w.uvar(entries.len() as u64);
            for e in entries {
                put_geo_write(w, e);
            }
        }
        Msg::GeoBatchAck { upto } => {
            w.u8(TAG_GEO_BATCH_ACK);
            w.uvar(*upto);
        }
        Msg::GeoApply { entry } => {
            w.u8(TAG_GEO_APPLY);
            put_geo_write(w, entry);
        }
        Msg::GeoApplyAck { writer, k } => {
            w.u8(TAG_GEO_APPLY_ACK);
            w.uvar(u64::from(*writer));
            w.uvar(*k);
        }
        Msg::GeoLocalApply { writer, k } => {
            w.u8(TAG_GEO_LOCAL_APPLY);
            w.uvar(u64::from(*writer));
            w.uvar(*k);
        }
        Msg::GeoAttach { site, context_v } => {
            w.u8(TAG_GEO_ATTACH);
            w.uvar(u64::from(*site));
            put_vclock(w, context_v);
        }
        Msg::GeoAttachOk { site } => {
            w.u8(TAG_GEO_ATTACH_OK);
            w.uvar(u64::from(*site));
        }
    }
}

/// Decodes a lifetime-protocol message.
pub fn get_msg(r: &mut Reader<'_>) -> Result<Msg, WireError> {
    Ok(match r.u8("msg tag")? {
        TAG_FETCH_REQ => Msg::FetchReq {
            object: get_object(r)?,
            epoch: r.uvar("epoch")?,
        },
        tag @ (TAG_FETCH_REP | TAG_FETCH_REP_ACKED) => Msg::FetchRep {
            object: get_object(r)?,
            version: get_version(r)?,
            server_now: get_time(r, "server_now")?,
            epoch: r.uvar("epoch")?,
            acked: get_acked(r, tag == TAG_FETCH_REP_ACKED)?,
        },
        TAG_VALIDATE_REQ => Msg::ValidateReq {
            object: get_object(r)?,
            value: get_value(r)?,
            epoch: r.uvar("epoch")?,
        },
        tag @ (TAG_VALIDATE_REP | TAG_VALIDATE_REP_ACKED) => {
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
                epoch: r.uvar("epoch")?,
                acked: get_acked(r, tag == TAG_VALIDATE_REP_ACKED)?,
            }
        }
        tag @ (TAG_WRITE_REQ | TAG_WRITE_REQ_ACK_NOW) => Msg::WriteReq {
            object: get_object(r)?,
            value: get_value(r)?,
            alpha_v: get_opt_vclock(r)?,
            issued_at: get_time(r, "issued_at")?,
            epoch: r.uvar("epoch")?,
            shard_seq: r.uvar("shard_seq")?,
            ack_now: tag == TAG_WRITE_REQ_ACK_NOW,
        },
        tag @ (TAG_WRITE_ACK | TAG_WRITE_ACK_ACKED) => Msg::WriteAck {
            object: get_object(r)?,
            alpha_t: get_time(r, "alpha_t")?,
            epoch: r.uvar("epoch")?,
            acked: get_acked(r, tag == TAG_WRITE_ACK_ACKED)?,
        },
        TAG_WRITE_ACK_CAUSAL => Msg::WriteAckCausal {
            upto: r.uvar("ack upto")?,
        },
        TAG_INVALIDATE_PUSH => Msg::InvalidatePush {
            object: get_object(r)?,
            alpha_t: get_time(r, "alpha_t")?,
            alpha_v: get_opt_vclock(r)?,
        },
        TAG_INVALIDATE_BATCH => {
            let n = r.uvar_u32("batch length")? as usize;
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
            seq: r.uvar("seq")?,
            delta: get_delta(r, "delta")?,
        },
        TAG_GEO_BATCH => {
            let origin = r.uvar_u32("geo origin")?;
            let seq = r.uvar("geo batch seq")?;
            let n = r.uvar_u32("geo batch length")? as usize;
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
            upto: r.uvar("geo upto")?,
        },
        TAG_GEO_APPLY => Msg::GeoApply {
            entry: get_geo_write(r)?,
        },
        TAG_GEO_APPLY_ACK => Msg::GeoApplyAck {
            writer: r.uvar_u32("geo writer")?,
            k: r.uvar("geo k")?,
        },
        TAG_GEO_LOCAL_APPLY => Msg::GeoLocalApply {
            writer: r.uvar_u32("geo writer")?,
            k: r.uvar("geo k")?,
        },
        TAG_GEO_ATTACH => Msg::GeoAttach {
            site: r.uvar_u32("geo site")?,
            context_v: get_vclock(r)?,
        },
        TAG_GEO_ATTACH_OK => Msg::GeoAttachOk {
            site: r.uvar_u32("geo site")?,
        },
        tag => return Err(WireError::UnknownTag { what: "msg", tag }),
    })
}

/// Encodes a [`WireMsg`] payload (without frame header).
pub fn put_wire_msg(w: &mut Writer, msg: &WireMsg) {
    match msg {
        WireMsg::Hello {
            n_clients,
            shard,
            protocol,
        } => {
            w.u8(TAG_HELLO);
            w.uvar(u64::from(*n_clients));
            w.uvar(u64::from(*shard));
            put_protocol(w, protocol);
        }
        WireMsg::HelloAck { shard } => {
            w.u8(TAG_HELLO_ACK);
            w.uvar(u64::from(*shard));
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
            n_clients: r.uvar_u32("n_clients")?,
            shard: r.uvar_u32("shard")?,
            protocol: get_protocol(r)?,
        },
        TAG_HELLO_ACK => WireMsg::HelloAck {
            shard: r.uvar_u32("shard")?,
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
            n_clients: 4,
            shard: 1,
            protocol: ProtocolConfig::of(ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            })
            .with_shards(2),
        });
    }

    /// The per-site `Hello` (tag 0, a site id before `n_clients`) went
    /// without a new wire generation, which also names the WAL's. A peer
    /// still sending it is refused at the tag, so a mixed pair fails its
    /// handshake loudly. Read under today's tag, the same bytes can decode
    /// into a misread config — an SC site dialling shard 1 reads as a TSC
    /// fleet with Δ = 0 — which is why the tag moved.
    #[test]
    fn a_per_site_hello_fails_strict_decoding() {
        let tsc = ProtocolKind::Tsc {
            delta: Delta::from_ticks(400),
        };
        for kind in [ProtocolKind::Sc, tsc, ProtocolKind::Cc] {
            for (site, n_clients, shard) in [(0, 2, 0), (1, 2, 1), (299, 300, 1)] {
                let protocol = ProtocolConfig::of(kind).with_shards(2);
                let per_site_hello = |tag: u8| {
                    let mut w = Writer::new();
                    w.u8(tag);
                    for field in [site, n_clients, shard] {
                        w.uvar(field);
                    }
                    put_protocol(&mut w, &protocol);
                    w.into_bytes()
                };
                let decode = |bytes: &[u8]| {
                    let mut r = Reader::new(bytes);
                    get_wire_msg(&mut r).and_then(|msg| r.finish().map(|()| msg))
                };
                assert_eq!(
                    decode(&per_site_hello(0)),
                    Err(WireError::UnknownTag {
                        what: "wire msg",
                        tag: 0
                    })
                );
                if (kind, shard) == (ProtocolKind::Sc, 1) {
                    let misread = decode(&per_site_hello(TAG_HELLO)).map(|msg| match msg {
                        WireMsg::Hello { protocol, .. } => protocol.kind,
                        other => panic!("decoded {other:?}"),
                    });
                    assert_eq!(misread, Ok(ProtocolKind::Tsc { delta: Delta::ZERO }));
                }
            }
        }
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

    fn msg_bytes(msg: &Msg) -> Vec<u8> {
        let mut w = Writer::new();
        put_msg(&mut w, msg);
        w.into_bytes()
    }

    /// A reply that carries no ack is the plain reply byte for byte, so
    /// no physical-family frame moved with generation 4; an acked one
    /// differs in its tag and the cursor after the last field, and round
    /// trips. The standalone ack is its tag and the cursor.
    #[test]
    fn an_acked_reply_is_the_plain_reply_plus_its_cursor() {
        let version = WireVersion {
            value: Value::new(30_017),
            alpha_t: Time::from_ticks(200_003),
            alpha_v: Some(VectorClock::from_entries(1, vec![40, 41, 39])),
            tiebreak: (Time::from_ticks(199_990), 17),
        };
        let replies = [
            (
                Msg::FetchRep {
                    object: ObjectId::new(41),
                    version: version.clone(),
                    server_now: Time::from_ticks(200_011),
                    epoch: 1_003,
                    acked: None,
                },
                TAG_FETCH_REP_ACKED,
            ),
            (
                Msg::ValidateRep {
                    object: ObjectId::new(41),
                    outcome: ValidateOutcome::Newer(version),
                    server_now: Time::from_ticks(200_011),
                    epoch: 1_003,
                    acked: None,
                },
                TAG_VALIDATE_REP_ACKED,
            ),
            (
                Msg::WriteAck {
                    object: ObjectId::new(41),
                    alpha_t: Time::from_ticks(200_003),
                    epoch: 1_003,
                    acked: None,
                },
                TAG_WRITE_ACK_ACKED,
            ),
        ];
        for (plain, acked_tag) in replies {
            let plain_bytes = msg_bytes(&plain);
            round_trip(&WireMsg::Proto(plain.clone()));
            for upto in [0, 1, 300, u64::MAX] {
                let mut acked = plain.clone();
                assert!(acked.carry_ack(upto));
                let bytes = msg_bytes(&acked);
                let mut expected = vec![acked_tag];
                expected.extend_from_slice(&plain_bytes[1..]);
                let mut cursor = Writer::new();
                cursor.uvar(upto);
                expected.extend_from_slice(&cursor.into_bytes());
                assert_eq!(bytes, expected, "{plain:?} acked to {upto}");
                round_trip(&WireMsg::Proto(acked));
            }
        }
        assert_eq!(
            msg_bytes(&Msg::WriteAckCausal { upto: 300 }),
            [TAG_WRITE_ACK_CAUSAL, 0xAC, 0x02]
        );
        round_trip(&WireMsg::Proto(Msg::WriteAckCausal { upto: 0 }));
    }

    /// A write whose writer waits on its ack is the plain write under
    /// its own tag.
    #[test]
    fn an_ack_now_write_is_the_plain_write_under_its_own_tag() {
        let plain = Msg::WriteReq {
            object: ObjectId::new(41),
            value: Value::new(30_017),
            alpha_v: Some(VectorClock::from_entries(1, vec![40, 41, 39])),
            issued_at: Time::from_ticks(200_003),
            epoch: 0,
            shard_seq: 2_411,
            ack_now: false,
        };
        let mut urgent = plain.clone();
        if let Msg::WriteReq { ack_now, .. } = &mut urgent {
            *ack_now = true;
        }
        let (plain_bytes, urgent_bytes) = (msg_bytes(&plain), msg_bytes(&urgent));
        assert_eq!(
            (plain_bytes[0], urgent_bytes[0]),
            (TAG_WRITE_REQ, TAG_WRITE_REQ_ACK_NOW)
        );
        assert_eq!(plain_bytes[1..], urgent_bytes[1..]);
        round_trip(&WireMsg::Proto(urgent));
    }

    /// An acked tag promises a cursor: a frame cut before it is
    /// `Truncated`, never a reply without its ack.
    #[test]
    fn an_acked_reply_without_its_cursor_is_truncated() {
        let plain = msg_bytes(&Msg::WriteAck {
            object: ObjectId::new(1),
            alpha_t: Time::from_ticks(5),
            epoch: 2,
            acked: None,
        });
        let mut cut = plain;
        cut[0] = TAG_WRITE_ACK_ACKED;
        assert_eq!(
            get_msg(&mut Reader::new(&cut)),
            Err(WireError::Truncated { what: "acked" })
        );
    }

    fn vclock_bytes(vc: &VectorClock) -> Vec<u8> {
        let mut w = Writer::new();
        put_vclock(&mut w, vc);
        w.into_bytes()
    }

    #[test]
    fn vclock_costs_what_its_entries_carry() {
        // Owner, width and base, then each entry's offset from the base:
        // a clock whose entries sit close together costs a byte an entry
        // however large they are.
        for (entries, len) in [
            (vec![0, 127, 128, 16_384], 1 + 1 + 1 + (1 + 1 + 2 + 3)),
            (
                vec![16_400, 16_527, 16_528, 16_384],
                1 + 1 + 3 + (1 + 2 + 2 + 1),
            ),
            (vec![200_000; 4], 1 + 1 + 3 + 4),
        ] {
            let vc = VectorClock::from_entries(1, entries);
            let bytes = vclock_bytes(&vc);
            assert_eq!(bytes.len(), len, "{vc:?}");
            let mut r = Reader::new(&bytes);
            assert_eq!(get_vclock(&mut r), Ok(vc));
            r.finish().unwrap();
        }
    }

    #[test]
    fn vclock_entries_past_u64_max_are_refused() {
        // Base u64::MAX − 1 of a 2-wide clock, offsets 0 and 2: the second
        // entry would be u64::MAX + 1.
        let mut w = Writer::new();
        for field in [0, 2, u64::MAX - 1, 0, 2] {
            w.uvar(field);
        }
        let bytes = w.into_bytes();
        assert_eq!(
            get_vclock(&mut Reader::new(&bytes)),
            Err(WireError::BadVectorClock)
        );
        // The largest entries that fit decode.
        let vc = VectorClock::from_entries(0, vec![u64::MAX - 1, u64::MAX]);
        assert_eq!(get_vclock(&mut Reader::new(&vclock_bytes(&vc))), Ok(vc));
    }

    #[test]
    fn a_base_that_is_not_the_smallest_entry_is_refused() {
        // Entries 5 and 7 have one encoding, base 5 and offsets 0 and 2;
        // base 4 with offsets 1 and 3 spells the same clock another way.
        let mut w = Writer::new();
        for field in [0, 2, 4, 1, 3] {
            w.uvar(field);
        }
        let bytes = w.into_bytes();
        assert_eq!(
            get_vclock(&mut Reader::new(&bytes)),
            Err(WireError::BadVectorClock)
        );
        let vc = VectorClock::from_entries(0, vec![5, 7]);
        assert_eq!(vclock_bytes(&vc), [0, 2, 5, 0, 2]);
    }

    /// Ids and lengths are `u32` in memory and varints on the wire: a
    /// value that does not fit is refused, never wrapped onto another id.
    #[test]
    fn ids_above_u32_max_are_refused_not_wrapped() {
        let too_big = u64::from(u32::MAX) + 1;
        let out_of_range = |what| Err(WireError::OutOfRange { what });
        for (tag, what) in [
            (TAG_FETCH_REQ, "object"),
            (TAG_GEO_APPLY_ACK, "geo writer"),
            (TAG_GEO_LOCAL_APPLY, "geo writer"),
            (TAG_GEO_ATTACH_OK, "geo site"),
            (TAG_GEO_BATCH, "geo origin"),
            (TAG_INVALIDATE_BATCH, "batch length"),
        ] {
            let mut w = Writer::new();
            w.u8(tag);
            w.uvar(too_big);
            w.uvar(1);
            let bytes = w.into_bytes();
            assert_eq!(get_msg(&mut Reader::new(&bytes)), out_of_range(what));
            // One less is an id like any other.
            let mut w = Writer::new();
            w.u8(tag);
            w.uvar(too_big - 1);
            assert!(!matches!(
                get_msg(&mut Reader::new(&w.into_bytes())),
                Err(WireError::OutOfRange { .. })
            ));
        }
        let mut w = Writer::new();
        w.u8(TAG_HELLO_ACK);
        w.uvar(too_big);
        assert_eq!(
            get_wire_msg(&mut Reader::new(&w.into_bytes())),
            Err(WireError::OutOfRange { what: "shard" })
        );
    }

    #[test]
    fn vclock_forged_width_fails_before_it_sizes_an_allocation() {
        // Owner 0 of a clock claiming 65 535 entries over base 0, a dozen
        // bytes long.
        let mut bytes = vec![0x00, 0xFF, 0xFF, 0x03, 0x00];
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
                w.uvar(0); // origin
                w.uvar(1); // seq
            }
            w.uvar(u64::from(u32::MAX));
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
        let mut r = Reader::new(&[5, 2, 0, 0, 0]);
        assert_eq!(get_vclock(&mut r), Err(WireError::BadVectorClock));
    }
}
