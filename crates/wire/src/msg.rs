//! Payload codec: every [`tc_lifetime::Msg`] variant plus the transport's
//! own session messages (handshake, heartbeat, goodbye), encoded with
//! explicit one-byte tags.
//!
//! The encoding is deliberately boring: tag byte, then fields in
//! declaration order, every integer a canonical LEB128 varint (object,
//! value, time, Δ, epoch, seq, ids, `Vec` lengths), `f64` as its bit
//! pattern. A vector clock ([`put_vclock`]) is written as its smallest
//! entry plus each entry's offset from it, because the N entries of a
//! causal stamp sit within a few dozen of each other. A protocol message
//! writes only the fields its family reads: the low five bits of its tag
//! name its kind, the high three say which optional parts follow (an ack
//! riding on a reply, a causal write's ack-now, a causal stamp, a
//! validation's newer version), and a bit its kind does not define is an
//! unknown tag. Boring survives: a reader of another wire generation fails
//! loudly on the frame header, never by misinterpreting fields.
//!
//! Generations: 1 wrote every integer fixed-width (a clock as
//! `u32 u32 u64…`); 2 made only the clock's entries varints; 3 made every
//! payload integer a varint and offsets clock entries from their base; 4
//! made the causal ack cumulative, with twin tags for an acked reply and
//! an ack-now write; 5 shrank the frame header; 6 dropped what the other
//! family reads — a physical version's tie-break, a physical write's
//! clock, issue time and stream position, a causal write's epoch — and
//! moved every presence and outcome byte into the tag; 7 (this one)
//! retires the deadline-batched invalidation and the handshake's two push
//! batch fields.

use std::sync::Arc;

use tc_clocks::{Delta, Time, VectorClock};
use tc_core::{ObjectId, Value};
use tc_lifetime::{
    CausalStamp, DurabilityMode, FsyncPolicy, Msg, Propagation, ProtocolConfig, ProtocolKind,
    ValidateOutcome, WireVersion,
};

use crate::codec::{Reader, WireError, Writer};

/// Everything that travels inside a frame: transport session control plus
/// the lifetime protocol's own messages.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMsg {
    /// Client → shard, first frame on every (re)connection — one per link,
    /// however many sites it carries: which fleet is connecting and under
    /// which protocol configuration. The shard rejects a mismatch — two
    /// processes disagreeing on Δ, the shard count, or the propagation
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
// can decode (a NoCache site dialling shard 1 does), and an unknown tag refuses every
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
const TAG_DELTA_UPDATE: u8 = 9;
const TAG_GAP: u8 = 17;
// Retired kinds stay unknown rather than reused: 8 was the deadline-batched
// invalidation run until generation 7; 10–16 were the multi-region
// replication messages (a cross-region write batch and its ack, a relay's
// forwarded apply and its ack, a shard's local-apply notice, a migrating
// client's attach and its confirmation), retired within generation 7 like
// tag 0 above, since no surviving message changed; and 18–20 were twin
// tags that the flags below replaced in generation 6 (18 an acked
// `ValidateRep`, 19 an acked `WriteAck` in generation 4 only, 20 an
// ack-now causal write).

/// The kind bits of a protocol message's tag; the rest are flags.
const KIND: u8 = 0x1F;
/// `FetchRep`, `ValidateRep`: an owed causal ack rides as the last field.
const FLAG_ACKED: u8 = 0x20;
/// A causal write (with [`FLAG_CAUSAL`]): its writer waits on the ack.
const FLAG_ACK_NOW: u8 = 0x20;
/// The version, write or invalidation carries a causal stamp.
const FLAG_CAUSAL: u8 = 0x40;
/// `ValidateRep`: a newer version follows (without it, still valid).
const FLAG_NEWER: u8 = 0x80;

/// Whether `flags` is a combination of flags that `kind` defines.
fn defines(kind: u8, flags: u8) -> bool {
    match kind {
        TAG_FETCH_REP => flags & !(FLAG_ACKED | FLAG_CAUSAL) == 0,
        // A stamp only on a newer version.
        TAG_VALIDATE_REP => flags & (FLAG_NEWER | FLAG_CAUSAL) != FLAG_CAUSAL,
        // Ack-now only on a causal write.
        TAG_WRITE_REQ => flags & !(FLAG_CAUSAL | FLAG_ACK_NOW) == 0 && flags != FLAG_ACK_NOW,
        TAG_INVALIDATE_PUSH => flags & !FLAG_CAUSAL == 0,
        _ => flags == 0,
    }
}

/// `bits` if `set`, else none.
fn flag(set: bool, bits: u8) -> u8 {
    if set {
        bits
    } else {
        0
    }
}

/// Encodes the cursor of a reply's riding ack, if any (last field).
fn put_acked(w: &mut Writer, acked: Option<u64>) {
    if let Some(upto) = acked {
        w.uvar(upto);
    }
}

/// Decodes the cursor an acked reply tag promises.
fn get_acked(r: &mut Reader<'_>, flags: u8) -> Result<Option<u64>, WireError> {
    (flags & FLAG_ACKED != 0)
        .then(|| r.uvar("acked"))
        .transpose()
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

/// Encodes a version: value and `α_t`, then its causal stamp if it has
/// one (the tag's [`FLAG_CAUSAL`] says so).
fn put_version(w: &mut Writer, v: &WireVersion) {
    put_value(w, v.value);
    put_time(w, v.alpha_t);
    if let Some(stamp) = &v.causal {
        put_vclock(w, &stamp.alpha_v);
        w.uvar(stamp.writer as u64);
    }
}

/// Decodes a version, with a causal stamp if `flags` promises one.
fn get_version(r: &mut Reader<'_>, flags: u8) -> Result<WireVersion, WireError> {
    Ok(WireVersion {
        value: get_value(r)?,
        alpha_t: get_time(r, "alpha_t")?,
        causal: if flags & FLAG_CAUSAL != 0 {
            Some(CausalStamp {
                alpha_v: get_vclock(r)?,
                writer: r.uvar_u32("writer")? as usize,
            })
        } else {
            None
        },
    })
}

/// Encodes the clock of an invalidation, if it has one; the tag says
/// whether it does.
fn put_stamp(w: &mut Writer, vc: Option<&VectorClock>) {
    if let Some(vc) = vc {
        put_vclock(w, vc);
    }
}

/// Decodes the clock `present` promises.
fn get_stamp(r: &mut Reader<'_>, present: bool) -> Result<Option<VectorClock>, WireError> {
    present.then(|| get_vclock(r)).transpose()
}

/// The error for an enum tag with no variant.
fn unknown_tag<T>(what: &'static str, tag: u8) -> Result<T, WireError> {
    Err(WireError::UnknownTag { what, tag })
}

/// Encodes a [`ProtocolConfig`] (the handshake's compatibility contract).
/// Kind tags 0 and 2 (SC, CC) are retired: those are tags 1 and 3 at
/// Δ = ∞, and a peer still sending 0 or 2 is refused. The byte after the
/// kind is the retired stale-policy slot: every site marks a stale entry
/// old, which is its tag 1, and a peer sending 0 (drop the entry) is
/// refused.
pub fn put_protocol(w: &mut Writer, c: &ProtocolConfig) {
    match c.kind {
        ProtocolKind::Tsc { delta } => {
            w.u8(1);
            put_delta(w, delta);
        }
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
    w.u8(1);
    w.u8(match c.propagation {
        Propagation::Pull => 0,
        Propagation::PushInvalidate => 1,
    });
    put_delta(w, c.retry_after);
    w.uvar(c.shards as u64);
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
        1 => ProtocolKind::Tsc {
            delta: get_delta(r, "tsc delta")?,
        },
        3 => ProtocolKind::Tcc {
            delta: get_delta(r, "tcc delta")?,
        },
        4 => ProtocolKind::TccLogical {
            xi_delta: r.f64("xi delta")?,
        },
        5 => ProtocolKind::NoCache,
        tag => return unknown_tag("protocol kind", tag),
    };
    match r.u8("stale policy")? {
        1 => {}
        tag => return unknown_tag("stale policy", tag),
    }
    let propagation = match r.u8("propagation")? {
        0 => Propagation::Pull,
        1 => Propagation::PushInvalidate,
        tag => return unknown_tag("propagation", tag),
    };
    let retry_after = get_delta(r, "retry_after")?;
    let shards = r.uvar_u32("shards")? as usize;
    let durability = match r.u8("durability mode")? {
        0 => DurabilityMode::Ephemeral,
        1 => DurabilityMode::Durable {
            fsync: FsyncPolicy {
                max_pending: r.uvar_u32("fsync max pending")? as usize,
                max_delay: get_delta(r, "fsync max delay")?,
            },
        },
        tag => return unknown_tag("durability mode", tag),
    };
    Ok(ProtocolConfig {
        kind,
        propagation,
        retry_after,
        shards,
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
            w.u8(TAG_FETCH_REP
                | flag(acked.is_some(), FLAG_ACKED)
                | flag(version.causal.is_some(), FLAG_CAUSAL));
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
            let newer = match outcome {
                ValidateOutcome::StillValid => None,
                ValidateOutcome::Newer(version) => Some(version),
            };
            w.u8(TAG_VALIDATE_REP
                | flag(acked.is_some(), FLAG_ACKED)
                | flag(newer.is_some(), FLAG_NEWER)
                | flag(newer.is_some_and(|v| v.causal.is_some()), FLAG_CAUSAL));
            put_object(w, *object);
            if let Some(version) = newer {
                put_version(w, version);
            }
            put_time(w, *server_now);
            w.uvar(*epoch);
            put_acked(w, *acked);
        }
        Msg::WriteReq {
            object,
            value,
            epoch,
        } => {
            w.u8(TAG_WRITE_REQ);
            put_object(w, *object);
            put_value(w, *value);
            w.uvar(*epoch);
        }
        Msg::WriteReqCausal {
            object,
            value,
            alpha_v,
            issued_at,
            shard_seq,
            ack_now,
        } => {
            w.u8(TAG_WRITE_REQ | FLAG_CAUSAL | flag(*ack_now, FLAG_ACK_NOW));
            put_object(w, *object);
            put_value(w, *value);
            put_vclock(w, alpha_v);
            put_time(w, *issued_at);
            w.uvar(*shard_seq);
        }
        Msg::WriteAck {
            object,
            alpha_t,
            epoch,
        } => {
            w.u8(TAG_WRITE_ACK);
            put_object(w, *object);
            put_time(w, *alpha_t);
            w.uvar(*epoch);
        }
        Msg::WriteAckCausal { upto } => {
            w.u8(TAG_WRITE_ACK_CAUSAL);
            w.uvar(*upto);
        }
        Msg::Gap { upto } => {
            w.u8(TAG_GAP);
            w.uvar(*upto);
        }
        Msg::InvalidatePush {
            object,
            alpha_t,
            alpha_v,
        } => {
            w.u8(TAG_INVALIDATE_PUSH | flag(alpha_v.is_some(), FLAG_CAUSAL));
            put_object(w, *object);
            put_time(w, *alpha_t);
            put_stamp(w, alpha_v.as_ref());
        }
        Msg::DeltaUpdate { seq, delta } => {
            w.u8(TAG_DELTA_UPDATE);
            w.uvar(*seq);
            put_delta(w, *delta);
        }
    }
}

/// Decodes a lifetime-protocol message. A tag whose flags its kind does
/// not define is [`WireError::UnknownTag`].
pub fn get_msg(r: &mut Reader<'_>) -> Result<Msg, WireError> {
    let tag = r.u8("msg tag")?;
    let (kind, flags) = (tag & KIND, tag & !KIND);
    if !defines(kind, flags) {
        return unknown_tag("msg", tag);
    }
    Ok(match kind {
        TAG_FETCH_REQ => Msg::FetchReq {
            object: get_object(r)?,
            epoch: r.uvar("epoch")?,
        },
        TAG_FETCH_REP => Msg::FetchRep {
            object: get_object(r)?,
            version: get_version(r, flags)?,
            server_now: get_time(r, "server_now")?,
            epoch: r.uvar("epoch")?,
            acked: get_acked(r, flags)?,
        },
        TAG_VALIDATE_REQ => Msg::ValidateReq {
            object: get_object(r)?,
            value: get_value(r)?,
            epoch: r.uvar("epoch")?,
        },
        TAG_VALIDATE_REP => Msg::ValidateRep {
            object: get_object(r)?,
            outcome: if flags & FLAG_NEWER != 0 {
                ValidateOutcome::Newer(get_version(r, flags)?)
            } else {
                ValidateOutcome::StillValid
            },
            server_now: get_time(r, "server_now")?,
            epoch: r.uvar("epoch")?,
            acked: get_acked(r, flags)?,
        },
        TAG_WRITE_REQ if flags & FLAG_CAUSAL != 0 => Msg::WriteReqCausal {
            object: get_object(r)?,
            value: get_value(r)?,
            alpha_v: get_vclock(r)?,
            issued_at: get_time(r, "issued_at")?,
            shard_seq: r.uvar("shard_seq")?,
            ack_now: flags & FLAG_ACK_NOW != 0,
        },
        TAG_WRITE_REQ => Msg::WriteReq {
            object: get_object(r)?,
            value: get_value(r)?,
            epoch: r.uvar("epoch")?,
        },
        TAG_WRITE_ACK => Msg::WriteAck {
            object: get_object(r)?,
            alpha_t: get_time(r, "alpha_t")?,
            epoch: r.uvar("epoch")?,
        },
        TAG_WRITE_ACK_CAUSAL => Msg::WriteAckCausal {
            upto: r.uvar("ack upto")?,
        },
        TAG_GAP => Msg::Gap {
            upto: r.uvar("gap upto")?,
        },
        TAG_INVALIDATE_PUSH => Msg::InvalidatePush {
            object: get_object(r)?,
            alpha_t: get_time(r, "alpha_t")?,
            alpha_v: get_stamp(r, flags & FLAG_CAUSAL != 0)?,
        },
        TAG_DELTA_UPDATE => Msg::DeltaUpdate {
            seq: r.uvar("seq")?,
            delta: get_delta(r, "delta")?,
        },
        _ => return unknown_tag("msg", tag),
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
        tag => return unknown_tag("wire msg", tag),
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
    /// into a misread config — a NoCache site dialling shard 1 reads as a
    /// TSC fleet with Δ = 5 — which is why the tag moved.
    #[test]
    fn a_per_site_hello_fails_strict_decoding() {
        let tsc = ProtocolKind::Tsc {
            delta: Delta::from_ticks(400),
        };
        for kind in [
            ProtocolKind::sc(),
            tsc,
            ProtocolKind::cc(),
            ProtocolKind::NoCache,
        ] {
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
                if (kind, shard) == (ProtocolKind::NoCache, 1) {
                    let misread = decode(&per_site_hello(TAG_HELLO)).map(|msg| match msg {
                        WireMsg::Hello { protocol, .. } => protocol.kind,
                        other => panic!("decoded {other:?}"),
                    });
                    assert_eq!(
                        misread,
                        Ok(ProtocolKind::Tsc {
                            delta: Delta::from_ticks(5)
                        })
                    );
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
            ProtocolKind::sc(),
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(123),
            },
            ProtocolKind::cc(),
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(77),
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
                config.propagation = Propagation::PushInvalidate;
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
    fn retired_sc_and_cc_kind_tags_are_refused() {
        for (tag, kind) in [(0, ProtocolKind::sc()), (2, ProtocolKind::cc())] {
            let mut w = Writer::new();
            put_protocol(&mut w, &ProtocolConfig::of(kind));
            let mut bytes = w.into_bytes();
            assert_eq!(bytes[0], tag + 1, "{kind:?} travels as its timed kind");
            bytes[0] = tag;
            assert_eq!(
                get_protocol(&mut Reader::new(&bytes)),
                Err(WireError::UnknownTag {
                    what: "protocol kind",
                    tag
                })
            );
        }
    }

    #[test]
    fn the_retired_drop_entry_stale_policy_tag_is_refused() {
        let mut w = Writer::new();
        put_protocol(&mut w, &ProtocolConfig::of(ProtocolKind::sc()));
        let mut bytes = w.into_bytes();
        // Kind tag 1 and its varint Δ = ∞, then the stale-policy slot.
        let slot = 1 + varints(&[Delta::INFINITE.ticks()]).len();
        assert_eq!(bytes[slot], 1, "every site marks stale entries old");
        bytes[slot] = 0;
        assert_eq!(
            get_protocol(&mut Reader::new(&bytes)),
            Err(WireError::UnknownTag {
                what: "stale policy",
                tag: 0
            })
        );
    }

    #[test]
    fn gap_round_trips() {
        round_trip(&WireMsg::Proto(Msg::Gap { upto: 41 }));
    }

    fn msg_bytes(msg: &Msg) -> Vec<u8> {
        let mut w = Writer::new();
        put_msg(&mut w, msg);
        w.into_bytes()
    }

    fn varints(fields: &[u64]) -> Vec<u8> {
        let mut w = Writer::new();
        for &field in fields {
            w.uvar(field);
        }
        w.into_bytes()
    }

    fn causal_version() -> WireVersion {
        WireVersion {
            value: Value::new(30_017),
            alpha_t: Time::from_ticks(200_003),
            causal: Some(CausalStamp {
                alpha_v: VectorClock::from_entries(1, vec![40, 41, 39]),
                writer: 17,
            }),
        }
    }

    /// A physical message is its family's fields and nothing else: a
    /// version is its value and α, a write its object, value and epoch,
    /// and a verdict's outcome is in the tag.
    #[test]
    fn a_physical_message_carries_only_what_the_physical_family_reads() {
        let version = WireVersion {
            value: Value::new(30_017),
            alpha_t: Time::from_ticks(200_003),
            causal: None,
        };
        let (object, value, alpha, now, epoch) = (41, 30_017, 200_003, 200_011, 1_003);
        for (msg, tag, fields) in [
            (
                Msg::FetchRep {
                    object: ObjectId::new(41),
                    version: version.clone(),
                    server_now: Time::from_ticks(now),
                    epoch,
                    acked: None,
                },
                TAG_FETCH_REP,
                vec![object, value, alpha, now, epoch],
            ),
            (
                Msg::ValidateRep {
                    object: ObjectId::new(41),
                    outcome: ValidateOutcome::Newer(version),
                    server_now: Time::from_ticks(now),
                    epoch,
                    acked: None,
                },
                TAG_VALIDATE_REP | FLAG_NEWER,
                vec![object, value, alpha, now, epoch],
            ),
            (
                Msg::ValidateRep {
                    object: ObjectId::new(41),
                    outcome: ValidateOutcome::StillValid,
                    server_now: Time::from_ticks(now),
                    epoch,
                    acked: None,
                },
                TAG_VALIDATE_REP,
                vec![object, now, epoch],
            ),
            (
                Msg::WriteReq {
                    object: ObjectId::new(41),
                    value: Value::new(value),
                    epoch,
                },
                TAG_WRITE_REQ,
                vec![object, value, epoch],
            ),
            (
                Msg::InvalidatePush {
                    object: ObjectId::new(41),
                    alpha_t: Time::from_ticks(alpha),
                    alpha_v: None,
                },
                TAG_INVALIDATE_PUSH,
                vec![object, alpha],
            ),
        ] {
            let mut expected = vec![tag];
            expected.extend(varints(&fields));
            assert_eq!(msg_bytes(&msg), expected, "{msg:?}");
            round_trip(&WireMsg::Proto(msg));
        }
    }

    /// A causal version is the physical layout plus its stamp, which the
    /// tag announces: the clock and the writer, with `α_t` the one time.
    #[test]
    fn a_causal_version_adds_its_stamp_under_the_causal_flag() {
        let version = causal_version();
        let fetch = Msg::FetchRep {
            object: ObjectId::new(41),
            version: version.clone(),
            server_now: Time::from_ticks(200_011),
            epoch: 1_003,
            acked: None,
        };
        let mut expected = vec![TAG_FETCH_REP | FLAG_CAUSAL];
        expected.extend(varints(&[41, 30_017, 200_003]));
        let stamp = version.causal.as_ref().unwrap();
        let mut w = Writer::new();
        put_vclock(&mut w, &stamp.alpha_v);
        expected.extend(w.into_bytes());
        expected.extend(varints(&[17, 200_011, 1_003]));
        assert_eq!(msg_bytes(&fetch), expected);
        round_trip(&WireMsg::Proto(fetch));
        // The initial version of a causal run has no stamp, so it costs
        // what a physical version does.
        round_trip(&WireMsg::Proto(Msg::ValidateRep {
            object: ObjectId::new(41),
            outcome: ValidateOutcome::Newer(WireVersion::initial()),
            server_now: Time::from_ticks(3),
            epoch: 2,
            acked: None,
        }));
    }

    /// A reply with an ack riding on it is the plain reply under the acked
    /// flag, plus the cursor after the last field. The standalone ack is
    /// its tag and the cursor.
    #[test]
    fn an_acked_reply_is_the_plain_reply_plus_its_cursor() {
        let replies = [
            Msg::FetchRep {
                object: ObjectId::new(41),
                version: causal_version(),
                server_now: Time::from_ticks(200_011),
                epoch: 1_003,
                acked: None,
            },
            Msg::ValidateRep {
                object: ObjectId::new(41),
                outcome: ValidateOutcome::Newer(causal_version()),
                server_now: Time::from_ticks(200_011),
                epoch: 1_003,
                acked: None,
            },
            Msg::ValidateRep {
                object: ObjectId::new(41),
                outcome: ValidateOutcome::StillValid,
                server_now: Time::from_ticks(200_011),
                epoch: 1_003,
                acked: None,
            },
        ];
        for plain in replies {
            let plain_bytes = msg_bytes(&plain);
            round_trip(&WireMsg::Proto(plain.clone()));
            for upto in [0, 1, 300, u64::MAX] {
                let mut acked = plain.clone();
                assert!(acked.carry_ack(upto));
                let mut expected = plain_bytes.clone();
                expected[0] |= FLAG_ACKED;
                expected.extend(varints(&[upto]));
                assert_eq!(msg_bytes(&acked), expected, "{plain:?} acked to {upto}");
                round_trip(&WireMsg::Proto(acked));
            }
        }
        assert_eq!(
            msg_bytes(&Msg::WriteAckCausal { upto: 300 }),
            [TAG_WRITE_ACK_CAUSAL, 0xAC, 0x02]
        );
        round_trip(&WireMsg::Proto(Msg::WriteAckCausal { upto: 0 }));
    }

    /// A causal write is its object, value, stamp, issue time and stream
    /// position, no epoch; one whose writer waits on its ack differs only
    /// in the ack-now flag.
    #[test]
    fn an_ack_now_write_is_the_plain_causal_write_under_its_flag() {
        let alpha_v = VectorClock::from_entries(1, vec![40, 41, 39]);
        let plain = Msg::WriteReqCausal {
            object: ObjectId::new(41),
            value: Value::new(30_017),
            alpha_v: alpha_v.clone(),
            issued_at: Time::from_ticks(200_003),
            shard_seq: 2_411,
            ack_now: false,
        };
        let mut expected = vec![TAG_WRITE_REQ | FLAG_CAUSAL];
        expected.extend(varints(&[41, 30_017]));
        expected.extend(vclock_bytes(&alpha_v));
        expected.extend(varints(&[200_003, 2_411]));
        assert_eq!(msg_bytes(&plain), expected);
        let mut urgent = plain.clone();
        if let Msg::WriteReqCausal { ack_now, .. } = &mut urgent {
            *ack_now = true;
        }
        expected[0] |= FLAG_ACK_NOW;
        assert_eq!(msg_bytes(&urgent), expected);
        round_trip(&WireMsg::Proto(plain));
        round_trip(&WireMsg::Proto(urgent));
    }

    /// An acked flag promises a cursor: a frame cut before it is
    /// `Truncated`, never a reply without its ack.
    #[test]
    fn an_acked_reply_without_its_cursor_is_truncated() {
        let mut cut = msg_bytes(&Msg::ValidateRep {
            object: ObjectId::new(1),
            outcome: ValidateOutcome::StillValid,
            server_now: Time::from_ticks(5),
            epoch: 2,
            acked: None,
        });
        cut[0] |= FLAG_ACKED;
        assert_eq!(
            get_msg(&mut Reader::new(&cut)),
            Err(WireError::Truncated { what: "acked" })
        );
    }

    /// Every tag byte decodes by what it says or is refused: a kind no
    /// generation 7 message has (retired kinds 8 and 10–16 included), or a
    /// flag its kind does not define (an
    /// ack on a request, a stamp on a still-valid verdict, ack-now on a
    /// physical write), is `UnknownTag` naming the whole byte — never a
    /// panic, never a bit silently ignored.
    #[test]
    fn every_tag_with_a_flag_its_kind_does_not_define_is_an_unknown_tag() {
        // Enough bytes after the tag for any message's fields to decode.
        let mut body = vec![1u8; 8];
        body.extend(vclock_bytes(&VectorClock::from_entries(0, vec![3, 4])));
        body.extend([1u8; 8]);
        let mut defined = 0;
        for tag in 0..=u8::MAX {
            let (kind, flags) = (tag & KIND, tag & !KIND);
            let legal: &[u8] = match kind {
                TAG_FETCH_REP => &[0x00, 0x20, 0x40, 0x60],
                TAG_VALIDATE_REP => &[0x00, 0x20, 0x80, 0xA0, 0xC0, 0xE0],
                TAG_WRITE_REQ => &[0x00, 0x40, 0x60],
                TAG_INVALIDATE_PUSH => &[0x00, 0x40],
                8 | 10..=16 => &[],
                0..=TAG_GAP => &[0x00],
                _ => &[],
            };
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&body);
            let decoded = get_msg(&mut Reader::new(&bytes));
            if legal.contains(&flags) {
                defined += 1;
                assert!(
                    !matches!(decoded, Err(WireError::UnknownTag { .. })),
                    "tag {tag:#04x}: {decoded:?}"
                );
            } else {
                assert_eq!(
                    decoded,
                    Err(WireError::UnknownTag { what: "msg", tag }),
                    "tag {tag:#04x}"
                );
            }
        }
        // 10 kinds, four of them with flags: 6 + 4 + 6 + 3 + 2 tags.
        assert_eq!(defined, 21);
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
            (TAG_VALIDATE_REQ, "object"),
            (TAG_WRITE_ACK, "object"),
            (TAG_INVALIDATE_PUSH, "object"),
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
    fn vclock_rejects_owner_out_of_range() {
        // Site 5 of a 2-wide clock.
        let mut r = Reader::new(&[5, 2, 0, 0, 0]);
        assert_eq!(get_vclock(&mut r), Err(WireError::BadVectorClock));
    }
}
