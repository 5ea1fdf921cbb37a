//! Property tests for the tc-wire codec: every message the transport can
//! utter survives an encode→decode round trip bit-exactly, and no
//! corruption of the byte stream — truncation, bit flips, alien magic,
//! version skew, or outright garbage — ever panics the decoder.
//!
//! The generators draw from the *full* message space (all six `WireMsg`
//! variants, all nine protocol `Msg` variants, every `ProtocolKind`,
//! optional vector clocks of varying width, non-ASCII reject reasons), so
//! a round-trip failure in any field of any variant surfaces here without
//! a hand-written case per field.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use tc_clocks::{Delta, Time, VectorClock};
use tc_core::{ObjectId, Value};
use tc_lifetime::{
    DurabilityMode, FsyncPolicy, GeoWrite, InvalidateEntry, Msg, Propagation, ProtocolConfig,
    ProtocolKind, PushBatch, StalePolicy, ValidateOutcome, WireVersion,
};
use tc_wire::{
    crc32, decode_frame, encode_frame, get_vclock, put_vclock, read_frame, write_frame, Reader,
    WireError, WireMsg, Writer, HEADER_LEN, MAGIC, WIRE_VERSION,
};

fn arb_time(rng: &mut StdRng) -> Time {
    Time::from_ticks(rng.gen_range(0..=u64::MAX))
}

fn arb_delta(rng: &mut StdRng) -> Delta {
    if rng.gen_bool(0.1) {
        Delta::INFINITE
    } else {
        Delta::from_ticks(rng.gen_range(0..1_000_000))
    }
}

fn arb_object(rng: &mut StdRng) -> ObjectId {
    ObjectId::new(rng.gen_range(0..=u32::MAX))
}

fn arb_value(rng: &mut StdRng) -> Value {
    Value::new(rng.gen_range(0..=u64::MAX))
}

/// A `u64` of uniformly random *magnitude*: every varint width 1..=10 is
/// as likely as any other (a uniform `u64` is ten bytes almost surely).
fn arb_magnitude(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..=64u32) {
        0 => 0,
        bits => rng.gen_range(0..=u64::MAX) >> (64 - bits),
    }
}

struct ArbMagnitude;

impl Strategy for ArbMagnitude {
    type Value = u64;
    fn sample(&self, rng: &mut StdRng) -> u64 {
        arb_magnitude(rng)
    }
}

fn uvar_bytes(v: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.uvar(v);
    w.into_bytes()
}

fn arb_vclock(rng: &mut StdRng) -> VectorClock {
    let n = rng.gen_range(1..=6usize);
    let site = rng.gen_range(0..n);
    let entries: Vec<u64> = (0..n).map(|_| arb_magnitude(rng)).collect();
    VectorClock::from_entries(site, entries)
}

fn arb_opt_vclock(rng: &mut StdRng) -> Option<VectorClock> {
    rng.gen_bool(0.5).then(|| arb_vclock(rng))
}

fn arb_version(rng: &mut StdRng) -> WireVersion {
    WireVersion {
        value: arb_value(rng),
        alpha_t: arb_time(rng),
        alpha_v: arb_opt_vclock(rng),
        tiebreak: (arb_time(rng), rng.gen_range(0..64usize)),
    }
}

fn arb_entry(rng: &mut StdRng) -> InvalidateEntry {
    InvalidateEntry {
        object: arb_object(rng),
        alpha_t: arb_time(rng),
        alpha_v: arb_opt_vclock(rng),
    }
}

fn arb_protocol(rng: &mut StdRng) -> ProtocolConfig {
    let kind = match rng.gen_range(0..6u8) {
        0 => ProtocolKind::Sc,
        1 => ProtocolKind::Tsc {
            delta: arb_delta(rng),
        },
        2 => ProtocolKind::Cc,
        3 => ProtocolKind::Tcc {
            delta: arb_delta(rng),
        },
        // Finite by construction: NaN would be preserved on the wire but
        // break the `PartialEq` this test judges round trips with.
        4 => ProtocolKind::TccLogical {
            xi_delta: rng.gen_range(0.0..1.0e6),
        },
        _ => ProtocolKind::NoCache,
    };
    ProtocolConfig {
        kind,
        stale: if rng.gen_bool(0.5) {
            StalePolicy::Invalidate
        } else {
            StalePolicy::MarkOld
        },
        propagation: if rng.gen_bool(0.5) {
            Propagation::Pull
        } else {
            Propagation::PushInvalidate
        },
        retry_after: arb_delta(rng),
        shards: rng.gen_range(1..=64usize),
        push_batch: PushBatch {
            max_entries: rng.gen_range(0..=1024usize),
            max_delay: arb_delta(rng),
        },
        durability: match rng.gen_range(0..3u8) {
            0 => DurabilityMode::Ephemeral,
            1 => DurabilityMode::Durable {
                fsync: FsyncPolicy::PER_WRITE,
            },
            _ => DurabilityMode::Durable {
                fsync: FsyncPolicy {
                    max_pending: rng.gen_range(1..=1024usize),
                    max_delay: arb_delta(rng),
                },
            },
        },
    }
}

fn arb_geo_write(rng: &mut StdRng) -> GeoWrite {
    GeoWrite {
        object: arb_object(rng),
        value: arb_value(rng),
        alpha_v: arb_vclock(rng),
        issued_at: arb_time(rng),
        shard_seq: rng.gen_range(0..=u64::MAX),
    }
}

fn arb_proto_msg(rng: &mut StdRng) -> Msg {
    match rng.gen_range(0..17u8) {
        0 => Msg::FetchReq {
            object: arb_object(rng),
            epoch: rng.gen_range(0..=u64::MAX),
        },
        1 => Msg::FetchRep {
            object: arb_object(rng),
            version: arb_version(rng),
            server_now: arb_time(rng),
            epoch: rng.gen_range(0..=u64::MAX),
        },
        2 => Msg::ValidateReq {
            object: arb_object(rng),
            value: arb_value(rng),
            epoch: rng.gen_range(0..=u64::MAX),
        },
        3 => Msg::ValidateRep {
            object: arb_object(rng),
            outcome: if rng.gen_bool(0.5) {
                ValidateOutcome::StillValid
            } else {
                ValidateOutcome::Newer(arb_version(rng))
            },
            server_now: arb_time(rng),
            epoch: rng.gen_range(0..=u64::MAX),
        },
        4 => Msg::WriteReq {
            object: arb_object(rng),
            value: arb_value(rng),
            alpha_v: arb_opt_vclock(rng),
            issued_at: arb_time(rng),
            epoch: rng.gen_range(0..=u64::MAX),
            shard_seq: rng.gen_range(0..=u64::MAX),
        },
        5 => Msg::WriteAck {
            object: arb_object(rng),
            alpha_t: arb_time(rng),
            epoch: rng.gen_range(0..=u64::MAX),
        },
        6 => Msg::WriteAckCausal {
            object: arb_object(rng),
            value: arb_value(rng),
        },
        7 => Msg::InvalidatePush {
            object: arb_object(rng),
            alpha_t: arb_time(rng),
            alpha_v: arb_opt_vclock(rng),
        },
        8 => {
            let n = rng.gen_range(0..10usize);
            Msg::InvalidateBatch {
                entries: (0..n).map(|_| arb_entry(rng)).collect(),
            }
        }
        9 => Msg::DeltaUpdate {
            seq: rng.gen_range(0..=u64::MAX),
            delta: arb_delta(rng),
        },
        10 => {
            let n = rng.gen_range(0..6usize);
            Msg::GeoBatch {
                origin: rng.gen_range(0..=u32::MAX),
                seq: rng.gen_range(0..=u64::MAX),
                entries: (0..n).map(|_| arb_geo_write(rng)).collect(),
            }
        }
        11 => Msg::GeoBatchAck {
            upto: rng.gen_range(0..=u64::MAX),
        },
        12 => Msg::GeoApply {
            entry: arb_geo_write(rng),
        },
        13 => Msg::GeoApplyAck {
            writer: rng.gen_range(0..=u32::MAX),
            k: rng.gen_range(0..=u64::MAX),
        },
        14 => Msg::GeoLocalApply {
            writer: rng.gen_range(0..=u32::MAX),
            k: rng.gen_range(0..=u64::MAX),
        },
        15 => Msg::GeoAttach {
            site: rng.gen_range(0..=u32::MAX),
            context_v: arb_vclock(rng),
        },
        _ => Msg::GeoAttachOk {
            site: rng.gen_range(0..=u32::MAX),
        },
    }
}

fn arb_reason(rng: &mut StdRng) -> String {
    const CHARSET: &[char] = &['a', 'Z', '0', ' ', 'Δ', 'ε', '≠', '雨', '\n'];
    let n = rng.gen_range(0..24usize);
    (0..n)
        .map(|_| CHARSET[rng.gen_range(0..CHARSET.len())])
        .collect()
}

/// Uniformly samples the whole `WireMsg` space.
struct ArbWireMsg;

impl Strategy for ArbWireMsg {
    type Value = WireMsg;
    fn sample(&self, rng: &mut StdRng) -> WireMsg {
        match rng.gen_range(0..6u8) {
            0 => WireMsg::Hello {
                site: rng.gen_range(0..=u32::MAX),
                n_clients: rng.gen_range(0..=u32::MAX),
                shard: rng.gen_range(0..=u32::MAX),
                protocol: arb_protocol(rng),
            },
            1 => WireMsg::HelloAck {
                shard: rng.gen_range(0..=u32::MAX),
            },
            2 => WireMsg::HelloReject {
                reason: arb_reason(rng),
            },
            3 => WireMsg::Heartbeat,
            4 => WireMsg::Bye,
            _ => WireMsg::Proto(arb_proto_msg(rng)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any message, any shard tag: encode → decode is the identity, the
    /// whole frame is consumed, and the blocking `std::io` path agrees
    /// with the in-memory path.
    #[test]
    fn every_variant_round_trips(shard in 0u16..=u16::MAX, msg in ArbWireMsg) {
        let frame = encode_frame(shard, &msg);
        prop_assert_eq!(
            decode_frame(&frame),
            Ok((shard, msg.clone(), frame.len()))
        );

        let mut buf = Vec::new();
        write_frame(&mut buf, shard, &msg).expect("vec writes are infallible");
        prop_assert_eq!(buf.clone(), frame, "write_frame and encode_frame agree");
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor) {
            Ok((io_shard, io_msg)) => {
                prop_assert_eq!(io_shard, shard);
                prop_assert_eq!(io_msg, msg);
            }
            Err(e) => prop_assert!(false, "io round trip failed: {e}"),
        }
    }

    /// The zero-copy appender produces the allocating encoder's bytes
    /// exactly, regardless of what already sits in the buffer, and the
    /// slice-by-8 CRC agrees with the byte-at-a-time reference on every
    /// payload the codec can produce.
    #[test]
    fn encode_into_is_byte_identical(
        shard in 0u16..=u16::MAX,
        msg in ArbWireMsg,
        prefix in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let frame = encode_frame(shard, &msg);
        prop_assert_eq!(
            tc_wire::crc32(&frame),
            tc_wire::crc32_bytewise(&frame),
            "CRC implementations disagree"
        );
        let mut buf = prefix.clone();
        tc_wire::encode_frame_into(&mut buf, shard, &msg);
        prop_assert_eq!(&buf[..prefix.len()], &prefix[..], "prefix clobbered");
        prop_assert_eq!(&buf[prefix.len()..], &frame[..]);
    }

    /// Frames are self-delimiting: whatever follows one on the stream
    /// (the next frame, or garbage) is not touched by its decode.
    #[test]
    fn decoding_consumes_exactly_one_frame(
        msg in ArbWireMsg,
        junk in proptest::collection::vec(0u8..=255, 0..32),
    ) {
        let mut bytes = encode_frame(5, &msg);
        let frame_len = bytes.len();
        bytes.extend_from_slice(&junk);
        prop_assert_eq!(decode_frame(&bytes), Ok((5, msg, frame_len)));
    }

    /// Cutting a frame anywhere — mid-header or mid-payload — yields
    /// `Truncated`, never a panic and never a misparse.
    #[test]
    fn truncation_anywhere_is_rejected(msg in ArbWireMsg, pos in 0usize..1_000_000) {
        let frame = encode_frame(1, &msg);
        let cut = pos % frame.len();
        prop_assert!(
            matches!(decode_frame(&frame[..cut]), Err(WireError::Truncated { .. })),
            "cut at {} of {}", cut, frame.len()
        );
    }

    /// Any single-bit flip in the payload is caught by the CRC (CRC-32
    /// detects all single-burst errors shorter than the polynomial).
    #[test]
    fn payload_bit_flips_fail_the_crc(
        msg in ArbWireMsg,
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let mut frame = encode_frame(2, &msg);
        let payload_len = frame.len() - HEADER_LEN;
        let idx = HEADER_LEN + pos % payload_len;
        frame[idx] ^= 1 << bit;
        prop_assert!(
            matches!(decode_frame(&frame), Err(WireError::BadCrc { .. })),
            "flip at payload byte {} bit {}", idx - HEADER_LEN, bit
        );
    }

    /// A stream that does not open with the magic is rejected before any
    /// payload byte is interpreted.
    #[test]
    fn alien_magic_is_rejected(msg in ArbWireMsg, magic in 0u32..=u32::MAX) {
        prop_assume!(magic != MAGIC);
        let mut frame = encode_frame(0, &msg);
        frame[..4].copy_from_slice(&magic.to_le_bytes());
        prop_assert_eq!(decode_frame(&frame), Err(WireError::BadMagic { found: magic }));
    }

    /// A frame from any other protocol generation is rejected instead of
    /// being field-guessed.
    #[test]
    fn alien_version_is_rejected(msg in ArbWireMsg, version in 0u16..=u16::MAX) {
        prop_assume!(version != WIRE_VERSION);
        let mut frame = encode_frame(0, &msg);
        frame[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadVersion { found: version })
        );
    }

    /// The `Context_i` a client carries across regions (rule 3 state plus
    /// its causal vector) survives the wire bit-exactly for any site and
    /// any clock width/contents — a migration must resume from *exactly*
    /// the context it drained with, so lossy encoding here would silently
    /// weaken the timed guarantee at the destination region.
    #[test]
    fn migration_context_round_trips_exactly(
        shard in 0u16..=u16::MAX,
        width in 1usize..=32,
        raw in proptest::collection::vec(0u64..=u64::MAX, 32),
        site_seed in 0usize..32,
    ) {
        let site = site_seed % width;
        let context_v = VectorClock::from_entries(site, raw[..width].to_vec());
        let msg = WireMsg::Proto(Msg::GeoAttach {
            site: site as u32,
            context_v: context_v.clone(),
        });
        let frame = encode_frame(shard, &msg);
        let (got_shard, got, used) = decode_frame(&frame).expect("attach frame decodes");
        prop_assert_eq!(got_shard, shard);
        prop_assert_eq!(used, frame.len());
        match got {
            WireMsg::Proto(Msg::GeoAttach { site: s, context_v: v }) => {
                prop_assert_eq!(s, site as u32);
                prop_assert_eq!(v, context_v);
            }
            other => prop_assert!(false, "decoded wrong variant: {other:?}"),
        }
    }

    /// Every `u64` survives the varint, in at most ten bytes, and every
    /// strict prefix of its encoding is `Truncated`.
    #[test]
    fn uvar_round_trips_and_its_prefixes_are_truncated(v in ArbMagnitude) {
        let bytes = uvar_bytes(v);
        prop_assert!((1..=10).contains(&bytes.len()));
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(r.uvar("v"), Ok(v));
        prop_assert_eq!(r.remaining(), 0);
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                Reader::new(&bytes[..cut]).uvar("v"),
                Err(WireError::Truncated { what: "v" })
            );
        }
    }

    /// Only the shortest encoding is accepted: padding a value with a
    /// zero continuation group, or spilling past 64 bits, is `BadVarint`.
    #[test]
    fn uvar_rejects_overlong_and_overflowing(v in ArbMagnitude, spill in 2u8..=255) {
        let mut padded = uvar_bytes(v);
        *padded.last_mut().unwrap() |= 0x80;
        padded.push(0x00);
        prop_assert_eq!(
            Reader::new(&padded).uvar("v"),
            Err(WireError::BadVarint { what: "v" })
        );
        let mut wide = uvar_bytes(v | 1 << 63);
        wide[9] = spill;
        prop_assert_eq!(
            Reader::new(&wide).uvar("v"),
            Err(WireError::BadVarint { what: "v" })
        );
    }

    /// Arbitrary bytes never panic the varint reader, and whatever it
    /// accepts is canonical: re-encoding gives back exactly the bytes it
    /// consumed.
    #[test]
    fn uvar_accepts_only_what_it_would_write(
        bytes in proptest::collection::vec(0u8..=255, 0..16),
    ) {
        let mut r = Reader::new(&bytes);
        if let Ok(v) = r.uvar("v") {
            let used = bytes.len() - r.remaining();
            prop_assert_eq!(&uvar_bytes(v)[..], &bytes[..used]);
        }
    }

    /// Clocks of any width up to 1 024 with entries of mixed magnitude
    /// round-trip exactly, owner included, and cost at most ten bytes an
    /// entry.
    #[test]
    fn vclock_round_trips_at_any_width(
        width in 1usize..=1_024,
        site_seed in 0usize..1_024,
        raw in proptest::collection::vec(ArbMagnitude, 1_024),
    ) {
        let vc = VectorClock::from_entries(site_seed % width, raw[..width].to_vec());
        let mut w = Writer::new();
        put_vclock(&mut w, &vc);
        let bytes = w.into_bytes();
        prop_assert!(bytes.len() <= 2 + 2 + 10 * width);
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(get_vclock(&mut r), Ok(vc));
        prop_assert_eq!(r.remaining(), 0);
        // A clock is not self-delimiting short of its last entry: sampled
        // strict prefixes (all of them would be quadratic at this width).
        for cut in (0..bytes.len()).step_by(1 + bytes.len() / 64) {
            prop_assert!(get_vclock(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    /// Pure garbage never panics the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
        let _ = decode_frame(&bytes);
    }

    /// Garbage wrapped in an honest envelope (valid magic, version,
    /// length, CRC) drives the *message* decoder through its deep error
    /// paths — unknown tags, bad presence bytes, truncated fields,
    /// malformed vector clocks — which must all return `Err`, not panic.
    /// When such a payload happens to parse, the strict trailing-bytes
    /// check still guarantees the whole frame was consumed.
    #[test]
    fn garbage_payload_with_honest_envelope_never_panics(
        payload in proptest::collection::vec(0u8..=255, 1..96),
    ) {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u16(WIRE_VERSION);
        w.u16(0);
        w.u32(payload.len() as u32);
        w.u32(crc32(&payload));
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&payload);
        if let Ok((_, _, used)) = decode_frame(&bytes) {
            prop_assert_eq!(used, bytes.len());
        }
    }
}
