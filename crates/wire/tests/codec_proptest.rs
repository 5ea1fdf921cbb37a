//! Property tests for the tc-wire codec: every message the transport can
//! utter survives an encode→decode round trip bit-exactly, and no
//! corruption of the byte stream — truncation, bit flips anywhere in a
//! frame, alien magic, version skew, a generation 1–4 header, or outright
//! garbage — ever panics the decoder or is misread as a frame.
//!
//! The generators draw from the *full* message space (all six `WireMsg`
//! variants, every protocol `Msg` variant, every `ProtocolKind`, physical
//! and causal versions, vector clocks of varying width, non-ASCII reject
//! reasons), so
//! a round-trip failure in any field of any variant surfaces here without
//! a hand-written case per field. Every integer is a varint, so scalars
//! are drawn from the whole `u64` range at a uniformly random magnitude:
//! every encoded width from 1 to 10 bytes turns up, and so do `0` and
//! `u64::MAX`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use tc_clocks::{Delta, Time, VectorClock};
use tc_core::{ObjectId, Value};
use tc_lifetime::{
    CausalStamp, DurabilityMode, FsyncPolicy, Msg, Propagation, ProtocolConfig, ProtocolKind,
    ValidateOutcome, WireVersion,
};
use tc_wire::{
    crc32_pair, decode_frame, decode_header, encode_frame, get_vclock, put_vclock, read_frame,
    uvar_encoding, write_frame, Reader, WireError, WireMsg, Writer, LEGACY_MAGIC, MAGIC,
    WIRE_VERSION,
};

fn arb_time(rng: &mut StdRng) -> Time {
    Time::from_ticks(arb_magnitude(rng))
}

fn arb_delta(rng: &mut StdRng) -> Delta {
    if rng.gen_bool(0.1) {
        Delta::INFINITE
    } else {
        Delta::from_ticks(rng.gen_range(0..1_000_000))
    }
}

fn arb_object(rng: &mut StdRng) -> ObjectId {
    ObjectId::new(arb_u32(rng))
}

fn arb_value(rng: &mut StdRng) -> Value {
    Value::new(arb_magnitude(rng))
}

/// A `u64` of uniformly random *magnitude*: every varint width 1..=10 is
/// as likely as any other (a uniform `u64` is ten bytes almost surely).
fn arb_magnitude(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..=64u32) {
        0 => 0,
        bits => rng.gen_range(0..=u64::MAX) >> (64 - bits),
    }
}

/// An id or length: `u32` in memory, of uniformly random magnitude.
fn arb_u32(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0..=32u32) {
        0 => 0,
        bits => rng.gen_range(0..=u32::MAX) >> (32 - bits),
    }
}

struct ArbMagnitude;

/// A lane of one, two or three varint bytes, equally likely, edges
/// included.
struct ArbLane;

impl Strategy for ArbLane {
    type Value = u16;
    fn sample(&self, rng: &mut StdRng) -> u16 {
        match rng.gen_range(0..3u8) {
            0 => rng.gen_range(0..=127),
            1 => rng.gen_range(128..=16_383),
            _ => rng.gen_range(16_384..=u16::MAX),
        }
    }
}

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

/// Entries of mixed magnitude, or — as a live fleet's are — clustered a
/// few dozen above a common base, which is what the base form saves on.
fn arb_entries(rng: &mut StdRng, n: usize) -> Vec<u64> {
    if rng.gen_bool(0.5) {
        (0..n).map(|_| arb_magnitude(rng)).collect()
    } else {
        let base = arb_magnitude(rng);
        (0..n)
            .map(|_| base.saturating_add(rng.gen_range(0..64)))
            .collect()
    }
}

fn arb_vclock(rng: &mut StdRng) -> VectorClock {
    let n = rng.gen_range(1..=6usize);
    let site = rng.gen_range(0..n);
    VectorClock::from_entries(site, arb_entries(rng, n))
}

fn arb_opt_vclock(rng: &mut StdRng) -> Option<VectorClock> {
    rng.gen_bool(0.5).then(|| arb_vclock(rng))
}

/// A physical version (value and α) or a causal one (plus the writer's
/// stamp), equally likely.
fn arb_version(rng: &mut StdRng) -> WireVersion {
    WireVersion {
        value: arb_value(rng),
        alpha_t: arb_time(rng),
        causal: rng.gen_bool(0.5).then(|| CausalStamp {
            alpha_v: arb_vclock(rng),
            writer: arb_u32(rng) as usize,
        }),
    }
}

fn arb_protocol(rng: &mut StdRng) -> ProtocolConfig {
    let kind = match rng.gen_range(0..6u8) {
        0 => ProtocolKind::sc(),
        1 => ProtocolKind::Tsc {
            delta: arb_delta(rng),
        },
        2 => ProtocolKind::cc(),
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
        propagation: if rng.gen_bool(0.5) {
            Propagation::Pull
        } else {
            Propagation::PushInvalidate
        },
        retry_after: arb_delta(rng),
        shards: rng.gen_range(1..=64usize),
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

/// Every message kind, plus the two replies with a cumulative causal ack
/// riding on them.
fn arb_proto_msg(rng: &mut StdRng) -> Msg {
    match rng.gen_range(0..13u8) {
        // Kind 8 is retired; the gap report (wire kind 17) takes its draw.
        8 => Msg::Gap {
            upto: arb_magnitude(rng),
        },
        // Kinds 10–16 are retired too: 10 draws the causal write, 11 and
        // 12 a reply with an ack riding on it.
        10 => arb_plain_msg(rng, 17),
        kind @ 11..=12 => {
            let mut reply = arb_plain_msg(rng, [1, 3][usize::from(kind - 11)]);
            assert!(reply.carry_ack(arb_magnitude(rng)));
            reply
        }
        kind => arb_plain_msg(rng, kind),
    }
}

/// Message kind `kind` (its wire tag's kind bits; 17 is the causal write),
/// with no ack riding on a reply.
fn arb_plain_msg(rng: &mut StdRng, kind: u8) -> Msg {
    match kind {
        0 => Msg::FetchReq {
            object: arb_object(rng),
            epoch: arb_magnitude(rng),
        },
        1 => Msg::FetchRep {
            object: arb_object(rng),
            version: arb_version(rng),
            server_now: arb_time(rng),
            epoch: arb_magnitude(rng),
            acked: None,
        },
        2 => Msg::ValidateReq {
            object: arb_object(rng),
            value: arb_value(rng),
            epoch: arb_magnitude(rng),
        },
        3 => Msg::ValidateRep {
            object: arb_object(rng),
            outcome: if rng.gen_bool(0.5) {
                ValidateOutcome::StillValid
            } else {
                ValidateOutcome::Newer(arb_version(rng))
            },
            server_now: arb_time(rng),
            epoch: arb_magnitude(rng),
            acked: None,
        },
        4 => Msg::WriteReq {
            object: arb_object(rng),
            value: arb_value(rng),
            epoch: arb_magnitude(rng),
        },
        17 => Msg::WriteReqCausal {
            object: arb_object(rng),
            value: arb_value(rng),
            alpha_v: arb_vclock(rng),
            issued_at: arb_time(rng),
            shard_seq: arb_magnitude(rng),
            ack_now: rng.gen_bool(0.5),
        },
        5 => Msg::WriteAck {
            object: arb_object(rng),
            alpha_t: arb_time(rng),
            epoch: arb_magnitude(rng),
        },
        6 => Msg::WriteAckCausal {
            upto: arb_magnitude(rng),
        },
        7 => Msg::InvalidatePush {
            object: arb_object(rng),
            alpha_t: arb_time(rng),
            alpha_v: arb_opt_vclock(rng),
        },
        9 => Msg::DeltaUpdate {
            seq: arb_magnitude(rng),
            delta: arb_delta(rng),
        },
        _ => unreachable!("no message kind {kind}"),
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
                n_clients: arb_u32(rng),
                shard: arb_u32(rng),
                protocol: arb_protocol(rng),
            },
            1 => WireMsg::HelloAck {
                shard: arb_u32(rng),
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

    /// Any message, any lane: encode → decode is the identity, the
    /// whole frame is consumed, and the blocking `std::io` path agrees
    /// with the in-memory path.
    #[test]
    fn every_variant_round_trips(shard in ArbLane, msg in ArbWireMsg) {
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
        shard in ArbLane,
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
        lane in ArbLane,
        msg in ArbWireMsg,
        pos in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let mut frame = encode_frame(lane, &msg);
        let header_len = decode_header(&frame).unwrap().1;
        let idx = header_len + pos % (frame.len() - header_len);
        frame[idx] ^= 1 << bit;
        prop_assert!(
            matches!(decode_frame(&frame), Err(WireError::BadCrc { .. })),
            "flip at payload byte {} bit {}", idx - header_len, bit
        );
    }

    /// Every single-bit flip anywhere in a frame, header included, is an
    /// `Err`: never a frame, not even the intended one on another lane.
    /// The CRC covers every header byte before it, so a flip that leaves
    /// the header's layout alone fails it; one that turns the magic,
    /// version or a varint's continuation bit is refused by the header
    /// checks or shifts every later field, and the CRC then read out of
    /// the shifted bytes does not match.
    #[test]
    fn every_single_bit_flip_anywhere_is_rejected(lane in ArbLane, msg in ArbWireMsg) {
        let frame = encode_frame(lane, &msg);
        for idx in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[idx] ^= 1 << bit;
                let got = decode_frame(&flipped);
                prop_assert!(got.is_err(), "flip at byte {} bit {} read as {:?}", idx, bit, got);
            }
        }
    }

    /// A stream that does not open with the magic is rejected before any
    /// payload byte is interpreted. (`0x52` opens a generation 1–4 header
    /// only when `"WCT"` follows; here the version byte follows.)
    #[test]
    fn alien_magic_is_rejected(msg in ArbWireMsg, magic in 0u8..=255) {
        prop_assume!(magic != MAGIC);
        let mut frame = encode_frame(0, &msg);
        frame[0] = magic;
        prop_assert_eq!(decode_frame(&frame), Err(WireError::BadMagic { found: magic }));
    }

    /// A frame from any other protocol generation is rejected instead of
    /// being field-guessed.
    #[test]
    fn alien_version_is_rejected(msg in ArbWireMsg, version in 0u8..=255) {
        prop_assume!(version != WIRE_VERSION);
        let mut frame = encode_frame(0, &msg);
        frame[1] = version;
        prop_assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadVersion { found: u16::from(version) })
        );
    }

    /// The legacy gate: whatever a generation 1–4 header says after
    /// `"TCWR"` — any version, lane, length or CRC — the frame is refused
    /// by the version it names, never read as a frame of this generation.
    #[test]
    fn a_legacy_header_is_refused_by_its_version(
        version in 0u16..=u16::MAX,
        lane in 0u16..=u16::MAX,
        len in 0u32..=u32::MAX,
        crc in 0u32..=u32::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..32),
    ) {
        let mut w = Writer::new();
        for b in LEGACY_MAGIC {
            w.u8(b);
        }
        w.u16(version);
        w.u16(lane);
        w.u32(len);
        w.u32(crc);
        let mut frame = w.into_bytes();
        frame.extend_from_slice(&payload);
        prop_assert_eq!(decode_frame(&frame), Err(WireError::BadVersion { found: version }));
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
    /// entry plus the base.
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
        prop_assert!(bytes.len() <= 2 + 2 + 10 + 10 * width);
        let mut r = Reader::new(&bytes);
        prop_assert_eq!(get_vclock(&mut r), Ok(vc));
        prop_assert_eq!(r.remaining(), 0);
        // A clock is not self-delimiting short of its last entry: sampled
        // strict prefixes (all of them would be quadratic at this width).
        for cut in (0..bytes.len()).step_by(1 + bytes.len() / 64) {
            prop_assert!(get_vclock(&mut Reader::new(&bytes[..cut])).is_err());
        }
    }

    /// Offsetting from the base never costs more than the base itself: a
    /// clock is at most its generation-2 encoding (owner, width, each
    /// entry a plain varint) plus its base's varint, whatever its entries.
    #[test]
    fn a_clock_costs_at_most_its_v2_form_plus_its_base(
        width in 1usize..=64,
        site_seed in 0usize..64,
        clustered in 0u8..2,
        base in ArbMagnitude,
        raw in proptest::collection::vec(ArbMagnitude, 64),
    ) {
        let entries: Vec<u64> = if clustered == 1 {
            raw[..width].iter().map(|r| base.saturating_add(r % 64)).collect()
        } else {
            raw[..width].to_vec()
        };
        let vc = VectorClock::from_entries(site_seed % width, entries.clone());
        let mut w = Writer::new();
        put_vclock(&mut w, &vc);
        let v3 = w.into_bytes().len();
        let v2 = uvar_bytes(vc.site() as u64).len()
            + uvar_bytes(width as u64).len()
            + entries.iter().map(|&e| uvar_bytes(e).len()).sum::<usize>();
        let least = *entries.iter().min().unwrap();
        prop_assert!(v3 <= v2 + uvar_bytes(least).len(), "v3 {} v2 {}", v3, v2);
    }

    /// Pure garbage never panics the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
        let _ = decode_frame(&bytes);
    }

    /// Garbage wrapped in an honest envelope (valid magic, version,
    /// length, CRC) drives the *message* decoder through its deep error
    /// paths — unknown tags and undefined tag flags, truncated fields,
    /// malformed vector clocks — which must all return `Err`, not panic.
    /// When such a payload happens to parse, the strict trailing-bytes
    /// check still guarantees the whole frame was consumed.
    #[test]
    fn garbage_payload_with_honest_envelope_never_panics(
        payload in proptest::collection::vec(0u8..=255, 1..192),
    ) {
        let (len, width) = uvar_encoding(payload.len() as u64);
        let mut bytes = vec![MAGIC, WIRE_VERSION, 0];
        bytes.extend_from_slice(&len[..width]);
        let crc = crc32_pair(&bytes, &payload);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&payload);
        if let Ok((_, _, used)) = decode_frame(&bytes) {
            prop_assert_eq!(used, bytes.len());
        }
    }
}
