//! Framing: the self-delimiting header wire generation 5 introduced and
//! generations 6 and 7 keep, 8 to 13 bytes in front of every payload.
//!
//! ```text
//!  0       1       2
//!  +-------+-------+-----------+-------------+--------+----------------+
//!  | magic | ver   | lane      | length      | crc32  | payload ...    |
//!  | u8    | u8    | uvar, 1–3 | uvar, 1–4   | u32 LE | length bytes   |
//!  +-------+-------+-----------+-------------+--------+----------------+
//! ```
//!
//! * `magic` — [`MAGIC`], `0xAD`: the complement of `0x52`, the first byte
//!   of `"TCWR"` that every v1–v4 frame opens with, so no single bit flip
//!   (nor seven) turns one into the other. Anything else means the stream
//!   is not speaking this protocol and is dropped before a payload byte is
//!   trusted.
//! * `ver` — [`WIRE_VERSION`], 7: a reader refuses frames of another
//!   protocol generation instead of guessing at field layouts (a
//!   generation 5 or 6 frame has this header, and is refused by its
//!   version).
//! * `lane` — the routing tag, a varint at most `u16::MAX`, carried in the
//!   clear so a reader can route (and a pcap reader can follow) frames
//!   without decoding payloads. On a reactor link, which multiplexes every
//!   site a client process hosts over one connection per shard, it is the
//!   site a `Proto` frame speaks for, in either direction (session frames
//!   speak for the link, on lane 0); in a WAL segment it is the owning
//!   shard.
//! * `length` — payload byte count, a varint capped at [`MAX_PAYLOAD`] so
//!   a corrupted length cannot make a reader allocate gigabytes.
//! * `crc32` — CRC-32/IEEE (see [`crate::crc`]) over every header byte
//!   before it and then the payload, so no byte of a frame — routing and
//!   sizing included — goes unchecked.
//!
//! A reader sizes and routes a frame from its first bytes alone: the
//! header is [`MIN_HEADER_LEN`] (8) bytes while the lane is below 128 and
//! the payload below 128 B, and never more than [`MAX_HEADER_LEN`] (13).
//!
//! Decoding is strict and checks, in order: the magic, the version, the
//! lane's range, canonical varints, the length cap, the CRC, the message,
//! and that no byte trails it. Each failure is its own [`WireError`], and
//! none of them panic. A header that ends mid-field is
//! [`WireError::Truncated`] from the one-shot decoders; the streaming
//! [`crate::FrameDecoder`] waits for more bytes instead.
//!
//! **The legacy gate.** Generations 1–4 framed every payload behind a fixed
//! 16-byte header — `"TCWR"`, a `u16` version, a `u16` lane, a `u32`
//! length and a payload-only CRC, all little-endian. Bytes that open with
//! those four magic bytes are read as such a header and refused as
//! [`WireError::BadVersion`] with the version it names, so an older peer
//! or WAL is refused by name instead of as noise: the stream is poisoned,
//! and tc-durable leaves the log untouched.

use std::io::{Read, Write};

use crate::codec::{uvar_encoding, Reader, WireError, Writer};
use crate::crc::{crc32_pair, crc32_word_pair};
use crate::msg::{get_wire_msg, put_wire_msg, WireMsg};

/// The frame magic: the complement of the first byte of `"TCWR"`.
pub const MAGIC: u8 = 0xAD;

/// The wire-protocol generation this build speaks — and the only one it
/// decodes: every other value is [`WireError::BadVersion`].
pub const WIRE_VERSION: u8 = 7;

/// The shortest header: lane and length one varint byte each.
pub const MIN_HEADER_LEN: usize = 8;

/// The longest header: lane `u16::MAX` (3 varint bytes) and length
/// [`MAX_PAYLOAD`] (4).
pub const MAX_HEADER_LEN: usize = 13;

/// The four bytes every generation 1–4 frame opens with.
pub const LEGACY_MAGIC: [u8; 4] = *b"TCWR";

/// The fixed header length of generations 1–4.
pub const LEGACY_HEADER_LEN: usize = 16;

/// Bytes of the CRC field.
const CRC_LEN: usize = 4;

/// Upper bound on a payload (16 MiB) — far beyond any legitimate frame
/// (the largest is a WAL snapshot), tight enough that a forged
/// length field cannot drive allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Routing tag: the site on a reactor link, the owning shard in a WAL
    /// segment.
    pub lane: u16,
    /// Payload byte count.
    pub len: u32,
    /// The CRC the frame carries, over the header bytes before it and then
    /// the payload.
    pub crc: u32,
}

/// Encodes `msg` into a complete frame on `lane`.
#[must_use]
pub fn encode_frame(lane: u16, msg: &WireMsg) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_frame_into(&mut bytes, lane, msg);
    bytes
}

/// Appends a complete frame for `msg` to `buf` without allocating when
/// `buf` has spare capacity — the hot path the socket drivers run per
/// message, reusing one scratch buffer across sends.
///
/// The payload is encoded directly after the header, with one byte
/// reserved for its length; the length and CRC are then patched in place
/// (a payload of 128 B or more shifts right to make room for a wider
/// length). The bytes produced are identical to [`encode_frame`]'s.
/// Anything already in `buf` is left untouched, so frames can be batched
/// back to back.
pub fn encode_frame_into(buf: &mut Vec<u8>, lane: u16, msg: &WireMsg) {
    encode_frame_body_into(buf, lane, |w| put_wire_msg(w, msg));
}

/// Appends a complete frame whose payload is written by `body` — the
/// generic form of [`encode_frame_into`] for payloads that are not
/// [`WireMsg`]s (e.g. `tc-durable`'s WAL records ride the same header, so
/// log corruption is detected by the very codec the transport already
/// trusts). Same zero-alloc warm-buffer behaviour; `lane` carries the
/// frame's routing tag (for a WAL segment, the owning shard).
pub fn encode_frame_body_into(buf: &mut Vec<u8>, lane: u16, body: impl FnOnce(&mut Writer)) {
    let start = buf.len();
    let mut w = Writer::over(std::mem::take(buf));
    w.u8(MAGIC);
    w.u8(WIRE_VERSION);
    w.uvar(u64::from(lane));
    let len_at = w.len();
    w.u8(0); // length, patched below
    w.u32(0); // crc, patched below
    body(&mut w);
    let mut bytes = w.into_bytes();
    let payload_len = bytes.len() - len_at - 1 - CRC_LEN;
    assert!(
        payload_len as u64 <= u64::from(MAX_PAYLOAD),
        "payload exceeds MAX_PAYLOAD"
    );
    let width = if payload_len < 0x80 {
        bytes[len_at] = payload_len as u8;
        1
    } else {
        widen_length(&mut bytes, len_at, payload_len)
    };
    let crc_at = len_at + width;
    let payload = &bytes[crc_at + CRC_LEN..];
    let crc = if crc_at - start == 4 {
        // Lane and length one byte each: hash the header from their values
        // rather than read back the bytes just written.
        let head = [MAGIC, WIRE_VERSION, lane as u8, payload_len as u8];
        crc32_word_pair(u32::from_le_bytes(head), payload)
    } else {
        crc32_pair(&bytes[start..crc_at], payload)
    };
    bytes[crc_at..crc_at + CRC_LEN].copy_from_slice(&crc.to_le_bytes());
    *buf = bytes;
}

/// Replaces the one length byte reserved at `at` with the varint of
/// `len`, shifting everything after it right, and returns the varint's
/// width: the path of a payload of 128 B or more, kept out of line so the
/// common one stays small.
#[cold]
#[inline(never)]
fn widen_length(bytes: &mut Vec<u8>, at: usize, len: usize) -> usize {
    let (varint, width) = uvar_encoding(len as u64);
    bytes.splice(at..=at, varint[..width].iter().copied());
    width
}

/// Decodes the header at the front of `bytes`, returning it and its
/// length in bytes. Validates magic, version, the lane's range, canonical
/// varints and the length cap; the CRC can only be checked once the
/// payload is in hand. Bytes that end mid-header are
/// [`WireError::Truncated`].
pub fn decode_header(bytes: &[u8]) -> Result<(FrameHeader, usize), WireError> {
    // The common header, lane and length one byte each, read by pattern:
    // the checks below pass it unchanged.
    if let [MAGIC, WIRE_VERSION, lane @ 0..=0x7F, len @ 0..=0x7F, c0, c1, c2, c3, ..] = *bytes {
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        let (lane, len) = (u16::from(lane), u32::from(len));
        return Ok((FrameHeader { lane, len, crc }, MIN_HEADER_LEN));
    }
    decode_any_header(bytes)
}

/// [`decode_header`] for every header: the checks in order, kept out of
/// line so the common header's path stays small.
#[inline(never)]
fn decode_any_header(bytes: &[u8]) -> Result<(FrameHeader, usize), WireError> {
    let mut r = Reader::new(bytes);
    if r.u8("frame magic")? != MAGIC {
        return Err(refuse_foreign(bytes));
    }
    let version = r.u8("frame version")?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion {
            found: u16::from(version),
        });
    }
    let lane = u16::try_from(r.uvar("frame lane")?)
        .map_err(|_| WireError::OutOfRange { what: "frame lane" })?;
    let len = r.uvar_u32("frame length")?;
    if len > MAX_PAYLOAD {
        return Err(WireError::OversizedPayload { len });
    }
    let crc = r.u32("frame crc")?;
    Ok((FrameHeader { lane, len, crc }, bytes.len() - r.remaining()))
}

/// The error for bytes that do not open with [`MAGIC`]: a generation 1–4
/// header is refused by the version it names (the legacy gate), anything
/// else is [`WireError::BadMagic`].
fn refuse_foreign(bytes: &[u8]) -> WireError {
    let n = bytes.len().min(LEGACY_MAGIC.len());
    if bytes[..n] != LEGACY_MAGIC[..n] {
        return WireError::BadMagic { found: bytes[0] };
    }
    if bytes.len() < LEGACY_HEADER_LEN {
        return WireError::Truncated {
            what: "legacy frame header",
        };
    }
    let found = u16::from_le_bytes([bytes[4], bytes[5]]); // the legacy gate's one read
    WireError::BadVersion { found }
}

/// The payload of the frame at the front of `bytes`, whose header —
/// `head_len` bytes, already decoded into `header` — it is checked against:
/// a payload cut short is `Truncated`, one whose CRC (over the header
/// bytes before the CRC field, then the payload) differs is `BadCrc`.
fn checked_payload<'a>(
    bytes: &'a [u8],
    header: &FrameHeader,
    head_len: usize,
) -> Result<&'a [u8], WireError> {
    let Some(payload) = bytes.get(head_len..head_len + header.len as usize) else {
        return Err(WireError::Truncated {
            what: "frame payload",
        });
    };
    let found = crc32_pair(&bytes[..head_len - CRC_LEN], payload);
    if found != header.crc {
        return Err(WireError::BadCrc {
            expected: header.crc,
            found,
        });
    }
    Ok(payload)
}

/// [`decode_frame`] past its header: the CRC, then the message, then a
/// strict no-trailing-bytes check. `FrameDecoder` calls it once a frame
/// whose header it already decoded has fully arrived.
pub(crate) fn decode_after_header(
    bytes: &[u8],
    header: &FrameHeader,
    head_len: usize,
) -> Result<WireMsg, WireError> {
    let mut r = Reader::new(checked_payload(bytes, header, head_len)?);
    let msg = get_wire_msg(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Decodes one complete frame from the front of `bytes`, returning the
/// lane, the message, and the number of bytes consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(u16, WireMsg, usize), WireError> {
    let (header, head_len) = decode_header(bytes)?;
    let msg = decode_after_header(bytes, &header, head_len)?;
    Ok((header.lane, msg, head_len + header.len as usize))
}

/// Decodes one complete frame from the front of `bytes` *without*
/// interpreting the payload: header and CRC are fully validated, the raw
/// payload slice is returned together with the lane and the bytes
/// consumed. The counterpart of [`encode_frame_body_into`] — callers that
/// framed something other than a [`WireMsg`] (WAL records, snapshots)
/// decode the payload with their own `Reader`. Every corruption a
/// [`decode_frame`] would catch short of message decoding — bad magic,
/// alien version, bad header varint, oversized or truncated length, CRC
/// mismatch — is caught here too, which is exactly the "stop at the first
/// invalid record" contract WAL replay needs.
pub fn decode_frame_body(bytes: &[u8]) -> Result<(u16, &[u8], usize), WireError> {
    let (header, head_len) = decode_header(bytes)?;
    let payload = checked_payload(bytes, &header, head_len)?;
    Ok((header.lane, payload, head_len + payload.len()))
}

/// Writes one frame to `w` (a single `write_all`; the frame is already
/// contiguous, so no interleaving with other writers of the same stream).
pub fn write_frame<W: Write>(w: &mut W, lane: u16, msg: &WireMsg) -> std::io::Result<()> {
    w.write_all(&encode_frame(lane, msg))
}

/// Reads one frame from `r` (blocking), mapping a malformed frame to
/// `io::ErrorKind::InvalidData` so transport code can treat protocol rot
/// and connection death uniformly. The header is read a byte at a time
/// past its shortest form, so no byte of the next frame is consumed.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<(u16, WireMsg)> {
    let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let mut frame = vec![0u8; MIN_HEADER_LEN];
    r.read_exact(&mut frame)?;
    let (header, head_len) = loop {
        match decode_header(&frame) {
            Err(WireError::Truncated { .. }) if frame.len() < LEGACY_HEADER_LEN => {
                let mut byte = [0u8];
                r.read_exact(&mut byte)?;
                frame.push(byte[0]);
            }
            decoded => break decoded.map_err(invalid)?,
        }
    };
    frame.resize(head_len + header.len as usize, 0);
    r.read_exact(&mut frame[head_len..])?;
    let msg = decode_after_header(&frame, &header, head_len).map_err(invalid)?;
    Ok((header.lane, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_clocks::{Time, VectorClock};
    use tc_core::{ObjectId, Value};
    use tc_lifetime::{CausalStamp, Msg, ValidateOutcome, WireVersion};

    /// A header of this generation from raw lane and length varint bytes, with the CRC a
    /// writer would give it over `payload`.
    fn raw_frame(lane: &[u8], len: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![MAGIC, WIRE_VERSION];
        frame.extend_from_slice(lane);
        frame.extend_from_slice(len);
        let crc = crate::crc32_pair(&frame, payload);
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// A generation 1–4 frame: the fixed 16-byte header, then `payload`.
    fn legacy_frame(version: u16, payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        for b in LEGACY_MAGIC {
            w.u8(b);
        }
        w.u16(version);
        w.u16(0);
        w.u32(payload.len() as u32);
        w.u32(crate::crc32(payload));
        let mut frame = w.into_bytes();
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn frame_round_trips_with_exact_consumption() {
        let frame = encode_frame(3, &WireMsg::Heartbeat);
        let (shard, msg, used) = decode_frame(&frame).unwrap();
        assert_eq!(shard, 3);
        assert_eq!(msg, WireMsg::Heartbeat);
        assert_eq!(used, frame.len());
        assert_eq!(frame.len(), MIN_HEADER_LEN + 1, "a tag-only payload");
    }

    #[test]
    fn the_header_widens_with_the_lane_and_the_payload() {
        let reason = |n: usize| WireMsg::HelloReject {
            reason: "x".repeat(n),
        };
        // Payload = tag + length varint + the string.
        for (lane, msg, header) in [
            (0, reason(125), 8),
            (127, reason(125), 8),
            (128, reason(125), 9),
            (0, reason(126), 9),
            (u16::MAX, reason(16_380), 11),
            (u16::MAX, reason(16_381), 12),
        ] {
            let frame = encode_frame(lane, &msg);
            let (h, len) = decode_header(&frame).unwrap();
            assert_eq!(len, header, "lane {lane}, payload {}", h.len);
            assert_eq!(frame.len(), header + h.len as usize);
            assert_eq!(decode_frame(&frame), Ok((lane, msg, frame.len())));
        }
    }

    /// The longest header there is: lane `u16::MAX` and a payload of
    /// exactly [`MAX_PAYLOAD`] bytes, 3 and 4 varint bytes. (The header is
    /// decoded alone: a CRC over 16 MiB is not worth a unit test's time.)
    #[test]
    fn the_worst_case_header_is_13_bytes() {
        let (lane, lane_width) = uvar_encoding(u64::from(u16::MAX));
        let (len, len_width) = uvar_encoding(u64::from(MAX_PAYLOAD));
        assert_eq!((lane_width, len_width), (3, 4));
        let header = raw_frame(&lane[..lane_width], &len[..len_width], &[]);
        let (decoded, header_len) = decode_header(&header).unwrap();
        assert_eq!(header_len, MAX_HEADER_LEN);
        assert_eq!((decoded.lane, decoded.len), (u16::MAX, MAX_PAYLOAD));
        // Cut anywhere short of its CRC's last byte, it is still incomplete.
        for cut in 0..header.len() {
            assert!(matches!(
                decode_header(&header[..cut]),
                Err(WireError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_frame(0, &WireMsg::Bye);
        frame[0] ^= 0xFF;
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadMagic { found: 0x52 })
        );
        frame[0] = 0x00;
        assert_eq!(
            decode_frame(&frame),
            Err(WireError::BadMagic { found: 0x00 })
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        for found in [0u8, 1, 4, 5, 6, 8, 0xFF] {
            let mut frame = encode_frame(0, &WireMsg::Bye);
            frame[1] = found;
            let found = u16::from(found);
            assert_eq!(decode_frame(&frame), Err(WireError::BadVersion { found }));
            assert_eq!(
                decode_frame_body(&frame).map(|_| ()),
                Err(WireError::BadVersion { found })
            );
        }
    }

    /// Generations 1–4 share a 16-byte header that opens with `"TCWR"`: the
    /// legacy gate reads it and refuses the frame by the version it names,
    /// whatever follows. Short of 16 bytes it is `Truncated`, as any header
    /// is; a stray `0x52` that is not the old magic is just bad magic.
    #[test]
    fn a_legacy_header_is_refused_by_its_version() {
        for found in [1u16, 2, 3, 4, 0xBEEF] {
            let frame = legacy_frame(found, &[5, 3]);
            assert_eq!(decode_frame(&frame), Err(WireError::BadVersion { found }));
            assert_eq!(
                decode_frame_body(&frame).map(|_| ()),
                Err(WireError::BadVersion { found })
            );
            for cut in 0..LEGACY_HEADER_LEN {
                assert!(
                    matches!(
                        decode_frame(&frame[..cut]),
                        Err(WireError::Truncated { .. })
                    ),
                    "cut at {cut}"
                );
            }
        }
        assert_eq!(
            decode_frame(b"TCWX and more than sixteen bytes"),
            Err(WireError::BadMagic { found: b'T' })
        );
    }

    #[test]
    fn a_non_canonical_header_varint_is_bad_varint() {
        // Lane 0 padded to two bytes.
        assert_eq!(
            decode_frame(&raw_frame(&[0x80, 0x00], &[1], &[3])),
            Err(WireError::BadVarint { what: "frame lane" })
        );
        // Length 1 padded to two bytes.
        assert_eq!(
            decode_frame(&raw_frame(&[0], &[0x81, 0x00], &[3])),
            Err(WireError::BadVarint {
                what: "frame length"
            })
        );
    }

    #[test]
    fn a_lane_above_u16_max_is_out_of_range() {
        // 65 535 is the last lane; 65 536 does not fit the field.
        let heartbeat = [3];
        assert_eq!(
            decode_frame(&raw_frame(&[0xFF, 0xFF, 0x03], &[1], &heartbeat)),
            Ok((u16::MAX, WireMsg::Heartbeat, 10 + 1))
        );
        assert_eq!(
            decode_frame(&raw_frame(&[0x80, 0x80, 0x04], &[1], &heartbeat)),
            Err(WireError::OutOfRange { what: "frame lane" })
        );
    }

    /// A 32-entry clock at the benchmark's shape: a few thousand events
    /// per site, every entry within 64 of the others.
    fn bench_clock() -> VectorClock {
        VectorClock::from_entries(
            31,
            (0..32u64)
                .map(|i| 5_000 + (i * 37) % 64)
                .collect::<Vec<_>>(),
        )
    }

    /// A version at the benchmark's shape: tick ≈ 2·10⁵, value ≈ 3·10⁴,
    /// and (causal) a 32-wide stamp by client node 17.
    fn bench_version(causal: bool) -> WireVersion {
        WireVersion {
            value: Value::new(30_017),
            alpha_t: Time::from_ticks(200_003),
            causal: causal.then(|| CausalStamp {
                alpha_v: bench_clock(),
                writer: 17,
            }),
        }
    }

    fn framed_len(msg: Msg) -> usize {
        let msg = WireMsg::Proto(msg);
        let frame = encode_frame(0, &msg);
        assert_eq!(decode_frame(&frame), Ok((0, msg, frame.len())));
        frame.len()
    }

    fn fetch_rep(causal: bool, acked: Option<u64>) -> Msg {
        Msg::FetchRep {
            object: ObjectId::new(41),
            version: bench_version(causal),
            server_now: Time::from_ticks(200_011),
            epoch: 1_003,
            acked,
        }
    }

    /// The bytes analogue of the allocs/op ceiling: a causal read reply in
    /// a 32-site fleet at the benchmark's shape (tick ≈ 2·10⁵, epoch ≈
    /// 10³, value ≈ 3·10⁴, entries within 64 of each other) fits 59 bytes
    /// framed. Generation 5 spent 63 on it, generation 4 spent 71 behind
    /// the 16-byte header, generation 2 spent 137 and generation 1 spent
    /// 335.
    #[test]
    fn a_32_wide_causal_fetch_reply_fits_its_byte_budget() {
        let len = framed_len(fetch_rep(true, None));
        assert!(len <= 59, "{len} bytes");
    }

    /// The other frames of a benchmark op at the same shape, each with its
    /// ceiling — the size it measures — and (in the comment) what
    /// generation 5 spent on it.
    #[test]
    fn the_other_op_frames_fit_their_byte_budgets() {
        let budgets = [
            // A causal write: 57 bytes in v5 (which also sent its epoch, 0),
            // 66 in v4, 121 in v2.
            (
                "causal WriteReq",
                Msg::WriteReqCausal {
                    object: ObjectId::new(41),
                    value: Value::new(30_017),
                    alpha_v: bench_clock(),
                    issued_at: Time::from_ticks(200_003),
                    shard_seq: 2_411,
                    ack_now: false,
                },
                55,
            ),
            // A physical write: 21 bytes in v5.
            (
                "physical WriteReq",
                Msg::WriteReq {
                    object: ObjectId::new(41),
                    value: Value::new(30_017),
                    epoch: 1_003,
                },
                16,
            ),
            // A read miss: 13 bytes in v5.
            (
                "FetchReq",
                Msg::FetchReq {
                    object: ObjectId::new(41),
                    epoch: 1_003,
                },
                13,
            ),
            // A standalone cumulative causal ack, cursor ≈ 10³ (a site's
            // writes to its shard): 12 bytes in v5.
            ("WriteAckCausal", Msg::WriteAckCausal { upto: 1_003 }, 12),
            // A causal read reply carrying an owed ack: the plain reply's
            // bytes plus the cursor, 65 in v5.
            ("acked causal FetchRep", fetch_rep(true, Some(1_003)), 61),
            // A revalidation verdict carrying an owed ack: 19 in v5.
            (
                "acked ValidateRep",
                Msg::ValidateRep {
                    object: ObjectId::new(41),
                    outcome: ValidateOutcome::StillValid,
                    server_now: Time::from_ticks(200_011),
                    epoch: 1_003,
                    acked: Some(1_003),
                },
                18,
            ),
            // A physical revalidation finding a newer version, the most
            // frequent frame of a physical op: 28 bytes in v5.
            (
                "physical ValidateRep, newer",
                Msg::ValidateRep {
                    object: ObjectId::new(41),
                    outcome: ValidateOutcome::Newer(bench_version(false)),
                    server_now: Time::from_ticks(200_011),
                    epoch: 1_003,
                    acked: None,
                },
                22,
            ),
            // A physical read reply: 27 bytes in v5.
            ("physical FetchRep", fetch_rep(false, None), 22),
            // A physical write's ack: 16 bytes in v5.
            (
                "WriteAck",
                Msg::WriteAck {
                    object: ObjectId::new(41),
                    alpha_t: Time::from_ticks(200_003),
                    epoch: 1_003,
                },
                16,
            ),
        ];
        for (name, msg, ceiling) in budgets {
            let len = framed_len(msg);
            assert!(len <= ceiling, "{name}: {len} bytes, budget {ceiling}");
        }
    }

    /// The documented worst case: with every scalar at its maximum a
    /// varint costs 10 bytes where v2 spent 8 (5 where it spent 4 on an
    /// object), and the clock adds its base, one byte when an entry is 0.
    /// Against v2's layout, generation 6 drops the presence byte and the
    /// tie-break's time, and writes the writer where v2 wrote the
    /// tie-break's node. So a payload is at most 2 bytes per `u64` field, 1
    /// per `u32` and one base per clock larger than v2's same fields; the
    /// header around it is 9 bytes here (lane 0, a 2-byte length).
    #[test]
    fn an_all_ones_fetch_reply_costs_at_most_two_bytes_more_per_u64_field() {
        let mut entries = vec![u64::MAX; 32];
        entries[0] = 0;
        let len = framed_len(Msg::FetchRep {
            object: ObjectId::new(u32::MAX),
            version: WireVersion {
                value: Value::new(u64::MAX),
                alpha_t: Time::from_ticks(u64::MAX),
                causal: Some(CausalStamp {
                    alpha_v: VectorClock::from_entries(31, entries),
                    writer: u32::MAX as usize,
                }),
            },
            server_now: Time::from_ticks(u64::MAX),
            epoch: u64::MAX,
            acked: None,
        });
        // v2's payload for the same fields: two tags, u32 object, two u64s,
        // clock (site, width, a 1-byte 0 and 31 ten-byte entries), the
        // writer as a u64, two u64s.
        let v2_payload = 2 + 4 + 2 * 8 + (1 + 1 + 1 + 31 * 10) + 8 + 2 * 8;
        assert_eq!(v2_payload, 359);
        let (u64_fields, u32_fields) = (4, 1);
        // The writer: a `u32`'s 5 varint bytes where v2 spent 8.
        let payload = v2_payload + 2 * u64_fields + u32_fields + 1 - 3;
        // Magic, version, lane 0, the payload's 2-byte length, crc.
        let header = 1 + 1 + 1 + 2 + 4;
        assert_eq!(len, header + payload);
    }

    #[test]
    fn corrupted_payload_fails_the_crc() {
        let mut frame = encode_frame(0, &WireMsg::HelloAck { shard: 9 });
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::BadCrc { .. })
        ));
    }

    /// The CRC covers the header: a frame re-routed to another lane (or
    /// carrying another well-formed length) fails it, so no header byte is
    /// trusted unchecked.
    #[test]
    fn a_rerouted_frame_fails_the_crc() {
        let mut frame = encode_frame(3, &WireMsg::HelloAck { shard: 9 });
        frame[2] = 2;
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn truncation_anywhere_is_truncated_not_panic() {
        for lane in [1, 300, u16::MAX] {
            let frame = encode_frame(lane, &WireMsg::HelloAck { shard: 1 });
            for cut in 0..frame.len() {
                assert!(
                    matches!(
                        decode_frame(&frame[..cut]),
                        Err(WireError::Truncated { .. })
                    ),
                    "lane {lane} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let (len, width) = uvar_encoding(u64::from(MAX_PAYLOAD) + 1);
        let header = raw_frame(&[0], &len[..width], &[]);
        assert_eq!(
            decode_frame(&header),
            Err(WireError::OversizedPayload {
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn encode_into_matches_encode_and_appends() {
        let a = WireMsg::HelloReject {
            reason: "shard index mismatch".to_string(),
        };
        let b = WireMsg::Heartbeat;
        // Byte identity with the allocating encoder.
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, 7, &a);
        assert_eq!(buf, encode_frame(7, &a));
        // Appends after existing contents; both frames decode back to back.
        encode_frame_into(&mut buf, 3, &b);
        let (s1, m1, used) = decode_frame(&buf).unwrap();
        let (s2, m2, rest) = decode_frame(&buf[used..]).unwrap();
        assert_eq!((s1, m1), (7, a));
        assert_eq!((s2, m2), (3, b));
        assert_eq!(used + rest, buf.len());
    }

    #[test]
    fn encode_into_reuses_capacity_without_clobbering_prefix() {
        // A one-byte length and a widened one, both on a warm buffer.
        let long = WireMsg::HelloReject {
            reason: "Δ".repeat(100),
        };
        for msg in [WireMsg::Heartbeat, long] {
            let mut buf = Vec::with_capacity(4096);
            buf.extend_from_slice(b"prefix");
            let ptr = buf.as_ptr();
            encode_frame_into(&mut buf, 1, &msg);
            assert_eq!(&buf[..6], b"prefix");
            assert_eq!(buf.as_ptr(), ptr, "warm buffer must not reallocate");
            assert_eq!(&buf[6..], &encode_frame(1, &msg)[..]);
        }
    }

    #[test]
    fn body_frames_round_trip_and_catch_corruption() {
        let mut buf = Vec::new();
        encode_frame_body_into(&mut buf, 5, |w| {
            w.uvar(0xDEAD_BEEF);
            w.uvar(7);
        });
        let (shard, payload, used) = decode_frame_body(&buf).unwrap();
        assert_eq!(shard, 5);
        assert_eq!(used, buf.len());
        let mut r = Reader::new(payload);
        assert_eq!(r.uvar("a").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.uvar("b").unwrap(), 7);
        r.finish().unwrap();
        // A flipped payload bit fails the CRC before any payload parsing.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert!(matches!(
            decode_frame_body(&buf),
            Err(WireError::BadCrc { .. })
        ));
        // Truncation anywhere reports Truncated, never panics.
        buf[last] ^= 0x01;
        for cut in 0..buf.len() {
            assert!(decode_frame_body(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn io_round_trip_over_a_cursor() {
        let msgs = [
            (
                7,
                WireMsg::HelloReject {
                    reason: "shard index mismatch".to_string(),
                },
            ),
            (300, WireMsg::Heartbeat),
            (
                1,
                WireMsg::HelloReject {
                    reason: "ε".repeat(200),
                },
            ),
        ];
        let mut buf = Vec::new();
        for (lane, msg) in &msgs {
            write_frame(&mut buf, *lane, msg).unwrap();
        }
        // Back-to-back frames: each read takes exactly its own bytes.
        let mut cursor = std::io::Cursor::new(buf);
        for (lane, msg) in msgs {
            assert_eq!(read_frame(&mut cursor).unwrap(), (lane, msg));
        }
    }

    #[test]
    fn io_reads_refuse_a_legacy_frame_by_its_version() {
        let mut cursor = std::io::Cursor::new(legacy_frame(4, &[3]));
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            err.into_inner().unwrap().downcast_ref::<WireError>(),
            Some(&WireError::BadVersion { found: 4 })
        );
    }
}
