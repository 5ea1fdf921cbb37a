//! Framing: a fixed 16-byte header in front of every payload.
//!
//! ```text
//!  0        4        6        8        12       16
//!  +--------+--------+--------+--------+--------+----------------+
//!  | magic  | ver    | lane   | length | crc32  | payload ...    |
//!  | u32 LE | u16 LE | u16 LE | u32 LE | u32 LE | length bytes   |
//!  +--------+--------+--------+--------+--------+----------------+
//! ```
//!
//! * `magic` — `0x54435752` (`"TCWR"` read as little-endian bytes
//!   `52 57 43 54`); anything else means the stream is not speaking this
//!   protocol and must be dropped before a byte of payload is trusted.
//! * `ver` — [`WIRE_VERSION`], currently 2; a reader rejects frames from a
//!   different protocol generation instead of guessing at field layouts.
//!   Generation 1 wrote vector clocks as fixed-width `u32 u32 u64…`;
//!   generation 2 writes them as varints (see [`crate::msg::put_vclock`]).
//!   The header itself is the same in both, which is what lets a v2 reader
//!   refuse a v1 frame or WAL record by name instead of mis-decoding it.
//! * `lane` — the routing tag, carried in the clear so a reader can route
//!   (and a pcap reader can follow) frames without decoding payloads. On
//!   a reactor link, which multiplexes every site a client process hosts
//!   over one connection per shard, it is the site the frame speaks for,
//!   in either direction; in a WAL segment it is the owning shard.
//! * `length` — payload byte count, capped at [`MAX_PAYLOAD`] so a
//!   corrupted length cannot make a reader allocate gigabytes.
//! * `crc32` — CRC-32/IEEE over the payload bytes (see [`crate::crc`]).
//!
//! Decoding is strict: bad magic, alien version, oversized length,
//! mismatched CRC, or leftover bytes after the payload each produce a
//! distinct [`WireError`], and none of them panic.

use std::io::{Read, Write};

use crate::codec::{Reader, WireError, Writer};
use crate::crc::crc32;
use crate::msg::{get_wire_msg, put_wire_msg, WireMsg};

/// The frame magic, `"TCWR"` as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"TCWR");

/// The wire-protocol generation this build speaks — and the only one it
/// decodes: every other value is [`WireError::BadVersion`].
pub const WIRE_VERSION: u16 = 2;

/// Header length in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a payload (16 MiB) — far beyond any legitimate frame
/// (the largest is an invalidation batch), tight enough that a forged
/// length field cannot drive allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol generation of the sender.
    pub version: u16,
    /// Routing tag: the site on a reactor link, the owning shard in a WAL
    /// segment.
    pub lane: u16,
    /// Payload byte count.
    pub len: u32,
    /// CRC-32 the payload must hash to.
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
/// The payload is encoded directly after a reserved header slot, then
/// the length and CRC are patched into the slot in place; the bytes
/// produced are identical to [`encode_frame`]'s. Anything already in
/// `buf` is left untouched, so frames can be batched back to back.
pub fn encode_frame_into(buf: &mut Vec<u8>, lane: u16, msg: &WireMsg) {
    encode_frame_body_into(buf, lane, |w| put_wire_msg(w, msg));
}

/// Appends a complete frame whose payload is written by `body` — the
/// generic form of [`encode_frame_into`] for payloads that are not
/// [`WireMsg`]s (e.g. `tc-durable`'s WAL records ride the same
/// magic/version/length/CRC header, so log corruption is detected by the
/// very codec the transport already trusts). Same zero-alloc warm-buffer
/// behaviour; `lane` carries the frame's routing tag (for a WAL segment,
/// the owning shard).
pub fn encode_frame_body_into(buf: &mut Vec<u8>, lane: u16, body: impl FnOnce(&mut Writer)) {
    let start = buf.len();
    let mut w = Writer::over(std::mem::take(buf));
    w.u32(MAGIC);
    w.u16(WIRE_VERSION);
    w.u16(lane);
    w.u32(0); // length, patched below
    w.u32(0); // crc, patched below
    body(&mut w);
    let mut bytes = w.into_bytes();
    let payload_len = bytes.len() - start - HEADER_LEN;
    assert!(
        payload_len as u64 <= MAX_PAYLOAD as u64,
        "payload exceeds MAX_PAYLOAD"
    );
    let crc = crc32(&bytes[start + HEADER_LEN..]);
    bytes[start + 8..start + 12].copy_from_slice(&(payload_len as u32).to_le_bytes());
    bytes[start + 12..start + 16].copy_from_slice(&crc.to_le_bytes());
    *buf = bytes;
}

/// Decodes a header from the first [`HEADER_LEN`] bytes of `bytes`,
/// validating magic, version, and the length cap (the CRC can only be
/// checked once the payload is in hand).
pub fn decode_header(bytes: &[u8]) -> Result<FrameHeader, WireError> {
    let mut r = Reader::new(bytes);
    let magic = r.u32("frame magic")?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = r.u16("frame version")?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    let lane = r.u16("frame lane")?;
    let len = r.u32("frame length")?;
    if len > MAX_PAYLOAD {
        return Err(WireError::OversizedPayload { len });
    }
    let crc = r.u32("frame crc")?;
    Ok(FrameHeader {
        version,
        lane,
        len,
        crc,
    })
}

/// Decodes a payload against its already-validated header: CRC first,
/// then the message, then a strict no-trailing-bytes check.
pub fn decode_payload(header: &FrameHeader, payload: &[u8]) -> Result<WireMsg, WireError> {
    if payload.len() != header.len as usize {
        return Err(WireError::Truncated {
            what: "frame payload",
        });
    }
    let found = crc32(payload);
    if found != header.crc {
        return Err(WireError::BadCrc {
            expected: header.crc,
            found,
        });
    }
    let mut r = Reader::new(payload);
    let msg = get_wire_msg(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Decodes one complete frame from the front of `bytes`, returning the
/// lane, the message, and the number of bytes consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(u16, WireMsg, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            what: "frame header",
        });
    }
    let header = decode_header(&bytes[..HEADER_LEN])?;
    let total = HEADER_LEN + header.len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            what: "frame payload",
        });
    }
    let msg = decode_payload(&header, &bytes[HEADER_LEN..total])?;
    Ok((header.lane, msg, total))
}

/// Decodes one complete frame from the front of `bytes` *without*
/// interpreting the payload: header and CRC are fully validated, the raw
/// payload slice is returned together with the lane and the bytes
/// consumed. The counterpart of [`encode_frame_body_into`] — callers that
/// framed something other than a [`WireMsg`] (WAL records, snapshots)
/// decode the payload with their own `Reader`. Every corruption a
/// [`decode_frame`] would catch short of message decoding — bad magic,
/// alien version, oversized or truncated length, CRC mismatch — is caught
/// here too, which is exactly the "stop at the first invalid record"
/// contract WAL replay needs.
pub fn decode_frame_body(bytes: &[u8]) -> Result<(u16, &[u8], usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            what: "frame header",
        });
    }
    let header = decode_header(&bytes[..HEADER_LEN])?;
    let total = HEADER_LEN + header.len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            what: "frame payload",
        });
    }
    let payload = &bytes[HEADER_LEN..total];
    let found = crc32(payload);
    if found != header.crc {
        return Err(WireError::BadCrc {
            expected: header.crc,
            found,
        });
    }
    Ok((header.lane, payload, total))
}

/// Writes one frame to `w` (a single `write_all`; the frame is already
/// contiguous, so no interleaving with other writers of the same stream).
pub fn write_frame<W: Write>(w: &mut W, lane: u16, msg: &WireMsg) -> std::io::Result<()> {
    w.write_all(&encode_frame(lane, msg))
}

/// Reads one frame from `r` (blocking), mapping a malformed frame to
/// `io::ErrorKind::InvalidData` so transport code can treat protocol rot
/// and connection death uniformly.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<(u16, WireMsg)> {
    let mut header_bytes = [0u8; HEADER_LEN];
    r.read_exact(&mut header_bytes)?;
    let header = decode_header(&header_bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut payload = vec![0u8; header.len as usize];
    r.read_exact(&mut payload)?;
    let msg = decode_payload(&header, &payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok((header.lane, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_with_exact_consumption() {
        let frame = encode_frame(3, &WireMsg::Heartbeat);
        let (shard, msg, used) = decode_frame(&frame).unwrap();
        assert_eq!(shard, 3);
        assert_eq!(msg, WireMsg::Heartbeat);
        assert_eq!(used, frame.len());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_frame(0, &WireMsg::Bye);
        frame[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        // 1 is the previous generation: it differs only in the clock
        // layout, so the header gate is all that keeps a v2 reader from
        // guessing at it.
        for found in [1u16, 0xFE] {
            let mut frame = encode_frame(0, &WireMsg::Bye);
            frame[4..6].copy_from_slice(&found.to_le_bytes());
            assert_eq!(decode_frame(&frame), Err(WireError::BadVersion { found }));
            assert_eq!(
                decode_frame_body(&frame).map(|_| ()),
                Err(WireError::BadVersion { found })
            );
        }
    }

    /// The bytes analogue of the allocs/op ceiling: a causal read reply in
    /// a 32-site fleet whose sites have each done fewer than 16 384 events
    /// fits 140 bytes framed. Generation 1 spent 335 on it.
    #[test]
    fn a_32_wide_causal_fetch_reply_fits_its_byte_budget() {
        use tc_clocks::{Time, VectorClock};
        use tc_core::{ObjectId, Value};
        use tc_lifetime::{Msg, WireVersion};

        let entries: Vec<u64> = (0..32).map(|i| 16_383 - i).collect();
        let msg = WireMsg::Proto(Msg::FetchRep {
            object: ObjectId::new(u32::MAX),
            version: WireVersion {
                value: Value::new(u64::MAX),
                alpha_t: Time::from_ticks(u64::MAX),
                alpha_v: Some(VectorClock::from_entries(31, entries)),
                tiebreak: (Time::from_ticks(u64::MAX), usize::MAX),
            },
            server_now: Time::from_ticks(u64::MAX),
            epoch: u64::MAX,
        });
        let frame = encode_frame(0, &msg);
        assert!(frame.len() <= 140, "{} bytes", frame.len());
        assert_eq!(decode_frame(&frame), Ok((0, msg, frame.len())));
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

    #[test]
    fn truncation_anywhere_is_truncated_not_panic() {
        let frame = encode_frame(1, &WireMsg::HelloAck { shard: 1 });
        for cut in 0..frame.len() {
            assert!(
                matches!(
                    decode_frame(&frame[..cut]),
                    Err(WireError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode_frame(0, &WireMsg::Heartbeat);
        frame[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&frame),
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
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(b"prefix");
        let ptr = buf.as_ptr();
        encode_frame_into(&mut buf, 1, &WireMsg::Heartbeat);
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(buf.as_ptr(), ptr, "warm buffer must not reallocate");
        assert_eq!(&buf[6..], &encode_frame(1, &WireMsg::Heartbeat)[..]);
    }

    #[test]
    fn body_frames_round_trip_and_catch_corruption() {
        let mut buf = Vec::new();
        encode_frame_body_into(&mut buf, 5, |w| {
            w.u64(0xDEAD_BEEF);
            w.u32(7);
        });
        let (shard, payload, used) = decode_frame_body(&buf).unwrap();
        assert_eq!(shard, 5);
        assert_eq!(used, buf.len());
        let mut r = Reader::new(payload);
        assert_eq!(r.u64("a").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u32("b").unwrap(), 7);
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
        let msg = WireMsg::HelloReject {
            reason: "shard index mismatch".to_string(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, &msg).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let (shard, decoded) = read_frame(&mut cursor).unwrap();
        assert_eq!(shard, 7);
        assert_eq!(decoded, msg);
    }
}
