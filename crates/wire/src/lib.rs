//! `tc-wire`: the binary wire format of the lifetime protocol.
//!
//! The sans-io §5 engines exchange [`tc_lifetime::Msg`] values; inside one
//! process those travel as Rust values over channels (the simulator and
//! the threaded runtime). Crossing a process boundary needs bytes, and
//! this crate defines exactly those bytes:
//!
//! * [`codec`] — primitive encode/decode: the canonical LEB128 varint every
//!   payload integer is written in, the little-endian words of the frame
//!   header, and a panic-free error vocabulary ([`WireError`]);
//! * [`crc`] — a hand-rolled CRC-32/IEEE for payload integrity;
//! * [`msg`] — [`WireMsg`]: every protocol message plus the transport's
//!   session messages (handshake carrying the full [`ProtocolConfig`],
//!   heartbeats, orderly goodbye);
//! * [`frame`] — the versioned, length-prefixed frame (magic, protocol
//!   version — 3 since every payload integer went varint — routing lane,
//!   payload length, CRC) and blocking
//!   [`read_frame`]/[`write_frame`] helpers over `std::io`;
//! * [`stream`] — [`FrameDecoder`], the incremental decoder an evented
//!   transport feeds arbitrary byte chunks; chunk boundaries are provably
//!   invisible (identity with the one-shot decoder is proptested).
//!
//! Following the workspace's vendored-dependency convention the codec is
//! hand-rolled with **zero third-party crates** — no serde on the wire, no
//! derive magic deciding the byte layout. Every field's position is
//! written out in [`msg`], which is what makes version skew detectable
//! (the frame header's version gate) instead of silently corrupting.
//!
//! The decoder's contract, enforced by proptests in `tests/`: any byte
//! string either decodes to exactly one `WireMsg` (consuming the whole
//! frame) or returns a [`WireError`] — it never panics and never
//! misparses a corrupted frame whose CRC mismatches.
//!
//! [`ProtocolConfig`]: tc_lifetime::ProtocolConfig

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod frame;
pub mod msg;
pub mod stream;

pub use codec::{Reader, WireError, Writer};
pub use crc::{crc32, crc32_bytewise};
pub use frame::{
    decode_frame, decode_frame_body, decode_header, decode_payload, encode_frame,
    encode_frame_body_into, encode_frame_into, read_frame, write_frame, FrameHeader, HEADER_LEN,
    MAGIC, MAX_PAYLOAD, WIRE_VERSION,
};
pub use msg::{
    get_delta, get_msg, get_object, get_opt_vclock, get_protocol, get_time, get_value, get_vclock,
    get_wire_msg, put_delta, put_msg, put_object, put_opt_vclock, put_protocol, put_time,
    put_value, put_vclock, put_wire_msg, WireMsg,
};
pub use stream::FrameDecoder;
