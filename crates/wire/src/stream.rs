//! Incremental frame decoding: the streaming counterpart of
//! [`decode_frame`](crate::decode_frame).
//!
//! [`read_frame`](crate::read_frame) parks until exactly one frame has
//! arrived, which only a reader with a thread to spare per connection can
//! afford. An evented reactor cannot: a readable socket
//! hands it an *arbitrary* chunk of bytes (half a header, three frames and
//! a fragment, one byte), and the reactor must bank whatever arrived and
//! resume parsing where it left off. [`FrameDecoder`] is that resumable
//! parser: feed it chunks with [`FrameDecoder::extend`], drain complete
//! frames with [`FrameDecoder::next_frame`].
//!
//! The contract, pinned by proptests in `tests/stream_proptest.rs`:
//! *chunk boundaries are invisible*. For any byte stream, any partition of
//! it into chunks yields exactly the frames (and exactly the terminal
//! error, if the stream is corrupt) that the one-shot
//! [`decode_frame`](crate::decode_frame) extracts from the contiguous
//! bytes. Validation is byte-for-byte the same code: headers go through
//! [`decode_header`] and the rest through the one-shot decoder's own
//! continuation, so magic, version, lane, varint, length-cap, and CRC
//! rejection are shared, not re-implemented. A header is self-delimiting:
//! where the one-shot decoder reports a header cut short as `Truncated`,
//! this one waits for more.
//!
//! Errors are sticky. A stream whose header fails validation (or whose
//! payload fails its CRC) has lost framing — there is no way to know where
//! the next frame starts — so every call after the first error reports the
//! same error. Transports treat this as connection death, exactly like a
//! failed [`read_frame`](crate::read_frame).

use crate::codec::WireError;
use crate::frame::{decode_after_header, decode_header, FrameHeader};
use crate::msg::WireMsg;

/// How much consumed prefix may accumulate before the buffer is compacted.
/// Compaction is a `copy_within` + truncate; amortizing it over a few
/// kilobytes keeps the decoder O(bytes) overall instead of O(bytes²) under
/// byte-at-a-time feeding.
const COMPACT_THRESHOLD: usize = 8 * 1024;

/// The buffer a stream's first bytes get: room for a few protocol frames
/// (most are under 64 B), so a stream of small frames does not regrow it
/// frame by frame as their sizes creep up.
const FIRST_CAPACITY: usize = 256;

/// A resumable frame parser over an append-only byte stream.
///
/// ```
/// use tc_wire::{encode_frame, FrameDecoder, WireMsg};
///
/// let frame = encode_frame(2, &WireMsg::Heartbeat);
/// let mut dec = FrameDecoder::new();
/// // Feed the frame in two arbitrary chunks: no frame until it completes.
/// dec.extend(&frame[..5]);
/// assert_eq!(dec.next_frame(), Ok(None));
/// dec.extend(&frame[5..]);
/// assert_eq!(dec.next_frame(), Ok(Some((2, WireMsg::Heartbeat))));
/// assert_eq!(dec.next_frame(), Ok(None));
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Banked bytes; `pos..` is the unparsed suffix.
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    /// A header that validated, and its length, while the rest of its
    /// frame has not fully arrived. Caching it avoids re-validating on
    /// every `next_frame` poll; its bytes stay banked at `pos`, because
    /// the CRC covers them.
    pending: Option<(FrameHeader, usize)>,
    /// The first error the stream produced; sticky thereafter.
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Banks a chunk of stream bytes. Chunks may split frames (and frame
    /// headers) anywhere; boundaries never affect what
    /// [`next_frame`](Self::next_frame) yields.
    pub fn extend(&mut self, chunk: &[u8]) {
        if self.poisoned.is_some() {
            // A poisoned stream's bytes are unframeable; don't hoard them.
            return;
        }
        if self.buf.capacity() == 0 {
            self.buf.reserve(chunk.len().max(FIRST_CAPACITY));
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes banked but not yet parsed into a frame.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream ends mid-frame: bytes (or a validated header)
    /// are banked awaiting the rest of a frame. An EOF while this is true
    /// means the peer died mid-sentence — transports report it, because a
    /// clean goodbye always ends on a frame boundary.
    #[must_use]
    pub fn has_partial(&self) -> bool {
        self.pending.is_some() || self.buffered() > 0
    }

    /// Whether the stream has produced an unrecoverable decode error.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Extracts the next complete frame, if one has fully arrived.
    ///
    /// * `Ok(Some((lane, msg)))` — a frame was decoded and consumed.
    /// * `Ok(None)` — the banked bytes end mid-header or mid-payload; feed
    ///   more with [`extend`](Self::extend) and poll again.
    /// * `Err(e)` — the stream is corrupt (bad magic, alien version,
    ///   oversized length, CRC mismatch, malformed payload). The error is
    ///   sticky: framing is lost, so every later call returns it again.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] the one-shot decoder would report for the same
    /// contiguous bytes, at the same frame boundary.
    pub fn next_frame(&mut self) -> Result<Option<(u16, WireMsg)>, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let (header, head_len) = match self.pending {
            Some(pending) => pending,
            None => match decode_header(&self.buf[self.pos..]) {
                Ok(pending) => {
                    self.pending = Some(pending);
                    pending
                }
                Err(WireError::Truncated { .. }) => return Ok(None),
                Err(e) => return Err(self.poison(e)),
            },
        };
        let total = head_len + header.len as usize;
        if self.buffered() < total {
            self.compact();
            return Ok(None);
        }
        match decode_after_header(&self.buf[self.pos..], &header, head_len) {
            Ok(msg) => {
                self.pos += total;
                self.pending = None;
                self.compact();
                Ok(Some((header.lane, msg)))
            }
            Err(e) => Err(self.poison(e)),
        }
    }

    /// Records the stream's terminal error and releases the banked bytes.
    fn poison(&mut self, e: WireError) -> WireError {
        self.poisoned = Some(e.clone());
        self.buf = Vec::new();
        self.pos = 0;
        self.pending = None;
        e
    }

    /// Drops the consumed prefix once it is worth the copy.
    fn compact(&mut self) {
        if self.pos >= COMPACT_THRESHOLD || self.pos == self.buf.len() {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{uvar_encoding, Writer};
    use crate::frame::{encode_frame, LEGACY_HEADER_LEN, LEGACY_MAGIC, MAX_PAYLOAD};

    #[test]
    fn byte_at_a_time_yields_every_frame() {
        let msgs = [
            WireMsg::Heartbeat,
            WireMsg::HelloAck { shard: 4 },
            WireMsg::HelloReject {
                reason: "Δ mismatch".to_string(),
            },
            WireMsg::Bye,
        ];
        let mut stream = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(i as u16, m));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().expect("clean stream") {
                got.push(f);
            }
        }
        assert_eq!(got.len(), msgs.len());
        for (i, (shard, msg)) in got.iter().enumerate() {
            assert_eq!(*shard, i as u16);
            assert_eq!(msg, &msgs[i]);
        }
        assert_eq!(dec.buffered(), 0, "a clean stream leaves nothing banked");
    }

    #[test]
    fn incomplete_frames_are_none_not_error() {
        let frame = encode_frame(1, &WireMsg::HelloAck { shard: 1 });
        for cut in 0..frame.len() {
            let mut dec = FrameDecoder::new();
            dec.extend(&frame[..cut]);
            assert_eq!(dec.next_frame(), Ok(None), "cut at {cut}");
            dec.extend(&frame[cut..]);
            assert_eq!(
                dec.next_frame(),
                Ok(Some((1, WireMsg::HelloAck { shard: 1 }))),
                "resume at {cut}"
            );
        }
    }

    #[test]
    fn errors_are_sticky_and_release_the_buffer() {
        let mut frame = encode_frame(0, &WireMsg::Heartbeat);
        frame[0] ^= 0xFF; // bad magic
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        let first = dec.next_frame().expect_err("magic must fail");
        assert!(matches!(first, WireError::BadMagic { .. }));
        assert!(dec.is_poisoned());
        assert_eq!(dec.buffered(), 0, "poisoned buffers are dropped");
        // Later bytes are ignored, the error repeats.
        dec.extend(&encode_frame(0, &WireMsg::Bye));
        assert_eq!(dec.next_frame(), Err(first));
    }

    /// A peer of generation 1–4 sends the old fixed 16-byte header: the
    /// legacy gate refuses it by its version once the header is in, fed a
    /// byte at a time or whole, and the stream stays poisoned.
    #[test]
    fn a_v1_to_v4_peer_poisons_the_stream_with_bad_version() {
        for found in 1u16..=4 {
            let mut w = Writer::new();
            for b in LEGACY_MAGIC {
                w.u8(b);
            }
            w.u16(found);
            w.u16(0); // lane
            w.u32(1); // length
            w.u32(crate::crc32(&[3])); // payload-only crc
            w.u8(3); // a heartbeat
            let frame = w.into_bytes();
            let mut dec = FrameDecoder::new();
            for &b in &frame[..LEGACY_HEADER_LEN - 1] {
                dec.extend(&[b]);
                assert_eq!(dec.next_frame(), Ok(None), "v{found} header incomplete");
            }
            // The header alone is enough to refuse the peer.
            dec.extend(&frame[LEGACY_HEADER_LEN - 1..LEGACY_HEADER_LEN]);
            assert_eq!(dec.next_frame(), Err(WireError::BadVersion { found }));
            dec.extend(&encode_frame(0, &WireMsg::Bye));
            assert_eq!(dec.next_frame(), Err(WireError::BadVersion { found }));
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_payload_arrives() {
        let (len, width) = uvar_encoding(u64::from(MAX_PAYLOAD) + 1);
        let mut frame = vec![crate::MAGIC, crate::WIRE_VERSION, 0];
        frame.extend_from_slice(&len[..width]);
        let mut dec = FrameDecoder::new();
        // The header up to its length is fed: the cap must trip without
        // waiting for the CRC, the payload, or an allocation of the declared size.
        dec.extend(&frame);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::OversizedPayload {
                len: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn compaction_keeps_long_streams_bounded() {
        let frame = encode_frame(7, &WireMsg::Heartbeat);
        let mut dec = FrameDecoder::new();
        for _ in 0..4096 {
            dec.extend(&frame);
            assert!(matches!(dec.next_frame(), Ok(Some((7, _)))));
            // The consumed prefix is reclaimed; the buffer never exceeds
            // the compaction threshold plus one frame.
            assert!(dec.buf.len() <= COMPACT_THRESHOLD + frame.len());
        }
    }
}
