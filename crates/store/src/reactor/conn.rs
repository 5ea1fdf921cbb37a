//! The reactor's per-connection state machine, IO-generic and therefore
//! unit-testable without a socket in sight.
//!
//! A [`Conn`] owns the two buffers a nonblocking connection needs and
//! nothing else:
//!
//! * **inbound** — an incremental [`FrameDecoder`]: every readable event
//!   reads the socket into it (through a scratch buffer the reactor owns
//!   and lends to every connection) and pops whatever complete frames
//!   have accumulated, so chunk boundaries (half a header, three frames
//!   and a fragment) are invisible to the protocol;
//! * **outbound** — a byte outbox of already-encoded frames: writes go as
//!   far as the socket buffer allows, and a `WouldBlock` mid-frame simply
//!   leaves the unsent suffix for the next writable event.
//!
//! The reactor asks two questions after every IO pass: did the connection
//! die (and why — [`Close`] distinguishes a clean goodbye from a mid-frame
//! hangup from protocol rot), and does it still [`want_write`](Conn::wants_write)
//! (the signal for arming or dropping `EPOLLOUT` interest). Both transitions
//! are pinned by the table-driven tests below against scripted IO, which is
//! exactly how the satellite spec wants partial reads, `WouldBlock`
//! re-arming, mid-frame EOF, and oversized-frame rejection covered.

use std::io::{ErrorKind, Read, Write};
use std::time::Instant;

use tc_wire::{encode_frame_into, FrameDecoder, WireError, WireMsg};

/// Size of the scratch buffer a reactor lends to
/// [`Conn::on_readable`]: large enough to drain a loopback socket buffer
/// in a few `read` calls.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Outbox high-water mark. A peer that stops reading (a dead link the
/// timeout hasn't caught yet) must not grow an unbounded queue; past this
/// the connection is declared dead and the engines' retry timers take
/// over, exactly like a dropped link.
const OUTBOX_CAP: usize = 4 * 1024 * 1024;

/// Why a connection ended, as observed by the state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Close {
    /// EOF on a frame boundary — an orderly goodbye.
    CleanEof,
    /// EOF with a partial frame banked: the peer died mid-sentence.
    MidFrameEof,
    /// The stream stopped being decodable (bad magic, CRC, oversized
    /// length...). Framing is lost, the connection is unusable.
    Poisoned(WireError),
    /// A hard IO error from the OS (reset, broken pipe, ...).
    Io(ErrorKind),
    /// The outbox exceeded [`OUTBOX_CAP`]: the peer is not draining.
    OutboxOverflow,
}

/// One nonblocking connection's buffers and liveness bookkeeping.
pub(crate) struct Conn {
    decoder: FrameDecoder,
    outbox: Vec<u8>,
    /// Consumed prefix of `outbox` (compacted when fully drained).
    sent: usize,
    /// Last instant a byte (or EOF-free read) arrived — read-timeout clock.
    pub(crate) last_read: Instant,
    /// Last instant a byte was written — heartbeat clock.
    pub(crate) last_write: Instant,
}

impl Conn {
    pub(crate) fn new(now: Instant) -> Self {
        Conn {
            decoder: FrameDecoder::new(),
            outbox: Vec::new(),
            sent: 0,
            last_read: now,
            last_write: now,
        }
    }

    /// Encodes `msg` on `lane` directly onto the outbox tail (no
    /// intermediate frame buffer). The caller is responsible for
    /// attempting a flush and arming write interest if it falls short.
    pub(crate) fn queue(&mut self, lane: u16, msg: &WireMsg) {
        encode_frame_into(&mut self.outbox, lane, msg);
    }

    /// Whether unsent bytes remain — the `EPOLLOUT` arming signal.
    pub(crate) fn wants_write(&self) -> bool {
        self.sent < self.outbox.len()
    }

    /// Reads the readable side of `io` through `scratch`, banks the
    /// chunks, and appends every complete frame to `frames`, stamped with
    /// the instant the `read` that completed it returned. Returns the
    /// close verdict if the connection ended.
    ///
    /// The clock is read right after each `read` returns bytes and before
    /// they are decoded, never before the call: a frame's instant is when
    /// its bytes reached this host, which is never earlier than the peer's
    /// step that sent it.
    ///
    /// A read that fills `scratch` is followed by another; a *short* read
    /// ends the pass, because the socket buffer is then empty and a
    /// further `read` would only answer `WouldBlock`. Epoll is
    /// level-triggered: bytes (or an EOF) that arrive after the short
    /// read are reported by the next wait.
    pub(crate) fn on_readable(
        &mut self,
        io: &mut impl Read,
        scratch: &mut [u8],
        frames: &mut Vec<(Instant, u16, WireMsg)>,
    ) -> Option<Close> {
        loop {
            match io.read(scratch) {
                Ok(0) => {
                    return Some(if self.decoder.has_partial() {
                        Close::MidFrameEof
                    } else {
                        Close::CleanEof
                    });
                }
                Ok(n) => {
                    let at = Instant::now();
                    self.last_read = at;
                    self.decoder.extend(&scratch[..n]);
                    loop {
                        match self.decoder.next_frame() {
                            Ok(Some((lane, msg))) => frames.push((at, lane, msg)),
                            Ok(None) => break,
                            Err(e) => return Some(Close::Poisoned(e)),
                        }
                    }
                    if n < scratch.len() {
                        return None;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Some(Close::Io(e.kind())),
            }
        }
    }

    /// Pushes outbox bytes into `io` until drained or `WouldBlock`,
    /// adding every `write` call issued to `writes`. Returns the close
    /// verdict if the connection ended; otherwise check
    /// [`wants_write`](Self::wants_write) to know whether `EPOLLOUT` must
    /// stay armed.
    pub(crate) fn on_writable(
        &mut self,
        io: &mut impl Write,
        now: Instant,
        writes: &mut u64,
    ) -> Option<Close> {
        while self.sent < self.outbox.len() {
            *writes += 1;
            match io.write(&self.outbox[self.sent..]) {
                Ok(0) => return Some(Close::Io(ErrorKind::WriteZero)),
                Ok(n) => {
                    self.sent += n;
                    self.last_write = now;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Some(Close::Io(e.kind())),
            }
        }
        if self.sent == self.outbox.len() {
            self.outbox.clear();
            self.sent = 0;
        } else if self.outbox.len() - self.sent > OUTBOX_CAP {
            return Some(Close::OutboxOverflow);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::time::Duration;
    use tc_wire::{encode_frame, uvar_encoding, MAGIC, MAX_PAYLOAD, MIN_HEADER_LEN, WIRE_VERSION};

    /// One scripted answer to a `read` call.
    #[derive(Clone)]
    enum Step {
        /// Yield these bytes.
        Data(Vec<u8>),
        /// Report `WouldBlock` (socket drained).
        Block,
        /// Report EOF.
        Eof,
        /// Report a hard error.
        Err(ErrorKind),
    }

    /// A `Read` impl that replays a script, one step per call.
    struct Scripted(VecDeque<Step>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front().expect("script exhausted") {
                Step::Data(bytes) => {
                    assert!(bytes.len() <= buf.len(), "script chunk exceeds scratch");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Step::Block => Err(ErrorKind::WouldBlock.into()),
                Step::Eof => Ok(0),
                Step::Err(kind) => Err(kind.into()),
            }
        }
    }

    /// A `Write` impl accepting at most `cap` bytes per call, then
    /// `WouldBlock`; `total` bounds how many bytes it ever takes before
    /// blocking for good.
    struct Throttled {
        cap: usize,
        total: usize,
        written: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let room = self.cap.min(self.total.saturating_sub(self.written.len()));
            if room == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = room.min(buf.len());
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn frame(shard: u16, msg: &WireMsg) -> Vec<u8> {
        encode_frame(shard, msg)
    }

    /// A header declaring one byte past the payload cap, up to its length:
    /// enough to refuse it.
    fn oversized_header() -> Vec<u8> {
        let (len, width) = uvar_encoding(u64::from(MAX_PAYLOAD) + 1);
        let mut f = vec![MAGIC, WIRE_VERSION, 0];
        f.extend_from_slice(&len[..width]);
        f
    }

    fn corrupt_crc() -> Vec<u8> {
        let mut f = frame(0, &WireMsg::Heartbeat);
        let last = f.len() - 1;
        f[last] ^= 0x01;
        f
    }

    #[test]
    fn read_state_machine_table() {
        let hb = frame(3, &WireMsg::Heartbeat);
        let ack = frame(1, &WireMsg::HelloAck { shard: 1 });
        /// One connection's life as a script of `read` answers. Each
        /// `on_readable` call is one epoll event; events repeat (the
        /// socket stays readable, level-triggered) until the script is
        /// used up or the connection closed. The scripted reader panics on
        /// a `read` past the script's end, so a case also pins how many
        /// reads were issued.
        struct Case {
            name: &'static str,
            /// Scratch size lent to the connection.
            scratch: usize,
            script: Vec<Step>,
            want_frames: usize,
            want_events: usize,
            want_close: Option<Close>,
        }
        let cases = [
            Case {
                name: "short read ends the pass",
                scratch: READ_CHUNK,
                script: vec![Step::Data(hb.clone())],
                want_frames: 1,
                want_events: 1,
                want_close: None,
            },
            Case {
                name: "full-chunk read keeps draining",
                scratch: hb.len(),
                script: vec![
                    Step::Data(hb.clone()),
                    Step::Data(hb.clone()),
                    Step::Data(hb[..5].to_vec()),
                ],
                want_frames: 2,
                want_events: 1,
                want_close: None,
            },
            Case {
                name: "full-chunk read that emptied the socket ends on WouldBlock",
                scratch: hb.len(),
                script: vec![Step::Data(hb.clone()), Step::Block],
                want_frames: 1,
                want_events: 1,
                want_close: None,
            },
            Case {
                name: "partial read splits the frame header",
                scratch: READ_CHUNK,
                script: vec![
                    Step::Data(hb[..MIN_HEADER_LEN / 2].to_vec()),
                    Step::Data(hb[MIN_HEADER_LEN / 2..].to_vec()),
                ],
                want_frames: 1,
                want_events: 2,
                want_close: None,
            },
            Case {
                name: "header-only chunk yields nothing until the payload lands",
                scratch: READ_CHUNK,
                script: vec![Step::Data(ack[..MIN_HEADER_LEN].to_vec())],
                want_frames: 0,
                want_events: 1,
                want_close: None,
            },
            Case {
                name: "two frames and a fragment in one readable burst",
                scratch: READ_CHUNK,
                script: vec![Step::Data(
                    [hb.as_slice(), ack.as_slice(), &hb[..5]].concat(),
                )],
                want_frames: 2,
                want_events: 1,
                want_close: None,
            },
            Case {
                name: "EOF after a short read is a clean goodbye on the next event",
                scratch: READ_CHUNK,
                script: vec![Step::Data(hb.clone()), Step::Eof],
                want_frames: 1,
                want_events: 2,
                want_close: Some(Close::CleanEof),
            },
            Case {
                name: "EOF mid-frame is a dirty death on the next event",
                scratch: READ_CHUNK,
                script: vec![Step::Data(hb[..hb.len() - 1].to_vec()), Step::Eof],
                want_frames: 0,
                want_events: 2,
                want_close: Some(Close::MidFrameEof),
            },
            Case {
                name: "EOF mid-header is equally dirty",
                scratch: READ_CHUNK,
                script: vec![Step::Data(hb[..3].to_vec()), Step::Eof],
                want_frames: 0,
                want_events: 2,
                want_close: Some(Close::MidFrameEof),
            },
            Case {
                name: "EOF right after a full-chunk read closes in the same event",
                scratch: hb.len(),
                script: vec![Step::Data(hb.clone()), Step::Eof],
                want_frames: 1,
                want_events: 1,
                want_close: Some(Close::CleanEof),
            },
            Case {
                name: "oversized frame is rejected from the header alone",
                scratch: READ_CHUNK,
                script: vec![Step::Data(oversized_header())],
                want_frames: 0,
                want_events: 1,
                want_close: Some(Close::Poisoned(WireError::OversizedPayload {
                    len: MAX_PAYLOAD + 1,
                })),
            },
            Case {
                name: "corrupted payload poisons the stream",
                scratch: READ_CHUNK,
                script: vec![Step::Data(corrupt_crc())],
                want_frames: 0,
                want_events: 1,
                want_close: Some(Close::Poisoned(WireError::BadCrc {
                    expected: tc_wire::crc32(&[]),
                    found: 0,
                })),
            },
            Case {
                name: "hard io error surfaces its kind",
                scratch: READ_CHUNK,
                script: vec![
                    Step::Data(hb[..4].to_vec()),
                    Step::Err(ErrorKind::ConnectionReset),
                ],
                want_frames: 0,
                want_events: 2,
                want_close: Some(Close::Io(ErrorKind::ConnectionReset)),
            },
            Case {
                name: "interrupted reads are retried transparently",
                scratch: READ_CHUNK,
                script: vec![Step::Err(ErrorKind::Interrupted), Step::Data(hb.clone())],
                want_frames: 1,
                want_events: 1,
                want_close: None,
            },
        ];
        for case in cases {
            let mut conn = Conn::new(Instant::now());
            let mut io = Scripted(case.script.clone().into());
            let mut scratch = vec![0u8; case.scratch];
            let mut frames = Vec::new();
            let mut events = 0;
            let mut close = None;
            while close.is_none() && !io.0.is_empty() {
                events += 1;
                close = conn.on_readable(&mut io, &mut scratch, &mut frames);
            }
            assert!(io.0.is_empty(), "{}: script not consumed", case.name);
            assert_eq!(events, case.want_events, "{}: event count", case.name);
            assert_eq!(frames.len(), case.want_frames, "{}: frame count", case.name);
            match (&close, &case.want_close) {
                (None, None) => {}
                // CRC case: the expected/found values depend on payload
                // bytes; assert the *class*, not the exact hash.
                (
                    Some(Close::Poisoned(WireError::BadCrc { .. })),
                    Some(Close::Poisoned(WireError::BadCrc { .. })),
                ) => {}
                (got, want) => assert_eq!(got, want, "{}: close verdict", case.name),
            }
            // A closed (or poisoned) connection's verdict is what the
            // reactor acts on; an open one must still be pollable.
            if close.is_none() {
                assert!(
                    !conn.decoder.is_poisoned(),
                    "{}: open conn poisoned",
                    case.name
                );
            }
        }
    }

    /// A frame carries the instant the `read` that completed it returned:
    /// at least the read's own duration after the call began, at most the
    /// moment `on_readable` returned — and a frame completed by a second
    /// read of the same event carries the second read's instant.
    #[test]
    fn frames_carry_the_instant_their_read_returned() {
        /// Each `read` takes `TAKES`: a clock read before the call would
        /// stamp a frame too early by that much.
        const TAKES: Duration = Duration::from_millis(2);
        struct Timed {
            script: Scripted,
            began: Vec<Instant>,
        }
        impl Read for Timed {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.began.push(Instant::now());
                std::thread::sleep(TAKES);
                self.script.read(buf)
            }
        }
        let hb = frame(3, &WireMsg::Heartbeat);
        let ack = frame(1, &WireMsg::HelloAck { shard: 1 });
        // A full-chunk read (the heartbeat and three bytes of the ack),
        // then a short one with the rest of the ack.
        let first = [hb.as_slice(), &ack[..3]].concat();
        let mut io = Timed {
            script: Scripted(vec![Step::Data(first.clone()), Step::Data(ack[3..].to_vec())].into()),
            began: Vec::new(),
        };
        let mut conn = Conn::new(Instant::now());
        let mut scratch = vec![0u8; first.len()];
        let mut frames = Vec::new();
        assert_eq!(conn.on_readable(&mut io, &mut scratch, &mut frames), None);
        let returned = Instant::now();
        let [read1, read2] = io.began[..] else {
            panic!("two reads, got {}", io.began.len());
        };
        let [(at1, 3, WireMsg::Heartbeat), (at2, 1, WireMsg::HelloAck { shard: 1 })] = frames[..]
        else {
            panic!("the heartbeat, then the ack: {frames:?}");
        };
        assert!(read1 + TAKES <= at1 && at1 <= read2, "first read's instant");
        assert!(
            read2 + TAKES <= at2 && at2 <= returned,
            "second read's instant"
        );
        assert_eq!(conn.last_read, at2);
    }

    #[test]
    fn would_block_mid_write_keeps_the_outbox_armed() {
        let mut conn = Conn::new(Instant::now());
        conn.queue(2, &WireMsg::HelloAck { shard: 2 });
        conn.queue(2, &WireMsg::Heartbeat);
        let queued = conn.outbox.len();
        assert!(conn.wants_write(), "queued frames demand write interest");

        // First pass: the socket takes 10 bytes (mid-header of frame one)
        // and then blocks. The connection stays open, still wants write.
        let mut io = Throttled {
            cap: 10,
            total: 10,
            written: Vec::new(),
        };
        let mut writes = 0;
        assert_eq!(conn.on_writable(&mut io, Instant::now(), &mut writes), None);
        assert!(conn.wants_write(), "partial write must re-arm EPOLLOUT");
        assert_eq!(io.written.len(), 10);
        assert_eq!(writes, 2, "the short write and the WouldBlock both count");

        // Second pass: the socket drains everything; write interest drops
        // and the buffers compact back to empty — both frames in one write.
        let mut io2 = Throttled {
            cap: usize::MAX,
            total: usize::MAX,
            written: io.written,
        };
        assert_eq!(
            conn.on_writable(&mut io2, Instant::now(), &mut writes),
            None
        );
        assert!(!conn.wants_write(), "drained outbox must disarm EPOLLOUT");
        assert_eq!(conn.outbox.len(), 0, "drained outbox compacts");
        assert_eq!(io2.written.len(), queued);
        assert_eq!(writes, 3);
        // An empty outbox issues no write at all.
        assert_eq!(
            conn.on_writable(&mut io2, Instant::now(), &mut writes),
            None
        );
        assert_eq!(writes, 3);

        // The byte stream the peer saw is exactly the two encoded frames.
        let mut expect = encode_frame(2, &WireMsg::HelloAck { shard: 2 });
        expect.extend_from_slice(&encode_frame(2, &WireMsg::Heartbeat));
        assert_eq!(io2.written, expect, "WouldBlock must never corrupt framing");
    }

    #[test]
    fn write_errors_and_overflow_close_the_connection() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut conn = Conn::new(Instant::now());
        conn.queue(0, &WireMsg::Heartbeat);
        assert_eq!(
            conn.on_writable(&mut Failing, Instant::now(), &mut 0),
            Some(Close::Io(ErrorKind::BrokenPipe))
        );

        // A peer that never drains: the outbox overflows rather than
        // growing without bound.
        let mut stuffed = Conn::new(Instant::now());
        let big = WireMsg::HelloReject {
            reason: "x".repeat(64 * 1024),
        };
        while stuffed.outbox.len() <= OUTBOX_CAP {
            stuffed.queue(0, &big);
        }
        let mut blocked = Throttled {
            cap: 0,
            total: 0,
            written: Vec::new(),
        };
        assert_eq!(
            stuffed.on_writable(&mut blocked, Instant::now(), &mut 0),
            Some(Close::OutboxOverflow)
        );
    }

    #[test]
    fn queue_then_partial_then_queue_preserves_order() {
        // A frame queued while a previous frame is half-sent must append
        // after the unsent suffix, never interleave.
        let mut conn = Conn::new(Instant::now());
        conn.queue(1, &WireMsg::Heartbeat);
        let mut io = Throttled {
            cap: 7,
            total: 7,
            written: Vec::new(),
        };
        assert_eq!(conn.on_writable(&mut io, Instant::now(), &mut 0), None);
        assert!(conn.wants_write());
        conn.queue(1, &WireMsg::Bye);
        let mut io2 = Throttled {
            cap: usize::MAX,
            total: usize::MAX,
            written: io.written,
        };
        assert_eq!(conn.on_writable(&mut io2, Instant::now(), &mut 0), None);
        let mut expect = encode_frame(1, &WireMsg::Heartbeat);
        expect.extend_from_slice(&encode_frame(1, &WireMsg::Bye));
        assert_eq!(io2.written, expect);
    }
}
