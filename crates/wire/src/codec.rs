//! Primitive byte codec: a growable write buffer and a checked cursor
//! reader, plus the error vocabulary every decode path reports through.
//!
//! Payload integers travel as LEB128 varints ([`Writer::uvar`] /
//! [`Reader::uvar`]) in canonical form only, so every value has exactly
//! one encoding; the frame header's lane and length are varints too. The
//! only fixed-width little-endian integers are the frame's CRC and the
//! version a pre-v5 header is refused by. Floats travel as their IEEE-754
//! bit patterns so encode→decode is the identity even for NaN payloads.
//! Decoding never panics: every shortfall or malformed field becomes a
//! [`WireError`].

use core::fmt;

/// Everything that can go wrong decoding a frame or payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field (or payload) did.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// The frame does not start with the protocol magic.
    BadMagic {
        /// The byte found instead.
        found: u8,
    },
    /// The frame's protocol version is not ours.
    BadVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The frame's checksum (over its header and payload) does not match
    /// the one it carries.
    BadCrc {
        /// CRC the frame carries.
        expected: u32,
        /// CRC its header and payload actually hash to.
        found: u32,
    },
    /// The header declares a payload larger than the codec allows.
    OversizedPayload {
        /// Declared payload length.
        len: u32,
    },
    /// An enum tag has no corresponding variant.
    UnknownTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The unrecognized tag.
        tag: u8,
    },
    /// The payload decoded cleanly but left bytes unconsumed — a framing
    /// bug or a tampered length field.
    TrailingBytes {
        /// How many bytes were left over.
        left: usize,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A vector-clock payload whose owner site is out of range (or whose
    /// entry vector is empty) — structurally impossible to rebuild.
    BadVectorClock,
    /// A varint that is not the canonical LEB128 encoding of a `u64`:
    /// zero-padded (a continuation that adds no bits) or wider than 64
    /// bits.
    BadVarint {
        /// What was being decoded.
        what: &'static str,
    },
    /// A canonical varint whose value does not fit the field: an object,
    /// site, writer or length above `u32::MAX`, or a frame lane above
    /// `u16::MAX`. Refused rather than truncated, so no id wraps onto
    /// another.
    OutOfRange {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated while decoding {what}"),
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:#04x}"),
            WireError::BadVersion { found } => write!(f, "unsupported protocol version {found}"),
            WireError::BadCrc { expected, found } => {
                write!(
                    f,
                    "frame CRC mismatch: carried {expected:#010x}, computed {found:#010x}"
                )
            }
            WireError::OversizedPayload { len } => {
                write!(f, "declared payload length {len} exceeds the frame cap")
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::TrailingBytes { left } => {
                write!(f, "{left} trailing bytes after a complete payload")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadVectorClock => write!(f, "malformed vector clock"),
            WireError::BadVarint { what } => write!(f, "non-canonical varint in {what}"),
            WireError::OutOfRange { what } => write!(f, "{what} is out of range for its field"),
        }
    }
}

impl std::error::Error for WireError {}

/// A checked read cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a LEB128 varint: seven value bits per byte, least significant
    /// group first, high bit set on every byte but the last. Only the
    /// canonical (shortest) encoding of a `u64` is accepted — a final
    /// zero byte after a continuation, or bits beyond the 64th, is
    /// [`WireError::BadVarint`]; running out of bytes is
    /// [`WireError::Truncated`].
    pub fn uvar(&mut self, what: &'static str) -> Result<u64, WireError> {
        let mut value = 0u64;
        for (i, &byte) in self.buf[self.pos..].iter().take(10).enumerate() {
            if i == 9 && byte > 1 {
                return Err(WireError::BadVarint { what });
            }
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(WireError::BadVarint { what });
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(WireError::Truncated { what })
    }

    /// Reads a varint that must fit a `u32` — an object, site or writer id,
    /// or a length. A larger value is [`WireError::OutOfRange`].
    pub fn uvar_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        u32::try_from(self.uvar(what)?).map_err(|_| WireError::OutOfRange { what })
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a varint-length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.uvar_u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                left: self.remaining(),
            })
        }
    }
}

/// The canonical LEB128 encoding of `v` and its width: the bytes
/// [`Writer::uvar`] appends (a unit test holds the two equal), for a caller
/// that patches a varint into bytes already written (a frame's length,
/// known only once its payload is).
#[must_use]
pub fn uvar_encoding(mut v: u64) -> ([u8; 10], usize) {
    let mut bytes = [0u8; 10];
    let mut width = 0;
    while v >= 0x80 {
        bytes[width] = v as u8 | 0x80;
        v >>= 7;
        width += 1;
    }
    bytes[width] = v as u8;
    (bytes, width + 1)
}

/// A growable write buffer mirroring [`Reader`].
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer that appends to `buf`, keeping its existing contents and
    /// capacity. This is the zero-copy encode path: a caller that holds a
    /// cleared-but-warm buffer hands it over, encodes, and takes it back
    /// via [`Writer::into_bytes`] without a fresh allocation.
    #[must_use]
    pub fn over(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Bytes written so far (including any the writer was created
    /// [`over`](Writer::over)).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a LEB128 varint (1 byte below 128, 2 below 16 384, at most
    /// 10), always in the canonical form [`Reader::uvar`] insists on.
    pub fn uvar(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.uvar(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.125);
        w.string("Δ-bounded");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("d").unwrap(), u64::MAX - 1);
        assert!((r.f64("e").unwrap() - (-0.125)).abs() < f64::EPSILON);
        assert_eq!(r.string("f").unwrap(), "Δ-bounded");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32("field"), Err(WireError::Truncated { what: "field" }));
    }

    #[test]
    fn trailing_bytes_are_reported() {
        let r = Reader::new(&[0, 0]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { left: 2 }));
    }

    fn uvar_bytes(v: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.uvar(v);
        w.into_bytes()
    }

    #[test]
    fn uvar_boundaries_round_trip_at_the_expected_widths() {
        for (v, width) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 63, 10),
            (u64::MAX, 10),
        ] {
            let bytes = uvar_bytes(v);
            assert_eq!(bytes.len(), width, "width of {v}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.uvar("v"), Ok(v));
            r.finish().unwrap();
            for cut in 0..bytes.len() {
                assert_eq!(
                    Reader::new(&bytes[..cut]).uvar("v"),
                    Err(WireError::Truncated { what: "v" }),
                    "{v} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn uvar_encoding_is_what_the_writer_appends() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, u64::MAX >> shift] {
                let (bytes, width) = uvar_encoding(v);
                assert_eq!(&bytes[..width], &uvar_bytes(v)[..], "{v}");
            }
        }
    }

    #[test]
    fn uvar_rejects_overlong_and_overflowing_encodings() {
        let bad = Err(WireError::BadVarint { what: "v" });
        // Zero-padded: 0 and 1 with a continuation that adds no bits.
        assert_eq!(Reader::new(&[0x80, 0x00]).uvar("v"), bad);
        assert_eq!(Reader::new(&[0x81, 0x80, 0x00]).uvar("v"), bad);
        // A 10th byte may only contribute bit 63.
        let mut ten = [0xFF; 10];
        ten[9] = 0x01;
        assert_eq!(Reader::new(&ten).uvar("v"), Ok(u64::MAX));
        ten[9] = 0x02;
        assert_eq!(Reader::new(&ten).uvar("v"), bad);
        // ... and may not continue into an 11th.
        ten[9] = 0x81;
        assert_eq!(Reader::new(&[&ten[..], &[0x00]].concat()).uvar("v"), bad);
    }

    #[test]
    fn uvar_u32_refuses_what_would_wrap() {
        for v in [0, 1, u64::from(u32::MAX)] {
            let bytes = uvar_bytes(v);
            assert_eq!(Reader::new(&bytes).uvar_u32("id"), Ok(v as u32));
        }
        for v in [u64::from(u32::MAX) + 1, 1 << 40, u64::MAX] {
            let bytes = uvar_bytes(v);
            assert_eq!(
                Reader::new(&bytes).uvar_u32("id"),
                Err(WireError::OutOfRange { what: "id" })
            );
        }
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = Writer::new();
        w.uvar(2);
        w.u8(0xFF);
        w.u8(0xFE);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.string("s"), Err(WireError::BadUtf8));
    }
}
