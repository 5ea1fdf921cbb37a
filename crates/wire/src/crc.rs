//! CRC-32 (IEEE 802.3, the zlib/Ethernet polynomial), hand-rolled.
//!
//! The frame header carries a CRC over the header bytes before it and the
//! payload, so a torn or corrupted TCP stream is *detected* rather than
//! decoded into garbage. Two implementations live here:
//!
//! * [`crc32`] — slice-by-8: eight 256-entry tables consume the input
//!   eight bytes per step, roughly 4–6× the throughput of the classic
//!   loop on long payloads (a WAL snapshot is tens of KiB). This
//!   is the one every frame encode/decode runs.
//! * [`crc32_bytewise`] — the classic one-table reflected algorithm,
//!   kept as the executable reference the fast path is property-tested
//!   against.
//!
//! Both use polynomial `0xEDB88320` with initial value and final XOR
//! `0xFFFF_FFFF`, matching `crc32fast`/zlib output exactly, so captured
//! frames can be checked with standard tools.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, built at compile time. `TABLES[0]` is
/// the classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, which is what lets one step absorb
/// eight input bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One slice-by-8 step: absorbs eight bytes, read as a little-endian
/// `word`, into the raw (uninverted) state `crc`.
#[inline(always)]
fn step8(crc: u32, word: u64) -> u32 {
    let lo = word as u32 ^ crc;
    let hi = (word >> 32) as u32;
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// One slice-by-4 step: absorbs four bytes, read as a little-endian
/// `word`.
#[inline(always)]
fn step4(crc: u32, word: u32) -> u32 {
    let x = word ^ crc;
    TABLES[3][(x & 0xFF) as usize]
        ^ TABLES[2][((x >> 8) & 0xFF) as usize]
        ^ TABLES[1][((x >> 16) & 0xFF) as usize]
        ^ TABLES[0][(x >> 24) as usize]
}

/// Absorbs `bytes` eight at a time, returning the state and the fewer
/// than eight bytes left over.
#[inline(always)]
fn absorb8(mut crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc = step8(
            crc,
            u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]),
        );
    }
    (crc, chunks.remainder())
}

/// Absorbs the fewer than eight bytes a slice-by-8 pass leaves: four in
/// one slice-by-4 step if there are that many, the rest one at a time.
#[inline(always)]
fn absorb_rest(mut crc: u32, mut bytes: &[u8]) -> u32 {
    if let [b0, b1, b2, b3, rest @ ..] = bytes {
        crc = step4(crc, u32::from_le_bytes([*b0, *b1, *b2, *b3]));
        bytes = rest;
    }
    bytes.iter().fold(crc, |crc, &b| {
        (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
    })
}

/// The CRC-32 of `bytes` (slice-by-8).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let (crc, rest) = absorb8(!0, bytes);
    !absorb_rest(crc, rest)
}

/// The CRC-32 of `head` followed by `tail`, which need not be
/// contiguous: a frame's header bytes before the CRC field, then its
/// payload. Each is absorbed eight bytes a step, then four, then one.
#[must_use]
pub fn crc32_pair(head: &[u8], tail: &[u8]) -> u32 {
    let (crc, rest) = absorb8(!0, head);
    let (crc, rest) = absorb8(absorb_rest(crc, rest), tail);
    !absorb_rest(crc, rest)
}

/// [`crc32_pair`] with a 4-byte `head` given as a little-endian word: a
/// frame's common header, which the encoder knows as values and so hashes
/// without reading back bytes it has just written (a read that would stall
/// until those writes land, and the payload's hash behind it).
#[must_use]
pub(crate) fn crc32_word_pair(head: u32, tail: &[u8]) -> u32 {
    let (crc, rest) = absorb8(step4(!0, head), tail);
    !absorb_rest(crc, rest)
}

/// The CRC-32 of `bytes`, one byte per step — the reference
/// implementation [`crc32`] must agree with on every input.
#[must_use]
pub fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // The catalogue check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
        assert_eq!(
            crc32_bytewise(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"timed consistency");
        let mut flipped = b"timed consistency".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn a_pair_hashes_as_its_concatenation() {
        let data: Vec<u8> = (0..40u32).map(|i| (i * 151 % 256) as u8).collect();
        for end in 0..=data.len() {
            for cut in 0..=end {
                let (head, tail) = data[..end].split_at(cut);
                assert_eq!(
                    crc32_pair(head, tail),
                    crc32_bytewise(&data[..end]),
                    "head {cut}, tail {}",
                    end - cut
                );
            }
        }
    }

    #[test]
    fn all_lengths_through_several_words_agree() {
        // Every remainder length 0..=7 and several full 8-byte steps.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 151 % 256) as u8).collect();
        for cut in 0..data.len() {
            assert_eq!(
                crc32(&data[..cut]),
                crc32_bytewise(&data[..cut]),
                "length {cut}"
            );
        }
    }

    proptest! {
        /// Slice-by-8 equals the byte-at-a-time reference on arbitrary
        /// inputs (lengths straddle the 8-byte chunking every which way).
        #[test]
        fn slice8_matches_reference(bytes in proptest::collection::vec(0u8..=255, 0..4096)) {
            prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }

        /// A 4-byte head given as a word hashes as its bytes.
        #[test]
        fn a_word_pair_matches_reference(
            head in 0u32..=u32::MAX,
            tail in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            let bytes = [&head.to_le_bytes()[..], &tail].concat();
            prop_assert_eq!(crc32_word_pair(head, &tail), crc32_bytewise(&bytes));
        }
    }
}
