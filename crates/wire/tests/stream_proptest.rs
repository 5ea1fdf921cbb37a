//! Property tests for the incremental decoder: chunk boundaries must be
//! invisible.
//!
//! The reactor transport reads whatever the kernel hands it — half a
//! header, three frames and a fragment — and feeds it to
//! [`FrameDecoder`]. These properties pin the decoder to the one-shot
//! [`decode_frame`] as ground truth: for any message sequence and *any*
//! partition of its encoded bytes into chunks (byte-at-a-time through
//! whole-buffer), the streaming decoder yields the identical frame
//! sequence — and on a corrupted stream, the identical terminal error at
//! the identical frame boundary.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use tc_clocks::{Delta, Time};
use tc_core::{ObjectId, Value};
use tc_lifetime::Msg;
use tc_wire::{decode_frame, encode_frame, FrameDecoder, WireError, WireMsg};

/// What a whole stream decodes to: the frames extracted in order, plus how
/// the stream ended — cleanly consumed, cut mid-frame, or corrupt.
#[derive(Debug, PartialEq)]
enum StreamEnd {
    /// All bytes consumed into complete frames.
    Clean,
    /// The stream ends mid-header or mid-payload (more bytes could
    /// legitimately arrive).
    Incomplete,
    /// Framing is unrecoverably lost.
    Corrupt(WireError),
}

/// Ground truth: run the one-shot decoder over the contiguous bytes.
fn oneshot_decode(bytes: &[u8]) -> (Vec<(u16, WireMsg)>, StreamEnd) {
    let mut frames = Vec::new();
    let mut pos = 0;
    loop {
        if pos == bytes.len() {
            return (frames, StreamEnd::Clean);
        }
        match decode_frame(&bytes[pos..]) {
            Ok((shard, msg, used)) => {
                frames.push((shard, msg));
                pos += used;
            }
            Err(WireError::Truncated { .. }) => return (frames, StreamEnd::Incomplete),
            Err(e) => return (frames, StreamEnd::Corrupt(e)),
        }
    }
}

/// The decoder under test: feed `bytes` split at `cuts`, drain after every
/// chunk.
fn streaming_decode(bytes: &[u8], chunks: &[&[u8]]) -> (Vec<(u16, WireMsg)>, StreamEnd) {
    assert_eq!(
        chunks.iter().map(|c| c.len()).sum::<usize>(),
        bytes.len(),
        "chunking must partition the stream"
    );
    let mut dec = FrameDecoder::new();
    let mut frames = Vec::new();
    for chunk in chunks {
        dec.extend(chunk);
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => break,
                Err(e) => return (frames, StreamEnd::Corrupt(e)),
            }
        }
    }
    let end = if dec.has_partial() {
        StreamEnd::Incomplete
    } else {
        StreamEnd::Clean
    };
    (frames, end)
}

/// Splits `bytes` into chunks at pseudo-random boundaries drawn from
/// `seed`; `bias` skews towards tiny chunks (byte-at-a-time) or huge ones
/// (whole-buffer) so both extremes get real coverage.
fn chunk_up(bytes: &[u8], seed: u64, bias: u8) -> Vec<&[u8]> {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chunks = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let max = bytes.len() - pos;
        let take = match bias % 3 {
            0 => 1,                             // byte-at-a-time
            1 => rng.gen_range(1..=max.min(7)), // small fragments
            _ => rng.gen_range(1..=max),        // anything up to the rest
        };
        chunks.push(&bytes[pos..pos + take]);
        pos += take;
    }
    chunks
}

fn arb_msg(rng: &mut StdRng) -> WireMsg {
    // A compact message sampler: the full-space round-trip coverage lives
    // in codec_proptest.rs; here the property under test is *chunking*, so
    // a few size-diverse shapes (empty-payload heartbeats through
    // batch-sized protos) suffice.
    match rng.gen_range(0..5u8) {
        0 => WireMsg::Heartbeat,
        1 => WireMsg::Bye,
        2 => WireMsg::HelloAck {
            shard: rng.gen_range(0..=u32::MAX),
        },
        3 => WireMsg::Proto(Msg::FetchReq {
            object: ObjectId::new(rng.gen_range(0..1024)),
            epoch: rng.gen_range(0..=u64::MAX),
        }),
        _ => WireMsg::Proto(Msg::WriteReq {
            object: ObjectId::new(rng.gen_range(0..1024)),
            value: Value::new(rng.gen_range(0..=u64::MAX)),
            alpha_v: None,
            issued_at: Time::from_ticks(rng.gen_range(0..=u64::MAX)),
            epoch: rng.gen_range(0..=u64::MAX),
            shard_seq: rng.gen_range(0..=u64::MAX),
            ack_now: false,
        }),
    }
}

/// A random multi-frame stream (0–8 messages, random shard tags).
struct ArbStream;

impl Strategy for ArbStream {
    type Value = Vec<u8>;
    fn sample(&self, rng: &mut StdRng) -> Vec<u8> {
        let n = rng.gen_range(0..=8usize);
        let mut bytes = Vec::new();
        for _ in 0..n {
            let shard = rng.gen_range(0..=u16::MAX);
            let msg = arb_msg(rng);
            bytes.extend_from_slice(&encode_frame(shard, &msg));
        }
        bytes
    }
}

// Delta is used by arb_msg's siblings in codec_proptest; keep the import
// honest here by touching it in one strategy.
#[allow(dead_code)]
fn arb_delta(rng: &mut StdRng) -> Delta {
    Delta::from_ticks(rng.gen_range(0..1_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Identity on clean streams: any chunking of any frame sequence
    /// yields exactly the one-shot decode.
    #[test]
    fn chunking_is_invisible_on_clean_streams(
        stream in ArbStream,
        seed in 0u64..=u64::MAX,
        bias in 0u8..=255,
    ) {
        let expected = oneshot_decode(&stream);
        let chunks = chunk_up(&stream, seed, bias);
        prop_assert_eq!(streaming_decode(&stream, &chunks), expected);
    }

    /// Identity on truncated streams: cutting the byte stream anywhere
    /// leaves both decoders agreeing on the frames before the cut and on
    /// the "incomplete" ending (never an error — more bytes could come).
    #[test]
    fn chunking_is_invisible_on_truncated_streams(
        stream in ArbStream,
        cut_at in 0usize..1_000_000,
        seed in 0u64..=u64::MAX,
        bias in 0u8..=255,
    ) {
        prop_assume!(!stream.is_empty());
        let cut = cut_at % stream.len();
        let truncated = &stream[..cut];
        let expected = oneshot_decode(truncated);
        let chunks = chunk_up(truncated, seed, bias);
        prop_assert_eq!(streaming_decode(truncated, &chunks), expected);
    }

    /// Rejection parity on corrupted streams: flip any bit anywhere and
    /// both decoders extract the same prefix of intact frames, then fail
    /// with the same error.
    #[test]
    fn corruption_is_rejected_identically(
        stream in ArbStream,
        flip_at in 0usize..1_000_000,
        bit in 0u8..8,
        seed in 0u64..=u64::MAX,
        bias in 0u8..=255,
    ) {
        prop_assume!(!stream.is_empty());
        let mut bytes = stream.clone();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << bit;
        let expected = oneshot_decode(&bytes);
        let chunks = chunk_up(&bytes, seed, bias);
        prop_assert_eq!(streaming_decode(&bytes, &chunks), expected);
    }

    /// Garbage streams never panic the incremental decoder, and still
    /// agree with the one-shot verdict.
    #[test]
    fn garbage_never_panics_and_matches_oneshot(
        bytes in proptest::collection::vec(0u8..=255, 0..192),
        seed in 0u64..=u64::MAX,
        bias in 0u8..=255,
    ) {
        let expected = oneshot_decode(&bytes);
        let chunks = chunk_up(&bytes, seed, bias);
        prop_assert_eq!(streaming_decode(&bytes, &chunks), expected);
    }
}
