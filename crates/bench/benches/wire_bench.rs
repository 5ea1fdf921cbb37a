//! tc-wire hot paths: CRC-32 throughput and frame encoding, including the
//! buffer-reusing zero-copy path the socket drivers run per message, and
//! the varint path a causal read reply takes both ways.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tc_clocks::{Time, VectorClock};
use tc_core::{ObjectId, Value};
use tc_lifetime::{Msg, WireVersion};
use tc_wire::{crc32, decode_frame, encode_frame, encode_frame_into, WireMsg};

fn payload_msg() -> WireMsg {
    WireMsg::HelloReject {
        reason: "a moderately sized reason string to give the codec work".to_string(),
    }
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_crc32");
    for size in [64usize, 1024, 65536] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        g.bench_function(format!("slice8_{size}B"), |b| {
            b.iter(|| crc32(black_box(&data)))
        });
    }
    g.finish();
}

fn bench_encode(c: &mut Criterion) {
    let msg = payload_msg();
    let mut g = c.benchmark_group("wire_encode");
    g.bench_function("encode_frame_alloc", |b| {
        b.iter(|| encode_frame(black_box(7), black_box(&msg)))
    });
    g.bench_function("encode_frame_into_reused", |b| {
        let mut buf = Vec::with_capacity(1024);
        b.iter(|| {
            buf.clear();
            encode_frame_into(black_box(&mut buf), black_box(7), black_box(&msg));
            black_box(buf.len())
        })
    });
    g.finish();
}

/// A causal read reply at `tcc-mixed`'s shape: a 32-entry clock whose
/// entries sit within 64 of each other, scalars of a few bytes each.
fn causal_fetch_reply() -> WireMsg {
    WireMsg::Proto(Msg::FetchRep {
        object: ObjectId::new(41),
        version: WireVersion {
            value: Value::new(30_017),
            alpha_t: Time::from_ticks(200_003),
            alpha_v: Some(VectorClock::from_entries(
                31,
                (0..32u64)
                    .map(|i| 5_000 + (i * 37) % 64)
                    .collect::<Vec<_>>(),
            )),
            tiebreak: (Time::from_ticks(199_990), 17),
        },
        server_now: Time::from_ticks(200_011),
        epoch: 1_003,
        acked: None,
    })
}

fn bench_causal_fetch_reply(c: &mut Criterion) {
    let msg = causal_fetch_reply();
    let frame = encode_frame(0, &msg);
    let mut g = c.benchmark_group("wire_causal_fetch_rep_32");
    g.bench_function("encode_into_reused", |b| {
        let mut buf = Vec::with_capacity(1024);
        b.iter(|| {
            buf.clear();
            encode_frame_into(black_box(&mut buf), black_box(0), black_box(&msg));
            black_box(buf.len())
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| decode_frame(black_box(&frame)).expect("decodes"))
    });
    g.finish();
}

criterion_group!(benches, bench_crc, bench_encode, bench_causal_fetch_reply);
criterion_main!(benches);
