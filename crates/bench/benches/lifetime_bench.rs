//! End-to-end simulation throughput of the lifetime protocols, and the
//! Δ-dependence of simulated cost (events dispatched per operation).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use tc_bench::standard_run;
use tc_clocks::Delta;
use tc_lifetime::{run, ProtocolKind};

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("lifetime_run");
    for kind in [
        ProtocolKind::sc(),
        ProtocolKind::Tsc {
            delta: Delta::from_ticks(100),
        },
        ProtocolKind::cc(),
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(100),
        },
        ProtocolKind::NoCache,
    ] {
        group.bench_with_input(
            BenchmarkId::new("protocol", kind.label()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let cfg = standard_run(kind, 42, 60);
                    black_box(run(&cfg).events)
                })
            },
        );
    }
    group.finish();
}

fn bench_delta_effect(c: &mut Criterion) {
    let mut group = c.benchmark_group("lifetime_delta");
    for d in [5u64, 100, 2_000] {
        group.bench_with_input(BenchmarkId::new("tsc_delta", d), &d, |b, &d| {
            b.iter(|| {
                let cfg = standard_run(
                    ProtocolKind::Tsc {
                        delta: Delta::from_ticks(d),
                    },
                    42,
                    60,
                );
                black_box(run(&cfg).events)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_protocols, bench_delta_effect
}
criterion_main!(benches);
