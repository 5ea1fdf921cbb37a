//! Layers measured on their own, in a tight loop or a single call: the
//! simulator as the engine-only ceiling, vector clocks, and the
//! write-ahead log's bytes and cold replay.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tc_clocks::{ClockOrdering, SiteClock, Time, Timestamp, VectorClock};
use tc_core::{ObjectId, Value};
use tc_lifetime::store::{ShardStore, WalRecord};
use tc_lifetime::{run_with_private_sources, RunResult};

use crate::workloads::{Family, Spec, FSYNC};

pub struct SimRun {
    pub result: RunResult,
    pub ns_per_op: f64,
}

/// The same fleet and inputs on the deterministic simulator
/// (`tc_lifetime::harness` over `tc_sim::world`): engines and event queue
/// only, no wire format, sockets or threads.
pub fn sim(spec: &Spec, seed: u64, ops_per_site: usize, objects: usize) -> SimRun {
    let config = spec.sim(seed, ops_per_site, objects);
    let started = Instant::now();
    let result = run_with_private_sources(&config, seed);
    let ns = started.elapsed().as_nanos() as f64;
    let ops = result.history.len().max(1) as f64;
    SimRun {
        result,
        ns_per_op: ns / ops,
    }
}

/// One merge plus one comparison of vector clocks as wide as the fleet, in
/// nanoseconds: what the causal family pays per message on top of the
/// physical one.
pub fn vector_clock_ns(width: usize) -> f64 {
    const ROUNDS: u32 = 200_000;
    let mut local = VectorClock::new(0, width);
    let mut remote = VectorClock::new(width - 1, width);
    let mut ordered = 0u32;
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let stamp = remote.tick();
        let merged = local.observe(black_box(&stamp));
        ordered += u32::from(merged.compare(&stamp) == ClockOrdering::After);
    }
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(
        black_box(ordered),
        ROUNDS,
        "a merge dominates what it merged"
    );
    ns / f64::from(ROUNDS)
}

pub struct WalProbe {
    pub bytes_per_write: f64,
    pub cold_replay_ms: f64,
}

/// Appends the workload's kind of record under its group-commit size, then
/// reopens the directory cold: log bytes per write, and the time to replay
/// them. Stays under the rotation threshold, so the directory is one
/// segment and every byte in it is a record.
pub fn wal(spec: &Spec, dir: &Path) -> WalProbe {
    const RECORDS: usize = 1_000;
    const _: () = assert!((RECORDS as u64) < tc_durable::DEFAULT_SNAPSHOT_EVERY);
    let open = || tc_durable::WalStore::open(dir, 0, tc_durable::DEFAULT_SNAPSHOT_EVERY);
    let mut store = open();
    let mut stamp = VectorClock::new(0, spec.sites);
    for i in 0..RECORDS {
        let object = ObjectId::new((i % spec.objects) as u32);
        let value = Value::new(i as u64 + 1);
        let at = Time::from_ticks(i as u64 + 1);
        let record = match spec.family {
            Family::Tsc => WalRecord::Physical {
                object,
                value,
                alpha: at,
                issued_at: at,
                writer: 1,
            },
            Family::Tcc => WalRecord::Causal {
                object,
                writer: 1,
                seq: i as u64 + 1,
                value,
                alpha_t: at,
                alpha_v: stamp.tick(),
            },
        };
        store.apply(&record);
        if store.pending() >= FSYNC.max_pending {
            store.sync();
        }
    }
    store.sync();
    drop(store);
    let bytes: u64 = std::fs::read_dir(dir)
        .expect("the probe just wrote this directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let started = Instant::now();
    let reopened = open();
    let cold_replay_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        reopened.records(),
        RECORDS as u64,
        "replay recovers every synced record"
    );
    WalProbe {
        bytes_per_write: bytes as f64 / RECORDS as f64,
        cold_replay_ms,
    }
}
