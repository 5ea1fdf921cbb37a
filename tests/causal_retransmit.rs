//! The causal retransmission rule: a client resends its unacked causal
//! writes only once one of them is overdue — `retry_after` past its own
//! last send — and then resends all of them in order (go-back-N), because
//! a shard drops a write beyond a gap in its stream without acking it.
//!
//! So a fault-free run sends no retransmission, and no shard sees a
//! duplicate or a gap, under every causal level, with one shard or three,
//! over the in-memory store and over a group-committed WAL, in the
//! simulator and on the socket driver. Two engine scripts pin the timing:
//! a lost write goes again exactly at its deadline with the writes behind
//! it, and a timer firing with nothing overdue sends nothing and waits for
//! the earliest deadline.

use std::time::Duration;

use timed_consistency::clocks::{Delta, Time};
use timed_consistency::core::{ObjectId, Value};
use timed_consistency::durable::WalStore;
use timed_consistency::lifetime::engine::{Effect, Event, Now, PrivateSources, TIMER_NEXT_OP};
use timed_consistency::lifetime::store::ShardStore;
use timed_consistency::lifetime::{
    run_with, ClientEngine, DurabilityMode, FsyncPolicy, Msg, ProtocolConfig, ProtocolKind,
    RunConfig, RunOptions, StoreFactory,
};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::{MetricsSnapshot, NodeId, WorldConfig};
use timed_consistency::store::{run_reactor, RuntimeConfig};

/// The three counters a needless retransmission moves: the client's own,
/// and the shard's duplicate and gap drops.
fn retransmission_counters(metrics: &MetricsSnapshot) -> [u64; 3] {
    [
        names::CAUSAL_RETRANSMIT,
        names::SERVER_WRITE_DUP,
        names::SERVER_WRITE_GAP,
    ]
    .map(|name| metrics.counters.get(name).copied().unwrap_or(0))
}

fn causal_kinds() -> [ProtocolKind; 3] {
    [
        ProtocolKind::Cc,
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(60),
        },
        ProtocolKind::TccLogical { xi_delta: 6.0 },
    ]
}

#[test]
fn fault_free_causal_runs_send_no_retransmissions() {
    let group_commit = DurabilityMode::Durable {
        fsync: FsyncPolicy {
            max_pending: 8,
            max_delay: Delta::from_ticks(20),
        },
    };
    for kind in causal_kinds() {
        for shards in [1, 3] {
            for wal in [false, true] {
                let mut protocol = ProtocolConfig::of(kind).with_shards(shards);
                if wal {
                    protocol = protocol.with_durability(group_commit);
                }
                let config = RunConfig {
                    protocol,
                    n_clients: 4,
                    workload: Workload::new(12, 0.8, 0.6, (Delta::ZERO, Delta::from_ticks(10))),
                    ops_per_client: 60,
                    world: WorldConfig::deterministic(Delta::from_ticks(3), 17),
                };
                let root = std::env::temp_dir().join(format!(
                    "tc-retransmit-{}-{}-{shards}",
                    std::process::id(),
                    kind.label()
                ));
                let wal_store = |shard: usize| -> Box<dyn ShardStore> {
                    Box::new(WalStore::open(
                        root.join(format!("shard-{shard}")),
                        shard as u16,
                        64,
                    ))
                };
                let _ = std::fs::remove_dir_all(&root);
                let result = run_with(
                    &config,
                    RunOptions {
                        stores: wal.then_some(&wal_store as StoreFactory),
                        ..RunOptions::default()
                    },
                );
                let _ = std::fs::remove_dir_all(&root);
                let label = format!("{} × {shards} shards, wal {wal}", kind.label());
                assert_eq!(result.history.len(), 4 * 60, "{label}: every op completes");
                assert!(
                    result.counter(names::SERVER_WRITE) > 0,
                    "{label}: writes ran"
                );
                assert_eq!(
                    retransmission_counters(&result.metrics),
                    [0; 3],
                    "{label}: retransmit / duplicate / gap"
                );
            }
        }
    }
}

/// The benchmark's `tcc-mixed` fleet in the simulator: 32 sites with no
/// think time, 70 % reads of 64 objects, Δ = 400. Every ack beats its
/// write's deadline, so not one of its causal writes goes twice.
#[test]
fn a_saturated_tcc_fleet_sends_no_retransmissions() {
    let config = RunConfig {
        protocol: ProtocolConfig::of(ProtocolKind::Tcc {
            delta: Delta::from_ticks(400),
        }),
        n_clients: 32,
        workload: Workload::new(64, 0.8, 0.7, (Delta::ZERO, Delta::ZERO)),
        ops_per_client: 500,
        world: WorldConfig::deterministic(Delta::from_ticks(3), 23),
    };
    let result = run_with(
        &config,
        RunOptions {
            private_seed: Some(23),
            ..RunOptions::default()
        },
    );
    assert_eq!(result.history.len(), 32 * 500);
    assert!(result.counter(names::SERVER_WRITE) > 4_000);
    assert_eq!(retransmission_counters(&result.metrics), [0; 3]);
}

/// The same rule over real sockets. A 1 ms tick puts the retry interval at
/// half a second, far beyond any loopback round trip, so a retransmission
/// here is the rule misfiring rather than a slow host.
#[test]
fn a_reactor_tcc_fleet_sends_no_retransmissions() {
    let protocol = ProtocolConfig::of(ProtocolKind::Tcc {
        delta: Delta::from_ticks(60),
    });
    let workload = Workload::new(6, 0.8, 0.6, (Delta::ZERO, Delta::from_ticks(2)));
    let mut config = RuntimeConfig::for_protocol(protocol, 3, workload, 40, 42);
    config.tick = Duration::from_millis(1);
    let result = run_reactor(&config);
    assert_eq!(result.ops_done, 3 * 40);
    assert!(result.metrics.counters.get(names::SERVER_WRITE) > Some(&0));
    assert_eq!(retransmission_counters(&result.metrics), [0; 3]);
}

/// One client engine writing to shard node 0, stepped by hand.
struct Script {
    engine: ClientEngine,
    sources: PrivateSources,
}

const RETRY: u64 = 500;

impl Script {
    /// A site that only writes, to a one-shard fleet at node 0.
    fn new() -> Self {
        let config = ProtocolConfig::of(ProtocolKind::Tcc {
            delta: Delta::from_ticks(60),
        });
        assert_eq!(config.retry_after, Delta::from_ticks(RETRY));
        let workload = Workload::new(4, 0.8, 0.0, (Delta::ZERO, Delta::ZERO));
        let engine = ClientEngine::new(config, vec![NodeId::new(0)], 0, 1, workload, 100);
        let mut script = Script {
            engine,
            sources: PrivateSources::new(7, 0, 1),
        };
        script.step(0, Event::Start);
        script
    }

    fn step(&mut self, t: u64, event: Event) -> Vec<Effect> {
        let at = Time::from_ticks(t);
        let now = Now {
            me: NodeId::new(1),
            local: at,
            truth: at,
        };
        let mut out = Vec::new();
        self.engine
            .handle(Event::Now(now), &mut self.sources, &mut out);
        self.engine.handle(event, &mut self.sources, &mut out);
        out
    }

    /// Issues one write at `t`, returning its `(shard_seq, value)` and the
    /// flush timer it armed, if it shipped into an empty unacked set.
    fn write(&mut self, t: u64) -> ((u64, Value), Option<(u64, u64)>) {
        let out = self.step(
            t,
            Event::Timer {
                token: TIMER_NEXT_OP,
            },
        );
        let sent = writes_sent(&out);
        assert_eq!(sent.len(), 1, "one write ships: {out:?}");
        (sent[0], flush_armed(&out))
    }

    fn ack(&mut self, t: u64, value: Value) -> Vec<Effect> {
        // The client matches an ack by its write's unique value.
        let msg = Msg::WriteAckCausal {
            object: ObjectId::new(0),
            value,
        };
        self.step(
            t,
            Event::Message {
                from: NodeId::new(0),
                msg,
            },
        )
    }
}

/// `(shard_seq, value)` of every causal write sent.
fn writes_sent(out: &[Effect]) -> Vec<(u64, Value)> {
    out.iter()
        .filter_map(|e| match e {
            Effect::Send {
                msg: Msg::WriteReq {
                    shard_seq, value, ..
                },
                ..
            } => Some((*shard_seq, *value)),
            _ => None,
        })
        .collect()
}

/// `(after, token)` of the flush timer armed, if any.
fn flush_armed(out: &[Effect]) -> Option<(u64, u64)> {
    out.iter().find_map(|e| match e {
        Effect::SetTimer { after, token } if *token != TIMER_NEXT_OP => {
            Some((after.ticks(), *token))
        }
        _ => None,
    })
}

fn retransmits(out: &[Effect]) -> usize {
    out.iter()
        .filter(|e| matches!(e, Effect::Metric { name, .. } if *name == names::CAUSAL_RETRANSMIT))
        .count()
}

/// The first write is lost; the two behind it reach the shard but land
/// beyond the gap, so nothing is acked. Exactly `retry_after` after the
/// first write's send all three go again, in order, and the timer waits
/// for the next deadline: the second write's own, since a copy riding
/// along in another write's resend does not move it.
#[test]
fn a_lost_write_is_resent_at_its_deadline_with_the_writes_behind_it() {
    let mut s = Script::new();
    let ((1, v1), Some((after, flush))) = s.write(1) else {
        panic!("the first write arms the flush timer")
    };
    assert_eq!(after, RETRY);
    let ((2, v2), None) = s.write(40) else {
        panic!("a write into a non-empty set arms nothing")
    };
    let ((3, v3), None) = s.write(80) else {
        panic!("a write into a non-empty set arms nothing")
    };
    assert!(s.engine.timer_is_live(flush));

    let out = s.step(1 + RETRY, Event::Timer { token: flush });
    assert_eq!(writes_sent(&out), [(1, v1), (2, v2), (3, v3)]);
    assert_eq!(retransmits(&out), 3);
    assert_eq!(
        flush_armed(&out),
        Some((40 - 1, flush)),
        "next: write 2's deadline"
    );

    // The resend reorders on the way: write 1 lands, 2 and 3 fall behind
    // a gap again. Write 2 goes again at its own deadline (40 + 500), and
    // 3 rides along once more.
    s.ack(1 + RETRY + 6, v1);
    let out = s.step(40 + RETRY, Event::Timer { token: flush });
    assert_eq!(writes_sent(&out), [(2, v2), (3, v3)]);
    assert_eq!(
        flush_armed(&out),
        Some((40, flush)),
        "next: write 3's deadline"
    );

    // Both land; the drained set kills the timer.
    assert!(s.ack(40 + RETRY + 6, v2).is_empty());
    assert!(s.ack(40 + RETRY + 7, v3).is_empty());
    assert!(!s.engine.timer_is_live(flush));
    assert!(s.step(80 + RETRY, Event::Timer { token: flush }).is_empty());
}

/// The write that armed the timer is acked in time, the one behind it is
/// not: the timer fires with nothing overdue, sends nothing, and re-arms
/// for the unacked write's deadline, where it resends that write alone.
#[test]
fn a_fire_with_nothing_overdue_sends_nothing_and_waits_for_the_oldest_deadline() {
    let mut s = Script::new();
    let ((_, v1), Some((_, flush))) = s.write(1) else {
        panic!("the first write arms the flush timer")
    };
    let ((2, v2), None) = s.write(40) else {
        panic!("a write into a non-empty set arms nothing")
    };
    assert!(s.ack(7, v1).is_empty());

    let out = s.step(1 + RETRY, Event::Timer { token: flush });
    assert_eq!(
        out,
        [Effect::SetTimer {
            after: Delta::from_ticks(39),
            token: flush,
        }]
    );

    let out = s.step(40 + RETRY, Event::Timer { token: flush });
    assert_eq!(writes_sent(&out), [(2, v2)]);
    assert_eq!(flush_armed(&out), Some((RETRY, flush)));
}
