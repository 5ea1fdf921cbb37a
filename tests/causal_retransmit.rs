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
//!
//! The ack is cumulative — a shard's delivery cursor for the writer — and
//! rides on the site's next reply, going standalone only when no reply
//! left within `ACK_DELAY`. The scripts below pin what the client makes of
//! a cursor: a lost one is covered by the next, a late older one changes
//! nothing, a stale reply's newer one still counts. A one-site fleet wired
//! by hand over a group-committed WAL pins the shard side: no ack covers a
//! write past the fsynced prefix, and a kill before the sync makes the
//! client resend exactly the unsynced tail.

use std::time::Duration;

use timed_consistency::clocks::{Delta, Time};
use timed_consistency::core::{ObjectId, Value};
use timed_consistency::durable::WalStore;
use timed_consistency::lifetime::engine::{Effect, Event, Now, PrivateSources, TIMER_NEXT_OP};
use timed_consistency::lifetime::store::ShardStore;
use timed_consistency::lifetime::{
    run_with, ClientEngine, DurabilityMode, FsyncPolicy, Msg, ProtocolConfig, ProtocolKind,
    RunConfig, RunOptions, ServerEngine, StoreFactory, WireVersion,
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
    let writes = result.counter(names::SERVER_WRITE);
    assert!(writes > 4_000);
    assert_eq!(retransmission_counters(&result.metrics), [0; 3]);
    // Every write's ack is counted once, on a reply or alone, and almost
    // all of them ride: a site's next request follows its write by a
    // tick, well inside ACK_DELAY.
    let piggybacked = result.counter(names::SERVER_ACK_PIGGYBACKED);
    let standalone = result.counter(names::SERVER_ACK_STANDALONE);
    assert!(piggybacked + standalone <= writes);
    assert!(
        standalone * 20 <= writes,
        "{standalone} standalone acks for {writes} causal writes"
    );
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
    // The socket driver reports the ack split like the simulator.
    assert!(result.metrics.counters.get(names::SERVER_ACK_PIGGYBACKED) > Some(&0));
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

    /// A standalone cumulative ack from the shard: every write with
    /// `shard_seq <= upto` is durable there.
    fn ack(&mut self, t: u64, upto: u64) -> Vec<Effect> {
        let msg = Msg::WriteAckCausal { upto };
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
    s.ack(1 + RETRY + 6, 1);
    let out = s.step(40 + RETRY, Event::Timer { token: flush });
    assert_eq!(writes_sent(&out), [(2, v2), (3, v3)]);
    assert_eq!(
        flush_armed(&out),
        Some((40, flush)),
        "next: write 3's deadline"
    );

    // Both land; the drained set kills the timer.
    assert!(s.ack(40 + RETRY + 6, 2).is_empty());
    assert!(s.ack(40 + RETRY + 7, 3).is_empty());
    assert!(!s.engine.timer_is_live(flush));
    assert!(s.step(80 + RETRY, Event::Timer { token: flush }).is_empty());
}

/// The write that armed the timer is acked in time, the one behind it is
/// not: the timer fires with nothing overdue, sends nothing, and re-arms
/// for the unacked write's deadline, where it resends that write alone.
#[test]
fn a_fire_with_nothing_overdue_sends_nothing_and_waits_for_the_oldest_deadline() {
    let mut s = Script::new();
    let ((1, _), Some((_, flush))) = s.write(1) else {
        panic!("the first write arms the flush timer")
    };
    let ((2, v2), None) = s.write(40) else {
        panic!("a write into a non-empty set arms nothing")
    };
    assert!(s.ack(7, 1).is_empty());

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

/// A reply from the shard, too late for any request: epoch 0 answers
/// nothing this client sent.
fn stale_reply(acked: Option<u64>) -> Msg {
    Msg::FetchRep {
        object: ObjectId::new(1),
        version: WireVersion {
            value: Value::INITIAL,
            alpha_t: Time::ZERO,
            alpha_v: None,
            tiebreak: (Time::ZERO, 0),
        },
        server_now: Time::from_ticks(10),
        epoch: 0,
        acked,
    }
}

impl Script {
    fn deliver(&mut self, t: u64, msg: Msg) -> Vec<Effect> {
        self.step(
            t,
            Event::Message {
                from: NodeId::new(0),
                msg,
            },
        )
    }
}

/// The reply carrying write 1's ack is lost on the way; the next one
/// carries the shard's cursor, 2, which covers both writes: the flush
/// timer dies and nothing is resent at write 1's deadline.
#[test]
fn a_lost_ack_is_covered_by_the_next_replys_cursor() {
    let mut s = Script::new();
    let ((1, _), Some((_, flush))) = s.write(1) else {
        panic!("the first write arms the flush timer")
    };
    s.write(2);
    // Lost: stale_reply(Some(1)).
    s.deliver(8, stale_reply(Some(2)));
    assert!(!s.engine.timer_is_live(flush), "nothing left unacked");
    let out = s.step(1 + RETRY, Event::Timer { token: flush });
    assert!(writes_sent(&out).is_empty());
    assert_eq!(retransmits(&out), 0);
}

/// A duplicated reply arriving after a newer cursor, or an older
/// standalone ack, finds every write it covers gone: it changes nothing
/// and emits nothing but the stale-reply count.
#[test]
fn a_late_duplicate_with_an_older_cursor_changes_nothing() {
    let mut s = Script::new();
    let ((1, _), Some((_, flush))) = s.write(1) else {
        panic!("the first write arms the flush timer")
    };
    let ((2, v2), None) = s.write(2) else {
        panic!("a write into a non-empty set arms nothing")
    };
    let ((3, v3), None) = s.write(3) else {
        panic!("a write into a non-empty set arms nothing")
    };
    assert!(s.ack(8, 1).is_empty());
    assert_eq!(
        s.deliver(9, stale_reply(Some(1))),
        [Effect::Metric {
            name: names::STALE_REPLY,
            add: 1
        }]
    );
    assert!(s.ack(10, 0).is_empty());
    // Writes 2 and 3 are still unacked, and go again at write 2's own
    // deadline.
    assert!(s.engine.timer_is_live(flush));
    s.step(1 + RETRY, Event::Timer { token: flush });
    let out = s.step(2 + RETRY, Event::Timer { token: flush });
    assert_eq!(writes_sent(&out), [(2, v2), (3, v3)]);
}

/// A reply to a request the client has moved past is dropped — its
/// payload could complete a newer operation with stale data — but the
/// cursor it carries is a fact about the shard's store, so it counts.
#[test]
fn a_stale_replys_newer_cursor_still_clears_unacked() {
    let mut s = Script::new();
    let ((1, _), Some((_, flush))) = s.write(1) else {
        panic!("the first write arms the flush timer")
    };
    s.write(2);
    let out = s.deliver(8, stale_reply(Some(2)));
    assert!(out.contains(&Effect::Metric {
        name: names::STALE_REPLY,
        add: 1
    }));
    assert!(!s.engine.timer_is_live(flush), "both writes acked");
    // A stale reply with no ack on it clears nothing.
    let ((3, _), Some((_, flush))) = s.write(20) else {
        panic!("a write into the drained set arms a new flush timer")
    };
    s.deliver(21, stale_reply(None));
    assert!(s.engine.timer_is_live(flush));
}

/// A one-site fleet wired by hand: shard node 0, client node 1, every
/// message one tick on the wire, every timer firing at its deadline.
struct Pair {
    client: ClientEngine,
    sources: PrivateSources,
    shard: ServerEngine,
    /// Pending `(tick, arming order, to the shard?, event)`.
    queue: Vec<(u64, u64, bool, Event)>,
    armed: u64,
}

impl Pair {
    fn new(protocol: ProtocolConfig, store: Box<dyn ShardStore>, ops: usize) -> Self {
        let workload = Workload::new(6, 0.8, 0.0, (Delta::ZERO, Delta::ZERO));
        let client = ClientEngine::new(protocol, vec![NodeId::new(0)], 0, 1, workload, ops);
        let mut pair = Pair {
            client,
            sources: PrivateSources::new(5, 0, 1),
            shard: ServerEngine::with_store(protocol, store),
            queue: Vec::new(),
            armed: 0,
        };
        pair.push(0, false, Event::Start);
        pair
    }

    fn push(&mut self, at: u64, to_shard: bool, event: Event) {
        self.armed += 1;
        self.queue.push((at, self.armed, to_shard, event));
    }

    /// Steps the earliest pending event, returning its tick, whether the
    /// shard took it, and what it emitted; `None` once the fleet is quiet.
    fn step(&mut self) -> Option<(u64, bool, Vec<Effect>)> {
        let next = (0..self.queue.len()).min_by_key(|&i| (self.queue[i].0, self.queue[i].1))?;
        let (at, _, to_shard, event) = self.queue.remove(next);
        let t = Time::from_ticks(at);
        let me = NodeId::new(usize::from(!to_shard));
        let now = Event::Now(Now {
            me,
            local: t,
            truth: t,
        });
        let mut out = Vec::new();
        if to_shard {
            self.shard.handle(now, &mut out);
            self.shard.handle(event, &mut out);
        } else {
            self.client.handle(now, &mut self.sources, &mut out);
            self.client.handle(event, &mut self.sources, &mut out);
        }
        for effect in &out {
            match effect {
                Effect::Send { msg, .. } => {
                    let msg = msg.clone();
                    self.push(at + 1, !to_shard, Event::Message { from: me, msg });
                }
                Effect::SetTimer { after, token } => {
                    let token = *token;
                    self.push(at + after.ticks().max(1), to_shard, Event::Timer { token });
                }
                _ => {}
            }
        }
        Some((at, to_shard, out))
    }
}

fn counted(effects: &[Effect], metric: &str) -> usize {
    effects
        .iter()
        .filter(|e| matches!(e, Effect::Metric { name, .. } if *name == metric))
        .count()
}

/// Group commit (8 pending / 20 ticks) over the real WAL: a site writes
/// twelve times, one write a tick. The eighth fills the group; the sync
/// owes its cursor, which goes out alone (no reply is coming). Writes 9
/// to 12 are still unsynced when the shard is killed, so no ack ever
/// named them, and the client resends exactly those four — at write 9's
/// deadline, in order — and nothing it was told is durable.
#[test]
fn a_kill_before_the_sync_makes_the_client_resend_exactly_the_unsynced_tail() {
    let protocol = ProtocolConfig::of(ProtocolKind::Tcc {
        delta: Delta::from_ticks(60),
    })
    .with_durability(DurabilityMode::Durable {
        fsync: FsyncPolicy {
            max_pending: 8,
            max_delay: Delta::from_ticks(20),
        },
    });
    let dir = std::env::temp_dir().join(format!("tc-ack-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut pair = Pair::new(protocol, Box::new(WalStore::open(&dir, 0, 64)), 12);
    const KILL: u64 = 20;
    pair.push(KILL, true, Event::Restart);
    // What the shard has appended and fsynced: its cursor and the prefix
    // of it that survives a kill.
    let (mut appended, mut synced) = (0, 0);
    let mut acks = Vec::new();
    let mut resent = Vec::new();
    while let Some((at, to_shard, out)) = pair.step() {
        if to_shard {
            if counted(&out, names::SERVER_RESTART) > 0 {
                assert!(out.contains(&Effect::Metric {
                    name: names::WAL_LOST,
                    add: appended - synced,
                }));
                appended = synced;
            }
            appended += counted(&out, names::WAL_APPEND) as u64;
            if counted(&out, names::WAL_FSYNC) > 0 {
                synced = appended;
            }
            for effect in &out {
                if let Effect::Send { msg, .. } = effect {
                    if let Some(upto) = msg.acked() {
                        assert!(
                            upto <= synced,
                            "t={at}: ack {upto} past the synced {synced}"
                        );
                        acks.push((at, upto));
                    }
                }
            }
        } else if counted(&out, names::CAUSAL_RETRANSMIT) > 0 {
            resent.extend(writes_sent(&out).into_iter().map(|(seq, _)| seq));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(pair.client.finished() && pair.client.is_idle());
    assert!(
        matches!(acks[..], [(at, 8), .., (_, 12)] if at < KILL),
        "the synced prefix acked before the kill, the tail after: {acks:?}"
    );
    assert_eq!(resent[..4], [9, 10, 11, 12], "the tail, in order");
    assert!(
        resent.iter().all(|seq| (9..=12).contains(seq)),
        "nothing acked is resent: {resent:?}"
    );
}
