//! The causal write stream: a client's writes to a shard ride one
//! ordered, acknowledged channel (`tc_lifetime::channel`). The shard holds
//! a write that lands ahead of a gap until the gap closes and reports the
//! gap, and the client resends a write only once it is overdue —
//! `retry_after` past its own last send, or sooner once a gap report
//! names it — and then that write alone.
//!
//! So a fault-free run sends no retransmission, and no shard sees a
//! duplicate or a gap, under every causal level, with one shard or three,
//! over the in-memory store and over a group-committed WAL, in the
//! simulator and on the socket driver. Three engine scripts pin the
//! timing: a lost write goes again exactly at its deadline, alone; a timer
//! firing with nothing overdue sends nothing and waits for the earliest
//! deadline; and a shard's gap report brings the missing write's resend
//! forward to within a round trip.
//!
//! The ack is cumulative — a shard's delivery cursor for the writer — and
//! rides on the site's next reply, going standalone only when no reply
//! left within half the writer's resend interval, or at once when the
//! writer waits on it. The scripts below pin what the client makes of a
//! cursor: a lost one is covered by the next, a late older one changes
//! nothing, a stale reply's newer one still counts. A one-site fleet wired
//! by hand over a group-committed WAL pins the shard side: no ack covers a
//! write past the fsynced prefix, and a kill before the sync makes the
//! client resend exactly the unsynced tail, each write once. The same
//! fleet pins when a writer waits on an ack: its last write is acked in
//! the step that applies it, a site draining on a cache hit asks for its
//! ack and has it a round trip later, and over two shards the write
//! barrier waits no longer than its predecessor's round trip. With think
//! time between operations the acks still ride on replies.

use std::time::Duration;

use timed_consistency::clocks::{Delta, Time};
use timed_consistency::core::{ObjectId, Value};
use timed_consistency::durable::WalStore;
use timed_consistency::lifetime::engine::{Effect, Event, Now, PrivateSources, TIMER_NEXT_OP};
use timed_consistency::lifetime::store::ShardStore;
use timed_consistency::lifetime::{
    run, run_with, ClientEngine, DurabilityMode, FsyncPolicy, MemStore, Msg, ProtocolConfig,
    ProtocolKind, RunConfig, RunOptions, ServerEngine, StoreFactory, WireVersion,
};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::{MetricsSnapshot, NodeId, WorldConfig};
use timed_consistency::store::{run_reactor, RuntimeConfig};

/// The three counters a needless retransmission or a reordered write
/// moves: the client's own, and the shard's duplicates and held writes.
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
        ProtocolKind::cc(),
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
    // tick, well inside the half resend interval the shard waits.
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
    /// resend timer it armed, if it shipped into an empty send window.
    fn write(&mut self, t: u64) -> ((u64, Value), Option<(u64, u64)>) {
        let out = self.step(
            t,
            Event::Timer {
                token: TIMER_NEXT_OP,
            },
        );
        let sent = writes_sent(&out);
        assert_eq!(sent.len(), 1, "one write ships: {out:?}");
        (sent[0], resend_armed(&out))
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
                msg:
                    Msg::WriteReqCausal {
                        shard_seq, value, ..
                    },
                ..
            } => Some((*shard_seq, *value)),
            _ => None,
        })
        .collect()
}

/// `(after, token)` of the resend timer armed, if any.
fn resend_armed(out: &[Effect]) -> Option<(u64, u64)> {
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

/// The first write is lost; the two behind it reach the shard and wait
/// there ahead of the gap, so nothing is acked. Exactly `retry_after`
/// after the first write's send it alone goes again, and the timer waits
/// for the second write's deadline. The second is lost too: it goes alone
/// at its own deadline, and its arrival closes the gap, so one cumulative
/// ack covers all three and the third is never resent.
#[test]
fn a_lost_write_is_resent_alone_at_its_own_deadline() {
    let mut s = Script::new();
    let ((1, v1), Some((after, first))) = s.write(1) else {
        panic!("the first write arms the resend timer")
    };
    assert_eq!(after, RETRY);
    let ((2, v2), None) = s.write(40) else {
        panic!("a write into a non-empty window arms nothing")
    };
    let ((3, _), None) = s.write(80) else {
        panic!("a write into a non-empty window arms nothing")
    };
    assert!(s.engine.timer_is_live(first));

    let out = s.step(1 + RETRY, Event::Timer { token: first });
    assert_eq!(writes_sent(&out), [(1, v1)]);
    assert_eq!(retransmits(&out), 1);
    let Some((39, second)) = resend_armed(&out) else {
        panic!("next: write 2's deadline: {out:?}")
    };
    assert!(!s.engine.timer_is_live(first));

    // Write 1 lands and is acked; write 2 was lost as well.
    assert!(s.ack(1 + RETRY + 6, 1).is_empty());
    let out = s.step(40 + RETRY, Event::Timer { token: second });
    assert_eq!(writes_sent(&out), [(2, v2)]);
    let Some((40, third)) = resend_armed(&out) else {
        panic!("next: write 3's deadline: {out:?}")
    };

    // Write 2 closes the gap; the shard applies 2 and 3 and acks both.
    assert!(s.ack(40 + RETRY + 6, 3).is_empty());
    assert!(!s.engine.timer_is_live(third));
    assert!(s.step(80 + RETRY, Event::Timer { token: third }).is_empty());
}

/// The first write is lost and the second lands ahead of the gap, so the
/// shard reports its cursor (`Msg::Gap`). The client then resends the
/// missing write its age after the report, not at its deadline; lost
/// again, it goes at once on the next report; and the ack covering both
/// kills the timer.
#[test]
fn a_gap_report_resends_the_missing_write_within_a_round_trip() {
    let mut s = Script::new();
    let ((1, v1), Some((_, first))) = s.write(1) else {
        panic!("the first write arms the resend timer")
    };
    s.write(40);
    let gap = |s: &mut Script, t| {
        let msg = Msg::Gap { upto: 0 };
        let from = NodeId::new(0);
        s.step(t, Event::Message { from, msg })
    };
    let Some((45, pulled)) = resend_armed(&gap(&mut s, 46)) else {
        panic!("write 1, sent 45 ticks before the report, goes 45 after it")
    };
    assert!(!s.engine.timer_is_live(first));
    let out = s.step(91, Event::Timer { token: pulled });
    assert_eq!((writes_sent(&out), retransmits(&out)), (vec![(1, v1)], 1));
    let Some((0, at_once)) = resend_armed(&gap(&mut s, 120)) else {
        panic!("a resent write goes at once on the next report")
    };
    assert_eq!(
        writes_sent(&s.step(120, Event::Timer { token: at_once })),
        [(1, v1)]
    );
    assert!(s.ack(130, 2).is_empty());
    assert!(!s.engine.timer_is_live(at_once));
}

/// The write that armed the timer is acked in time, the one behind it is
/// not: the timer fires with nothing overdue, sends nothing, and re-arms
/// for the unacked write's deadline, where it resends that write alone.
#[test]
fn a_fire_with_nothing_overdue_sends_nothing_and_waits_for_the_oldest_deadline() {
    let mut s = Script::new();
    let ((1, _), Some((_, first))) = s.write(1) else {
        panic!("the first write arms the resend timer")
    };
    let ((2, v2), None) = s.write(40) else {
        panic!("a write into a non-empty window arms nothing")
    };
    assert!(s.ack(7, 1).is_empty());

    let out = s.step(1 + RETRY, Event::Timer { token: first });
    let [Effect::SetTimer { after, token: next }] = out[..] else {
        panic!("only a re-arm: {out:?}")
    };
    assert_eq!(after, Delta::from_ticks(39));

    let out = s.step(40 + RETRY, Event::Timer { token: next });
    assert_eq!(writes_sent(&out), [(2, v2)]);
    assert!(matches!(resend_armed(&out), Some((RETRY, _))));
}

/// A reply from the shard, too late for any request: epoch 0 answers
/// nothing this client sent.
fn stale_reply(acked: Option<u64>) -> Msg {
    Msg::FetchRep {
        object: ObjectId::new(1),
        version: WireVersion::initial(),
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
/// carries the shard's cursor, 2, which covers both writes: the resend
/// timer dies and nothing is resent at write 1's deadline.
#[test]
fn a_lost_ack_is_covered_by_the_next_replys_cursor() {
    let mut s = Script::new();
    let ((1, _), Some((_, timer))) = s.write(1) else {
        panic!("the first write arms the resend timer")
    };
    s.write(2);
    // Lost: stale_reply(Some(1)).
    s.deliver(8, stale_reply(Some(2)));
    assert!(!s.engine.timer_is_live(timer), "nothing left unacked");
    let out = s.step(1 + RETRY, Event::Timer { token: timer });
    assert!(writes_sent(&out).is_empty());
    assert_eq!(retransmits(&out), 0);
}

/// A duplicated reply arriving after a newer cursor, or an older
/// standalone ack, finds every write it covers gone: it changes nothing
/// and emits nothing but the stale-reply count.
#[test]
fn a_late_duplicate_with_an_older_cursor_changes_nothing() {
    let mut s = Script::new();
    let ((1, _), Some((_, timer))) = s.write(1) else {
        panic!("the first write arms the resend timer")
    };
    let ((2, v2), None) = s.write(2) else {
        panic!("a write into a non-empty window arms nothing")
    };
    let ((3, v3), None) = s.write(3) else {
        panic!("a write into a non-empty window arms nothing")
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
    // Writes 2 and 3 are still unacked, and each goes again at its own
    // deadline.
    assert!(s.engine.timer_is_live(timer));
    let out = s.step(1 + RETRY, Event::Timer { token: timer });
    let Some((_, timer)) = resend_armed(&out) else {
        panic!("re-armed for write 2's deadline: {out:?}")
    };
    let out = s.step(2 + RETRY, Event::Timer { token: timer });
    assert_eq!(writes_sent(&out), [(2, v2)]);
    let Some((_, timer)) = resend_armed(&out) else {
        panic!("re-armed for write 3's deadline: {out:?}")
    };
    let out = s.step(3 + RETRY, Event::Timer { token: timer });
    assert_eq!(writes_sent(&out), [(3, v3)]);
}

/// A reply to a request the client has moved past is dropped — its
/// payload could complete a newer operation with stale data — but the
/// cursor it carries is a fact about the shard's store, so it counts.
#[test]
fn a_stale_replys_newer_cursor_still_clears_unacked() {
    let mut s = Script::new();
    let ((1, _), Some((_, timer))) = s.write(1) else {
        panic!("the first write arms the resend timer")
    };
    s.write(2);
    let out = s.deliver(8, stale_reply(Some(2)));
    assert!(out.contains(&Effect::Metric {
        name: names::STALE_REPLY,
        add: 1
    }));
    assert!(!s.engine.timer_is_live(timer), "both writes acked");
    // A stale reply with no ack on it clears nothing.
    let ((3, _), Some((_, timer))) = s.write(20) else {
        panic!("a write into the drained window arms a new resend timer")
    };
    s.deliver(21, stale_reply(None));
    assert!(s.engine.timer_is_live(timer));
}

/// A one-site fleet wired by hand: shard nodes `0..k`, client node `k`,
/// every message one tick on the wire, every timer firing at its
/// deadline.
struct Fleet {
    shards: Vec<ServerEngine>,
    client: ClientEngine,
    sources: PrivateSources,
    /// Pending `(tick, arming order, node, event)`.
    queue: Vec<(u64, u64, usize, Event)>,
    armed: u64,
}

impl Fleet {
    /// One shard per store; the site draws its program from `seed`.
    fn new(
        protocol: ProtocolConfig,
        stores: Vec<Box<dyn ShardStore>>,
        workload: Workload,
        ops: usize,
        seed: u64,
    ) -> Self {
        let servers = (0..stores.len()).map(NodeId::new).collect();
        let client = ClientEngine::new(protocol, servers, 0, 1, workload, ops);
        let shards = stores
            .into_iter()
            .map(|store| ServerEngine::with_store(protocol, store))
            .collect();
        let mut fleet = Fleet {
            shards,
            client,
            sources: PrivateSources::new(seed, 0, 1),
            queue: Vec::new(),
            armed: 0,
        };
        fleet.push(0, fleet.client_node(), Event::Start);
        fleet
    }

    /// The one-shard fleet at `seed` 5 over `store`, writing only.
    fn writer(protocol: ProtocolConfig, store: Box<dyn ShardStore>, ops: usize) -> Self {
        let workload = Workload::new(6, 0.8, 0.0, (Delta::ZERO, Delta::ZERO));
        Fleet::new(protocol, vec![store], workload, ops, 5)
    }

    fn client_node(&self) -> usize {
        self.shards.len()
    }

    fn push(&mut self, at: u64, node: usize, event: Event) {
        self.armed += 1;
        self.queue.push((at, self.armed, node, event));
    }

    /// Steps the earliest pending event, returning its tick, the node that
    /// took it, and what it emitted; `None` once the fleet is quiet.
    fn step(&mut self) -> Option<(u64, usize, Vec<Effect>)> {
        let next = (0..self.queue.len()).min_by_key(|&i| (self.queue[i].0, self.queue[i].1))?;
        let (at, _, node, event) = self.queue.remove(next);
        let t = Time::from_ticks(at);
        let me = NodeId::new(node);
        let now = Event::Now(Now {
            me,
            local: t,
            truth: t,
        });
        let mut out = Vec::new();
        if let Some(shard) = self.shards.get_mut(node) {
            shard.handle(now, &mut out);
            shard.handle(event, &mut out);
        } else {
            self.client.handle(now, &mut self.sources, &mut out);
            self.client.handle(event, &mut self.sources, &mut out);
        }
        for effect in &out {
            match effect {
                Effect::Send { to, msg } => {
                    let msg = msg.clone();
                    self.push(at + 1, to.index(), Event::Message { from: me, msg });
                }
                Effect::SetTimer { after, token } if !after.is_infinite() => {
                    let token = *token;
                    self.push(at + after.ticks().max(1), node, Event::Timer { token });
                }
                _ => {}
            }
        }
        Some((at, node, out))
    }

    /// Steps until the client has completed its workload, returning the
    /// tick and what the completing step emitted.
    fn until_finished(&mut self) -> (u64, Vec<Effect>) {
        while let Some((at, node, out)) = self.step() {
            if node == self.client_node() && self.client.finished() {
                return (at, out);
            }
        }
        panic!("the fleet went quiet before the workload ended")
    }

    /// Steps until the client is idle, returning the tick of that step.
    fn until_idle(&mut self) -> u64 {
        while let Some((at, node, _)) = self.step() {
            if node == self.client_node() && self.client.is_idle() {
                return at;
            }
        }
        panic!("the fleet went quiet with writes unacked")
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
/// named them, and the client resends exactly those four, each once at
/// its own deadline, and nothing it was told is durable.
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
    let mut fleet = Fleet::writer(protocol, Box::new(WalStore::open(&dir, 0, 64)), 12);
    const KILL: u64 = 20;
    fleet.push(KILL, 0, Event::Restart);
    // What the shard has appended and fsynced: its cursor and the prefix
    // of it that survives a kill.
    let (mut appended, mut synced) = (0, 0);
    let mut acks = Vec::new();
    let mut resent = Vec::new();
    while let Some((at, node, out)) = fleet.step() {
        if node == 0 {
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
    assert!(fleet.client.finished() && fleet.client.is_idle());
    assert!(
        matches!(acks[..], [(at, 8), .., (_, 12)] if at < KILL),
        "the synced prefix acked before the kill, the tail after: {acks:?}"
    );
    assert_eq!(resent, [9, 10, 11, 12], "the tail, in order, each once");
}

/// TCC at Δ = 60 over the default resend interval.
fn tcc() -> ProtocolConfig {
    ProtocolConfig::of(ProtocolKind::Tcc {
        delta: Delta::from_ticks(60),
    })
}

/// `(shard_seq, ack_now)` of every causal write sent.
fn writes_flagged(out: &[Effect]) -> Vec<(u64, bool)> {
    out.iter()
        .filter_map(|e| match e {
            Effect::Send {
                msg:
                    Msg::WriteReqCausal {
                        shard_seq, ack_now, ..
                    },
                ..
            } => Some((*shard_seq, *ack_now)),
            _ => None,
        })
        .collect()
}

fn arms_a_timer(out: &[Effect]) -> bool {
    out.iter().any(|e| matches!(e, Effect::SetTimer { .. }))
}

/// A site whose last operation is a write flags it (`ack_now`), having
/// no later request to carry the ack home. Its shard acks it in the step
/// that applies it, covering every write owed before it, and arms no
/// timer: the site is idle one round trip after the write left. (A real
/// driver rounds a zero-delay timer up to the next tick, so an ack that
/// left through one would cost a tick.)
#[test]
fn a_drained_writers_last_write_is_acked_in_the_step_that_applies_it() {
    let mut fleet = Fleet::writer(tcc(), Box::new(MemStore::new()), 12);
    let (finished, out) = fleet.until_finished();
    assert_eq!(writes_flagged(&out), [(12, true)]);
    let (at, out) = loop {
        match fleet.step() {
            Some((at, 0, out)) => break (at, out),
            Some(_) => {}
            None => panic!("the last write never reached the shard"),
        }
    };
    assert_eq!(at, finished + 1);
    let ack = Effect::Send {
        to: NodeId::new(1),
        msg: Msg::WriteAckCausal { upto: 12 },
    };
    assert!(out.contains(&ack), "{out:?}");
    assert!(!arms_a_timer(&out), "no shard timer: {out:?}");
    assert_eq!(fleet.until_idle(), finished + 2);
}

/// A site whose last operation is a cache hit behind an unacked write
/// has no request left to carry the ack, and the write was not flagged.
/// In the step that completes its workload it asks for the ack with an
/// epoch-0 validation, and it is idle one round trip later, not the half
/// resend interval the shard would otherwise hold the ack for.
#[test]
fn a_writer_draining_on_a_cache_hit_asks_for_its_ack() {
    // One object, so every read after the site's own write hits.
    let workload = Workload::new(1, 0.8, 0.5, (Delta::ZERO, Delta::ZERO));
    let found = (0..64).find_map(|seed| {
        let store: Box<dyn ShardStore> = Box::new(MemStore::new());
        let mut fleet = Fleet::new(tcc(), vec![store], workload.clone(), 10, seed);
        let (finished, out) = fleet.until_finished();
        let behind_a_write = counted(&out, names::CACHE_HIT) == 1 && !fleet.client.is_idle();
        behind_a_write.then_some((fleet, finished, out))
    });
    let Some((mut fleet, finished, out)) = found else {
        panic!("no program ends on a hit behind an unacked write")
    };
    assert_eq!(counted(&out, names::CAUSAL_ACK_ASKED), 1);
    assert!(out.iter().any(|e| matches!(
        e,
        Effect::Send {
            msg: Msg::ValidateReq { epoch: 0, .. },
            ..
        }
    )));
    let idle = fleet.until_idle();
    assert_eq!(idle, finished + 2, "one round trip");
    assert!(idle - finished < ServerEngine::new(tcc()).ack_wait().ticks());
}

/// Over two shards every causal write asks for its ack at once, so the
/// cross-shard barrier holds a write only for the round trip of the write
/// it waits on. The first write held back (issued a tick after a write to
/// the other shard) ships the tick that write's ack lands, one round trip
/// after it left; a shard holding the ack for a fixed four ticks would
/// ship it four ticks later, and one holding it for a reply much later
/// still. No shard arms an ack deadline.
#[test]
fn a_deferred_write_ships_when_its_predecessors_round_trip_ends() {
    let protocol = tcc().with_shards(2);
    let workload = Workload::new(8, 0.8, 0.0, (Delta::ZERO, Delta::ZERO));
    let stores: Vec<Box<dyn ShardStore>> =
        vec![Box::new(MemStore::new()), Box::new(MemStore::new())];
    let mut fleet = Fleet::new(protocol, stores, workload, 40, 5);
    let mut deferred = None;
    let mut shipped = Vec::new();
    while let Some((at, node, out)) = fleet.step() {
        if node < 2 {
            assert!(!arms_a_timer(&out), "shard {node} at {at}: {out:?}");
            continue;
        }
        if deferred.is_none() && counted(&out, names::CAUSAL_DEFERRED) > 0 {
            deferred = Some(at);
        }
        for (_, ack_now) in writes_flagged(&out) {
            assert!(ack_now, "every write of a sharded fleet is flagged");
            shipped.push(at);
        }
    }
    assert!(fleet.client.finished() && fleet.client.is_idle());
    let deferred = deferred.expect("the barrier held a write");
    assert_eq!(
        shipped.iter().rev().find(|&&t| t < deferred),
        Some(&(deferred - 1))
    );
    assert_eq!(
        shipped.iter().find(|&&t| t > deferred),
        Some(&(deferred + 1))
    );
}

/// Protocol-compare's fleet: four sites, think times of 5 to 40 ticks,
/// Δ = 80. Every think time outlasts a few ticks, yet a site's next reply
/// comes well within half the resend interval, so nearly every ack rides
/// on one, and not one causal write goes twice.
#[test]
fn a_thinking_tcc_fleet_rides_its_acks() {
    let kind = ProtocolKind::Tcc {
        delta: Delta::from_ticks(80),
    };
    for seed in 0..5 {
        let result = run(&tc_bench::standard_run(kind, seed, 150));
        let writes = result.counter(names::SERVER_WRITE);
        let standalone = result.counter(names::SERVER_ACK_STANDALONE);
        assert!(writes > 100, "seed {seed}: {writes} writes");
        assert_eq!(retransmission_counters(&result.metrics), [0; 3]);
        assert!(
            standalone * 20 <= writes,
            "seed {seed}: {standalone} standalone acks for {writes} causal writes"
        );
    }
}
