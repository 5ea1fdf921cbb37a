//! A timer `ClientEngine::timer_is_live` calls dead must be one whose
//! firing the engine cannot observe: drivers drop such timers without a
//! step, so handling one has to emit nothing and complete nothing.
//!
//! Clients and shards run in-process under a random schedule that
//! delivers, drops and duplicates messages, fires armed timers in any
//! order (most retry timers die because their reply came first), fires
//! tokens nobody armed, and crash-restarts clients.

use proptest::collection;
use proptest::prelude::*;
use tc_clocks::{Delta, Time};
use tc_lifetime::engine::{
    Effect, Event, PrivateSources, TIMER_FLUSH_CAUSAL, TIMER_GEO_ATTACH, TIMER_NEXT_OP,
};
use tc_lifetime::node::{ClientCore, Host, ShardCore, SimClock};
use tc_lifetime::{ClientEngine, Msg, ProtocolConfig, ProtocolKind, ServerEngine};
use tc_sim::workload::Workload;
use tc_sim::NodeId;

const SITES: usize = 2;

struct Fleet {
    shards: usize,
    clients: Vec<ClientCore<SimClock>>,
    servers: Vec<ShardCore<SimClock>>,
    /// (from, to, message) in flight.
    wire: Vec<(NodeId, NodeId, Msg)>,
    /// (node, token) armed and not yet fired.
    timers: Vec<(usize, u64)>,
    t: u64,
}

impl Fleet {
    /// `SITES` clients of `kind` and `shards` shards, every node started.
    fn new(kind: ProtocolKind, shards: usize, seed: u64, workload: Workload) -> Self {
        let config = ProtocolConfig::of(kind).with_shards(shards);
        let servers: Vec<NodeId> = (0..shards).map(NodeId::new).collect();
        let mut fleet = Fleet {
            shards,
            clients: (0..SITES)
                .map(|site| {
                    let engine = ClientEngine::new(
                        config,
                        servers.clone(),
                        site,
                        SITES,
                        workload.clone(),
                        30,
                    );
                    let sources = Some(PrivateSources::new(seed, site, SITES));
                    ClientCore::new(engine, sources, SimClock, NodeId::new(shards + site))
                })
                .collect(),
            servers: servers
                .iter()
                .map(|&me| ShardCore::new(ServerEngine::new(config), SimClock, me, &[]))
                .collect(),
            wire: Vec::new(),
            timers: Vec::new(),
            t: 0,
        };
        for node in 0..shards + SITES {
            fleet.step(node, Event::Start);
        }
        fleet
    }

    /// Steps `node`'s node core with `event` a tick after the last step,
    /// collecting what it sends and arms.
    fn step(&mut self, node: usize, event: Event) -> Vec<Effect> {
        self.t += 1;
        let at = (Time::from_ticks(self.t), Time::from_ticks(self.t));
        let mut out = Vec::new();
        if node < self.shards {
            self.servers[node].step(event, at, None, &mut out);
        } else {
            self.clients[node - self.shards].step(event, at, None, &mut out);
        }
        for effect in &out {
            match effect {
                Effect::Send { to, msg } => self.wire.push((NodeId::new(node), *to, msg.clone())),
                Effect::SetTimer { after, token } if !after.is_infinite() => {
                    self.timers.push((node, *token));
                }
                _ => {}
            }
        }
        out
    }

    /// Fires `token` at client `site`, checking the liveness query against
    /// what the step does.
    fn fire_client(&mut self, site: usize, token: u64) -> Result<(), TestCaseError> {
        let live = self.clients[site].timer_is_live(token);
        let done = self.clients[site].engine.ops_done();
        let out = self.step(self.shards + site, Event::Timer { token });
        prop_assert_eq!(
            live,
            !out.is_empty(),
            "token {} called {}, but the step emitted {:?}",
            token,
            if live { "live" } else { "dead" },
            out
        );
        if !live {
            prop_assert_eq!(self.clients[site].engine.ops_done(), done);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_dead_timer_is_unobservable(
        kind in 0usize..4,
        shards in 1usize..3,
        seed in 0u64..1_000,
        schedule in collection::vec((0u8..12, 0usize..1_000), 1..400),
    ) {
        let delta = Delta::from_ticks(40);
        let kind = [
            ProtocolKind::Sc,
            ProtocolKind::Tsc { delta },
            ProtocolKind::Cc,
            ProtocolKind::Tcc { delta },
        ][kind];
        let workload = Workload::new(4, 0.8, 0.5, (Delta::ZERO, Delta::from_ticks(3)));
        let mut fleet = Fleet::new(kind, shards, seed, workload);
        for (what, pick) in schedule {
            match what {
                // Deliver, drop or duplicate a message in flight.
                0..=5 if !fleet.wire.is_empty() => {
                    let i = pick % fleet.wire.len();
                    if what == 5 {
                        let copy = fleet.wire[i].clone();
                        fleet.wire.push(copy);
                    }
                    let (from, to, msg) = fleet.wire.swap_remove(i);
                    if what != 4 {
                        fleet.step(to.index(), Event::Message { from, msg });
                    }
                }
                // Fire an armed timer, live or dead.
                6..=8 if !fleet.timers.is_empty() => {
                    let (node, token) = fleet.timers.swap_remove(pick % fleet.timers.len());
                    if node < shards {
                        fleet.step(node, Event::Timer { token });
                    } else {
                        fleet.fire_client(node - shards, token)?;
                    }
                }
                // Fire a token nobody armed (or not any more): among them
                // flush generations the site has moved past.
                9 | 10 => {
                    let nth = (pick / 4) as u64;
                    let token = [0, TIMER_FLUSH_CAUSAL + nth % 12, TIMER_GEO_ATTACH, nth % 40][pick % 4];
                    fleet.fire_client(pick % SITES, token)?;
                }
                11 => {
                    fleet.step(shards + pick % SITES, Event::Restart);
                }
                _ => {}
            }
        }
    }
}

/// A causal flush timer outlives the ack that drained its set: dead while
/// nothing is unacked, and still dead once the next write has started a
/// new generation with its own timer.
#[test]
fn a_flush_timer_dies_with_the_set_it_was_armed_for() {
    let writes_only = Workload::new(4, 0.8, 0.0, (Delta::ZERO, Delta::ZERO));
    let tcc = ProtocolKind::Tcc {
        delta: Delta::from_ticks(40),
    };
    let mut fleet = Fleet::new(tcc, 1, 3, writes_only);
    let client = fleet.shards; // site 0's node
    let write = |fleet: &mut Fleet| -> u64 {
        let out = fleet.step(
            client,
            Event::Timer {
                token: TIMER_NEXT_OP,
            },
        );
        let flush = out.iter().find_map(|e| match e {
            Effect::SetTimer { token, .. } if *token != TIMER_NEXT_OP => Some(*token),
            _ => None,
        });
        flush.expect("a write into an empty set arms a flush timer")
    };
    let first = write(&mut fleet);
    // The shard applies the write and its ack drains the set.
    for _ in 0..2 {
        let (from, to, msg) = fleet.wire.pop().expect("the write, then its ack");
        fleet.step(to.index(), Event::Message { from, msg });
    }
    assert!(fleet.wire.is_empty());
    assert!(!fleet.clients[0].timer_is_live(first));
    fleet.fire_client(0, first).unwrap();

    let second = write(&mut fleet);
    assert_ne!(second, first, "a new generation");
    assert!(fleet.clients[0].timer_is_live(second));
    assert!(!fleet.clients[0].timer_is_live(first));
    fleet.fire_client(0, first).unwrap();
    fleet.fire_client(0, second).unwrap();
}
