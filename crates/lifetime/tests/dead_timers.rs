//! A timer `ClientEngine::timer_is_live` (or a shard's
//! `ServerEngine::timer_is_live`) calls dead must be one whose firing the
//! engine cannot observe: drivers drop such timers without a step, so
//! handling one has to emit nothing and complete nothing.
//!
//! Clients and shards run in-process under a random schedule that
//! delivers, drops and duplicates messages, fires armed timers in any
//! order (most retry timers die because their reply came first), fires
//! tokens nobody armed at clients and shards, and crash-restarts clients.

use proptest::collection;
use proptest::prelude::*;
use tc_clocks::{Delta, Time};
use tc_lifetime::engine::{Effect, Event, PrivateSources, TIMER_NEXT_OP, TIMER_RESEND};
use tc_lifetime::node::{ClientCore, Host, ShardCore, SimClock};
use tc_lifetime::{ClientEngine, Msg, ProtocolConfig, ProtocolKind, ServerEngine};
use tc_sim::workload::Workload;
use tc_sim::{FaultPlan, NodeId};

const SITES: usize = 2;

/// A client token no engine arms: the retired region-migration attach
/// retransmit.
const FORMER_ATTACH: u64 = u64::MAX - 1;

/// The base of a shard token range no engine arms: the retired
/// cross-region egress flush deadlines, one per peer region.
const FORMER_FLUSH_BASE: u64 = 1 << 60;

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
                .map(|&me| {
                    ShardCore::new(ServerEngine::new(config), SimClock, me, &FaultPlan::none())
                })
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
        schedule in collection::vec((0u8..13, 0usize..1_000), 1..400),
    ) {
        let delta = Delta::from_ticks(40);
        let kind = [
            ProtocolKind::sc(),
            ProtocolKind::Tsc { delta },
            ProtocolKind::cc(),
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
                        // A shard's dead ack deadline must do nothing.
                        let live = fleet.servers[node].timer_is_live(token);
                        let out = fleet.step(node, Event::Timer { token });
                        prop_assert!(live || out.is_empty(), "dead token {} emitted {:?}", token, out);
                    } else {
                        fleet.fire_client(node - shards, token)?;
                    }
                }
                // Fire a token nobody armed (or not any more): among them
                // resend deadlines no send window waits for.
                9 | 10 => {
                    let nth = (pick / 4) as u64;
                    let resend = TIMER_RESEND + 500 + nth;
                    let token = [TIMER_NEXT_OP, resend, FORMER_ATTACH, nth % 40][pick % 4];
                    fleet.fire_client(pick % SITES, token)?;
                }
                // A token no shard arms is dead, and firing it does nothing.
                12 => {
                    let token = FORMER_FLUSH_BASE + (pick / 4) as u64;
                    let node = pick % shards;
                    prop_assert!(!fleet.servers[node].timer_is_live(token));
                    let out = fleet.step(node, Event::Timer { token });
                    prop_assert!(out.is_empty(), "dead token {} emitted {:?}", token, out);
                }
                11 => {
                    fleet.step(shards + pick % SITES, Event::Restart);
                }
                _ => {}
            }
        }
    }
}
