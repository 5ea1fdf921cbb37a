//! The client engine's allocation budget per operation, counted by the
//! benchmark crate's counting global allocator: what one site-op costs the
//! thread that hosts every client is mostly what it allocates.
//!
//! The fleet runs in-process in virtual time — clients and one shard, the
//! shapes of the benchmark's `tcc-mixed` and `sat-mixed` workloads (32
//! sites, 64 objects, 70 % reads, no think time, Δ = 400), messages handed
//! over as values after 3 ticks — and only allocations made inside
//! `ClientEngine::handle` are counted. Vector stamps are shared, not
//! copied, so a causal op allocates about once (a write's tick, a miss's
//! context join) and a physical op almost never.
//!
//! The test binary holds this one test, so nothing else allocates while
//! it counts.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tc_bench::alloc;
use tc_clocks::{Delta, Time};
use tc_lifetime::engine::{Effect, Event, Now, PrivateSources};
use tc_lifetime::{ClientEngine, Msg, ProtocolConfig, ProtocolKind, ServerEngine};
use tc_sim::workload::Workload;
use tc_sim::NodeId;

const SITES: usize = 32;
const LATENCY: u64 = 3;

enum What {
    Start,
    Timer(u64),
    Deliver(NodeId, Msg),
}

struct Pending {
    at: u64,
    seq: u64,
    node: usize,
    what: What,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    /// Earliest first out of the max-heap; scheduling order breaks ties.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Runs one shard and [`SITES`] clients of `kind` for `ops` operations
/// each, returning the allocations made inside client steps per completed
/// operation.
fn client_allocs_per_op(kind: ProtocolKind, ops: usize) -> f64 {
    let config = ProtocolConfig::of(kind);
    let workload = Workload::new(64, 0.8, 0.7, (Delta::ZERO, Delta::ZERO));
    let mut server = ServerEngine::new(config);
    let mut clients: Vec<(ClientEngine, PrivateSources)> = (0..SITES)
        .map(|site| {
            let engine = ClientEngine::new(
                config,
                vec![NodeId::new(0)],
                site,
                SITES,
                workload.clone(),
                ops,
            );
            (engine, PrivateSources::new(23, site, SITES))
        })
        .collect();
    let mut queue = BinaryHeap::new();
    let mut seq = 0;
    for node in 0..=SITES {
        seq += 1;
        queue.push(Pending {
            at: 0,
            seq,
            node,
            what: What::Start,
        });
    }
    let (mut out, mut allocs, mut done) = (Vec::with_capacity(64), 0, 0);
    while let Some(p) = queue.pop() {
        let event = match p.what {
            What::Start => Event::Start,
            What::Timer(token) => Event::Timer { token },
            What::Deliver(from, msg) => Event::Message { from, msg },
        };
        let t = Time::from_ticks(p.at);
        let now = Event::Now(Now {
            me: NodeId::new(p.node),
            local: t,
            truth: t,
        });
        if p.node == 0 {
            server.handle(now, &mut out);
            server.handle(event, &mut out);
        } else {
            let (engine, sources) = &mut clients[p.node - 1];
            let before = alloc::snapshot();
            engine.handle(now, sources, &mut out);
            engine.handle(event, sources, &mut out);
            allocs += alloc::since(before).allocs;
        }
        for effect in out.drain(..) {
            seq += 1;
            let (at, node, what) = match effect {
                Effect::Send { to, msg } => (
                    p.at + LATENCY,
                    to.index(),
                    What::Deliver(NodeId::new(p.node), msg),
                ),
                Effect::SetTimer { after, token } if !after.is_infinite() => {
                    (p.at + after.ticks().max(1), p.node, What::Timer(token))
                }
                Effect::Record(_) => {
                    done += 1;
                    continue;
                }
                _ => continue,
            };
            queue.push(Pending {
                at,
                seq,
                node,
                what,
            });
        }
    }
    assert_eq!(done, SITES * ops, "every operation completes");
    allocs as f64 / done as f64
}

#[test]
fn a_site_op_stays_within_its_allocation_budget() {
    assert!(alloc::enabled(), "the counting allocator must be installed");
    let delta = Delta::from_ticks(400);
    let tcc = client_allocs_per_op(ProtocolKind::Tcc { delta }, 500);
    let tsc = client_allocs_per_op(ProtocolKind::Tsc { delta }, 1_000);
    assert!(
        tcc <= 1.0,
        "TCC: {tcc:.3} allocations per op (a copied stamp or a growing index costs one each)"
    );
    assert!(tsc <= 0.1, "TSC: {tsc:.3} allocations per op");
}
