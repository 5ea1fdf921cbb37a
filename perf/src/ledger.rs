//! The ledger loop: a single-threaded, virtual-clock driver owned by the
//! benchmark, which puts a span around every call into a layer.
//!
//! It runs the same `ProtocolConfig`, `Workload` and seed as the real
//! driver: events go to the public engines with `PrivateSources` inputs
//! and a 3-tick one-way delay (as `WorldConfig::deterministic`), and each
//! `Effect` is executed through the real layer —
//!
//! * `Send` → `encode_frame_into`, a byte pipe, then
//!   `FrameDecoder::extend`/`next_frame` on delivery;
//! * `Record` → `TraceRecorder`, then `OnTimeMonitor` (kept apart here so
//!   each has its own span; the drivers attach one to the other);
//! * `Metric` → `Metrics::add` (one span per event for all its counters);
//! * store calls through [`SpannedStore`], handed to
//!   `ServerEngine::with_store`.
//!
//! No thread, socket or real timer is involved, so with spans off its
//! counts repeat exactly for a seed, and with spans on the self times of
//! the layers add up to the loop's cost.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use tc_clocks::Time;
use tc_core::checker::{OnTimeMonitor, TimedReport};
use tc_core::{History, ObjectId, OpId, Value};
use tc_lifetime::engine::{Effect, Event, Now, PrivateSources, RecordOp};
use tc_lifetime::store::{Recovery, ShardStore, StoredVersion, WalRecord};
use tc_lifetime::{ClientEngine, ServerEngine};
use tc_sim::{Metrics, MetricsSnapshot, NodeId, TraceRecorder};
use tc_store::RuntimeConfig;
use tc_wire::{encode_frame_into, FrameDecoder, WireMsg};

use crate::host;
use crate::span::{self, Layer, Trace};
use crate::workloads::VIRTUAL_LATENCY;

/// Operations whose raw spans go to the Chrome-trace file.
const RAW_OPS: usize = 2_000;

/// A [`ShardStore`] that delegates, with a span around the three calls
/// that do the storing: append, read, sync.
pub struct SpannedStore(pub Box<dyn ShardStore>);

impl ShardStore for SpannedStore {
    fn durable_version(&self, object: ObjectId) -> StoredVersion {
        span::span(Layer::StoreRead, || self.0.durable_version(object))
    }
    fn last_alpha(&self) -> Time {
        self.0.last_alpha()
    }
    fn physical_alpha(&self, value: Value) -> Option<Time> {
        self.0.physical_alpha(value)
    }
    fn causal_cursor(&self, writer: usize) -> u64 {
        self.0.causal_cursor(writer)
    }
    fn apply(&mut self, record: &WalRecord) -> bool {
        span::span(Layer::StoreApply, || self.0.apply(record))
    }
    fn pending(&self) -> usize {
        self.0.pending()
    }
    fn sync(&mut self) {
        span::span(Layer::StoreSync, || self.0.sync());
    }
    fn restart(&mut self) -> Recovery {
        self.0.restart()
    }
    fn writes_applied(&self) -> u64 {
        self.0.writes_applied()
    }
    fn records(&self) -> u64 {
        self.0.records()
    }
}

/// Work counted at the layer boundaries. Exact for a seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub events: u64,
    pub client_events: u64,
    pub server_events: u64,
    /// Protocol messages (`Effect::Send`), one tc-wire frame each.
    pub msgs: u64,
    pub wire_bytes: u64,
    pub metric_calls: u64,
}

pub struct Ledger {
    pub counts: Counts,
    /// Time in the event loop, engines and stores included, set-up not.
    pub wall: Duration,
    /// Processor time of the same interval; the rest of `wall` the loop
    /// spent blocked (in the store's fsync, the only call that blocks).
    pub cpu_s: f64,
    pub history: History,
    pub report: TimedReport,
    pub late_writes: u64,
    pub metrics: MetricsSnapshot,
    pub trace: Option<Trace>,
}

enum What {
    Start,
    Timer(u64),
    /// `len` bytes of the `from → node` pipe have arrived.
    Deliver {
        from: usize,
        len: usize,
    },
}

struct Pending {
    at: u64,
    seq: u64,
    node: usize,
    /// The operation this event works for ([`span::NONE`]: none).
    op: u32,
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
    /// Earliest first out of the max-heap; arming order breaks ties.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// One direction of one connection: bytes in flight and the receiver's
/// incremental decoder.
#[derive(Default)]
struct Link {
    pipe: Vec<u8>,
    read: usize,
    decoder: FrameDecoder,
}

/// Runs `config`'s fleet over `store` to completion in virtual time.
///
/// # Panics
///
/// Panics if the fleet does not finish within a generous event budget or
/// a frame fails to decode — a bug in a layer, which is what the loop is
/// there to surface.
pub fn run(config: &RuntimeConfig, store: Box<dyn ShardStore>, traced: bool) -> Ledger {
    let shards = config.protocol.shards;
    assert_eq!(shards, 1, "every workload runs one shard");
    let sites = config.n_clients;
    let nodes = shards + sites;
    let ops_per_site = config.ops_per_client;

    let mut server = ServerEngine::with_store(config.protocol, Box::new(SpannedStore(store)));
    let mut clients: Vec<(ClientEngine, PrivateSources)> = (0..sites)
        .map(|site| {
            (
                ClientEngine::new(
                    config.protocol,
                    vec![NodeId::new(0)],
                    site,
                    sites,
                    config.workload.clone(),
                    ops_per_site,
                ),
                PrivateSources::new(config.seed, site, sites),
            )
        })
        .collect();
    let mut links: Vec<Link> = (0..nodes * nodes).map(|_| Link::default()).collect();
    let mut recorder = TraceRecorder::new();
    let mut monitor = OnTimeMonitor::new(config.monitor_delta, config.monitor_eps);
    // Per-site last recorded time: `TraceRecorder` nudges a site's times
    // strictly forward, and the monitor must see the nudged ones.
    let mut last_time = vec![0u64; sites];
    let mut metrics = Metrics::new();
    let mut counts = Counts::default();

    let mut queue = BinaryHeap::new();
    let mut seq = 0u64;
    for node in 0..nodes {
        seq += 1;
        queue.push(Pending {
            at: 0,
            seq,
            node,
            op: span::NONE,
            what: What::Start,
        });
    }
    let mut out: Vec<Effect> = Vec::new();
    let mut frame: Vec<u8> = Vec::new();
    let budget = (sites * ops_per_site) as u64 * 200 + 10_000;

    if traced {
        span::start();
    }
    let cpu_before = host::usage().cpu_s();
    let started = Instant::now();
    // One `Layer::Loop` span per event, taking the event off the queue
    // included: with thousands of stale retry timers pending, the pop is a
    // good part of what the loop itself costs.
    while span::dispatch(|| {
        let Some(p) = queue.pop() else {
            return false;
        };
        counts.events += 1;
        assert!(counts.events <= budget, "the fleet did not quiesce");
        let site = p.node.checked_sub(shards);
        let op = match site {
            Some(site) => {
                let done = clients[site].0.ops_done().min(ops_per_site - 1);
                (site * ops_per_site + done) as u32
            }
            None => p.op,
        };
        span::set_op(op);
        let event = match p.what {
            What::Start => Event::Start,
            What::Timer(token) => Event::Timer { token },
            What::Deliver { from, len } => {
                let link = &mut links[from * nodes + p.node];
                let decoded = span::span(Layer::Decode, || {
                    link.decoder.extend(&link.pipe[link.read..link.read + len]);
                    link.decoder.next_frame()
                });
                link.read += len;
                if link.read == link.pipe.len() {
                    link.pipe.clear();
                    link.read = 0;
                }
                match decoded {
                    Ok(Some((_, WireMsg::Proto(msg)))) => Event::Message {
                        from: NodeId::new(from),
                        msg,
                    },
                    other => panic!("a whole protocol frame was delivered, got {other:?}"),
                }
            }
        };
        let t = Time::from_ticks(p.at);
        let now = Event::Now(Now {
            me: NodeId::new(p.node),
            local: t,
            truth: t,
        });
        out.clear();
        match site {
            None => {
                counts.server_events += 1;
                span::span(Layer::Server, || {
                    server.handle(now, &mut out);
                    server.handle(event, &mut out);
                });
            }
            Some(site) => {
                counts.client_events += 1;
                let (engine, sources) = &mut clients[site];
                span::span(Layer::Client, || {
                    engine.handle(now, sources, &mut out);
                    engine.handle(event, sources, &mut out);
                });
            }
        }
        // One span for all the counters an event bumps: a single
        // `Metrics::add` is cheaper than the span that would time it.
        // (The bag is independent of everything else an effect touches,
        // so adding first keeps every other effect in emission order.)
        let bumps = out
            .iter()
            .filter(|e| matches!(e, Effect::Metric { .. }))
            .count();
        if bumps > 0 {
            counts.metric_calls += bumps as u64;
            span::span(Layer::Metrics, || {
                for effect in &out {
                    if let Effect::Metric { name, add } = effect {
                        metrics.add(name, *add);
                    }
                }
            });
        }
        for effect in out.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    let wire = WireMsg::Proto(msg);
                    frame.clear();
                    span::span(Layer::Encode, || encode_frame_into(&mut frame, 0, &wire));
                    counts.msgs += 1;
                    counts.wire_bytes += frame.len() as u64;
                    links[p.node * nodes + to.index()]
                        .pipe
                        .extend_from_slice(&frame);
                    seq += 1;
                    queue.push(Pending {
                        at: p.at + VIRTUAL_LATENCY.ticks(),
                        seq,
                        node: to.index(),
                        op,
                        what: What::Deliver {
                            from: p.node,
                            len: frame.len(),
                        },
                    });
                }
                Effect::SetTimer { after, token } => {
                    // An infinite delay means "never"; a zero delay
                    // still yields to the queue (as in `tc_sim::World`).
                    if !after.is_infinite() {
                        seq += 1;
                        queue.push(Pending {
                            at: p.at + after.ticks().max(1),
                            seq,
                            node: p.node,
                            op,
                            what: What::Timer(token),
                        });
                    }
                }
                Effect::Metric { .. } => {} // added above
                Effect::Record(record) => {
                    let id = OpId::new(counts.ops as usize);
                    counts.ops += 1;
                    let (is_write, site, object, value, at, logical) = match record {
                        RecordOp::Write {
                            site,
                            object,
                            value,
                            at,
                            logical,
                        } => (true, site, object, value, at, logical),
                        RecordOp::Read {
                            site,
                            object,
                            value,
                            at,
                            logical,
                        } => (false, site, object, value, at, logical),
                    };
                    span::span(Layer::Recorder, || match (is_write, logical) {
                        (true, Some(l)) => {
                            recorder.record_write_stamped(site, object, value, at, l);
                        }
                        (true, None) => recorder.record_write(site, object, value, at),
                        (false, Some(l)) => {
                            recorder.record_read_stamped(site, object, value, at, l);
                        }
                        (false, None) => recorder.record_read(site, object, value, at),
                    });
                    let last = &mut last_time[site.index()];
                    *last = at.ticks().max(*last + 1);
                    let nudged = Time::from_ticks(*last);
                    span::span(Layer::Monitor, || {
                        if is_write {
                            monitor.ingest_write(id, object, value, nudged);
                        } else {
                            monitor.ingest_read(id, object, value, nudged);
                        }
                    });
                    if counts.ops as usize == RAW_OPS {
                        span::stop_raw();
                    }
                }
            }
        }
        true
    }) {}
    let wall = started.elapsed();
    let cpu_s = host::usage().cpu_s() - cpu_before;
    let trace = traced.then(span::finish);

    assert!(
        clients.iter().all(|(c, _)| c.finished() && c.is_idle()),
        "the queue drained with clients unfinished"
    );
    let late_writes = monitor.late_writes();
    Ledger {
        counts,
        wall,
        cpu_s,
        history: recorder
            .finish()
            .expect("the engines produced an invalid trace"),
        report: monitor.into_report(),
        late_writes,
        metrics: metrics.snapshot(),
        trace,
    }
}
