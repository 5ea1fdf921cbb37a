//! `tc-trace`: renders a simulator run as Chrome/Perfetto trace-event
//! JSON.
//!
//! A run of the deterministic simulator produces a [`History`] of reads
//! and writes, an on-time verdict with [`OnTimeViolation`]s, optionally a
//! [`DeltaSchedule`] the adaptive controller committed to, and — when
//! [`tc_lifetime::RunOptions::traced`] is set — a wire-level [`NetEvent`]
//! log. This crate folds those artifacts into the Trace Event Format that
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev) load
//! directly, so a run can be inspected as a timeline:
//!
//! - one *process* track per node (shards first, then clients, then the
//!   Δ-controller), named via metadata events;
//! - each operation as a complete (`ph:"X"`) slice on its client's track;
//! - each message as a send slice and a delivery slice joined by a flow
//!   arrow (`ph:"s"`/`ph:"f"`), paired FIFO per `(from, to, tag)` — the
//!   same order a FIFO link delivers them;
//! - timer fires as thread-scoped instants;
//! - the Δ-schedule as a counter track (`ph:"C"`) plus one global
//!   `delta_change` instant per revision;
//! - every on-time violation as a process-scoped `violation` instant on
//!   the late read's track.
//!
//! The exporter is pure presentation: it consumes the result structs the
//! engines already emit and never feeds anything back, so the sans-io
//! engines and the byte-level equivalence between drivers are untouched.
//!
//! Timestamps are microseconds (the format's unit); one simulated tick
//! maps to 1 µs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};

use serde_json::{json, Map, Value as Json};
use tc_clocks::{Delta, Time};
use tc_core::checker::OnTimeViolation;
use tc_core::{History, OpKind};
use tc_lifetime::control::DeltaSchedule;
use tc_lifetime::RunResult;
use tc_sim::NetEvent;

/// Builds a trace incrementally from a run's artifacts, then emits the
/// whole thing as one JSON object (`{"traceEvents": [...]}`).
pub struct TraceBuilder {
    events: Vec<Json>,
    /// FIFO flow-id queues keyed by `(from, to, tag)`: a `Send` enqueues a
    /// fresh id, the next matching `Recv` dequeues it — the pairing a
    /// FIFO link actually performs.
    flows: HashMap<(usize, usize, &'static str), VecDeque<u64>>,
    next_flow: u64,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    /// A builder mapping 1 simulated tick to 1 µs of trace time.
    #[must_use]
    pub fn new() -> Self {
        TraceBuilder {
            events: Vec::new(),
            flows: HashMap::new(),
            next_flow: 0,
        }
    }

    fn push(&mut self, event: Json) {
        self.events.push(event);
    }

    /// Names a node's track (emitted as a `process_name` metadata event)
    /// and pins its vertical position to `pid` so shards sort above
    /// clients regardless of event order.
    pub fn name_track(&mut self, pid: usize, name: &str) {
        self.push(json!({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0_u64,
            "args": {"name": name}
        }));
        self.push(json!({
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": 0_u64,
            "args": {"sort_index": pid}
        }));
    }

    /// Standard track naming for this workspace's node layout: shards
    /// `0..shards`, then `clients` client nodes, then the Δ-controller's
    /// synthetic node.
    pub fn name_fleet(&mut self, shards: usize, clients: usize) {
        for s in 0..shards {
            self.name_track(s, &format!("shard {s}"));
        }
        for c in 0..clients {
            self.name_track(shards + c, &format!("client {c}"));
        }
        self.name_track(shards + clients, "Δ controller");
    }

    /// Adds every operation of `history` as a 1-µs complete slice on its
    /// site's track. History sites are client indices; `client_pid_base`
    /// (the shard count, in the standard layout) offsets them onto the
    /// clients' pids.
    pub fn add_history(&mut self, history: &History, client_pid_base: usize) {
        for op in history.iter() {
            let kind = match op.kind() {
                OpKind::Read => "R",
                OpKind::Write => "W",
            };
            let name = format!("{kind} {}={}", op.object(), op.value());
            let ts = micros(op.time());
            let pid = client_pid_base + op.site().index();
            let op_index = op.id().index();
            self.push(json!({
                "name": name,
                "cat": "op",
                "ph": "X",
                "ts": ts,
                "dur": 1.0,
                "pid": pid,
                "tid": 0_u64,
                "args": {"op": op_index, "kind": kind}
            }));
        }
    }

    /// Adds one `violation` instant per on-time violation, on the late
    /// read's track at the read's execution time.
    pub fn add_violations(
        &mut self,
        violations: &[OnTimeViolation],
        history: &History,
        client_pid_base: usize,
    ) {
        for v in violations {
            let ts = micros(history.time_of(v.read));
            let pid = client_pid_base + history.site_of(v.read).index();
            let read = v.read.index();
            let missed = v.missed.len();
            let min_delta = delta_json(v.min_delta);
            self.push(json!({
                "name": "violation",
                "cat": "oracle",
                "ph": "i",
                "s": "p",
                "ts": ts,
                "pid": pid,
                "tid": 0_u64,
                "args": {"read": read, "missed": missed, "min_delta": min_delta}
            }));
        }
    }

    /// Adds the Δ-schedule: a counter track sampling Δ at the start and
    /// at each revision, plus one global `delta_change` instant marker per
    /// revision. `controller_pid` hosts the counter (the controller's
    /// node in the standard layout).
    pub fn add_schedule(&mut self, schedule: &DeltaSchedule, controller_pid: usize) {
        let mut samples = vec![(Time::ZERO, schedule.initial)];
        samples.extend(schedule.changes.iter().copied());
        for (at, delta) in samples {
            let ts = micros(at);
            let ticks = delta_json(delta);
            self.push(json!({
                "name": "delta",
                "cat": "control",
                "ph": "C",
                "ts": ts,
                "pid": controller_pid,
                "args": {"ticks": ticks}
            }));
        }
        for &(at, delta) in &schedule.changes {
            let ts = micros(at);
            let ticks = delta_json(delta);
            self.push(json!({
                "name": "delta_change",
                "cat": "control",
                "ph": "i",
                "s": "g",
                "ts": ts,
                "pid": controller_pid,
                "tid": 0_u64,
                "args": {"ticks": ticks}
            }));
        }
    }

    /// Adds the wire-level event log: sends and deliveries as 1-µs slices
    /// joined by flow arrows, timer fires as thread-scoped instants.
    pub fn add_net(&mut self, events: &[NetEvent]) {
        for event in events {
            match *event {
                NetEvent::Send { at, from, to, tag } => {
                    let id = self.next_flow;
                    self.next_flow += 1;
                    self.flows.entry((from, to, tag)).or_default().push_back(id);
                    let ts = micros(at);
                    self.push(json!({
                        "name": tag,
                        "cat": "net",
                        "ph": "X",
                        "ts": ts,
                        "dur": 1.0,
                        "pid": from,
                        "tid": 0_u64,
                        "args": {"to": to}
                    }));
                    self.push(json!({
                        "name": tag,
                        "cat": "net",
                        "ph": "s",
                        "id": id,
                        "ts": ts,
                        "pid": from,
                        "tid": 0_u64
                    }));
                }
                NetEvent::Recv { at, from, to, tag } => {
                    let ts = micros(at);
                    self.push(json!({
                        "name": tag,
                        "cat": "net",
                        "ph": "X",
                        "ts": ts,
                        "dur": 1.0,
                        "pid": to,
                        "tid": 0_u64,
                        "args": {"from": from}
                    }));
                    // An unmatched delivery (its send predates capture)
                    // simply has no arrow.
                    let flow = self
                        .flows
                        .get_mut(&(from, to, tag))
                        .and_then(VecDeque::pop_front);
                    if let Some(id) = flow {
                        self.push(json!({
                            "name": tag,
                            "cat": "net",
                            "ph": "f",
                            "bp": "e",
                            "id": id,
                            "ts": ts,
                            "pid": to,
                            "tid": 0_u64
                        }));
                    }
                }
                NetEvent::Timer { at, node, token } => {
                    let ts = micros(at);
                    self.push(json!({
                        "name": "timer",
                        "cat": "timer",
                        "ph": "i",
                        "s": "t",
                        "ts": ts,
                        "pid": node,
                        "tid": 0_u64,
                        "args": {"token": token}
                    }));
                }
            }
        }
    }

    /// The assembled trace: a JSON object Perfetto and `chrome://tracing`
    /// load as-is.
    #[must_use]
    pub fn finish(self) -> Json {
        let mut root = Map::new();
        root.insert("traceEvents".to_string(), Json::Array(self.events));
        root.insert("displayTimeUnit".to_string(), Json::from("ms"));
        Json::Object(root)
    }

    /// [`TraceBuilder::finish`] rendered as a compact JSON string.
    #[must_use]
    pub fn finish_to_string(self) -> String {
        serde_json::to_string(&self.finish()).expect("trace JSON emission cannot fail")
    }
}

/// A trace timestamp: one tick is one microsecond.
fn micros(t: Time) -> f64 {
    t.ticks() as f64
}

/// Δ as a JSON value: ticks, or `null` for the unbounded Δ (JSON has no
/// infinity).
fn delta_json(delta: Delta) -> Json {
    if delta.is_infinite() {
        Json::Null
    } else {
        Json::from(delta.ticks())
    }
}

/// Renders a simulator [`RunResult`] (ideally of a run with
/// [`tc_lifetime::RunOptions::traced`] set, so the net log is populated)
/// as a complete trace. `shards` and
/// `clients` describe the run's fleet layout — nodes `0..shards` are
/// shards, the next `clients` nodes are clients (history sites offset by
/// `shards`).
#[must_use]
pub fn export_run(result: &RunResult, shards: usize, clients: usize) -> Json {
    let mut b = TraceBuilder::new();
    b.name_fleet(shards, clients);
    b.add_history(&result.history, shards);
    b.add_violations(result.on_time.violations(), &result.history, shards);
    if let Some(schedule) = &result.delta_schedule {
        b.add_schedule(schedule, shards + clients);
    }
    if let Some(net) = &result.net_events {
        b.add_net(net);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::{HistoryBuilder, ObjectId};

    fn tiny_history() -> History {
        let mut b = HistoryBuilder::new();
        b.write(0, ObjectId::new(0), 7_u64, 5);
        b.read(1, ObjectId::new(0), 7_u64, 9);
        b.build().unwrap()
    }

    #[test]
    fn history_ops_become_complete_slices_on_offset_pids() {
        let mut b = TraceBuilder::new();
        b.add_history(&tiny_history(), 2);
        let out = b.finish_to_string();
        assert!(out.contains(r#""ph":"X""#));
        assert!(out.contains(r#""name":"W A=7""#));
        assert!(out.contains(r#""name":"R A=7""#));
        // Site 0 lands on pid 2, site 1 on pid 3.
        assert!(out.contains(r#""pid":2"#));
        assert!(out.contains(r#""pid":3"#));
        assert!(out.contains(r#""ts":5.0"#));
    }

    #[test]
    fn schedule_emits_counter_samples_and_change_markers() {
        let mut schedule = DeltaSchedule::fixed(Delta::from_ticks(400));
        schedule.push(Time::from_ticks(100), Delta::from_ticks(120));
        schedule.push(Time::from_ticks(300), Delta::from_ticks(90));
        let mut b = TraceBuilder::new();
        b.add_schedule(&schedule, 9);
        let out = b.finish_to_string();
        assert_eq!(
            out.matches(r#""ph":"C""#).count(),
            3,
            "initial + 2 revisions"
        );
        assert_eq!(out.matches(r#""name":"delta_change""#).count(), 2);
        assert!(out.contains(r#""ticks":120"#));
        assert!(out.contains(r#""ticks":90"#));
    }

    #[test]
    fn net_flows_pair_fifo_per_link_and_tag() {
        let events = vec![
            NetEvent::Send {
                at: Time::from_ticks(1),
                from: 2,
                to: 0,
                tag: "write_req",
            },
            NetEvent::Send {
                at: Time::from_ticks(2),
                from: 2,
                to: 0,
                tag: "write_req",
            },
            NetEvent::Recv {
                at: Time::from_ticks(4),
                from: 2,
                to: 0,
                tag: "write_req",
            },
            NetEvent::Timer {
                at: Time::from_ticks(6),
                node: 2,
                token: 0xAD,
            },
        ];
        let mut b = TraceBuilder::new();
        b.add_net(&events);
        let out = b.finish_to_string();
        // Two starts queued, one finish consumed — and it consumed the
        // FIRST send's id (FIFO), which is id 0.
        assert_eq!(out.matches(r#""ph":"s""#).count(), 2);
        assert_eq!(out.matches(r#""ph":"f""#).count(), 1);
        assert!(out.contains(r#""bp":"e","cat":"net","id":0"#));
        assert!(out.contains(r#""name":"timer""#));
    }

    #[test]
    fn export_run_produces_a_loadable_document_with_all_track_kinds() {
        use tc_lifetime::{
            run_with, ControllerConfig, ProtocolConfig, ProtocolKind, RunConfig, RunOptions,
        };
        use tc_sim::workload::Workload;
        use tc_sim::WorldConfig;

        let cfg = RunConfig {
            protocol: ProtocolConfig::of(ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            }),
            n_clients: 2,
            workload: Workload::interactive(),
            ops_per_client: 30,
            world: WorldConfig::deterministic(Delta::from_ticks(2), 7),
        };
        let ctrl = ControllerConfig::new(
            Delta::from_ticks(10),
            Delta::from_ticks(800),
            Delta::from_ticks(40),
        );
        let result = run_with(
            &cfg,
            RunOptions {
                adaptive: Some(ctrl),
                traced: true,
                ..RunOptions::default()
            },
        );
        let shards = cfg.protocol.shards;
        let out = serde_json::to_string(&export_run(&result, shards, cfg.n_clients)).unwrap();

        assert!(out.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#));
        // Required keys for any consumer.
        assert!(out.contains(r#""ph":"#));
        assert!(out.contains(r#""ts":"#));
        assert!(out.contains(r#""pid":"#));
        // All track kinds made it in: ops, net flows, timers, metadata,
        // and the Δ-schedule the adaptive run committed to.
        assert!(out.contains(r#""cat":"op""#));
        assert!(out.contains(r#""ph":"s""#), "send flows missing");
        assert!(out.contains(r#""ph":"f""#), "recv flows missing");
        assert!(out.contains(r#""name":"process_name""#));
        assert!(
            out.contains(r#""name":"delta_change""#),
            "adaptive run must mark Δ revisions"
        );
        assert!(out.contains(r#""name":"timer""#));
    }
}
