//! Counters shared by every simulated protocol and experiment binary.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// The canonical metric vocabulary shared by the simulator kernel, the
/// `tc-lifetime` protocol engines, and the experiment binaries.
///
/// Protocol and experiment code must name counters through these constants
/// rather than free-form string literals, so a typo'd counter name is a
/// compile error instead of a silently-zero column in an experiment table.
pub mod names {
    /// A message handed to the network by [`crate::Context::send`].
    pub const MESSAGE: &str = "message";
    /// A message dropped by the network model's loss probability.
    pub const DROPPED: &str = "dropped";
    /// A message killed by a fault-plan rule (drop/partition).
    pub const FAULT_DROPPED: &str = "fault_dropped";
    /// A message addressed to a crashed (down) node.
    pub const FAULT_DROPPED_DOWN: &str = "fault_dropped_down";
    /// A message delayed by a fault-plan reorder rule.
    pub const FAULT_JITTERED: &str = "fault_jittered";
    /// A message duplicated by a fault-plan rule.
    pub const FAULT_DUPLICATED: &str = "fault_duplicated";
    /// A node crash event.
    pub const CRASH: &str = "crash";
    /// A node restart event.
    pub const RESTART: &str = "restart";

    /// Client read that fetched from the server (miss or no-cache).
    pub const FETCH: &str = "fetch";
    /// Client read that revalidated a marked-old entry.
    pub const VALIDATE: &str = "validate";
    /// Client read served from a live cache entry.
    pub const CACHE_HIT: &str = "cache_hit";
    /// Client read that found no cache entry.
    pub const CACHE_MISS: &str = "cache_miss";
    /// Cache entry invalidated by a sweep or push.
    pub const INVALIDATE: &str = "invalidate";
    /// Cache entry newly marked old by a sweep or push.
    pub const MARK_OLD: &str = "mark_old";
    /// Reply discarded because its epoch is no longer current.
    pub const STALE_REPLY: &str = "stale_reply";
    /// Request retransmitted after its retry timer fired.
    pub const RETRY: &str = "retry";
    /// Unacked causal write retransmitted.
    pub const CAUSAL_RETRANSMIT: &str = "causal_retransmit";
    /// Fetched version lost LWW arbitration to the site's own write.
    pub const OWN_WRITE_PRESERVED: &str = "own_write_preserved";
    /// Push invalidation received by a client.
    pub const PUSH_RECEIVED: &str = "push_received";
    /// Client crash-restart recovery.
    pub const CLIENT_RESTART: &str = "client_restart";

    /// Server-side fetch served.
    pub const SERVER_FETCH: &str = "server_fetch";
    /// Server-side validation served.
    pub const SERVER_VALIDATE: &str = "server_validate";
    /// Server-side write received.
    pub const SERVER_WRITE: &str = "server_write";
    /// Causal write ignored because of a per-writer delivery gap.
    pub const SERVER_WRITE_GAP: &str = "server_write_gap";
    /// Duplicate write answered without re-applying.
    pub const SERVER_WRITE_DUP: &str = "server_write_dup";
    /// Push invalidation sent by the server.
    pub const PUSH: &str = "push";
    /// Coalesced invalidation batch flushed by the server (deadline or
    /// fullness); each batch carries one or more `PUSH` entries.
    pub const PUSH_BATCH: &str = "push_batch";
    /// Causal write held back by the client's cross-shard write barrier.
    pub const CAUSAL_DEFERRED: &str = "causal_deferred";
    /// Server crash-restart recovery.
    pub const SERVER_RESTART: &str = "server_restart";

    /// Durable shard store: record appended to the write-ahead log.
    pub const WAL_APPEND: &str = "wal_append";
    /// Durable shard store: pending WAL tail fsynced (per-write, group
    /// fullness, or deadline — the fsync policy decides which).
    pub const WAL_FSYNC: &str = "wal_fsync";
    /// Durable shard store: records restored at restart (snapshot +
    /// segment replay).
    pub const WAL_REPLAYED: &str = "wal_replayed";
    /// Durable shard store: appended-but-unsynced records dropped by a
    /// crash (the replay gap; the covered writes were never acked).
    pub const WAL_LOST: &str = "wal_lost";

    /// TCP transport: the first `HelloAck` a shard sent — one per shard
    /// link, whatever the sites it carries.
    pub const TCP_CONNECT: &str = "tcp_connect";
    /// TCP transport: any later `HelloAck`: a shard link re-admitted after
    /// a drop (backoff path).
    pub const TCP_RECONNECT: &str = "tcp_reconnect";
    /// TCP transport: failed connect/handshake attempt (refused, reset,
    /// timed out) that the backoff schedule absorbed.
    pub const TCP_CONNECT_FAILED: &str = "tcp_connect_failed";
    /// TCP transport: protocol frame dropped because no link to its
    /// destination was up at send time (the engines' retry timers recover
    /// it). A frame queued on a link that then dies before or during the
    /// loop pass's flush is not counted here: it is lost like any frame
    /// in flight, and recovered the same way.
    pub const TCP_SEND_DROPPED: &str = "tcp_send_dropped";
    /// TCP transport: keep-alive frame written by an idle connection.
    pub const TCP_HEARTBEAT: &str = "tcp_heartbeat";
    /// TCP transport: a chaos-killed shard listener came back up.
    pub const TCP_LISTENER_RESTART: &str = "tcp_listener_restart";

    /// Reactor driver: a shard accepted a connection (registered its fd).
    pub const REACTOR_CONN_OPENED: &str = "reactor_conn_opened";
    /// Reactor driver: a shard closed a connection (deregistered its fd).
    /// Equals [`REACTOR_CONN_OPENED`] at the end of a leak-free run.
    pub const REACTOR_CONN_CLOSED: &str = "reactor_conn_closed";
    /// Reactor driver: a churn dial (connect that never intends to speak
    /// the protocol) reached a shard listener.
    pub const REACTOR_CHURN_DIAL: &str = "reactor_churn_dial";
    /// Reactor driver: `write` calls the reactor threads issued.
    pub const REACTOR_WRITES: &str = "reactor_writes";
    /// Reactor driver: frames the reactor threads queued for writing.
    /// `REACTOR_FRAMES_OUT / REACTOR_WRITES` is the frames one `write`
    /// carried on average — the batching the per-pass flush achieved.
    pub const REACTOR_FRAMES_OUT: &str = "reactor_frames_out";
    /// Reactor driver: waits a reactor thread ended by polling, without
    /// sleeping, because its links had moved bytes within the poll window.
    pub const REACTOR_POLLS: &str = "reactor_polls";
    /// Reactor driver: waits a reactor thread slept in the kernel, its
    /// links quiet for longer than the poll window. Near zero per
    /// operation under load; every wait of an idle fleet.
    pub const REACTOR_SLEEPS: &str = "reactor_sleeps";

    /// Real-time drivers: timers popped off a driver thread's wheel.
    pub const TIMER_FIRED: &str = "timer_fired";
    /// Real-time drivers: summed lateness of those timers — the instant
    /// the driver thread noticed a timer due minus the timer's deadline,
    /// in nanoseconds. `TIMER_LATE_NS / TIMER_FIRED` is the mean wake-up
    /// lateness a run suffered (timer slack, scheduling, a busy thread).
    pub const TIMER_LATE_NS: &str = "timer_late_ns";

    /// Reads the streaming monitor flagged as Δ-violating, set once at the
    /// end of a run by the simulator harness and every real driver alike.
    pub const ON_TIME_VIOLATIONS: &str = "on_time_violations";
    /// Writes the streaming monitor ingested behind a judged read.
    pub const MONITOR_LATE_WRITES: &str = "monitor_late_writes";

    /// Adaptive control plane: Δ revisions broadcast by the controller.
    pub const DELTA_UPDATE: &str = "delta_update";
    /// Adaptive control plane: revisions that tightened Δ (fleet keeping up).
    pub const DELTA_TIGHTEN: &str = "delta_tighten";
    /// Adaptive control plane: revisions that relaxed Δ (backpressure).
    pub const DELTA_RELAX: &str = "delta_relax";
    /// Adaptive control plane: Δ revisions a client engine applied.
    pub const DELTA_APPLIED: &str = "delta_applied";

    /// Geo replication: cross-region write batches shipped by a shard.
    pub const GEO_BATCH: &str = "geo_batch";
    /// Geo replication: batches retransmitted while unacknowledged.
    pub const GEO_BATCH_RETRANSMIT: &str = "geo_batch_retransmit";
    /// Geo replication: duplicate batches a relay acked without applying.
    pub const GEO_BATCH_DUP: &str = "geo_batch_dup";
    /// Geo replication: remote writes a relay forwarded to a local shard.
    pub const GEO_APPLY: &str = "geo_apply";
    /// Geo replication: remote writes a shard applied to its store.
    pub const GEO_APPLIED: &str = "geo_applied";
    /// Geo replication: duplicate relay forwards a shard re-acked.
    pub const GEO_APPLY_DUP: &str = "geo_apply_dup";
    /// Geo replication: relay forwards retransmitted while unacknowledged.
    pub const GEO_APPLY_RETRANSMIT: &str = "geo_apply_retransmit";
    /// Geo replication: local-apply notifications shards sent their relay.
    pub const GEO_LOCAL_NOTIFY: &str = "geo_local_notify";
    /// Geo migration: attach requests relays received from moving clients.
    pub const GEO_ATTACH: &str = "geo_attach";
    /// Geo migration: attach requests parked until the relay caught up.
    pub const GEO_ATTACH_WAITED: &str = "geo_attach_waited";
    /// Geo migration: clients that completed a region handoff.
    pub const GEO_MIGRATED: &str = "geo_migrated";
}

/// A bag of named counters.
///
/// Metric names are `&'static str`s; protocols and experiments draw them
/// from the shared [`names`] vocabulary rather than inventing literals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
}

impl Metrics {
    /// Creates an empty bag.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `1` to `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// The current value of `name` (0 if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// An owned snapshot suitable for serialization into experiment output.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
        }
    }

    /// Resets everything to zero.
    pub fn clear(&mut self) {
        self.counters.clear();
    }
}

/// Serializable summary of a [`Metrics`] bag.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("fetch");
        m.incr("fetch");
        m.add("message", 10);
        assert_eq!(m.get("fetch"), 2);
        assert_eq!(m.get("message"), 10);
        assert_eq!(m.get("unknown"), 0);
    }

    #[test]
    fn snapshot_captures_state() {
        let mut m = Metrics::new();
        m.incr("x");
        let s = m.snapshot();
        assert_eq!(s.counters["x"], 1);
    }

    #[test]
    fn clear_resets() {
        let mut m = Metrics::new();
        m.incr("x");
        m.clear();
        assert_eq!(m.get("x"), 0);
    }
}
