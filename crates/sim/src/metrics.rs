//! Counters shared by every simulated protocol and experiment binary.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Declares the counter names once: the [`names`] constants and, from the
/// same list, the slot each counter's value lives in.
macro_rules! counter_names {
    ($($(#[doc = $doc:literal])+ $name:ident = $value:literal;)+) => {
        /// The canonical metric vocabulary shared by the simulator kernel,
        /// the `tc-lifetime` protocol engines, the real drivers and the
        /// experiment binaries: the closed set of names a [`Metrics`] bag
        /// has a slot for.
        ///
        /// Protocol and experiment code must name counters through these
        /// constants rather than free-form string literals, so a typo'd
        /// counter name is a compile error instead of a silently-zero
        /// column in an experiment table (and [`Metrics::add`] panics on a
        /// name outside the set).
        pub mod names {
            $($(#[doc = $doc])+ pub const $name: &str = $value;)+
        }

        /// Every counter name, in slot order.
        const NAMES: &[&str] = &[$($value),+];

        /// The slot of the counter `name`, if it is one of [`names`].
        fn slot(name: &str) -> Option<usize> {
            #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
            enum Slot {
                $($name),+
            }
            match name {
                $($value => Some(Slot::$name as usize),)+
                _ => None,
            }
        }
    };
}

counter_names! {
    /// A message handed to the network by [`crate::Context::send`].
    MESSAGE = "message";
    /// A message dropped by the network model's loss probability.
    DROPPED = "dropped";
    /// A message killed by a fault-plan rule (drop/partition).
    FAULT_DROPPED = "fault_dropped";
    /// A message addressed to a crashed (down) node.
    FAULT_DROPPED_DOWN = "fault_dropped_down";
    /// A message delayed by a fault-plan reorder rule.
    FAULT_JITTERED = "fault_jittered";
    /// A message duplicated by a fault-plan rule.
    FAULT_DUPLICATED = "fault_duplicated";
    /// A node crash event.
    CRASH = "crash";
    /// A node restart event.
    RESTART = "restart";

    /// Client read that fetched from the server (miss or no-cache).
    FETCH = "fetch";
    /// Client read that revalidated a marked-old entry.
    VALIDATE = "validate";
    /// Client read served from a live cache entry.
    CACHE_HIT = "cache_hit";
    /// Client read that found no cache entry.
    CACHE_MISS = "cache_miss";
    /// Cache entry invalidated by a sweep or push.
    INVALIDATE = "invalidate";
    /// Cache entry newly marked old by a sweep or push.
    MARK_OLD = "mark_old";
    /// Reply discarded because its epoch is no longer current.
    STALE_REPLY = "stale_reply";
    /// Request retransmitted after its retry timer fired.
    RETRY = "retry";
    /// Unacked causal write retransmitted.
    CAUSAL_RETRANSMIT = "causal_retransmit";
    /// Fetched version lost LWW arbitration to the site's own write.
    OWN_WRITE_PRESERVED = "own_write_preserved";
    /// Push invalidation received by a client.
    PUSH_RECEIVED = "push_received";
    /// Client crash-restart recovery.
    CLIENT_RESTART = "client_restart";

    /// Server-side fetch served.
    SERVER_FETCH = "server_fetch";
    /// Server-side validation served.
    SERVER_VALIDATE = "server_validate";
    /// Server-side write received.
    SERVER_WRITE = "server_write";
    /// Causal write ignored because of a per-writer delivery gap.
    SERVER_WRITE_GAP = "server_write_gap";
    /// Duplicate write answered without re-applying.
    SERVER_WRITE_DUP = "server_write_dup";
    /// Owed cumulative causal ack that rode on a reply to its site.
    SERVER_ACK_PIGGYBACKED = "server_ack_piggybacked";
    /// Owed cumulative causal ack sent on its own because no reply to its
    /// site left within the ack delay.
    SERVER_ACK_STANDALONE = "server_ack_standalone";
    /// Push invalidation sent by the server.
    PUSH = "push";
    /// Coalesced invalidation batch flushed by the server (deadline or
    /// fullness); each batch carries one or more `PUSH` entries.
    PUSH_BATCH = "push_batch";
    /// Causal write held back by the client's cross-shard write barrier.
    CAUSAL_DEFERRED = "causal_deferred";
    /// Server crash-restart recovery.
    SERVER_RESTART = "server_restart";

    /// Durable shard store: record appended to the write-ahead log.
    WAL_APPEND = "wal_append";
    /// Durable shard store: pending WAL tail fsynced (per-write, group
    /// fullness, or deadline — the fsync policy decides which).
    WAL_FSYNC = "wal_fsync";
    /// Durable shard store: records restored at restart (snapshot +
    /// segment replay).
    WAL_REPLAYED = "wal_replayed";
    /// Durable shard store: appended-but-unsynced records dropped by a
    /// crash (the replay gap; the covered writes were never acked).
    WAL_LOST = "wal_lost";

    /// TCP transport: the first `HelloAck` a shard sent — one per shard
    /// link, whatever the sites it carries.
    TCP_CONNECT = "tcp_connect";
    /// TCP transport: any later `HelloAck`: a shard link re-admitted after
    /// a drop (backoff path).
    TCP_RECONNECT = "tcp_reconnect";
    /// TCP transport: failed connect/handshake attempt (refused, reset,
    /// timed out) that the backoff schedule absorbed.
    TCP_CONNECT_FAILED = "tcp_connect_failed";
    /// TCP transport: protocol frame dropped because no link to its
    /// destination was up at send time (the engines' retry timers recover
    /// it). A frame queued on a link that then dies before or during the
    /// loop pass's flush is not counted here: it is lost like any frame
    /// in flight, and recovered the same way.
    TCP_SEND_DROPPED = "tcp_send_dropped";
    /// TCP transport: keep-alive frame written by an idle connection.
    TCP_HEARTBEAT = "tcp_heartbeat";
    /// TCP transport: a chaos-killed shard listener came back up.
    TCP_LISTENER_RESTART = "tcp_listener_restart";

    /// Reactor driver: a shard accepted a connection (registered its fd).
    REACTOR_CONN_OPENED = "reactor_conn_opened";
    /// Reactor driver: a shard closed a connection (deregistered its fd).
    /// Equals [`REACTOR_CONN_OPENED`] at the end of a leak-free run.
    REACTOR_CONN_CLOSED = "reactor_conn_closed";
    /// Reactor driver: a churn dial (connect that never intends to speak
    /// the protocol) reached a shard listener.
    REACTOR_CHURN_DIAL = "reactor_churn_dial";
    /// Reactor driver: `write` calls the reactor threads issued.
    REACTOR_WRITES = "reactor_writes";
    /// Reactor driver: frames the reactor threads queued for writing.
    /// `REACTOR_FRAMES_OUT / REACTOR_WRITES` is the frames one `write`
    /// carried on average — the batching the per-pass flush achieved.
    REACTOR_FRAMES_OUT = "reactor_frames_out";
    /// Reactor driver: waits a reactor thread ended by polling, without
    /// sleeping, because its links had moved bytes within the poll window.
    REACTOR_POLLS = "reactor_polls";
    /// Reactor driver: waits a reactor thread slept in the kernel, its
    /// links quiet for longer than the poll window. Near zero per
    /// operation under load; every wait of an idle fleet.
    REACTOR_SLEEPS = "reactor_sleeps";

    /// Real-time drivers: timers popped off a driver thread's wheel.
    TIMER_FIRED = "timer_fired";
    /// Real-time drivers: summed lateness of those timers — the instant
    /// the driver thread noticed a timer due minus the timer's deadline,
    /// in nanoseconds. `TIMER_LATE_NS / TIMER_FIRED` is the mean wake-up
    /// lateness a run suffered (timer slack, scheduling, a busy thread).
    TIMER_LATE_NS = "timer_late_ns";

    /// Reads the streaming monitor flagged as Δ-violating, set once at the
    /// end of a run by the simulator harness and every real driver alike.
    ON_TIME_VIOLATIONS = "on_time_violations";
    /// Writes the streaming monitor ingested behind a judged read.
    MONITOR_LATE_WRITES = "monitor_late_writes";

    /// Adaptive control plane: Δ revisions broadcast by the controller.
    DELTA_UPDATE = "delta_update";
    /// Adaptive control plane: revisions that tightened Δ (fleet keeping up).
    DELTA_TIGHTEN = "delta_tighten";
    /// Adaptive control plane: revisions that relaxed Δ (backpressure).
    DELTA_RELAX = "delta_relax";
    /// Adaptive control plane: Δ revisions a client engine applied.
    DELTA_APPLIED = "delta_applied";

    /// Geo replication: cross-region write batches shipped by a shard.
    GEO_BATCH = "geo_batch";
    /// Geo replication: batches retransmitted while unacknowledged.
    GEO_BATCH_RETRANSMIT = "geo_batch_retransmit";
    /// Geo replication: duplicate batches a relay acked without applying.
    GEO_BATCH_DUP = "geo_batch_dup";
    /// Geo replication: remote writes a relay forwarded to a local shard.
    GEO_APPLY = "geo_apply";
    /// Geo replication: remote writes a shard applied to its store.
    GEO_APPLIED = "geo_applied";
    /// Geo replication: duplicate relay forwards a shard re-acked.
    GEO_APPLY_DUP = "geo_apply_dup";
    /// Geo replication: relay forwards retransmitted while unacknowledged.
    GEO_APPLY_RETRANSMIT = "geo_apply_retransmit";
    /// Geo replication: local-apply notifications shards sent their relay.
    GEO_LOCAL_NOTIFY = "geo_local_notify";
    /// Geo migration: attach requests relays received from moving clients.
    GEO_ATTACH = "geo_attach";
    /// Geo migration: attach requests parked until the relay caught up.
    GEO_ATTACH_WAITED = "geo_attach_waited";
    /// Geo migration: clients that completed a region handoff.
    GEO_MIGRATED = "geo_migrated";
}

/// A bag of named counters: one `u64` slot per [`names`] constant, so a
/// bump is an array increment.
///
/// Protocols and experiments name counters through the shared [`names`]
/// vocabulary; a bag records which slots have been added to (zero adds
/// included), and its [`Metrics::snapshot`] lists exactly those.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Metrics {
    values: [u64; NAMES.len()],
    /// Bit `i` is set once slot `i` has been added to.
    touched: u128,
}

const _: () = assert!(
    NAMES.len() <= u128::BITS as usize,
    "one touched bit per name"
);

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            values: [0; NAMES.len()],
            touched: 0,
        }
    }
}

impl Metrics {
    /// Creates an empty bag.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `1` to `name`.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of [`names`].
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        let Some(slot) = slot(name) else {
            panic!("`{name}` is not a counter in tc_sim::metrics::names");
        };
        self.values[slot] += n;
        self.touched |= 1 << slot;
    }

    /// The current value of `name` (0 if never touched or not a counter).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        slot(name).map_or(0, |slot| self.values[slot])
    }

    /// An owned snapshot suitable for serialization into experiment output:
    /// every counter added to, by name.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: NAMES
                .iter()
                .zip(self.values)
                .enumerate()
                .filter(|&(slot, _)| self.touched >> slot & 1 == 1)
                .map(|(_, (name, value))| ((*name).to_string(), value))
                .collect(),
        }
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
    use proptest::prelude::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr(names::FETCH);
        m.incr(names::FETCH);
        m.add(names::MESSAGE, 10);
        assert_eq!(m.get(names::FETCH), 2);
        assert_eq!(m.get(names::MESSAGE), 10);
        assert_eq!(m.get(names::CRASH), 0);
    }

    #[test]
    fn snapshot_captures_state() {
        let mut m = Metrics::new();
        m.incr(names::CRASH);
        m.add(names::RETRY, 0);
        let s = m.snapshot();
        assert_eq!(s.counters[names::CRASH], 1);
        assert_eq!(s.counters[names::RETRY], 0, "a zero add is listed");
        assert_eq!(s.counters.len(), 2);
    }

    #[test]
    fn every_constant_has_a_distinct_slot() {
        for (i, name) in NAMES.iter().enumerate() {
            assert_eq!(slot(name), Some(i), "{name}");
        }
    }

    #[test]
    fn an_unknown_name_reads_zero() {
        assert_eq!(Metrics::new().get("unknown"), 0);
    }

    #[test]
    #[should_panic(expected = "`unknown` is not a counter")]
    fn an_unknown_name_panics_in_add() {
        Metrics::new().add("unknown", 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// The bag snapshots exactly what the `BTreeMap` it replaced would:
        /// every name added to, zero adds included, with its sum.
        #[test]
        fn snapshots_equal_the_map_model(
            adds in proptest::collection::vec((0..NAMES.len(), 0u64..4), 0..200),
        ) {
            let mut m = Metrics::new();
            let mut model: BTreeMap<&str, u64> = BTreeMap::new();
            for &(slot, n) in &adds {
                m.add(NAMES[slot], n);
                *model.entry(NAMES[slot]).or_insert(0) += n;
            }
            let expected: BTreeMap<String, u64> =
                model.iter().map(|(k, v)| ((*k).to_string(), *v)).collect();
            prop_assert_eq!(m.snapshot().counters, expected);
            for name in NAMES {
                prop_assert_eq!(m.get(name), model.get(name).copied().unwrap_or(0));
            }
        }
    }
}
