//! Counters and histograms shared by every simulated protocol and
//! experiment binary.

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

    /// TCP transport: handshake completed on a fresh connection.
    pub const TCP_CONNECT: &str = "tcp_connect";
    /// TCP transport: link re-established after a drop (backoff path).
    pub const TCP_RECONNECT: &str = "tcp_reconnect";
    /// TCP transport: failed connect/handshake attempt (refused, reset,
    /// timed out) that the backoff schedule absorbed.
    pub const TCP_CONNECT_FAILED: &str = "tcp_connect_failed";
    /// TCP transport: protocol frame dropped because its destination had
    /// no attached route at send time (the engines' retry timers recover
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

    /// Reads the streaming monitor flagged as Δ-violating (harness output).
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

/// A bag of named counters plus power-of-two latency histograms.
///
/// Metric names are `&'static str`s; protocols and experiments draw them
/// from the shared [`names`] vocabulary rather than inventing literals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
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

    /// Records `value` into the histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The histogram `name`, if any value was ever observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
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
            histogram_means: self
                .histograms
                .iter()
                .map(|(k, h)| ((*k).to_string(), h.mean()))
                .collect(),
        }
    }

    /// Resets everything to zero.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

/// Serializable summary of a [`Metrics`] bag.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram means by name.
    pub histogram_means: BTreeMap<String, f64>,
}

/// A histogram with power-of-two buckets: bucket `i` (for `i ≥ 1`) counts
/// values in `[2^(i-1), 2^i)`; bucket 0 counts only zeros.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize; // 0 -> 0, 1 -> 1, 2..3 -> 2, ...
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        // Saturate: near-u64::MAX samples (e.g. "infinite" deltas) must not
        // abort the run; the mean degrades gracefully instead.
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper bound on the `q`-quantile using bucket boundaries
    /// (nearest-rank over buckets).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_bound(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i: bucket 0 holds only zeros;
                // bucket i ≥ 1 holds [2^(i-1), 2^i − 1]. Bucket 64
                // (values ≥ 2^63) has no representable `2^64 − 1 + 1`
                // edge — the old `(1u64 << i) - 1` wrapped to 0 there and
                // under-reported the quantile. Capping every edge by the
                // recorded max keeps the result a true upper bound while
                // tightening the top bucket to an exact one.
                let edge = match i {
                    0 => 0,
                    1..=63 => (1u64 << i) - 1,
                    _ => u64::MAX,
                };
                return edge.min(self.max);
            }
        }
        self.max
    }
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
    fn histogram_buckets_values() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 110.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_bounds() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let p50 = h.quantile_bound(0.5);
        // The true median is 50; the bucket bound must cover it from above
        // but stay within the next power of two.
        assert!((50..=127).contains(&p50), "p50 bound {p50}");
        assert!(h.quantile_bound(1.0) >= 100);
        assert_eq!(Histogram::default().quantile_bound(0.5), 0);
    }

    #[test]
    fn quantile_bound_survives_top_bucket_values() {
        // Regression: values ≥ 2^63 land in bucket 64, whose upper edge
        // `(1u64 << 64) - 1` used to wrap to 0 and report p100 = 0.
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
        // Both samples share bucket 64; the edge is capped by the max.
        assert_eq!(h.quantile_bound(0.5), h.max());
    }

    #[test]
    fn quantile_bound_of_zeros_is_zero() {
        // Regression: bucket 0 holds only zeros, but its edge was
        // reported as 1.
        let mut h = Histogram::default();
        for _ in 0..5 {
            h.record(0);
        }
        assert_eq!(h.quantile_bound(0.5), 0);
        assert_eq!(h.quantile_bound(1.0), 0);
    }

    /// The exact nearest-rank quantile of a sample set.
    fn exact_quantile(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    proptest::proptest! {
        /// Cross-validation: for any sample set (including huge values)
        /// and any quantile, the bucketed bound covers the exact
        /// nearest-rank quantile from above, never exceeds the recorded
        /// max, and stays within the 2× slack of power-of-two buckets.
        #[test]
        fn quantile_bound_covers_exact_nearest_rank(
            small in proptest::collection::vec(0u64..1024, 0..32),
            huge in proptest::collection::vec(0u64..=u64::MAX, 1..32),
            q in 0.0f64..=1.0,
        ) {
            let samples: Vec<u64> = small.iter().chain(&huge).copied().collect();
            let mut h = Histogram::default();
            for &v in &samples {
                h.record(v);
            }
            let exact = exact_quantile(&samples, q);
            let bound = h.quantile_bound(q);
            proptest::prop_assert!(bound >= exact, "bound {bound} < exact {exact}");
            proptest::prop_assert!(bound <= h.max());
            proptest::prop_assert!(
                bound <= exact.saturating_mul(2).max(1),
                "bound {bound} too loose for exact {exact}"
            );
        }
    }

    #[test]
    fn snapshot_captures_state() {
        let mut m = Metrics::new();
        m.incr("x");
        m.observe("lat", 5);
        let s = m.snapshot();
        assert_eq!(s.counters["x"], 1);
        assert!(s.histogram_means["lat"] > 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut m = Metrics::new();
        m.incr("x");
        m.observe("lat", 5);
        m.clear();
        assert_eq!(m.get("x"), 0);
        assert!(m.histogram("lat").is_none());
    }
}
