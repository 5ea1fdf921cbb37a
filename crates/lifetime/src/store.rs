//! The durable shard-state seam: what a server shard must persist,
//! factored out of [`crate::engine::ServerEngine`] behind the
//! [`ShardStore`] trait.
//!
//! The §5 server owns four pieces of long-lived state: the version store
//! itself, the strictly-increasing physical α stamp, the physical write
//! dedup map, and the per-writer causal delivery cursors. Everything else
//! on the shard (known clients, pending invalidation batches, deferred
//! write acks) is session state that a crash legitimately destroys. This
//! module draws that line as a trait:
//!
//! * [`MemStore`] — the historical in-memory backend. Everything applied
//!   is immediately "durable" and a restart retains it all, which models
//!   an infinitely fast disk; the equivalence tests pin it byte-identical
//!   to the pre-seam engine.
//! * `WalStore` (crate `tc-durable`) — a real write-ahead log with
//!   segment files, snapshots, and configurable fsync policies. Applied
//!   records sit in a pending tail until [`ShardStore::sync`]; a restart
//!   drops the unsynced tail and rebuilds the image by replaying the log.
//!
//! The write-path/read-path split is the heart of the seam's soundness:
//! the engine's *write* logic (α assignment, dup detection, causal gap
//! checks, LWW arbitration) consults the **applied** image — everything
//! appended, synced or not — while *reads* (fetch/validate) are served
//! from the **durable** image only. Serving an unsynced write to a reader
//! and then crashing would let a value be observed that replay cannot
//! restore; acking a write before its record is durable would let an
//! acknowledged write vanish. The engine therefore also defers write acks
//! until the covering [`ShardStore::sync`] (see
//! [`crate::DurabilityMode`]), so a crash can only lose writes whose
//! clients are still retransmitting them.

use tc_clocks::{ClockOrdering, Time, Timestamp, VectorClock};
use tc_core::{FxHashMap, ObjectId, Value};

use crate::msg::WireVersion;

/// A stored object version: the value plus the lifetime stamps the
/// protocols arbitrate with.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredVersion {
    /// The stored value.
    pub value: Value,
    /// Physical start-of-lifetime stamp (the server-assigned α for the
    /// physical family, the writer's issue time for the causal family).
    pub alpha_t: Time,
    /// Vector stamp (causal family only).
    pub alpha_v: Option<VectorClock>,
    /// Tie-break key for concurrent causal writes: (issue time, writer).
    pub tiebreak: (Time, usize),
}

impl StoredVersion {
    /// The version every object starts with.
    #[must_use]
    pub fn initial() -> StoredVersion {
        StoredVersion {
            value: Value::INITIAL,
            alpha_t: Time::ZERO,
            alpha_v: None,
            tiebreak: (Time::ZERO, usize::MAX),
        }
    }

    /// The wire form sent in fetch/validate replies.
    #[must_use]
    pub fn wire(&self) -> WireVersion {
        WireVersion {
            value: self.value,
            alpha_t: self.alpha_t,
            alpha_v: self.alpha_v.clone(),
            tiebreak: self.tiebreak,
        }
    }
}

/// One durable state transition — the unit a WAL appends and replay
/// re-applies. A record carries everything [`ShardImage::apply`] needs, so
/// "apply live" and "apply during replay" are the same code path.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A physical-family write, already linearized by the server.
    Physical {
        /// The written object.
        object: ObjectId,
        /// The (globally unique) written value.
        value: Value,
        /// The server-assigned, strictly increasing α.
        alpha: Time,
        /// The writer's issue time (tie-break component).
        issued_at: Time,
        /// The writing client's node index (tie-break component).
        writer: usize,
    },
    /// A causal-family write, stamped by its writer.
    Causal {
        /// The written object.
        object: ObjectId,
        /// The writing client's node index.
        writer: usize,
        /// The writer's per-shard delivery sequence number.
        seq: u64,
        /// The (globally unique) written value.
        value: Value,
        /// The writer's issue time (α and tie-break component).
        alpha_t: Time,
        /// The writer's vector stamp.
        alpha_v: VectorClock,
    },
}

/// What a restart recovered (and lost). Returned by
/// [`ShardStore::restart`] so drivers can surface recovery telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Records re-applied from the log segments during replay.
    pub replayed: u64,
    /// Records whose effects were restored from a snapshot instead of
    /// being replayed individually.
    pub from_snapshot: u64,
    /// Records the crash destroyed, through either loss channel: the
    /// appended-but-unsynced in-memory tail (those writes were never
    /// acked, so their clients are still retransmitting them) plus record
    /// frames on disk past a corruption point that replay had to abandon
    /// (a lower bound — a torn byte-gap may hide several frames).
    pub lost: u64,
    /// Whether replay stopped early at a torn or corrupted record; the
    /// abandoned frames past the corruption are counted into `lost`.
    pub corrupted_tail: bool,
    /// Total records durable after recovery — the store's recovery point.
    pub recovery_point: u64,
}

impl Recovery {
    /// The recovery report of a backend that retains everything (the
    /// in-memory store's "infinitely fast disk" model).
    #[must_use]
    pub fn retained(recovery_point: u64) -> Recovery {
        Recovery {
            recovery_point,
            ..Recovery::default()
        }
    }
}

/// The pure in-memory shard image: the four durable state pieces plus the
/// apply logic over [`WalRecord`]s. Both backends are built from this one
/// type — [`MemStore`] holds one image, `WalStore` holds two (durable and
/// applied) — so LWW arbitration and cursor bookkeeping exist exactly
/// once.
#[derive(Clone, Debug, Default)]
pub struct ShardImage {
    versions: FxHashMap<ObjectId, StoredVersion>,
    /// Strictly increasing physical-family write stamp.
    last_alpha: Time,
    /// Physical writes already applied, by (globally unique) value, with
    /// the α each was assigned — the retransmit dedup map.
    applied_physical: FxHashMap<Value, Time>,
    /// Per-writer causal delivery cursor: the `shard_seq` of the last
    /// causal write applied from each client node.
    causal_cursors: FxHashMap<usize, u64>,
    /// Writes applied (dropped LWW losers excluded).
    writes_applied: u64,
    /// Records applied (LWW losers included — every record is a durable
    /// state transition even when it loses arbitration).
    records: u64,
}

impl ShardImage {
    /// An empty image.
    #[must_use]
    pub fn new() -> ShardImage {
        ShardImage::default()
    }

    /// The current version of `object` (the initial version if unwritten).
    #[must_use]
    pub fn current(&self, object: ObjectId) -> StoredVersion {
        self.versions
            .get(&object)
            .cloned()
            .unwrap_or_else(StoredVersion::initial)
    }

    /// The largest physical α handed out so far.
    #[must_use]
    pub fn last_alpha(&self) -> Time {
        self.last_alpha
    }

    /// The α originally assigned to an already-applied physical write.
    #[must_use]
    pub fn physical_alpha(&self, value: Value) -> Option<Time> {
        self.applied_physical.get(&value).copied()
    }

    /// The last applied causal sequence number of `writer` (0 if none).
    #[must_use]
    pub fn causal_cursor(&self, writer: usize) -> u64 {
        self.causal_cursors.get(&writer).copied().unwrap_or(0)
    }

    /// Writes applied (dropped LWW losers excluded).
    #[must_use]
    pub fn writes_applied(&self) -> u64 {
        self.writes_applied
    }

    /// Records applied (every durable state transition).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Applies one record; returns whether it became the current version
    /// of its object (physical writes always do — the server linearizes
    /// them; causal writes win by the LWW rule).
    pub fn apply(&mut self, record: &WalRecord) -> bool {
        self.records += 1;
        match record {
            WalRecord::Physical {
                object,
                value,
                alpha,
                issued_at,
                writer,
            } => {
                self.last_alpha = self.last_alpha.max(*alpha);
                self.applied_physical.insert(*value, *alpha);
                self.versions.insert(
                    *object,
                    StoredVersion {
                        value: *value,
                        alpha_t: *alpha,
                        alpha_v: None,
                        tiebreak: (*issued_at, *writer),
                    },
                );
                self.writes_applied += 1;
                true
            }
            WalRecord::Causal {
                object,
                writer,
                seq,
                value,
                alpha_t,
                alpha_v,
            } => {
                self.causal_cursors.insert(*writer, *seq);
                let incoming = StoredVersion {
                    value: *value,
                    alpha_t: *alpha_t,
                    alpha_v: Some(alpha_v.clone()),
                    tiebreak: (*alpha_t, *writer),
                };
                let current = self.current(*object);
                let wins = match (&incoming.alpha_v, &current.alpha_v) {
                    (_, None) => true, // anything beats the initial version
                    (None, Some(_)) => false,
                    (Some(new), Some(cur)) => match new.compare(cur) {
                        ClockOrdering::After => true,
                        ClockOrdering::Before | ClockOrdering::Equal => false,
                        ClockOrdering::Concurrent => incoming.tiebreak > current.tiebreak,
                    },
                };
                if wins {
                    self.versions.insert(*object, incoming);
                    self.writes_applied += 1;
                }
                wins
            }
        }
    }

    /// The versions, in deterministic (sorted) order — for snapshotting.
    #[must_use]
    pub fn versions_sorted(&self) -> Vec<(ObjectId, StoredVersion)> {
        let mut v: Vec<_> = self.versions.iter().map(|(o, s)| (*o, s.clone())).collect();
        v.sort_by_key(|(o, _)| *o);
        v
    }

    /// The physical dedup map, in deterministic order — for snapshotting.
    #[must_use]
    pub fn physical_sorted(&self) -> Vec<(Value, Time)> {
        let mut v: Vec<_> = self
            .applied_physical
            .iter()
            .map(|(val, t)| (*val, *t))
            .collect();
        v.sort_by_key(|(val, _)| *val);
        v
    }

    /// The causal cursors, in deterministic order — for snapshotting.
    #[must_use]
    pub fn cursors_sorted(&self) -> Vec<(usize, u64)> {
        let mut v: Vec<_> = self.causal_cursors.iter().map(|(w, s)| (*w, *s)).collect();
        v.sort_by_key(|(w, _)| *w);
        v
    }

    /// Rebuilds an image from snapshot parts (the inverse of the
    /// `*_sorted` accessors).
    #[must_use]
    pub fn from_parts(
        versions: Vec<(ObjectId, StoredVersion)>,
        physical: Vec<(Value, Time)>,
        cursors: Vec<(usize, u64)>,
        last_alpha: Time,
        writes_applied: u64,
        records: u64,
    ) -> ShardImage {
        ShardImage {
            versions: versions.into_iter().collect(),
            last_alpha,
            applied_physical: physical.into_iter().collect(),
            causal_cursors: cursors.into_iter().collect(),
            writes_applied,
            records,
        }
    }
}

/// The durable state backend of one server shard.
///
/// The *applied* accessors (`last_alpha`, `physical_alpha`,
/// `causal_cursor`) reflect every appended record, synced or not — they
/// feed the engine's write-path logic, which must see its own recent
/// appends. [`ShardStore::durable_version`] reflects only synced records —
/// it feeds reads, so no client can ever observe state a crash could
/// un-happen.
pub trait ShardStore: Send {
    /// The current *durable* version of `object`, served to fetch and
    /// validate requests.
    fn durable_version(&self, object: ObjectId) -> StoredVersion;

    /// The largest physical α in the applied image.
    fn last_alpha(&self) -> Time;

    /// The α of an already-applied physical write (applied image).
    fn physical_alpha(&self, value: Value) -> Option<Time>;

    /// `writer`'s causal delivery cursor (applied image).
    fn causal_cursor(&self, writer: usize) -> u64;

    /// Appends and applies one record; returns whether it became the
    /// current version (see [`ShardImage::apply`]).
    fn apply(&mut self, record: &WalRecord) -> bool;

    /// Records appended but not yet durable (always 0 for [`MemStore`]).
    fn pending(&self) -> usize;

    /// Makes every pending record durable (fsync for a real log).
    fn sync(&mut self);

    /// Crash–restart: drop the unsynced tail, rebuild the image from
    /// durable storage, and report what was recovered.
    fn restart(&mut self) -> Recovery;

    /// Writes applied (dropped LWW losers excluded), applied image.
    fn writes_applied(&self) -> u64;

    /// Records applied (every durable state transition), applied image.
    fn records(&self) -> u64;
}

/// The default in-memory backend: one [`ShardImage`], everything durable
/// the instant it applies, restart retains everything (the pre-seam
/// engine's "the store models disk" behaviour, byte-identical).
#[derive(Debug, Default)]
pub struct MemStore {
    image: ShardImage,
}

impl MemStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl ShardStore for MemStore {
    fn durable_version(&self, object: ObjectId) -> StoredVersion {
        self.image.current(object)
    }

    fn last_alpha(&self) -> Time {
        self.image.last_alpha()
    }

    fn physical_alpha(&self, value: Value) -> Option<Time> {
        self.image.physical_alpha(value)
    }

    fn causal_cursor(&self, writer: usize) -> u64 {
        self.image.causal_cursor(writer)
    }

    fn apply(&mut self, record: &WalRecord) -> bool {
        self.image.apply(record)
    }

    fn pending(&self) -> usize {
        0
    }

    fn sync(&mut self) {}

    fn restart(&mut self) -> Recovery {
        Recovery::retained(self.image.records())
    }

    fn writes_applied(&self) -> u64 {
        self.image.writes_applied()
    }

    fn records(&self) -> u64 {
        self.image.records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_clocks::SiteClock;

    fn phys(object: u32, value: u64, alpha: u64, writer: usize) -> WalRecord {
        WalRecord::Physical {
            object: ObjectId::new(object),
            value: Value::new(value),
            alpha: Time::from_ticks(alpha),
            issued_at: Time::from_ticks(alpha),
            writer,
        }
    }

    fn causal(
        object: u32,
        value: u64,
        at: u64,
        writer: usize,
        seq: u64,
        v: VectorClock,
    ) -> WalRecord {
        WalRecord::Causal {
            object: ObjectId::new(object),
            writer,
            seq,
            value: Value::new(value),
            alpha_t: Time::from_ticks(at),
            alpha_v: v,
        }
    }

    #[test]
    fn physical_records_always_win_and_advance_alpha() {
        let mut img = ShardImage::new();
        assert!(img.apply(&phys(1, 10, 5, 3)));
        assert!(img.apply(&phys(1, 11, 9, 4)));
        assert_eq!(img.current(ObjectId::new(1)).value, Value::new(11));
        assert_eq!(img.last_alpha(), Time::from_ticks(9));
        assert_eq!(
            img.physical_alpha(Value::new(10)),
            Some(Time::from_ticks(5))
        );
        assert_eq!(img.writes_applied(), 2);
        assert_eq!(img.records(), 2);
    }

    #[test]
    fn causal_lww_matches_the_engine_rules() {
        let mut img = ShardImage::new();
        let mut clock = VectorClock::new(0, 2);
        let a1 = clock.tick();
        let a2 = clock.tick();
        assert!(img.apply(&causal(1, 1, 10, 0, 1, a2)));
        // A causally older write arriving late loses (but still advances
        // the cursor and the record count — it is a durable transition).
        assert!(!img.apply(&causal(1, 2, 5, 0, 2, a1)));
        assert_eq!(img.current(ObjectId::new(1)).value, Value::new(1));
        assert_eq!(img.causal_cursor(0), 2);
        assert_eq!(img.writes_applied(), 1);
        assert_eq!(img.records(), 2);
    }

    #[test]
    fn concurrent_causal_ties_break_on_writer_index() {
        let mk = |site: usize| {
            let mut c = VectorClock::new(site, 2);
            c.tick()
        };
        for order in [[0usize, 1], [1, 0]] {
            let mut img = ShardImage::new();
            for (i, &site) in order.iter().enumerate() {
                img.apply(&causal(
                    1,
                    site as u64 + 1,
                    10,
                    site,
                    i as u64 + 1,
                    mk(site),
                ));
            }
            assert_eq!(img.current(ObjectId::new(1)).value, Value::new(2));
        }
    }

    #[test]
    fn snapshot_parts_round_trip() {
        let mut img = ShardImage::new();
        img.apply(&phys(1, 10, 5, 3));
        let mut clock = VectorClock::new(1, 2);
        img.apply(&causal(2, 20, 8, 1, 1, clock.tick()));
        let rebuilt = ShardImage::from_parts(
            img.versions_sorted(),
            img.physical_sorted(),
            img.cursors_sorted(),
            img.last_alpha(),
            img.writes_applied(),
            img.records(),
        );
        assert_eq!(
            rebuilt.current(ObjectId::new(1)),
            img.current(ObjectId::new(1))
        );
        assert_eq!(
            rebuilt.current(ObjectId::new(2)),
            img.current(ObjectId::new(2))
        );
        assert_eq!(rebuilt.causal_cursor(1), 1);
        assert_eq!(rebuilt.records(), 2);
    }

    #[test]
    fn mem_store_restart_retains_everything() {
        let mut store = MemStore::new();
        store.apply(&phys(1, 10, 5, 3));
        assert_eq!(store.pending(), 0);
        let rec = store.restart();
        assert_eq!(rec, Recovery::retained(1));
        assert_eq!(
            store.durable_version(ObjectId::new(1)).value,
            Value::new(10)
        );
    }
}
