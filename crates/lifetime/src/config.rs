//! Configuration of the lifetime-based consistency protocols (§5).

use tc_clocks::Delta;

/// Which consistency level the protocol enforces: the paper's §5 family.
///
/// SC and CC are TSC and TCC at Δ = ∞, where rule 3 and the checking time
/// never fire (Figure 4); [`ProtocolKind::sc`] and [`ProtocolKind::cc`]
/// build them, and [`ProtocolKind::label`] names them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolKind {
    /// Timed serial consistency: rules 1–2 over physical timestamps
    /// (§5.1) plus rule 3, `Context_i := max(t_i − Δ, Context_i)` (§5.2).
    Tsc {
        /// The timed-consistency threshold.
        delta: Delta,
    },
    /// Timed causal consistency: rules 1–2 over vector clocks plus the
    /// physical checking time `X_β`, bounded by Δ (§5.3).
    Tcc {
        /// The timed-consistency threshold.
        delta: Delta,
    },
    /// The logical-clock approximation of TCC: a cached version is stale
    /// once `ξ(Context) − ξ(ω)` exceeds `xi_delta` (Definition 6). Uses the
    /// `ξ(t) = Σ t[i]` map (the paper's global-event count).
    TccLogical {
        /// Maximum tolerated ξ gap (in known-global-events).
        xi_delta: f64,
    },
    /// Baseline: no caching at all — every read fetches from the server.
    /// Gives linearizability up to message latency and serves as the
    /// "Δ → 0" endpoint of the cost curves.
    NoCache,
}

impl ProtocolKind {
    /// Sequential consistency: TSC at Δ = ∞.
    #[must_use]
    pub const fn sc() -> Self {
        ProtocolKind::Tsc {
            delta: Delta::INFINITE,
        }
    }

    /// Causal consistency: TCC at Δ = ∞.
    #[must_use]
    pub const fn cc() -> Self {
        ProtocolKind::Tcc {
            delta: Delta::INFINITE,
        }
    }

    /// Whether this level uses vector-clock (causal-family) timestamps.
    #[must_use]
    pub fn is_causal_family(self) -> bool {
        matches!(
            self,
            ProtocolKind::Tcc { .. } | ProtocolKind::TccLogical { .. }
        )
    }

    /// The Δ parameter when the level has one.
    #[must_use]
    pub fn delta(self) -> Option<Delta> {
        match self {
            ProtocolKind::Tsc { delta } | ProtocolKind::Tcc { delta } => Some(delta),
            _ => None,
        }
    }

    /// A short label for experiment tables: "SC" and "CC" at Δ = ∞.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Tsc { delta } if delta.is_infinite() => "SC",
            ProtocolKind::Tsc { .. } => "TSC",
            ProtocolKind::Tcc { delta } if delta.is_infinite() => "CC",
            ProtocolKind::Tcc { .. } => "TCC",
            ProtocolKind::TccLogical { .. } => "TCC-xi",
            ProtocolKind::NoCache => "NoCache",
        }
    }
}

/// How updates travel from the server to caches (§5.2 mentions both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Propagation {
    /// Clients discover staleness on access (TTL-style).
    Pull,
    /// The server pushes invalidations to every client on each write
    /// (Cao & Liu-style server invalidation).
    PushInvalidate,
}

/// The default interval a client waits before resending an unanswered
/// request ([`ProtocolConfig::retry_after`]).
pub const DEFAULT_RETRY_AFTER: Delta = Delta::from_ticks(500);

/// When a durable shard store makes appended WAL records survive a crash
/// ([`DurabilityMode::Durable`]).
///
/// A shard acknowledges a write only once the covering record is durable,
/// so the policy trades write latency against fsync traffic:
///
/// * `max_pending` — sync once this many records are pending
///   (group commit). `1` syncs on every write.
/// * `max_delay` — sync once the oldest pending record has waited this
///   long, even if the group is not full (deadline batching).
///
/// The conformance oracle widens its staleness bound by `max_delay` (an
/// acked write may have been held back that long before becoming visible
/// to readers, which are served from the durable image only); an infinite
/// `max_delay` therefore makes the timed bound unverifiable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsyncPolicy {
    /// Sync once this many records are pending. `1` = per-write fsync.
    pub max_pending: usize,
    /// Sync once the oldest pending record has waited this long.
    pub max_delay: Delta,
}

impl FsyncPolicy {
    /// Fsync every record before acking it (no added visibility delay —
    /// the widening term is zero, as with [`DurabilityMode::Ephemeral`]).
    pub const PER_WRITE: FsyncPolicy = FsyncPolicy {
        max_pending: 1,
        max_delay: Delta::ZERO,
    };
}

/// Whether shard state survives a crash, and at what cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DurabilityMode {
    /// The historical in-memory model: applied state is "durable" the
    /// instant it applies (an infinitely fast disk). Crash–restart under
    /// the default [`crate::MemStore`] retains everything.
    Ephemeral,
    /// A write-ahead-logged store: records become durable at fsync, acks
    /// wait for durability, and crash–restart replays the log (losing at
    /// most the unfsynced tail, whose writes were never acked).
    Durable {
        /// When pending records are fsynced.
        fsync: FsyncPolicy,
    },
}

impl DurabilityMode {
    /// Whether writes are logged and acks deferred to durability.
    #[must_use]
    pub fn is_durable(self) -> bool {
        matches!(self, DurabilityMode::Durable { .. })
    }

    /// The fsync policy, when durable.
    #[must_use]
    pub fn fsync(self) -> Option<FsyncPolicy> {
        match self {
            DurabilityMode::Ephemeral => None,
            DurabilityMode::Durable { fsync } => Some(fsync),
        }
    }
}

/// Full protocol configuration for one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtocolConfig {
    /// The consistency level.
    pub kind: ProtocolKind,
    /// Update propagation.
    pub propagation: Propagation,
    /// How long a client waits before resending an unanswered request.
    /// The conformance oracle adds one retry interval per fault-plan
    /// outage when widening its staleness bound (see [`crate::oracle`]) —
    /// keeping the knob here keeps that coupling visible in one place.
    pub retry_after: Delta,
    /// Number of object-partitioned server shards. Objects are routed to
    /// shards by [`crate::engine::ShardMap`]; `1` reproduces the single
    /// server byte-for-byte.
    pub shards: usize,
    /// Whether shard writes are write-ahead logged and acks deferred to
    /// durability. [`DurabilityMode::Ephemeral`] reproduces the historical
    /// engine byte-for-byte.
    pub durability: DurabilityMode,
}

impl ProtocolConfig {
    /// The conventional configuration for a level: pull-based,
    /// default retry interval, one shard, in-memory shards.
    #[must_use]
    pub fn of(kind: ProtocolKind) -> Self {
        ProtocolConfig {
            kind,
            propagation: Propagation::Pull,
            retry_after: DEFAULT_RETRY_AFTER,
            shards: 1,
            durability: DurabilityMode::Ephemeral,
        }
    }

    /// The same configuration with the server fleet partitioned into
    /// `shards` object shards.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a fleet needs at least one shard");
        self.shards = shards;
        self
    }

    /// The same configuration with the given durability mode.
    #[must_use]
    pub fn with_durability(mut self, durability: DurabilityMode) -> Self {
        if let DurabilityMode::Durable { fsync } = durability {
            assert!(
                fsync.max_pending >= 1,
                "a durable shard must sync at least every write"
            );
        }
        self.durability = durability;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_classification() {
        assert!(!ProtocolKind::sc().is_causal_family());
        assert!(!ProtocolKind::Tsc { delta: Delta::ZERO }.is_causal_family());
        assert!(ProtocolKind::cc().is_causal_family());
        assert!(ProtocolKind::Tcc { delta: Delta::ZERO }.is_causal_family());
        assert!(ProtocolKind::TccLogical { xi_delta: 1.0 }.is_causal_family());
        assert!(!ProtocolKind::NoCache.is_causal_family());
    }

    #[test]
    fn delta_extraction() {
        assert_eq!(ProtocolKind::sc().delta(), Some(Delta::INFINITE));
        assert_eq!(ProtocolKind::cc().delta(), Some(Delta::INFINITE));
        assert_eq!(ProtocolKind::NoCache.delta(), None);
        assert_eq!(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(5)
            }
            .delta(),
            Some(Delta::from_ticks(5))
        );
        assert_eq!(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(9)
            }
            .delta(),
            Some(Delta::from_ticks(9))
        );
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            ProtocolKind::sc(),
            ProtocolKind::Tsc { delta: Delta::ZERO },
            ProtocolKind::cc(),
            ProtocolKind::Tcc { delta: Delta::ZERO },
            ProtocolKind::TccLogical { xi_delta: 0.0 },
            ProtocolKind::NoCache,
        ];
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn default_config_is_pull() {
        let c = ProtocolConfig::of(ProtocolKind::cc());
        assert_eq!(c.propagation, Propagation::Pull);
        assert_eq!(c.retry_after, DEFAULT_RETRY_AFTER);
        assert_eq!(DEFAULT_RETRY_AFTER, Delta::from_ticks(500));
        assert_eq!(c.shards, 1);
        assert_eq!(c.durability, DurabilityMode::Ephemeral);
        assert!(!c.durability.is_durable());
    }

    #[test]
    fn durability_builder_and_accessors() {
        let fsync = FsyncPolicy {
            max_pending: 8,
            max_delay: Delta::from_ticks(25),
        };
        let c = ProtocolConfig::of(ProtocolKind::sc())
            .with_durability(DurabilityMode::Durable { fsync });
        assert!(c.durability.is_durable());
        assert_eq!(c.durability.fsync(), Some(fsync));
        assert_eq!(FsyncPolicy::PER_WRITE.max_pending, 1);
        assert_eq!(FsyncPolicy::PER_WRITE.max_delay, Delta::ZERO);
        assert_eq!(DurabilityMode::Ephemeral.fsync(), None);
    }

    #[test]
    fn builder_helpers_set_fleet_knobs() {
        let c = ProtocolConfig::of(ProtocolKind::sc()).with_shards(4);
        assert_eq!(c.shards, 4);
    }
}
