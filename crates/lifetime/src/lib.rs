//! The lifetime-based consistency protocols of §5 of *Timed Consistency
//! for Shared Distributed Objects* (PODC '99), executable on the
//! [`tc_sim`] discrete-event simulator.
//!
//! Clients cache object versions carrying *lifetimes* `[X^α, X^ω]` and keep
//! a per-site `Context_i`; the update rules of §5.1 induce sequential
//! consistency, rule 3 (`Context_i := max(t_i − Δ, Context_i)`) strengthens
//! the timing to TSC (§5.2), vector-clock timestamps give causal
//! consistency, physical *checking times* `X^β` give TCC (§5.3), and a
//! ξ-map gives the purely logical TCC approximation (§5.4).
//!
//! The five levels (plus a no-cache linearizable baseline) share one
//! client/server implementation, selected by [`ProtocolKind`]; stale
//! handling ([`StalePolicy`]) and propagation ([`Propagation`]) are the
//! §5.2 ablation knobs.
//!
//! Every run records its execution as a [`tc_core::History`], so the
//! protocol's consistency claims are *checked*, not assumed — see the
//! tests in the harness and the cross-crate integration tests.
//!
//! # Consistency guarantees (and a reproduction finding)
//!
//! The physical family (`Sc`, `Tsc`) provably induces sequential
//! consistency: writes are serialized by the server and reads respect the
//! lifetime rules. The causal family (`Cc`, `Tcc`, `TccLogical`) uses a
//! *convergent* server (last-writer-wins on concurrent writes), and
//! therefore guarantees **causal convergence** (CCv) on every run. The
//! paper's CC definition is *causal memory* (CM), which holds on the vast
//! majority of executions but can be violated through an entanglement of a
//! site's own stale cached values with later fetched knowledge —
//! [`tc_core::examples::cm_vs_ccv_execution`] preserves a minimal
//! separating trace found by running this very protocol against the
//! paper's own checker. The CM/CCv distinction postdates the paper by 18
//! years (Bouajjani et al., POPL '17); no convergent single-server design
//! can close the gap. `tc-exp protocol-compare` measures the empirical CM
//! rate per protocol.
//!
//! # Example
//!
//! ```
//! use tc_clocks::Delta;
//! use tc_core::checker::min_delta;
//! use tc_lifetime::{run, ProtocolConfig, ProtocolKind, RunConfig};
//! use tc_sim::workload::Workload;
//! use tc_sim::WorldConfig;
//!
//! let config = RunConfig {
//!     protocol: ProtocolConfig::of(ProtocolKind::Tsc {
//!         delta: Delta::from_ticks(100),
//!     }),
//!     n_clients: 2,
//!     workload: Workload::interactive(),
//!     ops_per_client: 25,
//!     world: WorldConfig::deterministic(Delta::from_ticks(2), 42),
//! };
//! let result = run(&config);
//! assert_eq!(result.history.len(), 50);
//! // The protocol honors Δ up to network latency and clock error.
//! assert!(min_delta(&result.history).ticks() <= 100 + 2 * 2 + 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod config;
pub mod control;
pub mod engine;
pub mod geo;
mod harness;
mod msg;
pub mod node;
pub mod oracle;
pub mod store;

pub use config::{
    DurabilityMode, FsyncPolicy, Propagation, ProtocolConfig, ProtocolKind, PushBatch, StalePolicy,
    DEFAULT_RETRY_AFTER,
};
pub use control::{ControlPolicy, ControllerConfig, DeltaCommand, DeltaController, DeltaSchedule};
pub use engine::{ClientEngine, ServerEngine, ShardMap};
pub use geo::{
    conformance_geo, run_geo, run_geo_with, widened_bound_geo, GeoMigrationPlan, GeoRelayEngine,
    GeoRunConfig, GeoShardConfig, Migration, RegionMap, WanProfile,
};
pub use harness::{
    run, run_with, run_with_faults, run_with_private_sources, RunConfig, RunOptions, RunResult,
    StoreFactory,
};
pub use msg::{GeoWrite, InvalidateEntry, Msg, ValidateOutcome, WireVersion};
pub use oracle::{conformance, Conformance, OracleVerdict};
pub use store::{MemStore, Recovery, ShardImage, ShardStore, StoredVersion, WalRecord};
