//! Adaptive Δ control plane: convergence and soundness properties.
//!
//! The controller retunes Δ online from the streaming monitor's running
//! `min_delta` and backpressure signals. Under a stationary workload the
//! commanded Δ must settle within a bounded band of the measured
//! achievable staleness — tight enough to beat a loose static
//! configuration, never below what the fleet demonstrably delivers — and
//! the run must stay on time against the schedule actually in force.

use timed_consistency::clocks::Delta;
use timed_consistency::lifetime::{
    run_with, ControllerConfig, ProtocolConfig, ProtocolKind, RunConfig, RunOptions, RunResult,
};
use timed_consistency::sim::workload::Workload;
use timed_consistency::sim::WorldConfig;

/// A deliberately loose starting Δ: the controller has real distance to
/// close, so convergence is exercised rather than assumed.
const BASE_DELTA: u64 = 400;
const N_CLIENTS: usize = 3;
const OPS: usize = 60;

fn config(seed: u64) -> RunConfig {
    RunConfig {
        protocol: ProtocolConfig::of(ProtocolKind::Tsc {
            delta: Delta::from_ticks(BASE_DELTA),
        }),
        n_clients: N_CLIENTS,
        workload: Workload::interactive(),
        ops_per_client: OPS,
        world: WorldConfig::deterministic(Delta::from_ticks(2), seed),
    }
}

fn controller() -> ControllerConfig {
    ControllerConfig::new(
        Delta::from_ticks(10),
        Delta::from_ticks(2 * BASE_DELTA),
        Delta::from_ticks(40),
    )
}

fn adaptive_run(cfg: &RunConfig, ctrl: ControllerConfig) -> RunResult {
    run_with(
        cfg,
        RunOptions {
            adaptive: Some(ctrl),
            ..RunOptions::default()
        },
    )
}

/// Across seeds: the adaptive run issues commands, settles inside
/// [observed, 2·target] where target = headroom · observed `min_delta`,
/// and never violates the in-force (widened) schedule.
#[test]
fn adaptive_delta_converges_to_measured_staleness_band() {
    for seed in [7_u64, 42, 1999, 31337] {
        let cfg = config(seed);
        let ctrl = controller();
        let result = adaptive_run(&cfg, ctrl);

        let schedule = result
            .delta_schedule
            .as_ref()
            .expect("adaptive runs return the commanded schedule");
        assert!(
            !schedule.is_empty(),
            "seed {seed}: controller never issued a command \
             (base Δ={BASE_DELTA} should be far above achievable staleness)"
        );

        let observed = result.observed_staleness;
        let target = ctrl.target(observed);
        let settled = schedule.delta_at(result.finished_at);
        assert!(
            settled >= observed,
            "seed {seed}: settled Δ {settled:?} below measured min_delta {observed:?} \
             — the controller commanded tighter than the fleet delivers"
        );
        assert!(
            settled.ticks() <= 2 * target.ticks(),
            "seed {seed}: settled Δ {settled:?} not within 2·target of \
             target {target:?} (observed {observed:?})"
        );
        assert!(
            settled.ticks() < BASE_DELTA,
            "seed {seed}: controller failed to tighten below the loose base"
        );

        // Soundness: judged against the schedule actually in force, the
        // run stays on time.
        assert!(
            result.on_time.violations().is_empty(),
            "seed {seed}: {} violations against the in-force schedule",
            result.on_time.violations().len()
        );

        // The commanded schedule is monotone in time (last-writer-wins
        // clamping) and every commanded Δ respects the configured band.
        for &(_, d) in &schedule.changes {
            assert!(d >= ctrl.delta_min && d <= ctrl.delta_max);
        }

        // Clients heard the commands: the applied counter is non-zero.
        let applied = result
            .metrics
            .counters
            .get("delta_applied")
            .copied()
            .unwrap_or(0);
        assert!(applied > 0, "seed {seed}: no client ever applied a command");

        // Adaptive wins over its loose starting point on time-averaged Δ.
        let avg = schedule.time_averaged(result.finished_at);
        assert!(
            avg < BASE_DELTA as f64,
            "seed {seed}: time-averaged Δ {avg} not below the static base"
        );
    }
}

/// Determinism: same seed, same controller, same schedule — the control
/// plane rides the deterministic simulation like everything else.
#[test]
fn adaptive_delta_is_deterministic() {
    let cfg = config(99);
    let a = adaptive_run(&cfg, controller());
    let b = adaptive_run(&cfg, controller());
    assert_eq!(a.delta_schedule, b.delta_schedule);
    assert_eq!(a.history.len(), b.history.len());
    assert_eq!(a.observed_staleness, b.observed_staleness);
    assert_eq!(a.finished_at, b.finished_at);
}
