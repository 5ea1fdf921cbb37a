//! Checker-in-the-loop conformance oracle for (faulted) protocol runs.
//!
//! A fault plan is allowed to make a run *slower* — retries, outage
//! windows, crash recovery all cost time — but never allowed to make the
//! protocol *lie*: the untimed guarantee of the configured level (SC for
//! the physical family, causal convergence for the causal family) must
//! hold unconditionally, and the timed guarantee must hold within a bound
//! widened by exactly what the plan can physically cause. Rule 3 raising
//! `Context_i` is what masks late messages; if it ever failed to, this
//! oracle is where the violation surfaces.
//!
//! The widened bound for a run with threshold Δ is
//!
//! ```text
//! Δ + k·lat + 2·ε_eff + disruption + batch_delay + fsync_delay + slack
//! ```
//!
//! where `k` is the protocol's round-trip factor (2 for TSC, 4 for TCC —
//! the same constants the fault-free harness tests assert), `lat` is the
//! network's worst-case one-way latency, `ε_eff` is the clock bound
//! inflated by injected skew ([`crate::RunResult::epsilon`] of a faulted
//! run), `disruption` is [`FaultPlan::max_disruption`] plus one client
//! retry interval whenever the plan can black-hole a message (the protocol
//! notices a loss only at its next retry), `batch_delay` is the
//! [`crate::PushBatch::max_delay`] when deadline-batched push
//! invalidations are enabled (an invalidation may sit in a shard's pending
//! batch that long before it ships — conservatively charged even though
//! the client-side pull rules enforce Δ on their own), `fsync_delay` is the
//! [`crate::FsyncPolicy::max_delay`] when the shard store is
//! [`crate::DurabilityMode::Durable`] (readers are served from the durable
//! image only, so a write may stay invisible for up to one fsync deadline
//! after the shard applied it — zero for the per-write policy, and zero
//! for [`crate::DurabilityMode::Ephemeral`], whose store is durable
//! instantly), and `slack` absorbs the ±1 rounding of event scheduling and
//! trace recording.
//!
//! Note what crash–restart does **not** add under the durable backend: a
//! killed shard's recovery widens the bound only through `disruption` (the
//! outage window, as for any crash) plus the `fsync_delay` already charged
//! — the replay gap is exactly the unfsynced tail, whose writes were never
//! acked and are retransmitted like any lost message. Under the ephemeral
//! backend a crash loses the whole store and the same disruption term
//! applies, but recovery then *forgets* — the oracle still judges such
//! runs because unacked writes are indistinguishable from dropped
//! messages; what durability buys is acked writes surviving, which the
//! recovery experiments assert directly.
//!
//! An unbounded-latency network (exponential model) admits no finite
//! bound, and so does a plan whose disruption is unbounded — an outage
//! rule with a never-closing window can defeat every retransmission
//! ([`FaultPlan::max_disruption`] returns `None`). In both cases the
//! oracle checks only the untimed guarantee and reports
//! [`Conformance::bound`] as `None`.

use tc_clocks::{Delta, Epsilon};
use tc_core::checker::{
    check_on_time, min_delta_eps, satisfies_ccv, satisfies_sc_with, Outcome, SearchOptions,
};
use tc_sim::FaultPlan;

use crate::{ProtocolKind, RunConfig, RunResult};

/// The oracle's judgement of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleVerdict {
    /// Every operation completed and every guarantee held within the
    /// fault-widened bound.
    Conforms,
    /// The run traded progress for safety: not every operation completed
    /// (the protocol stalled against an outage), but everything that *was*
    /// recorded satisfies the guarantees. This is correct degradation —
    /// faults may stall the protocol, never make it lie.
    Stalled,
    /// A guarantee was broken — a protocol bug, not an acceptable fault
    /// response.
    Violated(
        /// What broke, for the failing assertion's message.
        String,
    ),
}

/// Everything the oracle measured while judging a run.
#[derive(Clone, Debug)]
pub struct Conformance {
    /// The judgement.
    pub verdict: OracleVerdict,
    /// Smallest Δ for which the recorded history is timed (under the run's
    /// effective ε).
    pub observed_staleness: Delta,
    /// The widened staleness bound the oracle enforced, if the protocol
    /// level has a timed guarantee and the network has a finite latency
    /// bound.
    pub bound: Option<Delta>,
    /// Operations actually recorded.
    pub ops_recorded: usize,
    /// Operations the workload was configured to perform.
    pub ops_expected: usize,
    /// Cross-check of the streaming monitor against the batch checkers:
    /// `None` when they agree, otherwise a description of the divergence.
    /// A divergence means the run's online judgement cannot be trusted —
    /// a checker bug, not a protocol bug — and the verdict is
    /// [`OracleVerdict::Violated`]. Release builds perform this check too
    /// (it used to be debug-only, which let a silently wrong monitor
    /// vouch for release-mode experiment runs).
    pub monitor_mismatch: Option<String>,
}

impl Conformance {
    /// Whether the verdict is anything other than [`OracleVerdict::Violated`].
    #[must_use]
    pub fn acceptable(&self) -> bool {
        !matches!(self.verdict, OracleVerdict::Violated(_))
    }
}

/// The widened staleness bound for `config` under `plan`, or `None` when
/// the protocol level is untimed, the network latency is unbounded, or
/// the plan's disruption is unbounded.
#[must_use]
pub fn widened_bound(config: &RunConfig, plan: &FaultPlan, eps: Epsilon) -> Option<Delta> {
    let (delta, round_trips) = match config.protocol.kind {
        ProtocolKind::Tsc { delta } => (delta, 2),
        ProtocolKind::Tcc { delta } => (delta, 4),
        _ => return None,
    };
    let lat = config.world.net.latency.upper_bound()?;
    let disruption = plan.max_disruption()?;
    let retry = if disruption.ticks() > 0 {
        config.protocol.retry_after.ticks()
    } else {
        0
    };
    // Deadline-batched pushes may hold an invalidation for up to the batch
    // deadline before it ships. An infinite deadline means "flush on
    // fullness only" — pushes then carry no timeliness at all, but the
    // pull rules still enforce Δ, so no finite widening can be charged;
    // treat it like the push-free case (no extra term, bound stays
    // finite).
    let batch = config.protocol.push_batch;
    let batch_delay = if config.protocol.propagation == crate::Propagation::PushInvalidate
        && batch.is_enabled()
    {
        if batch.max_delay.is_infinite() {
            0
        } else {
            batch.max_delay.ticks()
        }
    } else {
        0
    };
    // A durable store serves readers from its fsynced image only, so an
    // applied write may stay invisible for up to one fsync deadline. An
    // infinite deadline (group-fullness-only syncing) can delay visibility
    // arbitrarily — no finite bound exists.
    let fsync_delay = match config.protocol.durability.fsync() {
        None => 0,
        Some(policy) => {
            if policy.max_delay.is_infinite() {
                return None;
            }
            policy.max_delay.ticks()
        }
    };
    Some(Delta::from_ticks(
        delta.ticks()
            + round_trips * lat.ticks()
            + 2 * eps.ticks()
            + disruption.ticks()
            + retry
            + batch_delay
            + fsync_delay
            + 4,
    ))
}

/// Judges one run against the guarantees its configuration promises,
/// widened by what `plan` may legitimately cost. `result` must come from
/// [`crate::run_with`] with the same `config` and `plan` (its `epsilon`
/// already includes injected skew).
#[must_use]
pub fn conformance(config: &RunConfig, plan: &FaultPlan, result: &RunResult) -> Conformance {
    judge(
        result,
        widened_bound(config, plan, result.epsilon),
        config.n_clients * config.ops_per_client,
        config.protocol.kind.is_causal_family(),
    )
}

/// The one judge behind [`conformance`] and [`crate::conformance_geo`]:
/// `bound` is the widened bound the caller's config and plan promise,
/// `ops_expected` what the workload was to perform, and `causal` selects
/// the untimed guarantee (causal convergence, else SC).
pub(crate) fn judge(
    result: &RunResult,
    bound: Option<Delta>,
    ops_expected: usize,
    causal: bool,
) -> Conformance {
    let eps = result.epsilon;
    let ops_recorded = result.history.len();
    // The harness's streaming monitor already judged every read as it was
    // recorded (one incremental pass over the run), so the oracle reads
    // its outputs instead of re-scanning the history per read. The monitor
    // is cross-checked against the batch sweep-line checker in every
    // build: a divergence is reported structurally (and judged Violated)
    // instead of tripping a debug-only assertion that release experiment
    // runs would sail past.
    let observed = result.observed_staleness;
    let mut monitor_mismatch: Option<String> = None;
    // `min_delta` is Δ-independent, so this holds for adaptive runs too.
    let batch_observed = min_delta_eps(&result.history, eps);
    if observed != batch_observed {
        monitor_mismatch = Some(format!(
            "monitor min_delta {} != batch checker {}",
            observed.ticks(),
            batch_observed.ticks()
        ));
    } else if result.delta_schedule.is_none() {
        // The batch checker judges one scalar Δ; when a Δ-schedule was in
        // force it has no equivalent sweep, so the full-report comparison
        // only applies to fixed-Δ runs.
        let batch = check_on_time(
            &result.history,
            result.on_time.delta(),
            result.on_time.eps(),
        );
        if result.on_time != batch {
            monitor_mismatch = Some(format!(
                "monitor report diverges from the batch checker: \
                 monitor found {} violation(s), batch found {}",
                result.on_time.violations().len(),
                batch.violations().len()
            ));
        }
    }
    // The harness judged the run at the widened bound of *its* config and
    // plan; a different one means the caller is judging a result against
    // the wrong configuration.
    if monitor_mismatch.is_none()
        && (result.bound != bound || bound.is_some_and(|b| result.on_time.delta() != b))
    {
        monitor_mismatch = Some(format!(
            "monitor judged Δ={} (run bound {:?}) but the widened bound for this config \
             and plan is {:?} — result does not match config/plan",
            result.on_time.delta().ticks(),
            result.bound.map(|b| b.ticks()),
            bound.map(|b| b.ticks()),
        ));
    }

    let mut violation: Option<String> = None;
    let mut note = |broken: String| {
        if violation.is_none() {
            violation = Some(broken);
        }
    };

    // A checker that disagrees with itself cannot vouch for the run, so
    // the cross-check outranks the judgements it underpins.
    if let Some(m) = &monitor_mismatch {
        note(format!("monitor/batch cross-check diverged: {m}"));
    }

    // Untimed safety holds unconditionally, on whatever prefix completed.
    if causal {
        if satisfies_ccv(&result.history) != Outcome::Satisfied {
            note("causal convergence (CCv) violated".to_string());
        }
    } else if !satisfies_sc_with(&result.history, SearchOptions::default())
        .outcome()
        .holds()
    {
        note("sequential consistency violated".to_string());
    }

    // Timed safety holds within the widened bound. The monitor was
    // configured with exactly this bound by the harness (same config and
    // plan), so its verdict is the widened-bound verdict — unless the
    // caller handed us a result from a different config/plan, which the
    // cross-check above already flagged.
    if let Some(bound) = bound {
        if !result.on_time.holds() {
            note(format!(
                "timed bound broken: observed staleness {} exceeds widened bound {} \
                 (Δ-violating reads survived the fault plan)",
                observed.ticks(),
                bound.ticks()
            ));
        }
    }

    let verdict = match violation {
        Some(v) => OracleVerdict::Violated(v),
        None if ops_recorded < ops_expected => OracleVerdict::Stalled,
        None => OracleVerdict::Conforms,
    };
    Conformance {
        verdict,
        observed_staleness: observed,
        bound,
        ops_recorded,
        ops_expected,
        monitor_mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, run_with_faults, ProtocolConfig};
    use tc_sim::workload::Workload;
    use tc_sim::WorldConfig;

    fn cfg(kind: ProtocolKind, seed: u64) -> RunConfig {
        RunConfig {
            protocol: ProtocolConfig::of(kind),
            n_clients: 3,
            workload: Workload::new(4, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40))),
            ops_per_client: 30,
            world: WorldConfig::deterministic(Delta::from_ticks(3), seed),
        }
    }

    #[test]
    fn fault_free_runs_conform() {
        for kind in [
            ProtocolKind::Sc,
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(60),
            },
            ProtocolKind::Cc,
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(60),
            },
        ] {
            let config = cfg(kind, 21);
            let result = run(&config);
            let c = conformance(&config, &FaultPlan::none(), &result);
            assert_eq!(c.verdict, OracleVerdict::Conforms, "{}", kind.label());
            assert_eq!(c.ops_recorded, c.ops_expected);
        }
    }

    #[test]
    fn widened_bound_accounts_for_the_plan() {
        let config = cfg(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(60),
            },
            0,
        );
        let quiet = widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO).unwrap();
        let noisy_plan = FaultPlan::none().partition(tc_sim::Window::ticks(100, 400), vec![0]);
        let noisy = widened_bound(&config, &noisy_plan, Epsilon::ZERO).unwrap();
        // 300 ticks of outage plus one retry interval.
        assert_eq!(noisy.ticks(), quiet.ticks() + 300 + 500);
        assert_eq!(
            widened_bound(&config, &FaultPlan::none(), Epsilon::from_ticks(5))
                .unwrap()
                .ticks(),
            quiet.ticks() + 10
        );
        // Untimed levels have no bound.
        assert_eq!(
            widened_bound(&cfg(ProtocolKind::Sc, 0), &FaultPlan::none(), Epsilon::ZERO),
            None
        );
        // Nor do plans whose disruption never heals: a whole-run drop rule
        // can defeat every retransmission, so no finite widening is sound.
        let endless = FaultPlan::none().with(
            tc_sim::Window::always(),
            tc_sim::Scope::All,
            tc_sim::FaultKind::Drop { probability: 0.1 },
        );
        assert_eq!(widened_bound(&config, &endless, Epsilon::ZERO), None);
    }

    #[test]
    fn widened_bound_charges_the_push_batch_deadline() {
        let mut config = cfg(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(60),
            },
            0,
        );
        let quiet = widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO).unwrap();
        // Batching without push propagation: no charge.
        config.protocol = config.protocol.with_push_batch(crate::PushBatch {
            max_entries: 8,
            max_delay: Delta::from_ticks(25),
        });
        assert_eq!(
            widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO).unwrap(),
            quiet
        );
        // Push propagation with a batch deadline: charged in full.
        config.protocol.propagation = crate::Propagation::PushInvalidate;
        assert_eq!(
            widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO)
                .unwrap()
                .ticks(),
            quiet.ticks() + 25
        );
        // Fullness-only batches (infinite deadline) add nothing — the pull
        // rules alone carry the Δ bound.
        config.protocol.push_batch.max_delay = Delta::INFINITE;
        assert_eq!(
            widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO).unwrap(),
            quiet
        );
    }

    #[test]
    fn widened_bound_charges_the_fsync_deadline() {
        use crate::{DurabilityMode, FsyncPolicy};
        let mut config = cfg(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(60),
            },
            0,
        );
        let quiet = widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO).unwrap();
        // Per-write fsync: acks wait for durability but visibility is
        // never deferred past the write — no charge.
        config.protocol = config.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        assert_eq!(
            widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO).unwrap(),
            quiet
        );
        // Deadline-batched fsync: charged in full.
        config.protocol = config.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy {
                max_pending: 8,
                max_delay: Delta::from_ticks(25),
            },
        });
        assert_eq!(
            widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO)
                .unwrap()
                .ticks(),
            quiet.ticks() + 25
        );
        // Fullness-only syncing (infinite deadline) defers visibility
        // unboundedly: no finite bound.
        config.protocol = config.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy {
                max_pending: 8,
                max_delay: Delta::INFINITE,
            },
        });
        assert_eq!(
            widened_bound(&config, &FaultPlan::none(), Epsilon::ZERO),
            None
        );
    }

    #[test]
    fn seeded_monitor_divergence_is_flagged_in_every_build() {
        let config = cfg(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(60),
            },
            3,
        );
        let mut result = run(&config);
        // Sanity: the untampered run agrees with itself.
        let clean = conformance(&config, &FaultPlan::none(), &result);
        assert_eq!(clean.monitor_mismatch, None);

        // Seed a divergence: pretend the streaming monitor reported a
        // staleness the batch checker cannot reproduce.
        result.observed_staleness = Delta::from_ticks(result.observed_staleness.ticks() + 1234);
        let c = conformance(&config, &FaultPlan::none(), &result);
        let mismatch = c.monitor_mismatch.expect("divergence must be reported");
        assert!(mismatch.contains("min_delta"), "{mismatch}");
        assert!(
            matches!(&c.verdict, OracleVerdict::Violated(v) if v.contains("cross-check")),
            "verdict: {:?}",
            c.verdict
        );
    }

    #[test]
    fn result_from_mismatched_config_is_flagged() {
        use tc_core::checker::check_on_time;
        let config = cfg(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(60),
            },
            9,
        );
        let mut result = run(&config);
        // Re-judge the history at a Δ that is not this config's widened
        // bound — as if the result came from a different run.
        result.on_time = check_on_time(
            &result.history,
            Delta::from_ticks(9999),
            result.on_time.eps(),
        );
        let c = conformance(&config, &FaultPlan::none(), &result);
        assert!(!c.acceptable());
        let mismatch = c.monitor_mismatch.expect("bound mismatch must be reported");
        assert!(mismatch.contains("widened bound"), "{mismatch}");
    }

    #[test]
    fn faulted_run_is_judged_with_the_widened_bound() {
        let config = cfg(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(60),
            },
            5,
        );
        let plan = FaultPlan::none().with(
            tc_sim::Window::ticks(200, 600),
            tc_sim::Scope::All,
            tc_sim::FaultKind::Drop { probability: 1.0 },
        );
        let result = run_with_faults(&config, plan.clone());
        let c = conformance(&config, &plan, &result);
        assert!(c.acceptable(), "verdict: {:?}", c.verdict);
        assert!(c.bound.unwrap() >= Delta::from_ticks(60 + 400));
    }
}
