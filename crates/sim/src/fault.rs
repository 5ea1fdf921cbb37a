//! Deterministic fault injection: message loss, duplication, reordering,
//! network partitions, clock skew, and node crash–restart.
//!
//! A [`FaultPlan`] is a list of [`FaultRule`]s, each active during a
//! half-open true-time [`Window`] and restricted to a [`Scope`] of node
//! pairs. It is the simulator's only fault vocabulary: the
//! [`crate::World`]'s network never loses a message and its clocks never
//! leave true time on their own. The world consults the plan on every
//! message send and clock reading, drawing any probabilistic choices from
//! a dedicated RNG stream seeded from the world seed — so a faulted run is
//! exactly as reproducible as a fault-free one, and adding a zero-effect
//! rule does not perturb the base simulation's random choices.
//!
//! Faults are expressed against *node indices* (`NodeId::index`), because
//! plans are built before nodes exist.
//!
//! The conformance story: every fault a plan can inject is either masked by
//! the protocol (retries, revalidation, rule 3's context raise) or visibly
//! degrades availability — it must never silently violate the timed bound.
//! [`FaultPlan::max_disruption`] and [`FaultPlan::max_abs_skew`] report the
//! worst-case extra latency and clock divergence a plan can cause, which is
//! what an oracle needs to widen its Δ bound soundly.

use rand::rngs::StdRng;
use rand::Rng;
use tc_clocks::{Delta, Time};

/// Half-open true-time interval `[from, until)` during which a rule is
/// active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    /// First tick (inclusive) the rule applies.
    pub from: Time,
    /// First tick (exclusive) the rule no longer applies.
    pub until: Time,
}

impl Window {
    /// A window covering the whole run.
    #[must_use]
    pub const fn always() -> Self {
        Window {
            from: Time::ZERO,
            until: Time::MAX,
        }
    }

    /// `[from, until)` from tick values.
    ///
    /// # Panics
    ///
    /// Panics if `from > until`.
    #[must_use]
    pub fn ticks(from: u64, until: u64) -> Self {
        assert!(from <= until, "window needs from <= until");
        Window {
            from: Time::from_ticks(from),
            until: Time::from_ticks(until),
        }
    }

    /// Whether `t` falls inside the window.
    #[must_use]
    pub fn contains(&self, t: Time) -> bool {
        self.from <= t && t < self.until
    }

    /// Window length in ticks (0 for `always`-style unbounded windows is
    /// impossible: those saturate at `Time::MAX`).
    #[must_use]
    pub fn len(&self) -> Delta {
        Delta::from_ticks(self.until.ticks().saturating_sub(self.from.ticks()))
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.from >= self.until
    }
}

/// Which messages a message-level rule applies to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every message.
    All,
    /// Messages sent by this node.
    From(usize),
    /// Messages delivered to this node.
    To(usize),
    /// Messages between this unordered pair, either direction.
    Between(usize, usize),
}

impl Scope {
    /// Whether a `src → dst` message is in scope.
    #[must_use]
    pub fn matches(&self, src: usize, dst: usize) -> bool {
        match *self {
            Scope::All => true,
            Scope::From(n) => src == n,
            Scope::To(n) => dst == n,
            Scope::Between(a, b) => (src == a && dst == b) || (src == b && dst == a),
        }
    }
}

/// One kind of injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Drop in-scope messages with this probability (1.0 = all).
    Drop {
        /// Per-message drop probability.
        probability: f64,
    },
    /// Deliver in-scope messages twice with this probability; the second
    /// copy arrives `extra_delay` after the first, outside the FIFO clamp.
    Duplicate {
        /// Per-message duplication probability.
        probability: f64,
        /// Lag of the duplicate copy behind the original.
        extra_delay: Delta,
    },
    /// Add uniform jitter in `[0, max_jitter]` to in-scope messages,
    /// *after* any FIFO clamp — so jitter genuinely reorders even on FIFO
    /// networks (modelling a multipath network, not a single TCP stream).
    Reorder {
        /// Maximum added delay.
        max_jitter: Delta,
    },
    /// Cut the listed nodes off from everyone else (messages crossing the
    /// cut, in either direction, are dropped). Heals when the window ends.
    /// The scope field is ignored for partitions.
    Partition {
        /// Node indices on the isolated side of the cut.
        isolated: Vec<usize>,
    },
    /// Add a constant offset to one node's local clock readings while the
    /// window is active. This is how a run gets §3.2's ε-synchronized
    /// clocks: a node reads true time plus the offsets in force, so the
    /// pairwise divergence is at most twice [`FaultPlan::max_abs_skew`].
    ClockSkew {
        /// The affected node.
        node: usize,
        /// Offset in ticks (may be negative).
        offset: i64,
    },
    /// Crash `node` at the window start and restart it at the window end
    /// via [`crate::Process::on_restart`]. While down, pending timers die
    /// and deliveries are dropped. What the crash *destroys* depends on
    /// the node's storage backend, not on this rule: volatile state is
    /// always lost, and durable state drives recovery — everything for a
    /// node over an in-memory "infinitely fast disk" backend (e.g.
    /// `tc-lifetime`'s `MemStore`), everything up to the last fsync for a
    /// write-ahead-logged backend (`tc-durable`), which replays its log on
    /// restart and loses only the unsynced tail. A conformance oracle
    /// widening a timed bound must therefore read which backend was in
    /// force: the outage window is charged either way, but only a durable
    /// backend's fsync deadline adds a visibility term (see
    /// `tc_lifetime::oracle`).
    Crash {
        /// The crashed node.
        node: usize,
    },
    /// Kill server shard `shard` at the window start and restart it at the
    /// window end — the shard-targeted form of [`FaultKind::Crash`], named
    /// so plans read as storage experiments ("kill shard 0 mid-run, does
    /// recovery replay?"). The node index *is* the shard index under the
    /// harness layout (nodes `0..shards` are the server shards, in every
    /// driver). Drivers honour it like a crash: the simulator through the
    /// crash schedule, the real-time drivers through their shard core's
    /// outage gate.
    KillShard {
        /// The killed shard (= node index).
        shard: usize,
    },
}

/// A fault kind active in a window over a scope.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// When the rule is active (true time).
    pub window: Window,
    /// Which messages it applies to (message-level kinds only).
    pub scope: Scope,
    /// What it does.
    pub kind: FaultKind,
}

/// Whether a `src → dst` message crosses the cut around `isolated`.
fn severs(isolated: &[usize], src: usize, dst: usize) -> bool {
    isolated.contains(&src) != isolated.contains(&dst)
}

/// A deterministic, schedulable set of fault rules.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// The rules, consulted in order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Builder-style rule append.
    #[must_use]
    pub fn with(mut self, window: Window, scope: Scope, kind: FaultKind) -> Self {
        if let FaultKind::Drop { probability } | FaultKind::Duplicate { probability, .. } = &kind {
            assert!(
                (0.0..=1.0).contains(probability),
                "fault probability out of range"
            );
        }
        self.rules.push(FaultRule {
            window,
            scope,
            kind,
        });
        self
    }

    /// Shorthand: drop all messages between the isolated set and the rest
    /// during `window`.
    #[must_use]
    pub fn partition(self, window: Window, isolated: Vec<usize>) -> Self {
        self.with(window, Scope::All, FaultKind::Partition { isolated })
    }

    /// Shorthand: crash `node` at `window.from`, restart at `window.until`.
    #[must_use]
    pub fn crash(self, window: Window, node: usize) -> Self {
        self.with(window, Scope::All, FaultKind::Crash { node })
    }

    /// Shorthand: kill server shard `shard` at `window.from`, restart it at
    /// `window.until` (the `KillShard`/`RestartShard` pair as one windowed
    /// rule, mirroring [`FaultPlan::crash`]).
    #[must_use]
    pub fn kill_shard(self, window: Window, shard: usize) -> Self {
        self.with(window, Scope::All, FaultKind::KillShard { shard })
    }

    /// Whether a `src → dst` message sent at `now` is killed by a drop or
    /// partition rule. Consumes randomness only for probabilistic rules
    /// that are active and in scope.
    #[must_use]
    pub fn kills_message(&self, now: Time, src: usize, dst: usize, rng: &mut StdRng) -> bool {
        for rule in &self.rules {
            if !rule.window.contains(now) {
                continue;
            }
            match &rule.kind {
                FaultKind::Drop { probability }
                    if rule.scope.matches(src, dst)
                        && (*probability >= 1.0
                            || (*probability > 0.0 && rng.gen_bool(*probability))) =>
                {
                    return true;
                }
                FaultKind::Partition { isolated } if severs(isolated, src, dst) => return true,
                _ => {}
            }
        }
        false
    }

    /// Whether an active partition rule cuts `src` off from `dst` at
    /// `now` — the one per-send fault check of a real driver, which
    /// renders no probabilistic kind.
    #[must_use]
    pub fn partitions(&self, now: Time, src: usize, dst: usize) -> bool {
        self.rules.iter().any(|rule| {
            rule.window.contains(now)
                && matches!(&rule.kind, FaultKind::Partition { isolated } if severs(isolated, src, dst))
        })
    }

    /// Extra delay to add to a `src → dst` message sent at `now` (sum of
    /// active reorder rules' jitter samples).
    #[must_use]
    pub fn reorder_jitter(&self, now: Time, src: usize, dst: usize, rng: &mut StdRng) -> Delta {
        let mut extra = 0u64;
        for rule in &self.rules {
            if !rule.window.contains(now) || !rule.scope.matches(src, dst) {
                continue;
            }
            if let FaultKind::Reorder { max_jitter } = rule.kind {
                if max_jitter.ticks() > 0 {
                    extra += rng.gen_range(0..=max_jitter.ticks());
                }
            }
        }
        Delta::from_ticks(extra)
    }

    /// If a `src → dst` message sent at `now` should be duplicated,
    /// returns the duplicate's lag behind the original.
    #[must_use]
    pub fn duplicates(&self, now: Time, src: usize, dst: usize, rng: &mut StdRng) -> Option<Delta> {
        for rule in &self.rules {
            if !rule.window.contains(now) || !rule.scope.matches(src, dst) {
                continue;
            }
            if let FaultKind::Duplicate {
                probability,
                extra_delay,
            } = rule.kind
            {
                if probability >= 1.0 || (probability > 0.0 && rng.gen_bool(probability)) {
                    return Some(extra_delay);
                }
            }
        }
        None
    }

    /// Clock offset (in ticks) applied to `node`'s local readings at `now`.
    #[must_use]
    pub fn skew(&self, now: Time, node: usize) -> i64 {
        let mut total = 0i64;
        for rule in &self.rules {
            if !rule.window.contains(now) {
                continue;
            }
            if let FaultKind::ClockSkew { node: n, offset } = rule.kind {
                if n == node {
                    total += offset;
                }
            }
        }
        total
    }

    /// Crash and restart times, per crash rule: `(node, crash_at,
    /// restart_at)`.
    #[must_use]
    pub fn crash_schedule(&self) -> Vec<(usize, Time, Time)> {
        self.rules
            .iter()
            .filter_map(|r| match r.kind {
                FaultKind::Crash { node } | FaultKind::KillShard { shard: node } => {
                    Some((node, r.window.from, r.window.until))
                }
                _ => None,
            })
            .collect()
    }

    /// Worst extra delay (ticks) any single message can suffer before the
    /// protocol's own retransmission gets through: the longest outage
    /// window (drop / partition / crash) plus the largest reorder /
    /// duplicate lag. An oracle checking a timed bound Δ against a faulted
    /// run must allow this much extra staleness on top of the fault-free
    /// bound (plus one protocol retry interval, which is the *protocol's*
    /// constant, not the plan's).
    ///
    /// Returns `None` when the disruption is unbounded — an outage rule
    /// whose window never closes can defeat every retransmission, so no
    /// finite Δ widening is sound and an oracle must fall back to the
    /// untimed guarantee alone.
    #[must_use]
    pub fn max_disruption(&self) -> Option<Delta> {
        let mut outage = 0u64;
        let mut lag = 0u64;
        for rule in &self.rules {
            match &rule.kind {
                FaultKind::Drop { probability } if *probability > 0.0 => {
                    if rule.window.until == Time::MAX {
                        return None;
                    }
                    outage = outage.max(rule.window.len().ticks());
                }
                FaultKind::Partition { .. }
                | FaultKind::Crash { .. }
                | FaultKind::KillShard { .. } => {
                    if rule.window.until == Time::MAX {
                        return None;
                    }
                    outage = outage.max(rule.window.len().ticks());
                }
                FaultKind::Reorder { max_jitter } => lag = lag.max(max_jitter.ticks()),
                FaultKind::Duplicate { extra_delay, .. } => lag = lag.max(extra_delay.ticks()),
                _ => {}
            }
        }
        Some(Delta::from_ticks(outage + lag))
    }

    /// Largest absolute clock offset the skew rules inject into any one
    /// node at any instant: the rules in force for a node add up
    /// ([`FaultPlan::skew`]). The effective pairwise clock bound ε of a
    /// run is *twice* this (both endpoints of a pair may be skewed in
    /// opposite directions). A node's offset changes only where one of
    /// its rules' windows opens or closes, so those edges are the only
    /// instants to look at.
    #[must_use]
    pub fn max_abs_skew(&self) -> u64 {
        self.rules
            .iter()
            .filter_map(|r| match r.kind {
                FaultKind::ClockSkew { node, .. } => Some((node, r.window)),
                _ => None,
            })
            .flat_map(|(node, w)| [w.from, w.until].map(|t| self.skew(t, node).unsigned_abs()))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn windows_are_half_open() {
        let w = Window::ticks(10, 20);
        assert!(!w.contains(Time::from_ticks(9)));
        assert!(w.contains(Time::from_ticks(10)));
        assert!(w.contains(Time::from_ticks(19)));
        assert!(!w.contains(Time::from_ticks(20)));
        assert_eq!(w.len(), Delta::from_ticks(10));
        assert!(Window::ticks(5, 5).is_empty());
        assert!(Window::always().contains(Time::from_ticks(u64::MAX / 2)));
    }

    #[test]
    fn scopes_match_directionally() {
        assert!(Scope::All.matches(0, 1));
        assert!(Scope::From(2).matches(2, 0) && !Scope::From(2).matches(0, 2));
        assert!(Scope::To(2).matches(0, 2) && !Scope::To(2).matches(2, 0));
        assert!(Scope::Between(1, 3).matches(3, 1) && Scope::Between(1, 3).matches(1, 3));
        assert!(!Scope::Between(1, 3).matches(1, 2));
    }

    #[test]
    fn drop_rule_kills_only_in_window_and_scope() {
        let plan = FaultPlan::none().with(
            Window::ticks(100, 200),
            Scope::From(1),
            FaultKind::Drop { probability: 1.0 },
        );
        let mut r = rng();
        assert!(plan.kills_message(Time::from_ticks(150), 1, 0, &mut r));
        assert!(!plan.kills_message(Time::from_ticks(150), 0, 1, &mut r));
        assert!(!plan.kills_message(Time::from_ticks(99), 1, 0, &mut r));
        assert!(!plan.kills_message(Time::from_ticks(200), 1, 0, &mut r));
    }

    #[test]
    fn partition_cuts_both_directions_and_heals() {
        let plan = FaultPlan::none().partition(Window::ticks(50, 60), vec![0]);
        let mut r = rng();
        assert!(plan.kills_message(Time::from_ticks(55), 0, 1, &mut r));
        assert!(plan.kills_message(Time::from_ticks(55), 1, 0, &mut r));
        // Within the isolated side (or fully outside it) traffic flows.
        assert!(!plan.kills_message(Time::from_ticks(55), 1, 2, &mut r));
        // Healed.
        assert!(!plan.kills_message(Time::from_ticks(60), 0, 1, &mut r));
    }

    #[test]
    fn skew_sums_active_rules_only() {
        let plan = FaultPlan::none()
            .with(
                Window::ticks(0, 100),
                Scope::All,
                FaultKind::ClockSkew {
                    node: 2,
                    offset: 40,
                },
            )
            .with(
                Window::ticks(50, 100),
                Scope::All,
                FaultKind::ClockSkew {
                    node: 2,
                    offset: -10,
                },
            );
        assert_eq!(plan.skew(Time::from_ticks(10), 2), 40);
        assert_eq!(plan.skew(Time::from_ticks(60), 2), 30);
        assert_eq!(plan.skew(Time::from_ticks(10), 1), 0);
        assert_eq!(plan.skew(Time::from_ticks(100), 2), 0);
        assert_eq!(plan.max_abs_skew(), 40);
    }

    /// Two same-sign rules overlapping on one node push its clock by
    /// their sum, and the run's ε must be judged at that, not at the
    /// larger rule alone; the same offsets on two nodes do not add up.
    #[test]
    fn max_abs_skew_sums_overlapping_rules_on_one_node() {
        let skew = |node, offset, from, until| {
            (
                Window::ticks(from, until),
                FaultKind::ClockSkew { node, offset },
            )
        };
        let plan = |rules: [(Window, FaultKind); 2]| {
            rules
                .into_iter()
                .fold(FaultPlan::none(), |plan, (window, kind)| {
                    plan.with(window, Scope::All, kind)
                })
        };
        let overlapping = plan([skew(2, 40, 0, 100), skew(2, 30, 50, 150)]);
        assert_eq!(overlapping.max_abs_skew(), 70);
        let apart = plan([skew(1, 40, 0, 100), skew(2, 30, 50, 150)]);
        assert_eq!(apart.max_abs_skew(), 40);
        // The sum's extreme can start where another rule ends.
        let swing = plan([skew(2, 40, 0, 100), skew(2, -50, 50, 200)]);
        assert_eq!(swing.max_abs_skew(), 50);
    }

    #[test]
    fn duplicate_and_reorder_report_lags() {
        let plan = FaultPlan::none()
            .with(
                Window::always(),
                Scope::All,
                FaultKind::Duplicate {
                    probability: 1.0,
                    extra_delay: Delta::from_ticks(7),
                },
            )
            .with(
                Window::always(),
                Scope::All,
                FaultKind::Reorder {
                    max_jitter: Delta::from_ticks(30),
                },
            );
        let mut r = rng();
        assert_eq!(
            plan.duplicates(Time::from_ticks(1), 0, 1, &mut r),
            Some(Delta::from_ticks(7))
        );
        let j = plan.reorder_jitter(Time::from_ticks(1), 0, 1, &mut r);
        assert!(j.ticks() <= 30);
        assert_eq!(plan.max_disruption(), Some(Delta::from_ticks(30)));
    }

    #[test]
    fn disruption_combines_outage_and_lag() {
        let plan = FaultPlan::none()
            .partition(Window::ticks(100, 400), vec![0])
            .with(
                Window::always(),
                Scope::All,
                FaultKind::Reorder {
                    max_jitter: Delta::from_ticks(25),
                },
            );
        assert_eq!(plan.max_disruption(), Some(Delta::from_ticks(300 + 25)));
        // A drop rule that never heals admits no finite disruption bound.
        let unbounded = FaultPlan::none().with(
            Window::always(),
            Scope::All,
            FaultKind::Drop { probability: 0.1 },
        );
        assert_eq!(unbounded.max_disruption(), None);
    }

    #[test]
    fn crash_schedule_lists_crash_rules() {
        let plan = FaultPlan::none().crash(Window::ticks(10, 50), 3);
        assert_eq!(
            plan.crash_schedule(),
            vec![(3, Time::from_ticks(10), Time::from_ticks(50))]
        );
    }

    #[test]
    fn kill_shard_joins_the_crash_schedule() {
        let plan = FaultPlan::none()
            .crash(Window::ticks(10, 50), 3)
            .kill_shard(Window::ticks(100, 250), 0);
        // The simulator sees both through the crash schedule.
        assert_eq!(
            plan.crash_schedule(),
            vec![
                (3, Time::from_ticks(10), Time::from_ticks(50)),
                (0, Time::from_ticks(100), Time::from_ticks(250)),
            ]
        );
        // The outage window is charged like any crash.
        assert_eq!(plan.max_disruption(), Some(Delta::from_ticks(150)));
        // A never-restarting shard admits no finite disruption bound.
        let endless = FaultPlan::none().kill_shard(Window::always(), 0);
        assert_eq!(endless.max_disruption(), None);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn probabilities_are_validated() {
        let _ = FaultPlan::none().with(
            Window::always(),
            Scope::All,
            FaultKind::Drop { probability: 1.5 },
        );
    }

    #[test]
    fn probabilistic_rules_are_deterministic_in_seed() {
        let plan = FaultPlan::none().with(
            Window::always(),
            Scope::All,
            FaultKind::Drop { probability: 0.5 },
        );
        let sample = |seed: u64| -> Vec<bool> {
            let mut r = StdRng::seed_from_u64(seed);
            (0..64)
                .map(|i| plan.kills_message(Time::from_ticks(i), 0, 1, &mut r))
                .collect()
        };
        assert_eq!(sample(9), sample(9));
        assert_ne!(sample(9), sample(10));
    }
}
