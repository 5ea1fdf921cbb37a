//! History-level on-time analysis: Definitions 1 and 2 computed directly
//! from the history, independent of any serialization.
//!
//! **Why this is valid.** In any *legal* serialization of a differentiated
//! history (unique written values), the closest write to object `X` left of
//! a read `r` is forced to be the write whose value `r` returned — legality
//! pins the pair `(w, r)` down. The set
//! `W_r = { w' : w' writes X, T(w) + ε < T(w'), T(w') + ε < T(r) − Δ }`
//! therefore depends only on the history, `Δ` and `ε`. A property test in
//! `tests/` cross-validates this against
//! [`crate::Serialization::is_timed`] evaluated on enumerated legal
//! serializations.

use tc_clocks::{time::definitely_before, Delta, Epsilon, Time, XiMap};

use crate::{History, ObjectId, OpId};

/// One read that fails to occur on time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OnTimeViolation {
    /// The late read.
    pub read: OpId,
    /// The write whose value the read returned (`None`: initial value).
    pub source: Option<OpId>,
    /// The non-empty `W_r`: newer writes that had been available for more
    /// than Δ when the read executed.
    pub missed: Vec<OpId>,
    /// The smallest Δ (at the report's ε) for which this read would have
    /// been on time.
    pub min_delta: Delta,
}

/// Result of checking every read of a history against Definition 1/2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedReport {
    delta: Delta,
    eps: Epsilon,
    violations: Vec<OnTimeViolation>,
}

impl TimedReport {
    /// Whether every read occurs on time — the history is *timed* for this
    /// Δ and ε.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// The Δ the report was computed for.
    #[must_use]
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// The ε the report was computed for.
    #[must_use]
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The late reads.
    #[must_use]
    pub fn violations(&self) -> &[OnTimeViolation] {
        &self.violations
    }

    /// Assembles a report from already-computed violations (used by the
    /// streaming [`crate::checker::OnTimeMonitor`], which must produce
    /// reports identical to [`check_on_time`]).
    pub(crate) fn new(delta: Delta, eps: Epsilon, violations: Vec<OnTimeViolation>) -> Self {
        TimedReport {
            delta,
            eps,
            violations,
        }
    }
}

/// The half-open tick window `[lo, hi)` that Definition 2 carves out of an
/// object's writes: a write `w'` offends iff the source is definitely
/// before it (`T(src) + ε < T(w')`, i.e. `T(w') ≥ lo`) and it is
/// definitely before `upper` (`T(w') + ε < upper`, i.e. `T(w') < hi`).
///
/// Returns `None` when no tick can qualify because the lower bound
/// saturates — the naive `definitely_before(src, ·, ε)` with saturating
/// addition is then false for every write. The upper bound needs no such
/// case: `saturating_sub` already yields an empty window, and for
/// `T(w') < hi` the sum `T(w') + ε` provably does not overflow, so the
/// window test and the saturating comparison agree tick for tick.
fn window_ticks(source_time: Option<Time>, upper: Time, eps: Epsilon) -> Option<(u64, u64)> {
    let lo = match source_time {
        None => 0,
        Some(ts) => ts
            .ticks()
            .checked_add(eps.ticks())
            .and_then(|t| t.checked_add(1))?,
    };
    Some((lo, upper.ticks().saturating_sub(eps.ticks())))
}

/// The writes to `object` whose times fall in `[lo, hi)` — `W_r` as a
/// contiguous sub-slice of the time-sorted `writes_to` index, located with
/// two binary searches instead of a full scan.
fn write_window(
    history: &History,
    object: ObjectId,
    source_time: Option<Time>,
    upper: Time,
    eps: Epsilon,
) -> &[OpId] {
    let Some((lo, hi)) = window_ticks(source_time, upper, eps) else {
        return &[];
    };
    if lo >= hi {
        return &[];
    }
    let writes = history.writes_to(object);
    let start = writes.partition_point(|&w| history.time_of(w).ticks() < lo);
    let end = start + writes[start..].partition_point(|&w| history.time_of(w).ticks() < hi);
    &writes[start..end]
}

/// Checks every read of `history` against Definition 1 (`eps == 0`) or
/// Definition 2 (`eps > 0`).
///
/// ```
/// use tc_clocks::{Delta, Epsilon};
/// use tc_core::checker::check_on_time;
/// use tc_core::History;
///
/// // Site 1 still reads X=1 at t=220 although X=7 was written at t=100.
/// let h = History::parse("w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220")?;
/// assert!(check_on_time(&h, Delta::from_ticks(120), Epsilon::ZERO).holds());
/// assert!(!check_on_time(&h, Delta::from_ticks(100), Epsilon::ZERO).holds());
/// # Ok::<(), tc_core::ParseHistoryError>(())
/// ```
#[must_use]
pub fn check_on_time(history: &History, delta: Delta, eps: Epsilon) -> TimedReport {
    let mut violations = Vec::new();
    for read in history.read_ids() {
        let source = history
            .source_of(read)
            .expect("reads always have a resolved source");
        let source_time = source.map(|w| history.time_of(w));
        let deadline = history.time_of(read).saturating_sub_delta(delta);
        let missed = write_window(history, history.object_of(read), source_time, deadline, eps);
        if !missed.is_empty() {
            let min_delta = read_min_delta(history, read, source_time, eps)
                .expect("a violated read has a positive minimal delta");
            violations.push(OnTimeViolation {
                read,
                source,
                missed: missed.to_vec(),
                min_delta,
            });
        }
    }
    TimedReport {
        delta,
        eps,
        violations,
    }
}

/// Reference O(R·W) implementation of [`check_on_time`]: the literal
/// per-read scan over every write to the object. Kept (not deprecated) for
/// cross-validation of the sweep-line path and for the scaling experiment
/// `tc-exp checker-scale`; production callers should use [`check_on_time`].
#[must_use]
pub fn check_on_time_naive(history: &History, delta: Delta, eps: Epsilon) -> TimedReport {
    let mut violations = Vec::new();
    for read in history.read_ids() {
        let source = history
            .source_of(read)
            .expect("reads always have a resolved source");
        let source_time = source.map(|w| history.time_of(w));
        let deadline = history.time_of(read).saturating_sub_delta(delta);
        let mut missed = Vec::new();
        for &w_id in history.writes_to(history.object_of(read)) {
            let tw = history.time_of(w_id);
            let newer_than_source = match source_time {
                Some(ts) => definitely_before(ts, tw, eps),
                None => true,
            };
            if newer_than_source && definitely_before(tw, deadline, eps) {
                missed.push(w_id);
            }
        }
        if !missed.is_empty() {
            let min_delta = read_min_delta_naive(history, read, source_time, eps)
                .expect("a violated read has a positive minimal delta");
            violations.push(OnTimeViolation {
                read,
                source,
                missed,
                min_delta,
            });
        }
    }
    TimedReport {
        delta,
        eps,
        violations,
    }
}

/// The smallest Δ for which a single read occurs on time, or `None` when it
/// is on time for every Δ (no newer write exists).
///
/// `T(r) − T(w') − ε` is non-increasing in `T(w')`, so the maximum over the
/// qualifying writes is attained at the *earliest* write definitely after
/// the source — one binary search instead of a scan.
fn read_min_delta(
    history: &History,
    read: OpId,
    source_time: Option<Time>,
    eps: Epsilon,
) -> Option<Delta> {
    let read_time = history.time_of(read);
    let lo = match source_time {
        None => 0,
        Some(ts) => ts
            .ticks()
            .checked_add(eps.ticks())
            .and_then(|t| t.checked_add(1))?,
    };
    let writes = history.writes_to(history.object_of(read));
    let first = writes.partition_point(|&w| history.time_of(w).ticks() < lo);
    let tw = history.time_of(*writes.get(first)?);
    if tw >= read_time {
        return None;
    }
    let gap = read_time
        .ticks()
        .saturating_sub(tw.ticks())
        .saturating_sub(eps.ticks());
    (gap > 0).then(|| Delta::from_ticks(gap))
}

/// Reference scan-everything version of [`read_min_delta`], used by
/// [`check_on_time_naive`] / [`min_delta_eps_naive`].
fn read_min_delta_naive(
    history: &History,
    read: OpId,
    source_time: Option<Time>,
    eps: Epsilon,
) -> Option<Delta> {
    let read_time = history.time_of(read);
    let mut needed: Option<u64> = None;
    for &w_id in history.writes_to(history.object_of(read)) {
        let tw = history.time_of(w_id);
        let newer_than_source = match source_time {
            Some(ts) => definitely_before(ts, tw, eps),
            None => true,
        };
        // The read misses w' for any Δ with T(w') + ε < T(r) − Δ, i.e.
        // it is on time only once Δ ≥ T(r) − T(w') − ε.
        if newer_than_source && tw < read_time {
            let gap = read_time
                .ticks()
                .saturating_sub(tw.ticks())
                .saturating_sub(eps.ticks());
            if gap > 0 {
                needed = Some(needed.map_or(gap, |n| n.max(gap)));
            }
        }
    }
    needed.map(Delta::from_ticks)
}

/// The smallest Δ for which the whole history is timed under perfect clocks
/// (Definition 1). [`Delta::ZERO`] means the history is already
/// linearizable in its timing behaviour.
///
/// ```
/// use tc_core::checker::min_delta;
/// use tc_core::History;
///
/// let h = History::parse("w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220")?;
/// // The read at 220 misses the write at 100: Δ must cover 120 ticks.
/// assert_eq!(min_delta(&h).ticks(), 120);
/// # Ok::<(), tc_core::ParseHistoryError>(())
/// ```
#[must_use]
pub fn min_delta(history: &History) -> Delta {
    min_delta_eps(history, Epsilon::ZERO)
}

/// The smallest Δ for which the history is timed under clocks synchronized
/// within `eps` (Definition 2). Larger ε can only shrink the answer — the
/// comparison window narrows by 2ε (Figure 3).
#[must_use]
pub fn min_delta_eps(history: &History, eps: Epsilon) -> Delta {
    let mut worst = Delta::ZERO;
    for read in history.read_ids() {
        let source = history
            .source_of(read)
            .expect("reads always have a resolved source");
        let source_time = source.map(|w| history.time_of(w));
        if let Some(d) = read_min_delta(history, read, source_time, eps) {
            worst = worst.max(d);
        }
    }
    worst
}

/// Reference O(R·W) implementation of [`min_delta_eps`], kept for
/// cross-validation and the scaling experiment.
#[must_use]
pub fn min_delta_eps_naive(history: &History, eps: Epsilon) -> Delta {
    let mut worst = Delta::ZERO;
    for read in history.read_ids() {
        let source = history
            .source_of(read)
            .expect("reads always have a resolved source");
        let source_time = source.map(|w| history.time_of(w));
        if let Some(d) = read_min_delta_naive(history, read, source_time, eps) {
            worst = worst.max(d);
        }
    }
    worst
}

/// Definition 6: on-time analysis over *logical* timestamps via a ξ-map.
///
/// For a read `r` returning the value of write `w`, the logical `W_r` is
/// `{ w' : w' writes the object, ξ(L(w)) < ξ(L(w')) < ξ(L(r)) − Δξ }`; the
/// history is ξ-timed when every such set is empty. Operations must carry
/// logical timestamps ([`crate::HistoryBuilder::set_logical`]); operations
/// without one are skipped (reported via
/// [`XiTimedReport::missing_stamps`]).
///
/// ```
/// use tc_clocks::{SumXi, VectorClock};
/// use tc_core::checker::check_on_time_xi;
/// use tc_core::HistoryBuilder;
///
/// let mut b = HistoryBuilder::new();
/// let w1 = b.write(0, 'X', 1, 10);
/// let w2 = b.write(0, 'X', 2, 20);
/// let r = b.read(1, 'X', 1, 30); // stale: misses w2
/// b.set_logical(w1, VectorClock::from_entries(0, vec![1, 0]));
/// b.set_logical(w2, VectorClock::from_entries(0, vec![2, 0]));
/// // The reader knows a lot of global activity when it still reads X=1:
/// b.set_logical(r, VectorClock::from_entries(1, vec![2, 9]));
/// let h = b.build()?;
/// // ξ(L(r)) = 11, ξ(L(w2)) = 2, ξ(L(w1)) = 1: the read misses w2 once
/// // Δξ < 9 and is on time from Δξ = 9 up.
/// assert!(!check_on_time_xi(&h, &SumXi, 8.9).holds());
/// assert!(check_on_time_xi(&h, &SumXi, 9.0).holds());
/// # Ok::<(), tc_core::HistoryError>(())
/// ```
#[must_use]
pub fn check_on_time_xi(history: &History, xi: &dyn XiMap, xi_delta: f64) -> XiTimedReport {
    let mut violations = Vec::new();
    let mut missing = 0usize;
    let xi_of = |id: OpId| -> Option<f64> { history.logical_of(id).map(|l| xi.xi(l.entries())) };
    for read in history.read_ids() {
        let Some(xi_r) = xi_of(read) else {
            missing += 1;
            continue;
        };
        let source = history
            .source_of(read)
            .expect("reads have resolved sources");
        let xi_source = match source {
            Some(w) => match xi_of(w) {
                Some(v) => Some(v),
                None => {
                    missing += 1;
                    continue;
                }
            },
            None => None,
        };
        let mut missed = Vec::new();
        for &w_id in history.writes_to(history.object_of(read)) {
            let Some(xi_w) = xi_of(w_id) else {
                missing += 1;
                continue;
            };
            let newer = match xi_source {
                Some(s) => s < xi_w,
                None => true,
            };
            if newer && xi_w < xi_r - xi_delta {
                missed.push(w_id);
            }
        }
        if !missed.is_empty() {
            violations.push(OnTimeViolation {
                read,
                source,
                missed,
                // The smallest Δξ for this read, re-expressed in ticks is
                // meaningless; store the ceiling of the ξ gap instead.
                min_delta: Delta::from_ticks(0),
            });
        }
    }
    XiTimedReport {
        xi_delta,
        violations,
        missing_stamps: missing,
    }
}

/// Result of the Definition 6 analysis.
#[derive(Clone, Debug)]
pub struct XiTimedReport {
    xi_delta: f64,
    violations: Vec<OnTimeViolation>,
    missing_stamps: usize,
}

impl XiTimedReport {
    /// Whether every (stamped) read is ξ-on-time.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// The Δξ threshold checked.
    #[must_use]
    pub fn xi_delta(&self) -> f64 {
        self.xi_delta
    }

    /// The ξ-late reads. `min_delta` fields are not meaningful for the
    /// logical analysis and are zero.
    #[must_use]
    pub fn violations(&self) -> &[OnTimeViolation] {
        &self.violations
    }

    /// Operations skipped because they carry no logical timestamp.
    #[must_use]
    pub fn missing_stamps(&self) -> usize {
        self.missing_stamps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    fn fig1ish() -> History {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 7, 100);
        b.write(1, 'X', 1, 80);
        b.read(1, 'X', 1, 140);
        b.read(1, 'X', 1, 220);
        b.read(1, 'X', 1, 300);
        b.build().unwrap()
    }

    #[test]
    fn report_identifies_late_reads_and_missed_writes() {
        let h = fig1ish();
        let rep = check_on_time(&h, Delta::from_ticks(100), Epsilon::ZERO);
        assert!(!rep.holds());
        assert_eq!(rep.violations().len(), 2, "reads at 220 and 300 are late");
        let v = &rep.violations()[0];
        assert_eq!(h.op(v.read).time(), Time::from_ticks(220));
        assert_eq!(v.missed.len(), 1);
        assert_eq!(h.op(v.missed[0]).time(), Time::from_ticks(100));
        assert_eq!(v.min_delta, Delta::from_ticks(120));
        assert_eq!(rep.delta(), Delta::from_ticks(100));
        assert_eq!(rep.eps(), Epsilon::ZERO);
    }

    #[test]
    fn boundary_is_inclusive_by_strictness() {
        // Gap is exactly 120: at Δ=120 the strict `<` of Definition 1 makes
        // W_r empty, so the read at 220 is on time.
        let h = fig1ish();
        assert!(!check_on_time(&h, Delta::from_ticks(199), Epsilon::ZERO).holds());
        assert!(check_on_time(&h, Delta::from_ticks(200), Epsilon::ZERO).holds());
        assert_eq!(min_delta(&h).ticks(), 200, "read at 300 dominates");
    }

    #[test]
    fn older_writes_never_offend() {
        // Writes older than the source are not in W_r (Figure 2's w1).
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 10);
        b.write(0, 'X', 2, 50);
        b.read(1, 'X', 2, 500);
        let h = b.build().unwrap();
        assert!(check_on_time(&h, Delta::ZERO, Epsilon::ZERO).holds());
        assert_eq!(min_delta(&h), Delta::ZERO);
    }

    #[test]
    fn recent_writes_within_delta_are_tolerated() {
        // Figure 2's w4: newer than the source but the Δ interval has not
        // elapsed yet.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 10);
        b.write(0, 'X', 2, 90);
        b.read(1, 'X', 1, 100);
        let h = b.build().unwrap();
        assert!(check_on_time(&h, Delta::from_ticks(20), Epsilon::ZERO).holds());
        assert!(!check_on_time(&h, Delta::from_ticks(5), Epsilon::ZERO).holds());
        assert_eq!(min_delta(&h), Delta::from_ticks(10));
    }

    #[test]
    fn epsilon_shrinks_min_delta() {
        // Source far older than the missed write, so ε cannot blur which of
        // the two is newer — only the deadline comparison shrinks.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 7, 100);
        b.write(1, 'X', 1, 10);
        b.read(1, 'X', 1, 300);
        let h = b.build().unwrap();
        assert_eq!(min_delta_eps(&h, Epsilon::ZERO).ticks(), 200);
        // Δ_min = T(r)−T(w')−ε = 300−100−50.
        assert_eq!(min_delta_eps(&h, Epsilon::from_ticks(50)).ticks(), 150);
        // Enormous ε makes every comparison non-definite: always timed.
        assert_eq!(min_delta_eps(&h, Epsilon::from_ticks(500)), Delta::ZERO);
    }

    #[test]
    fn epsilon_can_blur_source_recency_entirely() {
        let h = fig1ish();
        // Source @80 vs missed write @100: with ε=50 the pair is
        // non-comparable, so nothing is definitely newer and Δ_min is 0.
        assert_eq!(min_delta_eps(&h, Epsilon::from_ticks(50)), Delta::ZERO);
    }

    #[test]
    fn epsilon_blurs_source_recency() {
        // Source @80 vs other write @100: with ε ≥ 20 the two writes are
        // concurrent, so the other write can never be "more recent" and the
        // read is on time for every Δ.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 7, 100);
        b.write(1, 'X', 1, 80);
        b.read(1, 'X', 1, 10_000);
        let h = b.build().unwrap();
        assert!(!check_on_time(&h, Delta::ZERO, Epsilon::from_ticks(19)).holds());
        assert!(check_on_time(&h, Delta::ZERO, Epsilon::from_ticks(20)).holds());
    }

    #[test]
    fn initial_reads_miss_all_old_writes() {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 5, 10);
        b.read(1, 'X', 0, 200);
        let h = b.build().unwrap();
        let rep = check_on_time(&h, Delta::from_ticks(50), Epsilon::ZERO);
        assert!(!rep.holds());
        assert_eq!(rep.violations()[0].source, None);
        assert_eq!(min_delta(&h), Delta::from_ticks(190));
    }

    #[test]
    fn infinite_delta_is_always_timed() {
        let h = fig1ish();
        assert!(check_on_time(&h, Delta::INFINITE, Epsilon::ZERO).holds());
    }

    #[test]
    fn write_only_history_is_trivially_timed() {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 10);
        b.write(1, 'X', 2, 20);
        let h = b.build().unwrap();
        assert!(check_on_time(&h, Delta::ZERO, Epsilon::ZERO).holds());
        assert_eq!(min_delta(&h), Delta::ZERO);
    }

    #[test]
    fn sweep_line_matches_naive_on_saturating_edges() {
        // Ticks near u64::MAX exercise every saturating branch of the
        // window derivation; the sweep-line and naive paths must agree
        // exactly (reports compare with `==`, so missed-vectors, order and
        // min_delta are all covered).
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 5);
        b.write(0, 'X', 2, u64::MAX - 2);
        b.write(3, 'X', 3, u64::MAX);
        b.read(1, 'X', 1, u64::MAX - 1);
        b.read(2, 'X', 0, u64::MAX);
        let h = b.build().unwrap();
        for delta in [0, 1, 10, u64::MAX - 1, u64::MAX] {
            for eps in [0, 1, 3, u64::MAX - 2, u64::MAX] {
                let d = Delta::from_ticks(delta);
                let e = Epsilon::from_ticks(eps);
                assert_eq!(
                    check_on_time(&h, d, e),
                    check_on_time_naive(&h, d, e),
                    "delta={delta} eps={eps}"
                );
                assert_eq!(
                    min_delta_eps(&h, e),
                    min_delta_eps_naive(&h, e),
                    "eps={eps}"
                );
            }
        }
    }

    #[test]
    fn xi_check_skips_unstamped_ops() {
        use tc_clocks::SumXi;
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 10);
        b.read(1, 'X', 1, 30);
        let h = b.build().unwrap();
        let rep = check_on_time_xi(&h, &SumXi, 0.0);
        assert!(rep.holds(), "no stamps, nothing to judge");
        assert_eq!(rep.missing_stamps(), 1, "the unstamped read is reported");
        assert_eq!(rep.xi_delta(), 0.0);
    }

    #[test]
    fn xi_check_matches_paper_90_event_example() {
        use tc_clocks::{SumXi, VectorClock};
        // §5.4: current logical time <35,4,0,72> (111 events), version
        // written at <2,1,0,18> (21 events): stale for any Δξ < 90.
        let mut b = HistoryBuilder::new();
        let w_old = b.write(0, 'X', 1, 10);
        let w_new = b.write(1, 'X', 2, 20);
        let r = b.read(2, 'X', 1, 30);
        b.set_logical(w_old, VectorClock::from_entries(0, vec![2, 1, 0, 18]));
        b.set_logical(w_new, VectorClock::from_entries(1, vec![2, 2, 0, 18]));
        b.set_logical(r, VectorClock::from_entries(2, vec![35, 4, 0, 72]));
        let h = b.build().unwrap();
        // xi(r)=111, xi(w_new)=22, xi(w_old)=21: the read misses w_new
        // whenever 22 < 111 - dxi, i.e. dxi < 89.
        assert!(!check_on_time_xi(&h, &SumXi, 88.9).holds());
        assert!(check_on_time_xi(&h, &SumXi, 89.0).holds());
        let rep = check_on_time_xi(&h, &SumXi, 50.0);
        assert_eq!(rep.violations().len(), 1);
        assert_eq!(rep.violations()[0].missed, vec![w_new]);
    }

    #[test]
    fn xi_check_respects_source_ordering() {
        use tc_clocks::{SumXi, VectorClock};
        // A write with smaller xi than the source never offends.
        let mut b = HistoryBuilder::new();
        let w_small = b.write(0, 'X', 1, 10);
        let w_src = b.write(1, 'X', 2, 20);
        let r = b.read(2, 'X', 2, 30);
        b.set_logical(w_small, VectorClock::from_entries(0, vec![1, 0, 0]));
        b.set_logical(w_src, VectorClock::from_entries(1, vec![1, 5, 0]));
        b.set_logical(r, VectorClock::from_entries(2, vec![50, 50, 50]));
        let h = b.build().unwrap();
        assert!(check_on_time_xi(&h, &SumXi, 0.0).holds());
    }
}
