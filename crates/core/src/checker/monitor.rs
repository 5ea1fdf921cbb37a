//! Streaming on-time analysis: Definition 1/2 evaluated incrementally,
//! one operation at a time, so a running protocol can be judged as it
//! executes instead of via a post-hoc batch re-check.
//!
//! The monitor maintains, per object, the write index `check_on_time`
//! derives from the history (writes sorted by effective time, ties in id
//! order) and a *pending-read frontier*: reads whose source write has not
//! been ingested yet wait, keyed by the unique value they returned, and
//! are judged the moment their writer arrives.
//!
//! **Order independence.** Ingestion order does not affect the verdict.
//! Operations arriving in nondecreasing `(time, id)` order take the fast
//! append path; a write arriving *after* a read it could offend (its time
//! below the object's read frontier) triggers a repair pass that re-derives
//! the affected reads' windows from the updated index. The invariants that
//! make this sound:
//!
//! * a read's missed set `W_r` is a contiguous `[lo, hi)` window of the
//!   object's time-sorted writes, so it can always be recomputed from the
//!   index by two binary searches;
//! * a read's minimal Δ is attained at the earliest write definitely after
//!   its source, so it only *grows* as writes arrive — running maxima
//!   (per violation and globally) never need to be revised downward.
//!
//! [`OnTimeMonitor::into_report`] therefore yields exactly the
//! [`TimedReport`] the batch [`check_on_time`](crate::checker::check_on_time)
//! computes on the finished history; a property test in `tests/`
//! cross-validates this over random histories and ingestion orders.

use tc_clocks::{Delta, Epsilon, Time};

use crate::checker::timed::{OnTimeViolation, TimedReport};
use crate::{FxHashMap, ObjectId, OpId, OpKind, Operation, Value};

/// A piecewise-constant Δ timetable: `initial` from the start of a run,
/// then each revision from its effective time on. The one timetable of
/// the workspace — what an adaptive controller committed to, and what an
/// [`OnTimeMonitor`] judges each read against (the Δ *actually in force*
/// at the read's time, not a scalar).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSchedule {
    /// Δ in force from the start of the run.
    pub initial: Delta,
    /// Revisions `(effective_from, delta)`, sorted by effective time.
    pub changes: Vec<(Time, Delta)>,
}

impl DeltaSchedule {
    /// A schedule that never changes: `delta` for the whole run.
    #[must_use]
    pub fn fixed(delta: Delta) -> Self {
        DeltaSchedule {
            initial: delta,
            changes: Vec::new(),
        }
    }

    /// Appends a revision. Effective times are clamped monotone: a
    /// revision dated before the last one snaps to it (last writer wins at
    /// equal times).
    pub fn push(&mut self, at: Time, delta: Delta) {
        let at = match self.changes.last() {
            Some(&(prev, _)) => at.max(prev),
            None => at,
        };
        match self.changes.last_mut() {
            Some(entry) if entry.0 == at => entry.1 = delta,
            _ => self.changes.push((at, delta)),
        }
    }

    /// The Δ in force at `t`.
    #[must_use]
    pub fn delta_at(&self, t: Time) -> Delta {
        let idx = self.changes.partition_point(|&(at, _)| at <= t);
        if idx == 0 {
            self.initial
        } else {
            self.changes[idx - 1].1
        }
    }

    /// Number of revisions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Whether the schedule is the fixed initial Δ with no revisions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Time-averaged Δ over `[0, end)` — the "Δ budget" a schedule spends.
    /// A static run spends exactly its scalar Δ; an adaptive run that
    /// tightens in quiet phases spends less.
    #[must_use]
    pub fn time_averaged(&self, end: Time) -> f64 {
        if end == Time::ZERO {
            return self.initial.ticks() as f64;
        }
        let mut acc = 0.0;
        let mut cursor = Time::ZERO;
        let mut current = self.initial;
        for &(at, delta) in &self.changes {
            let at = at.min(end);
            acc += current.ticks() as f64 * (at.ticks() - cursor.ticks()) as f64;
            cursor = at;
            current = delta;
            if cursor == end {
                break;
            }
        }
        acc += current.ticks() as f64 * (end.ticks().saturating_sub(cursor.ticks())) as f64;
        acc / end.ticks() as f64
    }

    /// Replays the revisions into a monitor (all at once) so a finished
    /// history can be judged post-hoc against the in-force Δ. `widening`
    /// is added to every threshold — the same fault/latency margin the
    /// scalar oracle adds to a static Δ.
    pub fn apply_to(&self, monitor: &mut OnTimeMonitor, widening: Delta) {
        for &(at, delta) in &self.changes {
            monitor.schedule_change(at, delta + widening);
        }
    }
}

/// Incremental Definition 1/2 checker for a fixed Δ and ε.
///
/// # Δ-schedules
///
/// The judged threshold need not be a scalar: [`OnTimeMonitor::schedule_change`]
/// registers piecewise-constant revisions of Δ, each taking effect for
/// reads at or after its effective time. Reads are judged against the Δ
/// *in force at their own time* — the schedule an adaptive controller
/// actually commanded, not the initial value. With no registered changes
/// the monitor is byte-identical to the scalar checker.
#[derive(Clone, Debug)]
pub struct OnTimeMonitor {
    eps: Epsilon,
    /// The Δ a read at time `t` is judged against; no revisions for
    /// scalar-Δ monitoring.
    schedule: DeltaSchedule,
    objects: FxHashMap<ObjectId, ObjectState>,
    /// `(object, value)` → the write of that value, for source resolution
    /// (written values are unique, which pins the reads-from relation).
    writers: FxHashMap<(ObjectId, Value), (OpId, Time)>,
    /// Reads waiting for their source write, keyed by the value they
    /// returned.
    pending: FxHashMap<(ObjectId, Value), Vec<PendingRead>>,
    violations: Vec<OnTimeViolation>,
    min_delta: Delta,
    ingested: usize,
    pending_count: usize,
    late_writes: u64,
}

/// Per-object slice of the monitor's state.
#[derive(Clone, Debug, Default)]
struct ObjectState {
    /// Writes sorted by `(time, id)` — the order `History::writes_to`
    /// produces (its stable time sort ties-breaks by insertion = id order).
    writes: Vec<(Time, OpId)>,
    /// Judged reads in time order, for the late-write repair pass. The
    /// last one's time is the object's read frontier: a write below it
    /// may retroactively affect a verdict and triggers repair.
    reads: Vec<ReadRecord>,
}

/// What repair needs to re-judge a read against a grown write index.
#[derive(Clone, Debug)]
struct ReadRecord {
    read: OpId,
    source: Option<OpId>,
    time: Time,
    /// First tick definitely after the source (`None`: no tick qualifies,
    /// the source bound saturated).
    lo: Option<u64>,
    /// First tick not definitely before the Δ-deadline (window upper end).
    hi: u64,
    /// Index of this read's entry in `violations`, once late.
    violation: Option<usize>,
}

#[derive(Clone, Debug)]
struct PendingRead {
    id: OpId,
    time: Time,
}

impl OnTimeMonitor {
    /// Creates a monitor judging reads against `delta` under clocks
    /// synchronized within `eps`.
    #[must_use]
    pub fn new(delta: Delta, eps: Epsilon) -> Self {
        OnTimeMonitor {
            eps,
            schedule: DeltaSchedule::fixed(delta),
            objects: FxHashMap::default(),
            writers: FxHashMap::default(),
            pending: FxHashMap::default(),
            violations: Vec::new(),
            min_delta: Delta::ZERO,
            ingested: 0,
            pending_count: 0,
            late_writes: 0,
        }
    }

    /// The initial Δ reads are judged against (before any
    /// [`Self::schedule_change`]).
    #[must_use]
    pub fn delta(&self) -> Delta {
        self.schedule.initial
    }

    /// Registers a Δ revision: reads at or after `at` are judged against
    /// `delta` (until a later revision). Revisions must be registered
    /// *before* any read at or after `at` is ingested — already-judged
    /// reads are not re-judged. Effective times are clamped monotone:
    /// a revision dated before the previous one snaps to it (last writer
    /// wins at equal times).
    pub fn schedule_change(&mut self, at: Time, delta: Delta) {
        self.schedule.push(at, delta);
    }

    /// The registered Δ revisions, in effective-time order.
    #[must_use]
    pub fn schedule(&self) -> &[(Time, Delta)] {
        &self.schedule.changes
    }

    /// The Δ in force at `t` under the registered schedule.
    #[must_use]
    pub fn delta_at(&self, t: Time) -> Delta {
        self.schedule.delta_at(t)
    }

    /// The clock-synchronization bound ε.
    #[must_use]
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// Whether every read judged so far occurred on time.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// The running minimum: smallest Δ for which everything ingested so far
    /// is timed under ε. Monotone nondecreasing as operations arrive.
    #[must_use]
    pub fn min_delta(&self) -> Delta {
        self.min_delta
    }

    /// Late reads found so far, in detection order ([`Self::into_report`]
    /// re-sorts them into the batch checker's read order).
    #[must_use]
    pub fn violations(&self) -> &[OnTimeViolation] {
        &self.violations
    }

    /// Operations ingested so far.
    #[must_use]
    pub fn ingested(&self) -> usize {
        self.ingested
    }

    /// Reads still waiting for their source write.
    #[cfg(test)]
    fn pending_reads(&self) -> usize {
        self.pending_count
    }

    /// Writes that arrived below an object's read frontier and triggered
    /// the repair pass (0 when ingestion is consistent with time).
    #[must_use]
    pub fn late_writes(&self) -> u64 {
        self.late_writes
    }

    /// Ingests one operation of a history.
    pub fn ingest_op(&mut self, op: &Operation) {
        match op.kind() {
            OpKind::Write => self.ingest_write(op.id(), op.object(), op.value(), op.time()),
            OpKind::Read => self.ingest_read(op.id(), op.object(), op.value(), op.time()),
        }
    }

    /// Ingests a whole history in `(time, id)` order — the natural
    /// streaming order, which never exercises the repair pass.
    pub fn ingest_history(&mut self, history: &crate::History) {
        let mut ids: Vec<OpId> = history.ids().collect();
        ids.sort_unstable_by_key(|&id| (history.time_of(id), id));
        for id in ids {
            match history.kind_of(id) {
                OpKind::Write => self.ingest_write(
                    id,
                    history.object_of(id),
                    history.value_of(id),
                    history.time_of(id),
                ),
                OpKind::Read => self.ingest_read(
                    id,
                    history.object_of(id),
                    history.value_of(id),
                    history.time_of(id),
                ),
            }
        }
    }

    /// Ingests a write.
    ///
    /// In debug builds, panics if the value was already written to the
    /// object (histories are differentiated).
    pub fn ingest_write(&mut self, id: OpId, object: ObjectId, value: Value, time: Time) {
        self.ingested += 1;
        let prev = self.writers.insert((object, value), (id, time));
        debug_assert!(prev.is_none(), "written values must be unique per object");
        let eps = self.eps;
        {
            let state = self.objects.entry(object).or_default();
            let pos = state.writes.partition_point(|&(t, i)| (t, i) < (time, id));
            state.writes.insert(pos, (time, id));
            let first_later = after(&state.reads, time);
            if first_later < state.reads.len() {
                // The write lands below a judged read: repair the reads
                // after it, the only ones it can change.
                self.late_writes += 1;
                let ObjectState { writes, reads } = state;
                for rec in &mut reads[first_later..] {
                    repair(
                        rec,
                        writes,
                        &mut self.violations,
                        &mut self.min_delta,
                        eps,
                        time,
                    );
                }
            }
        }
        if let Some(waiting) = self.pending.remove(&(object, value)) {
            self.pending_count -= waiting.len();
            for p in waiting {
                self.finalize_read(p.id, object, Some((id, time)), p.time);
            }
        }
    }

    /// Ingests a read returning `value`. If the source write has not been
    /// ingested yet the read is parked and judged when the writer arrives.
    pub fn ingest_read(&mut self, id: OpId, object: ObjectId, value: Value, time: Time) {
        self.ingested += 1;
        if value.is_initial() {
            self.finalize_read(id, object, None, time);
        } else if let Some(&source) = self.writers.get(&(object, value)) {
            self.finalize_read(id, object, Some(source), time);
        } else {
            self.pending_count += 1;
            self.pending
                .entry((object, value))
                .or_default()
                .push(PendingRead { id, time });
        }
    }

    /// Judges a read whose source is known, against the current index, and
    /// registers it for repair by later writes.
    fn finalize_read(
        &mut self,
        read: OpId,
        object: ObjectId,
        source: Option<(OpId, Time)>,
        time: Time,
    ) {
        let eps = self.eps;
        // Same window derivation as the batch sweep line: writes in
        // [lo, hi) are missed, writes in [lo, T(r)) set the minimal Δ.
        let lo = match source {
            None => Some(0),
            Some((_, ts)) => ts
                .ticks()
                .checked_add(eps.ticks())
                .and_then(|t| t.checked_add(1)),
        };
        let deadline = time.saturating_sub_delta(self.delta_at(time));
        let hi = deadline.ticks().saturating_sub(eps.ticks());
        let source_id = source.map(|(w, _)| w);
        let state = self.objects.entry(object).or_default();
        let mut violation = None;
        if let Some(lo) = lo {
            if let Some(needed) = needed_delta(&state.writes, lo, time, eps) {
                self.min_delta = self.min_delta.max(needed);
            }
            let missed: Vec<OpId> = window(&state.writes, lo, hi)
                .iter()
                .map(|&(_, w)| w)
                .collect();
            if !missed.is_empty() {
                let needed = needed_delta(&state.writes, lo, time, eps)
                    .expect("a late read has a positive minimal delta");
                violation = Some(self.violations.len());
                self.violations.push(OnTimeViolation {
                    read,
                    source: source_id,
                    missed,
                    min_delta: needed,
                });
            }
        }
        let at = after(&state.reads, time);
        state.reads.insert(
            at,
            ReadRecord {
                read,
                source: source_id,
                time,
                lo,
                hi,
                violation,
            },
        );
    }

    /// Finishes monitoring: the verdict as a [`TimedReport`] identical to
    /// `check_on_time(&history, delta, eps)` on the full history.
    ///
    /// # Panics
    ///
    /// Panics if a read is still waiting for its source write — the
    /// ingested operations do not form a valid differentiated history.
    #[must_use]
    pub fn into_report(self) -> TimedReport {
        assert_eq!(
            self.pending_count, 0,
            "every read's source write must be ingested before reporting"
        );
        let mut violations = self.violations;
        violations.sort_by_key(|v| v.read);
        TimedReport::new(self.schedule.initial, self.eps, violations)
    }
}

/// Re-judges one read after `tw` was inserted into the object's index.
fn repair(
    rec: &mut ReadRecord,
    writes: &[(Time, OpId)],
    violations: &mut Vec<OnTimeViolation>,
    min_delta: &mut Delta,
    eps: Epsilon,
    tw: Time,
) {
    let Some(lo) = rec.lo else { return };
    let t = tw.ticks();
    if t < lo || t >= rec.time.ticks() {
        return; // outside both the missed window and the min-Δ window
    }
    let needed = needed_delta(writes, lo, rec.time, eps);
    if let Some(needed) = needed {
        *min_delta = (*min_delta).max(needed);
    }
    if t < rec.hi {
        // Also in the missed window: rebuild the violation from the index
        // (the window is contiguous there, so this is two binary searches).
        let missed: Vec<OpId> = window(writes, lo, rec.hi).iter().map(|&(_, w)| w).collect();
        let needed = needed.expect("a late read has a positive minimal delta");
        match rec.violation {
            Some(v) => {
                violations[v].missed = missed;
                violations[v].min_delta = needed;
            }
            None => {
                rec.violation = Some(violations.len());
                violations.push(OnTimeViolation {
                    read: rec.read,
                    source: rec.source,
                    missed,
                    min_delta: needed,
                });
            }
        }
    }
}

/// The index of the first of the time-ordered `reads` later than `time`.
/// Reads arrive nearly in time order, so it scans back from the end.
fn after(reads: &[ReadRecord], time: Time) -> usize {
    reads
        .iter()
        .rposition(|rec| rec.time <= time)
        .map_or(0, |i| i + 1)
}

/// The `[lo, hi)` tick window of a `(time, id)`-sorted write index.
fn window(writes: &[(Time, OpId)], lo: u64, hi: u64) -> &[(Time, OpId)] {
    if lo >= hi {
        return &[];
    }
    let start = writes.partition_point(|&(t, _)| t.ticks() < lo);
    let end = start + writes[start..].partition_point(|&(t, _)| t.ticks() < hi);
    &writes[start..end]
}

/// The read's minimal Δ from the current index: the gap to the earliest
/// write at or after `lo` (later writes only shrink it).
fn needed_delta(writes: &[(Time, OpId)], lo: u64, read_time: Time, eps: Epsilon) -> Option<Delta> {
    let first = writes.partition_point(|&(t, _)| t.ticks() < lo);
    let &(tw, _) = writes.get(first)?;
    if tw >= read_time {
        return None;
    }
    let gap = read_time
        .ticks()
        .saturating_sub(tw.ticks())
        .saturating_sub(eps.ticks());
    (gap > 0).then(|| Delta::from_ticks(gap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_on_time, min_delta_eps};
    use crate::HistoryBuilder;

    fn fig1ish() -> crate::History {
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 7, 100);
        b.write(1, 'X', 1, 80);
        b.read(1, 'X', 1, 140);
        b.read(1, 'X', 1, 220);
        b.read(1, 'X', 1, 300);
        b.build().unwrap()
    }

    fn assert_matches_batch(h: &crate::History, delta: Delta, eps: Epsilon) {
        // In-order ingestion.
        let mut m = OnTimeMonitor::new(delta, eps);
        m.ingest_history(h);
        assert_eq!(m.min_delta(), min_delta_eps(h, eps));
        assert_eq!(m.late_writes(), 0, "time-ordered feed never repairs");
        assert_eq!(m.into_report(), check_on_time(h, delta, eps));
        // Reversed ingestion exercises pending reads and repair.
        let mut m = OnTimeMonitor::new(delta, eps);
        let ops: Vec<_> = h.iter().collect();
        for op in ops.iter().rev() {
            m.ingest_op(op);
        }
        assert_eq!(m.pending_reads(), 0);
        assert_eq!(m.min_delta(), min_delta_eps(h, eps));
        assert_eq!(m.into_report(), check_on_time(h, delta, eps));
    }

    #[test]
    fn matches_batch_on_paper_example() {
        let h = fig1ish();
        for delta in [0, 100, 120, 199, 200, u64::MAX] {
            for eps in [0, 19, 20, 50, 500] {
                assert_matches_batch(&h, Delta::from_ticks(delta), Epsilon::from_ticks(eps));
            }
        }
    }

    #[test]
    fn running_min_delta_is_online() {
        let h = fig1ish();
        let mut m = OnTimeMonitor::new(Delta::from_ticks(100), Epsilon::ZERO);
        let mut ops: Vec<_> = h.iter().collect();
        ops.sort_by_key(|o| (o.time(), o.id()));
        let mut last = Delta::ZERO;
        for op in &ops {
            m.ingest_op(op);
            assert!(m.min_delta() >= last, "running min_delta is monotone");
            last = m.min_delta();
        }
        assert_eq!(last, Delta::from_ticks(200));
        assert!(!m.holds());
        assert_eq!(m.ingested(), h.len());
    }

    #[test]
    fn late_write_flips_a_verdict() {
        // The read is judged on time first; the offending write arrives
        // later with an *earlier* effective time and must flip it.
        let mut b = HistoryBuilder::new();
        let w_new = b.write(0, 'X', 7, 100);
        b.write(1, 'X', 1, 80);
        b.read(1, 'X', 1, 300);
        let h = b.build().unwrap();
        let delta = Delta::from_ticks(50);
        let mut m = OnTimeMonitor::new(delta, Epsilon::ZERO);
        for op in h.iter() {
            if op.id() != w_new {
                m.ingest_op(&op);
            }
        }
        assert!(m.holds(), "without the newer write the read is on time");
        m.ingest_op(&h.op(w_new));
        assert_eq!(m.late_writes(), 1);
        assert!(!m.holds());
        assert_eq!(m.into_report(), check_on_time(&h, delta, Epsilon::ZERO));
    }

    #[test]
    fn pending_reads_are_judged_when_the_writer_arrives() {
        let mut b = HistoryBuilder::new();
        let w = b.write(0, 'X', 7, 100);
        b.read(1, 'X', 7, 300);
        let h = b.build().unwrap();
        let mut m = OnTimeMonitor::new(Delta::ZERO, Epsilon::ZERO);
        m.ingest_op(&h.op(OpId::new(1)));
        assert_eq!(m.pending_reads(), 1);
        m.ingest_op(&h.op(w));
        assert_eq!(m.pending_reads(), 0);
        assert_eq!(
            m.into_report(),
            check_on_time(&h, Delta::ZERO, Epsilon::ZERO)
        );
    }

    #[test]
    fn empty_schedule_matches_scalar_monitor() {
        // Registering no revisions must leave the verdict byte-identical
        // to the scalar checker (the schedule path is pure overhead-free
        // fallthrough).
        let h = fig1ish();
        let delta = Delta::from_ticks(120);
        let mut m = OnTimeMonitor::new(delta, Epsilon::ZERO);
        m.ingest_history(&h);
        assert_eq!(m.delta_at(Time::from_ticks(0)), delta);
        assert_eq!(m.delta_at(Time::from_ticks(u64::MAX)), delta);
        assert_eq!(m.into_report(), check_on_time(&h, delta, Epsilon::ZERO));
    }

    #[test]
    fn schedule_judges_reads_against_the_delta_in_force() {
        // fig1ish: write X=7 at 100, write X=1 at 80; reads of the *old*
        // value at 140, 220, 300 → staleness 40/120/200 against the newer
        // write. A schedule that relaxes Δ from 50 to 250 at t=200 must
        // forgive exactly the reads at or after 200.
        let h = fig1ish();
        let mut m = OnTimeMonitor::new(Delta::from_ticks(50), Epsilon::ZERO);
        m.schedule_change(Time::from_ticks(200), Delta::from_ticks(250));
        m.ingest_history(&h);
        assert_eq!(m.delta_at(Time::from_ticks(199)), Delta::from_ticks(50));
        assert_eq!(m.delta_at(Time::from_ticks(200)), Delta::from_ticks(250));
        let report = m.into_report();
        let late: Vec<u64> = report
            .violations()
            .iter()
            .map(|v| h.time_of(v.read).ticks())
            .collect();
        // The read at 140 needs Δ 40 < 50 (on time under the initial Δ);
        // the reads at 220 and 300 need 120 and 200 — violations under a
        // scalar Δ=50, but both fall under the relaxed 250 in force there.
        assert_eq!(late, Vec::<u64>::new(), "relaxation forgives late reads");
        // Tightening instead: Δ 250 → 50 at t=200 flags exactly the
        // post-200 reads.
        let mut m = OnTimeMonitor::new(Delta::from_ticks(250), Epsilon::ZERO);
        m.schedule_change(Time::from_ticks(200), Delta::from_ticks(50));
        m.ingest_history(&h);
        assert!(!m.holds());
        let report = m.into_report();
        let late: Vec<u64> = report
            .violations()
            .iter()
            .map(|v| h.time_of(v.read).ticks())
            .collect();
        assert_eq!(late, vec![220, 300]);
    }

    #[test]
    fn schedule_is_read_time_not_ingestion_time() {
        // A pending read parked before its writer arrives is judged at
        // finalize time, but against the Δ in force at its *own* time.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 7, 100);
        b.write(1, 'X', 1, 90);
        b.read(1, 'X', 1, 400);
        let h = b.build().unwrap();
        let mut m = OnTimeMonitor::new(Delta::from_ticks(5), Epsilon::ZERO);
        // Relaxed to 1000 from t=350 — covers the read at 400 (staleness
        // 300 against the write at 100).
        m.schedule_change(Time::from_ticks(350), Delta::from_ticks(1_000));
        // Feed the read first: it parks until its source write arrives,
        // and the late write at 100 then exercises the repair pass — both
        // must judge against the Δ in force at the read's own time.
        let ops: Vec<_> = h.iter().collect();
        for op in ops.iter().rev() {
            m.ingest_op(op);
            assert!(m.holds(), "read judged against the Δ in force at t=400");
        }
        assert_eq!(
            m.min_delta(),
            Delta::from_ticks(300),
            "min_delta stays Δ-independent"
        );
    }

    #[test]
    fn schedule_changes_are_clamped_monotone() {
        let mut m = OnTimeMonitor::new(Delta::from_ticks(10), Epsilon::ZERO);
        m.schedule_change(Time::from_ticks(100), Delta::from_ticks(20));
        // Backdated revision snaps forward to the previous effective time
        // and overwrites it (last writer wins).
        m.schedule_change(Time::from_ticks(50), Delta::from_ticks(30));
        assert_eq!(
            m.schedule(),
            &[(Time::from_ticks(100), Delta::from_ticks(30))]
        );
        m.schedule_change(Time::from_ticks(200), Delta::from_ticks(40));
        assert_eq!(m.delta_at(Time::from_ticks(99)), Delta::from_ticks(10));
        assert_eq!(m.delta_at(Time::from_ticks(150)), Delta::from_ticks(30));
        assert_eq!(m.delta_at(Time::from_ticks(200)), Delta::from_ticks(40));
    }

    #[test]
    fn schedule_lookup_and_average() {
        let mut s = DeltaSchedule::fixed(Delta::from_ticks(100));
        s.push(Time::from_ticks(50), Delta::from_ticks(200));
        s.push(Time::from_ticks(75), Delta::from_ticks(40));
        assert_eq!(s.delta_at(Time::from_ticks(0)), Delta::from_ticks(100));
        assert_eq!(s.delta_at(Time::from_ticks(50)), Delta::from_ticks(200));
        assert_eq!(s.delta_at(Time::from_ticks(74)), Delta::from_ticks(200));
        assert_eq!(s.delta_at(Time::from_ticks(80)), Delta::from_ticks(40));
        // [0,50)@100 + [50,75)@200 + [75,100)@40 over 100 ticks.
        let avg = s.time_averaged(Time::from_ticks(100));
        assert!((avg - (100.0 * 50.0 + 200.0 * 25.0 + 40.0 * 25.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "source write")]
    fn unresolved_reads_fail_the_report() {
        let mut m = OnTimeMonitor::new(Delta::ZERO, Epsilon::ZERO);
        m.ingest_read(
            OpId::new(0),
            ObjectId::from_letter('X'),
            Value::new(9),
            Time::from_ticks(10),
        );
        let _ = m.into_report();
    }
}
