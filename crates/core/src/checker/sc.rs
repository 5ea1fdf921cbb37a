//! Sequential consistency (Lamport): a legal serialization respecting every
//! site's program order.
//!
//! Deciding SC is NP-complete in general, so this is an exact exponential
//! search made practical by two measures:
//!
//! * **Greedy reads** — if the next operation of some site is a read that is
//!   legal in the current prefix, it can be scheduled immediately without
//!   loss of generality (reads do not change object state, so any witness
//!   that schedules the read later can be rewritten to schedule it now).
//!   Only *writes* are branch points.
//! * **Frontier memoization** — the search state is exactly (per-site
//!   progress, last written value per object); states reached twice are
//!   pruned.
//!
//! The search is budgeted ([`crate::checker::SearchOptions`]) and returns
//! [`Outcome::Inconclusive`] when the budget runs out.

use std::collections::HashSet;

use crate::checker::{Outcome, SearchOptions};
use crate::{History, OpId, Serialization, SiteId, Value};

/// Result of the sequential-consistency search.
#[derive(Clone, Debug)]
pub struct ScVerdict {
    outcome: Outcome,
    witness: Option<Serialization>,
}

impl ScVerdict {
    /// The three-valued outcome.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        self.outcome
    }

    /// Whether SC was proven to hold.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.outcome.holds()
    }

    /// A legal, program-order-respecting serialization when found.
    #[must_use]
    pub fn witness(&self) -> Option<&Serialization> {
        self.witness.as_ref()
    }
}

/// Checks sequential consistency with the default search budget.
///
/// ```
/// use tc_core::checker::satisfies_sc;
/// use tc_core::History;
///
/// // Figure 1's execution is SC: serialize site 1 entirely before w(X)7.
/// let h = History::parse("w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220")?;
/// assert!(satisfies_sc(&h).holds());
/// # Ok::<(), tc_core::ParseHistoryError>(())
/// ```
#[must_use]
pub fn satisfies_sc(history: &History) -> ScVerdict {
    satisfies_sc_with(history, SearchOptions::default())
}

/// Checks sequential consistency under an explicit budget.
#[must_use]
pub fn satisfies_sc_with(history: &History, opts: SearchOptions) -> ScVerdict {
    let mut search = ScSearch::new(history, opts);
    let outcome = search.run();
    ScVerdict {
        outcome,
        witness: search.witness.map(Serialization::new),
    }
}

/// Dense object indexing for the last-write state vector.
pub(crate) struct ObjectIndex {
    ids: Vec<crate::ObjectId>,
}

impl ObjectIndex {
    pub(crate) fn of(history: &History) -> ObjectIndex {
        let mut ids: Vec<crate::ObjectId> = history
            .ids()
            .map(|id| history.object_of(id))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        ids.sort();
        ObjectIndex { ids }
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn index_of(&self, object: crate::ObjectId) -> usize {
        self.ids.binary_search(&object).expect("object is indexed")
    }
}

struct ScSearch<'h> {
    history: &'h History,
    opts: SearchOptions,
    objects: ObjectIndex,
    visited: HashSet<(Vec<usize>, Vec<Value>)>,
    states: usize,
    witness: Option<Vec<OpId>>,
}

impl<'h> ScSearch<'h> {
    fn new(history: &'h History, opts: SearchOptions) -> Self {
        ScSearch {
            history,
            opts,
            objects: ObjectIndex::of(history),
            visited: HashSet::new(),
            states: 0,
            witness: None,
        }
    }

    fn run(&mut self) -> Outcome {
        let frontier = vec![0usize; self.history.n_sites()];
        let last = vec![Value::INITIAL; self.objects.len()];
        let mut seq = Vec::with_capacity(self.history.len());
        match self.dfs(frontier, last, &mut seq) {
            Some(true) => {
                self.witness = Some(seq);
                Outcome::Satisfied
            }
            Some(false) => Outcome::Violated,
            None => Outcome::Inconclusive,
        }
    }

    /// Returns `Some(true)` on success (with `seq` completed), `Some(false)`
    /// on exhausted subtree, `None` on budget exhaustion.
    fn dfs(
        &mut self,
        mut frontier: Vec<usize>,
        mut last: Vec<Value>,
        seq: &mut Vec<OpId>,
    ) -> Option<bool> {
        let before_closure = seq.len();
        self.read_closure(&mut frontier, &last, seq);

        if seq.len() == self.history.len() {
            return Some(true);
        }

        let key = (frontier.clone(), last.clone());
        if !self.visited.insert(key) {
            seq.truncate(before_closure);
            return Some(false);
        }
        self.states += 1;
        if self.states > self.opts.max_states {
            return None;
        }

        // Branch on every site whose next operation is a write.
        for site in 0..frontier.len() {
            let ops = self.history.site_ops(SiteId::new(site));
            if frontier[site] >= ops.len() {
                continue;
            }
            let id = ops[frontier[site]];
            let op = self.history.op(id);
            if !op.is_write() {
                continue;
            }
            let obj = self.objects.index_of(op.object());
            let saved = last[obj];
            let mut next_frontier = frontier.clone();
            next_frontier[site] += 1;
            last[obj] = op.value();
            seq.push(id);
            match self.dfs(next_frontier, last.clone(), seq) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            seq.pop();
            last[obj] = saved;
        }

        seq.truncate(before_closure);
        Some(false)
    }

    /// Schedules every frontier read that is legal under `last`, repeatedly,
    /// advancing the frontier in place.
    fn read_closure(&self, frontier: &mut [usize], last: &[Value], seq: &mut Vec<OpId>) {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for site in 0..frontier.len() {
                let ops = self.history.site_ops(SiteId::new(site));
                while frontier[site] < ops.len() {
                    let id = ops[frontier[site]];
                    let op = self.history.op(id);
                    if !op.is_read() {
                        break;
                    }
                    let expected = last[self.objects.index_of(op.object())];
                    if op.value() != expected {
                        break;
                    }
                    seq.push(id);
                    frontier[site] += 1;
                    progressed = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    #[test]
    fn fig1_is_sc() {
        let h = History::parse("w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220 r1(X)1@300 r1(X)1@380")
            .unwrap();
        let v = satisfies_sc(&h);
        assert!(v.holds());
        let w = v.witness().unwrap();
        assert!(w.is_legal(&h));
        assert!(w.respects_program_order(&h));
        assert_eq!(w.len(), h.len());
    }

    #[test]
    fn classic_sc_violation() {
        // Dekker-style: both sites read the other's initial value after both
        // writes — impossible under SC.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 10);
        b.read(0, 'Y', 0, 20);
        b.write(1, 'Y', 2, 11);
        b.read(1, 'X', 0, 21);
        let h = b.build().unwrap();
        assert!(satisfies_sc(&h).outcome().fails());
    }

    #[test]
    fn iriw_violation() {
        // Independent reads of independent writes observed in opposite
        // orders: SC fails.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 10);
        b.write(1, 'Y', 2, 10);
        b.read(2, 'X', 1, 20);
        b.read(2, 'Y', 0, 30);
        b.read(3, 'Y', 2, 20);
        b.read(3, 'X', 0, 30);
        let h = b.build().unwrap();
        assert!(satisfies_sc(&h).outcome().fails());
    }

    #[test]
    fn write_order_must_be_findable() {
        // Site 2 observes X going 1 -> 2; the witness must order the writes
        // accordingly even though their effective times say otherwise.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 2, 10);
        b.write(1, 'X', 1, 20);
        b.read(2, 'X', 1, 30);
        b.read(2, 'X', 2, 40);
        let h = b.build().unwrap();
        let v = satisfies_sc(&h);
        assert!(v.holds(), "SC ignores real-time order of writes");
        assert!(v.witness().unwrap().is_legal(&h));
    }

    #[test]
    fn contradictory_observations_fail() {
        // Site 2 sees 1 then 2; site 3 sees 2 then 1: no single write order.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 10);
        b.write(1, 'X', 2, 10);
        b.read(2, 'X', 1, 20);
        b.read(2, 'X', 2, 30);
        b.read(3, 'X', 2, 20);
        b.read(3, 'X', 1, 30);
        let h = b.build().unwrap();
        assert!(satisfies_sc(&h).outcome().fails());
    }

    #[test]
    fn empty_and_trivial_histories() {
        assert!(satisfies_sc(&History::empty()).holds());
        let h = History::parse("w0(X)1@5").unwrap();
        assert!(satisfies_sc(&h).holds());
        let h = History::parse("r0(X)0@5").unwrap();
        assert!(satisfies_sc(&h).holds());
    }

    #[test]
    fn budget_exhaustion_is_inconclusive() {
        // Plenty of independent writes => huge interleaving space; with a
        // budget of 1 state the search must give up rather than guess.
        let mut b = HistoryBuilder::new();
        for s in 0..4usize {
            for k in 0..4u64 {
                b.write(s, 'X', (s as u64) * 100 + k + 1, 10 * (k + 1));
            }
        }
        // A read that cannot be satisfied early, forcing exploration.
        b.read(4, 'X', 304, 1000);
        b.read(4, 'X', 101, 1001);
        let h = b.build().unwrap();
        let v = satisfies_sc_with(&h, SearchOptions { max_states: 1 });
        assert_eq!(v.outcome(), Outcome::Inconclusive);
    }

    #[test]
    fn read_closure_handles_cross_site_unblocking() {
        // Site 1's read is only legal after site 0's write is scheduled;
        // site 2's read of initial must be scheduled before that write.
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 5, 10);
        b.read(1, 'X', 5, 20);
        b.read(2, 'X', 0, 5);
        let h = b.build().unwrap();
        let v = satisfies_sc(&h);
        assert!(v.holds());
        let seq = v.witness().unwrap().order().to_vec();
        // initial read first, then write, then read of 5.
        assert_eq!(seq.len(), 3);
        assert!(v.witness().unwrap().is_legal(&h));
    }
}
