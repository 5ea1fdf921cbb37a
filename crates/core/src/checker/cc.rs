//! Causal consistency (Ahamad et al.'s *causal memory*): for each site `i`
//! there is a legal serialization of `H_{i+w}` (site `i`'s operations plus
//! every write) that respects the causal order.
//!
//! Two checkers are provided and cross-validated by property tests:
//!
//! * [`satisfies_cc`] — exact bounded search per site, mirroring the SC
//!   search but over the causal partial order; returns witnesses.
//! * [`satisfies_cc_fast`] — a polynomial saturation checker in the style of
//!   Bouajjani et al. (POPL '17): derive every ordering any legal
//!   serialization *must* contain, and declare a violation exactly when the
//!   derived relation is cyclic (or orders a write before a read of the
//!   initial value). Valid for differentiated histories, which
//!   [`crate::History`] enforces by construction.

use std::collections::HashSet;

use crate::checker::sc::ObjectIndex;
use crate::checker::{Outcome, SearchOptions};
use crate::{CausalOrder, History, OpId, Serialization, SiteId, Value};

/// Result of the causal-consistency check.
#[derive(Clone, Debug)]
pub struct CcVerdict {
    outcome: Outcome,
    witnesses: Option<Vec<Serialization>>,
}

impl CcVerdict {
    /// The three-valued outcome.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        self.outcome
    }

    /// Whether CC was proven to hold.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.outcome.holds()
    }

    /// Per-site serializations of `H_{i+w}` when CC holds (paper Fig. 6b).
    #[must_use]
    pub fn witnesses(&self) -> Option<&[Serialization]> {
        self.witnesses.as_deref()
    }
}

/// Checks causal consistency by exact search with the default budget.
///
/// ```
/// use tc_core::checker::satisfies_cc;
/// use tc_core::History;
///
/// // Concurrent writes may be seen in different orders by different sites.
/// let h = History::parse(
///     "w0(X)1@10 w1(X)2@12 r2(X)1@20 r2(X)2@30 r3(X)2@20 r3(X)1@30",
/// )?;
/// assert!(satisfies_cc(&h).holds());
/// # Ok::<(), tc_core::ParseHistoryError>(())
/// ```
#[must_use]
pub fn satisfies_cc(history: &History) -> CcVerdict {
    satisfies_cc_with(history, SearchOptions::default())
}

/// Checks causal consistency by exact search under an explicit budget.
#[must_use]
pub fn satisfies_cc_with(history: &History, opts: SearchOptions) -> CcVerdict {
    let co = CausalOrder::of(history);
    if co.is_cyclic() {
        return CcVerdict {
            outcome: Outcome::Violated,
            witnesses: None,
        };
    }
    let mut witnesses = Vec::with_capacity(history.n_sites());
    for site in 0..history.n_sites() {
        let mut search = SiteSearch::new(history, &co, SiteId::new(site), opts);
        match search.run() {
            Some(Some(seq)) => witnesses.push(Serialization::new(seq)),
            Some(None) => {
                return CcVerdict {
                    outcome: Outcome::Violated,
                    witnesses: None,
                }
            }
            None => {
                return CcVerdict {
                    outcome: Outcome::Inconclusive,
                    witnesses: None,
                }
            }
        }
    }
    CcVerdict {
        outcome: Outcome::Satisfied,
        witnesses: Some(witnesses),
    }
}

/// Per-site search for a legal serialization of `H_{i+w}` respecting the
/// causal order.
struct SiteSearch<'h> {
    history: &'h History,
    opts: SearchOptions,
    objects: ObjectIndex,
    /// Members of `H_{i+w}`.
    members: Vec<OpId>,
    /// For each member: bitset (over member indices) of causal predecessors
    /// within the set.
    preds: Vec<Vec<u64>>,
    /// Member indices that are reads (all from site `i`).
    read_members: Vec<usize>,
    /// Member indices that are writes.
    write_members: Vec<usize>,
    words: usize,
    visited: HashSet<(Vec<u64>, Vec<Value>)>,
    states: usize,
}

impl<'h> SiteSearch<'h> {
    fn new(
        history: &'h History,
        co: &CausalOrder,
        site: SiteId,
        opts: SearchOptions,
    ) -> SiteSearch<'h> {
        let mut members: Vec<OpId> = history.writes().map(|w| w.id()).collect();
        members.extend(
            history
                .site_ops(site)
                .iter()
                .copied()
                .filter(|&id| history.op(id).is_read()),
        );
        members.sort();
        let words = members.len().div_ceil(64).max(1);
        let mut preds = vec![vec![0u64; words]; members.len()];
        for (a_idx, &a) in members.iter().enumerate() {
            for (b_idx, &b) in members.iter().enumerate() {
                if co.precedes(a, b) {
                    preds[b_idx][a_idx / 64] |= 1 << (a_idx % 64);
                }
            }
        }
        let read_members = (0..members.len())
            .filter(|&m| history.op(members[m]).is_read())
            .collect();
        let write_members = (0..members.len())
            .filter(|&m| history.op(members[m]).is_write())
            .collect();
        SiteSearch {
            history,
            opts,
            objects: ObjectIndex::of(history),
            members,
            preds,
            read_members,
            write_members,
            words,
            visited: HashSet::new(),
            states: 0,
        }
    }

    /// `Some(Some(seq))` on success, `Some(None)` if no serialization
    /// exists, `None` on budget exhaustion.
    fn run(&mut self) -> Option<Option<Vec<OpId>>> {
        let scheduled = vec![0u64; self.words];
        let last = vec![Value::INITIAL; self.objects.len()];
        let mut seq = Vec::with_capacity(self.members.len());
        match self.dfs(scheduled, last, &mut seq) {
            Some(true) => Some(Some(seq.iter().map(|&m| self.members[m]).collect())),
            Some(false) => Some(None),
            None => None,
        }
    }

    fn ready(&self, m: usize, scheduled: &[u64]) -> bool {
        scheduled[m / 64] & (1 << (m % 64)) == 0
            && self.preds[m]
                .iter()
                .zip(scheduled)
                .all(|(p, s)| p & !s == 0)
    }

    fn dfs(
        &mut self,
        mut scheduled: Vec<u64>,
        mut last: Vec<Value>,
        seq: &mut Vec<usize>,
    ) -> Option<bool> {
        let before = seq.len();
        // Greedy: schedule ready, legal reads immediately.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for &m in &self.read_members {
                if self.ready(m, &scheduled) {
                    let op = self.history.op(self.members[m]);
                    let expected = last[self.objects.index_of(op.object())];
                    if op.value() == expected {
                        scheduled[m / 64] |= 1 << (m % 64);
                        seq.push(m);
                        progressed = true;
                    }
                }
            }
        }

        if seq.len() == self.members.len() {
            return Some(true);
        }

        if !self.visited.insert((scheduled.clone(), last.clone())) {
            seq.truncate(before);
            return Some(false);
        }
        self.states += 1;
        if self.states > self.opts.max_states {
            return None;
        }

        for idx in 0..self.write_members.len() {
            let m = self.write_members[idx];
            if !self.ready(m, &scheduled) {
                continue;
            }
            let op = self.history.op(self.members[m]);
            let obj = self.objects.index_of(op.object());
            let saved = last[obj];
            let mut next = scheduled.clone();
            next[m / 64] |= 1 << (m % 64);
            last[obj] = op.value();
            seq.push(m);
            match self.dfs(next, last.clone(), seq) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => return None,
            }
            seq.pop();
            last[obj] = saved;
        }

        seq.truncate(before);
        Some(false)
    }
}

/// Polynomial causal-memory check by saturation (no witness, always
/// conclusive).
///
/// For each site `i`, over `D = H_{i+w}`, derive the orderings every legal
/// causal serialization must contain, starting from the causal order and
/// closing under two rules for each read `r` of write `w` on object `X` and
/// every other write `w'` to `X`:
///
/// 1. `w' → r` implies `w' → w` (an already-ordered `w'` may not land
///    between `w` and `r`, so it must precede `w`); reading the *initial*
///    value with `w' → r` is an immediate violation.
/// 2. `w → w'` implies `r → w'`.
///
/// The site admits a serialization iff the saturated relation is acyclic.
/// Property tests cross-validate this against the exact search.
#[must_use]
pub fn satisfies_cc_fast(history: &History) -> Outcome {
    let co = CausalOrder::of(history);
    if co.is_cyclic() {
        return Outcome::Violated;
    }
    for site in 0..history.n_sites() {
        if !site_admits_serialization(history, &co, SiteId::new(site)) {
            return Outcome::Violated;
        }
    }
    Outcome::Satisfied
}

fn site_admits_serialization(history: &History, co: &CausalOrder, site: SiteId) -> bool {
    let mut members: Vec<OpId> = history.writes().map(|w| w.id()).collect();
    members.extend(
        history
            .site_ops(site)
            .iter()
            .copied()
            .filter(|&id| history.op(id).is_read()),
    );
    members.sort();
    let n = members.len();
    let words = n.div_ceil(64).max(1);
    let idx_of = |id: OpId| members.binary_search(&id).expect("member");

    // rel[a]: bitset of members that must come after a.
    let mut rel = vec![0u64; n * words];
    for (a_idx, &a) in members.iter().enumerate() {
        for (b_idx, &b) in members.iter().enumerate() {
            if co.precedes(a, b) {
                rel[a_idx * words + b_idx / 64] |= 1 << (b_idx % 64);
            }
        }
    }

    let has = |rel: &[u64], a: usize, b: usize| rel[a * words + b / 64] & (1 << (b % 64)) != 0;

    // Pre-collect (read, source, same-object writes) triples.
    struct ReadInfo {
        r: usize,
        source: Option<usize>,
        others: Vec<usize>,
    }
    let reads: Vec<ReadInfo> = members
        .iter()
        .enumerate()
        .filter(|(_, &id)| history.op(id).is_read())
        .map(|(r_idx, &id)| {
            let op = history.op(id);
            let source = history.source_of(id).expect("read has source").map(idx_of);
            let others = history
                .writes_to(op.object())
                .iter()
                .map(|&w| idx_of(w))
                .filter(|&w| Some(w) != source)
                .collect();
            ReadInfo {
                r: r_idx,
                source,
                others,
            }
        })
        .collect();

    loop {
        let mut new_edges: Vec<(usize, usize)> = Vec::new();
        for info in &reads {
            for &w_other in &info.others {
                if has(&rel, w_other, info.r) {
                    match info.source {
                        None => return false, // write ordered before an initial-value read
                        Some(w) => {
                            if !has(&rel, w_other, w) {
                                new_edges.push((w_other, w));
                            }
                        }
                    }
                }
                if let Some(w) = info.source {
                    if has(&rel, w, w_other) && !has(&rel, info.r, w_other) {
                        new_edges.push((info.r, w_other));
                    }
                }
            }
        }
        if new_edges.is_empty() {
            break;
        }
        for (a, b) in new_edges {
            rel[a * words + b / 64] |= 1 << (b % 64);
        }
        // Re-close transitively.
        let mut changed = true;
        while changed {
            changed = false;
            for a in 0..n {
                for b in 0..n {
                    if has(&rel, a, b) {
                        let (pa, pb) = (a * words, b * words);
                        for w in 0..words {
                            let merged = rel[pa + w] | rel[pb + w];
                            if merged != rel[pa + w] {
                                rel[pa + w] = merged;
                                changed = true;
                            }
                        }
                    }
                }
            }
        }
        // Early cycle detection.
        if (0..n).any(|a| has(&rel, a, a)) {
            return false;
        }
    }
    (0..n).all(|a| !has(&rel, a, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistoryBuilder;

    fn concurrent_writes_opposite_orders() -> History {
        History::parse("w0(X)1@10 w1(X)2@12 r2(X)1@20 r2(X)2@30 r3(X)2@20 r3(X)1@30").unwrap()
    }

    #[test]
    fn cc_allows_opposite_orders_of_concurrent_writes() {
        let h = concurrent_writes_opposite_orders();
        let v = satisfies_cc(&h);
        assert!(v.holds());
        assert_eq!(satisfies_cc_fast(&h), Outcome::Satisfied);
        // ... while SC forbids it.
        assert!(super::super::sc::satisfies_sc(&h).outcome().fails());
    }

    #[test]
    fn cc_witnesses_are_valid() {
        let h = concurrent_writes_opposite_orders();
        let v = satisfies_cc(&h);
        let co = CausalOrder::of(&h);
        let ws = v.witnesses().unwrap();
        assert_eq!(ws.len(), h.n_sites());
        for w in ws {
            assert!(w.is_legal(&h));
            assert!(w.respects(|a, b| co.precedes(a, b)));
        }
    }

    #[test]
    fn causally_ordered_writes_must_be_seen_in_order() {
        // w(X)1 -> (read by site 1) -> w(X)2, but site 2 reads 2 then 1:
        // the paper's canonical CC violation (a -> b -> c with c reading a).
        let mut b = HistoryBuilder::new();
        b.write(0, 'X', 1, 10);
        b.read(1, 'X', 1, 20);
        b.write(1, 'X', 2, 30);
        b.read(2, 'X', 2, 40);
        b.read(2, 'X', 1, 50);
        let h = b.build().unwrap();
        assert!(satisfies_cc(&h).outcome().fails());
        assert_eq!(satisfies_cc_fast(&h), Outcome::Violated);
    }

    #[test]
    fn reading_initial_after_causal_write_fails() {
        // Site 1 reads X=1 (so w0 -> its ops), then reads Y=0 although the
        // writer of X=1 had previously written Y=2... build the chain:
        // w0(Y)2 po w0(X)1, site1: r(X)1 then r(Y)0 — Y=0 after Y=2 is
        // causally before: violation.
        let mut b = HistoryBuilder::new();
        b.write(0, 'Y', 2, 10);
        b.write(0, 'X', 1, 20);
        b.read(1, 'X', 1, 30);
        b.read(1, 'Y', 0, 40);
        let h = b.build().unwrap();
        assert!(satisfies_cc(&h).outcome().fails());
        assert_eq!(satisfies_cc_fast(&h), Outcome::Violated);
    }

    #[test]
    fn cyclic_causality_is_violated() {
        let mut b = HistoryBuilder::new();
        b.read(0, 'Y', 2, 40);
        b.write(0, 'X', 1, 100);
        b.read(1, 'X', 1, 50);
        b.write(1, 'Y', 2, 60);
        let h = b.build().unwrap();
        assert!(satisfies_cc(&h).outcome().fails());
        assert_eq!(satisfies_cc_fast(&h), Outcome::Violated);
    }

    #[test]
    fn sc_implies_cc_on_samples() {
        for text in [
            "w0(X)7@100 w1(X)1@80 r1(X)1@140 r1(X)1@220",
            "w0(X)1@10 r1(X)1@20 w0(X)2@30 r1(X)2@40",
            "w0(A)1@10 w1(B)2@15 r0(B)2@20 r1(A)1@25",
        ] {
            let h = History::parse(text).unwrap();
            assert!(
                super::super::sc::satisfies_sc(&h).holds(),
                "sample should be SC: {text}"
            );
            assert!(satisfies_cc(&h).holds(), "SC ⊆ CC failed on {text}");
            assert_eq!(satisfies_cc_fast(&h), Outcome::Satisfied);
        }
    }

    #[test]
    fn empty_history_is_cc() {
        assert!(satisfies_cc(&History::empty()).holds());
        assert_eq!(satisfies_cc_fast(&History::empty()), Outcome::Satisfied);
    }

    #[test]
    fn budget_exhaustion_reports_inconclusive() {
        let mut b = HistoryBuilder::new();
        for s in 0..4usize {
            for k in 0..4u64 {
                b.write(s, 'X', (s as u64) * 100 + k + 1, 10 * (k + 1));
            }
        }
        b.read(4, 'X', 304, 1000);
        b.read(4, 'X', 101, 1001);
        let h = b.build().unwrap();
        let v = satisfies_cc_with(&h, SearchOptions { max_states: 1 });
        assert_eq!(v.outcome(), Outcome::Inconclusive);
    }

    #[test]
    fn per_site_reads_dont_leak_across_sites() {
        // Site 2's serialization need not include site 3's reads: opposite
        // observation orders stay independent (same as the doc example but
        // exercising witnesses per site).
        let h = concurrent_writes_opposite_orders();
        let v = satisfies_cc(&h);
        let ws = v.witnesses().unwrap();
        // Each witness covers all 2 writes plus that site's reads.
        assert_eq!(ws[0].len(), 2);
        assert_eq!(ws[2].len(), 4);
        assert_eq!(ws[3].len(), 4);
    }
}
