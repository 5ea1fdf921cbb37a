//! Plausible clocks: constant-size logical clocks (Torres-Rojas & Ahamad,
//! WDAG '96), cited by §5.3–5.4 of the timed-consistency paper as the
//! low-overhead alternative to vector clocks in the CC/TCC lifetime
//! protocols.
//!
//! A *plausible* clock never contradicts causality: if event `a` causally
//! precedes event `b` the clock reports [`ClockOrdering::Before`], and it
//! never reports the reverse of the true causal order. What it gives up is
//! exactness — some genuinely concurrent pairs are reported as ordered. The
//! pay-off is that timestamps have **constant size** `R`, independent of the
//! number of sites.
//!
//! Two constructions are provided:
//!
//! * [`RevClock`] — the *R-Entries Vector*: a vector clock compressed to `R`
//!   entries by mapping site `i` to entry `i mod R`.
//! * [`CombClock`] — the combination of two plausible clocks, whose verdict
//!   is the intersection of the component verdicts; it is at least as
//!   accurate as either component.

use core::fmt;

use crate::{ClockOrdering, SiteClock, Timestamp};

/// A timestamp of the *R-Entries Vector* plausible clock.
///
/// Carries the owning site id `e` and a vector `v` of `R` counters; site `i`
/// updates entry `i mod R`. Comparison follows the REV rules:
///
/// * same owner — ordered by the owner's entry (a site's events are totally
///   ordered);
/// * different owners `e`, `f` — `t` is before `u` iff `v ≤ w` componentwise
///   **and** `v[f mod R] < w[f mod R]` (a causal path into `u`'s site always
///   bumps that entry past everything `t` knew).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RevStamp {
    owner: usize,
    entries: Vec<u64>,
}

impl RevStamp {
    /// The owning site's id.
    #[must_use]
    pub fn owner(&self) -> usize {
        self.owner
    }

    /// The `R` counters.
    #[must_use]
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// The number of entries `R`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.entries.len()
    }

    fn slot(&self, site: usize) -> usize {
        site % self.entries.len()
    }

    fn dominated_by(&self, other: &RevStamp) -> bool {
        self.entries.iter().zip(&other.entries).all(|(a, b)| a <= b)
    }
}

impl fmt::Debug for RevStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R<")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ">@s{}", self.owner)
    }
}

impl Timestamp for RevStamp {
    fn compare(&self, other: &Self) -> ClockOrdering {
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "cannot compare REV stamps of different size"
        );
        if self.owner == other.owner {
            let slot = self.slot(self.owner);
            return match self.entries[slot].cmp(&other.entries[slot]) {
                core::cmp::Ordering::Less => ClockOrdering::Before,
                core::cmp::Ordering::Greater => ClockOrdering::After,
                core::cmp::Ordering::Equal => {
                    if self.entries == other.entries {
                        ClockOrdering::Equal
                    } else {
                        // Defensive: same owner and own-entry but different
                        // vectors cannot arise from a single well-formed
                        // site; report concurrency rather than guess.
                        ClockOrdering::Concurrent
                    }
                }
            };
        }
        let fwd = self.dominated_by(other)
            && self.entries[self.slot(other.owner)] < other.entries[self.slot(other.owner)];
        let bwd = other.dominated_by(self)
            && other.entries[self.slot(self.owner)] < self.entries[self.slot(self.owner)];
        match (fwd, bwd) {
            (true, false) => ClockOrdering::Before,
            (false, true) => ClockOrdering::After,
            _ => {
                if self.entries == other.entries {
                    // Identical knowledge, different owners: not causally
                    // relatable in either direction.
                    ClockOrdering::Concurrent
                } else {
                    ClockOrdering::Concurrent
                }
            }
        }
    }

    fn join(&self, other: &Self) -> Self {
        assert_eq!(self.entries.len(), other.entries.len());
        RevStamp {
            owner: self.owner,
            entries: self
                .entries
                .iter()
                .zip(&other.entries)
                .map(|(a, b)| *a.max(b))
                .collect(),
        }
    }

    fn meet(&self, other: &Self) -> Self {
        assert_eq!(self.entries.len(), other.entries.len());
        RevStamp {
            owner: self.owner,
            entries: self
                .entries
                .iter()
                .zip(&other.entries)
                .map(|(a, b)| *a.min(b))
                .collect(),
        }
    }
}

/// The site-local *R-Entries Vector* clock.
///
/// ```
/// use tc_clocks::{ClockOrdering, RevClock, SiteClock, Timestamp};
///
/// // 8 sites sharing a 3-entry vector.
/// let mut a = RevClock::new(0, 3);
/// let mut b = RevClock::new(5, 3);
/// let ta = a.tick();
/// let tb = b.observe(&ta);
/// assert_eq!(ta.compare(&tb), ClockOrdering::Before); // causality preserved
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RevClock {
    now: RevStamp,
}

impl RevClock {
    /// Creates the clock of site `site` using `r` shared entries.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    #[must_use]
    pub fn new(site: usize, r: usize) -> Self {
        assert!(r > 0, "REV clock needs at least one entry");
        RevClock {
            now: RevStamp {
                owner: site,
                entries: vec![0; r],
            },
        }
    }
}

impl SiteClock for RevClock {
    type Stamp = RevStamp;

    fn tick(&mut self) -> RevStamp {
        let slot = self.now.slot(self.now.owner);
        self.now.entries[slot] += 1;
        self.now.clone()
    }

    fn observe(&mut self, remote: &RevStamp) -> RevStamp {
        assert_eq!(self.now.entries.len(), remote.entries.len());
        for (mine, theirs) in self.now.entries.iter_mut().zip(&remote.entries) {
            *mine = (*mine).max(*theirs);
        }
        let slot = self.now.slot(self.now.owner);
        self.now.entries[slot] += 1;
        self.now.clone()
    }

    fn current(&self) -> RevStamp {
        self.now.clone()
    }

    fn site(&self) -> usize {
        self.now.owner
    }
}

/// A timestamp combining two plausible clocks (the `Comb` construction).
///
/// The comparison verdict is the [`ClockOrdering::intersect`] of the
/// component verdicts: both components must agree for the pair to be
/// reported ordered, so `Comb` detects at least as many concurrent pairs as
/// its better component while remaining plausible.
#[derive(Clone, PartialEq)]
pub struct CombStamp<A, B> {
    first: A,
    second: B,
}

impl<A, B> CombStamp<A, B> {
    /// The first component timestamp.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// The second component timestamp.
    pub fn second(&self) -> &B {
        &self.second
    }
}

impl<A: fmt::Debug, B: fmt::Debug> fmt::Debug for CombStamp<A, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Comb({:?}, {:?})", self.first, self.second)
    }
}

impl<A: Timestamp, B: Timestamp> Timestamp for CombStamp<A, B> {
    fn compare(&self, other: &Self) -> ClockOrdering {
        self.first
            .compare(&other.first)
            .intersect(self.second.compare(&other.second))
    }

    fn join(&self, other: &Self) -> Self {
        CombStamp {
            first: self.first.join(&other.first),
            second: self.second.join(&other.second),
        }
    }

    fn meet(&self, other: &Self) -> Self {
        CombStamp {
            first: self.first.meet(&other.first),
            second: self.second.meet(&other.second),
        }
    }
}

/// A site-local clock running two plausible clocks in lockstep.
///
/// A common instantiation combines two [`RevClock`]s with co-prime sizes, so
/// that two sites collide in at most one component:
///
/// ```
/// use tc_clocks::{CombClock, RevClock, SiteClock, Timestamp, ClockOrdering};
///
/// let mk = |site| CombClock::new(RevClock::new(site, 2), RevClock::new(site, 3));
/// let mut a = mk(0);
/// let mut b = mk(1);
/// let ta = a.tick();
/// let tb = b.tick();
/// // Sites 0 and 1 collide in neither component, so concurrency is detected.
/// assert_eq!(ta.compare(&tb), ClockOrdering::Concurrent);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CombClock<A, B> {
    first: A,
    second: B,
}

impl<A: SiteClock, B: SiteClock> CombClock<A, B> {
    /// Combines two component clocks.
    ///
    /// # Panics
    ///
    /// Panics if the components disagree about which site owns them.
    #[must_use]
    pub fn new(first: A, second: B) -> Self {
        assert_eq!(
            first.site(),
            second.site(),
            "combined clocks must belong to the same site"
        );
        CombClock { first, second }
    }
}

impl<A: SiteClock, B: SiteClock> SiteClock for CombClock<A, B> {
    type Stamp = CombStamp<A::Stamp, B::Stamp>;

    fn tick(&mut self) -> Self::Stamp {
        CombStamp {
            first: self.first.tick(),
            second: self.second.tick(),
        }
    }

    fn observe(&mut self, remote: &Self::Stamp) -> Self::Stamp {
        CombStamp {
            first: self.first.observe(&remote.first),
            second: self.second.observe(&remote.second),
        }
    }

    fn current(&self) -> Self::Stamp {
        CombStamp {
            first: self.first.current(),
            second: self.second.current(),
        }
    }

    fn site(&self) -> usize {
        self.first.site()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LamportClock;

    #[test]
    fn rev_preserves_causal_chain() {
        // 6 sites compressed into 2 entries; causal chain across sites.
        let mut clocks: Vec<RevClock> = (0..6).map(|s| RevClock::new(s, 2)).collect();
        let a = clocks[0].tick();
        let b = clocks[3].observe(&a);
        let c = clocks[5].observe(&b);
        assert_eq!(a.compare(&b), ClockOrdering::Before);
        assert_eq!(b.compare(&c), ClockOrdering::Before);
        assert_eq!(a.compare(&c), ClockOrdering::Before);
        assert_eq!(c.compare(&a), ClockOrdering::After);
    }

    #[test]
    fn rev_same_owner_total_order() {
        let mut c = RevClock::new(2, 3);
        let a = c.tick();
        let b = c.tick();
        assert_eq!(a.compare(&b), ClockOrdering::Before);
        assert_eq!(b.compare(&a), ClockOrdering::After);
        assert_eq!(a.compare(&a), ClockOrdering::Equal);
    }

    #[test]
    fn rev_may_order_concurrent_events_but_never_reverses() {
        // Sites 0 and 2 share entry 0 (mod 2): their independent events are
        // falsely ordered — the allowed plausible-clock inaccuracy.
        let mut a = RevClock::new(0, 2);
        let mut b = RevClock::new(2, 2);
        let ta = a.tick();
        let tb = b.observe(&ta); // true causality: ta -> tb
        assert_eq!(ta.compare(&tb), ClockOrdering::Before);
        assert_ne!(tb.compare(&ta), ClockOrdering::Before);
    }

    #[test]
    fn rev_detects_concurrency_without_collision() {
        let mut a = RevClock::new(0, 4);
        let mut b = RevClock::new(1, 4);
        let ta = a.tick();
        let tb = b.tick();
        assert_eq!(ta.compare(&tb), ClockOrdering::Concurrent);
    }

    #[test]
    fn rev_join_meet_componentwise() {
        let mut a = RevClock::new(0, 2);
        let mut b = RevClock::new(1, 2);
        a.tick();
        a.tick();
        b.tick();
        let ta = a.current();
        let tb = b.current();
        assert_eq!(ta.join(&tb).entries(), &[2, 1]);
        assert_eq!(ta.meet(&tb).entries(), &[0, 0]);
    }

    #[test]
    fn comb_requires_same_site() {
        let c = CombClock::new(RevClock::new(1, 2), RevClock::new(1, 3));
        assert_eq!(c.site(), 1);
    }

    #[test]
    #[should_panic(expected = "same site")]
    fn comb_rejects_mismatched_sites() {
        let _ = CombClock::new(RevClock::new(0, 2), RevClock::new(1, 3));
    }

    #[test]
    fn comb_is_at_least_as_accurate_as_components() {
        // Sites 0 and 2 collide mod 2 but not mod 3: the pair of independent
        // events is ordered by the first component but the Comb notices the
        // concurrency through the second.
        let mk = |s| CombClock::new(RevClock::new(s, 2), RevClock::new(s, 3));
        let mut a = mk(0);
        let mut b = mk(2);
        let ta = a.tick();
        let tb = b.tick();
        assert_eq!(
            ta.first().compare(tb.first()),
            ClockOrdering::Concurrent,
            "sanity: slot collision makes counters equal, hence concurrent"
        );
        assert_eq!(ta.compare(&tb), ClockOrdering::Concurrent);
    }

    #[test]
    fn comb_preserves_causality() {
        let mk = |s| CombClock::new(RevClock::new(s, 2), LamportClock::new(s));
        let mut a = mk(0);
        let mut b = mk(1);
        let ta = a.tick();
        let tb = b.observe(&ta);
        assert_eq!(ta.compare(&tb), ClockOrdering::Before);
        assert_eq!(tb.compare(&ta), ClockOrdering::After);
    }

    #[test]
    fn comb_join_meet_delegate() {
        let mk = |s| CombClock::new(RevClock::new(s, 2), LamportClock::new(s));
        let mut a = mk(0);
        let mut b = mk(1);
        a.tick();
        b.tick();
        b.tick();
        let j = a.current().join(&b.current());
        assert_eq!(j.first().entries(), &[1, 2]);
        assert_eq!(j.second().counter(), 2);
        let m = a.current().meet(&b.current());
        assert_eq!(m.first().entries(), &[0, 0]);
        assert_eq!(m.second().counter(), 1);
    }

    /// Exhaustive plausibility check on a randomized message-passing run:
    /// wherever true (vector-clock) causality says Before, REV and Comb must
    /// also say Before.
    #[test]
    fn plausibility_against_vector_clock_ground_truth() {
        use crate::VectorClock;
        let n_sites = 5;
        let r = 2;
        let mut vcs: Vec<VectorClock> =
            (0..n_sites).map(|s| VectorClock::new(s, n_sites)).collect();
        let mut revs: Vec<RevClock> = (0..n_sites).map(|s| RevClock::new(s, r)).collect();
        let mut events: Vec<(VectorClock, RevStamp)> = Vec::new();

        // A fixed pseudo-random schedule (LCG) of local events and messages.
        let mut state = 0x9E37_79B9_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..60 {
            let s = next() % n_sites;
            if next() % 3 == 0 && !events.is_empty() {
                // receive a previously produced event
                let k = next() % events.len();
                let (vstamp, rstamp) = events[k].clone();
                let v = vcs[s].observe(&vstamp);
                let rr = revs[s].observe(&rstamp);
                events.push((v, rr));
            } else {
                let v = vcs[s].tick();
                let rr = revs[s].tick();
                events.push((v, rr));
            }
        }
        for (i, (va, ra)) in events.iter().enumerate() {
            for (vb, rb) in events.iter().skip(i + 1) {
                if va.compare(vb) == ClockOrdering::Before {
                    assert_eq!(
                        ra.compare(rb),
                        ClockOrdering::Before,
                        "REV reversed or missed causality: {ra:?} vs {rb:?}"
                    );
                }
                if va.compare(vb) == ClockOrdering::After {
                    assert_eq!(ra.compare(rb), ClockOrdering::After);
                }
            }
        }
    }
}
