//! Vector clocks (Fidge 1991, Mattern 1989): the exact characterization of
//! the causality relation, and the timestamp type the paper's §5.3 protocol
//! and §5.4 ξ-maps are defined over.

use core::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{ClockOrdering, SiteClock, Timestamp};

/// A vector clock for a fixed set of `n` sites.
///
/// The value doubles as both the site-local clock (it remembers which entry
/// it owns) and the timestamp carried on messages; comparing two values
/// compares only their entry vectors.
///
/// The entries are shared, copy-on-write: a clone — a stamp handed to a
/// cache entry, a message, a recorded operation — copies a pointer, and
/// [`SiteClock::tick`] / [`SiteClock::observe`] copy the entries only
/// while some clone still shares them. A clone therefore never changes
/// when the clock it came from advances.
///
/// ```
/// use tc_clocks::{ClockOrdering, SiteClock, Timestamp, VectorClock};
///
/// let mut a = VectorClock::new(0, 3);
/// let mut b = VectorClock::new(1, 3);
/// let ta = a.tick();
/// let tb = b.tick();
/// assert_eq!(ta.compare(&tb), ClockOrdering::Concurrent);
/// let tb2 = b.observe(&ta);
/// assert_eq!(ta.compare(&tb2), ClockOrdering::Before);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorClock {
    entries: Arc<[u64]>,
    site: usize,
}

impl VectorClock {
    /// Creates the zero clock owned by `site` in a system of `n_sites`.
    ///
    /// # Panics
    ///
    /// Panics if `site >= n_sites` or `n_sites == 0`.
    #[must_use]
    pub fn new(site: usize, n_sites: usize) -> Self {
        assert!(n_sites > 0, "a vector clock needs at least one site");
        assert!(
            site < n_sites,
            "site index {site} out of range for {n_sites} sites"
        );
        VectorClock {
            entries: std::iter::repeat_n(0, n_sites).collect(),
            site,
        }
    }

    /// Builds a timestamp directly from entry values; the owner is recorded
    /// as `site`. Intended for tests and for reconstructing persisted
    /// timestamps (a decoder that fills a shared slice in place hands it
    /// over without a copy).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or `site` is out of range.
    #[must_use]
    pub fn from_entries(site: usize, entries: impl Into<Arc<[u64]>>) -> Self {
        let entries = entries.into();
        assert!(!entries.is_empty(), "entry vector must be non-empty");
        assert!(site < entries.len(), "owner site out of range");
        VectorClock { entries, site }
    }

    /// The per-site event counts.
    #[must_use]
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// The number of sites this clock tracks.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.entries.len()
    }

    /// The site that owns this clock (whose entry [`VectorClock::tick`]
    /// advances). Together with [`VectorClock::entries`] this is the full
    /// serializable identity of the clock — wire codecs rebuild it with
    /// [`VectorClock::from_entries`].
    #[must_use]
    pub fn site(&self) -> usize {
        self.site
    }

    /// The entry owned by this clock's site.
    #[must_use]
    pub fn own_entry(&self) -> u64 {
        self.entries[self.site]
    }

    /// Componentwise `<=` — the reflexive causal order on vector times.
    #[must_use]
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.entries.len(), other.entries.len());
        self.entries
            .iter()
            .zip(other.entries.iter())
            .all(|(a, b)| a <= b)
    }

    /// Total number of events this timestamp knows about — the "amount of
    /// global activity" reading of §5.4 (the [`crate::SumXi`] map).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.entries.iter().sum()
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ">@s{}", self.site)
    }
}

impl Timestamp for VectorClock {
    fn compare(&self, other: &Self) -> ClockOrdering {
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "cannot compare vector clocks of different dimension"
        );
        let mut less = false;
        let mut greater = false;
        for (a, b) in self.entries.iter().zip(other.entries.iter()) {
            if a < b {
                less = true;
            } else if a > b {
                greater = true;
            }
        }
        match (less, greater) {
            (false, false) => ClockOrdering::Equal,
            (true, false) => ClockOrdering::Before,
            (false, true) => ClockOrdering::After,
            (true, true) => ClockOrdering::Concurrent,
        }
    }

    /// When one side dominates, the join *is* that side's entries, shared
    /// rather than copied.
    fn join(&self, other: &Self) -> Self {
        assert_eq!(self.entries.len(), other.entries.len());
        let entries = match self.compare(other) {
            ClockOrdering::After | ClockOrdering::Equal => Arc::clone(&self.entries),
            ClockOrdering::Before => Arc::clone(&other.entries),
            ClockOrdering::Concurrent => self
                .entries
                .iter()
                .zip(other.entries.iter())
                .map(|(a, b)| *a.max(b))
                .collect(),
        };
        VectorClock {
            entries,
            site: self.site,
        }
    }

    fn meet(&self, other: &Self) -> Self {
        assert_eq!(self.entries.len(), other.entries.len());
        VectorClock {
            entries: self
                .entries
                .iter()
                .zip(other.entries.iter())
                .map(|(a, b)| *a.min(b))
                .collect(),
            site: self.site,
        }
    }
}

impl SiteClock for VectorClock {
    type Stamp = VectorClock;

    fn tick(&mut self) -> VectorClock {
        Arc::make_mut(&mut self.entries)[self.site] += 1;
        self.clone()
    }

    fn observe(&mut self, remote: &VectorClock) -> VectorClock {
        assert_eq!(self.entries.len(), remote.entries.len());
        let entries = Arc::make_mut(&mut self.entries);
        for (mine, theirs) in entries.iter_mut().zip(remote.entries.iter()) {
            *mine = (*mine).max(*theirs);
        }
        entries[self.site] += 1;
        self.clone()
    }

    fn current(&self) -> VectorClock {
        self.clone()
    }

    fn site(&self) -> usize {
        self.site
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(site: usize, entries: &[u64]) -> VectorClock {
        VectorClock::from_entries(site, entries.to_vec())
    }

    #[test]
    fn paper_figure7_orderings() {
        // Figure 7b: <3,2> < <3,4>; Figure 7c: <2,4> || <3,2>.
        let t34 = vc(0, &[3, 4]);
        let t32 = vc(0, &[3, 2]);
        let t24 = vc(0, &[2, 4]);
        assert_eq!(t32.compare(&t34), ClockOrdering::Before);
        assert_eq!(t34.compare(&t32), ClockOrdering::After);
        assert_eq!(t24.compare(&t32), ClockOrdering::Concurrent);
        assert_eq!(t32.compare(&t24), ClockOrdering::Concurrent);
    }

    #[test]
    fn equal_and_reflexive() {
        let t = vc(1, &[1, 2, 3]);
        assert_eq!(t.compare(&t), ClockOrdering::Equal);
    }

    #[test]
    fn tick_advances_own_entry_only() {
        let mut c = VectorClock::new(1, 3);
        c.tick();
        c.tick();
        assert_eq!(c.entries(), &[0, 2, 0]);
        assert_eq!(c.own_entry(), 2);
    }

    #[test]
    fn observe_merges_and_ticks() {
        let mut a = VectorClock::new(0, 2);
        let mut b = VectorClock::new(1, 2);
        a.tick();
        a.tick();
        let tb = b.observe(&a.current());
        assert_eq!(tb.entries(), &[2, 1]);
        assert!(a.current().precedes(&tb));
    }

    #[test]
    fn join_meet_are_componentwise() {
        let a = vc(0, &[3, 0, 5]);
        let b = vc(1, &[1, 4, 5]);
        assert_eq!(a.join(&b).entries(), &[3, 4, 5]);
        assert_eq!(a.meet(&b).entries(), &[1, 0, 5]);
        // join/meet keep the receiver's owner site
        assert_eq!(a.join(&b).site, 0);
    }

    #[test]
    fn stamps_share_entries_until_the_clock_advances() {
        let mut clock = VectorClock::new(0, 3);
        let stamp = clock.tick();
        assert!(
            Arc::ptr_eq(&stamp.entries, &clock.entries),
            "a stamp is a shared copy"
        );
        clock.tick();
        clock.observe(&vc(2, &[0, 0, 7]));
        assert_eq!(
            stamp.entries(),
            &[1, 0, 0],
            "advancing the clock copies, never mutates a stamp"
        );
        assert_eq!(clock.entries(), &[3, 0, 7]);
        // A dominated join shares the dominating side's entries.
        let joined = clock.join(&stamp);
        assert!(Arc::ptr_eq(&joined.entries, &clock.entries));
        assert!(Arc::ptr_eq(&stamp.join(&clock).entries, &clock.entries));
        assert_eq!(
            stamp.join(&clock).site(),
            0,
            "join keeps the receiver's owner"
        );
    }

    #[test]
    fn join_is_least_upper_bound() {
        let a = vc(0, &[3, 0]);
        let b = vc(1, &[1, 4]);
        let j = a.join(&b);
        assert!(a.dominated_by(&j));
        assert!(b.dominated_by(&j));
    }

    #[test]
    fn total_events_sums_entries() {
        assert_eq!(vc(0, &[35, 4, 0, 72]).total_events(), 111);
        assert_eq!(vc(0, &[2, 1, 0, 18]).total_events(), 21);
    }

    #[test]
    fn exactness_on_transitive_chain() {
        // a -> b -> c via messages; d concurrent with all of b, c.
        let mut s0 = VectorClock::new(0, 3);
        let mut s1 = VectorClock::new(1, 3);
        let mut s2 = VectorClock::new(2, 3);
        let a = s0.tick();
        let b = s1.observe(&a);
        let c = s2.observe(&b);
        let mut s3 = VectorClock::new(0, 3);
        s3.tick();
        s3.tick();
        let d = s3.tick(); // <3,0,0>: not dominated by b=<1,1,0> or c
        assert_eq!(a.compare(&c), ClockOrdering::Before);
        assert_eq!(c.compare(&a), ClockOrdering::After);
        assert_eq!(d.compare(&b), ClockOrdering::Concurrent);
    }

    #[test]
    #[should_panic(expected = "site index")]
    fn constructor_validates_site() {
        let _ = VectorClock::new(3, 3);
    }

    #[test]
    #[should_panic(expected = "different dimension")]
    fn compare_validates_dimension() {
        let _ = vc(0, &[1]).compare(&vc(0, &[1, 2]));
    }

    #[test]
    fn debug_format_shows_entries() {
        assert_eq!(format!("{:?}", vc(1, &[3, 4])), "<3,4>@s1");
    }
}
