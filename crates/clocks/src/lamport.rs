//! Scalar Lamport clocks ("Time, clocks and the ordering of events",
//! CACM 1978).
//!
//! A Lamport clock is the degenerate plausible clock of size 1: it orders
//! *every* pair of distinct timestamps, so it never reports concurrency and
//! therefore over-approximates causality maximally while using constant
//! space. It is included both as a baseline for the plausible-clock
//! experiments and as a building block for [`crate::CombClock`].

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::{ClockOrdering, SiteClock, Timestamp};

/// A scalar Lamport timestamp: a counter plus the id of the site that
/// produced it (the classic total-order tie-breaker).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LamportStamp {
    counter: u64,
    site: usize,
}

impl LamportStamp {
    /// The timestamp of "no events yet" at `site`.
    #[must_use]
    pub fn origin(site: usize) -> Self {
        LamportStamp { counter: 0, site }
    }

    /// The scalar counter value.
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The site that produced this timestamp.
    #[must_use]
    pub fn site(&self) -> usize {
        self.site
    }
}

impl fmt::Debug for LamportStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}@s{}", self.counter, self.site)
    }
}

impl Timestamp for LamportStamp {
    fn compare(&self, other: &Self) -> ClockOrdering {
        match (self.counter.cmp(&other.counter), self.site == other.site) {
            (core::cmp::Ordering::Equal, true) => ClockOrdering::Equal,
            (core::cmp::Ordering::Equal, false) => {
                // Same counter, different sites: the events cannot be
                // causally related (a causal path always increments), so the
                // clock's honest verdict is concurrency.
                ClockOrdering::Concurrent
            }
            (core::cmp::Ordering::Less, _) => ClockOrdering::Before,
            (core::cmp::Ordering::Greater, _) => ClockOrdering::After,
        }
    }

    fn join(&self, other: &Self) -> Self {
        if other.counter > self.counter {
            *other
        } else {
            *self
        }
    }

    fn meet(&self, other: &Self) -> Self {
        if other.counter < self.counter {
            *other
        } else {
            *self
        }
    }
}

/// A site-local Lamport clock.
///
/// ```
/// use tc_clocks::{LamportClock, SiteClock, Timestamp, ClockOrdering};
///
/// let mut p = LamportClock::new(0);
/// let mut q = LamportClock::new(1);
/// let send = p.tick();
/// let recv = q.observe(&send);
/// assert_eq!(send.compare(&recv), ClockOrdering::Before);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LamportClock {
    now: LamportStamp,
}

impl LamportClock {
    /// Creates the clock of site `site`, starting at counter 0.
    #[must_use]
    pub fn new(site: usize) -> Self {
        LamportClock {
            now: LamportStamp::origin(site),
        }
    }
}

impl SiteClock for LamportClock {
    type Stamp = LamportStamp;

    fn tick(&mut self) -> LamportStamp {
        self.now.counter += 1;
        self.now
    }

    fn observe(&mut self, remote: &LamportStamp) -> LamportStamp {
        self.now.counter = self.now.counter.max(remote.counter) + 1;
        self.now
    }

    fn current(&self) -> LamportStamp {
        self.now
    }

    fn site(&self) -> usize {
        self.now.site
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_monotone() {
        let mut c = LamportClock::new(3);
        let a = c.tick();
        let b = c.tick();
        assert_eq!(a.compare(&b), ClockOrdering::Before);
        assert_eq!(b.compare(&a), ClockOrdering::After);
        assert_eq!(b.counter(), 2);
        assert_eq!(b.site(), 3);
    }

    #[test]
    fn observe_jumps_past_remote() {
        let mut p = LamportClock::new(0);
        let mut q = LamportClock::new(1);
        for _ in 0..5 {
            p.tick();
        }
        let sent = p.current();
        let got = q.observe(&sent);
        assert_eq!(got.counter(), 6);
        assert_eq!(sent.compare(&got), ClockOrdering::Before);
    }

    #[test]
    fn equal_counters_across_sites_are_concurrent() {
        let mut p = LamportClock::new(0);
        let mut q = LamportClock::new(1);
        let a = p.tick();
        let b = q.tick();
        assert_eq!(a.compare(&b), ClockOrdering::Concurrent);
    }

    #[test]
    fn equal_only_for_identical_stamps() {
        let mut p = LamportClock::new(0);
        let a = p.tick();
        assert_eq!(a.compare(&a), ClockOrdering::Equal);
    }

    #[test]
    fn join_and_meet_pick_extremes() {
        let lo = LamportStamp {
            counter: 2,
            site: 0,
        };
        let hi = LamportStamp {
            counter: 9,
            site: 1,
        };
        assert_eq!(lo.join(&hi).counter(), 9);
        assert_eq!(lo.meet(&hi).counter(), 2);
        assert_eq!(hi.join(&lo).counter(), 9);
        assert_eq!(hi.meet(&lo).counter(), 2);
    }

    #[test]
    fn current_does_not_advance() {
        let mut c = LamportClock::new(0);
        c.tick();
        let a = c.current();
        let b = c.current();
        assert_eq!(a, b);
    }

    #[test]
    fn plausibility_never_reverses_causality() {
        // Build a causal chain across three sites and check every ordered
        // pair is reported Before.
        let mut clocks: Vec<LamportClock> = (0..3).map(LamportClock::new).collect();
        let a = clocks[0].tick();
        let b = clocks[1].observe(&a);
        let c = clocks[2].observe(&b);
        for (x, y) in [(&a, &b), (&b, &c), (&a, &c)] {
            assert_eq!(x.compare(y), ClockOrdering::Before);
        }
    }
}
