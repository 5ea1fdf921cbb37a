//! The common vocabulary of logical clocks: the four-way causal ordering
//! verdict and the [`Timestamp`] / [`SiteClock`] traits every clock in this
//! crate implements.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Outcome of comparing two (logical or imprecise physical) timestamps.
///
/// Unlike [`core::cmp::Ordering`], this is a verdict about a *partial*
/// order: two timestamps may be [`ClockOrdering::Concurrent`], meaning the
/// clock carries no evidence that either event happened before the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClockOrdering {
    /// The timestamps are identical.
    Equal,
    /// The left timestamp (causally or definitely) precedes the right one.
    Before,
    /// The right timestamp (causally or definitely) precedes the left one.
    After,
    /// Neither timestamp precedes the other.
    Concurrent,
}

impl ClockOrdering {
    /// Swaps the roles of the two compared timestamps.
    #[must_use]
    pub fn reverse(self) -> ClockOrdering {
        match self {
            ClockOrdering::Before => ClockOrdering::After,
            ClockOrdering::After => ClockOrdering::Before,
            other => other,
        }
    }

    /// Whether the verdict is [`ClockOrdering::Before`].
    #[must_use]
    pub fn is_before(self) -> bool {
        self == ClockOrdering::Before
    }

    /// Whether the verdict is [`ClockOrdering::Before`] or
    /// [`ClockOrdering::Equal`] — the reflexive closure used when advancing
    /// lifetime bounds in the protocols of §5.
    #[must_use]
    pub fn is_before_or_equal(self) -> bool {
        matches!(self, ClockOrdering::Before | ClockOrdering::Equal)
    }

    /// Whether the verdict is [`ClockOrdering::Concurrent`].
    #[must_use]
    pub fn is_concurrent(self) -> bool {
        self == ClockOrdering::Concurrent
    }

    /// The verdict two independent clocks agree on, used by combined
    /// plausible clocks (the `Comb` construction of Torres-Rojas & Ahamad):
    /// if the component verdicts differ, the only safe answer is
    /// [`ClockOrdering::Concurrent`].
    #[must_use]
    pub fn intersect(self, other: ClockOrdering) -> ClockOrdering {
        use ClockOrdering::{After, Before, Concurrent, Equal};
        match (self, other) {
            (a, b) if a == b => a,
            // `Equal` carries no ordering information beyond reflexivity; a
            // strict verdict from the other component wins.
            (Equal, v) | (v, Equal) => v,
            (Before, After) | (After, Before) => Concurrent,
            (Concurrent, _) | (_, Concurrent) => Concurrent,
            _ => unreachable!("all combinations covered"),
        }
    }
}

impl fmt::Display for ClockOrdering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClockOrdering::Equal => "=",
            ClockOrdering::Before => "->",
            ClockOrdering::After => "<-",
            ClockOrdering::Concurrent => "||",
        };
        f.write_str(s)
    }
}

/// A logical timestamp: a value drawn from a clock that tracks (an
/// approximation of) the causality relation.
///
/// Implementations in this crate:
///
/// * [`crate::LamportStamp`] — scalar Lamport time (a plausible clock of
///   size 1).
/// * [`crate::VectorClock`] — exact characterization of causality.
/// * [`crate::RevStamp`] — the constant-size *R-entries vector* plausible
///   clock.
/// * [`crate::CombStamp`] — the combination of two plausible clocks.
///
/// # Plausibility
///
/// Every implementation is at least *plausible* in the sense of Torres-Rojas
/// & Ahamad: if event `a` causally precedes `b` then
/// `a.compare(&b) == ClockOrdering::Before`; the clock may additionally
/// order genuinely concurrent events, but it never *reverses* causality.
/// [`VectorClock`](crate::VectorClock) is moreover *exact*: it reports
/// [`ClockOrdering::Concurrent`] precisely for concurrent events.
pub trait Timestamp: Clone + fmt::Debug + PartialEq {
    /// Compares two timestamps, returning the clock's verdict about the
    /// causal relation of the events that produced them.
    fn compare(&self, other: &Self) -> ClockOrdering;

    /// The least upper bound (componentwise maximum) of two timestamps.
    ///
    /// This is the `max` of two logical timestamps required by the CC/TCC
    /// lifetime protocols (§5.3, citing "Computing Minimum and Maximum of
    /// Plausible Clocks").
    #[must_use]
    fn join(&self, other: &Self) -> Self;

    /// The greatest lower bound (componentwise minimum) of two timestamps.
    #[must_use]
    fn meet(&self, other: &Self) -> Self;

    /// Whether `self` causally precedes `other` according to this clock.
    fn precedes(&self, other: &Self) -> bool {
        self.compare(other) == ClockOrdering::Before
    }

    /// Whether the two timestamps are concurrent according to this clock.
    fn concurrent_with(&self, other: &Self) -> bool {
        self.compare(other) == ClockOrdering::Concurrent
    }
}

/// A process-local clock owned by one site, producing [`Timestamp`]s.
///
/// The protocol of interaction mirrors Lamport's rules: call
/// [`SiteClock::tick`] on every local event (including sends) and
/// [`SiteClock::observe`] when a remote timestamp arrives.
pub trait SiteClock {
    /// The timestamp type this clock produces.
    type Stamp: Timestamp;

    /// Advances the clock for a local event and returns the new timestamp.
    fn tick(&mut self) -> Self::Stamp;

    /// Merges a received remote timestamp into the clock, advances it for
    /// the receive event, and returns the new timestamp.
    fn observe(&mut self, remote: &Self::Stamp) -> Self::Stamp;

    /// The current timestamp without advancing the clock.
    fn current(&self) -> Self::Stamp;

    /// The index of the site that owns this clock.
    fn site(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_is_involutive() {
        for v in [
            ClockOrdering::Equal,
            ClockOrdering::Before,
            ClockOrdering::After,
            ClockOrdering::Concurrent,
        ] {
            assert_eq!(v.reverse().reverse(), v);
        }
        assert_eq!(ClockOrdering::Before.reverse(), ClockOrdering::After);
        assert_eq!(
            ClockOrdering::Concurrent.reverse(),
            ClockOrdering::Concurrent
        );
    }

    #[test]
    fn intersect_agreement_and_conflict() {
        use ClockOrdering::{After, Before, Concurrent, Equal};
        assert_eq!(Before.intersect(Before), Before);
        assert_eq!(Before.intersect(After), Concurrent);
        assert_eq!(After.intersect(Before), Concurrent);
        assert_eq!(Equal.intersect(Before), Before);
        assert_eq!(After.intersect(Equal), After);
        assert_eq!(Concurrent.intersect(Before), Concurrent);
        assert_eq!(Equal.intersect(Equal), Equal);
    }

    #[test]
    fn predicate_helpers() {
        assert!(ClockOrdering::Before.is_before());
        assert!(!ClockOrdering::After.is_before());
        assert!(ClockOrdering::Before.is_before_or_equal());
        assert!(ClockOrdering::Equal.is_before_or_equal());
        assert!(!ClockOrdering::Concurrent.is_before_or_equal());
        assert!(ClockOrdering::Concurrent.is_concurrent());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ClockOrdering::Before.to_string(), "->");
        assert_eq!(ClockOrdering::Concurrent.to_string(), "||");
    }
}
