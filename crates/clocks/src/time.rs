//! Physical time: instants, the timed-consistency threshold Δ, the clock
//! synchronization bound ε, and the *definitely-occurred-before* relation of
//! the paper's §3.2.
//!
//! All quantities are integer *ticks*. A tick is an abstract unit — the
//! paper's example executions use small integers (e.g. a write at instant
//! 338), the simulator interprets a tick as a microsecond, and `tc-store`
//! maps wall-clock nanoseconds onto ticks. Keeping the unit abstract lets
//! every layer share the same arithmetic and the same Definition 2
//! comparisons.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use crate::ClockOrdering;

/// An instant of (possibly simulated) physical time, in ticks.
///
/// `Time` is totally ordered and supports saturating subtraction, which is
/// what Definition 1 needs to evaluate `T(r) − Δ` near the origin of time.
///
/// ```
/// use tc_clocks::{Delta, Time};
/// let r = Time::from_ticks(436);
/// let delta = Delta::from_ticks(50);
/// assert_eq!(r.saturating_sub_delta(delta), Time::from_ticks(386));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The origin of time (tick 0).
    pub const ZERO: Time = Time(0);
    /// The largest representable instant.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates an instant from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        Time(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// `self − delta`, saturating at [`Time::ZERO`].
    ///
    /// This is the instant `T(r) − Δ` of Definition 1: writes older than
    /// this bound must have been observed by an on-time read.
    #[must_use]
    pub const fn saturating_sub_delta(self, delta: Delta) -> Time {
        Time(self.0.saturating_sub(delta.0))
    }

    /// `self + delta`, saturating at [`Time::MAX`].
    #[must_use]
    pub const fn saturating_add_delta(self, delta: Delta) -> Time {
        Time(self.0.saturating_add(delta.0))
    }

    /// The duration from `earlier` to `self`, or [`Delta::ZERO`] if
    /// `earlier` is later than `self`.
    #[must_use]
    pub const fn saturating_since(self, earlier: Time) -> Delta {
        Delta(self.0.saturating_sub(earlier.0))
    }

    /// The larger of two instants.
    #[must_use]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The smaller of two instants.
    #[must_use]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add<Delta> for Time {
    type Output = Time;
    fn add(self, rhs: Delta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Delta> for Time {
    fn add_assign(&mut self, rhs: Delta) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Delta;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Time::saturating_since`] when the ordering is not statically known.
    fn sub(self, rhs: Time) -> Delta {
        Delta(self.0 - rhs.0)
    }
}

/// The timed-consistency threshold Δ: the maximum acceptable real time
/// between a write's effective time and the instant by which every site must
/// observe it.
///
/// `Delta::ZERO` specializes timed serial consistency to linearizability and
/// [`Delta::INFINITE`] relaxes it to plain sequential consistency (paper
/// Figure 4b).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Delta(u64);

impl Delta {
    /// Δ = 0: timed serial consistency degenerates to linearizability.
    pub const ZERO: Delta = Delta(0);
    /// Δ = ∞ (practically): timed serial consistency relaxes to sequential
    /// consistency.
    pub const INFINITE: Delta = Delta(u64::MAX);

    /// Creates a threshold from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        Delta(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Whether this is the degenerate Δ = ∞ threshold.
    #[must_use]
    pub const fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }

    /// The larger of two thresholds.
    #[must_use]
    pub fn max(self, other: Delta) -> Delta {
        Delta(self.0.max(other.0))
    }
}

impl fmt::Debug for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "Δ∞")
        } else {
            write!(f, "Δ{}", self.0)
        }
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "inf")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl Add<Delta> for Delta {
    type Output = Delta;
    fn add(self, rhs: Delta) -> Delta {
        Delta(self.0.saturating_add(rhs.0))
    }
}

/// The clock-synchronization bound ε of §3.2: no two site clocks differ by
/// more than ε ticks, and each clock is within ε/2 of true time. (The
/// simulator realizes it with fault-plan clock-skew offsets, ε = twice the
/// largest.)
///
/// With ε = 0 the Definition 2 comparisons below reduce to Definition 1's
/// perfectly-synchronized comparisons.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epsilon(u64);

impl Epsilon {
    /// ε = 0: perfectly synchronized clocks (Definition 1).
    pub const ZERO: Epsilon = Epsilon(0);

    /// Creates a bound from a raw tick count.
    #[must_use]
    pub const fn from_ticks(ticks: u64) -> Self {
        Epsilon(ticks)
    }

    /// Returns the raw tick count.
    #[must_use]
    pub const fn ticks(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε{}", self.0)
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The *definitely occurred before* relation of §3.2: `a` definitely
/// occurred before `b` iff `T(a) + ε < T(b)`.
///
/// Reported timestamps are only accurate to ±ε/2 relative to the time
/// server, so two instants closer than ε are *non-comparable* — the
/// imprecision of the clocks does not allow deciding which event came first.
///
/// ```
/// use tc_clocks::time::definitely_before;
/// use tc_clocks::{Epsilon, Time};
///
/// let eps = Epsilon::from_ticks(10);
/// assert!(definitely_before(Time::from_ticks(0), Time::from_ticks(11), eps));
/// assert!(!definitely_before(Time::from_ticks(0), Time::from_ticks(10), eps));
/// ```
#[must_use]
pub fn definitely_before(a: Time, b: Time, eps: Epsilon) -> bool {
    a.ticks().saturating_add(eps.ticks()) < b.ticks()
}

/// Compares two reported timestamps under clock imprecision ε, returning
/// [`ClockOrdering::Concurrent`] when neither definitely occurred before the
/// other (the "non-comparable timestamps" of §3.2).
///
/// With `eps == Epsilon::ZERO` this is the total order on [`Time`] (except
/// that identical instants compare [`ClockOrdering::Equal`]).
#[must_use]
pub fn compare_with_epsilon(a: Time, b: Time, eps: Epsilon) -> ClockOrdering {
    if a == b && eps.ticks() == 0 {
        ClockOrdering::Equal
    } else if definitely_before(a, b, eps) {
        ClockOrdering::Before
    } else if definitely_before(b, a, eps) {
        ClockOrdering::After
    } else if a == b {
        ClockOrdering::Equal
    } else {
        ClockOrdering::Concurrent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_sub_delta_clamps_at_zero() {
        let t = Time::from_ticks(5);
        assert_eq!(t.saturating_sub_delta(Delta::from_ticks(7)), Time::ZERO);
        assert_eq!(
            t.saturating_sub_delta(Delta::from_ticks(2)),
            Time::from_ticks(3)
        );
    }

    #[test]
    fn saturating_add_delta_clamps_at_max() {
        let t = Time::from_ticks(u64::MAX - 1);
        assert_eq!(t.saturating_add_delta(Delta::from_ticks(10)), Time::MAX);
    }

    #[test]
    fn infinite_delta_swallows_everything() {
        let r = Time::from_ticks(123_456);
        assert_eq!(r.saturating_sub_delta(Delta::INFINITE), Time::ZERO);
        assert!(Delta::INFINITE.is_infinite());
        assert!(!Delta::from_ticks(u64::MAX - 1).is_infinite());
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let a = Time::from_ticks(100);
        let b = a + Delta::from_ticks(20);
        assert_eq!(b, Time::from_ticks(120));
        assert_eq!(b - a, Delta::from_ticks(20));
        assert_eq!(a.saturating_since(b), Delta::ZERO);
        assert_eq!(b.saturating_since(a), Delta::from_ticks(20));
    }

    #[test]
    fn definitely_before_strict_inequality() {
        let eps = Epsilon::from_ticks(4);
        // T(a) + eps < T(b) must be strict.
        assert!(!definitely_before(
            Time::from_ticks(10),
            Time::from_ticks(14),
            eps
        ));
        assert!(definitely_before(
            Time::from_ticks(10),
            Time::from_ticks(15),
            eps
        ));
    }

    #[test]
    fn definitely_before_zero_eps_is_strict_less() {
        assert!(definitely_before(
            Time::from_ticks(1),
            Time::from_ticks(2),
            Epsilon::ZERO
        ));
        assert!(!definitely_before(
            Time::from_ticks(2),
            Time::from_ticks(2),
            Epsilon::ZERO
        ));
    }

    #[test]
    fn compare_with_epsilon_classifies() {
        let eps = Epsilon::from_ticks(10);
        let a = Time::from_ticks(100);
        assert_eq!(
            compare_with_epsilon(a, Time::from_ticks(120), eps),
            ClockOrdering::Before
        );
        assert_eq!(
            compare_with_epsilon(Time::from_ticks(120), a, eps),
            ClockOrdering::After
        );
        assert_eq!(
            compare_with_epsilon(a, Time::from_ticks(105), eps),
            ClockOrdering::Concurrent
        );
        assert_eq!(compare_with_epsilon(a, a, eps), ClockOrdering::Equal);
    }

    #[test]
    fn compare_with_zero_epsilon_is_total() {
        let a = Time::from_ticks(5);
        let b = Time::from_ticks(6);
        assert_eq!(
            compare_with_epsilon(a, b, Epsilon::ZERO),
            ClockOrdering::Before
        );
        assert_eq!(
            compare_with_epsilon(b, a, Epsilon::ZERO),
            ClockOrdering::After
        );
        assert_eq!(
            compare_with_epsilon(a, a, Epsilon::ZERO),
            ClockOrdering::Equal
        );
    }

    #[test]
    fn definitely_before_saturates_near_max() {
        // T(a) + eps saturates instead of overflowing.
        assert!(!definitely_before(
            Time::from_ticks(u64::MAX - 1),
            Time::MAX,
            Epsilon::from_ticks(u64::MAX)
        ));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_ticks(42).to_string(), "42");
        assert_eq!(Delta::from_ticks(7).to_string(), "7");
        assert_eq!(Delta::INFINITE.to_string(), "inf");
        assert_eq!(format!("{:?}", Time::from_ticks(3)), "t3");
        assert_eq!(format!("{:?}", Delta::from_ticks(3)), "Δ3");
        assert_eq!(format!("{:?}", Epsilon::from_ticks(3)), "ε3");
    }
}
