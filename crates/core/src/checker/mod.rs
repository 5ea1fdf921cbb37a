//! Consistency checkers: LIN, SC, CC and the paper's timed criteria
//! TSC / TCC.
//!
//! Deciding sequential consistency is NP-complete (the paper cites
//! Gharachorloo & Gibbons and Taylor), so the SC and exact-CC checkers are
//! bounded searches: they return a three-valued [`Outcome`] and a witness
//! serialization when one is found. The timed layer (Definitions 1, 2 and
//! 6) is polynomial and serialization-independent for differentiated
//! histories, which is what makes `TSC = T ∩ SC` and `TCC = T ∩ CC`
//! directly computable.

mod cc;
mod ccv;
mod hierarchy;
mod lin;
mod monitor;
mod sc;
pub mod timed;
mod tsc;

pub use cc::{satisfies_cc, satisfies_cc_fast, satisfies_cc_with, CcVerdict};
pub use ccv::satisfies_ccv;
pub use hierarchy::{classify, classify_with, Classification};
pub use lin::{satisfies_lin, LinVerdict};
pub use monitor::{DeltaSchedule, OnTimeMonitor};
pub use sc::{satisfies_sc, satisfies_sc_with, ScVerdict};
pub use timed::{
    check_on_time, check_on_time_naive, check_on_time_xi, min_delta, min_delta_eps,
    min_delta_eps_naive, OnTimeViolation, TimedReport, XiTimedReport,
};
pub use tsc::{
    satisfies_tcc, satisfies_tcc_eps, satisfies_tsc, satisfies_tsc_eps, TccVerdict, TscVerdict,
};

/// Three-valued result of a bounded search.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// A witness was found: the criterion is satisfied.
    Satisfied,
    /// The search space was exhausted: the criterion is violated.
    Violated,
    /// The state budget ran out before the search completed.
    Inconclusive,
}

impl Outcome {
    /// Whether the criterion was proven to hold.
    #[must_use]
    pub fn holds(self) -> bool {
        self == Outcome::Satisfied
    }

    /// Whether the criterion was proven violated.
    #[must_use]
    pub fn fails(self) -> bool {
        self == Outcome::Violated
    }

    /// Conjunction of two outcomes (used for `TSC = timed ∧ SC`): violated
    /// dominates, then inconclusive.
    #[must_use]
    pub fn and(self, other: Outcome) -> Outcome {
        use Outcome::{Inconclusive, Satisfied, Violated};
        match (self, other) {
            (Violated, _) | (_, Violated) => Violated,
            (Inconclusive, _) | (_, Inconclusive) => Inconclusive,
            (Satisfied, Satisfied) => Satisfied,
        }
    }
}

/// Limits for the exponential searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchOptions {
    /// Maximum number of distinct search states to visit before giving up
    /// with [`Outcome::Inconclusive`].
    pub max_states: usize,
}

impl SearchOptions {
    /// A generous default budget (histories of a few hundred operations
    /// virtually never exhaust it thanks to the greedy-read pruning).
    pub const DEFAULT: SearchOptions = SearchOptions {
        max_states: 1_000_000,
    };
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_and_table() {
        use Outcome::{Inconclusive, Satisfied, Violated};
        assert_eq!(Satisfied.and(Satisfied), Satisfied);
        assert_eq!(Satisfied.and(Violated), Violated);
        assert_eq!(Violated.and(Inconclusive), Violated);
        assert_eq!(Satisfied.and(Inconclusive), Inconclusive);
        assert_eq!(Inconclusive.and(Inconclusive), Inconclusive);
        assert!(Satisfied.holds() && !Satisfied.fails());
        assert!(Violated.fails() && !Violated.holds());
        assert!(!Inconclusive.holds() && !Inconclusive.fails());
    }

    #[test]
    fn default_options() {
        assert_eq!(SearchOptions::default(), SearchOptions::DEFAULT);
        const { assert!(SearchOptions::DEFAULT.max_states >= 1_000_000) };
    }
}
