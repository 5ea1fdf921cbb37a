//! ξ-maps (paper §5.4, Definition 5): order-preserving maps from logical
//! timestamps to real numbers.
//!
//! Definition 5 requires, for logical timestamps `t`, `u`:
//!
//! * `t = u  ⟹  ξ(t) = ξ(u)`
//! * `t → u  ⟹  ξ(t) < ξ(u)`
//!
//! Informally, `ξ(t)` measures "the amount of global activity of the system
//! known when the event with timestamp `t` was generated". For concurrent
//! timestamps ξ still produces a number, which is exactly what lets the
//! logical-clock TCC approximation (Definition 6) bound staleness without
//! physical clocks: a read is on time while `ξ(t_i) − ξ(t) ≤ Δ`.
//!
//! The two maps worked out in the paper are implemented here:
//! [`SumXi`] (`ξ(t) = Σ t[i]`, the number of known global events, Figure 7's
//! event count) and [`NormXi`] (`ξ(t) = ‖t‖₂`, the geometric interpretation
//! of Figure 7).

/// An order-preserving map from logical-timestamp component vectors to ℝ.
///
/// Implementations receive the raw counter components (a vector clock's
/// entries, or a plausible clock's compressed entries). The Definition 5
/// laws, for componentwise-ordered inputs, are checked by this crate's
/// property tests:
///
/// * equal components map to equal values;
/// * strictly dominated components map to strictly smaller values.
pub trait XiMap {
    /// Maps timestamp components to a real number.
    fn xi(&self, components: &[u64]) -> f64;

    /// A short human-readable name for experiment tables.
    fn name(&self) -> &'static str;
}

/// `ξ(t) = Σᵢ t[i]` — the number of global events known at `t`.
///
/// The paper's example: a site at logical time `<35, 4, 0, 72>` is aware of
/// 111 global events; an object version written at `<2, 1, 0, 18>` was
/// created knowing 21, so for any Δ < 90 that version is invalidated or
/// marked old.
///
/// ```
/// use tc_clocks::{SumXi, XiMap};
/// assert_eq!(SumXi.xi(&[35, 4, 0, 72]), 111.0);
/// assert_eq!(SumXi.xi(&[2, 1, 0, 18]), 21.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SumXi;

impl XiMap for SumXi {
    fn xi(&self, components: &[u64]) -> f64 {
        components.iter().map(|&c| c as f64).sum()
    }

    fn name(&self) -> &'static str {
        "sum"
    }
}

/// `ξ(t) = ‖t‖₂` — the Euclidean length of the timestamp vector, Figure 7's
/// geometric interpretation.
///
/// ```
/// use tc_clocks::{NormXi, XiMap};
/// assert_eq!(NormXi.xi(&[3, 4]), 5.0);                 // Figure 7a
/// assert!((NormXi.xi(&[3, 2]) - 3.61).abs() < 0.01);   // Figure 7b
/// assert!((NormXi.xi(&[2, 4]) - 4.47).abs() < 0.01);   // Figure 7c
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NormXi;

impl XiMap for NormXi {
    fn xi(&self, components: &[u64]) -> f64 {
        components
            .iter()
            .map(|&c| {
                let c = c as f64;
                c * c
            })
            .sum::<f64>()
            .sqrt()
    }

    fn name(&self) -> &'static str {
        "norm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sum_matches_paper_example() {
        assert_eq!(SumXi.xi(&[35, 4, 0, 72]), 111.0);
        assert_eq!(SumXi.xi(&[2, 1, 0, 18]), 21.0);
        // "For any value of Δ < 90, this object version is either
        // invalidated or marked as old": the ξ gap is exactly 90.
        assert_eq!(SumXi.xi(&[35, 4, 0, 72]) - SumXi.xi(&[2, 1, 0, 18]), 90.0);
    }

    #[test]
    fn norm_matches_figure7() {
        assert_eq!(NormXi.xi(&[3, 4]), 5.0);
        assert!((NormXi.xi(&[3, 2]) - 13.0_f64.sqrt()).abs() < 1e-12);
        assert!((NormXi.xi(&[2, 4]) - 20.0_f64.sqrt()).abs() < 1e-12);
        // Figure 7c's claim: <2,4> denotes awareness of more global
        // activity than <3,2> even though they are concurrent.
        assert!(NormXi.xi(&[2, 4]) > NormXi.xi(&[3, 2]));
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(SumXi.name(), NormXi.name());
    }

    /// Definition 5 laws, checked for every map over componentwise-ordered
    /// random vectors.
    fn strictly_dominates(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y) && a != b
    }

    proptest! {
        #[test]
        fn definition5_laws(
            base in proptest::collection::vec(0u64..1000, 1..8),
            bumps in proptest::collection::vec(0u64..50, 1..8),
        ) {
            let n = base.len().min(bumps.len());
            let a = &base[..n];
            let b: Vec<u64> = a.iter().zip(&bumps[..n]).map(|(x, y)| x + y).collect();
            let maps: Vec<Box<dyn XiMap>> = vec![Box::new(SumXi), Box::new(NormXi)];
            for m in &maps {
                // t = u => xi(t) = xi(u)
                prop_assert_eq!(m.xi(a), m.xi(a));
                if strictly_dominates(a, &b) {
                    // t -> u => xi(t) < xi(u); dominance is what "->" means
                    // for componentwise-ordered logical timestamps.
                    prop_assert!(
                        m.xi(a) < m.xi(&b),
                        "{} not strictly monotone on {:?} < {:?}",
                        m.name(), a, b
                    );
                }
            }
        }
    }
}
