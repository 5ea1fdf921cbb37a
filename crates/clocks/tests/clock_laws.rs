//! Property tests of the clock laws: exactness of vector clocks,
//! plausibility of REV/Comb/Lamport, lattice laws of join/meet, and
//! the Definition 2 relation.

use proptest::prelude::*;
use tc_clocks::time::{compare_with_epsilon, definitely_before};
use tc_clocks::{
    ClockOrdering, CombClock, Epsilon, LamportClock, RevClock, SiteClock, Time, Timestamp,
    VectorClock,
};

/// A randomized message-passing schedule: (site, optional index of an
/// earlier event whose stamp the site receives).
fn schedule(n_sites: usize, len: usize) -> impl Strategy<Value = Vec<(usize, Option<usize>)>> {
    proptest::collection::vec(
        (0..n_sites, proptest::option::weighted(0.4, 0..1000usize)),
        1..len,
    )
}

/// Drives vector clocks (ground truth) and an arbitrary clock in lockstep
/// over the same schedule; returns parallel stamp vectors.
fn co_drive<C: SiteClock>(
    mk: impl Fn(usize) -> C,
    n_sites: usize,
    sched: &[(usize, Option<usize>)],
) -> (Vec<VectorClock>, Vec<C::Stamp>) {
    let mut vcs: Vec<VectorClock> = (0..n_sites).map(|s| VectorClock::new(s, n_sites)).collect();
    let mut others: Vec<C> = (0..n_sites).map(mk).collect();
    let mut truth: Vec<VectorClock> = Vec::new();
    let mut stamps: Vec<C::Stamp> = Vec::new();
    for &(site, recv) in sched {
        match recv
            .map(|r| r % truth.len().max(1))
            .filter(|_| !truth.is_empty())
        {
            Some(k) => {
                let tv: VectorClock = truth[k].clone();
                let ts: C::Stamp = stamps[k].clone();
                truth.push(vcs[site].observe(&tv));
                stamps.push(others[site].observe(&ts));
            }
            None => {
                truth.push(vcs[site].tick());
                stamps.push(others[site].tick());
            }
        }
    }
    (truth, stamps)
}

/// a→b in truth must imply Before in the clock under test; the reverse
/// direction must never be contradicted.
fn assert_plausible<S: Timestamp>(truth: &[VectorClock], stamps: &[S]) {
    for i in 0..truth.len() {
        for j in 0..truth.len() {
            let actual = truth[i].compare(&truth[j]);
            let reported = stamps[i].compare(&stamps[j]);
            match actual {
                ClockOrdering::Before => assert_eq!(
                    reported,
                    ClockOrdering::Before,
                    "event {i} causally precedes {j} but clock said {reported:?}"
                ),
                ClockOrdering::After => assert_eq!(reported, ClockOrdering::After),
                ClockOrdering::Equal => assert_eq!(reported, ClockOrdering::Equal),
                ClockOrdering::Concurrent => {
                    // Plausible clocks may order concurrent events — any
                    // verdict is allowed here.
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vector_clocks_are_exact(sched in schedule(4, 40)) {
        let (truth, stamps) = co_drive(|s| VectorClock::new(s, 4), 4, &sched);
        // Exactness: the "clock under test" IS a vector clock, so verdicts
        // must match the ground truth including concurrency.
        for i in 0..truth.len() {
            for j in 0..truth.len() {
                prop_assert_eq!(truth[i].compare(&truth[j]), stamps[i].compare(&stamps[j]));
            }
        }
    }

    #[test]
    fn rev_is_plausible(sched in schedule(5, 40), r in 1usize..4) {
        let (truth, stamps) = co_drive(|s| RevClock::new(s, r), 5, &sched);
        assert_plausible(&truth, &stamps);
    }

    #[test]
    fn lamport_is_plausible(sched in schedule(4, 40)) {
        let (truth, stamps) = co_drive(LamportClock::new, 4, &sched);
        assert_plausible(&truth, &stamps);
    }

    #[test]
    fn comb_is_plausible_and_no_worse_than_components(sched in schedule(5, 35)) {
        let (truth, stamps) =
            co_drive(|s| CombClock::new(RevClock::new(s, 2), RevClock::new(s, 3)), 5, &sched);
        assert_plausible(&truth, &stamps);
        // Accuracy: comb detects concurrency at least wherever either
        // component does.
        for i in 0..truth.len() {
            for j in 0..truth.len() {
                if truth[i].compare(&truth[j]) == ClockOrdering::Concurrent {
                    let first = stamps[i].first().compare(stamps[j].first());
                    let second = stamps[i].second().compare(stamps[j].second());
                    if first == ClockOrdering::Concurrent || second == ClockOrdering::Concurrent {
                        prop_assert_eq!(
                            stamps[i].compare(&stamps[j]),
                            ClockOrdering::Concurrent
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn vector_join_meet_lattice_laws(
        a in proptest::collection::vec(0u64..50, 3),
        b in proptest::collection::vec(0u64..50, 3),
        c in proptest::collection::vec(0u64..50, 3),
    ) {
        let va = VectorClock::from_entries(0, a);
        let vb = VectorClock::from_entries(1, b);
        let vc = VectorClock::from_entries(2, c);
        // Commutativity (entries; owners differ by design).
        let (jab, jba) = (va.join(&vb), vb.join(&va));
        prop_assert_eq!(jab.entries(), jba.entries());
        let (mab, mba) = (va.meet(&vb), vb.meet(&va));
        prop_assert_eq!(mab.entries(), mba.entries());
        // Associativity.
        let left = va.join(&vb).join(&vc);
        let right = va.join(&vb.join(&vc));
        prop_assert_eq!(left.entries(), right.entries());
        // Absorption: a ⊔ (a ⊓ b) = a.
        let absorbed = va.join(&va.meet(&vb));
        prop_assert_eq!(absorbed.entries(), va.entries());
        // Idempotence.
        let idem = va.join(&va);
        prop_assert_eq!(idem.entries(), va.entries());
        // Bound properties.
        prop_assert!(va.dominated_by(&va.join(&vb)));
        prop_assert!(va.meet(&vb).dominated_by(&va));
    }

    #[test]
    fn definitely_before_is_a_strict_partial_order(
        a in 0u64..1000, b in 0u64..1000, c in 0u64..1000, eps in 0u64..100
    ) {
        let (ta, tb, tc) = (Time::from_ticks(a), Time::from_ticks(b), Time::from_ticks(c));
        let eps = Epsilon::from_ticks(eps);
        // Irreflexive.
        prop_assert!(!definitely_before(ta, ta, eps));
        // Asymmetric.
        if definitely_before(ta, tb, eps) {
            prop_assert!(!definitely_before(tb, ta, eps));
        }
        // Transitive.
        if definitely_before(ta, tb, eps) && definitely_before(tb, tc, eps) {
            prop_assert!(definitely_before(ta, tc, eps));
        }
        // Consistency with the three-way comparison.
        match compare_with_epsilon(ta, tb, eps) {
            ClockOrdering::Before => prop_assert!(definitely_before(ta, tb, eps)),
            ClockOrdering::After => prop_assert!(definitely_before(tb, ta, eps)),
            _ => {
                prop_assert!(!definitely_before(ta, tb, eps));
                prop_assert!(!definitely_before(tb, ta, eps));
            }
        }
    }
}
