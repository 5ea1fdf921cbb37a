//! The §5.3 plausible-clock trade-off, quantified: the paper's CC/TCC
//! protocols may take their timestamps "from vector clocks or from
//! plausible clocks", trading timestamp size against ordering accuracy.
//!
//! This experiment drives vector clocks (exact ground truth), REV clocks
//! of several sizes, Comb combinations, and Lamport clocks over identical
//! random message-passing executions, and reports:
//!
//! * **size** — timestamp entries carried on every message;
//! * **concurrency recall** — of the truly concurrent event pairs, how
//!   many the clock still reports concurrent (the rest are falsely
//!   ordered, which for the lifetime protocol means spurious
//!   invalidations);
//! * **causal accuracy** — ordered pairs are never misreported (checked,
//!   always 100%: the plausibility contract).

use super::Report;
use crate::{pct, Table};
use tc_clocks::{
    ClockOrdering, CombClock, LamportClock, RevClock, SiteClock, Timestamp, VectorClock,
};

#[derive(Default)]
struct Tally {
    concurrent_pairs: u64,
    detected: u64,
    ordered_pairs: u64,
    preserved: u64,
}

fn drive<C: SiteClock>(
    mk: impl Fn(usize) -> C,
    n_sites: usize,
    n_events: usize,
    seed: u64,
) -> (Vec<VectorClock>, Vec<C::Stamp>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 16) as usize
    };
    let mut vcs: Vec<VectorClock> = (0..n_sites).map(|s| VectorClock::new(s, n_sites)).collect();
    let mut cls: Vec<C> = (0..n_sites).map(mk).collect();
    let mut truth: Vec<VectorClock> = Vec::with_capacity(n_events);
    let mut stamps: Vec<C::Stamp> = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let s = next() % n_sites;
        if next() % 3 == 0 && !truth.is_empty() {
            let k = next() % truth.len();
            let tv: VectorClock = truth[k].clone();
            let ts: C::Stamp = stamps[k].clone();
            truth.push(vcs[s].observe(&tv));
            stamps.push(cls[s].observe(&ts));
        } else {
            truth.push(vcs[s].tick());
            stamps.push(cls[s].tick());
        }
    }
    (truth, stamps)
}

fn tally<S: Timestamp>(t: &mut Tally, truth: &[VectorClock], stamps: &[S]) {
    for i in 0..truth.len() {
        for j in i + 1..truth.len() {
            match truth[i].compare(&truth[j]) {
                ClockOrdering::Concurrent => {
                    t.concurrent_pairs += 1;
                    if stamps[i].compare(&stamps[j]) == ClockOrdering::Concurrent {
                        t.detected += 1;
                    }
                }
                ClockOrdering::Equal => {}
                ordered => {
                    t.ordered_pairs += 1;
                    if stamps[i].compare(&stamps[j]) == ordered {
                        t.preserved += 1;
                    }
                }
            }
        }
    }
}

/// Sites and events per execution, and executions per clock.
const SITES: usize = 24;
const EVENTS: usize = 400;
const RUNS: u64 = 5;

pub fn run() -> Report {
    let mut t = Table::new(
        format!(
            "Plausible-clock accuracy ({SITES} sites, {EVENTS} events, {RUNS} runs): \
             size vs concurrency recall"
        ),
        &["clock", "entries", "concurrency recall", "causal accuracy"],
    );

    let mut add = |name: &str, entries: usize, agg: Tally| {
        t.row(&[
            &name,
            &entries,
            &pct(agg.detected as f64 / agg.concurrent_pairs.max(1) as f64),
            &pct(agg.preserved as f64 / agg.ordered_pairs.max(1) as f64),
        ]);
    };

    macro_rules! measure {
        ($name:expr, $entries:expr, $mk:expr) => {{
            let mut agg = Tally::default();
            for seed in 1..=RUNS {
                let (truth, stamps) = drive($mk, SITES, EVENTS, seed);
                tally(&mut agg, &truth, &stamps);
            }
            assert_eq!(
                agg.preserved, agg.ordered_pairs,
                "{}: plausibility violated — causally ordered pair misreported",
                $name
            );
            add($name, $entries, agg);
        }};
    }

    measure!("vector", SITES, |s| VectorClock::new(s, SITES));
    measure!("rev-2", 2, |s| RevClock::new(s, 2));
    measure!("rev-4", 4, |s| RevClock::new(s, 4));
    measure!("rev-8", 8, |s| RevClock::new(s, 8));
    measure!("comb(2,3)", 5, |s| CombClock::new(
        RevClock::new(s, 2),
        RevClock::new(s, 3)
    ));
    measure!("comb(4,lamport)", 5, |s| CombClock::new(
        RevClock::new(s, 4),
        LamportClock::new(s)
    ));
    measure!("lamport", 1, LamportClock::new);

    let mut report = Report::default();
    report.table(t);
    report.note(
        "expected shape: vector = 100% recall at N entries; REV recall grows \
         with R; comb beats its components at equal size; lamport detects \
         almost nothing. Causal accuracy is 100% for all (plausibility).",
    );
    report
}
