//! The client-side cache `C_i` with lifetime metadata and the §5
//! invalidation rules, factored out of the protocol node so the rules are
//! unit-testable in isolation.

use tc_clocks::{Time, VectorClock, XiMap};
use tc_core::{FxHashMap, ObjectId, Value};

use crate::StalePolicy;

/// A cached object version with its lifetime metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// The cached value.
    pub value: Value,
    /// Physical start time `X^α`.
    pub alpha_t: Time,
    /// Physical ending time `X^ω` — the latest (server) instant the value
    /// is known to have been current.
    pub omega_t: Time,
    /// Logical start time (causal family).
    pub alpha_v: Option<VectorClock>,
    /// Logical ending time (causal family).
    pub omega_v: Option<VectorClock>,
    /// Checking time `X^β`: the latest *local* real-time instant the value
    /// was known valid (§5.3, TCC only).
    pub beta: Time,
    /// Marked old (kept but must be validated before use) — §5.2's
    /// optimization.
    pub old: bool,
}

/// Outcome of a sweep: how many entries were invalidated or newly marked
/// old.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Entries dropped from the cache.
    pub invalidated: usize,
    /// Entries newly marked old.
    pub marked_old: usize,
}

impl SweepOutcome {
    fn apply(&mut self, other: SweepOutcome) {
        self.invalidated += other.invalidated;
        self.marked_old += other.marked_old;
    }
}

/// The cache of one client site.
#[derive(Clone, Debug, Default)]
pub struct Cache {
    entries: FxHashMap<ObjectId, CacheEntry>,
}

impl Cache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Cache::default()
    }

    /// Looks up an entry.
    #[must_use]
    pub fn get(&self, object: ObjectId) -> Option<&CacheEntry> {
        self.entries.get(&object)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, object: ObjectId) -> Option<&mut CacheEntry> {
        self.entries.get_mut(&object)
    }

    /// Inserts or replaces an entry.
    pub fn insert(&mut self, object: ObjectId, entry: CacheEntry) {
        self.entries.insert(object, entry);
    }

    /// Removes an entry.
    pub fn remove(&mut self, object: ObjectId) -> Option<CacheEntry> {
        self.entries.remove(&object)
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Physical-family rule: any entry with `ω < Context_i` is no longer
    /// provably fresh — invalidate it or mark it old per `policy`.
    pub fn sweep_physical(&mut self, context: Time, policy: StalePolicy) -> SweepOutcome {
        self.sweep(policy, |e| e.omega_t < context)
    }

    /// Causal-family rule (§5.3): any entry whose logical ending time is
    /// *causally before* `Context_i` is stale; concurrent ending times are
    /// kept. The client's own entry is normalized away first — local
    /// activity advances local copies' lifetimes ("they are never
    /// invalidated as a consequence of the update of a local object
    /// value").
    pub fn sweep_causal(
        &mut self,
        context: &VectorClock,
        me: usize,
        policy: StalePolicy,
    ) -> SweepOutcome {
        self.sweep(policy, |e| match &e.omega_v {
            None => true, // versions without logical metadata cannot be trusted
            Some(omega) => causally_stale(omega, context, me),
        })
    }

    /// TCC rule (§5.3): any entry whose checking time `β` is older than
    /// `threshold = t_i − Δ` may hide a write older than Δ — invalidate or
    /// mark old.
    pub fn sweep_beta(&mut self, threshold: Time, policy: StalePolicy) -> SweepOutcome {
        self.sweep(policy, move |e| e.beta < threshold)
    }

    /// Logical-TCC rule (§5.4, Definition 6): an entry is stale once the
    /// known global activity has advanced more than `xi_delta` past the
    /// entry's logical ending time.
    pub fn sweep_xi(
        &mut self,
        xi: &impl XiMap,
        xi_context: f64,
        xi_delta: f64,
        policy: StalePolicy,
    ) -> SweepOutcome {
        let stale = |e: &CacheEntry| match &e.omega_v {
            None => true,
            Some(omega) => xi_context - xi.xi(omega.entries()) > xi_delta,
        };
        self.sweep(policy, stale)
    }

    fn sweep(&mut self, policy: StalePolicy, stale: impl Fn(&CacheEntry) -> bool) -> SweepOutcome {
        let mut out = SweepOutcome::default();
        match policy {
            StalePolicy::Invalidate => {
                self.entries.retain(|_, e| {
                    if stale(e) {
                        out.invalidated += 1;
                        false
                    } else {
                        true
                    }
                });
            }
            StalePolicy::MarkOld => {
                for e in self.entries.values_mut() {
                    if !e.old && stale(e) {
                        e.old = true;
                        out.marked_old += 1;
                    }
                }
            }
        }
        let mut total = SweepOutcome::default();
        total.apply(out);
        total
    }
}

/// `omega` strictly causally before `context`, ignoring the client's own
/// entry (own activity keeps local copies alive): every other component
/// `<=`, at least one `<`. Runs once per cached entry per sweep, so it
/// compares the two entry slices in place.
///
/// # Panics
///
/// Panics if the clocks differ in dimension, as `Timestamp::compare`
/// does.
fn causally_stale(omega: &VectorClock, context: &VectorClock, me: usize) -> bool {
    let (omega, context) = (omega.entries(), context.entries());
    assert_eq!(
        omega.len(),
        context.len(),
        "cannot compare vector clocks of different dimension"
    );
    let mut less = false;
    for (i, (o, c)) in omega.iter().zip(context).enumerate() {
        if i == me {
            continue;
        }
        if o > c {
            return false;
        }
        less |= o < c;
    }
    less
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use tc_clocks::{ClockOrdering, SiteClock, SumXi, Timestamp};

    fn entry_t(value: u64, alpha: u64, omega: u64) -> CacheEntry {
        CacheEntry {
            value: Value::new(value),
            alpha_t: Time::from_ticks(alpha),
            omega_t: Time::from_ticks(omega),
            alpha_v: None,
            omega_v: None,
            beta: Time::from_ticks(omega),
            old: false,
        }
    }

    fn entry_v(value: u64, omega: VectorClock, beta: u64) -> CacheEntry {
        CacheEntry {
            value: Value::new(value),
            alpha_t: Time::ZERO,
            omega_t: Time::ZERO,
            alpha_v: Some(omega.clone()),
            omega_v: Some(omega),
            beta: Time::from_ticks(beta),
            old: false,
        }
    }

    fn obj(c: char) -> ObjectId {
        ObjectId::from_letter(c)
    }

    #[test]
    fn physical_sweep_invalidates_expired_lifetimes() {
        let mut c = Cache::new();
        c.insert(obj('X'), entry_t(1, 5, 10));
        c.insert(obj('Y'), entry_t(2, 5, 30));
        let out = c.sweep_physical(Time::from_ticks(20), StalePolicy::Invalidate);
        assert_eq!(out.invalidated, 1);
        assert!(c.get(obj('X')).is_none());
        assert!(c.get(obj('Y')).is_some());
    }

    #[test]
    fn physical_sweep_markold_keeps_entries() {
        let mut c = Cache::new();
        c.insert(obj('X'), entry_t(1, 5, 10));
        let out = c.sweep_physical(Time::from_ticks(20), StalePolicy::MarkOld);
        assert_eq!(out.marked_old, 1);
        assert_eq!(out.invalidated, 0);
        assert!(c.get(obj('X')).unwrap().old);
        // A second sweep does not recount the same entry.
        let out2 = c.sweep_physical(Time::from_ticks(25), StalePolicy::MarkOld);
        assert_eq!(out2.marked_old, 0);
    }

    #[test]
    fn boundary_omega_equal_context_is_fresh() {
        let mut c = Cache::new();
        c.insert(obj('X'), entry_t(1, 5, 20));
        let out = c.sweep_physical(Time::from_ticks(20), StalePolicy::Invalidate);
        assert_eq!(out.invalidated, 0);
    }

    #[test]
    fn causal_sweep_uses_strict_causal_order() {
        let mut ca = VectorClock::new(0, 3);
        let old_stamp = ca.tick(); // <1,0,0>
        let newer = ca.tick(); // <2,0,0>
        let mut cb = VectorClock::new(1, 3);
        cb.observe(&newer); // <2,1,0>: remote knowledge beyond old_stamp
        let context = cb.current();

        let mut c = Cache::new();
        c.insert(obj('X'), entry_v(1, old_stamp.clone(), 0));
        // Concurrent stamp survives.
        let mut cc_ = VectorClock::new(2, 3);
        let conc = cc_.tick(); // <0,0,1> concurrent with context <1,1,0>
        c.insert(obj('Y'), entry_v(2, conc, 0));

        let out = c.sweep_causal(&context, 1, StalePolicy::Invalidate);
        assert_eq!(out.invalidated, 1);
        assert!(c.get(obj('X')).is_none(), "causally-before entry dies");
        assert!(c.get(obj('Y')).is_some(), "concurrent entry survives");
    }

    #[test]
    fn causal_sweep_ignores_own_entry() {
        // Context has advanced only in the client's own component: local
        // copies must survive (the paper's local-update rule).
        let me = 1usize;
        let mut clock = VectorClock::new(me, 2);
        let omega = clock.tick(); // <0,1>
        clock.tick();
        clock.tick();
        let context = clock.current(); // <0,3>
        let mut c = Cache::new();
        c.insert(obj('X'), entry_v(1, omega, 0));
        let out = c.sweep_causal(&context, me, StalePolicy::Invalidate);
        assert_eq!(out.invalidated, 0);
    }

    /// The definition `causally_stale` replaced: clone ω, overwrite the
    /// client's own component with the context's, `compare`.
    fn causally_stale_reference(omega: &VectorClock, context: &VectorClock, me: usize) -> bool {
        let mut entries = omega.entries().to_vec();
        if me < entries.len() {
            entries[me] = context.entries()[me];
        }
        VectorClock::from_entries(omega.site(), entries).compare(context) == ClockOrdering::Before
    }

    /// `(omega, context, me)`: a context of random width, an ω derived
    /// from it by nudging a random subset of components down, up, both
    /// ways or not at all (so every ordering occurs at every width), and
    /// a `me` that is in range four times out of five.
    struct ArbSweepCase;

    impl Strategy for ArbSweepCase {
        type Value = (VectorClock, VectorClock, usize);
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let width = rng.gen_range(1..=48usize);
            let context: Vec<u64> = (0..width).map(|_| rng.gen_range(1..1_000u64)).collect();
            let (down, up) = [(false, false), (true, false), (false, true), (true, true)]
                [rng.gen_range(0..4usize)];
            let density = [0.05, 0.5][rng.gen_range(0..2usize)];
            let omega: Vec<u64> = context
                .iter()
                .map(|&c| match (rng.gen_bool(density), rng.gen_bool(0.5)) {
                    (true, true) if down => c - 1,
                    (true, false) if up => c + 1,
                    _ => c,
                })
                .collect();
            let me = if rng.gen_bool(0.8) {
                rng.gen_range(0..width)
            } else {
                rng.gen_range(width..width + 3)
            };
            (
                VectorClock::from_entries(rng.gen_range(0..width), omega),
                VectorClock::from_entries(rng.gen_range(0..width), context),
                me,
            )
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn in_place_staleness_matches_clone_and_compare(case in ArbSweepCase) {
            let (omega, context, me) = case;
            prop_assert_eq!(
                causally_stale(&omega, &context, me),
                causally_stale_reference(&omega, &context, me),
                "omega {:?} context {:?} me {}", omega, context, me
            );
        }
    }

    #[test]
    fn staleness_verdicts_cover_every_ordering() {
        let vc = |e: &[u64]| VectorClock::from_entries(0, e.to_vec());
        let context = vc(&[5, 5, 5]);
        for (omega, me, stale) in [
            (vc(&[5, 5, 5]), 0, false), // equal
            (vc(&[5, 4, 5]), 0, true),  // before
            (vc(&[5, 6, 5]), 0, false), // after
            (vc(&[5, 4, 6]), 0, false), // concurrent
            (vc(&[4, 5, 5]), 0, false), // behind only in the own component
            (vc(&[9, 4, 5]), 0, true),  // own component ahead is ignored too
            (vc(&[4, 5, 5]), 7, true),  // `me` out of range: nothing skipped
        ] {
            assert_eq!(causally_stale(&omega, &context, me), stale, "{omega:?}");
            assert_eq!(causally_stale_reference(&omega, &context, me), stale);
        }
    }

    #[test]
    fn beta_sweep_enforces_checking_time() {
        let mut c = Cache::new();
        let stamp = VectorClock::new(0, 2);
        c.insert(obj('X'), entry_v(1, stamp.clone(), 50));
        c.insert(obj('Y'), entry_v(2, stamp, 200));
        let out = c.sweep_beta(Time::from_ticks(100), StalePolicy::Invalidate);
        assert_eq!(out.invalidated, 1);
        assert!(c.get(obj('Y')).is_some());
    }

    #[test]
    fn xi_sweep_bounds_logical_staleness() {
        let mut clock = VectorClock::new(0, 2);
        let omega_small = clock.tick(); // xi = 1
        let mut c = Cache::new();
        c.insert(obj('X'), entry_v(1, omega_small, 0));
        // Context knows 90 more global events than the entry.
        let out_keep = c.sweep_xi(&SumXi, 1.0 + 89.0, 90.0, StalePolicy::Invalidate);
        assert_eq!(out_keep.invalidated, 0);
        let out_kill = c.sweep_xi(&SumXi, 1.0 + 91.0, 90.0, StalePolicy::Invalidate);
        assert_eq!(out_kill.invalidated, 1);
    }

    #[test]
    fn entries_without_logical_metadata_are_distrusted() {
        let mut c = Cache::new();
        c.insert(obj('X'), entry_t(1, 0, 0));
        let context = VectorClock::new(0, 2);
        let out = c.sweep_causal(&context, 0, StalePolicy::Invalidate);
        assert_eq!(out.invalidated, 1);
    }

    #[test]
    fn basic_map_operations() {
        let mut c = Cache::new();
        assert!(c.is_empty());
        c.insert(obj('X'), entry_t(1, 0, 5));
        assert_eq!(c.len(), 1);
        c.get_mut(obj('X')).unwrap().old = true;
        assert!(c.get(obj('X')).unwrap().old);
        assert!(c.remove(obj('X')).is_some());
        assert!(c.is_empty());
    }
}
