//! The client-side cache `C_i` with lifetime metadata and the §5
//! invalidation rules, factored out of the protocol node so the rules are
//! unit-testable in isolation.
//!
//! # Indexed sweeps
//!
//! Each rule marks the fresh (not-old) entries whose lifetime ends before
//! `Context_i`, before every access. Rather than scan the cache for them,
//! the cache keeps one sorted index per rule its protocol applies, with
//! one `(key, object)` item per fresh entry, so the entries a sweep marks
//! are a prefix and a sweep costs what it marks:
//!
//! * physical rule (SC, TSC): keyed by `ω_t`, marks the prefix below
//!   `Context_t`;
//! * β rule (TCC): keyed by `β`, marks the prefix below `t − Δ` (none at
//!   CC's Δ = ∞);
//! * ξ rule (TccLogical): keyed by `ξ(ω)`, marks the prefix on which the
//!   rule's own predicate holds (it is monotone in `ξ(ω)`);
//! * causal rule (CC, TCC, TccLogical): keyed by the *generation* of
//!   `Context_i` that `ω` snapshots, and marks the prefix of older
//!   generations.
//!
//! The causal key rests on one invariant: every `ω` a causal cache holds is
//! a snapshot of `Context_i` (install, own-write-wins and revalidation
//! store the current context, a write its tick of it), and `Context_i`
//! only grows. So `ω` is causally before `Context_i`, ignoring the site's
//! own entry, exactly when `Context_i` has grown in another site's
//! component since the snapshot. [`Cache::join_context`] counts those
//! growths; a tick touches only the own component and never counts. Debug
//! builds check every sweep against the scan it replaces.

use std::collections::hash_map::Entry;

use tc_clocks::{SumXi, Time, Timestamp, VectorClock, XiMap};
use tc_core::{FxHashMap, ObjectId, Value};

use crate::ProtocolKind;

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

/// A §5 freshness rule; its discriminant is its index's slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    Physical,
    Beta,
    Xi,
    Causal,
}

impl Rule {
    /// The rules `kind`'s sweeps apply, hence the indexes its cache keeps.
    fn of(kind: ProtocolKind) -> &'static [Rule] {
        match kind {
            ProtocolKind::NoCache => &[],
            ProtocolKind::Tsc { .. } => &[Rule::Physical],
            ProtocolKind::Tcc { .. } => &[Rule::Causal, Rule::Beta],
            ProtocolKind::TccLogical { .. } => &[Rule::Causal, Rule::Xi],
        }
    }
}

/// One rule's index: a `(key, object)` item per fresh entry, ascending.
#[derive(Clone, Debug, Default)]
struct Index(Vec<(u64, ObjectId)>);

impl Index {
    fn insert(&mut self, key: u64, object: ObjectId) {
        let at = self.0.partition_point(|&item| item < (key, object));
        self.0.insert(at, (key, object));
    }

    fn remove(&mut self, key: u64, object: ObjectId) {
        let at = self
            .0
            .binary_search(&(key, object))
            .expect("a fresh entry is indexed");
        self.0.remove(at);
    }

    /// The number of leading items keyed below `threshold`.
    fn below(&self, threshold: u64) -> usize {
        self.0.partition_point(|&(key, _)| key < threshold)
    }
}

/// A cached entry and its key in each index.
#[derive(Clone, Debug)]
struct Slot {
    entry: CacheEntry,
    keys: [u64; 4],
}

/// The indexes a cache keeps, apart from its entries so both can be
/// borrowed at once.
#[derive(Clone, Debug)]
struct Indexes {
    rules: &'static [Rule],
    by: [Index; 4],
    /// One more than the growths of `Context_i` in another site's
    /// component: the causal key of a snapshot taken now. Key 0 is an
    /// entry without `ω`, stale at every causal sweep.
    generation: u64,
}

impl Indexes {
    /// Keys a fresh `slot` and files it in every index.
    fn index(&mut self, object: ObjectId, slot: &mut Slot) {
        for &rule in self.rules {
            let omega = slot.entry.omega_v.as_ref();
            let key = match rule {
                Rule::Physical => slot.entry.omega_t.ticks(),
                Rule::Beta => slot.entry.beta.ticks(),
                Rule::Xi => omega.map_or(0, |omega| xi_key(SumXi.xi(omega.entries()))),
                Rule::Causal => omega.map_or(0, |_| self.generation),
            };
            slot.keys[rule as usize] = key;
            self.by[rule as usize].insert(key, object);
        }
    }

    /// Takes a fresh `slot` out of every index but `except`'s.
    fn unindex(&mut self, object: ObjectId, slot: &Slot, except: Option<Rule>) {
        for &rule in self.rules {
            if Some(rule) != except {
                self.by[rule as usize].remove(slot.keys[rule as usize], object);
            }
        }
    }
}

/// `x`'s place in the total order of floats as an unsigned key. No ξ
/// reaches 0 (a NaN's key), which is left for entries without `ω`.
fn xi_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The cache of one client site.
#[derive(Clone, Debug)]
pub struct Cache {
    entries: FxHashMap<ObjectId, Slot>,
    idx: Indexes,
}

impl Cache {
    /// An empty cache for a client running `kind` over `objects` objects,
    /// indexed for the rules `kind` sweeps by (none for
    /// [`ProtocolKind::NoCache`]). The indexes are sized for every object
    /// up front, so keeping them allocates nothing.
    #[must_use]
    pub fn new(kind: ProtocolKind, objects: usize) -> Self {
        let rules = Rule::of(kind);
        let mut by: [Index; 4] = Default::default();
        for &rule in rules {
            by[rule as usize].0.reserve_exact(objects);
        }
        Cache {
            entries: FxHashMap::default(),
            idx: Indexes {
                rules,
                by,
                generation: 1,
            },
        }
    }

    /// Looks up an entry.
    #[must_use]
    pub fn get(&self, object: ObjectId) -> Option<&CacheEntry> {
        self.entries.get(&object).map(|slot| &slot.entry)
    }

    /// Inserts or replaces an entry. Under a causal-family protocol its
    /// `ω`, if any, must be the current `Context_i`.
    pub fn insert(&mut self, object: ObjectId, entry: CacheEntry) {
        let slot = match self.entries.entry(object) {
            Entry::Occupied(occupied) => {
                let slot = occupied.into_mut();
                if !slot.entry.old {
                    self.idx.unindex(object, slot, None);
                }
                slot.entry = entry;
                slot
            }
            Entry::Vacant(vacant) => vacant.insert(Slot {
                entry,
                keys: [0; 4],
            }),
        };
        if !slot.entry.old {
            self.idx.index(object, slot);
        }
    }

    /// Removes an entry.
    pub fn remove(&mut self, object: ObjectId) -> Option<CacheEntry> {
        let slot = self.entries.remove(&object)?;
        if !slot.entry.old {
            self.idx.unindex(object, &slot, None);
        }
        Some(slot.entry)
    }

    /// Marks an entry old (a push invalidation). Whether it was cached
    /// and fresh.
    pub fn mark_old(&mut self, object: ObjectId) -> bool {
        match self.entries.get_mut(&object) {
            Some(slot) if !slot.entry.old => {
                self.idx.unindex(object, slot, None);
                slot.entry.old = true;
                true
            }
            _ => false,
        }
    }

    /// Revalidates an entry the server still holds (§5.2's `StillValid`):
    /// fresh again, checked at `beta`, its lifetime extended to
    /// `Context_i` (causal family) or to `server_now` (physical family).
    /// Returns its value, or `None` if it is no longer cached.
    pub fn revalidate(
        &mut self,
        object: ObjectId,
        beta: Time,
        server_now: Time,
        context_v: &VectorClock,
    ) -> Option<Value> {
        let slot = self.entries.get_mut(&object)?;
        if !slot.entry.old {
            self.idx.unindex(object, slot, None);
        }
        let entry = &mut slot.entry;
        entry.old = false;
        entry.beta = beta;
        if self.idx.rules.contains(&Rule::Causal) {
            // ω ≤ Context_i (the causal index's invariant), so joining the
            // two is Context_i itself.
            if entry.omega_v.is_some() {
                entry.omega_v = Some(context_v.clone());
            }
        } else {
            entry.omega_t = entry.omega_t.max(server_now);
        }
        self.idx.index(object, slot);
        Some(slot.entry.value)
    }

    /// Joins `stamp` into `Context_i` (`context`, owned by this site). A
    /// join that grows another site's component ages every causal
    /// snapshot taken before it, so every join of `Context_i` must go
    /// through here. A tick moves only the own component and need not.
    pub fn join_context(&mut self, context: &mut VectorClock, stamp: &VectorClock) {
        let me = context.site();
        let grew = stamp
            .entries()
            .iter()
            .zip(context.entries())
            .enumerate()
            .any(|(i, (s, c))| i != me && s > c);
        if grew {
            self.idx.generation += 1;
        }
        *context = context.join(stamp);
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
    /// provably fresh — mark it old. Each sweep returns the number of
    /// entries it newly marked old.
    pub fn sweep_physical(&mut self, context: Time) -> usize {
        let n = self.idx.by[Rule::Physical as usize].below(context.ticks());
        self.mark(Rule::Physical, n, |e| e.omega_t < context)
    }

    /// Causal-family rule (§5.3): any entry whose logical ending time is
    /// *causally before* `Context_i` is stale; concurrent ending times are
    /// kept. The client's own entry (`me`) is normalized away first — local
    /// activity advances local copies' lifetimes ("they are never
    /// invalidated as a consequence of the update of a local object
    /// value"). The index answers it from the growths
    /// [`Cache::join_context`] counted, without comparing clocks.
    pub fn sweep_causal(&mut self, context: &VectorClock, me: usize) -> usize {
        let n = self.idx.by[Rule::Causal as usize].below(self.idx.generation);
        self.mark(Rule::Causal, n, |e| match &e.omega_v {
            None => true, // versions without logical metadata cannot be trusted
            Some(omega) => causally_stale(omega, context, me),
        })
    }

    /// TCC rule (§5.3): any entry whose checking time `β` is older than
    /// `threshold = t_i − Δ` may hide a write older than Δ — mark it old.
    pub fn sweep_beta(&mut self, threshold: Time) -> usize {
        let n = self.idx.by[Rule::Beta as usize].below(threshold.ticks());
        self.mark(Rule::Beta, n, |e| e.beta < threshold)
    }

    /// Logical-TCC rule (§5.4, Definition 6): an entry is stale once the
    /// known global activity `xi_context` has advanced more than
    /// `xi_delta` past the [`SumXi`] of the entry's logical ending time.
    pub fn sweep_xi(&mut self, xi_context: f64, xi_delta: f64) -> usize {
        let stale = |e: &CacheEntry| match &e.omega_v {
            None => true,
            Some(omega) => xi_context - SumXi.xi(omega.entries()) > xi_delta,
        };
        let n = self.idx.by[Rule::Xi as usize]
            .0
            .iter()
            .take_while(|(_, object)| stale(&self.entries[object].entry))
            .count();
        self.mark(Rule::Xi, n, stale)
    }

    /// Marks old the first `n` entries of `rule`'s index: exactly the
    /// fresh entries `stale` names, which debug builds check. Returns `n`.
    fn mark(&mut self, rule: Rule, n: usize, stale: impl Fn(&CacheEntry) -> bool) -> usize {
        assert!(
            self.idx.rules.contains(&rule),
            "this cache's protocol does not sweep by the {rule:?} rule"
        );
        debug_assert!(
            self.indexes_hold_the_fresh_entries(),
            "an index lost track of the fresh entries"
        );
        debug_assert!(
            self.prefix_is_stale(rule, n, stale),
            "the {rule:?} index marks other entries than its scan"
        );
        let mut index = std::mem::take(&mut self.idx.by[rule as usize]);
        for &(_, object) in &index.0[..n] {
            let slot = self.entries.get_mut(&object).expect("indexed");
            self.idx.unindex(object, slot, Some(rule));
            slot.entry.old = true;
        }
        index.0.drain(..n);
        self.idx.by[rule as usize] = index;
        n
    }

    /// Whether every kept index holds exactly the fresh entries, each
    /// under its key.
    fn indexes_hold_the_fresh_entries(&self) -> bool {
        let fresh = self.entries.iter().filter(|(_, slot)| !slot.entry.old);
        self.idx.rules.iter().all(|&rule| {
            let index = &self.idx.by[rule as usize].0;
            index.len() == fresh.clone().count()
                && fresh.clone().all(|(object, slot)| {
                    index
                        .binary_search(&(slot.keys[rule as usize], *object))
                        .is_ok()
                })
        })
    }

    /// Whether the first `n` items of `rule`'s index are exactly the fresh
    /// entries `stale` names: what the scan the index replaces would mark.
    fn prefix_is_stale(&self, rule: Rule, n: usize, stale: impl Fn(&CacheEntry) -> bool) -> bool {
        let prefix = &self.idx.by[rule as usize].0[..n];
        let mut named = self
            .entries
            .iter()
            .filter(|(_, slot)| !slot.entry.old && stale(&slot.entry));
        named.clone().count() == n
            && named.all(|(object, slot)| {
                prefix
                    .binary_search(&(slot.keys[rule as usize], *object))
                    .is_ok()
            })
    }
}

/// `omega` strictly causally before `context`, ignoring the client's own
/// entry (own activity keeps local copies alive): every other component
/// `<=`, at least one `<`. The causal rule's predicate, which the causal
/// index answers without comparing clocks; debug builds compare them to
/// check it.
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
    use std::collections::BTreeMap;

    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use tc_clocks::{ClockOrdering, Delta, SiteClock};

    const TCC: ProtocolKind = ProtocolKind::Tcc {
        delta: Delta::from_ticks(100),
    };

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
    fn physical_sweep_marks_expired_lifetimes_old() {
        let mut c = Cache::new(ProtocolKind::sc(), 8);
        c.insert(obj('X'), entry_t(1, 5, 10));
        c.insert(obj('Y'), entry_t(2, 5, 30));
        assert_eq!(c.sweep_physical(Time::from_ticks(20)), 1);
        assert!(c.get(obj('X')).unwrap().old, "kept, but old");
        assert!(!c.get(obj('Y')).unwrap().old);
        // A second sweep does not recount the same entry.
        assert_eq!(c.sweep_physical(Time::from_ticks(25)), 0);
    }

    #[test]
    fn boundary_omega_equal_context_is_fresh() {
        let mut c = Cache::new(ProtocolKind::sc(), 8);
        c.insert(obj('X'), entry_t(1, 5, 20));
        assert_eq!(c.sweep_physical(Time::from_ticks(20)), 0);
    }

    #[test]
    fn causal_sweep_marks_snapshots_a_remote_growth_outdated() {
        let mut writer = VectorClock::new(0, 3);
        let mut context = VectorClock::new(1, 3);
        let mut c = Cache::new(ProtocolKind::cc(), 8);
        c.join_context(&mut context, &writer.tick()); // <1,0,0>
        c.insert(obj('X'), entry_v(1, context.clone(), 0));
        assert_eq!(
            c.sweep_causal(&context, 1),
            0,
            "the current snapshot is fresh"
        );
        // A stamp already known grows nothing.
        c.join_context(&mut context, &VectorClock::from_entries(0, vec![1, 0, 0]));
        assert_eq!(c.sweep_causal(&context, 1), 0);
        c.join_context(&mut context, &writer.tick()); // <2,0,0>
        c.insert(obj('Y'), entry_v(2, context.clone(), 0));
        assert_eq!(c.sweep_causal(&context, 1), 1);
        assert!(c.get(obj('X')).unwrap().old, "causally-before entry ages");
        assert!(!c.get(obj('Y')).unwrap().old, "the newer snapshot survives");
    }

    #[test]
    fn causal_sweep_ignores_own_entry() {
        // Context has advanced only in the client's own component: local
        // copies must survive (the paper's local-update rule).
        let me = 1usize;
        let mut clock = VectorClock::new(me, 2);
        let omega = clock.tick(); // <0,1>
        clock.tick();
        let mut c = Cache::new(ProtocolKind::cc(), 8);
        // A join that grows only the own component ages nothing either.
        c.join_context(&mut clock, &VectorClock::from_entries(0, vec![0, 9]));
        c.insert(obj('X'), entry_v(1, omega, 0));
        assert_eq!(c.sweep_causal(&clock, me), 0);
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
        let mut c = Cache::new(TCC, 8);
        let stamp = VectorClock::new(0, 2);
        c.insert(obj('X'), entry_v(1, stamp.clone(), 50));
        c.insert(obj('Y'), entry_v(2, stamp, 200));
        assert_eq!(c.sweep_beta(Time::from_ticks(100)), 1);
        assert!(c.get(obj('X')).unwrap().old);
        assert!(!c.get(obj('Y')).unwrap().old);
    }

    #[test]
    fn xi_sweep_bounds_logical_staleness() {
        let mut clock = VectorClock::new(0, 2);
        let omega_small = clock.tick(); // xi = 1
        let mut c = Cache::new(ProtocolKind::TccLogical { xi_delta: 90.0 }, 8);
        c.insert(obj('X'), entry_v(1, omega_small, 0));
        // Context knows 90 more global events than the entry.
        assert_eq!(c.sweep_xi(1.0 + 89.0, 90.0), 0);
        assert_eq!(c.sweep_xi(1.0 + 91.0, 90.0), 1);
    }

    #[test]
    fn entries_without_logical_metadata_are_distrusted() {
        let mut c = Cache::new(ProtocolKind::cc(), 8);
        c.insert(obj('X'), entry_t(1, 0, 0));
        let context = VectorClock::new(0, 2);
        assert_eq!(c.sweep_causal(&context, 0), 1);
    }

    #[test]
    #[should_panic(expected = "does not sweep by the Beta rule")]
    fn a_rule_the_protocol_does_not_apply_cannot_sweep() {
        Cache::new(ProtocolKind::sc(), 8).sweep_beta(Time::ZERO);
    }

    #[test]
    fn basic_map_operations() {
        let mut c = Cache::new(ProtocolKind::sc(), 8);
        assert!(c.is_empty());
        c.insert(obj('X'), entry_t(1, 0, 5));
        assert_eq!(c.len(), 1);
        assert!(c.mark_old(obj('X')));
        assert!(!c.mark_old(obj('X')), "already old");
        assert!(c.get(obj('X')).unwrap().old);
        assert!(c.remove(obj('X')).is_some());
        assert!(c.is_empty());
    }

    /// The sweeps the indexes replaced — a scan of the whole cache per
    /// rule — over a plain map, with the engine's push and revalidation
    /// semantics: the reference every indexed sweep must agree with.
    #[derive(Default)]
    struct ScanCache {
        entries: BTreeMap<ObjectId, CacheEntry>,
        causal: bool,
    }

    impl ScanCache {
        fn sweep(&mut self, stale: impl Fn(&CacheEntry) -> bool) -> usize {
            let mut marked = 0;
            for e in self.entries.values_mut() {
                if !e.old && stale(e) {
                    e.old = true;
                    marked += 1;
                }
            }
            marked
        }

        fn sweep_physical(&mut self, context: Time) -> usize {
            self.sweep(|e| e.omega_t < context)
        }

        fn sweep_causal(&mut self, context: &VectorClock, me: usize) -> usize {
            self.sweep(|e| match &e.omega_v {
                None => true,
                Some(omega) => causally_stale(omega, context, me),
            })
        }

        fn sweep_beta(&mut self, threshold: Time) -> usize {
            self.sweep(|e| e.beta < threshold)
        }

        fn sweep_xi(&mut self, xi_context: f64, xi_delta: f64) -> usize {
            self.sweep(|e| match &e.omega_v {
                None => true,
                Some(omega) => xi_context - SumXi.xi(omega.entries()) > xi_delta,
            })
        }

        fn mark_old(&mut self, object: ObjectId) -> bool {
            match self.entries.get_mut(&object) {
                Some(e) if !e.old => {
                    e.old = true;
                    true
                }
                _ => false,
            }
        }

        fn revalidate(
            &mut self,
            object: ObjectId,
            beta: Time,
            server_now: Time,
            context_v: &VectorClock,
        ) -> Option<Value> {
            let e = self.entries.get_mut(&object)?;
            e.old = false;
            e.beta = beta;
            if self.causal {
                if let Some(omega) = &e.omega_v {
                    e.omega_v = Some(omega.join(context_v));
                }
            } else {
                e.omega_t = e.omega_t.max(server_now);
            }
            Some(e.value)
        }
    }

    const OBJECTS: u32 = 6;

    /// One step of a random cache script.
    #[derive(Clone, Debug)]
    enum Step {
        /// Join a stamp ahead of `Context_i` by `by` in `component` (the
        /// site's own included).
        Grow {
            component: usize,
            by: u64,
        },
        /// A write's tick of `Context_i`.
        Tick,
        /// Install a snapshot of `Context_i` (or no `ω`) at any `ω_t`, `β`.
        Insert {
            object: u32,
            omega: bool,
            omega_t: u64,
            beta: u64,
        },
        Revalidate {
            object: u32,
            beta: u64,
            server_now: u64,
        },
        /// A push invalidation: marks old.
        Push(u32),
        Remove(u32),
        /// A sweep by the protocol's `rule`-th rule. The physical and β
        /// thresholds are `threshold`; the ξ sweep runs at
        /// `ξ(Context_i) + xi_skew`.
        Sweep {
            rule: usize,
            threshold: u64,
            xi_skew: f64,
            xi_delta: f64,
        },
    }

    /// `(kind, width, me, steps)`: a caching protocol, a `Context_i` of
    /// `width` owned by `me`, and a script over a handful of objects whose
    /// times rise and fall.
    struct ArbScript;

    impl Strategy for ArbScript {
        type Value = (ProtocolKind, usize, usize, Vec<Step>);
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let kind = [
                ProtocolKind::sc(),
                ProtocolKind::Tsc {
                    delta: Delta::from_ticks(10),
                },
                ProtocolKind::cc(),
                TCC,
                ProtocolKind::TccLogical { xi_delta: 3.0 },
            ][rng.gen_range(0..5usize)];
            let width = rng.gen_range(1..=4usize);
            let me = rng.gen_range(0..width);
            let time = |rng: &mut StdRng| rng.gen_range(0..40u64);
            let steps = (0..rng.gen_range(1..80usize))
                .map(|_| match rng.gen_range(0..16u32) {
                    0..=1 => Step::Grow {
                        component: rng.gen_range(0..width),
                        by: rng.gen_range(1..3u64),
                    },
                    2 => Step::Tick,
                    3..=6 => Step::Insert {
                        object: rng.gen_range(0..OBJECTS),
                        omega: rng.gen_bool(0.9),
                        omega_t: time(rng),
                        beta: time(rng),
                    },
                    7..=8 => Step::Revalidate {
                        object: rng.gen_range(0..OBJECTS),
                        beta: time(rng),
                        server_now: time(rng),
                    },
                    9 => Step::Push(rng.gen_range(0..OBJECTS)),
                    10 => Step::Remove(rng.gen_range(0..OBJECTS)),
                    _ => Step::Sweep {
                        rule: rng.gen_range(0..2usize),
                        threshold: time(rng),
                        xi_skew: rng.gen_range(-4.0..4.0f64),
                        xi_delta: [0.0, 1.5, 3.0, f64::INFINITY][rng.gen_range(0..4usize)],
                    },
                })
                .collect();
            (kind, width, me, steps)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// After every step of a random script, the indexed cache and the
        /// scan agree on what each sweep marked and on every entry, old
        /// flags included, and each index holds one item per fresh entry.
        #[test]
        fn indexed_sweeps_equal_their_scans(script in ArbScript) {
            let (kind, width, me, steps) = script;
            let mut cache = Cache::new(kind, 8);
            let mut scan = ScanCache { causal: kind.is_causal_family(), ..ScanCache::default() };
            let mut context = VectorClock::new(me, width);
            let rules = Rule::of(kind);
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Step::Grow { component, by } => {
                        let mut stamp = context.entries().to_vec();
                        stamp[component] += by;
                        cache.join_context(&mut context, &VectorClock::from_entries(component, stamp));
                    }
                    Step::Tick => {
                        context.tick();
                    }
                    Step::Insert { object, omega, omega_t, beta } => {
                        let entry = CacheEntry {
                            value: Value::new(i as u64),
                            alpha_t: Time::ZERO,
                            omega_t: Time::from_ticks(omega_t),
                            alpha_v: omega.then(|| context.clone()),
                            omega_v: omega.then(|| context.clone()),
                            beta: Time::from_ticks(beta),
                            old: false,
                        };
                        cache.insert(ObjectId::new(object), entry.clone());
                        scan.entries.insert(ObjectId::new(object), entry);
                    }
                    Step::Revalidate { object, beta, server_now } => {
                        let (o, beta, now) = (ObjectId::new(object), Time::from_ticks(beta), Time::from_ticks(server_now));
                        prop_assert_eq!(
                            cache.revalidate(o, beta, now, &context),
                            scan.revalidate(o, beta, now, &context)
                        );
                    }
                    Step::Push(object) => {
                        prop_assert_eq!(
                            cache.mark_old(ObjectId::new(object)),
                            scan.mark_old(ObjectId::new(object))
                        );
                    }
                    Step::Remove(object) => {
                        prop_assert_eq!(
                            cache.remove(ObjectId::new(object)),
                            scan.entries.remove(&ObjectId::new(object))
                        );
                    }
                    Step::Sweep { rule, threshold, xi_skew, xi_delta } => {
                        let t = Time::from_ticks(threshold);
                        let xi_context = SumXi.xi(context.entries()) + xi_skew;
                        let (indexed, scanned) = match rules[rule % rules.len()] {
                            Rule::Physical => (cache.sweep_physical(t), scan.sweep_physical(t)),
                            Rule::Beta => (cache.sweep_beta(t), scan.sweep_beta(t)),
                            Rule::Causal => (
                                cache.sweep_causal(&context, me),
                                scan.sweep_causal(&context, me),
                            ),
                            Rule::Xi => (
                                cache.sweep_xi(xi_context, xi_delta),
                                scan.sweep_xi(xi_context, xi_delta),
                            ),
                        };
                        prop_assert_eq!(indexed, scanned, "step {} {:?}", i, step);
                    }
                }
                for object in (0..OBJECTS).map(ObjectId::new) {
                    prop_assert_eq!(cache.get(object), scan.entries.get(&object), "step {} {:?}", i, step);
                }
                prop_assert_eq!(cache.len(), scan.entries.len());
                let fresh = scan.entries.values().filter(|e| !e.old).count();
                for &rule in rules {
                    prop_assert_eq!(cache.idx.by[rule as usize].0.len(), fresh, "{:?} index", rule);
                }
                prop_assert!(cache.indexes_hold_the_fresh_entries());
            }
        }
    }
}
