//! The driver timer wheel: a ring of per-tick buckets.
//!
//! Every engine deadline is a tick boundary by construction
//! ([`TickClock::deadline`]), so a bucket per tick holds timers that
//! all fall due at once, and arming or popping one is O(1) — where a
//! binary heap paid a sift through ~13 cache-missing levels per timer, for
//! the thousands of retry timers a busy client reactor keeps pending (most
//! of them dead: the reply came first).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use tc_sim::metrics::names;
use tc_sim::Metrics;

use crate::runtime::TickClock;

/// Ticks the ring spans ahead of the current one: well past the
/// protocol's 500-tick retry timers. Later deadlines wait in a small heap
/// and move into the ring as it reaches them.
const RING: u64 = 1 << 10;

/// One armed timer. Ordered by `(deadline, seq)` alone — the arming
/// sequence number is unique, so the token never decides an order.
struct Entry<T> {
    deadline: Instant,
    seq: u64,
    token: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (Instant, u64) {
        (self.deadline, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    /// Reversed, so the overflow max-heap pops the earliest deadline.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deadline-ordered timer wheel over real [`Instant`]s, shared by the
/// channel node loop, the geo WAN courier and both reactors.
///
/// Timers pop in deadline order; equal deadlines pop in arming order, so
/// a driver that arms `A` then `B` for the same instant fires `A` first —
/// the property the engines' effect-order contract leans on. A timer pops
/// exactly once its deadline has passed: a deadline off the tick grid (a
/// redial, a WAN delivery) or one already due when armed is never rounded
/// up to the next boundary.
///
/// Bucket `k` of the ring holds the timers whose deadline lies in
/// `(epoch + (k−1)·tick, epoch + k·tick]`, kept sorted by (deadline,
/// arming order) — which for tick-aligned deadlines is plain arming
/// order, so an arm is a push. A pop drains every bucket whose boundary
/// has passed and the due prefix of the bucket the clock is inside.
/// Deadlines more than [`RING`] ticks out wait in an overflow heap; an
/// already-due one joins the ring's current bucket.
///
/// Generic over the token type: the per-thread drivers use bare engine
/// tokens (`u64`), while the reactors — one thread multiplexing many
/// engines and connections — arm composite tokens naming the owner.
///
/// The wheel also counts how late its owner noticed each timer (pop
/// instant − deadline) in two plain fields — one wheel, one thread, no
/// lock — which [`TimerWheel::report`] adds to the run's metrics once, at
/// thread exit.
pub(crate) struct TimerWheel<T = u64> {
    clock: TickClock,
    buckets: Vec<Vec<Entry<T>>>,
    /// The lowest bucket the ring may still hold: every bucket before it
    /// was drained by a pop at or after its boundary.
    cur: u64,
    /// The lowest non-empty bucket while `ring_len > 0`.
    first: u64,
    ring_len: usize,
    overflow: BinaryHeap<Entry<T>>,
    seq: u64,
    fired: u64,
    late_ns: u64,
}

impl<T> TimerWheel<T> {
    pub(crate) fn new(clock: &TickClock) -> Self {
        TimerWheel {
            clock: *clock,
            buckets: (0..RING).map(|_| Vec::new()).collect(),
            cur: 0,
            first: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            fired: 0,
            late_ns: 0,
        }
    }

    fn bucket(&mut self, k: u64) -> &mut Vec<Entry<T>> {
        &mut self.buckets[(k % RING) as usize]
    }

    /// Arms a timer: `token` will pop once `deadline` has passed.
    pub(crate) fn arm(&mut self, deadline: Instant, token: T) {
        self.seq += 1;
        let entry = Entry {
            deadline,
            seq: self.seq,
            token,
        };
        let k = self.clock.boundary_at_or_after(deadline).max(self.cur);
        if k < self.cur + RING {
            self.insert(k, entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Files `entry` into ring bucket `k`, keeping the bucket sorted: a
    /// push unless the entry's deadline is below the bucket's last.
    fn insert(&mut self, k: u64, entry: Entry<T>) {
        if self.ring_len == 0 || k < self.first {
            self.first = k;
        }
        self.ring_len += 1;
        let bucket = self.bucket(k);
        match bucket.last() {
            Some(last) if last.key() > entry.key() => {
                let at = bucket.partition_point(|e| e.key() < entry.key());
                bucket.insert(at, entry);
            }
            _ => bucket.push(entry),
        }
    }

    /// The earliest armed deadline, if any timer is pending.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        if self.ring_len > 0 {
            let bucket = &self.buckets[(self.first % RING) as usize];
            return Some(bucket[0].deadline);
        }
        self.overflow.peek().map(|e| e.deadline)
    }

    /// Clears `due` and fills it with every timer due at `now`, in
    /// (deadline, arming) order. Due timers are collected in one sweep
    /// *before* any fires: a firing timer may arm new ones, and those
    /// belong to the next pass even if already due.
    pub(crate) fn pop_due_into(&mut self, now: Instant, due: &mut Vec<T>) {
        due.clear();
        // Buckets whose boundary has passed are wholly due; the next one
        // (the tick the clock is inside) is due up to `now`.
        let passed = self.clock.boundaries_passed(now);
        let whole_end = passed.min(self.cur + RING);
        let mut k = self.first.max(self.cur);
        while self.ring_len > 0 && k < whole_end {
            self.pop_bucket(k, now, due);
            k += 1;
        }
        let partial = passed.max(self.cur);
        if self.ring_len > 0 && partial < self.cur + RING {
            self.pop_bucket(partial, now, due);
        }
        // Overflow deadlines lie past every ring bucket, so one can only be
        // due once the whole ring was.
        while self.overflow.peek().is_some_and(|e| e.deadline <= now) {
            let entry = self.overflow.pop().expect("peeked");
            self.fire(entry, now, due);
        }
        self.cur = self.cur.max(passed);
        while let Some(e) = self.overflow.peek() {
            let k = self.clock.boundary_at_or_after(e.deadline).max(self.cur);
            if k >= self.cur + RING {
                break;
            }
            let entry = self.overflow.pop().expect("peeked");
            self.insert(k, entry);
        }
        if self.ring_len > 0 {
            self.first = self.first.max(self.cur);
            while self.buckets[(self.first % RING) as usize].is_empty() {
                self.first += 1;
            }
        }
    }

    /// Pops the due prefix of bucket `k` (all of it once its boundary has
    /// passed).
    fn pop_bucket(&mut self, k: u64, now: Instant, due: &mut Vec<T>) {
        let mut bucket = std::mem::take(self.bucket(k));
        let n = bucket.partition_point(|e| e.deadline <= now);
        self.ring_len -= n;
        for entry in bucket.drain(..n) {
            self.fire(entry, now, due);
        }
        *self.bucket(k) = bucket;
    }

    fn fire(&mut self, entry: Entry<T>, now: Instant, due: &mut Vec<T>) {
        self.fired += 1;
        self.late_ns += now.duration_since(entry.deadline).as_nanos() as u64;
        due.push(entry.token);
    }

    /// Adds this wheel's lateness counters ([`names::TIMER_FIRED`],
    /// [`names::TIMER_LATE_NS`]) to `metrics`. Called once, when the
    /// owning driver thread exits.
    pub(crate) fn report(&self, metrics: &mut Metrics) {
        metrics.add(names::TIMER_FIRED, self.fired);
        metrics.add(names::TIMER_LATE_NS, self.late_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::time::Duration;

    /// The heap wheel the ring replaced, kept as the executable reference:
    /// a `BinaryHeap` of (deadline, arming sequence, token).
    struct HeapWheel {
        heap: BinaryHeap<Reverse<(Instant, u64, u64)>>,
        seq: u64,
        fired: u64,
        late_ns: u64,
    }

    impl HeapWheel {
        fn new() -> Self {
            HeapWheel {
                heap: BinaryHeap::new(),
                seq: 0,
                fired: 0,
                late_ns: 0,
            }
        }

        fn arm(&mut self, deadline: Instant, token: u64) {
            self.seq += 1;
            self.heap.push(Reverse((deadline, self.seq, token)));
        }

        fn next_deadline(&self) -> Option<Instant> {
            self.heap.peek().map(|Reverse((deadline, _, _))| *deadline)
        }

        fn pop_due_into(&mut self, now: Instant, due: &mut Vec<u64>) {
            due.clear();
            while let Some(Reverse((deadline, _, _))) = self.heap.peek() {
                if *deadline > now {
                    break;
                }
                let Reverse((deadline, _, token)) = self.heap.pop().expect("peeked non-empty");
                self.fired += 1;
                self.late_ns += now.duration_since(deadline).as_nanos() as u64;
                due.push(token);
            }
        }
    }

    #[test]
    fn timer_wheel_pops_out_of_order_armings_by_deadline() {
        let base = Instant::now();
        let mut wheel = TimerWheel::new(&TickClock::new(Duration::from_micros(50)));
        // Armed out of deadline order on purpose: the wheel must sort.
        wheel.arm(base + Duration::from_millis(30), 3);
        wheel.arm(base + Duration::from_millis(10), 1);
        wheel.arm(base + Duration::from_millis(20), 2);
        // Two timers for one deadline pop in arming order (stable ties).
        wheel.arm(base + Duration::from_millis(20), 4);
        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(10))
        );

        // Nothing is due before the earliest deadline — and a sweep
        // clears whatever the buffer held.
        let mut due = vec![99];
        wheel.pop_due_into(base, &mut due);
        assert!(due.is_empty());
        // A cutoff mid-way pops exactly the due prefix, deadline-ordered.
        wheel.pop_due_into(base + Duration::from_millis(25), &mut due);
        assert_eq!(due, vec![1, 2, 4]);
        assert_eq!(
            wheel.next_deadline(),
            Some(base + Duration::from_millis(30))
        );
        wheel.pop_due_into(base + Duration::from_millis(35), &mut due);
        assert_eq!(due, vec![3]);
        assert_eq!(wheel.next_deadline(), None);

        // Re-arming after a drain works (seq keeps growing, order holds).
        wheel.arm(base + Duration::from_millis(50), 9);
        wheel.arm(base + Duration::from_millis(40), 8);
        wheel.pop_due_into(base + Duration::from_millis(60), &mut due);
        assert_eq!(due, vec![8, 9]);

        // Lateness is pop instant − deadline, summed: 15 + 5 + 5 ms in the
        // second sweep, 5 ms in the third, 20 + 10 ms in the last.
        assert_eq!(wheel.fired, 6);
        assert_eq!(wheel.late_ns, Duration::from_millis(60).as_nanos() as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ring and the heap it replaced give the same due sequences,
        /// next deadlines and lateness counts for any arming and popping
        /// schedule: tick-aligned and arbitrary deadlines, duplicates,
        /// already-due ones and ones past the ring, popped at monotone
        /// instants that land on and between tick boundaries.
        #[test]
        fn the_tick_wheel_matches_the_heap_wheel(
            steps in collection::vec((0u8..8, 0u64..400_000_000), 1..200),
            epoch_offset_ns in 0u64..100_000,
        ) {
            // 100 µs ticks, so the ring spans ~102 ms and the schedule
            // crosses it; the epoch precedes the first instant, as in a run.
            let tick_ns = 100_000u64;
            let base = Instant::now() + Duration::from_secs(1);
            let epoch = base - Duration::from_nanos(epoch_offset_ns);
            let clock = TickClock::starting_at(epoch, Duration::from_nanos(tick_ns));
            let mut ring = TimerWheel::new(&clock);
            let mut heap = HeapWheel::new();
            let (mut now, mut token) = (base, 0u64);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (kind, raw) in steps {
                let on_grid = |at: Instant| {
                    let ticks = at.duration_since(epoch).as_nanos() as u64 / tick_ns;
                    epoch + Duration::from_nanos(ticks * tick_ns)
                };
                let deadline = match kind {
                    // Within 3 ms, off and on the tick grid.
                    0 => now + Duration::from_nanos(raw % 3_000_000),
                    1 | 2 => on_grid(now + Duration::from_nanos(raw % 3_000_000)),
                    // Already due when armed.
                    3 => now - Duration::from_nanos(raw % 3_000_000),
                    // Up to 400 ms out: past the ring, into the overflow.
                    4 => on_grid(now + Duration::from_nanos(raw)),
                    // Pop at a monotone instant: within a tick or two, or
                    // tens of milliseconds on.
                    _ => {
                        let advance = if kind == 5 { raw % 200_000 } else { raw % 60_000_000 };
                        now += Duration::from_nanos(advance);
                        ring.pop_due_into(now, &mut got);
                        heap.pop_due_into(now, &mut want);
                        prop_assert_eq!(&got, &want);
                        prop_assert_eq!(ring.next_deadline(), heap.next_deadline());
                        continue;
                    }
                };
                token += 1;
                ring.arm(deadline, token);
                heap.arm(deadline, token);
                // Every fifth deadline is armed twice in a row.
                if token % 5 == 0 {
                    token += 1;
                    ring.arm(deadline, token);
                    heap.arm(deadline, token);
                }
                prop_assert_eq!(ring.next_deadline(), heap.next_deadline());
            }
            now += Duration::from_secs(1);
            ring.pop_due_into(now, &mut got);
            heap.pop_due_into(now, &mut want);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(ring.next_deadline(), None);
            prop_assert_eq!((ring.fired, ring.late_ns), (heap.fired, heap.late_ns));
        }
    }
}
