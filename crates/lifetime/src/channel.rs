//! One ordered, acknowledged channel, sans-io: the sender window and the
//! receiver under a client's causal writes to a shard (DESIGN.md §4).
//!
//! A stream numbers its items from 1. The [`Receiver`] judges each
//! arrival against a cursor its caller keeps (the highest number
//! delivered): a duplicate, the next item, one held ahead of a gap, or
//! one past [`AHEAD`], dropped. The ack is the cursor; when it leaves is
//! the caller's policy. A receiver left holding items
//! ([`Receiver::is_holding`]) has its gap reported at once
//! ([`crate::msg::Msg::Gap`]). The
//! [`SendWindow`] resends exactly the items overdue `after` past their own
//! last send (selective repeat), or sooner once a gap report names them
//! ([`SendWindow::gap`]), on one timer named by the deadline it waits for
//! ([`TIMER_RESEND`] + deadline).

use std::collections::{BTreeMap, VecDeque};

use tc_clocks::{Delta, Time};

use crate::engine::{Effect, TIMER_RESEND};

/// How far past its cursor a receiver holds arrivals: an item more than
/// `AHEAD` beyond the next expected one is dropped, and its sender's
/// deadline sends it again. It caps one stream's buffer; the deepest hold
/// measured over the fault sweep's fleets (`results/faults.txt`, drop up
/// to 30 % with reorder jitter) is 8 causal writes.
pub const AHEAD: u64 = 256;

/// A receiver's judgement of one arrival.
#[derive(Debug, PartialEq, Eq)]
pub enum Arrival<T> {
    /// The next item in order: deliver it, then drain [`Receiver::next`].
    Next(T),
    /// Ahead of a gap: held until the gap closes.
    Held,
    /// At or below the cursor: delivered before.
    Duplicate,
    /// More than [`AHEAD`] past the next expected item: dropped.
    Overflow,
}

/// The receiving end of one stream: the items held ahead of a gap.
#[derive(Debug)]
pub struct Receiver<T> {
    ahead: BTreeMap<u64, T>,
}

impl<T> Default for Receiver<T> {
    fn default() -> Self {
        Receiver {
            ahead: BTreeMap::new(),
        }
    }
}

impl<T> Receiver<T> {
    /// Judges item `seq` against `cursor`, holding it if it is ahead of a
    /// gap (a copy of an item already held is dropped).
    pub fn arrive(&mut self, cursor: u64, seq: u64, item: T) -> Arrival<T> {
        if seq <= cursor {
            Arrival::Duplicate
        } else if seq == cursor + 1 {
            Arrival::Next(item)
        } else if seq - cursor - 1 <= AHEAD {
            self.ahead.entry(seq).or_insert(item);
            Arrival::Held
        } else {
            Arrival::Overflow
        }
    }

    /// The held item right after `cursor`, taken out. A caller that has
    /// delivered up to `cursor` calls this until it returns `None`.
    pub fn next(&mut self, cursor: u64) -> Option<T> {
        self.ahead.remove(&(cursor + 1))
    }

    /// Whether items wait ahead of a gap: the caller then reports the gap
    /// to the sender at once.
    #[must_use]
    pub fn is_holding(&self) -> bool {
        !self.ahead.is_empty()
    }
}

/// An item sent and not yet acked.
#[derive(Debug)]
struct Unacked<T> {
    seq: u64,
    item: T,
    /// When it was sent, until it is first resent.
    sent_once: Option<Time>,
    /// When it goes again unless acked first: `after` past its last send,
    /// or sooner once a gap report names it.
    due: Time,
}

/// The sending end of one stream: the unacked items, their deadlines and
/// the window's one timer.
#[derive(Debug)]
pub struct SendWindow<T> {
    after: Delta,
    next_seq: u64,
    unacked: VecDeque<Unacked<T>>,
    /// The deadline the live timer waits for; `None` while empty.
    armed: Option<Time>,
}

impl<T> SendWindow<T> {
    /// An empty window whose items are overdue `after` past their last
    /// send. Its timer for deadline `t` has token `TIMER_RESEND + t`.
    #[must_use]
    pub fn new(after: Delta) -> Self {
        SendWindow {
            after,
            next_seq: 1,
            unacked: VecDeque::new(),
            armed: None,
        }
    }

    /// Whether every item sent has been acked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.unacked.is_empty()
    }

    /// The oldest item not yet acked.
    #[must_use]
    pub fn oldest(&self) -> Option<&T> {
        self.unacked.front().map(|u| &u.item)
    }

    /// The newest item not yet acked.
    #[must_use]
    pub fn newest(&self) -> Option<&T> {
        self.unacked.back().map(|u| &u.item)
    }

    /// The number the next [`push`](Self::push) gives its item.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records `item`, just sent at `now` as number
    /// [`next_seq`](Self::next_seq), and arms the timer if the window was
    /// empty.
    pub fn push(&mut self, item: T, now: Time, out: &mut Vec<Effect>) {
        self.unacked.push_back(Unacked {
            seq: self.next_seq,
            item,
            sent_once: Some(now),
            due: now.saturating_add_delta(self.after),
        });
        self.next_seq += 1;
        if self.armed.is_none() {
            self.rearm(now, out);
        }
    }

    /// Applies a cumulative ack: every item numbered `upto` or below was
    /// delivered. Returns whether it acked anything; a late ack with an
    /// older cursor acks nothing.
    pub fn ack(&mut self, upto: u64) -> bool {
        let before = self.unacked.len();
        while self.unacked.front().is_some_and(|u| u.seq <= upto) {
            self.unacked.pop_front();
        }
        if self.unacked.is_empty() {
            self.armed = None;
        }
        self.unacked.len() < before
    }

    /// The receiver reported a gap at `upto`: it holds items past it and
    /// lacks item `upto + 1`, which goes again sooner than its deadline.
    /// Sent once, `age` ago, it may merely be overtaken: it goes `age`
    /// from now unless acked first. The report answers something sent
    /// after it, so `age` spans a round trip and the overtaking, and a
    /// reordered item is acked in time. Resent, it was overdue once: it
    /// goes at once.
    pub fn gap(&mut self, upto: u64, now: Time, out: &mut Vec<Effect>) {
        // Numbers start at 1, and `upto` comes off the wire.
        let Some(u) = self.unacked.iter_mut().find(|u| u.seq - 1 == upto) else {
            return;
        };
        let age = u.sent_once.map_or(Delta::ZERO, |t| now.saturating_since(t));
        let pulled = now.saturating_add_delta(age);
        if pulled < u.due {
            u.due = pulled;
            if self.armed.is_some_and(|d| pulled < d) {
                self.rearm(now, out);
            }
        }
    }

    /// Whether `token` is the window's live timer.
    #[must_use]
    pub fn is_timer(&self, token: u64) -> bool {
        self.armed
            .is_some_and(|d| TIMER_RESEND.wrapping_add(d.ticks()) == token)
    }

    /// Timer `token` fired at `now`. If it is the live one, every overdue
    /// item goes to `resend` in order and restarts its deadline, and the
    /// timer is re-armed for the earliest deadline; a dead timer does
    /// nothing.
    pub fn fire(
        &mut self,
        token: u64,
        now: Time,
        out: &mut Vec<Effect>,
        mut resend: impl FnMut(u64, &T, &mut Vec<Effect>),
    ) {
        if !self.is_timer(token) {
            return;
        }
        for u in &mut self.unacked {
            if u.due <= now {
                resend(u.seq, &u.item, out);
                u.sent_once = None;
                u.due = now.saturating_add_delta(self.after);
            }
        }
        self.rearm(now, out);
    }

    /// Arms the timer for the earliest deadline, if anything is unacked.
    /// A restarted sender calls this: its window survived, its timer did
    /// not.
    pub fn rearm(&mut self, now: Time, out: &mut Vec<Effect>) {
        self.armed = self.unacked.iter().map(|u| u.due).min();
        if let Some(deadline) = self.armed {
            out.push(Effect::SetTimer {
                after: deadline.saturating_since(now),
                token: TIMER_RESEND.wrapping_add(deadline.ticks()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const AFTER: u64 = 100;

    fn at(t: u64) -> Time {
        Time::from_ticks(t)
    }

    fn window() -> SendWindow<u64> {
        SendWindow::new(Delta::from_ticks(AFTER))
    }

    /// The `(deadline, token)` of every timer `out` arms at `now`.
    fn armed(out: &[Effect], now: u64) -> Vec<(u64, u64)> {
        out.iter()
            .filter_map(|e| match e {
                Effect::SetTimer { after, token } => Some((now + after.ticks(), *token)),
                _ => None,
            })
            .collect()
    }

    /// Fires `token` at `now`: what was resent, and the timer re-armed.
    fn fire(w: &mut SendWindow<u64>, token: u64, now: u64) -> (Vec<u64>, Option<(u64, u64)>) {
        let mut out = Vec::new();
        let mut resent = Vec::new();
        w.fire(token, at(now), &mut out, |seq, _, _| resent.push(seq));
        (resent, armed(&out, now).pop())
    }

    #[test]
    fn the_receiver_delivers_in_order_and_holds_what_is_ahead() {
        let mut rx = Receiver::default();
        assert_eq!(rx.arrive(0, 2, 'b'), Arrival::Held);
        assert_eq!(rx.arrive(0, 3, 'c'), Arrival::Held);
        assert_eq!(rx.arrive(0, 2, 'x'), Arrival::Held, "a copy of a held item");
        assert_eq!(rx.next(0), None, "the gap is still open");
        assert_eq!(rx.arrive(0, 1, 'a'), Arrival::Next('a'));
        assert_eq!(rx.next(1), Some('b'), "the first copy, not the second");
        assert_eq!(rx.next(2), Some('c'));
        assert_eq!(rx.next(3), None);
        assert_eq!(rx.arrive(3, 2, 'b'), Arrival::Duplicate);
    }

    /// Each item has its own deadline: a fire with nothing overdue sends
    /// nothing and waits for the earliest deadline; an overdue item goes
    /// again alone, and only its own deadline moves.
    #[test]
    fn items_are_resent_only_once_overdue_and_alone() {
        let mut w = window();
        let mut out = Vec::new();
        w.push(1, at(0), &mut out);
        w.push(2, at(30), &mut out);
        let [(_, token)] = armed(&out, 0)[..] else {
            panic!("one timer for the window: {out:?}")
        };
        assert!(w.ack(1));
        let (resent, Some((deadline, token))) = fire(&mut w, token, AFTER) else {
            panic!("re-armed")
        };
        assert_eq!((resent, deadline), (vec![], 30 + AFTER));
        out.clear();
        w.push(3, at(120), &mut out);
        assert!(out.is_empty(), "a push into a busy window arms nothing");
        let (resent, rearmed) = fire(&mut w, token, deadline);
        assert_eq!(resent, [2], "item 3 is not overdue");
        assert_eq!(rearmed.map(|r| r.0), Some(120 + AFTER), "item 3's deadline");
    }

    /// A gap report pulls the missing item's deadline in: a fresh item
    /// goes again its age after the report, one resent before at once.
    /// A report never pushes a deadline back, and one naming nothing
    /// unacked changes nothing.
    #[test]
    fn a_gap_report_pulls_the_missing_items_deadline_in() {
        let (mut w, mut out) = (window(), Vec::new());
        w.push(1, at(0), &mut out);
        w.push(2, at(10), &mut out);
        let [(AFTER, first)] = armed(&out, 0)[..] else {
            panic!("one timer: {out:?}")
        };
        out.clear();
        w.gap(0, at(30), &mut out);
        assert_eq!(armed(&out, 30), [(60, TIMER_RESEND + 60)]);
        assert!(!w.is_timer(first), "the later deadline's timer is dead");
        let (resent, rearmed) = fire(&mut w, TIMER_RESEND + 60, 60);
        assert_eq!(
            (resent, rearmed),
            (vec![1], Some((10 + AFTER, TIMER_RESEND + 10 + AFTER)))
        );
        out.clear();
        w.gap(0, at(70), &mut out);
        assert_eq!(
            armed(&out, 70),
            [(70, TIMER_RESEND + 70)],
            "resent: at once"
        );
        assert_eq!(fire(&mut w, TIMER_RESEND + 70, 70).0, [1]);
        out.clear();
        w.gap(1, at(105), &mut out);
        w.gap(7, at(105), &mut out);
        assert!(out.is_empty(), "item 2 is due at 110, before 105 + 95");
    }

    /// An arrival past the ahead bound is dropped, and the sender's
    /// deadline recovers it: item 1 is lost, the rest land and the last
    /// overflows. Item 1 goes again at its deadline, alone, and releases
    /// everything held; the overflowed item goes again at its own.
    #[test]
    fn an_overflowed_arrival_is_recovered_by_its_deadline() {
        let (mut w, mut rx, mut out) = (window(), Receiver::default(), Vec::new());
        w.push(1, at(0), &mut out);
        let [(AFTER, token)] = armed(&out, 0)[..] else {
            panic!("the first push arms the timer: {out:?}")
        };
        let last = AHEAD + 2;
        for seq in 2..=last {
            w.push(seq, at(10), &mut out);
            let judged = rx.arrive(0, seq, seq);
            assert_eq!(
                judged == Arrival::Overflow,
                seq == last,
                "{seq}: {judged:?}"
            );
        }
        let (resent, Some((_, token))) = fire(&mut w, token, AFTER) else {
            panic!("re-armed")
        };
        assert_eq!(resent, [1], "only the overdue item");
        assert_eq!(rx.arrive(0, 1, 1), Arrival::Next(1));
        let mut cursor = 1;
        while rx.next(cursor).is_some() {
            cursor += 1;
        }
        assert_eq!(cursor, last - 1, "everything held is released");
        assert!(w.ack(cursor));
        let (resent, Some((_, token))) = fire(&mut w, token, 10 + AFTER) else {
            panic!("re-armed")
        };
        assert_eq!(resent, [last]);
        assert_eq!(rx.arrive(cursor, last, last), Arrival::Next(last));
        assert!(w.ack(last) && w.is_empty());
        assert!(!w.is_timer(token), "an emptied window's timer is dead");
        // A refill waits for a later deadline, so the old timer stays dead.
        out.clear();
        w.push(last + 1, at(20 + AFTER), &mut out);
        let [(_, fresh)] = armed(&out, 20 + AFTER)[..] else {
            panic!("a push into an empty window arms: {out:?}")
        };
        assert!(fresh != token && w.is_timer(fresh) && !w.is_timer(token));
    }

    /// What a message on a [`Link`]'s wire carries.
    #[derive(Clone, Copy, PartialEq)]
    enum Wire {
        Item(u64),
        Ack(u64),
        Gap(u64),
    }

    /// A sender window and a receiver joined by a seeded wire that drops
    /// each message with probability `drop`, duplicates it with `dup`, and
    /// delivers each copy `base` plus up to `jitter` ticks later, so it
    /// reorders. The receiver acks every arrival at once and reports its
    /// gap after each one that leaves it holding items.
    struct Link {
        w: SendWindow<u64>,
        rx: Receiver<u64>,
        /// The receiver's cursor: durable, unlike what it holds.
        cursor: u64,
        now: u64,
        /// `(arrival, message)` on the wire.
        wire: Vec<(u64, Wire)>,
        /// `(deadline, token)` of every timer armed and not yet fired.
        timers: Vec<(u64, u64)>,
        /// Per item: when it last left, and whether a gap report named it
        /// since; the resends; the acked prefix.
        sent: Vec<(u64, bool)>,
        resends: usize,
        acked: u64,
        rng: StdRng,
        drop: f64,
        dup: f64,
        base: u64,
        jitter: u64,
    }

    impl Link {
        fn new(seed: u64, drop: f64, dup: f64, base: u64, jitter: u64) -> Self {
            Link {
                w: window(),
                rx: Receiver::default(),
                cursor: 0,
                now: 0,
                wire: Vec::new(),
                timers: Vec::new(),
                sent: vec![(0, false)],
                resends: 0,
                acked: 0,
                rng: StdRng::seed_from_u64(seed),
                drop,
                dup,
                base,
                jitter,
            }
        }

        fn send(&mut self, what: Wire) {
            if self.rng.gen_bool(self.drop) {
                return;
            }
            for _ in 0..1 + u64::from(self.rng.gen_bool(self.dup)) {
                let arrival = self.now + self.base + self.rng.gen_range(0..=self.jitter);
                self.wire.push((arrival, what));
            }
        }

        fn push(&mut self) {
            let mut out = Vec::new();
            let seq = self.w.next_seq();
            self.w.push(seq, at(self.now), &mut out);
            self.timers.extend(armed(&out, self.now));
            self.sent.push((self.now, false));
            self.send(Wire::Item(seq));
        }

        /// Steps every delivery and timer due by `until`, in time order,
        /// checking: delivery in order and exactly once, a monotone acked
        /// prefix, a live timer emitting something and a dead one nothing,
        /// and no item going again before its deadline unless a gap report
        /// named it since it last left.
        fn run_until(&mut self, until: u64) -> Result<(), TestCaseError> {
            loop {
                let msg = (0..self.wire.len()).min_by_key(|&i| self.wire[i].0);
                let timer = (0..self.timers.len()).min_by_key(|&i| self.timers[i]);
                let msg_at = msg.map_or(u64::MAX, |i| self.wire[i].0);
                let timer_at = timer.map_or(u64::MAX, |i| self.timers[i].0);
                if msg_at.min(timer_at) > until {
                    self.now = self.now.max(until);
                    return Ok(());
                }
                let mut out = Vec::new();
                if msg_at <= timer_at {
                    let (t, what) = self.wire.swap_remove(msg.expect("due"));
                    self.now = t;
                    match what {
                        Wire::Ack(upto) => {
                            self.w.ack(upto);
                            let acked = self.w.next_seq() - 1 - self.w.unacked.len() as u64;
                            prop_assert!(acked >= self.acked, "the acked prefix shrank");
                            self.acked = acked;
                        }
                        Wire::Gap(upto) => {
                            if let Some(named) = self.sent.get_mut(upto as usize + 1) {
                                named.1 = true;
                            }
                            self.w.gap(upto, at(t), &mut out);
                        }
                        Wire::Item(seq) => {
                            let mut next = match self.rx.arrive(self.cursor, seq, seq) {
                                Arrival::Next(item) => Some(item),
                                _ => None,
                            };
                            while let Some(item) = next {
                                self.cursor += 1;
                                prop_assert_eq!(item, self.cursor, "in order, exactly once");
                                next = self.rx.next(self.cursor);
                            }
                            self.send(Wire::Ack(self.cursor));
                            if self.rx.is_holding() {
                                self.send(Wire::Gap(self.cursor));
                            }
                        }
                    }
                    self.timers.extend(armed(&out, t));
                } else {
                    let (t, token) = self.timers.swap_remove(timer.expect("due"));
                    self.now = t;
                    let (live, mut resent) = (self.w.is_timer(token), vec![]);
                    self.w
                        .fire(token, at(t), &mut out, |seq, _, _| resent.push(seq));
                    prop_assert_eq!(live, !out.is_empty(), "liveness of {}", token);
                    self.timers.extend(armed(&out, t));
                    for seq in resent {
                        let (last, named) =
                            std::mem::replace(&mut self.sent[seq as usize], (t, false));
                        prop_assert!(named || last + AFTER <= t, "{} resent early", seq);
                        self.resends += 1;
                        self.send(Wire::Item(seq));
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The channel against its model under drop, duplicate, reorder
        /// and receiver restart (what it held is lost, its cursor is not):
        /// the checks of [`Link::run_until`] hold throughout, and once the
        /// faults stop every item is delivered and acked.
        #[test]
        fn the_channel_delivers_every_item_once_and_in_order(
            seed in 0u64..1 << 32,
            drop in 0.0..0.4f64,
            dup in 0.0..0.4f64,
            base in 1..AFTER,
            jitter in 0..2 * AFTER,
            script in proptest::collection::vec((0u8..4, 0u64..60), 1..200),
        ) {
            let mut link = Link::new(seed, drop, dup, base, jitter);
            for (op, ticks) in script {
                match op {
                    0 | 1 => link.push(),
                    2 => link.run_until(link.now + ticks)?,
                    _ => link.rx = Receiver::default(),
                }
            }
            (link.drop, link.dup, link.jitter) = (0.0, 0.0, 0);
            link.run_until(link.now + 1_000 * AFTER)?;
            prop_assert!(link.w.is_empty(), "the window stalled");
            prop_assert_eq!(link.cursor, link.w.next_seq() - 1);
        }

        /// Nothing lost, and messages reordered by less than the link's
        /// latency: nothing is resent. A reordered item waits for its gap,
        /// not for its deadline, and a gap report that names it comes too
        /// early to send it again.
        #[test]
        fn a_fault_free_stream_sends_no_resend(
            seed in 0u64..1 << 32,
            base in 1..AFTER / 4,
            gaps in proptest::collection::vec(0u64..40, 1..100),
        ) {
            let mut link = Link::new(seed, 0.0, 0.0, base, base - 1);
            for gap in gaps {
                link.run_until(link.now + gap)?;
                link.push();
            }
            link.run_until(link.now + 10 * AFTER)?;
            prop_assert!(link.w.is_empty());
            prop_assert_eq!(link.resends, 0);
        }
    }
}
