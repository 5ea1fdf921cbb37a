//! The object-shard §5 state machine, sans-io: long-term storage,
//! fetch/validate service, write ordering, and (optionally) push
//! invalidations.
//!
//! The paper's architecture gives each object "a set of server sites"; this
//! implementation partitions the object space across a fleet of shards
//! (one `ServerEngine` instance per shard, routed by
//! [`crate::engine::ShardMap`]) with *no inter-shard protocol*: every write
//! to an object passes through the object's one owning shard, so "current
//! at shard time t" is a global statement about that object. With one
//! shard this degenerates to the original single server. DESIGN.md §4
//! records how cross-shard causality stays sound (per-shard write
//! sequences plus the client-side write barrier).
//!
//! Durable state lives behind the [`ShardStore`] seam (see
//! [`crate::store`]): the engine holds only session state (known clients,
//! deferred and owed write acks) plus a boxed store.
//! Under [`DurabilityMode::Durable`] every write is appended as a
//! [`WalRecord`], reads are served from the store's *durable* image, and
//! write acks are deferred until the covering fsync — so a crash can only
//! lose writes whose clients are still retransmitting them.
//!
//! A client's causal writes to the shard are one ordered stream
//! ([`crate::channel`]): a write ahead of a gap waits in the writer's
//! receiver until the gap closes, and the store's per-writer causal cursor
//! is the stream's cursor. Causal write acks are cumulative and *owed*:
//! where a physical ack would ship, the shard instead owes the writer that
//! cursor. The next reply to that site carries it; only if none leaves
//! within half the writer's resend interval ([`ServerEngine::ack_wait`])
//! does a standalone [`Msg::WriteAckCausal`] go out, and a write its
//! writer waits on (`ack_now`) is acked at once.

use std::collections::BTreeSet;

use tc_clocks::{Delta, Time, VectorClock};
use tc_core::{ObjectId, Value};
use tc_sim::metrics::names;
use tc_sim::NodeId;

use crate::channel::{Arrival, Receiver};
use crate::engine::{Effect, Event, Now, TIMER_ACK_BASE, TIMER_RESEND};
use crate::msg::{Msg, ValidateOutcome};
use crate::store::{MemStore, ShardStore, StoredVersion, WalRecord};
use crate::{Propagation, ProtocolConfig};

/// The timer token a shard arms for a deadline-batched WAL fsync
/// ([`crate::FsyncPolicy::max_delay`]), above the [`TIMER_RESEND`] range.
pub const TIMER_WAL_FLUSH: u64 = u64::MAX;

/// The timer token on which the ack owed to `client` falls due.
fn ack_token(client: NodeId) -> u64 {
    TIMER_ACK_BASE + client.index() as u64
}

/// A shard timer, decoded from its token by range. A shard arms no token
/// outside the ack range and [`TIMER_WAL_FLUSH`].
enum ShardTimer {
    /// The deadline-batched fsync ([`TIMER_WAL_FLUSH`]).
    WalFlush,
    /// The deadline of the ack owed to this client.
    AckDue(NodeId),
}

impl ShardTimer {
    fn decode(token: u64) -> Option<ShardTimer> {
        Some(if token == TIMER_WAL_FLUSH {
            ShardTimer::WalFlush
        } else if (TIMER_ACK_BASE..TIMER_RESEND).contains(&token) {
            ShardTimer::AckDue(NodeId::new((token - TIMER_ACK_BASE) as usize))
        } else {
            return None;
        })
    }
}

/// A client's causal write as its shard receives it: what its
/// [`Msg::WriteReqCausal`] carried, bar the ack-now flag. It waits in its
/// writer's receiver while it is ahead of a gap.
struct InboundWrite {
    object: ObjectId,
    value: Value,
    alpha_v: VectorClock,
    issued_at: Time,
    /// Position of the write in the writer's stream to this shard.
    shard_seq: u64,
}

/// A write ack held until the records it covers are durable.
enum Ack {
    /// Sent as it is once durable: a physical write's ack.
    Send(Msg),
    /// A cumulative causal ack up to `upto`: owed once durable, or sent at
    /// once when the writer waits on it (`at_once`, the write's
    /// `ack_now`).
    Causal { upto: u64, at_once: bool },
}

/// A cumulative causal ack the shard owes one client.
struct OwedAck {
    /// Every write of the client to this shard with `shard_seq <= upto` is
    /// durable here.
    upto: u64,
    /// True time at which the ack leaves on its own,
    /// [`ServerEngine::ack_wait`] after it was first owed, unless a reply
    /// carried it first.
    due: Time,
}

/// The server (shard) engine.
///
/// # Crash durability
///
/// Under crash–restart ([`Event::Restart`]) the [`ShardStore`] recovers
/// whatever its backend made durable: everything for the in-memory
/// [`MemStore`] (which models an infinitely fast disk), everything up to
/// the last fsync for a WAL-backed store (which replays its log and drops
/// the unsynced tail — safe, because those writes were never acked).
/// `known_clients` and the deferred and owed acks are volatile session
/// state (a writer retransmits whatever a lost ack left unacked): after a
/// restart, push invalidations flow only to clients that contact the shard
/// again. That is safe for the timed guarantees because pushes are an
/// optimization; the Δ bound is enforced by the client-side lifetime rules
/// alone.
pub struct ServerEngine {
    config: ProtocolConfig,
    /// The durable state backend (versions, α stamps, dedup map, causal
    /// cursors).
    store: Box<dyn ShardStore>,
    /// Clients that have contacted us (push-invalidation targets). A client
    /// cannot cache anything without contacting the owning shard first, so
    /// this set always covers every cache holding this shard's data.
    known_clients: BTreeSet<NodeId>,
    /// Write acks awaiting durability of their records (volatile: a crash
    /// drops them together with the unsynced records they cover, and the
    /// clients retransmit). FIFO — drained in append order at each sync.
    deferred_acks: Vec<(NodeId, Ack)>,
    /// Causal acks owed, indexed by client node (volatile, like
    /// `deferred_acks`: the client retransmits what a crash left unacked).
    /// Each rides on the next reply to its client or goes standalone when
    /// due. A slot per node, so owing and paying never allocate.
    owed: Vec<Option<OwedAck>>,
    /// Causal writes held ahead of a gap in their writer's stream, indexed
    /// by client node (volatile: they are neither applied nor acked, so
    /// the writer resends what a crash loses).
    inbound: Vec<Receiver<InboundWrite>>,
    /// Total client requests served (fetch + validate + write), the
    /// per-shard load statistic the threaded runtime reports.
    requests_served: u64,
    /// The latest driver-injected clock sample.
    now: Option<Now>,
}

impl ServerEngine {
    /// Creates an empty server engine over the default in-memory store.
    #[must_use]
    pub fn new(config: ProtocolConfig) -> Self {
        ServerEngine::with_store(config, Box::new(MemStore::new()))
    }

    /// Creates a server engine over a caller-provided store backend
    /// (e.g. `tc-durable`'s WAL store).
    #[must_use]
    pub fn with_store(config: ProtocolConfig, store: Box<dyn ShardStore>) -> Self {
        ServerEngine {
            config,
            store,
            known_clients: BTreeSet::new(),
            deferred_acks: Vec::new(),
            owed: Vec::new(),
            inbound: Vec::new(),
            requests_served: 0,
            now: None,
        }
    }

    /// Total writes applied (dropped LWW losers excluded).
    #[must_use]
    pub fn writes_applied(&self) -> u64 {
        self.store.writes_applied()
    }

    /// Total client requests served (fetch + validate + write).
    #[must_use]
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Whether firing timer `token` now could do anything. An ack deadline
    /// is dead once nothing is owed to its client — a reply carried the
    /// ack first, as it does for most — and a token the shard never arms
    /// is always dead; a driver may drop either without a step. The fsync
    /// deadline counts as live.
    #[must_use]
    pub fn timer_is_live(&self, token: u64) -> bool {
        match ShardTimer::decode(token) {
            Some(ShardTimer::WalFlush) => true,
            Some(ShardTimer::AckDue(client)) => self.owed_to(client).is_some(),
            None => false,
        }
    }

    /// Handles one event, appending the resulting effects to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a message arrives before the first [`Event::Now`].
    pub fn handle(&mut self, event: Event, out: &mut Vec<Effect>) {
        match event {
            Event::Now(now) => self.now = Some(now),
            Event::Start => {}
            Event::Timer { token } => match ShardTimer::decode(token) {
                // Deadline-batched fsync; a timer raced past a
                // fullness-triggered sync finds nothing pending.
                Some(ShardTimer::WalFlush) => self.sync_store(out),
                Some(ShardTimer::AckDue(client)) => self.on_ack_due(client, out),
                None => {}
            },
            Event::Restart => {
                out.push(Effect::Metric {
                    name: names::SERVER_RESTART,
                    add: 1,
                });
                // The store recovers what its backend made durable; session
                // state (and acks covering unsynced records) is lost.
                let recovery = self.store.restart();
                if self.config.durability.is_durable() {
                    out.push(Effect::Metric {
                        name: names::WAL_REPLAYED,
                        add: recovery.replayed + recovery.from_snapshot,
                    });
                    out.push(Effect::Metric {
                        name: names::WAL_LOST,
                        add: recovery.lost,
                    });
                }
                self.known_clients.clear();
                self.deferred_acks.clear();
                self.owed.clear();
                self.inbound.clear();
            }
            Event::Message { from, msg } => self.on_message(from, msg, out),
        }
    }

    /// The true time of the latest clock sample: what deadlines reckon in.
    fn truth(&self) -> Time {
        self.now
            .expect("driver must inject Event::Now before lifecycle events")
            .truth
    }

    /// The durable version served to readers. Never exposes unsynced
    /// appends: a value a crash could un-happen must not be observable.
    fn current(&self, object: ObjectId) -> StoredVersion {
        self.store.durable_version(object)
    }

    /// Fsyncs the store and releases the acks the sync made safe. A no-op
    /// when nothing is pending (stale deadline timer).
    fn sync_store(&mut self, out: &mut Vec<Effect>) {
        if self.store.pending() == 0 {
            return;
        }
        self.store.sync();
        out.push(Effect::Metric {
            name: names::WAL_FSYNC,
            add: 1,
        });
        for (to, ack) in std::mem::take(&mut self.deferred_acks) {
            self.release(to, ack, out);
        }
    }

    /// Group-commit check: sync now if the pending tail reached the
    /// policy's `max_pending`.
    fn maybe_sync_after_append(&mut self, out: &mut Vec<Effect>) {
        if let Some(policy) = self.config.durability.fsync() {
            if self.store.pending() >= policy.max_pending {
                self.sync_store(out);
            }
        }
    }

    /// Arms the deadline-batched fsync timer when an append left the
    /// pending tail newly non-empty.
    fn maybe_arm_wal_timer(&mut self, out: &mut Vec<Effect>) {
        if let Some(policy) = self.config.durability.fsync() {
            if self.store.pending() == 1 && !policy.max_delay.is_infinite() {
                out.push(Effect::SetTimer {
                    after: policy.max_delay,
                    token: TIMER_WAL_FLUSH,
                });
            }
        }
    }

    /// Releases a write ack now if its record is durable, else holds it
    /// until the covering sync. (With the in-memory store `pending()` is
    /// always zero, so acks always release inline.) A writer that waits on
    /// a held ack is sent what is already durable at once: the ack owed
    /// to it, which a crash before the sync would otherwise lose.
    fn ship_or_defer(&mut self, to: NodeId, ack: Ack, out: &mut Vec<Effect>) {
        if self.store.pending() == 0 {
            self.release(to, ack, out);
            return;
        }
        if matches!(ack, Ack::Causal { at_once: true, .. }) {
            if let Some(owed) = self.take_owed(to) {
                Self::send_ack(to, owed.upto, out);
            }
        }
        self.deferred_acks.push((to, ack));
    }

    /// Lets an ack whose records are durable go: a causal one becomes
    /// owed unless its writer waits on it, any other is sent.
    fn release(&mut self, to: NodeId, ack: Ack, out: &mut Vec<Effect>) {
        match ack {
            Ack::Send(msg) => self.reply(to, msg, out),
            Ack::Causal {
                upto,
                at_once: false,
            } => self.owe(to, upto, out),
            Ack::Causal {
                upto,
                at_once: true,
            } => {
                // It covers whatever was owed, which then leaves with it.
                let upto = self.take_owed(to).map_or(upto, |o| o.upto.max(upto));
                Self::send_ack(to, upto, out);
            }
        }
    }

    /// How long an owed causal ack waits for a reply to its site to ride
    /// on before it leaves alone: half the writer's resend interval
    /// ([`ProtocolConfig::retry_after`], which the handshake makes the same
    /// at both ends). The writer resends a write `retry_after` past its
    /// last send, and the wait starts only once the write is applied and
    /// durable here, so the other half is left for the write's flight, the
    /// covering fsync and the ack's flight: a fault-free run resends
    /// nothing. A writer that needs the ack sooner flags the write
    /// (`ack_now`), and then it leaves at once.
    #[must_use]
    pub fn ack_wait(&self) -> Delta {
        let retry = self.config.retry_after;
        if retry.is_infinite() {
            retry
        } else {
            Delta::from_ticks(retry.ticks() / 2)
        }
    }

    /// `client` asked for its acks (an epoch-0 validation: it drains with
    /// writes unacked). The ack owed rides on the answer; the ones still
    /// held for an fsync leave as soon as it lands instead of being owed.
    fn hasten_held_acks(&mut self, client: NodeId) {
        let held = self
            .deferred_acks
            .iter_mut()
            .filter(|(to, _)| *to == client);
        for (_, ack) in held {
            if let Ack::Causal { at_once, .. } = ack {
                *at_once = true;
            }
        }
    }

    /// Owes `client` a cumulative ack up to `upto`. The first ack owed
    /// since the last one left arms its [`Self::ack_wait`] deadline; a
    /// later one only raises the cursor and keeps that deadline.
    fn owe(&mut self, client: NodeId, upto: u64, out: &mut Vec<Effect>) {
        let wait = self.ack_wait();
        let due = self.truth().saturating_add_delta(wait);
        let i = client.index();
        if i >= self.owed.len() {
            self.owed.resize_with(i + 1, || None);
        }
        match &mut self.owed[i] {
            Some(owed) => owed.upto = owed.upto.max(upto),
            slot @ None => {
                *slot = Some(OwedAck { upto, due });
                out.push(Effect::SetTimer {
                    after: wait,
                    token: ack_token(client),
                });
            }
        }
    }

    /// The ack owed to `client`, if any.
    fn owed_to(&self, client: NodeId) -> Option<&OwedAck> {
        self.owed.get(client.index()).and_then(Option::as_ref)
    }

    /// Clears and returns the ack owed to `client`, if any.
    fn take_owed(&mut self, client: NodeId) -> Option<OwedAck> {
        self.owed.get_mut(client.index()).and_then(Option::take)
    }

    /// Sends `msg` to `to`, carrying the causal ack owed to `to` if `msg`
    /// is a reply.
    fn reply(&mut self, to: NodeId, mut msg: Msg, out: &mut Vec<Effect>) {
        if let Some(owed) = self.owed_to(to) {
            if msg.carry_ack(owed.upto) {
                self.take_owed(to);
                out.push(Effect::metric(names::SERVER_ACK_PIGGYBACKED));
            }
        }
        out.push(Effect::Send { to, msg });
    }

    /// An ack deadline fired: the ack owed to `client` leaves on its own
    /// if it is due. A reply that carried it first left nothing owed, and
    /// a deadline armed for an ack a reply already carried finds a younger
    /// one not yet due, whose own deadline is armed.
    fn on_ack_due(&mut self, client: NodeId, out: &mut Vec<Effect>) {
        let now = self.truth();
        if self.owed_to(client).is_some_and(|o| o.due <= now) {
            let owed = self.take_owed(client).expect("checked above");
            Self::send_ack(client, owed.upto, out);
        }
    }

    /// Sends a standalone cumulative causal ack.
    fn send_ack(to: NodeId, upto: u64, out: &mut Vec<Effect>) {
        out.push(Effect::metric(names::SERVER_ACK_STANDALONE));
        out.push(Effect::Send {
            to,
            msg: Msg::WriteAckCausal { upto },
        });
    }

    /// Appends one record to the store and emits the WAL telemetry.
    fn append(&mut self, record: &WalRecord, out: &mut Vec<Effect>) -> bool {
        let won = self.store.apply(record);
        if self.config.durability.is_durable() {
            out.push(Effect::Metric {
                name: names::WAL_APPEND,
                add: 1,
            });
        }
        won
    }

    /// Tells every other known client that `object`'s current version now
    /// starts at `alpha_t` (and `alpha_v`, in the causal family).
    fn push_invalidations(
        &mut self,
        out: &mut Vec<Effect>,
        object: ObjectId,
        except: NodeId,
        alpha_t: Time,
        alpha_v: Option<&VectorClock>,
    ) {
        if self.config.propagation != Propagation::PushInvalidate {
            return;
        }
        for &client in &self.known_clients {
            if client != except {
                out.push(Effect::Metric {
                    name: names::PUSH,
                    add: 1,
                });
                out.push(Effect::Send {
                    to: client,
                    msg: Msg::InvalidatePush {
                        object,
                        alpha_t,
                        alpha_v: alpha_v.cloned(),
                    },
                });
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, out: &mut Vec<Effect>) {
        self.known_clients.insert(from);
        self.requests_served += 1;
        let server_now = self
            .now
            .expect("driver must inject Event::Now before lifecycle events")
            .local;
        match msg {
            Msg::FetchReq { object, epoch } => {
                out.push(Effect::Metric {
                    name: names::SERVER_FETCH,
                    add: 1,
                });
                let version = self.current(object);
                let msg = Msg::FetchRep {
                    object,
                    version,
                    server_now,
                    epoch,
                    acked: None,
                };
                self.reply(from, msg, out);
            }
            Msg::ValidateReq {
                object,
                value,
                epoch,
            } => {
                out.push(Effect::Metric {
                    name: names::SERVER_VALIDATE,
                    add: 1,
                });
                if epoch == 0 {
                    self.hasten_held_acks(from);
                }
                let current = self.current(object);
                let outcome = if current.value == value {
                    ValidateOutcome::StillValid
                } else {
                    ValidateOutcome::Newer(current)
                };
                let msg = Msg::ValidateRep {
                    object,
                    outcome,
                    server_now,
                    epoch,
                    acked: None,
                };
                self.reply(from, msg, out);
            }
            Msg::WriteReqCausal {
                object,
                value,
                alpha_v,
                issued_at,
                shard_seq,
                ack_now,
            } => {
                out.push(Effect::Metric {
                    name: names::SERVER_WRITE,
                    add: 1,
                });
                let write = InboundWrite {
                    object,
                    value,
                    alpha_v,
                    issued_at,
                    shard_seq,
                };
                self.on_causal_write(from, write, ack_now, out);
            }
            Msg::WriteReq {
                object,
                value,
                epoch,
            } => {
                out.push(Effect::Metric {
                    name: names::SERVER_WRITE,
                    add: 1,
                });
                // Physical family: the server linearizes writes by
                // assigning strictly increasing start times, then acks.
                // A replayed write keeps its original α (re-applying
                // would assign a fresh α and clobber newer writes to
                // the same object). The dup's ack still waits for
                // durability if anything is pending — cheap, and it
                // keeps "acked ⇒ durable" unconditional.
                if let Some(alpha) = self.store.physical_alpha(value) {
                    out.push(Effect::Metric {
                        name: names::SERVER_WRITE_DUP,
                        add: 1,
                    });
                    let ack = Msg::WriteAck {
                        object,
                        alpha_t: alpha,
                        epoch,
                    };
                    self.ship_or_defer(from, Ack::Send(ack), out);
                    return;
                }
                let alpha =
                    Time::from_ticks(server_now.ticks().max(self.store.last_alpha().ticks() + 1));
                self.append(&WalRecord::physical(object, value, alpha), out);
                self.maybe_sync_after_append(out);
                let ack = Msg::WriteAck {
                    object,
                    alpha_t: alpha,
                    epoch,
                };
                self.ship_or_defer(from, Ack::Send(ack), out);
                self.push_invalidations(out, object, from, alpha, None);
                self.maybe_arm_wal_timer(out);
            }
            // Server never receives replies, pushes, or Δ commands.
            Msg::FetchRep { .. }
            | Msg::ValidateRep { .. }
            | Msg::WriteAck { .. }
            | Msg::WriteAckCausal { .. }
            | Msg::Gap { .. }
            | Msg::InvalidatePush { .. }
            | Msg::DeltaUpdate { .. } => {
                unreachable!("server received a client-bound message")
            }
        }
        self.report_gap(from, out);
    }

    /// Receives client `from`'s causal write, number `write.shard_seq` of
    /// its stream to this shard. The writer already stamped the version.
    /// Every causal dependency a client can acquire flows through the
    /// dependency's owning shard, and the client-side write barrier
    /// guarantees a write reaches this shard only after all its
    /// cross-shard dependencies were acked by theirs — so the fleet stays
    /// causally closed iff each client's writes to *this shard* apply in
    /// per-writer order. The writer's receiver enforces that against the
    /// store's causal cursor: a write ahead of a gap waits there, owing
    /// nothing, and the gap is reported ([`Self::report_gap`]); when it
    /// closes, the writes held behind it apply and the ack leaves at once.
    /// A duplicate is acked again without re-applying.
    fn on_causal_write(
        &mut self,
        from: NodeId,
        write: InboundWrite,
        ack_now: bool,
        out: &mut Vec<Effect>,
    ) {
        let writer = from.index();
        if writer >= self.inbound.len() {
            self.inbound.resize_with(writer + 1, Receiver::default);
        }
        let cursor = self.store.causal_cursor(writer);
        let mut at_once = ack_now;
        match self.inbound[writer].arrive(cursor, write.shard_seq, write) {
            Arrival::Next(write) => {
                self.apply_causal(from, write, out);
                let mut cursor = self.store.causal_cursor(writer);
                while let Some(write) = self.inbound[writer].next(cursor) {
                    self.maybe_arm_wal_timer(out);
                    at_once = true;
                    self.apply_causal(from, write, out);
                    cursor = self.store.causal_cursor(writer);
                }
            }
            Arrival::Duplicate => out.push(Effect::metric(names::SERVER_WRITE_DUP)),
            Arrival::Held => {
                out.push(Effect::metric(names::SERVER_WRITE_GAP));
                return;
            }
            Arrival::Overflow => {
                out.push(Effect::metric(names::AHEAD_DROPPED));
                return;
            }
        }
        // Cumulative: the cursor covers this write and every earlier one
        // of the writer's stream to this shard.
        let upto = self.store.causal_cursor(writer);
        self.ship_or_defer(from, Ack::Causal { upto, at_once }, out);
        self.maybe_arm_wal_timer(out);
    }

    /// Reports the gap in `client`'s write stream, if writes wait behind
    /// one, on every message from it: the writer then resends the missing
    /// write within a round trip ([`SendWindow::gap`]), not at its
    /// deadline.
    fn report_gap(&self, client: NodeId, out: &mut Vec<Effect>) {
        let writer = client.index();
        if self.inbound.get(writer).is_some_and(Receiver::is_holding) {
            let upto = self.store.causal_cursor(writer);
            out.push(Effect::Send {
                to: client,
                msg: Msg::Gap { upto },
            });
        }
    }

    /// Appends `writer`'s causal write `w`, next in its stream, and sends
    /// push invalidations if it won last-writer-wins.
    fn apply_causal(&mut self, writer: NodeId, w: InboundWrite, out: &mut Vec<Effect>) {
        let record = WalRecord::Causal {
            object: w.object,
            writer: writer.index(),
            seq: w.shard_seq,
            value: w.value,
            alpha_t: w.issued_at,
            alpha_v: w.alpha_v.clone(),
        };
        let won = self.append(&record, out);
        self.maybe_sync_after_append(out);
        if won {
            self.push_invalidations(out, w.object, writer, w.issued_at, Some(&w.alpha_v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Recovery, ShardImage};
    use crate::{DurabilityMode, FsyncPolicy, ProtocolKind};
    use tc_clocks::{Delta, SiteClock, VectorClock};
    use tc_core::Value;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::of(ProtocolKind::cc())
    }

    fn durable_cfg(kind: ProtocolKind, fsync: FsyncPolicy) -> ProtocolConfig {
        ProtocolConfig::of(kind).with_durability(DurabilityMode::Durable { fsync })
    }

    /// A store with a real pending tail but no disk: applied records wait
    /// in `pending` until `sync`, and `restart` drops the unsynced tail —
    /// the smallest store that exercises deferred acks and replay loss.
    #[derive(Default)]
    struct TailStore {
        durable: ShardImage,
        applied: ShardImage,
        tail: Vec<WalRecord>,
    }

    impl ShardStore for TailStore {
        fn durable_version(&self, object: ObjectId) -> StoredVersion {
            self.durable.current(object)
        }
        fn last_alpha(&self) -> Time {
            self.applied.last_alpha()
        }
        fn physical_alpha(&self, value: Value) -> Option<Time> {
            self.applied.physical_alpha(value)
        }
        fn causal_cursor(&self, writer: usize) -> u64 {
            self.applied.causal_cursor(writer)
        }
        fn apply(&mut self, record: &WalRecord) -> bool {
            self.tail.push(record.clone());
            self.applied.apply(record)
        }
        fn pending(&self) -> usize {
            self.tail.len()
        }
        fn sync(&mut self) {
            for record in self.tail.drain(..) {
                self.durable.apply(&record);
            }
        }
        fn restart(&mut self) -> Recovery {
            let lost = self.tail.len() as u64;
            self.tail.clear();
            self.applied = self.durable.clone();
            Recovery {
                replayed: self.durable.records(),
                from_snapshot: 0,
                lost,
                corrupted_tail: false,
                recovery_point: self.durable.records(),
            }
        }
        fn writes_applied(&self) -> u64 {
            self.applied.writes_applied()
        }
        fn records(&self) -> u64 {
            self.applied.records()
        }
    }

    fn drive(s: &mut ServerEngine, event: Event) -> Vec<Effect> {
        drive_at(s, 100, event)
    }

    fn drive_at(s: &mut ServerEngine, t: u64, event: Event) -> Vec<Effect> {
        let mut out = Vec::new();
        s.handle(
            Event::Now(Now {
                me: NodeId::new(0),
                local: Time::from_ticks(t),
                truth: Time::from_ticks(t),
            }),
            &mut out,
        );
        s.handle(event, &mut out);
        out
    }

    /// Client node 1's causal write with `shard_seq` `seq`.
    fn causal_write(seq: u64) -> Event {
        let mut clock = VectorClock::new(1, 2);
        for _ in 0..seq {
            clock.tick();
        }
        Event::Message {
            from: NodeId::new(1),
            msg: Msg::WriteReqCausal {
                object: ObjectId::from_letter('X'),
                value: Value::new(10 + seq),
                alpha_v: clock,
                issued_at: Time::from_ticks(50),
                shard_seq: seq,
                ack_now: false,
            },
        }
    }

    /// Client node 1 fetches `Y`.
    fn fetch() -> Event {
        Event::Message {
            from: NodeId::new(1),
            msg: Msg::FetchReq {
                object: ObjectId::from_letter('Y'),
                epoch: 1,
            },
        }
    }

    /// The owed-ack wait of a shard over [`cfg`], in ticks.
    fn wait() -> u64 {
        ServerEngine::new(cfg()).ack_wait().ticks()
    }

    /// The ack deadline of client node 1.
    fn ack_due() -> Event {
        Event::Timer {
            token: ack_token(NodeId::new(1)),
        }
    }

    /// The causal ack every message sent carries (`None` for one without).
    fn acks(effects: &[Effect]) -> Vec<Option<u64>> {
        sent(effects).iter().map(|m| m.acked()).collect()
    }

    fn counted(effects: &[Effect], metric: &str) -> usize {
        effects
            .iter()
            .filter(|e| matches!(e, Effect::Metric { name, .. } if *name == metric))
            .count()
    }

    fn write_req(value: u64) -> Event {
        Event::Message {
            from: NodeId::new(1),
            msg: Msg::WriteReq {
                object: ObjectId::from_letter('X'),
                value: Value::new(value),
                epoch: value,
            },
        }
    }

    fn sent(effects: &[Effect]) -> Vec<&Msg> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn initial_version_is_zero() {
        let s = ServerEngine::new(cfg());
        let v = s.current(ObjectId::from_letter('X'));
        assert_eq!(v.value, Value::INITIAL);
        assert_eq!(v.alpha_t, Time::ZERO);
    }

    #[test]
    fn ephemeral_acks_ship_inline() {
        let mut s = ServerEngine::new(ProtocolConfig::of(ProtocolKind::sc()));
        let out = drive(&mut s, write_req(7));
        assert_eq!(sent(&out).len(), 1, "ack ships with the write");
        assert!(matches!(sent(&out)[0], Msg::WriteAck { .. }));
    }

    #[test]
    fn group_commit_defers_acks_until_the_group_fills() {
        let fsync = FsyncPolicy {
            max_pending: 2,
            max_delay: Delta::from_ticks(1_000),
        };
        let mut s = ServerEngine::with_store(
            durable_cfg(ProtocolKind::sc(), fsync),
            Box::new(TailStore::default()),
        );
        let out1 = drive(&mut s, write_req(7));
        assert!(sent(&out1).is_empty(), "first ack waits for the group");
        assert!(
            out1.iter()
                .any(|e| matches!(e, Effect::SetTimer { token, .. } if *token == TIMER_WAL_FLUSH)),
            "deadline timer armed when the tail goes non-empty"
        );
        let out2 = drive(&mut s, write_req(8));
        let acks = sent(&out2);
        assert_eq!(acks.len(), 2, "the filling write releases both acks");
        assert!(matches!(
            acks[0],
            Msg::WriteAck { epoch: 7, .. } // FIFO: oldest deferred ack first
        ));
        assert!(out2
            .iter()
            .any(|e| matches!(e, Effect::Metric { name, .. } if *name == names::WAL_FSYNC)));
    }

    #[test]
    fn wal_deadline_timer_releases_deferred_acks() {
        let fsync = FsyncPolicy {
            max_pending: 8,
            max_delay: Delta::from_ticks(25),
        };
        let mut s = ServerEngine::with_store(
            durable_cfg(ProtocolKind::sc(), fsync),
            Box::new(TailStore::default()),
        );
        let out = drive(&mut s, write_req(7));
        assert!(sent(&out).is_empty());
        let fired = drive(
            &mut s,
            Event::Timer {
                token: TIMER_WAL_FLUSH,
            },
        );
        assert_eq!(sent(&fired).len(), 1);
        // A stale deadline firing with nothing pending is a no-op.
        let stale = drive(
            &mut s,
            Event::Timer {
                token: TIMER_WAL_FLUSH,
            },
        );
        assert!(
            stale.iter().all(|e| matches!(e, Effect::Metric { .. })) && sent(&stale).is_empty()
        );
    }

    #[test]
    fn reads_never_see_unsynced_writes() {
        let fsync = FsyncPolicy {
            max_pending: 8,
            max_delay: Delta::from_ticks(1_000),
        };
        let mut s = ServerEngine::with_store(
            durable_cfg(ProtocolKind::sc(), fsync),
            Box::new(TailStore::default()),
        );
        drive(&mut s, write_req(7));
        let out = drive(
            &mut s,
            Event::Message {
                from: NodeId::new(2),
                msg: Msg::FetchReq {
                    object: ObjectId::from_letter('X'),
                    epoch: 1,
                },
            },
        );
        match sent(&out)[0] {
            Msg::FetchRep { version, .. } => {
                assert_eq!(version.value, Value::INITIAL, "unsynced write invisible")
            }
            other => panic!("expected FetchRep, got {other:?}"),
        }
    }

    #[test]
    fn restart_drops_the_unsynced_tail_and_its_acks() {
        let fsync = FsyncPolicy {
            max_pending: 8,
            max_delay: Delta::from_ticks(1_000),
        };
        let mut s = ServerEngine::with_store(
            durable_cfg(ProtocolKind::sc(), fsync),
            Box::new(TailStore::default()),
        );
        drive(&mut s, write_req(7));
        let out = drive(&mut s, Event::Restart);
        assert!(sent(&out).is_empty(), "deferred acks die with the tail");
        assert!(out.iter().any(
            |e| matches!(e, Effect::Metric { name, add } if *name == names::WAL_LOST && *add == 1)
        ));
        // The dropped write is re-appendable: its dedup entry was unsynced
        // too, so the client's retransmit applies cleanly.
        let retry = drive(&mut s, write_req(7));
        assert!(
            sent(&retry).is_empty(),
            "retransmit re-appends and defers again"
        );
        assert_eq!(s.store.pending(), 1);
    }

    #[test]
    fn messages_before_now_panic() {
        let result = std::panic::catch_unwind(|| {
            let mut s = ServerEngine::new(cfg());
            let mut out = Vec::new();
            s.handle(
                Event::Message {
                    from: NodeId::new(1),
                    msg: Msg::FetchReq {
                        object: ObjectId::from_letter('X'),
                        epoch: 1,
                    },
                },
                &mut out,
            );
        });
        assert!(result.is_err(), "lifecycle before Now must panic");
    }

    #[test]
    fn causal_dup_is_acked_without_reapply() {
        let mut s = ServerEngine::new(cfg());
        drive_at(&mut s, 100, causal_write(1));
        assert_eq!(s.writes_applied(), 1);
        let out = drive_at(&mut s, 101, causal_write(1));
        assert_eq!(s.writes_applied(), 1, "duplicate not re-applied");
        assert!(sent(&out).is_empty(), "its ack is owed, not sent");
        let out = drive_at(&mut s, 100 + wait(), ack_due());
        assert_eq!(sent(&out), [&Msg::WriteAckCausal { upto: 1 }]);
    }

    /// A causal write's ack is owed, not sent: the site's next reply
    /// carries it, and the deadline it armed then finds nothing to send.
    #[test]
    fn an_owed_ack_rides_on_the_next_reply() {
        let mut s = ServerEngine::new(cfg());
        let out = drive_at(&mut s, 100, causal_write(1));
        assert!(sent(&out).is_empty());
        assert!(out.contains(&Effect::SetTimer {
            after: s.ack_wait(),
            token: ack_token(NodeId::new(1)),
        }));
        assert!(s.timer_is_live(ack_token(NodeId::new(1))));
        // Far later than a closed-loop site's next request, but inside
        // the wait: it still rides.
        let out = drive_at(&mut s, 140, fetch());
        assert_eq!(acks(&out), [Some(1)]);
        assert_eq!(counted(&out, names::SERVER_ACK_PIGGYBACKED), 1);
        // Dead: a driver may drop it, and stepping it anyway does nothing.
        assert!(!s.timer_is_live(ack_token(NodeId::new(1))));
        assert!(drive_at(&mut s, 100 + wait(), ack_due()).is_empty());
        // Paid: the next reply carries nothing.
        assert_eq!(acks(&drive_at(&mut s, 101 + wait(), fetch())), [None]);
    }

    /// A token outside every shard range (below the ack range, or in the
    /// clients' resend range) decodes to no timer: it is dead, stepping it
    /// sends nothing and leaves the owed ack owed.
    #[test]
    fn a_token_outside_every_shard_range_does_nothing() {
        let mut s = ServerEngine::new(cfg());
        drive_at(&mut s, 100, causal_write(1));
        for token in [0, 1, TIMER_ACK_BASE - 1, TIMER_RESEND + 5] {
            assert!(!s.timer_is_live(token));
            assert!(drive_at(&mut s, 101, Event::Timer { token }).is_empty());
        }
        assert!(s.timer_is_live(ack_token(NodeId::new(1))));
    }

    /// No reply within the wait: the ack leaves on its own, cumulative
    /// over every write owed since, at the first one's deadline.
    #[test]
    fn an_owed_ack_goes_standalone_at_its_deadline() {
        let mut s = ServerEngine::new(cfg());
        drive_at(&mut s, 100, causal_write(1));
        let out = drive_at(&mut s, 102, causal_write(2));
        assert!(
            !out.iter().any(|e| matches!(e, Effect::SetTimer { .. })),
            "a second owed write keeps the first one's deadline"
        );
        assert!(drive_at(&mut s, 99 + wait(), ack_due()).is_empty());
        let out = drive_at(&mut s, 100 + wait(), ack_due());
        assert_eq!(sent(&out), [&Msg::WriteAckCausal { upto: 2 }]);
        assert_eq!(counted(&out, names::SERVER_ACK_STANDALONE), 1);
        assert_eq!(acks(&drive_at(&mut s, 101 + wait(), fetch())), [None]);
    }

    /// The wait is half the writer's resend interval, whatever the
    /// configuration says that is, so the ack beats the resend; a writer
    /// that never resends lets its acks wait for a reply or a flag.
    #[test]
    fn the_ack_wait_is_half_the_writers_resend_interval() {
        assert_eq!(ServerEngine::new(cfg()).ack_wait(), Delta::from_ticks(250));
        let mut quick = cfg();
        quick.retry_after = Delta::from_ticks(120);
        let mut s = ServerEngine::new(quick);
        assert_eq!(s.ack_wait(), Delta::from_ticks(60));
        drive_at(&mut s, 100, causal_write(1));
        assert!(drive_at(&mut s, 159, ack_due()).is_empty());
        assert_eq!(
            sent(&drive_at(&mut s, 160, ack_due())),
            [&Msg::WriteAckCausal { upto: 1 }]
        );
        let mut never = cfg();
        never.retry_after = Delta::INFINITE;
        assert!(ServerEngine::new(never).ack_wait().is_infinite());
    }

    /// A deadline armed for an ack a reply already carried fires while a
    /// younger ack is owed: it sends nothing, and the younger ack leaves
    /// at its own deadline.
    #[test]
    fn a_deadline_outlived_by_its_ack_sends_nothing() {
        let mut s = ServerEngine::new(cfg());
        drive_at(&mut s, 100, causal_write(1));
        assert_eq!(acks(&drive_at(&mut s, 101, fetch())), [Some(1)]);
        drive_at(&mut s, 102, causal_write(2));
        assert!(drive_at(&mut s, 100 + wait(), ack_due()).is_empty());
        let out = drive_at(&mut s, 102 + wait(), ack_due());
        assert_eq!(sent(&out), [&Msg::WriteAckCausal { upto: 2 }]);
    }

    /// A write its writer waits on (`ack_now`: it drains next) is acked
    /// at once, and its ack covers whatever was owed before it.
    #[test]
    fn a_write_its_writer_waits_on_is_acked_at_once() {
        let mut s = ServerEngine::new(cfg());
        drive_at(&mut s, 100, causal_write(1));
        let mut last = causal_write(2);
        if let Event::Message {
            msg: Msg::WriteReqCausal { ack_now, .. },
            ..
        } = &mut last
        {
            *ack_now = true;
        }
        let out = drive_at(&mut s, 101, last);
        assert_eq!(sent(&out), [&Msg::WriteAckCausal { upto: 2 }]);
        assert_eq!(counted(&out, names::SERVER_ACK_STANDALONE), 1);
        assert!(
            !out.iter().any(|e| matches!(e, Effect::SetTimer { .. })),
            "it leaves in the step that applies the write, on no timer"
        );
        let out = drive_at(&mut s, 100 + wait(), ack_due());
        assert!(out.is_empty(), "nothing owed");
    }

    /// A write ahead of a gap is held: nothing is owed for it, the cursor
    /// does not move past the gap, and every message from the writer
    /// reports the gap. A write past the ahead bound is dropped and
    /// counted. Once the gap closes the held write applies too, and the
    /// ack covering both leaves at once.
    #[test]
    fn a_gapped_write_is_held_and_applied_once_the_gap_closes() {
        let gaps = |out: &[Effect]| -> Vec<u64> {
            let gap = |m: &&Msg| match m {
                Msg::Gap { upto } => Some(*upto),
                _ => None,
            };
            sent(out).iter().filter_map(gap).collect()
        };
        let mut s = ServerEngine::new(cfg());
        let out = drive_at(&mut s, 100, causal_write(2));
        assert_eq!(counted(&out, names::SERVER_WRITE_GAP), 1);
        assert!(!out.iter().any(|e| matches!(e, Effect::SetTimer { .. })));
        assert_eq!(gaps(&out), [0]);
        let out = drive_at(&mut s, 101, fetch());
        assert_eq!((acks(&out), gaps(&out)), (vec![None, None], vec![0]));
        assert_eq!(s.writes_applied(), 0);
        let out = drive_at(&mut s, 102, causal_write(3 + crate::channel::AHEAD));
        assert_eq!(counted(&out, names::AHEAD_DROPPED), 1);
        assert_eq!(gaps(&out), [0]);
        let out = drive_at(&mut s, 103, causal_write(1));
        assert_eq!((s.writes_applied(), s.store.causal_cursor(1)), (2, 2));
        assert_eq!((acks(&out), gaps(&out)), (vec![Some(2)], vec![]));
        assert_eq!(acks(&drive_at(&mut s, 104, fetch())), [None]);
    }

    /// Under group commit the owed cursor only ever covers the fsynced
    /// prefix: a reply leaving while writes are unsynced carries nothing
    /// for them, the sync owes the synced cursor, and a crash before the
    /// next sync loses no ack it sent.
    #[test]
    fn under_group_commit_a_reply_never_acks_past_the_synced_prefix() {
        let fsync = FsyncPolicy {
            max_pending: 8,
            max_delay: Delta::from_ticks(20),
        };
        let mut s = ServerEngine::with_store(
            durable_cfg(ProtocolKind::cc(), fsync),
            Box::new(TailStore::default()),
        );
        drive_at(&mut s, 100, causal_write(1));
        drive_at(&mut s, 101, causal_write(2));
        assert_eq!(acks(&drive_at(&mut s, 102, fetch())), [None], "unsynced");
        let synced = drive_at(
            &mut s,
            120,
            Event::Timer {
                token: TIMER_WAL_FLUSH,
            },
        );
        assert!(sent(&synced).is_empty(), "the sync owes, it does not send");
        drive_at(&mut s, 121, causal_write(3));
        assert_eq!(
            acks(&drive_at(&mut s, 122, fetch())),
            [Some(2)],
            "the synced prefix, not write 3"
        );
        drive_at(&mut s, 123, Event::Restart);
        assert!(drive_at(&mut s, 125, ack_due()).is_empty());
        assert_eq!(s.store.causal_cursor(1), 2, "write 3 died unacked");
    }

    /// A client draining with writes unacked asks for its acks with an
    /// epoch-0 validation. Write 1 is still unsynced, so the answer
    /// carries nothing, but its ack is no longer owed at the sync: it
    /// leaves as soon as the fsync lands.
    #[test]
    fn an_epoch_0_validation_hastens_the_acks_its_client_waits_on() {
        let fsync = FsyncPolicy {
            max_pending: 8,
            max_delay: Delta::from_ticks(20),
        };
        let mut s = ServerEngine::with_store(
            durable_cfg(ProtocolKind::cc(), fsync),
            Box::new(TailStore::default()),
        );
        drive_at(&mut s, 100, causal_write(1));
        let ask = Event::Message {
            from: NodeId::new(1),
            msg: Msg::ValidateReq {
                object: ObjectId::from_letter('X'),
                value: Value::new(11),
                epoch: 0,
            },
        };
        assert_eq!(acks(&drive_at(&mut s, 101, ask)), [None], "unsynced");
        let flush = Event::Timer {
            token: TIMER_WAL_FLUSH,
        };
        let synced = drive_at(&mut s, 120, flush);
        assert_eq!(sent(&synced), [&Msg::WriteAckCausal { upto: 1 }]);
    }
}
