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
//! shard this degenerates to the original single server. DESIGN.md §11
//! records how cross-shard causality stays sound (per-shard write
//! sequences plus the client-side write barrier).
//!
//! Durable state lives behind the [`ShardStore`] seam (see
//! [`crate::store`]): the engine holds only session state (known clients,
//! pending invalidation batches, deferred write acks) plus a boxed store.
//! Under [`DurabilityMode::Durable`] every write is appended as a
//! [`WalRecord`], reads are served from the store's *durable* image, and
//! write acks are deferred until the covering fsync — so a crash can only
//! lose writes whose clients are still retransmitting them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tc_clocks::Time;
use tc_core::ObjectId;
use tc_sim::metrics::names;
use tc_sim::NodeId;

use crate::engine::{Effect, Event, Now, TIMER_GEO_FLUSH_BASE, TIMER_GEO_RETX};
use crate::geo::{GeoShardConfig, EGRESS_BATCH, RETX_AFTER};
use crate::msg::{GeoWrite, InvalidateEntry, Msg, ValidateOutcome};
use crate::store::{MemStore, ShardStore, StoredVersion, WalRecord};
use crate::{Propagation, ProtocolConfig};

/// The timer token a shard arms to flush `client`'s pending invalidation
/// batch. The client's node index is the token; [`TIMER_WAL_FLUSH`] is the
/// one non-client token.
#[must_use]
pub(crate) fn flush_token(client: NodeId) -> u64 {
    client.index() as u64
}

/// The timer token a shard arms for a deadline-batched WAL fsync
/// ([`crate::FsyncPolicy::max_delay`]). Distinct from every
/// `flush_token`: client node indexes never reach `u64::MAX`. (Client
/// engines use the same numeric value for their own causal-flush timer,
/// but client and server token spaces never meet.)
pub const TIMER_WAL_FLUSH: u64 = u64::MAX;

/// The server (shard) engine.
///
/// # Crash durability
///
/// Under crash–restart ([`Event::Restart`]) the [`ShardStore`] recovers
/// whatever its backend made durable: everything for the in-memory
/// [`MemStore`] (which models an infinitely fast disk), everything up to
/// the last fsync for a WAL-backed store (which replays its log and drops
/// the unsynced tail — safe, because those writes were never acked).
/// `known_clients`, the pending invalidation batches and the deferred acks
/// are volatile session state: after a restart, push invalidations flow
/// only to clients that contact the shard again, and any coalesced but
/// unflushed batch is simply lost. That is safe for the timed guarantees
/// because pushes are an optimization; the Δ bound is enforced by the
/// client-side lifetime rules alone.
pub struct ServerEngine {
    config: ProtocolConfig,
    /// The durable state backend (versions, α stamps, dedup map, causal
    /// cursors).
    store: Box<dyn ShardStore>,
    /// Clients that have contacted us (push-invalidation targets). A client
    /// cannot cache anything without contacting the owning shard first, so
    /// this set always covers every cache holding this shard's data.
    known_clients: BTreeSet<NodeId>,
    /// Per-client invalidation batches not yet flushed (volatile, BTreeMap
    /// for deterministic flush order).
    pending: BTreeMap<NodeId, Vec<InvalidateEntry>>,
    /// Write acks awaiting durability of their records (volatile: a crash
    /// drops them together with the unsynced records they cover, and the
    /// clients retransmit). FIFO — drained in append order at each sync.
    deferred_acks: Vec<(NodeId, Msg)>,
    /// Total client requests served (fetch + validate + write), the
    /// per-shard load statistic the threaded runtime reports.
    requests_served: u64,
    /// Cross-region replication state, when this shard is part of a geo
    /// deployment ([`ServerEngine::with_geo`]); `None` keeps the
    /// single-region protocol byte-identical.
    geo: Option<GeoState>,
    /// Geo egress held back until the covering fsync: a write must not
    /// leave for other regions before it is durable here, or a remote
    /// reader could observe a value a local crash then un-happens —
    /// the same ack-after-durability argument as `deferred_acks`.
    deferred_geo: Vec<GeoWrite>,
    /// The latest driver-injected clock sample.
    now: Option<Now>,
}

/// One outgoing cross-region channel: an open batch plus the unacked
/// window, sequenced from 1 with cumulative acks (the relay discards
/// out-of-order batches, so retransmitting the whole window in order
/// always closes a gap).
struct GeoChannel {
    peer: NodeId,
    next_seq: u64,
    buf: Vec<GeoWrite>,
    unacked: VecDeque<(u64, Vec<GeoWrite>)>,
}

/// The deadline that flushes egress channel `i`'s open batch.
fn flush_deadline(i: usize) -> Effect {
    Effect::SetTimer {
        after: EGRESS_BATCH.max_delay,
        token: TIMER_GEO_FLUSH_BASE + i as u64,
    }
}

/// Engine-resident geo replication state. Deliberately *not* behind the
/// [`ShardStore`] seam: losing it on a crash only delays propagation
/// (clients retransmit unacked writes, channels retransmit unacked
/// batches), never forges it — see DESIGN.md §17 for the recovery story.
struct GeoState {
    config: GeoShardConfig,
    channels: Vec<GeoChannel>,
    retx_armed: bool,
}

impl GeoState {
    fn new(config: GeoShardConfig) -> Self {
        let channels = config
            .peer_relays
            .iter()
            .map(|&peer| GeoChannel {
                peer,
                next_seq: 1,
                buf: Vec::new(),
                unacked: VecDeque::new(),
            })
            .collect();
        GeoState {
            config,
            channels,
            retx_armed: false,
        }
    }

    /// Queues one freshly applied local write on every peer channel and
    /// notifies the local relay (its dependency watermarks must cover
    /// local writes, or remote writes depending on them would stall).
    fn egress(&mut self, w: &GeoWrite, out: &mut Vec<Effect>) {
        out.push(Effect::Metric {
            name: names::GEO_LOCAL_NOTIFY,
            add: 1,
        });
        out.push(Effect::Send {
            to: self.config.local_relay,
            msg: Msg::GeoLocalApply {
                writer: w.writer() as u32,
                k: w.k(),
            },
        });
        for i in 0..self.channels.len() {
            let ch = &mut self.channels[i];
            ch.buf.push(w.clone());
            let len = ch.buf.len();
            if len >= EGRESS_BATCH.max_entries {
                self.flush(i, out);
            } else if len == 1 {
                out.push(flush_deadline(i));
            }
        }
    }

    /// Re-arms what a crash killed: the engine-resident channels survive a
    /// restart, but the flush deadlines and the retransmit timer died with
    /// the process — without this an open batch would leave only once it
    /// fills, and a lost batch would never be retransmitted.
    fn rearm_after_restart(&mut self, out: &mut Vec<Effect>) {
        for (i, ch) in self.channels.iter().enumerate() {
            if !ch.buf.is_empty() {
                out.push(flush_deadline(i));
            }
        }
        self.retx_armed = self.channels.iter().any(|ch| !ch.unacked.is_empty());
        if self.retx_armed {
            out.push(Effect::SetTimer {
                after: RETX_AFTER,
                token: TIMER_GEO_RETX,
            });
        }
    }

    /// Seals and transmits channel `i`'s open batch (fullness or
    /// deadline — whichever came first; a stale deadline finds an empty
    /// buffer and is a no-op).
    fn flush(&mut self, i: usize, out: &mut Vec<Effect>) {
        let origin = self.config.region;
        let Some(ch) = self.channels.get_mut(i) else {
            return;
        };
        if ch.buf.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut ch.buf);
        let seq = ch.next_seq;
        ch.next_seq += 1;
        out.push(Effect::Metric {
            name: names::GEO_BATCH,
            add: 1,
        });
        out.push(Effect::Send {
            to: ch.peer,
            msg: Msg::GeoBatch {
                origin,
                seq,
                entries: entries.clone(),
            },
        });
        ch.unacked.push_back((seq, entries));
        if !self.retx_armed {
            self.retx_armed = true;
            out.push(Effect::SetTimer {
                after: RETX_AFTER,
                token: TIMER_GEO_RETX,
            });
        }
    }

    /// Retransmits every unacked batch on every channel, in order.
    fn retransmit(&mut self, out: &mut Vec<Effect>) {
        let origin = self.config.region;
        let mut any = false;
        for ch in &mut self.channels {
            for (seq, entries) in &ch.unacked {
                any = true;
                out.push(Effect::Metric {
                    name: names::GEO_BATCH_RETRANSMIT,
                    add: 1,
                });
                out.push(Effect::Send {
                    to: ch.peer,
                    msg: Msg::GeoBatch {
                        origin,
                        seq: *seq,
                        entries: entries.clone(),
                    },
                });
            }
        }
        if any {
            out.push(Effect::SetTimer {
                after: RETX_AFTER,
                token: TIMER_GEO_RETX,
            });
        } else {
            self.retx_armed = false;
        }
    }

    /// Prunes the unacked window of the channel to `from` up to the
    /// relay's cumulative ack.
    fn on_batch_ack(&mut self, from: NodeId, upto: u64) {
        if let Some(ch) = self.channels.iter_mut().find(|c| c.peer == from) {
            while matches!(ch.unacked.front(), Some((seq, _)) if *seq <= upto) {
                ch.unacked.pop_front();
            }
        }
    }
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
            pending: BTreeMap::new(),
            deferred_acks: Vec::new(),
            requests_served: 0,
            geo: None,
            deferred_geo: Vec::new(),
            now: None,
        }
    }

    /// The same engine as a member of a geo deployment: fresh causal
    /// applies egress to `geo.peer_relays` and remote writes arrive via
    /// the local relay's [`Msg::GeoApply`]. Geo replication is causal-
    /// family only (see [`crate::geo`]).
    #[must_use]
    pub fn with_geo(mut self, geo: GeoShardConfig) -> Self {
        assert!(
            self.config.kind.is_causal_family(),
            "geo replication composes regions causally; physical-family \
             levels would need a cross-region total order"
        );
        self.geo = Some(GeoState::new(geo));
        self
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

    /// Handles one event, appending the resulting effects to `out`.
    ///
    /// # Panics
    ///
    /// Panics if a message arrives before the first [`Event::Now`].
    pub fn handle(&mut self, event: Event, out: &mut Vec<Effect>) {
        match event {
            Event::Now(now) => self.now = Some(now),
            Event::Start => {}
            Event::Timer { token } => {
                if token == TIMER_WAL_FLUSH {
                    // Deadline-batched fsync; a timer raced past a
                    // fullness-triggered sync finds nothing pending.
                    self.sync_store(out);
                } else if token == TIMER_GEO_RETX {
                    if let Some(geo) = &mut self.geo {
                        geo.retransmit(out);
                    }
                } else if token >= TIMER_GEO_FLUSH_BASE {
                    let i = (token - TIMER_GEO_FLUSH_BASE) as usize;
                    if let Some(geo) = &mut self.geo {
                        geo.flush(i, out);
                    }
                } else {
                    // The other shard timers are batch-flush deadlines; a
                    // timer for an already-flushed (empty) batch is a no-op.
                    self.flush_batch(NodeId::new(token as usize), out);
                }
            }
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
                self.pending.clear();
                self.deferred_acks.clear();
                // Egress covering unsynced records dies with them: the
                // writes were never acked, so their writers retransmit
                // and the re-apply re-queues the egress. The channels'
                // open batches and unacked windows survive
                // (engine-resident, see `GeoState`); their timers do not.
                self.deferred_geo.clear();
                if let Some(geo) = &mut self.geo {
                    geo.rearm_after_restart(out);
                }
            }
            Event::Message { from, msg } => self.on_message(from, msg, out),
        }
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
        for (to, msg) in std::mem::take(&mut self.deferred_acks) {
            out.push(Effect::Send { to, msg });
        }
        // The sync also made the held-back geo egress safe to ship.
        for w in std::mem::take(&mut self.deferred_geo) {
            if let Some(geo) = &mut self.geo {
                geo.egress(&w, out);
            }
        }
    }

    /// Routes one freshly applied local write into geo egress: inline if
    /// already durable, held until the covering fsync otherwise.
    fn geo_after_apply(&mut self, w: GeoWrite, out: &mut Vec<Effect>) {
        if self.geo.is_none() {
            return;
        }
        if self.store.pending() == 0 {
            self.geo.as_mut().expect("checked above").egress(&w, out);
        } else {
            self.deferred_geo.push(w);
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

    /// Sends a write ack now if its record is durable, else holds it until
    /// the covering sync. (With the in-memory store `pending()` is always
    /// zero, so acks always ship inline — the historical behaviour.)
    fn ship_or_defer(&mut self, to: NodeId, msg: Msg, out: &mut Vec<Effect>) {
        if self.store.pending() == 0 {
            out.push(Effect::Send { to, msg });
        } else {
            self.deferred_acks.push((to, msg));
        }
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

    fn push_invalidations(
        &mut self,
        out: &mut Vec<Effect>,
        object: ObjectId,
        except: NodeId,
        stored: &StoredVersion,
    ) {
        if self.config.propagation != Propagation::PushInvalidate {
            return;
        }
        if !self.config.push_batch.is_enabled() {
            // Immediate mode: one standalone push per write per client —
            // byte-identical with the pre-batching protocol.
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
                            alpha_t: stored.alpha_t,
                            alpha_v: stored.alpha_v.clone(),
                        },
                    });
                }
            }
            return;
        }
        // Batched mode: append to each client's pending batch, flush on
        // fullness, otherwise arm the max_delay deadline when the batch
        // goes non-empty. A deadline firing after a fullness flush finds
        // either an empty batch (no-op) or a younger one (an early flush —
        // harmless: it only reduces coalescing, never delays an entry).
        let targets: Vec<NodeId> = self
            .known_clients
            .iter()
            .copied()
            .filter(|&c| c != except)
            .collect();
        for client in targets {
            out.push(Effect::Metric {
                name: names::PUSH,
                add: 1,
            });
            let batch = self.pending.entry(client).or_default();
            let was_empty = batch.is_empty();
            batch.push(InvalidateEntry {
                object,
                alpha_t: stored.alpha_t,
                alpha_v: stored.alpha_v.clone(),
            });
            if batch.len() >= self.config.push_batch.max_entries {
                self.flush_batch(client, out);
            } else if was_empty {
                out.push(Effect::SetTimer {
                    after: self.config.push_batch.max_delay,
                    token: flush_token(client),
                });
            }
        }
    }

    /// Flushes `client`'s pending invalidation batch, if any.
    fn flush_batch(&mut self, client: NodeId, out: &mut Vec<Effect>) {
        let Some(batch) = self.pending.get_mut(&client) else {
            return;
        };
        if batch.is_empty() {
            return;
        }
        let entries = std::mem::take(batch);
        out.push(Effect::Metric {
            name: names::PUSH_BATCH,
            add: 1,
        });
        out.push(Effect::Send {
            to: client,
            msg: Msg::InvalidateBatch { entries },
        });
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, out: &mut Vec<Effect>) {
        // Geo traffic is server-to-server: relays must not become push-
        // invalidation targets or count as served client requests.
        if msg.is_geo() {
            self.on_geo_message(from, msg, out);
            return;
        }
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
                let version = self.current(object).wire();
                out.push(Effect::Send {
                    to: from,
                    msg: Msg::FetchRep {
                        object,
                        version,
                        server_now,
                        epoch,
                    },
                });
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
                let current = self.current(object);
                let outcome = if current.value == value {
                    ValidateOutcome::StillValid
                } else {
                    ValidateOutcome::Newer(current.wire())
                };
                out.push(Effect::Send {
                    to: from,
                    msg: Msg::ValidateRep {
                        object,
                        outcome,
                        server_now,
                        epoch,
                    },
                });
            }
            Msg::WriteReq {
                object,
                value,
                alpha_v,
                issued_at,
                epoch,
                shard_seq,
            } => {
                out.push(Effect::Metric {
                    name: names::SERVER_WRITE,
                    add: 1,
                });
                if let Some(alpha_v) = alpha_v {
                    // Causal family: the writer already stamped the version.
                    // Every causal dependency a client can acquire flows
                    // through the dependency's owning shard, and the
                    // client-side write barrier guarantees a write reaches
                    // this shard only after all its cross-shard
                    // dependencies were acked by theirs — so the fleet
                    // stays causally closed iff each client's writes to
                    // *this shard* apply in per-writer order. Enforce that
                    // with the delivery cursor over `shard_seq` before the
                    // LWW apply (which stays idempotent under duplicates:
                    // an Equal stamp never wins).
                    let seq = shard_seq;
                    let cursor = self.store.causal_cursor(from.index());
                    if seq > cursor + 1 {
                        // A causal gap: an earlier write of this client was
                        // lost or detoured. No ack — the client retransmits
                        // its unacked writes in order until the gap closes.
                        out.push(Effect::Metric {
                            name: names::SERVER_WRITE_GAP,
                            add: 1,
                        });
                        return;
                    }
                    if seq == cursor + 1 {
                        let record = WalRecord::Causal {
                            object,
                            writer: from.index(),
                            seq,
                            value,
                            alpha_t: issued_at,
                            alpha_v: alpha_v.clone(),
                        };
                        let won = self.append(&record, out);
                        // Geo egress regardless of the LWW outcome: remote
                        // cursors count this writer's per-shard stream, so
                        // skipping a losing write would open a permanent
                        // gap there (the remote LWW drops it identically).
                        self.geo_after_apply(
                            GeoWrite {
                                object,
                                value,
                                alpha_v: alpha_v.clone(),
                                issued_at,
                                shard_seq: seq,
                            },
                            out,
                        );
                        self.maybe_sync_after_append(out);
                        if won {
                            let snapshot = StoredVersion {
                                value,
                                alpha_t: issued_at,
                                alpha_v: Some(alpha_v),
                                tiebreak: (issued_at, from.index()),
                            };
                            self.push_invalidations(out, object, from, &snapshot);
                        }
                    } else {
                        out.push(Effect::Metric {
                            name: names::SERVER_WRITE_DUP,
                            add: 1,
                        });
                    }
                    self.ship_or_defer(from, Msg::WriteAckCausal { object, value }, out);
                    self.maybe_arm_wal_timer(out);
                } else {
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
                        self.ship_or_defer(
                            from,
                            Msg::WriteAck {
                                object,
                                alpha_t: alpha,
                                epoch,
                            },
                            out,
                        );
                        return;
                    }
                    let alpha = Time::from_ticks(
                        server_now.ticks().max(self.store.last_alpha().ticks() + 1),
                    );
                    let record = WalRecord::Physical {
                        object,
                        value,
                        alpha,
                        issued_at,
                        writer: from.index(),
                    };
                    self.append(&record, out);
                    self.maybe_sync_after_append(out);
                    self.ship_or_defer(
                        from,
                        Msg::WriteAck {
                            object,
                            alpha_t: alpha,
                            epoch,
                        },
                        out,
                    );
                    let snapshot = StoredVersion {
                        value,
                        alpha_t: alpha,
                        alpha_v: None,
                        tiebreak: (issued_at, from.index()),
                    };
                    self.push_invalidations(out, object, from, &snapshot);
                    self.maybe_arm_wal_timer(out);
                }
            }
            // Server never receives replies, pushes, or Δ commands; geo
            // frames were routed to `on_geo_message` above.
            Msg::FetchRep { .. }
            | Msg::ValidateRep { .. }
            | Msg::WriteAck { .. }
            | Msg::WriteAckCausal { .. }
            | Msg::InvalidatePush { .. }
            | Msg::InvalidateBatch { .. }
            | Msg::DeltaUpdate { .. }
            | Msg::GeoBatch { .. }
            | Msg::GeoBatchAck { .. }
            | Msg::GeoApply { .. }
            | Msg::GeoApplyAck { .. }
            | Msg::GeoLocalApply { .. }
            | Msg::GeoAttach { .. }
            | Msg::GeoAttachOk { .. } => {
                unreachable!("server received a client-bound message")
            }
        }
    }

    fn on_geo_message(&mut self, from: NodeId, msg: Msg, out: &mut Vec<Effect>) {
        match msg {
            Msg::GeoBatchAck { upto } => {
                if let Some(geo) = &mut self.geo {
                    geo.on_batch_ack(from, upto);
                }
            }
            Msg::GeoApply { entry } => self.on_geo_apply(from, entry, out),
            other => unreachable!(
                "shard received a relay-bound geo message: {:?}",
                other.tag()
            ),
        }
    }

    /// Applies one remote write forwarded by the local relay. Mirrors the
    /// causal [`Msg::WriteReq`] path — same cursor discipline, same WAL
    /// record, same LWW arbitration — keyed by the writer's *node* index
    /// so a migrated client's direct writes continue the same stream.
    fn on_geo_apply(&mut self, relay: NodeId, entry: GeoWrite, out: &mut Vec<Effect>) {
        let Some(geo) = &self.geo else {
            unreachable!("geo apply on a non-geo shard");
        };
        let writer_node = geo.config.client_base + entry.writer();
        let seq = entry.shard_seq;
        let cursor = self.store.causal_cursor(writer_node);
        if seq > cursor + 1 {
            // Cannot happen while the relay forwards one apply at a time
            // in dependency order, but a gap must never apply: no ack,
            // the relay's retransmit redelivers in order.
            out.push(Effect::Metric {
                name: names::SERVER_WRITE_GAP,
                add: 1,
            });
            return;
        }
        if seq == cursor + 1 {
            let record = WalRecord::Causal {
                object: entry.object,
                writer: writer_node,
                seq,
                value: entry.value,
                alpha_t: entry.issued_at,
                alpha_v: entry.alpha_v.clone(),
            };
            let won = self.append(&record, out);
            // No re-egress: every origin region sends to every peer
            // directly, so forwarding geo applies onward would loop.
            self.maybe_sync_after_append(out);
            out.push(Effect::Metric {
                name: names::GEO_APPLIED,
                add: 1,
            });
            if won {
                let snapshot = StoredVersion {
                    value: entry.value,
                    alpha_t: entry.issued_at,
                    alpha_v: Some(entry.alpha_v.clone()),
                    tiebreak: (entry.issued_at, writer_node),
                };
                self.push_invalidations(out, entry.object, NodeId::new(writer_node), &snapshot);
            }
        } else {
            out.push(Effect::Metric {
                name: names::GEO_APPLY_DUP,
                add: 1,
            });
        }
        // The ack rides the durability gate exactly like a client write
        // ack: the relay may release the next dependent apply only once
        // this one can no longer be un-happened by a crash.
        self.ship_or_defer(
            relay,
            Msg::GeoApplyAck {
                writer: entry.writer() as u32,
                k: entry.k(),
            },
            out,
        );
        self.maybe_arm_wal_timer(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Recovery, ShardImage};
    use crate::{DurabilityMode, FsyncPolicy, ProtocolKind, StalePolicy};
    use tc_clocks::{Delta, SiteClock, VectorClock};
    use tc_core::Value;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::of(ProtocolKind::Cc)
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
        let mut out = Vec::new();
        s.handle(
            Event::Now(Now {
                me: NodeId::new(0),
                local: Time::from_ticks(100),
                truth: Time::from_ticks(100),
            }),
            &mut out,
        );
        s.handle(event, &mut out);
        out
    }

    fn write_req(value: u64) -> Event {
        Event::Message {
            from: NodeId::new(1),
            msg: Msg::WriteReq {
                object: ObjectId::from_letter('X'),
                value: Value::new(value),
                alpha_v: None,
                issued_at: Time::from_ticks(50),
                epoch: value,
                shard_seq: 0,
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
    fn stale_policy_is_carried_in_config() {
        let mut c = cfg();
        c.stale = StalePolicy::Invalidate;
        let s = ServerEngine::new(c);
        assert_eq!(s.config.stale, StalePolicy::Invalidate);
    }

    #[test]
    fn ephemeral_acks_ship_inline() {
        let mut s = ServerEngine::new(ProtocolConfig::of(ProtocolKind::Sc));
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
            durable_cfg(ProtocolKind::Sc, fsync),
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
            durable_cfg(ProtocolKind::Sc, fsync),
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
            durable_cfg(ProtocolKind::Sc, fsync),
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
            durable_cfg(ProtocolKind::Sc, fsync),
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
        let mut clock = VectorClock::new(1, 2);
        let stamp = clock.tick();
        let req = |seq: u64| Event::Message {
            from: NodeId::new(1),
            msg: Msg::WriteReq {
                object: ObjectId::from_letter('X'),
                value: Value::new(9),
                alpha_v: Some(stamp.clone()),
                issued_at: Time::from_ticks(50),
                epoch: 1,
                shard_seq: seq,
            },
        };
        drive(&mut s, req(1));
        assert_eq!(s.writes_applied(), 1);
        let out = drive(&mut s, req(1));
        assert_eq!(s.writes_applied(), 1, "duplicate not re-applied");
        assert!(matches!(sent(&out)[0], Msg::WriteAckCausal { .. }));
    }

    /// A crash kills the geo egress timers but not the channels they
    /// serve: after a restart the open batch must get its flush deadline
    /// back and the unacked batch its retransmit timer, or the one leaves
    /// only once it fills and the other is never retransmitted.
    #[test]
    fn restart_rearms_the_geo_egress_timers() {
        let map = crate::geo::RegionMap::new(2, 1);
        let mut s = ServerEngine::new(cfg()).with_geo(map.shard_config(0));
        let mut clock = VectorClock::new(0, 1);
        let mut write = |seq: u64| Event::Message {
            from: NodeId::new(map.client_base()),
            msg: Msg::WriteReq {
                object: ObjectId::from_letter('X'),
                value: Value::new(seq),
                alpha_v: Some(clock.tick()),
                issued_at: Time::from_ticks(50),
                epoch: seq,
                shard_seq: seq,
            },
        };
        let arms = |effects: &[Effect], timer: u64| {
            effects
                .iter()
                .any(|e| matches!(e, Effect::SetTimer { token, .. } if *token == timer))
        };
        drive(&mut s, write(1));
        let flushed = drive(
            &mut s,
            Event::Timer {
                token: TIMER_GEO_FLUSH_BASE,
            },
        );
        assert!(
            arms(&flushed, TIMER_GEO_RETX),
            "the deadline shipped a batch"
        );
        drive(&mut s, write(2)); // opens the next batch
        let mut after = drive(&mut s, Event::Restart);
        after.extend(drive(&mut s, write(3)));
        assert!(
            arms(&after, TIMER_GEO_FLUSH_BASE),
            "the open batch must get its flush deadline back"
        );
        assert!(
            arms(&after, TIMER_GEO_RETX),
            "the unacked batch must get its retransmit timer back"
        );
    }
}
