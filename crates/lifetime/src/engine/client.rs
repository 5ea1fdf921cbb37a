//! The client-side §5 lifetime state machine, sans-io.
//!
//! All of a client site's protocol logic lives here, expressed over
//! [`Event`]s and [`Effect`]s. The module-level docs of
//! [`crate::engine`] state the determinism contract.

use std::collections::VecDeque;

use tc_clocks::{ClockOrdering, Delta, SiteClock, SumXi, Time, Timestamp, VectorClock, XiMap};
use tc_core::{FxHashMap, ObjectId, SiteId, Value};
use tc_sim::metrics::names;
use tc_sim::workload::{OpChoice, Workload};
use tc_sim::NodeId;

use crate::cache::{Cache, CacheEntry};
use crate::channel::SendWindow;
use crate::engine::{Effect, Event, Inputs, Now, RecordOp, ShardMap, TIMER_NEXT_OP, TIMER_RESEND};
use crate::msg::{Msg, ValidateOutcome, WireVersion};
use crate::{ProtocolConfig, ProtocolKind};

enum Pending {
    Read { object: ObjectId },
    Write { object: ObjectId, value: Value },
}

/// A causal write on its way to its owning shard: queued behind the
/// cross-shard barrier in `deferred`, then in the shard's send window
/// until the shard acks it.
#[derive(Clone, Debug)]
struct CausalWrite {
    object: ObjectId,
    value: Value,
    alpha_v: VectorClock,
    issued_at: Time,
    /// The owning shard (index into `servers`).
    shard: usize,
    /// The client will wait on this write's ack, so it asks for it at
    /// once ([`Msg::WriteReqCausal`]'s `ack_now`).
    ack_now: bool,
}

impl CausalWrite {
    /// The write as number `shard_seq` of this client's stream to its
    /// shard, asking for its ack at once if `ack_now`.
    fn wire(&self, shard_seq: u64, ack_now: bool) -> Msg {
        Msg::WriteReqCausal {
            object: self.object,
            value: self.value,
            alpha_v: self.alpha_v.clone(),
            issued_at: self.issued_at,
            shard_seq,
            ack_now,
        }
    }
}

/// The client engine: cache `C_i` with its `Context_i`, driven by a
/// synthetic workload, speaking the §5 lifetime protocol to the server.
///
/// The client is a closed loop: one outstanding operation at a time, a
/// think-time pause between operations. Reads prefer the cache; the
/// protocol rules decide when a cached version may still be used. Writes
/// are synchronous (server-ordered) in the physical family — the cost of
/// SC the paper alludes to — and asynchronous in the causal family.
///
/// # Crash durability
///
/// Under crash–restart ([`Event::Restart`]) the client models a process
/// with a small write-ahead log: the cache and the physical context are
/// *volatile* (cache loss is the point of the fault), while everything
/// whose loss would silently corrupt the protocol is *durable*:
///
/// * `context_v` — reusing vector-clock stamps after a restart would forge
///   causality;
/// * `pending` / `outstanding` / `req_epoch` — a physical write the server
///   may already have applied must be re-driven to completion, or other
///   sites could read a value whose write was never recorded;
/// * `windows` / `deferred` — causal writes are recorded at issue time,
///   so they must eventually reach their owning shard, in per-shard
///   sequence order;
/// * `ops_done` and the workload position.
pub struct ClientEngine {
    config: ProtocolConfig,
    /// The server fleet, one node per shard ([`ShardMap`] indexes into
    /// this). One entry reproduces the single-server protocol exactly.
    servers: Vec<NodeId>,
    shard_map: ShardMap,
    site: usize,
    workload: Workload,
    ops_target: usize,
    ops_done: usize,
    cache: Cache,
    context_t: Time,
    context_v: VectorClock,
    pending: Option<Pending>,
    outstanding: Option<Msg>,
    req_epoch: u64,
    planned: Option<(OpChoice, ObjectId)>,
    /// Causal writes issued but held back by the cross-shard write barrier
    /// (durable, FIFO): the head ships only once every unacked write
    /// targets the same shard, so a shard never applies a write whose
    /// causal dependencies are still in flight to a different shard.
    deferred: VecDeque<CausalWrite>,
    /// Per shard, this client's causal write stream to it: the writes
    /// shipped and not yet covered by the shard's cumulative ack
    /// ([`Msg::acked`]), each resent `retry_after` after its own last send,
    /// or sooner once the shard reports it missing ([`Msg::Gap`]), until
    /// then ([`crate::channel`]). Durable; its sequence numbers are the
    /// writes' `shard_seq`.
    windows: Vec<SendWindow<CausalWrite>>,
    /// This site's newest causal write per object, kept past the ack
    /// (durable, like `windows`). A server reply can be generated before
    /// our write applied yet delivered after its ack — `windows` alone
    /// cannot see that race, but installing such a reply would make the
    /// site read a value older than its own write. `install` arbitrates
    /// every fetched version against this map.
    own_writes: FxHashMap<ObjectId, (Value, VectorClock, Time)>,
    /// Per object, whether the last check of a held version found it
    /// changed: a [`ValidateOutcome::Newer`], or a fetch that returned
    /// another value than the one held. Absent reads as unchanged. It
    /// picks the request that checks an old entry ([`Self::refetches`]);
    /// a causal-family site keeps none ([`Self::note_check`]).
    changed: FxHashMap<ObjectId, bool>,
    /// The latest driver-injected clock sample.
    now: Option<Now>,
    /// Adaptive control plane: the Δ commanded by the last applied
    /// [`Msg::DeltaUpdate`], overriding the configured threshold in the
    /// timed freshness rules. `None` until a command arrives (the static
    /// configuration stays byte-identical without a controller).
    delta_override: Option<Delta>,
    /// Sequence number of the last applied Δ command (reorder guard).
    delta_seq: u64,
}

impl ClientEngine {
    /// Creates a client engine.
    ///
    /// `site` is this client's 0-based index among `n_clients` clients; it
    /// doubles as the trace site id and the vector-clock component.
    /// `servers` holds the driver-assigned address of every shard, in
    /// shard order; it must agree with `config.shards`.
    #[must_use]
    pub fn new(
        config: ProtocolConfig,
        servers: Vec<NodeId>,
        site: usize,
        n_clients: usize,
        workload: Workload,
        ops_target: usize,
    ) -> Self {
        assert_eq!(
            servers.len(),
            config.shards,
            "fleet addresses must match the configured shard count"
        );
        let windows = (0..servers.len())
            .map(|_| SendWindow::new(config.retry_after))
            .collect();
        let shard_map = ShardMap::new(servers.len());
        let cache = Cache::new(config.kind, workload.n_objects());
        ClientEngine {
            config,
            servers,
            shard_map,
            site,
            workload,
            ops_target,
            ops_done: 0,
            cache,
            context_t: Time::ZERO,
            context_v: VectorClock::new(site, n_clients),
            pending: None,
            outstanding: None,
            req_epoch: 0,
            planned: None,
            deferred: VecDeque::new(),
            windows,
            own_writes: FxHashMap::default(),
            changed: FxHashMap::default(),
            now: None,
            delta_override: None,
            delta_seq: 0,
        }
    }

    /// Whether the client stops issuing once `ops_done` operations have
    /// completed: its workload is over.
    fn drains_at(&self, ops_done: usize) -> bool {
        ops_done >= self.ops_target
    }

    /// The Δ the timed freshness rules currently enforce: the adaptive
    /// override when a [`Msg::DeltaUpdate`] has been applied, else the
    /// configured `configured`.
    fn effective_delta(&self, configured: Delta) -> Delta {
        self.delta_override.unwrap_or(configured)
    }

    /// Operations completed so far.
    #[must_use]
    pub fn ops_done(&self) -> usize {
        self.ops_done
    }

    /// Whether the engine has finished its workload.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.ops_done >= self.ops_target
    }

    /// Whether nothing is in flight: no pending operation, no outstanding
    /// request, and no unacked or barrier-deferred causal writes. A driver
    /// may tear the client down once `finished() && is_idle()`.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.pending.is_none()
            && self.outstanding.is_none()
            && self.deferred.is_empty()
            && self.windows.iter().all(SendWindow::is_empty)
    }

    /// Whether firing timer `token` now would do anything. A timer is
    /// *dead* when the state it was armed for is gone: a retry for a
    /// request that was answered (or superseded by a later epoch), a causal
    /// resend deadline no send window waits for ([`crate::channel`]), an
    /// op-issue timer with no operation planned. Handling a dead timer
    /// emits no effect and changes no state, so a driver may drop it without
    /// a step — most retry timers die this way, because the reply beats
    /// them.
    #[must_use]
    pub fn timer_is_live(&self, token: u64) -> bool {
        match token {
            TIMER_NEXT_OP => self.planned.is_some(),
            resend if resend >= TIMER_RESEND => self.windows.iter().any(|w| w.is_timer(resend)),
            epoch => epoch == self.req_epoch && self.outstanding.is_some(),
        }
    }

    /// Handles one event, appending the resulting effects to `out` (in
    /// order; the driver must execute them in order).
    ///
    /// # Panics
    ///
    /// Panics if a lifecycle event arrives before the first [`Event::Now`]
    /// — drivers own the clock and must inject it.
    pub fn handle(&mut self, event: Event, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        match event {
            Event::Now(now) => self.now = Some(now),
            Event::Start => self.plan_next(io, out),
            Event::Restart => self.on_restart(io, out),
            Event::Timer { token } => self.on_timer(token, io, out),
            Event::Message { from, msg } => self.on_message(from, msg, io, out),
        }
    }

    fn now(&self) -> Now {
        self.now
            .expect("driver must inject Event::Now before lifecycle events")
    }

    fn plan_next(&mut self, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        if self.finished() {
            self.ask_for_acks(out);
            return;
        }
        let (kind, obj_idx, think) = self.workload.next_op(io.rng());
        self.planned = Some((kind, ObjectId::new(obj_idx as u32)));
        out.push(Effect::SetTimer {
            after: think,
            token: TIMER_NEXT_OP,
        });
    }

    fn complete(&mut self, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        self.ops_done += 1;
        self.pending = None;
        self.outstanding = None;
        self.plan_next(io, out);
    }

    /// The shard node that owns `object`.
    fn shard_for(&self, object: ObjectId) -> NodeId {
        self.servers[self.shard_map.shard_of(object)]
    }

    /// The fleet destination of a request: the owning shard of its object.
    fn request_dest(&self, msg: &Msg) -> NodeId {
        match msg {
            Msg::FetchReq { object, .. }
            | Msg::ValidateReq { object, .. }
            | Msg::WriteReq { object, .. } => self.shard_for(*object),
            _ => unreachable!("only requests have a fleet destination"),
        }
    }

    fn send_request(&mut self, out: &mut Vec<Effect>, mut msg: Msg) {
        self.req_epoch += 1;
        match &mut msg {
            Msg::FetchReq { epoch, .. }
            | Msg::ValidateReq { epoch, .. }
            | Msg::WriteReq { epoch, .. } => *epoch = self.req_epoch,
            _ => unreachable!("only requests go through send_request"),
        }
        let to = self.request_dest(&msg);
        self.outstanding = Some(msg.clone());
        out.push(Effect::Send { to, msg });
        out.push(Effect::SetTimer {
            after: self.config.retry_after,
            token: self.req_epoch,
        });
    }

    /// Whether a reply's echoed epoch answers the current outstanding
    /// request. Anything else is a delayed or duplicated reply to a
    /// request this client has moved past — using it could complete a
    /// newer operation with stale data, so it is dropped.
    fn reply_is_current(&self, out: &mut Vec<Effect>, epoch: u64) -> bool {
        if self.outstanding.is_some() && epoch == self.req_epoch {
            true
        } else {
            out.push(Effect::metric(names::STALE_REPLY));
            false
        }
    }

    /// Applies the protocol's freshness rules before an access (§5.1 rule
    /// 3 and the sweeps), counting the entries they mark old.
    fn refresh(&mut self, out: &mut Vec<Effect>, t_loc: Time) {
        let marked_old = match self.config.kind {
            ProtocolKind::NoCache => return,
            ProtocolKind::Tsc { delta } => {
                // Rule 3: Context_i := max(t_i − Δ, Context_i), with Δ the
                // threshold currently in force (adaptive override aware).
                let delta = self.effective_delta(delta);
                self.context_t = self.context_t.max(t_loc.saturating_sub_delta(delta));
                self.cache.sweep_physical(self.context_t)
            }
            ProtocolKind::Tcc { delta } => {
                let delta = self.effective_delta(delta);
                self.cache.sweep_causal(&self.context_v, self.site)
                    + self.cache.sweep_beta(t_loc.saturating_sub_delta(delta))
            }
            ProtocolKind::TccLogical { xi_delta } => {
                let causal = self.cache.sweep_causal(&self.context_v, self.site);
                let xi_ctx = SumXi.xi(self.context_v.entries());
                causal + self.cache.sweep_xi(xi_ctx, xi_delta)
            }
        };
        out.push(Effect::Metric {
            name: names::MARK_OLD,
            add: marked_old as u64,
        });
    }

    fn start_read(&mut self, object: ObjectId, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        let t_loc = self.now().local;
        self.refresh(out, t_loc);
        if self.config.kind == ProtocolKind::NoCache {
            out.push(Effect::metric(names::FETCH));
            self.pending = Some(Pending::Read { object });
            self.send_request(out, Msg::FetchReq { object, epoch: 0 });
            return;
        }
        match self.cache.get(object) {
            Some(entry) if !entry.old => {
                out.push(Effect::metric(names::CACHE_HIT));
                let value = entry.value;
                self.record_read(out, object, value);
                self.complete(io, out);
            }
            Some(entry) => {
                // An old entry is checked with its shard, by whichever
                // request the last check of it says is cheaper.
                out.push(Effect::metric(names::VALIDATE));
                let msg = if self.refetches(object) {
                    Msg::FetchReq { object, epoch: 0 }
                } else {
                    Msg::ValidateReq {
                        object,
                        value: entry.value,
                        epoch: 0,
                    }
                };
                self.pending = Some(Pending::Read { object });
                self.send_request(out, msg);
            }
            None => {
                out.push(Effect::metric(names::CACHE_MISS));
                out.push(Effect::metric(names::FETCH));
                self.pending = Some(Pending::Read { object });
                self.send_request(out, Msg::FetchReq { object, epoch: 0 });
            }
        }
    }

    /// Whether an old entry of `object` is checked by a refetch rather
    /// than a validation (§5.2's if-modified-since). A `ValidateReq`
    /// carries the held value and pays off only when the shard answers
    /// `StillValid`; a `FetchReq` carries no value, and its reply carries
    /// the version either way. So a site refetches what the last check
    /// found changed.
    fn refetches(&self, object: ObjectId) -> bool {
        self.changed.get(&object) == Some(&true)
    }

    /// Records whether a check of a held `object` found it changed. A
    /// causal-family site records nothing, so it always validates: its
    /// versions carry a vector stamp, which a refetch of an unchanged
    /// object would pay for.
    fn note_check(&mut self, object: ObjectId, changed: bool) {
        if !self.config.kind.is_causal_family() {
            self.changed.insert(object, changed);
        }
    }

    /// Whether recorded operations carry `L(op)`, the vector stamp
    /// Definition 6's judge (`checker::check_on_time_xi`) reads: only
    /// under TCC-ξ, the one protocol it judges.
    fn stamps_ops(&self) -> bool {
        matches!(self.config.kind, ProtocolKind::TccLogical { .. })
    }

    fn start_write(&mut self, object: ObjectId, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        let value = io.next_value();
        let t_loc = self.now().local;
        if self.config.kind.is_causal_family() {
            // Rule 2 with vector clocks: tick, stamp, apply locally, ship
            // asynchronously.
            let alpha_v = self.context_v.tick();
            self.cache.insert(
                object,
                CacheEntry {
                    value,
                    alpha_t: t_loc,
                    omega_t: t_loc,
                    alpha_v: Some(alpha_v.clone()),
                    omega_v: Some(alpha_v.clone()),
                    beta: t_loc,
                    old: false,
                },
            );
            // Buffer until the owning shard acks: a dropped write would
            // otherwise leave a recorded write invisible forever, silently
            // violating the causal family's Δ bound. The write enters the
            // deferred queue first; the barrier ships it the moment no
            // other shard's write is unacked (immediately, with one
            // shard).
            let shard = self.shard_map.shard_of(object);
            // The client waits on this write's ack if it drains right
            // after it, when no later request would carry the ack home,
            // and wherever the cross-shard barrier may hold a later write
            // for it, that is with more than one shard. Otherwise the ack
            // rides on a reply, or goes alone well before the resend.
            let ack_now = self.servers.len() > 1 || self.drains_at(self.ops_done + 1);
            self.own_writes
                .insert(object, (value, alpha_v.clone(), t_loc));
            self.deferred.push_back(CausalWrite {
                object,
                value,
                alpha_v: alpha_v.clone(),
                issued_at: t_loc,
                shard,
                ack_now,
            });
            self.ship_deferred(out);
            if !self.deferred.is_empty() {
                out.push(Effect::metric(names::CAUSAL_DEFERRED));
            }
            let now = self.now().truth;
            out.push(Effect::Record(RecordOp::Write {
                site: SiteId::new(self.site),
                object,
                value,
                at: now,
                logical: self.stamps_ops().then_some(alpha_v),
            }));
            self.complete(io, out);
        } else {
            // Physical family: the owning shard linearizes the write; block
            // until the ack carries the assigned α (rule 2 then applies).
            self.pending = Some(Pending::Write { object, value });
            self.send_request(
                out,
                Msg::WriteReq {
                    object,
                    value,
                    epoch: 0,
                },
            );
        }
    }

    /// Ships deferred causal writes whose cross-shard barrier has cleared:
    /// the queue head may go to shard `S` only while every unacked write
    /// also targets `S`. Under that discipline a write reaches its shard
    /// only after all of this client's earlier writes to *other* shards
    /// were acked (applied there), which — inductively, since every
    /// version a client can depend on was read from a shard that had
    /// applied it — keeps each shard's store causally closed with no
    /// inter-shard protocol. With one shard the barrier never holds
    /// anything back. A shipped write enters its shard's send window,
    /// which resends it until acked.
    fn ship_deferred(&mut self, out: &mut Vec<Effect>) {
        let now = self.now().truth;
        while let Some(head) = self.deferred.front() {
            let shard = head.shard;
            let busy = |(s, w): (usize, &SendWindow<_>)| s != shard && !w.is_empty();
            if self.windows.iter().enumerate().any(busy) {
                break;
            }
            let w = self.deferred.pop_front().expect("checked non-empty");
            let window = &mut self.windows[shard];
            out.push(Effect::Send {
                to: self.servers[shard],
                msg: w.wire(window.next_seq(), w.ack_now),
            });
            window.push(w, now, out);
        }
    }

    /// The client's workload is over, so it waits on every unacked write. The newest write
    /// in a send window was flagged `ack_now` if the client drained right
    /// after it, and then its ack is on its way. Otherwise no request of
    /// this client will carry the shard's cursor home, so the client asks
    /// for it: it validates that write's object under epoch 0, which
    /// answers no operation, and the reply carries the owed ack a round
    /// trip later instead of half a resend interval.
    fn ask_for_acks(&self, out: &mut Vec<Effect>) {
        for (window, &to) in self.windows.iter().zip(&self.servers) {
            if let Some(w) = window.newest().filter(|w| !w.ack_now) {
                out.push(Effect::metric(names::CAUSAL_ACK_ASKED));
                out.push(Effect::Send {
                    to,
                    msg: Msg::ValidateReq {
                        object: w.object,
                        value: w.value,
                        epoch: 0,
                    },
                });
            }
        }
    }

    /// A resend deadline fired: each send window it belongs to resends
    /// its overdue writes (idempotent at the shard). A resent write asks
    /// for its ack at once: its writer has waited a whole resend interval
    /// for it, or been told it is missing.
    fn on_resend_timer(&mut self, token: u64, out: &mut Vec<Effect>) {
        let now = self.now().truth;
        for (window, &to) in self.windows.iter_mut().zip(&self.servers) {
            window.fire(token, now, out, |shard_seq, w, out| {
                out.push(Effect::metric(names::CAUSAL_RETRANSMIT));
                out.push(Effect::Send {
                    to,
                    msg: w.wire(shard_seq, true),
                });
            });
        }
    }

    fn record_read(&mut self, out: &mut Vec<Effect>, object: ObjectId, value: Value) {
        let logical = self.stamps_ops().then(|| self.context_v.clone());
        out.push(Effect::Record(RecordOp::Read {
            site: SiteId::new(self.site),
            object,
            value,
            at: self.now().truth,
            logical,
        }));
    }

    /// Installs a fetched/newer version into the cache and advances
    /// `Context_i` (rule 1). Returns the version's value.
    fn install(
        &mut self,
        out: &mut Vec<Effect>,
        object: ObjectId,
        version: &WireVersion,
        server_now: Time,
    ) -> Value {
        let t_loc = self.now().local;
        if self.config.kind == ProtocolKind::NoCache {
            return version.value;
        }
        if self.config.kind.is_causal_family() {
            if let Some(av) = version.alpha_v() {
                self.cache.join_context(&mut self.context_v, av);
            }
            // A reply must not clobber this site's own writes: a version
            // generated before our write applied at the server (loss, a
            // detour, a slow reply racing the ack) is *older* than what we
            // wrote, and installing it would make this site read a value
            // older than its own write. Resolve the fetched version
            // against our newest write to the object with *exactly* the
            // server's last-writer-wins arbitration (vector clocks, then
            // the (issue time, writer) tie-break), so the value we keep is
            // the one the store will converge to. If ours wins, either the
            // server already has it or its send window will land it,
            // and the discarded server version never becomes visible here,
            // keeping the recorded history causally consistent.
            let me = self.now().me.index();
            let ours = self
                .own_writes
                .get(&object)
                .filter(|(_, alpha_v, issued_at)| version.loses_to(alpha_v, *issued_at, me));
            let (value, alpha_t, alpha_v) = match ours {
                Some((value, alpha_v, issued_at)) => {
                    out.push(Effect::metric(names::OWN_WRITE_PRESERVED));
                    (*value, *issued_at, Some(alpha_v.clone()))
                }
                None => (version.value, version.alpha_t, version.alpha_v().cloned()),
            };
            // The server's version is its *current* copy, and everything in
            // Context_i has passed through the same server, so it is known
            // valid at the whole context — extend its lifetime accordingly
            // (otherwise fetching any page would immediately age every
            // concurrent cached page, the §4 Dow-Jones/CNN scenario's false
            // positive). Our own write, superseding it, gets the same.
            self.cache.insert(
                object,
                CacheEntry {
                    value,
                    alpha_t,
                    omega_t: server_now,
                    alpha_v,
                    omega_v: Some(self.context_v.clone()),
                    beta: t_loc,
                    old: false,
                },
            );
            value
        } else {
            self.context_t = self.context_t.max(version.alpha_t);
            self.cache.insert(
                object,
                CacheEntry {
                    value: version.value,
                    alpha_t: version.alpha_t,
                    omega_t: server_now.max(version.alpha_t),
                    alpha_v: None,
                    omega_v: None,
                    beta: t_loc,
                    old: false,
                },
            );
            version.value
        }
    }

    fn on_restart(&mut self, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        out.push(Effect::metric(names::CLIENT_RESTART));
        // Volatile state dies with the process: the cache (that is the
        // fault being modelled) and what its checks found, the physical
        // context floor (safe to lose — rule 3 re-raises it on the next
        // access, and the cache it guarded is empty anyway), and the
        // not-yet-issued planned op.
        self.cache = Cache::new(self.config.kind, self.workload.n_objects());
        self.changed.clear();
        self.context_t = Time::ZERO;
        self.planned = None;
        // Durable state drives recovery: finish the in-flight request if
        // one was logged, re-arm the send windows' timers, which died
        // with the process (an overdue write goes at once), let the
        // barrier ship anything it can, and resume the workload. The
        // server deduplicates replayed physical writes, so re-driving
        // `outstanding` is safe even if it was already applied.
        let now = self.now().truth;
        for window in &mut self.windows {
            window.rearm(now, out);
        }
        self.ship_deferred(out);
        if !self.retry_outstanding(out) {
            self.plan_next(io, out);
        }
    }

    /// Resends the outstanding request, if any, and re-arms its retry
    /// timer. Returns whether a request was outstanding.
    fn retry_outstanding(&self, out: &mut Vec<Effect>) -> bool {
        let Some(msg) = self.outstanding.clone() else {
            return false;
        };
        out.push(Effect::metric(names::RETRY));
        let to = self.request_dest(&msg);
        out.push(Effect::Send { to, msg });
        out.push(Effect::SetTimer {
            after: self.config.retry_after,
            token: self.req_epoch,
        });
        true
    }

    fn on_timer(&mut self, token: u64, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        if token == TIMER_NEXT_OP {
            if let Some((kind, object)) = self.planned.take() {
                match kind {
                    OpChoice::Read => self.start_read(object, io, out),
                    OpChoice::Write => self.start_write(object, io, out),
                }
            }
        } else if token >= TIMER_RESEND {
            self.on_resend_timer(token, out);
        } else if token == self.req_epoch {
            // Retry an unanswered request (lost message).
            self.retry_outstanding(out);
        }
    }

    /// Applies one push invalidation against the cache: marks the cached
    /// version old, unless it is at least as new.
    fn apply_invalidation(
        &mut self,
        object: ObjectId,
        alpha_t: Time,
        alpha_v: Option<&VectorClock>,
        out: &mut Vec<Effect>,
    ) {
        let mine_newer = match self.cache.get(object) {
            None => return,
            Some(entry) => {
                if self.config.kind.is_causal_family() {
                    match (&entry.alpha_v, alpha_v) {
                        (Some(mine), Some(theirs)) => matches!(
                            mine.compare(theirs),
                            ClockOrdering::After | ClockOrdering::Equal
                        ),
                        _ => false,
                    }
                } else {
                    entry.alpha_t >= alpha_t
                }
            }
        };
        if !mine_newer && self.cache.mark_old(object) {
            out.push(Effect::metric(names::MARK_OLD));
        }
    }

    /// Applies a cumulative ack from shard node `from`: every write to
    /// that shard with `shard_seq <= upto` is durable there. A late or
    /// duplicated ack with an older cursor acks nothing and changes
    /// nothing.
    fn on_causal_ack(&mut self, from: NodeId, upto: u64, out: &mut Vec<Effect>) {
        let shard = self
            .servers
            .iter()
            .position(|&s| s == from)
            .expect("a causal ack comes from a shard of the fleet");
        if !self.windows[shard].ack(upto) {
            return;
        }
        // An ack may clear the cross-shard barrier for queued writes.
        self.ship_deferred(out);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        // An ack is a fact about the shard's store, not an answer to the
        // request in flight, so it counts before the epoch filter: a late
        // or duplicated reply's cursor is as true as a current one's.
        if let Some(upto) = msg.acked() {
            self.on_causal_ack(from, upto, out);
        }
        match msg {
            Msg::FetchRep {
                object,
                version,
                server_now,
                epoch,
                ..
            } => {
                if !self.reply_is_current(out, epoch) {
                    return;
                }
                // A fetch of a held version checks it too.
                if let Some(held) = self.cache.get(object) {
                    self.note_check(object, held.value != version.value);
                }
                let value = self.install(out, object, &version, server_now);
                if matches!(self.pending, Some(Pending::Read { object: o }) if o == object) {
                    self.record_read(out, object, value);
                    self.complete(io, out);
                }
            }
            // The answer to `ask_for_acks`: its cursor was applied above.
            Msg::ValidateRep { epoch: 0, .. } => {}
            Msg::ValidateRep {
                object,
                outcome,
                server_now,
                epoch,
                ..
            } => {
                if !self.reply_is_current(out, epoch) {
                    return;
                }
                self.note_check(object, matches!(outcome, ValidateOutcome::Newer(_)));
                let value = match outcome {
                    ValidateOutcome::StillValid => {
                        let t_loc = self.now().local;
                        let context_v = &self.context_v;
                        let value = self.cache.revalidate(object, t_loc, server_now, context_v);
                        // The entry died with the cache in a restart: fall
                        // back to a fetch for the pending read.
                        if value.is_none()
                            && matches!(
                                self.pending,
                                Some(Pending::Read { object: o }) if o == object
                            )
                        {
                            out.push(Effect::metric(names::FETCH));
                            self.send_request(out, Msg::FetchReq { object, epoch: 0 });
                        }
                        value
                    }
                    ValidateOutcome::Newer(version) => {
                        Some(self.install(out, object, &version, server_now))
                    }
                };
                if let Some(value) = value {
                    if matches!(self.pending, Some(Pending::Read { object: o }) if o == object) {
                        self.record_read(out, object, value);
                        self.complete(io, out);
                    }
                }
            }
            Msg::WriteAck {
                object,
                alpha_t,
                epoch,
                ..
            } => {
                if !self.reply_is_current(out, epoch) {
                    return;
                }
                if let Some(Pending::Write { object: o, value }) = self.pending {
                    if o == object {
                        // Rule 2: Context_i := X^α := the (server-assigned)
                        // write time.
                        self.context_t = self.context_t.max(alpha_t);
                        if self.config.kind != ProtocolKind::NoCache {
                            let t_loc = self.now().local;
                            self.cache.insert(
                                object,
                                CacheEntry {
                                    value,
                                    alpha_t,
                                    omega_t: alpha_t,
                                    alpha_v: None,
                                    omega_v: None,
                                    beta: t_loc,
                                    old: false,
                                },
                            );
                        }
                        // Record the write at the server-assigned α — the
                        // moment it became the current version — not at
                        // ack receipt. Under faults the ack can arrive
                        // arbitrarily late (retransmits after an outage),
                        // and recording then would place the write after
                        // reads other sites already performed on it.
                        out.push(Effect::Record(RecordOp::Write {
                            site: SiteId::new(self.site),
                            object,
                            value,
                            at: alpha_t,
                            logical: None,
                        }));
                        self.complete(io, out);
                    }
                }
            }
            // Applied above, like every reply's ack.
            Msg::WriteAckCausal { .. } => {}
            Msg::Gap { upto } => {
                let now = self.now().truth;
                if let Some(shard) = self.servers.iter().position(|&s| s == from) {
                    self.windows[shard].gap(upto, now, out);
                }
            }
            Msg::InvalidatePush {
                object,
                alpha_t,
                alpha_v,
            } => {
                out.push(Effect::metric(names::PUSH_RECEIVED));
                self.apply_invalidation(object, alpha_t, alpha_v.as_ref(), out);
            }
            Msg::DeltaUpdate { seq, delta } => {
                // Controller commands are re-broadcast each tick; the
                // sequence number makes application idempotent and keeps a
                // reordered stale command from overriding a newer one.
                if seq < self.delta_seq {
                    return;
                }
                if seq > self.delta_seq {
                    out.push(Effect::metric(names::DELTA_APPLIED));
                }
                self.delta_seq = seq;
                self.delta_override = Some(delta);
            }
            Msg::FetchReq { .. }
            | Msg::ValidateReq { .. }
            | Msg::WriteReq { .. }
            | Msg::WriteReqCausal { .. } => {
                unreachable!("client received a server-bound message")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PrivateSources;
    use crate::msg::CausalStamp;

    const SHARD: NodeId = NodeId::new(0);
    const DELTA: Delta = Delta::from_ticks(10);
    const TSC: ProtocolKind = ProtocolKind::Tsc { delta: DELTA };

    /// The requests site 0 of two under `kind` sends for its reads of the
    /// one object of one shard, at 0, 20, 40, … The shard answers each a
    /// tick later with the next of `values` (written by site 1), so every
    /// version is old at the next read, which is a check.
    fn requests(kind: ProtocolKind, values: &[u64]) -> Vec<&'static str> {
        let think = (Delta::from_ticks(1), Delta::from_ticks(1));
        let workload = Workload::new(1, 0.0, 1.0, think);
        let config = ProtocolConfig::of(kind);
        let mut engine = ClientEngine::new(config, vec![SHARD], 0, 2, workload, 100);
        let mut sources = PrivateSources::new(1, 0, 2);
        let mut step = |t: u64, event| {
            let (me, at) = (NodeId::new(1), Time::from_ticks(t));
            let now = Now {
                me,
                local: at,
                truth: at,
            };
            let mut out = Vec::new();
            engine.handle(Event::Now(now), &mut sources, &mut out);
            engine.handle(event, &mut sources, &mut out);
            out
        };
        step(0, Event::Start);
        let mut sent = Vec::new();
        for (i, &value) in values.iter().enumerate() {
            let t = 20 * i as u64;
            let out = step(
                t,
                Event::Timer {
                    token: TIMER_NEXT_OP,
                },
            );
            let check = out.contains(&Effect::metric(names::VALIDATE));
            assert_eq!(
                check,
                i > 0,
                "read {i}: every read after the miss is a check"
            );
            let request = out.into_iter().find_map(|effect| match effect {
                Effect::Send { msg, .. } => Some(msg),
                _ => None,
            });
            let request = request.expect("a read goes to the shard");
            sent.push(request.tag());
            let version = WireVersion {
                value: Value::new(value),
                alpha_t: Time::from_ticks(t),
                causal: kind.is_causal_family().then(|| CausalStamp {
                    alpha_v: VectorClock::from_entries(1, vec![0, value]),
                    writer: 1,
                }),
            };
            let (server_now, acked) = (Time::from_ticks(t + 1), None);
            let msg = match request {
                Msg::FetchReq { object, epoch } => Msg::FetchRep {
                    object,
                    version,
                    server_now,
                    epoch,
                    acked,
                },
                Msg::ValidateReq {
                    object,
                    value,
                    epoch,
                } => Msg::ValidateRep {
                    object,
                    outcome: if value == version.value {
                        ValidateOutcome::StillValid
                    } else {
                        ValidateOutcome::Newer(version)
                    },
                    server_now,
                    epoch,
                    acked,
                },
                _ => unreachable!("a read sends a fetch or a validation"),
            };
            step(t + 1, Event::Message { from: SHARD, msg });
        }
        sent
    }

    #[test]
    fn a_fresh_entrys_first_check_is_a_validation() {
        assert_eq!(requests(TSC, &[1, 1]), ["fetch_req", "validate_req"]);
    }

    #[test]
    fn after_newer_the_next_check_is_a_refetch() {
        let sent = requests(TSC, &[1, 2, 2]);
        assert_eq!(sent, ["fetch_req", "validate_req", "fetch_req"]);
    }

    #[test]
    fn after_a_refetch_of_the_held_value_the_next_check_validates() {
        let sent = requests(TSC, &[1, 2, 2, 2]);
        assert_eq!(sent[2..], ["fetch_req", "validate_req"]);
    }

    #[test]
    fn a_causal_site_always_validates() {
        let sent = requests(ProtocolKind::Tcc { delta: DELTA }, &[1, 2, 3]);
        assert_eq!(sent, ["fetch_req", "validate_req", "validate_req"]);
    }
}
