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

use crate::cache::{Cache, CacheEntry, SweepOutcome};
use crate::engine::{
    Effect, Event, Inputs, Now, RecordOp, ShardMap, TIMER_FLUSH_CAUSAL, TIMER_GEO_ATTACH,
    TIMER_NEXT_OP,
};
use crate::geo::GeoMigrationPlan;
use crate::msg::{Msg, ValidateOutcome, WireVersion};
use crate::{ProtocolConfig, ProtocolKind, StalePolicy};

enum Pending {
    Read { object: ObjectId },
    Write { object: ObjectId, value: Value },
}

/// A causal write on its way to (or through) its owning shard: queued
/// behind the cross-shard barrier in `deferred`, then retransmitted from
/// `unacked` until the shard acks it.
#[derive(Clone, Debug)]
struct CausalWrite {
    object: ObjectId,
    value: Value,
    alpha_v: VectorClock,
    issued_at: Time,
    /// The owning shard (index into `servers`).
    shard: usize,
    /// Position in this client's per-shard write stream (starts at 1).
    shard_seq: u64,
    /// True time the write last left on its own account: shipped, or
    /// resent because it was overdue. It is overdue `retry_after` later.
    sent_at: Time,
}

impl CausalWrite {
    fn wire(&self) -> Msg {
        Msg::WriteReq {
            object: self.object,
            value: self.value,
            alpha_v: Some(self.alpha_v.clone()),
            issued_at: self.issued_at,
            epoch: 0,
            shard_seq: self.shard_seq,
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
/// * `unacked` / `deferred` / `causal_seq` — causal writes are recorded at
///   issue time, so they must eventually reach their owning shard, in
///   per-shard sequence order;
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
    /// Next `shard_seq` per shard (durable): `causal_seq[s]` is the number
    /// of causal writes this client has issued to shard `s`.
    causal_seq: Vec<u64>,
    /// Causal writes issued but held back by the cross-shard write barrier
    /// (durable, FIFO): the head ships only once every unacked write
    /// targets the same shard, so a shard never applies a write whose
    /// causal dependencies are still in flight to a different shard.
    deferred: VecDeque<CausalWrite>,
    /// Causal writes shipped but not yet acked, in shard-sequence order.
    /// Retransmitted, all of them in order, whenever one has gone
    /// `retry_after` unacked since its own last send, until
    /// [`Msg::WriteAckCausal`] clears them; the server's LWW application
    /// is idempotent, so retransmits are harmless.
    unacked: Vec<CausalWrite>,
    /// Generation of the one live causal flush timer, armed with token
    /// `TIMER_FLUSH_CAUSAL + flush_gen`. Bumped whenever a write ships
    /// into an empty `unacked` (and on restart), so a timer armed before
    /// the set last drained is dead.
    flush_gen: u64,
    /// This site's newest causal write per object, kept past the ack
    /// (durable, like `unacked`). A server reply can be generated before
    /// our write applied yet delivered after its ack — `unacked` alone
    /// cannot see that race, but installing such a reply would make the
    /// site read a value older than its own write. `install` arbitrates
    /// every fetched version against this map.
    own_writes: FxHashMap<ObjectId, (Value, VectorClock, Time)>,
    /// The latest driver-injected clock sample.
    now: Option<Now>,
    /// Adaptive control plane: the Δ commanded by the last applied
    /// [`Msg::DeltaUpdate`], overriding the configured threshold in the
    /// timed freshness rules. `None` until a command arrives (the static
    /// configuration stays byte-identical without a controller).
    delta_override: Option<Delta>,
    /// Sequence number of the last applied Δ command (reorder guard).
    delta_seq: u64,
    /// A scripted region migration ([`ClientEngine::with_migration`]):
    /// once due, the client drains its in-flight writes, attaches to the
    /// destination relay with its `Context_i`, and swaps `servers` on
    /// confirmation. `None` after the move completes.
    migration: Option<GeoMigrationPlan>,
    /// Whether a [`Msg::GeoAttach`] is outstanding (volatile: a restart
    /// re-sends it — the relay treats duplicates idempotently).
    attaching: bool,
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
        let causal_seq = vec![0; servers.len()];
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
            causal_seq,
            deferred: VecDeque::new(),
            unacked: Vec::new(),
            flush_gen: 0,
            own_writes: FxHashMap::default(),
            now: None,
            delta_override: None,
            delta_seq: 0,
            migration: None,
            attaching: false,
        }
    }

    /// The same engine with a scripted region migration: after
    /// `plan.at_op` completed operations the client stops issuing, drains
    /// every in-flight write, sends [`Msg::GeoAttach`] carrying its
    /// `Context_i` to `plan.relay`, and — once the destination region
    /// confirms it has applied everything the context covers — continues
    /// its workload against `plan.servers`, cache and context intact.
    /// Causal family only (migration is a geo feature, see [`crate::geo`]).
    #[must_use]
    pub fn with_migration(mut self, plan: GeoMigrationPlan) -> Self {
        assert!(
            self.config.kind.is_causal_family(),
            "region migration carries Context_i, a causal-family notion"
        );
        assert_eq!(
            plan.servers.len(),
            self.config.shards,
            "destination fleet must match the configured shard count"
        );
        self.migration = Some(plan);
        self
    }

    /// Whether the client has completed its scripted migration (i.e. a
    /// plan was installed and has since been consumed).
    #[must_use]
    pub fn migrated(&self) -> bool {
        self.migration.is_none() && !self.attaching
    }

    fn migration_due(&self) -> bool {
        self.migration
            .as_ref()
            .is_some_and(|m| self.ops_done >= m.at_op)
    }

    /// Advances the migration once due: wait for the drain (the barrier
    /// and retransmit machinery empties `unacked`/`deferred` on its own),
    /// then send the attach. Idempotent — callable from every point where
    /// in-flight work may have completed.
    fn maybe_attach(&mut self, out: &mut Vec<Effect>) {
        if self.attaching || !self.migration_due() || !self.is_idle() {
            return;
        }
        self.attaching = true;
        let plan = self.migration.as_ref().expect("due implies a plan");
        out.push(Effect::Send {
            to: plan.relay,
            msg: Msg::GeoAttach {
                site: self.site as u32,
                context_v: self.context_v.clone(),
            },
        });
        out.push(Effect::SetTimer {
            after: self.config.retry_after,
            token: TIMER_GEO_ATTACH,
        });
    }

    /// The Δ the timed freshness rules currently enforce: the adaptive
    /// override when a [`Msg::DeltaUpdate`] has been applied, else the
    /// configured `configured`.
    #[must_use]
    pub fn effective_delta(&self, configured: Delta) -> Delta {
        self.delta_override.unwrap_or(configured)
    }

    /// The adaptive Δ override currently applied, if any.
    #[must_use]
    pub fn delta_override(&self) -> Option<Delta> {
        self.delta_override
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
            && self.unacked.is_empty()
            && self.deferred.is_empty()
    }

    /// Whether firing timer `token` now would do anything. A timer is
    /// *dead* when the state it was armed for is gone: a retry for a
    /// request that was answered (or superseded by a later epoch), a causal
    /// flush of a superseded generation or with nothing unacked, an attach
    /// retransmit with no attach in flight, an op-issue timer with no
    /// operation planned. Handling a dead timer emits no effect and changes
    /// no state, so a driver may drop it without a step — most retry timers
    /// die this way, because the reply beats them.
    #[must_use]
    pub fn timer_is_live(&self, token: u64) -> bool {
        match token {
            TIMER_NEXT_OP => self.planned.is_some(),
            TIMER_GEO_ATTACH => self.attaching,
            flush if flush == self.flush_token() => !self.unacked.is_empty(),
            epoch => epoch == self.req_epoch && self.outstanding.is_some(),
        }
    }

    /// The token of the live causal flush timer. Tokens of superseded
    /// generations sit below it, far above any request epoch, so they
    /// match nothing.
    fn flush_token(&self) -> u64 {
        TIMER_FLUSH_CAUSAL + self.flush_gen
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
            Event::Message { msg, .. } => self.on_message(msg, io, out),
        }
    }

    fn now(&self) -> Now {
        self.now
            .expect("driver must inject Event::Now before lifecycle events")
    }

    fn plan_next(&mut self, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        if self.finished() {
            return;
        }
        if self.migration_due() {
            // Drain instead of issuing: the workload resumes (from the
            // same position) once the attach confirms.
            self.maybe_attach(out);
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

    fn count_sweep(out: &mut Vec<Effect>, sweep: SweepOutcome) {
        out.push(Effect::Metric {
            name: names::INVALIDATE,
            add: sweep.invalidated as u64,
        });
        out.push(Effect::Metric {
            name: names::MARK_OLD,
            add: sweep.marked_old as u64,
        });
    }

    /// Applies the protocol's freshness rules before an access (§5.1 rule
    /// 3 and the sweeps).
    fn refresh(&mut self, out: &mut Vec<Effect>, t_loc: Time) {
        let policy = self.config.stale;
        match self.config.kind {
            ProtocolKind::NoCache => {}
            ProtocolKind::Sc => {
                let sweep = self.cache.sweep_physical(self.context_t, policy);
                Self::count_sweep(out, sweep);
            }
            ProtocolKind::Tsc { delta } => {
                // Rule 3: Context_i := max(t_i − Δ, Context_i), with Δ the
                // threshold currently in force (adaptive override aware).
                let delta = self.effective_delta(delta);
                self.context_t = self.context_t.max(t_loc.saturating_sub_delta(delta));
                let sweep = self.cache.sweep_physical(self.context_t, policy);
                Self::count_sweep(out, sweep);
            }
            ProtocolKind::Cc => {
                let sweep = self.cache.sweep_causal(&self.context_v, self.site, policy);
                Self::count_sweep(out, sweep);
            }
            ProtocolKind::Tcc { delta } => {
                let delta = self.effective_delta(delta);
                let sweep = self.cache.sweep_causal(&self.context_v, self.site, policy);
                Self::count_sweep(out, sweep);
                let sweep = self
                    .cache
                    .sweep_beta(t_loc.saturating_sub_delta(delta), policy);
                Self::count_sweep(out, sweep);
            }
            ProtocolKind::TccLogical { xi_delta } => {
                let sweep = self.cache.sweep_causal(&self.context_v, self.site, policy);
                Self::count_sweep(out, sweep);
                let xi_ctx = SumXi.xi(self.context_v.entries());
                let sweep = self.cache.sweep_xi(xi_ctx, xi_delta, policy);
                Self::count_sweep(out, sweep);
            }
        }
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
                // MarkOld policy: cheap revalidation instead of a refetch.
                out.push(Effect::metric(names::VALIDATE));
                let value = entry.value;
                self.pending = Some(Pending::Read { object });
                self.send_request(
                    out,
                    Msg::ValidateReq {
                        object,
                        value,
                        epoch: 0,
                    },
                );
            }
            None => {
                out.push(Effect::metric(names::CACHE_MISS));
                out.push(Effect::metric(names::FETCH));
                self.pending = Some(Pending::Read { object });
                self.send_request(out, Msg::FetchReq { object, epoch: 0 });
            }
        }
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
            // Buffer until the owning shard acks: a dropped WriteReq would
            // otherwise leave a recorded write invisible forever, silently
            // violating the causal family's Δ bound. The write enters the
            // deferred queue first; the barrier ships it the moment no
            // other shard's write is unacked (immediately, with one
            // shard).
            let shard = self.shard_map.shard_of(object);
            self.causal_seq[shard] += 1;
            self.own_writes
                .insert(object, (value, alpha_v.clone(), t_loc));
            self.deferred.push_back(CausalWrite {
                object,
                value,
                alpha_v: alpha_v.clone(),
                issued_at: t_loc,
                shard,
                shard_seq: self.causal_seq[shard],
                sent_at: Time::ZERO, // stamped when it ships
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
                logical: Some(alpha_v),
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
                    alpha_v: None,
                    issued_at: t_loc,
                    epoch: 0,
                    shard_seq: 0,
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
    /// anything back.
    ///
    /// A write shipping into an empty `unacked` starts a new flush
    /// generation and arms its timer for the write's deadline; later
    /// writes ride on that timer.
    fn ship_deferred(&mut self, out: &mut Vec<Effect>) {
        let now = self.now().truth;
        while let Some(head) = self.deferred.front() {
            if self.unacked.iter().any(|w| w.shard != head.shard) {
                break;
            }
            let mut w = self.deferred.pop_front().expect("checked non-empty");
            let was_idle = self.unacked.is_empty();
            out.push(Effect::Send {
                to: self.servers[w.shard],
                msg: w.wire(),
            });
            w.sent_at = now;
            self.unacked.push(w);
            if was_idle {
                self.flush_gen += 1;
                self.arm_flush(out, now);
            }
        }
    }

    /// Arms the live flush timer for the earliest deadline among the
    /// unacked writes.
    fn arm_flush(&self, out: &mut Vec<Effect>, now: Time) {
        out.push(Effect::SetTimer {
            after: self.next_deadline().saturating_since(now),
            token: self.flush_token(),
        });
    }

    fn next_deadline(&self) -> Time {
        let oldest = self.unacked.iter().map(|w| w.sent_at).min();
        let oldest = oldest.expect("a flush deadline needs an unacked write");
        oldest.saturating_add_delta(self.config.retry_after)
    }

    /// The live flush timer fired. Once some unacked write is overdue
    /// (`retry_after` past its own last send), every unacked write is
    /// resent; until then nothing is sent and the timer waits for the
    /// earliest deadline. A write acked in time is never resent.
    fn on_flush_timer(&mut self, out: &mut Vec<Effect>) {
        if self.unacked.is_empty() {
            return;
        }
        let now = self.now().truth;
        if self.next_deadline() <= now {
            self.resend_unacked(out, now);
        } else {
            self.arm_flush(out, now);
        }
    }

    /// Retransmits every unacked causal write in order (idempotent at the
    /// shard) and re-arms the live flush timer. Go-back-N: the shard drops
    /// a write beyond a gap in its stream unacked, so the younger writes
    /// behind a lost one must follow it again. Only an overdue write's
    /// deadline moves: a younger copy riding along can land behind a gap
    /// once more if the network reorders the burst, and it is then still
    /// resent `retry_after` after its own last send, not after the ride.
    fn resend_unacked(&mut self, out: &mut Vec<Effect>, now: Time) {
        let retry_after = self.config.retry_after;
        for w in &mut self.unacked {
            out.push(Effect::metric(names::CAUSAL_RETRANSMIT));
            out.push(Effect::Send {
                to: self.servers[w.shard],
                msg: w.wire(),
            });
            if w.sent_at.saturating_add_delta(retry_after) <= now {
                w.sent_at = now;
            }
        }
        self.arm_flush(out, now);
    }

    fn record_read(&mut self, out: &mut Vec<Effect>, object: ObjectId, value: Value) {
        let now = self.now().truth;
        if self.config.kind.is_causal_family() {
            // Causal runs carry L(op) so traces can also be judged by the
            // logical-clock Definition 6 (checker::check_on_time_xi).
            out.push(Effect::Record(RecordOp::Read {
                site: SiteId::new(self.site),
                object,
                value,
                at: now,
                logical: Some(self.context_v.clone()),
            }));
        } else {
            out.push(Effect::Record(RecordOp::Read {
                site: SiteId::new(self.site),
                object,
                value,
                at: now,
                logical: None,
            }));
        }
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
            if let Some(av) = &version.alpha_v {
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
            // server already has it or the retransmit loop will land it,
            // and the discarded server version never becomes visible here,
            // keeping the recorded history causally consistent.
            if let Some((value, alpha_v, issued_at)) = self.own_writes.get(&object) {
                let ours_wins = match version.alpha_v.as_ref() {
                    None => true,
                    Some(av) => match alpha_v.compare(av) {
                        ClockOrdering::After => true,
                        ClockOrdering::Before | ClockOrdering::Equal => false,
                        ClockOrdering::Concurrent => {
                            (*issued_at, self.now().me.index()) > version.tiebreak
                        }
                    },
                };
                if ours_wins {
                    let (value, issued_at, alpha_v) = (*value, *issued_at, alpha_v.clone());
                    out.push(Effect::metric(names::OWN_WRITE_PRESERVED));
                    let omega_v = self.context_v.clone();
                    self.cache.insert(
                        object,
                        CacheEntry {
                            value,
                            alpha_t: issued_at,
                            omega_t: server_now,
                            alpha_v: Some(alpha_v),
                            omega_v: Some(omega_v),
                            beta: t_loc,
                            old: false,
                        },
                    );
                    return value;
                }
            }
            // The version is the server's *current* copy, and everything in
            // Context_i has passed through the same server, so the version
            // is known valid at the whole context — extend its lifetime
            // accordingly (otherwise fetching any page would immediately
            // age every concurrent cached page, the §4 Dow-Jones/CNN
            // scenario's false positive).
            let omega_v = self.context_v.clone();
            self.cache.insert(
                object,
                CacheEntry {
                    value: version.value,
                    alpha_t: version.alpha_t,
                    omega_t: server_now,
                    alpha_v: version.alpha_v.clone(),
                    omega_v: Some(omega_v),
                    beta: t_loc,
                    old: false,
                },
            );
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
        }
        version.value
    }

    fn on_restart(&mut self, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        out.push(Effect::metric(names::CLIENT_RESTART));
        // Volatile state dies with the process: the cache (that is the
        // fault being modelled), the physical context floor (safe to lose —
        // rule 3 re-raises it on the next access, and the cache it guarded
        // is empty anyway), and the not-yet-issued planned op.
        self.cache = Cache::new(self.config.kind, self.workload.n_objects());
        self.context_t = Time::ZERO;
        self.planned = None;
        // An in-flight attach is volatile; the drain-then-attach path
        // re-runs it (plan_next below funnels into maybe_attach when the
        // migration is due).
        self.attaching = false;
        // Durable state drives recovery: finish the in-flight request if
        // one was logged, resend every unacked causal write under a fresh
        // flush generation (then let the barrier ship anything it can),
        // and resume the workload. The server deduplicates replayed
        // physical writes, so re-driving `outstanding` is safe even if it
        // was already applied.
        if !self.unacked.is_empty() {
            self.flush_gen += 1;
            self.resend_unacked(out, self.now().truth);
        }
        self.ship_deferred(out);
        if let Some(msg) = self.outstanding.clone() {
            out.push(Effect::metric(names::RETRY));
            let to = self.request_dest(&msg);
            out.push(Effect::Send { to, msg });
            out.push(Effect::SetTimer {
                after: self.config.retry_after,
                token: self.req_epoch,
            });
        } else {
            self.plan_next(io, out);
        }
    }

    fn on_timer(&mut self, token: u64, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        if token == TIMER_NEXT_OP {
            if let Some((kind, object)) = self.planned.take() {
                match kind {
                    OpChoice::Read => self.start_read(object, io, out),
                    OpChoice::Write => self.start_write(object, io, out),
                }
            }
        } else if token == self.flush_token() {
            self.on_flush_timer(out);
        } else if token == TIMER_GEO_ATTACH {
            // Retransmit an unanswered attach (the relay handles
            // duplicates idempotently).
            if self.attaching {
                let plan = self.migration.as_ref().expect("attaching implies a plan");
                out.push(Effect::metric(names::RETRY));
                out.push(Effect::Send {
                    to: plan.relay,
                    msg: Msg::GeoAttach {
                        site: self.site as u32,
                        context_v: self.context_v.clone(),
                    },
                });
                out.push(Effect::SetTimer {
                    after: self.config.retry_after,
                    token: TIMER_GEO_ATTACH,
                });
            }
        } else if token == self.req_epoch {
            // Retry an unanswered request (lost message).
            if let Some(msg) = self.outstanding.clone() {
                out.push(Effect::metric(names::RETRY));
                let to = self.request_dest(&msg);
                out.push(Effect::Send { to, msg });
                out.push(Effect::SetTimer {
                    after: self.config.retry_after,
                    token: self.req_epoch,
                });
            }
        }
    }

    /// Applies one (standalone or batched) push invalidation against the
    /// cache, unless the cached version is at least as new.
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
        if !mine_newer {
            match self.config.stale {
                StalePolicy::Invalidate => {
                    self.cache.remove(object);
                    out.push(Effect::metric(names::INVALIDATE));
                }
                StalePolicy::MarkOld => {
                    if self.cache.mark_old(object) {
                        out.push(Effect::metric(names::MARK_OLD));
                    }
                }
            }
        }
    }

    fn on_message(&mut self, msg: Msg, io: &mut impl Inputs, out: &mut Vec<Effect>) {
        match msg {
            Msg::FetchRep {
                object,
                version,
                server_now,
                epoch,
            } => {
                if !self.reply_is_current(out, epoch) {
                    return;
                }
                let value = self.install(out, object, &version, server_now);
                if matches!(self.pending, Some(Pending::Read { object: o }) if o == object) {
                    self.record_read(out, object, value);
                    self.complete(io, out);
                }
            }
            Msg::ValidateRep {
                object,
                outcome,
                server_now,
                epoch,
            } => {
                if !self.reply_is_current(out, epoch) {
                    return;
                }
                let value = match outcome {
                    ValidateOutcome::StillValid => {
                        let t_loc = self.now().local;
                        let context_v = &self.context_v;
                        let value = self.cache.revalidate(object, t_loc, server_now, context_v);
                        // The entry vanished (push race): fall back to a
                        // fetch for the pending read.
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
            Msg::WriteAckCausal { value, .. } => {
                self.unacked.retain(|w| w.value != value);
                // An ack may clear the cross-shard barrier for queued
                // writes.
                self.ship_deferred(out);
                // …or complete a migration drain.
                self.maybe_attach(out);
            }
            Msg::InvalidatePush {
                object,
                alpha_t,
                alpha_v,
            } => {
                out.push(Effect::metric(names::PUSH_RECEIVED));
                self.apply_invalidation(object, alpha_t, alpha_v.as_ref(), out);
            }
            Msg::InvalidateBatch { entries } => {
                for entry in entries {
                    out.push(Effect::metric(names::PUSH_RECEIVED));
                    self.apply_invalidation(
                        entry.object,
                        entry.alpha_t,
                        entry.alpha_v.as_ref(),
                        out,
                    );
                }
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
            Msg::GeoAttachOk { .. } => {
                if !self.attaching {
                    // A duplicate confirmation (relay re-answered a
                    // retransmitted attach we already acted on).
                    return;
                }
                self.attaching = false;
                let plan = self.migration.take().expect("attach implies a plan");
                self.servers = plan.servers;
                out.push(Effect::metric(names::GEO_MIGRATED));
                // Same cache, same Context_i, new region: the relay's
                // gate guarantees the destination fleet has applied
                // everything the context covers, so both carry over
                // unchanged. Resume the workload.
                self.plan_next(io, out);
            }
            Msg::FetchReq { .. }
            | Msg::ValidateReq { .. }
            | Msg::WriteReq { .. }
            | Msg::GeoBatch { .. }
            | Msg::GeoBatchAck { .. }
            | Msg::GeoApply { .. }
            | Msg::GeoApplyAck { .. }
            | Msg::GeoLocalApply { .. }
            | Msg::GeoAttach { .. } => {
                unreachable!("client received a server-bound message")
            }
        }
    }
}
