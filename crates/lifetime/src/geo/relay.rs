//! The per-region geo relay: ingress serializer for remote writes and
//! attach point for migrating clients.
//!
//! One relay per region. It ingests [`Msg::GeoBatch`] frames from remote
//! shards (per-sender cumulative-ack channels), buffers each remote write
//! until its causal dependencies are applied in this region, and forwards
//! **one** [`Msg::GeoApply`] at a time to the owning local shard, waiting
//! for the durability-gated [`Msg::GeoApplyAck`] before dispatching the
//! next. Forwarding one-at-a-time is what makes the region's ingest a
//! *serialization*: a dependent write can never overtake its dependency
//! into a different shard's store, mirroring the client-side cross-shard
//! write barrier (DESIGN.md §11 and §17).
//!
//! Local shards report their own applies via [`Msg::GeoLocalApply`], so
//! the relay's per-writer watermarks cover local and remote writes alike —
//! without it, a remote write depending on a *local* write of this region
//! would wait forever.
//!
//! The relay is sans-io like the other engines; it never reads a clock
//! (all its behaviour is message- and timer-driven).

use std::collections::BTreeMap;

use tc_clocks::VectorClock;
use tc_sim::metrics::names;
use tc_sim::NodeId;

use super::RETX_AFTER;
use crate::engine::{Effect, Event, ShardMap, TIMER_GEO_RETX};
use crate::msg::{GeoWrite, Msg};

/// The relay engine for one region. See the module docs for the protocol.
pub struct GeoRelayEngine {
    /// This region's shard fleet, in shard order (forwarding targets).
    local_shards: Vec<NodeId>,
    shard_map: ShardMap,
    /// Per-writer-site applied watermark: `applied[j] = k` means writes
    /// `1..=k` of site `j` are applied in this region (local and remote).
    applied: Vec<u64>,
    /// Per-sender batch channel cursor: highest contiguous batch sequence
    /// ingested from each remote shard.
    batch_cursor: BTreeMap<NodeId, u64>,
    /// Batches that arrived ahead of their channel cursor (the WAN is
    /// non-FIFO), buffered until the gap fills. Without this, a
    /// post-partition drain would cost one retransmit round per reordered
    /// batch; with it, one retransmit round delivers everything.
    ahead: BTreeMap<(NodeId, u64), Vec<GeoWrite>>,
    /// Remote writes awaiting dependencies, keyed `(writer, k)` — the
    /// BTreeMap order makes the dependency scan deterministic.
    pending: BTreeMap<(u32, u64), GeoWrite>,
    /// The one forwarded apply awaiting its shard ack.
    inflight: Option<(u32, u64, NodeId)>,
    /// Clients whose [`Msg::GeoAttach`] is gated on the watermarks.
    attaches: BTreeMap<NodeId, (u32, VectorClock)>,
    retx_armed: bool,
}

impl GeoRelayEngine {
    /// Creates a relay for a region with the given shard fleet, serving
    /// `n_sites` client sites (the vector-clock width). Its forwarded
    /// apply is retransmitted every [`RETX_AFTER`] until acked.
    #[must_use]
    pub fn new(local_shards: Vec<NodeId>, n_sites: usize) -> Self {
        let shard_map = ShardMap::new(local_shards.len());
        GeoRelayEngine {
            local_shards,
            shard_map,
            applied: vec![0; n_sites],
            batch_cursor: BTreeMap::new(),
            ahead: BTreeMap::new(),
            pending: BTreeMap::new(),
            inflight: None,
            attaches: BTreeMap::new(),
            retx_armed: false,
        }
    }

    /// The per-writer applied watermarks (test observability).
    #[must_use]
    pub fn applied(&self) -> &[u64] {
        &self.applied
    }

    /// Remote writes buffered behind unmet dependencies.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Handles one event, appending the resulting effects to `out`.
    pub fn handle(&mut self, event: Event, out: &mut Vec<Effect>) {
        match event {
            // The relay's protocol is purely message/timer-driven.
            Event::Now(_) | Event::Start => {}
            // Relay state is engine-resident: a driver Restart keeps it
            // (geo fault scenarios crash clients and partition links;
            // relay crash-recovery is future work, see DESIGN.md §17).
            Event::Restart => {}
            Event::Timer { token } => {
                if token == TIMER_GEO_RETX {
                    self.on_retx(out);
                }
            }
            Event::Message { from, msg } => self.on_message(from, msg, out),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, out: &mut Vec<Effect>) {
        match msg {
            Msg::GeoBatch { seq, entries, .. } => self.on_batch(from, seq, entries, out),
            Msg::GeoApplyAck { writer, k } => self.on_apply_ack(writer, k, out),
            Msg::GeoLocalApply { writer, k } => self.on_local_apply(writer, k, out),
            Msg::GeoAttach { site, context_v } => self.on_attach(from, site, context_v, out),
            other => unreachable!("relay received a non-relay message: {:?}", other.tag()),
        }
    }

    fn on_batch(&mut self, from: NodeId, seq: u64, entries: Vec<GeoWrite>, out: &mut Vec<Effect>) {
        let mut cursor = self.batch_cursor.get(&from).copied().unwrap_or(0);
        if seq <= cursor {
            // Duplicate: re-ack the cumulative cursor so the sender prunes.
            out.push(Effect::Metric {
                name: names::GEO_BATCH_DUP,
                add: 1,
            });
            out.push(Effect::Send {
                to: from,
                msg: Msg::GeoBatchAck { upto: cursor },
            });
            return;
        }
        // Buffer (idempotently — a retransmit carries identical entries),
        // then drain everything now contiguous. A gap-jumping batch waits
        // here until the sender's retransmission fills the hole.
        self.ahead.insert((from, seq), entries);
        while let Some(entries) = self.ahead.remove(&(from, cursor + 1)) {
            cursor += 1;
            for entry in entries {
                let site = entry.writer();
                // Already applied here (e.g. seen before a partition
                // dropped the ack): nothing to buffer.
                if entry.k() <= self.applied[site] {
                    continue;
                }
                self.pending
                    .entry((site as u32, entry.k()))
                    .or_insert(entry);
            }
        }
        self.batch_cursor.insert(from, cursor);
        out.push(Effect::Send {
            to: from,
            msg: Msg::GeoBatchAck { upto: cursor },
        });
        self.try_dispatch(out);
    }

    fn on_apply_ack(&mut self, writer: u32, k: u64, out: &mut Vec<Effect>) {
        let w = writer as usize;
        self.applied[w] = self.applied[w].max(k);
        if matches!(self.inflight, Some((iw, ik, _)) if iw == writer && ik == k) {
            self.inflight = None;
        }
        self.pending.remove(&(writer, k));
        self.prune();
        self.check_attaches(out);
        self.try_dispatch(out);
    }

    fn on_local_apply(&mut self, writer: u32, k: u64, out: &mut Vec<Effect>) {
        let w = writer as usize;
        self.applied[w] = self.applied[w].max(k);
        self.prune();
        self.check_attaches(out);
        self.try_dispatch(out);
    }

    fn on_attach(
        &mut self,
        from: NodeId,
        site: u32,
        context_v: VectorClock,
        out: &mut Vec<Effect>,
    ) {
        out.push(Effect::Metric {
            name: names::GEO_ATTACH,
            add: 1,
        });
        if self.covers(&context_v) {
            out.push(Effect::Send {
                to: from,
                msg: Msg::GeoAttachOk { site },
            });
        } else {
            out.push(Effect::Metric {
                name: names::GEO_ATTACH_WAITED,
                add: 1,
            });
            // Replace any earlier attach from the same client (a
            // retransmit carries the same context).
            self.attaches.insert(from, (site, context_v));
        }
    }

    /// Whether this region has applied everything `ctx` covers — the
    /// migration safety condition: once true, every version the client's
    /// `Context_i` can force is present here, so its carried cache stays
    /// causally consistent against this fleet.
    fn covers(&self, ctx: &VectorClock) -> bool {
        ctx.entries()
            .iter()
            .enumerate()
            .all(|(i, &dep)| self.applied.get(i).copied().unwrap_or(0) >= dep)
    }

    /// Drops pending entries the watermarks already dominate.
    fn prune(&mut self) {
        let applied = &self.applied;
        self.pending.retain(|(w, k), _| *k > applied[*w as usize]);
    }

    fn check_attaches(&mut self, out: &mut Vec<Effect>) {
        let ready: Vec<NodeId> = self
            .attaches
            .iter()
            .filter(|(_, (_, ctx))| self.covers(ctx))
            .map(|(&client, _)| client)
            .collect();
        for client in ready {
            let (site, _) = self.attaches.remove(&client).expect("collected above");
            out.push(Effect::Send {
                to: client,
                msg: Msg::GeoAttachOk { site },
            });
        }
    }

    /// Forwards the first ready pending write, if none is in flight. A
    /// write `(j, k)` is ready when it is the writer's next (`applied[j]
    /// == k − 1`) and every cross-writer dependency of its vector stamp
    /// is applied.
    fn try_dispatch(&mut self, out: &mut Vec<Effect>) {
        if self.inflight.is_some() {
            return;
        }
        let mut target = None;
        for ((writer, k), entry) in &self.pending {
            let w = *writer as usize;
            if self.applied[w] + 1 != *k {
                continue;
            }
            let deps_met = entry
                .alpha_v
                .entries()
                .iter()
                .enumerate()
                .all(|(i, &dep)| i == w || self.applied.get(i).copied().unwrap_or(0) >= dep);
            if deps_met {
                target = Some((*writer, *k));
                break;
            }
        }
        let Some((writer, k)) = target else {
            return;
        };
        let entry = self.pending[&(writer, k)].clone();
        let shard = self.local_shards[self.shard_map.shard_of(entry.object)];
        self.inflight = Some((writer, k, shard));
        out.push(Effect::Metric {
            name: names::GEO_APPLY,
            add: 1,
        });
        out.push(Effect::Send {
            to: shard,
            msg: Msg::GeoApply { entry },
        });
        if !self.retx_armed {
            self.retx_armed = true;
            out.push(Effect::SetTimer {
                after: RETX_AFTER,
                token: TIMER_GEO_RETX,
            });
        }
    }

    fn on_retx(&mut self, out: &mut Vec<Effect>) {
        let Some((writer, k, shard)) = self.inflight else {
            self.retx_armed = false;
            return;
        };
        if let Some(entry) = self.pending.get(&(writer, k)) {
            out.push(Effect::Metric {
                name: names::GEO_APPLY_RETRANSMIT,
                add: 1,
            });
            out.push(Effect::Send {
                to: shard,
                msg: Msg::GeoApply {
                    entry: entry.clone(),
                },
            });
        }
        out.push(Effect::SetTimer {
            after: RETX_AFTER,
            token: TIMER_GEO_RETX,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_clocks::Time;
    use tc_core::{ObjectId, Value};

    fn relay(shards: usize, sites: usize) -> GeoRelayEngine {
        let fleet = (0..shards).map(NodeId::new).collect();
        GeoRelayEngine::new(fleet, sites)
    }

    fn write(site: usize, k: u64, deps: &[u64]) -> GeoWrite {
        let mut entries = deps.to_vec();
        entries[site] = k;
        GeoWrite {
            object: ObjectId::from_letter('X'),
            value: Value::new(site as u64 * 100 + k),
            alpha_v: VectorClock::from_entries(site, entries),
            issued_at: Time::from_ticks(10),
            shard_seq: k,
        }
    }

    fn batch(r: &mut GeoRelayEngine, from: usize, seq: u64, entries: Vec<GeoWrite>) -> Vec<Effect> {
        let mut out = Vec::new();
        r.handle(
            Event::Message {
                from: NodeId::new(from),
                msg: Msg::GeoBatch {
                    origin: 1,
                    seq,
                    entries,
                },
            },
            &mut out,
        );
        out
    }

    fn sent(effects: &[Effect]) -> Vec<(NodeId, &Msg)> {
        effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_batch_is_acked_and_dispatched() {
        let mut r = relay(1, 2);
        let out = batch(&mut r, 9, 1, vec![write(0, 1, &[0, 0])]);
        let msgs = sent(&out);
        assert!(
            matches!(msgs[0].1, Msg::GeoBatchAck { upto: 1 }),
            "cumulative ack first"
        );
        assert!(
            matches!(msgs[1].1, Msg::GeoApply { .. }),
            "ready write forwarded"
        );
        assert_eq!(msgs[1].0, NodeId::new(0));
    }

    #[test]
    fn gap_batch_is_buffered_until_contiguous() {
        let mut r = relay(1, 2);
        // Batch 2 overtakes batch 1 on the non-FIFO WAN: held, cursor
        // unmoved, so the ack tells the sender to retransmit batch 1.
        let out = batch(&mut r, 9, 2, vec![write(0, 2, &[0, 0])]);
        let msgs = sent(&out);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0].1, Msg::GeoBatchAck { upto: 0 }));
        assert_eq!(r.pending_len(), 0, "gap batch held, not ingested");
        // The gap fills: both batches ingest in one step, the ack jumps,
        // and the writer's first write dispatches.
        let out = batch(&mut r, 9, 1, vec![write(0, 1, &[0, 0])]);
        let msgs = sent(&out);
        assert!(matches!(msgs[0].1, Msg::GeoBatchAck { upto: 2 }));
        assert!(msgs
            .iter()
            .any(|(_, m)| matches!(m, Msg::GeoApply { entry } if entry.k() == 1)));
        assert_eq!(r.pending_len(), 2, "both writes ingested");
    }

    #[test]
    fn dependent_write_waits_for_its_dependency() {
        let mut r = relay(1, 2);
        // Site 1's write k=1 depends on site 0's k=1 (entries [1, 1]).
        let out = batch(&mut r, 9, 1, vec![write(1, 1, &[1, 0])]);
        assert_eq!(sent(&out).len(), 1, "only the ack: the dependency is unmet");
        assert_eq!(r.pending_len(), 1);
        // The dependency applies locally → the buffered write dispatches.
        let mut out = Vec::new();
        r.handle(
            Event::Message {
                from: NodeId::new(0),
                msg: Msg::GeoLocalApply { writer: 0, k: 1 },
            },
            &mut out,
        );
        assert!(sent(&out)
            .iter()
            .any(|(_, m)| matches!(m, Msg::GeoApply { .. })));
    }

    #[test]
    fn one_apply_in_flight_until_acked() {
        let mut r = relay(1, 2);
        let out = batch(
            &mut r,
            9,
            1,
            vec![write(0, 1, &[0, 0]), write(0, 2, &[0, 0])],
        );
        let applies = sent(&out)
            .iter()
            .filter(|(_, m)| matches!(m, Msg::GeoApply { .. }))
            .count();
        assert_eq!(applies, 1, "second write waits for the first's ack");
        let mut out = Vec::new();
        r.handle(
            Event::Message {
                from: NodeId::new(0),
                msg: Msg::GeoApplyAck { writer: 0, k: 1 },
            },
            &mut out,
        );
        assert_eq!(r.applied()[0], 1);
        assert!(sent(&out)
            .iter()
            .any(|(_, m)| matches!(m, Msg::GeoApply { entry } if entry.k() == 2)));
    }

    #[test]
    fn retx_timer_resends_the_inflight_apply() {
        let mut r = relay(1, 2);
        batch(&mut r, 9, 1, vec![write(0, 1, &[0, 0])]);
        let mut out = Vec::new();
        r.handle(
            Event::Timer {
                token: TIMER_GEO_RETX,
            },
            &mut out,
        );
        assert!(sent(&out)
            .iter()
            .any(|(_, m)| matches!(m, Msg::GeoApply { .. })));
        assert!(out.iter().any(
            |e| matches!(e, Effect::Metric { name, .. } if *name == names::GEO_APPLY_RETRANSMIT)
        ));
    }

    #[test]
    fn attach_gates_on_the_watermarks() {
        let mut r = relay(1, 2);
        let ctx = VectorClock::from_entries(1, vec![1, 0]);
        let mut out = Vec::new();
        r.handle(
            Event::Message {
                from: NodeId::new(7),
                msg: Msg::GeoAttach {
                    site: 1,
                    context_v: ctx,
                },
            },
            &mut out,
        );
        assert!(sent(&out).is_empty(), "attach waits: site 0's write unseen");
        // The covering write applies → the attach confirms.
        batch(&mut r, 9, 1, vec![write(0, 1, &[0, 0])]);
        let mut out = Vec::new();
        r.handle(
            Event::Message {
                from: NodeId::new(0),
                msg: Msg::GeoApplyAck { writer: 0, k: 1 },
            },
            &mut out,
        );
        assert!(sent(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(7) && matches!(m, Msg::GeoAttachOk { site: 1 })));
    }

    #[test]
    fn covered_attach_confirms_immediately() {
        let mut r = relay(1, 2);
        let mut out = Vec::new();
        r.handle(
            Event::Message {
                from: NodeId::new(7),
                msg: Msg::GeoAttach {
                    site: 1,
                    context_v: VectorClock::new(1, 2),
                },
            },
            &mut out,
        );
        assert!(matches!(sent(&out)[0].1, Msg::GeoAttachOk { site: 1 }));
    }

    #[test]
    fn duplicate_batch_reacks_without_rebuffering() {
        let mut r = relay(1, 2);
        batch(&mut r, 9, 1, vec![write(0, 1, &[0, 0])]);
        let out = batch(&mut r, 9, 1, vec![write(0, 1, &[0, 0])]);
        assert!(matches!(sent(&out)[0].1, Msg::GeoBatchAck { upto: 1 }));
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Metric { name, .. } if *name == names::GEO_BATCH_DUP)));
    }
}
