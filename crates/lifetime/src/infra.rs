//! Simulator adapter for the infrastructure engines — a shard
//! ([`crate::ServerEngine`]) or a geo relay ([`crate::GeoRelayEngine`]):
//! injects the world's clocks and replays the engine's effects. All
//! protocol logic lives in the engines.

use std::cell::RefCell;
use std::rc::Rc;

use tc_sim::{Context, NodeId, Process, TraceRecorder};

use crate::client::{log_delivery, replay_effects};
use crate::engine::{Effect, Event, Now};
use crate::msg::Msg;

/// A simulated infrastructure node. `step` is the hosted engine's
/// `handle`; a clock sample precedes every event (the relay, which never
/// time-stamps, ignores it).
pub(crate) struct InfraNode<F> {
    step: F,
    /// Present only on traced runs, for wire-event capture —
    /// infrastructure never records history operations.
    recorder: Option<Rc<RefCell<TraceRecorder>>>,
}

impl<F: FnMut(Event, &mut Vec<Effect>) + 'static> InfraNode<F> {
    pub(crate) fn new(step: F, recorder: Option<Rc<RefCell<TraceRecorder>>>) -> Self {
        InfraNode { step, recorder }
    }

    fn drive(&mut self, ctx: &mut Context<'_, Msg>, event: Event) {
        if let Some(rec) = &self.recorder {
            log_delivery(rec, ctx, &event);
        }
        let now = Now {
            me: ctx.me(),
            local: ctx.local_now(),
            truth: ctx.true_now(),
        };
        let mut out = Vec::new();
        (self.step)(Event::Now(now), &mut out);
        (self.step)(event, &mut out);
        replay_effects(ctx, self.recorder.as_ref(), out);
    }
}

impl<F: FnMut(Event, &mut Vec<Effect>) + 'static> Process for InfraNode<F> {
    type Msg = Msg;

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.drive(ctx, Event::Restart);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, token: u64) {
        self.drive(ctx, Event::Timer { token });
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        self.drive(ctx, Event::Message { from, msg });
    }
}
