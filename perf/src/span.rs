//! Spans around the calls the ledger loop makes into each layer.
//!
//! The loop is single-threaded, so the tracer lives in a thread-local: the
//! timing store wrapper (which sits inside `ServerEngine`, behind a `Send`
//! trait object) reaches it without sharing a handle. Switched off, a span
//! site costs one thread-local flag read.
//!
//! Spans are aggregated as they close — per layer: count, total time, time
//! covered by child spans, allocations — and the raw spans (name, start,
//! end, parent, op id) of the run's first operations are kept for the
//! Chrome-trace file.
//!
//! A span costs two clock reads and some bookkeeping. [`calibrate`]
//! measures how much of that lands inside the span's own interval and how
//! much lands in its parent; [`Trace::self_ns`] takes both out (the caller
//! scales them to what a span cost inside the measured loop), so self
//! times add up to what the loop costs with spans off.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One event dispatch of the ledger loop; its self time is the loop's
    /// own queue and bookkeeping cost.
    Loop,
    Client,
    Server,
    StoreApply,
    StoreRead,
    StoreSync,
    Encode,
    Decode,
    Recorder,
    Monitor,
    Metrics,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Loop,
        Layer::Client,
        Layer::Server,
        Layer::StoreApply,
        Layer::StoreRead,
        Layer::StoreSync,
        Layer::Encode,
        Layer::Decode,
        Layer::Recorder,
        Layer::Monitor,
        Layer::Metrics,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Loop => "ledger.loop",
            Layer::Client => "engine.client",
            Layer::Server => "engine.server",
            Layer::StoreApply => "store.apply",
            Layer::StoreRead => "store.read",
            Layer::StoreSync => "store.sync",
            Layer::Encode => "wire.encode",
            Layer::Decode => "wire.decode",
            Layer::Recorder => "recorder.record",
            Layer::Monitor => "monitor.ingest",
            Layer::Metrics => "metrics.add",
        }
    }
}

/// "No operation" / "no parent" marker in [`RawSpan`].
pub const NONE: u32 = u32::MAX;
/// Raw spans kept per traced run (the first operations' worth).
const RAW_CAPACITY: usize = 64 * 1024;

#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    pub layer: Layer,
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Time of this layer's spans that their direct children cover.
    pub child_ns: u64,
    /// Direct child spans under this layer's spans.
    pub children: u64,
    /// Allocations inside this layer's spans, children's excluded.
    pub self_allocs: u64,
}

/// What one span costs the measurement itself.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Tracing time inside a span's own interval.
    pub inside_ns: f64,
    /// Tracing time a span adds to its parent, outside its own interval.
    pub outside_ns: f64,
}

impl Calibration {
    pub fn whole_ns(&self) -> f64 {
        self.inside_ns + self.outside_ns
    }

    /// The same split of a span's cost at `factor` times the size.
    pub fn scaled(&self, factor: f64) -> Calibration {
        Calibration {
            inside_ns: self.inside_ns * factor,
            outside_ns: self.outside_ns * factor,
        }
    }
}

pub struct Trace {
    totals: [Totals; Layer::ALL.len()],
    pub raw: Vec<RawSpan>,
}

impl Trace {
    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer as usize]
    }

    pub fn spans(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    /// The layer's self time: its spans' duration minus what child spans
    /// cover, with the tracing cost taken out.
    pub fn self_ns(&self, layer: Layer, cal: Calibration) -> f64 {
        let t = self.totals(layer);
        let raw = t.total_ns as f64 - t.child_ns as f64;
        (raw - t.count as f64 * cal.inside_ns - t.children as f64 * cal.outside_ns).max(0.0)
    }
}

struct Open {
    layer: Layer,
    id: u32,
    op: u32,
    start_ns: u64,
    allocs: u64,
    child_ns: u64,
    children: u64,
    child_allocs: u64,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    totals: [Totals; Layer::ALL.len()],
    raw: Vec<RawSpan>,
    keep_raw: bool,
    next_id: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            totals: [Totals::default(); Layer::ALL.len()],
            raw: Vec::with_capacity(RAW_CAPACITY),
            keep_raw: true,
            next_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: Layer, op: Option<u32>) {
        let op = op.unwrap_or_else(|| self.stack.last().map_or(NONE, |o| o.op));
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            layer,
            id,
            op,
            start_ns: 0,
            allocs: alloc::count(),
            child_ns: 0,
            children: 0,
            child_allocs: 0,
        });
        // The clock is read last on entry and first on exit, so the
        // bookkeeping falls outside the span's own interval.
        let now = self.now_ns();
        self.stack.last_mut().expect("just pushed").start_ns = now;
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let allocs_now = alloc::count();
        let open = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns - open.start_ns;
        let allocs = allocs_now - open.allocs;
        let t = &mut self.totals[open.layer as usize];
        t.count += 1;
        t.total_ns += dur;
        t.child_ns += open.child_ns;
        t.children += open.children;
        t.self_allocs += allocs - open.child_allocs;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.children += 1;
                p.child_allocs += allocs;
                p.id
            }
            None => NONE,
        };
        if self.keep_raw && self.raw.len() < RAW_CAPACITY {
            self.raw.push(RawSpan {
                layer: open.layer,
                id: open.id,
                parent,
                op: open.op,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn start() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
    ON.with(|on| on.set(true));
}

/// Stops recording and hands back what was recorded since [`start`].
pub fn finish() -> Trace {
    ON.with(|on| on.set(false));
    let tracer = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("finish follows start");
    assert!(tracer.stack.is_empty(), "every span closed");
    Trace {
        totals: tracer.totals,
        raw: tracer.raw,
    }
}

/// Stops keeping raw spans (aggregation continues).
pub fn stop_raw() {
    if ON.with(Cell::get) {
        TRACER.with(|t| t.borrow_mut().as_mut().expect("tracing on").keep_raw = false);
    }
}

fn run<R>(layer: Layer, op: Option<u32>, f: impl FnOnce() -> R) -> R {
    if !ON.with(Cell::get) {
        return f();
    }
    TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .expect("tracing on")
            .enter(layer, op)
    });
    let r = f();
    TRACER.with(|t| t.borrow_mut().as_mut().expect("tracing on").exit());
    r
}

/// A span around `f`, child of the innermost open span, inheriting its op.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    run(layer, None, f)
}

/// A [`Layer::Loop`] span around one event dispatch; [`set_op`] names the
/// operation it works for once the event is known.
#[inline]
pub fn dispatch<R>(f: impl FnOnce() -> R) -> R {
    run(Layer::Loop, Some(NONE), f)
}

/// Names the operation the innermost open span works for.
#[inline]
pub fn set_op(op: u32) {
    if ON.with(Cell::get) {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let open = t.as_mut().expect("tracing on").stack.last_mut();
            open.expect("set_op inside a span").op = op;
        });
    }
}

/// Measures the cost of one span by timing empty ones under one parent.
/// The cheapest of several passes: the first runs cold, and any may be
/// disturbed by the host.
pub fn calibrate() -> Calibration {
    const N: u64 = 100_000;
    const PASSES: usize = 6;
    (0..PASSES)
        .map(|_| {
            start();
            stop_raw();
            dispatch(|| {
                for _ in 0..N {
                    span(Layer::Metrics, || black_box(()));
                }
            });
            let trace = finish();
            let root = trace.totals(Layer::Loop);
            Calibration {
                inside_ns: root.child_ns as f64 / N as f64,
                outside_ns: (root.total_ns - root.child_ns) as f64 / N as f64,
            }
        })
        .min_by(|a, b| a.whole_ns().total_cmp(&b.whole_ns()))
        .expect("several passes ran")
}

/// [`NONE`] as -1, for the trace file.
fn signed(v: u32) -> i64 {
    if v == NONE {
        -1
    } else {
        i64::from(v)
    }
}

/// Writes raw spans as Chrome-trace JSON (load in Perfetto or
/// `chrome://tracing`).
pub fn write_chrome(path: &Path, raw: &[RawSpan]) -> std::io::Result<()> {
    let mut out = String::with_capacity(raw.len() * 128 + 2);
    out.push('[');
    for (i, s) in raw.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            signed(s.parent),
            signed(s.op),
        );
    }
    out.push_str("\n]\n");
    std::fs::write(path, out)
}
