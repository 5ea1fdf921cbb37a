//! The channel driver, and what every real-time driver adds to the node
//! core.
//!
//! The engines' hosts, the effect executor, the control tick and the tail
//! that judges a run are `tc_lifetime::node`'s, shared with the simulator;
//! the site and shard hosts (`host`) put them in a loop each real driver
//! owns. This module gives them real time and in-process delivery:
//!
//! * **time** — `TickClock`, the node core's `TimeSource` on every real
//!   driver: the [`Instant`] an event was observed at, ticked down against
//!   one shared epoch;
//! * **the channel transport** — an outbox per host: its sends wait
//!   there until the loop moves them onto its queue, dropping those a
//!   partition cuts;
//! * **the channel loop** — [`run_threaded`]: one loop on the calling
//!   thread serves the site host and every shard host.
//!
//! [`crate::run_reactor`] runs the same two hosts over loopback TCP, each
//! in an epoll loop, with one link per shard as the transport.
//!
//! # Layout
//!
//! Node ids follow the simulator harness: shards first (node 0 is *the*
//! server in a single-shard run), then client site `i`. The channel driver
//! starts no thread: every host runs on the calling thread, and one FIFO
//! queue carries every message between them. The hosts are built first —
//! engines, stores, a WAL replay — and the run's clock is fixed only then,
//! at the instant every host starts (see Time). A pass reads the clock
//! once, fires every host's due timers at that instant, moves every outbox
//! onto the queue, and delivers the queue in order, at the same instant,
//! until it is empty — what a delivery sends joins its tail. The run ends
//! once every site's workload is finished with the queue drained; otherwise
//! the loop sleeps until the earliest deadline on any host's wheel. Each
//! host waits on exactly one deadline, so the loop waits on the earliest of
//! them.
//!
//! # Time
//!
//! Real time is ticked down to the protocol's [`Time`] unit by dividing the
//! elapsed time since a shared epoch by [`RuntimeConfig::tick`]. A run
//! fixes that epoch once, at the instant its sites start, and places it so
//! that this instant is the last one of tick 0 (`TickClock::started_at`):
//! every site steps `Start` at tick 0, as in the simulator, and the
//! op-issue timer that step arms with no think time is due at boundary 1,
//! one nanosecond later — so the loop's first pass issues the first
//! operation, however long building the hosts took. Every host reads the
//! same epoch, so ε is bounded by tick rounding (±1 tick per reader) — the
//! monitor gets a small ε to absorb it. Scheduling jitter cannot be bounded
//! the way simulated latency can, so [`RuntimeConfig::for_protocol`] widens
//! the monitor's Δ by a generous real-time slack; the run's *observed*
//! staleness is still reported exactly, and the monitor verdict asserts the
//! widened bound.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tc_clocks::{Delta, Epsilon, Time};
use tc_core::checker::TimedReport;
use tc_core::History;
use tc_durable::WalStore;
use tc_lifetime::control::{ControllerConfig, DeltaSchedule};
use tc_lifetime::engine::ServerEngine;
use tc_lifetime::node::TimeSource;
use tc_lifetime::{Msg, ProtocolConfig};
use tc_sim::metrics::names;
use tc_sim::workload::Workload;
use tc_sim::{FaultKind, FaultPlan, Metrics, MetricsSnapshot, NodeId};

use crate::host::{controller, ShardHost, SiteHost, Transport};
use crate::reactor::TimerSlack;

/// Configuration of one real-time run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// The protocol under test.
    pub protocol: ProtocolConfig,
    /// Number of client sites.
    pub n_clients: usize,
    /// The workload every client runs.
    pub workload: Workload,
    /// Operations each client performs.
    pub ops_per_client: usize,
    /// Base seed; client `i` draws from
    /// [`tc_lifetime::engine::client_rng_seed`]`(seed, i)` — the same
    /// derivation the simulator's private-source mode uses, so sim and
    /// real-time runs of one configuration perform identical per-site
    /// operation sequences.
    pub seed: u64,
    /// Real-time duration of one protocol tick.
    pub tick: Duration,
    /// Δ handed to the on-time monitor.
    pub monitor_delta: Delta,
    /// ε handed to the on-time monitor (absorbs tick rounding).
    pub monitor_eps: Epsilon,
    /// When set, every shard engine runs over a `tc-durable` WAL store
    /// rooted at `<wal_dir>/shard-<i>` instead of the in-memory store —
    /// crash/restart then *recovers* durable state by replay instead of
    /// forgetting it. `None` keeps the default in-memory backend.
    pub wal_dir: Option<PathBuf>,
    /// Faults to inject, in protocol ticks, with node indices in the
    /// simulator harness's layout — the simulator's own plan type. A real
    /// driver renders a shard's [`FaultKind::Crash`] through the shard
    /// core's outage gate and [`FaultKind::Partition`] on its transport
    /// (the channel driver drops a send across the cut; the reactor kills
    /// and rebinds one shard's listener and links), and refuses every
    /// other rule, a site's crash included, with a panic naming it. Empty
    /// by default.
    pub faults: FaultPlan,
    /// When set, a [`DeltaController`] retunes Δ online: it ticks over the
    /// live monitor every `interval`, as a timer on the wheel of the
    /// host of every site, feeds each [`Msg::DeltaUpdate`]
    /// command to every running site in that loop, and shifts the
    /// monitor's judged schedule (widened by the same slack as the static
    /// bound) from each change's judged time. Every driver refuses, before
    /// it starts a host, what [`DeltaController::new`] refuses. `None`
    /// (the default) keeps the static Δ — and byte-identical behaviour
    /// with earlier drivers.
    ///
    /// [`DeltaController`]: tc_lifetime::control::DeltaController
    /// [`DeltaController::new`]: tc_lifetime::control::DeltaController::new
    pub adaptive: Option<ControllerConfig>,
}

/// Extra Δ given to the monitor on top of the protocol's own threshold:
/// OS scheduling can delay any thread unboundedly in principle, so the
/// *verdict* bound is generous while
/// [`RuntimeResult::observed_staleness`] stays exact. 20 000 ticks = 1 s
/// at the default 50 µs tick.
pub const MONITOR_SLACK: Delta = Delta::from_ticks(20_000);

impl RuntimeConfig {
    /// A ready-to-run configuration: 50 µs ticks, monitor at the
    /// protocol's Δ plus [`MONITOR_SLACK`] (or unbounded for untimed
    /// levels), ε of 2 ticks for rounding.
    #[must_use]
    pub fn for_protocol(
        protocol: ProtocolConfig,
        n_clients: usize,
        workload: Workload,
        ops_per_client: usize,
        seed: u64,
    ) -> Self {
        let monitor_delta = match protocol.kind.delta() {
            Some(delta) => delta + MONITOR_SLACK,
            None => Delta::INFINITE,
        };
        RuntimeConfig {
            protocol,
            n_clients,
            workload,
            ops_per_client,
            seed,
            tick: Duration::from_micros(50),
            monitor_delta,
            monitor_eps: Epsilon::from_ticks(2),
            wal_dir: None,
            faults: FaultPlan::none(),
            adaptive: None,
        }
    }
}

/// Panics, naming the kind, on the first rule of `config`'s fault plan
/// the `driver` cannot render. Every real driver renders the
/// [`FaultKind::Crash`] of a shard (nodes `0..shards`); `cut` says which
/// isolated sets it renders a [`FaultKind::Partition`] for. Message
/// faults, clock skew and a site's crash are the simulator's alone.
pub(crate) fn refuse_unrenderable(
    config: &RuntimeConfig,
    driver: &str,
    cut: impl Fn(&[usize]) -> bool,
) {
    for rule in &config.faults.rules {
        let rendered = match &rule.kind {
            FaultKind::Crash { node } => *node < config.protocol.shards,
            FaultKind::Partition { isolated } => cut(isolated),
            _ => false,
        };
        assert!(
            rendered,
            "the {driver} driver cannot render {:?}; only the simulator injects it",
            rule.kind
        );
    }
}

/// Builds one shard's engine over the configured storage backend: the
/// in-memory store by default, or a [`WalStore`] under
/// `<wal_dir>/shard-<i>` when a WAL directory is set. Opening a dirty
/// directory recovers the previous incarnation's durable state — this is
/// the single point where every real-time driver (channel, reactor)
/// decides what a shard remembers.
pub(crate) fn build_shard_engine(
    protocol: ProtocolConfig,
    wal_dir: Option<&Path>,
    shard: usize,
) -> ServerEngine {
    match wal_dir {
        None => ServerEngine::new(protocol),
        Some(dir) => {
            // An ephemeral config never syncs, so a WAL store under it
            // would defer write acks forever — reject the combination
            // loudly instead of hanging the run.
            assert!(
                protocol.durability.is_durable(),
                "wal_dir is set but the protocol durability mode is Ephemeral; \
                 configure DurabilityMode::Durable with an fsync policy"
            );
            ServerEngine::with_store(
                protocol,
                Box::new(WalStore::open(
                    dir.join(format!("shard-{shard}")),
                    shard as u16,
                    tc_durable::DEFAULT_SNAPSHOT_EVERY,
                )),
            )
        }
    }
}

/// Latency distribution of completed operations (issue → completion).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Completed operations measured.
    pub count: usize,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// 99th-percentile latency in microseconds (nearest-rank).
    pub p99_us: f64,
    /// Worst observed latency in microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    pub(crate) fn from_durations(mut v: Vec<Duration>) -> Self {
        if v.is_empty() {
            return LatencySummary::default();
        }
        v.sort_unstable();
        let count = v.len();
        let sum: Duration = v.iter().sum();
        let rank = ((0.99 * count as f64).ceil() as usize).clamp(1, count);
        LatencySummary {
            count,
            mean_us: sum.as_secs_f64() * 1e6 / count as f64,
            p99_us: v[rank - 1].as_secs_f64() * 1e6,
            max_us: v[count - 1].as_secs_f64() * 1e6,
        }
    }
}

/// Everything a real-time run produces.
#[derive(Clone, Debug)]
pub struct RuntimeResult {
    /// The recorded execution (sites are client indices), checker-ready.
    pub history: History,
    /// The live monitor's verdict at the configured Δ and ε.
    pub on_time: TimedReport,
    /// The monitor's running `min_delta`: the smallest Δ for which this
    /// run was timed.
    pub observed_staleness: Delta,
    /// Protocol cost counters (same names as the simulator's).
    pub metrics: MetricsSnapshot,
    /// Operations completed across all clients.
    pub ops_done: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Per-operation latency distribution.
    pub latency: LatencySummary,
    /// Requests served by each shard (fetch + validate + write), indexed by
    /// shard — the fleet's load-balance statistic.
    pub shard_requests: Vec<u64>,
    /// The Δ-schedule the controller commanded, when the run was adaptive
    /// ([`RuntimeConfig::adaptive`]); `None` for static-Δ runs.
    pub delta_schedule: Option<DeltaSchedule>,
}

impl RuntimeResult {
    /// Completed operations per wall-clock second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.ops_done as f64 / self.wall.as_secs_f64()
        }
    }

    /// A named cost counter, zero when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counters.get(name).copied().unwrap_or(0)
    }

    /// Cache hit rate over all client reads that consulted the cache
    /// (the simulator's `RunResult::hit_rate`, same formula).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.counter(names::CACHE_HIT) as f64;
        let misses = self.counter(names::CACHE_MISS) as f64 + self.counter(names::VALIDATE) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

/// The shared tick clock: every thread derives protocol [`Time`] from one
/// epoch, so "local" and "true" time coincide up to rounding, and every
/// driver timer is a deadline on that same clock
/// ([`TickClock::deadline`]). A run fixes it once, at the instant its
/// sites start ([`TickClock::started_at`]), after every host is built.
#[derive(Clone, Copy)]
pub(crate) struct TickClock {
    epoch: Instant,
    tick_nanos: u64,
}

impl TickClock {
    /// The clock of a run whose sites start at `start`: `start` is the
    /// last instant of tick 0, so every site steps `Start` at tick 0, as
    /// in the simulator, and boundary 1 — where an op-issue timer armed
    /// by that step with no think time falls due — comes one nanosecond
    /// later: a fleet's first operation waits for no boundary.
    pub(crate) fn started_at(start: Instant, tick: Duration) -> Self {
        let tick_nanos = (tick.as_nanos() as u64).max(1);
        TickClock::starting_at(start - Duration::from_nanos(tick_nanos - 1), tick)
    }

    /// A clock whose tick 0 begins at `epoch`.
    pub(crate) fn starting_at(epoch: Instant, tick: Duration) -> Self {
        TickClock {
            epoch,
            tick_nanos: (tick.as_nanos() as u64).max(1),
        }
    }

    pub(crate) fn now(&self) -> Time {
        self.tick_at(Instant::now())
    }

    /// The tick the clock reads at `at`.
    pub(crate) fn tick_at(&self, at: Instant) -> Time {
        Time::from_ticks(
            at.saturating_duration_since(self.epoch).as_nanos() as u64 / self.tick_nanos,
        )
    }

    /// The instant tick `t` begins.
    pub(crate) fn instant_of(&self, t: Time) -> Instant {
        self.epoch + Duration::from_nanos(self.tick_nanos.saturating_mul(t.ticks()))
    }

    /// How many tick boundaries `epoch + k · tick` lie at or before `at`
    /// (boundary 0 is the epoch itself).
    pub(crate) fn boundaries_passed(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64 / self.tick_nanos + 1)
    }

    /// The first tick boundary at or after `at`, as its `k`.
    pub(crate) fn boundary_at_or_after(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| (d.as_nanos() as u64).div_ceil(self.tick_nanos))
    }

    /// The real-time length of `delta` — a *period* (the controller's
    /// sampling interval), not a timer: engine timers are
    /// deadlines on the clock itself, see [`TickClock::deadline`].
    /// `None` for an infinite delta.
    pub(crate) fn delta_to_duration(&self, delta: Delta) -> Option<Duration> {
        if delta.is_infinite() {
            return None;
        }
        Some(Duration::from_nanos(
            self.tick_nanos.saturating_mul(delta.ticks().max(1)),
        ))
    }
}

/// Real time for the node core: an event steps at the tick the clock read
/// at the instant the driver observed it, local time equal to true time,
/// and a timer is a deadline on the clock itself.
impl TimeSource for TickClock {
    type At = Instant;
    type Deadline = Instant;

    /// `tick_at` would read an instant before the epoch as tick 0; no
    /// host may step there.
    fn read(&self, at: Instant) -> (Time, Time) {
        debug_assert!(at >= self.epoch, "a step observed before its clock's epoch");
        let t = self.tick_at(at);
        (t, t)
    }

    /// The instant at which this clock will have advanced by `delta` ticks
    /// from the reading `t` an engine step was fed: the tick *boundary*
    /// `epoch + (t + max(delta, 1)) · tick`. This is the driver timer
    /// contract — an engine's `SetTimer { after: k }` fires when the
    /// shared clock reads `t + k`, as it does in the simulator, not `k`
    /// ticks plus whatever was left of tick `t`, and not `k` ticks from
    /// whatever the clock reads by the time the effect is executed. Zero
    /// rounds up to one tick, so a timer never fires before the clock
    /// reads `t + 1` (the per-site strictly-increasing-time invariant of a
    /// [`History`]), and threads whose timers land on the same tick wake
    /// at the same instant. `None` for an infinite delta: "never" arms
    /// nothing.
    fn deadline(&self, t: Time, delta: Delta) -> Option<Instant> {
        if delta.is_infinite() {
            return None;
        }
        let at = t.ticks().saturating_add(delta.ticks().max(1));
        Some(self.instant_of(Time::from_ticks(at)))
    }

    fn elapsed(&self, issued: Instant) -> Option<Duration> {
        Some(issued.elapsed())
    }
}

/// A message in flight: from, to, what.
type Sent = (NodeId, NodeId, Msg);

/// The channel driver's transport: a host's sends wait in its outbox until
/// the loop moves them onto its queue.
impl Transport for Vec<Sent> {
    /// The channel driver arms no timer of its own.
    type Timer = Infallible;

    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        self.push((from, to, msg));
    }
}

/// Moves an outbox onto the queue, dropping each send a partition of
/// `cuts` severs at tick `t`, the tick of the pass that made it.
fn post(outbox: &mut Vec<Sent>, queue: &mut VecDeque<Sent>, cuts: Option<&FaultPlan>, t: Time) {
    match cuts {
        None => queue.extend(outbox.drain(..)),
        Some(plan) => queue.extend(
            outbox
                .drain(..)
                .filter(|(from, to, _)| !plan.partitions(t, from.index(), to.index())),
        ),
    }
}

/// A pass's delivery: hands `queue` to `deliver` in order, message by
/// message, until it is empty; `deliver` appends to it what the delivery
/// sent.
fn drain(queue: &mut VecDeque<Sent>, mut deliver: impl FnMut(Sent, &mut VecDeque<Sent>)) {
    while let Some(sent) = queue.pop_front() {
        deliver(sent, queue);
    }
}

/// What the loop sleeps towards: the earliest deadline on any host's
/// wheel.
///
/// # Panics
///
/// Panics when no wheel holds one. The loop asks only with a site
/// unfinished and nothing queued, so the run could never move again.
fn earliest_deadline(sites: &SiteHost<Vec<Sent>>, shards: &[ShardHost<Vec<Sent>>]) -> Instant {
    shards
        .iter()
        .map(|shard| shard.timers.next_deadline())
        .chain([sites.timers.next_deadline()])
        .flatten()
        .min()
        .expect("the channel run stalled: a site is unfinished, nothing is queued and no timer is armed")
}

/// The channel loop the module's Layout describes: fix the run's clock at
/// the instant every host starts, then serve passes until every site has
/// finished with the queue drained.
fn run_loop(
    config: &RuntimeConfig,
    sites: &mut SiteHost<Vec<Sent>>,
    shards: &mut [ShardHost<Vec<Sent>>],
) {
    let _slack = TimerSlack::pin();
    let cuts = (config.faults.rules.iter())
        .any(|rule| matches!(rule.kind, FaultKind::Partition { .. }))
        .then_some(&config.faults);
    let start = Instant::now();
    let clock = TickClock::started_at(start, config.tick);
    for shard in shards.iter_mut() {
        shard.start(clock, start);
    }
    sites.start(clock, start);
    // Scratch reused across passes; steady-state passes allocate nothing.
    let (mut site_due, mut shard_due) = (Vec::new(), Vec::new());
    let mut queue = VecDeque::new();
    loop {
        // Each wheel's sweep collects every due timer before any fires:
        // serving one may arm new ones, which belong to a later pass.
        let now = Instant::now();
        let t = clock.tick_at(now);
        sites.timers.pop_due_into(now, &mut site_due);
        for &timer in &site_due {
            let _ = sites.fire(timer, now);
        }
        post(&mut sites.net, &mut queue, cuts, t);
        for shard in shards.iter_mut() {
            shard.timers.pop_due_into(now, &mut shard_due);
            for &timer in &shard_due {
                let _ = shard.fire(timer, now);
            }
            post(&mut shard.net, &mut queue, cuts, t);
        }
        drain(&mut queue, |(from, to, msg), queue| {
            let outbox = match shards.get_mut(to.index()) {
                Some(shard) => {
                    shard.deliver(from, msg, now);
                    &mut shard.net
                }
                None => {
                    sites.deliver(from, to, msg, now);
                    &mut sites.net
                }
            };
            post(outbox, queue, cuts, t);
        });
        if sites.finished() {
            break;
        }
        let deadline = earliest_deadline(sites, shards);
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
    }
    debug_assert!(queue.is_empty(), "the loop ends with the queue drained");
}

/// Runs one execution over in-process channels to completion and judges
/// it.
///
/// Node order is the simulator harness's, shards → sites. Every host runs
/// on the calling thread, in one loop over one FIFO queue; it starts no
/// thread.
///
/// # Panics
///
/// Panics if [`RuntimeConfig::faults`] holds a kind this driver cannot
/// render, the run stalls (a site unfinished with nothing queued and no
/// timer armed), or the recorded trace violates a history invariant (a
/// protocol bug — exactly what the monitor-in-the-loop runtime exists to
/// surface).
#[must_use]
pub fn run_threaded(config: &RuntimeConfig) -> RuntimeResult {
    refuse_unrenderable(config, "channel", |_| true);
    let controller = controller(config);
    let mut shards: Vec<_> = (0..config.protocol.shards)
        .map(|shard| ShardHost::new(config, shard, Vec::new()))
        .collect();
    let started = Instant::now();
    let mut sites = SiteHost::new(config, Vec::new(), controller);
    run_loop(config, &mut sites, &mut shards);
    let (shard_requests, shard_metrics): (Vec<u64>, Vec<Metrics>) =
        shards.into_iter().map(ShardHost::finish).unzip();
    sites.finish_run(shard_metrics, shard_requests, started.elapsed())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tc_lifetime::engine::{
        ClientEngine, Effect, Event, PrivateSources, RecordOp, TIMER_NEXT_OP, TIMER_WAL_FLUSH,
    };
    use tc_lifetime::node::{ClientCore, Host, ShardCore, SimClock};
    use tc_lifetime::{ProtocolKind, DEFAULT_RETRY_AFTER};
    use tc_sim::metrics::names;
    use tc_sim::Window;

    fn small(kind: ProtocolKind, seed: u64) -> RuntimeConfig {
        RuntimeConfig::for_protocol(
            ProtocolConfig::of(kind),
            2,
            Workload::new(4, 0.8, 0.7, (Delta::from_ticks(2), Delta::from_ticks(10))),
            15,
            seed,
        )
    }

    pub(crate) fn temp_wal_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "tc-store-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    type Driver = fn(&RuntimeConfig) -> RuntimeResult;

    /// The two real drivers, each by name and with its own seed.
    pub(crate) const REAL_DRIVERS: [(&str, Driver, u64); 2] = [
        ("channel", run_threaded, 23),
        ("reactor", crate::run_reactor, 33),
    ];

    #[test]
    fn real_drivers_kill_shard_over_wal_recovers_by_replay() {
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        for (_, run, seed) in REAL_DRIVERS {
            // One WAL directory per driver.
            let wal = temp_wal_dir(&format!("killshard-{seed}"));
            let mut cfg = small(
                ProtocolKind::Tsc {
                    delta: Delta::from_ticks(400),
                },
                seed,
            );
            cfg.ops_per_client = 200;
            cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
                fsync: FsyncPolicy::PER_WRITE,
            });
            cfg.wal_dir = Some(wal.clone());
            // Down during [300, 1300) ticks: 200 ops × ≥2 ticks think time
            // cannot finish before tick 300, so the kill always lands
            // mid-run; MONITOR_SLACK (20 000 ticks) dwarfs the 1 000-tick
            // outage. On the reactor the link stays up throughout, only
            // the engine dies.
            cfg.faults = FaultPlan::none().crash(Window::ticks(300, 1_300), 0);
            assert_recovered_by_replay(&run(&cfg), 2 * 200);
            let _ = std::fs::remove_dir_all(&wal);
        }
    }

    /// A flat partition is the route's one check: every send between
    /// shard 0 and its clients drops during `[300, 1300)` ticks, the
    /// clients' retry timers carry them across, and the run holds at the
    /// static monitor bound (MONITOR_SLACK dwarfs the 1 000-tick cut).
    #[test]
    fn threaded_partition_of_a_shard_heals_via_retry() {
        let mut cfg = small(
            ProtocolKind::Tsc {
                delta: Delta::from_ticks(400),
            },
            31,
        );
        cfg.ops_per_client = 200;
        cfg.faults = FaultPlan::none().partition(Window::ticks(300, 1_300), vec![0]);
        let r = run_threaded(&cfg);
        assert_done_on_time(&r, 2 * 200);
        assert!(r.counter(names::RETRY) > 0, "the cut must force retries");
    }

    /// A run's clock starts when its sites do: every site steps `Start` in
    /// tick 0, and the op-issue timer that step arms with no think time
    /// is due at boundary 1, one nanosecond on. So a one-op fleet on
    /// one-second ticks issues its op on the loop's first pass, at tick 1,
    /// and is done in under half a tick: it waits for no boundary.
    #[test]
    fn a_fleet_issues_its_first_operation_on_its_first_pass() {
        let tick = Duration::from_secs(1);
        for (driver, run, seed) in REAL_DRIVERS {
            let workload = Workload::new(4, 0.8, 0.7, (Delta::ZERO, Delta::ZERO));
            let protocol = ProtocolConfig::of(ProtocolKind::sc());
            let mut cfg = RuntimeConfig::for_protocol(protocol, 1, workload, 1, seed);
            cfg.tick = tick;
            let r = run(&cfg);
            assert_eq!(r.ops_done, 1, "{driver}");
            assert!(
                r.wall < tick / 2,
                "{driver}: a one-op fleet took {:?}",
                r.wall
            );
            let op = r.history.iter().next().expect("one op recorded");
            assert_eq!(op.time(), Time::from_ticks(1), "{driver}");
        }
    }

    #[test]
    #[should_panic(expected = "the channel driver cannot render Crash { node: 1 }")]
    fn a_site_crash_is_refused_by_the_channel_driver() {
        // One shard: node 1 is the first site.
        let mut cfg = small(ProtocolKind::sc(), 3);
        cfg.faults = FaultPlan::none().crash(Window::ticks(10, 20), 1);
        let _ = run_threaded(&cfg);
    }

    #[test]
    #[should_panic(expected = "the channel driver cannot render Drop")]
    fn a_message_fault_is_refused_by_the_channel_driver() {
        let mut cfg = small(ProtocolKind::sc(), 3);
        cfg.faults = FaultPlan::none().with(
            Window::always(),
            tc_sim::Scope::All,
            FaultKind::Drop { probability: 0.1 },
        );
        let _ = run_threaded(&cfg);
    }

    /// Every one of the run's `ops` operations recorded, and the live
    /// monitor clean.
    pub(crate) fn assert_done_on_time(r: &RuntimeResult, ops: usize) {
        assert_eq!(r.ops_done, ops, "every op must be recorded");
        assert!(
            r.on_time.holds(),
            "violations: {}",
            r.on_time.violations().len()
        );
    }

    /// What a run must show after a per-write-fsync shard was killed and
    /// restarted mid-run: every op done, a clean verdict, state recovered
    /// from the log with nothing lost.
    pub(crate) fn assert_recovered_by_replay(r: &RuntimeResult, ops: usize) {
        assert_done_on_time(r, ops);
        assert!(r.counter(names::CRASH) >= 1, "the kill window must land");
        assert!(r.counter(names::RESTART) >= 1);
        assert!(r.counter(names::SERVER_RESTART) >= 1);
        assert!(
            r.counter(names::WAL_REPLAYED) > 0,
            "restart must recover state by replaying the log"
        );
        assert_eq!(
            r.counter(names::WAL_LOST),
            0,
            "per-write fsync leaves no unsynced tail to lose"
        );
        assert!(r.counter(names::WAL_FSYNC) > 0);
    }

    #[test]
    fn threaded_wal_backend_matches_memory_semantics_fault_free() {
        use tc_lifetime::{DurabilityMode, FsyncPolicy};
        let wal = temp_wal_dir("faultfree");
        let mut cfg = small(ProtocolKind::sc(), 29);
        cfg.protocol = cfg.protocol.with_durability(DurabilityMode::Durable {
            fsync: FsyncPolicy::PER_WRITE,
        });
        cfg.wal_dir = Some(wal.clone());
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15);
        assert!(r.on_time.holds());
        assert!(
            r.counter(names::WAL_APPEND) > 0 && r.counter(names::WAL_FSYNC) > 0,
            "writes must go through the log"
        );
        let _ = std::fs::remove_dir_all(&wal);
    }

    #[test]
    fn real_drivers_sc_completes_and_holds() {
        for (driver, run, seed) in REAL_DRIVERS {
            let r = run(&small(ProtocolKind::sc(), seed));
            assert_eq!(r.ops_done, 2 * 15, "{driver}: every op must be recorded");
            assert!(r.on_time.holds(), "{driver}: the monitor must be clean");
            assert_monitor_counters(&r);
            assert!(r.throughput() > 0.0);
            assert!(
                r.counter(names::FETCH) > 0,
                "SC clients fetch from the server"
            );
            if driver == "reactor" {
                assert_reactor_links(&r, 1);
                assert_eq!(r.counter(names::TCP_RECONNECT), 0, "no faults injected");
                // Both reactor threads reported their output counters, and
                // no write went out without a frame in it.
                for name in [names::REACTOR_WRITES, names::REACTOR_FRAMES_OUT] {
                    assert!(r.metrics.counters.contains_key(name), "{name} missing");
                }
                let (writes, frames) = (
                    r.counter(names::REACTOR_WRITES),
                    r.counter(names::REACTOR_FRAMES_OUT),
                );
                assert!(
                    0 < writes && writes <= frames,
                    "{writes} writes, {frames} frames"
                );
            }
        }
    }

    /// A reactor run over `shards` shards: one handshake and one
    /// connection per shard link, whatever the fleet size, and every
    /// accepted registration drained by the time the run finished.
    fn assert_reactor_links(r: &RuntimeResult, shards: u64) {
        assert_eq!(
            r.counter(names::TCP_CONNECT),
            shards,
            "one handshake per link"
        );
        assert_eq!(
            r.counter(names::REACTOR_CONN_OPENED),
            shards,
            "one link per shard"
        );
        assert_eq!(
            r.counter(names::REACTOR_CONN_CLOSED),
            shards,
            "registrations drain"
        );
    }

    /// A real driver reports the monitor's counters as the simulator
    /// harness does, read off the verdict it returns.
    pub(crate) fn assert_monitor_counters(r: &RuntimeResult) {
        for name in [names::ON_TIME_VIOLATIONS, names::MONITOR_LATE_WRITES] {
            assert!(r.metrics.counters.contains_key(name), "{name} missing");
        }
        assert_eq!(
            r.counter(names::ON_TIME_VIOLATIONS),
            r.on_time.violations().len() as u64
        );
    }

    /// Two shards, at 2 sites and at 300 — the scale whose cold start once
    /// needed the reactor's dials staggered in waves, and which the
    /// channel driver hosts on the calling thread as it does 2.
    #[test]
    fn real_drivers_tsc_fleet_is_judged_by_the_monitor() {
        for (driver, run, seed) in REAL_DRIVERS {
            for sites in [2, 300] {
                let mut cfg = small(
                    ProtocolKind::Tsc {
                        delta: Delta::from_ticks(400),
                    },
                    seed,
                );
                cfg.protocol = cfg.protocol.with_shards(2);
                cfg.n_clients = sites;
                let r = run(&cfg);
                assert_done_on_time(&r, sites * 15);
                // The monitor judged this run against the *configured*
                // bound — a zero-violation verdict is meaningful only at
                // that Δ, so pin it (not merely "some finite Δ").
                assert!(!cfg.monitor_delta.is_infinite());
                assert_eq!(
                    r.on_time.delta(),
                    cfg.monitor_delta,
                    "{driver}: the verdict must be relative to the configured monitor Δ"
                );
                assert!(
                    r.observed_staleness <= cfg.monitor_delta,
                    "{driver}: observed staleness {} must stay within the configured bound {}",
                    r.observed_staleness,
                    cfg.monitor_delta
                );
                assert_eq!(r.shard_requests.len(), 2);
                assert!(r.shard_requests.iter().sum::<u64>() > 0);
                if driver == "reactor" {
                    assert_reactor_links(&r, 2);
                }
            }
        }
    }

    #[test]
    fn real_drivers_adaptive_controller_retunes_delta_online() {
        // A deliberately loose base Δ (4 000 ticks = 200 ms at the 50 µs
        // tick) gives the controller real distance to close even under CI
        // scheduling jitter.
        for (_, run, seed) in REAL_DRIVERS {
            let mut cfg = small(
                ProtocolKind::Tsc {
                    delta: Delta::from_ticks(4_000),
                },
                seed,
            );
            cfg.ops_per_client = 150;
            cfg.adaptive = Some(ADAPTIVE_BAND);
            assert_retuned_online(&run(&cfg), 2 * 150);
        }
    }

    /// Both real drivers refuse an inverted band before they start a host
    /// (the reactor would otherwise wait on its shards forever).
    #[test]
    fn real_drivers_refuse_an_inverted_band() {
        let mut cfg = small(ProtocolKind::Tsc { delta: Delta::ZERO }, 41);
        let inverted = ControllerConfig::new(Delta::from_ticks(2), Delta::ZERO, Delta::ZERO);
        cfg.adaptive = Some(inverted);
        for (_, run, _) in REAL_DRIVERS {
            assert!(std::panic::catch_unwind(|| run(&cfg)).is_err());
        }
    }

    /// A controller with real distance to close from a base Δ of 4 000.
    pub(crate) const ADAPTIVE_BAND: ControllerConfig = ControllerConfig {
        delta_min: Delta::from_ticks(50),
        delta_max: Delta::from_ticks(8_000),
        interval: Delta::from_ticks(20),
    };

    /// What an [`ADAPTIVE_BAND`] run from a base Δ of 4 000 must show.
    pub(crate) fn assert_retuned_online(r: &RuntimeResult, ops: usize) {
        assert_eq!(r.ops_done, ops, "adaptive control must not drop ops");
        let schedule = r
            .delta_schedule
            .as_ref()
            .expect("adaptive runs report their commanded schedule");
        assert!(
            !schedule.is_empty(),
            "the loose base must leave tightening room"
        );
        for &(_, d) in &schedule.changes {
            assert!(
                d >= ADAPTIVE_BAND.delta_min && d <= ADAPTIVE_BAND.delta_max,
                "commanded Δ {d} outside the configured band"
            );
        }
        let (_, last) = *schedule.changes.last().unwrap();
        assert!(
            last.ticks() < 4_000,
            "controller must tighten below the loose base, got {last}"
        );
        assert!(r.counter(names::DELTA_UPDATE) > 0);
        assert!(
            r.counter(names::DELTA_APPLIED) > 0,
            "clients must hear and apply at least one command"
        );
        // The verdict is judged against the schedule actually in force
        // (each command widened by the same slack as the static bound).
        assert!(
            r.on_time.holds(),
            "violations against the in-force schedule: {}",
            r.on_time.violations().len()
        );
    }

    /// The loop's one queue is FIFO: 500 fetches queued from one site to
    /// a shard before any is delivered are served in that order, and their
    /// replies, queued behind the last fetch, come back with epochs
    /// `0..500` in order.
    #[test]
    fn the_loop_delivers_its_queue_in_order() {
        let cfg = small(ProtocolKind::sc(), 0);
        let (shard, site) = (NodeId::new(0), NodeId::new(1));
        let mut host = ShardHost::new(&cfg, 0, Vec::new());
        let now = Instant::now();
        host.start(TickClock::started_at(now, cfg.tick), now);
        let n = 500u64;
        let object = tc_core::ObjectId::new(0);
        let mut queue: VecDeque<Sent> = (0..n)
            .map(|epoch| (site, shard, Msg::FetchReq { object, epoch }))
            .collect();
        let mut epochs = Vec::new();
        drain(&mut queue, |(from, to, msg), queue| {
            if to == shard {
                host.deliver(from, msg, now);
                queue.extend(host.net.drain(..));
                return;
            }
            assert_eq!((from, to), (shard, site));
            match msg {
                Msg::FetchRep { epoch, .. } => epochs.push(epoch),
                msg => panic!("unexpected reply {msg:?}"),
            }
        });
        assert!(queue.is_empty());
        assert_eq!(host.finish().0, n, "every fetch is served");
        assert_eq!(
            epochs,
            (0..n).collect::<Vec<_>>(),
            "the queue must deliver in the order it was filled"
        );
    }

    /// With a site unfinished, nothing queued and no timer armed, a run on
    /// one thread can never move again: the loop panics instead of
    /// sleeping forever.
    #[test]
    #[should_panic(expected = "the channel run stalled")]
    fn a_run_that_cannot_progress_panics() {
        let cfg = small(ProtocolKind::sc(), 0);
        // Unstarted: no site has armed a timer.
        let sites = SiteHost::new(&cfg, Vec::new(), None);
        let _ = earliest_deadline(&sites, &[]);
    }

    #[test]
    fn deadline_lands_on_the_tick_boundary_the_clock_will_read() {
        let tick = Duration::from_micros(50);
        let clock = TickClock::started_at(Instant::now(), tick);
        for k in [1u64, 3, 40] {
            let before = clock.now().ticks();
            let deadline = clock.deadline(clock.now(), Delta::from_ticks(k)).unwrap();
            let after = clock.now().ticks();
            // On a boundary: a whole number of ticks past the epoch…
            let offset = deadline.duration_since(clock.epoch).as_nanos() as u64;
            assert_eq!(offset % clock.tick_nanos, 0, "k={k}: off the tick grid");
            // …exactly k ticks past the reading it was computed from.
            let at = offset / clock.tick_nanos;
            assert!(
                (before + k..=after + k).contains(&at),
                "k={k}: deadline tick {at} not in [{}, {}]",
                before + k,
                after + k
            );
            // Never more than k ticks away: what is left of the current
            // tick counts towards the k.
            assert!(deadline.saturating_duration_since(Instant::now()) <= tick * k as u32);
        }
        // A thread woken at the deadline reads a clock that has advanced
        // by at least k: per-site times stay strictly increasing.
        let t = clock.now().ticks();
        let deadline = clock.deadline(clock.now(), Delta::from_ticks(2)).unwrap();
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        assert!(clock.now().ticks() >= t + 2);
    }

    #[test]
    fn deadline_rounds_zero_up_and_never_arms_infinity() {
        let clock = TickClock::started_at(Instant::now(), Duration::from_micros(50));
        let t = clock.now().ticks();
        let zero = clock.deadline(clock.now(), Delta::ZERO).unwrap();
        let t2 = clock.now().ticks();
        let at = zero.duration_since(clock.epoch).as_nanos() as u64 / clock.tick_nanos;
        assert!(
            (t + 1..=t2 + 1).contains(&at),
            "Delta::ZERO must mean the next tick boundary"
        );
        assert_eq!(clock.deadline(clock.now(), Delta::INFINITE), None);
    }

    /// One client and one shard of a fleet of one, stepped through `time`
    /// at fixed ticks: `Start` at 10, the op-issue timer at 13, the
    /// request at 14, the reply at 15. `at` renders a tick as the moment a
    /// driver observed it, `due` a deadline armed by a step at a tick as
    /// the tick it falls due at. Returns every effect but the timers, the
    /// timers as (tick due, token), and the liveness answers asked once the
    /// reply is in.
    fn exchange<T: TimeSource + Copy>(
        time: T,
        at: impl Fn(u64) -> T::At,
        due: impl Fn(u64, T::Deadline) -> u64,
    ) -> (Vec<Effect>, Vec<(u64, u64)>, [bool; 3]) {
        let (shard, site) = (NodeId::new(0), NodeId::new(1));
        let protocol = ProtocolConfig::of(ProtocolKind::sc());
        let think = Delta::from_ticks(3);
        let workload = Workload::new(4, 0.8, 1.0, (think, think));
        let engine = ClientEngine::new(protocol, vec![shard], 0, 1, workload, 2);
        let mut client = ClientCore::new(engine, Some(PrivateSources::new(7, 0, 1)), time, site);
        let mut server =
            ShardCore::new(ServerEngine::new(protocol), time, shard, &FaultPlan::none());
        let (mut effects, mut arms, mut out) = (Vec::new(), Vec::new(), Vec::new());
        // Each step's event is the op-issue timer or the previous step's send.
        let mut event = Event::Start;
        for tick in [10, 13, 14, 15] {
            let t = match tick {
                14 => server.step(event, at(tick), None, &mut out),
                _ => client.step(event, at(tick), None, &mut out),
            };
            assert_eq!(
                t,
                Time::from_ticks(tick),
                "a step runs at its observed tick"
            );
            event = Event::Timer {
                token: TIMER_NEXT_OP,
            };
            for effect in out.drain(..) {
                match effect {
                    Effect::SetTimer { after, token } => {
                        arms.push((due(tick, time.deadline(t, after).unwrap()), token));
                    }
                    Effect::Send { to, ref msg } => {
                        let from = if to == shard { site } else { shard };
                        let msg = msg.clone();
                        event = Event::Message { from, msg };
                        effects.push(effect);
                    }
                    _ => effects.push(effect),
                }
            }
        }
        let live = [
            client.timer_is_live(1), // the request's retry
            client.timer_is_live(TIMER_NEXT_OP),
            server.timer_is_live(TIMER_WAL_FLUSH),
        ];
        (effects, arms, live)
    }

    /// The node core steps alike under both time sources, at the tick the
    /// driver observed each event: the simulator's `(local, true)` readings
    /// and `Instant`s on a `TickClock` that already reads past tick 1 000
    /// give the same effects, the same timers due at the same ticks —
    /// counted from the step's tick, not the clock's — and the same
    /// liveness answers: the retry, due after the reply, is dead.
    #[test]
    fn a_node_steps_at_the_tick_the_driver_observed_it_under_both_clocks() {
        let tick = Duration::from_micros(50);
        let clock = TickClock::starting_at(Instant::now() - tick * 1_000, tick);
        let real = exchange(
            clock,
            |t| clock.epoch + tick * t as u32,
            |_, deadline| clock.tick_at(deadline).ticks(),
        );
        let simulated = exchange(
            SimClock,
            |t| (Time::from_ticks(t), Time::from_ticks(t)),
            |t, after| t + after.ticks().max(1),
        );
        assert_eq!(real, simulated);
        let (effects, arms, live) = real;
        let read_at_15 =
            |e: &Effect| matches!(e, Effect::Record(RecordOp::Read { at, .. }) if at.ticks() == 15);
        assert!(
            effects.iter().any(read_at_15),
            "the reply completes the read"
        );
        let retry_due = 13 + DEFAULT_RETRY_AFTER.ticks();
        assert_eq!(
            arms,
            [(13, TIMER_NEXT_OP), (retry_due, 1), (18, TIMER_NEXT_OP)]
        );
        assert_eq!(live, [false, true, true]);
    }

    #[test]
    fn delta_to_duration_never_arms_an_infinite_timer() {
        let clock = TickClock::started_at(Instant::now(), Duration::from_micros(50));
        assert_eq!(
            clock.delta_to_duration(Delta::from_ticks(3)),
            Some(Duration::from_micros(150))
        );
        // Zero rounds up to one tick so a due timer still makes progress.
        assert_eq!(
            clock.delta_to_duration(Delta::ZERO),
            Some(Duration::from_micros(50))
        );
        // The regression: an infinite delta used to produce a ~584-year
        // Duration and a timer that could never meaningfully fire.
        assert_eq!(clock.delta_to_duration(Delta::INFINITE), None);
    }

    #[test]
    fn threaded_fleet_shards_the_load_and_stays_consistent() {
        let mut cfg = small(ProtocolKind::sc(), 17);
        cfg.protocol = cfg.protocol.with_shards(4);
        let r = run_threaded(&cfg);
        assert_eq!(r.ops_done, 2 * 15, "every op must be recorded");
        assert!(r.on_time.holds(), "monitor must report zero violations");
        assert_eq!(r.shard_requests.len(), 4);
        assert!(
            r.shard_requests.iter().sum::<u64>() > 0,
            "the fleet must have served requests"
        );
        assert!(
            r.shard_requests.iter().filter(|&&n| n > 0).count() >= 2,
            "a 4-object keyspace over 4 shards must hit >1 shard: {:?}",
            r.shard_requests
        );
    }

    #[test]
    fn threaded_fleet_handles_sharded_causal_pushes() {
        use tc_lifetime::Propagation;
        let mut cfg = small(
            ProtocolKind::Tcc {
                delta: Delta::from_ticks(400),
            },
            19,
        );
        cfg.protocol = cfg.protocol.with_shards(2);
        cfg.protocol.propagation = Propagation::PushInvalidate;
        let r = run_threaded(&cfg);
        assert!(r.counter(names::PUSH) > 0, "pushes must flow");
        assert_done_on_time(&r, 2 * 15);
        assert_eq!(r.shard_requests.len(), 2);
    }

    #[test]
    fn threaded_causal_flushes_unacked_writes() {
        let r = run_threaded(&small(ProtocolKind::cc(), 13));
        assert_eq!(r.ops_done, 2 * 15);
        assert!(r.on_time.holds());
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let s = LatencySummary::from_durations((1..=100).map(Duration::from_micros).collect());
        assert_eq!(s.count, 100);
        assert!(s.mean_us <= s.p99_us && s.p99_us <= s.max_us);
        assert!((s.max_us - 100.0).abs() < 1e-6);
    }
}
