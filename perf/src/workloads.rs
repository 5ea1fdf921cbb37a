//! The six workloads. Names, fleets and mixes are the benchmark's
//! contract: changing one starts a new baseline.
//!
//! Load model: closed loop. Each client *site* is a sequential caller with
//! a cache (the paper's model): it issues its next operation when the
//! previous one completed and its think time passed. Load is set by the
//! number of sites and the think time, never by a rate.

use std::path::PathBuf;
use std::time::Duration;

use tc_clocks::Delta;
use tc_lifetime::{DurabilityMode, FsyncPolicy, ProtocolConfig, ProtocolKind, RunConfig};
use tc_sim::workload::Workload;
use tc_sim::WorldConfig;
use tc_store::RuntimeConfig;

/// One protocol tick of the real drivers.
pub const TICK: Duration = Duration::from_micros(50);
/// Object popularity skew of every workload.
pub const ZIPF: f64 = 0.8;
/// One-way message delay of the virtual-clock runs (ledger loop and
/// simulator replay), as in `WorldConfig::deterministic`.
pub const VIRTUAL_LATENCY: Delta = Delta::from_ticks(3);
/// Group commit of `wal-write`: fsync at 8 pending records or after 20
/// ticks (1 ms), whichever comes first.
pub const FSYNC: FsyncPolicy = FsyncPolicy {
    max_pending: 8,
    max_delay: Delta::from_ticks(20),
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `tc_store::run_reactor`: one shard thread plus one client-reactor
    /// thread hosting every site, over loopback TCP and tc-wire.
    Reactor,
    /// `tc_store::run_threaded`: one thread per shard and per site, over
    /// in-process channels.
    Threaded,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Tsc,
    Tcc,
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub driver: Driver,
    pub family: Family,
    pub delta_ticks: u64,
    pub sites: usize,
    /// Operations each site performs in one repetition on the real driver,
    /// sized so that a repetition takes about a third of a second on two
    /// cores: many short repetitions make a steadier median than few long
    /// ones, because a driver's two threads settle into one rhythm per run.
    pub ops_per_site: usize,
    /// Operations each site performs in the ledger loop and the simulator
    /// replay. Longer than a repetition, so the counts are steadier from
    /// seed to seed; a site's program is a prefix of it.
    pub ledger_ops_per_site: usize,
    pub objects: usize,
    pub read_fraction: f64,
    pub think_ticks: u64,
    /// Shards run over `tc_durable::WalStore` under [`FSYNC`].
    pub wal: bool,
    /// Listed in `BENCHMARK.json`, i.e. run and held to the bounds by
    /// whatever gates a change. `wal-write` is not: its throughput is one
    /// over the fsync latency of the disk it happens to run on, and on a
    /// shared virtual disk that drifts twofold within minutes — a gate on
    /// it would flap. `tc-perf all` and `compare` cover it all the same.
    pub gated: bool,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "sat-mixed",
        why: "closed loop, 32 sites, no think time, 70% reads of 64 objects: saturates both reactor threads, so every socket-path layer works; the capacity headline",
        driver: Driver::Reactor,
        family: Family::Tsc,
        delta_ticks: 400,
        sites: 32,
        ops_per_site: 1_000,
        ledger_ops_per_site: 3_000,
        objects: 64,
        read_fraction: 0.7,
        think_ticks: 0,
        wal: false,
        gated: true,
    },
    Spec {
        name: "sat-readhit",
        why: "closed loop, reads only, 16 objects, long lifetime: all cache hits after first touch, so client engine, monitor and recorder do the work; wire and server changes must not move it",
        driver: Driver::Reactor,
        family: Family::Tsc,
        delta_ticks: 20_000,
        sites: 32,
        ops_per_site: 2_500,
        ledger_ops_per_site: 8_000,
        objects: 16,
        read_fraction: 1.0,
        think_ticks: 0,
        wal: false,
        gated: true,
    },
    Spec {
        name: "paced-mixed",
        why: "sat-mixed with 12 ticks of think time: well under capacity, so throughput follows latency; guards against batching that buys throughput with latency",
        driver: Driver::Reactor,
        family: Family::Tsc,
        delta_ticks: 400,
        sites: 32,
        ops_per_site: 400,
        ledger_ops_per_site: 3_000,
        objects: 64,
        read_fraction: 0.7,
        think_ticks: 12,
        wal: false,
        gated: true,
    },
    Spec {
        name: "wal-write",
        why: "80% writes over the write-ahead log with group commit (8 records or 1 ms): append, fsync and the ack-after-durable path dominate",
        driver: Driver::Reactor,
        family: Family::Tsc,
        delta_ticks: 400,
        sites: 32,
        ops_per_site: 200,
        ledger_ops_per_site: 600,
        objects: 64,
        read_fraction: 0.2,
        think_ticks: 0,
        wal: true,
        gated: false,
    },
    Spec {
        name: "tcc-mixed",
        why: "sat-mixed under timed causal consistency: a 32-entry vector clock on every frame, so bytes per op and clock costs show here",
        driver: Driver::Reactor,
        family: Family::Tcc,
        delta_ticks: 400,
        sites: 32,
        ops_per_site: 800,
        ledger_ops_per_site: 2_500,
        objects: 64,
        read_fraction: 0.7,
        think_ticks: 0,
        wal: false,
        gated: true,
    },
    Spec {
        name: "chan-pingpong",
        why: "one site over in-process channels, no wire format: throughput is the reciprocal of one op cycle of channel hop, timer wheel and tick rounding",
        driver: Driver::Threaded,
        family: Family::Tsc,
        delta_ticks: 400,
        sites: 1,
        ops_per_site: 2_000,
        ledger_ops_per_site: 60_000,
        objects: 64,
        read_fraction: 0.7,
        think_ticks: 0,
        wal: false,
        gated: true,
    },
];

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// OS threads the driver keeps busy (one shard everywhere).
    pub fn threads(&self) -> usize {
        match self.driver {
            Driver::Reactor => 2,
            Driver::Threaded => 1 + self.sites,
        }
    }

    pub fn protocol(&self) -> ProtocolConfig {
        let delta = Delta::from_ticks(self.delta_ticks);
        let protocol = ProtocolConfig::of(match self.family {
            Family::Tsc => ProtocolKind::Tsc { delta },
            Family::Tcc => ProtocolKind::Tcc { delta },
        });
        if self.wal {
            protocol.with_durability(DurabilityMode::Durable { fsync: FSYNC })
        } else {
            protocol
        }
    }

    fn workload(&self, objects: usize) -> Workload {
        let think = Delta::from_ticks(self.think_ticks);
        Workload::new(objects, ZIPF, self.read_fraction, (think, think))
    }

    /// The real-driver configuration of one repetition.
    pub fn runtime(
        &self,
        seed: u64,
        ops_per_site: usize,
        wal_dir: Option<PathBuf>,
    ) -> RuntimeConfig {
        assert_eq!(
            self.wal,
            wal_dir.is_some(),
            "a WAL directory iff the workload logs"
        );
        let mut config = RuntimeConfig::for_protocol(
            self.protocol(),
            self.sites,
            self.workload(self.objects),
            ops_per_site,
            seed,
        );
        config.tick = TICK;
        config.wal_dir = wal_dir;
        config
    }

    /// The same fleet and inputs for the simulator, over `objects` objects.
    pub fn sim(&self, seed: u64, ops_per_site: usize, objects: usize) -> RunConfig {
        RunConfig {
            protocol: self.protocol(),
            n_clients: self.sites,
            workload: self.workload(objects),
            ops_per_client: ops_per_site,
            world: WorldConfig::deterministic(VIRTUAL_LATENCY, seed),
        }
    }
}
