//! Repetitions of a workload on its real driver, and the checks every
//! repetition must pass.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use tc_core::checker::check_on_time;
use tc_core::{History, SiteId};
use tc_lifetime::store::{MemStore, ShardStore};
use tc_store::{run_reactor, run_threaded, RuntimeConfig, RuntimeResult};

use crate::host;
use crate::workloads::{Driver, Spec};

/// A directory for one run's write-ahead log, unique within the process.
/// `None` for workloads that keep shard state in memory.
pub fn wal_dir(spec: &Spec, scratch: &Path) -> Option<PathBuf> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    spec.wal.then(|| {
        scratch.join(format!(
            "wal-{}-{}-{}",
            spec.name,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    })
}

/// The shard store the ledger loop runs over: what
/// `tc_store::runtime::build_shard_engine` gives the real driver.
pub fn shard_store(wal_dir: Option<&Path>) -> Box<dyn ShardStore> {
    match wal_dir {
        None => Box::new(MemStore::new()),
        Some(dir) => Box::new(tc_durable::WalStore::open(
            dir.join("shard-0"),
            0,
            tc_durable::DEFAULT_SNAPSHOT_EVERY,
        )),
    }
}

pub fn remove_wal(dir: Option<&Path>) {
    if let Some(dir) = dir {
        // A leftover log only wastes space under the scratch directory.
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One repetition: the driver's result and the process CPU time it took.
pub struct Rep {
    pub config: RuntimeConfig,
    pub result: RuntimeResult,
    pub cpu_s: f64,
    pub sys_s: f64,
}

/// The numbers kept of a repetition once it is verified. (Its history is
/// not: thirty of them would be most of the process's memory.)
pub struct Sample {
    pub ops: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub sys_s: f64,
    pub stale_max_ticks: f64,
    pub lat_mean_us: f64,
    pub lat_p99_us: f64,
    pub lat_max_us: f64,
    pub shard_requests: f64,
    /// What the batch check of its history cost, per operation.
    pub recheck_ns_per_op: f64,
}

/// Runs the workload's fleet once, `ops_per_site` operations per site.
pub fn run_rep(spec: &Spec, seed: u64, ops_per_site: usize, scratch: &Path) -> Rep {
    let dir = wal_dir(spec, scratch);
    let config = spec.runtime(seed, ops_per_site, dir.clone());
    let before = host::usage();
    let result = match spec.driver {
        Driver::Reactor => run_reactor(&config),
        Driver::Threaded => run_threaded(&config),
    };
    let after = host::usage();
    remove_wal(dir.as_deref());
    Rep {
        config,
        result,
        cpu_s: after.cpu_s() - before.cpu_s(),
        sys_s: after.sys_s - before.sys_s,
    }
}

/// One hash per site over the first `ops_per_site` operations of its
/// program: (kind, object, written value) in program order. Values *read*
/// depend on timing and are left out, so the fingerprint depends on the
/// inputs alone and must agree between the real drivers, the ledger loop
/// and the simulator — also when one of them ran the program further.
pub fn fingerprints(history: &History, sites: usize, ops_per_site: usize) -> Vec<u64> {
    (0..sites)
        .map(|site| {
            let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
            let mut mix = |v: u64| {
                for b in v.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            for &id in history
                .site_ops(SiteId::new(site))
                .iter()
                .take(ops_per_site)
            {
                let op = history.op(id);
                mix(u64::from(op.is_write()));
                mix(u64::from(op.object().index()));
                mix(if op.is_write() { op.value().raw() } else { 0 });
            }
            h
        })
        .collect()
}

/// What went wrong in one run. Everything counts into the result's
/// `failed`, and any of it makes the command exit non-zero.
#[derive(Debug, Default)]
pub struct Failures {
    /// Operations attempted but not completed (or completed but never
    /// attempted: any distance from the expected count).
    pub missing: u64,
    /// Reads the live monitor judged late at the configured Δ.
    pub violations: u64,
    /// Checks of the output that did not hold, one line each.
    pub checks: Vec<String>,
}

impl Failures {
    pub fn count(&self) -> u64 {
        self.missing + self.violations + self.checks.len() as u64
    }

    pub fn absorb(&mut self, other: Failures) {
        self.missing += other.missing;
        self.violations += other.violations;
        self.checks.extend(other.checks);
    }
}

/// Checks one real-driver repetition — every operation completed, the live
/// monitor saw no late read at the configured Δ, the batch checker agrees
/// with it on the returned history, and, when `reference` holds the ledger
/// loop's fingerprints, every site ran exactly the reference program — and
/// reduces it to its [`Sample`].
pub fn verify(
    what: &str,
    rep: &Rep,
    expected_ops: usize,
    reference: Option<&[u64]>,
) -> (Failures, Sample) {
    let (config, result) = (&rep.config, &rep.result);
    let mut failures = Failures {
        missing: expected_ops.abs_diff(result.ops_done) as u64,
        violations: result.on_time.violations().len() as u64,
        checks: Vec::new(),
    };
    if result.on_time.delta() != config.monitor_delta {
        failures.checks.push(format!(
            "{what}: judged at Δ={}, configured {}",
            result.on_time.delta(),
            config.monitor_delta
        ));
    }
    let started = Instant::now();
    let batch = check_on_time(&result.history, config.monitor_delta, config.monitor_eps);
    let recheck_ns = started.elapsed().as_nanos() as f64;
    if batch.violations().len() != result.on_time.violations().len() {
        failures.checks.push(format!(
            "{what}: batch checker finds {} late reads, live monitor {}",
            batch.violations().len(),
            result.on_time.violations().len()
        ));
    }
    if let Some(reference) = reference {
        let got = fingerprints(&result.history, config.n_clients, config.ops_per_client);
        for (site, (g, r)) in got.iter().zip(reference).enumerate() {
            if g != r {
                failures.checks.push(format!(
                    "{what}: site {site} did not run the reference program"
                ));
            }
        }
    }
    let sample = Sample {
        ops: result.ops_done as f64,
        wall_s: result.wall.as_secs_f64(),
        cpu_s: rep.cpu_s,
        sys_s: rep.sys_s,
        stale_max_ticks: result.observed_staleness.ticks() as f64,
        lat_mean_us: result.latency.mean_us,
        lat_p99_us: result.latency.p99_us,
        lat_max_us: result.latency.max_us,
        shard_requests: result.shard_requests.iter().sum::<u64>() as f64,
        recheck_ns_per_op: recheck_ns / result.history.len().max(1) as f64,
    };
    (failures, sample)
}
