//! Simulation study 11: crash–restart recovery sweep over the WAL backend.
//!
//! The headline claim of PR 8 is that a killed durable shard *recovers
//! instead of forgetting*: restart replays the log back to the fsync
//! horizon, the only gap is the never-acked unfsynced tail, and the
//! checker-in-the-loop oracle accepts every run at the fsync-widened
//! bound. One seeded run proves an existence; this sweep makes it a
//! population claim: (protocol × fsync policy × seed) cells, each a
//! 2-shard run with shard 0 killed mid-flight, and **zero** cells may be
//! `Violated`.
//!
//! Reported per cell: the verdict, records replayed on restart, records
//! lost to the unfsynced tail, and completed operations. The summary
//! asserts:
//!
//! * no cell is `Violated` (faults may stall the protocol, never make it
//!   lie — the same contract as `tests/fault_conformance.rs`);
//! * a majority of cells fully `Conforms`;
//! * a majority of cells replayed at least one record (recovery is real,
//!   not an empty log — an individual cell may legitimately replay 0 when
//!   no write to the killed shard was fsynced before the kill landed);
//! * per-write cells lose exactly 0 records.
//!
//! Outputs a table (`results/recovery.txt`) and, with `--out PATH`, the
//! machine-readable document checked in as `BENCH_recovery.json`.

use super::{Args, Report};
use crate::{parallel_map, Table};
use tc_clocks::Delta;
use tc_durable::WalStore;
use tc_lifetime::store::ShardStore;
use tc_lifetime::{
    conformance, run_with, DurabilityMode, FsyncPolicy, OracleVerdict, ProtocolConfig,
    ProtocolKind, RunConfig, RunOptions,
};
use tc_sim::workload::Workload;
use tc_sim::{FaultPlan, Window, WorldConfig};

const N_CLIENTS: usize = 3;
const OPS: usize = 30;

fn policies() -> Vec<(&'static str, FsyncPolicy)> {
    vec![
        ("per-write", FsyncPolicy::PER_WRITE),
        (
            "group-8",
            FsyncPolicy {
                max_pending: 8,
                max_delay: Delta::from_ticks(50),
            },
        ),
        (
            "deadline-20",
            FsyncPolicy {
                max_pending: 1 << 20,
                max_delay: Delta::from_ticks(20),
            },
        ),
    ]
}

fn kinds() -> [ProtocolKind; 2] {
    [
        ProtocolKind::Tsc {
            delta: Delta::from_ticks(60),
        },
        ProtocolKind::Tcc {
            delta: Delta::from_ticks(60),
        },
    ]
}

struct Cell {
    protocol: String,
    policy: &'static str,
    seed: u64,
    verdict: OracleVerdict,
    replayed: u64,
    lost: u64,
    restarts: u64,
    ops_recorded: usize,
    ops_expected: usize,
}

fn run_cell(kind: ProtocolKind, name: &'static str, policy: FsyncPolicy, seed: u64) -> Cell {
    let cfg = RunConfig {
        protocol: ProtocolConfig::of(kind)
            .with_shards(2)
            .with_durability(DurabilityMode::Durable { fsync: policy }),
        n_clients: N_CLIENTS,
        workload: Workload::adversarial(),
        ops_per_client: OPS,
        world: WorldConfig::deterministic(Delta::from_ticks(3), seed),
    };
    let plan = FaultPlan::none().kill_shard(Window::ticks(250, 650), 0);
    let root = std::env::temp_dir().join(format!(
        "tc-recovery-{}-{}-{name}-{seed}",
        std::process::id(),
        kind.label(),
    ));
    let _ = std::fs::remove_dir_all(&root);
    let factory = |shard: usize| -> Box<dyn ShardStore> {
        Box::new(WalStore::open(
            root.join(format!("shard-{shard}")),
            shard as u16,
            64,
        ))
    };
    let result = run_with(
        &cfg,
        RunOptions {
            plan: plan.clone(),
            stores: Some(&factory),
            ..RunOptions::default()
        },
    );
    let c = conformance(&cfg, &plan, &result);
    let cell = Cell {
        protocol: kind.label().to_string(),
        policy: name,
        seed,
        verdict: c.verdict,
        replayed: result.counter("wal_replayed"),
        lost: result.counter("wal_lost"),
        restarts: result.counter("server_restart"),
        ops_recorded: c.ops_recorded,
        ops_expected: c.ops_expected,
    };
    let _ = std::fs::remove_dir_all(&root);
    cell
}

pub fn run(_args: &Args) -> Report {
    let seeds: &[u64] = &[7, 21, 99, 1999, 4242];

    let mut grid = Vec::new();
    for kind in kinds() {
        for (name, policy) in policies() {
            for &seed in seeds {
                grid.push((kind, name, policy, seed));
            }
        }
    }
    let cells = parallel_map(&grid, |(kind, name, policy, seed)| {
        run_cell(*kind, name, *policy, *seed)
    });

    let mut t = Table::new(
        "KillShard recovery sweep: 2 shards, shard 0 down for ticks \
         [250, 650), WAL backend, checker-in-the-loop oracle",
        &[
            "protocol", "policy", "seed", "verdict", "replayed", "lost", "restarts", "ops",
        ],
    );
    let mut rows = Vec::new();
    let (mut conformed, mut stalled) = (0usize, 0usize);
    for cell in &cells {
        let verdict = match &cell.verdict {
            OracleVerdict::Conforms => {
                conformed += 1;
                "conforms".to_string()
            }
            OracleVerdict::Stalled => {
                stalled += 1;
                "stalled".to_string()
            }
            OracleVerdict::Violated(why) => format!("VIOLATED: {why}"),
        };
        assert!(
            !matches!(cell.verdict, OracleVerdict::Violated(_)),
            "{} / {} / seed {}: {verdict}",
            cell.protocol,
            cell.policy,
            cell.seed
        );
        assert!(
            cell.restarts >= 1,
            "{} / {} / seed {}: the kill window must land",
            cell.protocol,
            cell.policy,
            cell.seed
        );
        if cell.policy == "per-write" {
            assert_eq!(
                cell.lost, 0,
                "{} / seed {}: per-write fsync has no unfsynced tail",
                cell.protocol, cell.seed
            );
        }
        t.row(&[
            &cell.protocol,
            &cell.policy,
            &cell.seed,
            &verdict,
            &cell.replayed,
            &cell.lost,
            &cell.restarts,
            &format!("{}/{}", cell.ops_recorded, cell.ops_expected),
        ]);
        rows.push(serde_json::json!({
            "protocol": (cell.protocol.clone()),
            "policy": (cell.policy),
            "seed": (cell.seed),
            "verdict": verdict,
            "replayed": (cell.replayed),
            "lost": (cell.lost),
            "restarts": (cell.restarts),
            "ops_recorded": (cell.ops_recorded),
            "ops_expected": (cell.ops_expected),
        }));
    }
    assert!(
        conformed * 2 > cells.len(),
        "only {conformed}/{} cells conformed — the outage stalls nearly everything",
        cells.len()
    );
    // Replay is judged over the population: any one cell may have had
    // nothing durable on the killed shard yet, but if *most* restarts
    // replay nothing the backend is forgetting, not recovering.
    let replaying = cells.iter().filter(|c| c.replayed > 0).count();
    assert!(
        replaying * 2 > cells.len(),
        "only {replaying}/{} restarts replayed any records",
        cells.len()
    );
    let mut report = Report::default();
    report.table(t);
    report.note(format!(
        "expected shape: every cell conforms or (rarely) stalls — never \
         violates; most restarts replay a non-empty log; lost records \
         appear only under batched fsync and are bounded by the group \
         size, 0 under per-write ({conformed} conformed, {stalled} \
         stalled, 0 violated of {} cells)",
        cells.len()
    ));
    report.doc = Some(serde_json::json!({
        "experiment": "recovery",
        "seeds": (seeds.to_vec()),
        "cells": rows,
        "conformed": conformed,
        "stalled": stalled,
    }));
    report
}
