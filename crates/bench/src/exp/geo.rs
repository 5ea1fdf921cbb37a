//! Simulation study 12: multi-region geo replication under Δ-aware WAN
//! propagation.
//!
//! PR 10's tentpole claim is that the timed-consistency machinery
//! composes across regions: N shard fleets replicate server-to-server
//! over a jittered WAN, clients attach to their nearest region, and the
//! region-aware widened oracle still accepts every run. Three scenarios
//! exercise the claim through *both* drivers (discrete-event simulator
//! and the threaded real-time runtime):
//!
//! * **flash-crowd** — every client hammers one hot object, so every
//!   region continuously both produces and consumes remote writes;
//! * **partition** — one region loses its WAN links mid-run and heals;
//!   retransmission drains the backlog (availability during, timeliness
//!   after);
//! * **migration** — clients move between regions mid-workload, carrying
//!   their cache and `Context_i` through the attach handshake.
//!
//! On top of the scenario matrix, a Δ sweep over the flash-crowd
//! workload measures the paper's §6 trade-off: smaller Δ buys fresher
//! reads (lower observed staleness) at the price of more blocked/retried
//! operations (lower availability). Each curve row reports
//! `staleness` (the monitor's min-Δ in ticks) and `availability` — the
//! fraction of reads served immediately from cache rather than blocking
//! on a server round trip (`hits / (hits + fetches + validations)`) —
//! the unavailability-vs-inconsistency curve of Figure 4.
//!
//! The summary asserts:
//!
//! * **zero** cells — scenario or curve, either driver — are `Violated`;
//! * remote writes actually landed in every cell (`geo_applied > 0`);
//! * partition cells retransmitted (the outage was real);
//! * migration cells completed every scripted move;
//! * the curve spans at least two Δ values with availability in (0, 1].
//!
//! Outputs a table (`results/geo.txt`) and, with `--out PATH`, the
//! machine-readable document checked in as `BENCH_geo.json`.
//!
//! Flags: `--smoke` (fewer seeds/Δs — the CI bench-rot check), `--out
//! PATH`.

use std::collections::BTreeSet;

use super::{field, items, number, string, Args, Report};
use crate::{parallel_map, Table};
use tc_clocks::{Delta, Time};
use tc_lifetime::geo::RETX_AFTER;
use tc_lifetime::{
    conformance_geo, run_geo, GeoRunConfig, Migration, OracleVerdict, ProtocolConfig, ProtocolKind,
    RegionMap, StalePolicy, WanProfile,
};
use tc_sim::metrics::names;
use tc_sim::workload::Workload;
use tc_sim::{FaultPlan, Window, WorldConfig};
use tc_store::{run_threaded_geo, GeoRuntimeConfig};

const REGIONS: usize = 3;
const SHARDS_PER_REGION: usize = 2;
const CLIENTS_PER_REGION: usize = 2;
const N_CLIENTS: usize = REGIONS * CLIENTS_PER_REGION;
const SIM_OPS: usize = 20;

/// One finished cell, scenario or curve, either driver.
#[derive(Default)]
struct Cell {
    scenario: &'static str,
    driver: &'static str,
    delta: String,
    seed: u64,
    verdict: String,
    violated: bool,
    staleness: u64,
    ops: u64,
    hits: u64,
    blocked: u64,
    availability: f64,
    applied: u64,
    migrated: u64,
    retransmits: u64,
}

impl Cell {
    /// The counter-derived columns of a run, either driver's.
    /// Availability is the fraction of reads served from cache without a
    /// blocking server round trip; 1.0 when the run performed no reads.
    fn counted(counter: impl Fn(&str) -> u64) -> Cell {
        let hits = counter(names::CACHE_HIT);
        let blocked = counter(names::FETCH) + counter(names::VALIDATE);
        Cell {
            hits,
            blocked,
            availability: if hits + blocked == 0 {
                1.0
            } else {
                hits as f64 / (hits + blocked) as f64
            },
            applied: counter(names::GEO_APPLIED),
            migrated: counter(names::GEO_MIGRATED),
            retransmits: counter(names::GEO_BATCH_RETRANSMIT),
            ..Cell::default()
        }
    }
}

/// The hot-object workload of the flash-crowd scenario: one object,
/// write-heavy, short think times — every region continuously invalidates
/// every other.
fn flash_workload() -> Workload {
    Workload::new(1, 0.0, 0.5, (Delta::from_ticks(5), Delta::from_ticks(40)))
}

/// The mixed workload of the partition/migration scenarios (mirrors the
/// harness conformance tests).
fn mixed_workload() -> Workload {
    Workload::new(4, 0.8, 0.7, (Delta::from_ticks(5), Delta::from_ticks(40)))
}

fn sim_config(kind: ProtocolKind, workload: Workload, seed: u64) -> GeoRunConfig {
    GeoRunConfig {
        protocol: ProtocolConfig::of(kind).with_shards(SHARDS_PER_REGION),
        regions: RegionMap::new(REGIONS, SHARDS_PER_REGION),
        wan: WanProfile {
            lat_lo: 40,
            lat_hi: 60,
            skew_step: 3,
        },
        clients_per_region: CLIENTS_PER_REGION,
        workload,
        ops_per_client: SIM_OPS,
        world: WorldConfig::deterministic(Delta::from_ticks(2), seed),
        migrations: Vec::new(),
    }
}

/// One simulator run, judged by the geo oracle.
fn sim_cell(
    scenario: &'static str,
    delta: String,
    seed: u64,
    config: &GeoRunConfig,
    plan: &FaultPlan,
) -> Cell {
    let result = run_geo(config, plan.clone());
    let c = conformance_geo(config, plan, &result);
    Cell {
        scenario,
        driver: "sim",
        delta,
        seed,
        verdict: format!("{:?}", c.verdict),
        violated: matches!(c.verdict, OracleVerdict::Violated(_)),
        staleness: c.observed_staleness.ticks(),
        ops: result.history.len() as u64,
        ..Cell::counted(|name| result.counter(name))
    }
}

/// The three scenarios, simulator driver.
fn run_sim_scenario(scenario: &'static str, seed: u64) -> Cell {
    let delta = Delta::from_ticks(200);
    let kind = ProtocolKind::Tcc { delta };
    let mut config = match scenario {
        "flash-crowd" => sim_config(kind, flash_workload(), seed),
        _ => sim_config(kind, mixed_workload(), seed),
    };
    let plan = match scenario {
        "partition" => {
            // Cut region 2 — shards, relay, and home clients — off the
            // world for 600 ticks; its clients keep operating locally.
            let map = config.regions;
            let mut isolated = map.region_shards(REGIONS - 1);
            isolated.push(map.relay_node(REGIONS - 1));
            for c in 0..CLIENTS_PER_REGION {
                isolated.push(map.client_base() + (REGIONS - 1) * CLIENTS_PER_REGION + c);
            }
            FaultPlan::none().partition(Window::ticks(200, 800), isolated)
        }
        _ => FaultPlan::none(),
    };
    if scenario == "migration" {
        config.migrations = vec![
            Migration {
                client: 0,
                at_op: 8,
                to_region: 2,
            },
            Migration {
                client: N_CLIENTS - 1,
                at_op: 12,
                to_region: 1,
            },
        ];
    }
    sim_cell(scenario, delta.ticks().to_string(), seed, &config, &plan)
}

/// The three scenarios, threaded real-time driver.
fn run_threaded_scenario(scenario: &'static str, seed: u64, ops: usize) -> Cell {
    let delta = Delta::from_ticks(400);
    let mut protocol =
        ProtocolConfig::of(ProtocolKind::Tcc { delta }).with_shards(SHARDS_PER_REGION);
    protocol.stale = StalePolicy::Invalidate;
    let workload = match scenario {
        "flash-crowd" => flash_workload(),
        _ => mixed_workload(),
    };
    let mut cfg = GeoRuntimeConfig::for_protocol(
        protocol,
        RegionMap::new(REGIONS, SHARDS_PER_REGION),
        WanProfile::symmetric(20, 60),
        CLIENTS_PER_REGION,
        workload,
        ops,
        seed,
    );
    match scenario {
        "partition" => {
            // Region 2 off the WAN for 2 000 ticks mid-run; widen the
            // monitor by the blackout plus a retransmit round, exactly as
            // the simulator oracle widens for disruption.
            cfg.wan_outages = vec![(REGIONS - 1, Time::from_ticks(500), Time::from_ticks(2_500))];
            cfg = cfg.widen_monitor(2_000 + 2 * RETX_AFTER.ticks());
        }
        "migration" => {
            cfg.migrations = vec![
                Migration {
                    client: 0,
                    at_op: ops / 3,
                    to_region: 2,
                },
                Migration {
                    client: N_CLIENTS - 1,
                    at_op: ops / 2,
                    to_region: 1,
                },
            ];
        }
        _ => {}
    }
    let r = run_threaded_geo(&cfg);
    let verdict = if r.on_time.holds() {
        "Conforms".to_string()
    } else {
        "Violated".to_string()
    };
    Cell {
        scenario,
        driver: "threaded",
        delta: delta.ticks().to_string(),
        seed,
        violated: !r.on_time.holds(),
        verdict,
        staleness: r.observed_staleness.ticks(),
        ops: r.ops_done as u64,
        ..Cell::counted(|name| r.counter(name))
    }
}

/// One point of the staleness-vs-availability curve: the flash-crowd
/// workload at a given Δ (`None` = untimed Cc, the Δ = ∞ endpoint).
fn run_curve_point(delta: Option<u64>, seed: u64) -> Cell {
    let kind = match delta {
        Some(ticks) => ProtocolKind::Tcc {
            delta: Delta::from_ticks(ticks),
        },
        None => ProtocolKind::Cc,
    };
    let label = delta.map_or_else(|| "inf".to_string(), |t| t.to_string());
    let config = sim_config(kind, flash_workload(), seed);
    sim_cell("curve", label, seed, &config, &FaultPlan::none())
}

const SCENARIOS: [&str; 3] = ["flash-crowd", "partition", "migration"];

pub fn run(args: &Args) -> Report {
    let smoke = args.switch("smoke");

    let sim_seeds: Vec<u64> = if smoke { vec![7] } else { vec![7, 21, 99] };
    let threaded_seeds: Vec<u64> = if smoke { vec![51] } else { vec![51, 57] };
    let threaded_ops = if smoke { 20 } else { 30 };
    let deltas: Vec<Option<u64>> = if smoke {
        vec![Some(100), Some(400), None]
    } else {
        vec![Some(50), Some(100), Some(200), Some(400), Some(800), None]
    };

    // Scenario matrix. Simulator cells are independent single-threaded
    // runs — fan out. Threaded cells each spawn a full fleet of OS
    // threads; run them sequentially to keep the timing honest.
    let sim_grid: Vec<(&'static str, u64)> = SCENARIOS
        .iter()
        .flat_map(|s| sim_seeds.iter().map(move |&seed| (*s, seed)))
        .collect();
    let mut cells: Vec<Cell> = parallel_map(&sim_grid, |&(scenario, seed)| {
        run_sim_scenario(scenario, seed)
    });
    for &scenario in &SCENARIOS {
        for &seed in &threaded_seeds {
            cells.push(run_threaded_scenario(scenario, seed, threaded_ops));
        }
    }

    // The Δ sweep (the measured §6 trade-off curve).
    let curve_grid: Vec<(Option<u64>, u64)> = deltas
        .iter()
        .flat_map(|&d| sim_seeds.iter().map(move |&seed| (d, seed)))
        .collect();
    let curve: Vec<Cell> = parallel_map(&curve_grid, |&(d, seed)| run_curve_point(d, seed));

    let mut t = Table::new(
        "geo: 3-region fleets, Δ-aware WAN propagation",
        &[
            "scenario",
            "driver",
            "delta",
            "seed",
            "verdict",
            "staleness",
            "ops",
            "hits",
            "blocked",
            "availability",
            "applied",
            "migrated",
            "retx",
        ],
    );
    for c in cells.iter().chain(curve.iter()) {
        let avail = format!("{:.4}", c.availability);
        t.row(&[
            &c.scenario,
            &c.driver,
            &c.delta,
            &c.seed,
            &c.verdict,
            &c.staleness,
            &c.ops,
            &c.hits,
            &c.blocked,
            &avail,
            &c.applied,
            &c.migrated,
            &c.retransmits,
        ]);
    }
    // Population claims — the PR's acceptance bar.
    let violated = cells
        .iter()
        .chain(curve.iter())
        .filter(|c| c.violated)
        .count();
    assert_eq!(violated, 0, "no cell may be Violated");
    for c in &cells {
        assert!(
            c.applied > 0,
            "{} / {} / seed {}: no remote write landed",
            c.scenario,
            c.driver,
            c.seed
        );
        assert_eq!(
            c.ops,
            (N_CLIENTS
                * if c.driver == "sim" {
                    SIM_OPS
                } else {
                    threaded_ops
                }) as u64,
            "{} / {} / seed {}: operations lost",
            c.scenario,
            c.driver,
            c.seed
        );
        if c.scenario == "partition" {
            assert!(
                c.retransmits > 0,
                "{} / seed {}: the outage forced no retransmission",
                c.driver,
                c.seed
            );
        }
        if c.scenario == "migration" {
            assert_eq!(
                c.migrated, 2,
                "{} / seed {}: a scripted move did not complete",
                c.driver, c.seed
            );
        }
    }
    let distinct_deltas: BTreeSet<&str> = curve.iter().map(|c| c.delta.as_str()).collect();
    assert!(
        distinct_deltas.len() >= 2,
        "the curve must span at least two Δ values"
    );
    for c in &curve {
        assert!(
            c.availability > 0.0 && c.availability <= 1.0,
            "availability out of range: {}",
            c.availability
        );
    }

    let cell_json = |c: &Cell| {
        serde_json::json!({
            "scenario": (c.scenario),
            "driver": (c.driver),
            "delta": (c.delta.clone()),
            "seed": (c.seed),
            "verdict": (c.verdict.clone()),
            "staleness": (c.staleness),
            "ops": (c.ops),
            "cache_hits": (c.hits),
            "blocked_reads": (c.blocked),
            "availability": (c.availability),
            "geo_applied": (c.applied),
            "geo_migrated": (c.migrated),
            "geo_retransmits": (c.retransmits),
        })
    };
    let mut report = Report::default();
    report.table(t);
    report.doc = Some(serde_json::json!({
        "experiment": "geo",
        "smoke": smoke,
        "regions": REGIONS,
        "shards_per_region": SHARDS_PER_REGION,
        "clients_per_region": CLIENTS_PER_REGION,
        "sim_seeds": sim_seeds,
        "threaded_seeds": threaded_seeds,
        "scenarios": (cells.iter().map(cell_json).collect::<Vec<_>>()),
        "curve": (curve.iter().map(cell_json).collect::<Vec<_>>()),
        "violated": violated,
    }));
    report
}

/// The distinct values of string column `key`.
fn distinct<'a>(rows: &'a [serde_json::Value], key: &str) -> Result<BTreeSet<&'a str>, String> {
    rows.iter().map(|r| string(r, key)).collect()
}

/// The document's scenario matrix and staleness/availability curve keep
/// the columns its consumers plot the §6 trade-off from, with sane values.
pub fn check_smoke(report: &Report) -> Result<(), String> {
    let doc = report.doc.as_ref().ok_or("no document")?;
    if number(doc, "violated")? != 0.0 {
        return Err("cells violated the widened bound".to_string());
    }
    let (cells, curve) = (items(doc, "scenarios")?, items(doc, "curve")?);
    if distinct(cells, "scenario")? != BTreeSet::from(SCENARIOS) {
        return Err("scenario matrix lost a scenario".to_string());
    }
    if distinct(cells, "driver")? != BTreeSet::from(["sim", "threaded"]) {
        return Err("scenario matrix lost a driver".to_string());
    }
    for row in cells.iter().chain(curve) {
        let availability = number(row, "availability")?;
        number(row, "staleness")?;
        if string(row, "verdict")?.starts_with("Violated")
            || !(availability > 0.0 && availability <= 1.0)
        {
            return Err(format!("bad row {}", field(row, "scenario")?));
        }
    }
    if distinct(curve, "delta")?.len() < 2 {
        return Err("curve must span >= 2 deltas".to_string());
    }
    Ok(())
}
