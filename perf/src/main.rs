//! `tc-perf`: the repository's one benchmark.
//!
//! ```text
//! tc-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tc-perf all [--seed <n>] [--seconds <s>] [--out <file>]
//! tc-perf compare <parent.json> <change.json>
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload, either its
//! end-to-end metrics (`--trace 0`) or its per-layer ledger (`--trace 1`),
//! with the result object on the last line of standard output. `all` runs
//! both for every workload and writes a result file; `compare` judges two
//! such files by each metric's direction and bound. See `README.md`.

mod alloc;
mod driver;
mod host;
mod json;
mod ledger;
mod measure;
mod probes;
mod report;
mod span;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use measure::Plan;
use report::Outcome;
use workloads::{Spec, SPECS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 23;
const DEFAULT_SECONDS: f64 = 10.0;
const EXIT_INCORRECT: u8 = 1;
const EXIT_USAGE: u8 = 2;
/// The workload needs more OS threads than the host has cores: its
/// numbers would measure the scheduler, so none are produced.
const EXIT_INVALID_HOST: u8 = 3;

const USAGE: &str = "usage:
  tc-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
  tc-perf all [--seed <n>] [--seconds <s>] [--out <file>]
  tc-perf compare <parent.json> <change.json>
workloads: sat-mixed sat-readhit paced-mixed wal-write tcc-mixed chan-pingpong";

/// Where logs, traces and result files go: `perf/out` of the checkout the
/// command runs in, else next to this package's manifest.
fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("perf/Cargo.toml").is_file() {
        PathBuf::from("perf/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// `--flag value` pairs, by flag.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument `{flag}`"));
            }
            let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{flag} {v}` is not a number")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.number("--seconds", DEFAULT_SECONDS)?;
        if s.is_finite() && s > 0.0 {
            Ok(s)
        } else {
            Err(format!("`--seconds {s}` is not a positive duration"))
        }
    }
}

/// Refuses a workload the host cannot give a core per thread.
fn fits_host(spec: &Spec) -> Result<(), String> {
    let nproc = host::nproc();
    if spec.threads() > nproc {
        Err(format!(
            "invalid: {} keeps {} OS threads busy and this host has {nproc} cores",
            spec.name,
            spec.threads()
        ))
    } else {
        Ok(())
    }
}

/// Non-zero whenever an operation or a check failed.
fn exit_code(outcomes: &[&Outcome]) -> u8 {
    if outcomes.iter().all(|o| o.correct()) {
        0
    } else {
        EXIT_INCORRECT
    }
}

fn run_one(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload").ok_or("`--workload` is required")?;
    let spec = Spec::find(name).ok_or(format!("no workload `{name}`"))?;
    let traced = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace {other}`: expected 0 or 1")),
    };
    let scratch = out_dir();
    let plan = Plan {
        spec,
        seed: flags.number("--seed", DEFAULT_SEED)?,
        seconds: flags.seconds()?,
        scratch: &scratch,
    };
    if let Err(why) = fits_host(spec) {
        eprintln!("{why}");
        return Ok(EXIT_INVALID_HOST);
    }
    let outcome = if traced {
        measure::per_layer(&plan)
    } else {
        measure::end_to_end(&plan)
    };
    println!("host: {}", host::Host::probe(&scratch).to_json());
    outcome.print();
    if traced {
        outcome.print_attribution();
    }
    println!("{}", outcome.result_line());
    Ok(exit_code(&[&outcome]))
}

fn run_all(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args, &["--seed", "--seconds", "--out"])?;
    let seed = flags.number("--seed", DEFAULT_SEED)?;
    let seconds = flags.seconds()?;
    let scratch = out_dir();
    let out = flags.get("--out").map_or_else(
        || scratch.join(format!("result-seed{seed}.json")),
        PathBuf::from,
    );
    let host = host::Host::probe(&scratch);
    println!("host: {}", host.to_json());

    let mut code = 0;
    let mut workloads = Vec::new();
    for spec in &SPECS {
        let mut fields = vec![
            ("name", Json::str(spec.name)),
            ("why", Json::str(spec.why)),
            ("threads", Json::Num(spec.threads() as f64)),
            ("gated", Json::Bool(spec.gated)),
        ];
        match fits_host(spec) {
            Err(why) => {
                println!("== {} · {why}", spec.name);
                code = EXIT_INVALID_HOST;
                fields.push(("valid", Json::Bool(false)));
            }
            Ok(()) => {
                let plan = Plan {
                    spec,
                    seed,
                    seconds,
                    scratch: &scratch,
                };
                let end_to_end = measure::end_to_end(&plan);
                end_to_end.print();
                let per_layer = measure::per_layer(&plan);
                per_layer.print();
                per_layer.print_attribution();
                println!();
                code = code.max(exit_code(&[&end_to_end, &per_layer]));
                let notes = end_to_end.notes.iter().chain(&per_layer.notes);
                fields.extend([
                    ("valid", Json::Bool(true)),
                    (
                        "attempted",
                        Json::Num((end_to_end.attempted + per_layer.attempted) as f64),
                    ),
                    (
                        "failed",
                        Json::Num((end_to_end.failed + per_layer.failed) as f64),
                    ),
                    ("notes", Json::Arr(notes.map(|n| Json::str(n)).collect())),
                    ("end_to_end", end_to_end.metrics_json()),
                    ("per_layer", per_layer.metrics_json()),
                ]);
            }
        }
        workloads.push(Json::obj(fields));
    }
    let file = Json::obj([
        ("schema", Json::str("tc-perf/1")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("tick_us", Json::Num(workloads::TICK.as_micros() as f64)),
        ("host", host.to_json()),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::write(&out, format!("{file}\n"))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(code)
}

fn run_compare(args: &[String]) -> Result<u8, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let regressions = report::compare(&read(a)?, &read(b)?)?;
    println!("{regressions} regressed");
    Ok(if regressions == 0 { 0 } else { EXIT_INCORRECT })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some(_) => run_one(&args),
        None => Err("no arguments".to_string()),
    };
    match run {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("tc-perf: {why}\n{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately broken check: expecting one operation more than the
    /// fleet was asked for must count as a failure and turn the exit code
    /// non-zero — the benchmark cannot pass by not looking.
    #[test]
    fn an_expected_count_off_by_one_fails_the_run() {
        let spec = Spec::find("chan-pingpong").expect("a workload of the table");
        let scratch = std::env::temp_dir();
        let rep = driver::run_rep(spec, 7, 50, &scratch);
        assert_eq!(driver::verify("rep", &rep, 50, None).0.count(), 0);
        let (broken, _) = driver::verify("rep", &rep, 51, None);
        assert_eq!(broken.missing, 1);
        let outcome = |failed| Outcome {
            workload: spec.name,
            traced: false,
            attempted: 51,
            failed,
            notes: Vec::new(),
            metrics: Vec::new(),
        };
        assert_eq!(exit_code(&[&outcome(0)]), 0);
        assert_ne!(exit_code(&[&outcome(0), &outcome(broken.count())]), 0);
    }

    /// A site that ran another program than the reference is caught.
    #[test]
    fn a_foreign_fingerprint_fails_the_run() {
        let spec = Spec::find("chan-pingpong").expect("a workload of the table");
        let rep = driver::run_rep(spec, 7, 50, &std::env::temp_dir());
        let own = driver::fingerprints(&rep.result.history, spec.sites, 50);
        assert_eq!(driver::verify("rep", &rep, 50, Some(&own)).0.count(), 0);
        let other = driver::run_rep(spec, 8, 50, &std::env::temp_dir());
        let foreign = driver::fingerprints(&other.result.history, spec.sites, 50);
        assert_eq!(driver::verify("rep", &rep, 50, Some(&foreign)).0.count(), 1);
    }

    /// `BENCHMARK.json` and the tables in this crate state the same
    /// workloads, metrics, units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| {
            file.get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .to_vec()
        };
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .expect("a string")
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = SPECS
            .iter()
            .filter(|s| s.gated)
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64).expect("a bound"),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = report::END_TO_END
            .iter()
            .map(|(d, b)| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                    *b,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = report::PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.word().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);
    }
}
