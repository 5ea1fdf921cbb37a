//! End-to-end reproduction tests: every claim the paper makes about its
//! figures and definitions, checked through the public facade — the
//! checked-in `results/` pinned to what the experiment table regenerates,
//! and `EXPERIMENTS.md`'s copies of them pinned to `results/`.

use std::collections::BTreeSet;
use std::path::Path;

use tc_bench::exp::{embed, EXPERIMENTS};
use timed_consistency::clocks::{Delta, Epsilon, NormXi, SumXi, XiMap};
use timed_consistency::core::checker::{
    check_on_time, classify, min_delta, satisfies_cc, satisfies_lin, satisfies_sc, satisfies_tcc,
    satisfies_tsc,
};
use timed_consistency::core::examples::{
    fig1_execution, fig5_execution, fig5b_serialization, fig6_execution,
};
use timed_consistency::core::History;
use timed_consistency::lifetime::{ProtocolConfig, ProtocolKind};
use timed_consistency::sim::metrics::names;
use timed_consistency::sim::workload::Workload;
use timed_consistency::store::{run_threaded, RuntimeConfig};

#[test]
fn figure1_claims() {
    let h = fig1_execution();
    // "The execution showed in Figure 1 satisfies SC and CC but not LIN."
    assert!(satisfies_sc(&h).holds());
    assert!(satisfies_cc(&h).holds());
    assert!(!satisfies_lin(&h).holds());
    // "...these read operations do not return this value" past Δ.
    assert!(!satisfies_tsc(&h, Delta::from_ticks(100)).holds());
    assert!(satisfies_tsc(&h, min_delta(&h)).holds());
}

#[test]
fn figure4a_hierarchy_on_paper_examples() {
    for (h, delta) in [
        (fig1_execution(), Delta::from_ticks(100)),
        (fig5_execution(), Delta::from_ticks(50)),
        (fig6_execution(), Delta::from_ticks(30)),
    ] {
        let c = classify(&h, delta);
        assert_eq!(
            c.hierarchy_violation(),
            None,
            "hierarchy must hold on the paper's own figures"
        );
    }
}

#[test]
fn figure4b_delta_endpoints() {
    // "when Δ is 0, timed consistency becomes LIN ... both SC and LIN can
    // be seen as particular cases of TSC".
    for text in [
        "w0(X)1@10 r1(X)1@20",
        "w0(X)7@100 w1(X)1@80 r1(X)1@140",
        "w0(X)1@10 r0(Y)0@20 w1(Y)2@11 r1(X)0@21",
    ] {
        let h = History::parse(text).unwrap();
        assert_eq!(
            satisfies_tsc(&h, Delta::INFINITE).outcome(),
            satisfies_sc(&h).outcome(),
            "TSC(∞) = SC on {text}"
        );
    }
    // Δ=0 equals LIN whenever reads-from does not cross time backwards
    // (always true for executions produced by real runs).
    let h = fig1_execution();
    assert_eq!(
        satisfies_tsc(&h, Delta::ZERO).holds(),
        satisfies_lin(&h).holds()
    );
}

#[test]
fn figure5_exact_numbers() {
    let h = fig5_execution();
    let s = fig5b_serialization(&h);
    assert!(s.is_legal(&h) && s.respects_program_order(&h));
    assert_eq!(min_delta(&h), Delta::from_ticks(96));
    assert!(!satisfies_tsc(&h, Delta::from_ticks(50)).holds());
    assert!(satisfies_tsc(&h, Delta::from_ticks(96)).holds());
    // The secondary 27-tick constraint from r3(B)2@301 vs w2(B)5@274.
    let rep = check_on_time(&h, Delta::from_ticks(20), Epsilon::ZERO);
    assert!(rep
        .violations()
        .iter()
        .any(|v| v.min_delta == Delta::from_ticks(27)));
}

#[test]
fn figure6_exact_numbers() {
    let h = fig6_execution();
    assert!(satisfies_cc(&h).holds());
    assert!(satisfies_sc(&h).outcome().fails());
    assert!(!satisfies_tcc(&h, Delta::from_ticks(30)).holds());
    assert!(satisfies_tcc(&h, Delta::from_ticks(80)).holds());
    assert_eq!(min_delta(&h), Delta::from_ticks(80));
}

#[test]
fn figure7_xi_values() {
    assert_eq!(NormXi.xi(&[3, 4]), 5.0);
    assert!((NormXi.xi(&[3, 2]) - 3.61).abs() < 0.01);
    assert!((NormXi.xi(&[2, 4]) - 4.47).abs() < 0.01);
    // §5.4's worked example: <35,4,0,72> knows 111 events, <2,1,0,18>
    // knows 21; any Δ < 90 invalidates the old version.
    assert_eq!(SumXi.xi(&[35, 4, 0, 72]), 111.0);
    assert_eq!(SumXi.xi(&[2, 1, 0, 18]), 21.0);
}

#[test]
fn definition2_reduces_to_definition1_at_zero_epsilon() {
    for h in [fig1_execution(), fig5_execution(), fig6_execution()] {
        for d in [0u64, 27, 80, 96, 200] {
            let delta = Delta::from_ticks(d);
            assert_eq!(
                check_on_time(&h, delta, Epsilon::ZERO).holds(),
                check_on_time(&h, delta, Epsilon::from_ticks(0)).holds()
            );
        }
    }
}

#[test]
fn epsilon_only_weakens_the_check() {
    // Definition 2's window is 2ε shorter: any history timed at ε=0 stays
    // timed at larger ε, for every Δ.
    for h in [fig1_execution(), fig5_execution(), fig6_execution()] {
        for d in [0u64, 27, 80, 96, 150, 280] {
            let delta = Delta::from_ticks(d);
            let strict = check_on_time(&h, delta, Epsilon::ZERO).holds();
            for e in [1u64, 5, 20, 100] {
                let relaxed = check_on_time(&h, delta, Epsilon::from_ticks(e)).holds();
                assert!(
                    !strict || relaxed,
                    "ε={e} must not reject a Δ={d} history accepted at ε=0"
                );
            }
        }
    }
}

/// Figure 4b's Δ knob on real threads, judged by the live monitor: Δ = ∞
/// (`cc()`) serves reads from the cache, a bounded Δ keeps most of those
/// hits at the price of validations, Δ below the think time leaves nothing
/// cacheable, and `NoCache` is the Δ = 0 endpoint.
#[test]
fn figure4b_delta_spectrum_on_the_threaded_driver() {
    const SITES: usize = 4;
    const OPS: usize = 150;
    // (hit rate, validations) of one monitored run.
    let spectrum = |kind: ProtocolKind| {
        let run = run_threaded(&RuntimeConfig::for_protocol(
            ProtocolConfig::of(kind),
            SITES,
            Workload::interactive(),
            OPS,
            7,
        ));
        assert!(run.on_time.holds(), "{kind:?}: the live monitor must hold");
        assert_eq!(run.ops_done, SITES * OPS, "{kind:?}: every op completes");
        (run.hit_rate(), run.counter(names::VALIDATE))
    };
    let tcc = |ticks| ProtocolKind::Tcc {
        delta: Delta::from_ticks(ticks),
    };
    let (cc_hit, cc_val) = spectrum(ProtocolKind::cc());
    let (mid_hit, _) = spectrum(tcc(200));
    let (tight_hit, tight_val) = spectrum(tcc(1));
    let (nocache_hit, _) = spectrum(ProtocolKind::NoCache);
    // Hit rates and counts only: staleness orderings move with host
    // scheduling. Measured 0.30 / 0.25 / 0 / 0 and 257 / 278 / 386 / 0.
    assert!(mid_hit > 0.15, "a bounded Δ keeps the cache: {mid_hit}");
    assert!(cc_hit >= mid_hit - 0.1, "Δ = ∞: {cc_hit} vs {mid_hit}");
    assert!(tight_hit < 0.05, "Δ below the think time: {tight_hit}");
    assert_eq!(nocache_hit, 0.0, "NoCache never hits");
    assert!(
        tight_val > cc_val,
        "a tight Δ validates more: {tight_val} vs {cc_val}"
    );
}

/// `results/` is the reproduction's evidence, so it must be what the code
/// prints today: every deterministic artifact is regenerated in-process
/// through the `tc-exp` table — the run `tc-exp reproduce` writes and a
/// bare `tc-exp <name>` prints — and compared byte-for-byte. Re-bless a deliberate change with
/// `cargo run --release -p tc-bench --bin tc-exp -- reproduce`.
#[test]
fn results_are_what_the_experiments_print() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut stale = Vec::new();
    for exp in EXPERIMENTS.iter().filter(|e| e.deterministic) {
        let produced = (exp.run)().text();
        let checked_in = std::fs::read_to_string(dir.join(exp.file)).unwrap_or_default();
        if produced == checked_in {
            continue;
        }
        let (new, old) = (produced.lines(), checked_in.lines());
        let line = new.zip(old).take_while(|(new, old)| new == old).count();
        stale.push(format!(
            "results/{}:{}: checked in {:?}, `tc-exp {}` prints {:?}",
            exp.file,
            line + 1,
            checked_in.lines().nth(line).unwrap_or("<end of file>"),
            exp.name,
            produced.lines().nth(line).unwrap_or("<end of file>"),
        ));
    }
    assert!(
        stale.is_empty(),
        "{} stale result file(s); `tc-exp reproduce` rewrites them:\n{}",
        stale.len(),
        stale.join("\n")
    );
}

/// Every `results/*.txt` is produced by exactly one row of the experiment
/// table, and every row's file is checked in.
#[test]
fn every_results_file_has_exactly_one_producer() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").file_name())
        .map(|name| name.into_string().expect("utf-8 file name"))
        .collect();
    let mut produced = BTreeSet::new();
    for exp in EXPERIMENTS {
        assert!(
            produced.insert(exp.file.to_string()),
            "results/{} has two producers",
            exp.file
        );
    }
    assert_eq!(on_disk, produced, "results/ vs the tc-exp table");
}

/// `EXPERIMENTS.md` embeds every `results/` file exactly once, as checked
/// in: embedding each file again must leave the document unchanged, and
/// no block may name a file the experiment table does not produce.
/// `tc-exp reproduce` rewrites the blocks.
#[test]
fn experiments_md_embeds_every_results_file_as_checked_in() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let files: Vec<&str> = EXPERIMENTS.iter().map(|exp| exp.file).collect();
    let mut stale = Vec::new();
    for file in &files {
        let checked_in =
            std::fs::read_to_string(root.join("results").join(file)).unwrap_or_default();
        match embed(&doc, file, &checked_in) {
            Ok(fresh) if fresh == doc => {}
            Ok(_) => stale.push(format!("{file}: the block is not results/{file}")),
            Err(why) => stale.push(format!("{file}: {why}")),
        }
    }
    assert!(
        stale.is_empty(),
        "{} stale or missing EXPERIMENTS.md block(s); `tc-exp reproduce` rewrites them:\n{}",
        stale.len(),
        stale.join("\n")
    );
    assert_eq!(
        doc.matches("\n<!-- results/").count(),
        files.len(),
        "EXPERIMENTS.md has a block for a file no experiment produces"
    );
}
