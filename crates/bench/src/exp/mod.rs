//! The experiments behind `tc-exp`, and the one table that registers them.
//!
//! Every experiment is a library function `fn() -> Report` that runs at
//! the one size its `results/` file records: its sizes are constants, not
//! flags. It returns what it would print and write — tables and prose
//! lines in print order, and any Perfetto timelines. The one emitter
//! (`emit`) puts the tables on stdout, the timelines on disk when
//! `--trace PATH` names a place for them, and everything that is not the
//! artifact (`wrote …`, wall-clock) on stderr, so a `results/*.txt` file
//! is exactly an experiment's stdout, and that file is the experiment's
//! one record.
//!
//! [`EXPERIMENTS`] is the table, one row per `results/` file: subcommand,
//! the paper artifact it regenerates, the run, its file, and whether that
//! file is deterministic (rewritten by `tc-exp reproduce`, pinned
//! byte-for-byte by `tests/paper_reproduction.rs`) or carries wall-clock
//! timings (regenerated by hand, shape-checked by `tc-exp smoke`).
//!
//! `EXPERIMENTS.md` embeds every `results/` file verbatim between
//! `<!-- results/NAME.txt -->` and `<!-- end -->` markers; [`embed`]
//! rewrites those blocks, `tc-exp reproduce` calls it after writing
//! `results/`, and the reproduction test fails on a stale or missing one.

mod checker_scale;
mod delta_adaptive;
mod delta_cost;
mod delta_sweep;
mod epsilon;
mod faults;
mod figures;
mod hierarchy;
mod plausible;
mod protocol_compare;
mod recovery;
mod web_cache;
mod xi_quality;

use std::path::Path;

use serde_json::Value;

use crate::Table;

/// What one experiment run produced.
#[derive(Debug, Default)]
pub struct Report {
    blocks: Vec<Block>,
    /// Perfetto timelines, each with the suffix its file name adds to the
    /// `--trace` path.
    pub traces: Vec<(&'static str, Value)>,
}

#[derive(Debug)]
enum Block {
    Table(Table),
    Note(String),
}

impl Report {
    /// Appends a table to the artifact.
    pub fn table(&mut self, table: Table) {
        self.blocks.push(Block::Table(table));
    }

    /// Appends one line of prose to the artifact.
    pub fn note(&mut self, line: impl Into<String>) {
        self.blocks.push(Block::Note(line.into()));
    }

    /// The artifact as printed: every table followed by a blank line,
    /// every note on its own line.
    #[must_use]
    pub fn text(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                Block::Table(t) => out.push_str(&t.render()),
                Block::Note(line) => out.push_str(line),
            }
            out.push('\n');
        }
        out
    }
}

/// A shape check on the report about to be written.
pub type Check = fn(&Report) -> Result<(), String>;

/// One row of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// The paper artifact (figure, section, promised study) it regenerates.
    pub paper: &'static str,
    /// The experiment itself, at the size its `results/` file records.
    pub run: fn() -> Report,
    /// The checked-in file it produces, under `results/`.
    pub file: &'static str,
    /// Whether its output is deterministic. The deterministic `results/`
    /// files are rewritten by `tc-exp reproduce` and compared
    /// byte-for-byte in `tests/paper_reproduction.rs`; the others carry
    /// timings and are regenerated by hand.
    pub deterministic: bool,
    /// How `tc-exp smoke` exercises it, if its output carries timings or
    /// timelines the reproduction test cannot pin: (the run at smoke size,
    /// shape check on its report).
    pub smoke: Option<(fn() -> Report, Check)>,
}

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "figures",
        paper: "Figures 1, 2-3, 5, 6, 7 (worked examples)",
        run: figures::run,
        file: "figures.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "hierarchy",
        paper: "Figure 4a (containment lattice)",
        run: hierarchy::run,
        file: "hierarchy.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "delta-sweep",
        paper: "Figure 4b (Δ spans LIN to SC)",
        run: delta_sweep::run,
        file: "delta_sweep.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "epsilon",
        paper: "Figures 2-3 / Definition 2 (ε sensitivity, Sim 3)",
        run: epsilon::run,
        file: "epsilon.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "delta-cost",
        paper: "§6 promised simulations: Δ vs cost (Sim 1)",
        run: delta_cost::run,
        file: "delta_cost.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "delta-cost-push",
        paper: "Sim 1 ablation: push invalidations instead of pull",
        run: delta_cost::push,
        file: "delta_cost_push.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "protocol-compare",
        paper: "§5.3 invalidation ordering TSC >= TCC >= CC (Sim 2)",
        run: protocol_compare::run,
        file: "protocol_compare.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "xi-quality",
        paper: "§5.4 / Definition 6 (logical-clock TCC, Sim 4)",
        run: xi_quality::run,
        file: "xi_quality.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "web-cache",
        paper: "§4 web caching scenario and TTL study (Sim 5)",
        run: web_cache::run,
        file: "web_cache.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "plausible",
        paper: "§5.3 plausible clocks (size vs accuracy)",
        run: plausible::run,
        file: "plausible.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "faults",
        paper: "§5 rules under message faults (conformance oracle)",
        run: faults::run,
        file: "faults.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: "checker-scale",
        paper: "Definitions 1-2 checked at scale (sweep line vs naive)",
        run: checker_scale::run,
        file: "checker_scale.txt",
        deterministic: false,
        smoke: Some((checker_scale::smoke, asserted_in_run)),
    },
    Experiment {
        name: "recovery",
        paper: "Δ bound across shard crash-restart (WAL replay)",
        run: recovery::run,
        file: "recovery.txt",
        deterministic: true,
        smoke: None,
    },
    Experiment {
        name: TRACED,
        paper: "§6 Δ as a managed contract (adaptive vs static)",
        run: delta_adaptive::run,
        file: "adaptive_delta.txt",
        deterministic: true,
        smoke: Some((delta_adaptive::smoke, delta_adaptive::check_smoke)),
    },
];

/// The one experiment whose report carries timelines, and so the one that
/// takes `--trace PATH`.
const TRACED: &str = "delta-adaptive";

/// Prints the report and, given a `--trace` path, writes its timelines.
/// `wrote …` lines go to stderr: they name paths, not results.
fn emit(report: &Report, trace: Option<&str>) -> std::io::Result<()> {
    print!("{}", report.text());
    let Some(base) = trace else {
        return Ok(());
    };
    for (suffix, timeline) in &report.traces {
        let path = format!("{base}{suffix}");
        std::fs::write(&path, serde_json::to_string(timeline).expect("traces emit"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The smoke check of an experiment whose run asserts its own shape.
fn asserted_in_run(_: &Report) -> Result<(), String> {
    Ok(())
}

/// Closes every `<!-- results/NAME.txt -->` block in `EXPERIMENTS.md`.
const END: &str = "<!-- end -->";

/// `doc` (the text of `EXPERIMENTS.md`) with the block of `results/file`
/// holding `content`, verbatim inside a `text` fence. A block opens with
/// its marker on a line of its own. The reproduction test calls a
/// document fresh when embedding every checked-in file leaves it
/// unchanged.
///
/// # Errors
///
/// When the document has no block for `file`, two of them, or a block
/// with no closing marker.
pub fn embed(doc: &str, file: &str, content: &str) -> Result<String, String> {
    let marker = format!("<!-- results/{file} -->");
    let open = format!("\n{marker}\n");
    let start = doc
        .find(&open)
        .ok_or_else(|| format!("no `{marker}` block"))?
        + open.len();
    if doc[start..].contains(&open) {
        return Err(format!("two `{marker}` blocks"));
    }
    let len = doc[start..]
        .find(END)
        .ok_or_else(|| format!("`{marker}` has no `{END}`"))?;
    Ok(format!(
        "{}```text\n{content}```\n{}",
        &doc[..start],
        &doc[start + len..]
    ))
}

/// `tc-exp reproduce`: rewrites every deterministic file under
/// `root/results`, then every block of `root/EXPERIMENTS.md` from the
/// files as they now stand.
fn reproduce(root: &Path) -> Result<(), String> {
    let read =
        |path: &Path| std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()));
    let write = |path: &Path, text: &str| {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    let results = root.join("results");
    for exp in EXPERIMENTS.iter().filter(|e| e.deterministic) {
        write(&results.join(exp.file), &(exp.run)().text())?;
    }
    let doc_path = root.join("EXPERIMENTS.md");
    let mut doc = read(&doc_path)?;
    for exp in EXPERIMENTS {
        doc = embed(&doc, exp.file, &read(&results.join(exp.file))?)?;
    }
    write(&doc_path, &doc)
}

/// `tc-exp smoke`: every experiment with a smoke entry, at smoke size,
/// shape-checked. Nothing is written.
fn smoke() -> Result<(), String> {
    for exp in EXPERIMENTS {
        let Some((run, check)) = exp.smoke else {
            continue;
        };
        eprintln!("smoke: {}", exp.name);
        let report = run();
        print!("{}", report.text());
        check(&report).map_err(|why| format!("{}: {why}", exp.name))?;
    }
    Ok(())
}

/// `tc-exp list`: the table, as a table.
fn list() -> String {
    let mut t = Table::new(
        "tc-exp subcommands",
        &["subcommand", "paper artifact", "results/", "output"],
    );
    for exp in EXPERIMENTS {
        let output = if exp.deterministic {
            "deterministic"
        } else {
            "timing"
        };
        t.row(&[&exp.name, &exp.paper, &exp.file, &output]);
    }
    t.render()
}

const USAGE: &str = "usage: tc-exp <subcommand>
  list        print the experiment table
  reproduce   rewrite every deterministic results/*.txt and EXPERIMENTS.md's copies (run from the repository root)
  smoke       run the timing-bearing experiments at smoke size and check their shape
  <name>      run one experiment from the table, at the size its results/ file records
  delta-adaptive --trace PATH
              also write its two Perfetto timelines, to PATH and PATH.static.json";

/// Why a `tc-exp` invocation did not succeed.
#[derive(Debug)]
pub enum Failure {
    /// The command line was wrong (exit status 2); carries usage.
    Usage(String),
    /// A smoke check or a write failed (exit status 1).
    Failed(String),
}

/// The `tc-exp` command line, minus the process exit.
///
/// # Errors
///
/// [`Failure::Usage`] for a subcommand not in the table or any word after
/// one but `delta-adaptive`'s `--trace PATH`,
/// [`Failure::Failed`] for a failed smoke check or write. A violated
/// experiment invariant panics.
pub fn cli(argv: &[String]) -> Result<(), Failure> {
    let (sub, rest) = argv
        .split_first()
        .ok_or_else(|| Failure::Usage(format!("missing subcommand\n{USAGE}")))?;
    if let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == sub) {
        let trace = match rest {
            [] => None,
            [flag, path] if exp.name == TRACED && flag == "--trace" && !path.starts_with("--") => {
                Some(path.as_str())
            }
            _ => {
                return Err(Failure::Usage(format!(
                    "`tc-exp {sub}` does not take `{}`\n{USAGE}",
                    rest.join(" ")
                )))
            }
        };
        return emit(&(exp.run)(), trace).map_err(|e| Failure::Failed(e.to_string()));
    }
    match (sub.as_str(), rest.is_empty()) {
        ("list", true) => {
            print!("{}", list());
            Ok(())
        }
        ("reproduce", true) => reproduce(Path::new("."))
            .map_err(|e| Failure::Failed(format!("{e} (run from the repository root)"))),
        ("smoke", true) => smoke().map_err(Failure::Failed),
        _ => Err(Failure::Usage(format!(
            "no subcommand `{}`\n{USAGE}",
            argv.join(" ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcommand_names_are_unique() {
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.name != exp.name),
                "{} registered twice",
                exp.name
            );
        }
        assert!(EXPERIMENTS.iter().any(|e| e.name == TRACED));
    }

    #[test]
    fn a_report_prints_tables_apart_and_notes_on_their_own_lines() {
        let mut r = Report::default();
        let mut t = Table::new("demo", &["a"]);
        t.row(&[&1]);
        r.table(t);
        r.note("expected shape: flat");
        assert_eq!(
            r.text(),
            "## demo\n| a |\n|---|\n| 1 |\n\nexpected shape: flat\n"
        );
    }

    #[test]
    fn embed_rewrites_exactly_one_block() {
        let doc = "# a\n<!-- results/x.txt -->\nold\n<!-- end -->\ntail\n";
        assert_eq!(
            embed(doc, "x.txt", "new\n").unwrap(),
            "# a\n<!-- results/x.txt -->\n```text\nnew\n```\n<!-- end -->\ntail\n"
        );
        let fresh = embed(doc, "x.txt", "new\n").unwrap();
        assert_eq!(embed(&fresh, "x.txt", "new\n").unwrap(), fresh);
        assert!(embed(doc, "y.txt", "").unwrap_err().contains("no `"));
        let twice = format!("{doc}{doc}");
        assert!(embed(&twice, "x.txt", "").unwrap_err().contains("two `"));
        let open = "# a\n<!-- results/x.txt -->\nold\n";
        assert!(embed(open, "x.txt", "").unwrap_err().contains("has no"));
    }

    #[test]
    fn unknown_subcommands_and_flags_are_usage_errors() {
        for words in [
            &[][..],
            &["fault"],
            &["delta-sweep", "--serial"],
            &["faults", "--push"],
            &["reproduce", "--check"],
            // Flags that set a size or variant before each experiment ran
            // at the one size its results/ file records.
            &["faults", "--seeds", "5"],
            &["figures", "--fig", "1"],
            &["delta-cost", "--push"],
            &["delta-cost", "--policy", "invalidate"],
            &["delta-adaptive", "--smoke"],
            // `--trace` needs a path, and only delta-adaptive has
            // timelines to write.
            &["delta-adaptive", "--trace"],
            &["delta-adaptive", "--trace", "--smoke"],
            &["delta-adaptive", "--trace", "a.json", "b.json"],
            &["faults", "--trace", "x.json"],
        ] {
            let argv: Vec<String> = words.iter().map(ToString::to_string).collect();
            assert!(
                matches!(cli(&argv), Err(Failure::Usage(_))),
                "{words:?} must be a usage error"
            );
        }
    }
}
