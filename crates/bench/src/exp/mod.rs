//! The experiments behind `tc-exp`, and the one table that registers them.
//!
//! Every experiment is a library function `fn(&Args) -> Report`: it reads
//! its declared flags through the one parser ([`args`]), computes, and
//! returns what it would print and write — tables and prose lines in
//! print order, any Perfetto traces behind `--trace`. The one emitter
//! (`emit`) puts the tables on stdout, the traces on disk, and everything
//! that is not the artifact (`wrote …`, wall-clock) on stderr, so a
//! `results/*.txt` file is exactly an experiment's stdout, and that file
//! is the experiment's one record.
//!
//! [`EXPERIMENTS`] is the table: subcommand, the paper artifact it
//! regenerates, its flags, the pinned flags behind each checked-in
//! `results/` file, and whether that file is deterministic (rewritten by
//! `tc-exp reproduce`, pinned byte-for-byte by
//! `tests/paper_reproduction.rs`) or carries wall-clock timings
//! (regenerated by hand, shape-checked by `tc-exp smoke`).
//!
//! `EXPERIMENTS.md` embeds every `results/` file verbatim between
//! `<!-- results/NAME.txt -->` and `<!-- end -->` markers; [`embed`]
//! rewrites those blocks, `tc-exp reproduce` calls it after writing
//! `results/`, and the reproduction test fails on a stale or missing one.

pub mod args;

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
pub use args::{Args, Key, Takes};

/// What one experiment run produced.
#[derive(Debug, Default)]
pub struct Report {
    blocks: Vec<Block>,
    /// Perfetto timelines by destination path (`--trace`).
    pub traces: Vec<(String, Value)>,
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

/// Flags as typed after the subcommand.
pub type Flags = &'static [&'static str];
/// A shape check on the report about to be written.
pub type Check = fn(&Report) -> Result<(), String>;

/// One row of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// The paper artifact (figure, section, promised study) it regenerates.
    pub paper: &'static str,
    /// Flags it accepts.
    pub keys: &'static [Key],
    /// The experiment itself.
    pub run: fn(&Args) -> Report,
    /// Whether its output is a pure function of its arguments. The
    /// deterministic `results/` files are rewritten by `tc-exp reproduce`
    /// and compared byte-for-byte in `tests/paper_reproduction.rs`; the
    /// others carry timings and are regenerated by hand.
    pub deterministic: bool,
    /// The checked-in files it produces: (pinned flags, name under
    /// `results/`).
    pub pinned: &'static [(Flags, &'static str)],
    /// How `tc-exp smoke` exercises it, if its output carries timings or
    /// files the reproduction test cannot pin: (smoke-size flags, shape
    /// check on the report about to be written).
    pub smoke: Option<(Flags, Check)>,
}

const OPS: Key = Key::new("ops", Takes::Uint);
const SEEDS: Key = Key::new("seeds", Takes::Uint);
const HISTORIES: Key = Key::new("histories", Takes::Uint);
const DELTA: Key = Key::new("delta", Takes::Uint);
const SMOKE: Key = Key::new("smoke", Takes::Switch);

/// Every experiment, in EXPERIMENTS.md order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "figures",
        paper: "Figures 1, 2-3, 5, 6, 7 (worked examples)",
        keys: figures::KEYS,
        run: figures::run,
        deterministic: true,
        pinned: &[(&[], "figures.txt")],
        smoke: None,
    },
    Experiment {
        name: "hierarchy",
        paper: "Figure 4a (containment lattice)",
        keys: &[HISTORIES, DELTA],
        run: hierarchy::run,
        deterministic: true,
        pinned: &[(&["--histories", "300"], "hierarchy.txt")],
        smoke: None,
    },
    Experiment {
        name: "delta-sweep",
        paper: "Figure 4b (Δ spans LIN to SC)",
        keys: &[HISTORIES],
        run: delta_sweep::run,
        deterministic: true,
        pinned: &[(&["--histories", "150"], "delta_sweep.txt")],
        smoke: None,
    },
    Experiment {
        name: "epsilon",
        paper: "Figures 2-3 / Definition 2 (ε sensitivity, Sim 3)",
        keys: &[HISTORIES, DELTA],
        run: epsilon::run,
        deterministic: true,
        pinned: &[(&["--histories", "150"], "epsilon.txt")],
        smoke: None,
    },
    Experiment {
        name: "delta-cost",
        paper: "§6 promised simulations: Δ vs cost (Sim 1)",
        keys: delta_cost::KEYS,
        run: delta_cost::run,
        deterministic: true,
        pinned: &[
            (&["--ops", "150", "--seeds", "5"], "delta_cost.txt"),
            (
                &["--ops", "150", "--seeds", "5", "--policy", "invalidate"],
                "delta_cost_invalidate.txt",
            ),
            (
                &["--ops", "150", "--seeds", "5", "--push"],
                "delta_cost_push.txt",
            ),
        ],
        smoke: None,
    },
    Experiment {
        name: "protocol-compare",
        paper: "§5.3 invalidation ordering TSC >= TCC >= CC (Sim 2)",
        keys: &[OPS, SEEDS, DELTA],
        run: protocol_compare::run,
        deterministic: true,
        pinned: &[(&["--ops", "150", "--seeds", "5"], "protocol_compare.txt")],
        smoke: None,
    },
    Experiment {
        name: "xi-quality",
        paper: "§5.4 / Definition 6 (logical-clock TCC, Sim 4)",
        keys: &[OPS, SEEDS],
        run: xi_quality::run,
        deterministic: true,
        pinned: &[(&["--ops", "150", "--seeds", "5"], "xi_quality.txt")],
        smoke: None,
    },
    Experiment {
        name: "web-cache",
        paper: "§4 web caching scenario and TTL study (Sim 5)",
        keys: &[OPS, SEEDS],
        run: web_cache::run,
        deterministic: true,
        pinned: &[(&["--ops", "150", "--seeds", "3"], "web_cache.txt")],
        smoke: None,
    },
    Experiment {
        name: "plausible",
        paper: "§5.3 plausible clocks (size vs accuracy)",
        keys: plausible::KEYS,
        run: plausible::run,
        deterministic: true,
        pinned: &[(&[], "plausible.txt")],
        smoke: None,
    },
    Experiment {
        name: "faults",
        paper: "§5 rules under message faults (conformance oracle)",
        keys: &[SEEDS, OPS],
        run: faults::run,
        deterministic: true,
        pinned: &[(&["--seeds", "5", "--ops", "40"], "faults.txt")],
        smoke: None,
    },
    Experiment {
        name: "checker-scale",
        paper: "Definitions 1-2 checked at scale (sweep line vs naive)",
        keys: &[SMOKE],
        run: checker_scale::run,
        deterministic: false,
        pinned: &[(&[], "checker_scale.txt")],
        smoke: Some((&["--smoke"], asserted_in_run)),
    },
    Experiment {
        name: "recovery",
        paper: "Δ bound across shard crash-restart (WAL replay)",
        keys: &[],
        run: recovery::run,
        deterministic: true,
        pinned: &[(&[], "recovery.txt")],
        smoke: None,
    },
    Experiment {
        name: "delta-adaptive",
        paper: "§6 Δ as a managed contract (adaptive vs static)",
        keys: delta_adaptive::KEYS,
        run: delta_adaptive::run,
        deterministic: true,
        pinned: &[(&[], "adaptive_delta.txt")],
        smoke: Some((
            &["--smoke", "--trace", "adaptive_trace.json"],
            delta_adaptive::check_smoke,
        )),
    },
];

/// Runs `exp` with `flags` (one of its pinned lists) and returns the text
/// artifact — what `tc-exp reproduce` writes and what the reproduction
/// test compares with `results/`.
///
/// # Panics
///
/// Panics if the table's own pinned flags do not parse.
#[must_use]
pub fn regenerate(exp: &Experiment, flags: &[&str]) -> String {
    let args = Args::parse(exp.keys, flags).expect("pinned flags parse");
    (exp.run)(&args).text()
}

/// Prints the report and writes its traces. `wrote …` lines go to
/// stderr: they name paths, not results.
fn emit(report: &Report) -> std::io::Result<()> {
    print!("{}", report.text());
    for (path, trace) in &report.traces {
        std::fs::write(path, serde_json::to_string(trace).expect("traces emit"))?;
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
        for (flags, file) in exp.pinned {
            write(&results.join(file), &regenerate(exp, flags))?;
        }
    }
    let doc_path = root.join("EXPERIMENTS.md");
    let mut doc = read(&doc_path)?;
    for (_, file) in EXPERIMENTS.iter().flat_map(|e| e.pinned) {
        doc = embed(&doc, file, &read(&results.join(file))?)?;
    }
    write(&doc_path, &doc)
}

/// `tc-exp smoke`: every experiment with a smoke entry, at smoke size,
/// shape-checked. Nothing is written.
fn smoke() -> Result<(), String> {
    for exp in EXPERIMENTS {
        let Some((flags, check)) = exp.smoke else {
            continue;
        };
        eprintln!("smoke: {} {}", exp.name, flags.join(" "));
        let report = (exp.run)(&Args::parse(exp.keys, flags).expect("smoke flags parse"));
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
        let files: Vec<&str> = exp.pinned.iter().map(|(_, file)| *file).collect();
        let output = if exp.deterministic {
            "deterministic"
        } else {
            "timing"
        };
        t.row(&[&exp.name, &exp.paper, &files.join(" "), &output]);
    }
    t.render()
}

const USAGE: &str = "usage: tc-exp <subcommand> [flags]
  list        print the experiment table
  reproduce   rewrite every deterministic results/*.txt and EXPERIMENTS.md's copies (run from the repository root)
  smoke       run the timing-bearing experiments at smoke size and check their shape
  <name>      run one experiment from the table; a wrong flag prints its usage";

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
/// [`Failure::Usage`] for anything the parser rejects,
/// [`Failure::Failed`] for a failed smoke check or write. A violated
/// experiment invariant panics.
pub fn cli(argv: &[String]) -> Result<(), Failure> {
    let (sub, rest) = argv
        .split_first()
        .ok_or_else(|| Failure::Usage(format!("missing subcommand\n{USAGE}")))?;
    if let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == sub) {
        let args = Args::parse(exp.keys, rest)
            .map_err(|why| Failure::Usage(format!("{why}\n{}", args::usage(exp.name, exp.keys))))?;
        return emit(&(exp.run)(&args)).map_err(|e| Failure::Failed(e.to_string()));
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
    fn subcommand_names_are_unique_and_smoke_flags_parse() {
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.name != exp.name),
                "{} registered twice",
                exp.name
            );
            if let Some((flags, _)) = exp.smoke {
                Args::parse(exp.keys, flags).unwrap_or_else(|why| panic!("{}: {why}", exp.name));
            }
        }
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
        ] {
            let argv: Vec<String> = words.iter().map(ToString::to_string).collect();
            assert!(
                matches!(cli(&argv), Err(Failure::Usage(_))),
                "{words:?} must be a usage error"
            );
        }
    }
}
