//! The one argument parser behind every `tc-exp` subcommand.
//!
//! Each experiment declares the flags it takes as a list of [`Key`]s;
//! [`Args::parse`] accepts exactly those plus the global `--json`, and
//! turns everything else — an unknown or misspelt flag, a value-taking
//! flag with no value, a value of the wrong type, a flag given twice, a
//! stray positional — into an error the binary reports with usage and
//! exit status 2. A typo never falls back to a default silently.

/// What a flag takes after its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: present or absent.
    Switch,
    /// A non-negative integer.
    Uint,
    /// A file path.
    Path,
    /// One of a closed set of words.
    Choice(&'static [&'static str]),
}

/// One declared flag, `--<name>`.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    /// Flag name without the leading dashes.
    pub name: &'static str,
    /// What follows the flag.
    pub takes: Takes,
}

impl Key {
    /// Declares `--<name>`.
    #[must_use]
    pub const fn new(name: &'static str, takes: Takes) -> Key {
        Key { name, takes }
    }
}

/// `--json`, accepted by every experiment: print tables as JSON.
const JSON: Key = Key::new("json", Takes::Switch);

/// The parsed command line of one experiment: the flags given, each with
/// its validated value (empty for a switch).
#[derive(Debug)]
pub struct Args {
    keys: &'static [Key],
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses `argv` (the words after the subcommand) against `keys`.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first offending word.
    pub fn parse<S: AsRef<str>>(keys: &'static [Key], argv: &[S]) -> Result<Args, String> {
        let mut given: Vec<(&'static str, String)> = Vec::new();
        let mut words = argv.iter().map(AsRef::as_ref);
        while let Some(word) = words.next() {
            let key = word
                .strip_prefix("--")
                .and_then(|name| std::iter::once(&JSON).chain(keys).find(|k| k.name == name))
                .ok_or_else(|| format!("unknown flag `{word}`"))?;
            if given.iter().any(|(name, _)| *name == key.name) {
                return Err(format!("`{word}` given twice"));
            }
            let value = if key.takes == Takes::Switch {
                ""
            } else {
                words
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("`{word}` needs a value"))?
            };
            match key.takes {
                Takes::Uint if value.parse::<u64>().is_err() => {
                    return Err(format!(
                        "`{word}` takes a non-negative integer, got `{value}`"
                    ));
                }
                Takes::Choice(allowed) if !allowed.contains(&value) => {
                    return Err(format!("`{word}` takes one of {allowed:?}, got `{value}`"));
                }
                _ => given.push((key.name, value.to_string())),
            }
        }
        Ok(Args { keys, given })
    }

    /// The value given for `--<name>` (empty for a switch), if it was given.
    ///
    /// # Panics
    ///
    /// Panics when an experiment reads a flag it did not declare — the
    /// in-code twin of the typo the parser rejects on the command line.
    #[must_use]
    pub fn text(&self, name: &str) -> Option<&str> {
        assert!(
            name == JSON.name || self.keys.iter().any(|k| k.name == name),
            "experiment reads undeclared flag --{name}"
        );
        self.given
            .iter()
            .find(|(given, _)| *given == name)
            .map(|(_, value)| value.as_str())
    }

    /// Whether the switch `--<name>` was given.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The integer given for `--<name>`, if any.
    #[must_use]
    pub fn uint(&self, name: &str) -> Option<u64> {
        self.text(name)
            .map(|v| v.parse().expect("validated by parse"))
    }
}

/// The usage line of one subcommand.
#[must_use]
pub fn usage(name: &str, keys: &[Key]) -> String {
    let mut out = format!("usage: tc-exp {name}");
    for key in std::iter::once(&JSON).chain(keys) {
        out += &match key.takes {
            Takes::Switch => format!(" [--{}]", key.name),
            Takes::Uint => format!(" [--{} N]", key.name),
            Takes::Path => format!(" [--{} PATH]", key.name),
            Takes::Choice(words) => format!(" [--{} {}]", key.name, words.join("|")),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[Key] = &[
        Key::new("ops", Takes::Uint),
        Key::new("out", Takes::Path),
        Key::new("policy", Takes::Choice(&["mark-old", "invalidate"])),
    ];

    #[test]
    fn declared_flags_parse_in_any_order() {
        let a = Args::parse(KEYS, &["--json", "--out", "x.json", "--ops", "12"]).unwrap();
        assert!(a.switch("json"));
        assert_eq!(a.uint("ops"), Some(12));
        assert_eq!(a.text("out"), Some("x.json"));
        assert_eq!(a.text("policy"), None);
        let none = Args::parse(KEYS, &[] as &[&str]).unwrap();
        assert!(!none.switch("json"));
        assert_eq!(none.uint("ops"), None);
    }

    #[test]
    fn typos_are_errors_not_defaults() {
        for (argv, why) in [
            (&["--opps", "3"][..], "unknown flag"),
            (&["--serial"], "unknown flag"),
            (&["-ops", "3"], "unknown flag"),
            (&["3"], "unknown flag"),
            (&["--ops"], "needs a value"),
            (&["--ops", "--json"], "needs a value"),
            (&["--out"], "needs a value"),
            (&["--ops", "many"], "non-negative integer"),
            (&["--ops", "-3"], "non-negative integer"),
            (&["--ops", "1.5"], "non-negative integer"),
            (&["--policy", "evict"], "takes one of"),
            (&["--ops", "1", "--ops", "2"], "given twice"),
        ] {
            let err = Args::parse(KEYS, argv).unwrap_err();
            assert!(err.contains(why), "{argv:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "undeclared flag --seeds")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = Args::parse(KEYS, &[] as &[&str]).unwrap().uint("seeds");
    }

    #[test]
    fn usage_names_every_flag() {
        assert_eq!(
            usage("demo", KEYS),
            "usage: tc-exp demo [--json] [--ops N] [--out PATH] [--policy mark-old|invalidate]"
        );
    }
}
