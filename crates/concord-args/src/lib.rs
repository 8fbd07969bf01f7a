//! First-party command-line flag parsing for the Concord binaries.
//!
//! Every binary in the workspace used to hand-roll the same
//! `while i < argv.len()` loop with its own `usage()` and its own exit
//! conventions; the four copies had already drifted (different flag
//! names for the listen address, `--help` only worked by accident of
//! hitting the unknown-flag arm). This crate replaces them with one
//! declarative parser, in keeping with the workspace's zero-third-party-
//! dependency policy (no `clap`):
//!
//! ```
//! use concord_args::Parser;
//!
//! let m = Parser::new("demo", "A demo binary.")
//!     .opt_default("listen", "HOST:PORT", "127.0.0.1:7070", "listen address")
//!     .opt_default("shards", "N", "1", "scheduler shards")
//!     .opt("admin", "HOST:PORT", "admin-plane address (off when absent)")
//!     .switch("oneshot", "serve one client session then exit")
//!     .try_parse(&["--listen".into(), "0.0.0.0:9000".into(), "--oneshot".into()])
//!     .unwrap();
//! assert_eq!(m.get("listen"), Some("0.0.0.0:9000"));
//! assert_eq!(m.require::<usize>("shards").unwrap(), 1);
//! assert!(m.has("oneshot"));
//! assert_eq!(m.get("admin"), None);
//! ```
//!
//! Shared semantics across the binaries: `--listen HOST:PORT` is the
//! data-plane address everywhere, `--admin HOST:PORT` is the
//! introspection plane, `--shards` and `--policy` mean the same thing
//! wherever they appear, and `--help`/`-h` prints a uniform flag table
//! and exits 0.
//!
//! Parse errors are values ([`ArgError`]) so they are unit-testable;
//! binaries call [`Parser::parse_env`], which converts any error into
//! the usage message on stderr and `exit(2)`, and typed access goes
//! through [`Matches::require`] / [`Matches::opt`], whose errors the
//! binary surfaces with [`Matches::fatal`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

/// What went wrong while parsing an argument vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag not declared on the parser (includes bare positionals —
    /// no Concord binary takes any).
    Unknown(String),
    /// A value-taking flag appeared last with nothing after it.
    MissingValue(String),
    /// A switch was given a value with `--flag=value`.
    UnexpectedValue(String),
    /// A value failed typed conversion (reported from [`Matches`]).
    BadValue {
        /// Canonical flag name.
        flag: String,
        /// The offending value.
        value: String,
        /// What it should have been, e.g. a type name or a choice list.
        expected: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(flag) => write!(f, "unknown argument '{flag}'"),
            ArgError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            ArgError::UnexpectedValue(flag) => write!(f, "--{flag} takes no value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "invalid --{flag} '{value}' (expected {expected})"),
        }
    }
}

impl std::error::Error for ArgError {}

struct Flag {
    name: &'static str,
    /// Value metavar for the help line; `None` marks a boolean switch.
    meta: Option<&'static str>,
    default: Option<&'static str>,
    help: &'static str,
}

/// A declarative flag-set: build with [`Parser::opt`]/[`Parser::switch`],
/// then [`Parser::parse_env`] (binaries) or [`Parser::try_parse`] (tests).
pub struct Parser {
    prog: &'static str,
    about: &'static str,
    flags: Vec<Flag>,
}

impl Parser {
    /// A parser for binary `prog`, with a one-line description for
    /// `--help`.
    pub fn new(prog: &'static str, about: &'static str) -> Self {
        Self {
            prog,
            about,
            flags: Vec::new(),
        }
    }

    fn push(mut self, flag: Flag) -> Self {
        debug_assert!(
            self.lookup(flag.name).is_none(),
            "duplicate flag --{}",
            flag.name
        );
        self.flags.push(flag);
        self
    }

    /// Declares `--name VALUE` with no default: absent unless given.
    pub fn opt(self, name: &'static str, meta: &'static str, help: &'static str) -> Self {
        self.push(Flag {
            name,
            meta: Some(meta),
            default: None,
            help,
        })
    }

    /// Declares `--name VALUE` that falls back to `default`.
    pub fn opt_default(
        self,
        name: &'static str,
        meta: &'static str,
        default: &'static str,
        help: &'static str,
    ) -> Self {
        self.push(Flag {
            name,
            meta: Some(meta),
            default: Some(default),
            help,
        })
    }

    /// Declares a boolean `--name` switch.
    pub fn switch(self, name: &'static str, help: &'static str) -> Self {
        self.push(Flag {
            name,
            meta: None,
            default: None,
            help,
        })
    }

    fn lookup(&self, name: &str) -> Option<&Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// The `--help` text: about line, usage line, then one row per flag
    /// with metavar and default.
    pub fn help(&self) -> String {
        use fmt::Write;
        let mut rows: Vec<(String, String)> = Vec::new();
        for f in &self.flags {
            let lhs = match f.meta {
                Some(meta) => format!("--{} {meta}", f.name),
                None => format!("--{}", f.name),
            };
            let mut rhs = f.help.to_string();
            if let Some(d) = f.default {
                let _ = write!(rhs, " [default: {d}]");
            }
            rows.push((lhs, rhs));
        }
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!("{}\n\nusage: {} [flags]\n\nflags:\n", self.about, self.prog);
        for (lhs, rhs) in rows {
            let _ = writeln!(out, "  {lhs:width$}  {rhs}");
        }
        let _ = writeln!(out, "  {:width$}  print this help and exit", "--help");
        out
    }

    /// One-line usage string for parse-error reporting.
    pub fn usage(&self) -> String {
        format!("usage: {} [flags]  (--help for the flag list)", self.prog)
    }

    /// Parses an argument vector (without the program name). `--help`
    /// anywhere is reported as a parse "result" by the caller-facing
    /// wrappers; here it simply sets [`Matches::help_requested`].
    pub fn try_parse(&self, argv: &[String]) -> Result<Matches, ArgError> {
        let mut values: HashMap<&'static str, String> = HashMap::new();
        let mut switches: Vec<&'static str> = Vec::new();
        let mut help = false;
        let mut i = 0;
        while i < argv.len() {
            let arg = argv[i].as_str();
            if arg == "--help" || arg == "-h" {
                help = true;
                i += 1;
                continue;
            }
            let Some(body) = arg.strip_prefix("--") else {
                return Err(ArgError::Unknown(arg.to_string()));
            };
            let (name, inline) = match body.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (body, None),
            };
            let Some(flag) = self.lookup(name) else {
                return Err(ArgError::Unknown(arg.to_string()));
            };
            match flag.meta {
                None => {
                    if inline.is_some() {
                        return Err(ArgError::UnexpectedValue(flag.name.to_string()));
                    }
                    switches.push(flag.name);
                    i += 1;
                }
                Some(_) => {
                    let value = match inline {
                        Some(v) => v,
                        None => {
                            i += 1;
                            argv.get(i)
                                .ok_or_else(|| ArgError::MissingValue(flag.name.to_string()))?
                                .clone()
                        }
                    };
                    values.insert(flag.name, value);
                    i += 1;
                }
            }
        }
        for f in &self.flags {
            if let (Some(d), false) = (f.default, values.contains_key(f.name)) {
                values.insert(f.name, d.to_string());
            }
        }
        Ok(Matches {
            prog: self.prog,
            values,
            switches,
            help_requested: help,
        })
    }

    /// Parses the process arguments; on `--help` prints the flag table
    /// and exits 0, on any parse error prints it with the usage line and
    /// exits 2.
    pub fn parse_env(&self) -> Matches {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match self.try_parse(&argv) {
            Ok(m) if m.help_requested => {
                print!("{}", self.help());
                std::process::exit(0);
            }
            Ok(m) => m,
            Err(e) => {
                eprintln!("{}: {e}\n{}", self.prog, self.usage());
                std::process::exit(2);
            }
        }
    }
}

/// The parsed flag values.
#[derive(Debug)]
pub struct Matches {
    prog: &'static str,
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
    help_requested: bool,
}

impl Matches {
    /// Whether `--help`/`-h` appeared (only observable via
    /// [`Parser::try_parse`]; [`Parser::parse_env`] handles it).
    pub fn help_requested(&self) -> bool {
        self.help_requested
    }

    /// Whether switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The raw value of `--name`, if present (or defaulted).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of `--name` parsed as `T`; `Ok(None)` when absent.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| ArgError::BadValue {
                flag: name.to_string(),
                value: raw.to_string(),
                expected: std::any::type_name::<T>().to_string(),
            }),
        }
    }

    /// The value of `--name` parsed as `T`; errors when absent. Use for
    /// flags declared with a default, where absence is a parser bug.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        self.opt(name)?.ok_or_else(|| ArgError::BadValue {
            flag: name.to_string(),
            value: String::new(),
            expected: "a value".to_string(),
        })
    }

    /// The value of `--name` run through a named-choice mapper (for
    /// enums like `--policy ps|fcfs|...`); errors name the flag and the
    /// expected choices. `None` from the mapper means "not a choice".
    pub fn choice<T>(
        &self,
        name: &str,
        expected: &str,
        f: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ArgError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => f(raw).map(Some).ok_or_else(|| ArgError::BadValue {
                flag: name.to_string(),
                value: raw.to_string(),
                expected: expected.to_string(),
            }),
        }
    }

    /// Binary-side error exit: prints `prog: error` and exits 2. Lets
    /// binaries write `m.require("workers").unwrap_or_else(|e| m.fatal(e))`.
    pub fn fatal(&self, e: ArgError) -> ! {
        eprintln!("{}: {e}", self.prog);
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn demo() -> Parser {
        Parser::new("demo", "A demo.")
            .opt_default("listen", "HOST:PORT", "127.0.0.1:7070", "listen address")
            .opt_default("shards", "N", "1", "shards")
            .opt("admin", "HOST:PORT", "admin plane")
            .switch("oneshot", "exit after one session")
    }

    #[test]
    fn defaults_apply_and_flags_override() {
        let m = demo().try_parse(&argv(&["--shards", "4"])).unwrap();
        assert_eq!(m.get("listen"), Some("127.0.0.1:7070"));
        assert_eq!(m.require::<usize>("shards").unwrap(), 4);
        assert_eq!(m.get("admin"), None);
        assert!(!m.has("oneshot"));
    }

    #[test]
    fn equals_form_and_switches() {
        let m = demo()
            .try_parse(&argv(&["--listen=:9", "--oneshot"]))
            .unwrap();
        assert_eq!(m.get("listen"), Some(":9"));
        assert!(m.has("oneshot"));
        assert_eq!(
            demo().try_parse(&argv(&["--oneshot=yes"])).unwrap_err(),
            ArgError::UnexpectedValue("oneshot".into())
        );
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(
            demo().try_parse(&argv(&["--bogus"])).unwrap_err(),
            ArgError::Unknown("--bogus".into())
        );
        assert_eq!(
            demo().try_parse(&argv(&["positional"])).unwrap_err(),
            ArgError::Unknown("positional".into())
        );
        assert_eq!(
            demo().try_parse(&argv(&["--listen"])).unwrap_err(),
            ArgError::MissingValue("listen".into())
        );
        let m = demo().try_parse(&argv(&["--shards", "many"])).unwrap();
        assert!(matches!(
            m.require::<usize>("shards"),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn choice_maps_and_reports() {
        let m = demo().try_parse(&argv(&["--listen", "x"])).unwrap();
        let ok = m
            .choice("listen", "x|y", |v| (v == "x").then_some(1))
            .unwrap();
        assert_eq!(ok, Some(1));
        let err = m.choice("listen", "x|y", |_| None::<i32>).unwrap_err();
        assert!(err.to_string().contains("expected x|y"), "{err}");
    }

    #[test]
    fn help_lists_flags_and_defaults() {
        let h = demo().help();
        assert!(h.contains("--listen HOST:PORT"), "{h}");
        assert!(h.contains("[default: 127.0.0.1:7070]"), "{h}");
        assert!(h.contains("--oneshot"), "{h}");
        let m = demo().try_parse(&argv(&["-h"])).unwrap();
        assert!(m.help_requested());
    }
}
