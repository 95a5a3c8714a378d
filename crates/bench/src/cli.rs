//! The command-line front end of `briq-align`, `briq-serve` and
//! `briq-eval`.
//!
//! Each command declares its flags once, as a [`Command`] table, and
//! that table drives both [`Command::parse`] and the command's usage
//! line ([`usage`]). The parser keeps flags and positional
//! arguments in argv order and refuses, with a [`UsageError`] that names
//! the offending flag, an unknown flag, a value flag without its value,
//! a number flag whose value is not an unsigned integer, a value flag
//! given twice (a [`Flag::repeated`] one may repeat), a missing
//! [`Flag::required`] one, and a positional argument the command does
//! not take. The binaries print the error and the usage and exit 1
//! ([`refuse`]) before they do anything else.
//!
//! [`argv`] refuses an argument that is not valid UTF-8 the same way,
//! naming its position.
//!
//! The module also holds what the binaries share around their
//! arguments: the page reader and the name a page file is stored under,
//! the `--model` loader, the alignment store's opening and snapshot, the
//! `--metrics` writer and the exit status of a degraded run.

use briq_core::pipeline::{Briq, BriqConfig};
use briq_core::store::{AlignmentStore, StoreOptions};
use briq_core::MetricsRegistry;
use std::borrow::Cow;
use std::fmt;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// Exit status of a run that finished but had to degrade somewhere.
pub const EXIT_DEGRADED: u8 = 2;

/// What a flag takes, and how often it may be given.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// No value; may repeat, to no effect.
    Switch,
    /// Any text, at most once.
    Text,
    /// An unsigned integer, at most once.
    Number,
    /// Any text, exactly once.
    Required,
    /// Any text, any number of times.
    Repeated,
}

/// One row of a command's flag table.
pub struct Flag {
    name: &'static str,
    placeholder: &'static str,
    kind: Kind,
}

impl Flag {
    /// A switch, such as `--json`: it takes no value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag::new(name, "", Kind::Switch)
    }

    /// A flag that takes one value, given at most once; `placeholder`
    /// stands for the value in the usage line.
    pub const fn text(name: &'static str, placeholder: &'static str) -> Flag {
        Flag::new(name, placeholder, Kind::Text)
    }

    /// A flag whose value must be an unsigned integer, given at most once.
    pub const fn number(name: &'static str, placeholder: &'static str) -> Flag {
        Flag::new(name, placeholder, Kind::Number)
    }

    /// A flag that takes one value and must be given exactly once.
    pub const fn required(name: &'static str, placeholder: &'static str) -> Flag {
        Flag::new(name, placeholder, Kind::Required)
    }

    /// A flag that takes one value and may be given any number of times.
    pub const fn repeated(name: &'static str, placeholder: &'static str) -> Flag {
        Flag::new(name, placeholder, Kind::Repeated)
    }

    const fn new(name: &'static str, placeholder: &'static str, kind: Kind) -> Flag {
        Flag {
            name,
            placeholder,
            kind,
        }
    }

    /// The flag as the usage line shows it: `[--json]`, `[--jobs N]`,
    /// `--addr H:P`, `[--batch DIR]...`.
    fn usage(&self) -> String {
        let flag = format!("{} {}", self.name, self.placeholder);
        match self.kind {
            Kind::Switch => format!("[{}]", self.name),
            Kind::Text | Kind::Number => format!("[{flag}]"),
            Kind::Required => flag,
            Kind::Repeated => format!("[{flag}]..."),
        }
    }
}

/// A command and the one table of the flags it takes.
pub struct Command {
    /// The usage line before the flags: the program, the words that
    /// select the command and its positional arguments, such as
    /// `briq-align <page.html>...`.
    pub synopsis: &'static str,
    /// Whether positional arguments may appear among the flags.
    pub positionals: bool,
    /// Every flag the command takes, in usage order.
    pub flags: &'static [Flag],
}

impl Command {
    /// The usage line: the synopsis, then every flag of the table.
    fn usage(&self) -> String {
        let mut line = self.synopsis.to_string();
        for flag in self.flags {
            line.push(' ');
            line.push_str(&flag.usage());
        }
        line
    }

    /// Parse `argv`, the arguments after the words that select the
    /// command, against the flag table.
    ///
    /// A value never starts with `--`, so `--metrics --json` is a
    /// `--metrics` without its value.
    ///
    /// # Errors
    ///
    /// A [`UsageError`] naming the flag or argument the table refuses.
    pub fn parse(&self, argv: &[String]) -> Result<Args, UsageError> {
        let mut args: Vec<Arg> = Vec::new();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if !self.positionals {
                    return Err(UsageError(format!("unexpected argument {arg:?}")));
                }
                args.push(Arg::Positional(arg.clone()));
                continue;
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg.as_str()) else {
                return Err(UsageError(format!("unknown flag {arg}")));
            };
            let value = if flag.kind == Kind::Switch {
                None
            } else {
                let Some(v) = rest.next().filter(|v| !v.starts_with("--")) else {
                    return Err(UsageError(format!("{arg} needs a value")));
                };
                if flag.kind == Kind::Number && v.parse::<u64>().is_err() {
                    return Err(UsageError(format!("{arg}: invalid value {v:?}")));
                }
                if flag.kind != Kind::Repeated && given(&args, flag.name) {
                    return Err(UsageError(format!("{arg} given twice")));
                }
                Some(v.clone())
            };
            args.push(Arg::Flag(flag.name, value));
        }
        if let Some(flag) = self
            .flags
            .iter()
            .find(|f| f.kind == Kind::Required && !given(&args, f.name))
        {
            return Err(UsageError(format!("{} is required", flag.name)));
        }
        Ok(Args(args))
    }
}

/// Whether flag `name` is among `args`.
fn given(args: &[Arg], name: &str) -> bool {
    args.iter()
        .any(|a| matches!(a, Arg::Flag(n, _) if *n == name))
}

/// One argument of a parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// A flag of the table, with its value (`None` for a switch).
    Flag(&'static str, Option<String>),
    /// An argument that is neither a flag nor a flag's value.
    Positional(String),
}

/// A command line that its [`Command`]'s table accepted, in argv order.
#[derive(Debug)]
pub struct Args(Vec<Arg>);

impl Args {
    /// Every argument, in argv order.
    pub fn iter(&self) -> std::slice::Iter<'_, Arg> {
        self.0.iter()
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        given(&self.0, name)
    }

    /// The value of flag `name` (its first, for a repeated flag), or
    /// `None` if it was not given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().find_map(|a| match a {
            Arg::Flag(n, Some(v)) if *n == name => Some(v.as_str()),
            _ => None,
        })
    }

    /// The value of number flag `name`, or `None` if it was not given.
    /// The parser checked that it is a `u64`, so it parses as a `u64`
    /// and, on 64-bit targets, as a `usize`.
    pub fn number<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name).and_then(|v| v.parse().ok())
    }

    /// The positional arguments, in argv order.
    pub fn positionals(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter_map(|a| match a {
                Arg::Positional(p) => Some(p.as_str()),
                Arg::Flag(..) => None,
            })
            .collect()
    }

    /// The one positional argument of a command that takes exactly one.
    ///
    /// # Errors
    ///
    /// `missing` when there is none; the second one when there are more.
    pub fn sole_positional(&self, missing: &str) -> Result<&str, UsageError> {
        match self.positionals()[..] {
            [one] => Ok(one),
            [] => Err(UsageError(missing.to_string())),
            [_, extra, ..] => Err(UsageError(format!("unexpected argument {extra:?}"))),
        }
    }
}

/// Why a command line was refused. The message names the offending flag
/// or argument.
#[derive(Debug)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The usage text of a program's commands, one line each: `usage: `
/// before the first, and the others aligned under it.
pub fn usage(commands: &[&Command]) -> String {
    let lines: Vec<String> = commands.iter().map(|c| c.usage()).collect();
    format!("usage: {}", lines.join("\n       "))
}

/// Print `err` and the usage of `commands` to stderr, and return the
/// exit status of a usage error (1).
pub fn refuse(err: &UsageError, commands: &[&Command]) -> ExitCode {
    eprintln!("{err}");
    eprintln!("{}", usage(commands));
    ExitCode::FAILURE
}

/// The process's arguments after the program name.
///
/// # Errors
///
/// A [`UsageError`] naming the position (1 for the first argument after
/// the program name) of the first argument that is not valid UTF-8.
pub fn argv() -> Result<Vec<String>, UsageError> {
    std::env::args_os()
        .skip(1)
        .enumerate()
        .map(|(i, arg)| {
            arg.into_string().map_err(|arg| {
                UsageError(format!("argument {} is not valid UTF-8: {arg:?}", i + 1))
            })
        })
        .collect()
}

/// The page file at `path`, its invalid UTF-8 decoded lossily: the HTML
/// parser is byte-agnostic, so a page with a few bad bytes still aligns,
/// and aligns alike in `briq-align` and `briq-serve drive`.
///
/// # Errors
///
/// The error of reading the file.
pub fn read_page(path: impl AsRef<Path>) -> std::io::Result<String> {
    std::fs::read(path).map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// The identity a page file is stored under: its basename (the whole
/// path when it has none), decoded lossily. `briq-align` ingests the page
/// under it and `briq-serve drive` sends it as the request's `id`, so a
/// store either binary warmed serves the other.
pub fn page_identity(path: &Path) -> Cow<'_, str> {
    path.file_name()
        .unwrap_or(path.as_os_str())
        .to_string_lossy()
}

/// The model `--model` names, or the untrained heuristic prior when
/// `path` is `None`.
///
/// # Errors
///
/// `cannot load model PATH: …` when the file cannot be read or holds no
/// valid model.
pub fn load_model(path: Option<&str>) -> Result<Briq, String> {
    let Some(path) = path else {
        return Ok(Briq::untrained(BriqConfig::default()));
    };
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|s| Briq::from_json(&s).map_err(|e| e.to_string()))
        .map_err(|e| format!("cannot load model {path}: {e}"))
}

/// The [`StoreOptions`] of a store in `dir` (in-memory when `None`)
/// under the `--store-max-bytes` budget. Every store the binaries open,
/// durable or the in-memory fallback, reads its budget here.
fn store_options(args: &Args, dir: Option<&str>) -> StoreOptions {
    StoreOptions {
        dir: dir.map(Into::into),
        max_bytes: args.number("--store-max-bytes").unwrap_or(0),
        ..StoreOptions::default()
    }
}

/// The alignment store `--store-dir` and `--store-max-bytes` name, opened
/// for `briq` (a durable one recovered), with its `store: recovered …`
/// line printed to stderr.
///
/// # Errors
///
/// `store: cannot open DIR: …` when the directory cannot be opened.
/// `briq-align` exits 1 on it; `briq-serve` opens through
/// [`open_store_or_in_memory`] instead.
pub fn open_store(briq: &Briq, args: &Args) -> Result<AlignmentStore, String> {
    let dir = args.value("--store-dir");
    let store = AlignmentStore::with_options(briq, &store_options(args, dir))
        .map_err(|e| format!("store: cannot open {}: {e}", dir.unwrap_or("?")))?;
    if let Some(line) = store.recovery_report() {
        eprintln!("{line}");
    }
    Ok(store)
}

/// [`open_store`], or, when its directory cannot be opened, an in-memory
/// store under the same `--store-max-bytes` budget, after printing the
/// error and `; continuing in-memory` to stderr: for `briq-serve`, where
/// persistence failing to open costs durability, never availability or
/// the memory bound.
pub fn open_store_or_in_memory(briq: &Briq, args: &Args) -> AlignmentStore {
    open_store(briq, args).unwrap_or_else(|e| {
        eprintln!("{e}; continuing in-memory");
        // Infallible: without a directory the store touches no file.
        AlignmentStore::with_options(briq, &store_options(args, None))
            .unwrap_or_else(|_| unreachable!("an in-memory store cannot fail to open"))
    })
}

/// Snapshot a durable `store` when its process is done with it, so the
/// next one recovers from one file instead of replaying the novelty log,
/// and print `store: persisted …`; then print how many persistence
/// writes failed during the run, if any. Failures cost durability, never
/// output, so they are printed, not returned.
pub fn snapshot_store(store: &AlignmentStore) {
    if store.persisted() {
        match store.snapshot() {
            Ok(()) => eprintln!("{}", store.persisted_report()),
            Err(e) => eprintln!("store: persist failed: {e}"),
        }
    }
    let persist_errors = store.persist_errors();
    if persist_errors > 0 {
        eprintln!("store: {persist_errors} persistence write(s) failed");
    }
}

/// Write `metrics` to `path` as JSON Lines (`--metrics`), then print
/// their summary table and a `metrics written to PATH` line to stderr.
///
/// # Errors
///
/// `cannot write metrics to PATH: …` when the file cannot be written.
pub fn write_metrics(path: &str, metrics: &MetricsRegistry) -> Result<(), String> {
    std::fs::write(path, metrics.to_jsonl())
        .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    eprint!("{}", metrics.summary_table());
    eprintln!("metrics written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: Command = Command {
        synopsis: "prog <page>...",
        positionals: true,
        flags: &[
            Flag::repeated("--batch", "DIR"),
            Flag::number("--jobs", "N"),
            Flag::text("--model", "model.json"),
            Flag::switch("--json"),
            Flag::required("--addr", "H:P"),
        ],
    };

    const BARE: Command = Command {
        synopsis: "prog stop",
        positionals: false,
        flags: &[Flag::required("--addr", "H:P")],
    };

    fn parse(cmd: &Command, argv: &[&str]) -> Result<Args, UsageError> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        cmd.parse(&argv)
    }

    fn refused(cmd: &Command, argv: &[&str]) -> String {
        parse(cmd, argv).unwrap_err().0
    }

    #[test]
    fn positionals_and_a_repeated_flag_keep_argv_order() {
        let args = parse(
            &PROG,
            &[
                "a.html", "--batch", "d1", "--addr", "h:1", "b.html", "--batch", "d2", "c.html",
            ],
        )
        .unwrap();
        let order: Vec<Arg> = args.iter().cloned().collect();
        assert_eq!(
            order,
            vec![
                Arg::Positional("a.html".into()),
                Arg::Flag("--batch", Some("d1".into())),
                Arg::Flag("--addr", Some("h:1".into())),
                Arg::Positional("b.html".into()),
                Arg::Flag("--batch", Some("d2".into())),
                Arg::Positional("c.html".into()),
            ]
        );
        assert_eq!(args.positionals(), ["a.html", "b.html", "c.html"]);
        assert_eq!(args.value("--batch"), Some("d1"));
        assert_eq!(args.value("--addr"), Some("h:1"));
        assert_eq!(args.value("--model"), None);
    }

    #[test]
    fn a_switch_takes_no_value_and_may_repeat() {
        let args = parse(&PROG, &["--json", "p.html", "--addr", "h:1", "--json"]).unwrap();
        assert!(args.switch("--json"));
        assert_eq!(args.positionals(), ["p.html"]);
        let args = parse(&PROG, &["p.html", "--addr", "h:1"]).unwrap();
        assert!(!args.switch("--json"));
    }

    #[test]
    fn numbers_are_checked_when_parsed() {
        let args = parse(&PROG, &["--jobs", "4", "--addr", "h:1"]).unwrap();
        assert_eq!(args.number::<usize>("--jobs"), Some(4));
        assert_eq!(args.number::<u64>("--jobs"), Some(4));
        for bad in ["abc", "-1", "1.5", ""] {
            assert_eq!(
                refused(&PROG, &["--addr", "h:1", "--jobs", bad]),
                format!("--jobs: invalid value {bad:?}")
            );
        }
    }

    #[test]
    fn refusals_name_the_flag_or_argument() {
        assert_eq!(
            refused(&PROG, &["--addr", "h:1", "--jbos", "2"]),
            "unknown flag --jbos"
        );
        assert_eq!(
            refused(&PROG, &["--addr", "h:1", "--model"]),
            "--model needs a value"
        );
        assert_eq!(
            refused(&PROG, &["--addr", "h:1", "--model", "--json"]),
            "--model needs a value"
        );
        assert_eq!(
            refused(&PROG, &["--addr", "h:1", "--jobs", "1", "--jobs", "2"]),
            "--jobs given twice"
        );
        assert_eq!(refused(&PROG, &["p.html"]), "--addr is required");
        assert_eq!(
            refused(&BARE, &["--addr", "h:1", "x"]),
            "unexpected argument \"x\""
        );
        let two = parse(&PROG, &["a", "b", "--addr", "h:1"]).unwrap();
        assert_eq!(
            two.sole_positional("needs one").unwrap_err().0,
            "unexpected argument \"b\""
        );
        let none = parse(&PROG, &["--addr", "h:1"]).unwrap();
        assert_eq!(
            none.sole_positional("needs one").unwrap_err().0,
            "needs one"
        );
    }

    #[test]
    fn the_table_renders_the_usage_line() {
        assert_eq!(
            PROG.usage(),
            "prog <page>... [--batch DIR]... [--jobs N] [--model model.json] [--json] --addr H:P"
        );
        assert_eq!(
            usage(&[&PROG, &BARE]),
            "usage: prog <page>... [--batch DIR]... [--jobs N] [--model model.json] [--json] \
             --addr H:P\n       prog stop --addr H:P"
        );
    }
}
