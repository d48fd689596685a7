//! Minimal `--flag value` argument parser.
//!
//! The binary has a handful of subcommands with a handful of flags
//! each; a hand-rolled parser keeps the dependency set to the
//! workspace's approved crates and the error messages specific. The
//! parser knows what every subcommand reads (`VOCABULARY`), so a
//! misspelt or retired flag is an error naming it — never a value
//! silently dropped, never a switch swallowing the next token.

use std::collections::HashMap;

/// Parsed command line: subcommand, flags, and bare booleans.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: String,
    /// `--key value` pairs.
    flags: HashMap<String, String>,
    /// `--key` switches without a value.
    switches: Vec<String>,
}

/// Parse failures with the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A non-flag token appeared where a flag was expected.
    Unexpected(String),
    /// The same flag was given twice.
    Duplicate(String),
    /// A flag the subcommand does not read.
    UnknownFlag(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand"),
            ArgError::Unexpected(t) => write!(f, "unexpected argument {t:?}"),
            ArgError::Duplicate(t) => write!(f, "flag --{t} given twice"),
            ArgError::UnknownFlag(t) => write!(f, "unknown flag --{t}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// What a subcommand reads besides `--help`: the flags that take a
/// value, and the switches that take none.
type Vocabulary = (&'static [&'static str], &'static [&'static str]);

const QUEUE: Vocabulary = (
    &[
        "workflows",
        "families",
        "tasks",
        "unique",
        "process",
        "rate",
        "interval",
        "policy",
        "elastic",
        "elastic-shrink",
        "algorithm",
        "lease-tasks",
        "min-procs",
        "max-procs",
        "cache-cap",
        "cache-file",
        "autosave",
        "cluster",
        "clusters",
        "routing",
        "chaos",
        "failure-mode",
        "bandwidth",
        "headroom",
        "seed",
        "output",
    ],
    &["lease-load-aware", "no-solve-cache", "summary"],
);

/// Every subcommand's [`Vocabulary`]. A command missing here parses
/// with any flags; [`crate::run`] rejects it by name.
const VOCABULARY: [(&str, Vocabulary); 7] = [
    (
        "schedule",
        (
            &[
                "workflow",
                "cluster",
                "algorithm",
                "bandwidth",
                "headroom",
                "output",
            ],
            &["simulate", "gantt", "quiet"],
        ),
    ),
    (
        "generate",
        (&["family", "tasks", "seed", "format", "output"], &[]),
    ),
    ("inspect", (&["workflow"], &[])),
    ("queue", QUEUE),
    ("serve", QUEUE),
    ("cluster-template", (&[], &[])),
    ("help", (&[], &[])),
];

impl Args {
    /// Parses a token stream (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut it = tokens.into_iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with('-') && command != "--help" {
            return Err(ArgError::Unexpected(command));
        }
        let mut args = Args {
            command: command.trim_start_matches('-').to_string(),
            ..Args::default()
        };
        let vocabulary = VOCABULARY
            .iter()
            .find(|(name, _)| *name == args.command)
            .map(|(_, v)| v);
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgError::Unexpected(tok));
            };
            let mut is_switch = key == "help";
            if let (false, Some((values, switches))) = (is_switch, vocabulary) {
                is_switch = switches.contains(&key);
                if !is_switch && !values.contains(&key) {
                    return Err(ArgError::UnknownFlag(key.to_string()));
                }
            }
            if is_switch {
                args.switches.push(key.to_string());
                continue;
            }
            let Some(value) = it.next_if(|v| !v.starts_with("--")) else {
                return Err(ArgError::Unexpected(format!("--{key} (missing value)")));
            };
            if args.flags.insert(key.to_string(), value).is_some() {
                return Err(ArgError::Duplicate(key.to_string()));
            }
        }
        Ok(args)
    }

    /// Value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Value of `--key` or a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required `--key`; returns a human-readable error otherwise.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Finite numeric flag with a default. `NaN` and `±inf` parse as
    /// `f64` but pass no range check (`NaN < 1.0` is false), so they are
    /// usage errors with the flag named, like a token that does not
    /// parse.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                Ok(_) => Err(format!("--{key}: not a finite number: {v:?}")),
                Err(_) => Err(format!("--{key}: not a number: {v:?}")),
            },
        }
    }

    /// Integer flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: not an integer: {v:?}")),
        }
    }

    /// Strictly positive integer flag without a default: absent means
    /// `None`; when given, the value must parse as an integer `>= 1` —
    /// an explicit `0` (or a negative / non-numeric token) is a usage
    /// error with the flag named, never a degenerate run.
    pub fn get_positive_usize(&self, key: &str) -> Result<Option<usize>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => match v.parse::<usize>() {
                Err(_) => Err(format!("--{key}: not a positive integer: {v:?}")),
                Ok(0) => Err(format!("--{key} must be positive (got 0)")),
                Ok(n) => Ok(Some(n)),
            },
        }
    }

    /// True when `--key` was given as a switch.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let a = parse("schedule --workflow wf.json --bandwidth 2.5 --quiet").unwrap();
        assert_eq!(a.command, "schedule");
        assert_eq!(a.get("workflow"), Some("wf.json"));
        assert_eq!(a.get_f64("bandwidth", 1.0).unwrap(), 2.5);
        assert!(a.switch("quiet"));
        assert!(!a.switch("simulate"));
    }

    #[test]
    fn defaults_and_requires() {
        let a = parse("generate --family blast").unwrap();
        assert_eq!(a.get_or("seed", "42"), "42");
        assert_eq!(a.require("family").unwrap(), "blast");
        assert!(a.require("tasks").unwrap_err().contains("--tasks"));
        assert_eq!(a.get_usize("tasks", 200).unwrap(), 200);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(matches!(
            parse("schedule --workflow --quiet"),
            Err(ArgError::Unexpected(_))
        ));
        assert!(matches!(
            parse("schedule --cluster"),
            Err(ArgError::Unexpected(_))
        ));
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert_eq!(
            parse("generate --seed 1 --seed 2").unwrap_err(),
            ArgError::Duplicate("seed".into())
        );
    }

    #[test]
    fn positive_usize_rejects_zero_and_junk_with_the_flag_named() {
        let a = parse("queue --unique 3").unwrap();
        assert_eq!(a.get_positive_usize("unique").unwrap(), Some(3));
        assert_eq!(a.get_positive_usize("elastic").unwrap(), None);
        let z = parse("queue --unique 0 --elastic -2").unwrap();
        let err = z.get_positive_usize("unique").unwrap_err();
        assert!(
            err.contains("--unique") && err.contains("positive"),
            "{err}"
        );
        let err = z.get_positive_usize("elastic").unwrap_err();
        assert!(
            err.contains("--elastic") && err.contains("positive"),
            "{err}"
        );
    }

    #[test]
    fn bad_numbers_are_reported() {
        let a = parse("schedule --bandwidth abc").unwrap();
        assert!(a.get_f64("bandwidth", 1.0).unwrap_err().contains("abc"));
        let a = parse("generate --tasks 1.5").unwrap();
        assert!(a.get_usize("tasks", 1).is_err());
    }

    #[test]
    fn non_finite_numbers_are_rejected_with_the_flag_named() {
        for v in ["NaN", "nan", "inf", "-inf", "infinity", "1e999"] {
            let a = parse(&format!("queue --headroom {v}")).unwrap();
            let err = a.get_f64("headroom", 1.05).unwrap_err();
            assert!(
                err.contains("--headroom") && err.contains("finite"),
                "{v}: {err}"
            );
        }
        let a = parse("queue --rate -0.5").unwrap();
        assert_eq!(a.get_f64("rate", 0.05).unwrap(), -0.5);
    }

    #[test]
    fn flags_the_subcommand_does_not_read_are_rejected_by_name() {
        // A retired switch must not swallow the next token as its value.
        assert_eq!(
            parse("queue --slow-admission --summary").unwrap_err(),
            ArgError::UnknownFlag("slow-admission".into())
        );
        assert_eq!(
            parse("queue --slow-admission 5").unwrap_err(),
            ArgError::UnknownFlag("slow-admission".into())
        );
        // A misspelt flag does not run with the default policy.
        assert_eq!(
            parse("queue --polcy fifo").unwrap_err(),
            ArgError::UnknownFlag("polcy".into())
        );
        // Another subcommand's flag is not this one's.
        assert_eq!(
            parse("schedule --workflow wf.json --policy fifo").unwrap_err(),
            ArgError::UnknownFlag("policy".into())
        );
        assert_eq!(
            parse("serve --serial-federation --clusters a,b").unwrap_err(),
            ArgError::UnknownFlag("serial-federation".into())
        );
        assert_eq!(
            parse("queue --cache-aware --policy fifo-backfill").unwrap_err(),
            ArgError::UnknownFlag("cache-aware".into())
        );
        assert!(parse("inspect --help").unwrap().switch("help"));
    }

    /// Every `--flag` of the usage text parses under the subcommand
    /// whose section lists it, with the arity the text shows (a
    /// metavariable one space after the flag = it takes a value).
    #[test]
    fn every_flag_in_the_usage_text_parses() {
        let mut command = String::new();
        let mut seen = 0;
        for line in crate::commands::USAGE.lines() {
            if let Some((section, _)) = line.split_once(" OPTIONS") {
                command = section.to_lowercase();
            }
            let Some(rest) = line.strip_prefix("  --") else {
                continue;
            };
            let (flag, tail) = rest.split_once(' ').unwrap();
            let takes_value = !tail.starts_with(' ');
            let parsed = parse(&format!(
                "{command} --{flag}{}",
                if takes_value { " x" } else { "" }
            ))
            .unwrap_or_else(|e| panic!("{command} --{flag}: {e}"));
            assert_eq!(parsed.switch(flag), !takes_value, "{command} --{flag}");
            seen += 1;
        }
        let listed: usize = VOCABULARY
            .iter()
            .filter(|(name, _)| ["schedule", "generate", "queue"].contains(name))
            .map(|(_, (values, switches))| values.len() + switches.len())
            .sum();
        assert_eq!(
            seen, listed,
            "the usage text and VOCABULARY list the same flags"
        );
    }

    #[test]
    fn empty_line_is_missing_command() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn stray_positional_is_rejected() {
        assert!(matches!(
            parse("schedule extra"),
            Err(ArgError::Unexpected(_))
        ));
    }
}
