//! Flag parsing and the CLI error type.

use std::collections::HashMap;
use std::fmt;

/// A CLI failure: bad usage, bad input, or I/O.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed.
    Usage(String),
    /// The inputs (query, trace, configuration) were invalid.
    Input(String),
    /// An I/O failure.
    Io(std::io::Error),
}

impl CliError {
    /// A usage error.
    pub fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// An input error.
    pub fn input(msg: impl Into<String>) -> Self {
        CliError::Input(msg.into())
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m} (try `mstream help`)"),
            CliError::Input(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Parsed `--flag value` pairs and bare `--switches`.
#[derive(Clone, Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

/// The switches: flags that take no value.
const SWITCHES: &str = "--json --stage-json --drift";

/// The flags `mstream run` reads.
pub(crate) const RUN_FLAGS: &str = "--query --query-file --queries --trace --policy --capacity \
     --rate --service --queue --seed --shards --disorder-bound --json --stage-json";

/// The flags `mstream generate` reads.
pub(crate) const GENERATE_FLAGS: &str = "--workload --out --tuples --z --drift --seed";

/// The flags `mstream explain` reads.
pub(crate) const EXPLAIN_FLAGS: &str = "--query --query-file";

/// Whether the space-separated `list` names `flag`.
fn lists(list: &str, flag: &str) -> bool {
    list.split_whitespace().any(|f| f == flag)
}

impl Flags {
    /// Parses a flag list, refusing any flag the space-separated
    /// `accepted` (the flags the subcommand reads) does not name, so a typo
    /// or a retired flag is an error rather than silently ignored.
    pub fn parse(args: &[String], accepted: &str) -> Result<Flags, CliError> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                return Err(CliError::usage(format!("unexpected argument `{arg}`")));
            }
            if !lists(accepted, arg) {
                return Err(CliError::usage(format!("unknown flag `{arg}`")));
            }
            if lists(SWITCHES, arg) {
                flags.switches.push(arg.clone());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("{arg} needs a value")))?;
                if flags.values.insert(arg.clone(), value.clone()).is_some() {
                    return Err(CliError::usage(format!("{arg} given twice")));
                }
            }
        }
        Ok(flags)
    }

    /// The value of `--flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// The value of `--flag`, or an input error naming it.
    pub fn require(&self, flag: &str) -> Result<&str, CliError> {
        self.get(flag)
            .ok_or_else(|| CliError::usage(format!("{flag} is required")))
    }

    /// A parsed numeric flag with a default.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.num_opt(flag)?.unwrap_or(default))
    }

    /// A parsed numeric flag with no default.
    pub fn num_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("{flag}: cannot parse `{v}`"))),
        }
    }

    /// Whether a bare switch (e.g. `--json`) was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&args, RUN_FLAGS)
    }

    #[test]
    fn parses_values_and_switches() {
        let f = parse(&["--policy", "Bjoin", "--json", "--capacity", "64"]).unwrap();
        assert_eq!(f.get("--policy"), Some("Bjoin"));
        assert!(f.has("--json"));
        assert!(!f.has("--quiet"));
        assert_eq!(f.num::<usize>("--capacity", 0).unwrap(), 64);
        assert_eq!(f.num::<f64>("--rate", 10.0).unwrap(), 10.0);
        assert_eq!(f.num_opt::<f64>("--service").unwrap(), None);
    }

    #[test]
    fn rejects_missing_value() {
        let err = parse(&["--policy"]).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn rejects_duplicates_and_positional() {
        assert!(parse(&["--seed", "1", "--seed", "2"]).is_err());
        assert!(parse(&["oops"]).is_err());
    }

    #[test]
    fn require_names_the_flag() {
        let f = parse(&[]).unwrap();
        let err = f.require("--trace").unwrap_err();
        assert!(err.to_string().contains("--trace"));
    }

    #[test]
    fn bad_numbers_name_the_flag() {
        let f = parse(&["--capacity", "many"]).unwrap();
        let err = f.num::<usize>("--capacity", 1).unwrap_err();
        assert!(err.to_string().contains("--capacity"));
    }

    /// Every flag the usage text lists for a subcommand, on its
    /// `mstream <sub>` line or in its OPTIONS section, parses for it.
    #[test]
    fn every_flag_usage_lists_parses_for_its_subcommand() {
        let table = |name: &str| match name {
            "run" | "RUN" => RUN_FLAGS,
            "generate" | "GENERATE" => GENERATE_FLAGS,
            "explain" => EXPLAIN_FLAGS,
            _ => "",
        };
        let (mut section, mut listed) = ("", 0);
        for line in crate::USAGE.lines() {
            let mut words = line.split_whitespace();
            let (accepted, flags): (&str, Vec<&str>) = match words.next() {
                Some("mstream") if line.starts_with("    ") => {
                    let accepted = table(words.next().expect("a subcommand"));
                    (accepted, words.filter(|w| w.starts_with("--")).collect())
                }
                Some(heading) if line.ends_with(" OPTIONS:") => {
                    section = table(heading);
                    continue;
                }
                Some(flag) if line.starts_with("    --") => (section, vec![flag]),
                _ => continue,
            };
            for flag in flags {
                let mut args = vec![flag.to_string()];
                if !lists(SWITCHES, flag) {
                    args.push("1".into());
                }
                if let Err(err) = Flags::parse(&args, accepted) {
                    panic!("`{flag}` in the usage text: {err}");
                }
                listed += 1;
            }
        }
        assert!(listed > 20, "the usage text lists {listed} flags");
    }
}
