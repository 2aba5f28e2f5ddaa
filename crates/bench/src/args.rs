//! Minimal flag parsing shared by the figure binaries (no CLI dependency).

/// Common experiment flags.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Dataset scale factor (1.0 = the paper's sizes); `None` when the
    /// user did not pass `--scale` (binaries may then apply their own
    /// default — e.g. the sampling experiment defaults to 0.5 because its
    /// cost is dominated by full result-set enumeration).
    pub scale: Option<f64>,
    /// Master seed.
    pub seed: u64,
    /// Optional JSON dump path for the result rows.
    pub json: Option<String>,
    /// Print the workload description (Table 1) and exit.
    pub describe: bool,
    /// Leftover binary-specific flags, in order.
    pub rest: Vec<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: None,
            seed: 42,
            json: None,
            describe: false,
            rest: Vec::new(),
        }
    }
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name).
    pub fn from_env() -> Args {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit iterator of flags.
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Args {
        let mut args = Args::default();
        let mut it = items.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    let v: f64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--scale needs a number"));
                    args.scale = Some(v);
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seed needs an integer"));
                }
                "--json" => {
                    args.json = Some(it.next().unwrap_or_else(|| die("--json needs a path")));
                }
                "--describe" => args.describe = true,
                other => args.rest.push(other.to_string()),
            }
        }
        if let Some(scale) = args.scale {
            if scale <= 0.0 || scale.is_nan() {
                die::<f64>("--scale must be positive");
            }
        }
        args
    }

    /// The scale in force, falling back to the binary's default.
    pub fn scale_or(&self, default: f64) -> f64 {
        self.scale.unwrap_or(default)
    }

    /// Whether a binary-specific flag was passed.
    pub fn has_flag(&self, name: &str) -> bool {
        self.rest.iter().any(|r| r == name)
    }
}

fn die<T>(msg: &str) -> T {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Writes `rows` as pretty JSON to `path` when requested.
pub fn maybe_dump_json<T: serde::Serialize>(json: &Option<String>, rows: &T) {
    if let Some(path) = json {
        let body = serde_json::to_string_pretty(rows).expect("rows serialize");
        std::fs::write(path, body).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("# wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Args {
        Args::parse(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a, Args::default());
    }

    #[test]
    fn parses_common_flags() {
        let a = parse(&["--scale", "0.5", "--seed", "7", "--json", "/tmp/x.json", "--describe"]);
        assert_eq!(a.scale, Some(0.5));
        assert_eq!(a.scale_or(1.0), 0.5);
        assert_eq!(parse(&[]).scale_or(0.5), 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
        assert!(a.describe);
    }

    #[test]
    fn keeps_binary_specific_rest() {
        let a = parse(&["--part", "b", "--extra"]);
        assert!(a.has_flag("--extra"));
        assert!(!a.has_flag("--missing"));
        assert_eq!(a.rest, ["--part", "b", "--extra"]);
    }
}
