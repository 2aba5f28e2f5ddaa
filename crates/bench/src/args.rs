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
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: None,
            seed: 42,
            json: None,
            describe: false,
        }
    }
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name); a usage
    /// error exits 2 with its message.
    pub fn from_env() -> Args {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|msg| die(&msg))
    }

    /// Parses an explicit iterator of flags. A flag no figure binary reads
    /// is an error naming it, so a typo or a retired flag cannot pass
    /// unnoticed.
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = items.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    let v: f64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--scale needs a number")?;
                    if v <= 0.0 || v.is_nan() {
                        return Err("--scale must be positive".into());
                    }
                    args.scale = Some(v);
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs an integer")?;
                }
                "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
                "--describe" => args.describe = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    /// The scale in force, falling back to the binary's default.
    pub fn scale_or(&self, default: f64) -> f64 {
        self.scale.unwrap_or(default)
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

    fn parse(flags: &[&str]) -> Result<Args, String> {
        Args::parse(flags.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, Args::default());
    }

    #[test]
    fn parses_common_flags() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--json",
            "/tmp/x.json",
            "--describe",
        ])
        .unwrap();
        assert_eq!(a.scale, Some(0.5));
        assert_eq!(a.scale_or(1.0), 0.5);
        assert_eq!(parse(&[]).unwrap().scale_or(0.5), 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.json.as_deref(), Some("/tmp/x.json"));
        assert!(a.describe);
    }

    #[test]
    fn refuses_unknown_and_retired_flags() {
        // `--global-pool` went with the global memory pool: refused, not ignored.
        for (flags, err) in [
            (&["--scale", "0.5", "--extra"][..], "unknown flag --extra"),
            (&["--global-pool"], "unknown flag --global-pool"),
            (&["--scale", "0"], "--scale must be positive"),
            (&["--seed"], "--seed needs an integer"),
        ] {
            assert_eq!(parse(flags), Err(err.to_string()));
        }
    }
}
