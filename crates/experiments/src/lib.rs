#![warn(missing_docs)]

//! The paper's experiments ([`paper`]) and the command-line scaffolding
//! every binary of this crate shares: `--scale tiny|small|month` (default
//! `small`), `--seed N` (default 2019), `--dump DIR`, and a banner saying
//! what is being reproduced at which scale.

pub mod paper;

use borg_core::pipeline::SimScale;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Simulation scale.
    pub scale: SimScale,
    /// Base RNG seed.
    pub seed: u64,
    /// Directory for machine-readable series dumps (`--dump DIR`).
    pub dump: Option<std::path::PathBuf>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            scale: SimScale::Small,
            seed: 2019,
            dump: None,
        }
    }
}

/// Parses `--scale`, `--seed` and `--dump`; anything not starting with
/// `-` is returned in order as a positional argument.
pub fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(ExpOpts, Vec<String>), String> {
    let mut opts = ExpOpts::default();
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                opts.scale = match args.next().as_deref() {
                    Some("tiny") => SimScale::Tiny,
                    Some("small") => SimScale::Small,
                    Some("month") => SimScale::Month,
                    other => return Err(format!("unknown scale {other:?}; use tiny|small|month")),
                }
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?
            }
            "--dump" => {
                let dir = args.next().filter(|d| !d.starts_with('-'));
                opts.dump = Some(dir.ok_or("--dump needs a directory")?.into());
            }
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "unknown argument {flag:?}; options: [--scale tiny|small|month] [--seed N] [--dump DIR]"
                ))
            }
            _ => positional.push(arg),
        }
    }
    Ok((opts, positional))
}

/// The options of a binary that takes no positional arguments, from
/// `std::env::args`; a bad command line is reported on stderr and exits 2.
pub fn parse_opts() -> ExpOpts {
    match parse_args(std::env::args().skip(1)) {
        Ok((opts, positional)) if positional.is_empty() => opts,
        Ok((_, positional)) => exit_usage(&format!("unknown argument {:?}", positional[0])),
        Err(e) => exit_usage(&e),
    }
}

/// Reports a bad command line on stderr and exits 2.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The scale and seed a run used, in one line.
pub fn scale_line(opts: &ExpOpts) -> String {
    let cfg = opts.scale.config(opts.seed);
    format!(
        "scale: {:?} ({}% of a cell, {:.0} days, seed {})",
        opts.scale,
        cfg.scale * 100.0,
        cfg.horizon.as_days_f64(),
        opts.seed
    )
}

/// Prints a standard experiment banner.
pub fn banner(id: &str, what: &str, opts: &ExpOpts) {
    println!("=== {id}: {what} ===");
    println!("{}\n", scale_line(opts));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(ExpOpts, Vec<String>), String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let (o, positional) = parse(&[]).unwrap();
        assert_eq!(o.seed, 2019);
        assert_eq!(o.scale, SimScale::Small);
        assert!(o.dump.is_none() && positional.is_empty());
    }

    #[test]
    fn options_and_positionals_in_any_order() {
        let (o, positional) =
            parse(&["a", "--seed", "7", "b", "--scale", "tiny", "--dump", "out"]).unwrap();
        assert_eq!((o.seed, o.scale), (7, SimScale::Tiny));
        assert_eq!(o.dump, Some("out".into()));
        assert_eq!(positional, ["a", "b"]);
    }

    #[test]
    fn bad_command_lines_are_errors_not_panics() {
        for (args, needle) in [
            (&["--seed", "x"][..], "--seed needs an integer"),
            (&["--seed"], "--seed needs an integer"),
            (&["--dump"], "--dump needs a directory"),
            (&["--dump", "--seed", "1"], "--dump needs a directory"),
            (&["--scale", "bogus"], "use tiny|small|month"),
            (&["--shards"], "unknown argument"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
