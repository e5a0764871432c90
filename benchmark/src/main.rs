//! pipeline-bench: the repo's one benchmark. See `benchmark/README.md`.

mod calibrate;
mod contract;
mod digest;
mod harness;
mod host;
mod spans;
mod stats;
mod workloads;

use harness::{Bench, Opts};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: pipeline-bench [--workload] <name> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--check]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 2019,
        seconds: 10.0,
        traced: false,
        check: false,
        out_dir: std::env::var_os("PIPELINE_BENCH_OUT")
            .map_or_else(|| PathBuf::from("target/benchmark"), PathBuf::from),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?.clone(),
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => opts.traced = value("--trace")? == "1",
            "--traced" => opts.traced = true,
            "--check" => opts.check = true,
            name if !name.starts_with('-') && opts.workload.is_empty() => {
                opts.workload = name.to_string();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !contract::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}\nworkloads: {}", contract::WORKLOADS.join(" "));
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::from(2);
    }
    let mut bench = Bench::new(opts);
    workloads::run(&mut bench);
    if bench.finish(&contract::END_TO_END, &contract::PER_LAYER) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
