//! netpp benchmark: seeded workloads against the release build, every
//! end-to-end metric by name with its unit, and output checks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fabric-wide|fabric-churn|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); run facts and
//! diagnostics go to standard error. `--trace 1` reports the per-layer
//! metrics of a traced run instead of the end-to-end ones. See
//! `perfbench/README.md`.

mod fabric;
mod gen;
mod report;
mod servemix;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Where span files and the daemon's cache directories go: inside the
/// build directory, which is ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench-out")
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(PathBuf::from(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let id = match head.trim().strip_prefix("ref: ") {
        Some(name) => read(name).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .map(|l| l.split(' ').next().unwrap_or_default().to_string())
        }),
        None => Some(head),
    };
    id.map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let outcome: Outcome = match args.workload.as_str() {
        "fabric-wide" => fabric::FABRIC_WIDE.run(args.seed, budget, args.trace),
        "fabric-churn" => fabric::FABRIC_CHURN.run(args.seed, budget, args.trace),
        "serve-mix" => servemix::run(args.seed, budget, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let names: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let missing: Vec<&str> = END_TO_END
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| !outcome.metrics.iter().any(|m| m.name == *n))
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: workload did not measure {missing:?}");
        return ExitCode::FAILURE;
    }

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} available_parallelism={parallelism} \
         profile={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit(),
    );
    for (k, v) in &outcome.facts {
        eprintln!("perfbench:   {k} = {v}");
    }
    let fail_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!(
        "perfbench:   attempted = {}, failed = {}, fail_rate = {fail_rate}",
        outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        eprintln!("perfbench:   {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::result_line(&outcome, names));
    ExitCode::SUCCESS
}
