//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <overnet-day|churn-10k|ops-burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. With `--trace 0` it runs as many
//! untraced sessions of the workload as fit in about `--seconds` (at
//! least three, each on its own seed derived from `--seed`) and reports
//! the end-to-end metrics. With `--trace 1` it runs one traced session,
//! the set-up stages on their own and one untraced session of the same
//! seed, and reports the per-layer metrics with their wall accounting.
//! Every report must satisfy the invariants in `check.rs`, and the traced
//! and untraced reports must be equal; otherwise the run is reported
//! incorrect and exits with code 1. See `perfbench/README.md` for the
//! workloads, the metrics and which layer should move which metric.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` (operations scheduled, summed over sessions), `failed`
//! (operations the runner could not execute for want of an online
//! initiator) and `metrics`. The lines before it give the host
//! fingerprint and every metric with its unit and sample count.

mod check;
mod host;
mod stats;
mod timed;
mod traced;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use avmem::harness::MaintenanceEngine;
use avmem_scenario::{ScenarioRunner, ScenarioSpec};

use crate::check::ops_attempted;
use crate::stats::Metrics;

/// Where a run writes its workload's population trace, relative to the
/// working directory (the build directory the benchmark also compiles
/// into).
const POPULATION_DIR: &str = ".bench_build/perfbench";

/// The pinned maintenance engine every session runs on.
pub fn engine() -> MaintenanceEngine {
    MaintenanceEngine::Sharded {
        shards: Some(host::SHARDS),
        threads: Some(host::THREADS),
    }
}

/// A runner for `spec` on the pinned engine.
pub fn runner(spec: &ScenarioSpec) -> Result<ScenarioRunner, String> {
    Ok(ScenarioRunner::new(spec.clone())
        .map_err(|e| e.to_string())?
        .with_engine(engine()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(correct)` once the result line is printed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    // Caps every data-parallel loop of the program (AVMON, rebuilds, the
    // global pool), not only the engine's workers. Set before any thread
    // starts.
    std::env::set_var("AVMEM_THREADS", host::THREADS.to_string());
    println!("{}", host::fingerprint(&args.workload, args.seed));

    let population = workloads::write_population(&args.workload, Path::new(POPULATION_DIR))?;
    let mut problems = Vec::new();
    let (metrics, reports) = if args.trace {
        let seed = workloads::session_seed(args.seed, 0);
        let spec = workloads::spec(&args.workload, seed, &population)?;
        traced::run(&spec, &runner(&spec)?, &mut problems)?
    } else {
        let count = workloads::sessions(&args.workload, args.seconds);
        let reps =
            timed::run_sessions(&args.workload, args.seed, count, &population, &mut problems)?;
        let mix = workloads::spec(&args.workload, args.seed, &population)?
            .workload
            .anycast_fraction;
        let metrics = timed::end_to_end(&reps, mix);
        (metrics, reps.into_iter().map(|r| r.report).collect())
    };
    let attempted: u64 = reports.iter().map(ops_attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.skipped_ops).sum();
    problems.extend(
        metrics
            .non_finite()
            .into_iter()
            .map(|name| format!("metric {name} has no value")),
    );
    print_table(&metrics);
    for problem in &problems {
        println!("INCORRECT {problem}");
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    Ok(correct)
}

fn print_table(metrics: &Metrics) {
    for m in &metrics.0 {
        println!(
            "metric {:<32} {:>16.6} {:<6} samples {}",
            m.name, m.value, m.unit, m.samples
        );
    }
}
