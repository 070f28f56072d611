//! The benchmark's workloads, each a scenario spec plus the reason it
//! was chosen. `overnet-day` and `churn-10k` are built-ins with
//! overrides only; `ops-burst` is a spec file of the benchmark's own.
//!
//! Every run of a workload shares one host population: the churn trace
//! the spec generates from the built-in's own seed, written once per run
//! as an `AVTRACE v1` file the sessions read back. The run's `--seed`
//! varies the operation schedule and every protocol stream. Letting it
//! vary the population too would measure another system on every seed:
//! how many hosts fall into a target's availability band sets multicast
//! size and anycast path length, and moves `run_s` and the simulated
//! measures by 10–15 % from one population to the next.

use std::path::{Path, PathBuf};

use avmem_scenario::{builtin::builtin, parse_spec, ChurnSpec, ScenarioSpec};
use avmem_util::{Rng, SplitMix64};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &["overnet-day", "churn-10k", "ops-burst"];

const OPS_BURST: &str = include_str!("../workloads/ops-burst.toml");

/// Sessions in one untraced run of `seconds`: at least three, so host
/// times are medians, and otherwise as many as fit at the workload's
/// nominal session time on one core. A fixed count (not a deadline)
/// keeps the inputs of a run a function of its arguments alone.
pub fn sessions(name: &str, seconds: u64) -> usize {
    let nominal_s = match name {
        "overnet-day" => 7.5,
        "churn-10k" => 10.0,
        _ => 5.5,
    };
    ((seconds as f64 / nominal_s).round() as usize).max(3)
}

/// The scenario seed of session `index` of a run with `seed`; each
/// session of a run covers another operation schedule.
pub fn session_seed(seed: u64, index: usize) -> u64 {
    SplitMix64::keyed(&[seed, index as u64]).next_u64()
}

/// Generates workload `name`'s population trace into `dir` and returns
/// the file's path.
pub fn write_population(name: &str, dir: &Path) -> Result<PathBuf, String> {
    let spec = base(name)?;
    let trace = spec.build_trace().map_err(|e| format!("{name}: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.avt"));
    let mut out = Vec::new();
    trace.write_to(&mut out).map_err(|e| e.to_string())?;
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The spec of workload `name` over the population trace at
/// `population`, with `seed` driving the operation schedule and every
/// protocol stream.
pub fn spec(name: &str, seed: u64, population: &Path) -> Result<ScenarioSpec, String> {
    let mut spec = base(name)?;
    spec.churn = ChurnSpec::TraceFile {
        path: population.display().to_string(),
    };
    spec.seed = seed;
    spec.validate().map_err(|e| format!("{name}: {e}"))?;
    Ok(spec)
}

/// Workload `name` as its built-in or spec file gives it, overrides
/// applied.
fn base(name: &str) -> Result<ScenarioSpec, String> {
    let spec = match name {
        // The paper-faithful day, unchanged: event-driven maintenance
        // with small views (v = 38) and the dense pair-hash store.
        "overnet-day" => builtin("overnet-day").ok_or("built-in overnet-day is missing")?,
        // The largest views of the three (v = 100) and the event-driven
        // commit path under churn, cut to fit one benchmark run: a 30 min
        // warm-up, then 30 min at 4 000 ops/h so the op-time percentiles
        // rest on about 2 000 operations.
        "churn-10k" => {
            let mut spec = builtin("stress-10k").ok_or("built-in stress-10k is missing")?;
            spec.name = "churn-10k".into();
            spec.warmup_mins = 30;
            spec.duration_mins = 30;
            spec.health_every_mins = 10;
            spec.workload.ops_per_hour = 4_000.0;
            spec
        }
        // Operations dominate: converged maintenance and 6 000 ops/h.
        "ops-burst" => parse_spec(OPS_BURST).map_err(|e| format!("ops-burst.toml: {e}"))?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {NAMES:?}"
            ))
        }
    };
    Ok(spec)
}
