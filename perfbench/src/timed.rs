//! The untraced run: sessions driven exactly as `ScenarioRunner::run`
//! drives them, timed only at the session boundary and around each step.

use std::path::Path;
use std::time::Instant;

use avmem_scenario::{ScenarioReport, ScenarioRunner};

use crate::check::ops_attempted;
use crate::stats::{median, ratio, tail_quantile, Metrics};
use crate::workloads;

/// One timed session.
pub struct TimedSession {
    /// `ScenarioRunner::session`: trace, harness build and warm-up.
    pub setup_s: f64,
    /// First `step()` until `finish()` returns.
    pub run_s: f64,
    /// Wall time of every op-bearing step: the maintenance owed up to
    /// the op's arrival plus the op itself.
    pub op_ms: Vec<f64>,
    pub report: ScenarioReport,
}

/// Runs one session to completion (closed loop: the next step starts
/// when the previous one returns).
pub fn run_session(runner: &ScenarioRunner) -> Result<TimedSession, String> {
    let t0 = Instant::now();
    let mut session = runner.session().map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut op_ms = Vec::new();
    let t_run = Instant::now();
    loop {
        let is_op = session.next_is_op();
        let t = Instant::now();
        if session.step().is_none() {
            break;
        }
        if is_op {
            op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let report = session.finish();
    let run_s = t_run.elapsed().as_secs_f64();
    Ok(TimedSession {
        setup_s,
        run_s,
        op_ms,
        report,
    })
}

/// The end-to-end metrics of a run's sessions. Host times are medians
/// over the sessions; op-time percentiles pool every op-bearing step;
/// simulated measures pool the sessions' reports. `anycast_fraction` is
/// the workload's operation mix.
pub fn end_to_end(reps: &[TimedSession], anycast_fraction: f64) -> Metrics {
    let n = reps.len();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let runs: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.op_ms.len() as f64 / r.run_s)
        .collect();
    let mut op_ms: Vec<f64> = reps.iter().flat_map(|r| r.op_ms.iter().copied()).collect();
    op_ms.sort_by(f64::total_cmp);
    // Process-wide peaks, so the last report holds the run's maximum.
    let memory = &reps[n - 1].report.memory;
    let mib = |bytes: Option<u64>| bytes.map_or(f64::NAN, |b| b as f64 / (1u64 << 20) as f64);
    let sum = |f: &dyn Fn(&ScenarioReport) -> f64| reps.iter().map(|r| f(&r.report)).sum::<f64>();
    let attempted = sum(&|r| ops_attempted(r) as f64);
    let succeeded = sum(&|r| (r.anycast.delivered + r.multicast.entered) as f64);
    let anycasts = sum(&|r| r.anycast.sent as f64);
    let multicasts = sum(&|r| r.multicast.sent as f64);
    let reliable = sum(&|r| r.multicast.reliability_count as f64);
    let lcc = sum(&|r| r.health.last().map_or(f64::NAN, |h| h.largest_component)) / n as f64;

    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s", n);
    m.push("run_s", median(&runs), "s", n);
    m.push("ops_per_s", median(&rates), "1/s", n);
    m.push(
        "op_ms.p50",
        tail_quantile(&op_ms, 0.5).unwrap_or(f64::NAN),
        "ms",
        op_ms.len(),
    );
    m.push(
        "op_ms.p99",
        tail_quantile(&op_ms, 0.99).unwrap_or(f64::NAN),
        "ms",
        op_ms.len(),
    );
    m.push("peak_rss_mib", mib(memory.peak_rss_bytes), "MiB", 1);
    m.push("heap_peak_mib", mib(memory.heap_peak_bytes), "MiB", 1);
    m.push(
        "op_success_ratio",
        ratio(succeeded, attempted),
        "ratio",
        attempted as usize,
    );
    m.push(
        "sim.anycast_latency_ms",
        ratio(sum(&|r| r.anycast.total_latency_ms as f64), anycasts),
        "ms",
        anycasts as usize,
    );
    m.push(
        "sim.multicast_reliability",
        ratio(sum(&|r| r.multicast.reliability_sum), reliable),
        "ratio",
        reliable as usize,
    );
    // Messages per operation at the workload's mix: per-kind means
    // weighted by the spec's anycast fraction, so the schedule's sampled
    // mix (a multicast costs ~10³ times an anycast) does not move it.
    let msgs_per_anycast = ratio(sum(&|r| r.anycast.total_messages as f64), anycasts);
    let msgs_per_multicast = ratio(sum(&|r| r.multicast.total_messages as f64), multicasts);
    m.push(
        "sim.msgs_per_op",
        anycast_fraction * msgs_per_anycast + (1.0 - anycast_fraction) * msgs_per_multicast,
        "msgs",
        (anycasts + multicasts) as usize,
    );
    m.push("sim.largest_component", lcc, "ratio", n);
    m
}

/// Runs `count` sessions of workload `name`, session `i` on
/// `session_seed(seed, i)`, checking each report against the invariants.
pub fn run_sessions(
    name: &str,
    seed: u64,
    count: usize,
    population: &Path,
    problems: &mut Vec<String>,
) -> Result<Vec<TimedSession>, String> {
    let mut reps = Vec::with_capacity(count);
    for i in 0..count {
        let spec = workloads::spec(name, workloads::session_seed(seed, i), population)?;
        let rep = run_session(&crate::runner(&spec)?)?;
        for broken in crate::check::invariants(&spec, &rep.report) {
            problems.push(format!("session {i}: {broken}"));
        }
        println!(
            "session {i} seed {} setup_s {:.6} run_s {:.6} ops {}",
            spec.seed,
            rep.setup_s,
            rep.run_s,
            rep.op_ms.len()
        );
        reps.push(rep);
    }
    Ok(reps)
}
