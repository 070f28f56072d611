//! The traced run: per-layer numbers, timed from outside around calls
//! into each layer's public functions, plus the counters the program
//! already exposes.
//!
//! One traced session is stepped with a metrics registry attached. Each
//! step's wall time is split into the four maintenance phases (deltas of
//! `phase_timings`), operation execution (the delta of the runner's own
//! per-op execution histogram), and for health steps the health and
//! estimator samples (timed by repeating the same read-only calls on the
//! session's harness right after the step). What a step spends beyond
//! those is maintenance the phases do not cover (`harness.maint_other_s`).
//! Set-up is split by repeating its stages (trace, harness build,
//! warm-up) outside the session; the warm-up's phase spans come from the
//! real session, the repetition adds the part they do not cover. The wall-accounting rows then add up to
//! the traced session's `setup_s + run_s` up to an explicit residual: the
//! runner's own bookkeeping between steps, this module's per-step reads,
//! and the difference between the repeated and the real set-up.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use avmem::harness::{AvmemSim, SimOracle};
use avmem::{PhaseTimings, SliverScope};
use avmem_avmon::AvailabilityOracle;
use avmem_metrics::{shard_lane, Registry};
use avmem_scenario::{ScenarioReport, ScenarioRunner, ScenarioSpec};
use avmem_shuffle::ShuffleConfig;
use avmem_sim::SimDuration;
use avmem_util::{NodeId, Rng, SplitMix64};

use crate::host::SHARDS;
use crate::stats::{median, ratio, tail_quantile, Metrics};
use crate::timed::run_session;

/// Phase indices of the harness tracer (`avmem::harness` names them
/// oracle, propose, commit, finalize).
const PHASES: [&str; 4] = ["oracle", "propose", "commit", "finalize"];
/// Phases whose shard workers record busy time per lane (the commit
/// workers record none).
const LANE_PHASES: [usize; 2] = [1, 3];
/// Phases that run on shard workers.
const SHARDED_PHASES: [usize; 3] = [1, 2, 3];

/// Population from which the runner samples health through the
/// streaming `health_stats` path instead of an overlay snapshot (the
/// runner's `STREAMING_HEALTH_HOSTS`).
const STREAMING_HEALTH_HOSTS: usize = 100_000;

/// Merges replayed for `shuffle.merge_us`.
const MERGE_PROBES: usize = 256;

/// Key of the probe streams (distinct from every runner stream).
const PROBE_STREAM: u64 = 0xbe0c_0001;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Phase totals in `PHASES` order.
fn phases(t: &PhaseTimings) -> [Duration; 4] {
    [t.oracle, t.propose, t.commit, t.finalize]
}

fn phase_sum(t: &PhaseTimings) -> Duration {
    phases(t).iter().sum()
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Per-phase busy time of the coordinator and of each shard lane.
fn lane_snapshot(sim: &AvmemSim) -> Vec<[Duration; 1 + SHARDS]> {
    let tracer = sim.tracer();
    (0..PHASES.len())
        .map(|p| {
            let mut row = [Duration::ZERO; 1 + SHARDS];
            row[0] = tracer.lane_total(p, 0);
            for s in 0..SHARDS {
                row[1 + s] = tracer.lane_total(p, shard_lane(s));
            }
            row
        })
        .collect()
}

fn phase_allocs(sim: &AvmemSim) -> Vec<u64> {
    (0..PHASES.len())
        .map(|p| sim.tracer().phase_allocs(p))
        .collect()
}

/// Times the health sample the runner takes at a health boundary.
fn health_probe(sim: &AvmemSim) -> f64 {
    let t = Instant::now();
    if sim.trace().num_nodes() >= STREAMING_HEALTH_HOSTS {
        black_box(sim.health_stats());
    } else {
        let snapshot = sim.snapshot();
        black_box((
            snapshot.online_count(),
            snapshot.mean_degree(),
            snapshot.largest_component_fraction(SliverScope::Both),
        ));
    }
    secs(t.elapsed())
}

/// Times one batch of estimator-accuracy samples like the runner draws.
fn estimator_probe(sim: &AvmemSim, samples: u64, rng: &mut SplitMix64) -> f64 {
    let t = Instant::now();
    let (trace, oracle, now) = (sim.trace(), sim.oracle(), sim.now());
    let n = trace.num_nodes();
    let mut error = 0.0;
    for _ in 0..samples {
        let (querier, target) = (rng.index(n), rng.index(n));
        if let Some(estimate) =
            oracle.estimate(NodeId::new(querier as u64), NodeId::new(target as u64), now)
        {
            error += (estimate.value() - trace.long_term_availability(target).value()).abs();
        }
    }
    black_box(error);
    secs(t.elapsed())
}

/// Mean view fill over online nodes and the median time of `View::merge`
/// replayed on cloned live views with subsets drawn from other live views.
fn shuffle_probe(sim: &AvmemSim, rng: &mut SplitMix64) -> (f64, f64) {
    let trace = sim.trace();
    let n = trace.num_nodes();
    let now = sim.now();
    let online: Vec<usize> = (0..n).filter(|&i| trace.is_online(i, now)).collect();
    let view = |i: usize| sim.shuffle_view(NodeId::new(i as u64));
    let fill = ratio(
        online
            .iter()
            .map(|&i| ratio(view(i).len() as f64, view(i).capacity() as f64))
            .sum(),
        online.len() as f64,
    );
    if online.len() < 2 {
        return (fill, 0.0);
    }
    let length = ShuffleConfig::for_system_size(n).shuffle_length;
    let mut times = Vec::with_capacity(MERGE_PROBES);
    for _ in 0..MERGE_PROBES {
        let i = online[rng.index(online.len())];
        let j = online[rng.index(online.len())];
        let sent = view(i).random_subset(rng, length, None);
        let received = view(j).random_subset(rng, length, None);
        let mut merged = view(i).clone();
        let t = Instant::now();
        merged.merge(
            NodeId::new(i as u64),
            black_box(&received),
            black_box(&sent),
        );
        times.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(&merged);
    }
    (fill, median(&times))
}

/// Sums of one traced session's step loop.
#[derive(Default)]
struct StepTotals {
    maint_other: f64,
    anycast: Vec<f64>,
    multicast: Vec<f64>,
    skipped: f64,
    health: f64,
    estimator: f64,
    /// Allocation calls and count of op steps that ran no maintenance
    /// cohort and opened no allocating phase span.
    op_allocs: u64,
    op_alloc_steps: u64,
}

/// The per-layer metrics of one workload and seed, with the reports of
/// the traced and the untraced session; what the correctness gate finds
/// goes to `problems`.
pub fn run(
    spec: &ScenarioSpec,
    runner: &ScenarioRunner,
    problems: &mut Vec<String>,
) -> Result<(Metrics, Vec<ScenarioReport>), String> {
    avmem_metrics::set_alloc_probe(avmem_util::heap::alloc_calls);
    let mut rng = SplitMix64::keyed(&[spec.seed, PROBE_STREAM]);

    // The traced session comes first, so its set-up heap peak is the
    // process's.
    let t0 = Instant::now();
    let mut session = runner.session().map_err(|e| e.to_string())?;
    let setup_s = secs(t0.elapsed());
    let setup_heap_peak = avmem_util::heap::heap_stats().peak_bytes;
    let registry = Arc::new(Registry::new());
    session.set_metrics(&registry);
    let exec_us = registry.histogram(
        "avmem_op_exec_us",
        "Wall-clock execution time per operation (µs).",
        &[],
    );

    let timings0 = session.sim().phase_timings();
    let lanes0 = lane_snapshot(session.sim());
    let allocs0 = phase_allocs(session.sim());
    let mut totals = StepTotals::default();
    let mut probe_s = 0.0;
    let t_run = Instant::now();
    loop {
        let is_op = session.next_is_op();
        let before = session.report();
        let counts0 = (
            before.anycast.sent,
            before.multicast.sent,
            before.skipped_ops,
            before.health.len(),
        );
        let phases0 = phase_sum(&session.sim().phase_timings());
        let cohorts0 = session.sim().tracer().cohorts();
        let span_allocs0: u64 = phase_allocs(session.sim()).iter().sum();
        let exec0 = exec_us.snapshot().sum;
        let heap0 = avmem_util::heap::alloc_calls();
        let t = Instant::now();
        if session.step().is_none() {
            break;
        }
        let wall = secs(t.elapsed());
        let allocs = avmem_util::heap::alloc_calls() - heap0;
        let sim = session.sim();
        let phases = secs(phase_sum(&sim.phase_timings()) - phases0);
        let after = session.report();
        if is_op {
            let exec = (exec_us.snapshot().sum - exec0) as f64 * 1e-6;
            if after.anycast.sent > counts0.0 {
                totals.anycast.push(exec);
            } else if after.multicast.sent > counts0.1 {
                totals.multicast.push(exec);
            } else if after.skipped_ops > counts0.2 {
                totals.skipped += exec;
            }
            totals.maint_other += wall - phases - exec;
            let span_allocs: u64 = phase_allocs(sim).iter().sum();
            if sim.tracer().cohorts() == cohorts0 && span_allocs == span_allocs0 {
                totals.op_allocs += allocs;
                totals.op_alloc_steps += 1;
            }
        } else if after.health.len() > counts0.3 {
            let tp = Instant::now();
            let health = health_probe(sim);
            let estimator = estimator_probe(sim, spec.report.estimator_samples, &mut rng);
            probe_s += secs(tp.elapsed());
            totals.health += health;
            totals.estimator += estimator;
            totals.maint_other += wall - phases - health - estimator;
        } else {
            // A converged rebuild: all of it but the phase spans.
            totals.maint_other += wall - phases;
        }
    }

    let tp = Instant::now();
    let sim = session.sim();
    let (view_fill, merge_us) = shuffle_probe(sim, &mut rng);
    let lanes1 = lane_snapshot(sim);
    let allocs1 = phase_allocs(sim);
    let hashes = sim.hash_store_stats();
    let heap_live = avmem_util::heap::heap_stats().live_bytes;
    let timings_loop = sim.phase_timings();
    probe_s += secs(tp.elapsed());

    let tf = Instant::now();
    let report = session.finish();
    let finish_wall = secs(tf.elapsed());
    let run_s = secs(t_run.elapsed()) - probe_s;
    let finish_phases = secs(phase_sum(&report.timings) - phase_sum(&timings_loop));
    for broken in crate::check::invariants(spec, &report) {
        problems.push(format!("traced session: {broken}"));
    }

    // Set-up, repeated stage by stage.
    let t = Instant::now();
    let trace = spec.build_trace().map_err(|e| e.to_string())?;
    let trace_build_s = secs(t.elapsed());
    let mut config = spec.sim_config();
    config.engine = crate::engine();
    let t = Instant::now();
    black_box(SimOracle::build(config.oracle, &trace, spec.seed));
    let avmon_build_s = secs(t.elapsed());
    let t = Instant::now();
    let mut replica = AvmemSim::new(trace, config);
    let harness_new_s = secs(t.elapsed());
    let t = Instant::now();
    replica.warm_up(SimDuration::from_mins(spec.warmup_mins));
    let replica_warmup = t.elapsed();
    // The warm-up's phase spans are read from the real session; only
    // the maintenance they do not cover comes from the repetition.
    let warmup_other = replica_warmup.saturating_sub(phase_sum(&replica.phase_timings()));
    let harness_warmup_s = secs(phase_sum(&timings0) + warmup_other);
    drop(replica);

    // The untraced session the traced one must match, and the base of
    // the tracing overhead.
    let untraced = run_session(runner)?;
    problems.extend(crate::check::same_report(
        "untraced vs traced session",
        &untraced.report,
        &report,
    ));

    let mut m = Metrics::default();

    // Wall accounting: these rows make up setup_s + run_s.
    let setup_rows = [
        ("trace.build_s", trace_build_s),
        ("harness.new_s", harness_new_s),
        ("harness.warmup_s", harness_warmup_s),
    ];
    let (run_phases, setup_phases) = (phases(&report.timings), phases(&timings0));
    let mut run_rows: Vec<(String, f64)> = (0..PHASES.len())
        .map(|p| {
            let delta = run_phases[p] - setup_phases[p];
            (format!("harness.{}_s", PHASES[p]), secs(delta))
        })
        .collect();
    run_rows.extend([
        ("harness.maint_other_s".to_string(), totals.maint_other),
        ("ops.anycast_s".to_string(), totals.anycast.iter().sum()),
        ("ops.multicast_s".to_string(), totals.multicast.iter().sum()),
        ("ops.skipped_s".to_string(), totals.skipped),
        ("scenario.health_s".to_string(), totals.health),
        ("scenario.estimator_s".to_string(), totals.estimator),
        ("scenario.finish_s".to_string(), finish_wall - finish_phases),
    ]);
    let total = setup_s + run_s;
    let explained: f64 =
        setup_rows.iter().map(|r| r.1).sum::<f64>() + run_rows.iter().map(|r| &r.1).sum::<f64>();
    for (name, value) in setup_rows {
        m.push(name, value, "s", 1);
    }
    for (name, value) in run_rows {
        m.push(name, value, "s", 1);
    }
    m.push("wall.setup_s", setup_s, "s", 1);
    m.push("wall.run_s", run_s, "s", 1);
    m.push("wall.residual_s", total - explained, "s", 1);
    m.push(
        "wall.residual_share",
        (total - explained) / total,
        "ratio",
        1,
    );
    m.push("wall.tracing_overhead", run_s / untraced.run_s, "ratio", 2);

    m.push("avmon.build_s", avmon_build_s, "s", 1);
    m.push(
        "harness.cohorts",
        (report.timings.cohorts - timings0.cohorts) as f64,
        "count",
        1,
    );
    for p in LANE_PHASES {
        let coord = secs(lanes1[p][0] - lanes0[p][0]);
        let busy: Vec<f64> = (1..=SHARDS)
            .map(|l| secs(lanes1[p][l] - lanes0[p][l]))
            .collect();
        let busy_max = busy.iter().copied().fold(0.0, f64::max);
        let busy_mean = busy.iter().sum::<f64>() / SHARDS as f64;
        let name = PHASES[p];
        m.push(format!("harness.{name}.busy_max_s"), busy_max, "s", SHARDS);
        m.push(
            format!("harness.{name}.imbalance"),
            ratio(busy_max, busy_mean),
            "ratio",
            SHARDS,
        );
        // The single worker (`THREADS`) runs the shard lanes one after
        // the other, so the coordinator's own share (transposes,
        // placement, hand-offs) is what their sum leaves.
        let lanes: f64 = busy.iter().sum();
        m.push(format!("harness.{name}.coord_s"), coord - lanes, "s", 1);
    }
    for p in SHARDED_PHASES {
        let name = PHASES[p];
        m.push(
            format!("harness.{name}.allocs"),
            (allocs1[p] - allocs0[p]) as f64,
            "count",
            1,
        );
    }

    m.push("shuffle.view_fill", view_fill, "ratio", 1);
    m.push("shuffle.merge_us", merge_us, "us", MERGE_PROBES);

    let fin = &report.finalize;
    let memo = fin.memo_hits + fin.memo_misses + fin.memo_bypassed;
    m.push(
        "finalize.memo_hit_ratio",
        ratio(fin.memo_hits as f64, memo as f64),
        "ratio",
        1,
    );
    m.push(
        "finalize.refresh_skip_ratio",
        ratio(
            fin.refresh_skipped as f64,
            (fin.refresh_skipped + fin.refresh_evaluated) as f64,
        ),
        "ratio",
        1,
    );
    m.push(
        "finalize.discover_pruned",
        fin.discover_pruned as f64,
        "count",
        1,
    );
    let pair = &fin.pair_hash;
    m.push(
        "finalize.pair_cache_hit_ratio",
        ratio(pair.hits as f64, (pair.hits + pair.misses) as f64),
        "ratio",
        1,
    );
    m.push("hashes.rows_built", hashes.rows_built as f64, "count", 1);
    m.push(
        "hashes.lru_hit_ratio",
        ratio(
            hashes.lru_hits as f64,
            (hashes.lru_hits + hashes.lru_misses) as f64,
        ),
        "ratio",
        1,
    );
    m.push(
        "hashes.direct_hashes",
        hashes.direct_hashes as f64,
        "count",
        1,
    );

    for (kind, samples) in [
        ("anycast", &mut totals.anycast),
        ("multicast", &mut totals.multicast),
    ] {
        samples.sort_by(f64::total_cmp);
        let us = |q| tail_quantile(samples, q).map_or(f64::NAN, |s| s * 1e6);
        m.push(format!("ops.{kind}_us.p50"), us(0.5), "us", samples.len());
        m.push(format!("ops.{kind}_us.p90"), us(0.9), "us", samples.len());
    }
    m.push(
        "ops.msgs_per_multicast",
        ratio(
            report.multicast.total_messages as f64,
            report.multicast.sent as f64,
        ),
        "msgs",
        report.multicast.sent as usize,
    );
    m.push(
        "ops.allocs_per_op",
        ratio(totals.op_allocs as f64, totals.op_alloc_steps as f64),
        "count",
        totals.op_alloc_steps as usize,
    );
    m.push(
        "avmon.estimator_mae",
        report.estimator.mae(),
        "ratio",
        report.estimator.answered as usize,
    );
    m.push("mem.setup_heap_peak_mib", mib(setup_heap_peak), "MiB", 1);
    m.push("mem.heap_live_mib", mib(heap_live), "MiB", 1);
    Ok((m, vec![report, untraced.report]))
}
