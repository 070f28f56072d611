//! Pins the sharded event-driven engine to its one-shard, one-thread
//! reference configuration.
//!
//! The contract under test (see `AvmemSim::run_event_driven`): a
//! maintenance run's final state — every node's membership lists, every
//! node's shuffle view, and the overlay snapshot with its metrics — is a
//! function of `(trace, config, duration)` only. Neither the shard count
//! nor the worker-thread count may perturb a single bit, for any
//! maintenance period and any oracle fidelity.

use std::sync::Arc;

use avmem::harness::{
    AvmemSim, InitiatorBand, MaintenanceEngine, MaintenanceMode, OracleChoice, PairHashes,
    SimConfig,
};
use avmem_sim::SimDuration;
use avmem_trace::{ChurnTrace, OvernetModel};
use avmem_util::NodeId;

/// Shard counts every cell sweeps. 1 exercises one shard driven by
/// several threads, the rest exercise cross-shard batch exchange at
/// increasing fan-out (8 shards over ~100 nodes forces small, uneven
/// slices).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Thread counts for the full-matrix cell: single worker (inline
/// execution), fewer threads than shards, more threads than shards.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn trace(hosts: usize, seed: u64) -> ChurnTrace {
    OvernetModel::default().hosts(hosts).days(1).generate(seed)
}

fn config(
    seed: u64,
    oracle: OracleChoice,
    maintenance: MaintenanceMode,
    engine: MaintenanceEngine,
) -> SimConfig {
    let mut config = SimConfig::paper_default(seed);
    config.oracle = oracle;
    config.maintenance = maintenance;
    config.engine = engine;
    config
}

fn sharded(shards: usize, threads: usize) -> MaintenanceEngine {
    MaintenanceEngine::Sharded {
        shards: Some(shards),
        threads: Some(threads),
    }
}

/// The reference every candidate is pinned against: one shard on one
/// thread, every phase inline on the calling thread.
fn reference_engine() -> MaintenanceEngine {
    sharded(1, 1)
}

/// Full-state equality: memberships, shuffle views, snapshot, metrics.
fn assert_state_equal(reference: &AvmemSim, candidate: &AvmemSim, label: &str) {
    for i in 0..reference.trace().num_nodes() {
        let id = NodeId::new(i as u64);
        assert_eq!(
            reference.membership(id),
            candidate.membership(id),
            "{label}: membership of node {i} diverged"
        );
        assert_eq!(
            reference.shuffle_view(id),
            candidate.shuffle_view(id),
            "{label}: shuffle view of node {i} diverged"
        );
    }
    let (a, b) = (reference.snapshot(), candidate.snapshot());
    assert_eq!(a, b, "{label}: snapshots diverged");
    assert_eq!(
        a.mean_degree(),
        b.mean_degree(),
        "{label}: snapshot metrics diverged"
    );
}

/// Runs one (periods, oracle) cell: the one-shard, one-thread reference
/// vs every other layout over `hours` of maintenance. `full_matrix`
/// sweeps every (shard, thread) pair; the reduced sweep runs each shard
/// count at one rotating thread count to keep the suite's runtime in
/// check. The (1, 1) pair is the reference itself and is skipped.
/// `min_degree` guards against vacuous equality (empty == empty).
#[allow(clippy::too_many_arguments)]
fn check_cell(
    hosts: usize,
    seed: u64,
    oracle: OracleChoice,
    maintenance: MaintenanceMode,
    hours: u64,
    min_degree: f64,
    full_matrix: bool,
    label: &str,
) {
    let trace = trace(hosts, seed);
    let mut reference = AvmemSim::new(
        trace.clone(),
        config(seed, oracle, maintenance, reference_engine()),
    );
    reference.warm_up(SimDuration::from_hours(hours));
    // Guard against vacuous equality: maintenance must have built state.
    assert!(
        reference.snapshot().mean_degree() > min_degree,
        "{label}: reference run built no overlay"
    );

    for (i, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let thread_counts: &[usize] = if full_matrix {
            &THREAD_COUNTS
        } else {
            // Rotate through the thread counts so every count still
            // appears in the cell without the full cross product.
            std::slice::from_ref(&THREAD_COUNTS[i % THREAD_COUNTS.len()])
        };
        for &threads in thread_counts {
            if (shards, threads) == (1, 1) {
                continue;
            }
            let mut candidate = AvmemSim::new(
                trace.clone(),
                config(seed, oracle, maintenance, sharded(shards, threads)),
            );
            candidate.warm_up(SimDuration::from_hours(hours));
            assert_state_equal(
                &reference,
                &candidate,
                &format!("{label}, {shards} shards x {threads} threads"),
            );
        }
    }
}

fn fast_periods() -> MaintenanceMode {
    MaintenanceMode::EventDriven {
        protocol_period: SimDuration::from_secs(15),
        refresh_period: SimDuration::from_mins(3),
    }
}

#[test]
fn sharded_matches_serial_paper_periods_exact_oracle() {
    // The main cell runs the full shard x thread matrix.
    check_cell(
        150,
        7,
        OracleChoice::Exact,
        MaintenanceMode::paper_event_driven(),
        2,
        0.5,
        true,
        "paper periods / exact oracle",
    );
}

#[test]
fn sharded_matches_serial_paper_periods_noisy_oracle() {
    // Per-querier noise: divergent caches are the worst case for any
    // ordering bug — every (querier, target, epoch) triple draws its own
    // perturbation, so a single out-of-order estimate shows up.
    check_cell(
        150,
        8,
        OracleChoice::paper_noise(),
        MaintenanceMode::paper_event_driven(),
        2,
        0.5,
        false,
        "paper periods / per-querier noisy oracle",
    );
}

#[test]
fn sharded_matches_serial_fast_periods_exact_oracle() {
    check_cell(
        120,
        9,
        OracleChoice::Exact,
        fast_periods(),
        1,
        0.5,
        false,
        "fast periods / exact oracle",
    );
}

#[test]
fn pooled_commit_buffers_match_serial_across_full_matrix() {
    // Commit-path stress leg: 15s protocol periods maximise shuffle
    // traffic, so the counting-bucket placement and the recycled cohort
    // buffers (outboxes, transpose scratch, timeout notices) are
    // exercised thousands of times per run. Pinned across the *full*
    // shard x thread matrix: any stale byte leaking out of a pooled
    // buffer, or any ordering drift in the bucketed commit, breaks
    // bit-identity with the one-shard, one-thread reference.
    check_cell(
        120,
        23,
        OracleChoice::Exact,
        fast_periods(),
        2,
        0.5,
        true,
        "pooled counting-bucket commit / full shard x thread matrix",
    );
}

#[test]
fn sharded_matches_serial_fast_periods_shared_noise_oracle() {
    check_cell(
        120,
        10,
        OracleChoice::NoisyShared {
            error: 0.05,
            staleness: SimDuration::from_mins(20),
        },
        fast_periods(),
        1,
        0.5,
        false,
        "fast periods / shared-noise oracle",
    );
}

#[test]
fn sharded_matches_serial_with_full_avmon_service() {
    // The paper's actual monitoring service: AVMON's ping-based
    // estimates evolve as the oracle advances (once per cohort, outside
    // the parallel phases) and are read concurrently by finalize
    // workers. Estimates take hours to appear, so this cell warms
    // longer and accepts a sparser overlay than the instant oracles.
    check_cell(
        100,
        13,
        OracleChoice::Avmon {
            config: avmem_avmon::AvmonConfig::default(),
        },
        MaintenanceMode::paper_event_driven(),
        10,
        0.1,
        false,
        "paper periods / full AVMON service",
    );
}

/// One cell per oracle fidelity: (label, oracle, maintenance, hours).
/// AVMON estimates take hours to appear, so its cell warms longest.
fn oracle_cells() -> [(&'static str, OracleChoice, MaintenanceMode, u64); 4] {
    [
        (
            "exact",
            OracleChoice::Exact,
            MaintenanceMode::paper_event_driven(),
            2,
        ),
        (
            "shared noise",
            OracleChoice::NoisyShared {
                error: 0.05,
                staleness: SimDuration::from_mins(20),
            },
            fast_periods(),
            1,
        ),
        (
            "per-querier noise",
            OracleChoice::paper_noise(),
            MaintenanceMode::paper_event_driven(),
            2,
        ),
        (
            "avmon",
            OracleChoice::Avmon {
                config: avmem_avmon::AvmonConfig::default(),
            },
            MaintenanceMode::paper_event_driven(),
            6,
        ),
    ]
}

#[test]
fn hash_store_modes_agree_across_engines() {
    // Populations above 8 192 hosts get the direct pair-hash store
    // (every pair hashed on the fly) instead of dense rows. Injected at
    // suite scale, it must land on the dense one-shard, one-thread
    // state under every oracle fidelity, with the finalize fast path
    // and the reference path, on every engine layout.
    for (label, oracle, maintenance, hours) in oracle_cells() {
        let trace = trace(110, 23);
        let mut reference = AvmemSim::new(
            trace.clone(),
            config(23, oracle, maintenance, reference_engine()),
        );
        reference.warm_up(SimDuration::from_hours(hours));
        assert!(
            reference.hash_store_stats().cached_rows > 0,
            "{label}: the reference must run on dense rows"
        );
        assert!(
            reference.snapshot().mean_degree() > 0.1,
            "{label}: reference run built no overlay"
        );
        for finalize_fast in [true, false] {
            for engine in [reference_engine(), sharded(4, 2), sharded(8, 8)] {
                let mut cfg = config(23, oracle, maintenance, engine);
                cfg.finalize_fast = finalize_fast;
                let direct = Arc::new(PairHashes::direct(trace.num_nodes()));
                let mut candidate = AvmemSim::with_hashes(trace.clone(), cfg, direct);
                candidate.warm_up(SimDuration::from_hours(hours));
                assert_eq!(candidate.hash_store_stats().cached_rows, 0);
                assert_state_equal(
                    &reference,
                    &candidate,
                    &format!("direct store, {label}, fast {finalize_fast}, {engine:?}"),
                );
            }
        }
    }
}

#[test]
fn fast_finalize_matches_reference_path_across_oracles() {
    // `finalize_fast = false` recovers the pair-at-a-time reference
    // evaluation; the fast path (epoch-memoized thresholds, batched
    // estimates, refresh short-circuiting) must be bit-identical to it
    // under every oracle fidelity — including per-querier noise, where
    // the missing epoch disables every cache but thresholds are still
    // hoisted per finalize op.
    for (label, oracle, maintenance, hours) in oracle_cells() {
        let trace = trace(110, 19);
        let mut slow_cfg = config(19, oracle, maintenance, reference_engine());
        slow_cfg.finalize_fast = false;
        let mut reference = AvmemSim::new(trace.clone(), slow_cfg);
        reference.warm_up(SimDuration::from_hours(hours));
        for engine in [reference_engine(), sharded(4, 2)] {
            let fast_cfg = config(19, oracle, maintenance, engine);
            assert!(fast_cfg.finalize_fast, "fast path must be the default");
            let mut candidate = AvmemSim::new(trace.clone(), fast_cfg);
            candidate.warm_up(SimDuration::from_hours(hours));
            assert_state_equal(
                &reference,
                &candidate,
                &format!("fast vs slow finalize, {label}, {engine:?}"),
            );
        }
    }
}

#[test]
fn equivalence_survives_incremental_warm_up() {
    // The schedule persists across warm_up boundaries (chopped advances
    // equal one big advance); the engines must stay in lockstep across
    // those handoffs too.
    let trace = trace(100, 11);
    let maintenance = MaintenanceMode::paper_event_driven();
    let mut reference = AvmemSim::new(
        trace.clone(),
        config(3, OracleChoice::Exact, maintenance, reference_engine()),
    );
    let mut candidate = AvmemSim::new(
        trace,
        config(3, OracleChoice::Exact, maintenance, sharded(4, 4)),
    );
    for _ in 0..3 {
        reference.warm_up(SimDuration::from_mins(40));
        candidate.warm_up(SimDuration::from_mins(40));
    }
    assert_state_equal(&reference, &candidate, "incremental warm-up");
}

#[test]
fn engines_agree_on_downstream_operations() {
    // Same maintenance state ⇒ same downstream operation randomness: the
    // initiator draw consumes the run RNG identically on both engines.
    let trace = trace(150, 12);
    let maintenance = MaintenanceMode::paper_event_driven();
    let mut reference = AvmemSim::new(
        trace.clone(),
        config(5, OracleChoice::Exact, maintenance, reference_engine()),
    );
    let mut candidate = AvmemSim::new(
        trace,
        config(5, OracleChoice::Exact, maintenance, sharded(8, 8)),
    );
    reference.warm_up(SimDuration::from_hours(1));
    candidate.warm_up(SimDuration::from_hours(1));
    for band in [InitiatorBand::Low, InitiatorBand::Mid, InitiatorBand::High] {
        assert_eq!(
            reference.random_online_initiator(band),
            candidate.random_online_initiator(band),
            "initiator draw diverged for {band:?}"
        );
    }
}
