//! Pair-hash storage: dense lazy rows, or hashing on the fly.
//!
//! Eq. 1 evaluates `H(id(x), id(y))` for ordered node pairs, and SHA-256
//! dominates the per-pair cost. A dense `N × N` `f64` matrix is `8·N²`
//! bytes (80 GB at `N = 10⁵`), so [`PairHashes`] keeps one of two stores,
//! chosen from the population size alone by [`PairHashes::new`]:
//!
//! * **dense** (`8·N²` ≤ 512 MiB, i.e. `N` ≤ 8 192) — each row `x` is
//!   hashed once, in the thread that first needs it, and kept; later
//!   reads are array lookups. Untouched rows cost nothing, so sparse
//!   access patterns (event-driven maintenance) never pay the `O(N²)`
//!   up-front hashing an eager matrix would. On the paper's 1 442-host
//!   day event-driven finalize reads each stored hash ~11 times (21.5 M
//!   reads against 1.9 M row hashes), and the converged rebuild reads
//!   whole rows.
//! * **direct** (larger populations) — nothing is stored; single-pair
//!   reads hash on the fly and bulk consumers fill a caller-provided
//!   scratch row, keeping memory `O(N)` per thread.
//!
//! There is deliberately no per-pair or hot-row cache in front of the
//! direct store. On `stress-10k` (10⁴ hosts, one warm hour) a shard-local
//! pair map served 28% of finalize reads, yet peak heap was 355 MiB with
//! it and 19 MiB without, and finalize took twice as long; at 10⁶ hosts
//! its hit ratio was 0.04%. An LRU of hot rows was never selected by any
//! benchmark workload.
//!
//! Both stores agree bit-for-bit with [`avmem_util::consistent_hash`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use avmem_util::parallel::{default_threads, par_chunks_mut};
use avmem_util::{consistent_hash, NodeId};

/// Largest population kept in the dense store: its full matrix is
/// `8 · 8 192²` bytes = 512 MiB.
const DENSE_MAX_NODES: usize = 8192;

/// Pair hashes `H(id(x), id(y))` for the trace population `0..n`.
///
/// # Examples
///
/// ```
/// use avmem::harness::PairHashes;
/// use avmem_util::{consistent_hash, NodeId};
///
/// let hashes = PairHashes::compute(10);
/// assert_eq!(
///     hashes.get(3, 7),
///     consistent_hash(NodeId::new(3), NodeId::new(7))
/// );
///
/// // The direct store answers the same API by hashing on the fly.
/// let direct = PairHashes::direct(10);
/// assert_eq!(direct.get(3, 7), hashes.get(3, 7));
/// ```
#[derive(Debug)]
pub struct PairHashes {
    n: usize,
    store: Store,
    counters: StoreCounters,
}

/// Cumulative counters of the shared store (relaxed atomics; SHA-256
/// dominates every path that bumps them). Read through
/// [`PairHashes::store_stats`] by the observability surface.
#[derive(Debug, Default)]
struct StoreCounters {
    /// Full rows hashed (`n` SHA-256 evaluations each): dense-store
    /// materializations and direct-store bulk fills.
    rows_built: AtomicU64,
    /// Single-pair on-the-fly hashes through [`PairHashes::get`] on the
    /// direct store.
    direct_hashes: AtomicU64,
}

/// A point-in-time view of the store's cumulative counters; see
/// [`PairHashes::store_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStoreStats {
    /// Full rows hashed (`n` SHA-256 evaluations each).
    pub rows_built: u64,
    /// Always 0: there is no LRU row cache.
    pub lru_hits: u64,
    /// Always 0: there is no LRU row cache.
    pub lru_misses: u64,
    /// Always 0: there is no LRU row cache.
    pub lru_evictions: u64,
    /// Single-pair on-the-fly hashes through [`PairHashes::get`] (direct
    /// store only; the finalize fast path counts its own reads in
    /// [`PairCacheStats`]).
    pub direct_hashes: u64,
    /// Always false: there is no LRU admission to suspend.
    pub bypassed: bool,
    /// Rows resident right now.
    pub cached_rows: usize,
}

#[derive(Debug)]
enum Store {
    /// Rows hashed on first touch and kept. `OnceLock` makes
    /// materialization thread-safe under the parallel rebuild.
    Dense { rows: Vec<OnceLock<Box<[f64]>>> },
    /// No storage: every read hashes.
    Direct,
}

/// Pair-hash reads of the finalize fast path, counted shard-locally by
/// [`PairHashes::get_counted`] and drained by the harness into its
/// finalize statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCacheStats {
    /// Reads served from a stored row.
    pub hits: u64,
    /// Reads that hashed the pair.
    pub misses: u64,
}

impl PairCacheStats {
    /// Accumulates another shard's counters into this one.
    pub fn merge(&mut self, other: PairCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl PairHashes {
    /// The store for a population of `n`: dense lazy rows when the full
    /// matrix fits 512 MiB (`n` ≤ 8 192), hashing on the fly otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        if n <= DENSE_MAX_NODES {
            PairHashes::lazy(n)
        } else {
            PairHashes::direct(n)
        }
    }

    /// Eagerly hashes all ordered pairs of the population `0..n`
    /// (parallelized across rows). Use for sweeps that share one matrix
    /// across many simulations of the same population.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn compute(n: usize) -> Self {
        let hashes = PairHashes::lazy(n);
        let Store::Dense { rows } = &hashes.store else {
            unreachable!("lazy storage is always dense");
        };
        // Materialize every row up front; rows are independent, so the
        // chunk split cannot change any value.
        let mut row_ids: Vec<usize> = (0..n).collect();
        par_chunks_mut(&mut row_ids, 1, default_threads(), |_, chunk| {
            for &x in chunk.iter() {
                hashes.dense_row(rows, x);
            }
        });
        hashes
    }

    /// Dense store of lazy rows: rows are hashed on first touch, nothing
    /// up front, whatever the population size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn lazy(n: usize) -> Self {
        assert!(n > 0, "population must be non-empty");
        PairHashes {
            n,
            store: Store::Dense {
                rows: (0..n).map(|_| OnceLock::new()).collect(),
            },
            counters: StoreCounters::default(),
        }
    }

    /// Direct store: nothing is kept, every read hashes, whatever the
    /// population size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn direct(n: usize) -> Self {
        assert!(n > 0, "population must be non-empty");
        PairHashes {
            n,
            store: Store::Direct,
            counters: StoreCounters::default(),
        }
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether every row is kept once materialized (the dense store;
    /// false for the direct store).
    pub fn is_cached(&self) -> bool {
        matches!(self.store, Store::Dense { .. })
    }

    /// Number of rows held right now (always 0 in the direct store).
    pub fn cached_rows(&self) -> usize {
        match &self.store {
            Store::Dense { rows } => rows.iter().filter(|r| r.get().is_some()).count(),
            Store::Direct => 0,
        }
    }

    /// Dense row `x`, hashed on first touch.
    fn dense_row<'a>(&self, rows: &'a [OnceLock<Box<[f64]>>], x: usize) -> &'a [f64] {
        rows[x].get_or_init(|| {
            self.counters.rows_built.fetch_add(1, Ordering::Relaxed);
            hash_row(x, self.n)
        })
    }

    /// `H(id(x), id(y))`. The dense store materializes row `x` on first
    /// touch; the direct store hashes the pair.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.n && y < self.n, "pair index out of range");
        match &self.store {
            Store::Dense { rows } => self.dense_row(rows, x)[y],
            Store::Direct => {
                self.counters.direct_hashes.fetch_add(1, Ordering::Relaxed);
                consistent_hash(NodeId::new(x as u64), NodeId::new(y as u64))
            }
        }
    }

    /// [`PairHashes::get`] for a shard-local reader: the read is counted
    /// in the caller's `stats` (a hit when served from a stored row, a
    /// miss when hashed) and never in a shared counter, so the finalize
    /// hot loop touches no shared atomic per pair.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn get_counted(&self, x: usize, y: usize, stats: &mut PairCacheStats) -> f64 {
        assert!(x < self.n && y < self.n, "pair index out of range");
        match &self.store {
            Store::Dense { rows } => {
                stats.hits += 1;
                self.dense_row(rows, x)[y]
            }
            Store::Direct => {
                stats.misses += 1;
                consistent_hash(NodeId::new(x as u64), NodeId::new(y as u64))
            }
        }
    }

    /// The full row `H(id(x), id(·))` for bulk scans. The dense store
    /// returns the (materialized-on-demand) stored row; the direct store
    /// hashes into `scratch`, so a rebuild worker reuses one `O(N)`
    /// buffer for all its rows instead of allocating per node.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn row<'a>(&'a self, x: usize, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        assert!(x < self.n, "row index out of range");
        match &self.store {
            Store::Dense { rows } => self.dense_row(rows, x),
            Store::Direct => {
                self.counters.rows_built.fetch_add(1, Ordering::Relaxed);
                scratch.clear();
                scratch.resize(self.n, 0.0);
                fill_row(x, scratch);
                scratch
            }
        }
    }

    /// A point-in-time view of the store's cumulative counters and its
    /// resident row count. Observation only — reading never perturbs the
    /// store.
    pub fn store_stats(&self) -> PairStoreStats {
        PairStoreStats {
            rows_built: self.counters.rows_built.load(Ordering::Relaxed),
            direct_hashes: self.counters.direct_hashes.load(Ordering::Relaxed),
            cached_rows: self.cached_rows(),
            ..PairStoreStats::default()
        }
    }
}

fn hash_row(x: usize, n: usize) -> Box<[f64]> {
    let mut row = vec![0.0; n];
    fill_row(x, &mut row);
    row.into_boxed_slice()
}

fn fill_row(x: usize, row: &mut [f64]) {
    let xid = NodeId::new(x as u64);
    for (y, slot) in row.iter_mut().enumerate() {
        *slot = consistent_hash(xid, NodeId::new(y as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_hashing() {
        let hashes = PairHashes::compute(20);
        for x in 0..20 {
            for y in 0..20 {
                assert_eq!(
                    hashes.get(x, y),
                    consistent_hash(NodeId::new(x as u64), NodeId::new(y as u64))
                );
            }
        }
    }

    #[test]
    fn directedness_is_preserved() {
        let hashes = PairHashes::compute(5);
        assert_ne!(hashes.get(1, 2), hashes.get(2, 1));
    }

    #[test]
    fn lazy_materializes_only_touched_rows() {
        let hashes = PairHashes::lazy(16);
        assert_eq!(hashes.cached_rows(), 0);
        let _ = hashes.get(3, 7);
        assert_eq!(hashes.cached_rows(), 1);
        let mut scratch = Vec::new();
        let _ = hashes.row(9, &mut scratch);
        assert_eq!(hashes.cached_rows(), 2);
        assert!(
            scratch.is_empty(),
            "the dense store must not use the scratch"
        );
    }

    #[test]
    fn budget_selects_storage_mode() {
        // 8 · 8 192² bytes = 512 MiB: the dense matrix just fits.
        let dense = PairHashes::new(DENSE_MAX_NODES);
        assert!(dense.is_cached());
        assert_eq!(dense.cached_rows(), 0, "dense rows are lazy");
        // One node more: hash on the fly, and reads keep nothing.
        let direct = PairHashes::new(DENSE_MAX_NODES + 1);
        assert!(!direct.is_cached());
        let _ = direct.get(DENSE_MAX_NODES, 0);
        let mut scratch = Vec::new();
        let _ = direct.row(7, &mut scratch);
        assert_eq!(direct.cached_rows(), 0, "the direct store keeps no rows");
        assert_eq!(direct.store_stats().rows_built, 1);
        assert_eq!(direct.store_stats().direct_hashes, 1);
    }

    #[test]
    fn direct_mode_agrees_with_cached() {
        let direct = PairHashes::direct(12);
        let cached = PairHashes::compute(12);
        let mut scratch = Vec::new();
        for x in 0..12 {
            let row = direct.row(x, &mut scratch).to_vec();
            for (y, &h) in row.iter().enumerate() {
                assert_eq!(direct.get(x, y), cached.get(x, y));
                assert_eq!(h, cached.get(x, y));
            }
        }
        assert_eq!(direct.cached_rows(), 0);
    }

    #[test]
    fn counted_reads_agree_and_split_stored_from_hashed() {
        let dense = PairHashes::lazy(9);
        let direct = PairHashes::direct(9);
        let (mut from_dense, mut from_direct) =
            (PairCacheStats::default(), PairCacheStats::default());
        for x in 0..9 {
            for y in 0..9 {
                let expect = consistent_hash(NodeId::new(x as u64), NodeId::new(y as u64));
                assert_eq!(dense.get_counted(x, y, &mut from_dense), expect);
                assert_eq!(direct.get_counted(x, y, &mut from_direct), expect);
            }
        }
        assert_eq!((from_dense.hits, from_dense.misses), (81, 0));
        assert_eq!((from_direct.hits, from_direct.misses), (0, 81));
        // Counted reads stay off the shared per-pair counter.
        assert_eq!(direct.store_stats().direct_hashes, 0);
        assert_eq!(dense.store_stats().rows_built, 9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let hashes = PairHashes::compute(3);
        let _ = hashes.get(3, 0);
    }
}
