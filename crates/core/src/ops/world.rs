//! The world interface operations run against.
//!
//! Anycast and multicast walk the overlay hop by hop; everything they
//! need to know about the system is behind [`OverlayWorld`]:
//! who is online *right now* (ground truth — an offline node simply does
//! not answer), what each node believes about its own availability (from
//! the monitoring service), each node's cached neighbor lists, and — for
//! measurement only — true availabilities.
//!
//! The production implementation is the full-system harness
//! ([`crate::harness::AvmemSim`]); tests use hand-built mock worlds.

use avmem_util::{Availability, NodeId};

use crate::membership::{Neighbor, SliverScope};

/// Read access to the simulated system state at the instant an operation
/// executes.
///
/// Operations complete in at most seconds of virtual time while churn
/// happens on a minutes scale, so the world is treated as static for the
/// duration of a single operation — matching the paper's methodology.
pub trait OverlayWorld {
    /// Exclusive upper bound on node ids: every id the world knows or
    /// hands out as a neighbor has `raw() < id_bound()`, so operations
    /// can keep per-op state in dense arrays indexed by id. Ids below the
    /// bound that name no node must read as offline.
    fn id_bound(&self) -> usize;

    /// Whether `id` is online right now (ground truth).
    fn is_online(&self, id: NodeId) -> bool;

    /// What `id` believes its own availability is (its latest answer from
    /// the monitoring service). Used by "am I in the target range?"
    /// checks.
    fn believed_availability(&self, id: NodeId) -> Availability;

    /// The true long-term availability of `id` (measurement only; no
    /// protocol decision may depend on it).
    fn true_availability(&self, id: NodeId) -> Availability;

    /// Fills `out` with `id`'s current neighbors in `scope`, with
    /// *cached* availabilities (the paper's forwarding uses values cached
    /// at the last refresh, §3.2).
    ///
    /// `out` is a caller-owned buffer: it is cleared first, then holds
    /// exactly the neighbors, HS before VS, each in list order. Reusing
    /// one buffer across calls keeps per-hop lookups allocation-free.
    fn neighbors(&self, id: NodeId, scope: SliverScope, out: &mut Vec<Neighbor>);
}

#[cfg(test)]
pub(crate) mod mock {
    use super::*;
    use avmem_sim::SimTime;
    use std::collections::HashMap;

    /// A hand-wired world for operation unit tests.
    #[derive(Debug, Default)]
    pub struct MockWorld {
        pub nodes: Vec<NodeId>,
        pub online: HashMap<NodeId, bool>,
        pub availability: HashMap<NodeId, f64>,
        pub hs: HashMap<NodeId, Vec<NodeId>>,
        pub vs: HashMap<NodeId, Vec<NodeId>>,
    }

    impl MockWorld {
        /// Adds a node with the given availability, online.
        pub fn add(&mut self, id: u64, av: f64) {
            let node = NodeId::new(id);
            self.nodes.push(node);
            self.online.insert(node, true);
            self.availability.insert(node, av);
        }

        /// Declares `a`'s horizontal-sliver edge to `b`.
        pub fn hs_edge(&mut self, a: u64, b: u64) {
            self.hs.entry(NodeId::new(a)).or_default().push(NodeId::new(b));
        }

        /// Declares `a`'s vertical-sliver edge to `b`.
        pub fn vs_edge(&mut self, a: u64, b: u64) {
            self.vs.entry(NodeId::new(a)).or_default().push(NodeId::new(b));
        }

        /// Marks a node offline.
        pub fn set_offline(&mut self, id: u64) {
            self.online.insert(NodeId::new(id), false);
        }

        fn to_neighbors(&self, ids: Option<&Vec<NodeId>>, out: &mut Vec<Neighbor>) {
            out.extend(ids.into_iter().flatten().map(|&id| Neighbor {
                id,
                cached_availability: Availability::saturating(
                    self.availability.get(&id).copied().unwrap_or(0.0),
                ),
                added_at: SimTime::ZERO,
                refreshed_at: SimTime::ZERO,
            }));
        }
    }

    impl OverlayWorld for MockWorld {
        fn id_bound(&self) -> usize {
            let edges = self.hs.values().chain(self.vs.values()).flatten();
            self.nodes
                .iter()
                .chain(edges)
                .map(|id| id.raw() as usize + 1)
                .max()
                .unwrap_or(0)
        }

        fn is_online(&self, id: NodeId) -> bool {
            self.online.get(&id).copied().unwrap_or(false)
        }

        fn believed_availability(&self, id: NodeId) -> Availability {
            Availability::saturating(self.availability.get(&id).copied().unwrap_or(0.0))
        }

        fn true_availability(&self, id: NodeId) -> Availability {
            self.believed_availability(id)
        }

        fn neighbors(&self, id: NodeId, scope: SliverScope, out: &mut Vec<Neighbor>) {
            out.clear();
            if matches!(scope, SliverScope::HsOnly | SliverScope::Both) {
                self.to_neighbors(self.hs.get(&id), out);
            }
            if matches!(scope, SliverScope::VsOnly | SliverScope::Both) {
                self.to_neighbors(self.vs.get(&id), out);
            }
        }
    }
}
