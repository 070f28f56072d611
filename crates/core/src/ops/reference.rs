//! Straightforward reference implementations of anycast and multicast:
//! hashed per-node flood/gossip state, one engine push per send, and a
//! `visited` set beside the anycast path. They are the product code as it
//! stood before dissemination pruned sure-duplicate sends, changed only
//! to call the buffer form of [`OverlayWorld::neighbors`] and to scan
//! ids up to [`OverlayWorld::id_bound`].
//!
//! The differential tests below pin the product operations against them
//! over randomized mock worlds: identical outcomes, and identical RNG and
//! latency streams after every op.

use std::collections::{HashMap, HashSet};

use avmem_sim::{Engine, Network, SimDuration, SimTime};
use avmem_util::{NodeId, Rng};

use crate::membership::{Neighbor, SliverScope};
use crate::ops::anycast::{
    anneal_choice, sort_by_distance, AnycastConfig, AnycastDrop, AnycastOutcome, ForwardPolicy,
};
use crate::ops::multicast::{MulticastConfig, MulticastOutcome, MulticastStrategy};
use crate::ops::target::AvailabilityTarget;
use crate::ops::world::OverlayWorld;

/// The returning form of [`OverlayWorld::neighbors`] the references were
/// written against.
fn neighbors<W: OverlayWorld + ?Sized>(world: &W, id: NodeId, scope: SliverScope) -> Vec<Neighbor> {
    let mut out = Vec::new();
    world.neighbors(id, scope, &mut out);
    out
}

pub fn run_anycast<W, R>(
    world: &W,
    net: &mut Network,
    rng: &mut R,
    initiator: NodeId,
    target: AvailabilityTarget,
    config: AnycastConfig,
) -> AnycastOutcome
where
    W: OverlayWorld + ?Sized,
    R: Rng,
{
    let mut current = initiator;
    let mut ttl = config.ttl;
    let mut retry_budget = match config.policy {
        ForwardPolicy::RetriedGreedy { retries } => retries,
        _ => 0,
    };
    let mut visited: HashSet<NodeId> = HashSet::new();
    visited.insert(initiator);
    let mut outcome = AnycastOutcome {
        delivered_to: None,
        delivered_in_range_truth: false,
        drop_reason: None,
        hops: 0,
        latency: SimDuration::ZERO,
        messages: 0,
        path: vec![initiator],
    };

    loop {
        // Delivery check: the holder consults its own believed availability.
        if target.contains(world.believed_availability(current)) {
            outcome.delivered_to = Some(current);
            outcome.delivered_in_range_truth = target.contains(world.true_availability(current));
            return outcome;
        }
        if ttl == 0 {
            outcome.drop_reason = Some(AnycastDrop::TtlExpired);
            return outcome;
        }

        // Candidates: untried neighbors, ranked by the greedy metric over
        // *cached* availabilities. Annealing traverses this same sorted
        // order (see `anneal_choice`).
        let mut candidates: Vec<Neighbor> = neighbors(world, current, config.scope)
            .into_iter()
            .filter(|n| !visited.contains(&n.id))
            .collect();
        if candidates.is_empty() {
            outcome.drop_reason = Some(AnycastDrop::NoCandidates);
            return outcome;
        }
        sort_by_distance(&mut candidates, target);

        let chosen = match config.policy {
            ForwardPolicy::Greedy | ForwardPolicy::RetriedGreedy { .. } => 0,
            ForwardPolicy::SimulatedAnnealing => {
                anneal_choice(&candidates, target, ttl, rng).unwrap_or(0)
            }
        };
        // Move the chosen candidate to the front so the retry loop walks
        // the remainder in greedy order.
        candidates.swap(0, chosen);

        let mut forwarded = false;
        for (attempt, candidate) in candidates.iter().enumerate() {
            outcome.messages += 1;
            outcome.latency = outcome.latency + net.hop_latency();
            if world.is_online(candidate.id) {
                visited.insert(candidate.id);
                outcome.path.push(candidate.id);
                outcome.hops += 1;
                current = candidate.id;
                ttl -= 1;
                forwarded = true;
                break;
            }
            // Candidate offline.
            match config.policy {
                ForwardPolicy::Greedy | ForwardPolicy::SimulatedAnnealing => {
                    // No acknowledgements: the message is simply lost.
                    outcome.drop_reason = Some(AnycastDrop::NextHopOffline);
                    return outcome;
                }
                ForwardPolicy::RetriedGreedy { .. } => {
                    // Ack timeout burned (modelled as one extra latency draw).
                    outcome.latency = outcome.latency + net.hop_latency();
                    // "The retrying stops when either retry reaches 0, or
                    // there are no more next-best nodes left" (§3.2).
                    retry_budget = retry_budget.saturating_sub(1);
                    if retry_budget == 0 {
                        outcome.drop_reason = Some(AnycastDrop::RetryExpired);
                        return outcome;
                    }
                    if attempt + 1 == candidates.len() {
                        outcome.drop_reason = Some(AnycastDrop::NoCandidates);
                        return outcome;
                    }
                }
            }
        }
        if !forwarded {
            // Retried-greedy ran out of candidates with budget left.
            outcome.drop_reason = Some(AnycastDrop::NoCandidates);
            return outcome;
        }
    }
}

/// Internal dissemination events.
#[derive(Debug)]
enum McEvent {
    /// Payload arriving at a node.
    Deliver { to: NodeId },
    /// A gossip period firing at an in-range node.
    GossipTick { at: NodeId },
}

/// Per-node gossip progress.
#[derive(Debug, Default)]
struct GossipState {
    /// Index into the deterministic neighbor iteration.
    cursor: usize,
    /// Gossip rounds already executed.
    rounds_done: u32,
    /// Nodes already sent to (includes flood forwarding).
    sent_to: HashSet<NodeId>,
}

/// Runs one multicast: anycast into the range, then flood/gossip within.
///
/// Returns the outcome even when the anycast fails to enter the range (in
/// which case `deliveries` is empty unless the initiator itself was in
/// range).
pub fn run_multicast<W, R>(
    world: &W,
    net: &mut Network,
    rng: &mut R,
    initiator: NodeId,
    target: AvailabilityTarget,
    config: MulticastConfig,
) -> MulticastOutcome
where
    W: OverlayWorld + ?Sized,
    R: Rng,
{
    let eligible = (0..world.id_bound() as u64)
        .map(NodeId::new)
        .filter(|&id| world.is_online(id) && target.contains(world.true_availability(id)))
        .count();

    // Stage 1: anycast into the range.
    let anycast = run_anycast(world, net, rng, initiator, target, config.anycast);
    let mut outcome = MulticastOutcome {
        anycast,
        deliveries: HashMap::new(),
        eligible,
        messages: 0,
    };
    let Some(entry) = outcome.anycast.delivered_to else {
        return outcome;
    };

    // Stage 2: dissemination, driven by the event engine. Time zero is
    // the multicast start; the entry node receives at the anycast's
    // latency.
    let mut engine: Engine<McEvent> = Engine::new();
    let mut states: HashMap<NodeId, GossipState> = HashMap::new();
    engine.schedule(
        SimTime::ZERO + outcome.anycast.latency,
        McEvent::Deliver { to: entry },
    );

    // Dissemination always terminates: floods forward once per node and
    // gossip runs a bounded number of rounds.
    while let Some((now, event)) = engine.pop_until(SimTime::MAX) {
        match event {
            McEvent::Deliver { to } => {
                if outcome.deliveries.contains_key(&to) {
                    continue; // duplicate copy, ignored
                }
                outcome
                    .deliveries
                    .insert(to, now.saturating_since(SimTime::ZERO));
                // Only nodes that believe themselves in range forward.
                if !target.contains(world.believed_availability(to)) {
                    continue;
                }
                match config.strategy {
                    MulticastStrategy::Flood => {
                        let state = states.entry(to).or_default();
                        for neighbor in neighbors(world, to, config.scope) {
                            if !target.contains(neighbor.cached_availability)
                                || state.sent_to.contains(&neighbor.id)
                            {
                                continue;
                            }
                            state.sent_to.insert(neighbor.id);
                            outcome.messages += 1;
                            if world.is_online(neighbor.id) {
                                engine.schedule(
                                    now + net.hop_latency(),
                                    McEvent::Deliver { to: neighbor.id },
                                );
                            }
                        }
                    }
                    MulticastStrategy::Gossip { .. } => {
                        states.entry(to).or_default();
                        // First gossip round fires immediately on receipt.
                        engine.schedule(now, McEvent::GossipTick { at: to });
                    }
                }
            }
            McEvent::GossipTick { at } => {
                let MulticastStrategy::Gossip {
                    fanout,
                    rounds,
                    period,
                } = config.strategy
                else {
                    continue;
                };
                let neighbors = neighbors(world, at, config.scope);
                let state = states.entry(at).or_default();
                if state.rounds_done >= rounds {
                    continue;
                }
                state.rounds_done += 1;
                // Deterministic iteration through the list (§3.2): resume
                // from the cursor, take up to `fanout` eligible targets.
                let mut sent = 0;
                let mut inspected = 0;
                while sent < fanout && inspected < neighbors.len() {
                    let neighbor = &neighbors[state.cursor % neighbors.len()];
                    state.cursor += 1;
                    inspected += 1;
                    if !target.contains(neighbor.cached_availability)
                        || state.sent_to.contains(&neighbor.id)
                    {
                        continue;
                    }
                    state.sent_to.insert(neighbor.id);
                    outcome.messages += 1;
                    sent += 1;
                    if world.is_online(neighbor.id) {
                        engine.schedule(
                            now + net.hop_latency(),
                            McEvent::Deliver { to: neighbor.id },
                        );
                    }
                }
                if state.rounds_done < rounds {
                    engine.schedule(now + period, McEvent::GossipTick { at });
                }
            }
        }
    }
    outcome
}

mod tests {
    use avmem_sim::LatencyModel;
    use avmem_util::Xoshiro256;

    use super::*;
    use crate::ops::world::mock::MockWorld;
    use crate::ops::{anycast, multicast};

    const SCOPES: [SliverScope; 3] = [SliverScope::HsOnly, SliverScope::VsOnly, SliverScope::Both];

    const POLICIES: [ForwardPolicy; 4] = [
        ForwardPolicy::Greedy,
        ForwardPolicy::RetriedGreedy { retries: 8 },
        ForwardPolicy::RetriedGreedy { retries: 2 },
        ForwardPolicy::SimulatedAnnealing,
    ];

    /// Latency models: constant ones force arrival-time ties (the 50 ms
    /// one also ties with a 50 ms gossip period); `PAPER` is the paper's
    /// uniform model.
    const LATENCIES: [LatencyModel; 3] = [
        LatencyModel::Constant { millis: 50 },
        LatencyModel::Constant { millis: 1 },
        LatencyModel::PAPER,
    ];

    fn targets() -> [AvailabilityTarget; 4] {
        [
            AvailabilityTarget::range(0.6, 0.9),
            AvailabilityTarget::range(0.85, 0.95),
            AvailabilityTarget::range(0.15, 0.25),
            AvailabilityTarget::threshold(0.5),
        ]
    }

    fn strategies() -> [MulticastStrategy; 4] {
        [
            MulticastStrategy::Flood,
            MulticastStrategy::paper_gossip(),
            MulticastStrategy::Gossip {
                fanout: 2,
                rounds: 3,
                period: SimDuration::from_millis(50),
            },
            MulticastStrategy::Gossip {
                fanout: 7,
                rounds: 1,
                period: SimDuration::from_millis(1),
            },
        ]
    }

    /// A random world over sparse ids, with offline nodes, edges to ids
    /// that name no node, and HS/VS lists that overlap so a neighbor can
    /// appear twice in a `Both` list.
    fn random_world(rng: &mut Xoshiro256) -> (MockWorld, Vec<u64>) {
        let n = 2 + rng.index(60);
        let mut ids: Vec<u64> = (0..3 * n as u64).collect();
        rng.shuffle(&mut ids);
        ids.truncate(n);
        let mut w = MockWorld::default();
        for &id in &ids {
            // Mostly clustered availabilities so ranges hold many nodes.
            let av = match rng.index(4) {
                0 => rng.range_f64(0.0, 1.0),
                1 => rng.range_f64(0.15, 0.25),
                _ => rng.range_f64(0.6, 0.95),
            };
            w.add(id, av);
            if rng.chance(0.15) {
                w.set_offline(id);
            }
        }
        let degree = 1 + rng.index(10);
        for &a in &ids {
            for _ in 0..rng.index(degree + 1) {
                let b = if rng.chance(0.05) {
                    3 * n as u64 + rng.range_u64(5)
                } else {
                    ids[rng.index(n)]
                };
                if b == a {
                    continue;
                }
                match rng.index(3) {
                    0 => w.hs_edge(a, b),
                    1 => w.vs_edge(a, b),
                    _ => {
                        w.hs_edge(a, b);
                        w.vs_edge(a, b);
                    }
                }
            }
        }
        (w, ids)
    }

    /// Runs `op` on fresh streams for the product and the reference and
    /// checks the streams are left in the same state.
    fn paired<T: PartialEq + std::fmt::Debug>(
        latency: LatencyModel,
        seed: u64,
        context: &str,
        product: impl FnOnce(&mut Network, &mut Xoshiro256) -> T,
        reference: impl FnOnce(&mut Network, &mut Xoshiro256) -> T,
    ) {
        let (mut net_a, mut rng_a) = (Network::new(latency, 0.0, seed), Xoshiro256::new(seed));
        let (mut net_b, mut rng_b) = (net_a.clone(), rng_a.clone());
        let a = product(&mut net_a, &mut rng_a);
        let b = reference(&mut net_b, &mut rng_b);
        assert_eq!(a, b, "{context}: outcomes differ");
        assert_eq!(
            net_a.hop_latency(),
            net_b.hop_latency(),
            "{context}: latency streams diverged"
        );
        assert_eq!(
            rng_a.next_u64(),
            rng_b.next_u64(),
            "{context}: op RNG streams diverged"
        );
    }

    #[test]
    fn multicast_matches_reference_on_random_worlds() {
        let mut rng = Xoshiro256::new(0x6d75_6c74);
        let mut disseminated = 0;
        for case in 0..400u64 {
            let (world, ids) = random_world(&mut rng);
            let initiator = NodeId::new(ids[rng.index(ids.len())]);
            let target = targets()[rng.index(4)];
            let latency = LATENCIES[case as usize % LATENCIES.len()];
            for strategy in strategies() {
                for scope in SCOPES {
                    let config = MulticastConfig {
                        strategy,
                        scope,
                        anycast: AnycastConfig {
                            policy: POLICIES[rng.index(POLICIES.len())],
                            scope: SCOPES[rng.index(SCOPES.len())],
                            ttl: 1 + rng.index(6) as u32,
                        },
                    };
                    let context = format!("case {case}: {config:?} {target:?} {latency:?}");
                    let mut delivered = 0;
                    paired(
                        latency,
                        case,
                        &context,
                        |net, rng| {
                            let out = multicast::run_multicast(
                                &world, net, rng, initiator, target, config,
                            );
                            delivered = out.deliveries.len();
                            out
                        },
                        |net, rng| run_multicast(&world, net, rng, initiator, target, config),
                    );
                    if delivered > 1 {
                        disseminated += 1;
                    }
                }
            }
        }
        // The worlds must actually exercise dissemination.
        assert!(disseminated > 1000, "only {disseminated} multicasts spread");
    }

    #[test]
    fn anycast_matches_reference_on_random_worlds() {
        let mut rng = Xoshiro256::new(0x616e_7963);
        for case in 0..400u64 {
            let (world, ids) = random_world(&mut rng);
            let initiator = NodeId::new(ids[rng.index(ids.len())]);
            let target = targets()[rng.index(4)];
            let latency = LATENCIES[case as usize % LATENCIES.len()];
            for policy in POLICIES {
                for scope in SCOPES {
                    let config = AnycastConfig {
                        policy,
                        scope,
                        ttl: 1 + rng.index(8) as u32,
                    };
                    let context = format!("case {case}: {config:?} {target:?} {latency:?}");
                    paired(
                        latency,
                        case,
                        &context,
                        |net, rng| {
                            anycast::run_anycast(&world, net, rng, initiator, target, config)
                        },
                        |net, rng| run_anycast(&world, net, rng, initiator, target, config),
                    );
                }
            }
        }
    }
}
