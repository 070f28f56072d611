//! The partial view data structure.
//!
//! A [`View`] is a bounded set of [`ViewEntry`]s (node id + age) with the
//! merge semantics CYCLON needs: no duplicates (keep the younger entry),
//! bounded capacity with a controllable replacement order, and age-based
//! selection of the exchange target.
//!
//! # Storage
//!
//! Entries are stored struct-of-arrays (`ids: Vec<u32>`, `ages: Vec<u32>`)
//! rather than as `Vec<ViewEntry>`: 8 bytes per slot instead of 16, and
//! the arrays grow lazily instead of eagerly reserving `capacity` slots.
//! At 10⁶ hosts with √N-sized views this halves the dominant term of the
//! resident set. The id arrays hold **index-space ids** — views are the
//! harness's per-node neighbor slots, where ids are dense indexes `< N`;
//! inserting an id above `u32::MAX` panics.
//!
//! # Merge index
//!
//! [`View::merge`] runs in O(ℓ + v) for ℓ received and sent entries and
//! view size v, not the O(ℓ·v) of a slot scan per entry. It answers "is
//! this id in the view, and where" from a dense `slot_of[id] → position`
//! `u32` index held in one `thread_local!` vector: each call fills the
//! view's ids in, updates them on every push and replacement, and clears
//! the ids left in the view on exit, so the index is all-empty between
//! calls. It grows geometrically to the largest id seen and never shrinks:
//! 4 bytes per index-space id, ≈ 4 B × N per thread (40 KB at 10⁴ hosts,
//! 4 MB at 10⁶; the vector's amortized growth may reserve up to twice
//! that), paid once per worker of the persistent pool.

use std::cell::RefCell;

use avmem_util::{NodeId, Rng};
use serde::{Deserialize, Serialize};

/// One entry of a partial view: a node and the entry's age in protocol
/// periods (freshness indicator — *not* the node's uptime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewEntry {
    /// The referenced node.
    pub id: NodeId,
    /// Age in protocol periods since this entry was created.
    pub age: u32,
}

impl ViewEntry {
    /// Creates a fresh (age 0) entry.
    pub fn fresh(id: NodeId) -> Self {
        ViewEntry { id, age: 0 }
    }
}

/// Marks an id with no slot in the view being merged.
const NO_SLOT: u32 = u32::MAX;

thread_local! {
    /// [`View::merge`]'s id→slot index: `SLOT_OF[id]` is `id`'s position
    /// in the view being merged, or [`NO_SLOT`]. All-empty between calls.
    static SLOT_OF: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

#[inline]
fn packed(id: NodeId) -> u32 {
    u32::try_from(id.raw()).expect("view ids are index-space (must fit u32)")
}

/// A bounded partial view of the system.
///
/// # Examples
///
/// ```
/// use avmem_shuffle::{View, ViewEntry};
/// use avmem_util::NodeId;
///
/// let mut view = View::new(3);
/// view.insert(ViewEntry::fresh(NodeId::new(1)));
/// view.insert(ViewEntry { id: NodeId::new(2), age: 5 });
/// assert_eq!(view.len(), 2);
/// assert_eq!(view.oldest().unwrap().id, NodeId::new(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct View {
    ids: Vec<u32>,
    ages: Vec<u32>,
    capacity: u32,
}

impl View {
    /// Creates an empty view with the given capacity.
    ///
    /// Slots are allocated lazily as entries arrive — a fresh view costs
    /// no heap at all, which matters when most of a million bootstrap
    /// views stay far below capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View {
            ids: Vec::new(),
            ages: Vec::new(),
            capacity: u32::try_from(capacity).expect("view capacity fits u32"),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    #[inline]
    fn entry(&self, pos: usize) -> ViewEntry {
        ViewEntry {
            id: NodeId::new(u64::from(self.ids[pos])),
            age: self.ages[pos],
        }
    }

    /// Iterates over the entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = ViewEntry> + '_ {
        self.ids
            .iter()
            .zip(self.ages.iter())
            .map(|(&id, &age)| ViewEntry {
                id: NodeId::new(u64::from(id)),
                age,
            })
    }

    /// Returns the ids currently in the view.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().map(|&id| NodeId::new(u64::from(id)))
    }

    /// Whether `id` appears in the view.
    pub fn contains(&self, id: NodeId) -> bool {
        match u32::try_from(id.raw()) {
            Ok(raw) => self.ids.contains(&raw),
            Err(_) => false,
        }
    }

    /// Increments every entry's age by one period.
    pub fn age_all(&mut self) {
        for age in &mut self.ages {
            *age = age.saturating_add(1);
        }
    }

    /// The entry with the largest age, if any (ties resolve as
    /// `max_by_key` does, to the last such entry).
    pub fn oldest(&self) -> Option<ViewEntry> {
        (0..self.ids.len())
            .map(|pos| self.entry(pos))
            .max_by_key(|e| e.age)
    }

    /// Removes and returns the entry for `id`, if present.
    pub fn remove(&mut self, id: NodeId) -> Option<ViewEntry> {
        let raw = u32::try_from(id.raw()).ok()?;
        let pos = self.ids.iter().position(|&e| e == raw)?;
        let entry = self.entry(pos);
        self.ids.remove(pos);
        self.ages.remove(pos);
        Some(entry)
    }

    /// Inserts an entry. If `id` is already present the younger age wins.
    /// If the view is full the entry is dropped (use [`View::merge`] for
    /// CYCLON's replacement semantics). Returns whether the entry is now
    /// present with the given (or younger) age.
    pub fn insert(&mut self, entry: ViewEntry) -> bool {
        let raw = packed(entry.id);
        if let Some(pos) = self.ids.iter().position(|&e| e == raw) {
            self.ages[pos] = self.ages[pos].min(entry.age);
            return true;
        }
        if self.ids.len() < self.capacity as usize {
            self.ids.push(raw);
            self.ages.push(entry.age);
            true
        } else {
            false
        }
    }

    /// Selects up to `k` random entries (without replacement), excluding
    /// `exclude` if given.
    pub fn random_subset<R: Rng>(
        &self,
        rng: &mut R,
        k: usize,
        exclude: Option<NodeId>,
    ) -> Vec<ViewEntry> {
        rng.sample(self.iter().filter(|e| Some(e.id) != exclude), k)
    }

    /// [`View::random_subset`] into a caller-provided buffer — draw-for-
    /// draw identical to the allocating form (see [`Rng::sample_into`]).
    pub fn random_subset_into<R: Rng>(
        &self,
        rng: &mut R,
        k: usize,
        exclude: Option<NodeId>,
        out: &mut Vec<ViewEntry>,
    ) {
        rng.sample_into(self.iter().filter(|e| Some(e.id) != exclude), k, out);
    }

    /// CYCLON merge: incorporate `received` entries, preferring to fill
    /// empty slots, then to replace the entries in `sent` (the ones we
    /// shipped to the peer), and finally — if the view is somehow still
    /// full — replacing the oldest entries.
    ///
    /// Entries for `self_id` and duplicates are skipped (younger age
    /// wins on duplicates). Sent-entry victims are consumed back-to-front
    /// straight from `sent` by a cursor that never rewinds; a victim no
    /// longer in the view is skipped. The oldest-entry fallback runs only
    /// once the victims are exhausted and keeps a younger resident over
    /// an older incoming entry.
    ///
    /// Runs in O(ℓ + v) for ℓ = `received.len() + sent.len()` and view
    /// size v: membership lookups go through the thread-local id→slot
    /// index (see the module docs) instead of scanning the view, except
    /// for the oldest-entry fallback, which stays an O(v) scan.
    /// Allocation-free once the index has grown to the largest id seen.
    ///
    /// # Panics
    ///
    /// Panics if a received id other than `self_id` does not fit `u32`,
    /// before the view is touched.
    pub fn merge(&mut self, self_id: NodeId, received: &[ViewEntry], sent: &[ViewEntry]) {
        // Size the index for (and validate) every id to insert up front,
        // so a panic cannot leave stale slots behind.
        let mut index_len = 0;
        for entry in received {
            if entry.id != self_id {
                index_len = index_len.max(packed(entry.id) as usize + 1);
            }
        }
        if index_len == 0 {
            return; // nothing but `self_id`: no change
        }
        SLOT_OF.with(|cell| {
            let mut slot_of = cell.borrow_mut();
            if slot_of.len() < index_len {
                slot_of.resize(index_len, NO_SLOT);
            }
            for (pos, &id) in self.ids.iter().enumerate() {
                let id = id as usize;
                if id >= slot_of.len() {
                    slot_of.resize(id + 1, NO_SLOT);
                }
                slot_of[id] = pos as u32;
            }
            self.merge_indexed(&mut slot_of, self_id, received, sent);
            // Every slot set above or during the merge belongs to an id
            // still in the view (replacements clear the evicted id).
            for &id in &self.ids {
                slot_of[id as usize] = NO_SLOT;
            }
        });
    }

    /// The body of [`View::merge`] over a `slot_of` index that maps every
    /// id in the view to its slot (and every other id to [`NO_SLOT`]),
    /// kept in step with each push and replacement.
    fn merge_indexed(
        &mut self,
        slot_of: &mut [u32],
        self_id: NodeId,
        received: &[ViewEntry],
        sent: &[ViewEntry],
    ) {
        // Victims come from the caller; one outside the index is not in
        // the view.
        let victim_slot = |slot_of: &[u32], id: NodeId| {
            let raw = u32::try_from(id.raw()).ok()?;
            slot_of
                .get(raw as usize)
                .filter(|&&pos| pos != NO_SLOT)
                .map(|&pos| pos as usize)
        };
        let mut next_victim = sent.len();
        for &entry in received {
            if entry.id == self_id {
                continue;
            }
            let raw = packed(entry.id);
            let pos = slot_of[raw as usize];
            if pos != NO_SLOT {
                let pos = pos as usize;
                self.ages[pos] = self.ages[pos].min(entry.age);
                continue;
            }
            if self.ids.len() < self.capacity as usize {
                slot_of[raw as usize] = self.ids.len() as u32;
                self.ids.push(raw);
                self.ages.push(entry.age);
                continue;
            }
            // Replace one of the entries we sent away, if still present.
            let mut target = None;
            while next_victim > 0 {
                next_victim -= 1;
                target = victim_slot(slot_of, sent[next_victim].id);
                if target.is_some() {
                    break;
                }
            }
            if target.is_none() {
                // Last resort: replace the oldest entry (the last of
                // equally old ones), unless it is younger than `entry`.
                target = self
                    .ages
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &age)| age)
                    .map(|(pos, _)| pos)
                    .filter(|&pos| self.ages[pos] >= entry.age);
            }
            if let Some(pos) = target {
                slot_of[self.ids[pos] as usize] = NO_SLOT;
                slot_of[raw as usize] = pos as u32;
                self.ids[pos] = raw;
                self.ages[pos] = entry.age;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmem_util::{SplitMix64, Xoshiro256};

    fn id(n: u64) -> NodeId {
        NodeId::new(n)
    }

    /// The O(ℓ·v) merge [`View::merge`] replaced, kept verbatim as its
    /// reference: one `position()` scan per received entry and per
    /// sent-entry victim.
    fn reference_merge(
        view: &mut View,
        self_id: NodeId,
        received: &[ViewEntry],
        sent: &[ViewEntry],
    ) {
        // Cursor over `sent`, consumed from the end — same victim order
        // as the old `replaceable: Vec<NodeId>` + `pop()` scheme.
        let mut next_victim = sent.len();
        for &entry in received {
            if entry.id == self_id {
                continue;
            }
            let raw = packed(entry.id);
            if let Some(pos) = view.ids.iter().position(|&e| e == raw) {
                view.ages[pos] = view.ages[pos].min(entry.age);
                continue;
            }
            if view.ids.len() < view.capacity as usize {
                view.ids.push(raw);
                view.ages.push(entry.age);
                continue;
            }
            // Replace one of the entries we sent away, if still present.
            let mut replaced = false;
            while next_victim > 0 {
                next_victim -= 1;
                let victim = packed(sent[next_victim].id);
                if let Some(pos) = view.ids.iter().position(|&e| e == victim) {
                    view.ids[pos] = raw;
                    view.ages[pos] = entry.age;
                    replaced = true;
                    break;
                }
            }
            if !replaced {
                // Last resort: replace the oldest entry.
                if let Some(pos) = view
                    .ages
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &age)| age)
                    .map(|(pos, _)| pos)
                {
                    if view.ages[pos] >= entry.age {
                        view.ids[pos] = raw;
                        view.ages[pos] = entry.age;
                    }
                }
            }
        }
    }

    fn index_is_empty() -> bool {
        SLOT_OF.with(|cell| cell.borrow().iter().all(|&pos| pos == NO_SLOT))
    }

    /// A random entry list over `base + 0..universe`, ages in `0..max_age`.
    fn random_entries(
        rng: &mut SplitMix64,
        base: u64,
        universe: u64,
        len: u64,
        max_age: u64,
    ) -> Vec<ViewEntry> {
        (0..len)
            .map(|_| ViewEntry {
                id: id(base + rng.next_u64() % universe),
                age: (rng.next_u64() % max_age) as u32,
            })
            .collect()
    }

    /// Merges random exchanges into several views in turn, checking the
    /// indexed merge against the reference slot by slot after each call.
    #[test]
    fn merge_matches_reference_slot_for_slot() {
        let mut rng = SplitMix64::new(0x5EED);
        for case in 0..4_000u64 {
            let capacity = 1 + rng.next_u64() % 20;
            // Small universes make collisions frequent; every fourth case
            // lives above 10⁵ so the index has to grow mid-sequence.
            let base = if case % 4 == 3 {
                100_000 + rng.next_u64() % 50_000
            } else {
                0
            };
            let universe = 1 + capacity / 2 + rng.next_u64() % (2 * capacity);
            // Several views merged in turn on this thread: a slot left
            // set by one call would corrupt the next.
            let mut views: Vec<View> = (0..3)
                .map(|_| {
                    let mut v = View::new(capacity as usize);
                    let fill = if rng.next_u64() % 2 == 0 {
                        capacity
                    } else {
                        rng.next_u64() % (capacity + 1)
                    };
                    // Ages in 0..4: oldest-age ties are common.
                    for e in random_entries(&mut rng, base, universe + capacity, 4 * fill, 4) {
                        if v.len() as u64 == fill {
                            break;
                        }
                        v.insert(e);
                    }
                    v
                })
                .collect();
            for round in 0..6 {
                let which = (rng.next_u64() % 3) as usize;
                let view = &mut views[which];
                let self_id = id(base + rng.next_u64() % universe);
                // Ages up to 9 > every resident's 0..4 + rounds: incoming
                // entries are sometimes older than the whole view.
                let received_len = rng.next_u64() % (capacity + 4);
                let received = random_entries(&mut rng, base, universe, received_len, 10);
                // Victims: some from the view (possibly repeated or about
                // to be replaced), some absent.
                let (sent_len, absent_len) = (rng.next_u64() % (capacity + 1), rng.next_u64() % 3);
                let mut sent = view.random_subset(&mut rng, sent_len as usize, None);
                sent.extend(random_entries(&mut rng, base, universe + 3, absent_len, 4));
                if sent.len() > 1 {
                    let (a, b) = (
                        (rng.next_u64() % sent.len() as u64) as usize,
                        (rng.next_u64() % sent.len() as u64) as usize,
                    );
                    sent.swap(a, b);
                    sent.push(sent[a]);
                }
                let mut expected = view.clone();
                reference_merge(&mut expected, self_id, &received, &sent);
                view.merge(self_id, &received, &sent);
                assert_eq!(
                    view.iter().collect::<Vec<_>>(),
                    expected.iter().collect::<Vec<_>>(),
                    "case {case} round {round}: self {self_id:?}, received {received:?}, sent {sent:?}"
                );
                assert!(
                    index_is_empty(),
                    "case {case} round {round}: index left dirty"
                );
                view.age_all();
            }
        }
        SLOT_OF.with(|cell| assert!(cell.borrow().len() > 100_000, "the index grew past 10⁵"));
    }

    #[test]
    fn merge_of_only_self_leaves_view_and_index_untouched() {
        let mut v = View::new(2);
        v.insert(ViewEntry { id: id(1), age: 3 });
        let before = v.clone();
        v.merge(
            id(7),
            &[ViewEntry::fresh(id(7))],
            &[ViewEntry::fresh(id(1))],
        );
        assert_eq!(v, before);
        assert!(index_is_empty());
    }

    #[test]
    fn merge_rejects_non_index_ids_before_touching_the_index() {
        let huge = NodeId::new(u64::from(u32::MAX) + 1);
        let result = std::panic::catch_unwind(|| {
            let mut v = View::new(2);
            v.insert(ViewEntry::fresh(id(1)));
            v.merge(
                id(0),
                &[ViewEntry::fresh(id(2)), ViewEntry::fresh(huge)],
                &[],
            );
        });
        assert!(result.is_err(), "a non-index-space id must panic");
        assert!(index_is_empty());
    }

    #[test]
    fn insert_deduplicates_keeping_younger() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 9 });
        v.insert(ViewEntry { id: id(1), age: 2 });
        assert_eq!(v.len(), 1);
        assert_eq!(v.oldest().unwrap().age, 2);
    }

    #[test]
    fn insert_respects_capacity() {
        let mut v = View::new(2);
        assert!(v.insert(ViewEntry::fresh(id(1))));
        assert!(v.insert(ViewEntry::fresh(id(2))));
        assert!(!v.insert(ViewEntry::fresh(id(3))));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn oldest_picks_max_age() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 3 });
        v.insert(ViewEntry { id: id(2), age: 7 });
        v.insert(ViewEntry { id: id(3), age: 5 });
        assert_eq!(v.oldest().unwrap().id, id(2));
    }

    #[test]
    fn age_all_increments() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 0 });
        v.age_all();
        v.age_all();
        assert_eq!(v.iter().next().unwrap().age, 2);
    }

    #[test]
    fn remove_returns_entry() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 4 });
        let removed = v.remove(id(1)).unwrap();
        assert_eq!(removed.age, 4);
        assert!(v.is_empty());
        assert!(v.remove(id(1)).is_none());
    }

    #[test]
    fn random_subset_excludes_and_bounds() {
        let mut v = View::new(10);
        for n in 0..10 {
            v.insert(ViewEntry::fresh(id(n)));
        }
        let mut rng = Xoshiro256::new(1);
        let subset = v.random_subset(&mut rng, 4, Some(id(3)));
        assert_eq!(subset.len(), 4);
        assert!(subset.iter().all(|e| e.id != id(3)));
    }

    #[test]
    fn random_subset_into_matches_allocating_form() {
        let mut v = View::new(10);
        for n in 0..10 {
            v.insert(ViewEntry { id: id(n), age: n as u32 });
        }
        let mut a = Xoshiro256::new(5);
        let mut b = Xoshiro256::new(5);
        let allocated = v.random_subset(&mut a, 4, Some(id(2)));
        let mut pooled = vec![ViewEntry::fresh(id(99)); 7];
        v.random_subset_into(&mut b, 4, Some(id(2)), &mut pooled);
        assert_eq!(allocated, pooled);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn merge_fills_empty_slots_first() {
        let mut v = View::new(4);
        v.insert(ViewEntry::fresh(id(1)));
        v.merge(id(0), &[ViewEntry::fresh(id(2)), ViewEntry::fresh(id(3))], &[]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn merge_skips_self_and_duplicates() {
        let mut v = View::new(4);
        v.insert(ViewEntry { id: id(1), age: 5 });
        v.merge(
            id(0),
            &[ViewEntry::fresh(id(0)), ViewEntry { id: id(1), age: 1 }],
            &[],
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v.oldest().unwrap().age, 1); // younger duplicate won
        assert!(!v.contains(id(0)));
    }

    #[test]
    fn merge_replaces_sent_entries_when_full() {
        let mut v = View::new(2);
        v.insert(ViewEntry::fresh(id(1)));
        v.insert(ViewEntry::fresh(id(2)));
        let sent = vec![ViewEntry::fresh(id(1))];
        v.merge(id(0), &[ViewEntry::fresh(id(9))], &sent);
        assert!(v.contains(id(9)));
        assert!(!v.contains(id(1)));
        assert!(v.contains(id(2)));
    }

    #[test]
    fn merge_full_view_replaces_oldest_as_last_resort() {
        let mut v = View::new(2);
        v.insert(ViewEntry { id: id(1), age: 9 });
        v.insert(ViewEntry { id: id(2), age: 1 });
        v.merge(id(0), &[ViewEntry::fresh(id(9))], &[]);
        assert!(v.contains(id(9)));
        assert!(!v.contains(id(1))); // oldest evicted
        assert!(v.contains(id(2)));
    }

    #[test]
    fn merge_keeps_newer_resident_over_older_incoming() {
        let mut v = View::new(1);
        v.insert(ViewEntry { id: id(1), age: 0 });
        v.merge(id(0), &[ViewEntry { id: id(9), age: 8 }], &[]);
        // Resident entry is younger than the incoming one; keep it.
        assert!(v.contains(id(1)));
        assert!(!v.contains(id(9)));
    }

    #[test]
    fn fresh_views_hold_no_heap() {
        let v = View::new(1000);
        assert_eq!(v.capacity(), 1000);
        assert_eq!(v.len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = View::new(0);
    }
}
