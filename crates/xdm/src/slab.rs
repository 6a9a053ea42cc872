//! Dense identifier-indexed storage shared by the node arena and the labeling.
//!
//! Node identifiers are assigned sequentially by the executor (and by the
//! parser), so almost every identifier of a document falls in one contiguous
//! range. [`IdSlab`] exploits this: values are kept in a dense
//! `Vec<Option<T>>` indexed by `id - base`, so the lookup performed by every
//! Table-1 predicate is an array index instead of a hash probe. Identifiers
//! far outside the dense range (e.g. producer parameter trees generated with a
//! `content_id_base` in the billions, grafted with preserved identifiers) fall
//! back to a spill hash map, so the slab never allocates proportionally to the
//! identifier *values*, only to the number of stored entries.
//!
//! Identifiers are never reused after removal (§4.1), so a removed entry's
//! dense slot simply stays `None`. The corollary is that a slab's footprint
//! grows with the *highest id ever stored densely*, not with the number of
//! live entries: a very long session with heavy insert/delete churn
//! accumulates empty slots. Session-level compaction (`Executor::compact` in
//! the façade crate) renumbers via `Document::assign_preorder_ids`, rebuilding
//! every slab densely and resetting `dead` to zero under a new epoch.

use std::collections::HashMap;

use crate::node::NodeId;

/// Maximum hole the dense vector is allowed to grow over when an identifier
/// lands past its current end; anything farther goes to the spill map.
const MAX_DENSE_GAP: u64 = 1024;

/// Slot-occupancy statistics of an [`IdSlab`], as reported by
/// [`IdSlab::stats`]: the live/dead split of the dense range plus the spilled
/// sparse entries. Identifiers (and therefore slots) are never reused, so
/// `dead` grows monotonically under insert/delete churn *within one epoch* —
/// it is the observable that tells a long-lived session when a compaction
/// (renumbering via `assign_preorder_ids`) would pay off. Compaction rebuilds
/// the slab densely: right after it, `dead == 0` and `spill == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabStats {
    /// Occupied slots of the dense range.
    pub live: usize,
    /// Empty slots of the dense range: identifiers that were removed (or
    /// skipped) and will never be stored again.
    pub dead: usize,
    /// Entries living in the sparse spill map.
    pub spill: usize,
}

impl SlabStats {
    /// Component-wise sum (aggregating several slabs).
    pub fn merged(self, other: SlabStats) -> SlabStats {
        SlabStats {
            live: self.live + other.live,
            dead: self.dead + other.dead,
            spill: self.spill + other.spill,
        }
    }

    /// Fraction of the dense range that is dead weight (0.0 for an empty
    /// slab).
    pub fn dead_ratio(&self) -> f64 {
        let dense = self.live + self.dead;
        if dense == 0 {
            0.0
        } else {
            self.dead as f64 / dense as f64
        }
    }
}

/// A map from [`NodeId`] to `T` optimised for sequentially assigned ids.
#[derive(Debug, Clone)]
pub struct IdSlab<T> {
    /// Identifier stored at `dense[0]`.
    base: u64,
    dense: Vec<Option<T>>,
    spill: HashMap<NodeId, T>,
    len: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab::new()
    }
}

impl<T> IdSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        IdSlab { base: 0, dense: Vec::new(), spill: HashMap::new(), len: 0 }
    }

    /// Creates an empty slab with dense room for `n` sequential entries.
    pub fn with_capacity(n: usize) -> Self {
        IdSlab { base: 0, dense: Vec::with_capacity(n), spill: HashMap::new(), len: 0 }
    }

    /// Creates an empty slab for `n` entries whose identifiers all lie in
    /// `first..=last`. When that range spans at most twice `n` slots (plus
    /// the dense gap), all of it is made dense up front, anchored at `first`:
    /// the entries then land dense in any insertion order, and the vector
    /// never regrows. Otherwise this is [`with_capacity`](IdSlab::with_capacity).
    pub fn with_id_range(first: NodeId, last: NodeId, n: usize) -> Self {
        let span = last.as_u64().checked_sub(first.as_u64());
        match span {
            Some(span) if span < (n as u64).saturating_mul(2).saturating_add(MAX_DENSE_GAP) => {
                IdSlab {
                    base: first.as_u64(),
                    dense: std::iter::repeat_with(|| None).take(span as usize + 1).collect(),
                    spill: HashMap::new(),
                    len: 0,
                }
            }
            _ => IdSlab::with_capacity(n),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab stores no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn dense_offset(&self, id: NodeId) -> Option<usize> {
        let off = id.as_u64().checked_sub(self.base)?;
        if (off as usize) < self.dense.len() {
            Some(off as usize)
        } else {
            None
        }
    }

    /// Returns a reference to the value stored for `id`.
    ///
    /// An empty dense slot falls through to the spill map: an identifier that
    /// spilled while it was far past the dense end may later fall *inside* the
    /// dense range as the vector grows over it.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&T> {
        if let Some(off) = self.dense_offset(id) {
            if let Some(v) = self.dense[off].as_ref() {
                return Some(v);
            }
        }
        self.spill.get(&id)
    }

    /// Returns a mutable reference to the value stored for `id`.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        match self.dense_offset(id) {
            Some(off) if self.dense[off].is_some() => self.dense[off].as_mut(),
            _ => self.spill.get_mut(&id),
        }
    }

    /// Whether a value is stored for `id`.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` for `id`, returning the previous value if any.
    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        if self.len == 0 && self.spill.is_empty() && self.dense.is_empty() {
            // First entry anchors the dense range.
            self.base = id.as_u64();
        }
        let raw = id.as_u64();
        if raw >= self.base {
            let off = raw - self.base;
            if (off as usize) < self.dense.len() {
                // The previous value may live in the spill map if the id
                // spilled before the dense range grew over it.
                let old =
                    self.dense[off as usize].replace(value).or_else(|| self.spill.remove(&id));
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            if off < self.dense.len() as u64 + MAX_DENSE_GAP {
                self.dense.resize_with(off as usize + 1, || None);
                // The id may have spilled earlier, when the gap to it was
                // still too large: migrate rather than shadow it.
                let old = self.spill.remove(&id);
                self.dense[off as usize] = Some(value);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
        }
        let old = self.spill.insert(id, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value stored for `id`. The dense slot is left
    /// empty (identifiers are never reused, so neither are slots).
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let old = match self.dense_offset(id) {
            Some(off) if self.dense[off].is_some() => self.dense[off].take(),
            _ => self.spill.remove(&id),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterates over `(id, value)` pairs: the dense range in increasing
    /// identifier order first, then the spilled entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        let base = self.base;
        self.dense
            .iter()
            .enumerate()
            .filter_map(move |(i, v)| v.as_ref().map(|v| (NodeId::new(base + i as u64), v)))
            .chain(self.spill.iter().map(|(k, v)| (*k, v)))
    }

    /// Iterates over the stored identifiers.
    pub fn keys(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates over the stored values.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Slot-occupancy statistics: live/dead dense slots and spilled entries.
    /// O(dense range) — meant for observability endpoints and tests, not for
    /// hot paths.
    pub fn stats(&self) -> SlabStats {
        let live = self.dense.iter().filter(|v| v.is_some()).count();
        SlabStats { live, dead: self.dense.len() - live, spill: self.spill.len() }
    }

    /// Debug invariant walker: panics if the stored length disagrees with the
    /// dense and spill populations, or if an identifier is stored in both the
    /// dense range and the spill map (a shadowing bug: `get` would see only
    /// the dense copy). O(entries); intended for tests. These invariants are
    /// epoch-agnostic: they hold across churn *and* across a compaction
    /// (which rebuilds the slab densely) — use
    /// [`assert_compact`](IdSlab::assert_compact) for the stricter
    /// freshly-compacted shape.
    pub fn assert_consistent(&self) {
        let dense_count = self.dense.iter().filter(|v| v.is_some()).count();
        assert_eq!(
            self.len,
            dense_count + self.spill.len(),
            "IdSlab: len {} disagrees with dense {} + spill {}",
            self.len,
            dense_count,
            self.spill.len()
        );
        for (i, v) in self.dense.iter().enumerate() {
            if v.is_some() {
                let id = NodeId::new(self.base + i as u64);
                assert!(
                    !self.spill.contains_key(&id),
                    "IdSlab: {id} stored in both the dense range and the spill map"
                );
            }
        }
    }

    /// The stricter post-compaction invariant: everything
    /// [`assert_consistent`](IdSlab::assert_consistent) checks, plus a fully
    /// dense layout — no dead slots, no spill entries. Holds right after a
    /// session compaction renumbers identifiers contiguously; ordinary churn
    /// re-introduces dead slots (within the new epoch) and this stops holding.
    pub fn assert_compact(&self) {
        self.assert_consistent();
        let stats = self.stats();
        assert_eq!(stats.dead, 0, "compacted slab left {} dead slots", stats.dead);
        assert_eq!(stats.spill, 0, "compacted slab left {} spill entries", stats.spill);
    }

    /// Consumes the slab, yielding all `(id, value)` pairs.
    pub fn into_entries(self) -> impl Iterator<Item = (NodeId, T)> {
        let base = self.base;
        self.dense
            .into_iter()
            .enumerate()
            .filter_map(move |(i, v)| v.map(|v| (NodeId::new(base + i as u64), v)))
            .chain(self.spill)
    }
}

impl<T> FromIterator<(NodeId, T)> for IdSlab<T> {
    fn from_iter<I: IntoIterator<Item = (NodeId, T)>>(iter: I) -> Self {
        let mut slab = IdSlab::new();
        for (id, v) in iter {
            slab.insert(id, v);
        }
        slab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_sequential_inserts() {
        let mut s: IdSlab<u32> = IdSlab::new();
        for i in 1..=100u64 {
            assert!(s.insert(NodeId::new(i), i as u32 * 2).is_none());
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.get(NodeId::new(50)), Some(&100));
        assert!(s.contains(NodeId::new(1)));
        assert!(!s.contains(NodeId::new(101)));
        assert_eq!(s.spill.len(), 0, "sequential ids stay dense");
    }

    #[test]
    fn far_ids_spill_instead_of_allocating() {
        let mut s: IdSlab<u8> = IdSlab::new();
        s.insert(NodeId::new(1), 1);
        s.insert(NodeId::new(1 << 40), 2);
        assert!(s.dense.len() < 10, "huge id must not grow the dense vec");
        assert_eq!(s.get(NodeId::new(1 << 40)), Some(&2));
        assert_eq!(s.len(), 2);
        // ids below the base also spill
        let mut t: IdSlab<u8> = IdSlab::new();
        t.insert(NodeId::new(1000), 1);
        t.insert(NodeId::new(5), 2);
        assert_eq!(t.get(NodeId::new(5)), Some(&2));
    }

    #[test]
    fn small_gaps_extend_the_dense_range() {
        let mut s: IdSlab<u8> = IdSlab::new();
        s.insert(NodeId::new(10), 1);
        s.insert(NodeId::new(20), 2); // gap of 9 < MAX_DENSE_GAP
        assert_eq!(s.spill.len(), 0);
        assert_eq!(s.get(NodeId::new(20)), Some(&2));
        assert_eq!(s.get(NodeId::new(15)), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_and_replace() {
        let mut s: IdSlab<&str> = IdSlab::new();
        s.insert(NodeId::new(3), "a");
        s.insert(NodeId::new(4), "b");
        assert_eq!(s.insert(NodeId::new(3), "a2"), Some("a"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(NodeId::new(3)), Some("a2"));
        assert_eq!(s.remove(NodeId::new(3)), None);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(NodeId::new(3)));
    }

    #[test]
    fn iteration_covers_dense_and_spill() {
        let mut s: IdSlab<u64> = IdSlab::new();
        s.insert(NodeId::new(1), 10);
        s.insert(NodeId::new(2), 20);
        s.insert(NodeId::new(1 << 50), 30);
        let mut pairs: Vec<(u64, u64)> = s.iter().map(|(k, v)| (k.as_u64(), *v)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 20), (1 << 50, 30)]);
        let mut owned: Vec<(u64, u64)> =
            s.clone().into_entries().map(|(k, v)| (k.as_u64(), v)).collect();
        owned.sort_unstable();
        assert_eq!(owned, pairs);
        assert_eq!(s.keys().count(), 3);
        assert_eq!(s.values().sum::<u64>(), 60);
    }

    #[test]
    fn spilled_id_survives_dense_growth_over_it() {
        // Insert an id far past the dense end (spills), then grow the dense
        // range over that offset: the spilled entry must stay reachable and
        // replaceable.
        let mut s: IdSlab<u32> = IdSlab::new();
        s.insert(NodeId::new(1), 1);
        let far = 1 + MAX_DENSE_GAP + 500; // beyond the gap → spill
        s.insert(NodeId::new(far), 99);
        assert_eq!(s.get(NodeId::new(far)), Some(&99));
        // grow the dense vec past `far` with small-gap inserts
        let mut id = 2;
        while id <= far + 10 {
            if id != far {
                s.insert(NodeId::new(id), id as u32);
            }
            id += MAX_DENSE_GAP / 2;
        }
        assert_eq!(s.get(NodeId::new(far)), Some(&99), "spilled entry still visible");
        *s.get_mut(NodeId::new(far)).unwrap() = 100;
        assert_eq!(s.get(NodeId::new(far)), Some(&100));
        // overwriting via insert returns the spilled value, not a phantom None
        assert_eq!(s.insert(NodeId::new(far), 7), Some(100));
        assert_eq!(s.iter().filter(|(k, _)| k.as_u64() == far).count(), 1, "no double entry");
        assert_eq!(s.remove(NodeId::new(far)), Some(7));
        assert_eq!(s.get(NodeId::new(far)), None);
    }

    #[test]
    fn stats_track_live_dead_and_spill() {
        let mut s: IdSlab<u8> = IdSlab::new();
        assert_eq!(s.stats(), SlabStats::default());
        for i in 1..=10u64 {
            s.insert(NodeId::new(i), i as u8);
        }
        assert_eq!(s.stats(), SlabStats { live: 10, dead: 0, spill: 0 });
        // removals leave dead slots behind: ids are never reused
        s.remove(NodeId::new(3));
        s.remove(NodeId::new(7));
        let stats = s.stats();
        assert_eq!(stats, SlabStats { live: 8, dead: 2, spill: 0 });
        assert!((stats.dead_ratio() - 0.2).abs() < 1e-9);
        // far ids spill instead of growing the dense range
        s.insert(NodeId::new(1 << 40), 42);
        assert_eq!(s.stats(), SlabStats { live: 8, dead: 2, spill: 1 });
        // merging aggregates component-wise
        let merged = s.stats().merged(SlabStats { live: 1, dead: 2, spill: 3 });
        assert_eq!(merged, SlabStats { live: 9, dead: 4, spill: 4 });
    }

    #[test]
    fn a_known_id_range_stays_dense_in_any_insertion_order() {
        // Far jumps spill when the dense range has to grow over them ...
        let scrambled = [1u64, 5000, 2, 4000, 3, 4999, 2500];
        let mut grown: IdSlab<u64> = IdSlab::new();
        for id in scrambled {
            grown.insert(NodeId::new(id), id);
        }
        assert!(grown.stats().spill > 0);
        // ... but not when the whole range is laid out up front.
        let mut ranged = IdSlab::with_id_range(NodeId::new(1), NodeId::new(5000), 2600);
        for id in scrambled {
            ranged.insert(NodeId::new(id), id);
        }
        assert_eq!(ranged.stats(), SlabStats { live: 7, dead: 4993, spill: 0 });
        assert_eq!(ranged.get(NodeId::new(4000)), Some(&4000));
        ranged.assert_consistent();
        // A range far wider than the entries falls back to plain growth.
        let sparse: IdSlab<u64> = IdSlab::with_id_range(NodeId::new(1), NodeId::new(1 << 40), 4);
        assert_eq!(sparse.stats(), SlabStats::default());
    }

    #[test]
    fn from_iterator_builds_a_slab() {
        let s: IdSlab<u8> = (1..=5u64).map(|i| (NodeId::new(i), i as u8)).collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.get(NodeId::new(4)), Some(&4));
    }

    #[test]
    fn assert_compact_accepts_dense_and_rejects_churned_slabs() {
        let mut s: IdSlab<u8> = (1..=5u64).map(|i| (NodeId::new(i), i as u8)).collect();
        s.assert_compact();
        s.remove(NodeId::new(3));
        s.assert_consistent(); // churn keeps the general invariants ...
        let churned = std::panic::catch_unwind(move || s.assert_compact());
        assert!(churned.is_err(), "... but the dead slot must fail assert_compact");
    }
}
