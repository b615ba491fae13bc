//! Segment-granular LRU cache model.
//!
//! The paper's cache effects (L3 conflicts under dense placement, misses
//! under scattered sharing, invalidation storms on materialisation) are
//! reproduced with per-socket shared L3 and per-core L2 models that track
//! *which 64 KiB segments* are resident, not individual lines. Entries are
//! versioned: a write to a segment bumps its global version, so stale
//! copies in other caches miss on their next probe (lazy invalidation).
//!
//! ### Layout
//!
//! Every cache probe of the simulator lands here, so each operation is
//! O(capacity) at worst and hashes nothing: a fixed slab of `capacity`
//! slots, linked into an intrusive doubly-linked recency list (head =
//! least recently used, tail = most), plus the array of the segments the
//! slots hold. A segment is found by scanning that array — at most 8
//! keys for an L2, 96 for an L3 — and the simulator scans only when the
//! memory map's residency bits say the segment is there: a cache the
//! bits rule out takes [`LruCache::probe_absent`] and
//! [`LruCache::insert_absent`], which search nothing. A hit or an insert
//! unlinks one slot and relinks it at the tail; an eviction takes the
//! head; a stale probe or an invalidation unlinks its slot onto a free
//! chain.
//!
//! The list order *is* the order of the per-access stamps an ordered map
//! kept before: every hit and insert drew the next (largest) stamp, which
//! is exactly "move to the tail", and the victim was the smallest stamp,
//! which is exactly the head. So every probe result and evicted segment —
//! and with them every simulated number — is what the stamp model gave; a
//! test drives both through random traces and compares them step by step.

/// Global identity of a 64 KiB segment (page number / pages-per-segment).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegId(pub u64);

/// End of the recency list / free chain.
const NIL: u32 = u32::MAX;

/// The key of a slot that holds nothing (never filled, or on the free
/// chain). No segment has it: ids are bump-allocated from 0.
const VACANT: SegId = SegId(u64::MAX);

/// One slab slot's version and recency-list links (a free slot uses
/// `next` for the free chain).
#[derive(Clone, Copy, Debug)]
struct Slot {
    version: u32,
    prev: u32,
    next: u32,
}

/// An LRU set of versioned segments with fixed capacity.
#[derive(Clone, Debug)]
pub struct LruCache {
    capacity: usize,
    /// The segment in each slot (`VACANT` if none); parallel to `slots`,
    /// kept apart so a search reads only keys.
    keys: Vec<SegId>,
    /// Grows to `capacity` slots and never beyond.
    slots: Vec<Slot>,
    /// Number of resident segments.
    len: usize,
    /// Least recently used slot (the next victim).
    head: u32,
    /// Most recently used slot.
    tail: u32,
    /// Chain of slots freed by stale probes and invalidations.
    free: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
    stale_invalidations: u64,
}

/// Result of probing the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Segment resident with a current version.
    Hit,
    /// Segment absent.
    Miss,
    /// Segment resident but its version was stale (it was written by
    /// another core/socket since being cached) — counts as an
    /// invalidation followed by a miss.
    Stale,
}

impl LruCache {
    /// Creates an empty cache holding up to `capacity` segments.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        assert!(
            capacity < NIL as usize,
            "cache capacity must fit a slot index"
        );
        LruCache {
            capacity,
            keys: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            len: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
            stale_invalidations: 0,
        }
    }

    /// Number of resident segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in segments.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Probes for `seg` expecting `version`. On [`Probe::Hit`] the entry is
    /// refreshed to most-recently-used. On [`Probe::Stale`] the stale entry
    /// is dropped. The caller decides whether to [`LruCache::insert`]
    /// afterwards (it does so once the fetch completes).
    pub fn probe(&mut self, seg: SegId, version: u32) -> Probe {
        match self.find(seg) {
            Some(slot) => self.probe_slot(slot, version),
            None => self.probe_absent(seg),
        }
    }

    /// [`LruCache::probe`] of a segment known to be resident (at any
    /// version): a [`Probe::Hit`] or a [`Probe::Stale`].
    pub fn probe_resident(&mut self, seg: SegId, version: u32) -> Probe {
        let Some(slot) = self.find(seg) else {
            panic!("resident probe of absent segment {seg:?}");
        };
        self.probe_slot(slot, version)
    }

    /// [`LruCache::probe`] of a segment known to be absent: counts the
    /// miss without searching.
    pub fn probe_absent(&mut self, seg: SegId) -> Probe {
        debug_assert!(!self.holds(seg), "absent probe of resident {seg:?}");
        self.misses += 1;
        Probe::Miss
    }

    fn probe_slot(&mut self, slot: u32, version: u32) -> Probe {
        if self.slots[slot as usize].version == version {
            self.touch(slot);
            self.hits += 1;
            Probe::Hit
        } else {
            self.release(slot);
            self.stale_invalidations += 1;
            self.misses += 1;
            Probe::Stale
        }
    }

    /// Non-mutating residency check (no LRU refresh, no counter updates).
    pub fn contains_current(&self, seg: SegId, version: u32) -> bool {
        matches!(self.find(seg), Some(s) if self.slots[s as usize].version == version)
    }

    /// Non-mutating check that `seg` is resident at any version, current
    /// or stale.
    pub fn holds(&self, seg: SegId) -> bool {
        self.find(seg).is_some()
    }

    /// Inserts (or refreshes) `seg` at `version`, evicting the LRU entry
    /// if the cache is full. Returns the evicted segment, if any.
    pub fn insert(&mut self, seg: SegId, version: u32) -> Option<SegId> {
        match self.find(seg) {
            Some(slot) => {
                // A resident segment leaves before the capacity check, so
                // a refresh never evicts.
                self.slots[slot as usize].version = version;
                self.touch(slot);
                None
            }
            None => self.insert_absent(seg, version),
        }
    }

    /// [`LruCache::insert`] of a segment known to be absent: takes a slot
    /// without searching. Returns the evicted segment, if any.
    pub fn insert_absent(&mut self, seg: SegId, version: u32) -> Option<SegId> {
        debug_assert!(!self.holds(seg), "absent insert of resident {seg:?}");
        let (slot, evicted) = if self.len >= self.capacity {
            let victim = self.head;
            self.unlink(victim);
            self.evictions += 1;
            (victim, Some(self.keys[victim as usize]))
        } else {
            self.len += 1;
            if self.free != NIL {
                let slot = self.free;
                self.free = self.slots[slot as usize].next;
                (slot, None)
            } else {
                self.keys.push(VACANT);
                self.slots.push(Slot {
                    version,
                    prev: NIL,
                    next: NIL,
                });
                ((self.slots.len() - 1) as u32, None)
            }
        };
        self.keys[slot as usize] = seg;
        self.slots[slot as usize].version = version;
        self.link_tail(slot);
        evicted
    }

    /// Removes `seg` if resident (explicit invalidation, e.g. on region
    /// free). Returns true if it was resident.
    pub fn invalidate(&mut self, seg: SegId) -> bool {
        match self.find(seg) {
            Some(slot) => {
                self.release(slot);
                true
            }
            None => false,
        }
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.len = 0;
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
    }

    /// Cumulative hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative miss count (includes stale probes).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative capacity evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cumulative stale-version invalidations observed at probe time.
    pub fn stale_invalidations(&self) -> u64 {
        self.stale_invalidations
    }

    /// Makes a linked slot the most recently used.
    fn touch(&mut self, slot: u32) {
        if slot != self.tail {
            self.unlink(slot);
            self.link_tail(slot);
        }
    }

    /// The slot holding `seg`, by a scan of the keys.
    fn find(&self, seg: SegId) -> Option<u32> {
        self.keys.iter().position(|&k| k == seg).map(|i| i as u32)
    }

    /// Empties a resident slot onto the free chain.
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        self.keys[slot as usize] = VACANT;
        self.len -= 1;
        self.slots[slot as usize].next = self.free;
        self.free = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn link_tail(&mut self, slot: u32) {
        let tail = self.tail;
        let s = &mut self.slots[slot as usize];
        s.prev = tail;
        s.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.slots[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

/// The stamp-ordered model the slab replaced, kept as the oracle the
/// slab (and the machine's directory-driven access path) is compared
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Probe, SegId};
    use emca_metrics::FxHashMap;
    use std::collections::BTreeMap;

    pub struct StampLru {
        capacity: usize,
        /// seg -> (lru stamp, cached version)
        entries: FxHashMap<SegId, (u64, u32)>,
        /// stamp -> seg, ordered: first entry is the LRU victim.
        order: BTreeMap<u64, SegId>,
        next_stamp: u64,
        pub hits: u64,
        pub misses: u64,
        pub evictions: u64,
        pub stale_invalidations: u64,
    }

    impl StampLru {
        pub fn new(capacity: usize) -> Self {
            StampLru {
                capacity,
                entries: FxHashMap::default(),
                order: BTreeMap::new(),
                next_stamp: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                stale_invalidations: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn probe(&mut self, seg: SegId, version: u32) -> Probe {
            match self.entries.get(&seg).copied() {
                Some((stamp, cached_version)) if cached_version == version => {
                    self.order.remove(&stamp);
                    let new_stamp = self.bump_stamp();
                    self.order.insert(new_stamp, seg);
                    self.entries.insert(seg, (new_stamp, version));
                    self.hits += 1;
                    Probe::Hit
                }
                Some((stamp, _stale)) => {
                    self.order.remove(&stamp);
                    self.entries.remove(&seg);
                    self.stale_invalidations += 1;
                    self.misses += 1;
                    Probe::Stale
                }
                None => {
                    self.misses += 1;
                    Probe::Miss
                }
            }
        }

        pub fn contains_current(&self, seg: SegId, version: u32) -> bool {
            matches!(self.entries.get(&seg), Some(&(_, v)) if v == version)
        }

        pub fn holds(&self, seg: SegId) -> bool {
            self.entries.contains_key(&seg)
        }

        pub fn insert(&mut self, seg: SegId, version: u32) -> Option<SegId> {
            if let Some((stamp, _)) = self.entries.remove(&seg) {
                self.order.remove(&stamp);
            }
            let mut evicted = None;
            if self.entries.len() >= self.capacity {
                if let Some((&victim_stamp, &victim)) = self.order.iter().next() {
                    self.order.remove(&victim_stamp);
                    self.entries.remove(&victim);
                    self.evictions += 1;
                    evicted = Some(victim);
                }
            }
            let stamp = self.bump_stamp();
            self.order.insert(stamp, seg);
            self.entries.insert(seg, (stamp, version));
            evicted
        }

        pub fn invalidate(&mut self, seg: SegId) -> bool {
            if let Some((stamp, _)) = self.entries.remove(&seg) {
                self.order.remove(&stamp);
                true
            } else {
                false
            }
        }

        pub fn clear(&mut self) {
            self.entries.clear();
            self.order.clear();
        }

        fn bump_stamp(&mut self) -> u64 {
            let s = self.next_stamp;
            self.next_stamp += 1;
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::StampLru;
    use super::*;
    use proptest::prelude::*;

    fn seg(n: u64) -> SegId {
        SegId(n)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = LruCache::new(2);
        assert_eq!(c.probe(seg(1), 0), Probe::Miss);
        c.insert(seg(1), 0);
        assert_eq!(c.probe(seg(1), 0), Probe::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.insert(seg(1), 0);
        c.insert(seg(2), 0);
        // refresh seg 1 so seg 2 becomes LRU
        assert_eq!(c.probe(seg(1), 0), Probe::Hit);
        let evicted = c.insert(seg(3), 0);
        assert_eq!(evicted, Some(seg(2)));
        assert!(c.contains_current(seg(1), 0));
        assert!(c.contains_current(seg(3), 0));
        assert!(!c.contains_current(seg(2), 0));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn stale_version_misses_and_invalidates() {
        let mut c = LruCache::new(4);
        c.insert(seg(7), 0);
        assert_eq!(c.probe(seg(7), 1), Probe::Stale);
        assert_eq!(c.stale_invalidations(), 1);
        assert!(!c.contains_current(seg(7), 0));
        // A later probe at the new version is a plain miss.
        assert_eq!(c.probe(seg(7), 1), Probe::Miss);
    }

    #[test]
    fn reinsert_same_seg_does_not_grow() {
        let mut c = LruCache::new(2);
        c.insert(seg(1), 0);
        c.insert(seg(1), 1);
        assert_eq!(c.len(), 1);
        assert!(c.contains_current(seg(1), 1));
        assert!(!c.contains_current(seg(1), 0));
    }

    #[test]
    fn explicit_invalidate() {
        let mut c = LruCache::new(2);
        c.insert(seg(1), 0);
        assert!(c.invalidate(seg(1)));
        assert!(!c.invalidate(seg(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut c = LruCache::new(3);
        for i in 0..100 {
            c.insert(seg(i), 0);
            assert!(c.len() <= 3);
        }
        assert_eq!(c.evictions(), 97);
    }

    #[test]
    fn clear_resets_contents_not_counters() {
        let mut c = LruCache::new(2);
        c.insert(seg(1), 0);
        c.probe(seg(1), 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn freed_slots_are_reused_before_evicting() {
        let mut c = LruCache::new(2);
        c.insert(seg(1), 0);
        c.insert(seg(2), 0);
        assert!(c.invalidate(seg(1)));
        assert_eq!(c.insert(seg(3), 0), None, "a free slot, not a victim");
        assert_eq!(c.insert(seg(4), 0), Some(seg(2)));
        assert_eq!(c.slots.len(), 2, "the slab never grows past capacity");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        let _ = LruCache::new(0);
    }

    /// One step of a random trace: (operation, segment draw, version).
    type Op = (u8, u64, u32);

    /// Drives the slab and the stamp model through the same trace and
    /// compares every return value, the size, residency of every segment
    /// the trace can name, and the four counters after each step.
    fn same_model(capacity: usize, trace: &[Op]) -> Result<(), TestCaseError> {
        let mut slab = LruCache::new(capacity);
        let mut stamp = StampLru::new(capacity);
        // A few more segments than fit, so the trace hits, misses and
        // evicts.
        let n_segs = 2 * capacity as u64 + 3;
        for (step, &(op, raw, version)) in trace.iter().enumerate() {
            let s = seg(raw % n_segs);
            match op {
                0..=15 => prop_assert_eq!(slab.probe(s, version), stamp.probe(s, version)),
                16..=31 => prop_assert_eq!(slab.insert(s, version), stamp.insert(s, version)),
                32..=38 => prop_assert_eq!(slab.invalidate(s), stamp.invalidate(s)),
                // The known-state entry points, each where the stamp model
                // says its precondition holds.
                40..=47 if stamp.holds(s) => {
                    prop_assert_eq!(slab.probe_resident(s, version), stamp.probe(s, version))
                }
                40..=47 => prop_assert_eq!(slab.probe_absent(s), stamp.probe(s, version)),
                48..=55 if !stamp.holds(s) => {
                    prop_assert_eq!(slab.insert_absent(s, version), stamp.insert(s, version))
                }
                48..=55 => prop_assert_eq!(slab.insert(s, version), stamp.insert(s, version)),
                _ => {
                    slab.clear();
                    stamp.clear();
                }
            }
            prop_assert_eq!(slab.len(), stamp.len(), "len after step {step}");
            for n in 0..n_segs {
                prop_assert_eq!(
                    slab.holds(seg(n)),
                    stamp.holds(seg(n)),
                    "residency of {n} after step {step}"
                );
                for v in 0..3 {
                    prop_assert_eq!(
                        slab.contains_current(seg(n), v),
                        stamp.contains_current(seg(n), v),
                        "residency of {n}@{v} after step {step}"
                    );
                }
            }
            let counters =
                |c: &LruCache| (c.hits(), c.misses(), c.evictions(), c.stale_invalidations());
            prop_assert_eq!(
                counters(&slab),
                (
                    stamp.hits,
                    stamp.misses,
                    stamp.evictions,
                    stamp.stale_invalidations
                ),
                "counters after step {step}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn slab_is_the_stamp_model(
            // Clear (op 39) is one draw in 56, so traces mostly fill
            // the cache.
            trace in collection::vec((0u8..56, 0u64..1 << 20, 0u32..3), 1..400)
        ) {
            for capacity in [1, 2, 8, 96] {
                same_model(capacity, &trace)?;
            }
        }
    }
}
