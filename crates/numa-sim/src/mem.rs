//! Simulated virtual memory: regions, pages and first-touch homing.
//!
//! Mirrors the Linux behaviour the paper leans on (§II-A): on the first
//! touch of a page the OS homes it on the toucher's NUMA node; later
//! touches from other sockets are *remote accesses*, which the paper
//! observes as additional minor page faults. The map also maintains the
//! `numa_maps`-style pages-per-node statistics per address space that feed
//! the adaptive mode's priority queue.

use crate::cache::SegId;
use crate::config::{PAGES_PER_SEG, PAGE_BYTES, SEG_BYTES};
use crate::topology::NodeId;
use emca_metrics::FxHashMap;

/// Identifier of an address space (one per simulated process /
/// thread-group — e.g. the whole DBMS is one space).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpaceId(pub u32);

/// A contiguous, segment-aligned run of virtual pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// Owning address space.
    pub space: SpaceId,
    /// First page number (multiple of [`PAGES_PER_SEG`]).
    pub first_page: u64,
    /// Page count (rounded up to whole segments at allocation).
    pub n_pages: u64,
}

impl Region {
    /// Region length in bytes.
    pub fn bytes(&self) -> u64 {
        self.n_pages * PAGE_BYTES
    }

    /// Number of whole segments spanned.
    pub fn n_segments(&self) -> u64 {
        self.n_pages.div_ceil(PAGES_PER_SEG)
    }

    /// The `i`-th segment of the region.
    pub fn segment(&self, i: u64) -> SegId {
        debug_assert!(i < self.n_segments(), "segment index out of region");
        SegId(self.first_page / PAGES_PER_SEG + i)
    }

    /// All segments of the region.
    pub fn segments(&self) -> impl Iterator<Item = SegId> + '_ {
        let base = self.first_page / PAGES_PER_SEG;
        (0..self.n_segments()).map(move |i| SegId(base + i))
    }
}

/// Per-segment placement record. All 16 pages of a segment are homed
/// together (a sequential first-touch scan homes them identically anyway).
#[derive(Clone, Copy, Debug)]
struct SegInfo {
    space: SpaceId,
    home: Option<NodeId>,
    /// Bitmask of sockets that have mapped/touched this segment.
    touched_by: u16,
    /// Bumped on every write; caches compare against it.
    version: u32,
}

/// Outcome of touching a segment, as seen by the fault accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchKind {
    /// First touch machine-wide: the page is homed here; one minor fault.
    FirstTouch,
    /// First touch from this socket, data homed elsewhere: minor fault +
    /// remote access.
    RemoteFirst,
    /// Already mapped by this socket; no fault.
    Mapped,
}

/// What one access found in the map: the fault classification, the
/// segment's home and its write-version after the access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Touch {
    /// Fault classification of the access.
    pub kind: TouchKind,
    /// The segment's home node.
    pub home: NodeId,
    /// The version caches must hold to hit (already bumped by a write).
    pub version: u32,
}

/// The machine-wide memory map.
#[derive(Clone, Debug)]
pub struct MemoryMap {
    n_nodes: usize,
    segs: FxHashMap<u64, SegInfo>,
    next_page: u64,
    /// pages-per-node per space (the `numa_maps` analogue).
    pages_per_node: FxHashMap<SpaceId, Vec<u64>>,
    next_space: u32,
}

impl MemoryMap {
    /// Creates an empty map for a machine with `n_nodes` NUMA nodes.
    pub fn new(n_nodes: usize) -> Self {
        assert!(
            (1..=16).contains(&n_nodes),
            "node count must fit the touch mask"
        );
        MemoryMap {
            n_nodes,
            segs: FxHashMap::default(),
            next_page: 0,
            pages_per_node: FxHashMap::default(),
            next_space: 0,
        }
    }

    /// Creates a fresh address space.
    pub fn create_space(&mut self) -> SpaceId {
        let id = SpaceId(self.next_space);
        self.next_space += 1;
        self.pages_per_node.insert(id, vec![0; self.n_nodes]);
        id
    }

    /// Allocates `bytes` of virtual memory in `space`, rounded up to whole
    /// segments. Pages are *not* homed until first touch.
    pub fn alloc(&mut self, space: SpaceId, bytes: u64) -> Region {
        assert!(bytes > 0, "zero-byte allocation");
        assert!(
            self.pages_per_node.contains_key(&space),
            "allocation in unknown space"
        );
        let n_segs = bytes.div_ceil(SEG_BYTES);
        let first_page = self.next_page;
        let n_pages = n_segs * PAGES_PER_SEG;
        self.next_page += n_pages;
        let region = Region {
            space,
            first_page,
            n_pages,
        };
        let base = first_page / PAGES_PER_SEG;
        for s in 0..n_segs {
            self.segs.insert(
                base + s,
                SegInfo {
                    space,
                    home: None,
                    touched_by: 0,
                    version: 0,
                },
            );
        }
        region
    }

    /// Releases a region: removes its segments and page accounting.
    /// Virtual page numbers are never reused (bump allocation), which keeps
    /// cache keys globally unique for the lifetime of the simulation.
    pub fn free(&mut self, region: &Region) {
        let base = region.first_page / PAGES_PER_SEG;
        for s in 0..region.n_segments() {
            if let Some(info) = self.segs.remove(&(base + s)) {
                if let Some(home) = info.home {
                    if let Some(per_node) = self.pages_per_node.get_mut(&info.space) {
                        per_node[home.idx()] = per_node[home.idx()].saturating_sub(PAGES_PER_SEG);
                    }
                }
            }
        }
    }

    /// Registers an access to `seg` from socket `node` in one lookup:
    /// homes the segment on first touch, classifies the access for fault
    /// accounting and, for a `write`, bumps the write-version (lazily
    /// invalidating cached copies).
    pub fn touch(&mut self, seg: SegId, node: NodeId, write: bool) -> Touch {
        let info = self
            .segs
            .get_mut(&seg.0)
            .unwrap_or_else(|| panic!("touch of unmapped segment {seg:?}"));
        if write {
            info.version = info.version.wrapping_add(1);
        }
        let bit = 1u16 << node.idx();
        let (kind, home) = match info.home {
            None => {
                info.home = Some(node);
                info.touched_by = bit;
                let per_node = self
                    .pages_per_node
                    .get_mut(&info.space)
                    .expect("space accounting missing");
                per_node[node.idx()] += PAGES_PER_SEG;
                (TouchKind::FirstTouch, node)
            }
            Some(home) if info.touched_by & bit == 0 => {
                info.touched_by |= bit;
                (TouchKind::RemoteFirst, home)
            }
            Some(home) => (TouchKind::Mapped, home),
        };
        Touch {
            kind,
            home,
            version: info.version,
        }
    }

    /// The home node of a segment, if it has been touched.
    pub fn home_of(&self, seg: SegId) -> Option<NodeId> {
        self.segs.get(&seg.0).and_then(|i| i.home)
    }

    /// Current write-version of a segment (0 if unmapped).
    pub fn version_of(&self, seg: SegId) -> u32 {
        self.segs.get(&seg.0).map_or(0, |i| i.version)
    }

    /// The owning space of a segment.
    pub fn space_of(&self, seg: SegId) -> Option<SpaceId> {
        self.segs.get(&seg.0).map(|i| i.space)
    }

    /// `numa_maps`-style statistic: resident pages per node for a space.
    pub fn pages_per_node(&self, space: SpaceId) -> &[u64] {
        self.pages_per_node
            .get(&space)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total resident (touched) pages of a space.
    pub fn resident_pages(&self, space: SpaceId) -> u64 {
        self.pages_per_node(space).iter().sum()
    }

    /// Number of mapped segments machine-wide (for diagnostics).
    pub fn n_segments(&self) -> usize {
        self.segs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map2() -> (MemoryMap, SpaceId) {
        let mut m = MemoryMap::new(2);
        let s = m.create_space();
        (m, s)
    }

    #[test]
    fn alloc_rounds_to_segments() {
        let (mut m, s) = map2();
        let r = m.alloc(s, 1); // 1 byte -> 1 segment -> 16 pages
        assert_eq!(r.n_pages, PAGES_PER_SEG);
        assert_eq!(r.n_segments(), 1);
        let r2 = m.alloc(s, SEG_BYTES + 1);
        assert_eq!(r2.n_segments(), 2);
        assert_eq!(r2.first_page, PAGES_PER_SEG); // bump allocated after r
        assert_eq!(r2.bytes(), 2 * SEG_BYTES);
    }

    #[test]
    fn first_touch_homes_and_counts() {
        let (mut m, s) = map2();
        let r = m.alloc(s, SEG_BYTES);
        let seg = r.segment(0);
        let t = m.touch(seg, NodeId(1), false);
        assert_eq!(t.kind, TouchKind::FirstTouch);
        assert_eq!(t.home, NodeId(1));
        assert_eq!(m.pages_per_node(s), &[0, PAGES_PER_SEG]);
        assert_eq!(m.home_of(seg), Some(NodeId(1)));
    }

    #[test]
    fn remote_first_then_mapped() {
        let (mut m, s) = map2();
        let r = m.alloc(s, SEG_BYTES);
        let seg = r.segment(0);
        m.touch(seg, NodeId(0), false);
        let t = m.touch(seg, NodeId(1), false);
        assert_eq!(t.kind, TouchKind::RemoteFirst);
        assert_eq!(t.home, NodeId(0));
        assert_eq!(m.touch(seg, NodeId(1), false).kind, TouchKind::Mapped);
        // home never moves; accounting stays on the first-touch node
        assert_eq!(m.pages_per_node(s), &[PAGES_PER_SEG, 0]);
    }

    #[test]
    fn versions_bump_on_write() {
        let (mut m, s) = map2();
        let r = m.alloc(s, SEG_BYTES);
        let seg = r.segment(0);
        assert_eq!(m.touch(seg, NodeId(0), false).version, 0);
        assert_eq!(m.version_of(seg), 0);
        // A write bumps in the same lookup and reports the new version.
        let t = m.touch(seg, NodeId(1), true);
        assert_eq!(
            (t.kind, t.home, t.version),
            (TouchKind::RemoteFirst, NodeId(0), 1)
        );
        assert_eq!(m.version_of(seg), 1);
    }

    #[test]
    fn free_removes_accounting() {
        let (mut m, s) = map2();
        let r = m.alloc(s, 2 * SEG_BYTES);
        m.touch(r.segment(0), NodeId(0), false);
        m.touch(r.segment(1), NodeId(1), false);
        assert_eq!(m.resident_pages(s), 2 * PAGES_PER_SEG);
        m.free(&r);
        assert_eq!(m.resident_pages(s), 0);
        assert_eq!(m.n_segments(), 0);
        assert_eq!(m.home_of(r.segment(0)), None);
    }

    #[test]
    fn region_segment_iteration() {
        let (mut m, s) = map2();
        let _pad = m.alloc(s, SEG_BYTES); // shift base
        let r = m.alloc(s, 3 * SEG_BYTES);
        let segs: Vec<_> = r.segments().collect();
        assert_eq!(segs, vec![SegId(1), SegId(2), SegId(3)]);
        assert_eq!(r.segment(2), SegId(3));
    }

    #[test]
    fn spaces_are_isolated() {
        let mut m = MemoryMap::new(2);
        let s1 = m.create_space();
        let s2 = m.create_space();
        let r1 = m.alloc(s1, SEG_BYTES);
        let r2 = m.alloc(s2, SEG_BYTES);
        m.touch(r1.segment(0), NodeId(0), false);
        m.touch(r2.segment(0), NodeId(1), false);
        assert_eq!(m.pages_per_node(s1), &[PAGES_PER_SEG, 0]);
        assert_eq!(m.pages_per_node(s2), &[0, PAGES_PER_SEG]);
        assert_eq!(m.space_of(r1.segment(0)), Some(s1));
    }

    #[test]
    #[should_panic(expected = "unmapped segment")]
    fn touch_unmapped_panics() {
        let (mut m, _s) = map2();
        m.touch(SegId(99), NodeId(0), false);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_alloc_panics() {
        let (mut m, s) = map2();
        m.alloc(s, 0);
    }
}
