//! Simulated virtual memory: regions, pages and first-touch homing.
//!
//! Mirrors the Linux behaviour the paper leans on (§II-A): on the first
//! touch of a page the OS homes it on the toucher's NUMA node; later
//! touches from other sockets are *remote accesses*, which the paper
//! observes as additional minor page faults. The map also maintains the
//! `numa_maps`-style pages-per-node statistics per address space that feed
//! the adaptive mode's priority queue.
//!
//! ### Layout
//!
//! Every simulated access starts with one [`MemoryMap::touch`], so the map
//! is a dense table indexed by segment id, not a hash map: ids are
//! bump-allocated and never reused, so segment `s` lives at slot
//! `s % CHUNK_SEGS` of chunk `s / CHUNK_SEGS`. A chunk is allocated when
//! its first segment is and released once every segment in it is freed
//! and the bump pointer has moved past it, so the table's memory follows
//! the live segments; the spine keeps one empty pointer per released
//! chunk (8 bytes per 32 MiB of address space ever allocated).
//!
//! The map is also the cache directory: each segment records which L2s
//! and L3s hold a copy of it ([`Residency`]), so a cache the bits rule
//! out is never searched and a free visits only the caches that hold the
//! segment. [`crate::Machine`] keeps the bits equal to the caches.

use crate::cache::SegId;
use crate::config::{PAGES_PER_SEG, PAGE_BYTES, SEG_BYTES};
use crate::topology::NodeId;
use emca_metrics::FxHashMap;

/// Segments per chunk of the dense table (32 MiB of simulated memory).
const CHUNK_SEGS: usize = 512;

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

/// Which caches hold a copy of a segment, current or stale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Residency {
    /// Bit `c` set: core `c`'s L2 holds a copy (cores cap at 64).
    pub l2: u64,
    /// Bit `n` set: node `n`'s L3 holds a copy (nodes cap at 16).
    pub l3: u16,
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
    /// The caches holding a copy.
    cached: Residency,
}

/// `CHUNK_SEGS` consecutive segment records and how many are mapped.
#[derive(Clone, Debug)]
struct Chunk {
    live: u32,
    segs: [Option<SegInfo>; CHUNK_SEGS],
}

/// The chunk holding `seg` and the segment's slot in it.
fn chunk_slot(seg: SegId) -> (usize, usize) {
    let seg = seg.0 as usize;
    (seg / CHUNK_SEGS, seg % CHUNK_SEGS)
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
/// segment's home, its write-version after the access and the caches
/// holding a copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Touch {
    /// Fault classification of the access.
    pub kind: TouchKind,
    /// The segment's home node.
    pub home: NodeId,
    /// The version caches must hold to hit (already bumped by a write).
    pub version: u32,
    /// The caches holding a copy (current or stale) before the access.
    pub cached: Residency,
}

/// The machine-wide memory map.
#[derive(Clone, Debug)]
pub struct MemoryMap {
    n_nodes: usize,
    /// Chunk `i` holds segments `[i, i + 1) * CHUNK_SEGS`; `None` before
    /// its first allocation and after its release.
    chunks: Vec<Option<Box<Chunk>>>,
    /// Mapped segments machine-wide.
    live_segs: usize,
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
            chunks: Vec::new(),
            live_segs: 0,
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
        for seg in region.segments() {
            let (ci, slot) = chunk_slot(seg);
            if ci >= self.chunks.len() {
                self.chunks.resize_with(ci + 1, || None);
            }
            let chunk = self.chunks[ci].get_or_insert_with(|| {
                Box::new(Chunk {
                    live: 0,
                    segs: [None; CHUNK_SEGS],
                })
            });
            chunk.live += 1;
            chunk.segs[slot] = Some(SegInfo {
                space,
                home: None,
                touched_by: 0,
                version: 0,
                cached: Residency::default(),
            });
        }
        self.live_segs += n_segs as usize;
        region
    }

    /// Releases a region: removes its segments and page accounting.
    /// Virtual page numbers are never reused (bump allocation), which keeps
    /// cache keys globally unique for the lifetime of the simulation.
    /// Freeing an already-freed region does nothing.
    pub fn free(&mut self, region: &Region) {
        // Chunks below the bump pointer get no more segments: release
        // them once empty. The bump pointer's own chunk stays, so an
        // alloc/free cycle inside it does not reallocate it each time.
        let (bump_chunk, _) = chunk_slot(SegId(self.next_page / PAGES_PER_SEG));
        for seg in region.segments() {
            let (ci, slot) = chunk_slot(seg);
            let Some(Some(chunk)) = self.chunks.get_mut(ci) else {
                continue;
            };
            let Some(info) = chunk.segs[slot].take() else {
                continue;
            };
            chunk.live -= 1;
            if chunk.live == 0 && ci < bump_chunk {
                self.chunks[ci] = None;
            }
            self.live_segs -= 1;
            if let Some(home) = info.home {
                if let Some(per_node) = self.pages_per_node.get_mut(&info.space) {
                    per_node[home.idx()] = per_node[home.idx()].saturating_sub(PAGES_PER_SEG);
                }
            }
        }
    }

    fn info(&self, seg: SegId) -> Option<&SegInfo> {
        let (ci, slot) = chunk_slot(seg);
        self.chunks.get(ci)?.as_ref()?.segs[slot].as_ref()
    }

    /// The record of a mapped segment, borrowing only the table (so the
    /// caller may update the page accounting alongside).
    fn info_mut(chunks: &mut [Option<Box<Chunk>>], seg: SegId) -> Option<&mut SegInfo> {
        let (ci, slot) = chunk_slot(seg);
        chunks.get_mut(ci)?.as_mut()?.segs[slot].as_mut()
    }

    /// Registers an access to `seg` from socket `node` in one lookup:
    /// homes the segment on first touch, classifies the access for fault
    /// accounting, for a `write` bumps the write-version (lazily
    /// invalidating cached copies), and reports which caches hold it.
    pub fn touch(&mut self, seg: SegId, node: NodeId, write: bool) -> Touch {
        let Some(info) = Self::info_mut(&mut self.chunks, seg) else {
            panic!("touch of unmapped segment {seg:?}");
        };
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
            cached: info.cached,
        }
    }

    /// The caches holding a copy of a mapped segment (`None` if unmapped).
    pub(crate) fn residency(&self, seg: SegId) -> Option<Residency> {
        self.info(seg).map(|i| i.cached)
    }

    /// The residency record of a mapped segment, for the machine to keep
    /// equal to its caches. Panics on an unmapped segment: no cache may
    /// hold one.
    pub(crate) fn residency_mut(&mut self, seg: SegId) -> &mut Residency {
        match Self::info_mut(&mut self.chunks, seg) {
            Some(info) => &mut info.cached,
            None => panic!("cached copy of unmapped segment {seg:?}"),
        }
    }

    /// The home node of a segment, if it has been touched.
    pub fn home_of(&self, seg: SegId) -> Option<NodeId> {
        self.info(seg).and_then(|i| i.home)
    }

    /// Current write-version of a segment (0 if unmapped).
    pub fn version_of(&self, seg: SegId) -> u32 {
        self.info(seg).map_or(0, |i| i.version)
    }

    /// The owning space of a segment.
    pub fn space_of(&self, seg: SegId) -> Option<SpaceId> {
        self.info(seg).map(|i| i.space)
    }

    /// `numa_maps`-style statistic: resident pages per node for a space.
    pub fn pages_per_node(&self, space: SpaceId) -> &[u64] {
        self.pages_per_node
            .get(&space)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of mapped segments machine-wide (for diagnostics).
    pub fn n_segments(&self) -> usize {
        self.live_segs
    }

    /// Chunks of the dense table currently allocated.
    #[cfg(test)]
    fn live_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
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
        assert_eq!(m.pages_per_node(s), &[PAGES_PER_SEG, PAGES_PER_SEG]);
        m.free(&r);
        assert_eq!(m.pages_per_node(s), &[0, 0]);
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
    fn the_table_follows_live_segments() {
        let (mut m, s) = map2();
        let long = m.alloc(s, 3 * SEG_BYTES);
        m.touch(long.segment(1), NodeId(1), true);
        let mut last = long;
        for i in 0..1_000_000u64 {
            let short = m.alloc(s, (1 + i % 3) * SEG_BYTES);
            m.touch(short.segment(0), NodeId((i % 2) as u16), i % 5 == 0);
            m.free(&short);
            // A region straddling chunks, a live one and the bump
            // pointer's: nothing else stays allocated.
            assert!(m.live_chunks() <= 3, "{} chunks at {i}", m.live_chunks());
            last = short;
        }
        assert_eq!(m.n_segments(), 3);
        assert_eq!(m.pages_per_node(s), &[0, PAGES_PER_SEG]);
        assert_eq!(m.home_of(long.segment(1)), Some(NodeId(1)));
        assert_eq!(m.version_of(long.segment(1)), 1);
        // A freed segment reads as unmapped, and a second free is a no-op.
        let freed = last.segment(0);
        assert_eq!(
            (m.home_of(freed), m.version_of(freed), m.space_of(freed)),
            (None, 0, None)
        );
        m.free(&last);
        assert_eq!(m.n_segments(), 3);
        m.free(&long);
        assert_eq!((m.n_segments(), m.pages_per_node(s)), (0, &[0, 0][..]));
        assert!(m.live_chunks() <= 1, "only the bump pointer's chunk stays");
    }

    #[test]
    #[should_panic(expected = "unmapped segment")]
    fn touch_freed_panics() {
        let (mut m, s) = map2();
        let r = m.alloc(s, SEG_BYTES);
        m.free(&r);
        m.touch(r.segment(0), NodeId(0), false);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_alloc_panics() {
        let (mut m, s) = map2();
        m.alloc(s, 0);
    }
}
