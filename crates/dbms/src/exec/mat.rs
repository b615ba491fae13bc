//! Materialised intermediates.
//!
//! MonetDB is operator-at-a-time: every operator fully materialises its
//! result BAT before dependents run. [`Mat`] is the in-memory value of a
//! completed plan node; [`NodeStorage`] is its *simulated* backing memory.
//! Because every partition task allocates and first-touches its own slice
//! of the output, intermediates end up homed across the NUMA nodes that
//! executed the operator — the effect the adaptive priority mode tracks.

use crate::storage::bat::{ColData, ROWS_PER_SEG};
use numa_sim::{Region, SegId};
use std::sync::Arc;

/// A selection vector over a base table.
#[derive(Clone, Debug)]
pub struct PosMat {
    /// The base table the positions index into.
    pub table: &'static str,
    /// Sorted row positions.
    pub pos: Arc<Vec<u32>>,
}

/// A value vector, optionally carrying the positions it was projected
/// through (provenance, used by join sides).
#[derive(Clone, Debug)]
pub struct ValMat {
    /// The values.
    pub data: ColData,
    /// Where row `i` of `data` came from, if projected from a base table.
    pub origin: Option<PosMat>,
}

/// Matched join pairs, already mapped back to base-table positions on
/// both sides.
#[derive(Clone, Debug)]
pub struct PairsMat {
    /// Probe-side base positions (one entry per match).
    pub probe: PosMat,
    /// Build-side base positions (aligned with `probe`).
    pub build: PosMat,
}

/// Sentinel for an empty bucket head / chain end in [`FlatJoinMap`].
const CHAIN_END: u32 = u32::MAX;

/// Direct-address span cap: build key domains up to this wide use the
/// perfect-hash form (16 MiB of heads at the cap — transient, freed
/// with the query).
const DIRECT_JOIN_SPAN: usize = 1 << 22;

/// A flat bucket-chained join table over the contiguous build-row index
/// space. Replaces the `FxHashMap<i64, Vec<u32>>` layout, whose
/// one-heap-`Vec`-per-distinct-key builds dominated the join hot path
/// (the allocation tax of *On the Impact of Memory Allocation on
/// High-Performance Query Processing*). Partial builds merge by
/// concatenating their key slices; chains are linked once over the
/// concatenated array — no per-key re-hash, no per-key allocation.
///
/// Two layouts, chosen once at build:
///
/// - **Direct**: TPC-H join keys are small dense integers, so for
///   narrow key spans `heads` is indexed by `key - base` directly — no
///   hash, no key comparisons on the chain walk (a chain holds exactly
///   one key), at most two cache misses per probe.
/// - **Hashed**: wide-domain fallback; Fibonacci-hashed buckets over
///   interleaved `(key, next)` entries, so a chain step costs one cache
///   line, with key-equality filtering for bucket collisions.
#[derive(Debug)]
pub enum FlatJoinMap {
    /// Perfect-hash layout for narrow key spans.
    Direct {
        /// Smallest build key.
        base: i64,
        /// `heads[key - base]` → first build row with that key.
        heads: Vec<u32>,
        /// Per-row chain link (`CHAIN_END` = end); a chain links rows of
        /// one exact key, in ascending build-row order.
        next: Vec<u32>,
    },
    /// Hashed layout for wide key domains.
    Hashed {
        /// `(key, next)` per build row, interleaved so the chain walk
        /// touches one cache line per step.
        entries: Vec<(i64, u32)>,
        /// Bucket heads (`CHAIN_END` = empty), length a power of two.
        heads: Vec<u32>,
        /// Fibonacci-hash shift selecting `log2(heads.len())` top bits.
        shift: u32,
    },
}

impl Default for FlatJoinMap {
    fn default() -> Self {
        FlatJoinMap::from_keys(Vec::new())
    }
}

impl FlatJoinMap {
    /// Builds the table from partition key slices, concatenated in
    /// partition order (partition `p` over build rows `[start, end)`
    /// must contribute exactly those rows' keys, in row order).
    pub fn from_parts(parts: impl IntoIterator<Item = Vec<i64>>) -> Self {
        let mut iter = parts.into_iter();
        let mut keys = iter.next().unwrap_or_default();
        for part in iter {
            keys.reserve(part.len());
            keys.extend_from_slice(&part);
        }
        Self::from_keys(keys)
    }

    /// Builds the table from the full key vector.
    pub fn from_keys(keys: Vec<i64>) -> Self {
        let n = keys.len();
        let (lo, hi) = crate::exec::eval::key_bounds(&keys);
        let span = if n == 0 {
            0
        } else {
            (hi as i128 - lo as i128 + 1).min(usize::MAX as i128) as usize
        };
        // Direct addressing when the span stays workable: build sides
        // are typically *selective subsets* of a dense key domain, so
        // the span can exceed the row count considerably and direct
        // addressing still wins — probes are mostly misses, and a miss
        // costs one lookup in a heads array small enough to stay cache
        // resident. The proportional bound only guards the degenerate
        // huge-span/tiny-build case.
        if n > 0 && span <= DIRECT_JOIN_SPAN && span <= (64 * n).max(65536) {
            let mut heads = vec![CHAIN_END; span];
            let mut next = vec![CHAIN_END; n];
            // Rows link in reverse so chains walk in ascending global
            // build index — the emission order probe results rely on.
            for g in (0..n).rev() {
                let idx = (keys[g] - lo) as usize;
                next[g] = heads[idx];
                heads[idx] = g as u32;
            }
            FlatJoinMap::Direct {
                base: lo,
                heads,
                next,
            }
        } else {
            let n_buckets = n.next_power_of_two().max(2);
            let shift = 64 - n_buckets.trailing_zeros();
            let mut heads = vec![CHAIN_END; n_buckets];
            let mut entries: Vec<(i64, u32)> = keys.iter().map(|&k| (k, CHAIN_END)).collect();
            for g in (0..n).rev() {
                let b = Self::bucket(entries[g].0, shift);
                entries[g].1 = heads[b];
                heads[b] = g as u32;
            }
            FlatJoinMap::Hashed {
                entries,
                heads,
                shift,
            }
        }
    }

    #[inline(always)]
    fn bucket(key: i64, shift: u32) -> usize {
        // Fibonacci hashing: multiply spreads the low-entropy key bits,
        // the shift keeps the top log2(n_buckets) bits.
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    /// Number of build rows.
    pub fn n_rows(&self) -> usize {
        match self {
            FlatJoinMap::Direct { next, .. } => next.len(),
            FlatJoinMap::Hashed { entries, .. } => entries.len(),
        }
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Calls `f` with every build-row index matching `key`, in ascending
    /// order.
    #[inline(always)]
    pub fn for_each_match(&self, key: i64, mut f: impl FnMut(u32)) {
        match self {
            FlatJoinMap::Direct { base, heads, next } => {
                let idx = key.wrapping_sub(*base) as u64;
                if (idx as usize) < heads.len() {
                    let mut cur = heads[idx as usize];
                    while cur != CHAIN_END {
                        f(cur);
                        cur = next[cur as usize];
                    }
                }
            }
            FlatJoinMap::Hashed {
                entries,
                heads,
                shift,
            } => {
                let mut cur = heads[Self::bucket(key, *shift)];
                while cur != CHAIN_END {
                    let (k, nx) = entries[cur as usize];
                    if k == key {
                        f(cur);
                    }
                    cur = nx;
                }
            }
        }
    }
}

/// A built hash table for joins: a flat chained index over the build
/// keys (build row indices map to base positions through `build_origin`).
#[derive(Debug)]
pub struct JoinTable {
    /// The flat key index.
    pub map: FlatJoinMap,
    /// Provenance of the build keys.
    pub build_origin: Option<PosMat>,
    /// Build table name (provenance fallback when keys came straight from
    /// a base column).
    pub build_table: &'static str,
}

impl JoinTable {
    /// Number of build rows.
    pub fn n_rows(&self) -> usize {
        self.map.n_rows()
    }
}

/// The value of a completed plan node.
#[derive(Clone, Debug)]
pub enum Mat {
    /// Selection vector.
    Pos(PosMat),
    /// Value vector.
    Val(ValMat),
    /// Join matches.
    Pairs(PairsMat),
    /// Grouped aggregates, sorted by key.
    Groups(Arc<Vec<(i64, f64)>>),
    /// A single scalar.
    Scalar(f64),
    /// A join hash table.
    Hash(Arc<JoinTable>),
}

impl Mat {
    /// Logical row count (1 for scalars; map size for hash/groups).
    pub fn len(&self) -> usize {
        match self {
            Mat::Pos(p) => p.pos.len(),
            Mat::Val(v) => v.data.len(),
            Mat::Pairs(p) => p.probe.pos.len(),
            Mat::Groups(g) => g.len(),
            Mat::Scalar(_) => 1,
            Mat::Hash(h) => h.n_rows(),
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar value (panics if not a scalar — a plan shape bug).
    pub fn as_scalar(&self) -> f64 {
        match self {
            Mat::Scalar(s) => *s,
            other => panic!("expected scalar, got {} rows", other.len()),
        }
    }

    /// The positions (panics if not positions).
    pub fn as_pos(&self) -> &PosMat {
        match self {
            Mat::Pos(p) => p,
            _ => panic!("expected positions"),
        }
    }

    /// The values (panics if not values).
    pub fn as_val(&self) -> &ValMat {
        match self {
            Mat::Val(v) => v,
            _ => panic!("expected values"),
        }
    }

    /// The pairs (panics if not pairs).
    pub fn as_pairs(&self) -> &PairsMat {
        match self {
            Mat::Pairs(p) => p,
            _ => panic!("expected pairs"),
        }
    }

    /// The groups (panics if not groups).
    pub fn as_groups(&self) -> &Arc<Vec<(i64, f64)>> {
        match self {
            Mat::Groups(g) => g,
            _ => panic!("expected groups"),
        }
    }

    /// The hash table (panics if not a hash table).
    pub fn as_hash(&self) -> &Arc<JoinTable> {
        match self {
            Mat::Hash(h) => h,
            _ => panic!("expected hash table"),
        }
    }
}

/// Simulated backing memory of a node: one region per partition task, in
/// row order. Rows map to regions by binary search on start offsets.
#[derive(Clone, Debug, Default)]
pub struct NodeStorage {
    /// `(first_row, region)` per partition, sorted by `first_row`.
    parts: Vec<(usize, Region)>,
    total_rows: usize,
    /// Bytes per row in the backing store.
    row_bytes: u64,
}

impl NodeStorage {
    /// Empty storage for rows of `row_bytes` each.
    pub fn new(row_bytes: u64) -> Self {
        NodeStorage {
            parts: Vec::new(),
            total_rows: 0,
            row_bytes,
        }
    }

    /// Appends a partition's region covering `rows` rows. Partitions must
    /// be pushed in row order (tasks complete out of order, so the engine
    /// buffers and pushes at finalize).
    pub fn push_part(&mut self, rows: usize, region: Region) {
        self.parts.push((self.total_rows, region));
        self.total_rows += rows;
    }

    /// Total rows stored.
    pub fn rows(&self) -> usize {
        self.total_rows
    }

    /// All backing regions (freed when the query retires).
    pub fn regions(&self) -> impl Iterator<Item = &Region> + '_ {
        self.parts.iter().map(|(_, r)| r)
    }

    /// Segments covering the row range `[start, end)` across partitions.
    pub fn segments_for_rows(&self, start: usize, end: usize) -> Vec<SegId> {
        let mut out = Vec::new();
        self.segments_for_rows_into(start, end, &mut out);
        out
    }

    /// [`Self::segments_for_rows`] appending into a caller-provided
    /// buffer (the engine reuses one scratch vector across task
    /// preparations). Deduplication is confined to the appended span, so
    /// the emitted sequence is identical to the owned-vector form.
    pub fn segments_for_rows_into(&self, start: usize, end: usize, out: &mut Vec<SegId>) {
        let from = out.len();
        if start >= end || self.parts.is_empty() {
            return;
        }
        let rows_per_seg = (numa_sim::SEG_BYTES / self.row_bytes.max(1)) as usize;
        let rows_per_seg = rows_per_seg.max(1);
        for (i, &(first, ref region)) in self.parts.iter().enumerate() {
            let part_end = self
                .parts
                .get(i + 1)
                .map_or(self.total_rows, |&(next, _)| next);
            let lo = start.max(first);
            let hi = end.min(part_end);
            if lo >= hi {
                continue;
            }
            let s0 = (lo - first) / rows_per_seg;
            let s1 = (hi - 1 - first) / rows_per_seg;
            for s in s0..=s1 {
                let s = (s as u64).min(region.n_segments().saturating_sub(1));
                out.push(region.segment(s));
            }
        }
        crate::storage::bat::dedup_from(out, from);
    }

    /// Rows per segment at this row width (used by charge loops).
    pub fn rows_per_segment(&self) -> usize {
        ((numa_sim::SEG_BYTES / self.row_bytes.max(1)) as usize).max(1)
    }
}

/// Positions-per-segment helper mirroring [`crate::storage::Bat`] for
/// 4-byte position rows.
pub const POS_BYTES: u64 = 4;

/// Value row width in bytes.
pub const VAL_BYTES: u64 = 8;

/// Rows per segment for 8-byte values (same as base BATs).
pub const VAL_ROWS_PER_SEG: usize = ROWS_PER_SEG as usize;

#[cfg(test)]
mod tests {
    use super::*;
    use numa_sim::{Machine, SEG_BYTES};

    #[test]
    fn mat_len_and_accessors() {
        let pos = PosMat {
            table: "lineitem",
            pos: Arc::new(vec![1, 5, 9]),
        };
        assert_eq!(Mat::Pos(pos.clone()).len(), 3);
        let val = ValMat {
            data: ColData::F64(Arc::new(vec![1.0, 2.0])),
            origin: Some(pos.clone()),
        };
        assert_eq!(Mat::Val(val).len(), 2);
        assert_eq!(Mat::Scalar(4.2).as_scalar(), 4.2);
        assert!(Mat::Groups(Arc::new(vec![])).is_empty());
        let pairs = Mat::Pairs(PairsMat {
            probe: pos.clone(),
            build: pos,
        });
        assert_eq!(pairs.as_pairs().probe.pos.len(), 3);
    }

    #[test]
    #[should_panic(expected = "expected scalar")]
    fn wrong_accessor_panics() {
        Mat::Groups(Arc::new(vec![])).as_scalar();
    }

    #[test]
    fn storage_maps_rows_to_part_segments() {
        let mut m = Machine::opteron_4x4();
        let sp = m.create_space();
        let mut st = NodeStorage::new(8);
        // Two partitions: 8192 rows (1 seg) + 16384 rows (2 segs).
        let r1 = m.alloc(sp, 8192 * 8);
        let r2 = m.alloc(sp, 16384 * 8);
        st.push_part(8192, r1);
        st.push_part(16384, r2);
        assert_eq!(st.rows(), 24576);
        assert_eq!(st.rows_per_segment(), 8192);
        // Rows spanning the partition boundary touch both regions.
        let segs = st.segments_for_rows(8000, 9000);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0], r1.segment(0));
        assert_eq!(segs[1], r2.segment(0));
        // Entire range: 3 segments.
        assert_eq!(st.segments_for_rows(0, 24576).len(), 3);
        // Empty and unbacked cases.
        assert!(st.segments_for_rows(5, 5).is_empty());
        assert!(NodeStorage::new(8).segments_for_rows(0, 10).is_empty());
    }

    #[test]
    fn storage_position_rows_pack_denser() {
        let mut m = Machine::opteron_4x4();
        let sp = m.create_space();
        let mut st = NodeStorage::new(POS_BYTES);
        let rows = (SEG_BYTES / POS_BYTES) as usize; // 16384 positions per seg
        let r = m.alloc(sp, rows as u64 * POS_BYTES);
        st.push_part(rows, r);
        assert_eq!(st.rows_per_segment(), rows);
        assert_eq!(st.segments_for_rows(0, rows).len(), 1);
    }
}
