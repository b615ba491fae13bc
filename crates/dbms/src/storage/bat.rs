//! BATs — the MonetDB-style column vectors.
//!
//! A [`Bat`] couples real in-memory data (used for genuine operator
//! evaluation, so selectivities and join cardinalities are authentic)
//! with a simulated memory [`Region`] (used to charge NUMA traffic for
//! every access). All values are 8 bytes wide (`i64` or `f64`); strings
//! are dictionary-encoded to `i64` at generation time, exactly as a
//! column store would.

use numa_sim::{Machine, Region, SegId, SpaceId, SEG_BYTES};
use std::sync::Arc;

/// Width of every column value, in bytes.
pub const VALUE_BYTES: u64 = 8;

/// Rows per 64 KiB segment.
pub const ROWS_PER_SEG: u64 = SEG_BYTES / VALUE_BYTES;

/// Column data type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integers (keys, dates-as-days, dictionary codes).
    I64,
    /// 64-bit floats (prices, discounts, quantities).
    F64,
}

/// The actual values of a column. `Arc` so intermediates and memo-cached
/// results share storage without copies.
#[derive(Clone, Debug)]
pub enum ColData {
    /// Integer payload.
    I64(Arc<Vec<i64>>),
    /// Float payload.
    F64(Arc<Vec<f64>>),
}

impl ColData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColData::I64(v) => v.len(),
            ColData::F64(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The type tag.
    pub fn col_type(&self) -> ColType {
        match self {
            ColData::I64(_) => ColType::I64,
            ColData::F64(_) => ColType::F64,
        }
    }

    /// Integer view (panics on type mismatch — a plan construction bug).
    pub fn as_i64(&self) -> &[i64] {
        match self {
            ColData::I64(v) => v,
            ColData::F64(_) => panic!("expected i64 column"),
        }
    }

    /// Float view (panics on type mismatch).
    pub fn as_f64(&self) -> &[f64] {
        match self {
            ColData::F64(v) => v,
            ColData::I64(_) => panic!("expected f64 column"),
        }
    }

    /// Row value as f64 regardless of storage type (for arithmetic ops).
    #[inline]
    pub fn value_f64(&self, row: usize) -> f64 {
        match self {
            ColData::I64(v) => v[row] as f64,
            ColData::F64(v) => v[row],
        }
    }

    /// Row value as i64 regardless of storage type (for key ops).
    #[inline]
    pub fn value_i64(&self, row: usize) -> i64 {
        match self {
            ColData::I64(v) => v[row],
            ColData::F64(v) => v[row] as i64,
        }
    }
}

/// A column vector bound to simulated memory.
#[derive(Clone, Debug)]
pub struct Bat {
    /// Column name (diagnostics / Tomograph).
    pub name: String,
    /// The values.
    pub data: ColData,
    /// Simulated backing region.
    pub region: Region,
}

impl Bat {
    /// Allocates the simulated region for `data` in `space` and wraps it.
    /// The region is *not* touched: pages are homed when first accessed,
    /// like mmap'd BAT files in MonetDB.
    pub fn new(
        machine: &mut Machine,
        space: SpaceId,
        name: impl Into<String>,
        data: ColData,
    ) -> Self {
        let bytes = (data.len() as u64 * VALUE_BYTES).max(1);
        let region = machine.alloc(space, bytes);
        Bat {
            name: name.into(),
            data,
            region,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The segment holding `row`.
    pub fn segment_of_row(&self, row: usize) -> SegId {
        let seg_idx = row as u64 / ROWS_PER_SEG;
        debug_assert!(seg_idx < self.region.n_segments());
        self.region.segment(seg_idx)
    }

    /// Segments covering the row range `[start, end)`, in order.
    pub fn segments_for_rows(&self, start: usize, end: usize) -> Vec<SegId> {
        let mut segs = Vec::new();
        self.segments_for_rows_into(start, end, &mut segs);
        segs
    }

    /// [`Self::segments_for_rows`] appending into a caller-provided
    /// buffer (the engine's task preparation reuses one scratch vector
    /// instead of allocating per input).
    pub fn segments_for_rows_into(&self, start: usize, end: usize, out: &mut Vec<SegId>) {
        if start >= end {
            return;
        }
        let first = start as u64 / ROWS_PER_SEG;
        let last = (end as u64 - 1) / ROWS_PER_SEG;
        out.reserve((last - first + 1) as usize);
        out.extend((first..=last).map(|i| self.region.segment(i)));
    }

    /// Appends the segments at `indices` (relative to this column's
    /// region, as the `segment_indices_*` gatherers produce them). All
    /// columns of a table share one row-to-segment layout, so one index
    /// list serves every column a position list is gathered from.
    pub fn segments_at_into(&self, indices: &[u32], out: &mut Vec<SegId>) {
        out.extend(indices.iter().map(|&i| self.region.segment(u64::from(i))));
    }
}

/// Appends the indices of the distinct segments a **sorted** position
/// list touches, in order (all selection-vector producers emit ascending
/// positions; join-pair consumers use [`segment_indices_unsorted_into`]).
/// The walk gallops from one segment boundary to the next instead of
/// testing every position, so cost scales with segments touched, not
/// list length.
pub fn segment_indices_sorted_into(positions: &[u32], out: &mut Vec<u32>) {
    debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]));
    let seg_of = |p: u32| (u64::from(p) / ROWS_PER_SEG) as u32;
    let mut last: Option<u32> = None;
    let mut i = 0usize;
    while i < positions.len() {
        let s = seg_of(positions[i]);
        if last != Some(s) {
            out.push(s);
            last = Some(s);
        }
        // Gallop past the run of positions in segment `s`.
        let in_seg = |p: u32| seg_of(p) == s;
        let mut step = 1usize;
        while i + step < positions.len() && in_seg(positions[i + step]) {
            i += step;
            step *= 2;
        }
        while step > 0 {
            if i + step < positions.len() && in_seg(positions[i + step]) {
                i += step;
            }
            step /= 2;
        }
        i += 1;
    }
}

/// Appends the indices of the distinct segments an *unsorted* position
/// list touches, ascending. Uses a per-segment bitmap instead of sorting
/// the positions — the sort dominated task preparation for join
/// projections. `bits` is the caller's reusable bitmap: it grows to the
/// highest segment seen and is handed back all zero.
pub fn segment_indices_unsorted_into(positions: &[u32], bits: &mut Vec<u64>, out: &mut Vec<u32>) {
    debug_assert!(bits.iter().all(|&w| w == 0), "bitmap scratch not cleared");
    for &p in positions {
        let s = (u64::from(p) / ROWS_PER_SEG) as usize;
        if s / 64 >= bits.len() {
            bits.resize(s / 64 + 1, 0);
        }
        bits[s / 64] |= 1u64 << (s % 64);
    }
    for (w, word) in bits.iter_mut().enumerate() {
        let mut word = std::mem::take(word);
        while word != 0 {
            let b = word.trailing_zeros() as usize;
            out.push((w * 64 + b) as u32);
            word &= word - 1;
        }
    }
}

/// Removes *consecutive* duplicates from `v[from..]`, leaving `v[..from]`
/// untouched — `Vec::dedup` confined to an appended span, used by the
/// `*_into` segment gatherers so a shared scratch buffer produces exactly
/// the sequence the owned-vector forms did.
pub fn dedup_from<T: PartialEq>(v: &mut Vec<T>, from: usize) {
    if v.len() - from < 2 {
        return;
    }
    let mut write = from + 1;
    for read in (from + 1)..v.len() {
        if v[read] != v[write - 1] {
            v.swap(write, read);
            write += 1;
        }
    }
    v.truncate(write);
}

/// Identifier of a BAT inside a [`BatStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BatId(pub u32);

/// The engine's BAT registry (base columns plus live intermediates).
#[derive(Default)]
pub struct BatStore {
    bats: Vec<Option<Bat>>,
}

impl BatStore {
    /// An empty store.
    pub fn new() -> Self {
        BatStore::default()
    }

    /// Registers a BAT.
    pub fn insert(&mut self, bat: Bat) -> BatId {
        self.bats.push(Some(bat));
        BatId(self.bats.len() as u32 - 1)
    }

    /// Fetches a BAT (panics on dangling id — a plan lifetime bug).
    pub fn get(&self, id: BatId) -> &Bat {
        self.bats[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("BAT {id:?} already dropped"))
    }

    /// Whether the id is still live.
    pub fn contains(&self, id: BatId) -> bool {
        self.bats
            .get(id.0 as usize)
            .is_some_and(|slot| slot.is_some())
    }

    /// Drops a BAT, returning its region for the caller to free on the
    /// machine.
    pub fn remove(&mut self, id: BatId) -> Option<Region> {
        self.bats
            .get_mut(id.0 as usize)
            .and_then(|slot| slot.take())
            .map(|bat| bat.region)
    }

    /// Iterates over live BATs.
    pub fn iter(&self) -> impl Iterator<Item = &Bat> {
        self.bats.iter().filter_map(|b| b.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_sim::PAGES_PER_SEG;

    fn machine() -> Machine {
        Machine::opteron_4x4()
    }

    fn i64s(n: usize) -> ColData {
        ColData::I64(Arc::new((0..n as i64).collect()))
    }

    #[test]
    fn bat_region_sized_to_rows() {
        let mut m = machine();
        let sp = m.create_space();
        // 8192 rows of 8 bytes = exactly one segment.
        let b = Bat::new(&mut m, sp, "x", i64s(8192));
        assert_eq!(b.region.n_segments(), 1);
        let b2 = Bat::new(&mut m, sp, "y", i64s(8193));
        assert_eq!(b2.region.n_segments(), 2);
        assert_eq!(b2.region.n_pages, 2 * PAGES_PER_SEG);
    }

    #[test]
    fn segment_row_mapping() {
        let mut m = machine();
        let sp = m.create_space();
        let b = Bat::new(&mut m, sp, "x", i64s(20_000));
        assert_eq!(b.segment_of_row(0), b.region.segment(0));
        assert_eq!(b.segment_of_row(8191), b.region.segment(0));
        assert_eq!(b.segment_of_row(8192), b.region.segment(1));
        let segs = b.segments_for_rows(8000, 9000);
        assert_eq!(segs.len(), 2);
        assert!(b.segments_for_rows(5, 5).is_empty());
    }

    #[test]
    fn unsorted_gather_matches_the_sorted_one() {
        let mut m = machine();
        let sp = m.create_space();
        let b = Bat::new(&mut m, sp, "x", i64s(600_000));
        let shuffled: Vec<u32> = vec![599_999, 3, 8192, 520_000, 1, 8193, 3];
        let mut sorted = shuffled.clone();
        sorted.sort_unstable();
        let (mut want, mut got, mut bits) = (Vec::new(), Vec::new(), Vec::new());
        segment_indices_sorted_into(&sorted, &mut want);
        segment_indices_unsorted_into(&shuffled, &mut bits, &mut got);
        assert_eq!(got, want);
        assert_eq!(got, [0, 1, 63, 73]);
        assert!(bits.iter().all(|&w| w == 0), "scratch handed back clear");
        // A second list through the same scratch sees none of the first.
        got.clear();
        segment_indices_unsorted_into(&[8192], &mut bits, &mut got);
        assert_eq!(got, [1]);
        let mut segs = Vec::new();
        b.segments_at_into(&want, &mut segs);
        assert_eq!(segs[2], b.segment_of_row(520_000));
    }

    #[test]
    fn coldata_accessors() {
        let c = ColData::F64(Arc::new(vec![1.5, 2.5]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.col_type(), ColType::F64);
        assert_eq!(c.value_f64(1), 2.5);
        assert_eq!(c.value_i64(1), 2);
        let k = ColData::I64(Arc::new(vec![7]));
        assert_eq!(k.value_f64(0), 7.0);
        assert_eq!(k.as_i64(), &[7]);
    }

    #[test]
    #[should_panic(expected = "expected i64")]
    fn type_mismatch_panics() {
        let c = ColData::F64(Arc::new(vec![1.0]));
        let _ = c.as_i64();
    }

    #[test]
    fn store_lifecycle() {
        let mut m = machine();
        let sp = m.create_space();
        let mut store = BatStore::new();
        let id = store.insert(Bat::new(&mut m, sp, "x", i64s(10)));
        assert!(store.contains(id));
        assert_eq!(store.get(id).name, "x");
        let region = store.remove(id).expect("live bat");
        m.free(&region);
        assert!(!store.contains(id));
        assert_eq!(store.remove(id), None);
    }
}
