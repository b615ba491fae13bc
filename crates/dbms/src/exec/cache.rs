//! The dataset-level evaluation cache: *whether kernels run*.
//!
//! What a plan node evaluates to is a pure function of its structural
//! fingerprint, its partition count and the base data. A sweep runs many
//! simulated engines over one [`TpchData`](crate::tpch::TpchData), and a
//! churn admits hundreds of tenants on one, so that function is computed
//! once per dataset and kept here, on a handle the dataset owns and
//! [`Engine::load`](super::engine::Engine::load) binds.
//!
//! This is not the per-engine memo. The memo decides *what is charged*
//! (a hit charges an even split of the node's rows); an entry here
//! carries the rows every partition *actually* produced, so a task served
//! from it builds the same charge items and allocates the same simulated
//! output as one that ran the kernels — simulated time cannot tell the
//! two apart, only host time can.
//!
//! An entry also records what each partition *read*: the base-column
//! segments its position gather touched (`Project`, `ProjectSide`,
//! `SelectAnd`, `SelectColCmp` over candidates). Those are a pure
//! function of the node's input positions — the very `Mat`s this cache
//! holds — so every later task of the node, memo- or cache-served, maps
//! the record onto the column instead of scanning the positions again,
//! and emits the same read sequence the scan would.

use crate::exec::mat::{FlatJoinMap, Mat};
use emca_metrics::FxHashMap;
use std::sync::{Arc, Mutex};

/// Retained intermediates may grow to this multiple of the dataset's own
/// base bytes before an epoch flush. All 88 TPC-H specs at 16 partitions
/// retain 3.6× (772 nodes, 665 MB over 184 MB at sf 0.25; intermediates
/// scale with the base tables), so a sweep at one pool width never
/// flushes and a second width still fits.
const BUDGET_X_BASE: u64 = 8;

/// One evaluated plan node.
pub(crate) struct Evaluated {
    /// The node's value.
    pub(crate) mat: Mat,
    /// Output rows each partition produced, in partition order.
    pub(crate) part_rows: Vec<usize>,
    /// Per partition, the indices (relative to the column's region) of
    /// the base-column segments its position gather touched; empty for
    /// an operator that gathers no positions.
    pub(crate) part_reads: Vec<Box<[u32]>>,
}

struct Entries {
    by_node: FxHashMap<(u64, u32), Arc<Evaluated>>,
    bytes: u64,
    budget: u64,
}

impl Entries {
    /// Ends the epoch: drops every entry (engines that pinned one keep
    /// their `Arc`).
    fn flush(&mut self) {
        self.by_node.clear();
        self.bytes = 0;
    }
}

/// Shared handle to one dataset's evaluated nodes, keyed by
/// `(fingerprint, n_parts)`: the partition count fixes the recorded
/// per-partition rows and reads and the order float partials were merged
/// in, so an engine of another width misses instead of reading a wrong
/// row count or a wrong partition's segments.
#[derive(Clone)]
pub(crate) struct EvalCache {
    evaluated: Arc<Mutex<Entries>>,
}

impl EvalCache {
    /// An empty cache for a dataset of `base_bytes`.
    pub(crate) fn new(base_bytes: u64) -> Self {
        EvalCache {
            evaluated: Arc::new(Mutex::new(Entries {
                by_node: FxHashMap::default(),
                bytes: 0,
                budget: base_bytes.saturating_mul(BUDGET_X_BASE),
            })),
        }
    }

    /// The evaluated node, if some engine over this dataset already ran
    /// it at this partition count.
    pub(crate) fn get(&self, fingerprint: u64, n_parts: u32) -> Option<Arc<Evaluated>> {
        let entries = self.evaluated.lock().expect("eval cache poisoned");
        entries.by_node.get(&(fingerprint, n_parts)).cloned()
    }

    /// Records a node whose kernels just ran and returns the shared
    /// entry — the one already there when a concurrent tenant evaluated
    /// the same node first (the two are bit-identical; one copy is kept).
    pub(crate) fn insert(&self, fingerprint: u64, evaluated: Evaluated) -> Arc<Evaluated> {
        let key = (fingerprint, evaluated.part_rows.len() as u32);
        debug_assert!(
            evaluated.part_reads.is_empty()
                || evaluated.part_reads.len() == evaluated.part_rows.len(),
            "reads recorded for some partitions only"
        );
        let mut entries = self.evaluated.lock().expect("eval cache poisoned");
        if let Some(existing) = entries.by_node.get(&key) {
            return Arc::clone(existing);
        }
        let bytes = retained_bytes(&evaluated);
        if entries.bytes + bytes > entries.budget {
            entries.flush();
        }
        entries.bytes += bytes;
        let entry = Arc::new(evaluated);
        entries.by_node.insert(key, Arc::clone(&entry));
        entry
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        let entries = self.evaluated.lock().expect("eval cache poisoned");
        entries.by_node.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn clear(&self) {
        let mut entries = self.evaluated.lock().expect("eval cache poisoned");
        entries.flush();
    }
}

/// Heap bytes an entry keeps alive. A value vector's `origin` is the
/// position vector of the node it was projected through, which has an
/// entry of its own, so it is not counted twice.
fn retained_bytes(evaluated: &Evaluated) -> u64 {
    let reads: usize = evaluated.part_reads.iter().map(|r| 4 * r.len()).sum();
    let bytes = match &evaluated.mat {
        Mat::Pos(p) => 4 * p.pos.len(),
        Mat::Val(v) => 8 * v.data.len(),
        Mat::Pairs(p) => 4 * (p.probe.pos.len() + p.build.pos.len()),
        Mat::Groups(g) => 16 * g.len(),
        Mat::Scalar(_) => 0,
        Mat::Hash(h) => match &h.map {
            FlatJoinMap::Direct { heads, next, .. } => 4 * (heads.len() + next.len()),
            FlatJoinMap::Hashed { entries, heads, .. } => 16 * entries.len() + 4 * heads.len(),
        },
    };
    (bytes + reads) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::mat::PosMat;

    /// A position list of `rows` that read nothing, split as `part_rows`.
    fn pos(rows: usize, part_rows: &[usize]) -> Evaluated {
        Evaluated {
            mat: Mat::Pos(PosMat {
                table: "lineitem",
                pos: Arc::new(vec![0; rows]),
            }),
            part_rows: part_rows.to_vec(),
            part_reads: Vec::new(),
        }
    }

    #[test]
    fn partition_count_is_part_of_the_key() {
        let cache = EvalCache::new(1 << 20);
        cache.insert(7, pos(8, &[3, 5]));
        assert_eq!(cache.get(7, 2).expect("filled").part_rows, [3, 5]);
        assert!(cache.get(7, 4).is_none(), "another width must miss");
        assert!(cache.get(8, 2).is_none());
    }

    #[test]
    fn first_fill_wins() {
        let cache = EvalCache::new(1 << 20);
        let a = cache.insert(7, pos(8, &[8]));
        let b = cache.insert(7, pos(8, &[8]));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn over_budget_flushes_the_epoch() {
        // Budget: 8 × 150 = 1200 bytes; each entry retains 400.
        let cache = EvalCache::new(150);
        for fp in 0..3 {
            cache.insert(fp, pos(100, &[100]));
        }
        assert!(cache.get(0, 1).is_some());
        cache.insert(3, pos(100, &[100]));
        assert!(cache.get(0, 1).is_none(), "the full epoch is dropped");
        assert!(cache.get(3, 1).is_some());
    }

    #[test]
    fn recorded_reads_count_against_the_budget() {
        // Budget: 8 × 100 = 800 bytes. 400 of positions plus 2 × 50
        // recorded segment indices retain 800: the next entry flushes.
        let cache = EvalCache::new(100);
        let mut read = pos(100, &[60, 40]);
        read.part_reads = vec![vec![0; 50].into(), vec![1; 50].into()];
        cache.insert(0, read);
        assert_eq!(cache.get(0, 2).expect("filled").part_reads[1][0], 1);
        cache.insert(1, pos(1, &[1]));
        assert!(cache.get(0, 2).is_none(), "the reads were counted");
    }
}
