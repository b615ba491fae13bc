//! The multi-core allocation modes (§IV-B).
//!
//! All three modes answer the same two questions: *which core do we hand
//! to the OS next* when the PetriNet decides to allocate, and *which do
//! we take back* when it decides to release.
//!
//! - [`DenseMode`]: `core(i, j) = d·i + j` iterating `j` innermost — fill
//!   a node before moving to the next (Fig. 12b);
//! - [`SparseMode`]: iterate `i` innermost — one core per node round-robin
//!   (Fig. 12a);
//! - [`AdaptiveMode`]: consult the page-count priority queue — allocate
//!   on the node with the most resident DBMS pages, release on the node
//!   with the fewest (§IV-B2).

use crate::policy::Policy;
use crate::priority_queue::NodePriorityQueue;
use numa_sim::{CoreId, Topology};
use os_sim::CoreMask;

/// Context handed to a mode when it must pick a core.
#[derive(Clone, Copy)]
pub struct ModeCtx<'a> {
    /// Machine shape.
    pub topology: &'a Topology,
    /// Cores currently handed to the OS.
    pub current: CoreMask,
    /// Cores this group may not allocate — owned by other tenants under
    /// a [`TenantArbiter`](crate::tenant::TenantArbiter). Empty in
    /// single-tenant runs. Placement must skip them; release ignores
    /// them (a group only ever releases its own cores).
    pub barred: CoreMask,
    /// Fresh pages-per-node statistics of the DBMS address space.
    pub pages_per_node: &'a [u64],
    /// Smoothed memory-controller utilisation per node (0 = idle,
    /// ≥ 1 = saturated). Empty when the caller has no monitor (tests,
    /// static installs); modes must treat missing data as "no pressure".
    pub mc_util_per_node: &'a [f64],
}

impl ModeCtx<'_> {
    /// Whether `core` is available for allocation: neither already in
    /// the group's mask nor barred by another tenant.
    pub fn is_free(&self, core: CoreId) -> bool {
        !self.current.contains(core) && !self.barred.contains(core)
    }
}

/// Fill each node before moving on: allocation order 0,1,2,3, 4,5,...
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseMode;

impl Policy for DenseMode {
    fn name(&self) -> &str {
        "dense"
    }

    fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        let d = ctx.topology.cores_per_node();
        (0..ctx.topology.n_nodes())
            .flat_map(|i| (0..d).map(move |j| (i, j)))
            .map(|(i, j)| CoreId((i * d + j) as u16))
            .find(|&c| ctx.is_free(c))
    }

    fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        if ctx.current.count() <= 1 {
            return None;
        }
        // Reverse allocation order: the most recently addable core goes
        // first.
        ctx.current.iter().max_by_key(|c| c.idx())
    }
}

/// One core per node round-robin: allocation order 0,4,8,12, 1,5,...
#[derive(Clone, Copy, Debug, Default)]
pub struct SparseMode;

impl Policy for SparseMode {
    fn name(&self) -> &str {
        "sparse"
    }

    fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        let d = ctx.topology.cores_per_node();
        let n = ctx.topology.n_nodes();
        (0..d)
            .flat_map(|j| (0..n).map(move |i| (i, j)))
            .map(|(i, j)| CoreId((i * d + j) as u16))
            .find(|&c| ctx.is_free(c))
    }

    fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        if ctx.current.count() <= 1 {
            return None;
        }
        // Reverse of the sparse order: highest (j, i) pair allocated.
        let d = ctx.topology.cores_per_node();
        ctx.current
            .iter()
            .max_by_key(|c| (c.idx() % d, c.idx() / d))
    }
}

/// Page-priority-driven allocation (the paper's contribution), extended
/// with memory-controller headroom: pages say *where the data lives*,
/// the per-node MC utilisation says *whether another core there can
/// still reach it*. The queue ranks nodes by page count, but a node
/// whose controller is saturated is deprioritised — an extra core on a
/// bandwidth-starved node adds no throughput (Eq. 1 applied per node),
/// while a core on the next-hottest node with headroom does.
#[derive(Clone, Debug, Default)]
pub struct AdaptiveMode {
    queue: NodePriorityQueue,
}

impl AdaptiveMode {
    /// Page-share × headroom score used to pick the allocation target.
    fn score(ctx: &ModeCtx<'_>, node: numa_sim::NodeId) -> f64 {
        let total: u64 = ctx.pages_per_node.iter().sum();
        let pages = *ctx.pages_per_node.get(node.idx()).unwrap_or(&0);
        // With no pages anywhere, fall back to uniform page shares so the
        // headroom term alone decides.
        let share = if total == 0 {
            1.0
        } else {
            pages as f64 / total as f64
        };
        let util = ctx.mc_util_per_node.get(node.idx()).copied().unwrap_or(0.0);
        let headroom = (1.0 - util).max(0.0);
        // The epsilon keeps data-holding nodes preferred among equally
        // saturated candidates instead of degenerating to node order.
        share * (headroom + 0.05)
    }
}

impl Policy for AdaptiveMode {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn next_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        // Rank candidate nodes (those with a free core) by score; fall
        // back to the raw page ranking when scores tie at zero.
        let best = ctx
            .topology
            .all_nodes()
            .filter(|&n| ctx.topology.cores_of(n).any(|c| ctx.is_free(c)))
            .max_by(|&a, &b| {
                Self::score(ctx, a)
                    .total_cmp(&Self::score(ctx, b))
                    .then_with(|| {
                        ctx.pages_per_node
                            .get(a.idx())
                            .cmp(&ctx.pages_per_node.get(b.idx()))
                    })
                    // Stable preference for lower node ids on full ties.
                    .then_with(|| b.idx().cmp(&a.idx()))
            });
        let node = best?;
        ctx.topology.cores_of(node).find(|&c| ctx.is_free(c))
    }

    fn release_core(&mut self, ctx: &ModeCtx<'_>) -> Option<CoreId> {
        if ctx.current.count() <= 1 {
            return None;
        }
        self.queue.refresh(ctx.pages_per_node);
        // Lowest-priority node that still holds an allocated core.
        for node in self.queue.ascending() {
            let on_node = ctx.current.on_node(ctx.topology, node);
            if let Some(core) = on_node.iter().max_by_key(|c| c.idx()) {
                return Some(core);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(topo: &'a Topology, current: CoreMask, pages: &'a [u64]) -> ModeCtx<'a> {
        ModeCtx {
            topology: topo,
            current,
            barred: CoreMask::EMPTY,
            pages_per_node: pages,
            mc_util_per_node: &[],
        }
    }

    fn alloc_sequence(mode: &mut dyn Policy, topo: &Topology, pages: &[u64]) -> Vec<u16> {
        let mut mask = CoreMask::EMPTY;
        let mut seq = Vec::new();
        while let Some(c) = mode.next_core(&ctx(topo, mask, pages)) {
            seq.push(c.0);
            mask.insert(c);
        }
        seq
    }

    #[test]
    fn dense_order_matches_fig12b() {
        let topo = Topology::opteron_4x4();
        let seq = alloc_sequence(&mut DenseMode, &topo, &[0; 4]);
        assert_eq!(seq, (0..16).collect::<Vec<u16>>());
    }

    #[test]
    fn sparse_order_matches_fig12a() {
        let topo = Topology::opteron_4x4();
        let seq = alloc_sequence(&mut SparseMode, &topo, &[0; 4]);
        assert_eq!(
            seq,
            vec![0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15]
        );
    }

    #[test]
    fn dense_release_reverses() {
        let topo = Topology::opteron_4x4();
        let mask = CoreMask::from_cores([CoreId(0), CoreId(1), CoreId(2)]);
        let mut m = DenseMode;
        assert_eq!(m.release_core(&ctx(&topo, mask, &[0; 4])), Some(CoreId(2)));
    }

    #[test]
    fn sparse_release_reverses() {
        let topo = Topology::opteron_4x4();
        // Sparse allocated 0, 4, 8: releasing should drop 8 (latest in
        // sparse order).
        let mask = CoreMask::from_cores([CoreId(0), CoreId(4), CoreId(8)]);
        let mut m = SparseMode;
        assert_eq!(m.release_core(&ctx(&topo, mask, &[0; 4])), Some(CoreId(8)));
    }

    #[test]
    fn adaptive_allocates_on_hottest_node() {
        let topo = Topology::opteron_4x4();
        let mut m = AdaptiveMode::default();
        // Node 2 has the most pages: first allocation goes there.
        let pages = [10, 5, 100, 0];
        let c = m.next_core(&ctx(&topo, CoreMask::EMPTY, &pages)).unwrap();
        assert_eq!(topo.node_of(c), numa_sim::NodeId(2));
        // Node 2 full -> falls back to node 0 (next priority).
        let full2 = CoreMask::from_cores(topo.cores_of(numa_sim::NodeId(2)));
        let c = m.next_core(&ctx(&topo, full2, &pages)).unwrap();
        assert_eq!(topo.node_of(c), numa_sim::NodeId(0));
    }

    #[test]
    fn adaptive_releases_on_coldest_node() {
        let topo = Topology::opteron_4x4();
        let mut m = AdaptiveMode::default();
        let mask = CoreMask::from_cores([CoreId(0), CoreId(4), CoreId(8)]);
        // Node 1 (core 4) has the fewest pages among allocated nodes.
        let pages = [100, 1, 50, 999];
        assert_eq!(m.release_core(&ctx(&topo, mask, &pages)), Some(CoreId(4)));
    }

    #[test]
    fn release_never_drops_last_core() {
        let topo = Topology::opteron_4x4();
        let mask = CoreMask::single(CoreId(3));
        let pages = [0; 4];
        assert_eq!(DenseMode.release_core(&ctx(&topo, mask, &pages)), None);
        assert_eq!(SparseMode.release_core(&ctx(&topo, mask, &pages)), None);
        assert_eq!(
            AdaptiveMode::default().release_core(&ctx(&topo, mask, &pages)),
            None
        );
    }

    #[test]
    fn barred_cores_are_skipped_by_every_mode() {
        let topo = Topology::opteron_4x4();
        // Node 0 entirely barred (another tenant owns it), plus core 4.
        let mut barred = CoreMask::from_cores(topo.cores_of(numa_sim::NodeId(0)));
        barred.insert(CoreId(4));
        let pages = [100u64, 0, 0, 0]; // hottest node is fully barred
        let mk = |current| ModeCtx {
            topology: &topo,
            current,
            barred,
            pages_per_node: &pages,
            mc_util_per_node: &[],
        };
        let c = DenseMode.next_core(&mk(CoreMask::EMPTY)).unwrap();
        assert_eq!(c, CoreId(5), "dense skips node 0 and core 4");
        let c = SparseMode.next_core(&mk(CoreMask::EMPTY)).unwrap();
        assert_eq!(c, CoreId(8), "sparse skips barred 0 and 4");
        let c = AdaptiveMode::default()
            .next_core(&mk(CoreMask::EMPTY))
            .unwrap();
        assert_ne!(
            topo.node_of(c),
            numa_sim::NodeId(0),
            "adaptive cannot allocate on a fully barred node"
        );
        // A fully barred machine has no next core.
        let all_barred = ModeCtx {
            topology: &topo,
            current: CoreMask::EMPTY,
            barred: CoreMask::all(&topo),
            pages_per_node: &pages,
            mc_util_per_node: &[],
        };
        assert_eq!(DenseMode.next_core(&all_barred), None);
    }

    #[test]
    fn full_machine_has_no_next() {
        let topo = Topology::opteron_4x4();
        let all = CoreMask::all(&topo);
        let pages = [1; 4];
        assert_eq!(DenseMode.next_core(&ctx(&topo, all, &pages)), None);
        assert_eq!(SparseMode.next_core(&ctx(&topo, all, &pages)), None);
        assert_eq!(
            AdaptiveMode::default().next_core(&ctx(&topo, all, &pages)),
            None
        );
    }
}
