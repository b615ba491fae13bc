//! Core masks and cgroup-like thread groups.
//!
//! The elastic mechanism's *only* actuator is the cpuset mask of the
//! DBMS's control group (paper §IV: "we use the cgroups ... to isolate
//! the threads of the DBMS ... and limit their available resources").
//! [`CoreMask`] is a 64-bit set of allowed cores; [`Kernel::set_group_mask`](crate::sched::Kernel::set_group_mask)
//! (in `sched`) applies a new mask, migrating displaced threads.

use numa_sim::{CoreId, NodeId, Topology};
use std::fmt;

/// A set of allowed cores (bit `i` = core `i`). Machines up to 64 cores.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreMask(u64);

impl CoreMask {
    /// The empty mask.
    pub const EMPTY: CoreMask = CoreMask(0);

    /// A mask with the first `n` cores set.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= 64, "mask supports up to 64 cores");
        if n == 64 {
            CoreMask(u64::MAX)
        } else {
            CoreMask((1u64 << n) - 1)
        }
    }

    /// All cores of a topology.
    pub fn all(topo: &Topology) -> Self {
        Self::first_n(topo.n_cores())
    }

    /// A mask from an iterator of cores.
    pub fn from_cores<I: IntoIterator<Item = CoreId>>(cores: I) -> Self {
        let mut m = CoreMask(0);
        for c in cores {
            m.insert(c);
        }
        m
    }

    /// A single-core mask.
    pub fn single(core: CoreId) -> Self {
        let mut m = CoreMask(0);
        m.insert(core);
        m
    }

    /// Adds a core.
    pub fn insert(&mut self, core: CoreId) {
        assert!(core.idx() < 64, "core id out of mask range");
        self.0 |= 1 << core.idx();
    }

    /// Removes a core. Returns whether it was present.
    pub fn remove(&mut self, core: CoreId) -> bool {
        let bit = 1u64 << core.idx();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, core: CoreId) -> bool {
        core.idx() < 64 && self.0 & (1 << core.idx()) != 0
    }

    /// Number of allowed cores.
    #[inline]
    pub fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no core is allowed.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates allowed cores in id order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + Clone {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let core = bits.trailing_zeros() as u16;
            bits &= bits - 1;
            Some(CoreId(core))
        })
    }

    /// The `k`-th allowed core in id order (`k < count()`).
    pub fn nth(&self, k: usize) -> Option<CoreId> {
        let mut bits = self.0;
        for _ in 0..k {
            bits &= bits.wrapping_sub(1);
        }
        CoreMask(bits).first()
    }

    /// The lowest allowed core, if any.
    pub fn first(&self) -> Option<CoreId> {
        if self.0 == 0 {
            None
        } else {
            Some(CoreId(self.0.trailing_zeros() as u16))
        }
    }

    /// Set intersection.
    pub fn and(&self, other: CoreMask) -> CoreMask {
        CoreMask(self.0 & other.0)
    }

    /// Set union.
    pub fn or(&self, other: CoreMask) -> CoreMask {
        CoreMask(self.0 | other.0)
    }

    /// Set difference: the cores of `self` not in `other`.
    pub fn minus(&self, other: CoreMask) -> CoreMask {
        CoreMask(self.0 & !other.0)
    }

    /// Allowed cores on a given NUMA node.
    pub fn on_node(&self, topo: &Topology, node: NodeId) -> CoreMask {
        CoreMask::from_cores(topo.cores_of(node).filter(|c| self.contains(*c)))
    }

    /// Number of allowed cores per node.
    pub fn count_per_node(&self, topo: &Topology) -> Vec<usize> {
        topo.all_nodes()
            .map(|n| self.on_node(topo, n).count())
            .collect()
    }

    /// Raw bits (for hashing/serialisation in traces).
    pub fn bits(&self) -> u64 {
        self.0
    }
}

impl fmt::Debug for CoreMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CoreMask{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            write!(f, "{}", c.0)?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for CoreMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// Identifier of a thread group (cgroup analogue).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_n_and_all() {
        let t = Topology::opteron_4x4();
        let m = CoreMask::all(&t);
        assert_eq!(m.count(), 16);
        assert!(m.contains(CoreId(15)));
        assert!(!m.contains(CoreId(16)));
        assert_eq!(CoreMask::first_n(64).count(), 64);
        assert_eq!(CoreMask::first_n(0), CoreMask::EMPTY);
    }

    #[test]
    fn insert_remove_contains() {
        let mut m = CoreMask::EMPTY;
        m.insert(CoreId(3));
        m.insert(CoreId(9));
        assert!(m.contains(CoreId(3)));
        assert_eq!(m.count(), 2);
        assert!(m.remove(CoreId(3)));
        assert!(!m.remove(CoreId(3)));
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn iteration_in_order() {
        let m = CoreMask::from_cores([CoreId(5), CoreId(1), CoreId(12)]);
        let v: Vec<_> = m.iter().collect();
        assert_eq!(v, vec![CoreId(1), CoreId(5), CoreId(12)]);
        assert_eq!(m.first(), Some(CoreId(1)));
        assert_eq!(CoreMask::EMPTY.first(), None);
    }

    #[test]
    fn nth_is_the_kth_core_in_order() {
        let m = CoreMask::from_cores([CoreId(5), CoreId(1), CoreId(12), CoreId(63)]);
        let v: Vec<_> = m.iter().collect();
        for (k, c) in v.iter().enumerate() {
            assert_eq!(m.nth(k), Some(*c));
        }
        assert_eq!(m.nth(4), None);
        assert_eq!(CoreMask::EMPTY.nth(0), None);
    }

    #[test]
    fn node_restriction() {
        let t = Topology::opteron_4x4();
        let m = CoreMask::from_cores([CoreId(0), CoreId(1), CoreId(4), CoreId(9)]);
        assert_eq!(m.on_node(&t, NodeId(0)).count(), 2);
        assert_eq!(m.on_node(&t, NodeId(1)).count(), 1);
        assert_eq!(m.count_per_node(&t), vec![2, 1, 1, 0]);
    }

    #[test]
    fn set_algebra() {
        let a = CoreMask::from_cores([CoreId(0), CoreId(1)]);
        let b = CoreMask::from_cores([CoreId(1), CoreId(2)]);
        assert_eq!(a.and(b), CoreMask::single(CoreId(1)));
        assert_eq!(a.or(b).count(), 3);
    }

    #[test]
    fn debug_format_lists_cores() {
        let m = CoreMask::from_cores([CoreId(2), CoreId(7)]);
        assert_eq!(format!("{m:?}"), "CoreMask{2,7}");
    }
}
