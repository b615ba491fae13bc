//! Per-core runqueues ordered by virtual runtime.

use crate::thread::Tid;
use std::collections::BTreeSet;

/// A CFS-like runqueue: an ordered set keyed by `(vruntime, tid)`.
/// The head is the next thread to run.
#[derive(Clone, Debug, Default)]
pub struct RunQueue {
    queue: BTreeSet<(u64, Tid)>,
}

impl RunQueue {
    /// An empty queue.
    pub fn new() -> Self {
        RunQueue {
            queue: BTreeSet::new(),
        }
    }

    /// Number of queued (runnable, not running) threads.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a thread at its virtual runtime.
    pub fn push(&mut self, vruntime: u64, tid: Tid) {
        let inserted = self.queue.insert((vruntime, tid));
        debug_assert!(inserted, "thread {tid:?} double-enqueued");
    }

    /// Pops the minimum-vruntime thread.
    pub fn pop_min(&mut self) -> Option<(u64, Tid)> {
        let first = *self.queue.iter().next()?;
        self.queue.remove(&first);
        Some(first)
    }

    /// Peeks the minimum vruntime without removing.
    pub fn min_vruntime(&self) -> Option<u64> {
        self.queue.iter().next().map(|&(v, _)| v)
    }

    /// Removes a specific thread (used by migration). Returns its
    /// vruntime if it was queued.
    pub fn remove(&mut self, vruntime: u64, tid: Tid) -> bool {
        self.queue.remove(&(vruntime, tid))
    }

    /// Iterates queued threads in vruntime order (reversible: balancing
    /// scans from the tail).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, Tid)> + '_ {
        self.queue.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_vruntime_order() {
        let mut q = RunQueue::new();
        q.push(30, Tid(3));
        q.push(10, Tid(1));
        q.push(20, Tid(2));
        assert_eq!(q.pop_min(), Some((10, Tid(1))));
        assert_eq!(q.pop_min(), Some((20, Tid(2))));
        assert_eq!(q.pop_min(), Some((30, Tid(3))));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn ties_broken_by_tid() {
        let mut q = RunQueue::new();
        q.push(10, Tid(9));
        q.push(10, Tid(2));
        assert_eq!(q.pop_min(), Some((10, Tid(2))));
    }

    #[test]
    fn remove_specific() {
        let mut q = RunQueue::new();
        q.push(10, Tid(1));
        q.push(20, Tid(2));
        assert!(q.remove(20, Tid(2)));
        assert!(!q.remove(20, Tid(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn min_vruntime_peek() {
        let mut q = RunQueue::new();
        assert_eq!(q.min_vruntime(), None);
        q.push(42, Tid(1));
        assert_eq!(q.min_vruntime(), Some(42));
        assert_eq!(q.len(), 1);
    }
}
