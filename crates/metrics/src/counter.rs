//! Monotonic counters.
//!
//! Hardware performance counters (L3 misses, HT bytes, IMC bytes, faults)
//! and OS accounting (busy time, migrations, steals) are all modelled as
//! monotonically increasing `u64` counters. Monitors read them by taking
//! *window deltas*: `snapshot()` now, subtract the snapshot taken at the
//! previous control interval.

use std::fmt;

/// A single monotonically increasing counter.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` events to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds a single event.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current cumulative value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A fixed-size family of counters indexed by a dense id (core id, node id,
/// link id...). Snapshots are plain `Vec<u64>` so they can be stored cheaply
/// by monitors.
#[derive(Clone, Debug, Default)]
pub struct CounterVec {
    counters: Vec<Counter>,
}

impl CounterVec {
    /// Creates `n` zeroed counters.
    pub fn new(n: usize) -> Self {
        CounterVec {
            counters: vec![Counter::new(); n],
        }
    }

    /// Number of counters in the family.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when the family is empty.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Adds `n` to counter `idx`.
    #[inline]
    pub fn add(&mut self, idx: usize, n: u64) {
        self.counters[idx].add(n);
    }

    /// Increments counter `idx`.
    #[inline]
    pub fn inc(&mut self, idx: usize) {
        self.counters[idx].inc();
    }

    /// Cumulative value of counter `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        self.counters[idx].get()
    }

    /// Sum over the whole family.
    pub fn total(&self) -> u64 {
        self.counters.iter().map(|c| c.get()).sum()
    }

    /// Copies out all cumulative values.
    pub fn snapshot(&self) -> Vec<u64> {
        self.counters.iter().map(|c| c.get()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn countervec_snapshot_delta() {
        let mut v = CounterVec::new(3);
        v.add(0, 7);
        v.inc(2);
        let snap = v.snapshot();
        assert_eq!(snap, vec![7, 0, 1]);
        v.add(0, 3);
        v.add(1, 2);
        assert_eq!(v.snapshot(), vec![10, 2, 1]);
        assert_eq!(v.total(), 13);
    }
}
