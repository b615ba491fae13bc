//! Sampled time series.
//!
//! The timeline figures of the paper (Fig. 7 state transitions, Fig. 18
//! per-socket memory throughput) are rendered from `(SimTime, f64)` samples
//! collected at the monitor interval.

use crate::time::SimTime;

/// An append-only series of `(time, value)` samples, in nondecreasing time
/// order.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty, named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// The series name (used as a CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Samples must be pushed in nondecreasing time
    /// order; out-of-order pushes are clamped to the last time so the
    /// series stays sorted (and therefore binary-searchable).
    pub fn push(&mut self, t: SimTime, value: f64) {
        let t = match self.samples.last() {
            Some(&(last, _)) if t < last => last,
            _ => t,
        };
        self.samples.push((t, value));
    }

    /// All samples.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.samples.last().copied()
    }

    /// Maximum value over the whole series (NaN-free input assumed).
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Arithmetic mean of the sample values.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn push_keeps_sorted() {
        let mut s = TimeSeries::new("x");
        s.push(t(10), 1.0);
        s.push(t(5), 2.0); // out of order: clamped to t=10
        assert_eq!(s.samples()[1].0, t(10));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn aggregates() {
        let mut s = TimeSeries::new("x");
        for (ms, v) in [(0, 2.0), (10, 4.0), (20, 6.0)] {
            s.push(t(ms), v);
        }
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.max(), Some(6.0));
        assert_eq!(s.last(), Some((t(20), 6.0)));
    }

    #[test]
    fn empty_aggregates_are_none() {
        let s = TimeSeries::new("x");
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
        assert!(s.is_empty());
    }
}
