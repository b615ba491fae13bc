//! Hardware performance counters (the likwid analogue).
//!
//! Everything the paper measures with likwid/mpstat flows through this
//! registry: per-socket L3 hits/misses and IMC bytes, per-link-direction
//! HyperTransport bytes, per-node minor page faults, and per-core busy
//! time. Counters are monotonic; monitors consume window deltas via
//! [`HwSnapshot`].
//!
//! Traffic can additionally be *attributed* to a caller-chosen stream id
//! (the DBMS tags each query execution), which yields the per-query
//! HT/IMC ratios of Fig. 19 without any global/after-the-fact averaging.

use emca_metrics::{CounterVec, FxHashMap};

/// Attribution tag for traffic (e.g. one per query execution). Stream 0 is
/// conventionally "untagged".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct StreamId(pub u64);

/// Per-stream traffic tallies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamTraffic {
    /// Bytes that crossed at least one HT link (counted once per access,
    /// not per hop, matching how a per-PID likwid HT group attributes).
    pub ht_bytes: u64,
    /// Bytes through any integrated memory controller.
    pub imc_bytes: u64,
    /// L3 load misses attributed to the stream.
    pub l3_misses: u64,
}

impl StreamTraffic {
    /// The HT/IMC ratio (paper §V-B): how NUMA-friendly the stream is —
    /// the smaller, the better. `None` when no memory traffic occurred.
    pub fn ht_imc_ratio(&self) -> Option<f64> {
        if self.imc_bytes == 0 {
            None
        } else {
            Some(self.ht_bytes as f64 / self.imc_bytes as f64)
        }
    }
}

/// Noise floor for HT/IMC ratios: a ratio below this is indistinguishable
/// from residual coherence chatter, so reductions against it are reported
/// as [`HtImcReduction::BelowNoise`] instead of a meaningless huge
/// quotient (the repo previously clamped these to a magic `999.0`).
pub const HT_IMC_NOISE_FLOOR: f64 = 1e-3;

/// A baseline-vs-improved HT/IMC ratio comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HtImcReduction {
    /// Both ratios above the noise floor: an honest quotient.
    Finite(f64),
    /// The improved flavor's remote traffic is below the noise floor —
    /// the reduction is unbounded ("∞") and rendered as `inf`.
    BelowNoise,
}

impl HtImcReduction {
    /// Compares two mean HT/IMC ratios. `None` when the baseline itself
    /// is below noise (no reduction to speak of).
    pub fn compare(baseline: f64, improved: f64) -> Option<Self> {
        if baseline <= HT_IMC_NOISE_FLOOR {
            None
        } else if improved <= HT_IMC_NOISE_FLOOR {
            Some(HtImcReduction::BelowNoise)
        } else {
            Some(HtImcReduction::Finite(baseline / improved))
        }
    }

    /// The finite value, if any.
    pub fn finite(&self) -> Option<f64> {
        match self {
            HtImcReduction::Finite(v) => Some(*v),
            HtImcReduction::BelowNoise => None,
        }
    }
}

impl std::fmt::Display for HtImcReduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HtImcReduction::Finite(v) => write!(f, "{v:.2}"),
            HtImcReduction::BelowNoise => write!(f, "inf"),
        }
    }
}

/// The machine-wide counter registry.
#[derive(Clone, Debug)]
pub struct HwCounters {
    /// Per-socket L3 hits.
    pub l3_hits: CounterVec,
    /// Per-socket L3 load misses (Fig. 14(a), Fig. 15, Fig. 17).
    pub l3_misses: CounterVec,
    /// Per-socket bytes moved through the IMC (Fig. 14(b), Fig. 18).
    pub imc_bytes: CounterVec,
    /// Per-directed-link bytes (2 channels per undirected link) —
    /// Fig. 4(c), Fig. 14(c), Fig. 17(b).
    pub link_bytes: CounterVec,
    /// Per-node minor page faults (first touch + remote first-map),
    /// Fig. 4(b).
    pub minor_faults: CounterVec,
    /// Per-node remote-access minor faults (subset of `minor_faults`).
    pub remote_faults: CounterVec,
    /// Per-core busy nanoseconds (integrated by the scheduler; feeds the
    /// energy model and mpstat).
    pub busy_ns: CounterVec,
    /// Per-socket stale-copy invalidations observed.
    pub invalidations: CounterVec,
    streams: FxHashMap<StreamId, StreamTraffic>,
}

/// A point-in-time copy of all counters, for window deltas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HwSnapshot {
    /// Snapshot of [`HwCounters::l3_hits`].
    pub l3_hits: Vec<u64>,
    /// Snapshot of [`HwCounters::l3_misses`].
    pub l3_misses: Vec<u64>,
    /// Snapshot of [`HwCounters::imc_bytes`].
    pub imc_bytes: Vec<u64>,
    /// Snapshot of [`HwCounters::link_bytes`].
    pub link_bytes: Vec<u64>,
    /// Snapshot of [`HwCounters::minor_faults`].
    pub minor_faults: Vec<u64>,
    /// Snapshot of [`HwCounters::remote_faults`].
    pub remote_faults: Vec<u64>,
    /// Snapshot of [`HwCounters::busy_ns`].
    pub busy_ns: Vec<u64>,
    /// Snapshot of [`HwCounters::invalidations`].
    pub invalidations: Vec<u64>,
}

impl HwSnapshot {
    /// Each counter's growth from `before` to `self` (saturating).
    pub fn since(&self, before: &HwSnapshot) -> HwSnapshot {
        let d = |after: &[u64], before: &[u64]| {
            after
                .iter()
                .zip(before)
                .map(|(&a, &b)| a.saturating_sub(b))
                .collect()
        };
        HwSnapshot {
            l3_hits: d(&self.l3_hits, &before.l3_hits),
            l3_misses: d(&self.l3_misses, &before.l3_misses),
            imc_bytes: d(&self.imc_bytes, &before.imc_bytes),
            link_bytes: d(&self.link_bytes, &before.link_bytes),
            minor_faults: d(&self.minor_faults, &before.minor_faults),
            remote_faults: d(&self.remote_faults, &before.remote_faults),
            busy_ns: d(&self.busy_ns, &before.busy_ns),
            invalidations: d(&self.invalidations, &before.invalidations),
        }
    }
}

impl HwCounters {
    /// Creates zeroed counters for a machine shape.
    pub fn new(n_nodes: usize, n_cores: usize, n_links: usize) -> Self {
        HwCounters {
            l3_hits: CounterVec::new(n_nodes),
            l3_misses: CounterVec::new(n_nodes),
            imc_bytes: CounterVec::new(n_nodes),
            link_bytes: CounterVec::new(n_links * 2),
            minor_faults: CounterVec::new(n_nodes),
            remote_faults: CounterVec::new(n_nodes),
            busy_ns: CounterVec::new(n_cores),
            invalidations: CounterVec::new(n_nodes),
            streams: FxHashMap::default(),
        }
    }

    /// Attributes traffic to a stream.
    pub fn stream_add(&mut self, stream: StreamId, ht_bytes: u64, imc_bytes: u64, l3_misses: u64) {
        let t = self.streams.entry(stream).or_default();
        t.ht_bytes += ht_bytes;
        t.imc_bytes += imc_bytes;
        t.l3_misses += l3_misses;
    }

    /// The cumulative traffic of a stream (zero if never seen).
    pub fn stream(&self, stream: StreamId) -> StreamTraffic {
        self.streams.get(&stream).copied().unwrap_or_default()
    }

    /// Drops a stream's tallies (call when its query completes and has
    /// been reported, to keep the map bounded).
    pub fn retire_stream(&mut self, stream: StreamId) -> StreamTraffic {
        self.streams.remove(&stream).unwrap_or_default()
    }

    /// Copies all counter families.
    pub fn snapshot(&self) -> HwSnapshot {
        HwSnapshot {
            l3_hits: self.l3_hits.snapshot(),
            l3_misses: self.l3_misses.snapshot(),
            imc_bytes: self.imc_bytes.snapshot(),
            link_bytes: self.link_bytes.snapshot(),
            minor_faults: self.minor_faults.snapshot(),
            remote_faults: self.remote_faults.snapshot(),
            busy_ns: self.busy_ns.snapshot(),
            invalidations: self.invalidations.snapshot(),
        }
    }

    /// Machine-wide HT bytes (sum over both directions of all links).
    pub fn total_link_bytes(&self) -> u64 {
        self.link_bytes.total()
    }

    /// Machine-wide L3 misses.
    pub fn total_l3_misses(&self) -> u64 {
        self.l3_misses.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_machine() {
        let c = HwCounters::new(4, 16, 6);
        assert_eq!(c.l3_misses.len(), 4);
        assert_eq!(c.busy_ns.len(), 16);
        assert_eq!(c.link_bytes.len(), 12);
    }

    #[test]
    fn stream_attribution_and_ratio() {
        let mut c = HwCounters::new(2, 4, 1);
        let q = StreamId(7);
        c.stream_add(q, 100, 400, 3);
        c.stream_add(q, 50, 100, 1);
        let t = c.stream(q);
        assert_eq!(t.ht_bytes, 150);
        assert_eq!(t.imc_bytes, 500);
        assert_eq!(t.l3_misses, 4);
        assert_eq!(t.ht_imc_ratio(), Some(0.3));
        assert_eq!(c.stream(StreamId(9)).ht_imc_ratio(), None);
    }

    #[test]
    fn retire_stream_removes() {
        let mut c = HwCounters::new(2, 4, 1);
        c.stream_add(StreamId(1), 10, 10, 0);
        let t = c.retire_stream(StreamId(1));
        assert_eq!(t.ht_bytes, 10);
        assert_eq!(c.retire_stream(StreamId(1)), StreamTraffic::default());
    }

    #[test]
    fn snapshot_deltas() {
        let mut c = HwCounters::new(2, 2, 1);
        c.l3_misses.add(0, 5);
        let snap = c.snapshot();
        c.l3_misses.add(0, 3);
        c.l3_misses.add(1, 2);
        assert_eq!(snap.l3_misses, vec![5, 0]);
        assert_eq!(c.l3_misses.snapshot(), vec![8, 2]);
    }

    #[test]
    fn totals() {
        let mut c = HwCounters::new(2, 2, 2);
        c.link_bytes.add(0, 10);
        c.link_bytes.add(3, 5);
        c.imc_bytes.add(1, 7);
        c.minor_faults.inc(0);
        assert_eq!(c.total_link_bytes(), 15);
    }
}
