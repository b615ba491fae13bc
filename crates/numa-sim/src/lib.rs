//! # numa-sim — a deterministic NUMA machine simulator
//!
//! This crate is the hardware substrate for the ICDE'18 "Elastic
//! Multi-Core Allocation" reproduction. It models the paper's evaluation
//! machine — four Quad-Core AMD Opteron 8387 sockets joined by
//! HyperTransport links — at the granularity the paper's experiments
//! need: 4 KiB pages homed by first touch, 64 KiB cache segments in
//! per-core L2 / per-socket shared L3 LRU models, per-direction link and
//! per-node memory-controller bandwidth with congestion feedback, the full
//! likwid/mpstat counter set, and the ACP + energy-per-bit energy model.
//!
//! The simulation is single-threaded and fully deterministic: simulated
//! threads are cooperative work items driven by the `os-sim` crate, which
//! charges every memory access and compute burst against simulated time.
//!
//! ```
//! use numa_sim::{Machine, AccessKind, StreamId, CoreId};
//!
//! let mut machine = Machine::opteron_4x4();
//! let space = machine.create_space();
//! let region = machine.alloc(space, 1 << 20); // 1 MiB
//! let r = machine.access_segment(CoreId(0), region.segment(0), AccessKind::Read, StreamId(1));
//! assert!(r.fault); // first touch homes the page on core 0's socket
//! ```

pub mod cache;
pub mod config;
pub mod counters;
pub mod energy;
pub mod machine;
pub mod mem;
pub mod topology;

pub use cache::{LruCache, Probe, SegId};
pub use config::{MachineConfig, PAGES_PER_SEG, PAGE_BYTES, SEG_BYTES};
pub use counters::{
    HtImcReduction, HwCounters, HwSnapshot, StreamId, StreamTraffic, HT_IMC_NOISE_FLOOR,
};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use machine::{AccessKind, AccessResult, HitLevel, Machine};
pub use mem::{MemoryMap, Region, Residency, SpaceId, Touch, TouchKind};
pub use topology::{CoreId, Link, LinkId, NodeId, Topology};
