//! # elastic-numa — an elastic multi-core allocation mechanism for
//! database systems on NUMA
//!
//! A full from-scratch Rust reproduction of *"An Elastic Multi-Core
//! Allocation Mechanism for Database Systems"* (Dominico, de Almeida,
//! Meira, Alves — ICDE 2018), including every substrate the paper's
//! evaluation depends on:
//!
//! - [`numa_sim`] — a deterministic simulator of the paper's 4-socket
//!   AMD Opteron 8387 machine (first-touch page homing, L2/L3 cache
//!   models, HyperTransport + memory-controller bandwidth with hard
//!   capacity caps, hardware counters, ACP energy model);
//! - [`os_sim`] — a CFS-like OS scheduler with cpusets, per-thread
//!   affinity, load balancing / task stealing, and migration tracing;
//! - [`volcano_db`] — a Volcano-style columnar DBMS (BATs, the 22 TPC-H
//!   plans, genuine operator evaluation, MonetDB- and SQL Server-flavored
//!   worker placement, concurrent closed-loop clients);
//! - [`prt_petrinet`] — the Predicate/Transition net formalism of §III;
//! - [`elastic_core`] — **the paper's contribution**: monitors, the
//!   node-priority queue, the dense/sparse/adaptive allocation modes and
//!   the rule-condition-action mechanism;
//! - [`emca_harness`] — experiment configs and runners regenerating
//!   every figure and table (see the `emca-bench` binaries).
//!
//! Start with [`prelude`] and the `examples/` directory.

pub use elastic_core;
pub use emca_harness;
pub use emca_metrics;
pub use numa_sim;
pub use os_sim;
pub use prt_petrinet;
pub use volcano_db;

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use elastic_core::{
        AdaptiveMode, DenseMode, ElasticMechanism, MechanismConfig, MetricKind, Policy, SparseMode,
    };
    pub use emca_harness::{run, run_all_allocs, run_handcoded, Alloc, RunConfig, RunOutput};
    pub use emca_metrics::{SimDuration, SimTime};
    pub use numa_sim::{Machine, MachineConfig, Topology};
    pub use os_sim::{CoreMask, Kernel, KernelConfig};
    pub use prt_petrinet::{AllocAction, StateKind, Thresholds};
    pub use volcano_db::client::Workload;
    pub use volcano_db::exec::engine::{Engine, EngineConfig, Flavor};
    pub use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};
}
