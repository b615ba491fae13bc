//! # elastic-core — the elastic multi-core allocation mechanism
//!
//! The primary contribution of *"An Elastic Multi-Core Allocation
//! Mechanism for Database Systems"* (ICDE 2018), implemented over the
//! workspace's simulated NUMA machine and OS:
//!
//! - [`Monitor`]: samples CPU load (mpstat analogue) or the HT/IMC
//!   traffic ratio (likwid analogue), plus pages-per-node statistics;
//! - [`NodePriorityQueue`]: ranks NUMA nodes by the DBMS's resident
//!   pages (§IV-B2);
//! - allocation modes [`DenseMode`], [`SparseMode`] and [`AdaptiveMode`]
//!   deciding *where* cores are allocated/released (§IV-B);
//! - [`ControlCore`]: the whole rule-condition-action pipeline over
//!   the PetriNet PrT model (§III) — policy hooks, placement, tenant
//!   arbitration — driving two substrates: [`ElasticMechanism`]
//!   actuating simulated cpuset masks and [`PoolController`] parking
//!   real OS workers;
//! - [`lonc`]: the Local Optimum Number of Cores analysis (§IV-A).
//!
//! ```no_run
//! use elastic_core::{ElasticMechanism, MechanismConfig, AdaptiveMode};
//! use os_sim::{Kernel, CoreMask};
//! use emca_metrics::SimTime;
//!
//! let mut kernel = Kernel::opteron_4x4();
//! let group = kernel.create_group(CoreMask::all(kernel.machine().topology()));
//! let space = kernel.machine_mut().create_space();
//! let mut mech = ElasticMechanism::install(
//!     &mut kernel, group, space,
//!     Box::new(AdaptiveMode::default()),
//!     MechanismConfig::cpu_load().with_mode_latency("adaptive"),
//! );
//! mech.run_with(&mut kernel, SimTime::from_secs(1));
//! println!("LONC so far: {} cores", mech.nalloc());
//! ```

pub mod control;
pub mod lonc;
pub mod mechanism;
pub mod modes;
pub mod monitor;
pub mod policy;
pub mod pool;
pub mod priority_queue;
pub mod sla;
pub mod tenant;

pub use control::ControlCore;
pub use mechanism::{ElasticMechanism, MechanismConfig, TransitionEvent};
pub use modes::{AdaptiveMode, DenseMode, ModeCtx, SparseMode};
pub use monitor::{MetricKind, Monitor, MonitorSample};
pub use policy::{
    policy_by_name, Decision, HillClimbPolicy, Observation, Policy, PolicyCtx, PolicyId,
    SlaCappedPolicy, UnknownPolicy,
};
pub use pool::{PoolConfig, PoolController, PoolDecision};
pub use priority_queue::NodePriorityQueue;
pub use sla::{SlaGovernor, SlaPolicy};
pub use tenant::{
    fair_guarantee, ArbiterMode, SharedArbiter, TenantArbiter, TenantBinding, TenantId,
};
