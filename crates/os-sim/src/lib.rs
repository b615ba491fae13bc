//! # os-sim — a simulated operating system scheduler
//!
//! A deterministic, single-threaded model of the Linux scheduling
//! behaviour the ICDE'18 paper studies: CFS-like per-core runqueues,
//! wake placement, load balancing with pull migration ("stolen tasks"),
//! cpuset groups (the elastic mechanism's actuator), per-thread affinity,
//! NUMA first-touch memory policy (via `numa-sim`), and mpstat-style load
//! sampling.
//!
//! Simulated threads implement [`SimWork`]; the [`Kernel`] drives them in
//! fixed ticks, charging their memory traffic and compute against the
//! simulated [`numa_sim::Machine`].
//!
//! ```
//! use os_sim::{Kernel, CoreMask, SpinWork};
//! use emca_metrics::{SimDuration, SimTime};
//!
//! let mut kernel = Kernel::opteron_4x4();
//! let all = CoreMask::all(kernel.machine().topology());
//! let group = kernel.create_group(all);
//! kernel.spawn("worker", group, None,
//!     Box::new(SpinWork::new(SimDuration::from_millis(1))));
//! kernel.run_until(SimTime::from_millis(2));
//! assert_eq!(kernel.n_live_threads(), 0);
//! ```

pub mod cpuset;
pub mod procfs;
pub mod runqueue;
pub mod sched;
pub mod thread;
pub mod trace;
pub mod work;

pub use cpuset::{CoreMask, GroupId};
pub use procfs::{LoadSample, LoadSampler};
pub use sched::{Kernel, KernelConfig, SchedStats};
pub use thread::{ThreadState, ThreadStats, Tid};
pub use trace::{SchedTrace, Span};
pub use work::{SimWork, SpawnReq, SpinWork, StepOutcome, WaitWork, WorkCtx};
