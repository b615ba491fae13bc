//! Query execution: MAL-style plans, partitioned tasks, the worker pool
//! and the two engine flavors.

pub(crate) mod cache;
pub mod cost;
pub(crate) mod dataflow;
pub mod engine;
pub mod eval;
pub mod fault;
pub mod mat;
pub mod par;
pub mod plan;
pub mod task;
pub mod tomograph;

pub use engine::{Engine, EngineConfig, EngineStats, Flavor, QueryResult};
pub use fault::{FaultPlan, WorkerFault, WorkerFaultKind};
pub use mat::{Mat, NodeStorage, PairsMat, PosMat, ValMat};
pub use par::{BaseData, ParEngine, ParEngineConfig, QueryError};
pub use plan::{AggKind, ArithOp, CmpOp, NodeId, PhysOp, Plan, ScalarPred, Side};
pub use tomograph::{OpStats, Tomograph};
