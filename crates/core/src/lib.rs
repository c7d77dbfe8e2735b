//! # riot-core
//!
//! The core of the RIOT reproduction ("RIOT: I/O-Efficient Numerical
//! Computing without SQL", CIDR 2009): a deferred-evaluation expression
//! algebra, a database-style optimizer, a pipelined out-of-core executor,
//! and the four evaluation strategies the paper benchmarks against each
//! other.
//!
//! ## Architecture
//!
//! ```text
//!  user program (riot-rlang script, or the Session API directly)
//!      |
//!      v
//!  expr/graph  — hash-consed expression DAG; modifications are the
//!      |         functional `[]<-` operator, so everything stays deferrable
//!      v
//!  opt         — subscript pushdown (Fig. 2), MaskAssign->IfElse,
//!      |         constant folding, matrix-chain DP reordering (§5)
//!      v
//!  exec        — register-tape chunk pipeline (no intermediate
//!      |         materialization), index-nested-loop gather, and three
//!      |         out-of-core matmul kernels (naive / BNLJ / square-tiled)
//!      v
//!  riot-array / riot-storage — tiled arrays over a counted buffer pool
//! ```
//!
//! [`session::Session`] ties it together behind an R-like API and runs the
//! same program under any [`policy::EngineKind`]:
//!
//! * **PlainR** — eager per-op materialization on the `riot-vm` paging heap
//!   (the thrashing baseline);
//! * **Strawman** — every op reads and writes relational-style `(I,V)`
//!   tables (§4's strawman);
//! * **MatNamed** — deferred within a statement, materializing every named
//!   object (views without cross-statement deferral);
//! * **Riot** — fully deferred, optimized, pipelined, selective.

#![deny(unsafe_code)]

pub mod cost;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod governance;
pub mod graph;
mod isa;
pub mod opt;
pub mod policy;
pub mod profile;
pub mod session;
pub mod shape;
pub mod sqlview;

pub use cost::{CostParams, MatMulStrategy};
pub use eval::{evaluate, MemSources, SourceData, Value};
pub use expr::{AggOp, BinOp, ExprError, Node, NodeId, SourceRef, UnOp};
pub use governance::{assert_no_leaks, leak_snapshot, LeakSnapshot};
pub use graph::ExprGraph;
pub use opt::{optimize, OptConfig, RewriteStats};
pub use policy::{EngineConfig, EngineKind};
pub use profile::{render_plan, ProfileNode, QueryProfile};
pub use riot_storage::{CancelToken, ResourceLimits};
pub use session::{RMat, RVec, Session};
