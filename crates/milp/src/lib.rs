//! A from-scratch 0/1 mixed-integer linear programming solver.
//!
//! The XRing paper solves its ring-construction model (constraints (1)–(3),
//! objective (4)) with Gurobi. No mature, offline-friendly Rust bindings to
//! an industrial MILP solver exist, so this crate provides the substrate:
//!
//! * [`Model`] — a declarative model API (binary/continuous variables,
//!   linear constraints, linear objective),
//! * [`backend`] — the pluggable [`LpBackend`] trait over two LP solvers:
//!   [`simplex`], a dense two-phase primal tableau kept as the reference
//!   backend, and [`revised`], a revised bounded-variable simplex with
//!   native bound handling and dual-simplex warm starts (the default),
//! * [`BranchAndBound`] — an exact branch-and-bound search over the binary
//!   variables, with warm-start incumbents, one LP per worker built once
//!   and solved per node from that node's bounds and its parent's basis,
//!   and lazy-constraint callbacks
//!   (the mechanism the ring builder uses to separate conflict constraints
//!   on demand instead of enumerating all `O(|E|²)` pairs up front).
//!
//! # Example
//!
//! ```
//! use xring_milp::{BranchAndBound, LinExpr, Model, Relation};
//!
//! // maximize x + 2y  s.t.  x + y <= 1, binaries  =>  minimize -(x + 2y)
//! let mut m = Model::new();
//! let x = m.add_binary("x");
//! let y = m.add_binary("y");
//! m.add_constraint(LinExpr::new() + (x, 1.0) + (y, 1.0), Relation::Le, 1.0);
//! m.set_objective(LinExpr::new() + (x, -1.0) + (y, -2.0));
//!
//! let solution = BranchAndBound::new().solve(&m)?;
//! assert_eq!(solution.value(y).round() as i64, 1);
//! assert_eq!(solution.value(x).round() as i64, 0);
//! # Ok::<(), xring_milp::SolveError>(())
//! ```
//!
//! Solves report spans (`milp-solve`), counters (`milp.nodes`,
//! `milp.lp_solves`, `simplex.pivots`, `simplex.warm_starts`,
//! `simplex.cold_starts`, plus per-backend `simplex.pivots.dense` /
//! `simplex.pivots.revised` variants — attributed in the [`backend`]
//! layer, never by the raw kernels) and a `milp.solve_us` histogram to
//! `xring-obs` when tracing is enabled; the disabled path costs one
//! relaxed atomic load. Convergence telemetry — (elapsed,
//! nodes, incumbent, best bound, gap) events at incumbent updates and
//! on a node stride — streams through the [`progress`] module to
//! per-solve observers and an optional process-global JSONL sink.

#![warn(missing_docs)]

pub mod backend;
pub mod bnb;
pub mod error;
pub mod expr;
pub mod factor;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod model;
pub mod presolve;
pub mod pricing;
pub mod progress;
pub mod revised;
pub mod simplex;

pub use backend::{BackendSolve, Basis, DenseBackend, LpBackend, LpBackendKind};
pub use bnb::{BranchAndBound, MilpSolution, SolveStats};
pub use error::SolveError;
pub use expr::{LinExpr, VarId};
pub use factor::{Factorization, FactorizationKind};
pub use model::{Model, Relation, VarKind};
pub use presolve::{presolve, PresolveResult};
pub use pricing::{Pricing, PricingKind};
pub use progress::{
    ConvergenceCollector, ConvergenceSummary, ProgressEvent, ProgressKind, ProgressObserver,
    ProgressSink,
};
pub use revised::{RevisedConfig, RevisedSimplex};
pub use simplex::{LpOutcome, LpProblem, LpSolution};
