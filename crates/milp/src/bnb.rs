//! Exact branch-and-bound over the binary variables, parallelized over
//! a deterministic work-stealing node pool.
//!
//! Nodes fix binaries through their *bounds* (`lb = ub`) rather than by
//! substituting them out of the LP, so every node shares the parent's
//! variable space and the LP basis transfers: each node carries an
//! `Arc<Basis>` from its parent's optimal solve, turning child solves
//! into short dual-simplex cleanups on the [`crate::revised`] backend.
//!
//! The LP itself is built once per search: each worker keeps one
//! [`crate::revised`] workspace (or, on the dense reference backend, one
//! row list) that holds the model rows, takes every lazy cut in place,
//! and solves a node from just its bound vectors and warm basis. The
//! search's deadline reaches the LP's pivot loop too, so an expired
//! deadline interrupts a long solve, not only the next node.
//!
//! # Deterministic parallel search
//!
//! The search runs in **rounds**. Each round pops up to a fixed batch
//! of nodes from a best-bound frontier (ties broken by node id, ids
//! assigned in creation order), solves their LP relaxations in
//! parallel — each solve is a pure function of the round-start rows,
//! the node's fixes, and its warm basis — and then merges the results
//! **serially in batch order**: pruning, incumbent updates, lazy-cut
//! separation, and child creation all happen on one thread in a fixed
//! order. The batch size is a constant independent of
//! [`with_solver_threads`](BranchAndBound::with_solver_threads), so
//! the node selection, the event stream, and the final result are
//! byte-identical across thread counts; only wall-clock time (and the
//! `elapsed` field of progress events) varies. Worker threads claim
//! batch items from per-worker stripes first and then steal leftovers
//! via a global scan (`bnb.steals`), which balances skewed LP costs
//! without affecting which nodes are solved.
//!
//! # Incumbent seeding
//!
//! When the root relaxation is fractional, its LP point — a *split
//! routing* in the ring models, where a demand may ride several
//! wavelength paths — is rounded to the nearest integral assignment.
//! If that unsplit rounding is feasible (model constraints, lazy pool,
//! and the separation callback all accept it) it seeds the incumbent
//! before any branching, so best-bound pruning has a cutoff from round
//! one.

use crate::backend::{solve_dense, BackendSolve, Basis, LpBackendKind};
use crate::error::SolveError;
use crate::expr::{LinExpr, VarId};
use crate::factor::FactorizationKind;
use crate::model::{Model, Relation, VarKind};
use crate::pricing::PricingKind;
use crate::progress::{self, ProgressEvent, ProgressKind, ProgressObserver};
use crate::revised::{LpWorkspace, RevisedConfig};
use crate::simplex::{LpOutcome, LpProblem, LpRow};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Integrality tolerance: an LP value within this distance of an integer
/// is considered integral.
const INT_TOL: f64 = 1e-6;

/// Nodes selected per search round. A fixed constant — independent of
/// the worker-thread count — so the explored tree is identical at every
/// parallelism level (the determinism gate relies on this).
const BATCH: usize = 16;

/// A feasible integer solution found by [`BranchAndBound::solve`].
#[derive(Debug, Clone)]
pub struct MilpSolution {
    values: Vec<f64>,
    objective: f64,
    stats: SolveStats,
}

impl MilpSolution {
    /// Value of variable `v` (binaries are exactly 0.0 or 1.0 after
    /// rounding within tolerance).
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// True if binary variable `v` is set in this solution.
    pub fn is_set(&self, v: VarId) -> bool {
        self.value(v) > 0.5
    }

    /// Dense assignment vector, indexed by variable creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective value.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Search statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

/// Statistics reported with a solution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// LP relaxations solved (≥ nodes when lazy constraints re-solve).
    pub lp_solves: usize,
    /// Lazy constraints added by the callback.
    pub lazy_constraints: usize,
    /// Binaries fixed by root presolve.
    pub presolve_fixed: usize,
    /// Times the incumbent improved during the search (excludes a
    /// warm start accepted via
    /// [`with_incumbent`](BranchAndBound::with_incumbent)).
    pub incumbent_updates: usize,
    /// LP solves that were offered a parent basis (every solve except
    /// each search's first; the root has no predecessor).
    pub warm_eligible: usize,
    /// LP solves where the backend actually adopted the offered basis
    /// (0 on the dense reference backend, which cannot warm-start).
    pub warm_starts: usize,
    /// Nodes processed in rounds holding more than one node — the nodes
    /// eligible for parallel LP solving. Counted from the batch shape,
    /// not the thread count, so it is identical across
    /// [`with_solver_threads`](BranchAndBound::with_solver_threads)
    /// settings (steal counts, which are scheduling-dependent, go to
    /// the `bnb.steals` observability counter instead).
    pub nodes_parallel: usize,
}

/// Configurable exact branch-and-bound solver.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone)]
pub struct BranchAndBound {
    max_nodes: usize,
    deadline: Option<Instant>,
    incumbent: Option<(Vec<f64>, f64)>,
    progress_stride: usize,
    lp_backend: LpBackendKind,
    solver_threads: usize,
    pricing: PricingKind,
    factorization: FactorizationKind,
}

impl Default for BranchAndBound {
    fn default() -> Self {
        BranchAndBound {
            max_nodes: 200_000,
            deadline: None,
            incumbent: None,
            progress_stride: 64,
            lp_backend: LpBackendKind::default(),
            solver_threads: 1,
            pricing: PricingKind::default(),
            factorization: FactorizationKind::default(),
        }
    }
}

/// Per-solve convergence-telemetry plumbing: holds the optional
/// observer, the global-sink solve id, and the root bound, and turns
/// search milestones into [`ProgressEvent`]s. When `active` is false
/// every hook is a single branch on a local bool.
struct ProgressState<'a> {
    observer: Option<&'a mut dyn ProgressObserver>,
    /// 0 when no global sink was installed at solve start.
    solve_id: u64,
    active: bool,
    stride: usize,
    started: Instant,
    /// Global lower bound: the root LP relaxation objective (raised by
    /// valid root cuts). Fixed once branching starts, so the reported
    /// gap is monotone non-increasing.
    best_bound: Option<f64>,
    /// Cleared when a resource limit truncates the search; while set,
    /// an `Ok` result means the tree was exhausted and the incumbent is
    /// proven optimal (the final event then closes the gap to 0).
    proven: bool,
}

impl ProgressState<'_> {
    fn emit(&mut self, kind: ProgressKind, nodes: usize, incumbent: Option<f64>) {
        if !self.active {
            return;
        }
        let gap = match (incumbent, self.best_bound) {
            (Some(inc), Some(bound)) => Some(progress::relative_gap(inc, bound)),
            _ => None,
        };
        let event = ProgressEvent {
            kind,
            elapsed: self.started.elapsed(),
            nodes,
            incumbent,
            best_bound: self.best_bound,
            gap,
        };
        if let Some(observer) = self.observer.as_deref_mut() {
            observer.on_event(&event);
        }
        if self.solve_id != 0 {
            progress::emit_to_sink(self.solve_id, &event);
        }
    }

    /// Stride tick: fires every `stride`-th node.
    fn on_node(&mut self, nodes: usize, incumbent: Option<f64>) {
        if self.active && nodes.is_multiple_of(self.stride) {
            self.emit(ProgressKind::Stride, nodes, incumbent);
        }
    }

    /// Records a (possibly improved) global lower bound from a root LP
    /// solve and announces it, so the gap becomes reportable early.
    fn raise_bound(&mut self, bound: f64, nodes: usize, incumbent: Option<f64>) {
        if !self.active {
            return;
        }
        if self.best_bound.is_none_or(|b| bound > b) {
            self.best_bound = Some(bound);
            self.emit(ProgressKind::Stride, nodes, incumbent);
        }
    }
}

/// One worker's LP relaxation for a whole search: built from the model
/// rows once, extended in place by each lazy cut, and solved per node
/// from that node's bound vectors and warm basis.
enum NodeLp {
    /// The dense reference tableau's problem; that kernel builds its
    /// tableau afresh on every solve and cannot warm-start.
    Dense {
        lp: LpProblem,
        deadline: Option<Instant>,
    },
    /// The revised simplex's workspace.
    Revised(Box<LpWorkspace>),
}

impl NodeLp {
    fn new(
        kind: LpBackendKind,
        config: RevisedConfig,
        objective: &[f64],
        deadline: Option<Instant>,
    ) -> Self {
        match kind {
            LpBackendKind::Dense => NodeLp::Dense {
                lp: LpProblem {
                    num_vars: objective.len(),
                    lb: vec![0.0; objective.len()],
                    ub: vec![0.0; objective.len()],
                    objective: objective.to_vec(),
                    rows: Vec::new(),
                },
                deadline,
            },
            LpBackendKind::Revised => {
                let mut ws = LpWorkspace::new(config, objective);
                ws.set_deadline(deadline);
                NodeLp::Revised(Box::new(ws))
            }
        }
    }

    /// Appends the rows of `rows` this LP has not seen yet (the search's
    /// rows only ever grow at the end).
    fn sync(&mut self, rows: &[LpRow]) {
        match self {
            NodeLp::Dense { lp, .. } => lp.rows.extend_from_slice(&rows[lp.rows.len()..]),
            NodeLp::Revised(ws) => {
                for r in &rows[ws.num_rows()..] {
                    ws.add_row(&r.terms, r.relation, r.rhs);
                }
            }
        }
    }

    fn solve(&mut self, lb: &[f64], ub: &[f64], warm: Option<&Basis>) -> BackendSolve {
        match self {
            NodeLp::Dense { lp, deadline } => {
                lp.lb.copy_from_slice(lb);
                lp.ub.copy_from_slice(ub);
                solve_dense(lp, *deadline)
            }
            NodeLp::Revised(ws) => ws.solve(lb, ub, warm),
        }
    }
}

impl BranchAndBound {
    /// Creates a solver with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the number of branch-and-bound nodes. On exhaustion the best
    /// incumbent is returned if one exists, otherwise
    /// [`SolveError::ResourceLimit`].
    pub fn with_max_nodes(mut self, max_nodes: usize) -> Self {
        self.max_nodes = max_nodes;
        self
    }

    /// Sets a cooperative wall-clock deadline, checked once per
    /// branch-and-bound node alongside the node limit and every few
    /// simplex iterations inside each LP solve. When the deadline
    /// passes mid-search the solve aborts with
    /// [`SolveError::Interrupted`] — a hard stop (no incumbent fallback),
    /// since the caller's time budget is already spent. `None` clears a
    /// previously set deadline.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Warm-starts the search with a known feasible assignment (e.g. from
    /// a heuristic). The assignment must be feasible for the model passed
    /// to [`solve`](Self::solve); it is re-checked there.
    pub fn with_incumbent(mut self, values: Vec<f64>, objective: f64) -> Self {
        self.incumbent = Some((values, objective));
        self
    }

    /// Sets the node-count stride between periodic convergence-telemetry
    /// events (default 64, minimum 1). Only consulted when an observer
    /// or a global progress sink is attached; see [`crate::progress`].
    pub fn with_progress_stride(mut self, stride: usize) -> Self {
        self.progress_stride = stride.max(1);
        self
    }

    /// Selects the LP backend for the node relaxations (default
    /// [`LpBackendKind::Revised`]). The dense reference backend solves
    /// every node cold; the revised backend warm-starts children from
    /// their parent's basis.
    pub fn with_lp_backend(mut self, backend: LpBackendKind) -> Self {
        self.lp_backend = backend;
        self
    }

    /// Sets the number of worker threads for the per-round node-batch
    /// LP solves (default 1, minimum 1). The explored tree, the final
    /// solution, and the progress-event stream are identical at every
    /// setting; only wall-clock time changes.
    pub fn with_solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = threads.max(1);
        self
    }

    /// Selects the pricing rule for the revised backend's primal phases
    /// (default [`PricingKind::Dantzig`]). Ignored by the dense
    /// reference backend.
    pub fn with_pricing(mut self, pricing: PricingKind) -> Self {
        self.pricing = pricing;
        self
    }

    /// Selects the basis factorization for the revised backend (default
    /// [`FactorizationKind::SparseLu`]). Ignored by the dense reference
    /// backend.
    pub fn with_factorization(mut self, factorization: FactorizationKind) -> Self {
        self.factorization = factorization;
        self
    }

    /// Solves the model exactly.
    ///
    /// # Example
    ///
    /// Minimize `5x + 3y` subject to `x + y >= 1` over binaries:
    ///
    /// ```
    /// use xring_milp::{BranchAndBound, LinExpr, Model, Relation};
    ///
    /// let mut m = Model::new();
    /// let x = m.add_binary("x");
    /// let y = m.add_binary("y");
    /// m.add_constraint(LinExpr::new() + (x, 1.0) + (y, 1.0), Relation::Ge, 1.0);
    /// m.set_objective(LinExpr::new() + (x, 5.0) + (y, 3.0));
    ///
    /// let solution = BranchAndBound::new().solve(&m)?;
    /// assert!(solution.is_set(y) && !solution.is_set(x));
    /// assert_eq!(solution.objective(), 3.0);
    /// assert!(solution.stats().nodes >= 1);
    /// # Ok::<(), xring_milp::SolveError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when no integer point satisfies the
    /// constraints, [`SolveError::Unbounded`] when the relaxation is
    /// unbounded, [`SolveError::ResourceLimit`] when limits are hit with
    /// no incumbent, [`SolveError::Numerical`] on simplex failure.
    pub fn solve(&self, model: &Model) -> Result<MilpSolution, SolveError> {
        self.solve_with_lazy(model, |_| Vec::new())
    }

    /// Solves the model with a lazy-constraint callback.
    ///
    /// Whenever the search finds an LP-optimal **integral** assignment,
    /// `separate` is called with the candidate values. If it returns any
    /// cuts (each `(expr, relation, rhs)`), they are added to a global cut
    /// pool, the candidate is rejected, and the node is re-solved. The
    /// callback must be *consistent*: it must eventually accept any truly
    /// feasible point, or the search cannot terminate with that point.
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve).
    pub fn solve_with_lazy<F>(&self, model: &Model, separate: F) -> Result<MilpSolution, SolveError>
    where
        F: FnMut(&[f64]) -> Vec<(LinExpr, Relation, f64)>,
    {
        self.solve_full(model, separate, None)
    }

    /// Like [`solve`](Self::solve), but streams convergence telemetry
    /// (incumbent updates, node-stride ticks, a final event) to
    /// `observer`. See [`crate::progress`] for the event model.
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve).
    pub fn solve_observed(
        &self,
        model: &Model,
        observer: &mut dyn ProgressObserver,
    ) -> Result<MilpSolution, SolveError> {
        self.solve_full(model, |_| Vec::new(), Some(observer))
    }

    /// Like [`solve_with_lazy`](Self::solve_with_lazy), but streams
    /// convergence telemetry to `observer`.
    ///
    /// # Errors
    ///
    /// As for [`solve`](Self::solve).
    pub fn solve_with_lazy_observed<F>(
        &self,
        model: &Model,
        separate: F,
        observer: &mut dyn ProgressObserver,
    ) -> Result<MilpSolution, SolveError>
    where
        F: FnMut(&[f64]) -> Vec<(LinExpr, Relation, f64)>,
    {
        self.solve_full(model, separate, Some(observer))
    }

    fn solve_full<F>(
        &self,
        model: &Model,
        separate: F,
        observer: Option<&mut dyn ProgressObserver>,
    ) -> Result<MilpSolution, SolveError>
    where
        F: FnMut(&[f64]) -> Vec<(LinExpr, Relation, f64)>,
    {
        #[cfg(feature = "fault-inject")]
        if let Some(fault) = crate::fault::take() {
            return Err(fault.to_solve_error());
        }

        let _span = xring_obs::span("milp-solve");
        let started = Instant::now();
        // Telemetry activation is decided once per solve (one relaxed
        // load for the sink), so the per-node hooks branch on a bool.
        let sink_on = progress::sink_enabled();
        let mut progress = ProgressState {
            active: observer.is_some() || sink_on,
            observer,
            solve_id: if sink_on {
                progress::next_solve_id()
            } else {
                0
            },
            stride: self.progress_stride,
            started,
            best_bound: None,
            proven: true,
        };
        let mut stats = SolveStats::default();
        let result = self.search(model, separate, &mut stats, &mut progress);
        let final_incumbent = result.as_ref().ok().map(|(_, objective)| *objective);
        if progress.proven && progress.best_bound.is_some() {
            // Exhausted tree: the incumbent is the proven optimum, so
            // the bound meets it and the final gap closes to 0.
            progress.best_bound = final_incumbent.or(progress.best_bound);
        }
        progress.emit(ProgressKind::Final, stats.nodes, final_incumbent);
        xring_obs::record_hist("milp.solve_us", started.elapsed().as_micros() as u64);
        xring_obs::counter("milp.nodes", stats.nodes as u64);
        xring_obs::counter("milp.lp_solves", stats.lp_solves as u64);
        xring_obs::counter("milp.lazy_cuts", stats.lazy_constraints as u64);
        xring_obs::counter("milp.presolve_fixed", stats.presolve_fixed as u64);
        xring_obs::counter("milp.incumbent_updates", stats.incumbent_updates as u64);
        xring_obs::counter("bnb.nodes_parallel", stats.nodes_parallel as u64);
        // Attribute the solve outcome to the enclosing span so
        // per-request traces distinguish proven-optimal solves from
        // bound-limited ones without parsing progress events.
        match result.is_ok() {
            true if progress.proven => xring_obs::counter("milp.solves_proven", 1),
            true => xring_obs::counter("milp.solves_bound_limited", 1),
            false => xring_obs::counter("milp.solves_failed", 1),
        }
        result.map(|(values, objective)| MilpSolution {
            values,
            objective,
            stats,
        })
    }

    /// The branch-and-bound search behind
    /// [`solve_with_lazy`](Self::solve_with_lazy), with statistics
    /// accumulated into `stats` on every exit path (so the
    /// observability counters are flushed even when the search errors)
    /// and convergence milestones reported through `progress`.
    fn search<F>(
        &self,
        model: &Model,
        mut separate: F,
        stats: &mut SolveStats,
        progress: &mut ProgressState<'_>,
    ) -> Result<(Vec<f64>, f64), SolveError>
    where
        F: FnMut(&[f64]) -> Vec<(LinExpr, Relation, f64)>,
    {
        let n = model.num_vars();

        // Dense objective.
        let mut objective = vec![0.0f64; n];
        for &(v, c) in model.objective.terms() {
            objective[v.index()] += c;
        }

        // Base bounds.
        let mut base_lb = vec![0.0f64; n];
        let mut base_ub = vec![0.0f64; n];
        for (j, def) in model.vars.iter().enumerate() {
            match def.kind {
                VarKind::Binary => {
                    base_lb[j] = 0.0;
                    base_ub[j] = 1.0;
                }
                VarKind::Continuous { lb, ub } => {
                    base_lb[j] = lb;
                    base_ub[j] = ub;
                }
            }
        }

        // Rows from model constraints + lazy pool.
        let to_lp_row = |expr: &LinExpr, relation: Relation, rhs: f64| LpRow {
            terms: expr.terms().iter().map(|&(v, c)| (v.index(), c)).collect(),
            relation,
            rhs,
        };
        let mut rows: Vec<LpRow> = model
            .constraints
            .iter()
            .map(|c| to_lp_row(&c.expr, c.relation, c.rhs))
            .collect();
        let mut lazy_pool: Vec<(LinExpr, Relation, f64)> = Vec::new();

        let mut best: Option<(Vec<f64>, f64)> = None;
        if let Some((vals, obj)) = &self.incumbent {
            if vals.len() != n {
                return Err(SolveError::InvalidModel {
                    detail: format!(
                        "incumbent has {} values for a {n}-variable model",
                        vals.len()
                    ),
                });
            }
            if model.violated_constraints(vals, 1e-6).is_empty() {
                best = Some((vals.clone(), *obj));
                // A feasible warm start is the solve's first incumbent:
                // report it so every solve that starts feasible carries
                // at least one incumbent event, even when the warm
                // start is already optimal.
                progress.emit(ProgressKind::Incumbent, 0, Some(*obj));
            }
        }

        // Root presolve: logical fixings applied to every node.
        let pre = crate::presolve::presolve(model);
        if pre.infeasible {
            return Err(SolveError::Infeasible);
        }
        stats.presolve_fixed = pre.fixed.len();

        // One LP per worker for the whole search, built from the model
        // rows on first use; lazy cuts reach it at the next round start.
        let new_lp = || {
            NodeLp::new(
                self.lp_backend,
                RevisedConfig::default()
                    .with_factorization(self.factorization)
                    .with_pricing(self.pricing),
                &objective,
                self.deadline,
            )
        };
        let mut workers: Vec<NodeLp> = vec![new_lp()];
        let dense_backend = self.lp_backend == LpBackendKind::Dense;
        let binaries: Vec<usize> = model.binary_vars().iter().map(|v| v.index()).collect();
        let is_binary = {
            let mut flags = vec![false; n];
            for &b in &binaries {
                flags[b] = true;
            }
            flags
        };

        // Implied-upper-bound detection: a binary x_j needs no explicit
        // `x_j <= 1` row in the relaxation when some all-nonnegative
        // constraint `Σ aᵢxᵢ {<=,=} rhs` with `rhs <= 1` and `a_j >= 1`
        // already enforces it (true for the degree constraints of the
        // ring-construction model, which makes its LP 3x smaller).
        let implied_ub = {
            let mut implied = vec![false; n];
            for c in &model.constraints {
                if !matches!(c.relation, Relation::Le | Relation::Eq) || c.rhs > 1.0 + 1e-12 {
                    continue;
                }
                if c.expr.terms().iter().any(|&(_, coef)| coef < 0.0) {
                    continue;
                }
                for &(v, coef) in c.expr.terms() {
                    if coef >= 1.0 - 1e-12 && is_binary[v.index()] {
                        implied[v.index()] = true;
                    }
                }
            }
            implied
        };

        /// A frontier node: the parent's LP objective bounds everything
        /// below it. Heap order is best bound first, then creation
        /// order (`id`), which fixes every tie deterministically.
        struct Node {
            bound: f64,
            id: u64,
            fixes: Vec<(usize, bool)>,
            basis: Option<Arc<Basis>>,
        }
        impl PartialEq for Node {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == CmpOrdering::Equal
            }
        }
        impl Eq for Node {}
        impl PartialOrd for Node {
            fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Node {
            fn cmp(&self, other: &Self) -> CmpOrdering {
                // BinaryHeap is a max-heap: "greater" = smaller bound,
                // then smaller id.
                other
                    .bound
                    .total_cmp(&self.bound)
                    .then_with(|| other.id.cmp(&self.id))
            }
        }

        /// One round's unit of parallel work: the node plus its bound
        /// vectors, solved as a pure function of the round-start rows.
        struct WorkItem {
            node: Node,
            lb: Vec<f64>,
            ub: Vec<f64>,
        }

        /// Appends lazy cuts to the LP rows and the pool, dropping the
        /// stored incumbent when a new cut invalidates it (e.g. a warm
        /// start the callback had not vetted).
        fn apply_cuts(
            cuts: Vec<(LinExpr, Relation, f64)>,
            rows: &mut Vec<LpRow>,
            lazy_pool: &mut Vec<(LinExpr, Relation, f64)>,
            best: &mut Option<(Vec<f64>, f64)>,
            to_lp_row: &impl Fn(&LinExpr, Relation, f64) -> LpRow,
        ) {
            for (expr, rel, rhs) in cuts {
                let expr = expr.normalized();
                if let Some((bvals, _)) = &best {
                    let lhs = expr.evaluate(bvals);
                    let violated = match rel {
                        Relation::Le => lhs > rhs + 1e-6,
                        Relation::Ge => lhs < rhs - 1e-6,
                        Relation::Eq => (lhs - rhs).abs() > 1e-6,
                    };
                    if violated {
                        *best = None;
                    }
                }
                rows.push(to_lp_row(&expr, rel, rhs));
                lazy_pool.push((expr, rel, rhs));
            }
        }

        let satisfies = |expr: &LinExpr, rel: Relation, rhs: f64, vals: &[f64]| {
            let lhs = expr.evaluate(vals);
            match rel {
                Relation::Le => lhs <= rhs + 1e-6,
                Relation::Ge => lhs >= rhs - 1e-6,
                Relation::Eq => (lhs - rhs).abs() <= 1e-6,
            }
        };

        let threads = self.solver_threads.max(1);
        let mut next_id: u64 = 1;
        let mut frontier = BinaryHeap::new();
        frontier.push(Node {
            bound: f64::NEG_INFINITY,
            id: 0,
            fixes: pre.fixed.iter().map(|&(j, v)| (j, v > 0.5)).collect(),
            basis: None,
        });

        while !frontier.is_empty() {
            // --- Selection: pop the round's batch, best bound first.
            // Node accounting (count, stride tick, limits) happens here,
            // in deterministic pop order; bound-pruned nodes are dropped
            // without spending an LP solve or a node count on them.
            let mut batch: Vec<Node> = Vec::with_capacity(BATCH);
            while batch.len() < BATCH {
                let Some(node) = frontier.pop() else { break };
                if let Some((_, best_obj)) = &best {
                    if node.bound >= *best_obj - 1e-9 {
                        continue;
                    }
                }
                stats.nodes += 1;
                progress.on_node(stats.nodes, best.as_ref().map(|(_, obj)| *obj));
                if stats.nodes > self.max_nodes {
                    progress.proven = false;
                    return best.ok_or(SolveError::ResourceLimit { nodes: stats.nodes });
                }
                if let Some(deadline) = self.deadline {
                    if Instant::now() >= deadline {
                        return Err(SolveError::Interrupted { nodes: stats.nodes });
                    }
                }
                batch.push(node);
            }
            if batch.is_empty() {
                break;
            }
            if batch.len() > 1 {
                stats.nodes_parallel += batch.len();
            }
            xring_obs::record_hist("bnb.batch_size", batch.len() as u64);

            // --- Bound vectors per item (serial: O(n) copies).
            let items: Vec<WorkItem> = batch
                .into_iter()
                .map(|node| {
                    let mut lb = base_lb.clone();
                    // Fix binaries through bounds (lb = ub), keeping the
                    // full variable space so the parent basis stays
                    // valid. The dense backend substitutes fixed columns
                    // out internally and still benefits from dropping
                    // implied ub rows; the revised backend handles all
                    // bounds natively.
                    let mut ub: Vec<f64> = if dense_backend {
                        (0..n)
                            .map(|j| {
                                if is_binary[j] && implied_ub[j] {
                                    f64::INFINITY
                                } else {
                                    base_ub[j]
                                }
                            })
                            .collect()
                    } else {
                        base_ub.clone()
                    };
                    for &(j, val) in &node.fixes {
                        let v = if val { 1.0 } else { 0.0 };
                        lb[j] = v;
                        ub[j] = v;
                    }
                    WorkItem { node, lb, ub }
                })
                .collect();

            // --- Parallel LP solves: each item is a pure function of
            // the round-start rows, its fixes, and its warm basis, so
            // neither the schedule nor which worker's LP solves it can
            // affect any result.
            let nw = if items.len() > 1 {
                threads.min(items.len())
            } else {
                1
            };
            while workers.len() < nw {
                workers.push(new_lp());
            }
            for lp in &mut workers[..nw] {
                lp.sync(&rows);
            }
            let solve_item = |lp: &mut NodeLp, item: &WorkItem| {
                lp.solve(&item.lb, &item.ub, item.node.basis.as_deref())
            };
            let results: Vec<BackendSolve> = if nw > 1 {
                let claimed: Vec<AtomicBool> =
                    (0..items.len()).map(|_| AtomicBool::new(false)).collect();
                let slots: Vec<Mutex<Option<BackendSolve>>> =
                    (0..items.len()).map(|_| Mutex::new(None)).collect();
                let steals = AtomicUsize::new(0);
                // Per-worker stripes first, then a global scan that
                // steals whatever slower workers have not claimed.
                let worker = |w: usize, lp: &mut NodeLp| {
                    let mut i = w;
                    while i < items.len() {
                        if !claimed[i].swap(true, Ordering::Relaxed) {
                            *slots[i].lock().unwrap() = Some(solve_item(lp, &items[i]));
                        }
                        i += nw;
                    }
                    for i in 0..items.len() {
                        if !claimed[i].swap(true, Ordering::Relaxed) {
                            steals.fetch_add(1, Ordering::Relaxed);
                            *slots[i].lock().unwrap() = Some(solve_item(lp, &items[i]));
                        }
                    }
                };
                let (first, helpers) = workers[..nw].split_first_mut().expect("one worker");
                std::thread::scope(|scope| {
                    for (w, lp) in helpers.iter_mut().enumerate() {
                        let worker = &worker;
                        scope.spawn(move || worker(w + 1, lp));
                    }
                    worker(0, first);
                });
                xring_obs::counter("bnb.steals", steals.load(Ordering::Relaxed) as u64);
                slots
                    .into_iter()
                    .map(|slot| slot.into_inner().unwrap().expect("item processed"))
                    .collect()
            } else {
                let lp = &mut workers[0];
                items.iter().map(|item| solve_item(lp, item)).collect()
            };

            // --- Serial merge, in batch order: the only place that
            // mutates search state, so results are schedule-independent.
            for (item, solved) in items.into_iter().zip(results) {
                if item.node.basis.is_some() {
                    stats.warm_eligible += 1;
                }
                stats.lp_solves += 1;
                if solved.warmed {
                    stats.warm_starts += 1;
                }
                let node_basis = solved.basis.map(Arc::new);
                let sol = match solved.outcome {
                    LpOutcome::Optimal(s) => s,
                    LpOutcome::Infeasible => continue, // prune
                    LpOutcome::Unbounded => {
                        // Unbounded relaxation at the root means an
                        // unbounded MILP; in a branch it still means the
                        // whole problem is unbounded (bounds only
                        // tighten).
                        return Err(SolveError::Unbounded);
                    }
                    LpOutcome::IterationLimit => return Err(SolveError::Numerical),
                    LpOutcome::Interrupted => {
                        return Err(SolveError::Interrupted { nodes: stats.nodes })
                    }
                };
                let node_obj = sol.objective;
                // Every LP solve of the root node (including re-queues
                // after valid lazy cuts) bounds the whole problem from
                // below.
                if item.node.id == 0 {
                    progress.raise_bound(node_obj, stats.nodes, best.as_ref().map(|(_, o)| *o));
                }

                // Re-prune against the freshest incumbent (it may have
                // improved since this item's selection).
                if let Some((_, best_obj)) = &best {
                    if node_obj >= *best_obj - 1e-9 {
                        continue;
                    }
                }

                // The solve covers the full variable space (fixed
                // binaries sit at their pinned bound).
                let full = sol.values;

                // Find the most fractional binary.
                let mut branch_var = None;
                let mut branch_frac = INT_TOL;
                for &j in &binaries {
                    let x = full[j];
                    let frac = (x - x.round()).abs();
                    if frac > branch_frac {
                        branch_frac = frac;
                        branch_var = Some(j);
                    }
                }

                match branch_var {
                    None => {
                        // Integral: round, check lazy cuts.
                        let mut values = full.clone();
                        for (j, v) in values.iter_mut().enumerate() {
                            if is_binary[j] {
                                *v = v.round();
                            }
                        }
                        let cuts = separate(&values);
                        if cuts.is_empty() {
                            let obj: f64 = values.iter().zip(&objective).map(|(x, c)| x * c).sum();
                            let improves =
                                best.as_ref().map(|(_, b)| obj < *b - 1e-9).unwrap_or(true);
                            if improves {
                                stats.incumbent_updates += 1;
                                best = Some((values, obj));
                                progress.emit(ProgressKind::Incumbent, stats.nodes, Some(obj));
                            }
                        } else {
                            stats.lazy_constraints += cuts.len();
                            apply_cuts(cuts, &mut rows, &mut lazy_pool, &mut best, &to_lp_row);
                            // Re-queue the node (same id) so the cut-
                            // extended LP re-solves it next round.
                            frontier.push(Node {
                                bound: node_obj,
                                id: item.node.id,
                                fixes: item.node.fixes,
                                basis: node_basis,
                            });
                        }
                    }
                    Some(j) => {
                        // Fractional root: round the split-routing LP
                        // point to the nearest unsplit assignment and
                        // adopt it as the incumbent when feasible, so
                        // pruning has a cutoff before any branching.
                        if item.node.id == 0 {
                            let mut cand = full.clone();
                            for &b in &binaries {
                                cand[b] = cand[b].round();
                            }
                            let pool_ok = lazy_pool
                                .iter()
                                .all(|(expr, rel, rhs)| satisfies(expr, *rel, *rhs, &cand));
                            if pool_ok && model.violated_constraints(&cand, 1e-6).is_empty() {
                                let cuts = separate(&cand);
                                if cuts.is_empty() {
                                    let obj: f64 =
                                        cand.iter().zip(&objective).map(|(x, c)| x * c).sum();
                                    let improves =
                                        best.as_ref().map(|(_, b)| obj < *b - 1e-9).unwrap_or(true);
                                    if improves {
                                        stats.incumbent_updates += 1;
                                        best = Some((cand, obj));
                                        progress.emit(
                                            ProgressKind::Incumbent,
                                            stats.nodes,
                                            Some(obj),
                                        );
                                    }
                                } else {
                                    stats.lazy_constraints += cuts.len();
                                    apply_cuts(
                                        cuts,
                                        &mut rows,
                                        &mut lazy_pool,
                                        &mut best,
                                        &to_lp_row,
                                    );
                                }
                            }
                        }
                        // Branch: both children share this node's final
                        // basis and inherit its LP objective as their
                        // bound. The side nearer the LP value gets the
                        // smaller id, so bound ties explore it first.
                        let x = full[j];
                        let mut down = item.node.fixes.clone();
                        down.push((j, false));
                        let mut up = item.node.fixes;
                        up.push((j, true));
                        let (near, far) = if x >= 0.5 { (up, down) } else { (down, up) };
                        frontier.push(Node {
                            bound: node_obj,
                            id: next_id,
                            fixes: near,
                            basis: node_basis.clone(),
                        });
                        frontier.push(Node {
                            bound: node_obj,
                            id: next_id + 1,
                            fixes: far,
                            basis: node_basis,
                        });
                        next_id += 2;
                    }
                }
            }
        }

        match best {
            Some((values, obj)) => {
                // Final consistency check against lazy pool and model.
                debug_assert!(model.violated_constraints(&values, 1e-5).is_empty());
                Ok((values, obj))
            }
            None => Err(SolveError::Infeasible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test observer: records every event verbatim.
    #[derive(Default)]
    struct Recorder {
        events: Vec<ProgressEvent>,
    }

    impl ProgressObserver for Recorder {
        fn on_event(&mut self, event: &ProgressEvent) {
            self.events.push(event.clone());
        }
    }

    #[test]
    fn observer_sees_incumbent_final_and_monotone_gap() {
        // Knapsack (below): branching is required, so the search finds
        // at least one incumbent after the root bound is known.
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint(
            LinExpr::new() + (a, 3.0) + (b, 4.0) + (c, 2.0),
            Relation::Le,
            6.0,
        );
        m.set_objective(LinExpr::new() + (a, -10.0) + (b, -13.0) + (c, -7.0));
        let mut rec = Recorder::default();
        let s = BranchAndBound::new()
            .with_progress_stride(1)
            .solve_observed(&m, &mut rec)
            .expect("feasible");

        let events = &rec.events;
        assert!(!events.is_empty());
        let last = events.last().unwrap();
        assert_eq!(
            last.kind,
            ProgressKind::Final,
            "final event closes the stream"
        );
        assert_eq!(last.incumbent, Some(s.objective()));
        assert_eq!(last.nodes, s.stats().nodes);
        assert!(
            events.iter().any(|e| e.kind == ProgressKind::Incumbent),
            "at least one incumbent event"
        );
        // Stride 1: every node ticks.
        let strides = events
            .iter()
            .filter(|e| e.kind == ProgressKind::Stride)
            .count();
        assert!(strides >= s.stats().nodes, "strides={strides}");
        // The bound never decreases, elapsed and nodes never regress,
        // and the gap is monotone non-increasing once reported.
        let mut prev_gap = f64::INFINITY;
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_nodes = 0;
        for e in events {
            if let Some(bound) = e.best_bound {
                assert!(bound >= prev_bound - 1e-9, "bound regressed");
                prev_bound = bound;
            }
            if let Some(gap) = e.gap {
                assert!(gap <= prev_gap + 1e-12, "gap regressed: {gap} > {prev_gap}");
                prev_gap = gap;
            }
            assert!(e.nodes >= prev_nodes);
            prev_nodes = e.nodes;
        }
        assert_eq!(prev_gap, 0.0, "exact solve closes the gap");
    }

    #[test]
    fn warm_start_reports_an_incumbent_event_even_when_optimal() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(LinExpr::new() + (x, 1.0));
        let mut rec = Recorder::default();
        let s = BranchAndBound::new()
            .with_incumbent(vec![0.0], 0.0)
            .solve_observed(&m, &mut rec)
            .expect("feasible");
        assert_eq!(s.stats().incumbent_updates, 0, "warm start stays optimal");
        let first = &rec.events[0];
        assert_eq!(first.kind, ProgressKind::Incumbent);
        assert_eq!(first.nodes, 0, "warm start accepted before node 1");
        assert_eq!(first.incumbent, Some(0.0));
    }

    #[test]
    fn unobserved_solves_reach_no_sink() {
        let _lock = xring_obs::test_guard();
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Count(AtomicU64);
        impl crate::progress::ProgressSink for Count {
            fn emit(&self, _: u64, _: &ProgressEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(LinExpr::new() + (x, 1.0));
        // No sink, no observer: nothing to receive events.
        crate::progress::clear_sink();
        BranchAndBound::new().solve(&m).expect("feasible");
        // Sink installed: the same solve streams tagged events.
        let sink = std::sync::Arc::new(Count(AtomicU64::new(0)));
        crate::progress::install_sink(sink.clone());
        BranchAndBound::new().solve(&m).expect("feasible");
        crate::progress::clear_sink();
        assert!(
            sink.0.load(Ordering::Relaxed) >= 1,
            "sink alone activates telemetry"
        );
    }

    /// A model that needs real branching: 8-item knapsack.
    fn branching_model() -> Model {
        let mut m = Model::new();
        let w = [3.0, 4.0, 2.0, 5.0, 6.0, 1.0, 4.0, 3.0];
        let p = [10.0, 13.0, 7.0, 16.0, 19.0, 4.0, 12.0, 9.0];
        let vars: Vec<_> = (0..8).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut cap = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            cap += (v, w[i]);
            obj += (v, -p[i]);
        }
        m.add_constraint(cap, Relation::Le, 12.0);
        m.set_objective(obj);
        m
    }

    #[test]
    fn parallel_search_is_deterministic_across_thread_counts() {
        let m = branching_model();
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut rec = Recorder::default();
            let s = BranchAndBound::new()
                .with_solver_threads(threads)
                .with_progress_stride(1)
                .solve_observed(&m, &mut rec)
                .expect("feasible");
            runs.push((threads, s, rec.events));
        }
        let (_, base, base_events) = &runs[0];
        for (threads, s, events) in &runs[1..] {
            assert_eq!(
                s.objective(),
                base.objective(),
                "objective differs at {threads} threads"
            );
            assert_eq!(
                s.values(),
                base.values(),
                "design bytes differ at {threads} threads"
            );
            assert_eq!(s.stats(), base.stats(), "stats differ at {threads} threads");
            assert_eq!(
                events.len(),
                base_events.len(),
                "event count differs at {threads} threads"
            );
            for (e, b) in events.iter().zip(base_events) {
                // Everything except wall-clock `elapsed` is pinned.
                assert_eq!(e.kind, b.kind);
                assert_eq!(e.nodes, b.nodes);
                assert_eq!(e.incumbent, b.incumbent);
                assert_eq!(e.best_bound, b.best_bound);
                assert_eq!(e.gap, b.gap);
            }
        }
    }

    #[test]
    fn parallel_search_with_lazy_cuts_is_deterministic() {
        // Lazy cuts force re-queues; the merge order must still pin
        // the outcome across thread counts.
        let solve_at = |threads: usize| {
            let m = branching_model();
            let first3: Vec<VarId> = m.binary_vars().iter().take(3).copied().collect();
            BranchAndBound::new()
                .with_solver_threads(threads)
                .solve_with_lazy(&m, |vals| {
                    if first3.iter().map(|v| vals[v.index()]).sum::<f64>() > 2.5 {
                        let mut cut = LinExpr::new();
                        for &v in &first3 {
                            cut += (v, 1.0);
                        }
                        vec![(cut, Relation::Le, 2.0)]
                    } else {
                        Vec::new()
                    }
                })
                .expect("feasible")
        };
        let base = solve_at(1);
        for threads in [2usize, 8] {
            let s = solve_at(threads);
            assert_eq!(s.objective(), base.objective());
            assert_eq!(s.values(), base.values());
            assert_eq!(s.stats(), base.stats());
        }
    }

    #[test]
    fn root_rounding_seeds_an_incumbent_on_fractional_roots() {
        // Fractional root LP whose rounding is feasible: the heuristic
        // must register an incumbent before any branching happens.
        let m = branching_model();
        let mut rec = Recorder::default();
        let s = BranchAndBound::new()
            .solve_observed(&m, &mut rec)
            .expect("feasible");
        let first_incumbent = rec
            .events
            .iter()
            .find(|e| e.kind == ProgressKind::Incumbent)
            .expect("incumbent event");
        assert_eq!(
            first_incumbent.nodes, 1,
            "rounding fires at the root, before branching"
        );
        assert!((s.objective() + 40.0).abs() < 1e-6, "obj={}", s.objective());
    }

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6   => min negated
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_constraint(
            LinExpr::new() + (a, 3.0) + (b, 4.0) + (c, 2.0),
            Relation::Le,
            6.0,
        );
        m.set_objective(LinExpr::new() + (a, -10.0) + (b, -13.0) + (c, -7.0));
        let s = BranchAndBound::new().solve(&m).expect("feasible");
        // Best: b + c = 20 (weight 6). a + c = 17, a alone 10.
        assert!((s.objective() + 20.0).abs() < 1e-6, "obj={}", s.objective());
        assert!(s.is_set(b) && s.is_set(c) && !s.is_set(a));
    }

    #[test]
    fn infeasible_model() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.add_constraint(LinExpr::new() + (x, 1.0), Relation::Ge, 2.0);
        match BranchAndBound::new().solve(&m) {
            Err(SolveError::Infeasible) => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn set_partition() {
        // Choose exactly one of three options, minimize cost.
        let mut m = Model::new();
        let v: Vec<_> = (0..3).map(|i| m.add_binary(format!("v{i}"))).collect();
        m.add_constraint(LinExpr::sum(v.clone()), Relation::Eq, 1.0);
        m.set_objective(LinExpr::new() + (v[0], 5.0) + (v[1], 3.0) + (v[2], 9.0));
        let s = BranchAndBound::new().solve(&m).expect("feasible");
        assert!(s.is_set(v[1]));
        assert!((s.objective() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min y  s.t. y >= 1.5 - x, y >= x - 0.5, x binary, y >= 0.
        // x=1 -> y >= 0.5 ; x=0 -> y >= 1.5. Optimal: x=1, y=0.5.
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_continuous(0.0, f64::INFINITY, "y");
        m.add_constraint(LinExpr::new() + (y, 1.0) + (x, 1.0), Relation::Ge, 1.5);
        m.add_constraint(LinExpr::new() + (y, 1.0) + (x, -1.0), Relation::Ge, -0.5);
        m.set_objective(LinExpr::new() + (y, 1.0));
        let s = BranchAndBound::new().solve(&m).expect("feasible");
        assert!(s.is_set(x));
        assert!((s.value(y) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lazy_constraints_cut_off_candidates() {
        // min -(a+b+c); lazily forbid "all three set".
        let mut m = Model::new();
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.set_objective(LinExpr::new() + (a, -1.0) + (b, -1.0) + (c, -1.0));
        let s = BranchAndBound::new()
            .solve_with_lazy(&m, |vals| {
                if vals.iter().take(3).sum::<f64>() > 2.5 {
                    vec![(LinExpr::sum([a, b, c]), Relation::Le, 2.0)]
                } else {
                    Vec::new()
                }
            })
            .expect("feasible");
        assert!((s.objective() + 2.0).abs() < 1e-6);
        assert!(s.stats().lazy_constraints >= 1);
    }

    #[test]
    fn expired_deadline_interrupts_even_with_incumbent() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(LinExpr::new() + (x, 1.0));
        let solver = BranchAndBound::new()
            .with_incumbent(vec![0.0], 0.0)
            .with_deadline(Some(Instant::now()));
        match solver.solve(&m) {
            Err(SolveError::Interrupted { nodes }) => assert!(nodes <= 1),
            other => panic!("expected interrupted, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_interrupt() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(LinExpr::new() + (x, 1.0));
        let far = Instant::now() + std::time::Duration::from_secs(3_600);
        let s = BranchAndBound::new()
            .with_deadline(Some(far))
            .solve(&m)
            .expect("feasible");
        assert!((s.objective() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_incumbent_is_a_typed_error() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(LinExpr::new() + (x, 1.0));
        let solver = BranchAndBound::new().with_incumbent(vec![0.0, 1.0], 0.0);
        match solver.solve(&m) {
            Err(SolveError::InvalidModel { detail }) => {
                assert!(detail.contains("incumbent"), "{detail}");
            }
            other => panic!("expected invalid-model error, got {other:?}"),
        }
    }

    #[test]
    fn incumbent_warm_start_preserved_when_optimal() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(LinExpr::new() + (x, 1.0));
        // Incumbent x=0, obj=0 — already optimal.
        let s = BranchAndBound::new()
            .with_incumbent(vec![0.0], 0.0)
            .solve(&m)
            .expect("feasible");
        assert!((s.objective() - 0.0).abs() < 1e-9);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // matrix-style indices
    fn tiny_tsp_assignment_with_subtour_cuts() {
        // 4-city symmetric TSP via assignment + lazy subtour elimination.
        let d = [
            [0.0, 1.0, 9.0, 9.0],
            [1.0, 0.0, 1.0, 9.0],
            [9.0, 1.0, 0.0, 1.0],
            [1.0, 9.0, 1.0, 0.0],
        ];
        let mut m = Model::new();
        let mut var = vec![vec![None; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    var[i][j] = Some(m.add_binary(format!("e{i}{j}")));
                }
            }
        }
        let mut obj = LinExpr::new();
        for i in 0..4 {
            let out: Vec<_> = (0..4).filter_map(|j| var[i][j]).collect();
            let inn: Vec<_> = (0..4).filter_map(|j| var[j][i]).collect();
            m.add_constraint(LinExpr::sum(out), Relation::Eq, 1.0);
            m.add_constraint(LinExpr::sum(inn), Relation::Eq, 1.0);
            for j in 0..4 {
                if let Some(v) = var[i][j] {
                    obj += (v, d[i][j]);
                }
            }
        }
        m.set_objective(obj);
        let var_clone = var.clone();
        let s = BranchAndBound::new()
            .solve_with_lazy(&m, move |vals| {
                // Find a subtour; forbid it.
                let next = |i: usize| {
                    (0..4).find(|&j| {
                        var_clone[i][j]
                            .map(|v| vals[v.index()] > 0.5)
                            .unwrap_or(false)
                    })
                };
                let mut seen = [false; 4];
                let mut tour = vec![0usize];
                seen[0] = true;
                let mut cur = 0usize;
                while let Some(nx) = next(cur) {
                    if seen[nx] {
                        break;
                    }
                    seen[nx] = true;
                    tour.push(nx);
                    cur = nx;
                }
                if tour.len() == 4 {
                    return Vec::new();
                }
                // Cut: sum of edges inside `tour` <= |tour| - 1.
                let mut cut = LinExpr::new();
                for &i in &tour {
                    for &j in &tour {
                        if let Some(v) = var_clone[i][j] {
                            cut += (v, 1.0);
                        }
                    }
                }
                vec![(cut, Relation::Le, tour.len() as f64 - 1.0)]
            })
            .expect("feasible");
        // Optimal tour 0->1->2->3->0 = 1+1+1+1 = 4.
        assert!((s.objective() - 4.0).abs() < 1e-6, "obj={}", s.objective());
    }
}
