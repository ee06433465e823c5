//! Revised bounded-variable simplex with dual-simplex warm starts.
//!
//! Unlike the dense tableau in [`crate::simplex`], this backend:
//!
//! * keeps the constraint matrix **sparse, column- and row-wise**, in an
//!   `LpWorkspace` that a branch-and-bound search builds once from the
//!   model rows and extends in place with lazy cuts; every node solve
//!   passes only its bound vectors and warm [`Basis`];
//! * maintains the basis behind the [`crate::factor::Factorization`]
//!   trait — by default a sparse LU with a bounded eta file and periodic
//!   refactorization ([`crate::factor::SparseLu`]), with the original
//!   dense `B⁻¹` ([`crate::factor::DenseEta`]) kept as the reference
//!   representation;
//! * prices entering columns through the [`crate::pricing::Pricing`]
//!   trait (Dantzig by default, devex and partial pricing selectable per
//!   backend via [`RevisedConfig`]);
//! * treats `lb ≤ x ≤ ub` **natively**: a nonbasic variable rests at its
//!   lower or upper bound and may *bound-flip* without a basis change,
//!   so finite upper bounds cost no extra rows (the all-binary XRing
//!   models roughly halve their row count);
//! * supports **warm starts**: a child branch-and-bound node differs
//!   from its parent only in one variable's bounds, so the parent's
//!   optimal basis stays dual feasible (after flipping nonbasic
//!   statuses, always possible for bounded binaries) and a short dual
//!   simplex run restores primal feasibility instead of a cold
//!   two-phase solve. Appended lazy-cut rows extend the basis with
//!   their logicals basic; adoption refactorizes the extended basis
//!   directly (the exported [`Basis`] carries no factorization);
//! * forms the dual ratio test's pivot row `ρᵣᵀA` **row-wise** over the
//!   nonzeros of `ρᵣ`, summing each column's terms in increasing row
//!   order, so every entry equals the column dot product bit for bit;
//! * honours a **deadline** inside the pivot loop, checked every
//!   32 iterations (`DEADLINE_STRIDE`), and reports an expired one as
//!   [`LpOutcome::Interrupted`].
//!
//! Every row `i` gets a logical variable `n + i` (`Ge` rows are negated
//! to `Le` first, so logicals always have coefficient `+1` and bounds
//! `[0, ∞)` for inequalities, `[0, 0]` for equalities). Cold solves
//! start from the all-logical basis: when flipping nonbasic variables
//! restores dual feasibility (always, for the ring models' nonnegative
//! objectives) the dual simplex runs directly; otherwise a composite
//! primal phase 1 drives out infeasibility first. One-off solves
//! through [`LpBackend`] build a workspace and solve once.

use crate::backend::{record_counters, BackendSolve, Basis, LpBackend, SolveTelemetry};
use crate::factor::{FactorCtx, Factorization, FactorizationKind};
use crate::model::Relation;
use crate::pricing::{Pricing, PricingKind};
use crate::simplex::{LpOutcome, LpProblem, LpSolution, EPS};
use std::time::Instant;

/// Primal feasibility tolerance on the scaled rows.
const PFEAS: f64 = 1e-7;
/// Minimum pivot magnitude accepted in either ratio test.
const PIVOT_TOL: f64 = 1e-7;
/// Dual feasibility tolerance on the scaled reduced costs.
const DTOL: f64 = 1e-9;
/// Default factorization updates between refactorizations.
const REFACTOR_INTERVAL: usize = 100;
/// Simplex iterations between two deadline checks, in this kernel and
/// in the dense tableau. One check reads the clock (≤ 45 ns on the
/// 2-core x86-64 reference host, TSC clocksource); a pivot of the
/// 16-node ring MILPs costs ~9 µs in all (E18). Checking every 32nd
/// iteration costs under 0.02 % of the pivot loop, and an expired
/// deadline still stops a solve within 32 iterations.
pub(crate) const DEADLINE_STRIDE: usize = 32;

/// Configured revised simplex: factorization and pricing selectable per
/// backend instance. [`RevisedSimplex`] is the all-defaults shorthand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevisedConfig {
    /// Basis factorization (default [`FactorizationKind::SparseLu`]).
    pub factorization: FactorizationKind,
    /// Primal pricing rule (default [`PricingKind::Dantzig`]).
    pub pricing: PricingKind,
    /// Factorization updates absorbed before a refactorization (numeric
    /// hygiene). Lower values trade speed for stability; the
    /// differential suite exercises forced cadences down to 1.
    pub refactor_interval: usize,
}

impl Default for RevisedConfig {
    fn default() -> Self {
        RevisedConfig {
            factorization: FactorizationKind::default(),
            pricing: PricingKind::default(),
            refactor_interval: REFACTOR_INTERVAL,
        }
    }
}

impl RevisedConfig {
    /// Selects the basis factorization.
    pub fn with_factorization(mut self, kind: FactorizationKind) -> Self {
        self.factorization = kind;
        self
    }

    /// Selects the pricing rule.
    pub fn with_pricing(mut self, kind: PricingKind) -> Self {
        self.pricing = kind;
        self
    }

    /// Overrides the refactorization cadence (minimum 1).
    pub fn with_refactor_interval(mut self, interval: usize) -> Self {
        self.refactor_interval = interval.max(1);
        self
    }
}

impl LpBackend for RevisedConfig {
    fn name(&self) -> &'static str {
        "revised"
    }

    fn solve(&self, lp: &LpProblem) -> BackendSolve {
        LpWorkspace::from_problem(*self, lp).solve(&lp.lb, &lp.ub, None)
    }

    fn solve_warm(&self, lp: &LpProblem, warm: &Basis) -> BackendSolve {
        LpWorkspace::from_problem(*self, lp).solve(&lp.lb, &lp.ub, Some(warm))
    }
}

/// The revised bounded-variable simplex backend with all-default
/// configuration (sparse LU, Dantzig pricing). Use [`RevisedConfig`] to
/// select other factorizations or pricing rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct RevisedSimplex;

impl LpBackend for RevisedSimplex {
    fn name(&self) -> &'static str {
        "revised"
    }

    fn solve(&self, lp: &LpProblem) -> BackendSolve {
        RevisedConfig::default().solve(lp)
    }

    fn solve_warm(&self, lp: &LpProblem, warm: &Basis) -> BackendSolve {
        RevisedConfig::default().solve_warm(lp, warm)
    }
}

const NONE: usize = usize::MAX;

/// One LP family's revised-simplex state: the scaled constraint matrix,
/// built once and extended in place by [`add_row`](Self::add_row), and
/// the per-solve basis, factorization and iteration buffers that every
/// [`solve`](Self::solve) reuses. A branch-and-bound search keeps one
/// per worker thread; each solve is a pure function of the rows, the
/// bounds and the warm basis it is given.
#[derive(Debug)]
pub(crate) struct LpWorkspace {
    config: RevisedConfig,
    deadline: Option<Instant>,
    n: usize,
    m: usize,
    /// n + m: structural variables then one logical per row.
    nt: usize,
    /// Scaled sparse columns of the structural variables. Rows are
    /// scaled by a signed factor (negative for `Ge` rows, which are
    /// normalized to `Le`).
    cols: Vec<Vec<(usize, f64)>>,
    /// The same scaled coefficients row by row, `(variable, value)` in
    /// the row's term order.
    rows: Vec<Vec<(usize, f64)>>,
    /// Structural bounds of the current solve, then the logical bounds.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Unscaled objective, for the reported objective value.
    objective: Vec<f64>,
    /// Scaled objective (zero on logicals).
    cost: Vec<f64>,
    /// Scaled right-hand sides.
    rhs: Vec<f64>,
    basic: Vec<usize>,
    /// Variable → basis row, `NONE` when nonbasic.
    pos: Vec<usize>,
    at_upper: Vec<bool>,
    /// Basic variable values, indexed by basis row.
    xb: Vec<f64>,
    /// Pluggable basis factorization (dense `B⁻¹` or sparse LU).
    factor: Box<dyn Factorization>,
    /// The pricing rule, reset at the start of every solve.
    pricing: Option<Box<dyn Pricing>>,
    pivots: usize,
    degenerate: usize,
    refactorizations: usize,
    /// Worst LU fill-in observed across this solve's refactorizations.
    max_fill: usize,
    iterations: usize,
    iteration_limit: usize,
    bland_threshold: usize,
    /// Leaky-bucket stall score: +2 per step without primal or dual
    /// progress, −1 per progressing step. At `stall_limit` the pivot
    /// rules switch to Bland until the score drains (much earlier than
    /// the global `bland_threshold`, so a degenerate cycle — even one
    /// interleaved with near-zero "progress" steps — costs hundreds of
    /// iterations, not thousands).
    stalled: usize,
    stall_limit: usize,
    /// Per-iteration vectors, reused across iterations and solves:
    /// `y = c_Bᵀ B⁻¹`, the pivot row `ρᵣ = eᵣᵀ B⁻¹`, its structural
    /// image `ρᵣᵀA`, the entering column `α = B⁻¹ a_q`, and scratch.
    y: Vec<f64>,
    rho: Vec<f64>,
    rho_a: Vec<f64>,
    alpha: Vec<f64>,
    scratch: Vec<f64>,
    /// The unscaled rows, kept so the tests can replay every solve
    /// through the per-call reference solver.
    #[cfg(test)]
    raw_rows: Vec<crate::simplex::LpRow>,
}

impl LpWorkspace {
    /// An empty workspace over `objective.len()` structural variables.
    pub(crate) fn new(config: RevisedConfig, objective: &[f64]) -> Self {
        let n = objective.len();
        let obj_scale = {
            let maxc = objective.iter().map(|c| c.abs()).fold(0.0f64, f64::max);
            if maxc > 1e-12 {
                1.0 / maxc
            } else {
                1.0
            }
        };
        LpWorkspace {
            config,
            deadline: None,
            n,
            m: 0,
            nt: n,
            cols: vec![Vec::new(); n],
            rows: Vec::new(),
            lower: vec![0.0; n],
            upper: vec![0.0; n],
            objective: objective.to_vec(),
            cost: objective.iter().map(|obj| obj * obj_scale).collect(),
            rhs: Vec::new(),
            basic: Vec::new(),
            pos: Vec::new(),
            at_upper: Vec::new(),
            xb: Vec::new(),
            factor: config.factorization.build(0),
            pricing: None,
            pivots: 0,
            degenerate: 0,
            refactorizations: 0,
            max_fill: 0,
            iterations: 0,
            iteration_limit: 0,
            bland_threshold: 0,
            stalled: 0,
            stall_limit: 0,
            y: Vec::new(),
            rho: Vec::new(),
            rho_a: Vec::new(),
            alpha: Vec::new(),
            scratch: Vec::new(),
            #[cfg(test)]
            raw_rows: Vec::new(),
        }
    }

    /// A workspace holding `lp`'s objective and rows (its bounds are
    /// passed to [`solve`](Self::solve)).
    pub(crate) fn from_problem(config: RevisedConfig, lp: &LpProblem) -> Self {
        assert_eq!(lp.objective.len(), lp.num_vars);
        let mut ws = LpWorkspace::new(config, &lp.objective);
        for r in &lp.rows {
            ws.add_row(&r.terms, r.relation, r.rhs);
        }
        ws
    }

    /// Sets the wall-clock deadline every later solve checks in its
    /// pivot loop (`None` = unbounded).
    pub(crate) fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Rows added so far.
    pub(crate) fn num_rows(&self) -> usize {
        self.m
    }

    /// Appends one constraint row in place: scales it, extends the
    /// column and row copies, and adds its logical variable.
    pub(crate) fn add_row(&mut self, terms: &[(usize, f64)], relation: Relation, rhs: f64) {
        let i = self.m;
        let maxc = terms
            .iter()
            .map(|&(_, c)| c.abs())
            .fold(0.0f64, f64::max)
            .max(rhs.abs());
        let scale = if maxc > 1e-12 { 1.0 / maxc } else { 1.0 };
        let factor = if relation == Relation::Ge {
            -scale
        } else {
            scale
        };
        let mut row = Vec::with_capacity(terms.len());
        for &(j, c) in terms {
            assert!(j < self.n, "row references unknown variable {j}");
            let v = c * factor;
            self.cols[j].push((i, v));
            row.push((j, v));
        }
        self.rows.push(row);
        self.rhs.push(rhs * factor);
        // Logical bounds: inequalities (Le, and Ge-negated-to-Le) get a
        // slack in [0, ∞); equalities a fixed slack at 0.
        self.lower.push(0.0);
        self.upper.push(if relation == Relation::Eq {
            0.0
        } else {
            f64::INFINITY
        });
        self.cost.push(0.0);
        self.m += 1;
        self.nt += 1;
        #[cfg(test)]
        self.raw_rows.push(crate::simplex::LpRow {
            terms: terms.to_vec(),
            relation,
            rhs,
        });
    }

    /// Solves the LP under the structural bounds `lb ≤ x ≤ ub`, warm
    /// from `warm` when it adopts (an earlier optimal basis of this
    /// workspace, possibly with fewer rows), cold otherwise.
    pub(crate) fn solve(&mut self, lb: &[f64], ub: &[f64], warm: Option<&Basis>) -> BackendSolve {
        let (n, m) = (self.n, self.m);
        assert_eq!(lb.len(), n);
        assert_eq!(ub.len(), n);
        for j in 0..n {
            assert!(lb[j].is_finite(), "lower bounds must be finite");
            assert!(ub[j] >= lb[j] - EPS, "ub < lb for var {j}");
            self.lower[j] = lb[j];
            self.upper[j] = ub[j].max(lb[j]);
        }
        self.pivots = 0;
        self.degenerate = 0;
        self.refactorizations = 0;
        self.max_fill = 0;
        self.iterations = 0;
        self.iteration_limit = 20_000 + 200 * (m + n);
        self.bland_threshold = 5_000 + 20 * (m + n);
        self.stalled = 0;
        self.stall_limit = 100 + m;

        let warmed = warm.is_some_and(|basis| self.adopt_basis(basis));
        if !warmed {
            self.set_initial_basis();
        }
        let mut pricing = self
            .pricing
            .take()
            .unwrap_or_else(|| self.config.pricing.build(self.nt));
        let outcome = self.run(pricing.as_mut(), lb, ub);
        self.pricing = Some(pricing);

        let basis = match outcome {
            LpOutcome::Optimal(_) => Some(self.export_basis()),
            _ => None,
        };
        record_counters(
            "revised",
            SolveTelemetry {
                pivots: self.pivots,
                degenerate: self.degenerate,
                warmed,
                refactorizations: self.refactorizations,
                fill_in: self.max_fill,
            },
        );
        #[cfg(test)]
        oracle::record(self, lb, ub, warm, &outcome, basis.as_ref(), warmed);
        BackendSolve {
            outcome,
            basis,
            warmed,
        }
    }

    fn set_initial_basis(&mut self) {
        self.basic.clear();
        self.basic.extend(self.n..self.nt);
        self.pos.clear();
        self.pos.resize(self.nt, NONE);
        for (i, &b) in self.basic.iter().enumerate() {
            self.pos[b] = i;
        }
        self.at_upper.clear();
        self.at_upper.resize(self.nt, false);
        self.factor.reset_identity(self.m);
    }

    /// Adopts a basis exported by an earlier solve of this problem
    /// family (same rows, possibly appended rows, different bounds) by
    /// refactorizing its basic set against this problem's columns.
    /// Returns false — leaving the basis unconfigured — when the
    /// snapshot cannot apply (or its basis is singular here).
    fn adopt_basis(&mut self, warm: &Basis) -> bool {
        if warm.num_vars != self.n || warm.num_rows > self.m {
            return false;
        }
        if warm.basic.len() != warm.num_rows || warm.at_upper.len() != warm.num_vars + warm.num_rows
        {
            return false;
        }
        let old_m = warm.num_rows;
        let old_nt = self.n + old_m;
        self.pos.clear();
        self.pos.resize(self.nt, NONE);
        for (i, &b) in warm.basic.iter().enumerate() {
            if b >= old_nt || self.pos[b] != NONE {
                return false;
            }
            self.pos[b] = i;
        }
        self.basic.clear();
        self.basic.extend_from_slice(&warm.basic);
        self.at_upper.clear();
        self.at_upper.resize(self.nt, false);
        self.at_upper[..self.n].copy_from_slice(&warm.at_upper[..self.n]);
        self.at_upper[self.n..old_nt].copy_from_slice(&warm.at_upper[self.n..]);
        // Appended rows (lazy cuts): their logicals join the basis; the
        // refactorization below factors the extended basis directly.
        for i in old_m..self.m {
            self.basic.push(self.n + i);
            self.pos[self.n + i] = i;
        }
        let ctx = FactorCtx {
            n: self.n,
            m: self.m,
            cols: &self.cols,
        };
        if !self.factor.refresh(&ctx, &self.basic) {
            return false;
        }
        self.refactorizations += 1;
        self.max_fill = self.max_fill.max(self.factor.fill_in());
        true
    }

    fn export_basis(&self) -> Basis {
        Basis {
            num_vars: self.n,
            num_rows: self.m,
            basic: self.basic.clone(),
            at_upper: self.at_upper.clone(),
        }
    }

    fn run(&mut self, pricing: &mut dyn Pricing, lb: &[f64], ub: &[f64]) -> LpOutcome {
        pricing.reset(self.nt);
        self.compute_xb();
        let dual_feasible = self.make_dual_feasible();
        if dual_feasible {
            if let Err(out) = self.dual_simplex() {
                return out;
            }
        } else if let Err(out) = self.primal_phase1(pricing) {
            return out;
        }
        // Primal optimization / cleanup. After a successful dual run
        // this typically performs zero pivots.
        if let Err(out) = self.primal_phase2(pricing) {
            return out;
        }
        self.extract(lb, ub)
    }

    /// Nonbasic resting value of variable `j`.
    fn nb_value(&self, j: usize) -> f64 {
        if self.at_upper[j] && self.upper[j].is_finite() {
            self.upper[j]
        } else {
            self.lower[j]
        }
    }

    fn span(&self, j: usize) -> f64 {
        self.upper[j] - self.lower[j]
    }

    /// Recomputes `xb = B⁻¹ (b − N x_N)` from scratch.
    fn compute_xb(&mut self) {
        let mut r = std::mem::take(&mut self.scratch);
        r.clear();
        r.extend_from_slice(&self.rhs);
        for j in 0..self.n {
            if self.pos[j] != NONE {
                continue;
            }
            let v = self.nb_value(j);
            if v != 0.0 {
                for &(row, c) in &self.cols[j] {
                    r[row] -= c * v;
                }
            }
        }
        // Nonbasic logicals rest at 0 (inequality slack lb, or the
        // fixed equality slack), contributing nothing.
        self.factor.ftran_dense(&r, &mut self.xb);
        self.scratch = r;
    }

    /// `α = B⁻¹ A_q` for column `q` (structural or logical), into `out`.
    fn ftran(&mut self, q: usize, out: &mut Vec<f64>) {
        if q < self.n {
            self.factor.ftran_sparse(&self.cols[q], out);
        } else {
            self.factor.ftran_unit(q - self.n, out);
        }
    }

    /// Reduced cost of nonbasic `j` given `y`.
    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.n {
            let mut d = self.cost[j];
            for &(row, c) in &self.cols[j] {
                d -= y[row] * c;
            }
            d
        } else {
            -y[j - self.n]
        }
    }

    /// `y = c_Bᵀ B⁻¹` for the true objective, into `self.y`.
    fn objective_y(&mut self) {
        let mut cb = std::mem::take(&mut self.scratch);
        cb.clear();
        cb.extend(self.basic.iter().map(|&b| self.cost[b]));
        self.factor.btran(&cb, &mut self.y);
        self.scratch = cb;
    }

    /// `ρᵣᵀA` over the structural columns into `self.rho_a`, formed row
    /// by row over the nonzeros of `ρᵣ` (`self.rho`). A column's terms
    /// arrive in increasing row order — its column copy's order — and a
    /// skipped row would only have added ±0, so every entry equals the
    /// column dot product `Σ ρᵣ[i]·a_ij` bit for bit.
    fn pivot_row(&mut self) {
        self.rho_a.clear();
        self.rho_a.resize(self.n, 0.0);
        for (&w, row) in self.rho.iter().zip(&self.rows) {
            if w == 0.0 {
                continue;
            }
            for &(j, c) in row {
                self.rho_a[j] += w * c;
            }
        }
    }

    /// Flips nonbasic variables onto the bound their reduced cost
    /// prefers. Returns false when some variable would need an infinite
    /// bound to become dual feasible (then primal phase 1 runs instead).
    fn make_dual_feasible(&mut self) -> bool {
        self.objective_y();
        // Two passes: mutating flags before discovering an impossible
        // flip would leave `at_upper` out of sync with `xb`.
        let mut flips = Vec::new();
        for j in 0..self.nt {
            if self.pos[j] != NONE || self.span(j) <= EPS {
                continue;
            }
            let d = self.reduced_cost(j, &self.y);
            if !self.at_upper[j] && d < -DTOL {
                if !self.upper[j].is_finite() {
                    return false;
                }
                flips.push((j, true));
            } else if self.at_upper[j] && d > DTOL {
                flips.push((j, false));
            }
        }
        if !flips.is_empty() {
            for &(j, up) in &flips {
                self.at_upper[j] = up;
            }
            self.compute_xb();
        }
        true
    }

    /// Absorbs one basis exchange into the factorization (`alpha =
    /// B⁻¹A_q` entered at basis row `r`), refactorizing when the update
    /// is refused or the eta budget is spent.
    fn update_factor(&mut self, r: usize, alpha: &[f64]) {
        let ok = self.factor.update(r, alpha);
        if !ok || self.factor.updates_since_refresh() >= self.config.refactor_interval {
            self.refactorize();
        }
    }

    /// Rebuilds the factorization from the basic columns. Returns false
    /// on a (numerically) singular basis, leaving the previous
    /// factorization in use (a retry is attempted after the next pivot).
    fn refactorize(&mut self) -> bool {
        let ctx = FactorCtx {
            n: self.n,
            m: self.m,
            cols: &self.cols,
        };
        if !self.factor.refresh(&ctx, &self.basic) {
            return false;
        }
        self.refactorizations += 1;
        self.max_fill = self.max_fill.max(self.factor.fill_in());
        self.compute_xb();
        true
    }

    /// Counts one iteration. `Err` past the iteration limit or, checked
    /// every [`DEADLINE_STRIDE`] iterations, past the deadline; `Ok`
    /// says whether the pivot rules should fall back to Bland's.
    fn tick(&mut self) -> Result<bool, LpOutcome> {
        self.iterations += 1;
        if self.iterations > self.iteration_limit {
            return Err(LpOutcome::IterationLimit);
        }
        if self.iterations.is_multiple_of(DEADLINE_STRIDE)
            && self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            return Err(LpOutcome::Interrupted);
        }
        Ok(self.iterations > self.bland_threshold || self.stalled >= self.stall_limit)
    }

    /// Records whether the last step made progress, feeding the
    /// stall-triggered Bland switch in [`Self::tick`].
    fn note_progress(&mut self, progressed: bool) {
        if progressed {
            self.stalled = self.stalled.saturating_sub(1);
        } else {
            self.degenerate += 1;
            self.stalled += 2;
        }
    }

    /// Dual simplex: starting dual feasible, drives out primal bound
    /// violations. `Err(Infeasible)` when a violated row admits no
    /// entering column. The entering choice is a dual ratio test, so
    /// pricing rules do not apply here.
    fn dual_simplex(&mut self) -> Result<(), LpOutcome> {
        loop {
            let bland = self.tick()?;
            // Leaving: most violated basic variable.
            let mut r = NONE;
            let mut worst = PFEAS;
            for i in 0..self.m {
                let b = self.basic[i];
                let viol = (self.lower[b] - self.xb[i]).max(self.xb[i] - self.upper[b]);
                let better = if bland {
                    // Bland: smallest-index violated basic variable.
                    viol > PFEAS && (r == NONE || b < self.basic[r])
                } else {
                    viol > worst
                };
                if better {
                    worst = viol;
                    r = i;
                }
            }
            if r == NONE {
                return Ok(());
            }
            let l = self.basic[r];
            let below = self.xb[r] < self.lower[l];
            self.objective_y();
            self.factor.row(r, &mut self.rho);
            self.pivot_row();

            // Entering: dual ratio test over movable nonbasic columns.
            let mut q = NONE;
            let mut q_alpha: f64 = 0.0;
            let mut best_ratio = f64::INFINITY;
            for j in 0..self.nt {
                if self.pos[j] != NONE || self.span(j) <= EPS {
                    continue;
                }
                let a = if j < self.n {
                    self.rho_a[j]
                } else {
                    self.rho[j - self.n]
                };
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };
                // x_B[r] moves at rate −aσ per unit of entering step.
                let rate = -a * sigma;
                let helps = if below { rate > 0.0 } else { rate < 0.0 };
                if !helps {
                    continue;
                }
                let d = self.reduced_cost(j, &self.y);
                let ratio = (d * sigma).max(0.0) / a.abs();
                let better = if bland {
                    ratio < best_ratio - DTOL || (ratio < best_ratio + DTOL && (q == NONE || j < q))
                } else {
                    ratio < best_ratio - DTOL
                        || (ratio < best_ratio + DTOL && a.abs() > q_alpha.abs())
                };
                if better {
                    best_ratio = ratio;
                    q = j;
                    q_alpha = a;
                }
            }
            if q == NONE {
                return Err(LpOutcome::Infeasible);
            }

            let sigma = if self.at_upper[q] { -1.0 } else { 1.0 };
            let target = if below { self.lower[l] } else { self.upper[l] };
            let t = ((self.xb[r] - target) / (q_alpha * sigma)).max(0.0);
            let mut alpha = std::mem::take(&mut self.alpha);
            self.ftran(q, &mut alpha);
            if self.span(q).is_finite() && t > self.span(q) + EPS {
                // The entering column hits its own opposite bound first:
                // bound flip, no basis change.
                let step = self.span(q);
                for (x, &a) in self.xb.iter_mut().zip(&alpha) {
                    *x -= sigma * step * a;
                }
                self.alpha = alpha;
                self.at_upper[q] = !self.at_upper[q];
                self.pivots += 1;
                // A flip along a zero reduced cost advances neither
                // bound — classic dual-degenerate cycling material.
                self.note_progress(best_ratio > DTOL);
                continue;
            }
            for (x, &a) in self.xb.iter_mut().zip(&alpha) {
                *x -= sigma * t * a;
            }
            self.xb[r] = self.nb_value(q) + sigma * t;
            self.pos[l] = NONE;
            self.at_upper[l] = !below;
            self.basic[r] = q;
            self.pos[q] = r;
            self.pivots += 1;
            // Dual progress is the dual-objective gain `violation *
            // ratio`; a positive primal step `t` alone proves nothing
            // (a dual cycle moves `x_B` every iteration).
            self.note_progress(best_ratio > DTOL);
            self.update_factor(r, &alpha);
            self.alpha = alpha;
        }
    }

    /// Composite primal phase 1: minimizes total bound violation of the
    /// basic variables. `Err(Infeasible)` when no improving column
    /// exists while violation remains.
    fn primal_phase1(&mut self, pricing: &mut dyn Pricing) -> Result<(), LpOutcome> {
        loop {
            let bland = self.tick()?;
            let mut infeasible = false;
            let mut cb = std::mem::take(&mut self.scratch);
            cb.clear();
            cb.resize(self.m, 0.0);
            for (i, ci) in cb.iter_mut().enumerate() {
                let b = self.basic[i];
                if self.xb[i] < self.lower[b] - PFEAS {
                    *ci = -1.0;
                    infeasible = true;
                } else if self.xb[i] > self.upper[b] + PFEAS {
                    *ci = 1.0;
                    infeasible = true;
                }
            }
            if !infeasible {
                self.scratch = cb;
                return Ok(());
            }
            self.factor.btran(&cb, &mut self.y);
            self.scratch = cb;
            // Entering: improvement rate of the auxiliary objective (the
            // auxiliary cost of every nonbasic column is zero).
            let aux_rate = |s: &Self, j: usize| -> Option<f64> {
                if s.pos[j] != NONE || s.span(j) <= EPS {
                    return None;
                }
                let d = -{
                    if j < s.n {
                        let mut acc = 0.0;
                        for &(row, c) in &s.cols[j] {
                            acc += s.y[row] * c;
                        }
                        acc
                    } else {
                        s.y[j - s.n]
                    }
                };
                let sigma = if s.at_upper[j] { -1.0 } else { 1.0 };
                let improve = d * sigma;
                (improve < -DTOL).then_some(improve)
            };
            let q = if bland {
                (0..self.nt).find(|&j| aux_rate(self, j).is_some())
            } else {
                pricing.select(self.nt, &mut |j| aux_rate(self, j))
            };
            let Some(q) = q else {
                return Err(LpOutcome::Infeasible);
            };
            let sigma = if self.at_upper[q] { -1.0 } else { 1.0 };
            let mut alpha = std::mem::take(&mut self.alpha);
            self.ftran(q, &mut alpha);
            let stepped = self.phase1_step(q, sigma, &alpha, pricing);
            self.alpha = alpha;
            stepped?;
        }
    }

    /// Ratio test + pivot for one phase-1 iteration.
    fn phase1_step(
        &mut self,
        q: usize,
        sigma: f64,
        alpha: &[f64],
        pricing: &mut dyn Pricing,
    ) -> Result<(), LpOutcome> {
        let mut t_best = if self.span(q).is_finite() {
            self.span(q)
        } else {
            f64::INFINITY
        };
        let mut blocking = NONE;
        let mut blocking_alpha: f64 = 0.0;
        for (i, &ai) in alpha.iter().enumerate() {
            let delta = -sigma * ai;
            if delta.abs() <= PIVOT_TOL {
                continue;
            }
            let b = self.basic[i];
            let (lo, hi) = (self.lower[b], self.upper[b]);
            let t = if self.xb[i] < lo - PFEAS {
                // Infeasible below: blocks only when it reaches lo.
                if delta > 0.0 {
                    (lo - self.xb[i]) / delta
                } else {
                    continue;
                }
            } else if self.xb[i] > hi + PFEAS {
                if delta < 0.0 {
                    (self.xb[i] - hi) / -delta
                } else {
                    continue;
                }
            } else if delta < 0.0 {
                if lo.is_finite() {
                    (self.xb[i] - lo) / -delta
                } else {
                    continue;
                }
            } else if hi.is_finite() {
                (hi - self.xb[i]) / delta
            } else {
                continue;
            };
            let t = t.max(0.0);
            if t < t_best - EPS
                || (t < t_best + EPS && (blocking == NONE || ai.abs() > blocking_alpha.abs()))
            {
                t_best = t;
                blocking = i;
                blocking_alpha = ai;
            }
        }
        if t_best.is_infinite() {
            // Total violation decreases forever yet is bounded below by
            // zero — numerical trouble.
            return Err(LpOutcome::IterationLimit);
        }
        self.apply_primal_step(q, sigma, t_best, blocking, alpha, pricing);
        Ok(())
    }

    /// Primal phase 2: standard bounded-variable primal simplex on the
    /// true objective. `Err(Unbounded)` on an unblocked improving ray.
    fn primal_phase2(&mut self, pricing: &mut dyn Pricing) -> Result<(), LpOutcome> {
        loop {
            let bland = self.tick()?;
            self.objective_y();
            let rate = |s: &Self, j: usize| -> Option<f64> {
                if s.pos[j] != NONE || s.span(j) <= EPS {
                    return None;
                }
                let d = s.reduced_cost(j, &s.y);
                let sigma = if s.at_upper[j] { -1.0 } else { 1.0 };
                let improve = d * sigma;
                (improve < -DTOL).then_some(improve)
            };
            let q = if bland {
                (0..self.nt).find(|&j| rate(self, j).is_some())
            } else {
                pricing.select(self.nt, &mut |j| rate(self, j))
            };
            let Some(q) = q else {
                return Ok(());
            };
            let q_sigma = if self.at_upper[q] { -1.0 } else { 1.0 };
            let mut alpha = std::mem::take(&mut self.alpha);
            self.ftran(q, &mut alpha);
            let mut t_best = if self.span(q).is_finite() {
                self.span(q)
            } else {
                f64::INFINITY
            };
            let mut blocking = NONE;
            let mut blocking_alpha: f64 = 0.0;
            for (i, &ai) in alpha.iter().enumerate() {
                let delta = -q_sigma * ai;
                if delta.abs() <= PIVOT_TOL {
                    continue;
                }
                let b = self.basic[i];
                let t = if delta < 0.0 {
                    if self.lower[b].is_finite() {
                        ((self.xb[i] - self.lower[b]) / -delta).max(0.0)
                    } else {
                        continue;
                    }
                } else if self.upper[b].is_finite() {
                    ((self.upper[b] - self.xb[i]) / delta).max(0.0)
                } else {
                    continue;
                };
                if t < t_best - EPS
                    || (t < t_best + EPS && (blocking == NONE || ai.abs() > blocking_alpha.abs()))
                {
                    t_best = t;
                    blocking = i;
                    blocking_alpha = ai;
                }
            }
            if t_best.is_infinite() {
                return Err(LpOutcome::Unbounded);
            }
            self.apply_primal_step(q, q_sigma, t_best, blocking, &alpha, pricing);
            self.alpha = alpha;
        }
    }

    /// Applies a primal step of length `t` on entering column `q`
    /// (direction `sigma`): a basis exchange when a basic variable
    /// blocks, a bound flip when the entering column blocks itself.
    fn apply_primal_step(
        &mut self,
        q: usize,
        sigma: f64,
        t: f64,
        blocking: usize,
        alpha: &[f64],
        pricing: &mut dyn Pricing,
    ) {
        for (x, &a) in self.xb.iter_mut().zip(alpha) {
            *x -= sigma * t * a;
        }
        self.pivots += 1;
        if blocking == NONE {
            // Bound flip across the full span: always real movement.
            self.at_upper[q] = !self.at_upper[q];
            self.note_progress(true);
            return;
        }
        self.note_progress(t > EPS);
        let r = blocking;
        let l = self.basic[r];
        // Devex needs the pivot row of the *outgoing* basis to update
        // its reference weights; compute it before the exchange.
        if pricing.needs_pivot_row() {
            self.factor.row(r, &mut self.rho);
            self.pivot_row();
            let pivot_row = |j: usize| -> f64 {
                if j < self.n {
                    self.rho_a[j]
                } else {
                    self.rho[j - self.n]
                }
            };
            pricing.on_pivot(q, l, alpha[r], Some(&pivot_row));
        } else {
            pricing.on_pivot(q, l, alpha[r], None);
        }
        // The leaving variable exits on the bound it ran into. Phase 1
        // can move an infeasible variable *up* onto its lower bound, so
        // the bound is read off the value, not the direction.
        self.at_upper[l] = self.upper[l].is_finite()
            && (self.xb[r] - self.upper[l]).abs() < (self.xb[r] - self.lower[l]).abs();
        self.pos[l] = NONE;
        self.xb[r] = self.nb_value(q) + sigma * t;
        self.basic[r] = q;
        self.pos[q] = r;
        self.update_factor(r, alpha);
    }

    fn extract(&self, lb: &[f64], ub: &[f64]) -> LpOutcome {
        let mut values = vec![0.0; self.n];
        for (j, v) in values.iter_mut().enumerate() {
            let mut raw = match self.pos[j] {
                NONE => self.nb_value(j),
                r => self.xb[r],
            };
            // Clamp roundoff overshoots (sequential, so a degenerate
            // ub < lb span cannot panic the way `clamp` would).
            if raw < lb[j] {
                raw = lb[j];
            }
            if raw > ub[j] {
                raw = ub[j];
            }
            *v = raw;
        }
        let objective: f64 = values.iter().zip(&self.objective).map(|(x, c)| x * c).sum();
        LpOutcome::Optimal(LpSolution { values, objective })
    }
}

#[cfg(test)]
/// The per-call reference solver the workspace replaced, kept as the
/// oracle for [`LpWorkspace`]: a fresh `Solver::new` from an
/// [`LpProblem`] on every solve (rows rescaled, columns rebuilt), the
/// dual ratio test's pivot row as one column dot product per nonbasic
/// column, and fresh vectors every iteration. The replay test in
/// `tests` runs every node solve of seeded ring MILPs through both and
/// demands identical bits.
mod oracle {
    use super::*;
    use std::cell::RefCell;

    /// One workspace solve, captured for replay: the problem as the
    /// workspace saw it, the warm basis offered, and what it returned.
    pub(super) struct Recorded {
        pub lp: LpProblem,
        pub warm: Option<Basis>,
        pub solved: Replayed,
    }

    /// What one solve returned, with its work counters.
    #[derive(Debug)]
    pub(super) struct Replayed {
        pub outcome: LpOutcome,
        pub basis: Option<Basis>,
        pub warmed: bool,
        pub pivots: usize,
        pub degenerate: usize,
        pub refactorizations: usize,
    }

    thread_local! {
        static LOG: RefCell<Option<Vec<Recorded>>> = const { RefCell::new(None) };
    }

    /// Appends one workspace solve to this thread's log while
    /// [`capture`] runs.
    pub(super) fn record(
        ws: &LpWorkspace,
        lb: &[f64],
        ub: &[f64],
        warm: Option<&Basis>,
        outcome: &LpOutcome,
        basis: Option<&Basis>,
        warmed: bool,
    ) {
        LOG.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                log.push(Recorded {
                    lp: LpProblem {
                        num_vars: ws.n,
                        lb: lb.to_vec(),
                        ub: ub.to_vec(),
                        objective: ws.objective.clone(),
                        rows: ws.raw_rows.clone(),
                    },
                    warm: warm.cloned(),
                    solved: Replayed {
                        outcome: outcome.clone(),
                        basis: basis.cloned(),
                        warmed,
                        pivots: ws.pivots,
                        degenerate: ws.degenerate,
                        refactorizations: ws.refactorizations,
                    },
                });
            }
        });
    }

    /// Runs `f` and returns every workspace solve it made on this thread.
    pub(super) fn capture(f: impl FnOnce()) -> Vec<Recorded> {
        LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
        f();
        LOG.with(|log| log.borrow_mut().take().unwrap_or_default())
    }

    /// Solves `lp` the per-call way, warm from `warm` when it adopts.
    pub(super) fn solve(config: &RevisedConfig, lp: &LpProblem, warm: Option<&Basis>) -> Replayed {
        let mut s = Solver::new(lp, config);
        let warmed = warm.is_some_and(|basis| s.adopt_basis(basis));
        if !warmed {
            s.set_initial_basis();
        }
        let mut pricing = config.pricing.build(s.nt);
        let outcome = s.run(pricing.as_mut());
        let basis = match outcome {
            LpOutcome::Optimal(_) => Some(s.export_basis()),
            _ => None,
        };
        Replayed {
            outcome,
            basis,
            warmed,
            pivots: s.pivots,
            degenerate: s.degenerate,
            refactorizations: s.refactorizations,
        }
    }

    const NONE: usize = usize::MAX;

    struct Solver<'a> {
        lp: &'a LpProblem,
        n: usize,
        m: usize,
        /// n + m: structural variables then one logical per row.
        nt: usize,
        /// Scaled sparse columns of the structural variables. Rows are
        /// scaled by a signed factor (negative for `Ge` rows, which are
        /// normalized to `Le`).
        cols: Vec<Vec<(usize, f64)>>,
        lower: Vec<f64>,
        upper: Vec<f64>,
        /// Scaled objective (zero on logicals).
        cost: Vec<f64>,
        /// Scaled right-hand sides.
        rhs: Vec<f64>,
        basic: Vec<usize>,
        /// Variable → basis row, `NONE` when nonbasic.
        pos: Vec<usize>,
        at_upper: Vec<bool>,
        /// Basic variable values, indexed by basis row.
        xb: Vec<f64>,
        /// Pluggable basis factorization (dense `B⁻¹` or sparse LU).
        factor: Box<dyn Factorization>,
        refactor_interval: usize,
        pivots: usize,
        degenerate: usize,
        refactorizations: usize,
        /// Worst LU fill-in observed across this solve's refactorizations.
        max_fill: usize,
        iterations: usize,
        iteration_limit: usize,
        bland_threshold: usize,
        /// Leaky-bucket stall score: +2 per step without primal or dual
        /// progress, −1 per progressing step. At `stall_limit` the pivot
        /// rules switch to Bland until the score drains (much earlier than
        /// the global `bland_threshold`, so a degenerate cycle — even one
        /// interleaved with near-zero "progress" steps — costs hundreds of
        /// iterations, not thousands).
        stalled: usize,
        stall_limit: usize,
    }

    impl<'a> Solver<'a> {
        fn new(lp: &'a LpProblem, config: &RevisedConfig) -> Self {
            let n = lp.num_vars;
            let m = lp.rows.len();
            assert_eq!(lp.lb.len(), n);
            assert_eq!(lp.ub.len(), n);
            assert_eq!(lp.objective.len(), n);

            let mut lower = Vec::with_capacity(n + m);
            let mut upper = Vec::with_capacity(n + m);
            for j in 0..n {
                assert!(lp.lb[j].is_finite(), "lower bounds must be finite");
                assert!(lp.ub[j] >= lp.lb[j] - EPS, "ub < lb for var {j}");
                lower.push(lp.lb[j]);
                upper.push(lp.ub[j].max(lp.lb[j]));
            }

            let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
            let mut rhs = Vec::with_capacity(m);
            for (i, r) in lp.rows.iter().enumerate() {
                let maxc = r
                    .terms
                    .iter()
                    .map(|&(_, c)| c.abs())
                    .fold(0.0f64, f64::max)
                    .max(r.rhs.abs());
                let scale = if maxc > 1e-12 { 1.0 / maxc } else { 1.0 };
                let factor = if r.relation == Relation::Ge {
                    -scale
                } else {
                    scale
                };
                for &(j, c) in &r.terms {
                    assert!(j < n, "row references unknown variable {j}");
                    cols[j].push((i, c * factor));
                }
                rhs.push(r.rhs * factor);
                // Logical bounds: inequalities (Le, and Ge-negated-to-Le)
                // get a slack in [0, ∞); equalities a fixed slack at 0.
                if r.relation == Relation::Eq {
                    lower.push(0.0);
                    upper.push(0.0);
                } else {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
            }

            let obj_scale = {
                let maxc = lp.objective.iter().map(|c| c.abs()).fold(0.0f64, f64::max);
                if maxc > 1e-12 {
                    1.0 / maxc
                } else {
                    1.0
                }
            };
            let mut cost = vec![0.0; n + m];
            for (c, obj) in cost.iter_mut().zip(&lp.objective) {
                *c = obj * obj_scale;
            }

            Solver {
                lp,
                n,
                m,
                nt: n + m,
                cols,
                lower,
                upper,
                cost,
                rhs,
                basic: Vec::new(),
                pos: vec![NONE; n + m],
                at_upper: vec![false; n + m],
                xb: vec![0.0; m],
                factor: config.factorization.build(m),
                refactor_interval: config.refactor_interval.max(1),
                pivots: 0,
                degenerate: 0,
                refactorizations: 0,
                max_fill: 0,
                iterations: 0,
                iteration_limit: 20_000 + 200 * (m + n),
                bland_threshold: 5_000 + 20 * (m + n),
                stalled: 0,
                stall_limit: 100 + m,
            }
        }

        fn set_initial_basis(&mut self) {
            self.basic = (self.n..self.nt).collect();
            self.pos = vec![NONE; self.nt];
            for (i, &b) in self.basic.iter().enumerate() {
                self.pos[b] = i;
            }
            self.at_upper = vec![false; self.nt];
            self.factor.reset_identity(self.m);
        }

        /// Adopts a basis exported by an earlier solve of this problem
        /// family (same rows, possibly appended rows, different bounds) by
        /// refactorizing its basic set against this problem's columns.
        /// Returns false — leaving the solver unconfigured — when the
        /// snapshot cannot apply (or its basis is singular here).
        fn adopt_basis(&mut self, warm: &Basis) -> bool {
            if warm.num_vars != self.n || warm.num_rows > self.m {
                return false;
            }
            if warm.basic.len() != warm.num_rows
                || warm.at_upper.len() != warm.num_vars + warm.num_rows
            {
                return false;
            }
            let old_m = warm.num_rows;
            let old_nt = self.n + old_m;
            let mut pos = vec![NONE; self.nt];
            for (i, &b) in warm.basic.iter().enumerate() {
                if b >= old_nt || pos[b] != NONE {
                    return false;
                }
                pos[b] = i;
            }
            let mut basic = warm.basic.clone();
            let mut at_upper = vec![false; self.nt];
            at_upper[..self.n].copy_from_slice(&warm.at_upper[..self.n]);
            at_upper[self.n..old_nt].copy_from_slice(&warm.at_upper[self.n..]);
            // Appended rows (lazy cuts): their logicals join the basis; the
            // refactorization below factors the extended basis directly
            // (the old block-triangular `B⁻¹` patch-up is no longer needed
            // now that adoption refactorizes).
            for i in old_m..self.m {
                basic.push(self.n + i);
                pos[self.n + i] = i;
            }
            self.basic = basic;
            self.pos = pos;
            self.at_upper = at_upper;
            let ctx = FactorCtx {
                n: self.n,
                m: self.m,
                cols: &self.cols,
            };
            if !self.factor.refresh(&ctx, &self.basic) {
                return false;
            }
            self.refactorizations += 1;
            self.max_fill = self.max_fill.max(self.factor.fill_in());
            true
        }

        fn export_basis(&self) -> Basis {
            Basis {
                num_vars: self.n,
                num_rows: self.m,
                basic: self.basic.clone(),
                at_upper: self.at_upper.clone(),
            }
        }

        fn run(&mut self, pricing: &mut dyn Pricing) -> LpOutcome {
            pricing.reset(self.nt);
            self.compute_xb();
            let dual_feasible = self.make_dual_feasible();
            if dual_feasible {
                if let Err(out) = self.dual_simplex() {
                    return out;
                }
            } else if let Err(out) = self.primal_phase1(pricing) {
                return out;
            }
            // Primal optimization / cleanup. After a successful dual run
            // this typically performs zero pivots.
            if let Err(out) = self.primal_phase2(pricing) {
                return out;
            }
            self.extract()
        }

        /// Nonbasic resting value of variable `j`.
        fn nb_value(&self, j: usize) -> f64 {
            if self.at_upper[j] && self.upper[j].is_finite() {
                self.upper[j]
            } else {
                self.lower[j]
            }
        }

        fn span(&self, j: usize) -> f64 {
            self.upper[j] - self.lower[j]
        }

        /// Recomputes `xb = B⁻¹ (b − N x_N)` from scratch.
        fn compute_xb(&mut self) {
            let mut r = self.rhs.clone();
            for j in 0..self.n {
                if self.pos[j] != NONE {
                    continue;
                }
                let v = self.nb_value(j);
                if v != 0.0 {
                    for &(row, c) in &self.cols[j] {
                        r[row] -= c * v;
                    }
                }
            }
            // Nonbasic logicals rest at 0 (inequality slack lb, or the
            // fixed equality slack), contributing nothing.
            self.factor.ftran_dense(&r, &mut self.xb);
        }

        /// `y = c_Bᵀ B⁻¹` for an arbitrary basic cost vector.
        fn btran(&mut self, cb: &[f64]) -> Vec<f64> {
            let mut y = Vec::new();
            self.factor.btran(cb, &mut y);
            y
        }

        /// `α = B⁻¹ A_q` for column `q` (structural or logical).
        fn ftran(&mut self, q: usize) -> Vec<f64> {
            let mut alpha = Vec::new();
            if q < self.n {
                self.factor.ftran_sparse(&self.cols[q], &mut alpha);
            } else {
                self.factor.ftran_unit(q - self.n, &mut alpha);
            }
            alpha
        }

        /// Reduced cost of nonbasic `j` given `y`.
        fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
            if j < self.n {
                let mut d = self.cost[j];
                for &(row, c) in &self.cols[j] {
                    d -= y[row] * c;
                }
                d
            } else {
                -y[j - self.n]
            }
        }

        fn objective_y(&mut self) -> Vec<f64> {
            let cb: Vec<f64> = self.basic.iter().map(|&b| self.cost[b]).collect();
            self.btran(&cb)
        }

        /// Flips nonbasic variables onto the bound their reduced cost
        /// prefers. Returns false when some variable would need an infinite
        /// bound to become dual feasible (then primal phase 1 runs instead).
        fn make_dual_feasible(&mut self) -> bool {
            let y = self.objective_y();
            // Two passes: mutating flags before discovering an impossible
            // flip would leave `at_upper` out of sync with `xb`.
            let mut flips = Vec::new();
            for j in 0..self.nt {
                if self.pos[j] != NONE || self.span(j) <= EPS {
                    continue;
                }
                let d = self.reduced_cost(j, &y);
                if !self.at_upper[j] && d < -DTOL {
                    if !self.upper[j].is_finite() {
                        return false;
                    }
                    flips.push((j, true));
                } else if self.at_upper[j] && d > DTOL {
                    flips.push((j, false));
                }
            }
            if !flips.is_empty() {
                for &(j, up) in &flips {
                    self.at_upper[j] = up;
                }
                self.compute_xb();
            }
            true
        }

        /// Absorbs one basis exchange into the factorization (`alpha =
        /// B⁻¹A_q` entered at basis row `r`), refactorizing when the update
        /// is refused or the eta budget is spent.
        fn update_factor(&mut self, r: usize, alpha: &[f64]) {
            let ok = self.factor.update(r, alpha);
            if !ok || self.factor.updates_since_refresh() >= self.refactor_interval {
                self.refactorize();
            }
        }

        /// Rebuilds the factorization from the basic columns. Returns false
        /// on a (numerically) singular basis, leaving the previous
        /// factorization in use (a retry is attempted after the next pivot).
        fn refactorize(&mut self) -> bool {
            let ctx = FactorCtx {
                n: self.n,
                m: self.m,
                cols: &self.cols,
            };
            if !self.factor.refresh(&ctx, &self.basic) {
                return false;
            }
            self.refactorizations += 1;
            self.max_fill = self.max_fill.max(self.factor.fill_in());
            self.compute_xb();
            true
        }

        fn tick(&mut self) -> Result<bool, LpOutcome> {
            self.iterations += 1;
            if self.iterations > self.iteration_limit {
                return Err(LpOutcome::IterationLimit);
            }
            Ok(self.iterations > self.bland_threshold || self.stalled >= self.stall_limit)
        }

        /// Records whether the last step made progress, feeding the
        /// stall-triggered Bland switch in [`Self::tick`].
        fn note_progress(&mut self, progressed: bool) {
            if progressed {
                self.stalled = self.stalled.saturating_sub(1);
            } else {
                self.degenerate += 1;
                self.stalled += 2;
            }
        }

        /// Dual simplex: starting dual feasible, drives out primal bound
        /// violations. `Err(Infeasible)` when a violated row admits no
        /// entering column. The entering choice is a dual ratio test, so
        /// pricing rules do not apply here.
        fn dual_simplex(&mut self) -> Result<(), LpOutcome> {
            loop {
                let bland = self.tick()?;
                // Leaving: most violated basic variable.
                let mut r = NONE;
                let mut worst = PFEAS;
                for i in 0..self.m {
                    let b = self.basic[i];
                    let viol = (self.lower[b] - self.xb[i]).max(self.xb[i] - self.upper[b]);
                    let better = if bland {
                        // Bland: smallest-index violated basic variable.
                        viol > PFEAS && (r == NONE || b < self.basic[r])
                    } else {
                        viol > worst
                    };
                    if better {
                        worst = viol;
                        r = i;
                    }
                }
                if r == NONE {
                    return Ok(());
                }
                let l = self.basic[r];
                let below = self.xb[r] < self.lower[l];
                let y = self.objective_y();
                let mut w = Vec::new();
                self.factor.row(r, &mut w);

                // Entering: dual ratio test over movable nonbasic columns.
                let mut q = NONE;
                let mut q_alpha: f64 = 0.0;
                let mut best_ratio = f64::INFINITY;
                for j in 0..self.nt {
                    if self.pos[j] != NONE || self.span(j) <= EPS {
                        continue;
                    }
                    let a = if j < self.n {
                        let mut acc = 0.0;
                        for &(row, c) in &self.cols[j] {
                            acc += w[row] * c;
                        }
                        acc
                    } else {
                        w[j - self.n]
                    };
                    if a.abs() <= PIVOT_TOL {
                        continue;
                    }
                    let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };
                    // x_B[r] moves at rate −aσ per unit of entering step.
                    let rate = -a * sigma;
                    let helps = if below { rate > 0.0 } else { rate < 0.0 };
                    if !helps {
                        continue;
                    }
                    let d = self.reduced_cost(j, &y);
                    let ratio = (d * sigma).max(0.0) / a.abs();
                    let better = if bland {
                        ratio < best_ratio - DTOL
                            || (ratio < best_ratio + DTOL && (q == NONE || j < q))
                    } else {
                        ratio < best_ratio - DTOL
                            || (ratio < best_ratio + DTOL && a.abs() > q_alpha.abs())
                    };
                    if better {
                        best_ratio = ratio;
                        q = j;
                        q_alpha = a;
                    }
                }
                if q == NONE {
                    return Err(LpOutcome::Infeasible);
                }

                let sigma = if self.at_upper[q] { -1.0 } else { 1.0 };
                let target = if below { self.lower[l] } else { self.upper[l] };
                let t = ((self.xb[r] - target) / (q_alpha * sigma)).max(0.0);
                let alpha = self.ftran(q);
                if self.span(q).is_finite() && t > self.span(q) + EPS {
                    // The entering column hits its own opposite bound first:
                    // bound flip, no basis change.
                    let step = self.span(q);
                    for (x, &a) in self.xb.iter_mut().zip(&alpha) {
                        *x -= sigma * step * a;
                    }
                    self.at_upper[q] = !self.at_upper[q];
                    self.pivots += 1;
                    // A flip along a zero reduced cost advances neither
                    // bound — classic dual-degenerate cycling material.
                    self.note_progress(best_ratio > DTOL);
                    continue;
                }
                for (x, &a) in self.xb.iter_mut().zip(&alpha) {
                    *x -= sigma * t * a;
                }
                self.xb[r] = self.nb_value(q) + sigma * t;
                self.pos[l] = NONE;
                self.at_upper[l] = !below;
                self.basic[r] = q;
                self.pos[q] = r;
                self.pivots += 1;
                // Dual progress is the dual-objective gain `violation *
                // ratio`; a positive primal step `t` alone proves nothing
                // (a dual cycle moves `x_B` every iteration).
                self.note_progress(best_ratio > DTOL);
                self.update_factor(r, &alpha);
            }
        }

        /// Composite primal phase 1: minimizes total bound violation of the
        /// basic variables. `Err(Infeasible)` when no improving column
        /// exists while violation remains.
        fn primal_phase1(&mut self, pricing: &mut dyn Pricing) -> Result<(), LpOutcome> {
            loop {
                let bland = self.tick()?;
                let mut infeasible = false;
                let mut cb = vec![0.0; self.m];
                for (i, ci) in cb.iter_mut().enumerate() {
                    let b = self.basic[i];
                    if self.xb[i] < self.lower[b] - PFEAS {
                        *ci = -1.0;
                        infeasible = true;
                    } else if self.xb[i] > self.upper[b] + PFEAS {
                        *ci = 1.0;
                        infeasible = true;
                    }
                }
                if !infeasible {
                    return Ok(());
                }
                let y = self.btran(&cb);
                // Entering: improvement rate of the auxiliary objective (the
                // auxiliary cost of every nonbasic column is zero).
                let aux_rate = |s: &Self, j: usize| -> Option<f64> {
                    if s.pos[j] != NONE || s.span(j) <= EPS {
                        return None;
                    }
                    let d = -{
                        if j < s.n {
                            let mut acc = 0.0;
                            for &(row, c) in &s.cols[j] {
                                acc += y[row] * c;
                            }
                            acc
                        } else {
                            y[j - s.n]
                        }
                    };
                    let sigma = if s.at_upper[j] { -1.0 } else { 1.0 };
                    let improve = d * sigma;
                    (improve < -DTOL).then_some(improve)
                };
                let q = if bland {
                    (0..self.nt).find(|&j| aux_rate(self, j).is_some())
                } else {
                    pricing.select(self.nt, &mut |j| aux_rate(self, j))
                };
                let Some(q) = q else {
                    return Err(LpOutcome::Infeasible);
                };
                let sigma = if self.at_upper[q] { -1.0 } else { 1.0 };
                let alpha = self.ftran(q);
                self.phase1_step(q, sigma, &alpha, pricing)?;
            }
        }

        /// Ratio test + pivot for one phase-1 iteration.
        fn phase1_step(
            &mut self,
            q: usize,
            sigma: f64,
            alpha: &[f64],
            pricing: &mut dyn Pricing,
        ) -> Result<(), LpOutcome> {
            let mut t_best = if self.span(q).is_finite() {
                self.span(q)
            } else {
                f64::INFINITY
            };
            let mut blocking = NONE;
            let mut blocking_alpha: f64 = 0.0;
            for (i, &ai) in alpha.iter().enumerate() {
                let delta = -sigma * ai;
                if delta.abs() <= PIVOT_TOL {
                    continue;
                }
                let b = self.basic[i];
                let (lo, hi) = (self.lower[b], self.upper[b]);
                let t = if self.xb[i] < lo - PFEAS {
                    // Infeasible below: blocks only when it reaches lo.
                    if delta > 0.0 {
                        (lo - self.xb[i]) / delta
                    } else {
                        continue;
                    }
                } else if self.xb[i] > hi + PFEAS {
                    if delta < 0.0 {
                        (self.xb[i] - hi) / -delta
                    } else {
                        continue;
                    }
                } else if delta < 0.0 {
                    if lo.is_finite() {
                        (self.xb[i] - lo) / -delta
                    } else {
                        continue;
                    }
                } else if hi.is_finite() {
                    (hi - self.xb[i]) / delta
                } else {
                    continue;
                };
                let t = t.max(0.0);
                if t < t_best - EPS
                    || (t < t_best + EPS && (blocking == NONE || ai.abs() > blocking_alpha.abs()))
                {
                    t_best = t;
                    blocking = i;
                    blocking_alpha = ai;
                }
            }
            if t_best.is_infinite() {
                // Total violation decreases forever yet is bounded below by
                // zero — numerical trouble.
                return Err(LpOutcome::IterationLimit);
            }
            self.apply_primal_step(q, sigma, t_best, blocking, alpha, pricing);
            Ok(())
        }

        /// Primal phase 2: standard bounded-variable primal simplex on the
        /// true objective. `Err(Unbounded)` on an unblocked improving ray.
        fn primal_phase2(&mut self, pricing: &mut dyn Pricing) -> Result<(), LpOutcome> {
            loop {
                let bland = self.tick()?;
                let y = self.objective_y();
                let rate = |s: &Self, j: usize| -> Option<f64> {
                    if s.pos[j] != NONE || s.span(j) <= EPS {
                        return None;
                    }
                    let d = s.reduced_cost(j, &y);
                    let sigma = if s.at_upper[j] { -1.0 } else { 1.0 };
                    let improve = d * sigma;
                    (improve < -DTOL).then_some(improve)
                };
                let q = if bland {
                    (0..self.nt).find(|&j| rate(self, j).is_some())
                } else {
                    pricing.select(self.nt, &mut |j| rate(self, j))
                };
                let Some(q) = q else {
                    return Ok(());
                };
                let q_sigma = if self.at_upper[q] { -1.0 } else { 1.0 };
                let alpha = self.ftran(q);
                let mut t_best = if self.span(q).is_finite() {
                    self.span(q)
                } else {
                    f64::INFINITY
                };
                let mut blocking = NONE;
                let mut blocking_alpha: f64 = 0.0;
                for (i, &ai) in alpha.iter().enumerate() {
                    let delta = -q_sigma * ai;
                    if delta.abs() <= PIVOT_TOL {
                        continue;
                    }
                    let b = self.basic[i];
                    let t = if delta < 0.0 {
                        if self.lower[b].is_finite() {
                            ((self.xb[i] - self.lower[b]) / -delta).max(0.0)
                        } else {
                            continue;
                        }
                    } else if self.upper[b].is_finite() {
                        ((self.upper[b] - self.xb[i]) / delta).max(0.0)
                    } else {
                        continue;
                    };
                    if t < t_best - EPS
                        || (t < t_best + EPS
                            && (blocking == NONE || ai.abs() > blocking_alpha.abs()))
                    {
                        t_best = t;
                        blocking = i;
                        blocking_alpha = ai;
                    }
                }
                if t_best.is_infinite() {
                    return Err(LpOutcome::Unbounded);
                }
                self.apply_primal_step(q, q_sigma, t_best, blocking, &alpha, pricing);
            }
        }

        /// Applies a primal step of length `t` on entering column `q`
        /// (direction `sigma`): a basis exchange when a basic variable
        /// blocks, a bound flip when the entering column blocks itself.
        fn apply_primal_step(
            &mut self,
            q: usize,
            sigma: f64,
            t: f64,
            blocking: usize,
            alpha: &[f64],
            pricing: &mut dyn Pricing,
        ) {
            for (x, &a) in self.xb.iter_mut().zip(alpha) {
                *x -= sigma * t * a;
            }
            self.pivots += 1;
            if blocking == NONE {
                // Bound flip across the full span: always real movement.
                self.at_upper[q] = !self.at_upper[q];
                self.note_progress(true);
                return;
            }
            self.note_progress(t > EPS);
            let r = blocking;
            let l = self.basic[r];
            // Devex needs the pivot row of the *outgoing* basis to update
            // its reference weights; compute it before the exchange.
            if pricing.needs_pivot_row() {
                let mut w = Vec::new();
                self.factor.row(r, &mut w);
                let pivot_row = |j: usize| -> f64 {
                    if j < self.n {
                        let mut acc = 0.0;
                        for &(row, c) in &self.cols[j] {
                            acc += w[row] * c;
                        }
                        acc
                    } else {
                        w[j - self.n]
                    }
                };
                pricing.on_pivot(q, l, alpha[r], Some(&pivot_row));
            } else {
                pricing.on_pivot(q, l, alpha[r], None);
            }
            // The leaving variable exits on the bound it ran into. Phase 1
            // can move an infeasible variable *up* onto its lower bound, so
            // the bound is read off the value, not the direction.
            self.at_upper[l] = self.upper[l].is_finite()
                && (self.xb[r] - self.upper[l]).abs() < (self.xb[r] - self.lower[l]).abs();
            self.pos[l] = NONE;
            self.xb[r] = self.nb_value(q) + sigma * t;
            self.basic[r] = q;
            self.pos[q] = r;
            self.update_factor(r, alpha);
        }

        fn extract(&mut self) -> LpOutcome {
            let mut values = vec![0.0; self.n];
            for (j, v) in values.iter_mut().enumerate() {
                let mut raw = match self.pos[j] {
                    NONE => self.nb_value(j),
                    r => self.xb[r],
                };
                // Clamp roundoff overshoots (sequential, so a degenerate
                // ub < lb span cannot panic the way `clamp` would).
                if raw < self.lp.lb[j] {
                    raw = self.lp.lb[j];
                }
                if raw > self.lp.ub[j] {
                    raw = self.lp.ub[j];
                }
                *v = raw;
            }
            let objective: f64 = values
                .iter()
                .zip(&self.lp.objective)
                .map(|(x, c)| x * c)
                .sum();
            LpOutcome::Optimal(LpSolution { values, objective })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::BranchAndBound;
    use crate::expr::{LinExpr, VarId};
    use crate::model::Model;
    use crate::simplex::LpRow;

    fn row(terms: Vec<(usize, f64)>, relation: Relation, rhs: f64) -> LpRow {
        LpRow {
            terms,
            relation,
            rhs,
        }
    }

    fn optimal(o: LpOutcome) -> LpSolution {
        match o {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    fn solve(p: &LpProblem) -> LpOutcome {
        RevisedSimplex.solve(p).outcome
    }

    /// Every (factorization × pricing) configuration under test.
    fn all_configs() -> Vec<RevisedConfig> {
        let mut configs = Vec::new();
        for f in [FactorizationKind::DenseEta, FactorizationKind::SparseLu] {
            for p in [
                PricingKind::Dantzig,
                PricingKind::Devex,
                PricingKind::Partial,
            ] {
                configs.push(
                    RevisedConfig::default()
                        .with_factorization(f)
                        .with_pricing(p),
                );
            }
        }
        configs
    }

    #[test]
    fn revised_simple_2d_lp() {
        let p = LpProblem {
            num_vars: 2,
            lb: vec![0.0, 0.0],
            ub: vec![f64::INFINITY, f64::INFINITY],
            objective: vec![-1.0, -1.0],
            rows: vec![
                row(vec![(0, 1.0), (1, 2.0)], Relation::Le, 4.0),
                row(vec![(0, 3.0), (1, 1.0)], Relation::Le, 6.0),
            ],
        };
        for config in all_configs() {
            let s = optimal(config.solve(&p).outcome);
            assert!((s.objective + 14.0 / 5.0).abs() < 1e-6, "{}", s.objective);
            assert!((s.values[0] - 1.6).abs() < 1e-6);
            assert!((s.values[1] - 1.2).abs() < 1e-6);
        }
    }

    #[test]
    fn revised_handles_bounds_without_rows() {
        // min -x with 0 <= x <= 3.5 and no constraint rows at all.
        let p = LpProblem {
            num_vars: 1,
            lb: vec![0.0],
            ub: vec![3.5],
            objective: vec![-1.0],
            rows: vec![],
        };
        let s = optimal(solve(&p));
        assert!((s.values[0] - 3.5).abs() < 1e-6);
    }

    #[test]
    fn revised_detects_unbounded() {
        let p = LpProblem {
            num_vars: 1,
            lb: vec![0.0],
            ub: vec![f64::INFINITY],
            objective: vec![-1.0],
            rows: vec![],
        };
        assert!(matches!(solve(&p), LpOutcome::Unbounded));
    }

    #[test]
    fn revised_detects_infeasible() {
        let p = LpProblem {
            num_vars: 1,
            lb: vec![0.0],
            ub: vec![f64::INFINITY],
            objective: vec![0.0],
            rows: vec![
                row(vec![(0, 1.0)], Relation::Le, 1.0),
                row(vec![(0, 1.0)], Relation::Ge, 2.0),
            ],
        };
        for config in all_configs() {
            assert!(matches!(config.solve(&p).outcome, LpOutcome::Infeasible));
        }
    }

    #[test]
    fn revised_equality_and_ge_constraints() {
        let p = LpProblem {
            num_vars: 2,
            lb: vec![0.0, 0.0],
            ub: vec![f64::INFINITY, f64::INFINITY],
            objective: vec![1.0, 1.0],
            rows: vec![
                row(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 2.0),
                row(vec![(0, 1.0)], Relation::Ge, 0.5),
            ],
        };
        let s = optimal(solve(&p));
        assert!((s.objective - 2.0).abs() < 1e-6);
        assert!(s.values[0] >= 0.5 - 1e-6);
    }

    #[test]
    fn revised_assignment_relaxation_is_integral() {
        let cost = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let nv = 9;
        let var = |i: usize, j: usize| i * 3 + j;
        let mut rows = Vec::new();
        for i in 0..3 {
            rows.push(row(
                (0..3).map(|j| (var(i, j), 1.0)).collect(),
                Relation::Eq,
                1.0,
            ));
            rows.push(row(
                (0..3).map(|j| (var(j, i), 1.0)).collect(),
                Relation::Eq,
                1.0,
            ));
        }
        let p = LpProblem {
            num_vars: nv,
            lb: vec![0.0; nv],
            ub: vec![1.0; nv],
            objective: (0..3)
                .flat_map(|i| (0..3).map(move |j| cost[i][j]))
                .collect(),
            rows,
        };
        for config in all_configs() {
            let s = optimal(config.solve(&p).outcome);
            assert!((s.objective - 12.0).abs() < 1e-6, "obj={}", s.objective);
        }
    }

    #[test]
    fn revised_warm_start_after_bound_fix() {
        // Branch-and-bound shape: solve, fix a binary to each side via
        // lb = ub, re-solve warm. Warm results must match cold solves.
        let p = LpProblem {
            num_vars: 3,
            lb: vec![0.0; 3],
            ub: vec![1.0; 3],
            objective: vec![-2.0, -1.0, -3.0],
            rows: vec![row(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 2.0)],
        };
        for config in all_configs() {
            let root = config.solve(&p);
            let basis = root.basis.expect("optimal root must export a basis");
            for fix in [0.0, 1.0] {
                let mut child = p.clone();
                child.lb[2] = fix;
                child.ub[2] = fix;
                let warm = config.solve_warm(&child, &basis);
                assert!(warm.warmed, "basis must be adopted");
                let cold = optimal(child.solve());
                let s = optimal(warm.outcome);
                assert!(
                    (s.objective - cold.objective).abs() < 1e-6,
                    "fix={fix}: warm {} vs cold {}",
                    s.objective,
                    cold.objective
                );
            }
        }
    }

    #[test]
    fn revised_warm_start_with_appended_cut_rows() {
        // min -x - y, x + y <= 2 on [0,1]² → optimum (1,1). Append a cut
        // x + y <= 1 afterwards and warm-start from the parent basis.
        let p = LpProblem {
            num_vars: 2,
            lb: vec![0.0; 2],
            ub: vec![1.0; 2],
            objective: vec![-1.0, -1.0],
            rows: vec![row(vec![(0, 1.0), (1, 1.0)], Relation::Le, 2.0)],
        };
        for config in all_configs() {
            let root = config.solve(&p);
            let basis = root.basis.expect("basis");
            let mut cut = p.clone();
            cut.rows
                .push(row(vec![(0, 1.0), (1, 1.0)], Relation::Le, 1.0));
            let warm = config.solve_warm(&cut, &basis);
            assert!(warm.warmed);
            let s = optimal(warm.outcome);
            assert!((s.objective + 1.0).abs() < 1e-6, "obj={}", s.objective);
        }
    }

    #[test]
    fn revised_warm_start_detects_child_infeasibility() {
        // x + y >= 2 with both binaries; fixing both to 0 is infeasible.
        let p = LpProblem {
            num_vars: 2,
            lb: vec![0.0; 2],
            ub: vec![1.0; 2],
            objective: vec![1.0, 1.0],
            rows: vec![row(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 2.0)],
        };
        let root = RevisedSimplex.solve(&p);
        let basis = root.basis.expect("basis");
        let mut child = p.clone();
        for j in 0..2 {
            child.lb[j] = 0.0;
            child.ub[j] = 0.0;
        }
        let warm = RevisedSimplex.solve_warm(&child, &basis);
        assert!(matches!(warm.outcome, LpOutcome::Infeasible));
    }

    #[test]
    fn revised_rejects_mismatched_basis_and_recovers() {
        let p = LpProblem {
            num_vars: 2,
            lb: vec![0.0; 2],
            ub: vec![1.0; 2],
            objective: vec![-1.0, -1.0],
            rows: vec![row(vec![(0, 1.0), (1, 1.0)], Relation::Le, 1.0)],
        };
        let other = LpProblem {
            num_vars: 3,
            lb: vec![0.0; 3],
            ub: vec![1.0; 3],
            objective: vec![-1.0; 3],
            rows: vec![],
        };
        let foreign = RevisedSimplex.solve(&other).basis.expect("basis");
        let solved = RevisedSimplex.solve_warm(&p, &foreign);
        assert!(!solved.warmed, "foreign basis must be rejected");
        let s = optimal(solved.outcome);
        assert!((s.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn revised_shifted_and_negative_bounds() {
        // min x + 2y with x in [-3, -1], y in [2, 5], x + y >= 0.
        let p = LpProblem {
            num_vars: 2,
            lb: vec![-3.0, 2.0],
            ub: vec![-1.0, 5.0],
            objective: vec![1.0, 2.0],
            rows: vec![row(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 0.0)],
        };
        let s = optimal(solve(&p));
        let cold = optimal(p.solve());
        assert!(
            (s.objective - cold.objective).abs() < 1e-6,
            "revised {} vs dense {}",
            s.objective,
            cold.objective
        );
    }

    #[test]
    fn revised_degenerate_lp_terminates() {
        let mut rows = Vec::new();
        for k in 1..20 {
            rows.push(row(vec![(0, k as f64), (1, 1.0)], Relation::Le, 10.0));
        }
        let p = LpProblem {
            num_vars: 2,
            lb: vec![0.0, 0.0],
            ub: vec![f64::INFINITY, f64::INFINITY],
            objective: vec![-1.0, -1.0],
            rows,
        };
        for config in all_configs() {
            let s = optimal(config.solve(&p).outcome);
            assert!(s.objective < 0.0);
        }
    }

    #[test]
    fn revised_forced_refactorization_cadence_agrees() {
        // Refactorizing after every single pivot must not change any
        // answer — only the arithmetic path.
        let p = LpProblem {
            num_vars: 4,
            lb: vec![0.0; 4],
            ub: vec![1.0; 4],
            objective: vec![-3.0, -5.0, -4.0, -1.5],
            rows: vec![
                row(vec![(0, 2.0), (1, 3.0), (2, 1.0)], Relation::Le, 4.0),
                row(vec![(1, 2.0), (2, 4.0), (3, 1.0)], Relation::Le, 5.0),
                row(vec![(0, 1.0), (3, 2.0)], Relation::Le, 2.5),
            ],
        };
        let reference = optimal(p.solve());
        for interval in [1, 2, 7] {
            for f in [FactorizationKind::DenseEta, FactorizationKind::SparseLu] {
                let config = RevisedConfig::default()
                    .with_factorization(f)
                    .with_refactor_interval(interval);
                let s = optimal(config.solve(&p).outcome);
                assert!(
                    (s.objective - reference.objective).abs() < 1e-6,
                    "{f} interval {interval}: {} vs {}",
                    s.objective,
                    reference.objective
                );
            }
        }
    }

    /// A `k`×`k` assignment LP with seeded costs: every equality row's
    /// logical starts basic at 1 outside its `[0, 0]` bounds, so a cold
    /// dual simplex needs well over [`DEADLINE_STRIDE`] pivots.
    fn assignment_lp(k: usize, seed: u64) -> LpProblem {
        let mut state = seed;
        let mut cost = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1.0 + (state >> 40) as f64 / (1u64 << 24) as f64 * 9.0
        };
        let var = |i: usize, j: usize| i * k + j;
        let mut rows = Vec::new();
        for i in 0..k {
            rows.push(row(
                (0..k).map(|j| (var(i, j), 1.0)).collect(),
                Relation::Eq,
                1.0,
            ));
            rows.push(row(
                (0..k).map(|j| (var(j, i), 1.0)).collect(),
                Relation::Eq,
                1.0,
            ));
        }
        LpProblem {
            num_vars: k * k,
            lb: vec![0.0; k * k],
            ub: vec![1.0; k * k],
            objective: (0..k * k).map(|_| cost()).collect(),
            rows,
        }
    }

    #[test]
    fn expired_deadline_stops_a_solve_within_the_stride() {
        let lp = assignment_lp(30, 7);
        let mut ws = LpWorkspace::from_problem(RevisedConfig::default(), &lp);
        let full = ws.solve(&lp.lb, &lp.ub, None);
        assert!(matches!(full.outcome, LpOutcome::Optimal(_)));
        let full_pivots = ws.pivots;
        assert!(
            full_pivots > 2 * DEADLINE_STRIDE,
            "the LP must need more than the stride: {full_pivots} pivots"
        );

        ws.set_deadline(Some(Instant::now()));
        let cut_short = ws.solve(&lp.lb, &lp.ub, None);
        assert!(matches!(cut_short.outcome, LpOutcome::Interrupted));
        assert!(cut_short.basis.is_none());
        assert!(
            ws.pivots <= DEADLINE_STRIDE,
            "{} pivots after the deadline had passed",
            ws.pivots
        );

        // The interrupted solve leaves nothing behind: a solve without
        // the deadline repeats the first one exactly.
        ws.set_deadline(None);
        let again = ws.solve(&lp.lb, &lp.ub, None);
        assert_eq!(ws.pivots, full_pivots);
        match (full.outcome, again.outcome) {
            (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
                assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            }
            other => panic!("expected two optima, got {other:?}"),
        }
    }

    /// A lazy cut as the separator returns it.
    type Cut = (LinExpr, Relation, f64);

    /// Deterministic generator for the seeded ring MILPs.
    struct Lcg(u64);

    impl Lcg {
        fn coord(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % 10_000) as f64
        }
    }

    /// A ring MILP shaped like Step 1's: one binary per directed edge,
    /// in- and out-degree rows (1), edge lengths as the objective (4),
    /// and a lazy separator for subtours (2) and for pairs of crossing
    /// edges (3, with geometric crossings standing in for the paper's
    /// crosstalk conflicts).
    fn ring_milp(n: usize, seed: u64) -> (Model, impl FnMut(&[f64]) -> Vec<Cut>) {
        let mut rng = Lcg(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.coord(), rng.coord())).collect();
        let mut m = Model::new();
        let mut var = vec![vec![None; n]; n];
        let mut obj = LinExpr::new();
        for (i, row) in var.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                if i != j {
                    let v = m.add_binary(format!("b_{i}_{j}"));
                    let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                    obj += (v, (dx * dx + dy * dy).sqrt().round());
                    *slot = Some(v);
                }
            }
        }
        for (i, row) in var.iter().enumerate() {
            let out: Vec<VarId> = row.iter().flatten().copied().collect();
            let inn: Vec<VarId> = var.iter().filter_map(|r| r[i]).collect();
            m.add_constraint(LinExpr::sum(out), Relation::Eq, 1.0);
            m.add_constraint(LinExpr::sum(inn), Relation::Eq, 1.0);
        }
        m.set_objective(obj);
        let cross = move |a: (usize, usize), b: (usize, usize)| {
            let orient = |p: (f64, f64), q: (f64, f64), r: (f64, f64)| {
                ((q.0 - p.0) * (r.1 - p.1) - (q.1 - p.1) * (r.0 - p.0)).signum()
            };
            let (p1, p2, q1, q2) = (pts[a.0], pts[a.1], pts[b.0], pts[b.1]);
            a.0 != b.0
                && a.0 != b.1
                && a.1 != b.0
                && a.1 != b.1
                && orient(p1, p2, q1) * orient(p1, p2, q2) < 0.0
                && orient(q1, q2, p1) * orient(q1, q2, p2) < 0.0
        };
        let separate = move |vals: &[f64]| {
            let var = &var;
            let used: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .filter(|&(i, j)| var[i][j].is_some_and(|v| vals[v.index()] > 0.5))
                .collect();
            let mut cuts = Vec::new();
            for (x, &a) in used.iter().enumerate() {
                for &b in &used[x + 1..] {
                    if cross(a, b) {
                        let (ea, eb) = (var[a.0][a.1].unwrap(), var[b.0][b.1].unwrap());
                        cuts.push((LinExpr::sum([ea, eb]), Relation::Le, 1.0));
                    }
                }
            }
            if !cuts.is_empty() {
                return cuts;
            }
            let next = |i: usize| used.iter().find(|e| e.0 == i).map(|e| e.1);
            let mut cycle = vec![0usize];
            let mut cur = 0usize;
            while let Some(nx) = next(cur) {
                if nx == 0 {
                    break;
                }
                cycle.push(nx);
                cur = nx;
            }
            if cycle.len() < n {
                let inside: Vec<VarId> = cycle
                    .iter()
                    .flat_map(|&i| cycle.iter().filter_map(move |&j| var[i][j]))
                    .collect();
                cuts.push((LinExpr::sum(inside), Relation::Le, (cycle.len() - 1) as f64));
            }
            cuts
        };
        (m, separate)
    }

    fn assert_same_solve(k: usize, config: &RevisedConfig, rec: &oracle::Recorded) {
        let want = oracle::solve(config, &rec.lp, rec.warm.as_ref());
        let got = &rec.solved;
        match (&got.outcome, &want.outcome) {
            (LpOutcome::Optimal(g), LpOutcome::Optimal(w)) => {
                assert_eq!(g.objective.to_bits(), w.objective.to_bits(), "solve {k}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g.values), bits(&w.values), "solve {k}");
            }
            (g, w) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "solve {k}"),
        }
        match (&got.basis, &want.basis) {
            (Some(g), Some(w)) => {
                assert_eq!(
                    (g.num_vars, g.num_rows),
                    (w.num_vars, w.num_rows),
                    "solve {k}"
                );
                assert_eq!(g.basic, w.basic, "solve {k}");
                assert_eq!(g.at_upper, w.at_upper, "solve {k}");
            }
            (None, None) => {}
            _ => panic!("solve {k}: only one side exported a basis"),
        }
        assert_eq!(
            (got.warmed, got.pivots, got.degenerate, got.refactorizations),
            (
                want.warmed,
                want.pivots,
                want.degenerate,
                want.refactorizations
            ),
            "solve {k}: warm flag and work counters"
        );
    }

    #[test]
    fn workspace_solves_match_the_per_call_oracle_bit_for_bit() {
        let (mut cold, mut warm, mut after_cuts) = (0, 0, 0);
        for (n, seed, pricing) in [
            (8, 1, PricingKind::Dantzig),
            (10, 2, PricingKind::Devex),
            (12, 3, PricingKind::Dantzig),
            (16, 4, PricingKind::Dantzig),
            (24, 5, PricingKind::Dantzig),
            (32, 6, PricingKind::Dantzig),
        ] {
            let (model, separate) = ring_milp(n, seed);
            let solver = BranchAndBound::new()
                .with_max_nodes(300)
                .with_pricing(pricing);
            let log = oracle::capture(|| {
                let _ = solver.solve_with_lazy(&model, separate);
            });
            assert!(!log.is_empty(), "n={n}: no LP solve recorded");
            let config = RevisedConfig::default().with_pricing(pricing);
            for (k, rec) in log.iter().enumerate() {
                assert_same_solve(k, &config, rec);
                match &rec.warm {
                    None => cold += 1,
                    Some(b) if b.num_rows < rec.lp.rows.len() => after_cuts += 1,
                    Some(_) => warm += 1,
                }
            }
        }
        assert!(
            cold > 0 && warm > 0 && after_cuts > 0,
            "replay must cover cold roots ({cold}), warm children ({warm}) \
             and solves after appended cuts ({after_cuts})"
        );
    }
}
