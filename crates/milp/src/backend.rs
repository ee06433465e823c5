//! Pluggable LP backends for the branch-and-bound relaxation solves.
//!
//! The solver stack is structured around the [`LpBackend`] trait: the
//! branch-and-bound search asks a backend to solve each node's LP
//! relaxation, either cold ([`LpBackend::solve`]) or warm-started from a
//! parent node's [`Basis`] ([`LpBackend::solve_warm`]). Two backends
//! exist:
//!
//! * [`DenseBackend`] — the reference dense two-phase tableau from
//!   [`crate::simplex`]. It cannot reuse a basis; `solve_warm` falls back
//!   to a cold solve.
//! * [`crate::revised::RevisedSimplex`] — a revised bounded-variable
//!   simplex with native `lb ≤ x ≤ ub` handling and dual-simplex warm
//!   starts. This is the default ([`LpBackendKind::Revised`]).
//!
//! The trait serves one-off solves (tests, the differential suites). A
//! branch-and-bound search instead keeps one LP per worker, built once
//! from the model rows and extended in place by lazy cuts: the revised
//! kernel's workspace, or the dense tableau's row list, which that
//! kernel rebuilds into a tableau per solve.
//!
//! Observability attribution happens here, not inside the raw kernels:
//! each backend records `simplex.pivots` / `simplex.degenerate_pivots`
//! (aggregates) plus per-backend variants (`simplex.pivots.dense`,
//! `simplex.pivots.revised`), and one of `simplex.warm_starts` /
//! `simplex.cold_starts` per solve, so per-solve histograms and
//! warm-start rates stay meaningful regardless of which layer triggered
//! the solve.

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use crate::revised::RevisedSimplex;
use crate::simplex::{LpOutcome, LpProblem};

/// Which LP backend solves the branch-and-bound relaxations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LpBackendKind {
    /// Dense two-phase tableau (reference backend, no warm starts).
    Dense,
    /// Revised bounded-variable simplex with warm starts (default).
    #[default]
    Revised,
}

impl LpBackendKind {
    /// Every kind, in declaration order.
    pub const ALL: [LpBackendKind; 2] = [LpBackendKind::Dense, LpBackendKind::Revised];

    /// Stable lowercase name, also accepted by [`FromStr`].
    pub fn as_str(self) -> &'static str {
        match self {
            LpBackendKind::Dense => "dense",
            LpBackendKind::Revised => "revised",
        }
    }

    /// The backend implementation for this kind.
    pub fn backend(self) -> &'static dyn LpBackend {
        match self {
            LpBackendKind::Dense => &DenseBackend,
            LpBackendKind::Revised => &RevisedSimplex,
        }
    }
}

impl fmt::Display for LpBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for LpBackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(LpBackendKind::Dense),
            "revised" => Ok(LpBackendKind::Revised),
            other => Err(format!(
                "unknown LP backend {other:?} (expected dense|revised)"
            )),
        }
    }
}

/// An opaque simplex basis snapshot, produced by an optimal solve and
/// consumed by [`LpBackend::solve_warm`] on a *bounds-modified* version
/// of the same problem (the branch-and-bound case: a child node fixes
/// one binary via `lb = ub`, rows unchanged except possibly appended
/// lazy cuts).
///
/// The snapshot pins the basic variable set and the lower/upper status
/// of every nonbasic variable; the adopting solver refactorizes the
/// basis matrix from that set, so no factorization state is carried.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Structural variable count of the producing problem.
    pub(crate) num_vars: usize,
    /// Row count of the producing problem.
    pub(crate) num_rows: usize,
    /// Basic variable per row (structural `j < n`, logical `n + i`).
    pub(crate) basic: Vec<usize>,
    /// Nonbasic-at-upper flag per variable (`n + m` entries).
    pub(crate) at_upper: Vec<bool>,
}

/// The result of one backend solve.
#[derive(Debug)]
pub struct BackendSolve {
    /// The LP outcome.
    pub outcome: LpOutcome,
    /// Basis snapshot for warm-starting descendants (optimal solves on
    /// basis-capable backends only; `None` from [`DenseBackend`]).
    pub basis: Option<Basis>,
    /// Whether a supplied warm basis was actually adopted.
    pub warmed: bool,
}

/// A pluggable LP solver for branch-and-bound relaxations.
pub trait LpBackend: fmt::Debug + Send + Sync {
    /// Stable lowercase backend name ("dense", "revised").
    fn name(&self) -> &'static str;

    /// Solves the LP from scratch.
    fn solve(&self, lp: &LpProblem) -> BackendSolve;

    /// Solves the LP starting from `warm`, a basis exported by a prior
    /// optimal solve of the same problem with (possibly) different
    /// variable bounds and (possibly) appended rows. Backends that
    /// cannot reuse a basis fall back to a cold solve and report
    /// `warmed: false`.
    fn solve_warm(&self, lp: &LpProblem, warm: &Basis) -> BackendSolve;
}

/// The dense two-phase tableau reference backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseBackend;

impl LpBackend for DenseBackend {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn solve(&self, lp: &LpProblem) -> BackendSolve {
        solve_dense(lp, None)
    }

    fn solve_warm(&self, lp: &LpProblem, _warm: &Basis) -> BackendSolve {
        // The tableau is rebuilt from scratch every time; a warm basis
        // cannot be exploited, so this counts as a cold start.
        self.solve(lp)
    }
}

/// One dense-tableau solve with its counters recorded, interrupted once
/// `deadline` has passed (see [`LpOutcome::Interrupted`]).
pub(crate) fn solve_dense(lp: &LpProblem, deadline: Option<Instant>) -> BackendSolve {
    let mut pivots = 0usize;
    let mut degenerate = 0usize;
    let outcome = lp.solve_counted(&mut pivots, &mut degenerate, deadline);
    record_counters(
        "dense",
        SolveTelemetry {
            pivots,
            degenerate,
            warmed: false,
            refactorizations: 0,
            fill_in: 0,
        },
    );
    BackendSolve {
        outcome,
        basis: None,
        warmed: false,
    }
}

/// Per-solve telemetry a backend hands to [`record_counters`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SolveTelemetry {
    /// Simplex pivots performed (bound flips included).
    pub pivots: usize,
    /// Pivots that made no primal/dual progress.
    pub degenerate: usize,
    /// Whether a supplied warm basis was adopted.
    pub warmed: bool,
    /// Basis refactorizations performed (0 for factorization-free
    /// backends like the dense tableau).
    pub refactorizations: usize,
    /// Worst factorization fill-in observed (factor nnz − basis nnz;
    /// 0 for dense representations).
    pub fill_in: usize,
}

/// Records per-solve observability counters on behalf of a backend.
///
/// Counter names are static, so per-backend attribution uses distinct
/// suffixed names rather than tags. The unsuffixed aggregates are part
/// of the public telemetry surface (pinned by the engine trace tests).
pub(crate) fn record_counters(backend: &'static str, t: SolveTelemetry) {
    xring_obs::counter("simplex.pivots", t.pivots as u64);
    xring_obs::counter("simplex.degenerate_pivots", t.degenerate as u64);
    let (pivots_name, warm_name, cold_name) = match backend {
        "dense" => (
            "simplex.pivots.dense",
            "simplex.warm_starts.dense",
            "simplex.cold_starts.dense",
        ),
        _ => (
            "simplex.pivots.revised",
            "simplex.warm_starts.revised",
            "simplex.cold_starts.revised",
        ),
    };
    xring_obs::counter(pivots_name, t.pivots as u64);
    if t.warmed {
        xring_obs::counter("simplex.warm_starts", 1);
        xring_obs::counter(warm_name, 1);
    } else {
        xring_obs::counter("simplex.cold_starts", 1);
        xring_obs::counter(cold_name, 1);
    }
    if t.refactorizations > 0 {
        xring_obs::counter("simplex.refactorizations", t.refactorizations as u64);
        if backend != "dense" {
            xring_obs::counter(
                "simplex.refactorizations.revised",
                t.refactorizations as u64,
            );
        }
        xring_obs::counter("lu.fill_in", t.fill_in as u64);
        xring_obs::record_hist("lu.fill_in", t.fill_in as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Relation;
    use crate::simplex::LpRow;

    fn toy_lp() -> LpProblem {
        // min -x - y  s.t.  x + 2y <= 4, 3x + y <= 6, 0 <= x,y <= 10
        LpProblem {
            num_vars: 2,
            lb: vec![0.0, 0.0],
            ub: vec![10.0, 10.0],
            objective: vec![-1.0, -1.0],
            rows: vec![
                LpRow {
                    terms: vec![(0, 1.0), (1, 2.0)],
                    relation: Relation::Le,
                    rhs: 4.0,
                },
                LpRow {
                    terms: vec![(0, 3.0), (1, 1.0)],
                    relation: Relation::Le,
                    rhs: 6.0,
                },
            ],
        }
    }

    #[test]
    fn backend_kind_round_trips_through_strings() {
        for kind in [LpBackendKind::Dense, LpBackendKind::Revised] {
            assert_eq!(kind.as_str().parse::<LpBackendKind>().unwrap(), kind);
        }
        assert!("simplex".parse::<LpBackendKind>().is_err());
        assert_eq!(LpBackendKind::default(), LpBackendKind::Revised);
    }

    #[test]
    fn backend_kind_names_match_backends() {
        for kind in [LpBackendKind::Dense, LpBackendKind::Revised] {
            assert_eq!(kind.backend().name(), kind.as_str());
        }
    }

    #[test]
    fn backend_dense_solves_but_exports_no_basis() {
        let lp = toy_lp();
        let solved = DenseBackend.solve(&lp);
        assert!(solved.basis.is_none());
        assert!(!solved.warmed);
        match solved.outcome {
            LpOutcome::Optimal(s) => assert!((s.objective + 14.0 / 5.0).abs() < 1e-6),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn backend_dense_warm_solve_falls_back_to_cold() {
        let lp = toy_lp();
        let first = match LpBackendKind::Revised.backend().solve(&lp).basis {
            Some(b) => b,
            None => panic!("revised backend must export a basis"),
        };
        let solved = DenseBackend.solve_warm(&lp, &first);
        assert!(!solved.warmed, "dense cannot adopt a basis");
        assert!(matches!(solved.outcome, LpOutcome::Optimal(_)));
    }
}
