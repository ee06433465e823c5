//! Differential suite: the dense reference backend and the revised
//! bounded-variable simplex must agree — same outcome class and, when
//! optimal, objectives within 1e-6 — on a large seeded population of
//! random bounded LPs covering feasible, infeasible, unbounded and
//! degenerate instances, plus warm-started child solves of the
//! branch-and-bound shape (one variable's bounds pinned).
//!
//! All test names contain `backend` so `cargo test -p xring-milp
//! backend` selects the whole suite.

use xring_milp::{
    DenseBackend, FactorizationKind, LpBackend, LpOutcome, LpProblem, LpSolution, Relation,
    RevisedConfig, RevisedSimplex,
};

/// Deterministic split-mix generator (local copy: `xring-milp` sits
/// below `xring-core`, which owns the shared implementation).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Half-integer in `[lo, hi]`.
    fn half(&mut self, lo: i64, hi: i64) -> f64 {
        let steps = ((hi - lo) * 2) as u64 + 1;
        lo as f64 + self.below(steps) as f64 * 0.5
    }
}

fn gen_lp(rng: &mut SplitMix64) -> LpProblem {
    let n = 1 + rng.below(6) as usize;
    let m = rng.below(9) as usize;
    let mut lb = Vec::with_capacity(n);
    let mut ub = Vec::with_capacity(n);
    let mut objective = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = rng.half(-2, 1);
        // Span mix: fixed (degenerate), unit/binary-like, wide, infinite.
        let span = match rng.below(10) {
            0 => 0.0,
            1..=4 => 1.0,
            5..=6 => 2.5,
            7 => 4.0,
            _ => f64::INFINITY,
        };
        lb.push(lo);
        ub.push(lo + span);
        objective.push(rng.half(-5, 5));
    }
    let mut rows: Vec<xring_milp::simplex::LpRow> = Vec::with_capacity(m);
    for _ in 0..m {
        if !rows.is_empty() && rng.below(10) < 2 {
            // Duplicate an earlier row verbatim: a cheap source of
            // primal degeneracy (ties in every ratio test).
            let i = rng.below(rows.len() as u64) as usize;
            let dup: xring_milp::simplex::LpRow = rows[i].clone();
            rows.push(dup);
            continue;
        }
        let nnz = 1 + rng.below(n.min(3) as u64) as usize;
        let mut terms = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let j = rng.below(n as u64) as usize;
            let mut c = rng.half(-4, 4);
            if c == 0.0 {
                c = 1.0;
            }
            terms.push((j, c));
        }
        let relation = match rng.below(3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        rows.push(xring_milp::simplex::LpRow {
            terms,
            relation,
            rhs: rng.half(-6, 6),
        });
    }
    LpProblem {
        num_vars: n,
        lb,
        ub,
        objective,
        rows,
    }
}

fn outcome_class(o: &LpOutcome) -> &'static str {
    match o {
        LpOutcome::Optimal(_) => "optimal",
        LpOutcome::Infeasible => "infeasible",
        LpOutcome::Unbounded => "unbounded",
        LpOutcome::IterationLimit => "iteration-limit",
        LpOutcome::Interrupted => "interrupted",
    }
}

/// Max constraint/bound violation of `s` on `lp`.
fn violation(lp: &LpProblem, s: &LpSolution) -> f64 {
    let mut worst = 0.0f64;
    for j in 0..lp.num_vars {
        worst = worst.max(lp.lb[j] - s.values[j]);
        worst = worst.max(s.values[j] - lp.ub[j]);
    }
    for r in &lp.rows {
        let lhs: f64 = r.terms.iter().map(|&(j, c)| c * s.values[j]).sum();
        let v = match r.relation {
            Relation::Le => lhs - r.rhs,
            Relation::Ge => r.rhs - lhs,
            Relation::Eq => (lhs - r.rhs).abs(),
        };
        worst = worst.max(v);
    }
    worst
}

fn check_agreement(lp: &LpProblem, seed_tag: u64) -> &'static str {
    let dense = DenseBackend.solve(lp).outcome;
    let revised = RevisedSimplex.solve(lp).outcome;
    let (dc, rc) = (outcome_class(&dense), outcome_class(&revised));
    assert_ne!(dc, "iteration-limit", "seed {seed_tag}: dense stalled");
    assert_ne!(rc, "iteration-limit", "seed {seed_tag}: revised stalled");
    assert_eq!(dc, rc, "seed {seed_tag}: outcome mismatch on {lp:?}");
    if let (LpOutcome::Optimal(d), LpOutcome::Optimal(r)) = (&dense, &revised) {
        assert!(
            (d.objective - r.objective).abs() < 1e-6,
            "seed {seed_tag}: dense {} vs revised {} on {lp:?}",
            d.objective,
            r.objective
        );
        assert!(
            violation(lp, d) < 1e-6,
            "seed {seed_tag}: dense solution infeasible"
        );
        assert!(
            violation(lp, r) < 1e-6,
            "seed {seed_tag}: revised solution infeasible"
        );
    }
    dc
}

/// Triple agreement: the dense tableau and the revised simplex under
/// both factorizations (dense eta file, sparse LU) must report the same
/// outcome class and, when optimal, objectives within 1e-6.
fn check_triple_agreement(lp: &LpProblem, seed_tag: u64) -> &'static str {
    let dense = DenseBackend.solve(lp).outcome;
    let dc = outcome_class(&dense);
    assert_ne!(dc, "iteration-limit", "seed {seed_tag}: dense stalled");
    for kind in [FactorizationKind::DenseEta, FactorizationKind::SparseLu] {
        let backend = RevisedConfig::default().with_factorization(kind);
        let revised = backend.solve(lp).outcome;
        let rc = outcome_class(&revised);
        assert_ne!(rc, "iteration-limit", "seed {seed_tag}: {kind} stalled");
        assert_eq!(dc, rc, "seed {seed_tag}: {kind} outcome mismatch on {lp:?}");
        if let (LpOutcome::Optimal(d), LpOutcome::Optimal(r)) = (&dense, &revised) {
            assert!(
                (d.objective - r.objective).abs() < 1e-6,
                "seed {seed_tag}: dense {} vs {kind} {} on {lp:?}",
                d.objective,
                r.objective
            );
            assert!(
                violation(lp, r) < 1e-6,
                "seed {seed_tag}: {kind} solution infeasible"
            );
        }
    }
    dc
}

#[test]
fn backend_agreement_on_1500_seeded_lps() {
    let mut rng = SplitMix64(0xD1FF_5EED_0001);
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    let mut unbounded = 0usize;
    for seed_tag in 0..1500u64 {
        let lp = gen_lp(&mut rng);
        match check_agreement(&lp, seed_tag) {
            "optimal" => optimal += 1,
            "infeasible" => infeasible += 1,
            _ => unbounded += 1,
        }
    }
    // The population must genuinely cover every outcome class.
    assert!(optimal >= 300, "only {optimal} optimal instances");
    assert!(infeasible >= 100, "only {infeasible} infeasible instances");
    assert!(unbounded >= 50, "only {unbounded} unbounded instances");
}

#[test]
fn backend_agreement_on_warm_started_children() {
    // Branch-and-bound shape: take an optimal parent, pin one
    // finite-span variable to a bound, and compare the revised
    // warm-started child against a dense cold solve of the same child.
    let mut rng = SplitMix64(0xD1FF_5EED_0002);
    let mut warm_children = 0usize;
    let mut seed_tag = 0u64;
    while warm_children < 1000 {
        seed_tag += 1;
        let lp = gen_lp(&mut rng);
        let parent = RevisedSimplex.solve(&lp);
        let Some(basis) = parent.basis else { continue };
        let finite: Vec<usize> = (0..lp.num_vars)
            .filter(|&j| (lp.ub[j] - lp.lb[j]).is_finite() && lp.ub[j] > lp.lb[j])
            .collect();
        if finite.is_empty() {
            continue;
        }
        let j = finite[rng.below(finite.len() as u64) as usize];
        let pin = if rng.below(2) == 0 {
            lp.lb[j]
        } else {
            lp.ub[j]
        };
        let mut child = lp.clone();
        child.lb[j] = pin;
        child.ub[j] = pin;
        let warm = RevisedSimplex.solve_warm(&child, &basis);
        assert!(warm.warmed, "seed {seed_tag}: basis rejected");
        let cold = DenseBackend.solve(&child).outcome;
        let (wc, cc) = (outcome_class(&warm.outcome), outcome_class(&cold));
        assert_ne!(wc, "iteration-limit", "seed {seed_tag}: warm stalled");
        assert_eq!(wc, cc, "seed {seed_tag}: warm/cold outcome mismatch");
        if let (LpOutcome::Optimal(w), LpOutcome::Optimal(c)) = (&warm.outcome, &cold) {
            assert!(
                (w.objective - c.objective).abs() < 1e-6,
                "seed {seed_tag}: warm {} vs cold {} on {child:?}",
                w.objective,
                c.objective
            );
            assert!(
                violation(&child, w) < 1e-6,
                "seed {seed_tag}: warm solution infeasible"
            );
        }
        warm_children += 1;
    }
}

#[test]
fn backend_agreement_on_foreign_warm_starts() {
    // A basis exported for one LP, offered through `solve_warm` to
    // another of the same shape with different costs and right-hand
    // sides: it is adopted although it may be neither primal nor dual
    // feasible there, and the solve must still reach the cold optimum.
    let mut rng = SplitMix64(0xD1FF_5EED_000F);
    let mut adopted = 0usize;
    let mut seed_tag = 0u64;
    while adopted < 1000 {
        seed_tag += 1;
        let lp = gen_lp(&mut rng);
        let Some(basis) = RevisedSimplex.solve(&lp).basis else {
            continue;
        };
        let mut other = lp.clone();
        for c in &mut other.objective {
            *c = rng.half(-5, 5);
        }
        for row in &mut other.rows {
            row.rhs = rng.half(-6, 6);
        }
        let warm = RevisedSimplex.solve_warm(&other, &basis);
        let cold = DenseBackend.solve(&other).outcome;
        let (wc, cc) = (outcome_class(&warm.outcome), outcome_class(&cold));
        assert_ne!(wc, "iteration-limit", "seed {seed_tag}: warm stalled");
        assert_eq!(wc, cc, "seed {seed_tag}: warm/cold outcome mismatch");
        if let (LpOutcome::Optimal(w), LpOutcome::Optimal(c)) = (&warm.outcome, &cold) {
            assert!(
                (w.objective - c.objective).abs() < 1e-6,
                "seed {seed_tag}: warm {} vs cold {} on {other:?}",
                w.objective,
                c.objective
            );
            assert!(
                violation(&other, w) < 1e-6,
                "seed {seed_tag}: warm solution infeasible"
            );
        }
        adopted += usize::from(warm.warmed);
    }
}

#[test]
fn backend_agreement_on_degenerate_transportation_lps() {
    // Classic degenerate family: balanced transportation problems with
    // equal supplies/demands produce many ratio-test ties.
    let mut rng = SplitMix64(0xD1FF_5EED_0003);
    for seed_tag in 0..100u64 {
        let k = 2 + rng.below(3) as usize; // k x k transportation
        let nv = k * k;
        let mut rows = Vec::new();
        for i in 0..k {
            rows.push(xring_milp::simplex::LpRow {
                terms: (0..k).map(|j| (i * k + j, 1.0)).collect(),
                relation: Relation::Eq,
                rhs: 1.0,
            });
            rows.push(xring_milp::simplex::LpRow {
                terms: (0..k).map(|j| (j * k + i, 1.0)).collect(),
                relation: Relation::Eq,
                rhs: 1.0,
            });
        }
        let lp = LpProblem {
            num_vars: nv,
            lb: vec![0.0; nv],
            ub: vec![1.0; nv],
            objective: (0..nv).map(|_| rng.half(0, 9)).collect(),
            rows,
        };
        check_agreement(&lp, seed_tag);
    }
}

#[test]
fn backend_triple_agreement_on_seeded_lps() {
    // Dense tableau vs revised+dense-eta vs revised+sparse-lu on a
    // fresh seeded population spanning every outcome class.
    let mut rng = SplitMix64(0xD1FF_5EED_0004);
    let mut optimal = 0usize;
    for seed_tag in 0..400u64 {
        let lp = gen_lp(&mut rng);
        if check_triple_agreement(&lp, seed_tag) == "optimal" {
            optimal += 1;
        }
    }
    assert!(optimal >= 80, "only {optimal} optimal instances");
}

#[test]
fn backend_agreement_under_forced_refactorization_cadences() {
    // Tight refactorization intervals force the LU path through many
    // refresh cycles per solve; every cadence must reproduce the dense
    // reference objective exactly (within 1e-6).
    let mut rng = SplitMix64(0xD1FF_5EED_0005);
    for seed_tag in 0..150u64 {
        let lp = gen_lp(&mut rng);
        let dense = DenseBackend.solve(&lp).outcome;
        let dc = outcome_class(&dense);
        for interval in [1, 3, 7] {
            for kind in [FactorizationKind::DenseEta, FactorizationKind::SparseLu] {
                let backend = RevisedConfig::default()
                    .with_factorization(kind)
                    .with_refactor_interval(interval);
                let revised = backend.solve(&lp).outcome;
                assert_eq!(
                    dc,
                    outcome_class(&revised),
                    "seed {seed_tag}: {kind} interval {interval} outcome mismatch"
                );
                if let (LpOutcome::Optimal(d), LpOutcome::Optimal(r)) = (&dense, &revised) {
                    assert!(
                        (d.objective - r.objective).abs() < 1e-6,
                        "seed {seed_tag}: {kind} interval {interval}: dense {} vs revised {}",
                        d.objective,
                        r.objective
                    );
                }
            }
        }
    }
}

#[test]
fn backend_triple_agreement_on_badly_scaled_lps() {
    // Equilibration-hostile instances: scale each row by 10^{-3..3} and
    // each column by 10^{-3..3} (substituting y_j = s_j · x_j, which
    // compensates bounds and objective so the optimal value is
    // unchanged), giving coefficient magnitudes spanning ~1e±6.
    let mut rng = SplitMix64(0xD1FF_5EED_0006);
    let mut optimal = 0usize;
    for seed_tag in 0..200u64 {
        let mut lp = gen_lp(&mut rng);
        let col_scale: Vec<f64> = (0..lp.num_vars)
            .map(|_| 10f64.powi(rng.below(7) as i32 - 3))
            .collect();
        for (j, &s) in col_scale.iter().enumerate() {
            lp.lb[j] *= s;
            lp.ub[j] *= s;
            lp.objective[j] /= s;
        }
        for row in &mut lp.rows {
            let rs = 10f64.powi(rng.below(7) as i32 - 3);
            for (j, c) in &mut row.terms {
                *c = *c / col_scale[*j] * rs;
            }
            row.rhs *= rs;
        }
        if check_triple_agreement(&lp, seed_tag) == "optimal" {
            optimal += 1;
        }
    }
    assert!(optimal >= 40, "only {optimal} optimal instances");
}

#[test]
fn backend_triple_agreement_on_near_degenerate_lps() {
    // Transportation structure with rhs perturbed by ~1e-5: ratio tests
    // see near-ties instead of exact ties, the regime where eta-file
    // drift and pivot-tolerance differences would surface first. The
    // perturbation stays above the 1e-7 feasibility tolerance so every
    // backend resolves the same unique optimum.
    let mut rng = SplitMix64(0xD1FF_5EED_0007);
    for seed_tag in 0..60u64 {
        let k = 2 + rng.below(3) as usize;
        let nv = k * k;
        let mut rows = Vec::new();
        for i in 0..k {
            let eps = (rng.below(5) as f64 - 2.0) * 1e-5;
            rows.push(xring_milp::simplex::LpRow {
                terms: (0..k).map(|j| (i * k + j, 1.0)).collect(),
                relation: Relation::Le,
                rhs: 1.0 + eps,
            });
            rows.push(xring_milp::simplex::LpRow {
                terms: (0..k).map(|j| (j * k + i, 1.0)).collect(),
                relation: Relation::Ge,
                rhs: 1.0 - eps,
            });
        }
        let lp = LpProblem {
            num_vars: nv,
            lb: vec![0.0; nv],
            ub: vec![1.0; nv],
            objective: (0..nv).map(|_| rng.half(0, 9)).collect(),
            rows,
        };
        check_triple_agreement(&lp, seed_tag);
    }
}

#[test]
fn backend_agreement_survives_aborted_dual_feasibility_flips() {
    // Regression: a cold start flips nonbasic variables toward their
    // reduced-cost-preferred bound, then discovers a variable (here x3,
    // cost −3.5, ub = ∞) that cannot flip and falls back to primal
    // phase 1. The earlier flips must not leave `xb` stale, or the
    // solver wrongly reports infeasible. Found by the seeded sweep
    // (seed 13 of `backend_agreement_on_1500_seeded_lps`); also covers
    // duplicated terms for one variable within a row.
    use xring_milp::simplex::LpRow;
    let mk = |merge: bool| {
        let row2_terms = if merge {
            vec![(3usize, -2.5f64), (0, 3.0)]
        } else {
            vec![(3, 0.5), (3, -3.0), (0, 3.0)]
        };
        LpProblem {
            num_vars: 4,
            lb: vec![-2.0, 1.0, -2.0, -0.5],
            ub: vec![0.5, 2.0, 2.0, f64::INFINITY],
            objective: vec![-1.0, -3.5, 0.0, -3.5],
            rows: vec![
                LpRow {
                    terms: vec![(1, 1.0)],
                    relation: Relation::Le,
                    rhs: 3.5,
                },
                LpRow {
                    terms: row2_terms,
                    relation: Relation::Ge,
                    rhs: -2.0,
                },
                LpRow {
                    terms: vec![(3, 0.5)],
                    relation: Relation::Ge,
                    rhs: -3.5,
                },
                LpRow {
                    terms: vec![(1, 1.0)],
                    relation: Relation::Le,
                    rhs: 3.5,
                },
                LpRow {
                    terms: vec![(2, -1.0)],
                    relation: Relation::Le,
                    rhs: 5.5,
                },
                LpRow {
                    terms: vec![(2, -2.0), (0, 1.5)],
                    relation: Relation::Le,
                    rhs: -3.0,
                },
                LpRow {
                    terms: vec![(0, 1.5), (3, 0.5)],
                    relation: Relation::Le,
                    rhs: -0.5,
                },
            ],
        }
    };
    for merge in [true, false] {
        check_agreement(&mk(merge), merge as u64);
    }
}
