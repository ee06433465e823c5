//! Pluggable pricing rules for the revised simplex's primal phases.
//!
//! Pricing decides which improving nonbasic column enters the basis.
//! The [`Pricing`] trait abstracts the choice so backends can select a
//! rule per workload:
//!
//! * [`Dantzig`] — most-negative improvement rate. The historical
//!   default; cheap per scan and deterministic, but blind to column
//!   geometry.
//! * [`Devex`] — approximate steepest edge with reference weights
//!   (Forrest–Goldfarb). Scores `d²/w` and updates weights from the
//!   pivot row after each basis exchange; fewer, better pivots on
//!   ill-conditioned models at the cost of one extra `btran` per pivot.
//! * [`Partial`] — rotating-window partial pricing: scans a window of
//!   columns per iteration and only falls back to a full sweep to
//!   confirm optimality, cutting pricing cost on very wide models.
//!
//! The solver's anti-cycling Bland mode bypasses pricing entirely
//! (first eligible index), so every rule inherits the same termination
//! guarantee. The dual simplex's entering choice is a ratio test, not a
//! pricing decision, and is unaffected.

use std::fmt;
use std::str::FromStr;

/// Which pricing rule the revised simplex's primal phases use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PricingKind {
    /// Most-negative reduced cost (default).
    #[default]
    Dantzig,
    /// Approximate steepest edge with reference weights.
    Devex,
    /// Rotating-window partial pricing.
    Partial,
}

impl PricingKind {
    /// Every rule, in declaration order.
    pub const ALL: [PricingKind; 3] = [
        PricingKind::Dantzig,
        PricingKind::Devex,
        PricingKind::Partial,
    ];

    /// Stable lowercase name, also accepted by [`FromStr`].
    pub fn as_str(self) -> &'static str {
        match self {
            PricingKind::Dantzig => "dantzig",
            PricingKind::Devex => "devex",
            PricingKind::Partial => "partial",
        }
    }

    /// Builds a fresh pricing rule of this kind for `num_cols` columns.
    pub fn build(self, num_cols: usize) -> Box<dyn Pricing> {
        match self {
            PricingKind::Dantzig => Box::new(Dantzig),
            PricingKind::Devex => Box::new(Devex::new(num_cols)),
            PricingKind::Partial => Box::new(Partial::new(num_cols)),
        }
    }
}

impl fmt::Display for PricingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for PricingKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dantzig" => Ok(PricingKind::Dantzig),
            "devex" => Ok(PricingKind::Devex),
            "partial" => Ok(PricingKind::Partial),
            other => Err(format!(
                "unknown pricing rule {other:?} (expected dantzig|devex|partial)"
            )),
        }
    }
}

/// A pricing rule: selects the entering column for a primal iteration.
///
/// `improve(j)` (supplied by the solver) returns the improvement rate of
/// column `j` — already sign-adjusted for the bound the variable rests
/// at — when `j` is a strictly eligible nonbasic candidate, and `None`
/// otherwise. Rates are negative; more negative is better.
pub trait Pricing: fmt::Debug + Send {
    /// Stable lowercase rule name ("dantzig", "devex", "partial").
    fn name(&self) -> &'static str;

    /// Resets per-solve state for a problem with `num_cols` columns.
    fn reset(&mut self, num_cols: usize);

    /// Selects the entering column, or `None` when no eligible column
    /// exists (primal optimality for the current phase).
    fn select(
        &mut self,
        num_cols: usize,
        improve: &mut dyn FnMut(usize) -> Option<f64>,
    ) -> Option<usize>;

    /// Whether [`on_pivot`](Self::on_pivot) needs the pivot row
    /// (`eᵣᵀB⁻¹N` entries), which costs the solver one extra `btran`.
    fn needs_pivot_row(&self) -> bool {
        false
    }

    /// Post-exchange hook: `entering` replaced `leaving` at the basis
    /// row whose pivot element was `pivot_alpha`. When
    /// [`needs_pivot_row`](Self::needs_pivot_row), `pivot_row(j)` gives
    /// the pivot-row entry of any column `j`.
    fn on_pivot(
        &mut self,
        entering: usize,
        leaving: usize,
        pivot_alpha: f64,
        pivot_row: Option<&dyn Fn(usize) -> f64>,
    ) {
        let _ = (entering, leaving, pivot_alpha, pivot_row);
    }
}

/// Most-negative-rate pricing (the classical textbook rule).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dantzig;

impl Pricing for Dantzig {
    fn name(&self) -> &'static str {
        "dantzig"
    }

    fn reset(&mut self, _num_cols: usize) {}

    fn select(
        &mut self,
        num_cols: usize,
        improve: &mut dyn FnMut(usize) -> Option<f64>,
    ) -> Option<usize> {
        let mut best = f64::INFINITY;
        let mut q = None;
        for j in 0..num_cols {
            if let Some(rate) = improve(j) {
                if rate < best {
                    best = rate;
                    q = Some(j);
                }
            }
        }
        q
    }
}

/// Approximate steepest-edge pricing with devex reference weights.
#[derive(Debug)]
pub struct Devex {
    weights: Vec<f64>,
}

impl Devex {
    /// Fresh rule with unit reference weights.
    pub fn new(num_cols: usize) -> Self {
        Devex {
            weights: vec![1.0; num_cols],
        }
    }
}

impl Pricing for Devex {
    fn name(&self) -> &'static str {
        "devex"
    }

    fn reset(&mut self, num_cols: usize) {
        self.weights.clear();
        self.weights.resize(num_cols, 1.0);
    }

    fn select(
        &mut self,
        num_cols: usize,
        improve: &mut dyn FnMut(usize) -> Option<f64>,
    ) -> Option<usize> {
        let mut best = 0.0f64;
        let mut q = None;
        for j in 0..num_cols {
            if let Some(rate) = improve(j) {
                let score = rate * rate / self.weights[j];
                if score > best {
                    best = score;
                    q = Some(j);
                }
            }
        }
        q
    }

    fn needs_pivot_row(&self) -> bool {
        true
    }

    fn on_pivot(
        &mut self,
        entering: usize,
        leaving: usize,
        pivot_alpha: f64,
        pivot_row: Option<&dyn Fn(usize) -> f64>,
    ) {
        let Some(row) = pivot_row else { return };
        if pivot_alpha.abs() < 1e-12 {
            return;
        }
        let wq = self.weights[entering];
        let inv2 = 1.0 / (pivot_alpha * pivot_alpha);
        for j in 0..self.weights.len() {
            if j == entering || j == leaving {
                continue;
            }
            let arj = row(j);
            if arj != 0.0 {
                let cand = arj * arj * inv2 * wq;
                if cand > self.weights[j] {
                    self.weights[j] = cand;
                }
            }
        }
        // The leaving variable re-enters the nonbasic pool with the
        // standard devex reference weight.
        self.weights[leaving] = (wq * inv2).max(1.0);
        self.weights[entering] = 1.0;
    }
}

/// Rotating-window partial pricing.
#[derive(Debug)]
pub struct Partial {
    cursor: usize,
    window: usize,
}

impl Partial {
    /// Fresh rule with a window sized for `num_cols` columns.
    pub fn new(num_cols: usize) -> Self {
        Partial {
            cursor: 0,
            window: Self::window_for(num_cols),
        }
    }

    fn window_for(num_cols: usize) -> usize {
        (num_cols / 8).max(32).min(num_cols.max(1))
    }
}

impl Pricing for Partial {
    fn name(&self) -> &'static str {
        "partial"
    }

    fn reset(&mut self, num_cols: usize) {
        self.cursor = 0;
        self.window = Self::window_for(num_cols);
    }

    fn select(
        &mut self,
        num_cols: usize,
        improve: &mut dyn FnMut(usize) -> Option<f64>,
    ) -> Option<usize> {
        if num_cols == 0 {
            return None;
        }
        let window = self.window.min(num_cols);
        let rounds = num_cols.div_ceil(window);
        // Scan windows starting at the cursor; the full rotation doubles
        // as the optimality confirmation sweep.
        for _ in 0..rounds {
            let start = self.cursor % num_cols;
            let mut best = f64::INFINITY;
            let mut q = None;
            for off in 0..window {
                let j = (start + off) % num_cols;
                if let Some(rate) = improve(j) {
                    if rate < best {
                        best = rate;
                        q = Some(j);
                    }
                }
            }
            if q.is_some() {
                return q;
            }
            self.cursor = (start + window) % num_cols;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rates fixture: columns 2 and 5 eligible, 5 more negative.
    fn rates(j: usize) -> Option<f64> {
        match j {
            2 => Some(-1.0),
            5 => Some(-3.0),
            _ => None,
        }
    }

    #[test]
    fn dantzig_picks_most_negative() {
        let mut p = Dantzig;
        assert_eq!(p.select(8, &mut rates), Some(5));
        assert_eq!(p.select(8, &mut |_| None), None);
    }

    #[test]
    fn devex_scores_by_weighted_square() {
        let mut p = Devex::new(8);
        // Unit weights: same pick as Dantzig.
        assert_eq!(p.select(8, &mut rates), Some(5));
        // A heavy weight on 5 flips the choice to 2: 9/10 < 1/1.
        p.weights[5] = 10.0;
        assert_eq!(p.select(8, &mut rates), Some(2));
        // Weight updates grow reference weights from the pivot row.
        p.reset(8);
        p.on_pivot(5, 1, 2.0, Some(&|j| if j == 2 { 4.0 } else { 0.0 }));
        assert!(p.weights[2] > 1.0, "pivot-row mass must raise w2");
        assert_eq!(p.weights[5], 1.0, "entering weight resets");
        assert!(p.weights[1] >= 1.0, "leaving weight floors at 1");
        assert!(p.needs_pivot_row());
    }

    #[test]
    fn partial_rotates_and_confirms_optimality() {
        let mut p = Partial {
            cursor: 0,
            window: 2,
        };
        // Window [0,2): nothing; [2,4): finds 2 (not 5 — out of window).
        assert_eq!(p.select(8, &mut rates), Some(2));
        // No eligible columns anywhere: full rotation returns None.
        assert_eq!(p.select(8, &mut |_| None), None);
        // Eligibility outside the cursor's window is still found.
        let mut once = |j: usize| if j == 7 { Some(-2.0) } else { None };
        assert_eq!(p.select(8, &mut once), Some(7));
    }

    #[test]
    fn kind_round_trips_and_builds() {
        for kind in [
            PricingKind::Dantzig,
            PricingKind::Devex,
            PricingKind::Partial,
        ] {
            assert_eq!(kind.as_str().parse::<PricingKind>().unwrap(), kind);
            assert_eq!(kind.build(4).name(), kind.as_str());
        }
        assert!("steepest".parse::<PricingKind>().is_err());
        assert_eq!(PricingKind::default(), PricingKind::Dantzig);
    }
}
