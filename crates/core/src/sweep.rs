//! `#wl` sweeps: the operating-point search of the paper's Sec. IV
//! ("we vary the settings of #wl and pick the one with the minimum power
//! / maximum SNR"): its result types and its one selection rule. The
//! sweep itself is `Engine::sweep_wavelengths` in `xring-engine`.

use crate::design::{DegradationLevel, XRingDesign};
use xring_phot::RouterReport;

/// Selection criterion for a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepObjective {
    /// Minimize worst-case insertion loss (Table I's criterion).
    MinInsertionLoss,
    /// Minimize total laser power (Tables II/III).
    MinPower,
    /// Maximize worst-case SNR; noise-free designs rank best.
    MaxSnr,
}

impl SweepObjective {
    /// Every objective, in declaration order.
    pub const ALL: [SweepObjective; 3] = [
        SweepObjective::MinInsertionLoss,
        SweepObjective::MinPower,
        SweepObjective::MaxSnr,
    ];

    /// Stable lowercase name, also accepted by [`FromStr`](std::str::FromStr).
    pub fn as_str(self) -> &'static str {
        match self {
            SweepObjective::MinInsertionLoss => "il",
            SweepObjective::MinPower => "power",
            SweepObjective::MaxSnr => "snr",
        }
    }
}

impl std::str::FromStr for SweepObjective {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|o| o.as_str() == s)
            .ok_or_else(|| format!("unknown objective {s}"))
    }
}

/// One evaluated sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The `#wl` setting.
    pub wavelengths: usize,
    /// Its evaluation.
    pub report: RouterReport,
    /// The synthesized design itself, carried so that the sweep winner
    /// never has to be re-synthesized.
    pub design: XRingDesign,
    /// How far synthesis degraded at this point (mirrors the design's
    /// provenance, surfaced here so sweep consumers can filter or report
    /// without digging into the design).
    pub degradation: DegradationLevel,
    /// How the point's ring MILP converged (mirrors
    /// `design.ring_stats.convergence`; `None` when telemetry was off
    /// or the ring came from a heuristic).
    pub milp_convergence: Option<crate::ConvergenceSummary>,
}

/// The result of a sweep: every feasible point plus the winner's index.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// All evaluated points, in ascending `#wl` order.
    pub points: Vec<SweepPoint>,
    /// Index into [`points`](Self::points) of the best point under the
    /// requested objective.
    pub best: usize,
}

impl SweepResult {
    /// The winning point.
    pub fn best_point(&self) -> &SweepPoint {
        &self.points[self.best]
    }
}

/// Index of the best report under `objective`, the one selection rule of
/// every `#wl` sweep: the objective first, then lower total power (a
/// report without a PDN counts as 0 W), then the first (lowest `#wl`)
/// report.
///
/// # Panics
///
/// Panics if `reports` is empty.
pub fn pick_best_index<'a>(
    reports: impl IntoIterator<Item = &'a RouterReport>,
    objective: SweepObjective,
) -> usize {
    let key = |r: &RouterReport| match objective {
        SweepObjective::MinInsertionLoss => r.worst_il_db,
        SweepObjective::MinPower => r.total_power_w.unwrap_or(f64::INFINITY),
        SweepObjective::MaxSnr => -r.worst_snr_db.unwrap_or(f64::INFINITY),
    };
    let power = |r: &RouterReport| r.total_power_w.unwrap_or(0.0);
    reports
        .into_iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            key(a)
                .partial_cmp(&key(b))
                .expect("metrics are never NaN")
                .then(power(a).partial_cmp(&power(b)).expect("power is never NaN"))
        })
        .map(|(i, _)| i)
        .expect("non-empty reports")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn report(il: f64, power_w: f64, snr: Option<f64>) -> RouterReport {
        RouterReport {
            label: "x".into(),
            num_wavelengths: 4,
            worst_il_db: il,
            worst_path_len_mm: 1.0,
            worst_path_crossings: 0,
            total_power_w: Some(power_w),
            noisy_signal_count: Some(usize::from(snr.is_some())),
            worst_snr_db: snr,
            signal_count: 10,
            synthesis_time: Duration::ZERO,
        }
    }

    #[test]
    fn the_objective_decides_first() {
        let reports = [
            report(3.0, 0.1, Some(20.0)),
            report(1.5, 0.3, Some(30.0)),
            report(2.0, 0.2, None),
        ];
        assert_eq!(
            pick_best_index(&reports, SweepObjective::MinInsertionLoss),
            1
        );
        assert_eq!(pick_best_index(&reports, SweepObjective::MinPower), 0);
        // Noise-free ranks above any finite SNR.
        assert_eq!(pick_best_index(&reports, SweepObjective::MaxSnr), 2);
    }

    #[test]
    fn insertion_loss_ties_go_to_the_lower_power() {
        let reports = [report(1.0, 0.3, None), report(1.0, 0.2, None)];
        assert_eq!(
            pick_best_index(&reports, SweepObjective::MinInsertionLoss),
            1
        );
    }

    #[test]
    fn noise_free_ties_go_to_the_lower_power() {
        let reports = [report(1.0, 0.013, None), report(1.2, 0.007, None)];
        assert_eq!(pick_best_index(&reports, SweepObjective::MaxSnr), 1);
        let reports = [report(1.0, 0.2, Some(25.0)), report(1.0, 0.1, Some(25.0))];
        assert_eq!(pick_best_index(&reports, SweepObjective::MaxSnr), 1);
    }

    #[test]
    fn full_ties_go_to_the_first_report() {
        for objective in [
            SweepObjective::MinInsertionLoss,
            SweepObjective::MinPower,
            SweepObjective::MaxSnr,
        ] {
            let reports = [report(1.0, 0.2, None), report(1.0, 0.2, None)];
            assert_eq!(pick_best_index(&reports, objective), 0, "{objective:?}");
        }
        // Without a PDN every report is 0 W, so an IL tie keeps the first.
        let mut a = report(1.0, 0.0, None);
        a.total_power_w = None;
        assert_eq!(
            pick_best_index([&a, &a.clone()], SweepObjective::MinInsertionLoss),
            0
        );
    }
}
