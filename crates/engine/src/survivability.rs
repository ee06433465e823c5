//! Batch fault sweeps: device-fault scenarios fanned across the worker
//! pool, one sweep point per spare level, with Pareto reporting over
//! power × wavelengths × fault margin.
//!
//! A sweep answers the provisioning question the core verifier cannot:
//! *how much* does survivability cost. For each requested
//! [`SpareConfig`] level the engine synthesizes one design, enumerates
//! every single-fault scenario ([`enumerate_single_faults`]), audits
//! each degraded design in parallel on the worker pool, and scores the
//! level on laser power, channel count and fault margin (the fraction
//! of scenarios survived). Points not dominated on all three axes are
//! flagged Pareto-optimal.

use std::time::{Duration, Instant};

use xring_core::{
    apply_fault, audit_degraded, enumerate_single_faults, DegradedDesign, DeviceFault, FaultAudit,
    NetworkSpec, RepairSummary, SpareConfig, SynthesisOptions,
};
use xring_phot::{CrosstalkParams, PowerParams};

use crate::executor::Engine;
use crate::job::{JobError, SynthesisJob};

/// One spare level's outcome in a fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// Level label (e.g. `"spares k_wl=1 k_mrr=1"`).
    pub label: String,
    /// The spare configuration synthesized at this level.
    pub spares: SpareConfig,
    /// Channels the design uses (spare channels excluded — they are
    /// dark until a repair claims them).
    pub wavelengths: usize,
    /// Ring waveguides in the design.
    pub waveguides: usize,
    /// Total laser power of the healthy design (None without a PDN).
    pub total_power_w: Option<f64>,
    /// Single-fault scenarios enumerated.
    pub scenarios: usize,
    /// Scenarios survived (clean post-failure audit, all demands
    /// served).
    pub survived: usize,
    /// `survived / scenarios` (1.0 when no scenario exists).
    pub fault_margin: f64,
    /// Lowest served-demand fraction across scenarios.
    pub min_served_fraction: f64,
    /// Worst post-failure SNR across scenarios (when crosstalk was
    /// evaluated).
    pub worst_post_snr_db: Option<f64>,
    /// Description of the worst failing scenario, when any failed.
    pub worst: Option<String>,
    /// True when no other sweep point is at least as good on power,
    /// wavelengths *and* fault margin while better on one of them.
    pub pareto: bool,
    /// Wall clock for this level (synthesis + all scenario audits).
    pub wall: Duration,
}

/// The outcome of [`Engine::fault_sweep`], points in level order.
#[derive(Debug, Clone)]
pub struct FaultSweepResult {
    /// One point per requested spare level.
    pub points: Vec<FaultSweepPoint>,
}

impl FaultSweepResult {
    /// The Pareto-optimal points, in level order.
    pub fn frontier(&self) -> impl Iterator<Item = &FaultSweepPoint> {
        self.points.iter().filter(|p| p.pareto)
    }
}

impl Engine {
    /// Sweeps `levels` spare configurations over `net`: per level,
    /// synthesize under `base` with that level's spares through
    /// [`resynthesize`](Self::resynthesize), enumerate every
    /// single-fault scenario and audit the degraded designs across the
    /// worker pool. Spares key no persisted phase, so every level after
    /// the first replays the first level's ring and shortcuts. Pass
    /// `xtalk` to score post-failure SNR (loss-only audits otherwise).
    /// Fails fast if any level's synthesis fails — e.g. when the spare
    /// reservation leaves no usable channel.
    pub fn fault_sweep(
        &self,
        net: &NetworkSpec,
        base: &SynthesisOptions,
        levels: &[SpareConfig],
        xtalk: Option<&CrosstalkParams>,
    ) -> Result<FaultSweepResult, JobError> {
        let _span = xring_obs::span_labelled("fault-sweep", format!("{} levels", levels.len()));
        let mut points = Vec::with_capacity(levels.len());
        for &spares in levels {
            let t0 = Instant::now();
            let options = base.clone().with_spares(spares);
            let out = self.resynthesize(&SynthesisJob {
                label: format!("fault-sweep {spares}"),
                net: net.clone(),
                options: options.clone(),
                loss: options.loss.clone(),
                xtalk: xtalk.cloned(),
                power: PowerParams::default(),
            })?;
            let design = &*out.design;
            let faults = enumerate_single_faults(design);
            // Scenarios whose repair leaves the design untouched all
            // share this baseline audit instead of re-evaluating it.
            let baseline = audit_degraded(
                &DegradedDesign {
                    design: design.clone(),
                    fault: DeviceFault::WavelengthLoss {
                        wavelength: u16::MAX,
                    },
                    repair: RepairSummary::default(),
                    lost: Vec::new(),
                    unchanged: true,
                },
                &options,
                xtalk,
            );
            let audits = self.run_tasks(faults.len(), |i| {
                let degraded = apply_fault(design, faults[i], &options);
                if degraded.unchanged {
                    Ok(FaultAudit {
                        fault: degraded.fault,
                        repair: degraded.repair,
                        ..baseline.clone()
                    })
                } else {
                    Ok(audit_degraded(&degraded, &options, xtalk))
                }
            });
            let mut survived = 0usize;
            let mut min_served = 1.0f64;
            let mut worst_snr: Option<f64> = None;
            let mut worst: Option<String> = None;
            for (fault, outcome) in faults.iter().zip(audits) {
                match outcome {
                    Ok(audit) => {
                        let fraction = audit.served_fraction();
                        if audit.survived {
                            survived += 1;
                        } else if worst.is_none() || fraction < min_served {
                            worst = Some(format!("{fault}: {}", audit.report.summary()));
                        }
                        min_served = min_served.min(fraction);
                        worst_snr = match (worst_snr, audit.post_snr_db) {
                            (Some(w), Some(s)) => Some(w.min(s)),
                            (None, s) => s,
                            (w, None) => w,
                        };
                    }
                    Err(e) => {
                        // A panicking audit counts as an unsurvived
                        // scenario, never a silently skipped one.
                        min_served = 0.0;
                        worst = Some(format!("{fault}: audit failed: {e}"));
                    }
                }
            }
            let scenarios = faults.len();
            let margin = if scenarios == 0 {
                1.0
            } else {
                survived as f64 / scenarios as f64
            };
            xring_obs::counter("engine.fault_sweep_levels", 1);
            xring_obs::record_hist(
                "engine.fault_sweep_level_us",
                t0.elapsed().as_micros() as u64,
            );
            points.push(FaultSweepPoint {
                label: format!("spares {spares}"),
                spares,
                wavelengths: design.plan.wavelengths_used(),
                waveguides: design.plan.ring_waveguides.len(),
                total_power_w: out.report.total_power_w,
                scenarios,
                survived,
                fault_margin: margin,
                min_served_fraction: min_served,
                worst_post_snr_db: worst_snr,
                worst,
                pareto: false,
                wall: t0.elapsed(),
            });
        }
        mark_pareto(&mut points);
        Ok(FaultSweepResult { points })
    }
}

/// Flags the points not dominated in (power ↓, wavelengths ↓,
/// fault margin ↑).
fn mark_pareto(points: &mut [FaultSweepPoint]) {
    let n = points.len();
    for i in 0..n {
        let dominated = (0..n).any(|j| j != i && dominates(&points[j], &points[i]));
        points[i].pareto = !dominated;
    }
}

/// True when `a` is at least as good as `b` on every axis and strictly
/// better on at least one.
fn dominates(a: &FaultSweepPoint, b: &FaultSweepPoint) -> bool {
    let pa = a.total_power_w.unwrap_or(0.0);
    let pb = b.total_power_w.unwrap_or(0.0);
    let as_good = pa <= pb && a.wavelengths <= b.wavelengths && a.fault_margin >= b.fault_margin;
    let better = pa < pb || a.wavelengths < b.wavelengths || a.fault_margin > b.fault_margin;
    as_good && better
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spare_margin_is_strictly_below_one_spare() {
        let engine = Engine::new().with_workers(4);
        let net = NetworkSpec::proton_8();
        let base = SynthesisOptions::with_wavelengths(8);
        let result = engine
            .fault_sweep(
                &net,
                &base,
                &[SpareConfig::default(), SpareConfig::uniform(1)],
                None,
            )
            .expect("sweep");
        assert_eq!(result.points.len(), 2);
        let zero = &result.points[0];
        let one = &result.points[1];
        assert!(zero.scenarios > 0 && one.scenarios > 0);
        assert!(
            zero.fault_margin < one.fault_margin,
            "zero-spare margin {} not strictly below spared margin {}",
            zero.fault_margin,
            one.fault_margin
        );
        assert_eq!(one.fault_margin, 1.0, "worst: {:?}", one.worst);
        assert_eq!(one.min_served_fraction, 1.0);
        assert!(zero.min_served_fraction < 1.0);
        assert!(zero.worst.is_some());
        // The fully-survivable point has the best margin, so nothing
        // dominates it: it must sit on the frontier.
        assert!(one.pareto);
        assert!(result.frontier().count() >= 1);
    }

    #[test]
    fn sweep_surfaces_synthesis_failures() {
        let engine = Engine::new();
        let net = NetworkSpec::proton_8();
        // Reserving the whole budget leaves no usable channel.
        let err = engine
            .fault_sweep(
                &net,
                &SynthesisOptions::with_wavelengths(1),
                &[SpareConfig::uniform(1)],
                None,
            )
            .unwrap_err();
        assert!(matches!(err, JobError::Synthesis(_)));
    }
}
