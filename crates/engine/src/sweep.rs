//! Parallel `#wl` sweeps with the serial API's exact semantics.

use xring_core::{
    pick_best_index, NetworkSpec, SweepObjective, SweepPoint, SweepResult, SynthesisError,
    SynthesisOptions,
};
use xring_phot::{CrosstalkParams, LossParams, PowerParams};

use crate::executor::Engine;
use crate::job::{JobError, SynthesisJob};

impl Engine {
    /// The parallel, cached equivalent of
    /// [`xring_core::sweep_wavelengths`]: same inputs, same outputs (wall
    /// times aside), same winner. Candidates run as one batch on the
    /// worker pool; repeated points hit the engine's design cache.
    ///
    /// # Errors
    ///
    /// Exactly as the serial function: budget-exhausted candidates are
    /// skipped, [`SynthesisError::WavelengthBudgetExceeded`] when none is
    /// feasible, and the first other failure (in candidate order) is
    /// propagated. A panic inside a candidate's synthesis resumes here.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_wavelengths(
        &self,
        net: &NetworkSpec,
        base: SynthesisOptions,
        candidates: &[usize],
        objective: SweepObjective,
        loss: &LossParams,
        xtalk: Option<&CrosstalkParams>,
        power: &PowerParams,
    ) -> Result<SweepResult, SynthesisError> {
        assert!(!candidates.is_empty(), "sweep needs candidates");
        let jobs: Vec<SynthesisJob> = candidates
            .iter()
            .map(|&wl| SynthesisJob {
                label: format!("#wl={wl}"),
                net: net.clone(),
                options: SynthesisOptions {
                    max_wavelengths: wl,
                    ..base.clone()
                },
                loss: loss.clone(),
                xtalk: xtalk.cloned(),
                power: power.clone(),
            })
            .collect();
        let batch = self.run_batch(jobs);

        let mut points = Vec::new();
        for (&wl, outcome) in candidates.iter().zip(batch.outcomes) {
            match outcome {
                Ok(out) => points.push(SweepPoint {
                    wavelengths: wl,
                    report: out.report,
                    degradation: out.design.provenance.degradation,
                    milp_convergence: out.design.ring_stats.convergence.clone(),
                    design: (*out.design).clone(),
                }),
                Err(JobError::Synthesis(SynthesisError::WavelengthBudgetExceeded { .. })) => {
                    continue
                }
                Err(JobError::Synthesis(e)) => return Err(e),
                Err(JobError::DeadlineExceeded) => return Err(SynthesisError::DeadlineExceeded),
                Err(JobError::Panicked(msg)) => {
                    panic!("sweep candidate #wl={wl} panicked: {msg}")
                }
            }
        }
        if points.is_empty() {
            return Err(SynthesisError::WavelengthBudgetExceeded {
                max_wavelengths: *candidates.iter().max().expect("non-empty"),
                max_waveguides: base.max_waveguides,
            });
        }
        let best = pick_best_index(&points, objective);
        Ok(SweepResult { points, best })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheCounter;
    use xring_core::sweep_wavelengths as serial_sweep;

    #[test]
    fn parallel_sweep_matches_serial() {
        let net = NetworkSpec::proton_8();
        let base = SynthesisOptions::with_wavelengths(8);
        let candidates = [2, 4, 8];
        let loss = LossParams::default();
        let xtalk = CrosstalkParams::default();
        let power = PowerParams::default();
        let serial = serial_sweep(
            &net,
            base.clone(),
            &candidates,
            SweepObjective::MinPower,
            &loss,
            Some(&xtalk),
            &power,
        )
        .expect("serial sweep");
        let parallel = Engine::new()
            .with_workers(3)
            .sweep_wavelengths(
                &net,
                base,
                &candidates,
                SweepObjective::MinPower,
                &loss,
                Some(&xtalk),
                &power,
            )
            .expect("parallel sweep");
        assert_eq!(parallel.best, serial.best);
        assert_eq!(parallel.points.len(), serial.points.len());
        for (p, s) in parallel.points.iter().zip(&serial.points) {
            assert_eq!(p.wavelengths, s.wavelengths);
            assert_eq!(p.report.normalized(), s.report.normalized());
        }
    }

    #[test]
    fn infeasible_candidates_are_skipped() {
        let net = NetworkSpec::proton_8();
        let base = SynthesisOptions {
            max_waveguides: 4,
            ..SynthesisOptions::with_wavelengths(8)
        };
        let r = Engine::new()
            .sweep_wavelengths(
                &net,
                base,
                &[1, 8],
                SweepObjective::MinInsertionLoss,
                &LossParams::default(),
                None,
                &PowerParams::default(),
            )
            .expect("sweep succeeds");
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.points[0].wavelengths, 8);
    }

    #[test]
    fn all_infeasible_reports_budget_exhaustion() {
        let net = NetworkSpec::proton_8();
        let base = SynthesisOptions {
            max_waveguides: 1,
            ..SynthesisOptions::with_wavelengths(1)
        };
        let err = Engine::new()
            .sweep_wavelengths(
                &net,
                base,
                &[1, 2],
                SweepObjective::MinPower,
                &LossParams::default(),
                None,
                &PowerParams::default(),
            )
            .expect_err("no candidate fits");
        assert_eq!(
            err,
            SynthesisError::WavelengthBudgetExceeded {
                max_wavelengths: 2,
                max_waveguides: 1,
            }
        );
    }

    #[test]
    fn repeated_sweeps_hit_the_cache() {
        let engine = Engine::new();
        let net = NetworkSpec::proton_8();
        let run = || {
            engine
                .sweep_wavelengths(
                    &net,
                    SynthesisOptions::with_wavelengths(8),
                    &[2, 4],
                    SweepObjective::MinPower,
                    &LossParams::default(),
                    None,
                    &PowerParams::default(),
                )
                .expect("sweep")
        };
        let first = run();
        assert_eq!(engine.cache().counters.get(CacheCounter::Hits), 0);
        assert_eq!(engine.cache().counters.get(CacheCounter::Misses), 2);
        let second = run();
        assert_eq!(engine.cache().counters.get(CacheCounter::Hits), 2);
        assert_eq!(engine.cache().counters.get(CacheCounter::Misses), 2);
        assert_eq!(first.best, second.best);
        for (a, b) in first.points.iter().zip(&second.points) {
            assert_eq!(a.report, b.report); // cached hits echo the report
        }
    }
}
