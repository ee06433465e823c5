//! `#wl` sweeps: the paper's operating-point search (Sec. IV), on the
//! worker pool and the engine's phase-artifact store.

use xring_core::{
    pick_best_index, NetworkSpec, SweepObjective, SweepPoint, SweepResult, SynthesisError,
    SynthesisOptions,
};
use xring_phot::{CrosstalkParams, LossParams, PowerParams};

use crate::executor::Engine;
use crate::job::{JobError, SynthesisJob};

impl Engine {
    /// Sweeps `#wl` over `candidates` for `net` and picks the best point
    /// under `objective` ([`pick_best_index`]).
    ///
    /// `base` carries everything except `max_wavelengths`, which the
    /// sweep overrides per candidate. The candidates run as one
    /// [`run_batch`](Self::run_batch): they share one ring key (neither
    /// phase key depends on `#wl`), so the first solves the ring and
    /// plans the shortcuts and the rest replay them, and each point
    /// equals its cold synthesis. Repeated points hit the design cache.
    ///
    /// # Errors
    ///
    /// Budget-exhausted candidates are skipped;
    /// [`SynthesisError::WavelengthBudgetExceeded`] when none is
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
        let mut points = Vec::new();
        for (&wl, outcome) in candidates.iter().zip(self.run_batch(jobs).outcomes) {
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
        let best = pick_best_index(points.iter().map(|p| &p.report), objective);
        Ok(SweepResult { points, best })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheCounter;
    use xring_core::Synthesizer;
    use xring_obs::{RequestCtx, RequestId};

    fn sweep(engine: &Engine, candidates: &[usize]) -> SweepResult {
        engine
            .sweep_wavelengths(
                &NetworkSpec::proton_8(),
                SynthesisOptions::with_wavelengths(8),
                candidates,
                SweepObjective::MinPower,
                &LossParams::default(),
                Some(&CrosstalkParams::default()),
                &PowerParams::default(),
            )
            .expect("sweep")
    }

    #[test]
    fn sweep_matches_cold_synthesis_of_every_candidate() {
        let net = NetworkSpec::proton_8();
        let candidates = [2, 4, 8];
        let cold: Vec<_> = candidates
            .iter()
            .map(|&wl| {
                Synthesizer::new(SynthesisOptions::with_wavelengths(wl))
                    .synthesize(&net)
                    .expect("cold synthesis")
                    .report(
                        format!("#wl={wl}"),
                        &LossParams::default(),
                        Some(&CrosstalkParams::default()),
                        &PowerParams::default(),
                    )
            })
            .collect();
        let swept = sweep(&Engine::new().with_workers(3), &candidates);
        assert_eq!(swept.best, pick_best_index(&cold, SweepObjective::MinPower));
        assert_eq!(swept.points.len(), cold.len());
        for ((p, c), &wl) in swept.points.iter().zip(&cold).zip(&candidates) {
            assert_eq!(p.wavelengths, wl);
            assert_eq!(p.report.normalized(), c.normalized());
        }
    }

    #[test]
    fn a_sweep_builds_its_ring_once() {
        let capture = |f: &dyn Fn()| {
            let ctx = RequestCtx::new(RequestId::mint(0x5eed, 1, 0));
            let scope = ctx.attach();
            f();
            drop(scope);
            ctx.finish().total("milp.lp_solves")
        };
        let cold = capture(&|| {
            Synthesizer::new(SynthesisOptions::with_wavelengths(8))
                .synthesize(&NetworkSpec::proton_8())
                .expect("cold synthesis");
        });
        assert!(cold > 0);
        let swept = capture(&|| {
            sweep(&Engine::new().with_workers(2), &[2, 4, 8]);
        });
        assert_eq!(swept, cold, "the sweep solved the ring more than once");
    }

    #[test]
    fn infeasible_candidates_are_skipped() {
        let net = NetworkSpec::proton_8();
        let base = SynthesisOptions {
            max_waveguides: 4,
            ..SynthesisOptions::with_wavelengths(8)
        };
        // #wl=1 with only 4 waveguides cannot route 56 signals, but
        // #wl=8 can: the sweep must skip the former and succeed.
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
        let first = sweep(&engine, &[2, 4]);
        assert_eq!(engine.cache().counters.get(CacheCounter::Hits), 0);
        assert_eq!(engine.cache().counters.get(CacheCounter::Misses), 2);
        let second = sweep(&engine, &[2, 4]);
        assert_eq!(engine.cache().counters.get(CacheCounter::Hits), 2);
        assert_eq!(engine.cache().counters.get(CacheCounter::Misses), 2);
        assert_eq!(first.best, second.best);
        for (a, b) in first.points.iter().zip(&second.points) {
            assert_eq!(a.report, b.report); // cached hits echo the report
        }
    }

    #[test]
    fn sweep_points_carry_their_designs() {
        let r = sweep(&Engine::new(), &[2, 4, 8]);
        for p in &r.points {
            assert_eq!(p.degradation, xring_core::DegradationLevel::Exact);
            assert!(p.design.provenance.audit.is_clean());
            // The carried design re-evaluates to the carried report.
            let again = p.design.report(
                format!("#wl={}", p.wavelengths),
                &LossParams::default(),
                Some(&CrosstalkParams::default()),
                &PowerParams::default(),
            );
            assert_eq!(again, p.report);
        }
    }
}
