//! Fault-injection acceptance suite (`--features fault-inject`).
//!
//! The engine must complete every job of a batch even when a deterministic
//! fault plan injects simplex numerical failures, solver deadlines, worker
//! panics and cache corruption into a substantial fraction of the jobs:
//! no batch aborts, submission order preserved, failures isolated, and
//! every produced design audit-clean — exact where possible, provenance-
//! marked degraded otherwise.

use xring::core::{
    DegradationLevel, DegradationPolicy, LpBackendKind, NetworkSpec, SynthesisOptions,
};
use xring::engine::{
    CacheCounter, Engine, FaultClass, FaultPlan, FaultRates, JobError, SynthesisJob,
};

/// The seeded 8-node floorplan of job `index`. Every job of a suite
/// gets its own, so no job replays a ring another job solved: an armed
/// solver fault always meets the LP solves it is aimed at.
fn floorplan(index: usize) -> NetworkSpec {
    NetworkSpec::irregular(8, 6_000, 0xFA17_0000 + index as u64).expect("valid placement")
}

/// 32 distinct jobs (8 `#wl` settings × shortcuts on/off × openings
/// on/off, each on its own 8-node floorplan), all allowing degradation.
fn jobs_32() -> Vec<SynthesisJob> {
    let mut jobs = Vec::new();
    for wl in 2..=9usize {
        for shortcuts in [true, false] {
            for openings in [true, false] {
                let mut options = SynthesisOptions::with_wavelengths(wl)
                    .with_degradation(DegradationPolicy::Allow);
                options.shortcuts = shortcuts;
                options.openings = openings;
                jobs.push(SynthesisJob::new(
                    format!("wl{wl}-s{}-o{}", shortcuts as u8, openings as u8),
                    floorplan(jobs.len()),
                    options,
                ));
            }
        }
    }
    assert_eq!(jobs.len(), 32);
    jobs
}

/// The suite's plan: chosen so that ≥ 30 % of the 32 jobs are faulted and
/// every fault class fires at least once (asserted below, so a future
/// RNG change cannot silently weaken the suite).
fn plan() -> FaultPlan {
    FaultPlan::new(0x00C0_FFEE).with_rates(FaultRates {
        numerical: 0.15,
        deadline: 0.12,
        panic: 0.10,
        cache_corruption: 0.10,
        device: 0.0,
    })
}

#[test]
fn faulted_batch_completes_every_job_with_audited_designs() {
    let plan = plan();
    let schedule = plan.schedule(32);
    let fired = schedule.iter().filter(|d| d.is_some()).count();
    assert!(
        fired * 10 >= 32 * 3,
        "plan too weak: only {fired}/32 jobs faulted"
    );
    for class in FaultClass::PROCESS {
        assert!(
            schedule.contains(&Some(class)),
            "plan never injects {class}"
        );
    }

    let engine = Engine::new().with_workers(4).with_fault_plan(plan);
    let jobs = jobs_32();
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let batch = engine.run_batch(jobs);

    assert_eq!(batch.outcomes.len(), 32, "batch aborted");
    let mut retried = 0;
    let mut heuristic = 0;
    for (i, outcome) in batch.outcomes.iter().enumerate() {
        let out = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("job {i} ({}) failed: {e}", labels[i]));
        assert_eq!(out.label, labels[i], "job {i} out of order");
        assert!(
            out.design.provenance.audit.is_clean(),
            "job {i}: unaudited or dirty design: {}",
            out.design.provenance.audit.summary()
        );
        let level = out.design.provenance.degradation;
        match schedule[i] {
            // A numerical failure is recovered by the perturbed-objective
            // MILP retry: still optimal, marked as retried.
            Some(FaultClass::SimplexNumerical) => {
                assert_eq!(level, DegradationLevel::RetriedPerturbed, "job {i}");
                assert!(out.design.provenance.fallback_reason.is_some(), "job {i}");
            }
            // A solver deadline skips the retry (it would also time out)
            // and lands on the deadline-waived heuristic ring.
            Some(FaultClass::SolverDeadline) => {
                assert_eq!(level, DegradationLevel::Heuristic, "job {i}");
                let reason = out.design.provenance.fallback_reason.as_deref();
                assert!(
                    reason.is_some_and(|r| r.contains("deadline")),
                    "job {i}: {reason:?}"
                );
            }
            // A worker panic heals on the engine's retry attempt; cache
            // corruption of a not-yet-cached key is a no-op. Both yield
            // the exact design.
            Some(FaultClass::WorkerPanic | FaultClass::CacheCorruption) | None => {
                assert_eq!(level, DegradationLevel::Exact, "job {i}");
            }
            Some(FaultClass::DeviceFault) => {
                unreachable!("plan has a zero device-fault rate")
            }
        }
        match level {
            DegradationLevel::Exact => {}
            DegradationLevel::RetriedPerturbed => retried += 1,
            DegradationLevel::Heuristic => heuristic += 1,
        }
    }
    assert_eq!(batch.metrics.succeeded, 32);
    assert_eq!(batch.metrics.failed, 0);
    assert_eq!(batch.metrics.degraded_retried, retried);
    assert_eq!(batch.metrics.degraded_heuristic, heuristic);
    assert!(
        retried > 0 && heuristic > 0,
        "degradation paths unexercised"
    );

    // Second run on the same engine: the cache is now populated, so the
    // cache-corruption faults hit real entries. Validate-on-read must
    // evict every corrupted entry and re-synthesize; numerical solver
    // faults are absorbed by cache hits; panics heal on retry. Designs
    // degraded by an (injected) deadline were never cached, so those
    // jobs synthesize, and degrade, again.
    let count = |class| schedule.iter().filter(|d| **d == Some(class)).count();
    let corrupted = count(FaultClass::CacheCorruption);
    let batch2 = engine.run_batch(jobs_32());
    assert_eq!(batch2.metrics.succeeded, 32);
    assert_eq!(batch2.metrics.failed, 0);
    assert_eq!(
        engine.cache().counters.get(CacheCounter::Evictions),
        corrupted as u64
    );
    assert_eq!(
        batch2.metrics.cache_hits,
        32 - corrupted - count(FaultClass::SolverDeadline)
    );
    for (i, outcome) in batch2.outcomes.iter().enumerate() {
        let out = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("run 2 job {i} failed: {e}"));
        assert!(
            out.design.provenance.audit.is_clean(),
            "run 2 job {i}: dirty design"
        );
    }
}

#[test]
fn revised_backend_degrades_through_the_same_chain() {
    // Only numerical faults, with every job explicitly requesting the
    // revised simplex: a faulted job must recover through the perturbed
    // retry — which also swaps the LP kernel to the dense reference
    // backend, so a numerical failure is never retried on the kernel
    // that produced it — and clean jobs must stay exact.
    let plan = FaultPlan::new(0x0B5E_55ED).with_rates(FaultRates {
        numerical: 0.4,
        ..FaultRates::default()
    });
    let schedule = plan.schedule(12);
    assert!(
        schedule.iter().any(|d| d.is_some()) && schedule.iter().any(|d| d.is_none()),
        "need a mix of faulted and clean jobs"
    );

    let jobs: Vec<SynthesisJob> = (0..12)
        .map(|i| {
            SynthesisJob::new(
                format!("job{i}"),
                floorplan(i),
                SynthesisOptions::with_wavelengths(2 + (i % 7))
                    .with_degradation(DegradationPolicy::Allow)
                    .with_lp_backend(LpBackendKind::Revised),
            )
        })
        .collect();
    let engine = Engine::new().with_workers(3).with_fault_plan(plan);
    let batch = engine.run_batch(jobs);

    assert_eq!(batch.metrics.failed, 0, "{}", batch.metrics.summary());
    for (i, outcome) in batch.outcomes.iter().enumerate() {
        let out = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("job {i} failed: {e}"));
        assert!(out.design.provenance.audit.is_clean(), "job {i}");
        match schedule[i] {
            Some(FaultClass::SimplexNumerical) if !out.cache_hit => {
                assert_eq!(
                    out.design.provenance.degradation,
                    DegradationLevel::RetriedPerturbed,
                    "job {i}"
                );
            }
            _ => {}
        }
    }
    assert!(
        batch.metrics.degraded_retried > 0,
        "perturbed retry never exercised"
    );
}

#[test]
fn fault_pattern_is_deterministic_across_engines() {
    let levels = |batch: &xring::engine::BatchResult| -> Vec<DegradationLevel> {
        batch
            .outcomes
            .iter()
            .map(|o| o.as_ref().expect("job ok").design.provenance.degradation)
            .collect()
    };
    let a = Engine::new()
        .with_workers(2)
        .with_fault_plan(plan())
        .run_batch(jobs_32());
    let b = Engine::new()
        .with_workers(7)
        .with_fault_plan(plan())
        .run_batch(jobs_32());
    assert_eq!(levels(&a), levels(&b));
}

#[test]
fn forbid_policy_isolates_injected_failures() {
    // Only solver faults, high rate, and jobs that forbid degradation:
    // faulted jobs fail individually, neighbours are untouched.
    let plan = FaultPlan::new(0xDEAD_10CC).with_rates(FaultRates {
        numerical: 0.5,
        ..FaultRates::default()
    });
    let schedule = plan.schedule(8);
    assert!(
        schedule.iter().any(|d| d.is_some()) && schedule.iter().any(|d| d.is_none()),
        "need a mix of faulted and clean jobs"
    );

    let jobs: Vec<SynthesisJob> = (0..8)
        .map(|i| {
            SynthesisJob::new(
                format!("job{i}"),
                floorplan(i),
                SynthesisOptions::with_wavelengths(2 + i),
            )
        })
        .collect();
    let engine = Engine::new().with_workers(3).with_fault_plan(plan);
    let batch = engine.run_batch(jobs);

    for (i, outcome) in batch.outcomes.iter().enumerate() {
        match schedule[i] {
            Some(FaultClass::SimplexNumerical) => {
                let err = outcome.as_ref().expect_err("faulted job must fail");
                assert!(
                    matches!(err, JobError::Synthesis(_)),
                    "job {i}: unexpected error {err}"
                );
            }
            _ => {
                let out = outcome
                    .as_ref()
                    .unwrap_or_else(|e| panic!("clean job {i} failed: {e}"));
                assert_eq!(out.design.provenance.degradation, DegradationLevel::Exact);
                assert!(out.design.provenance.audit.is_clean());
            }
        }
    }
    assert_eq!(
        batch.metrics.failed,
        schedule.iter().filter(|d| d.is_some()).count()
    );
}

#[test]
fn injected_device_faults_kill_zero_spare_jobs_but_not_spared_ones() {
    use xring::core::SpareConfig;
    // Every job draws a device fault: a seeded single-device scenario is
    // applied to the finished design and the job fails unless the
    // degraded design passes its post-failure audit.
    let plan = || FaultPlan::new(0x5AFE_C0DE).with_rates(FaultRates::default().with_device(1.0));
    let net = NetworkSpec::proton_8();
    let jobs = |spares: SpareConfig| -> Vec<SynthesisJob> {
        (0..6)
            .map(|i| {
                SynthesisJob::new(
                    format!("dev{i}"),
                    net.clone(),
                    SynthesisOptions::with_wavelengths(8).with_spares(spares),
                )
            })
            .collect()
    };

    // Zero spares: a struck MRR/segment/channel loses its demand and the
    // post-failure audit fails the job. All six jobs share one cache key,
    // so this also exercises the device check on the cache-hit path.
    let engine = Engine::new().with_workers(3).with_fault_plan(plan());
    let batch = engine.run_batch(jobs(SpareConfig::default()));
    assert!(
        batch.metrics.failed > 0,
        "no zero-spare job lost its scenario: {}",
        batch.metrics.summary()
    );
    for outcome in batch.outcomes.iter().filter(|o| o.is_err()) {
        let err = outcome.as_ref().expect_err("filtered");
        assert!(
            matches!(err, JobError::Synthesis(_)) && err.to_string().contains("device fault"),
            "unexpected error: {err}"
        );
    }

    // One spare of each class: synthesis proved every single-fault
    // scenario survivable, so whatever scenario each job draws, the
    // degraded design audits clean and the whole batch succeeds.
    let engine = Engine::new().with_workers(3).with_fault_plan(plan());
    let batch = engine.run_batch(jobs(SpareConfig::uniform(1)));
    assert_eq!(
        batch.metrics.failed,
        0,
        "spared design lost a device-fault scenario: {}",
        batch.metrics.summary()
    );
    assert_eq!(batch.metrics.succeeded, 6);
}
