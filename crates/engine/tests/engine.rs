//! Integration tests for the batch engine: determinism across worker
//! counts, panic isolation, deadlines and cache behaviour.

use std::sync::{Arc, Mutex};
use std::time::Duration;
use xring_core::{
    ArtifactStore, DegradationLevel, DegradationPolicy, NetworkSpec, PhaseArtifact, PhaseId,
    PhaseKeys, SynthesisOptions, Synthesizer,
};
use xring_engine::{BatchResult, Engine, EngineEvent, EventSink, JobError, SynthesisJob};
use xring_obs::{RequestCtx, RequestId};

fn sample_jobs() -> Vec<SynthesisJob> {
    let proton = NetworkSpec::proton_8();
    vec![
        SynthesisJob::new(
            "proton/4",
            proton.clone(),
            SynthesisOptions::with_wavelengths(4),
        ),
        SynthesisJob::new(
            "proton/8",
            proton.clone(),
            SynthesisOptions::with_wavelengths(8),
        ),
        SynthesisJob::new(
            "proton/8-nopdn",
            proton,
            SynthesisOptions::with_wavelengths(8).without_pdn(),
        )
        .without_crosstalk(),
    ]
}

#[test]
fn parallel_results_match_serial_bit_for_bit() {
    let serial = Engine::new().with_workers(1).run_batch(sample_jobs());
    let parallel = Engine::new().with_workers(4).run_batch(sample_jobs());
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        let (s, p) = (s.as_ref().expect("ok"), p.as_ref().expect("ok"));
        // Wall-clock time is the only nondeterministic report field;
        // normalized reports must be identical.
        assert_eq!(s.report.normalized(), p.report.normalized());
        assert_eq!(s.label, p.label);
    }
}

#[test]
fn batch_matches_direct_synthesis() {
    let batch = Engine::new().run_batch(sample_jobs());
    for (job, outcome) in sample_jobs().iter().zip(&batch.outcomes) {
        let out = outcome.as_ref().expect("ok");
        let direct = Synthesizer::new(job.options.clone())
            .synthesize(&job.net)
            .expect("direct synthesis");
        let direct_report =
            direct.report(job.label.clone(), &job.loss, job.xtalk.as_ref(), &job.power);
        assert_eq!(out.report.normalized(), direct_report.normalized());
    }
    assert_eq!(batch.metrics.succeeded, 3);
    assert_eq!(batch.metrics.cache_misses, 3);
    assert!(batch.metrics.milp_nodes > 0, "MILP effort is aggregated");
}

#[test]
fn a_panicking_task_is_isolated_from_real_work() {
    let engine = Engine::new().with_workers(2);
    let net = NetworkSpec::proton_8();
    let results = engine.run_tasks(3, |i| {
        if i == 1 {
            panic!("worker {i} exploded");
        }
        let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
            .synthesize(&net)
            .map_err(JobError::from)?;
        Ok(design.layout.signals.len())
    });
    assert_eq!(results[0], Ok(56));
    assert_eq!(
        results[1],
        Err(JobError::Panicked("worker 1 exploded".to_owned()))
    );
    assert_eq!(results[2], Ok(56));
}

#[test]
fn an_expired_deadline_fails_only_its_own_job() {
    let net = NetworkSpec::proton_8();
    let jobs = vec![
        SynthesisJob::new("ok", net.clone(), SynthesisOptions::with_wavelengths(8)),
        // #wl=4 so the doomed job cannot be rescued by the "ok" job's
        // cache entry (see `a_cache_hit_beats_an_expired_deadline`).
        SynthesisJob::new("doomed", net, SynthesisOptions::with_wavelengths(4))
            .with_deadline(Duration::ZERO),
    ];
    let BatchResult { outcomes, metrics } = Engine::new().run_batch(jobs);
    assert!(outcomes[0].is_ok());
    assert_eq!(
        outcomes[1].as_ref().err(),
        Some(&JobError::DeadlineExceeded)
    );
    assert_eq!(metrics.succeeded, 1);
    assert_eq!(metrics.failed, 1);
}

#[test]
fn a_cache_hit_beats_an_expired_deadline() {
    // The deadline budgets wall-clock synthesis work; a cache hit costs
    // none, so a job whose inputs are already cached succeeds even with
    // a zero budget. Serial execution makes the cache state predictable.
    let net = NetworkSpec::proton_8();
    let jobs = vec![
        SynthesisJob::new("warm", net.clone(), SynthesisOptions::with_wavelengths(8)),
        SynthesisJob::new("rescued", net, SynthesisOptions::with_wavelengths(8))
            .with_deadline(Duration::ZERO),
    ];
    let batch = Engine::new().with_workers(1).run_batch(jobs);
    let rescued = batch.outcomes[1].as_ref().expect("served from cache");
    assert!(rescued.cache_hit);
    assert_eq!(batch.metrics.failed, 0);
}

#[test]
fn a_deadline_degraded_design_is_never_cached() {
    // The deadline is not part of the design key, so a design the
    // deadline shaped must not answer the same request made without one.
    let net = NetworkSpec::irregular(16, 8_000, 3).expect("valid");
    let options = SynthesisOptions::with_wavelengths(8).with_degradation(DegradationPolicy::Allow);
    let rushed = SynthesisJob::new("rushed", net.clone(), options.clone())
        .with_deadline(Duration::from_nanos(1));
    let calm = SynthesisJob::new("calm", net, options);

    let engine = Engine::new().with_workers(1);
    let degraded = engine
        .run_batch(vec![rushed.clone()])
        .outcomes
        .remove(0)
        .expect("degrades");
    assert_eq!(
        degraded.design.provenance.degradation,
        DegradationLevel::Heuristic
    );
    let exact = engine
        .run_batch(vec![calm.clone()])
        .outcomes
        .remove(0)
        .expect("synthesizes");
    assert!(!exact.cache_hit);
    assert_eq!(exact.design.provenance.degradation, DegradationLevel::Exact);

    // The incremental path obeys the same rule.
    let engine = Engine::new().with_workers(1);
    let degraded = engine.resynthesize(&rushed).expect("degrades");
    assert_eq!(
        degraded.design.provenance.degradation,
        DegradationLevel::Heuristic
    );
    let exact = engine.resynthesize(&calm).expect("synthesizes");
    assert!(!exact.cache_hit);
    assert_eq!(exact.design.provenance.degradation, DegradationLevel::Exact);
}

#[test]
fn a_rushed_resynthesis_runs_the_exact_step_once() {
    // Under `Allow`, a failed incremental attempt is the chain's exact
    // step: the fallback continues after it instead of starting the
    // exact pipeline again with a fresh deadline.
    let net = NetworkSpec::irregular(16, 8_000, 3).expect("valid");
    let options = SynthesisOptions::with_wavelengths(8).with_degradation(DegradationPolicy::Allow);
    let rushed = SynthesisJob::new("rushed", net, options).with_deadline(Duration::from_nanos(1));

    let ctx = RequestCtx::new(RequestId::mint(0x5eed, 1, 0));
    let scope = ctx.attach();
    let out = Engine::new()
        .with_workers(1)
        .resynthesize(&rushed)
        .expect("degrades");
    drop(scope);
    let trace = ctx.finish();

    assert_eq!(
        out.design.provenance.degradation,
        DegradationLevel::Heuristic
    );
    let incremental = trace
        .spans
        .iter()
        .find(|s| s.name == "synth-incremental")
        .expect("the incremental attempt is traced");
    let exact_reruns = trace
        .spans
        .iter()
        .filter(|s| s.name == "synth" && s.label.as_deref() == Some("exact"))
        .filter(|s| s.id > incremental.id)
        .count();
    assert_eq!(
        exact_reruns, 0,
        "the exact step ran again after the incremental attempt"
    );
}

#[test]
fn a_resynthesis_does_not_depend_on_the_previous_job() {
    // One engine resynthesizes 20 pairs of distinct 16-node floorplans
    // in turn. Each design must be the cold synthesis of its own spec,
    // whatever the engine solved before it.
    let options = SynthesisOptions::with_wavelengths(8);
    let job = |seed| {
        let net = NetworkSpec::irregular(16, 8_000, seed).expect("valid");
        SynthesisJob::new(format!("irr16/{seed}"), net, options.clone())
    };
    let engine = Engine::new().with_workers(1);
    for pair in 0..20 {
        let (prev, next) = (job(1_000 + 2 * pair), job(1_001 + 2 * pair));
        engine.resynthesize(&prev).expect("previous run");
        let after = engine.resynthesize(&next).expect("next run");
        let cold = Synthesizer::new(options.clone())
            .synthesize(&next.net)
            .expect("cold run");
        assert!(!after.cache_hit, "pair {pair}");
        assert_eq!(after.design.describe(), cold.describe(), "pair {pair}");
    }
}

#[test]
fn toggling_openings_or_pdn_replays_only_ring_and_shortcut() {
    // Openings and PDN key no persisted phase: after a base run, either
    // toggle replays the ring and the shortcuts and runs Steps 3 and 4
    // exactly as a cold synthesis does.
    let net = NetworkSpec::irregular(16, 8_000, 5).expect("valid");
    let options = SynthesisOptions::with_wavelengths(8);
    let engine = Engine::new().with_workers(1);
    engine
        .resynthesize(&SynthesisJob::new("base", net.clone(), options.clone()))
        .expect("base run");
    let no_openings = SynthesisOptions {
        openings: false,
        ..options.clone()
    };
    for (label, toggled) in [
        ("no-openings", no_openings),
        ("no-pdn", options.without_pdn()),
    ] {
        let out = engine
            .resynthesize(&SynthesisJob::new(label, net.clone(), toggled.clone()))
            .expect("toggled run");
        let cold = Synthesizer::new(toggled)
            .synthesize(&net)
            .expect("cold run");
        assert!(!out.cache_hit, "{label}");
        assert_eq!(out.phases_reused, 2, "{label}");
        assert_eq!(out.design.describe(), cold.describe(), "{label}");
        assert_eq!(out.design.plan, cold.plan, "{label}");
    }
}

#[test]
fn duplicate_jobs_share_one_synthesis() {
    // The first copy leads its ring group and the others run after it,
    // so they hit its design on any worker count. The floorplan's ring
    // MILP takes long enough (~0.1 s) that two workers would otherwise
    // race on it.
    let net = NetworkSpec::irregular(32, 16_000, 5).expect("valid");
    let job =
        |label: &str| SynthesisJob::new(label, net.clone(), SynthesisOptions::with_wavelengths(8));
    for workers in [1, 2] {
        let engine = Engine::new().with_workers(workers);
        let batch = engine.run_batch(vec![job("first"), job("second"), job("third")]);
        assert_eq!(batch.metrics.cache_misses, 1, "{workers} workers");
        assert_eq!(batch.metrics.cache_hits, 2, "{workers} workers");
        let outs: Vec<_> = batch.successes().collect();
        assert!(Arc::ptr_eq(&outs[0].design, &outs[1].design));
        assert!(Arc::ptr_eq(&outs[0].design, &outs[2].design));
        // Labels stay per-job even though the design is shared.
        assert_eq!(outs[1].report.label, "second");
        assert_eq!(
            outs[0].report.normalized(),
            xring_phot::RouterReport {
                label: "first".to_owned(),
                ..outs[1].report.normalized()
            }
        );
    }
}

#[test]
fn a_batch_sharing_a_ring_counts_its_milp_work_once() {
    // Five `#wl` points on one floorplan share one ring key: the first
    // job solves the ring and the other four replay it, so the batch
    // reports the MILP work of a one-job batch.
    let net = NetworkSpec::irregular(32, 16_000, 5).expect("valid");
    let batch = |wls: &[usize]| {
        let jobs = wls
            .iter()
            .map(|&wl| {
                SynthesisJob::new(
                    format!("#wl={wl}"),
                    net.clone(),
                    SynthesisOptions::with_wavelengths(wl),
                )
            })
            .collect();
        Engine::new().with_workers(1).run_batch(jobs).metrics
    };
    let one = batch(&[16]);
    let five = batch(&[12, 16, 20, 24, 28]);
    assert_eq!(five.succeeded, 5, "{}", five.summary());
    assert!(one.milp_nodes > 0);
    assert_eq!(five.milp_nodes, one.milp_nodes);
    assert_eq!(five.milp_lp_solves, one.milp_lp_solves);
}

#[test]
fn every_report_of_a_shared_ring_counts_its_solve_time() {
    // The four jobs after the first replay its ring; each report's
    // `synthesis_time` must still include the ring's solve, as a cold
    // synthesis's does.
    let net = NetworkSpec::irregular(32, 16_000, 5).expect("valid");
    let jobs = [12, 16, 20, 24, 28]
        .map(|wl| {
            let options = SynthesisOptions::with_wavelengths(wl);
            SynthesisJob::new(format!("#wl={wl}"), net.clone(), options)
        })
        .to_vec();
    let engine = Engine::new().with_workers(1);
    let batch = engine.run_batch(jobs);
    let key = PhaseKeys::compute(&net, &SynthesisOptions::with_wavelengths(12)).ring;
    let Some(PhaseArtifact::Ring(ring)) = engine.cache().get_artifact(PhaseId::Ring, key) else {
        panic!("the leader stored its ring");
    };
    assert!(ring.elapsed > Duration::ZERO);
    for outcome in batch.outcomes {
        let out = outcome.expect("synthesizes");
        assert!(
            out.report.synthesis_time >= ring.elapsed,
            "{}: {:?} < ring solve {:?}",
            out.label,
            out.report.synthesis_time,
            ring.elapsed
        );
    }
}

#[test]
fn a_degraded_attempt_leaves_no_ring_in_the_store() {
    // A rushed job leads its ring group and degrades to the heuristic
    // ring; the calm job after it, with the same ring key, must find no
    // artifact to replay and solve the exact ring itself.
    let net = NetworkSpec::irregular(16, 8_000, 3).expect("valid");
    let options = SynthesisOptions::with_wavelengths(8).with_degradation(DegradationPolicy::Allow);
    let rushed = SynthesisJob::new("rushed", net.clone(), options.clone())
        .with_deadline(Duration::from_nanos(1));
    let calm = SynthesisJob::new("calm", net.clone(), options.clone());

    // Runs `f` under a request trace and counts its LP solves.
    fn lp_solves<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let ctx = RequestCtx::new(RequestId::mint(0x5eed, 1, 0));
        let scope = ctx.attach();
        let out = f();
        drop(scope);
        (out, ctx.finish().total("milp.lp_solves"))
    }
    let (cold, cold_solves) = lp_solves(|| {
        Synthesizer::new(options)
            .synthesize(&net)
            .expect("cold synthesis")
    });
    let (batch, batch_solves) =
        lp_solves(|| Engine::new().with_workers(1).run_batch(vec![rushed, calm]));
    let rushed_out = batch.outcomes[0].as_ref().expect("degrades");
    assert_eq!(
        rushed_out.design.provenance.degradation,
        DegradationLevel::Heuristic
    );
    let calm_out = batch.outcomes[1].as_ref().expect("synthesizes");
    assert!(!calm_out.cache_hit);
    assert_eq!(calm_out.phases_reused, 0);
    assert!(cold_solves > 0);
    assert_eq!(batch_solves, cold_solves);
    assert_eq!(calm_out.design.describe(), cold.describe());
}

/// Records every event, for asserting the emission contract.
#[derive(Default)]
struct CollectSink(Mutex<Vec<EngineEvent>>);

impl EventSink for CollectSink {
    fn emit(&self, event: &EngineEvent) {
        self.0.lock().expect("events").push(event.clone());
    }
}

#[test]
fn events_cover_every_job_and_the_batch() {
    let sink = Arc::new(CollectSink::default());
    let engine = Engine::new().with_sink(sink.clone());
    let batch = engine.run_batch(sample_jobs());
    assert_eq!(batch.metrics.succeeded, 3);
    let events = sink.0.lock().expect("events");
    let started = events
        .iter()
        .filter(|e| matches!(e, EngineEvent::JobStarted { .. }))
        .count();
    let finished: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::JobFinished { index, status, .. } => Some((*index, *status)),
            _ => None,
        })
        .collect();
    assert_eq!(started, 3);
    assert_eq!(finished.len(), 3);
    assert!(finished.iter().all(|(_, s)| *s == "ok"));
    let mut indices: Vec<_> = finished.iter().map(|(i, _)| *i).collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![0, 1, 2]);
    match events.last() {
        Some(EngineEvent::BatchFinished { metrics }) => {
            assert_eq!(metrics.jobs, 3);
        }
        other => panic!("expected BatchFinished last, got {other:?}"),
    }
}

/// Records the thread that started each job. A job starting on any
/// thread but `caller` waits (up to 10 s) until the caller has started
/// one, so a spawned worker cannot drain a small batch before the caller
/// claims its first job.
struct ThreadSink {
    caller: std::thread::ThreadId,
    started: Mutex<Vec<std::thread::ThreadId>>,
    caller_started: std::sync::Condvar,
}

impl ThreadSink {
    fn new() -> Self {
        ThreadSink {
            caller: std::thread::current().id(),
            started: Mutex::new(Vec::new()),
            caller_started: std::sync::Condvar::new(),
        }
    }
}

impl EventSink for ThreadSink {
    fn emit(&self, event: &EngineEvent) {
        if let EngineEvent::JobStarted { .. } = event {
            let me = std::thread::current().id();
            let mut started = self.started.lock().expect("threads");
            started.push(me);
            if me == self.caller {
                self.caller_started.notify_all();
            } else {
                let _ = self
                    .caller_started
                    .wait_timeout_while(started, Duration::from_secs(10), |s| {
                        !s.contains(&self.caller)
                    })
                    .expect("threads");
            }
        }
    }
}

#[test]
fn a_one_job_batch_runs_on_the_calling_thread() {
    let sink = Arc::new(ThreadSink::new());
    let engine = Engine::new().with_workers(4).with_sink(sink.clone());
    let batch = engine.run_batch(sample_jobs().into_iter().take(1).collect());
    assert_eq!(batch.metrics.succeeded, 1);
    assert_eq!(*sink.started.lock().expect("threads"), vec![sink.caller]);
}

#[test]
fn the_caller_is_one_of_the_batch_workers() {
    let sink = Arc::new(ThreadSink::new());
    let engine = Engine::new().with_workers(2).with_sink(sink.clone());
    let jobs: Vec<SynthesisJob> = (4..9)
        .map(|wl| {
            SynthesisJob::new(
                format!("proton/{wl}"),
                NetworkSpec::proton_8(),
                SynthesisOptions::with_wavelengths(wl),
            )
        })
        .collect();
    let batch = engine.run_batch(jobs);
    assert_eq!(batch.metrics.succeeded, 5);
    let mut threads = sink.started.lock().expect("threads").clone();
    assert_eq!(threads.len(), 5);
    assert!(threads.contains(&sink.caller), "the caller ran no job");
    threads.sort_unstable_by_key(|t| format!("{t:?}"));
    threads.dedup();
    assert!(threads.len() <= 2, "{} threads ran 5 jobs", threads.len());
}
