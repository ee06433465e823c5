//! Integration tests for the batch engine: determinism across worker
//! counts, panic isolation, deadlines and cache behaviour.

use std::sync::{Arc, Mutex};
use std::time::Duration;
use xring_core::{DegradationLevel, DegradationPolicy, NetworkSpec, SynthesisOptions, Synthesizer};
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
    let degraded = engine.resynthesize(&rushed, &rushed).expect("degrades");
    assert_eq!(
        degraded.design.provenance.degradation,
        DegradationLevel::Heuristic
    );
    let exact = engine.resynthesize(&rushed, &calm).expect("synthesizes");
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
        .resynthesize(&rushed, &rushed)
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
fn resynthesis_across_floorplans_finds_the_cold_ring_length() {
    // The ring MILP of one floorplan, warm-started from the basis of
    // another of the same size, once returned infeasible or suboptimal
    // rings (and hung decoding a non-permutation). Alternate optimal
    // tours may still merge differently, so the ring length compared is
    // the MILP optimum.
    let options = SynthesisOptions::with_wavelengths(8);
    let job = |seed| {
        let net = NetworkSpec::irregular(16, 8_000, seed).expect("valid");
        SynthesisJob::new(format!("irr16/{seed}"), net, options.clone())
    };
    for pair in 0..20 {
        let (prev, next) = (job(1_000 + 2 * pair), job(1_001 + 2 * pair));
        let engine = Engine::new().with_workers(1);
        engine.resynthesize(&prev, &prev).expect("seed run");
        let warm = engine.resynthesize(&prev, &next).expect("warm run");
        let cold = Synthesizer::new(options.clone())
            .synthesize(&next.net)
            .expect("cold run");
        assert!(warm.design.provenance.audit.is_clean(), "pair {pair}");
        assert_eq!(
            warm.design.ring_stats.milp_objective, cold.ring_stats.milp_objective,
            "pair {pair}"
        );
    }
}

#[test]
fn duplicate_jobs_share_one_synthesis() {
    let net = NetworkSpec::proton_8();
    let job =
        |label: &str| SynthesisJob::new(label, net.clone(), SynthesisOptions::with_wavelengths(8));
    let engine = Engine::new().with_workers(1);
    let batch = engine.run_batch(vec![job("first"), job("second"), job("third")]);
    assert_eq!(batch.metrics.cache_misses, 1);
    assert_eq!(batch.metrics.cache_hits, 2);
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
