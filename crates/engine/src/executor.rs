//! The worker-pool executor.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;
use xring_core::{audit_report_bounds, SynthesisError, Synthesizer, XRingDesign};
use xring_phot::RouterReport;

use crate::cache::{canonical_key, DesignCache};
use crate::job::{BatchResult, JobError, JobOutput, SynthesisJob};
use crate::metrics::{BatchMetrics, EngineEvent, EventSink};

/// A batch executor: a scoped worker pool sharing a [`DesignCache`] and
/// an optional [`EventSink`]. The calling thread is worker 0 and runs
/// jobs itself, so a one-job batch spawns no thread.
///
/// Determinism contract: for the same submitted jobs, the outcomes are
/// identical (wall-clock fields aside) for any worker count — results are
/// returned in submission order and every job's synthesis depends only on
/// its own inputs.
pub struct Engine {
    workers: usize,
    cache: Arc<DesignCache>,
    sink: Option<Arc<dyn EventSink>>,
    /// How many times a panicking job is retried before its
    /// [`JobError::Panicked`] is surfaced. Transient panics (a poisoned
    /// lock left by an unrelated crash, an injected fault) heal on retry;
    /// deterministic ones fail identically and surface after the budget.
    panic_retries: usize,
    #[cfg(feature = "fault-inject")]
    fault_plan: Option<crate::fault::FaultPlan>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("cache", &self.cache)
            .field("sink", &self.sink.as_ref().map(|_| "dyn EventSink"))
            .finish()
    }
}

impl Engine {
    /// An engine with one worker per available core, a fresh cache and
    /// one panic retry per job.
    pub fn new() -> Self {
        Engine {
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            cache: Arc::new(DesignCache::new()),
            sink: None,
            panic_retries: 1,
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets how many times a panicking job is retried (0 disables
    /// retries; the first panic is final).
    pub fn with_panic_retries(mut self, retries: usize) -> Self {
        self.panic_retries = retries;
        self
    }

    /// Replaces the engine's design cache with a shared one. Several
    /// engines (or a long-running service and its per-request engines)
    /// can point at the same [`DesignCache`] — typically one constructed
    /// with [`DesignCache::with_byte_budget`] — so synthesis results are
    /// reused across all of them.
    pub fn with_cache(mut self, cache: Arc<DesignCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a deterministic fault-injection plan. Faults fire on each
    /// job's *first* attempt only, so the retry path is also exercised.
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches an event sink; every job start/finish and batch summary
    /// is emitted to it.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's design cache (for inspecting hit/miss counters).
    pub fn cache(&self) -> &DesignCache {
        &self.cache
    }

    fn emit(&self, event: EngineEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// Runs `count` closures on the worker pool and returns their results
    /// in index order. The calling thread is worker 0 and runs tasks
    /// itself; only `min(workers, count) - 1` scoped threads are spawned,
    /// so a one-task call spawns none. A panicking task becomes
    /// [`JobError::Panicked`]; the worker survives and takes the next
    /// task. This is the generic substrate under
    /// [`run_batch`](Self::run_batch), exposed for callers (the bench
    /// tables) whose units of work are not whole [`SynthesisJob`]s.
    pub fn run_tasks<T, F>(&self, count: usize, task: F) -> Vec<Result<T, JobError>>
    where
        T: Send,
        F: Fn(usize) -> Result<T, JobError> + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<T, JobError>>>> =
            (0..count).map(|_| Mutex::new(None)).collect();
        // Claims tasks until none is left.
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| task(i)))
                .unwrap_or_else(|p| Err(JobError::Panicked(panic_message(p.as_ref()))));
            *slots[i].lock().expect("result slot") = Some(result);
        };
        // The caller may run under a request trace (the serve path); hand
        // that request to every spawned worker so per-job spans land in the
        // same per-request span tree instead of vanishing across the pool.
        let request = xring_obs::current_request();
        thread::scope(|s| {
            // The caller is worker 0, so a one-task batch spawns no thread.
            for _ in 1..self.workers.min(count) {
                s.spawn(|| {
                    let _req_scope = request.as_ref().map(|r| r.attach());
                    work();
                });
            }
            work();
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every task index was claimed by a worker")
            })
            .collect()
    }

    /// Runs a batch of synthesis jobs and returns per-job outcomes in
    /// submission order plus aggregated [`BatchMetrics`].
    pub fn run_batch(&self, jobs: Vec<SynthesisJob>) -> BatchResult {
        let _span = xring_obs::span_labelled("batch", format!("{} jobs", jobs.len()));
        let t0 = Instant::now();
        // Queue wait: batch submission to worker pickup, per job. The
        // local histogram is always on (four relaxed atomics per job) so
        // batch metrics carry percentiles even without tracing; the
        // global registry copy only records under `--trace`.
        let queue_wait = xring_obs::Histogram::new();
        let outcomes = self.run_tasks(jobs.len(), |i| {
            let wait_us = t0.elapsed().as_micros() as u64;
            queue_wait.record(wait_us);
            xring_obs::record_hist("engine.queue_wait_us", wait_us);
            self.run_job(i, &jobs[i])
        });
        let mut metrics = BatchMetrics::default();
        for outcome in &outcomes {
            metrics.record(outcome);
        }
        metrics.batch_wall = t0.elapsed();
        let waits = queue_wait.snapshot("engine.queue_wait_us");
        metrics.queue_wait_p50_us = waits.quantile(0.5);
        metrics.queue_wait_p90_us = waits.quantile(0.9);
        metrics.queue_wait_p99_us = waits.quantile(0.99);
        metrics.queue_wait_max_us = waits.max;
        self.emit(EngineEvent::BatchFinished {
            metrics: metrics.clone(),
        });
        BatchResult { outcomes, metrics }
    }

    /// Incrementally re-synthesizes `job` after an edit, reusing the
    /// phase artifacts persisted in the engine's [`DesignCache`] from
    /// `prev` (and from every earlier incremental run sharing the
    /// cache).
    ///
    /// Each pipeline phase is keyed on a content hash of its actual
    /// inputs ([`xring_core::PhaseKeys`]); phases whose keys the edit
    /// did not change are replayed verbatim — keeping the result
    /// bit-identical to a cold synthesis of the edited spec — and only
    /// the dirty suffix of the phase DAG is recomputed. When the edit
    /// dirties the ring phase itself, the MILP is warm-started from
    /// `prev`'s exported LP basis. The number of replayed phases is
    /// reported in [`JobOutput::phases_reused`].
    ///
    /// A first call with `prev == job` runs cold and seeds the artifact
    /// store. Whole-design cache hits still short-circuit everything.
    ///
    /// # Example
    ///
    /// ```
    /// use xring_core::{NetworkSpec, SynthesisOptions, Traffic};
    /// use xring_engine::{Engine, SynthesisJob};
    ///
    /// let engine = Engine::new();
    /// let base = SynthesisJob::new(
    ///     "base",
    ///     NetworkSpec::proton_8(),
    ///     SynthesisOptions::with_wavelengths(8),
    /// );
    /// // Cold: every phase recomputes and persists its artifact.
    /// let cold = engine.resynthesize(&base, &base)?;
    /// assert_eq!(cold.phases_reused, 0);
    ///
    /// // Edit the traffic: the ring and shortcut phases replay from
    /// // their artifacts; only mapping, opening and PDN recompute.
    /// let mut edited = base.clone();
    /// edited.label = "edited".to_owned();
    /// edited.options.traffic = Traffic::NearestNeighbors(3);
    /// let warm = engine.resynthesize(&base, &edited)?;
    /// assert!(!warm.cache_hit);
    /// assert_eq!(warm.phases_reused, 2);
    /// # Ok::<(), xring_engine::JobError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As for a batch job: [`JobError::Synthesis`] once the incremental
    /// path's cold fallback is exhausted, [`JobError::DeadlineExceeded`]
    /// on deadline expiry, [`JobError::Panicked`] if the pipeline
    /// panics.
    pub fn resynthesize(
        &self,
        prev: &SynthesisJob,
        job: &SynthesisJob,
    ) -> Result<JobOutput, JobError> {
        let _span = xring_obs::span_labelled("resynthesize", job.label.clone());
        let t0 = Instant::now();
        let key = canonical_key(job);
        if let Some((design, report)) = self.cache.lookup(&key, &job.label) {
            return Ok(JobOutput {
                wall: t0.elapsed(),
                ..cached(job, design, report)
            });
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            let new_keys = xring_core::PhaseKeys::compute(&job.net, &job.options);
            let prev_keys = xring_core::PhaseKeys::compute(&prev.net, &prev.options);
            // Only a ring-dirty edit needs the previous basis; a clean
            // ring key replays the whole artifact instead.
            let warm_hint = (new_keys.ring != prev_keys.ring)
                .then(|| self.cache.warm_basis_for(prev_keys.ring))
                .flatten();
            let synthesizer = Synthesizer::new(job.options.clone());
            let (design, inc) = synthesizer.synthesize_incremental(
                &job.net,
                self.cache.as_ref(),
                warm_hint.as_ref(),
            )?;
            self.finish_fresh(key, job, design, inc.phases_reused())
        }))
        .unwrap_or_else(|p| Err(JobError::Panicked(panic_message(p.as_ref()))));
        result.map(|mut out| {
            out.wall = t0.elapsed();
            xring_obs::record_hist("engine.resynthesize_wall_us", out.wall.as_micros() as u64);
            if out.phases_reused > 0 {
                xring_obs::counter("engine.incremental_jobs", 1);
            }
            out
        })
    }

    /// Runs one job: cache lookup, else synthesize + evaluate + insert.
    /// Panics inside the synthesis are caught here so the job-finished
    /// event is still emitted; a panicking attempt is retried up to
    /// [`with_panic_retries`](Self::with_panic_retries) times before the
    /// [`JobError::Panicked`] surfaces.
    fn run_job(&self, index: usize, job: &SynthesisJob) -> Result<JobOutput, JobError> {
        let _span = xring_obs::span_labelled("job", job.label.clone());
        self.emit(EngineEvent::JobStarted {
            index,
            label: job.label.clone(),
        });
        let t0 = Instant::now();
        let mut attempt = 0;
        let mut result = loop {
            let r = catch_unwind(AssertUnwindSafe(|| {
                self.synthesize_job(index, attempt, job)
            }))
            .unwrap_or_else(|p| Err(JobError::Panicked(panic_message(p.as_ref()))));
            if matches!(r, Err(JobError::Panicked(_))) && attempt < self.panic_retries {
                attempt += 1;
                continue;
            }
            break r;
        };
        let wall = t0.elapsed();
        xring_obs::record_hist("engine.job_wall_us", wall.as_micros() as u64);
        let (status, cache_hit, degradation) = match &mut result {
            Ok(out) => {
                out.wall = wall;
                (
                    "ok",
                    out.cache_hit,
                    out.design.provenance.degradation.as_str(),
                )
            }
            Err(JobError::DeadlineExceeded) => ("deadline", false, "-"),
            Err(JobError::Synthesis(_)) => ("error", false, "-"),
            Err(JobError::Panicked(_)) => ("panic", false, "-"),
        };
        self.emit(EngineEvent::JobFinished {
            index,
            label: job.label.clone(),
            status,
            cache_hit,
            degradation,
            wall,
        });
        result
    }

    /// One synthesis attempt. `index`/`attempt` drive fault injection
    /// (faults fire on attempt 0 only) and are otherwise unused.
    fn synthesize_job(
        &self,
        index: usize,
        attempt: usize,
        job: &SynthesisJob,
    ) -> Result<JobOutput, JobError> {
        #[cfg(not(feature = "fault-inject"))]
        let _ = (index, attempt);
        let key = canonical_key(job);
        // Holds the armed solver fault (if any) until synthesis consumes
        // it; dropping the guard disarms, so a fault aimed at this job
        // can never leak into a neighbour's solve on the same worker.
        #[cfg(feature = "fault-inject")]
        let _armed = self.inject_fault(index, attempt, &key);
        if let Some((design, report)) = self.cache.lookup(&key, &job.label) {
            #[cfg(feature = "fault-inject")]
            self.check_device_fault(index, attempt, &design, job)?;
            return Ok(cached(job, design, report));
        }
        let design = Synthesizer::new(job.options.clone()).synthesize(&job.net)?;
        let out = self.finish_fresh(key, job, design, 0)?;
        // The design is good and cached; an injected device fault is an
        // external event striking it afterwards, so it fails only this
        // job, never the cache entry.
        #[cfg(feature = "fault-inject")]
        self.check_device_fault(index, attempt, &out.design, job)?;
        Ok(out)
    }

    /// The tail every freshly synthesized design goes through, from a
    /// batch job or a re-synthesis: re-check its provenance audit,
    /// evaluate the job's report, bound-check it and cache the design
    /// under `key`.
    fn finish_fresh(
        &self,
        key: Vec<u8>,
        job: &SynthesisJob,
        design: XRingDesign,
        phases_reused: usize,
    ) -> Result<JobOutput, JobError> {
        // The synthesizer audited the design already; re-check here so a
        // design that somehow bypassed it (or a future code path that
        // forgets) can neither be cached nor returned.
        if !design.provenance.audit.is_clean() {
            return Err(JobError::Synthesis(SynthesisError::AuditFailed {
                summary: design.provenance.audit.summary(),
            }));
        }
        let design = Arc::new(design);
        let report = design.report(job.label.clone(), &job.loss, job.xtalk.as_ref(), &job.power);
        // The provenance audit evaluated physical bounds with the *core*
        // options; this job may evaluate under different loss/crosstalk
        // parameters, so bound-check the report actually handed out.
        let bounds = audit_report_bounds(&report);
        if !bounds.passed {
            return Err(JobError::Synthesis(SynthesisError::AuditFailed {
                summary: format!("{}: {}", bounds.invariant, bounds.detail),
            }));
        }
        self.cache.insert(key, Arc::clone(&design), report.clone());
        Ok(JobOutput {
            label: job.label.clone(),
            design,
            report,
            wall: Default::default(),
            cache_hit: false,
            phases_reused,
        })
    }

    /// Applies the fault plan's decision for `(index, attempt)`. Solver
    /// faults return an RAII guard that keeps the thread-local armed
    /// until synthesis consumes it; cache corruption acts immediately;
    /// a worker panic unwinds from here (caught in [`run_job`]).
    #[cfg(feature = "fault-inject")]
    fn inject_fault(
        &self,
        index: usize,
        attempt: usize,
        key: &[u8],
    ) -> Option<xring_milp::fault::ArmedFault> {
        use crate::fault::FaultClass;
        use xring_milp::fault::{arm, InjectedSolveFault};
        let plan = self.fault_plan.as_ref()?;
        if attempt > 0 {
            return None; // faults fire on the first attempt only
        }
        match plan.decide(index)? {
            FaultClass::SimplexNumerical => Some(arm(InjectedSolveFault::Numerical)),
            FaultClass::SolverDeadline => Some(arm(InjectedSolveFault::Deadline)),
            FaultClass::WorkerPanic => panic!("injected fault: worker panic (job {index})"),
            FaultClass::CacheCorruption => {
                self.cache.corrupt(key);
                None
            }
            // Strikes the *product*, not the pipeline: applied to the
            // finished design in `check_device_fault`.
            FaultClass::DeviceFault => None,
        }
    }

    /// Applies the plan's seeded device fault (if `(index, attempt)`
    /// drew [`FaultClass::DeviceFault`](crate::fault::FaultClass)) to
    /// the finished design and fails the job unless the degraded design
    /// passes its post-failure audit. A design synthesized with spares
    /// ([`SynthesisOptions::spares`](xring_core::SynthesisOptions)) is
    /// proven survivable and sails through; a zero-spare design loses
    /// the struck demand and the job errors.
    #[cfg(feature = "fault-inject")]
    fn check_device_fault(
        &self,
        index: usize,
        attempt: usize,
        design: &xring_core::XRingDesign,
        job: &SynthesisJob,
    ) -> Result<(), JobError> {
        use crate::fault::FaultClass;
        let Some(plan) = self.fault_plan.as_ref() else {
            return Ok(());
        };
        if attempt > 0 || plan.decide(index) != Some(FaultClass::DeviceFault) {
            return Ok(());
        }
        let faults = xring_core::enumerate_single_faults(design);
        if faults.is_empty() {
            return Ok(());
        }
        // Seeded scenario pick, independent of the decide() draw stream.
        let stream = plan.seed() ^ (index as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        let pick = (xring_core::SplitMix64::new(stream).next_u64() as usize) % faults.len();
        let fault = faults[pick];
        let audit =
            xring_core::audit_design_under_fault(design, fault, &job.options, job.xtalk.as_ref());
        if audit.survived {
            xring_obs::counter("engine.device_faults_survived", 1);
            Ok(())
        } else {
            xring_obs::counter("engine.device_faults_fatal", 1);
            Err(JobError::Synthesis(SynthesisError::AuditFailed {
                summary: format!("injected device fault {fault}: {}", audit.report.summary()),
            }))
        }
    }
}

/// The output of a whole-design cache hit for `job`.
fn cached(job: &SynthesisJob, design: Arc<XRingDesign>, report: RouterReport) -> JobOutput {
    JobOutput {
        label: job.label.clone(),
        design,
        report,
        wall: Default::default(),
        cache_hit: true,
        phases_reused: 0,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheCounter;

    #[test]
    fn tasks_return_in_index_order() {
        let engine = Engine::new().with_workers(4);
        let results = engine.run_tasks(16, |i| Ok(i * i));
        let values: Vec<usize> = results.into_iter().map(|r| r.expect("ok")).collect();
        assert_eq!(values, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_task_list_is_fine() {
        let engine = Engine::new();
        assert!(engine.run_tasks(0, |_| Ok(())).is_empty());
        let batch = engine.run_batch(Vec::new());
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.metrics.jobs, 0);
    }

    // The run_job panic-retry loop is exercised end-to-end by the
    // `fault-inject` suite (tests/fault_tolerance.rs): WorkerPanic
    // faults fire on each job's first attempt and must heal on retry.

    #[test]
    fn engines_sharing_a_cache_reuse_each_others_designs() {
        use xring_core::{NetworkSpec, SynthesisOptions};
        let shared = Arc::new(DesignCache::with_byte_budget(64 << 20));
        let job = || {
            SynthesisJob::new(
                "shared",
                NetworkSpec::proton_8(),
                SynthesisOptions::with_wavelengths(4),
            )
        };
        let a = Engine::new().with_cache(Arc::clone(&shared));
        let b = Engine::new().with_cache(Arc::clone(&shared));
        let first = a.run_batch(vec![job()]);
        assert!(!first.outcomes[0].as_ref().expect("ok").cache_hit);
        let second = b.run_batch(vec![job()]);
        assert!(
            second.outcomes[0].as_ref().expect("ok").cache_hit,
            "second engine missed the shared cache"
        );
        assert_eq!(shared.counters.get(CacheCounter::Hits), 1);
        assert_eq!(shared.counters.get(CacheCounter::Misses), 1);
        assert!(shared.bytes() > 0);
    }

    #[test]
    fn a_panicking_task_does_not_poison_its_neighbours() {
        let engine = Engine::new().with_workers(2);
        let results = engine.run_tasks(5, |i| {
            if i == 2 {
                panic!("task {i} exploded");
            }
            Ok(i)
        });
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                assert_eq!(r, &Err(JobError::Panicked("task 2 exploded".to_owned())));
            } else {
                assert_eq!(r, &Ok(i));
            }
        }
    }
}
