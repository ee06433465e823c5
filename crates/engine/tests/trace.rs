//! Observability under concurrency: span/counter aggregation must be
//! consistent and deterministic when engine workers record in parallel.

use xring_core::{NetworkSpec, SynthesisOptions};
use xring_engine::{Engine, SynthesisJob};
use xring_obs as obs;

/// Deterministic job mix: seeded irregular placements (the workspace's
/// SplitMix64-style generator) plus the paper's 8-node floorplan, all
/// with distinct cache keys so every job synthesizes exactly once. The
/// two 8-node jobs differ only in `#wl`, so they share one ring key:
/// six jobs, five rings.
fn jobs() -> Vec<SynthesisJob> {
    let mut jobs: Vec<SynthesisJob> = (0..4)
        .map(|i| {
            let net = NetworkSpec::irregular(6, 6_000, 0xC0FF_EE00 + i).expect("valid placement");
            SynthesisJob::new(
                format!("irr-{i}"),
                net,
                SynthesisOptions::with_wavelengths(6),
            )
        })
        .collect();
    for wl in [4, 8] {
        jobs.push(SynthesisJob::new(
            format!("proton-{wl}"),
            NetworkSpec::proton_8(),
            SynthesisOptions::with_wavelengths(wl),
        ));
    }
    jobs
}

/// Distinct ring keys in [`jobs`]: each is solved, and its shortcuts
/// planned, once.
const RINGS: usize = 5;

fn run_traced(workers: usize) -> obs::Trace {
    let _lock = obs::test_guard();
    obs::start();
    let batch = Engine::new().with_workers(workers).run_batch(jobs());
    let trace = obs::finish();
    assert_eq!(batch.metrics.failed, 0, "{}", batch.metrics.summary());
    trace
}

#[test]
fn concurrent_workers_record_consistent_spans_and_counters() {
    let trace = run_traced(4);
    let n_jobs = jobs().len();

    // One batch span, one job span per job, each carrying its label.
    let batch_spans: Vec<_> = trace.spans.iter().filter(|s| s.name == "batch").collect();
    assert_eq!(batch_spans.len(), 1);
    let job_spans: Vec<_> = trace.spans.iter().filter(|s| s.name == "job").collect();
    assert_eq!(job_spans.len(), n_jobs);
    let mut labels: Vec<&str> = job_spans
        .iter()
        .map(|s| s.label.as_deref().expect("job spans are labelled"))
        .collect();
    labels.sort_unstable();
    let mut expected: Vec<String> = jobs().iter().map(|j| j.label.clone()).collect();
    expected.sort_unstable();
    assert_eq!(
        labels,
        expected.iter().map(String::as_str).collect::<Vec<_>>()
    );

    // Every synthesis walk nests under a job span on its worker's
    // thread. Each ring group solves its ring and plans its shortcuts
    // once; every job runs the rest of the phase chain.
    for synth in trace.spans.iter().filter(|s| s.name == "synth-incremental") {
        let parent = trace
            .spans
            .iter()
            .find(|s| s.id == synth.parent)
            .expect("synth span has a recorded parent");
        assert_eq!(parent.name, "job");
        assert_eq!(parent.thread, synth.thread, "span stacks are per-thread");
    }
    let walks = trace
        .spans
        .iter()
        .filter(|s| s.name == "synth-incremental")
        .count();
    assert_eq!(walks, n_jobs);
    for phase in ["ring-milp", "shortcut"] {
        let count = trace.spans.iter().filter(|s| s.name == phase).count();
        assert_eq!(count, RINGS, "phase {phase}");
    }
    for phase in ["mapping", "audit", "evaluation"] {
        let count = trace.spans.iter().filter(|s| s.name == phase).count();
        assert!(count >= n_jobs, "phase {phase}: {count} < {n_jobs}");
    }

    // Counter totals aggregate across all workers: every ring solved a
    // MILP (distinct keys -> all design misses, no hits).
    assert!(trace.total("milp.nodes") >= RINGS as u64);
    assert!(trace.total("milp.lp_solves") >= RINGS as u64);
    assert!(trace.total("simplex.pivots") > 0);
    assert_eq!(trace.total("cache.misses"), n_jobs as u64);
    assert_eq!(trace.total("cache.hits"), 0);

    // One queue-wait histogram sample per claimed job, and a wall-time
    // sample per job.
    let waits = trace
        .hist("engine.queue_wait_us")
        .expect("queue-wait histogram present");
    assert_eq!(waits.count, n_jobs as u64);
    assert!(waits.quantile(0.5) <= waits.max);
    let walls = trace
        .hist("engine.job_wall_us")
        .expect("job-wall histogram present");
    assert_eq!(walls.count, n_jobs as u64);
}

#[test]
fn counter_totals_are_worker_count_invariant() {
    // Synthesis is deterministic, every design key is distinct and a
    // shared ring is solved by the first job of its group, so the
    // solver-side totals must not depend on how jobs interleave.
    let serial = run_traced(1);
    let parallel = run_traced(4);
    for counter in [
        "milp.nodes",
        "milp.lp_solves",
        "milp.lazy_cuts",
        "milp.presolve_fixed",
        "simplex.pivots",
        "simplex.degenerate_pivots",
        "cache.misses",
        "shortcut.candidates",
        "shortcut.selected",
    ] {
        assert_eq!(
            serial.total(counter),
            parallel.total(counter),
            "{counter} differs between 1 and 4 workers"
        );
    }
}

#[test]
fn repeated_jobs_hit_the_cache_in_the_trace() {
    let _lock = obs::test_guard();
    obs::start();
    let mut batch_jobs = jobs();
    batch_jobs.extend(jobs()); // every job twice: second copy must hit
    let n = batch_jobs.len();
    let batch = Engine::new().with_workers(2).run_batch(batch_jobs);
    let trace = obs::finish();
    assert_eq!(batch.metrics.failed, 0);
    assert_eq!(
        trace.total("cache.hits") + trace.total("cache.misses"),
        n as u64
    );
    assert_eq!(trace.total("cache.hits"), batch.metrics.cache_hits as u64);
    assert!(trace.total("cache.hits") >= 1, "duplicates must hit");
}
