//! Golden work counters: every fixture must do exactly the pinned work.
//!
//! Designs are pinned byte for byte by `golden_digests`; this suite pins
//! how much work producing them takes. Each fixture runs under its own
//! [`RequestCtx`] (no global trace, so no lock), and the table records
//! the solver and pipeline counters it captured, the number of spans,
//! and the heap allocations made on the test thread. All of these are
//! deterministic at one solver thread, so they are compared exactly: a
//! change that makes the code do more (or less) work fails here, even
//! when the wall clock would hide it. Wall-clock speed is measured by
//! `perfbench` instead.
//!
//! On a deliberate change of work, the failure message prints the
//! current table to paste over [`GOLDEN`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use xring::core::{
    MemoryArtifactStore, NetworkSpec, PhaseId, RingAlgorithm, RingBuilder, SpareConfig,
    SweepObjective, SynthesisOptions, Synthesizer, Traffic,
};
use xring::engine::{DesignCache, Engine, SynthesisJob};
use xring::obs::{RequestCtx, RequestId, Trace};
use xring::phot::{CrosstalkParams, LossParams, PowerParams};

/// Counts allocations per thread, so concurrently running code on other
/// threads never leaks into a fixture's count.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The pinned counters, in table-column order.
const COUNTERS: &[(&str, &str)] = &[
    ("milp.nodes", "nodes"),
    ("milp.lp_solves", "lps"),
    ("milp.lazy_cuts", "cuts"),
    ("simplex.pivots", "pivots"),
    ("simplex.refactorizations", "refac"),
    ("simplex.warm_starts", "warm"),
    ("ring.twosat_fallback", "2sat-fb"),
    ("shortcut.candidates", "sc-cand"),
    ("shortcut.selected", "sc-sel"),
    ("shortcut.cse_merges", "cse"),
];

/// Runs `f` under a fresh request context and returns its result, the
/// captured trace and the allocations made on this thread meanwhile.
fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace, u64) {
    let ctx = RequestCtx::new(RequestId::mint(0x601d, 1, 0));
    let before = ALLOCS.with(Cell::get);
    let scope = ctx.attach();
    let out = f();
    drop(scope);
    let allocs = ALLOCS.with(Cell::get) - before;
    (out, ctx.finish(), allocs)
}

/// One table row: the fixture, its counters, spans, allocations (`-`
/// where the work runs on engine worker threads, which the thread-local
/// count cannot see) and any fixture-specific outcome.
fn row(fixture: &str, trace: &Trace, allocs: Option<u64>, outcome: &str) -> String {
    let mut line = format!("{fixture:<28}");
    for (name, _) in COUNTERS {
        line += &format!(" {:>7}", trace.total(name));
    }
    let allocs = allocs.map_or("-".to_owned(), |n| n.to_string());
    line += &format!(" {:>5} {:>7}  {outcome}", trace.spans.len(), allocs);
    line.trim_end().to_owned()
}

fn header() -> String {
    let mut line = format!("{:<28}", "fixture");
    for (_, column) in COUNTERS {
        line += &format!(" {column:>7}");
    }
    line + &format!(" {:>5} {:>7}  outcome", "spans", "allocs")
}

/// Synthesizes `net` under `options` and returns its table row.
fn synth_row(fixture: &str, net: &NetworkSpec, options: SynthesisOptions) -> String {
    let (design, trace, allocs) = capture(|| {
        Synthesizer::new(options)
            .synthesize(net)
            .expect("fixture synthesizes")
    });
    assert!(design.provenance.audit.is_clean(), "{fixture}");
    row(fixture, &trace, Some(allocs), "")
}

const GOLDEN: &str = "
fixture                        nodes     lps    cuts  pivots   refac    warm 2sat-fb sc-cand  sc-sel     cse spans  allocs  outcome
proton_8 wl8                       1       1       0      21       0       0       0       4       2       0    12     761
psion_16 wl16                      2       2       8      80       1       1       0      74       6       0    12    2192
psion_32 wl16                     50      50      84     675      50      49       0     384      16       2    14   13940
irr16 wl8                          7       7      20      88       6       6       0      78       7       2    14    2743
irr16 wl8 drop-0 edit              0       0       0       0       0       0       0       0       0       0     7    1053  reused 2/2
irr64 ring                        71      71      82    8592      72      70       0       0       0       0     1   27852
irr128 s1 knn3-heur                0       0       0       0       0       0       0    1376      58      12    37    1561
irr128 s2 knn3-heur                0       0       0       0       0       0       1    1319      58      10    22    1478
irr128 s3 knn3-heur                0       0       0       0       0       0       0    1390      54       9    21    1378
irr128 s1 knn3-heur resynth        0       0       0       0       0       0       0    1376      58      12    39    1622
batch proton_8 x2                  1       1       0      21       0       0       0       4       2       0    36       -  hits 3 misses 3
sweep proton_8 #wl 2/4/8           1       1       0      21       0       0       0       4       2       0    33       -  best #wl=2
fault-sweep proton_8               1       1       0      21       0       0       0       4       2       0   188       -  scenarios 191 margins 9/96 95/95
";

#[test]
fn fixture_work_matches_the_golden_counters() {
    let mut rows = vec![header()];
    for (name, net, wl) in [
        ("proton_8 wl8", NetworkSpec::proton_8(), 8),
        ("psion_16 wl16", NetworkSpec::psion_16(), 16),
        ("psion_32 wl16", NetworkSpec::psion_32(), 16),
        (
            "irr16 wl8",
            NetworkSpec::irregular(16, 8_000, 5).expect("irregular"),
            8,
        ),
    ] {
        rows.push(synth_row(
            name,
            &net,
            SynthesisOptions::with_wavelengths(wl),
        ));
    }

    // An incremental edit: the store is seeded outside the capture, then
    // dropping demand 0 replays ring and shortcut and runs the rest.
    let net = NetworkSpec::irregular(16, 8_000, 5).expect("irregular");
    let options = SynthesisOptions::with_wavelengths(8);
    let store = MemoryArtifactStore::new();
    Synthesizer::new(options.clone())
        .synthesize_incremental(&net, &store)
        .expect("seed run");
    let mut pairs = options.traffic.pairs(&net);
    pairs.remove(0);
    let edited = Synthesizer::new(SynthesisOptions {
        traffic: Traffic::Custom(pairs),
        ..options
    });
    let ((design, report), trace, allocs) = capture(|| {
        edited
            .synthesize_incremental(&net, &store)
            .expect("edit synthesizes")
    });
    assert!(design.provenance.audit.is_clean());
    let outcome = format!("reused {}/{}", report.phases_reused(), PhaseId::ALL.len());
    rows.push(row("irr16 wl8 drop-0 edit", &trace, Some(allocs), &outcome));

    // The 64-node ring MILP: the deepest branch-and-bound tree pinned.
    let net = NetworkSpec::irregular(64, 20_000, 5).expect("irregular");
    let (_, trace, allocs) = capture(|| RingBuilder::new().build(&net).expect("ring"));
    rows.push(row("irr64 ring", &trace, Some(allocs), ""));

    // 128-node floorplans of the heuristic-large benchmark's size; seed 2
    // takes the 2-SAT fallback.
    for seed in [1, 2, 3] {
        let net = NetworkSpec::irregular(128, 28_000, seed).expect("irregular");
        let options = SynthesisOptions {
            ring_algorithm: RingAlgorithm::Heuristic,
            traffic: Traffic::NearestNeighbors(3),
            ..SynthesisOptions::with_wavelengths(8)
        };
        rows.push(synth_row(
            &format!("irr128 s{seed} knn3-heur"),
            &net,
            options,
        ));
    }

    // A served /synth: `Engine::resynthesize` into a byte-budgeted cache
    // the size of perfbench's, on the calling thread, so the count sees
    // the ring and shortcut artifacts the cache stores alongside the
    // design.
    let net = NetworkSpec::irregular(128, 28_000, 1).expect("irregular");
    let job = SynthesisJob::new(
        "irr128 s1",
        net,
        SynthesisOptions {
            ring_algorithm: RingAlgorithm::Heuristic,
            traffic: Traffic::NearestNeighbors(3),
            ..SynthesisOptions::with_wavelengths(8)
        },
    );
    let engine = Engine::new()
        .with_workers(1)
        .with_cache(Arc::new(DesignCache::with_byte_budget(16 << 20)));
    let (out, trace, allocs) = capture(|| engine.resynthesize(&job).expect("resynthesize"));
    assert!(out.design.provenance.audit.is_clean() && !out.cache_hit);
    rows.push(row("irr128 s1 knn3-heur resynth", &trace, Some(allocs), ""));

    // Batch: three jobs submitted twice on one worker, so the second
    // round always finds the first round's designs cached. The three
    // `#wl` points share one ring: the first solves it and plans the
    // shortcuts, the other two replay them.
    let jobs: Vec<SynthesisJob> = (0..2)
        .flat_map(|round| {
            [2usize, 4, 8].map(|wl| {
                SynthesisJob::new(
                    format!("r{round} #wl={wl}"),
                    NetworkSpec::proton_8(),
                    SynthesisOptions::with_wavelengths(wl),
                )
            })
        })
        .collect();
    let (batch, trace, _) = capture(|| Engine::new().with_workers(1).run_batch(jobs));
    let m = &batch.metrics;
    assert_eq!(m.failed, 0, "{}", m.summary());
    let outcome = format!("hits {} misses {}", m.cache_hits, m.cache_misses);
    rows.push(row("batch proton_8 x2", &trace, None, &outcome));

    // A `#wl` sweep on one worker runs as a batch: the first candidate
    // builds the ring and the shortcuts, the other two replay them, so
    // the ring MILP and the shortcut planner each run once, not once per
    // candidate.
    let (sweep, trace, _) = capture(|| {
        Engine::new()
            .with_workers(1)
            .sweep_wavelengths(
                &NetworkSpec::proton_8(),
                SynthesisOptions::with_wavelengths(8),
                &[2, 4, 8],
                SweepObjective::MinPower,
                &LossParams::default(),
                Some(&CrosstalkParams::default()),
                &PowerParams::default(),
            )
            .expect("sweep")
    });
    let outcome = format!("best #wl={}", sweep.best_point().wavelengths);
    rows.push(row("sweep proton_8 #wl 2/4/8", &trace, None, &outcome));

    // Fault sweep: zero spares against one spare of each class. Spares
    // key no persisted phase, so the second level replays the first
    // level's ring and shortcuts.
    let levels = [SpareConfig::default(), SpareConfig::uniform(1)];
    let (sweep, trace, _) = capture(|| {
        Engine::new()
            .with_workers(1)
            .fault_sweep(
                &NetworkSpec::proton_8(),
                &SynthesisOptions::with_wavelengths(8),
                &levels,
                None,
            )
            .expect("fault sweep")
    });
    let margins: Vec<String> = sweep
        .points
        .iter()
        .map(|p| format!("{}/{}", p.survived, p.scenarios))
        .collect();
    let scenarios: usize = sweep.points.iter().map(|p| p.scenarios).sum();
    let outcome = format!("scenarios {scenarios} margins {}", margins.join(" "));
    rows.push(row("fault-sweep proton_8", &trace, None, &outcome));

    let table = rows.join("\n");
    let want: Vec<&str> = GOLDEN.trim_matches('\n').lines().collect();
    let got: Vec<&str> = table.lines().collect();
    assert_eq!(got, want, "work changed; current table:\n{table}\n");
}
