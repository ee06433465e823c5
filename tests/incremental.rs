//! End-to-end acceptance suite for incremental re-synthesis.
//!
//! Pins the three properties the incremental layer promises on an
//! N=16 irregular fixture whose ring MILP really branches:
//!
//! 1. **Determinism** — re-synthesizing an edited spec from cached
//!    phase artifacts is byte-identical to a cold full synthesis of
//!    the same final spec.
//! 2. **Dirty-suffix-only recompute** — a single-demand edit replays
//!    the ring and shortcut phases verbatim (no `ring-milp` /
//!    `shortcut` spans in the trace, no LP solve and no simplex pivot,
//!    where a cold synthesis of the edited spec does both) and runs
//!    mapping → opening → PDN once each, as a cold synthesis does.
//! 3. **Fault containment** (`--features fault-inject`) — a shortcut
//!    artifact corrupted mid-edit is detected by the audit, evicted,
//!    and the request falls back to a cold synthesis with the same
//!    byte-identical result.

use xring::core::{NetworkSpec, SynthesisOptions, Traffic};
use xring::engine::{Engine, JobOutput, SynthesisJob};
use xring::obs;

/// The pinned edit-loop fixture: the 16-node irregular placement with
/// 8 wavelengths, and the same spec with its first demand pair dropped.
fn fixture() -> (SynthesisJob, SynthesisJob) {
    let net = NetworkSpec::irregular(16, 8_000, 5).expect("valid placement");
    let options = SynthesisOptions::with_wavelengths(8);
    let mut pairs = options.traffic.pairs(&net);
    pairs.remove(0);
    let mut edited_options = options.clone();
    edited_options.traffic = Traffic::Custom(pairs);
    (
        SynthesisJob::new("edit-base", net.clone(), options),
        SynthesisJob::new("edit", net, edited_options),
    )
}

/// A cold synthesis of `job`: one batch job on a fresh engine, whose
/// artifact store is empty, so every phase runs.
fn cold(job: &SynthesisJob) -> JobOutput {
    Engine::new()
        .with_workers(1)
        .run_batch(vec![job.clone()])
        .outcomes
        .remove(0)
        .expect("pinned edit workload is feasible")
}

#[test]
fn incremental_edit_is_byte_identical_to_cold_synthesis() {
    // Serialized with the traced test below: spans this test emits while
    // that test's trace window is open would land in its trace.
    let _lock = obs::test_guard();
    let (base, edited) = fixture();

    // Cold reference: a fresh engine synthesizes the edited spec as a
    // batch job, with nothing cached.
    let cold = cold(&edited);
    assert!(!cold.cache_hit);
    assert_eq!(cold.phases_reused, 0, "fresh engine has nothing to reuse");

    // Incremental: the base run seeds the artifact store, then the
    // edit replays the clean prefix (ring + shortcut) from it.
    let engine = Engine::new().with_workers(1);
    engine
        .resynthesize(&base)
        .expect("pinned edit workload is feasible");
    let warm = engine
        .resynthesize(&edited)
        .expect("pinned edit workload is feasible");
    assert!(!warm.cache_hit, "edited spec is not a whole-design hit");
    assert_eq!(
        warm.phases_reused, 2,
        "a traffic edit replays ring + shortcut"
    );
    assert!(warm.design.provenance.audit.is_clean());
    assert_eq!(
        warm.design.describe(),
        cold.design.describe(),
        "incremental edit must be byte-identical to a cold synthesis"
    );
}

#[test]
fn edit_recomputes_only_the_dirty_suffix_of_the_phase_dag() {
    let _lock = obs::test_guard();
    let (base, edited) = fixture();
    let engine = Engine::new().with_workers(1);
    engine
        .resynthesize(&base)
        .expect("pinned edit workload is feasible");

    // Trace only the edit: the seed run above stays outside the window.
    obs::start();
    let out = engine
        .resynthesize(&edited)
        .expect("pinned edit workload is feasible");
    let trace = obs::finish();
    assert_eq!(out.phases_reused, 2);

    // Replayed phases never re-enter their compute spans...
    for phase in ["ring-milp", "shortcut"] {
        let count = trace.spans.iter().filter(|s| s.name == phase).count();
        assert_eq!(count, 0, "replayed phase {phase} recomputed {count}x");
    }
    // ...while mapping, opening and PDN, which persist nothing, run
    // exactly once each.
    for phase in ["mapping", "opening", "pdn"] {
        let count = trace.spans.iter().filter(|s| s.name == phase).count();
        assert_eq!(count, 1, "dirty phase {phase} ran {count}x");
    }
    assert_eq!(trace.total("incremental.phase_hits"), 2);
    assert_eq!(trace.total("incremental.phase_misses"), 0);
    assert_eq!(trace.total("incremental.fallbacks"), 0);

    // The edit is cheaper in work, not only in wall time: it solves no
    // LP at all, where a cold synthesis of the same spec runs the MILP.
    obs::start();
    cold(&edited);
    let cold = obs::finish();
    for counter in ["milp.lp_solves", "simplex.pivots"] {
        assert_eq!(
            trace.total(counter),
            0,
            "incremental edit recorded {counter}"
        );
        assert!(
            cold.total(counter) > 0,
            "cold synthesis recorded no {counter}"
        );
    }
}

/// A shortcut artifact corrupted between the seed run and the edit: the
/// edit (a dropped demand, which keeps the ring and shortcut keys clean)
/// replays the damaged plan, so the audit must catch it, evict the
/// artifacts and re-run cold — same bytes as an honest cold synthesis,
/// no error surfaced to the caller.
#[cfg(feature = "fault-inject")]
#[test]
fn corrupted_artifact_mid_edit_falls_back_to_cold_synthesis() {
    use xring::core::PhaseKeys;

    let _lock = obs::test_guard();
    let (base, edited) = fixture();

    let engine = Engine::new().with_workers(1);
    engine
        .resynthesize(&base)
        .expect("pinned edit workload is feasible");

    // Traffic keys no persisted phase, so the edit would replay this
    // (now damaged) shortcut plan verbatim.
    let keys = PhaseKeys::compute(&base.net, &base.options);
    assert_eq!(keys, PhaseKeys::compute(&edited.net, &edited.options));
    assert!(
        engine.cache().corrupt_artifact(&keys),
        "seed run must have persisted a ring and a non-empty shortcut plan"
    );

    obs::start();
    let out = engine
        .resynthesize(&edited)
        .expect("corruption must degrade to a cold run, not an error");
    let trace = obs::finish();
    assert_eq!(trace.total("incremental.fallbacks"), 1);
    assert_eq!(
        out.phases_reused, 0,
        "the fallback is a cold run: nothing counts as reused"
    );
    assert!(out.design.provenance.audit.is_clean());

    assert_eq!(
        out.design.describe(),
        cold(&edited).design.describe(),
        "the fallback result must match an honest cold synthesis"
    );
}
