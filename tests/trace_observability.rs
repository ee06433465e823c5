//! End-to-end observability: a traced synthesis run must produce a
//! well-formed JSONL event stream covering every pipeline phase, and a
//! folded export that parses as flamegraph collapsed stacks. A
//! request-scoped capture must see the solver's counters without the
//! global trace.

use xring::obs;
use xring_core::{NetworkSpec, RingBuilder, SynthesisOptions, Synthesizer};
use xring_phot::{CrosstalkParams, LossParams, PowerParams};

/// One full traced run: synthesize the paper's 8-node floorplan and
/// evaluate it, exactly what `xring synth --trace out.jsonl` records.
fn traced_synthesis() -> obs::Trace {
    let _lock = obs::test_guard();
    obs::start();
    let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
        .synthesize(&NetworkSpec::proton_8())
        .expect("synthesis succeeds");
    let _report = design.report(
        "e2e",
        &LossParams::default(),
        Some(&CrosstalkParams::default()),
        &PowerParams::default(),
    );
    obs::finish()
}

#[test]
fn jsonl_trace_covers_every_pipeline_phase() {
    let trace = traced_synthesis();
    let mut out = Vec::new();
    trace
        .write(obs::TraceFormat::Jsonl, &mut out)
        .expect("jsonl export");
    let text = String::from_utf8(out).expect("utf8");

    let mut spans = 0usize;
    let mut totals = 0usize;
    let mut hists = 0usize;
    for line in text.lines() {
        // Well-formed JSONL: one object per line, balanced unescaped
        // quotes, a known record type.
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        let unescaped = line
            .replace("\\\\", "")
            .replace("\\\"", "")
            .matches('"')
            .count();
        assert_eq!(unescaped % 2, 0, "unbalanced quotes: {line}");
        if line.starts_with(r#"{"type":"span""#) {
            spans += 1;
        } else if line.starts_with(r#"{"type":"totals""#) {
            totals += 1;
        } else if line.starts_with(r#"{"type":"hist""#) {
            hists += 1;
        } else {
            assert!(line.starts_with(r#"{"type":"gauge""#), "line: {line}");
        }
    }
    assert!(spans >= 5, "expected a span per phase, got {spans}");
    assert_eq!(totals, 1, "exactly one trailing totals line");
    assert!(hists >= 1, "expected latency histogram lines");

    // The acceptance phases from the issue, all present by name.
    for phase in ["ring-milp", "shortcut", "audit", "evaluation"] {
        assert!(
            text.contains(&format!(r#""name":"{phase}""#)),
            "phase {phase} missing from:\n{text}"
        );
        assert!(trace.inclusive_ns(phase) > 0, "phase {phase} has no time");
    }

    // Phase spans nest under the synthesis root in pipeline order.
    let synth = trace.find("synth").expect("synth root span");
    let ring = trace.find("ring-milp").expect("ring-milp span");
    let shortcut = trace.find("shortcut").expect("shortcut span");
    assert_eq!(ring.parent, synth.id);
    assert_eq!(shortcut.parent, synth.id);
    assert!(ring.start_ns <= shortcut.start_ns, "ring before shortcuts");
}

#[test]
fn folded_trace_parses_as_collapsed_stacks() {
    let trace = traced_synthesis();
    let mut out = Vec::new();
    trace
        .write(obs::TraceFormat::Folded, &mut out)
        .expect("folded export");
    let text = String::from_utf8(out).expect("utf8");

    assert!(!text.is_empty(), "folded export is empty");
    let mut chains = Vec::new();
    for line in text.lines() {
        // flamegraph.pl's collapsed format: "frame;frame;... <count>".
        let (stack, count) = line.rsplit_once(' ').expect("stack SP count");
        assert!(count.parse::<u64>().is_ok(), "bad count in: {line}");
        assert!(
            stack.split(';').all(|frame| !frame.is_empty()),
            "empty frame in: {line}"
        );
        chains.push(stack);
    }
    // The phase chain survives the collapse.
    assert!(
        chains.iter().any(|c| c.contains("synth;ring-milp")),
        "no synth;ring-milp chain in:\n{text}"
    );
    assert!(
        chains.iter().any(|c| c.contains("synth;audit")),
        "no synth;audit chain in:\n{text}"
    );
    // Distinct chains are emitted once (aggregated, not repeated).
    let mut sorted = chains.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), chains.len(), "duplicate chain lines");
}

#[test]
fn request_capture_sees_simplex_counters_without_the_global_trace() {
    // Serialized with the globally traced tests above, so the global
    // recorder is provably off while the request captures.
    let _lock = obs::test_guard();
    assert!(!obs::enabled());
    let net = NetworkSpec::irregular(16, 8_000, 5).expect("valid placement");
    let ctx = obs::RequestCtx::new(obs::RequestId::mint(16, 1, 0));
    let scope = ctx.attach();
    RingBuilder::new().build(&net).expect("ring");
    drop(scope);
    let trace = ctx.finish();
    assert!(trace.total("milp.lp_solves") > 0);
    for name in [
        "simplex.pivots",
        "simplex.refactorizations",
        "simplex.warm_starts",
    ] {
        assert!(
            trace.total(name) > 0,
            "{name} missing from the request trace"
        );
    }
}
