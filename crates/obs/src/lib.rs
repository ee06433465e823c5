//! Phase-level observability for the XRing synthesis pipeline.
//!
//! This crate is the workspace's tracing and metrics layer: hierarchical
//! **spans** (enter/exit with monotonic timing, thread id and parent
//! links), plus named **counters** and **gauges**, recorded into one
//! process-global trace buffer and drained as a [`Trace`] value that can
//! be exported as a JSONL event stream or as the collapsed-stack text
//! format consumed by `inferno` / `flamegraph.pl`.
//!
//! On top of that sit lock-free log-bucketed **histograms**
//! ([`record_hist`], snapshotted into [`Trace::hists`] with
//! p50/p90/p99/max), a bounded **time-series [`Sampler`]** for
//! gauge-like values, and a **Prometheus text-exposition** renderer
//! ([`Trace::write_prometheus`], format 0.0.4) so a finished run can be
//! scraped file-wise today and over HTTP later.
//!
//! For serving workloads there are additionally **request-scoped
//! capture** ([`RequestCtx`]: per-request span trees collected
//! concurrently and independently of the global recorder) and a
//! structured, leveled **JSONL [`log`]** whose events automatically carry
//! the attached request id, and always-on **[`Counters`] tables** whose
//! rows are declared once and can be read at any moment.
//!
//! # Design
//!
//! * **Std-only, zero dependencies** — like every other crate in the
//!   workspace (see `DESIGN.md` §5).
//! * **Near-zero cost when disabled.** Collection is off by default;
//!   every instrumentation call starts with a single relaxed atomic
//!   load and returns immediately when tracing is off. No allocation,
//!   no locking, no timestamps are taken on the disabled path, so
//!   instrumented hot loops (branch-and-bound nodes, simplex pivots)
//!   pay essentially nothing in production runs.
//! * **Global, not threaded through APIs.** The recorder is a static
//!   [`std::sync::OnceLock`]; instrumentation points call free
//!   functions ([`span`], [`counter`], [`gauge`]) so no layer of the
//!   pipeline needs its signature changed to participate.
//! * **Spans are RAII guards.** [`span`] returns a [`Span`] whose
//!   `Drop` records the exit; a thread-local stack provides the parent
//!   link, so nesting follows lexical scope on each thread.
//! * **Counters attach to the innermost open span** on the calling
//!   thread (and to the global totals); with no span open they only
//!   count toward the totals.
//!
//! # Example
//!
//! ```
//! let _lock = xring_obs::test_guard(); // serialize: the trace is global
//! xring_obs::start();
//! {
//!     let _outer = xring_obs::span("synth");
//!     {
//!         let _inner = xring_obs::span("ring-milp");
//!         xring_obs::counter("milp.nodes", 42);
//!     }
//! }
//! let trace = xring_obs::finish();
//! assert_eq!(trace.spans.len(), 2);
//! assert_eq!(trace.total("milp.nodes"), 42);
//! let milp = trace.find("ring-milp").expect("recorded");
//! let synth = trace.find("synth").expect("recorded");
//! assert_eq!(milp.parent, synth.id);
//!
//! let mut folded = Vec::new();
//! trace.write_folded(&mut folded).unwrap();
//! let text = String::from_utf8(folded).unwrap();
//! assert!(text.contains("synth;ring-milp "));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod counters;
mod export;
mod hist;
pub mod log;
mod prom;
mod reqctx;
mod sampler;
mod trace;

pub use counters::{CounterRow, Counters, Series};
pub use export::{folded_frame, json_escape, TraceFormat};
pub use hist::{histogram, record_hist, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use prom::{sanitize_metric_name, validate_exposition};
pub use reqctx::{
    current_request, current_request_id, RequestCtx, RequestHandle, RequestId, RequestScope,
};
pub use sampler::Sampler;
pub use trace::{
    counter, enabled, finish, gauge, span, span_labelled, start, test_guard, GaugeRecord, Span,
    SpanRecord, Trace,
};
