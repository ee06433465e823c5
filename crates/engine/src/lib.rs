//! Batch synthesis engine: parallel, cached, deadline-aware execution of
//! XRing synthesis jobs.
//!
//! The serial pipeline in `xring-core` synthesizes one router at a time;
//! every consumer that needs more than one design — `#wl` sweeps, the
//! paper's benchmark tables, ablation studies — used to loop over it,
//! re-synthesizing identical `(network, options)` pairs and leaving cores
//! idle. This crate packages that orchestration once:
//!
//! * [`SynthesisJob`] / [`BatchResult`] — the job model: one synthesis
//!   plus its evaluation parameters in, one design + report (or a
//!   [`JobError`]) out, in submission order.
//! * [`Engine`] — a scoped worker pool over [`std::thread`] in which the
//!   calling thread is worker 0, so a one-job batch spawns no thread. Results are
//!   deterministic regardless of worker count; a panicking job becomes
//!   [`JobError::Panicked`] instead of poisoning the batch; each job's
//!   wall-clock [`deadline`](SynthesisJob::with_deadline) is threaded
//!   into the MILP branch-and-bound, which aborts mid-solve with
//!   [`JobError::DeadlineExceeded`].
//! * [`DesignCache`] — a content-addressed in-memory cache keyed by a
//!   canonical encoding of the network, the synthesis options and the
//!   evaluation parameters. Repeated points across sweeps, tables and
//!   repeats are synthesized once.
//! * [`BatchMetrics`] / [`EventSink`] — per-batch aggregation of wall
//!   time, MILP effort and cache effectiveness, with an optional
//!   JSON-lines event stream ([`JsonlSink`]) for offline analysis.
//!
//! # Example
//!
//! ```
//! use xring_core::{NetworkSpec, SynthesisOptions};
//! use xring_engine::{Engine, SynthesisJob};
//!
//! let net = NetworkSpec::proton_8();
//! let jobs: Vec<SynthesisJob> = [4, 8]
//!     .iter()
//!     .map(|&wl| {
//!         SynthesisJob::new(
//!             format!("#wl={wl}"),
//!             net.clone(),
//!             SynthesisOptions::with_wavelengths(wl),
//!         )
//!     })
//!     .collect();
//! let batch = Engine::new().run_batch(jobs);
//! assert_eq!(batch.outcomes.len(), 2);
//! assert_eq!(batch.metrics.succeeded, 2);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod executor;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod job;
pub mod metrics;
pub mod survivability;
pub mod sweep;

pub use cache::{approx_entry_bytes, canonical_key, CacheCounter, DesignCache};
pub use executor::Engine;
#[cfg(feature = "fault-inject")]
pub use fault::{FaultClass, FaultPlan, FaultRates};
pub use job::{BatchResult, JobError, JobOutput, SynthesisJob};
pub use metrics::{BatchMetrics, EngineEvent, EventSink, JsonlSink};
pub use survivability::{FaultSweepPoint, FaultSweepResult};
