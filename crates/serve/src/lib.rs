//! Synthesis as a service: a long-running daemon over the
//! [`xring-engine`](xring_engine) executor.
//!
//! Batch synthesis answers "synthesize these N routers once"; this crate
//! answers "keep synthesizing whatever arrives, indefinitely, under
//! load". The daemon speaks JSON over HTTP/1.1 on a
//! [`std::net::TcpListener`] — std-only like the rest of the workspace,
//! with a deliberately small hand-rolled HTTP layer ([`http`]).
//!
//! # Endpoints
//!
//! | Endpoint | Semantics |
//! |---|---|
//! | `POST /synth` | One network + options → design report, provenance, audit verdict |
//! | `POST /batch` | Multiple specs, run through the engine's worker pool |
//! | `GET /metrics` | Live Prometheus text (format 0.0.4): `serve.*`, `cache.*`, SLO burn rates |
//! | `GET /healthz` | Liveness + inflight/queued/shed counts, uptime, version |
//! | `GET /debug/requests` | Flight recorder: recent request records, most recent first |
//! | `GET /debug/requests/<id>` | One record plus its retained span trace, if tail-sampled |
//! | `GET /debug/slow` | Every tail-sampled (slow/degraded/shed/errored) request with its trace |
//! | `POST /shutdown` | Graceful drain: stop accepting, finish admitted work |
//!
//! Every response carries an `x-request-id` header (and JSON responses a
//! `"request_id"` field); inbound `traceparent` / `x-request-id` headers
//! are honored, so daemon traces join a caller's distributed trace.
//!
//! # Operational semantics
//!
//! * **Admission control** ([`server`]): at most `max_inflight` requests
//!   execute concurrently and at most `queue_depth` wait; beyond that the
//!   daemon sheds with an immediate 429 rather than queueing unboundedly.
//! * **Deadlines as a load-shedding knob**: every request gets a
//!   deadline (server default, per-request override) threaded into the
//!   MILP branch-and-bound; with `--degradation allow` an expired budget
//!   degrades through the fallback chain instead of failing, and the
//!   response reports the [`DegradationLevel`](xring_core::DegradationLevel)
//!   it was produced at.
//! * **Bounded shared cache**: one content-addressed
//!   [`DesignCache`](xring_engine::DesignCache) with a byte budget and
//!   LRU eviction serves all requests — repeated specs cost a lookup.
//! * **Incremental re-synthesis**: `/synth` and `/batch` jobs run one
//!   engine job path ([`Engine::resynthesize`](xring_engine::Engine::resynthesize)
//!   is its one-job call): a job replays the ring and shortcut phases
//!   when an earlier job stored their keys in the cache, and runs mapping, openings
//!   and PDN as a cold synthesis does. `/metrics` exposes
//!   `xring_serve_incremental_total` and per-phase
//!   `xring_cache_phase_{hits,misses}_*` counters.
//! * **Live metrics** ([`metrics`]): always-on lock-free histograms
//!   rendered through the same Prometheus writer as `--metrics-out`,
//!   plus SLO good/bad counters and 5m/1h burn-rate gauges
//!   (`xring_serve_slo_*`).
//! * **Flight recorder** ([`flight`]): a bounded ring of recent request
//!   records and a tail-sampler that retains full span traces for
//!   slow, degraded, shed, and errored requests only — served under
//!   `/debug/*` and dumped to a postmortem file on drain or panic.
//!
//! ```no_run
//! use xring_serve::{client, Server, ServeConfig};
//!
//! let mut server = Server::start(ServeConfig::default())?;
//! let (status, body) = client::http_request(
//!     server.addr(),
//!     "POST",
//!     "/synth",
//!     r#"{"net": {"named": "proton_8"}}"#,
//! )?;
//! assert_eq!(status, 200);
//! assert!(body.contains("\"degradation\":\"exact\""));
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod flight;
pub mod http;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use flight::{FlightRecorder, RequestRecord, TailSampler};
pub use metrics::{ServeCounter, ServeMetrics, SloConfig, SloTracker};
pub use protocol::{ProtocolError, RequestDefaults};
pub use server::{ServeConfig, Server};
