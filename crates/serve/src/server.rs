//! The daemon: accept loop, admission control, handler pool, graceful
//! shutdown.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ─ read/parse HTTP ─┬─ GET /healthz, /metrics ── answered inline
//!                           └─ POST /synth, /batch ─ admission
//!                                 │ queue full → 429 (shed)
//!                                 ▼
//!                           bounded queue ─ handler thread
//!                                 ▼
//!                           cache probe → engine job → audit → response
//! ```
//!
//! Admission control is two bounds: `max_inflight` handler threads and a
//! `queue_depth`-slot queue between the accept loop and the handlers
//! ([`std::sync::mpsc::sync_channel`]). When both are full the daemon
//! sheds the request with an immediate 429 instead of letting latency
//! grow without bound — under overload, fail fast and tell the client.
//! `GET /healthz` and `GET /metrics` are answered inline by the accept
//! loop, *bypassing* admission: the operator's view into an overloaded
//! daemon must not itself be shed.
//!
//! Shutdown (`POST /shutdown` or [`Server::shutdown`]) stops accepting,
//! lets the handlers drain every already-admitted request, joins all
//! threads, and leaves the metrics readable for a final flush.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use xring_core::{fnv1a64, DegradationLevel, DegradationPolicy};
use xring_engine::{DesignCache, Engine, JobError};
use xring_obs::{log, RequestCtx, RequestId};

use crate::flight::{FlightRecorder, RequestRecord, TailSampler};
use crate::http::{self, Request};
use crate::metrics::{ServeCounter, ServeMetrics, SloConfig, SloTracker};
use crate::protocol::{self, RequestDefaults};

/// Daemon configuration; the CLI's `xring serve` flags map onto this
/// one-to-one.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral, see [`Server::addr`]).
    pub port: u16,
    /// Engine worker threads per request (parallelism *within* a
    /// `/batch` request; `/synth` uses one).
    pub workers: usize,
    /// Handler threads = maximum concurrently-processed requests.
    pub max_inflight: usize,
    /// Accept-queue slots between the accept loop and the handlers.
    /// 0 = rendezvous: a request is admitted only if a handler is
    /// waiting right now.
    pub queue_depth: usize,
    /// Default per-request synthesis deadline (`None` = unbounded);
    /// requests may override with `options.deadline_ms`.
    pub deadline: Option<Duration>,
    /// Default degradation policy; with
    /// [`DegradationPolicy::Allow`] the fallback chain doubles as a
    /// load-shedding knob — deadline expiry degrades instead of failing.
    pub degradation: DegradationPolicy,
    /// Byte budget for the shared design cache (`None` = unbounded).
    pub cache_bytes: Option<usize>,
    /// Maximum request body size in bytes.
    pub max_body_bytes: usize,
    /// Service-level objectives (availability + latency target); also
    /// sets the flight recorder's "slow" threshold for tail-sampling.
    pub slo: SloConfig,
    /// Flight-recorder ring capacity (most recent request records).
    pub flight_capacity: usize,
    /// Tail-sampler capacity (full span traces of unusual requests).
    pub tail_capacity: usize,
    /// Postmortem file: the flight recorder and retained traces are
    /// dumped here on drain and on a handler panic (`None` = disabled).
    pub postmortem: Option<PathBuf>,
    /// Seed for deterministic request-id minting (ids derive from this,
    /// a per-process request counter, and a per-connection nonce).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 2,
            max_inflight: 4,
            queue_depth: 16,
            deadline: None,
            degradation: DegradationPolicy::Forbid,
            cache_bytes: Some(256 << 20),
            max_body_bytes: 1 << 20,
            slo: SloConfig::default(),
            flight_capacity: 256,
            tail_capacity: 32,
            postmortem: None,
            seed: 0x5eed_0000_0000_0001,
        }
    }
}

/// One admitted unit of work: the connection, its parsed request, and
/// the request's trace context.
struct Work {
    stream: TcpStream,
    request: Request,
    queued_at: Instant,
    ctx: RequestCtx,
}

/// State shared between the accept loop and the handler pool.
struct Shared {
    engine: Engine,
    cache: Arc<DesignCache>,
    metrics: ServeMetrics,
    defaults: RequestDefaults,
    slo: SloTracker,
    flight: FlightRecorder,
    tail: TailSampler,
    postmortem: Option<PathBuf>,
    /// Seed for request-id minting (see [`ServeConfig::seed`]).
    seed: u64,
    /// Monotonic request counter feeding the id mint.
    req_seq: AtomicU64,
    draining: AtomicBool,
}

/// A running daemon. Dropping it shuts down gracefully (equivalent to
/// [`shutdown`](Self::shutdown)).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the accept loop and handler
    /// pool. Returns once the socket is listening — requests may be sent
    /// immediately.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let cache = Arc::new(match config.cache_bytes {
            Some(budget) => DesignCache::with_byte_budget(budget),
            None => DesignCache::new(),
        });
        let shared = Arc::new(Shared {
            engine: Engine::new()
                .with_workers(config.workers)
                .with_cache(Arc::clone(&cache)),
            cache,
            metrics: ServeMetrics::new(),
            defaults: RequestDefaults {
                deadline: config.deadline,
                degradation: config.degradation,
            },
            slo: SloTracker::new(config.slo),
            flight: FlightRecorder::new(config.flight_capacity),
            tail: TailSampler::new(config.tail_capacity),
            postmortem: config.postmortem.clone(),
            seed: config.seed,
            req_seq: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        });
        let (sender, receiver) = std::sync::mpsc::sync_channel::<Work>(config.queue_depth);
        let receiver = Arc::new(Mutex::new(receiver));
        let mut handlers = Vec::with_capacity(config.max_inflight);
        for i in 0..config.max_inflight.max(1) {
            let shared = Arc::clone(&shared);
            let receiver = Arc::clone(&receiver);
            handlers.push(
                thread::Builder::new()
                    .name(format!("serve-handler-{i}"))
                    .spawn(move || handler_loop(&shared, &receiver))?,
            );
        }
        let accept_shared = Arc::clone(&shared);
        let max_body = config.max_body_bytes;
        let accept_thread = thread::Builder::new()
            .name("serve-accept".to_owned())
            .spawn(move || accept_loop(listener, &accept_shared, sender, max_body))?;
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            handlers,
        })
    }

    /// The bound address (resolves the actual port when configured
    /// with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's live metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// The shared design cache.
    pub fn cache(&self) -> &DesignCache {
        &self.shared.cache
    }

    /// The flight recorder (recent request records).
    pub fn flight(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// The tail-sampler (retained full traces of unusual requests).
    pub fn tail(&self) -> &TailSampler {
        &self.shared.tail
    }

    /// The SLO tracker.
    pub fn slo(&self) -> &SloTracker {
        &self.shared.slo
    }

    /// Whether a drain has been requested (via `POST /shutdown` or
    /// [`shutdown`](Self::shutdown)). Supervisors poll this to know
    /// when to reap a daemon that was asked to stop over the wire.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, drain every admitted request,
    /// join all threads. Idempotent. Metrics remain readable afterwards
    /// for a final flush.
    pub fn shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // The accept loop may be blocked in accept(); a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // The accept thread dropped the sender on exit; handlers drain
        // the queue, then their recv() errors out and they return.
        for t in self.handlers.drain(..) {
            let _ = t.join();
        }
        write_postmortem(&self.shared, "drain");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Derives the request id: an inbound `traceparent` trace-id wins, then
/// an inbound 32-hex `x-request-id`, then a deterministic mint from the
/// process seed, the request counter and the connection nonce.
fn mint_request_id(shared: &Shared, request: &Request, nonce: u64) -> RequestId {
    if let Some(tp) = request.header("traceparent") {
        // W3C traceparent: <2 hex ver>-<32 hex trace-id>-<16 hex span>-<2 hex flags>
        if let Some(id) = tp.split('-').nth(1).and_then(RequestId::parse_hex) {
            return id;
        }
    }
    if let Some(id) = request
        .header("x-request-id")
        .and_then(RequestId::parse_hex)
    {
        return id;
    }
    let seq = shared.req_seq.fetch_add(1, Ordering::Relaxed);
    RequestId::mint(shared.seed, seq, nonce)
}

fn accept_loop(listener: TcpListener, shared: &Shared, sender: SyncSender<Work>, max_body: usize) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break; // the wake-up connection (or any racer) is dropped unanswered
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_write_timeout(Some(http::READ_TIMEOUT));
        // The connection nonce folds the peer's ephemeral port into the
        // minted id, so ids differ across connections even if the
        // request counter were ever reset.
        let nonce = stream.peer_addr().map_or(0, |a| u64::from(a.port()));
        let request = match http::read_request(&mut stream, max_body) {
            Ok(r) => r,
            Err(e) => {
                let (status, code) = match &e {
                    http::HttpError::TooLarge(_) => (413, "payload_too_large"),
                    _ => (400, "bad_http"),
                };
                log::debug(
                    "serve",
                    "rejected unreadable request",
                    &[("error", &e.to_string())],
                );
                respond(
                    shared,
                    &mut stream,
                    status,
                    "application/json",
                    &protocol::render_error(status, code, &e.to_string()),
                    None,
                );
                continue;
            }
        };
        let req_id = mint_request_id(shared, &request, nonce);
        let req_hex = req_id.to_hex();
        match (request.method.as_str(), request.path.as_str()) {
            // Operator endpoints answer inline and bypass admission —
            // they must work *especially* when the daemon is saturated.
            ("GET", "/healthz") => {
                let m = &shared.metrics;
                let body = format!(
                    "{{\"status\":\"ok\",\"inflight\":{},\"queued\":{},\"requests\":{},\"shed\":{},\"uptime_s\":{},\"version\":\"{}\"}}",
                    m.inflight(),
                    m.queued(),
                    m.counters.get(ServeCounter::Requests),
                    m.counters.get(ServeCounter::Shed),
                    m.uptime_s(),
                    env!("CARGO_PKG_VERSION"),
                );
                respond(
                    shared,
                    &mut stream,
                    200,
                    "application/json",
                    &body,
                    Some(&req_hex),
                );
            }
            ("GET", "/metrics") => {
                let mut trace = shared.metrics.to_trace(&shared.cache);
                shared.slo.append_to(&mut trace);
                let mut out = Vec::new();
                if trace.write_prometheus(&mut out).is_ok() {
                    let text = String::from_utf8(out).unwrap_or_default();
                    respond(
                        shared,
                        &mut stream,
                        200,
                        "text/plain; version=0.0.4",
                        &text,
                        Some(&req_hex),
                    );
                } else {
                    respond(
                        shared,
                        &mut stream,
                        500,
                        "application/json",
                        &protocol::render_error(500, "metrics_failed", "exposition failed"),
                        Some(&req_hex),
                    );
                }
            }
            ("GET", "/debug/requests") => {
                let records: Vec<String> = shared
                    .flight
                    .snapshot()
                    .iter()
                    .map(RequestRecord::to_json)
                    .collect();
                let body = format!(
                    "{{\"capacity\":{},\"pushed\":{},\"records\":[{}]}}",
                    shared.flight.capacity(),
                    shared.flight.pushed(),
                    records.join(","),
                );
                respond(
                    shared,
                    &mut stream,
                    200,
                    "application/json",
                    &body,
                    Some(&req_hex),
                );
            }
            ("GET", "/debug/slow") => {
                let entries: Vec<String> = shared
                    .tail
                    .ids()
                    .iter()
                    .map(|id| {
                        let record = shared
                            .flight
                            .find(id)
                            .map_or_else(|| "null".to_owned(), |r| r.to_json());
                        let trace = shared
                            .tail
                            .get(id)
                            .map_or_else(|| "[]".to_owned(), |t| jsonl_to_array(&t));
                        format!("{{\"record\":{record},\"trace\":{trace}}}")
                    })
                    .collect();
                let body = format!(
                    "{{\"considered\":{},\"retained\":{},\"requests\":[{}]}}",
                    shared.tail.considered(),
                    shared.tail.retained(),
                    entries.join(","),
                );
                respond(
                    shared,
                    &mut stream,
                    200,
                    "application/json",
                    &body,
                    Some(&req_hex),
                );
            }
            ("GET", path) if path.starts_with("/debug/requests/") => {
                let id = &path["/debug/requests/".len()..];
                match shared.flight.find(id) {
                    Some(record) => {
                        let trace = shared
                            .tail
                            .get(id)
                            .map_or_else(|| "null".to_owned(), |t| jsonl_to_array(&t));
                        let body = format!("{{\"record\":{},\"trace\":{trace}}}", record.to_json());
                        respond(
                            shared,
                            &mut stream,
                            200,
                            "application/json",
                            &body,
                            Some(&req_hex),
                        );
                    }
                    None => respond(
                        shared,
                        &mut stream,
                        404,
                        "application/json",
                        &protocol::render_error(404, "unknown_request", id),
                        Some(&req_hex),
                    ),
                }
            }
            ("POST", "/shutdown") => {
                shared.draining.store(true, Ordering::SeqCst);
                log::info("serve", "shutdown requested over the wire", &[]);
                respond(
                    shared,
                    &mut stream,
                    200,
                    "application/json",
                    "{\"status\":\"draining\"}",
                    Some(&req_hex),
                );
                break;
            }
            ("POST", "/synth" | "/batch") => {
                shared.metrics.adjust_queued(1);
                let ctx = RequestCtx::new(req_id);
                match sender.try_send(Work {
                    stream,
                    request,
                    queued_at: Instant::now(),
                    ctx,
                }) {
                    Ok(()) => {}
                    Err(TrySendError::Full(work) | TrySendError::Disconnected(work)) => {
                        shared.metrics.adjust_queued(-1);
                        let mut stream = work.stream;
                        log::warn(
                            "serve",
                            "request shed: admission queue full",
                            &[("req", &req_hex), ("route", &work.request.path)],
                        );
                        respond(
                            shared,
                            &mut stream,
                            429,
                            "application/json",
                            &protocol::render_error(
                                429,
                                "shed",
                                "admission queue full; retry with backoff",
                            ),
                            Some(&req_hex),
                        );
                        shared.slo.record(429, 0, true);
                        let record = RequestRecord {
                            id: req_hex.clone(),
                            route: work.request.path.clone(),
                            spec_hash: fnv1a64(work.request.body.as_bytes()),
                            status: 429,
                            degradation: None,
                            queue_us: 0,
                            wall_us: 0,
                            phases: Vec::new(),
                            phases_reused: 0,
                            audit_clean: None,
                            slow: false,
                            degraded: false,
                            shed: true,
                            errored: false,
                            sampled: false,
                        };
                        // A shed request never entered a handler, so its
                        // trace is empty — the record itself is the story.
                        let sampled = shared.tail.offer(&record, "");
                        shared.flight.push(RequestRecord { sampled, ..record });
                    }
                }
            }
            ("GET" | "POST" | "PUT" | "DELETE" | "HEAD" | "PATCH", path) => {
                let known = matches!(
                    path,
                    "/synth"
                        | "/batch"
                        | "/metrics"
                        | "/healthz"
                        | "/shutdown"
                        | "/debug/requests"
                        | "/debug/slow"
                );
                let (status, code) = if known {
                    (405, "method_not_allowed")
                } else {
                    (404, "not_found")
                };
                respond(
                    shared,
                    &mut stream,
                    status,
                    "application/json",
                    &protocol::render_error(status, code, &format!("{} {}", request.method, path)),
                    Some(&req_hex),
                );
            }
            (method, _) => {
                respond(
                    shared,
                    &mut stream,
                    400,
                    "application/json",
                    &protocol::render_error(400, "bad_method", method),
                    Some(&req_hex),
                );
            }
        }
    }
    // Dropping `sender` here closes the queue: handlers finish whatever
    // was admitted, then exit.
}

/// Renders a JSONL document (one JSON object per line) as a JSON array.
fn jsonl_to_array(jsonl: &str) -> String {
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.trim().is_empty()).collect();
    format!("[{}]", lines.join(","))
}

/// Writes a response from the accept loop and records its status. When
/// a request id is known it is echoed as `x-request-id` and — for JSON
/// object bodies — spliced into the body as well.
fn respond(
    shared: &Shared,
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    req_id: Option<&str>,
) {
    shared.metrics.record_status(status);
    match req_id {
        Some(id) => {
            let body = if content_type == "application/json" {
                protocol::with_request_id(body.to_owned(), id)
            } else {
                body.to_owned()
            };
            let _ = http::write_response_with(
                stream,
                status,
                content_type,
                &[("x-request-id", id)],
                &body,
            );
        }
        None => {
            let _ = http::write_response(stream, status, content_type, body);
        }
    }
}

/// What one admitted request produced: the response itself plus the
/// classification facts the flight recorder and SLO tracker need.
struct HandlerOutcome {
    status: u16,
    content_type: &'static str,
    body: String,
    /// Degradation level of the served design(s), when one was served.
    degradation: Option<String>,
    /// Pipeline phases replayed from cached artifacts (summed for `/batch`).
    phases_reused: u64,
    /// Audit verdict of the served design(s); `None` when none was served.
    audit_clean: Option<bool>,
}

impl HandlerOutcome {
    /// A JSON error response with no design-level facts attached.
    fn error(status: u16, body: String) -> Self {
        HandlerOutcome {
            status,
            content_type: "application/json",
            body,
            degradation: None,
            phases_reused: 0,
            audit_clean: None,
        }
    }
}

fn handler_loop(shared: &Shared, receiver: &Mutex<Receiver<Work>>) {
    loop {
        // Hold the lock only for the recv itself; a handler processing
        // a request must not block its peers' pickups.
        let work = match receiver.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(work) = work else { return };
        let Work {
            mut stream,
            request,
            queued_at,
            ctx,
        } = work;
        let queue_us = queued_at.elapsed().as_micros() as u64;
        shared.metrics.adjust_queued(-1);
        shared.metrics.adjust_inflight(1);
        shared.metrics.record_queue_wait(queue_us);
        let req_hex = ctx.id().to_hex();
        let route = request.path.clone();
        let spec_hash = fnv1a64(request.body.as_bytes());
        let t0 = Instant::now();
        let result = {
            // Attach the request context so every span/counter the
            // pipeline emits — including from engine worker threads —
            // lands in this request's trace.
            let _scope = ctx.attach();
            let span = xring_obs::span_labelled("serve.request", route.clone());
            let result = catch_unwind(AssertUnwindSafe(|| handle(shared, &request, queue_us, t0)));
            drop(span);
            result
        };
        let wall_us = t0.elapsed().as_micros() as u64;
        let (outcome, panicked) = match result {
            Ok(outcome) => (outcome, false),
            Err(_) => {
                shared.metrics.counters.add(ServeCounter::HandlerPanics, 1);
                log::error(
                    "serve",
                    "handler panicked; responding 500",
                    &[("req", &req_hex), ("route", &route)],
                );
                let body = protocol::render_error(
                    500,
                    "handler_panic",
                    "handler panicked; see the flight recorder",
                );
                (HandlerOutcome::error(500, body), true)
            }
        };
        shared.metrics.record_request_wall(wall_us);
        respond(
            shared,
            &mut stream,
            outcome.status,
            outcome.content_type,
            &outcome.body,
            Some(&req_hex),
        );
        shared.metrics.adjust_inflight(-1);

        // Post-response accounting: the client is not kept waiting on
        // the flight recorder or SLO bookkeeping.
        let trace = ctx.finish();
        let mut phases: BTreeMap<String, u64> = BTreeMap::new();
        for span in &trace.spans {
            *phases.entry(span.name.to_owned()).or_default() += span.dur_ns / 1_000;
        }
        let slow = wall_us > shared.slo.config().latency_target.as_micros() as u64;
        let degraded = outcome.degradation.as_deref().is_some_and(|d| d != "exact");
        let errored = outcome.status >= 500;
        let record = RequestRecord {
            id: req_hex.clone(),
            route,
            spec_hash,
            status: outcome.status,
            degradation: outcome.degradation,
            queue_us,
            wall_us,
            phases: phases.into_iter().collect(),
            phases_reused: outcome.phases_reused,
            audit_clean: outcome.audit_clean,
            slow,
            degraded,
            shed: false,
            errored,
            sampled: false,
        };
        let trace_jsonl = if record.tail_worthy() {
            let mut buf = Vec::new();
            let _ = trace.write_jsonl(&mut buf);
            String::from_utf8(buf).unwrap_or_default()
        } else {
            String::new()
        };
        let sampled = shared.tail.offer(&record, &trace_jsonl);
        shared.flight.push(RequestRecord { sampled, ..record });
        shared.slo.record(outcome.status, wall_us, false);
        if panicked {
            write_postmortem(shared, "handler_panic");
        }
    }
}

/// Processes one admitted request to a [`HandlerOutcome`].
fn handle(shared: &Shared, request: &Request, queue_us: u64, t0: Instant) -> HandlerOutcome {
    const JSON: &str = "application/json";
    match request.path.as_str() {
        "/synth" => {
            let job = match protocol::parse_synth(&request.body, &shared.defaults, 0) {
                Ok(job) => job,
                Err(e) => {
                    return HandlerOutcome::error(
                        e.status,
                        protocol::render_error(e.status, e.code, &e.message),
                    )
                }
            };
            let label = job.label.clone();
            let spared = job.options.spares.any();
            // `/synth` runs through the incremental path: every phase
            // whose key an earlier request stored replays from the cached
            // artifact, so the answer does not depend on request order.
            let outcome = shared.engine.resynthesize(&job);
            track_outcome_metrics(shared, outcome.as_ref(), spared);
            match outcome {
                Ok(out) => {
                    if out.phases_reused > 0 {
                        shared.metrics.counters.add(ServeCounter::Incremental, 1);
                    }
                    let wall_us = t0.elapsed().as_micros() as u64;
                    HandlerOutcome {
                        status: 200,
                        content_type: JSON,
                        body: protocol::render_output(&out, queue_us, wall_us),
                        degradation: Some(out.design.provenance.degradation.as_str().to_owned()),
                        phases_reused: out.phases_reused as u64,
                        audit_clean: Some(out.design.provenance.audit.is_clean()),
                    }
                }
                Err(err) => {
                    let (status, body) = protocol::render_job_error(&label, &err);
                    HandlerOutcome::error(status, body)
                }
            }
        }
        "/batch" => {
            let jobs = match protocol::parse_batch(&request.body, &shared.defaults) {
                Ok(jobs) => jobs,
                Err(e) => {
                    return HandlerOutcome::error(
                        e.status,
                        protocol::render_error(e.status, e.code, &e.message),
                    )
                }
            };
            let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
            let spared: Vec<bool> = jobs.iter().map(|j| j.options.spares.any()).collect();
            let batch = shared.engine.run_batch(jobs);
            let mut results = Vec::with_capacity(batch.outcomes.len());
            // Batch-level facts aggregate pessimistically: the worst
            // degradation across jobs, phases reused summed, and the
            // audit clean only when every served design is clean.
            let rank = |level: DegradationLevel| match level {
                DegradationLevel::Exact => 0u8,
                DegradationLevel::RetriedPerturbed => 1,
                DegradationLevel::Heuristic => 2,
            };
            let mut worst_degradation: Option<DegradationLevel> = None;
            let mut phases_reused = 0u64;
            let mut audit_clean: Option<bool> = None;
            for ((label, &spared), outcome) in labels.iter().zip(&spared).zip(&batch.outcomes) {
                track_outcome_metrics(shared, outcome.as_ref(), spared);
                match outcome {
                    Ok(out) => {
                        let level = out.design.provenance.degradation;
                        if worst_degradation.is_none_or(|w| rank(level) > rank(w)) {
                            worst_degradation = Some(level);
                        }
                        phases_reused += out.phases_reused as u64;
                        let clean = out.design.provenance.audit.is_clean();
                        audit_clean = Some(audit_clean.unwrap_or(true) && clean);
                        results.push(protocol::render_output(
                            out,
                            queue_us,
                            out.wall.as_micros() as u64,
                        ));
                    }
                    Err(err) => {
                        results.push(protocol::render_job_error(label, err).1);
                    }
                }
            }
            let wall_us = t0.elapsed().as_micros() as u64;
            let body = format!(
                "{{\"results\":[{}],\"queue_us\":{queue_us},\"wall_us\":{wall_us}}}",
                results.join(",")
            );
            HandlerOutcome {
                status: 200,
                content_type: JSON,
                body,
                degradation: worst_degradation.map(|l| l.as_str().to_owned()),
                phases_reused,
                audit_clean,
            }
        }
        other => HandlerOutcome::error(404, protocol::render_error(404, "not_found", other)),
    }
}

/// Bumps the degradation / deadline / survivability counters for one
/// job outcome. `spared` is whether the job's options carried spares
/// (a successful outcome then implies the survivability proof passed).
fn track_outcome_metrics(
    shared: &Shared,
    outcome: Result<&xring_engine::JobOutput, &JobError>,
    spared: bool,
) {
    match outcome {
        Ok(out) => {
            if out.design.provenance.degradation != DegradationLevel::Exact {
                shared.metrics.counters.add(ServeCounter::Degraded, 1);
            }
            if spared {
                shared.metrics.counters.add(ServeCounter::Spared, 1);
            }
        }
        Err(JobError::DeadlineExceeded) => shared
            .metrics
            .counters
            .add(ServeCounter::DeadlineExceeded, 1),
        Err(_) => {}
    }
}

/// Dumps the flight recorder and every retained tail trace to the
/// configured postmortem path as JSONL: one meta line, then one line
/// per in-ring record, then one line per retained trace. Called on
/// drain and after a handler panic; a missing path is a no-op.
fn write_postmortem(shared: &Shared, reason: &str) {
    let Some(path) = &shared.postmortem else {
        return;
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"kind\":\"postmortem\",\"reason\":\"{}\",\"uptime_s\":{},\"pushed\":{},\"retained\":{}}}\n",
        xring_obs::json_escape(reason),
        shared.metrics.uptime_s(),
        shared.flight.pushed(),
        shared.tail.retained(),
    ));
    for record in shared.flight.snapshot() {
        out.push_str(&record.to_json());
        out.push('\n');
    }
    for id in shared.tail.ids() {
        if let Some(trace) = shared.tail.get(&id) {
            out.push_str(&format!(
                "{{\"kind\":\"trace\",\"req\":\"{}\",\"spans\":{}}}\n",
                xring_obs::json_escape(&id),
                jsonl_to_array(&trace),
            ));
        }
    }
    match std::fs::write(path, out) {
        Ok(()) => log::info(
            "serve",
            "postmortem written",
            &[("reason", reason), ("path", &path.display().to_string())],
        ),
        Err(e) => log::error(
            "serve",
            "postmortem write failed",
            &[("reason", reason), ("error", &e.to_string())],
        ),
    }
}
