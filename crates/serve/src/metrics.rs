//! Live daemon metrics.
//!
//! The global xring-obs recorder is drain-on-finish — right for batch
//! runs, wrong for a daemon whose `/metrics` endpoint must answer at any
//! moment without destroying state. So the daemon owns *always-on local*
//! instruments ([`Counters`] tables, the same lock-free [`Histogram`]
//! type, and two gauge atomics) and renders a scrape by assembling a
//! point-in-time [`Trace`] value and reusing [`Trace::write_prometheus`]
//! — one exposition renderer in the workspace, two lifecycles.
//!
//! Every [`ServeCounter`] increment and histogram sample is additionally
//! mirrored into the gated global recorder, so `xring serve --trace`
//! captures `serve.*` series alongside the engine's exactly like every
//! other subcommand. The SLO counters stay local.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xring_engine::DesignCache;
use xring_obs::{CounterRow, Counters, GaugeRecord, Histogram, Series, Trace};

/// End-to-end request wall time, admission to response, µs.
const REQUEST_WALL_US: &str = "serve.request_wall_us";
/// Time spent queued before a handler picked the request up, µs.
const QUEUE_WAIT_US: &str = "serve.queue_wait_us";

/// The daemon's counters, one row per `/metrics` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeCounter {
    /// Requests that ran in the handler pool (`/synth` and `/batch`),
    /// shed ones excluded. Inline endpoints are not counted here.
    Requests,
    /// Responses with a 2xx status, from every endpoint.
    Ok,
    /// Responses with a 4xx status (shed responses not included).
    ClientErrors,
    /// Responses with a 5xx status.
    ServerErrors,
    /// Requests shed by admission control (429).
    Shed,
    /// Requests that exhausted their deadline (exact synthesis only;
    /// degraded completions count under [`Degraded`](Self::Degraded)).
    DeadlineExceeded,
    /// Successful responses produced below
    /// [`DegradationLevel::Exact`](xring_core::DegradationLevel::Exact)
    /// (i.e. the fallback chain ran).
    Degraded,
    /// Successful responses whose design was synthesized with spares,
    /// i.e. released only after the exhaustive single-device-fault
    /// survivability proof.
    Spared,
    /// `/synth` responses that replayed at least one pipeline phase
    /// from the cache's artifact store (incremental re-synthesis).
    Incremental,
    /// Handler bodies that panicked and were converted to a 500 by the
    /// `catch_unwind` wrapper (the pool thread survives).
    HandlerPanics,
}

impl CounterRow for ServeCounter {
    const TABLE: &'static [Series] = &[
        Series::forwarded("serve.requests"),
        Series::forwarded("serve.ok"),
        Series::forwarded("serve.client_errors"),
        Series::forwarded("serve.server_errors"),
        Series::forwarded("serve.shed"),
        Series::forwarded("serve.deadline_exceeded"),
        Series::forwarded("serve.degraded"),
        Series::forwarded("serve.spared"),
        Series::forwarded("serve.incremental"),
        Series::forwarded("serve.handler_panics"),
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// The daemon's live instrument set. One instance per
/// [`Server`](crate::Server), shared by reference across the accept
/// loop and every handler thread; all mutation is relaxed-atomic.
#[derive(Debug)]
pub struct ServeMetrics {
    /// End-to-end request wall time (admission to response written).
    pub request_wall: Histogram,
    /// Queue wait (accepted to handler pickup).
    pub queue_wait: Histogram,
    /// Request and response counts, one row per [`ServeCounter`].
    pub counters: Counters<ServeCounter>,
    inflight: AtomicU64,
    queued: AtomicU64,
    started: Instant,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// A fresh, empty instrument set.
    pub fn new() -> Self {
        ServeMetrics {
            request_wall: Histogram::new(),
            queue_wait: Histogram::new(),
            counters: Counters::new(),
            inflight: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Seconds since this instrument set (and so the daemon) started.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records one handler-pool request's end-to-end wall time and
    /// mirrors it into the global recorder (a no-op unless `--trace` is
    /// live).
    pub fn record_request_wall(&self, us: u64) {
        self.counters.add(ServeCounter::Requests, 1);
        self.request_wall.record(us);
        xring_obs::record_hist(REQUEST_WALL_US, us);
    }

    /// Records one request's queue wait.
    pub fn record_queue_wait(&self, us: u64) {
        self.queue_wait.record(us);
        xring_obs::record_hist(QUEUE_WAIT_US, us);
    }

    /// Classifies a finished response by status code.
    pub fn record_status(&self, status: u16) {
        let row = match status {
            200..=299 => ServeCounter::Ok,
            429 => ServeCounter::Shed,
            400..=499 => ServeCounter::ClientErrors,
            _ => ServeCounter::ServerErrors,
        };
        self.counters.add(row, 1);
    }

    /// Handler entry/exit bracket; returns the inflight count *after*
    /// the adjustment.
    pub fn adjust_inflight(&self, delta: i64) -> u64 {
        adjust(&self.inflight, delta)
    }

    /// Accept-queue entry/exit bracket.
    pub fn adjust_queued(&self, delta: i64) -> u64 {
        adjust(&self.queued, delta)
    }

    /// Requests currently inside a handler.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Requests currently parked in the accept queue.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Assembles a point-in-time [`Trace`] of the daemon: serve
    /// counters/gauges/histograms plus the shared cache's counters and
    /// byte occupancy. With [`SloTracker::append_to`], feeding the result
    /// to [`Trace::write_prometheus`] is the `/metrics` endpoint.
    pub fn to_trace(&self, cache: &DesignCache) -> Trace {
        let at_ns = self.started.elapsed().as_nanos() as u64;
        let mut trace = Trace {
            gauges: vec![
                gauge("serve.inflight", self.inflight() as f64, at_ns),
                gauge("serve.queued", self.queued() as f64, at_ns),
                gauge("cache.bytes", cache.bytes() as f64, at_ns),
            ],
            hists: [
                self.request_wall.snapshot(REQUEST_WALL_US),
                self.queue_wait.snapshot(QUEUE_WAIT_US),
            ]
            .into_iter()
            .filter(|h| h.count > 0)
            .collect(),
            ..Trace::default()
        };
        self.counters.append_to(&mut trace);
        cache.counters.append_to(&mut trace);
        trace
    }
}

fn gauge(name: &str, value: f64, at_ns: u64) -> GaugeRecord {
    GaugeRecord {
        name: name.to_owned(),
        value,
        thread: 0,
        at_ns,
    }
}

/// Configuration of the daemon's service-level objectives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Objective target in parts-per-million of good events (990_000 =
    /// 99%). Shared by the availability and latency objectives.
    pub target_ppm: u32,
    /// Latency target: a successful response slower than this counts
    /// against the latency objective (and is "slow" to the flight
    /// recorder's tail-sampler).
    pub latency_target: Duration,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            target_ppm: 990_000,
            latency_target: Duration::from_secs(1),
        }
    }
}

/// The SLO tracker's lifetime good/bad event counts, one row per
/// `/metrics` series. These rows are not forwarded to the global
/// recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SloCounter {
    /// Requests answered without a server-side failure (not 5xx, not shed).
    AvailabilityGood,
    /// Requests lost to a 5xx or shed by admission.
    AvailabilityBad,
    /// Successful responses within the latency target.
    LatencyGood,
    /// Successful responses over the latency target.
    LatencyBad,
}

impl CounterRow for SloCounter {
    const TABLE: &'static [Series] = &[
        Series::local("serve.slo.availability_good"),
        Series::local("serve.slo.availability_bad"),
        Series::local("serve.slo.latency_good"),
        Series::local("serve.slo.latency_bad"),
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-minute event tallies for the rolling burn-rate windows, indexed
/// like [`SloCounter`].
#[derive(Debug, Default, Clone, Copy)]
struct SloBucket {
    minute: u64,
    counts: [u64; 4],
}

/// Good/bad SLO event accounting with rolling 5-minute and 1-hour
/// burn-rate windows.
///
/// Two objectives share one target fraction:
///
/// * **availability** — a request is good unless it was shed (429) or
///   failed server-side (5xx);
/// * **latency** — a *successful* (2xx) response is good iff its wall
///   time is within [`SloConfig::latency_target`]; failures are the
///   availability objective's problem and do not double-count here.
///
/// A burn rate is the bad-event fraction over a window divided by the
/// error budget (`1 - target`): 1.0 means the budget is being consumed
/// exactly at the sustainable rate, 14.4 over 1h is the classic
/// page-now threshold for a 99.9% / 30-day objective.
#[derive(Debug)]
pub struct SloTracker {
    config: SloConfig,
    counters: Counters<SloCounter>,
    buckets: Mutex<VecDeque<SloBucket>>,
    started: Instant,
}

impl SloTracker {
    /// Retained minute-buckets: enough for the 1-hour window.
    const WINDOW_MINUTES: u64 = 60;

    /// A tracker with the given objectives and empty counters.
    pub fn new(config: SloConfig) -> Self {
        SloTracker {
            config,
            counters: Counters::new(),
            buckets: Mutex::new(VecDeque::new()),
            started: Instant::now(),
        }
    }

    /// The configured objectives.
    pub fn config(&self) -> SloConfig {
        self.config
    }

    /// Classifies one finished request. `shed` marks a 429 from
    /// admission control (bad for availability even though it is a 4xx).
    pub fn record(&self, status: u16, wall_us: u64, shed: bool) {
        let minute = self.started.elapsed().as_secs() / 60;
        self.record_at(minute, status, wall_us, shed);
    }

    fn record_at(&self, minute: u64, status: u16, wall_us: u64, shed: bool) {
        let availability = match shed || status >= 500 {
            true => SloCounter::AvailabilityBad,
            false => SloCounter::AvailabilityGood,
        };
        let slow = wall_us > self.config.latency_target.as_micros() as u64;
        let latency = (200..300).contains(&status).then_some(match slow {
            true => SloCounter::LatencyBad,
            false => SloCounter::LatencyGood,
        });
        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if buckets.back().map(|b| b.minute) != Some(minute) {
            buckets.push_back(SloBucket {
                minute,
                ..SloBucket::default()
            });
            while buckets.len() as u64 > Self::WINDOW_MINUTES {
                buckets.pop_front();
            }
        }
        let bucket = buckets.back_mut().expect("bucket just ensured");
        for row in std::iter::once(availability).chain(latency) {
            self.counters.add(row, 1);
            bucket.counts[row.index()] += 1;
        }
    }

    /// `(availability, latency)` burn rates over the trailing `window`
    /// minutes; 0.0 with no events in the window.
    pub fn burn_rates(&self, window: u64) -> (f64, f64) {
        let minute = self.started.elapsed().as_secs() / 60;
        self.burn_rates_at(minute, window)
    }

    fn burn_rates_at(&self, now_minute: u64, window: u64) -> (f64, f64) {
        let oldest = now_minute.saturating_sub(window.saturating_sub(1));
        let buckets = self
            .buckets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut sum = [0u64; 4];
        for b in buckets.iter().filter(|b| b.minute >= oldest) {
            for (total, count) in sum.iter_mut().zip(b.counts) {
                *total += count;
            }
        }
        let budget = 1.0 - f64::from(self.config.target_ppm) / 1_000_000.0;
        let burn = |good: SloCounter, bad: SloCounter| {
            let (good, bad) = (sum[good.index()], sum[bad.index()]);
            let total = good + bad;
            if total == 0 || budget <= 0.0 {
                return 0.0;
            }
            (bad as f64 / total as f64) / budget
        };
        (
            burn(SloCounter::AvailabilityGood, SloCounter::AvailabilityBad),
            burn(SloCounter::LatencyGood, SloCounter::LatencyBad),
        )
    }

    /// Appends the `serve.slo.*` series — lifetime good/bad counters,
    /// the configured targets, and the 5m/1h burn-rate gauges — to a
    /// `/metrics` trace.
    pub fn append_to(&self, trace: &mut Trace) {
        self.counters.append_to(trace);
        let at_ns = self.started.elapsed().as_nanos() as u64;
        let (avail_5m, lat_5m) = self.burn_rates(5);
        let (avail_1h, lat_1h) = self.burn_rates(60);
        let latency_target_us = self.config.latency_target.as_micros() as f64;
        trace.gauges.extend(
            [
                ("serve.slo.target_ppm", f64::from(self.config.target_ppm)),
                ("serve.slo.latency_target_us", latency_target_us),
                ("serve.slo.availability_burn_rate_5m", avail_5m),
                ("serve.slo.availability_burn_rate_1h", avail_1h),
                ("serve.slo.latency_burn_rate_5m", lat_5m),
                ("serve.slo.latency_burn_rate_1h", lat_1h),
            ]
            .map(|(name, value)| gauge(name, value, at_ns)),
        );
    }
}

fn adjust(slot: &AtomicU64, delta: i64) -> u64 {
    if delta >= 0 {
        slot.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
    } else {
        slot.fetch_sub((-delta) as u64, Ordering::Relaxed)
            .saturating_sub((-delta) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_bracket_and_report() {
        let m = ServeMetrics::new();
        assert_eq!(m.adjust_inflight(1), 1);
        assert_eq!(m.adjust_inflight(1), 2);
        assert_eq!(m.adjust_inflight(-1), 1);
        assert_eq!(m.inflight(), 1);
        assert_eq!(m.adjust_queued(1), 1);
        assert_eq!(m.adjust_queued(-1), 0);
    }

    #[test]
    fn trace_snapshot_renders_as_valid_prometheus() {
        let m = ServeMetrics::new();
        m.record_request_wall(120);
        m.record_request_wall(3_400);
        m.record_queue_wait(15);
        m.record_status(200);
        m.record_status(429);
        m.record_status(400);
        m.record_status(500);
        m.counters.add(ServeCounter::Degraded, 1);
        m.counters.add(ServeCounter::Spared, 1);
        m.counters.add(ServeCounter::Incremental, 1);
        m.adjust_inflight(1);

        let cache = DesignCache::with_byte_budget(1 << 20);
        let trace = m.to_trace(&cache);
        let mut out = Vec::new();
        trace.write_prometheus(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        xring_obs::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("xring_serve_requests_total 2"));
        assert!(text.contains("xring_serve_ok_total 1"));
        assert!(text.contains("xring_serve_shed_total 1"));
        assert!(text.contains("xring_serve_client_errors_total 1"));
        assert!(text.contains("xring_serve_server_errors_total 1"));
        assert!(text.contains("xring_serve_degraded_total 1"));
        assert!(text.contains("xring_serve_spared_total 1"));
        assert!(text.contains("xring_serve_incremental_total 1"));
        assert!(text.contains("xring_cache_artifact_hits_total 0"));
        assert!(text.contains("xring_cache_artifact_misses_total 0"));
        assert!(text.contains("xring_cache_phase_hits_ring_milp_total 0"));
        assert!(text.contains("xring_cache_phase_misses_shortcut_total 0"));
        assert!(text.contains("xring_serve_inflight 1"));
        assert!(text.contains("xring_serve_request_wall_us_bucket"));
        assert!(text.contains("xring_serve_request_wall_us_count 2"));
        assert!(text.contains("xring_cache_bytes 0"));
    }

    #[test]
    fn slo_classifies_availability_and_latency() {
        let slo = SloTracker::new(SloConfig {
            target_ppm: 990_000,
            latency_target: Duration::from_millis(100),
        });
        slo.record_at(0, 200, 50_000, false); // good, fast
        slo.record_at(0, 200, 500_000, false); // good avail, slow
        slo.record_at(0, 422, 10, false); // client error: avail good, no latency event
        slo.record_at(0, 500, 10, false); // avail bad
        slo.record_at(0, 429, 0, true); // shed: avail bad
        let (avail, lat) = slo.burn_rates_at(0, 5);
        // Availability: 2 bad of 5 → 0.4 bad fraction / 0.01 budget.
        assert!((avail - 40.0).abs() < 1e-9, "avail burn {avail}");
        // Latency: 1 bad of 2 successes → 0.5 / 0.01.
        assert!((lat - 50.0).abs() < 1e-9, "latency burn {lat}");
    }

    #[test]
    fn slo_windows_age_out_old_minutes() {
        let slo = SloTracker::new(SloConfig::default());
        slo.record_at(0, 500, 10, false); // bad, at minute 0
        for minute in 10..15 {
            slo.record_at(minute, 200, 10, false);
        }
        let (avail_5m, _) = slo.burn_rates_at(14, 5);
        assert_eq!(avail_5m, 0.0, "minute-0 failure left the 5m window");
        let (avail_1h, _) = slo.burn_rates_at(14, 60);
        assert!(avail_1h > 0.0, "still inside the 1h window");
    }

    #[test]
    fn slo_series_render_as_valid_prometheus() {
        let m = ServeMetrics::new();
        m.record_status(200);
        m.counters.add(ServeCounter::HandlerPanics, 1);
        let slo = SloTracker::new(SloConfig::default());
        slo.record(200, 10, false);
        slo.record(503, 10, false);
        let cache = DesignCache::new();
        let mut trace = m.to_trace(&cache);
        slo.append_to(&mut trace);
        let mut out = Vec::new();
        trace.write_prometheus(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        xring_obs::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("xring_serve_slo_availability_good_total 1"));
        assert!(text.contains("xring_serve_slo_availability_bad_total 1"));
        assert!(text.contains("xring_serve_slo_latency_good_total 1"));
        assert!(text.contains("xring_serve_slo_latency_bad_total 0"));
        assert!(text.contains("xring_serve_slo_availability_burn_rate_5m"));
        assert!(text.contains("xring_serve_slo_latency_burn_rate_1h"));
        assert!(text.contains("xring_serve_slo_target_ppm 990000"));
        assert!(text.contains("xring_serve_handler_panics_total 1"));
    }

    #[test]
    fn empty_histograms_are_omitted_from_the_trace() {
        let m = ServeMetrics::new();
        let cache = DesignCache::new();
        let trace = m.to_trace(&cache);
        assert!(trace.hists.is_empty());
        // Counters and gauges still expose stable series at zero.
        assert!(trace
            .totals
            .iter()
            .any(|(n, v)| n == "serve.shed" && *v == 0));
    }
}
