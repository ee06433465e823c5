//! End-to-end protocol tests for the `xring-serve` daemon: concurrent
//! clients get deterministic designs, an answer does not depend on the
//! request served before it, malformed input fails structured,
//! deadlines degrade instead of hanging, overload sheds with 429, and
//! `GET /metrics` stays a valid Prometheus 0.0.4 exposition throughout.
//!
//! Every test starts its own in-process [`Server`] on an ephemeral port
//! and drains it before returning, so the suite is parallel-safe and
//! leaves no threads behind.

use std::time::{Duration, Instant};

use xring::core::DegradationPolicy;
use xring::serve::{client, ServeConfig, ServeCounter, Server};

/// The slice of a `/synth` response that must be identical across
/// repeated submissions of the same spec: everything between the label
/// and the per-request timing fields (degradation, audit, full report).
fn deterministic_part(body: &str) -> &str {
    let start = body.find("\"degradation\"").expect("degradation field");
    let end = body.rfind(",\"queue_us\"").expect("queue_us field");
    &body[start..end]
}

fn synth_body(label: &str, wl: usize) -> String {
    format!(
        "{{\"label\": \"{label}\", \"net\": {{\"named\": \"proton_8\"}}, \
         \"options\": {{\"max_wavelengths\": {wl}}}}}"
    )
}

#[test]
fn concurrent_clients_get_deterministic_responses() {
    let mut server = Server::start(ServeConfig {
        workers: 2,
        max_inflight: 4,
        queue_depth: 16,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;
    let responses: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..PER_CLIENT {
                        let wl = [2usize, 4, 8][(c + i) % 3];
                        let (status, body) = client::http_request(
                            addr,
                            "POST",
                            "/synth",
                            &synth_body(&format!("c{c}-{i}"), wl),
                        )
                        .expect("request reaches the daemon");
                        assert_eq!(status, 200, "dropped non-shed request: {body}");
                        out.push((wl, body));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Zero dropped requests (all 200 above), and every response for the
    // same spec carries the identical design report and audit verdict,
    // no matter which client/handler/cache path produced it.
    assert_eq!(responses.len(), CLIENTS * PER_CLIENT);
    for wl in [2usize, 4, 8] {
        let bodies: Vec<&String> = responses
            .iter()
            .filter(|(w, _)| *w == wl)
            .map(|(_, b)| b)
            .collect();
        assert!(bodies.len() >= 2);
        for body in &bodies {
            assert!(
                body.contains("\"audit\":{\"clean\":true"),
                "missing audit verdict: {body}"
            );
            assert!(
                body.contains("\"degradation\":\"exact\""),
                "missing degradation level: {body}"
            );
            assert_eq!(deterministic_part(body), deterministic_part(bodies[0]));
        }
    }
    assert_eq!(server.metrics().counters.get(ServeCounter::Shed), 0);
    server.shutdown();
}

#[test]
fn a_synth_answer_does_not_depend_on_the_request_before_it() {
    // Two exact 16-node rings on distinct floorplans: B after A on one
    // daemon must get the design section B gets from a fresh daemon.
    let body = |seed: u64| {
        format!(
            "{{\"label\": \"irr16/{seed}\", \
             \"net\": {{\"irregular\": {{\"n\": 16, \"die_um\": 8000, \"seed\": {seed}}}}}, \
             \"options\": {{\"max_wavelengths\": 8}}}}"
        )
    };
    let synth = |server: &Server, seed: u64| {
        let (status, reply) = client::http_request(server.addr(), "POST", "/synth", &body(seed))
            .expect("request reaches the daemon");
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"degradation\":\"exact\""), "{reply}");
        reply
    };
    for (a, b) in [(1_000, 1_001), (1_002, 1_003), (1_004, 1_005)] {
        let mut after = Server::start(ServeConfig::default()).expect("daemon starts");
        synth(&after, a);
        let b_after_a = synth(&after, b);
        after.shutdown();
        let mut fresh = Server::start(ServeConfig::default()).expect("daemon starts");
        let b_alone = synth(&fresh, b);
        fresh.shutdown();
        assert_eq!(
            deterministic_part(&b_after_a),
            deterministic_part(&b_alone),
            "floorplan {b} after {a}"
        );
    }
}

#[test]
fn malformed_requests_fail_structured_not_fatal() {
    let mut server = Server::start(ServeConfig::default()).expect("daemon starts");
    let addr = server.addr();

    for (body, status_want, code) in [
        ("{ not json", 400, "bad_json"),
        (
            "{\"net\": {\"named\": \"proton_8\"}, \"options\": {\"max_wavelengths\": 8, \"max_wavelengths\": 64}}",
            400,
            "bad_json",
        ),
        ("[1,2,3]", 400, "bad_request"),
        ("{\"net\": {\"named\": \"warp_9\"}}", 422, "unknown_network"),
        (
            "{\"net\": {\"named\": \"proton_8\"}, \"bogus\": 1}",
            400,
            "unknown_field",
        ),
        (
            "{\"net\": {\"named\": \"proton_8\"}, \"options\": {\"max_wavelengths\": 0}}",
            400,
            "bad_request",
        ),
    ] {
        let (status, resp) =
            client::http_request(addr, "POST", "/synth", body).expect("request reaches the daemon");
        assert_eq!(status, status_want, "{body} -> {resp}");
        assert!(
            resp.contains(&format!("\"code\":\"{code}\"")),
            "{body} -> {resp}"
        );
    }

    // Unroutable paths and wrong methods are structured errors too.
    let (status, _) = client::http_request(addr, "GET", "/nope", "").expect("reachable");
    assert_eq!(status, 404);
    let (status, _) = client::http_request(addr, "GET", "/synth", "").expect("reachable");
    assert_eq!(status, 405);

    // The daemon survived all of it.
    let (status, body) =
        client::http_request(addr, "POST", "/synth", &synth_body("after", 4)).expect("reachable");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn expired_deadline_degrades_instead_of_hanging() {
    // A 1 ms default deadline cannot fit a cold MILP on a 20-node
    // irregular floorplan; with `allow` the fallback chain must answer
    // (degraded) rather than 504 or hang.
    let mut server = Server::start(ServeConfig {
        deadline: Some(Duration::from_millis(1)),
        degradation: DegradationPolicy::Allow,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr();

    let t0 = Instant::now();
    let (status, body) = client::http_request(
        addr,
        "POST",
        "/synth",
        "{\"label\": \"tight\", \
         \"net\": {\"irregular\": {\"n\": 20, \"die_um\": 9000, \"seed\": 7}}, \
         \"options\": {\"max_wavelengths\": 8}}",
    )
    .expect("request reaches the daemon");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "deadline-exceeded request took {:?}",
        t0.elapsed()
    );
    assert_eq!(status, 200, "{body}");
    assert!(
        !body.contains("\"degradation\":\"exact\""),
        "a 1 ms budget cannot be met exactly: {body}"
    );
    assert!(body.contains("\"fallback_reason\":\""), "{body}");
    assert!(server.metrics().counters.get(ServeCounter::Degraded) >= 1);

    // The same request with the policy overridden to `forbid` is a
    // structured 504, not a hang.
    let (status, body) = client::http_request(
        addr,
        "POST",
        "/synth",
        "{\"label\": \"strict\", \
         \"net\": {\"irregular\": {\"n\": 20, \"die_um\": 9000, \"seed\": 8}}, \
         \"options\": {\"max_wavelengths\": 8, \"degradation\": \"forbid\"}}",
    )
    .expect("request reaches the daemon");
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"code\":\"deadline_exceeded\""), "{body}");
    server.shutdown();
}

#[test]
fn overload_sheds_with_429_past_max_inflight() {
    // One handler, rendezvous queue: while the handler is busy, any
    // further /synth must shed immediately.
    let mut server = Server::start(ServeConfig {
        workers: 1,
        max_inflight: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr();

    // Occupy the single handler for at least 300 ms whatever the host's
    // speed: one job whose exact ring MILP (56 irregular nodes, ~3k
    // branch-and-bound nodes, ~12 s on a 2-core x86-64 host) cannot
    // finish inside its deadline, which then degrades to the heuristic
    // ring. The deadline is checked once per MILP node, so the handler is
    // busy for the deadline plus one node and the fallback. Until the
    // handler first parks on the rendezvous queue, the daemon sheds even
    // this request, so retry a 429 briefly.
    let slow = std::thread::spawn(move || {
        let body = "{\"jobs\": [{\"label\": \"slow\", \
                    \"net\": {\"irregular\": {\"n\": 56, \"die_um\": 12000, \"seed\": 7}}, \
                    \"options\": {\"max_wavelengths\": 32, \"deadline_ms\": 300, \
                    \"degradation\": \"allow\"}}]}";
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let resp =
                client::http_request(addr, "POST", "/batch", body).expect("slow batch completes");
            if resp.0 != 429 || std::time::Instant::now() >= deadline {
                break resp;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    // /healthz bypasses admission, so it reports the saturation we are
    // waiting for even though the daemon cannot admit anything.
    let saturated = loop {
        let (status, body) = client::http_request(addr, "GET", "/healthz", "").expect("healthz");
        assert_eq!(status, 200);
        if body.contains("\"inflight\":1") {
            break true;
        }
        if slow.is_finished() {
            break false;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(saturated, "slow batch finished before saturation was seen");

    let (status, body) = client::http_request(addr, "POST", "/synth", &synth_body("shed-me", 2))
        .expect("shed response still answered");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("\"code\":\"shed\""), "{body}");
    assert!(server.metrics().counters.get(ServeCounter::Shed) >= 1);

    let (status, body) = slow.join().expect("slow client");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"degradation\":\"heuristic\""),
        "the exact ring finished inside the deadline: {body}"
    );

    // Load gone: the daemon admits again. Recovery is eventually
    // consistent — with a rendezvous queue the handler must park back
    // on the channel after writing the batch response before try_send
    // can succeed — so poll briefly instead of asserting first-shot.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let (status, body) = loop {
        let resp = client::http_request(addr, "POST", "/synth", &synth_body("after", 2))
            .expect("post-load request");
        if resp.0 != 429 || std::time::Instant::now() >= deadline {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn spared_requests_survive_synthesis_and_reach_the_metrics() {
    let mut server = Server::start(ServeConfig::default()).expect("daemon starts");
    let addr = server.addr();

    // A spared request: the daemon releases the design only after the
    // synthesizer's exhaustive single-fault survivability proof.
    let (status, body) = client::http_request(
        addr,
        "POST",
        "/synth",
        "{\"label\": \"spared\", \"net\": {\"named\": \"proton_8\"}, \
         \"options\": {\"max_wavelengths\": 8, \"spares\": 1, \
          \"traffic\": {\"hotspot\": {\"hotspots\": 2, \"seed\": 7}}}}",
    )
    .expect("request reaches the daemon");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"audit\":{\"clean\":true"), "{body}");
    assert_eq!(server.metrics().counters.get(ServeCounter::Spared), 1);

    // A spare-less request leaves the counter alone.
    let (status, _) = client::http_request(addr, "POST", "/synth", &synth_body("plain", 4))
        .expect("request reaches the daemon");
    assert_eq!(status, 200);
    assert_eq!(server.metrics().counters.get(ServeCounter::Spared), 1);

    let (status, text) = client::http_request(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains("xring_serve_spared_total 1"),
        "missing spared counter in:\n{text}"
    );
    server.shutdown();
}

/// Every `# TYPE` line of a `/metrics` scrape taken after traffic has
/// filled both histograms, in exposition order.
const EXPOSITION_TYPES: [&str; 36] = [
    "# TYPE xring_serve_requests_total counter",
    "# TYPE xring_serve_ok_total counter",
    "# TYPE xring_serve_client_errors_total counter",
    "# TYPE xring_serve_server_errors_total counter",
    "# TYPE xring_serve_shed_total counter",
    "# TYPE xring_serve_deadline_exceeded_total counter",
    "# TYPE xring_serve_degraded_total counter",
    "# TYPE xring_serve_spared_total counter",
    "# TYPE xring_serve_incremental_total counter",
    "# TYPE xring_serve_handler_panics_total counter",
    "# TYPE xring_cache_hits_total counter",
    "# TYPE xring_cache_misses_total counter",
    "# TYPE xring_cache_evictions_total counter",
    "# TYPE xring_cache_lru_evictions_total counter",
    "# TYPE xring_cache_evict_bytes_total counter",
    "# TYPE xring_cache_artifact_hits_total counter",
    "# TYPE xring_cache_artifact_misses_total counter",
    "# TYPE xring_cache_phase_hits_ring_milp_total counter",
    "# TYPE xring_cache_phase_misses_ring_milp_total counter",
    "# TYPE xring_cache_phase_hits_shortcut_total counter",
    "# TYPE xring_cache_phase_misses_shortcut_total counter",
    "# TYPE xring_serve_slo_availability_good_total counter",
    "# TYPE xring_serve_slo_availability_bad_total counter",
    "# TYPE xring_serve_slo_latency_good_total counter",
    "# TYPE xring_serve_slo_latency_bad_total counter",
    "# TYPE xring_cache_bytes gauge",
    "# TYPE xring_serve_inflight gauge",
    "# TYPE xring_serve_queued gauge",
    "# TYPE xring_serve_slo_availability_burn_rate_1h gauge",
    "# TYPE xring_serve_slo_availability_burn_rate_5m gauge",
    "# TYPE xring_serve_slo_latency_burn_rate_1h gauge",
    "# TYPE xring_serve_slo_latency_burn_rate_5m gauge",
    "# TYPE xring_serve_slo_latency_target_us gauge",
    "# TYPE xring_serve_slo_target_ppm gauge",
    "# TYPE xring_serve_request_wall_us histogram",
    "# TYPE xring_serve_queue_wait_us histogram",
];

#[test]
fn metrics_stay_a_valid_prometheus_exposition() {
    let mut server = Server::start(ServeConfig::default()).expect("daemon starts");
    let addr = server.addr();

    // Traffic across the status spectrum: ok, cache hit, client error.
    for body in [
        synth_body("m1", 2),
        synth_body("m2", 2),
        "{ nope".to_owned(),
    ] {
        let _ = client::http_request(addr, "POST", "/synth", &body).expect("request");
    }

    let (status, text) = client::http_request(addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    xring::obs::validate_exposition(&text).expect("valid Prometheus 0.0.4");
    for needle in [
        "# TYPE xring_serve_request_wall_us histogram",
        "xring_serve_request_wall_us_bucket",
        "xring_serve_request_wall_us_sum",
        "xring_serve_request_wall_us_count",
        "xring_serve_queue_wait_us_bucket",
        "# TYPE xring_serve_inflight gauge",
        "xring_serve_ok_total 2",
        "xring_serve_client_errors_total 1",
        "xring_cache_hits_total 1",
        "xring_cache_misses_total 1",
        "# TYPE xring_cache_bytes gauge",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // The exposition's shape is pinned: every series, in order, zero
    // rows included.
    let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    assert_eq!(types, EXPOSITION_TYPES, "exposition series moved:\n{text}");
    // Every exposed series is documented in the operator's catalogue.
    let catalogue = include_str!("../docs/OBSERVABILITY.md");
    for line in types {
        let name = line.split(' ').nth(2).expect("# TYPE name kind");
        assert!(
            catalogue.contains(&format!("`{name}`")),
            "{name} is missing from docs/OBSERVABILITY.md"
        );
    }
    server.shutdown();
}
