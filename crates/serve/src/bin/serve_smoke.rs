//! CI smoke check for the daemon, run by `ci.sh`.
//!
//! Starts a daemon in-process on an ephemeral port, exercises every
//! endpoint once, drains it, and verifies no thread leaked — the whole
//! lifecycle a deployment would see, compressed into one binary whose
//! exit code is the verdict.

use std::time::Duration;

use xring_core::DegradationPolicy;
use xring_serve::{client, ServeConfig, ServeCounter, Server};

fn thread_count() -> usize {
    // Linux-specific but CI runs on Linux; elsewhere the check is
    // skipped rather than failed.
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

fn check(name: &str, ok: bool) {
    if ok {
        eprintln!("serve-smoke: {name} ok");
    } else {
        eprintln!("serve-smoke: {name} FAILED");
        std::process::exit(1);
    }
}

fn main() {
    let threads_before = thread_count();

    let mut server = Server::start(ServeConfig {
        workers: 2,
        max_inflight: 2,
        queue_depth: 4,
        deadline: Some(Duration::from_secs(30)),
        degradation: DegradationPolicy::Allow,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = server.addr();
    eprintln!("serve-smoke: listening on {addr}");

    let (status, body) =
        client::http_request(addr, "GET", "/healthz", "").expect("healthz reachable");
    check(
        "healthz",
        status == 200
            && body.contains("\"status\":\"ok\"")
            && body.contains("\"uptime_s\":")
            && body.contains("\"version\":\""),
    );

    let (status, headers, body) = client::http_request_full(
        addr,
        "POST",
        "/synth",
        &[("x-request-id", "00000000000000000000000000abcdef")],
        r#"{"label": "smoke", "net": {"named": "proton_8"}, "options": {"max_wavelengths": 8}}"#,
    )
    .expect("synth reachable");
    check(
        "synth",
        status == 200
            && body.contains("\"label\":\"smoke\"")
            && body.contains("\"audit\":{\"clean\":true")
            && body.contains("\"degradation\":\"exact\""),
    );
    // The daemon must honor the caller's request id and echo it in both
    // the response header and the JSON body.
    check(
        "request-id-echo",
        headers
            .iter()
            .any(|(n, v)| n == "x-request-id" && v == "00000000000000000000000000abcdef")
            && body.contains("\"request_id\":\"00000000000000000000000000abcdef\""),
    );

    // The same spec again must come from the shared cache.
    let (status, body) = client::http_request(
        addr,
        "POST",
        "/synth",
        r#"{"label": "smoke2", "net": {"named": "proton_8"}, "options": {"max_wavelengths": 8}}"#,
    )
    .expect("synth reachable");
    check(
        "cache-hit",
        status == 200 && body.contains("\"cache_hit\":true"),
    );

    let (status, body) =
        client::http_request(addr, "POST", "/synth", "{ not json").expect("bad request reachable");
    check(
        "bad-json-400",
        status == 400 && body.contains("\"code\":\"bad_json\""),
    );

    let (status, text) =
        client::http_request(addr, "GET", "/metrics", "").expect("metrics reachable");
    check(
        "metrics",
        status == 200
            && xring_obs::validate_exposition(&text).is_ok()
            && text.contains("xring_serve_request_wall_us_bucket")
            && text.contains("xring_serve_ok_total")
            && text.contains("xring_serve_slo_availability_good_total")
            && text.contains("xring_serve_slo_availability_burn_rate_5m"),
    );

    let (status, body) =
        client::http_request(addr, "GET", "/debug/requests", "").expect("flight reachable");
    check(
        "flight-recorder",
        status == 200
            && body.contains("\"records\":[")
            && body.contains("\"route\":\"/synth\"")
            && body.contains("\"id\":\"00000000000000000000000000abcdef\""),
    );

    let (status, body) = client::http_request(
        addr,
        "GET",
        "/debug/requests/00000000000000000000000000abcdef",
        "",
    )
    .expect("flight lookup reachable");
    check(
        "flight-lookup",
        status == 200 && body.contains("\"record\":{") && body.contains("\"phases\":{"),
    );

    let (status, body) =
        client::http_request(addr, "POST", "/shutdown", "").expect("shutdown reachable");
    check("shutdown", status == 200 && body.contains("draining"));
    server.shutdown();
    check(
        "drained",
        server.metrics().counters.get(ServeCounter::Ok) >= 3,
    );

    // Give the OS a beat to reap finished threads before counting.
    std::thread::sleep(Duration::from_millis(100));
    let threads_after = thread_count();
    if threads_before > 0 {
        check("no-leaked-threads", threads_after <= threads_before);
    }
    eprintln!("serve-smoke: all checks passed");
}
