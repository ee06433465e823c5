//! Benchmark of the XRing synthesizer as its users meet it: `/synth` and
//! `/batch` requests to an in-process `xring-serve` daemon over loopback
//! HTTP.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact-ring --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (requests drawn from `--seed`, see [`workload`]):
//!
//! * `exact-ring`: distinct 16-node floorplans; the ring MILP (LP
//!   kernel and branch-and-bound) dominates every request.
//! * `heuristic-large`: distinct 128-node floorplans with the heuristic
//!   ring; shortcut planning, mapping and audit dominate, the MILP is
//!   bypassed.
//! * `serve-mix`: 2 closed-loop clients over small floorplans: cache
//!   hits, traffic edits that replay phase artifacts, and fresh
//!   syntheses; the serving path and the engine's caches dominate.
//!
//! `--trace 0` measures the end-to-end figures: per-request latency (p50
//! and p90, as the client sees it), throughput, and the set-up time
//! (daemon start plus warm-up, median of several set-ups). `--trace 1`
//! runs requests one at a time and times each layer from outside (see
//! [`layers`]). The last line of stdout is one JSON object with the
//! verdict and the metrics.

mod check;
mod layers;
mod workload;

use check::Checker;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Requests, Workload};
use xring_serve::Server;

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 5;

/// Distinct request bodies re-synthesized cold to check the daemon.
const REFERENCE_SAMPLES: usize = 6;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload exact-ring|heuristic-large|serve-mix \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, Box<dyn std::error::Error>> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut daemon = workload::set_up(args.workload, args.seed)?;
    setup_s.push(daemon.setup_s);
    for _ in 1..SETUPS {
        daemon.server.shutdown();
        daemon = workload::set_up(args.workload, args.seed)?;
        setup_s.push(daemon.setup_s);
    }
    let mut server = daemon.server;
    // The warm-up replies are the first answers to the serve-mix hot set:
    // every later hit must repeat them.
    let mut checker = Checker::default();
    for (request, reply) in daemon.warmup {
        checker.record(&request, reply);
    }

    let metrics = if args.trace {
        let totals = layers::run(&server, args, &mut checker);
        layer_metrics(&totals)
    } else {
        let (latencies_ms, window) = closed_loop(&server, args, &mut checker);
        if latencies_ms.is_empty() {
            return Err("no request succeeded".into());
        }
        end_to_end_metrics(latencies_ms, window, median(setup_s))
    };
    server.shutdown();
    checker.verify_sample(REFERENCE_SAMPLES);
    for problem in checker.first_errors() {
        eprintln!("problem: {problem}");
    }
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.correct(),
        checker.attempted,
        checker.failed,
        metrics.join(", ")
    ))
}

/// Every client sends its next request as soon as the previous reply
/// arrives, until `seconds` have passed. Returns the latencies of the
/// successful requests and the measured window.
fn closed_loop(server: &Server, args: &Args, checker: &mut Checker) -> (Vec<f64>, Duration) {
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let per_client: Vec<(Vec<f64>, Checker)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.workload.clients())
            .map(|c| {
                s.spawn(move || {
                    let mut requests = Requests::new(args.workload, args.seed, c);
                    let mut checker = Checker::default();
                    let mut latencies = Vec::new();
                    while Instant::now() < deadline {
                        let request = requests.next_request();
                        let sent = Instant::now();
                        let reply = workload::send(server, &request);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        if checker.record(&request, reply).is_some() {
                            latencies.push(ms);
                        }
                    }
                    (latencies, checker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = t0.elapsed();
    let mut all = Vec::new();
    for (latencies, client_checker) in per_client {
        all.extend(latencies);
        checker.merge(client_checker);
    }
    (all, window)
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end_metrics(mut latencies_ms: Vec<f64>, window: Duration, setup_s: f64) -> Vec<Metric> {
    latencies_ms.sort_by(f64::total_cmp);
    vec![
        ("latency_p50_ms", quantile(&latencies_ms, 0.50), "ms"),
        ("latency_p90_ms", quantile(&latencies_ms, 0.90), "ms"),
        (
            "throughput_rps",
            latencies_ms.len() as f64 / window.as_secs_f64(),
            "1/s",
        ),
        ("setup_s", setup_s, "s"),
    ]
}

fn layer_metrics(t: &layers::LayerTotals) -> Vec<Metric> {
    let n = t.requests.max(1) as f64;
    let mut out: Vec<Metric> = layers::LAYERS
        .iter()
        .zip(t.busy)
        .map(|(name, busy)| (*name, busy.as_secs_f64() * 1e6 / n, "us"))
        .collect();
    out.extend([
        ("bnb_nodes", t.bnb_nodes as f64 / n, "count"),
        ("lp_solves", t.lp_solves as f64 / n, "count"),
        ("lazy_cuts", t.lazy_cuts as f64 / n, "count"),
        ("lp_warm_starts", t.lp_warm_starts as f64 / n, "count"),
        ("phases_reused", t.phases_reused as f64 / n, "count"),
        ("cache_hit_rate", t.cache_hits as f64 / n, "ratio"),
        ("degraded_rate", t.degraded as f64 / n, "ratio"),
    ]);
    out
}

/// Linear-interpolated quantile of non-empty sorted `xs`.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile(&xs, 0.5)
}
