//! The three workloads: how each one's requests are drawn from the
//! seed, and how its daemon is set up.
//!
//! Every input reaches the program as a request body with explicit node
//! positions, so the program never sees the seed.

use std::io;
use std::time::Instant;
use xring_core::SplitMix64;
use xring_serve::{client, ServeConfig, Server};

/// Which traffic mix a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct 16-node floorplans, exact ring MILP, all-to-all traffic.
    ExactRing,
    /// Distinct 128-node floorplans, heuristic ring, 3-nearest-neighbour
    /// traffic.
    HeuristicLarge,
    /// Small floorplans from 2 concurrent clients: repeats of a hot set,
    /// traffic edits of the hot set and fresh floorplans.
    ServeMix,
}

/// Floorplans in the serve-mix hot set.
const HOT_SET: usize = 8;

/// Seed of the warm-up requests, which are the same for every run so
/// that set-up time does not depend on `--seed`.
const WARMUP_SEED: u64 = 0x5e70_fa11;

/// Options of every fresh exact floorplan. A few floorplans take the
/// branch-and-bound hundreds of times the median, or fail in the LP
/// kernel; past the deadline, or after a failure, the request degrades
/// instead, so that no request fails and no single floorplan decides a
/// run's throughput.
const BOUNDED: &str = "\"deadline_ms\":50,\"degradation\":\"allow\"";

/// Byte budget of the daemon's design cache: large enough that the
/// serve-mix hot set never leaves it, small enough that the distinct
/// designs of the other workloads are evicted in steady state.
const CACHE_BYTES: usize = 16 << 20;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "exact-ring" => Some(Workload::ExactRing),
            "heuristic-large" => Some(Workload::HeuristicLarge),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    /// Concurrent closed-loop clients (each sends its next request when
    /// the previous reply arrives).
    pub fn clients(self) -> usize {
        match self {
            Workload::ExactRing | Workload::HeuristicLarge => 1,
            Workload::ServeMix => 2,
        }
    }

    /// Requests sent while setting up, to finish lazy initialisation
    /// (and, for serve-mix, to fill the cache with the hot set).
    fn warmup_requests(self) -> usize {
        match self {
            Workload::ExactRing => 8,
            Workload::HeuristicLarge => 2,
            Workload::ServeMix => HOT_SET,
        }
    }
}

/// One request: its endpoint and JSON body.
pub struct Request {
    pub path: &'static str,
    pub body: String,
}

/// Deterministic request source for one client.
///
/// A `/synth` that builds a ring with the exact MILP is offered the
/// previous `/synth` ring's basis as a warm start, and a basis from a
/// different floorplan of the same size can yield a wrong ring or none.
/// So no workload sends `/synth` requests that build exact rings for two
/// floorplans of one size: fresh exact floorplans go through `/batch`,
/// which synthesizes cold, and the serve-mix hot set has one floorplan
/// per size.
pub struct Requests {
    workload: Workload,
    rng: SplitMix64,
    hot: Vec<String>,
}

impl Requests {
    /// The stream of client `client` under `seed`. Every client shares
    /// the seed's hot set.
    pub fn new(workload: Workload, seed: u64, client: usize) -> Requests {
        let mut hot_rng = SplitMix64::new(seed ^ 0x4807_5e7d_a7a5_e7a1);
        let hot = (0..HOT_SET)
            .map(|k| positions(&mut hot_rng, 6 + k, 6_000))
            .collect();
        let stream = (client as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Requests {
            workload,
            rng: SplitMix64::new(seed ^ stream),
            hot,
        }
    }

    /// A repeat of the `k`-th hot-set floorplan.
    pub fn hot(&self, k: usize) -> Request {
        synth(&self.hot[k % HOT_SET], "\"max_wavelengths\":8")
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        match self.workload {
            Workload::ExactRing => batch(
                &positions(&mut self.rng, 16, 8_000),
                &format!("\"max_wavelengths\":16,{BOUNDED}"),
            ),
            Workload::HeuristicLarge => synth(
                &positions(&mut self.rng, 128, 28_000),
                "\"max_wavelengths\":8,\"ring_algorithm\":\"heuristic\",\"traffic\":{\"knn\":3}",
            ),
            // 40% repeats of the hot set (design-cache hits), 30% traffic
            // edits of a hot floorplan (ring and shortcuts replayed from
            // the phase artifacts), 30% fresh floorplans (full synthesis).
            Workload::ServeMix => {
                let draw = self.rng.next_u64() % 100;
                let k = (self.rng.next_u64() % HOT_SET as u64) as usize;
                if draw < 40 {
                    self.hot(k)
                } else if draw < 70 {
                    // Hotspot traffic keeps every node a sender; with
                    // permutation traffic a few floorplans leave a
                    // shortcut without a sender and PDN design panics.
                    let hot = self.rng.next_u64() % 1_000_000_000;
                    synth(
                        &self.hot[k],
                        &format!(
                            "\"max_wavelengths\":8,\"traffic\":{{\"hotspot\":{{\"hotspots\":2,\"seed\":{hot}}}}}"
                        ),
                    )
                } else {
                    let n = 8 + (self.rng.next_u64() % 3) as usize;
                    batch(
                        &positions(&mut self.rng, n, 6_000),
                        &format!("\"max_wavelengths\":8,{BOUNDED}"),
                    )
                }
            }
        }
    }
}

fn synth(positions: &str, options: &str) -> Request {
    Request {
        path: "/synth",
        body: job_body(positions, options),
    }
}

/// A one-job `/batch` request.
fn batch(positions: &str, options: &str) -> Request {
    Request {
        path: "/batch",
        body: format!("{{\"jobs\":[{}]}}", job_body(positions, options)),
    }
}

fn job_body(positions: &str, options: &str) -> String {
    format!("{{\"net\":{{\"positions\":{positions}}},\"options\":{{{options}}}}}")
}

/// `n` distinct points on a 100 µm grid inside a `die_um` square, as a
/// JSON array of `[x, y]` pairs.
fn positions(rng: &mut SplitMix64, n: usize, die_um: i64) -> String {
    let cells = (die_um / 100) as u64;
    let mut points: Vec<(i64, i64)> = Vec::with_capacity(n);
    while points.len() < n {
        let x = (rng.next_u64() % cells) as i64 * 100;
        let y = (rng.next_u64() % cells) as i64 * 100;
        if !points.contains(&(x, y)) {
            points.push((x, y));
        }
    }
    let pairs: Vec<String> = points.iter().map(|(x, y)| format!("[{x},{y}]")).collect();
    format!("[{}]", pairs.join(","))
}

/// Sends `request` and returns the reply.
pub fn send(server: &Server, request: &Request) -> io::Result<(u16, String)> {
    client::http_request(server.addr(), "POST", request.path, &request.body)
}

/// A daemon ready for a run.
pub struct Daemon {
    pub server: Server,
    /// Seconds from start to ready.
    pub setup_s: f64,
    /// The warm-up requests and their replies, for checking.
    pub warmup: Vec<(Request, io::Result<(u16, String)>)>,
}

/// Starts a daemon for `workload` and sends the warm-up requests.
pub fn set_up(workload: Workload, seed: u64) -> io::Result<Daemon> {
    let t0 = Instant::now();
    let server = Server::start(ServeConfig {
        max_inflight: workload.clients(),
        cache_bytes: Some(CACHE_BYTES),
        ..ServeConfig::default()
    })?;
    let seeded = Requests::new(workload, seed, 0);
    let mut fixed = Requests::new(workload, WARMUP_SEED, 0);
    let warmup = (0..workload.warmup_requests())
        .map(|k| {
            let request = match workload {
                Workload::ServeMix => seeded.hot(k),
                _ => fixed.next_request(),
            };
            let reply = send(&server, &request);
            (request, reply)
        })
        .collect();
    Ok(Daemon {
        server,
        setup_s: t0.elapsed().as_secs_f64(),
        warmup,
    })
}
