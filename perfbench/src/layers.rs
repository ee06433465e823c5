//! The traced run: per-layer costs, timed from outside each layer.
//!
//! Each request is first served by the daemon. The benchmark then
//! replays it through the public entry point of every layer the daemon
//! passed it through (protocol decode, the four pipeline steps, layout
//! realization, audit, evaluation, protocol encode), timing each call,
//! and finally re-sends it to time the daemon's cache-hit path. The
//! replay skips what the daemon skipped: nothing on a design-cache hit,
//! and the ring and shortcut steps when the reply says they were
//! replayed from phase artifacts. Rings are built cold, as the
//! daemon builds them on these workloads (see [`crate::workload`]).

use crate::check::{design_section, parse_job, Checker};
use crate::workload::{send, Requests};
use crate::Args;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xring_core::design::realize;
use xring_core::{
    audit_design, audit_report_bounds, design_pdn, map_signals_with_traffic, open_rings,
    plan_shortcuts, PhaseKeys, Provenance, RingBuilder, RingOutcome, ShortcutPlan, XRingDesign,
};
use xring_engine::{JobOutput, SynthesisJob};
use xring_serve::protocol;
use xring_serve::Server;

/// Timed layers, in the order a request passes through them.
pub const LAYERS: [&str; 11] = [
    "parse_us",
    "ring_us",
    "shortcut_us",
    "mapping_us",
    "opening_us",
    "pdn_us",
    "realize_us",
    "audit_us",
    "evaluation_us",
    "render_us",
    "hit_roundtrip_us",
];
const PARSE: usize = 0;
const RING: usize = 1;
const SHORTCUT: usize = 2;
const MAPPING: usize = 3;
const OPENING: usize = 4;
const PDN: usize = 5;
const REALIZE: usize = 6;
const AUDIT: usize = 7;
const EVALUATION: usize = 8;
const RENDER: usize = 9;
const HIT_ROUNDTRIP: usize = 10;

/// Per-layer totals over a traced run.
#[derive(Default)]
pub struct LayerTotals {
    pub requests: usize,
    pub busy: [Duration; LAYERS.len()],
    pub bnb_nodes: usize,
    pub lp_solves: usize,
    pub lazy_cuts: usize,
    pub lp_warm_starts: usize,
    pub cache_hits: usize,
    pub phases_reused: usize,
    pub degraded: usize,
}

/// The replay's totals and the phase outputs it may replay, by phase
/// key.
#[derive(Default)]
struct Replay {
    totals: LayerTotals,
    rings: HashMap<u64, RingOutcome>,
    shortcuts: HashMap<u64, ShortcutPlan>,
}

impl Replay {
    fn timed<T>(&mut self, layer: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.totals.busy[layer] += t0.elapsed();
        out
    }

    /// Runs the pipeline steps for `job` one layer at a time, replaying
    /// the first `reused` phases from the replay's own store.
    fn synthesize(&mut self, job: &SynthesisJob, reused: usize) -> Result<XRingDesign, String> {
        let o = &job.options;
        let net = &job.net;
        let keys = PhaseKeys::compute(net, o);
        // A ring the daemon replayed but the replay never built (the
        // set-up requests built it) is built untimed.
        if reused < 1 || !self.rings.contains_key(&keys.ring) {
            let build = || {
                RingBuilder::new()
                    .with_algorithm(o.ring_algorithm)
                    .with_lp_backend(o.lp_backend)
                    .with_solver_threads(o.solver_threads)
                    .with_pricing(o.pricing)
                    .with_factorization(o.factorization)
                    .build(net)
            };
            let ring = if reused < 1 {
                self.timed(RING, build)
            } else {
                build()
            }
            .map_err(|e| e.to_string())?;
            if reused < 1 {
                self.totals.bnb_nodes += ring.stats.milp_nodes;
                self.totals.lp_solves += ring.stats.lp_solves;
                self.totals.lazy_cuts += ring.stats.lazy_cuts;
                self.totals.lp_warm_starts += ring.stats.lp_warm_starts;
            }
            self.rings.insert(keys.ring, ring);
        }
        let ring = self.rings[&keys.ring].clone();
        let shortcuts = match self.shortcuts.get(&keys.shortcut) {
            Some(plan) if reused >= 2 => plan.clone(),
            _ => {
                let plan = if o.shortcuts {
                    self.timed(SHORTCUT, || plan_shortcuts(net, &ring.cycle))
                } else {
                    ShortcutPlan::empty()
                };
                self.shortcuts.insert(keys.shortcut, plan.clone());
                plan
            }
        };
        let wavelengths = o.max_wavelengths.saturating_sub(o.spares.k_wavelengths);
        let mut plan = self
            .timed(MAPPING, || {
                map_signals_with_traffic(
                    net,
                    &ring.cycle,
                    &shortcuts,
                    &o.traffic,
                    wavelengths,
                    o.max_waveguides,
                )
            })
            .map_err(|e| e.to_string())?;
        let opening_stats = if o.openings {
            self.timed(OPENING, || open_rings(&ring.cycle, &mut plan, wavelengths))
        } else {
            Default::default()
        };
        let pdn = if o.pdn {
            Some(self.timed(PDN, || {
                design_pdn(net, &ring.cycle, &plan, &shortcuts, &o.loss, o.laser)
            }))
        } else {
            None
        };
        let layout = self.timed(REALIZE, || {
            realize(net, &ring.cycle, &shortcuts, &plan, pdn.as_ref(), o.spacing)
        });
        let mut design = XRingDesign {
            net: net.clone(),
            cycle: ring.cycle,
            shortcuts,
            plan,
            pdn,
            layout,
            ring_stats: ring.stats,
            opening_stats,
            elapsed: Duration::ZERO,
            provenance: Provenance::default(),
        };
        let audit = self.timed(AUDIT, || audit_design(&design, &o.traffic, &o.loss));
        if !audit.is_clean() {
            return Err(format!(
                "replayed design fails its audit: {}",
                audit.summary()
            ));
        }
        design.provenance.audit = audit;
        Ok(design)
    }
}

/// Sends the workload's requests one at a time for the run's seconds,
/// replaying each through the layers.
pub fn run(server: &Server, args: &Args, checker: &mut Checker) -> LayerTotals {
    let mut requests = Requests::new(args.workload, args.seed, 0);
    let mut replay = Replay::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let request = requests.next_request();
        let reply = send(server, &request);
        let Some(served) = checker.record(&request, reply) else {
            continue;
        };
        replay.totals.requests += 1;
        // A degraded design depends on when the deadline struck; the
        // replay cannot reproduce it.
        if !served.exact() {
            replay.totals.degraded += 1;
            continue;
        }
        let cache_hit = served.reply.contains("\"cache_hit\":true");
        let reused = field_usize(&served.reply, "\"phases_reused\":").unwrap_or(0);
        let job = match replay.timed(PARSE, || parse_job(request.path, &request.body)) {
            Ok(job) => job,
            Err(e) => {
                checker.fail(format!("protocol rejects a served body: {e}"));
                continue;
            }
        };
        if cache_hit {
            replay.totals.cache_hits += 1;
        } else {
            replay.totals.phases_reused += reused;
            let design = match replay.synthesize(&job, reused) {
                Ok(design) => design,
                Err(e) => {
                    checker.fail(e);
                    continue;
                }
            };
            let report = replay.timed(EVALUATION, || {
                design.report(job.label.clone(), &job.loss, job.xtalk.as_ref(), &job.power)
            });
            let bounds = replay.timed(AUDIT, || audit_report_bounds(&report));
            if !bounds.passed {
                checker.fail(format!("replayed report out of bounds: {}", bounds.detail));
                continue;
            }
            let out = JobOutput {
                label: job.label.clone(),
                design: Arc::new(design),
                report,
                wall: Duration::ZERO,
                cache_hit: false,
                phases_reused: reused,
            };
            let rendered = replay.timed(RENDER, || protocol::render_output(&out, 0, 0));
            if design_section(&rendered) != Some(served.section.as_str()) {
                checker.fail(format!(
                    "layer replay disagrees with the daemon on {}",
                    request.body
                ));
                continue;
            }
        }
        // The same body again is a design-cache hit at the daemon: the
        // serving path with synthesis reduced to a lookup.
        let t0 = Instant::now();
        let again = send(server, &request);
        replay.totals.busy[HIT_ROUNDTRIP] += t0.elapsed();
        checker.record(&request, again);
    }
    replay.totals
}

fn field_usize(reply: &str, key: &str) -> Option<usize> {
    let rest = &reply[reply.find(key)? + key.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}
