//! Realization: lowering a mapped plan to a [`LayoutModel`] and packaging
//! the final [`XRingDesign`].

use crate::audit::AuditReport;
use crate::error::SynthesisError;
use crate::layout::{Hop, LayoutModel, NoiseSource, Station, StationIdx, Waveguide};
use crate::mapping::{MappingPlan, RouteKind};
use crate::netspec::NetworkSpec;
use crate::opening::OpeningStats;
use crate::pdn::{PdnDesign, SHORTCUT_GROUP};
use crate::ring::{Direction, RingCycle, RingStats};
use crate::shortcut::ShortcutPlan;
use std::time::Duration;
use xring_phot::{CrosstalkParams, LossParams, PowerParams, RouterReport, SignalId, Wavelength};

/// Geometry constants for concentric ring spacing (Sec. III-D): the
/// spacing between paired ring waveguides is `A₁ + ⌈log₂N⌉·A₂` where `A₁`
/// is the modulator width and `A₂` the splitter width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSpacing {
    /// Modulator width `A₁` in µm.
    pub a1_um: i64,
    /// Splitter width `A₂` in µm.
    pub a2_um: i64,
}

impl Default for RingSpacing {
    fn default() -> Self {
        RingSpacing {
            a1_um: 50,
            a2_um: 20,
        }
    }
}

impl RingSpacing {
    /// The pair spacing for an `n`-node network, µm.
    pub fn spacing_um(&self, n: usize) -> i64 {
        let log = (usize::BITS - (n.max(2) - 1).leading_zeros()) as i64; // ceil(log2 n)
        self.a1_um + log * self.a2_um
    }
}

/// How far synthesis had to degrade from the exact, as-requested flow to
/// produce a design (Sec. III pipeline with the fallback chain
/// `ExactMilp → RetryWithPerturbation → HeuristicRing → Err`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationLevel {
    /// The as-requested synthesis succeeded on the first attempt.
    #[default]
    Exact,
    /// The exact attempt failed, but a MILP retry with a deterministically
    /// perturbed objective succeeded. The result is still an optimal ring
    /// up to the ≤ 1e-6 relative objective tilt.
    RetriedPerturbed,
    /// Exact synthesis (and any retry) failed; the ring was built by the
    /// nearest-neighbour + 2-opt heuristic instead of the MILP.
    Heuristic,
}

impl DegradationLevel {
    /// Stable lowercase name (used in metrics and event streams).
    pub fn as_str(&self) -> &'static str {
        match self {
            DegradationLevel::Exact => "exact",
            DegradationLevel::RetriedPerturbed => "retried",
            DegradationLevel::Heuristic => "heuristic",
        }
    }
}

/// How a design came to be: its degradation level, the failure that
/// forced any degradation, and the audit verdicts it was released with.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Provenance {
    /// How far synthesis degraded to produce this design.
    pub degradation: DegradationLevel,
    /// The error that triggered degradation (`None` at
    /// [`DegradationLevel::Exact`]).
    pub fallback_reason: Option<String>,
    /// The post-synthesis audit this design was released with. Always
    /// audited and clean for designs returned by
    /// [`Synthesizer::synthesize`](crate::Synthesizer::synthesize).
    pub audit: AuditReport,
}

impl Provenance {
    /// True when the design was degraded because the deadline expired.
    /// Such a design depends on timing, not only on the synthesis inputs.
    pub fn degraded_by_deadline(&self) -> bool {
        self.degradation != DegradationLevel::Exact
            && self.fallback_reason.as_deref()
                == Some(SynthesisError::DeadlineExceeded.to_string().as_str())
    }
}

/// A fully synthesized XRing router.
#[derive(Debug, Clone)]
pub struct XRingDesign {
    /// The input network.
    pub net: NetworkSpec,
    /// The Step-1 ring.
    pub cycle: RingCycle,
    /// The Step-2 shortcut plan.
    pub shortcuts: ShortcutPlan,
    /// The Step-3 mapping (with openings applied).
    pub plan: MappingPlan,
    /// The Step-4 PDN, when synthesized.
    pub pdn: Option<PdnDesign>,
    /// The realized layout, ready for evaluation.
    pub layout: LayoutModel,
    /// Ring-construction statistics.
    pub ring_stats: RingStats,
    /// Opening statistics.
    pub opening_stats: OpeningStats,
    /// Wall-clock synthesis time: the ring's construction (replayed
    /// rings keep their solve's time) plus Steps 2–4.
    pub elapsed: Duration,
    /// How the design was produced (degradation level + audit verdicts).
    pub provenance: Provenance,
}

impl XRingDesign {
    /// Evaluates the design into a table row.
    pub fn report(
        &self,
        label: impl Into<String>,
        loss: &LossParams,
        xtalk: Option<&CrosstalkParams>,
        power: &PowerParams,
    ) -> RouterReport {
        let _span = xring_obs::span("evaluation");
        self.layout
            .evaluate(label, loss, xtalk, power, self.elapsed)
    }
}

/// Lowers the plan to stations and hops.
pub fn realize(
    _net: &NetworkSpec,
    cycle: &RingCycle,
    shortcuts: &ShortcutPlan,
    plan: &MappingPlan,
    pdn: Option<&PdnDesign>,
    spacing: RingSpacing,
) -> LayoutModel {
    let mut layout = LayoutModel::new();
    let n = cycle.len();
    let perimeter = cycle.perimeter().max(1);
    let pair_spacing = spacing.spacing_um(n);

    // Per-waveguide station index of each node's tap and sender, indexed
    // by node.
    let mut tap_idx: Vec<Vec<StationIdx>> = Vec::with_capacity(plan.ring_waveguides.len());
    let mut sender_idx: Vec<Vec<StationIdx>> = Vec::with_capacity(plan.ring_waveguides.len());

    // --- Ring waveguides. ---
    for (wi, wg) in plan.ring_waveguides.iter().enumerate() {
        let mut stations: Vec<Station> = Vec::with_capacity(3 * n + 2);
        let mut taps = vec![StationIdx::MAX; n];
        let mut senders = vec![StationIdx::MAX; n];

        // Receiver drops per position on this waveguide.
        let mut drops_at: Vec<Vec<(Wavelength, SignalId)>> = vec![Vec::new(); n];
        for (li, lane) in wg.lanes.iter().enumerate() {
            for arc in &lane.arcs {
                drops_at[arc.to_pos]
                    .push((Wavelength::new(li as u16), SignalId(arc.signal as u32)));
            }
        }

        // Travel sequence of cycle positions.
        let seq: Vec<usize> = match wg.direction {
            Direction::Cw => (0..n).collect(),
            Direction::Ccw => (0..n).map(|k| (n - k) % n).collect(),
        };
        // Concentric offset: outer rings are longer; distribute the extra
        // perimeter proportionally over edges.
        let extra_perimeter = 8 * pair_spacing * wi as i64;

        for (k, &pos) in seq.iter().enumerate() {
            let node = cycle.order()[pos];
            taps[node.index()] = stations.len();
            stations.push(Station::NodeTap {
                node,
                drops: std::mem::take(&mut drops_at[pos]),
            });
            if wg.opening == Some(pos) {
                stations.push(Station::Opening);
            }
            senders[node.index()] = stations.len();
            stations.push(Station::SenderTap { node });
            // Segment to the next node in travel order.
            let next_pos = seq[(k + 1) % n];
            let edge = match wg.direction {
                Direction::Cw => pos,
                Direction::Ccw => next_pos,
            };
            let base = cycle.edge_length(edge);
            let scaled = base + base * extra_perimeter / perimeter;
            stations.push(Station::Segment {
                length_um: scaled,
                bends: cycle.bends_on_edge(edge) as u32,
            });
        }

        layout.waveguides.push(Waveguide {
            closed: true,
            stations,
        });
        tap_idx.push(taps);
        sender_idx.push(senders);
        let _ = wi;
    }

    // Unopened ring waveguides with a PDN: the PDN crosses them once; the
    // crossing injects laser light of every wavelength the waveguide
    // carries (approximation documented in DESIGN.md).
    if let Some(p) = pdn {
        for &wi in &p.crossed_waveguides {
            let wavelengths: Vec<Wavelength> = (0..plan.ring_waveguides[wi].lanes.len())
                .map(|li| Wavelength::new(li as u16))
                .collect();
            let min_sender_loss = p
                .sender_loss_db
                .iter()
                .filter(|((g, _), _)| *g == wi)
                .map(|(_, l)| *l)
                .fold(f64::INFINITY, f64::min);
            let at_crossing_db = if min_sender_loss.is_finite() {
                -(min_sender_loss - 3.0).max(0.0)
            } else {
                0.0
            };
            let injected = wavelengths
                .into_iter()
                .map(|wavelength| NoiseSource {
                    wavelength,
                    power_rel_db: at_crossing_db - 40.0,
                })
                .collect();
            layout.waveguides[wi].stations.push(Station::Crossing {
                injected,
                peer: None,
                through_mrrs: 0,
            });
        }
    }

    // --- Shortcut wires: two per corridor (forward a→b, reverse b→a). ---
    // Per wire, indexed by `wire(shortcut, forward)`: its waveguide index
    // and the station index of its CSE crossing (if any).
    let wire = |si: usize, forward: bool| 2 * si + usize::from(!forward);
    let mut wire_of: Vec<usize> = Vec::with_capacity(2 * shortcuts.shortcuts.len());
    let mut wire_crossing = vec![StationIdx::MAX; 2 * shortcuts.shortcuts.len()];

    for (si, s) in shortcuts.shortcuts.iter().enumerate() {
        for forward in [true, false] {
            let (from_node, to_node) = if forward { (s.a, s.b) } else { (s.b, s.a) };
            let total = s.length_um;
            let mut stations: Vec<Station> = Vec::new();
            stations.push(Station::SenderTap { node: from_node });
            let bends = s.route.bend_count() as u32;
            match s.crossing_at_um {
                Some(at) => {
                    let d1 = if forward { at } else { total - at };
                    let d2 = total - d1;
                    // Attach the corridor's bend to the longer stretch
                    // (the exact corner position does not change loss).
                    let (b1, b2) = if d1 >= d2 { (bends, 0) } else { (0, bends) };
                    stations.push(Station::Segment {
                        length_um: d1,
                        bends: b1,
                    });
                    wire_crossing[wire(si, forward)] = stations.len();
                    stations.push(Station::Crossing {
                        injected: Vec::new(),
                        peer: None, // patched below
                        through_mrrs: 2,
                    });
                    stations.push(Station::Segment {
                        length_um: d2,
                        bends: b2,
                    });
                }
                None => {
                    stations.push(Station::Segment {
                        length_um: total,
                        bends,
                    });
                }
            }
            stations.push(Station::NodeTap {
                node: to_node,
                drops: Vec::new(), // filled below
            });
            wire_of.push(layout.waveguides.len());
            layout.waveguides.push(Waveguide {
                closed: false,
                stations,
            });
        }
    }
    // Patch crossing peers: forward↔forward and reverse↔reverse of
    // partner corridors.
    for (si, s) in shortcuts.shortcuts.iter().enumerate() {
        if let Some(pi) = s.crossing_partner {
            if pi < si {
                continue; // handled from the lower index
            }
            for forward in [true, false] {
                let wa = wire_of[wire(si, forward)];
                let wb = wire_of[wire(pi, forward)];
                let sa = wire_crossing[wire(si, forward)];
                let sb = wire_crossing[wire(pi, forward)];
                if let Station::Crossing { peer, .. } = &mut layout.waveguides[wa].stations[sa] {
                    *peer = Some((wb, sb));
                }
                if let Station::Crossing { peer, .. } = &mut layout.waveguides[wb].stations[sb] {
                    *peer = Some((wa, sa));
                }
            }
        }
    }

    // --- Signals. ---
    for (gsi, route) in plan.routes.iter().enumerate() {
        let pdn_loss_db = match (pdn, route.kind) {
            (None, _) => 0.0,
            (Some(p), RouteKind::Ring { waveguide }) => p.loss_for(waveguide, route.from),
            (Some(p), _) => p.loss_for(SHORTCUT_GROUP, route.from),
        };
        let hops = match route.kind {
            RouteKind::Ring { waveguide } => {
                vec![Hop {
                    waveguide,
                    from_station: sender_idx[waveguide][route.from.index()],
                    to_station: tap_idx[waveguide][route.to.index()],
                }]
            }
            RouteKind::ShortcutDirect { shortcut } => {
                let forward = shortcuts.shortcuts[shortcut].a == route.from;
                let w = wire_of[wire(shortcut, forward)];
                let last = layout.waveguides[w].stations.len() - 1;
                vec![Hop {
                    waveguide: w,
                    from_station: 0,
                    to_station: last,
                }]
            }
            RouteKind::ShortcutCse { enter, exit } => {
                let fwd1 = shortcuts.shortcuts[enter].a == route.from;
                let fwd2 = shortcuts.shortcuts[exit].b == route.to;
                debug_assert_eq!(fwd1, fwd2, "CSE service must stay on same-parity wires");
                let w1 = wire_of[wire(enter, fwd1)];
                let w2 = wire_of[wire(exit, fwd2)];
                let c1 = wire_crossing[wire(enter, fwd1)];
                let c2 = wire_crossing[wire(exit, fwd2)];
                let last = layout.waveguides[w2].stations.len() - 1;
                vec![
                    Hop {
                        waveguide: w1,
                        from_station: 0,
                        to_station: c1,
                    },
                    Hop {
                        waveguide: w2,
                        from_station: c2,
                        to_station: last,
                    },
                ]
            }
        };
        // Register the receiver drop at the final tap.
        let last_hop = hops.last().expect("signal has hops");
        if let Station::NodeTap { drops, .. } =
            &mut layout.waveguides[last_hop.waveguide].stations[last_hop.to_station]
        {
            drops.push((route.wavelength, SignalId(gsi as u32)));
        } else {
            panic!("signal {gsi} does not terminate at a NodeTap");
        }
        layout.signals.push(crate::layout::SignalSpec {
            from: route.from,
            to: route.to,
            wavelength: route.wavelength,
            hops,
            pdn_loss_db,
        });
    }

    layout.pdn_modelled = pdn.is_some();
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::map_signals;
    use crate::opening::open_rings;
    use crate::pdn::design_pdn;
    use crate::ring::RingBuilder;
    use crate::shortcut::plan_shortcuts;
    use xring_geom::Point;

    #[test]
    fn spacing_formula() {
        let s = RingSpacing::default();
        assert_eq!(s.spacing_um(8), 50 + 3 * 20);
        assert_eq!(s.spacing_um(16), 50 + 4 * 20);
        assert_eq!(s.spacing_um(17), 50 + 5 * 20);
        assert_eq!(s.spacing_um(32), 50 + 5 * 20);
    }

    #[test]
    fn realize_8_node_and_trace_all() {
        let net = NetworkSpec::proton_8();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let sc = plan_shortcuts(&net, &ring.cycle);
        let mut plan = map_signals(&net, &ring.cycle, &sc, 8, 0).expect("mapped");
        open_rings(&ring.cycle, &mut plan, 8);
        let pdn = design_pdn(
            &net,
            &ring.cycle,
            &plan,
            &sc,
            &LossParams::default(),
            Point::new(-1_000, -1_000),
        );
        let layout = realize(
            &net,
            &ring.cycle,
            &sc,
            &plan,
            Some(&pdn),
            RingSpacing::default(),
        );
        assert_eq!(layout.signals.len(), net.signal_count());
        // Every signal must produce a finite trace ending in a detector.
        for i in 0..layout.signals.len() {
            let trace = layout.trace(SignalId(i as u32));
            assert!(matches!(
                trace.last(),
                Some(xring_phot::PathElement::Photodetector)
            ));
        }
    }

    #[test]
    fn ring_signal_lengths_match_arcs() {
        let net = NetworkSpec::proton_8();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let sc = ShortcutPlan::empty();
        let plan = map_signals(&net, &ring.cycle, &sc, 8, 0).expect("mapped");
        let layout = realize(&net, &ring.cycle, &sc, &plan, None, RingSpacing::default());
        for (i, route) in plan.routes.iter().enumerate() {
            let RouteKind::Ring { waveguide } = route.kind else {
                continue;
            };
            let wg = &plan.ring_waveguides[waveguide];
            // Only level-0 waveguides have unscaled lengths.
            if waveguide != 0 {
                continue;
            }
            let fa = ring.cycle.position_of(route.from);
            let fb = ring.cycle.position_of(route.to);
            let expect = ring.cycle.arc_length(fa, fb, wg.direction);
            let trace = layout.trace(SignalId(i as u32));
            let got: i64 = trace
                .iter()
                .map(|e| match e {
                    xring_phot::PathElement::Propagate { length_um } => *length_um,
                    _ => 0,
                })
                .sum();
            assert_eq!(got, expect, "signal {i} length mismatch");
        }
    }

    #[test]
    fn outer_rings_are_longer() {
        let net = NetworkSpec::psion_16();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let sc = ShortcutPlan::empty();
        let plan = map_signals(&net, &ring.cycle, &sc, 2, 0).expect("mapped");
        assert!(plan.ring_waveguides.len() >= 2, "need multiple rings");
        let layout = realize(&net, &ring.cycle, &sc, &plan, None, RingSpacing::default());
        let ring_len = |w: &Waveguide| -> i64 {
            w.stations
                .iter()
                .map(|s| match s {
                    Station::Segment { length_um, .. } => *length_um,
                    _ => 0,
                })
                .sum()
        };
        let l0 = ring_len(&layout.waveguides[0]);
        let l1 = ring_len(&layout.waveguides[1]);
        assert!(l1 > l0, "outer ring not longer: {l0} vs {l1}");
    }

    #[test]
    fn cse_signals_have_two_hops() {
        // Find a floorplan producing a crossing pair; psion_32 with the
        // heuristic ring usually does. Skip silently if not.
        let net = NetworkSpec::psion_32();
        let ring = RingBuilder::new()
            .with_algorithm(crate::ring::RingAlgorithm::Heuristic)
            .build(&net)
            .expect("ring");
        let sc = plan_shortcuts(&net, &ring.cycle);
        if !sc.shortcuts.iter().any(|s| s.crossing_partner.is_some()) {
            return;
        }
        let mut plan = map_signals(&net, &ring.cycle, &sc, 16, 0).expect("mapped");
        open_rings(&ring.cycle, &mut plan, 16);
        let layout = realize(&net, &ring.cycle, &sc, &plan, None, RingSpacing::default());
        let mut cse_seen = false;
        for (i, r) in plan.routes.iter().enumerate() {
            if matches!(r.kind, RouteKind::ShortcutCse { .. }) {
                cse_seen = true;
                assert_eq!(layout.signals[i].hops.len(), 2);
                let trace = layout.trace(SignalId(i as u32));
                let drops = trace
                    .iter()
                    .filter(|e| matches!(e, xring_phot::PathElement::MrrDrop))
                    .count();
                assert_eq!(drops, 2, "CSE + receiver drops");
            }
        }
        assert!(cse_seen);
    }
}
