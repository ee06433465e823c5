//! Shared realization for baseline ring routers with a **crossing PDN**.
//!
//! ORing's PDN \[17\] (also used for ORNoC in the paper's Table II) routes
//! power from outside the concentric ring stack down to each sender: a
//! branch supplying a sender on ring waveguide `w` must cross every ring
//! waveguide outside `w`. Each such crossing costs crossing loss on the
//! supply path **and** leaks laser light (all wavelengths) onto the
//! crossed data waveguide, where it travels to every same-wavelength
//! receiver downstream — this is what drives the large `#s` and low
//! `SNR_w` of the baselines in Tables II–III.

use std::time::Duration;
use xring_core::layout::{Hop, LayoutModel, NoiseSource, Station, StationIdx, Waveguide};
use xring_core::mapping::{MappingPlan, RouteKind};
use xring_core::{design_pdn, Direction, NetworkSpec, RingCycle, RingSpacing, ShortcutPlan};
use xring_geom::Point;
use xring_phot::{CrosstalkParams, LossParams, PowerParams, RouterReport, SignalId, Wavelength};

/// A synthesized baseline ring router.
#[derive(Debug, Clone)]
pub struct BaselineDesign {
    /// The ring used.
    pub cycle: RingCycle,
    /// The signal mapping.
    pub plan: MappingPlan,
    /// The realized layout (with crossing PDN when enabled).
    pub layout: LayoutModel,
    /// Synthesis wall-clock time.
    pub elapsed: Duration,
    /// Structural audit of the produced design (same invariants the
    /// XRing pipeline enforces on its own output). Baselines are built
    /// for comparison tables; a baseline that silently violated an
    /// invariant would corrupt every table it appears in.
    pub audit: xring_core::AuditReport,
}

impl BaselineDesign {
    /// Evaluates into a table row.
    pub fn report(
        &self,
        label: impl Into<String>,
        loss: &LossParams,
        xtalk: Option<&CrosstalkParams>,
        power: &PowerParams,
    ) -> RouterReport {
        self.layout
            .evaluate(label, loss, xtalk, power, self.elapsed)
    }
}

/// Lowers a ring-only mapping (no shortcuts) to a layout; when
/// `crossing_pdn` is set, the comb PDN described above is woven in.
pub fn realize_ring_baseline(
    net: &NetworkSpec,
    cycle: &RingCycle,
    plan: &MappingPlan,
    loss: &LossParams,
    xtalk: &CrosstalkParams,
    crossing_pdn: bool,
    spacing: RingSpacing,
) -> LayoutModel {
    let mut layout = LayoutModel::new();
    let n = cycle.len();
    let perimeter = cycle.perimeter().max(1);
    let pair_spacing = spacing.spacing_um(n);

    // Splitter-tree losses (shared with XRing's PDN model); the crossing
    // penalties are added on top below.
    let pdn = crossing_pdn.then(|| {
        design_pdn(
            net,
            cycle,
            plan,
            &ShortcutPlan::empty(),
            loss,
            Point::new(-1_000, -1_000),
        )
    });

    // Which cycle positions send on which waveguide.
    let sends_on: Vec<Vec<bool>> = plan
        .ring_waveguides
        .iter()
        .map(|wg| {
            let mut v = vec![false; n];
            for lane in &wg.lanes {
                for arc in &lane.arcs {
                    v[arc.from_pos] = true;
                }
            }
            v
        })
        .collect();
    let num_wg = plan.ring_waveguides.len();
    // All wavelengths any waveguide carries (the PDN supplies all of them).
    let wavelengths_of = |wi: usize| -> Vec<Wavelength> {
        (0..plan.ring_waveguides[wi].lanes.len())
            .map(|li| Wavelength::new(li as u16))
            .collect()
    };

    let mut tap_idx: Vec<std::collections::HashMap<u32, StationIdx>> = Vec::new();
    let mut sender_idx: Vec<std::collections::HashMap<u32, StationIdx>> = Vec::new();

    for (wi, wg) in plan.ring_waveguides.iter().enumerate() {
        let mut stations: Vec<Station> = Vec::new();
        let mut taps = std::collections::HashMap::new();
        let mut senders = std::collections::HashMap::new();

        let mut drops_at: Vec<Vec<(Wavelength, SignalId)>> = vec![Vec::new(); n];
        for (li, lane) in wg.lanes.iter().enumerate() {
            for arc in &lane.arcs {
                drops_at[arc.to_pos]
                    .push((Wavelength::new(li as u16), SignalId(arc.signal as u32)));
            }
        }

        let seq: Vec<usize> = match wg.direction {
            Direction::Cw => (0..n).collect(),
            Direction::Ccw => (0..n).map(|k| (n - k) % n).collect(),
        };
        let extra_perimeter = 8 * pair_spacing * wi as i64;

        for (k, &pos) in seq.iter().enumerate() {
            let node = cycle.order()[pos];

            // PDN branches for senders on *inner* waveguides (and this
            // one's own sender taps from outside) cross this waveguide at
            // this node when the branch target is further inside.
            if let Some(p) = &pdn {
                for (inner, sends) in sends_on.iter().enumerate().take(num_wg) {
                    if inner >= wi || !sends[pos] {
                        continue; // branch ends before reaching us
                    }
                    // The branch to waveguide `inner` at this node crosses
                    // all waveguides outside `inner`; by the time it hits
                    // us (wi) it has already crossed those further out.
                    let already_crossed = (num_wg - 1 - wi) as f64;
                    let tree_loss = p.loss_for(inner, cycle.order()[pos]);
                    let at_here = tree_loss + already_crossed * loss.crossing_db;
                    let injected = wavelengths_of(wi)
                        .into_iter()
                        .map(|wavelength| NoiseSource {
                            wavelength,
                            power_rel_db: -at_here + xtalk.crossing_leak_db,
                        })
                        .collect();
                    stations.push(Station::Crossing {
                        injected,
                        peer: None,
                        through_mrrs: 0,
                    });
                }
            }

            taps.insert(node.0, stations.len());
            stations.push(Station::NodeTap {
                node,
                drops: std::mem::take(&mut drops_at[pos]),
            });
            senders.insert(node.0, stations.len());
            stations.push(Station::SenderTap { node });

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
    }

    // Signals.
    for (gsi, route) in plan.routes.iter().enumerate() {
        let RouteKind::Ring { waveguide } = route.kind else {
            panic!("baseline ring routers route everything on rings");
        };
        let pdn_loss_db = match &pdn {
            None => 0.0,
            Some(p) => {
                // Tree loss + the crossings the branch makes on its way
                // in: one per waveguide outside this one.
                let crossings = (num_wg - 1 - waveguide) as f64;
                p.loss_for(waveguide, route.from) + crossings * loss.crossing_db
            }
        };
        let hops = vec![Hop {
            waveguide,
            from_station: sender_idx[waveguide][&route.from.0],
            to_station: tap_idx[waveguide][&route.to.0],
        }];
        if let Station::NodeTap { drops, .. } =
            &mut layout.waveguides[waveguide].stations[tap_idx[waveguide][&route.to.0]]
        {
            drops.push((route.wavelength, SignalId(gsi as u32)));
        }
        layout.signals.push(xring_core::layout::SignalSpec {
            from: route.from,
            to: route.to,
            wavelength: route.wavelength,
            hops,
            pdn_loss_db,
        });
    }

    layout.pdn_modelled = crossing_pdn;
    layout
}

/// First-fit, shortest-direction mapping: ORing's hand-assignment style.
/// Each signal takes its shorter ring direction and the first wavelength
/// slot whose resident arcs do not overlap; new lanes and waveguides open
/// in order.
pub fn first_fit_map(
    cycle: &RingCycle,
    max_wavelengths: usize,
) -> xring_core::mapping::MappingPlan {
    use xring_core::mapping::{Lane, LaneArc, MappingPlan, RingWaveguide, SignalRoute};
    assert!(max_wavelengths >= 1);
    let mut plan = MappingPlan::default();
    for &from in cycle.order() {
        for &to in cycle.order() {
            if from == to {
                continue;
            }
            let fa = cycle.position_of(from);
            let fb = cycle.position_of(to);
            let cw = cycle.arc_length(fa, fb, Direction::Cw);
            let ccw = cycle.arc_length(fa, fb, Direction::Ccw);
            let dir = if cw <= ccw {
                Direction::Cw
            } else {
                Direction::Ccw
            };
            let arc = LaneArc::new(plan.routes.len(), fa, fb, dir, cycle.len());
            let mut placed = None;
            'outer: for (wi, wg) in plan.ring_waveguides.iter_mut().enumerate() {
                if wg.direction != dir {
                    continue;
                }
                for (li, lane) in wg.lanes.iter_mut().enumerate() {
                    if lane.accepts(&arc, None) {
                        lane.arcs.push(arc);
                        placed = Some((wi, li));
                        break 'outer;
                    }
                }
                if wg.lanes.len() < max_wavelengths {
                    let li = wg.lanes.len();
                    wg.lanes.push(Lane { arcs: vec![arc] });
                    placed = Some((wi, li));
                    break 'outer;
                }
            }
            let (wi, li) = placed.unwrap_or_else(|| {
                let level = plan
                    .ring_waveguides
                    .iter()
                    .filter(|w| w.direction == dir)
                    .count();
                plan.ring_waveguides.push(RingWaveguide {
                    direction: dir,
                    level,
                    opening: None,
                    lanes: vec![Lane { arcs: vec![arc] }],
                });
                (plan.ring_waveguides.len() - 1, 0)
            });
            plan.routes.push(SignalRoute {
                from,
                to,
                wavelength: Wavelength::new(li as u16),
                kind: RouteKind::Ring { waveguide: wi },
            });
        }
    }
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use xring_core::{map_signals, RingBuilder};

    #[test]
    fn baseline_without_pdn_has_no_crossings() {
        let net = NetworkSpec::proton_8();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let plan = map_signals(&net, &ring.cycle, &ShortcutPlan::empty(), 8, 0).expect("mapped");
        let layout = realize_ring_baseline(
            &net,
            &ring.cycle,
            &plan,
            &LossParams::default(),
            &CrosstalkParams::default(),
            false,
            RingSpacing::default(),
        );
        for w in &layout.waveguides {
            assert!(w
                .stations
                .iter()
                .all(|s| !matches!(s, Station::Crossing { .. })));
        }
    }

    #[test]
    fn crossing_pdn_adds_crossings_and_noise() {
        let net = NetworkSpec::proton_8();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let plan = map_signals(&net, &ring.cycle, &ShortcutPlan::empty(), 4, 0).expect("mapped");
        assert!(plan.ring_waveguides.len() >= 2, "need a ring stack");
        let loss = LossParams::default();
        let layout = realize_ring_baseline(
            &net,
            &ring.cycle,
            &plan,
            &loss,
            &CrosstalkParams::default(),
            true,
            RingSpacing::default(),
        );
        // Inner-most waveguide 0 is crossed by nothing... outer ones are.
        let crossing_count: usize = layout
            .waveguides
            .iter()
            .map(|w| {
                w.stations
                    .iter()
                    .filter(|s| matches!(s, Station::Crossing { .. }))
                    .count()
            })
            .sum();
        assert!(crossing_count > 0, "expected PDN crossings");
        let ledger = layout.evaluate_noise(&loss, &CrosstalkParams::default());
        assert!(
            ledger.affected_signal_count() > 0,
            "PDN leakage should corrupt some signals"
        );
    }
}
