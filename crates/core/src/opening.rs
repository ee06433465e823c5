//! Step 3 (second half): ring waveguide opening (Sec. III-C, Fig. 8).
//!
//! For every ring waveguide, the node passed by the fewest signals is
//! chosen as the opening candidate; signals still passing it are migrated
//! to other ring waveguides (within the `#wl` cap and without crossing
//! those waveguides' openings), and the waveguide segment between the
//! node's receiver and sender is removed. Openings let the PDN reach inner
//! senders without crossing any ring waveguide.

use crate::mapping::{LaneArc, MappingPlan, RouteKind};
use crate::ring::RingCycle;
use xring_phot::Wavelength;

/// Result of the opening pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpeningStats {
    /// Waveguides successfully opened.
    pub opened: usize,
    /// Waveguides left closed (no feasible migration for their traffic).
    pub unopened: usize,
    /// Signals migrated to other waveguides.
    pub migrated: usize,
}

/// Opens every ring waveguide where possible, mutating `plan` in place.
pub fn open_rings(
    cycle: &RingCycle,
    plan: &mut MappingPlan,
    max_wavelengths: usize,
) -> OpeningStats {
    let mut stats = OpeningStats::default();
    let n = cycle.len();

    // Newly created migration-target waveguides are appended and get
    // their own opening pass in later iterations.
    let mut wi = 0;
    while wi < plan.ring_waveguides.len() {
        // Count passing signals per cycle position: an arc passes the
        // start of each of its edges but the first.
        let mut pass_count = vec![0usize; n];
        for lane in &plan.ring_waveguides[wi].lanes {
            for arc in &lane.arcs {
                for p in arc.edges().skip(1) {
                    pass_count[p] += 1;
                }
            }
        }
        let candidate = (0..n)
            .min_by_key(|&p| (pass_count[p], p))
            .expect("cycle is non-empty");

        // Collect the arcs that pass the candidate.
        let passers: Vec<(usize, usize, LaneArc)> = plan.ring_waveguides[wi]
            .lanes
            .iter()
            .enumerate()
            .flat_map(|(li, lane)| {
                lane.arcs
                    .iter()
                    .filter(|a| a.passes(candidate))
                    .copied()
                    .map(move |a| (wi, li, a))
            })
            .collect();

        // Try to migrate every passer to another waveguide of the same
        // direction. All-or-nothing: tentatively place, roll back on
        // failure.
        let dir = plan.ring_waveguides[wi].direction;
        let real_count = plan.ring_waveguides.len();
        // (dst_wg, dst_lane, arc, src_lane); dst_wg >= real_count means a
        // fresh waveguide created on commit.
        let mut placements: Vec<(usize, usize, LaneArc, usize)> = Vec::new();
        // Virtual lane view: (waveguide, lane) -> pending arcs, so the
        // all-or-nothing tentative pass stays consistent with itself.
        let pending_fits = |placements: &[(usize, usize, LaneArc, usize)],
                            dwi: usize,
                            dli: usize,
                            arc: &LaneArc| {
            placements
                .iter()
                .filter(|(pw, pl, _, _)| *pw == dwi && *pl == dli)
                .all(|(_, _, parc, _)| !parc.overlaps(arc))
        };
        let mut fresh_lane_counts: Vec<usize> = Vec::new(); // per fresh waveguide
        for (_, src_lane, arc) in &passers {
            // Phase A: fit into an existing lane on another same-direction
            // waveguide, preferring the *innermost* destination (lowest
            // index: outer concentric rings are longer, so migrating a
            // long arc outward would inflate its path), then the fullest
            // lane. Openings already set are respected; unprocessed
            // waveguides are re-checked when their turn comes.
            let mut best: Option<(usize, usize, usize)> = None; // (dwi, dli, covered)
            for (dwi, dwg) in plan.ring_waveguides.iter().enumerate() {
                if dwi == wi || dwg.direction != dir {
                    continue;
                }
                for (dli, dlane) in dwg.lanes.iter().enumerate() {
                    if dlane.accepts(arc, dwg.opening) && pending_fits(&placements, dwi, dli, arc) {
                        let covered: usize = dlane.arcs.iter().map(LaneArc::len).sum();
                        let better = match best {
                            None => true,
                            Some((bwi, _, bcov)) => dwi < bwi || (dwi == bwi && covered > bcov),
                        };
                        if better {
                            best = Some((dwi, dli, covered));
                        }
                    }
                }
            }
            if let Some((dwi, dli, _)) = best {
                placements.push((dwi, dli, *arc, *src_lane));
                continue;
            }
            // Phase B: lanes of pending fresh waveguides.
            let mut placed = false;
            for (f, &lane_count) in fresh_lane_counts.iter().enumerate() {
                let dwi = real_count + f;
                for dli in 0..lane_count {
                    if pending_fits(&placements, dwi, dli, arc) {
                        placements.push((dwi, dli, *arc, *src_lane));
                        placed = true;
                        break;
                    }
                }
                if placed {
                    break;
                }
            }
            if placed {
                continue;
            }
            // Phase C: a new lane on the fullest waveguide with headroom
            // (counting pending new lanes).
            let mut best_new: Option<(usize, usize, usize)> = None; // (lanes, dwi, new_li)
            for (dwi, dwg) in plan.ring_waveguides.iter().enumerate() {
                if dwi == wi || dwg.direction != dir {
                    continue;
                }
                let pending_new = placements
                    .iter()
                    .filter(|(pw, pl, _, _)| *pw == dwi && *pl >= dwg.lanes.len())
                    .map(|(_, pl, _, _)| pl + 1 - dwg.lanes.len())
                    .max()
                    .unwrap_or(0);
                let effective = dwg.lanes.len() + pending_new;
                if effective < max_wavelengths
                    && best_new.map(|(l, _, _)| effective > l).unwrap_or(true)
                {
                    best_new = Some((effective, dwi, effective));
                }
            }
            if let Some((_, dwi, new_li)) = best_new {
                placements.push((dwi, new_li, *arc, *src_lane));
                continue;
            }
            // Phase D: new lane on a fresh waveguide, else a brand-new
            // fresh waveguide.
            let mut placed = false;
            for (f, lane_count) in fresh_lane_counts.iter_mut().enumerate() {
                if *lane_count < max_wavelengths {
                    placements.push((real_count + f, *lane_count, *arc, *src_lane));
                    *lane_count += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                placements.push((real_count + fresh_lane_counts.len(), 0, *arc, *src_lane));
                fresh_lane_counts.push(1);
            }
        }

        // Commit: remove passers from this waveguide, insert at targets
        // (creating fresh waveguides/lanes on demand), update routes, set
        // the opening.
        for (_, src_lane, arc) in &passers {
            let lane = &mut plan.ring_waveguides[wi].lanes[*src_lane];
            lane.arcs.retain(|a| a.signal != arc.signal);
        }
        for (dwi, dli, arc, _) in placements {
            while plan.ring_waveguides.len() <= dwi {
                let level = plan
                    .ring_waveguides
                    .iter()
                    .filter(|w| w.direction == dir)
                    .count();
                plan.ring_waveguides.push(crate::mapping::RingWaveguide {
                    direction: dir,
                    level,
                    opening: None,
                    lanes: Vec::new(),
                });
            }
            let dwg = &mut plan.ring_waveguides[dwi];
            while dwg.lanes.len() <= dli {
                dwg.lanes.push(Default::default());
            }
            let signal = arc.signal;
            dwg.lanes[dli].arcs.push(arc);
            plan.routes[signal].kind = RouteKind::Ring { waveguide: dwi };
            plan.routes[signal].wavelength = Wavelength::new(dli as u16);
            stats.migrated += 1;
        }
        plan.ring_waveguides[wi].opening = Some(candidate);
        stats.opened += 1;
        wi += 1;
    }

    debug_assert_eq!(plan.validate(), Ok(()));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::map_signals;
    use crate::netspec::NetworkSpec;
    use crate::ring::RingBuilder;
    use crate::shortcut::{plan_shortcuts, ShortcutPlan};

    #[test]
    fn every_waveguide_opened_on_8_nodes() {
        let net = NetworkSpec::proton_8();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let sc = plan_shortcuts(&net, &ring.cycle);
        let mut plan = map_signals(&net, &ring.cycle, &sc, 8, 0).expect("mapped");
        let stats = open_rings(&ring.cycle, &mut plan, 8);
        assert_eq!(stats.unopened, 0, "all waveguides should open");
        assert!(plan.ring_waveguides.iter().all(|w| w.opening.is_some()));
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn openings_not_passed_after_migration() {
        let net = NetworkSpec::psion_16();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let sc = plan_shortcuts(&net, &ring.cycle);
        let mut plan = map_signals(&net, &ring.cycle, &sc, 14, 0).expect("mapped");
        open_rings(&ring.cycle, &mut plan, 14);
        for wg in &plan.ring_waveguides {
            if let Some(open) = wg.opening {
                for lane in &wg.lanes {
                    for arc in &lane.arcs {
                        assert!(!arc.passes(open), "arc still passes opening");
                    }
                }
            }
        }
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn migration_preserves_signal_count() {
        let net = NetworkSpec::psion_16();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let mut plan =
            map_signals(&net, &ring.cycle, &ShortcutPlan::empty(), 16, 0).expect("mapped");
        let before: usize = plan
            .ring_waveguides
            .iter()
            .flat_map(|w| &w.lanes)
            .map(|l| l.arcs.len())
            .sum();
        open_rings(&ring.cycle, &mut plan, 16);
        let after: usize = plan
            .ring_waveguides
            .iter()
            .flat_map(|w| &w.lanes)
            .map(|l| l.arcs.len())
            .sum();
        assert_eq!(before, after);
    }

    #[test]
    fn opening_pass_is_idempotent_on_opened_plan() {
        let net = NetworkSpec::proton_8();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let mut plan =
            map_signals(&net, &ring.cycle, &ShortcutPlan::empty(), 8, 0).expect("mapped");
        open_rings(&ring.cycle, &mut plan, 8);
        let snapshot = plan.clone();
        let stats2 = open_rings(&ring.cycle, &mut plan, 8);
        // Second pass keeps all openings (possibly re-deriving the same
        // candidates) and migrates nothing new.
        assert_eq!(stats2.migrated, 0);
        assert_eq!(plan.ring_waveguides.len(), snapshot.ring_waveguides.len());
    }
}
