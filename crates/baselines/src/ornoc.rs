//! ORNoC (Le Beux et al., DATE 2011): wavelength assignment on ring
//! waveguides with serpentine reuse.
//!
//! Per the paper's Sec. IV-B, ORNoC "has not proposed the method to
//! construct ring waveguides and design PDNs", so — exactly like the
//! paper — we build its rings with XRing's Step-1 construction, run
//! ORNoC's own first-fit wavelength assignment (signals visited in source
//! order around the ring, reusing a wavelength whenever the directed arcs
//! do not overlap), and attach ORing's crossing PDN.

use crate::ring_common::{realize_ring_baseline, BaselineDesign};
use std::time::Instant;
use xring_core::mapping::{Lane, LaneArc, MappingPlan, RingWaveguide, RouteKind, SignalRoute};
use xring_core::{Direction, NetworkSpec, RingBuilder, RingCycle, RingSpacing, SynthesisError};
use xring_phot::{CrosstalkParams, LossParams, Wavelength};

/// Synthesizes the ORNoC baseline.
///
/// # Errors
///
/// Propagates ring-construction failures.
pub fn synthesize_ornoc(
    net: &NetworkSpec,
    max_wavelengths: usize,
    with_pdn: bool,
    loss: &LossParams,
    xtalk: &CrosstalkParams,
) -> Result<BaselineDesign, SynthesisError> {
    let t0 = Instant::now();
    let ring = RingBuilder::new().build(net)?;
    let plan = ornoc_map(net, &ring.cycle, max_wavelengths);
    let layout = realize_ring_baseline(
        net,
        &ring.cycle,
        &plan,
        loss,
        xtalk,
        with_pdn,
        RingSpacing::default(),
    );
    let audit = xring_core::audit_structure(
        net,
        &ring.cycle,
        &plan,
        &layout,
        &xring_core::Traffic::AllToAll.pairs(net),
    );
    if !audit.is_clean() {
        return Err(SynthesisError::AuditFailed {
            summary: audit.summary(),
        });
    }
    Ok(BaselineDesign {
        cycle: ring.cycle,
        plan,
        layout,
        elapsed: t0.elapsed(),
        audit,
    })
}

/// ORNoC's assignment: walk sources in ring order; for each signal,
/// **maximize channel reuse**: try to fit the shorter-direction arc into
/// any existing lane, then the longer-direction arc into any existing
/// lane (ORNoC happily routes the long way around to reuse a wavelength —
/// this is why its worst-case path lengths in the paper approach the full
/// ring perimeter), and only then open a new lane / waveguide.
pub fn ornoc_map(_net: &NetworkSpec, cycle: &RingCycle, max_wavelengths: usize) -> MappingPlan {
    assert!(max_wavelengths >= 1);
    let mut plan = MappingPlan::default();
    // Source-major order following the ring.
    let mut jobs = Vec::new();
    for &from in cycle.order() {
        for &to in cycle.order() {
            if from != to {
                jobs.push((from, to));
            }
        }
    }
    for (from, to) in jobs {
        let fa = cycle.position_of(from);
        let fb = cycle.position_of(to);
        let cw = cycle.arc_length(fa, fb, Direction::Cw);
        let ccw = cycle.arc_length(fa, fb, Direction::Ccw);
        let short_dir = if cw <= ccw {
            Direction::Cw
        } else {
            Direction::Ccw
        };
        let mk_arc = |dir: Direction, signal: usize| LaneArc::new(signal, fa, fb, dir, cycle.len());
        let signal = plan.routes.len();

        // Reuse pass: shorter direction first, then the long way around.
        let mut placed: Option<(usize, usize)> = None;
        'reuse: for dir in [short_dir, short_dir.reversed()] {
            let arc = mk_arc(dir, signal);
            for (wi, wg) in plan.ring_waveguides.iter_mut().enumerate() {
                if wg.direction != dir {
                    continue;
                }
                for (li, lane) in wg.lanes.iter_mut().enumerate() {
                    if lane.accepts(&arc, None) {
                        lane.arcs.push(arc);
                        placed = Some((wi, li));
                        break 'reuse;
                    }
                }
            }
        }
        // Capacity pass: a new lane on an existing shorter-direction
        // waveguide, else a new waveguide.
        let (wi, li) = placed.unwrap_or_else(|| {
            let arc = mk_arc(short_dir, signal);
            if let Some((wi, _)) = plan
                .ring_waveguides
                .iter()
                .enumerate()
                .find(|(_, w)| w.direction == short_dir && w.lanes.len() < max_wavelengths)
            {
                let li = plan.ring_waveguides[wi].lanes.len();
                plan.ring_waveguides[wi]
                    .lanes
                    .push(Lane { arcs: vec![arc] });
                (wi, li)
            } else {
                let level = plan
                    .ring_waveguides
                    .iter()
                    .filter(|w| w.direction == short_dir)
                    .count();
                plan.ring_waveguides.push(RingWaveguide {
                    direction: short_dir,
                    level,
                    opening: None,
                    lanes: vec![Lane { arcs: vec![arc] }],
                });
                (plan.ring_waveguides.len() - 1, 0)
            }
        });
        plan.routes.push(SignalRoute {
            from,
            to,
            wavelength: Wavelength::new(li as u16),
            kind: RouteKind::Ring { waveguide: wi },
        });
    }
    debug_assert_eq!(plan.validate(), Ok(()));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use xring_phot::PowerParams;

    #[test]
    fn ornoc_maps_everything() {
        let net = NetworkSpec::proton_8();
        let d = synthesize_ornoc(
            &net,
            8,
            false,
            &LossParams::default(),
            &CrosstalkParams::default(),
        )
        .expect("built");
        assert_eq!(d.layout.signals.len(), 56);
        assert_eq!(d.plan.validate(), Ok(()));
    }

    #[test]
    fn ornoc_with_pdn_suffers_noise_and_crossings() {
        let net = NetworkSpec::psion_16();
        let d = synthesize_ornoc(
            &net,
            16,
            true,
            &LossParams::oring(),
            &CrosstalkParams::nikdast(),
        )
        .expect("built");
        let r = d.report(
            "ORNoC/16",
            &LossParams::oring(),
            Some(&CrosstalkParams::nikdast()),
            &PowerParams::default(),
        );
        assert!(r.noisy_signal_count.expect("evaluated") > 0);
        assert!(r.worst_path_crossings > 0);
        assert!(r.total_power_w.expect("pdn") > 0.0);
    }

    #[test]
    fn fewer_wavelengths_need_more_waveguides() {
        let net = NetworkSpec::proton_8();
        let ring = RingBuilder::new().build(&net).expect("ring");
        let few = ornoc_map(&net, &ring.cycle, 2);
        let many = ornoc_map(&net, &ring.cycle, 8);
        assert!(few.ring_waveguides.len() >= many.ring_waveguides.len());
    }
}
