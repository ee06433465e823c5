//! Step 3 (first half): signal mapping and wavelength assignment
//! (Sec. III-C).
//!
//! Signals not served by shortcuts are mapped onto ring waveguides in
//! their shorter direction. Following ORing \[17\], each ring waveguide may
//! carry at most `#wl` wavelengths, and one wavelength may be reused by
//! several signals on the same waveguide when their directed arcs do not
//! overlap. When no existing waveguide can take a signal, a new concentric
//! ring waveguide is created.
//!
//! Shortcut-served signals reuse the same wavelength indices (shortcut
//! wires never overlap ring waveguides): plain shortcuts all use λ₀;
//! crossing pairs use λ₀/λ₁ for the direct signals and λ₂/λ₃ for the
//! CSE-routed ones, so no two signals on a shared wire or a crossing ever
//! share a wavelength.
//!
//! Cost for S signals on an N-node ring: a signal finds the shortcut its
//! source joins through a per-node slot, O(1). Ring signals are placed
//! longest first, best fit over the L lanes opened so far. Each lane keeps
//! a bitmap of the ring edges its arcs cover and their count, so testing
//! an arc against a lane is ⌈N/64⌉ word ANDs instead of a comparison
//! with every resident arc: O(S·L·⌈N/64⌉) in all, plus O(N) per signal
//! to list its arc's edges.

use crate::error::SynthesisError;
use crate::netspec::{NetworkSpec, NodeId};
use crate::ring::{Direction, RingCycle};
use crate::shortcut::ShortcutPlan;
use xring_phot::Wavelength;

/// How a signal is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Along ring waveguide `waveguide` (index into
    /// [`MappingPlan::ring_waveguides`]), in that waveguide's direction.
    Ring {
        /// Ring waveguide index.
        waveguide: usize,
    },
    /// Directly along shortcut `shortcut`'s corridor.
    ShortcutDirect {
        /// Shortcut index in the [`ShortcutPlan`].
        shortcut: usize,
    },
    /// Entering shortcut `enter`, CSE-dropping at the crossing, exiting on
    /// shortcut `exit` (Fig. 7(b)).
    ShortcutCse {
        /// Shortcut carrying the first hop.
        enter: usize,
        /// Shortcut carrying the second hop.
        exit: usize,
    },
}

/// One mapped signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalRoute {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Assigned wavelength.
    pub wavelength: Wavelength,
    /// Route taken.
    pub kind: RouteKind,
}

/// One arc resident on a wavelength lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneArc {
    /// Global signal index (`SignalId`).
    pub signal: usize,
    /// Cycle position of the source node.
    pub from_pos: usize,
    /// Cycle position of the destination node.
    pub to_pos: usize,
    /// Covered cycle edges, in travel order.
    pub edges: Vec<usize>,
    /// Cycle positions strictly passed through.
    pub interior: Vec<usize>,
}

/// One wavelength lane on a ring waveguide: arcs sharing a wavelength
/// must be pairwise edge-disjoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lane {
    /// Resident arcs.
    pub arcs: Vec<LaneArc>,
}

impl Lane {
    /// True when `edges`/`interior` fit on this lane under `opening`.
    pub fn accepts(&self, edges: &[usize], interior: &[usize], opening: Option<usize>) -> bool {
        if let Some(open) = opening {
            if interior.contains(&open) {
                return false;
            }
        }
        self.arcs
            .iter()
            .all(|a| a.edges.iter().all(|e| !edges.contains(e)))
    }
}

/// One concentric ring waveguide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingWaveguide {
    /// Travel direction.
    pub direction: Direction,
    /// Concentric offset level (0 = innermost of its direction).
    pub level: usize,
    /// Cycle position of the ring opening, once Step 3's second half has
    /// chosen one.
    pub opening: Option<usize>,
    /// Wavelength lanes; lane `k` carries wavelength `λk`.
    pub lanes: Vec<Lane>,
}

impl RingWaveguide {
    /// Signals currently assigned to this waveguide (global indices).
    pub fn signals(&self) -> impl Iterator<Item = usize> + '_ {
        self.lanes
            .iter()
            .flat_map(|l| l.arcs.iter().map(|a| a.signal))
    }
}

/// The complete signal mapping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MappingPlan {
    /// All signal routes; index `i` is `SignalId(i)`.
    pub routes: Vec<SignalRoute>,
    /// All ring waveguides.
    pub ring_waveguides: Vec<RingWaveguide>,
}

impl MappingPlan {
    /// Highest number of wavelengths on any single waveguide (the
    /// effective `#wl`), also counting shortcut wavelength usage.
    pub fn wavelengths_used(&self) -> usize {
        let ring_max = self
            .ring_waveguides
            .iter()
            .map(|w| w.lanes.len())
            .max()
            .unwrap_or(0);
        let shortcut_max = self
            .routes
            .iter()
            .filter(|r| !matches!(r.kind, RouteKind::Ring { .. }))
            .map(|r| r.wavelength.index() as usize + 1)
            .max()
            .unwrap_or(0);
        ring_max.max(shortcut_max)
    }

    /// Number of ring waveguides per direction `(cw, ccw)`.
    pub fn waveguide_counts(&self) -> (usize, usize) {
        let cw = self
            .ring_waveguides
            .iter()
            .filter(|w| w.direction == Direction::Cw)
            .count();
        (cw, self.ring_waveguides.len() - cw)
    }

    /// Consistency check: every lane is edge-disjoint, every ring route
    /// points at a waveguide that holds its arc, and no arc passes an
    /// opening. Used by the audit, tests and `debug_assert`s.
    pub fn validate(&self) -> Result<(), String> {
        crate::audit::check_wavelength_assignment(self)
    }
}

/// Maps all-to-all traffic given the ring and the shortcut plan.
///
/// # Errors
///
/// [`SynthesisError::WavelengthBudgetExceeded`] when `max_waveguides`
/// (0 = unlimited) and `max_wavelengths` cannot accommodate the traffic.
///
/// # Panics
///
/// Panics if `max_wavelengths == 0`.
pub fn map_signals(
    net: &NetworkSpec,
    cycle: &RingCycle,
    shortcuts: &ShortcutPlan,
    max_wavelengths: usize,
    max_waveguides: usize,
) -> Result<MappingPlan, SynthesisError> {
    map_signals_with_traffic(
        net,
        cycle,
        shortcuts,
        &crate::traffic::Traffic::AllToAll,
        max_wavelengths,
        max_waveguides,
    )
}

/// [`map_signals`] generalized to an arbitrary [`Traffic`] pattern
/// (extension beyond the paper's all-to-all workload).
///
/// # Errors
///
/// As for [`map_signals`].
///
/// # Panics
///
/// Panics if `max_wavelengths == 0`.
///
/// [`Traffic`]: crate::traffic::Traffic
pub fn map_signals_with_traffic(
    net: &NetworkSpec,
    cycle: &RingCycle,
    shortcuts: &ShortcutPlan,
    traffic: &crate::traffic::Traffic,
    max_wavelengths: usize,
    max_waveguides: usize,
) -> Result<MappingPlan, SynthesisError> {
    assert!(max_wavelengths >= 1, "need at least one wavelength");
    let mut plan = MappingPlan::default();

    // Split traffic into shortcut-served and ring-bound.
    let cse_allowed = max_wavelengths >= 4;
    // shortcut_at[node]: the shortcut the node joins (at most one).
    let mut shortcut_at = vec![None; net.len()];
    for (i, s) in shortcuts.shortcuts.iter().enumerate() {
        shortcut_at[s.a.index()] = Some(i);
        shortcut_at[s.b.index()] = Some(i);
    }
    let mut ring_jobs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut shortcut_routes: Vec<SignalRoute> = Vec::new();
    for (from, to) in traffic.pairs(net) {
        let slot = shortcut_at[from.index()];
        match slot.and_then(|i| classify_shortcut_route(shortcuts, i, from, to, cse_allowed)) {
            Some((kind, wl)) => shortcut_routes.push(SignalRoute {
                from,
                to,
                wavelength: wl,
                kind,
            }),
            None => ring_jobs.push((from, to)),
        }
    }

    // Map ring signals, longest arcs first (they are hardest to place).
    let mut jobs: Vec<(NodeId, NodeId, usize, usize, Direction, i64)> = ring_jobs
        .into_iter()
        .map(|(from, to)| {
            let fa = cycle.position_of(from);
            let fb = cycle.position_of(to);
            let cw = cycle.arc_length(fa, fb, Direction::Cw);
            let ccw = cycle.arc_length(fa, fb, Direction::Ccw);
            let dir = if cw <= ccw {
                Direction::Cw
            } else {
                Direction::Ccw
            };
            (from, to, fa, fb, dir, cw.min(ccw))
        })
        .collect();
    jobs.sort_by_key(|&(from, to, _, _, _, len)| (std::cmp::Reverse(len), from, to));

    let mut ring_routes: Vec<SignalRoute> = Vec::with_capacity(jobs.len());
    let mut lanes = LaneIndex::new(cycle.len());
    for (from, to, fa, fb, dir, _) in jobs {
        let signal_idx = ring_routes.len();
        let edges = cycle.arc_edges(fa, fb, dir);
        let interior = cycle.interior_positions(fa, fb, dir);
        let arc = LaneArc {
            signal: signal_idx,
            from_pos: fa,
            to_pos: fb,
            edges,
            interior,
        };
        let Some((wi, wl)) = place_arc(
            &mut plan.ring_waveguides,
            &mut lanes,
            dir,
            arc,
            max_wavelengths,
            max_waveguides,
        ) else {
            return Err(SynthesisError::WavelengthBudgetExceeded {
                max_wavelengths,
                max_waveguides,
            });
        };
        ring_routes.push(SignalRoute {
            from,
            to,
            wavelength: wl,
            kind: RouteKind::Ring { waveguide: wi },
        });
    }

    // Ring routes come first so lane arcs reference global signal ids
    // directly; shortcut routes follow.
    plan.routes = ring_routes;
    plan.routes.extend(shortcut_routes);
    debug_assert_eq!(plan.validate(), Ok(()));
    Ok(plan)
}

/// Shortcut service classification with the paper's wavelength rules,
/// for a signal leaving `from`, an endpoint of shortcut `i`. Both the
/// direct and the CSE rule need `from` on the entering shortcut, and a
/// node joins at most one shortcut, so `i` is the only one to check.
fn classify_shortcut_route(
    shortcuts: &ShortcutPlan,
    i: usize,
    from: NodeId,
    to: NodeId,
    cse_allowed: bool,
) -> Option<(RouteKind, Wavelength)> {
    let s = &shortcuts.shortcuts[i];
    if (s.a == from && s.b == to) || (s.b == from && s.a == to) {
        let wl = match s.crossing_partner {
            None => Wavelength::new(0),
            Some(p) => {
                if i < p {
                    Wavelength::new(0)
                } else {
                    Wavelength::new(1)
                }
            }
        };
        return Some((RouteKind::ShortcutDirect { shortcut: i }, wl));
    }
    if !cse_allowed {
        return None;
    }
    let p = s.crossing_partner?;
    let t = &shortcuts.shortcuts[p];
    // The CSE serves exactly the swapped pairs of Fig. 7(b): the forward
    // wires couple `s.a → t.b`, the reverse wires couple `s.b → t.a` (the
    // opposite orientations leave from the partner's endpoints).
    let serves = (s.a == from && t.b == to) || (s.b == from && t.a == to);
    if !serves {
        return None;
    }
    // λ2 for the pair containing the lower shortcut's `a` endpoint, λ3 for
    // the pair containing its `b` endpoint.
    let lower_a_pair = if i < p { s.a == from } else { t.a == to };
    let wl = if lower_a_pair {
        Wavelength::new(2)
    } else {
        Wavelength::new(3)
    };
    Some((RouteKind::ShortcutCse { enter: i, exit: p }, wl))
}

/// Edge occupancy of the lanes one mapping opens, so that [`place_arc`]
/// tests a lane with a few word ANDs instead of comparing its arcs edge by
/// edge.
struct LaneIndex {
    /// Bitmap words per lane, one bit per cycle edge.
    words: usize,
    /// One entry of `HEADER + words` values per lane, in the order
    /// opened: its waveguide, its lane on that waveguide, the number of
    /// edges its arcs cover, then its edge bitmap.
    entries: Vec<u64>,
    /// Edge bitmap of the arc being placed.
    mask: Vec<u64>,
}

impl LaneIndex {
    const HEADER: usize = 3;

    fn new(edges: usize) -> Self {
        let words = edges.div_ceil(64);
        LaneIndex {
            words,
            entries: Vec::new(),
            mask: vec![0; words],
        }
    }

    /// Makes `edges` the arc being placed.
    fn load(&mut self, edges: &[usize]) {
        self.mask.fill(0);
        for &e in edges {
            self.mask[e / 64] |= 1 << (e % 64);
        }
    }

    /// `(waveguide, lane)`, covered edges, and whether the loaded arc fits,
    /// for every indexed lane in the order opened.
    fn fits(&self) -> impl Iterator<Item = ((usize, usize), u64, bool)> + '_ {
        self.entries
            .chunks_exact(Self::HEADER + self.words)
            .map(|entry| {
                let bits = &entry[Self::HEADER..];
                let free = bits.iter().zip(&self.mask).all(|(b, m)| b & m == 0);
                ((entry[0] as usize, entry[1] as usize), entry[2], free)
            })
    }

    /// Adds the loaded arc, of `len` edges, to the lane opened `slot`-th.
    fn fill(&mut self, slot: usize, len: usize) {
        let stride = Self::HEADER + self.words;
        let entry = &mut self.entries[slot * stride..(slot + 1) * stride];
        entry[2] += len as u64;
        for (b, m) in entry[Self::HEADER..].iter_mut().zip(&self.mask) {
            *b |= m;
        }
    }

    /// Indexes the new lane `li` of waveguide `wi`, holding the loaded
    /// arc of `len` edges.
    fn open(&mut self, wi: usize, li: usize, len: usize) {
        self.entries.extend([wi as u64, li as u64, len as u64]);
        self.entries.extend_from_slice(&self.mask);
    }
}

/// Places an arc on the best-fitting (waveguide, lane); creates lanes and
/// waveguides as the budget allows. Every lane of `waveguides` must be in
/// `index`, and no waveguide has an opening yet (Step 3b chooses them
/// later), so a lane fits exactly when the arc's edges are free on it.
/// Returns `(waveguide index, wavelength)`.
fn place_arc(
    waveguides: &mut Vec<RingWaveguide>,
    index: &mut LaneIndex,
    dir: Direction,
    arc: LaneArc,
    max_wavelengths: usize,
    max_waveguides: usize,
) -> Option<(usize, Wavelength)> {
    // Best fit: among accepting lanes, pick the one whose residents
    // already cover the most edges — packing arcs densely so fewer
    // waveguides are needed (fewer waveguides = shorter outer rings and
    // smaller PDN trees, which is what the paper's #wl sweep optimizes).
    // Ties go to the first lane in (waveguide, lane) order.
    index.load(&arc.edges);
    let mut best: Option<(u64, (usize, usize), usize)> = None; // (covered, (wi, li), slot)
    for (slot, ((wi, li), covered, free)) in index.fits().enumerate() {
        let wg = &waveguides[wi];
        if wg.direction != dir {
            continue;
        }
        let fits = free;
        debug_assert_eq!(
            fits,
            wg.lanes[li].accepts(&arc.edges, &arc.interior, wg.opening)
        );
        let better = best.is_none_or(|(c, at, _)| covered > c || (covered == c && (wi, li) < at));
        if fits && better {
            best = Some((covered, (wi, li), slot));
        }
    }
    if let Some((_, (wi, li), slot)) = best {
        index.fill(slot, arc.edges.len());
        waveguides[wi].lanes[li].arcs.push(arc);
        return Some((wi, Wavelength::new(li as u16)));
    }
    // Otherwise a new lane on the fullest waveguide with headroom.
    let fullest = waveguides
        .iter()
        .enumerate()
        .filter(|(_, w)| w.direction == dir && w.lanes.len() < max_wavelengths)
        .max_by_key(|(wi, w)| (w.lanes.len(), usize::MAX - wi))
        .map(|(wi, _)| wi);
    if let Some(wi) = fullest {
        let li = waveguides[wi].lanes.len();
        index.open(wi, li, arc.edges.len());
        waveguides[wi].lanes.push(Lane { arcs: vec![arc] });
        return Some((wi, Wavelength::new(li as u16)));
    }
    if max_waveguides == 0 || waveguides.len() < max_waveguides {
        let level = waveguides.iter().filter(|w| w.direction == dir).count();
        index.open(waveguides.len(), 0, arc.edges.len());
        waveguides.push(RingWaveguide {
            direction: dir,
            level,
            opening: None,
            lanes: vec![Lane { arcs: vec![arc] }],
        });
        return Some((waveguides.len() - 1, Wavelength::new(0)));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingBuilder;
    use crate::shortcut::{plan_shortcuts, ShortcutPlan};

    fn setup(n8: bool) -> (NetworkSpec, RingCycle, ShortcutPlan) {
        let net = if n8 {
            NetworkSpec::proton_8()
        } else {
            NetworkSpec::psion_16()
        };
        let ring = RingBuilder::new().build(&net).expect("ring");
        let sc = plan_shortcuts(&net, &ring.cycle);
        (net, ring.cycle, sc)
    }

    #[test]
    fn all_signals_mapped_and_valid() {
        let (net, cycle, sc) = setup(true);
        let plan = map_signals(&net, &cycle, &sc, 8, 0).expect("mapped");
        assert_eq!(plan.routes.len(), net.signal_count());
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn wavelength_cap_respected() {
        let (net, cycle, sc) = setup(true);
        for cap in [2, 4, 8] {
            let plan = map_signals(&net, &cycle, &sc, cap, 0).expect("mapped");
            for wg in &plan.ring_waveguides {
                assert!(wg.lanes.len() <= cap);
            }
            assert!(plan.wavelengths_used() <= cap.max(4));
        }
    }

    #[test]
    fn tight_waveguide_budget_errors() {
        let (net, cycle, sc) = setup(true);
        let err = map_signals(&net, &cycle, &sc, 1, 1);
        assert!(matches!(
            err,
            Err(SynthesisError::WavelengthBudgetExceeded { .. })
        ));
    }

    #[test]
    fn smaller_cap_needs_more_waveguides() {
        let (net, cycle, sc) = setup(false);
        let small = map_signals(&net, &cycle, &sc, 4, 0).expect("mapped");
        let large = map_signals(&net, &cycle, &sc, 16, 0).expect("mapped");
        assert!(small.ring_waveguides.len() >= large.ring_waveguides.len());
    }

    #[test]
    fn ring_routes_take_shorter_direction() {
        let (net, cycle, sc) = setup(true);
        let plan = map_signals(&net, &cycle, &ShortcutPlan::empty(), 8, 0).expect("mapped");
        let _ = sc;
        for r in &plan.routes {
            if let RouteKind::Ring { waveguide } = r.kind {
                let dir = plan.ring_waveguides[waveguide].direction;
                let fa = cycle.position_of(r.from);
                let fb = cycle.position_of(r.to);
                let len = cycle.arc_length(fa, fb, dir);
                let other = cycle.arc_length(fa, fb, dir.reversed());
                assert!(len <= other, "signal took the longer way around");
            }
        }
    }

    #[test]
    fn shortcut_wavelength_rules() {
        let (net, cycle, sc) = setup(false);
        let plan = map_signals(&net, &cycle, &sc, 16, 0).expect("mapped");
        for r in &plan.routes {
            match r.kind {
                RouteKind::ShortcutDirect { shortcut } => {
                    let s = &sc.shortcuts[shortcut];
                    if s.crossing_partner.is_none() {
                        assert_eq!(r.wavelength, Wavelength::new(0));
                    } else {
                        assert!(r.wavelength.index() <= 1);
                    }
                }
                RouteKind::ShortcutCse { .. } => {
                    assert!(r.wavelength.index() >= 2 && r.wavelength.index() <= 3);
                }
                RouteKind::Ring { .. } => {}
            }
        }
    }

    #[test]
    fn lane_reuse_happens() {
        // With a generous cap there should still be some wavelength reuse
        // (more arcs than lanes on at least one waveguide).
        let (_, cycle, _) = setup(false);
        let net = NetworkSpec::psion_16();
        let plan = map_signals(&net, &cycle, &ShortcutPlan::empty(), 16, 0).expect("mapped");
        let reused = plan
            .ring_waveguides
            .iter()
            .flat_map(|w| &w.lanes)
            .any(|l| l.arcs.len() > 1);
        assert!(reused, "expected some wavelength reuse");
    }
}
