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
//! source joins through a per-node slot, O(1). A ring signal's arc is its
//! cyclic interval of ring edges ([`LaneArc`]): O(1) to build, measure
//! and test for overlap. Arcs are placed longest first, best fit over the
//! lanes of their direction. Every ring edge keeps a bitmask of the lanes
//! covering it, the lanes an arc fits are the complement of the OR over
//! its k edges, and the lanes are kept in best-fit order, so a placement
//! walks that order only to the first lane that fits: O(k·⌈L/64⌉ + L)
//! per arc for L lanes, the O(L) only to move the lane filled up the
//! order.

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

/// One arc resident on a wavelength lane: the cyclic interval of ring
/// edges a signal covers from cycle position `from_pos` to `to_pos` in
/// `direction`. Edge `i` connects positions `i` and `i+1 (mod n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneArc {
    /// Global signal index (`SignalId`).
    pub signal: usize,
    /// Cycle position of the source node.
    pub from_pos: usize,
    /// Cycle position of the destination node.
    pub to_pos: usize,
    /// Travel direction.
    pub direction: Direction,
    /// Number of nodes (and edges) on the ring.
    pub ring_len: usize,
}

impl LaneArc {
    /// The arc of `signal` from `from_pos` to `to_pos` in `direction` on
    /// a ring of `ring_len` nodes. Panics on a degenerate or off-ring arc.
    pub fn new(
        signal: usize,
        from_pos: usize,
        to_pos: usize,
        direction: Direction,
        ring_len: usize,
    ) -> Self {
        assert!(
            from_pos != to_pos && from_pos.max(to_pos) < ring_len,
            "degenerate arc"
        );
        LaneArc {
            signal,
            from_pos,
            to_pos,
            direction,
            ring_len,
        }
    }

    /// The arc as a cycle-order interval: it covers edges `start..end`
    /// (mod n), `start` first.
    fn bounds(&self) -> (usize, usize) {
        match self.direction {
            Direction::Cw => (self.from_pos, self.to_pos),
            Direction::Ccw => (self.to_pos, self.from_pos),
        }
    }

    /// Number of covered edges, in O(1).
    pub fn len(&self) -> usize {
        let (start, end) = self.bounds();
        (end + self.ring_len - start) % self.ring_len
    }

    /// Always false: an arc covers at least one edge.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when the arc covers cycle edge `edge`, in O(1).
    pub fn covers(&self, edge: usize) -> bool {
        let (start, end) = self.bounds();
        (start <= edge && edge < end) || (start > end && (edge >= start || edge < end))
    }

    /// True when the arc passes cycle position `pos`, strictly between
    /// its endpoints: every covered edge's start but the first.
    pub fn passes(&self, pos: usize) -> bool {
        pos != self.bounds().0 && self.covers(pos)
    }

    /// True when the two arcs share an edge, in O(1): two cyclic
    /// intervals meet exactly when one holds the other's first edge.
    pub fn overlaps(&self, other: &LaneArc) -> bool {
        self.covers(other.bounds().0) || other.covers(self.bounds().0)
    }

    /// The covered edges in cycle order, first covered edge first: travel
    /// order for `Cw`, its reverse for `Ccw`.
    pub fn edges(&self) -> impl Iterator<Item = usize> {
        let (start, end) = self.bounds();
        let wraps = start > end;
        (start..if wraps { self.ring_len } else { end }).chain(0..if wraps { end } else { 0 })
    }
}

/// One wavelength lane on a ring waveguide: arcs sharing a wavelength
/// must be pairwise edge-disjoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lane {
    /// Resident arcs.
    pub arcs: Vec<LaneArc>,
}

impl Lane {
    /// True when `arc` fits on this lane under `opening`: it does not
    /// pass the opening and shares no edge with a resident arc.
    pub fn accepts(&self, arc: &LaneArc, opening: Option<usize>) -> bool {
        !opening.is_some_and(|open| arc.passes(open)) && !self.arcs.iter().any(|a| a.overlaps(arc))
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
    let mut lanes: [LaneIndex; 2] = Default::default();
    for (from, to, fa, fb, dir, _) in jobs {
        let arc = LaneArc::new(ring_routes.len(), fa, fb, dir, cycle.len());
        let Some((wi, wl)) = place_arc(
            &mut plan.ring_waveguides,
            &mut lanes,
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

/// The lanes one mapping opens in one direction, for best fit: which
/// lanes cover each ring edge, and the lanes in best-fit order.
#[derive(Default)]
struct LaneIndex {
    /// `occupied[w][e]`: bit `k` set when the `(64w + k)`-th lane opened
    /// covers edge `e`.
    occupied: Vec<Vec<u64>>,
    /// Per lane, in the order opened: its `(waveguide, lane)` and the
    /// number of edges its arcs cover.
    lanes: Vec<((usize, usize), usize)>,
    /// Lanes by opening order, best fit first: most covered edges, then
    /// the first `(waveguide, lane)`.
    rank: Vec<usize>,
    /// Lanes the arc being placed overlaps, one bit per lane.
    blocked: Vec<u64>,
}

impl LaneIndex {
    /// Makes `arc` the arc being placed: ORs the lane bits of its edges.
    fn load(&mut self, arc: &LaneArc) {
        self.blocked.clear();
        self.blocked.extend(
            self.occupied
                .iter()
                .map(|w| arc.edges().fold(0, |acc, e| acc | w[e])),
        );
    }

    /// True when the loaded arc fits on the lane opened `slot`-th.
    fn fits(&self, slot: usize) -> bool {
        self.blocked[slot / 64] & (1 << (slot % 64)) == 0
    }

    /// Best-fit order key of the lane opened `slot`-th.
    fn key(&self, slot: usize) -> (std::cmp::Reverse<usize>, (usize, usize)) {
        let (lane, covered) = self.lanes[slot];
        (std::cmp::Reverse(covered), lane)
    }

    /// Adds `arc` to the lane at best-fit rank `at` and moves the lane up
    /// the order; returns its `(waveguide, lane)`.
    fn fill(&mut self, mut at: usize, arc: &LaneArc) -> (usize, usize) {
        let slot = self.rank[at];
        for e in arc.edges() {
            self.occupied[slot / 64][e] |= 1 << (slot % 64);
        }
        self.lanes[slot].1 += arc.len();
        while at > 0 && self.key(self.rank[at - 1]) > self.key(slot) {
            self.rank.swap(at - 1, at);
            at -= 1;
        }
        self.lanes[slot].0
    }

    /// Indexes the new lane `li` of waveguide `wi`, holding `arc`.
    fn open(&mut self, wi: usize, li: usize, arc: &LaneArc) {
        if self.lanes.len().is_multiple_of(64) {
            self.occupied.push(vec![0; arc.ring_len]);
        }
        self.rank.push(self.lanes.len());
        self.lanes.push(((wi, li), 0));
        self.fill(self.rank.len() - 1, arc);
    }
}

/// Places an arc on the best-fitting (waveguide, lane) of its direction;
/// creates lanes and waveguides as the budget allows. Every lane of
/// `waveguides` must be in `index` (one per direction), and no waveguide
/// has an opening yet (Step 3b chooses them later), so a lane fits
/// exactly when the arc's edges are free on it. Returns `(waveguide
/// index, wavelength)`.
fn place_arc(
    waveguides: &mut Vec<RingWaveguide>,
    index: &mut [LaneIndex; 2],
    arc: LaneArc,
    max_wavelengths: usize,
    max_waveguides: usize,
) -> Option<(usize, Wavelength)> {
    let dir = arc.direction;
    let index = &mut index[usize::from(dir == Direction::Ccw)];
    // Best fit: among accepting lanes, pick the one whose residents
    // already cover the most edges — packing arcs densely so fewer
    // waveguides are needed (fewer waveguides = shorter outer rings and
    // smaller PDN trees, which is what the paper's #wl sweep optimizes).
    // Ties go to the first lane in (waveguide, lane) order.
    index.load(&arc);
    debug_assert!(index
        .lanes
        .iter()
        .enumerate()
        .all(|(slot, &((wi, li), _))| {
            let wg = &waveguides[wi];
            wg.direction == dir && index.fits(slot) == wg.lanes[li].accepts(&arc, wg.opening)
        }));
    if let Some(at) = index.rank.iter().position(|&slot| index.fits(slot)) {
        let (wi, li) = index.fill(at, &arc);
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
        index.open(wi, li, &arc);
        waveguides[wi].lanes.push(Lane { arcs: vec![arc] });
        return Some((wi, Wavelength::new(li as u16)));
    }
    if max_waveguides == 0 || waveguides.len() < max_waveguides {
        let level = waveguides.iter().filter(|w| w.direction == dir).count();
        index.open(waveguides.len(), 0, &arc);
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

    /// Heuristic rings over the oracle floorplans.
    fn oracle_rings() -> Vec<(String, NetworkSpec, RingCycle)> {
        (crate::netspec::oracle_floorplans().into_iter())
            .map(|(name, net)| {
                let ring = RingBuilder::new()
                    .with_algorithm(crate::ring::RingAlgorithm::Heuristic)
                    .build(&net)
                    .expect("ring");
                (name, net, ring.cycle)
            })
            .collect()
    }

    #[test]
    fn interval_arcs_match_the_edge_and_position_lists() {
        let mut rng = crate::variation::SplitMix64::new(11);
        let (mut overlapping, mut disjoint) = (0, 0);
        for (name, _, cycle) in oracle_rings() {
            let n = cycle.len();
            let mut arcs = Vec::new();
            for (from, to) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                for dir in [Direction::Cw, Direction::Ccw] {
                    if from == to {
                        continue;
                    }
                    let arc = LaneArc::new(arcs.len(), from, to, dir, n);
                    let edges = cycle.arc_edges(from, to, dir);
                    let interior = cycle.interior_positions(from, to, dir);
                    let what = format!("{name}: {from} -> {to} {dir:?}");
                    let mut travel: Vec<usize> = arc.edges().collect();
                    if dir == Direction::Ccw {
                        travel.reverse();
                    }
                    assert_eq!(travel, edges, "{what}");
                    assert_eq!(arc.len(), edges.len(), "{what}");
                    // Listed implies covered or passed, and the other way.
                    let (mut listed, mut inside) = (vec![false; n], vec![false; n]);
                    edges.iter().for_each(|&e| listed[e] = true);
                    interior.iter().for_each(|&p| inside[p] = true);
                    for k in 0..n {
                        assert_eq!(arc.covers(k), listed[k], "{what}, edge {k}");
                        assert_eq!(arc.passes(k), inside[k], "{what}, position {k}");
                    }
                    arcs.push((arc, listed));
                }
            }
            // Random arc pairs: overlap iff the edge lists meet, and a lane
            // accepts an arc iff it overlaps no resident and passes no opening.
            for _ in 0..2_000 {
                let mut pick = || &arcs[(rng.next_u64() % arcs.len() as u64) as usize];
                let ((a, a_listed), (b, b_listed)) = (pick(), pick());
                let meet = (0..n).any(|e| a_listed[e] && b_listed[e]);
                assert_eq!(a.overlaps(b), meet, "{name}: {a:?} vs {b:?}");
                assert_eq!(b.overlaps(a), meet, "{name}: {b:?} vs {a:?}");
                let lane = Lane { arcs: vec![*a] };
                let open = (rng.next_u64() % n as u64) as usize;
                let inside = cycle.interior_positions(b.from_pos, b.to_pos, b.direction);
                assert_eq!(lane.accepts(b, None), !meet, "{name}");
                assert_eq!(
                    lane.accepts(b, Some(open)),
                    !meet && !inside.contains(&open),
                    "{name}: opening {open}"
                );
                overlapping += usize::from(meet);
                disjoint += usize::from(!meet);
            }
        }
        assert!(
            overlapping > 10_000 && disjoint > 10_000,
            "{overlapping} overlapping, {disjoint} disjoint pairs"
        );
    }

    /// The lane index that the per-edge lane bitmaps replaced: one edge
    /// bitmap per lane, and every lane of every direction tested for each
    /// arc, in the order opened.
    struct ScanIndex {
        words: usize,
        /// Per lane: waveguide, lane, covered edges, then the bitmap.
        entries: Vec<u64>,
        mask: Vec<u64>,
    }

    impl ScanIndex {
        const HEADER: usize = 3;

        fn load(&mut self, arc: &LaneArc) {
            self.mask.fill(0);
            for e in arc.edges() {
                self.mask[e / 64] |= 1 << (e % 64);
            }
        }

        fn open(&mut self, wi: usize, li: usize, len: usize) {
            self.entries.extend([wi as u64, li as u64, len as u64]);
            self.entries.extend_from_slice(&self.mask);
        }
    }

    /// The best-fit placement of the scan index, with its tie-break: most
    /// covered edges, then the first `(waveguide, lane)`.
    fn scan_place(
        waveguides: &mut Vec<RingWaveguide>,
        index: &mut ScanIndex,
        arc: LaneArc,
        max_wavelengths: usize,
    ) -> (usize, usize) {
        let dir = arc.direction;
        index.load(&arc);
        let stride = ScanIndex::HEADER + index.words;
        let mut best: Option<(u64, (usize, usize), usize)> = None;
        for (slot, entry) in index.entries.chunks_exact(stride).enumerate() {
            let (wi, li, covered) = (entry[0] as usize, entry[1] as usize, entry[2]);
            let free =
                (entry[ScanIndex::HEADER..].iter().zip(&index.mask)).all(|(b, m)| b & m == 0);
            let better =
                best.is_none_or(|(c, at, _)| covered > c || (covered == c && (wi, li) < at));
            if waveguides[wi].direction == dir && free && better {
                best = Some((covered, (wi, li), slot));
            }
        }
        if let Some((_, (wi, li), slot)) = best {
            let entry = &mut index.entries[slot * stride..(slot + 1) * stride];
            entry[2] += arc.len() as u64;
            for (b, m) in entry[ScanIndex::HEADER..].iter_mut().zip(&index.mask) {
                *b |= m;
            }
            waveguides[wi].lanes[li].arcs.push(arc);
            return (wi, li);
        }
        let fullest = (waveguides.iter().enumerate())
            .filter(|(_, w)| w.direction == dir && w.lanes.len() < max_wavelengths)
            .max_by_key(|(wi, w)| (w.lanes.len(), usize::MAX - wi))
            .map(|(wi, _)| wi);
        let (wi, li) = match fullest {
            Some(wi) => {
                waveguides[wi].lanes.push(Lane::default());
                (wi, waveguides[wi].lanes.len() - 1)
            }
            None => {
                let level = waveguides.iter().filter(|w| w.direction == dir).count();
                waveguides.push(RingWaveguide {
                    direction: dir,
                    level,
                    opening: None,
                    lanes: vec![Lane::default()],
                });
                (waveguides.len() - 1, 0)
            }
        };
        index.open(wi, li, arc.len());
        waveguides[wi].lanes[li].arcs.push(arc);
        (wi, li)
    }

    #[test]
    fn placement_matches_the_lane_scan_reference() {
        use crate::traffic::Traffic;
        let mut merged_lanes = 0;
        for (name, net, cycle) in oracle_rings() {
            let sc = plan_shortcuts(&net, &cycle);
            let mut traffics = vec![Traffic::NearestNeighbors(3)];
            if net.len() <= 16 {
                traffics.push(Traffic::AllToAll);
            }
            for traffic in &traffics {
                for wl in [1, 2, 4, 8, 16] {
                    let plan = map_signals_with_traffic(&net, &cycle, &sc, traffic, wl, 0)
                        .expect("mapped");
                    // Replay the same arcs, in placement order (ring
                    // signals are numbered as they are placed).
                    let mut arcs: Vec<LaneArc> = (plan.ring_waveguides.iter())
                        .flat_map(|w| w.lanes.iter().flat_map(|l| l.arcs.iter().copied()))
                        .collect();
                    arcs.sort_by_key(|a| a.signal);
                    let mut index = ScanIndex {
                        words: cycle.len().div_ceil(64),
                        entries: Vec::new(),
                        mask: vec![0; cycle.len().div_ceil(64)],
                    };
                    let mut waveguides = Vec::new();
                    for arc in arcs {
                        let (wi, li) = scan_place(&mut waveguides, &mut index, arc, wl);
                        let route = plan.routes[arc.signal];
                        let what = format!("{name}, {traffic:?}, #wl {wl}, signal {}", arc.signal);
                        assert_eq!(route.kind, RouteKind::Ring { waveguide: wi }, "{what}");
                        assert_eq!(route.wavelength, Wavelength::new(li as u16), "{what}");
                    }
                    assert_eq!(
                        plan.ring_waveguides, waveguides,
                        "{name}, {traffic:?}, #wl {wl}"
                    );
                    merged_lanes += (waveguides.iter())
                        .flat_map(|w| &w.lanes)
                        .filter(|l| l.arcs.len() > 1)
                        .count();
                }
            }
        }
        assert!(merged_lanes > 1_000, "only {merged_lanes} lanes reused");
    }
}
