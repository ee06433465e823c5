//! Step 2: shortcut construction (Sec. III-B).
//!
//! Nodes that are physically close but far apart along the ring get
//! dedicated point-to-point waveguides ("shortcuts"). A shortcut between
//! nodes `a` and `b` consists of two wires (a's sender → b's receiver and
//! b's sender → a's receiver) and is *feasible* when it can be realized as
//! an L-route that does not touch any ring waveguide. Each node may join
//! at most one shortcut; a shortcut may cross at most one other shortcut,
//! in which case the crossing is implemented as a CSE that additionally
//! serves the "swapped" node pairs (Fig. 7).
//!
//! Cost for an N-node ring: candidate collection visits all N(N−1)/2
//! node pairs in O(1) each. Each leg of an L-route is an axis-aligned
//! segment from one of the pair's own nodes to the corner, so a leg
//! properly crosses the ring exactly when it runs past that node's
//! nearest ring crossing in its direction. Those four nearest crossings
//! per node ([`Reach`]) are read once per request from a crossing index
//! of the ring polyline, built in O(N log N); a pair's route option is
//! then two comparisons. Each pair's ring distance is O(1) from the
//! ring's edge-length prefix sum ([`RingCycle::arc_length`]). Greedy
//! selection is O(C log C + C·S) for C candidates and S selected
//! shortcuts; a per-node flag skips pairs with a used endpoint in O(1).

use crate::netspec::{NetworkSpec, NodeId};
use crate::ring::{Direction, RingCycle};
use xring_geom::{LRoute, Point, Reach, RouteOption};

/// A selected shortcut between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Shortcut {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Realized corridor geometry (both wires run parallel along it).
    pub route: LRoute,
    /// Corridor length in µm (= Manhattan distance).
    pub length_um: i64,
    /// The gain `g(a, b)` of the paper: ring path saved, in µm.
    pub gain_um: i64,
    /// Index of the crossing partner in the plan, when this shortcut is
    /// CSE-merged with another.
    pub crossing_partner: Option<usize>,
    /// Distance along this corridor (from `a`) to the crossing point with
    /// the partner, when any.
    pub crossing_at_um: Option<i64>,
}

/// The result of shortcut planning.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShortcutPlan {
    /// Selected shortcuts.
    pub shortcuts: Vec<Shortcut>,
}

impl ShortcutPlan {
    /// No shortcuts (Step 2 disabled).
    pub fn empty() -> Self {
        Self::default()
    }

    /// All node pairs served *directly* by shortcuts, plus the CSE-merged
    /// swapped pairs, as unordered pairs.
    pub fn served_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::new();
        for (i, s) in self.shortcuts.iter().enumerate() {
            pairs.push((s.a, s.b));
            if let Some(p) = s.crossing_partner {
                if p > i {
                    let t = &self.shortcuts[p];
                    // CSE serves the swapped combinations (Fig. 7(b)).
                    pairs.push((s.a, t.b));
                    pairs.push((t.a, s.b));
                }
            }
        }
        pairs
    }
}

/// Plans shortcuts for a realized ring.
///
/// Follows the paper: collect feasible options, compute gains, sort by
/// gain, select greedily subject to (a) one shortcut per node, (b) at most
/// one crossing partner per shortcut, (c) non-negative gain.
pub fn plan_shortcuts(net: &NetworkSpec, cycle: &RingCycle) -> ShortcutPlan {
    let gain_span = xring_obs::span("shortcut-gain");
    let candidates = candidates(net, cycle);
    xring_obs::counter("shortcut.candidates", candidates.len() as u64);
    drop(gain_span);
    select(candidates, net.len())
}

/// A feasible shortcut with positive gain, before selection.
#[derive(Debug, PartialEq)]
struct Candidate {
    a: NodeId,
    b: NodeId,
    route: LRoute,
    length_um: i64,
    gain_um: i64,
}

/// Collects every node pair with a ring-avoiding L-route and a positive
/// gain, in pair order. The ring is indexed once, each node's ray reach
/// is read from the index once, and ring distances come from the ring's
/// prefix sum over the edge lengths (costs in the module doc).
fn candidates(net: &NetworkSpec, cycle: &RingCycle) -> Vec<Candidate> {
    let ring = cycle.polyline().crossing_index();
    let n = net.len() as u32;
    let reach: Vec<Reach> = (0..n)
        .map(|i| ring.reach(net.position(NodeId(i))))
        .collect();
    let mut candidates = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (NodeId(i), NodeId(j));
            let (pa, pb) = (net.position(a), net.position(b));
            // Each leg runs from one endpoint to the corner.
            let (ra, rb) = (&reach[i as usize], &reach[j as usize]);
            let crosses_ring = |r: &LRoute| ra.blocked(r.corner()) || rb.blocked(r.corner());
            let Some(route) = feasible_route(pa, pb, crosses_ring) else {
                continue;
            };
            let length = pa.manhattan_distance(pb);
            let (from, to) = (cycle.position_of(a), cycle.position_of(b));
            let cw = cycle.arc_length(from, to, Direction::Cw);
            let gain = cw.min(cycle.perimeter() - cw) - length;
            if gain > 0 {
                candidates.push(Candidate {
                    a,
                    b,
                    route,
                    length_um: length,
                    gain_um: gain,
                });
            }
        }
    }
    candidates
}

/// Greedy selection by descending gain (CSE merges included) over a
/// network of `nodes` nodes.
fn select(candidates: Vec<Candidate>, nodes: usize) -> ShortcutPlan {
    let _select_span = xring_obs::span("shortcut-select");
    // Sort the keys with candidate indices, not the candidates. Each pair
    // appears once, so the keys are unique and an unstable sort gives the
    // same order as a stable one.
    let mut order: Vec<_> = candidates
        .iter()
        .enumerate()
        .map(|(k, c)| (std::cmp::Reverse(c.gain_um), c.a, c.b, k))
        .collect();
    order.sort_unstable();
    // used[node]: the node already joins a selected shortcut.
    let mut used = vec![false; nodes];
    let mut plan = ShortcutPlan::empty();
    for &(.., k) in &order {
        let c = &candidates[k];
        if used[c.a.index()] || used[c.b.index()] {
            continue; // at most one shortcut per node
        }
        // The first two already selected shortcuts it crosses: a second
        // crossing already rules it out.
        let mut crossing_with = (plan.shortcuts.iter().enumerate())
            .filter(|(_, s)| c.route.crosses(&s.route))
            .map(|(k, _)| k);
        match (crossing_with.next(), crossing_with.next()) {
            (None, _) => {
                plan.shortcuts.push(Shortcut {
                    a: c.a,
                    b: c.b,
                    route: c.route,
                    length_um: c.length_um,
                    gain_um: c.gain_um,
                    crossing_partner: None,
                    crossing_at_um: None,
                });
            }
            (Some(k), None) => {
                if plan.shortcuts[k].crossing_partner.is_some() {
                    continue; // partner already has a crossing
                }
                // CSE merge requires exactly one crossing point.
                let _cse_span = xring_obs::span("cse-merge");
                let Some((at_new, at_old)) = single_crossing(&c.route, &plan.shortcuts[k].route)
                else {
                    continue;
                };
                xring_obs::counter("shortcut.cse_merges", 1);
                let new_idx = plan.shortcuts.len();
                plan.shortcuts[k].crossing_partner = Some(new_idx);
                plan.shortcuts[k].crossing_at_um = Some(at_old);
                plan.shortcuts.push(Shortcut {
                    a: c.a,
                    b: c.b,
                    route: c.route,
                    length_um: c.length_um,
                    gain_um: c.gain_um,
                    crossing_partner: Some(k),
                    crossing_at_um: Some(at_new),
                });
            }
            _ => continue, // would cross 2+ shortcuts
        }
        used[c.a.index()] = true;
        used[c.b.index()] = true;
    }
    xring_obs::counter("shortcut.selected", plan.shortcuts.len() as u64);
    plan
}

/// The first L-route option between `a` and `b` that does not properly
/// cross the ring, as judged by `crosses_ring`. Endpoint contacts (the
/// shortcut attaching at its own nodes, a corner grazing the ring) and
/// collinear overlaps are resolved by offset routing and do not count.
fn feasible_route(a: Point, b: Point, crosses_ring: impl Fn(&LRoute) -> bool) -> Option<LRoute> {
    RouteOption::BOTH
        .into_iter()
        .map(|opt| LRoute::new(a, b, opt))
        .find(|r| !crosses_ring(r))
}

/// If the two routes share exactly one point, returns the along-route
/// distances `(on r1, on r2)` to it.
fn single_crossing(r1: &LRoute, r2: &LRoute) -> Option<(i64, i64)> {
    use xring_geom::SegmentIntersection;
    let mut hits: Vec<Point> = Vec::new();
    for s1 in r1.segments() {
        for s2 in r2.segments() {
            match s1.intersection(&s2) {
                SegmentIntersection::Point(p) => {
                    if !hits.contains(&p) {
                        hits.push(p);
                    }
                }
                SegmentIntersection::Overlap(_) => return None,
                SegmentIntersection::None => {}
            }
        }
    }
    if hits.len() != 1 {
        return None;
    }
    Some((distance_along(r1, hits[0]), distance_along(r2, hits[0])))
}

/// Distance from the start of `route` to point `p` (which must lie on it).
fn distance_along(route: &LRoute, p: Point) -> i64 {
    let mut acc = 0i64;
    for seg in route.segments() {
        if seg.contains(p) {
            return acc + seg.start().manhattan_distance(p);
        }
        acc += seg.length();
    }
    panic!("point {p} does not lie on route");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{Direction, RingAlgorithm, RingBuilder};

    /// The original greedy selection: a stable sort of the candidates
    /// themselves, and every crossing with the selected shortcuts listed.
    fn reference_select(mut candidates: Vec<Candidate>, nodes: usize) -> ShortcutPlan {
        candidates.sort_by_key(|c| (std::cmp::Reverse(c.gain_um), c.a, c.b));
        let mut used = vec![false; nodes];
        let mut plan = ShortcutPlan::empty();
        for c in candidates {
            if used[c.a.index()] || used[c.b.index()] {
                continue;
            }
            let crossing_with: Vec<usize> = (plan.shortcuts.iter().enumerate())
                .filter(|(_, s)| c.route.crosses(&s.route))
                .map(|(k, _)| k)
                .collect();
            let (partner, at) = match crossing_with.as_slice() {
                [] => (None, None),
                &[k] => {
                    if plan.shortcuts[k].crossing_partner.is_some() {
                        continue;
                    }
                    let Some((at_new, at_old)) =
                        single_crossing(&c.route, &plan.shortcuts[k].route)
                    else {
                        continue;
                    };
                    let new_idx = plan.shortcuts.len();
                    plan.shortcuts[k].crossing_partner = Some(new_idx);
                    plan.shortcuts[k].crossing_at_um = Some(at_old);
                    (Some(k), Some(at_new))
                }
                _ => continue,
            };
            plan.shortcuts.push(Shortcut {
                a: c.a,
                b: c.b,
                route: c.route,
                length_um: c.length_um,
                gain_um: c.gain_um,
                crossing_partner: partner,
                crossing_at_um: at,
            });
            used[c.a.index()] = true;
            used[c.b.index()] = true;
        }
        plan
    }

    #[test]
    fn selection_matches_the_stable_sort_reference() {
        let mut merges = 0;
        for (name, net) in crate::netspec::oracle_floorplans() {
            for algorithm in [RingAlgorithm::Heuristic, RingAlgorithm::Perimeter] {
                let ring = RingBuilder::new()
                    .with_algorithm(algorithm)
                    .build(&net)
                    .expect("ring");
                let got = select(candidates(&net, &ring.cycle), net.len());
                let want = reference_select(candidates(&net, &ring.cycle), net.len());
                assert_eq!(got, want, "{name}, {algorithm:?} ring");
                merges += got
                    .shortcuts
                    .iter()
                    .filter(|s| s.crossing_partner.is_some())
                    .count();
            }
        }
        assert!(merges > 0, "no CSE merge exercised");
    }

    #[test]
    fn no_shortcuts_on_a_square() {
        // 4 nodes on a square: every pair is adjacent or diagonal; the
        // diagonal chord cannot be routed without its corner landing on
        // the ring, and ring paths are short anyway.
        let net = NetworkSpec::regular_grid(2, 2, 1_000).expect("valid");
        let out = RingBuilder::new().build(&net).expect("ring");
        let plan = plan_shortcuts(&net, &out.cycle);
        assert!(plan.shortcuts.is_empty(), "got {:?}", plan.shortcuts);
    }

    #[test]
    fn serpentine_ring_gets_shortcuts() {
        // A 4x4 grid ring is a boustrophedon; nodes on opposite sides of
        // a serpentine fold are close in space but far along the ring.
        let net = NetworkSpec::psion_16();
        let out = RingBuilder::new().build(&net).expect("ring");
        let plan = plan_shortcuts(&net, &out.cycle);
        assert!(
            !plan.shortcuts.is_empty(),
            "16-node serpentine should admit shortcuts"
        );
        for s in &plan.shortcuts {
            assert!(s.gain_um > 0);
            assert_eq!(s.length_um, net.distance(s.a, s.b));
        }
    }

    #[test]
    fn one_shortcut_per_node() {
        let net = NetworkSpec::psion_16();
        let out = RingBuilder::new().build(&net).expect("ring");
        let plan = plan_shortcuts(&net, &out.cycle);
        let mut used = std::collections::HashSet::new();
        for s in &plan.shortcuts {
            assert!(used.insert(s.a), "{} in two shortcuts", s.a);
            assert!(used.insert(s.b), "{} in two shortcuts", s.b);
        }
    }

    #[test]
    fn crossing_partners_are_mutual_and_single() {
        let net = NetworkSpec::psion_32();
        let out = RingBuilder::new()
            .with_algorithm(crate::ring::RingAlgorithm::Heuristic)
            .build(&net)
            .expect("ring");
        let plan = plan_shortcuts(&net, &out.cycle);
        for (i, s) in plan.shortcuts.iter().enumerate() {
            if let Some(p) = s.crossing_partner {
                assert_eq!(plan.shortcuts[p].crossing_partner, Some(i));
                assert!(s.crossing_at_um.expect("has crossing") >= 0);
                assert!(s.crossing_at_um.expect("has crossing") <= s.length_um);
            }
        }
        // No shortcut crosses a non-partner.
        for i in 0..plan.shortcuts.len() {
            for j in i + 1..plan.shortcuts.len() {
                let si = &plan.shortcuts[i];
                let sj = &plan.shortcuts[j];
                if si.crossing_partner != Some(j) && si.route.crosses(&sj.route) {
                    panic!("shortcut {i} crosses non-partner {j}");
                }
            }
        }
    }

    #[test]
    fn shortcut_gain_is_real_ring_savings() {
        let net = NetworkSpec::psion_16();
        let out = RingBuilder::new().build(&net).expect("ring");
        let plan = plan_shortcuts(&net, &out.cycle);
        for s in &plan.shortcuts {
            let (fa, fb) = (out.cycle.position_of(s.a), out.cycle.position_of(s.b));
            let best_ring = out
                .cycle
                .arc_length(fa, fb, Direction::Cw)
                .min(out.cycle.arc_length(fa, fb, Direction::Ccw));
            assert_eq!(s.gain_um, best_ring - s.length_um);
        }
    }

    /// The candidate collection as it was before the crossing index: every
    /// pair rescans all ring segments per route option and walks the ring
    /// for both arc lengths. Selection is shared; only collection changed.
    fn reference_plan(net: &NetworkSpec, cycle: &RingCycle) -> ShortcutPlan {
        let ring = cycle.polyline();
        let gain_span = xring_obs::span("shortcut-gain");
        let mut candidates = Vec::new();
        let n = net.len() as u32;
        for i in 0..n {
            for j in i + 1..n {
                let (a, b) = (NodeId(i), NodeId(j));
                let (pa, pb) = (net.position(a), net.position(b));
                let crosses_ring = |r: &LRoute| {
                    r.segments()
                        .iter()
                        .any(|sa| ring.segments().iter().any(|sb| sa.crosses_properly(sb)))
                };
                let Some(route) = feasible_route(pa, pb, crosses_ring) else {
                    continue;
                };
                let length = pa.manhattan_distance(pb);
                let (fa, fb) = (cycle.position_of(a), cycle.position_of(b));
                let ring_len = cycle
                    .arc_length(fa, fb, Direction::Cw)
                    .min(cycle.arc_length(fa, fb, Direction::Ccw));
                let gain = ring_len - length;
                if gain > 0 {
                    candidates.push(Candidate {
                        a,
                        b,
                        route,
                        length_um: length,
                        gain_um: gain,
                    });
                }
            }
        }
        xring_obs::counter("shortcut.candidates", candidates.len() as u64);
        drop(gain_span);
        select(candidates, net.len())
    }

    /// Runs `plan` under a request scope of its own and returns the plan
    /// with its candidate, selection and CSE-merge counters.
    fn counted(plan: impl FnOnce() -> ShortcutPlan) -> (ShortcutPlan, [u64; 3]) {
        let ctx = xring_obs::RequestCtx::new(xring_obs::RequestId::mint(0, 0, 0));
        let out = {
            let _scope = ctx.attach();
            plan()
        };
        let trace = ctx.finish();
        let counters = [
            "shortcut.candidates",
            "shortcut.selected",
            "shortcut.cse_merges",
        ]
        .map(|name| trace.total(name));
        (out, counters)
    }

    #[test]
    fn planner_matches_the_ring_rescan_reference() {
        use crate::ring::RingAlgorithm;
        let mut cases: Vec<(String, NetworkSpec, RingAlgorithm)> = Vec::new();
        let fixtures = [
            ("proton_8", NetworkSpec::proton_8()),
            ("proton_16", NetworkSpec::proton_16()),
            ("psion_8", NetworkSpec::psion_8()),
            ("psion_16", NetworkSpec::psion_16()),
        ];
        for (name, net) in fixtures {
            for alg in RingAlgorithm::ALL {
                cases.push((name.to_owned(), net.clone(), alg));
            }
        }
        let large = [RingAlgorithm::Heuristic, RingAlgorithm::Perimeter];
        for alg in large {
            cases.push(("psion_32".to_owned(), NetworkSpec::psion_32(), alg));
            for (rows, cols) in [(8, 8), (4, 8), (12, 12)] {
                let net = NetworkSpec::regular_grid(rows, cols, 1_000).expect("grid");
                cases.push((format!("grid {rows}x{cols}"), net, alg));
            }
        }
        // Seeded irregular floorplans; small dies make them dense, so
        // shared coordinates (collinear and grazing routes) are common.
        for seed in 1..=4u64 {
            for (n, die_um) in [(8, 1_500), (12, 2_000), (16, 2_500)] {
                let net = NetworkSpec::irregular(n, die_um, seed).expect("irregular");
                for alg in RingAlgorithm::ALL {
                    cases.push((
                        format!("irregular {n}/{die_um} seed {seed}"),
                        net.clone(),
                        alg,
                    ));
                }
            }
            for (n, die_um) in [(32, 3_000), (64, 6_000), (128, 28_000)] {
                let net = NetworkSpec::irregular(n, die_um, seed).expect("irregular");
                for alg in large {
                    cases.push((
                        format!("irregular {n}/{die_um} seed {seed}"),
                        net.clone(),
                        alg,
                    ));
                }
            }
        }
        let (mut selected, mut merges) = (0, 0);
        for (name, net, alg) in &cases {
            let out = RingBuilder::new()
                .with_algorithm(*alg)
                .build(net)
                .expect("ring");
            let got = counted(|| plan_shortcuts(net, &out.cycle));
            let want = counted(|| reference_plan(net, &out.cycle));
            assert_eq!(got, want, "{name} with {alg:?}");
            selected += got.1[1];
            merges += got.1[2];
        }
        // The cases must exercise selection and CSE merging, not only
        // agree on empty plans.
        assert!(
            selected > 100 && merges > 0,
            "{selected} selected, {merges} merges"
        );
    }

    #[test]
    fn served_pairs_includes_cse_swaps() {
        let mut plan = ShortcutPlan::empty();
        let r1 = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 10),
            RouteOption::HorizontalFirst,
        );
        let r2 = LRoute::new(
            Point::new(0, 10),
            Point::new(10, 0),
            RouteOption::HorizontalFirst,
        );
        plan.shortcuts.push(Shortcut {
            a: NodeId(0),
            b: NodeId(1),
            route: r1,
            length_um: 20,
            gain_um: 5,
            crossing_partner: Some(1),
            crossing_at_um: Some(10),
        });
        plan.shortcuts.push(Shortcut {
            a: NodeId(2),
            b: NodeId(3),
            route: r2,
            length_um: 20,
            gain_um: 5,
            crossing_partner: Some(0),
            crossing_at_um: Some(10),
        });
        let pairs = plan.served_pairs();
        assert!(pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(pairs.contains(&(NodeId(2), NodeId(3))));
        assert!(pairs.contains(&(NodeId(0), NodeId(3))));
        assert!(pairs.contains(&(NodeId(2), NodeId(1))));
    }
}
