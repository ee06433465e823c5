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
//! Cost for an N-node ring: each leg of an L-route is an axis-aligned
//! segment from one of the pair's own nodes to the corner, so a leg
//! properly crosses the ring exactly when it runs past that node's
//! nearest ring crossing in its direction. Those four nearest crossings
//! per node ([`xring_geom::Reach`]) come from one sweep over the ring
//! polyline, O(N log N). A pair is feasible exactly when one of its two
//! corners lies within both nodes' reach, so each node visits only the
//! nodes within its x-span, from a list sorted by x: O(N log N + V) for
//! V visited pairs, each feasible one O(1) for its route and its ring
//! distance (the ring's edge-length prefix sum, [`RingCycle::arc_length`]).
//! Greedy selection sorts the C candidates by packed integer keys and
//! tests each one with free endpoints against the selected shortcuts
//! whose boxes start left of its right edge: O(C log C + C·S) at worst
//! for S selected shortcuts.

use crate::netspec::{NetworkSpec, NodeId};
use crate::ring::{Direction, RingCycle};
use xring_geom::{LRoute, Point, RouteOption};

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
/// gain, visiting only the pairs with a ring-free corner (costs in the
/// module doc). The corner in `i`'s row and `j`'s column is ring-free
/// exactly when `j`'s x lies in `i`'s x-span and `i`'s y in `j`'s y-span.
fn candidates(net: &NetworkSpec, cycle: &RingCycle) -> Vec<Candidate> {
    let points: Vec<Point> = (0..net.len() as u32)
        .map(|i| net.position(NodeId(i)))
        .collect();
    let reach = cycle.polyline().reach_all(&points);
    let corner_free = |i: usize, j: usize| {
        let ((west, east), (south, north)) = (reach[i].x_span(), reach[j].y_span());
        (west..=east).contains(&points[j].x) && (south..=north).contains(&points[i].y)
    };
    let mut by_x: Vec<usize> = (0..points.len()).collect();
    by_x.sort_unstable_by_key(|&i| points[i].x);
    let mut candidates = Vec::new();
    for (i, r) in reach.iter().enumerate() {
        let (west, east) = r.x_span();
        let first = by_x.partition_point(|&j| points[j].x < west);
        let last = by_x.partition_point(|&j| points[j].x <= east);
        for &j in &by_x[first..last] {
            // With both corners free, the lower node visits the pair.
            if j == i || !corner_free(i, j) || (j < i && corner_free(j, i)) {
                continue;
            }
            // The route takes the corner in `i`'s row: horizontal first when
            // `i` is `a`; else vertical first, as the horizontal-first corner
            // is blocked (or `j` would visit the pair).
            let (a, b) = (NodeId(i.min(j) as u32), NodeId(i.max(j) as u32));
            let (pa, pb) = (net.position(a), net.position(b));
            let route = LRoute::new(pa, pb, RouteOption::BOTH[usize::from(i > j)]);
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
    // Sort the keys with candidate indices, not the candidates, each key
    // packed into one integer: descending gain, then `(a, b)`. Each pair
    // appears once, so the keys are unique and an unstable sort gives the
    // same order as a stable one.
    let mut order: Vec<(u128, usize)> = (candidates.iter().enumerate())
        .map(|(k, c)| {
            let pair = u64::from(c.a.0) << 32 | u64::from(c.b.0);
            (
                u128::from(u64::MAX - c.gain_um as u64) << 64 | u128::from(pair),
                k,
            )
        })
        .collect();
    order.sort_unstable_by_key(|&(key, _)| key);
    // used[node]: the node already joins a selected shortcut.
    let mut used = vec![false; nodes];
    // Selected shortcuts by the left edge of their boxes: only those left
    // of a candidate's right edge can cross it.
    let mut by_left: Vec<(i64, usize)> = Vec::new();
    let mut plan = ShortcutPlan::empty();
    for &(_, k) in &order {
        let c = &candidates[k];
        if used[c.a.index()] || used[c.b.index()] {
            continue; // at most one shortcut per node
        }
        // The first two already selected shortcuts it crosses: a second
        // crossing already rules it out.
        let xs = [c.route.from().x, c.route.to().x];
        let (left, right) = (xs[0].min(xs[1]), xs[0].max(xs[1]));
        let mut crossing_with = (by_left[..by_left.partition_point(|&(l, _)| l <= right)].iter())
            .map(|&(_, k)| k)
            .filter(|&k| c.route.crosses(&plan.shortcuts[k].route));
        let (partner, at) = match (crossing_with.next(), crossing_with.next()) {
            (None, _) => (None, None),
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
                plan.shortcuts[k].crossing_partner = Some(plan.shortcuts.len());
                plan.shortcuts[k].crossing_at_um = Some(at_old);
                (Some(k), Some(at_new))
            }
            _ => continue, // would cross 2+ shortcuts
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
        let slot = by_left.partition_point(|&(l, _)| l <= left);
        by_left.insert(slot, (left, plan.shortcuts.len() - 1));
    }
    xring_obs::counter("shortcut.selected", plan.shortcuts.len() as u64);
    plan
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

    /// The first L-route option between `a` and `b` that does not properly
    /// cross the ring, as judged by `crosses_ring`. Endpoint contacts (the
    /// shortcut attaching at its own nodes, a corner grazing the ring) and
    /// collinear overlaps are resolved by offset routing and do not count.
    fn feasible_route(
        a: Point,
        b: Point,
        crosses_ring: impl Fn(&LRoute) -> bool,
    ) -> Option<LRoute> {
        RouteOption::BOTH
            .into_iter()
            .map(|opt| LRoute::new(a, b, opt))
            .find(|r| !crosses_ring(r))
    }

    #[test]
    fn span_enumeration_matches_the_all_pairs_scan() {
        let mut found = 0;
        for (name, net) in crate::netspec::oracle_floorplans() {
            for algorithm in [RingAlgorithm::Heuristic, RingAlgorithm::Perimeter] {
                let ring = RingBuilder::new()
                    .with_algorithm(algorithm)
                    .build(&net)
                    .expect("ring");
                let mut got = candidates(&net, &ring.cycle);
                got.sort_by_key(|c| (c.a, c.b));
                let want = reference_candidates(&net, &ring.cycle);
                assert_eq!(got, want, "{name}, {algorithm:?} ring");
                found += got.len();
            }
        }
        assert!(found > 5_000, "only {found} candidates");
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
    /// pair, in pair order, rescans all ring segments per route option and
    /// walks the ring for both arc lengths.
    fn reference_candidates(net: &NetworkSpec, cycle: &RingCycle) -> Vec<Candidate> {
        let ring = cycle.polyline();
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
        candidates
    }

    /// Step 2 over [`reference_candidates`]; selection is shared.
    fn reference_plan(net: &NetworkSpec, cycle: &RingCycle) -> ShortcutPlan {
        let gain_span = xring_obs::span("shortcut-gain");
        let candidates = reference_candidates(net, cycle);
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
