//! Tour heuristics: nearest-neighbour construction + 2-opt improvement.
//!
//! Used (a) to warm-start the ring-construction MILP with an incumbent and
//! (b) as a standalone ring builder for the Step-1 ablation (DESIGN.md E7)
//! and for networks too large for exact solving.

use crate::netspec::{NetworkSpec, NodeId};
use xring_geom::Point;

/// Builds a tour with the nearest-neighbour heuristic starting at node 0.
///
/// Each step scans a shrinking list of the unvisited node indices and
/// moves to the closest one, ties going to the smaller index: O(N²) in
/// all, with no per-step id iterator or distance closure.
pub fn nearest_neighbor_tour(net: &NetworkSpec) -> Vec<NodeId> {
    let positions = net.positions();
    let mut unvisited: Vec<u32> = (1..positions.len() as u32).collect();
    let mut tour = Vec::with_capacity(positions.len());
    let mut cur = 0u32;
    tour.push(NodeId(cur));
    while !unvisited.is_empty() {
        let here = positions[cur as usize];
        // (distance, index) is a strict total order, so the scan order
        // of `unvisited` (shuffled by `swap_remove`) cannot matter.
        let (k, _) = unvisited
            .iter()
            .enumerate()
            .min_by_key(|&(_, &j)| (here.manhattan_distance(positions[j as usize]), j))
            .expect("unvisited node exists");
        cur = unvisited.swap_remove(k);
        tour.push(NodeId(cur));
    }
    tour
}

/// Total (closed) tour length in µm.
pub fn tour_length(net: &NetworkSpec, tour: &[NodeId]) -> i64 {
    let n = tour.len();
    (0..n)
        .map(|i| net.distance(tour[i], tour[(i + 1) % n]))
        .sum()
}

/// Improves a tour with 2-opt moves until no improving move exists.
///
/// 2-opt reverses tour segments; for Manhattan metrics it untangles most
/// crossings as a side effect, which also helps the geometric
/// realizability of the resulting ring. Moves are tried for every
/// position pair `i < k` in order and taken as soon as they shorten the
/// tour (first improvement). The node positions are kept in tour order
/// beside the tour, and reversed with it, so a move test reads four
/// points instead of looking up four nodes.
pub fn two_opt(net: &NetworkSpec, tour: &mut [NodeId]) {
    let n = tour.len();
    if n < 4 {
        return;
    }
    let mut at: Vec<Point> = tour.iter().map(|&id| net.position(id)).collect();
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n - 1 {
            // Reversing tour[i+1..=k] replaces edges (i,i+1) and
            // (k,k+1) with (i,k) and (i+1,k+1). k = i+1 shares edge
            // (i,i+1), and k = n−1 closes the tour back to i = 0: no move.
            let a = at[i];
            let mut ab = a.manhattan_distance(at[i + 1]);
            let end = if i == 0 { n - 1 } else { n };
            for k in i + 2..end {
                let c = at[k];
                let d = at[if k + 1 == n { 0 } else { k + 1 }];
                let before = ab + c.manhattan_distance(d);
                let after = a.manhattan_distance(c) + at[i + 1].manhattan_distance(d);
                if after < before {
                    tour[i + 1..=k].reverse();
                    at[i + 1..=k].reverse();
                    ab = a.manhattan_distance(at[i + 1]);
                    improved = true;
                }
            }
        }
    }
}

/// Nearest-neighbour + 2-opt in one call.
pub fn heuristic_tour(net: &NetworkSpec) -> Vec<NodeId> {
    let mut tour = nearest_neighbor_tour(net);
    two_opt(net, &mut tour);
    tour
}

/// The "perimeter order" tour: nodes sorted by angle around the centroid
/// (ties by distance). This is how ORing's manual designs order a regular
/// grid; used as the naive-ring ablation baseline.
pub fn perimeter_tour(net: &NetworkSpec) -> Vec<NodeId> {
    let n = net.len() as f64;
    let cx = net.positions().iter().map(|p| p.x as f64).sum::<f64>() / n;
    let cy = net.positions().iter().map(|p| p.y as f64).sum::<f64>() / n;
    let mut ids: Vec<NodeId> = net.node_ids().collect();
    ids.sort_by(|a, b| {
        let pa = net.position(*a);
        let pb = net.position(*b);
        let ta = (pa.y as f64 - cy).atan2(pa.x as f64 - cx);
        let tb = (pb.y as f64 - cy).atan2(pb.x as f64 - cx);
        ta.partial_cmp(&tb)
            .expect("angles are finite")
            .then(a.index().cmp(&b.index()))
    });
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nn_tour_visits_every_node_once() {
        let net = NetworkSpec::proton_16();
        let tour = nearest_neighbor_tour(&net);
        assert_eq!(tour.len(), 16);
        let mut seen = [false; 16];
        for id in &tour {
            assert!(!seen[id.index()], "node visited twice");
            seen[id.index()] = true;
        }
    }

    /// The original nearest-neighbour construction: filter the unvisited
    /// ids and take the minimum (distance, index) key at every step.
    fn reference_nearest_neighbor_tour(net: &NetworkSpec) -> Vec<NodeId> {
        let mut visited = vec![false; net.len()];
        let mut tour = vec![NodeId(0)];
        visited[0] = true;
        for _ in 1..net.len() {
            let cur = tour[tour.len() - 1];
            let next = net
                .node_ids()
                .filter(|id| !visited[id.index()])
                .min_by_key(|id| (net.distance(cur, *id), id.index()))
                .expect("unvisited node exists");
            visited[next.index()] = true;
            tour.push(next);
        }
        tour
    }

    #[test]
    fn nn_tour_matches_the_reference() {
        for (name, net) in crate::netspec::oracle_floorplans() {
            assert_eq!(
                nearest_neighbor_tour(&net),
                reference_nearest_neighbor_tour(&net),
                "{name}"
            );
        }
    }

    /// The original 2-opt pass: node ids and `net.distance` throughout.
    fn reference_two_opt(net: &NetworkSpec, tour: &mut [NodeId]) {
        let n = tour.len();
        if n < 4 {
            return;
        }
        let mut improved = true;
        while improved {
            improved = false;
            for i in 0..n - 1 {
                for k in i + 1..n {
                    let a = tour[i];
                    let b = tour[(i + 1) % n];
                    let c = tour[k];
                    let d = tour[(k + 1) % n];
                    if (i + 1) % n == k || (k + 1) % n == i {
                        continue;
                    }
                    let before = net.distance(a, b) + net.distance(c, d);
                    let after = net.distance(a, c) + net.distance(b, d);
                    if after < before {
                        tour[i + 1..=k].reverse();
                        improved = true;
                    }
                }
            }
        }
    }

    #[test]
    fn two_opt_matches_the_reference_move_for_move() {
        for (name, net) in crate::netspec::oracle_floorplans() {
            let starts = [
                nearest_neighbor_tour(&net),
                perimeter_tour(&net),
                net.node_ids().collect(),
                (0..net.len() as u32).rev().map(NodeId).collect(),
            ];
            for start in starts {
                let mut got = start.clone();
                two_opt(&net, &mut got);
                let mut want = start;
                reference_two_opt(&net, &mut want);
                assert_eq!(got, want, "{name}");
            }
        }
    }

    #[test]
    fn two_opt_never_worsens() {
        let net = NetworkSpec::irregular(14, 12_000, 7).expect("valid");
        let mut tour = nearest_neighbor_tour(&net);
        let before = tour_length(&net, &tour);
        two_opt(&net, &mut tour);
        let after = tour_length(&net, &tour);
        assert!(after <= before, "2-opt worsened {before} -> {after}");
    }

    #[test]
    fn grid_tour_is_near_optimal() {
        // On a 4x4 grid with pitch p, the optimal closed tour has length
        // 16p; NN + 2-opt should land within ~12%.
        let net = NetworkSpec::regular_grid(4, 4, 1_000).expect("valid");
        let tour = heuristic_tour(&net);
        let len = tour_length(&net, &tour);
        assert!(len >= 16_000, "below optimum is impossible: {len}");
        assert!(len <= 18_000, "heuristic too far from optimum: {len}");
    }

    #[test]
    fn perimeter_tour_is_a_permutation() {
        let net = NetworkSpec::psion_16();
        let tour = perimeter_tour(&net);
        let mut idx: Vec<usize> = tour.iter().map(|n| n.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn tour_length_of_square() {
        let net = NetworkSpec::regular_grid(2, 2, 500).expect("valid");
        let tour = vec![NodeId(0), NodeId(1), NodeId(3), NodeId(2)];
        assert_eq!(tour_length(&net, &tour), 2_000);
    }
}
