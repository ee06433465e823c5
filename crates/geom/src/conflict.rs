//! Pairwise edge-conflict classification (Fig. 6(b)–(d) of the paper).
//!
//! Each candidate ring edge between two nodes has two L-shaped routing
//! options. For a pair of edges there are four option combinations; the
//! pair is *conflicting* iff **every** combination produces a crossing, and
//! *conflict-free* otherwise. Conflicting pairs feed constraint (3) of the
//! ring-construction MILP.

use crate::route::boxes_disjoint;
use crate::{LRoute, Point, RouteOption};

/// The 2×2 matrix of "does this option combination cross?" for a pair of
/// edges. Index `[i][j]` is the combination (option `i` of edge A, option
/// `j` of edge B) where index 0 is [`RouteOption::HorizontalFirst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionPairMatrix {
    crossings: [[bool; 2]; 2],
}

impl OptionPairMatrix {
    /// Whether the combination (option of A, option of B) crosses.
    pub fn crosses(&self, a: RouteOption, b: RouteOption) -> bool {
        self.crossings[option_index(a)][option_index(b)]
    }

    /// True if every combination crosses (the pair is conflicting).
    pub fn all_cross(&self) -> bool {
        self.crossings.iter().all(|row| row.iter().all(|&c| c))
    }

    /// True if no combination crosses.
    pub fn none_cross(&self) -> bool {
        self.crossings.iter().all(|row| row.iter().all(|&c| !c))
    }

    /// The crossing-free combinations, as (option of A, option of B) pairs.
    pub fn free_combinations(&self) -> Vec<(RouteOption, RouteOption)> {
        let mut out = Vec::new();
        for a in RouteOption::BOTH {
            for b in RouteOption::BOTH {
                if !self.crosses(a, b) {
                    out.push((a, b));
                }
            }
        }
        out
    }
}

fn option_index(o: RouteOption) -> usize {
    match o {
        RouteOption::HorizontalFirst => 0,
        RouteOption::VerticalFirst => 1,
    }
}

/// Classification of an edge pair for the MILP conflict constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeConflict {
    /// At least one option combination avoids a crossing (Fig. 6(c)).
    ConflictFree(OptionPairMatrix),
    /// Every option combination crosses (Fig. 6(d)); the MILP forbids
    /// selecting both edges.
    Conflicting,
}

impl EdgeConflict {
    /// True for [`EdgeConflict::Conflicting`].
    pub fn is_conflicting(&self) -> bool {
        matches!(self, EdgeConflict::Conflicting)
    }

    /// Whether the combination (option of A, option of B) crosses; every
    /// combination does for a conflicting pair.
    pub fn crosses(&self, a: RouteOption, b: RouteOption) -> bool {
        match self {
            EdgeConflict::ConflictFree(m) => m.crosses(a, b),
            EdgeConflict::Conflicting => true,
        }
    }
}

/// Classifies the pair of edges `(a1, a2)` and `(b1, b2)`.
///
/// A combination counts as crossing only when the two routes
/// *transversally* cross, exactly as in [`LRoute::crosses`]: a point
/// interior to a leg of each. Every other contact is crossing-free —
/// junctions at shared nodes, an endpoint or corner landing on the other
/// route, and collinear overlaps, which physical waveguides resolve by
/// running side by side at a small offset.
///
/// # Example
///
/// ```
/// use xring_geom::{classify_edge_pair, EdgeConflict, Point};
///
/// // Two edges whose bounding boxes are disjoint can never cross.
/// let c = classify_edge_pair(
///     Point::new(0, 0), Point::new(10, 10),
///     Point::new(100, 100), Point::new(120, 130),
/// );
/// assert!(!c.is_conflicting());
///
/// // Collinear edges overlapping on [5, 10] along y = 0 do not cross.
/// let c = classify_edge_pair(
///     Point::new(0, 0), Point::new(10, 0),
///     Point::new(5, 0), Point::new(20, 0),
/// );
/// assert!(matches!(c, EdgeConflict::ConflictFree(m) if m.none_cross()));
/// ```
pub fn classify_edge_pair(a1: Point, a2: Point, b1: Point, b2: Point) -> EdgeConflict {
    let mut crossings = [[false; 2]; 2];
    if boxes_disjoint(a1, a2, b1, b2) {
        return EdgeConflict::ConflictFree(OptionPairMatrix { crossings });
    }
    for (i, oa) in RouteOption::BOTH.into_iter().enumerate() {
        let ra = LRoute::new(a1, a2, oa);
        for (j, ob) in RouteOption::BOTH.into_iter().enumerate() {
            let rb = LRoute::new(b1, b2, ob);
            crossings[i][j] = ra.crosses(&rb);
        }
    }
    let matrix = OptionPairMatrix { crossings };
    if matrix.all_cross() {
        EdgeConflict::Conflicting
    } else {
        EdgeConflict::ConflictFree(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn far_apart_edges_are_conflict_free_all_options() {
        match classify_edge_pair(p(0, 0), p(10, 10), p(100, 100), p(150, 150)) {
            EdgeConflict::ConflictFree(m) => assert!(m.none_cross()),
            EdgeConflict::Conflicting => panic!("disjoint edges cannot conflict"),
        }
    }

    #[test]
    fn interleaved_edges_conflict() {
        // A spans (0,0)-(10,10); B spans (5,5)... pick B so that every
        // combination crosses: B from (5,-5) to (5,15) is a vertical line
        // through the middle of A's bounding box, cutting both of A's
        // option paths regardless of B's (degenerate identical) options.
        match classify_edge_pair(p(0, 0), p(10, 10), p(5, -5), p(5, 15)) {
            EdgeConflict::Conflicting => {}
            EdgeConflict::ConflictFree(m) => {
                panic!(
                    "expected conflict, free combos: {:?}",
                    m.free_combinations()
                )
            }
        }
    }

    #[test]
    fn partially_crossing_pair_is_conflict_free() {
        // Fig. 6(c): one combination avoids the crossing.
        // A: (0,0)->(10,10). B: (30,0)->(20,10).
        match classify_edge_pair(p(0, 0), p(10, 10), p(30, 0), p(20, 10)) {
            EdgeConflict::ConflictFree(m) => assert!(!m.free_combinations().is_empty()),
            EdgeConflict::Conflicting => panic!("expected conflict-free"),
        }
    }

    #[test]
    fn edges_sharing_a_node_do_not_conflict() {
        // Consecutive ring edges share node (10, 10).
        match classify_edge_pair(p(0, 0), p(10, 10), p(10, 10), p(20, 0)) {
            EdgeConflict::ConflictFree(m) => assert!(!m.free_combinations().is_empty()),
            EdgeConflict::Conflicting => panic!("adjacent edges must be realizable"),
        }
    }

    #[test]
    fn matrix_is_consistent_with_route_crossing() {
        // A conflict-free pair and a conflicting one.
        let pairs = [
            (p(0, 0), p(10, 10), p(0, 10), p(10, 0)),
            (p(0, 0), p(10, 10), p(5, -5), p(5, 15)),
        ];
        for (a1, a2, b1, b2) in pairs {
            let c = classify_edge_pair(a1, a2, b1, b2);
            for oa in RouteOption::BOTH {
                for ob in RouteOption::BOTH {
                    let ra = LRoute::new(a1, a2, oa);
                    let rb = LRoute::new(b1, b2, ob);
                    assert_eq!(c.crosses(oa, ob), ra.crosses(&rb));
                }
            }
        }
    }
}
