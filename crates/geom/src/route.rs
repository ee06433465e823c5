//! L-shaped routing options for an edge between two network nodes.
//!
//! Following Fig. 6(b) of the paper, an edge between two nodes is realized
//! as one of two rectilinear L-shapes: route horizontally first and then
//! vertically, or the other way around. Both options have the same length
//! (the Manhattan distance), so the choice only affects crossings.

use crate::{Point, Segment};

/// Which leg of the L-shape is traversed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteOption {
    /// Travel along x to the corner, then along y.
    HorizontalFirst,
    /// Travel along y to the corner, then along x.
    VerticalFirst,
}

impl RouteOption {
    /// Both options, in a fixed order (used when enumerating combinations).
    pub const BOTH: [RouteOption; 2] = [RouteOption::HorizontalFirst, RouteOption::VerticalFirst];

    /// The other option.
    pub fn flipped(self) -> RouteOption {
        match self {
            RouteOption::HorizontalFirst => RouteOption::VerticalFirst,
            RouteOption::VerticalFirst => RouteOption::HorizontalFirst,
        }
    }
}

/// A realized L-shaped route between two points.
///
/// # Example
///
/// ```
/// use xring_geom::{LRoute, Point, RouteOption};
///
/// let r = LRoute::new(Point::new(0, 0), Point::new(10, 20), RouteOption::HorizontalFirst);
/// assert_eq!(r.corner(), Point::new(10, 0));
/// assert_eq!(r.length(), 30);
/// assert_eq!(r.bend_count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LRoute {
    from: Point,
    to: Point,
    option: RouteOption,
}

impl LRoute {
    /// Creates the L-route from `from` to `to` using `option`.
    pub fn new(from: Point, to: Point, option: RouteOption) -> Self {
        LRoute { from, to, option }
    }

    /// Source endpoint.
    pub fn from(&self) -> Point {
        self.from
    }

    /// Destination endpoint.
    pub fn to(&self) -> Point {
        self.to
    }

    /// The option this route realizes.
    pub fn option(&self) -> RouteOption {
        self.option
    }

    /// The corner point of the L (equal to an endpoint when degenerate).
    pub fn corner(&self) -> Point {
        match self.option {
            RouteOption::HorizontalFirst => self.from.corner_horizontal_first(self.to),
            RouteOption::VerticalFirst => self.from.corner_vertical_first(self.to),
        }
    }

    /// Total route length in µm (always the Manhattan distance).
    pub fn length(&self) -> i64 {
        self.from.manhattan_distance(self.to)
    }

    /// Number of 90° bends: 1 for a true L, 0 when the endpoints are
    /// axis-aligned (straight segment) or coincident.
    pub fn bend_count(&self) -> usize {
        if self.from.is_axis_aligned_with(self.to) {
            0
        } else {
            1
        }
    }

    /// The two legs in travel order, `None` where a leg is degenerate.
    fn legs(&self) -> [Option<Segment>; 2] {
        let c = self.corner();
        let leg = |a: Point, b: Point| (a != b).then(|| Segment::new(a, b));
        [leg(self.from, c), leg(c, self.to)]
    }

    /// The (up to two) non-degenerate segments of this route, in travel
    /// order. Degenerate legs are dropped.
    pub fn segments(&self) -> Vec<Segment> {
        let mut out: Vec<Segment> = self.legs().into_iter().flatten().collect();
        if out.is_empty() {
            // from == to: keep a single degenerate segment so that the
            // route still "occupies" its point.
            out.push(Segment::new(self.from, self.to));
        }
        out
    }

    /// True if the two routes **transversally cross**: some segment pair
    /// intersects at a point interior to both segments.
    ///
    /// Endpoint contacts (junctions at shared nodes, corners landing on
    /// another route) and collinear overlaps are *not* crossings: physical
    /// waveguides route at a small offset, so such contacts are resolved
    /// by running alongside rather than through. Only a transversal
    /// crossing forces a physical waveguide crossing — this matches the
    /// paper's Fig. 2(a), whose minimum-length ring runs the return
    /// waveguide parallel to a node column.
    ///
    /// Allocation-free. A route lies inside the closed bounding box of its
    /// endpoints, so routes with disjoint boxes are rejected before any
    /// leg is tested; degenerate legs are skipped because a zero-length
    /// segment has no interior point to cross at.
    pub fn crosses(&self, other: &LRoute) -> bool {
        if boxes_disjoint(self.from, self.to, other.from, other.to) {
            return false;
        }
        let theirs = other.legs();
        self.legs()
            .iter()
            .flatten()
            .any(|sa| theirs.iter().flatten().any(|sb| sa.crosses_properly(sb)))
    }

    /// Count of *proper* crossings between this route and a set of
    /// segments (interior-interior intersections only). Used to count
    /// physical waveguide crossings on a realized layout.
    pub fn proper_crossings_with(&self, segments: &[Segment]) -> usize {
        self.legs()
            .iter()
            .flatten()
            .map(|sa| segments.iter().filter(|sb| sa.crosses_properly(sb)).count())
            .sum()
    }
}

/// True when the closed bounding boxes of `a1`–`a2` and `b1`–`b2` share
/// no point. Both L-routes of an edge lie inside its endpoints' box, so
/// edges with disjoint boxes cannot cross under any option.
pub(crate) fn boxes_disjoint(a1: Point, a2: Point, b1: Point, b2: Point) -> bool {
    let apart = |a: i64, b: i64, c: i64, d: i64| a.max(b) < c.min(d) || c.max(d) < a.min(b);
    apart(a1.x, a2.x, b1.x, b2.x) || apart(a1.y, a2.y, b1.y, b2.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_straight_route() {
        let r = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 0),
            RouteOption::HorizontalFirst,
        );
        assert_eq!(r.segments().len(), 1);
        assert_eq!(r.bend_count(), 0);
        let r2 = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 0),
            RouteOption::VerticalFirst,
        );
        assert_eq!(r2.segments().len(), 1);
        assert_eq!(r.length(), r2.length());
    }

    #[test]
    fn zero_length_route() {
        let r = LRoute::new(
            Point::new(5, 5),
            Point::new(5, 5),
            RouteOption::HorizontalFirst,
        );
        assert_eq!(r.length(), 0);
        assert_eq!(r.segments().len(), 1);
        assert!(r.segments()[0].is_degenerate());
    }

    #[test]
    fn both_options_same_length_different_corners() {
        let a = Point::new(0, 0);
        let b = Point::new(7, 9);
        let h = LRoute::new(a, b, RouteOption::HorizontalFirst);
        let v = LRoute::new(a, b, RouteOption::VerticalFirst);
        assert_eq!(h.length(), v.length());
        assert_ne!(h.corner(), v.corner());
        assert_eq!(h.corner(), Point::new(7, 0));
        assert_eq!(v.corner(), Point::new(0, 9));
    }

    #[test]
    fn crossing_detection_proper() {
        // Route A: (0,0) -> (10,10) horizontal-first: corner at (10,0)
        // Route B: (5,-5) -> (15,5) vertical-first: corner at (5,5)
        let a = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 10),
            RouteOption::HorizontalFirst,
        );
        let b = LRoute::new(
            Point::new(5, -5),
            Point::new(15, 5),
            RouteOption::VerticalFirst,
        );
        assert!(a.crosses(&b));
    }

    #[test]
    fn shared_endpoint_is_not_a_crossing() {
        // Two ring edges sharing node (10, 0).
        let a = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 0),
            RouteOption::HorizontalFirst,
        );
        let b = LRoute::new(
            Point::new(10, 0),
            Point::new(20, 5),
            RouteOption::HorizontalFirst,
        );
        assert!(!a.crosses(&b));
    }

    #[test]
    fn overlap_is_not_a_crossing() {
        // Both leave (0,0) heading right along y=0: they run side by side
        // at a small offset — no transversal crossing.
        let a = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 0),
            RouteOption::HorizontalFirst,
        );
        let b = LRoute::new(
            Point::new(0, 0),
            Point::new(5, 3),
            RouteOption::HorizontalFirst,
        );
        assert!(!a.crosses(&b));
    }

    #[test]
    fn t_touch_is_not_a_crossing() {
        // B's endpoint lands in the middle of A: a tap/turn-away, which
        // offset routing resolves without crossing A.
        let a = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 0),
            RouteOption::HorizontalFirst,
        );
        let b = LRoute::new(
            Point::new(5, 5),
            Point::new(5, 0),
            RouteOption::VerticalFirst,
        );
        assert!(!a.crosses(&b));
    }

    #[test]
    fn transversal_crossing_detected() {
        // B passes straight through the middle of A.
        let a = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 0),
            RouteOption::HorizontalFirst,
        );
        let b = LRoute::new(
            Point::new(5, -5),
            Point::new(5, 5),
            RouteOption::VerticalFirst,
        );
        assert!(a.crosses(&b));
        assert!(b.crosses(&a));
    }

    #[test]
    fn disjoint_routes_do_not_cross() {
        let a = LRoute::new(
            Point::new(0, 0),
            Point::new(10, 10),
            RouteOption::HorizontalFirst,
        );
        let b = LRoute::new(
            Point::new(100, 100),
            Point::new(120, 140),
            RouteOption::VerticalFirst,
        );
        assert!(!a.crosses(&b));
    }

    #[test]
    fn proper_crossing_count() {
        let r = LRoute::new(
            Point::new(0, 5),
            Point::new(20, 5),
            RouteOption::HorizontalFirst,
        );
        let walls = vec![
            Segment::new(Point::new(5, 0), Point::new(5, 10)),
            Segment::new(Point::new(10, 0), Point::new(10, 10)),
            Segment::new(Point::new(30, 0), Point::new(30, 10)),
        ];
        assert_eq!(r.proper_crossings_with(&walls), 2);
    }

    /// The allocating all-legs test that `crosses` replaced: every pair of
    /// `segments()`, degenerate ones included, with no bounding-box
    /// rejection.
    fn crosses_reference(a: &LRoute, b: &LRoute) -> bool {
        let theirs = b.segments();
        a.segments()
            .iter()
            .any(|sa| theirs.iter().any(|sb| sa.crosses_properly(sb)))
    }

    #[test]
    fn crosses_matches_the_all_legs_reference() {
        // A 5x5 grid makes collinear overlaps, endpoint contacts, corners
        // on segments and zero-length routes common.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut random_route = || {
            let mut coord = || (next() % 5) as i64;
            let (from, to) = (Point::new(coord(), coord()), Point::new(coord(), coord()));
            LRoute::new(from, to, RouteOption::BOTH[(next() % 2) as usize])
        };
        let (mut crossing, mut zero_length) = (0, 0);
        for _ in 0..20_000 {
            let (a, b) = (random_route(), random_route());
            assert_eq!(a.crosses(&b), crosses_reference(&a, &b), "{a:?} vs {b:?}");
            crossing += usize::from(a.crosses(&b));
            zero_length += usize::from(a.length() == 0);
        }
        assert!(
            crossing > 500 && zero_length > 200,
            "{crossing} crossing, {zero_length} zero-length"
        );
    }

    #[test]
    fn option_flip_roundtrip() {
        assert_eq!(
            RouteOption::HorizontalFirst.flipped().flipped(),
            RouteOption::HorizontalFirst
        );
    }
}
