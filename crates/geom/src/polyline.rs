//! Rectilinear polylines: realized waveguide paths.

use crate::{LRoute, Point, Segment};

/// An open or closed rectilinear polyline built from axis-aligned segments.
///
/// Ring waveguides, shortcuts and PDN branches are all polylines. The
/// polyline stores its vertex list; consecutive vertices must be
/// axis-aligned.
///
/// # Example
///
/// ```
/// use xring_geom::{Point, Polyline};
///
/// let p = Polyline::open(vec![
///     Point::new(0, 0),
///     Point::new(10, 0),
///     Point::new(10, 10),
/// ]);
/// assert_eq!(p.length(), 20);
/// assert_eq!(p.bend_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Polyline {
    vertices: Vec<Point>,
    closed: bool,
}

impl Polyline {
    /// Creates an open polyline through `vertices`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 vertices are given or if consecutive
    /// vertices are not axis-aligned.
    pub fn open(vertices: Vec<Point>) -> Self {
        Self::build(vertices, false)
    }

    /// Creates a closed polyline (ring): an implicit segment connects the
    /// last vertex back to the first.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 vertices are given, if consecutive vertices
    /// are not axis-aligned, or if the closing segment is not axis-aligned.
    pub fn closed(vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 3, "a closed polyline needs >= 3 vertices");
        assert!(
            vertices[vertices.len() - 1].is_axis_aligned_with(vertices[0]),
            "closing segment must be axis-aligned"
        );
        Self::build(vertices, true)
    }

    fn build(vertices: Vec<Point>, closed: bool) -> Self {
        assert!(vertices.len() >= 2, "a polyline needs >= 2 vertices");
        for w in vertices.windows(2) {
            assert!(
                w[0].is_axis_aligned_with(w[1]),
                "consecutive polyline vertices must be axis-aligned: {} vs {}",
                w[0],
                w[1]
            );
        }
        Polyline { vertices, closed }
    }

    /// Builds an open polyline from a chain of L-routes (each route
    /// contributes its corner). Consecutive routes must connect.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty or discontinuous.
    pub fn from_routes(routes: &[LRoute]) -> Self {
        assert!(!routes.is_empty(), "route chain must be non-empty");
        let mut vertices = vec![routes[0].from()];
        for (i, r) in routes.iter().enumerate() {
            if i > 0 {
                assert_eq!(
                    routes[i - 1].to(),
                    r.from(),
                    "route chain must be continuous"
                );
            }
            let c = r.corner();
            if c != *vertices.last().expect("non-empty") && c != r.to() {
                vertices.push(c);
            }
            if r.to() != *vertices.last().expect("non-empty") {
                vertices.push(r.to());
            }
        }
        if vertices.len() == 1 {
            vertices.push(vertices[0]);
        }
        Polyline::build(vertices, false)
    }

    /// The vertices of this polyline.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Whether the polyline is closed (a ring).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// All non-degenerate segments, in order (including the closing
    /// segment for rings).
    pub fn segments(&self) -> Vec<Segment> {
        let mut segs: Vec<Segment> = self
            .vertices
            .windows(2)
            .map(|w| Segment::new(w[0], w[1]))
            .filter(|s| !s.is_degenerate())
            .collect();
        if self.closed {
            let closing = Segment::new(*self.vertices.last().expect("non-empty"), self.vertices[0]);
            if !closing.is_degenerate() {
                segs.push(closing);
            }
        }
        segs
    }

    /// Total length in µm.
    pub fn length(&self) -> i64 {
        self.segments().iter().map(Segment::length).sum()
    }

    /// Number of 90° bends (direction changes at interior vertices; for
    /// closed polylines, every vertex is interior).
    pub fn bend_count(&self) -> usize {
        let segs = self.segments();
        if segs.len() < 2 {
            return 0;
        }
        let mut bends = 0;
        let pairs = if self.closed {
            segs.len()
        } else {
            segs.len() - 1
        };
        for i in 0..pairs {
            let a = &segs[i];
            let b = &segs[(i + 1) % segs.len()];
            if a.is_horizontal() != b.is_horizontal() {
                bends += 1;
            }
        }
        bends
    }

    /// Number of *proper* crossings between this polyline and `other`
    /// (interior-interior intersections of their segments).
    pub fn proper_crossings(&self, other: &Polyline) -> usize {
        let mine = self.segments();
        let theirs = other.segments();
        let mut count = 0;
        for a in &mine {
            for b in &theirs {
                if a.crosses_properly(b) {
                    count += 1;
                }
            }
        }
        count
    }

    /// A sorted index over this polyline's segments that answers
    /// proper-crossing queries by binary search (see [`CrossingIndex`]).
    pub fn crossing_index(&self) -> CrossingIndex {
        let mut index = CrossingIndex {
            horizontal: Vec::new(),
            vertical: Vec::new(),
        };
        for s in self.segments() {
            let (a, b) = (s.start(), s.end());
            if s.is_horizontal() {
                index.horizontal.push(AxisSpan::new(a.y, a.x, b.x));
            } else {
                index.vertical.push(AxisSpan::new(a.x, a.y, b.y));
            }
        }
        index.horizontal.sort_unstable();
        index.vertical.sort_unstable();
        index
    }

    /// Brute-force reference for [`CrossingIndex::reach`] on both legs of
    /// `route`: true if some route segment properly crosses some polyline
    /// segment.
    #[cfg(test)]
    fn route_conflicts(&self, route: &LRoute) -> bool {
        route
            .segments()
            .iter()
            .any(|sa| self.segments().iter().any(|sb| sa.crosses_properly(sb)))
    }
}

/// Proper-crossing queries against a fixed polyline, built once by
/// [`Polyline::crossing_index`].
///
/// Only perpendicular axis-aligned segments can cross properly: collinear
/// ones either overlap or touch at an endpoint. The index keeps the
/// polyline's horizontal and vertical segments apart, each sorted by its
/// fixed coordinate. [`reach`](Self::reach) answers, for one point, how
/// far each of its four axis rays runs before it properly crosses the
/// polyline; any axis-aligned segment leaving that point is then tested
/// in O(1) by [`Reach::blocked`]. An L-route is two such segments, one
/// from each endpoint to the corner.
///
/// # Example
///
/// ```
/// use xring_geom::{LRoute, Point, Polyline, RouteOption};
///
/// let ring = Polyline::closed(vec![
///     Point::new(0, 0),
///     Point::new(100, 0),
///     Point::new(100, 100),
///     Point::new(0, 100),
/// ]);
/// let index = ring.crossing_index();
/// let through = LRoute::new(Point::new(50, 50), Point::new(200, 50), RouteOption::HorizontalFirst);
/// assert!(index.reach(through.from()).blocked(through.corner()));
/// // A corner grazing the ring is a contact, not a crossing.
/// let chord = LRoute::new(Point::new(0, 0), Point::new(100, 100), RouteOption::HorizontalFirst);
/// let corner = chord.corner();
/// assert!(!index.reach(chord.from()).blocked(corner));
/// assert!(!index.reach(chord.to()).blocked(corner));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossingIndex {
    /// Horizontal segments, sorted by y.
    horizontal: Vec<AxisSpan>,
    /// Vertical segments, sorted by x.
    vertical: Vec<AxisSpan>,
}

/// A non-degenerate axis-aligned segment as its fixed coordinate and the
/// closed interval `lo..=hi` it spans along the other axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AxisSpan {
    at: i64,
    lo: i64,
    hi: i64,
}

impl AxisSpan {
    fn new(at: i64, a: i64, b: i64) -> Self {
        AxisSpan {
            at,
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// True if a perpendicular line at `c` passes through this span's
    /// interior.
    fn straddles(&self, c: i64) -> bool {
        self.lo < c && c < self.hi
    }
}

impl CrossingIndex {
    /// The nearest proper crossing on each axis ray from `p`.
    ///
    /// A segment from `p` along an axis properly crosses an indexed
    /// perpendicular segment when the crossing lies strictly inside both.
    /// So each direction needs only the first perpendicular segment,
    /// strictly beyond `p`, whose open span contains `p`'s other
    /// coordinate: a binary search to `p`, then a scan outward that stops
    /// at the first hit.
    pub fn reach(&self, p: Point) -> Reach {
        let nearest = |spans: &[AxisSpan], at: i64, across: i64| {
            let first_after = spans.partition_point(|t| t.at <= at);
            let up = spans[first_after..]
                .iter()
                .find(|t| t.straddles(across))
                .map_or(i64::MAX, |t| t.at);
            let last_before = spans.partition_point(|t| t.at < at);
            let down = spans[..last_before]
                .iter()
                .rev()
                .find(|t| t.straddles(across))
                .map_or(i64::MIN, |t| t.at);
            (down, up)
        };
        let (west, east) = nearest(&self.vertical, p.x, p.y);
        let (south, north) = nearest(&self.horizontal, p.y, p.x);
        Reach {
            from: p,
            west,
            east,
            south,
            north,
        }
    }
}

/// How far each axis ray from one point runs before it properly crosses
/// an indexed polyline, from [`CrossingIndex::reach`]. A bound is
/// `i64::MAX` (or `i64::MIN`) when the ray never crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reach {
    from: Point,
    /// x of the nearest crossing towards −x.
    west: i64,
    /// x of the nearest crossing towards +x.
    east: i64,
    /// y of the nearest crossing towards −y.
    south: i64,
    /// y of the nearest crossing towards +y.
    north: i64,
}

impl Reach {
    /// True if the segment from this reach's point to `to` properly
    /// crosses the indexed polyline: it runs strictly past the nearest
    /// crossing in its direction. A degenerate segment never does.
    ///
    /// `to` must be axis-aligned with the point.
    pub fn blocked(&self, to: Point) -> bool {
        debug_assert!(self.from.is_axis_aligned_with(to), "{} to {to}", self.from);
        if to.y == self.from.y {
            to.x > self.east || to.x < self.west
        } else {
            to.y > self.north || to.y < self.south
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteOption;

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn open_polyline_length_and_bends() {
        let pl = Polyline::open(vec![p(0, 0), p(10, 0), p(10, 10), p(20, 10)]);
        assert_eq!(pl.length(), 30);
        assert_eq!(pl.bend_count(), 2);
        assert_eq!(pl.segments().len(), 3);
    }

    #[test]
    fn closed_polyline_includes_closing_segment() {
        let ring = Polyline::closed(vec![p(0, 0), p(10, 0), p(10, 10), p(0, 10)]);
        assert_eq!(ring.length(), 40);
        assert_eq!(ring.segments().len(), 4);
        assert_eq!(ring.bend_count(), 4);
    }

    #[test]
    #[should_panic(expected = "axis-aligned")]
    fn diagonal_vertices_panic() {
        let _ = Polyline::open(vec![p(0, 0), p(5, 5)]);
    }

    #[test]
    fn crossings_between_polylines() {
        let ring = Polyline::closed(vec![p(0, 0), p(10, 0), p(10, 10), p(0, 10)]);
        let chord = Polyline::open(vec![p(-5, 5), p(15, 5)]);
        assert_eq!(ring.proper_crossings(&chord), 2);
    }

    #[test]
    fn route_conflict_with_ring() {
        let ring = Polyline::closed(vec![p(0, 0), p(100, 0), p(100, 100), p(0, 100)]);
        let index = ring.crossing_index();
        let crosses = |r: &LRoute| {
            let c = r.corner();
            index.reach(r.from()).blocked(c) || index.reach(r.to()).blocked(c)
        };
        // A chord between two ring vertices, inside the ring: its corner
        // grazes the ring corner at (100, 0), which offset routing
        // resolves — no transversal crossing, no conflict.
        let inside = LRoute::new(p(0, 0), p(100, 100), RouteOption::HorizontalFirst);
        assert!(!ring.route_conflicts(&inside));
        assert!(!crosses(&inside));
        // A route punching straight through the ring boundary conflicts.
        let through = LRoute::new(p(50, 50), p(200, 50), RouteOption::HorizontalFirst);
        assert!(ring.route_conflicts(&through));
        assert!(crosses(&through));
        // A route fully outside the ring does not conflict.
        let outside = LRoute::new(p(200, 0), p(300, 50), RouteOption::HorizontalFirst);
        assert!(!ring.route_conflicts(&outside));
        assert!(!crosses(&outside));
    }

    /// Tiny xorshift so the test needs no RNG dependency.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random closed rectilinear polyline on a 7x7 grid: alternating
    /// horizontal and vertical moves, so repeated coordinates make
    /// collinear overlaps, T-contacts and degenerate segments common.
    fn random_ring(state: &mut u64) -> Polyline {
        let turns = 2 + (xorshift(state) % 10) as usize;
        let mut coord = || (xorshift(state) % 7) as i64;
        let start = p(coord(), coord());
        let mut vertices = vec![start];
        let mut cur = start;
        for k in 0..turns {
            cur = match k % 2 {
                0 => p(coord(), cur.y),
                _ => p(cur.x, coord()),
            };
            vertices.push(cur);
        }
        // Close horizontally onto the start's x, then vertically home.
        vertices.push(p(start.x, cur.y));
        Polyline::closed(vertices)
    }

    #[test]
    fn crossing_index_agrees_with_pairwise_scan() {
        let mut state = 0x5EED_0001_u64;
        let (mut crossing, mut clear) = (0usize, 0usize);
        for _ in 0..400 {
            let ring = random_ring(&mut state);
            let index = ring.crossing_index();
            let segments = ring.segments();
            for _ in 0..60 {
                let mut coord = || (xorshift(&mut state) % 7) as i64;
                let (from, to) = (p(coord(), coord()), p(coord(), coord()));
                let option = RouteOption::BOTH[(xorshift(&mut state) % 2) as usize];
                let route = LRoute::new(from, to, option);
                // Leg 1 runs from `from` to the corner, leg 2 from the
                // corner to `to`: each is a ray segment from its endpoint.
                let corner = route.corner();
                let mut blocked = false;
                for end in [from, to] {
                    let leg = Segment::new(end, corner);
                    let scan = segments.iter().any(|s| leg.crosses_properly(s));
                    let reach = index.reach(end).blocked(corner);
                    assert_eq!(reach, scan, "{leg} vs {ring:?}");
                    blocked |= reach;
                }
                let scan = ring.route_conflicts(&route);
                assert_eq!(blocked, scan, "{route:?} vs {ring:?}");
                match scan {
                    true => crossing += 1,
                    false => clear += 1,
                }
            }
        }
        // Both outcomes must be well represented for the agreement to mean
        // anything.
        assert!(crossing > 1_000 && clear > 1_000, "{crossing} / {clear}");
    }

    #[test]
    fn from_routes_merges_chain() {
        let r1 = LRoute::new(p(0, 0), p(10, 10), RouteOption::HorizontalFirst);
        let r2 = LRoute::new(p(10, 10), p(20, 0), RouteOption::VerticalFirst);
        let pl = Polyline::from_routes(&[r1, r2]);
        assert_eq!(pl.length(), r1.length() + r2.length());
        assert_eq!(pl.vertices().first(), Some(&p(0, 0)));
        assert_eq!(pl.vertices().last(), Some(&p(20, 0)));
    }

    #[test]
    fn degenerate_route_chain() {
        let r1 = LRoute::new(p(0, 0), p(10, 0), RouteOption::HorizontalFirst);
        let pl = Polyline::from_routes(&[r1]);
        assert_eq!(pl.length(), 10);
        assert_eq!(pl.bend_count(), 0);
    }
}
