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

    /// How far each axis ray from each point of `points` runs before it
    /// properly crosses this polyline, in order.
    ///
    /// Only perpendicular axis-aligned segments can cross properly:
    /// collinear ones either overlap or touch at an endpoint. A segment
    /// from `p` along an axis properly crosses a perpendicular segment of
    /// the polyline when the crossing lies strictly inside both, so each
    /// direction needs only the nearest such segment, strictly beyond
    /// `p`, whose open span contains `p`'s other coordinate. With the
    /// polyline's horizontal and vertical segments sorted by their fixed
    /// coordinate, one sweep per direction finds it for all points: the
    /// points are ranked by their other coordinate, and each segment, met
    /// in sweep order, claims the run of ranks its open span straddles.
    /// O((P + S) log(P + S)) plus the ranks claimed, for P points and S
    /// segments. An L-route is two axis-aligned segments, one from each
    /// endpoint to the corner.
    ///
    /// # Example
    ///
    /// ```
    /// use xring_geom::{Point, Polyline};
    ///
    /// let ring = Polyline::closed(vec![
    ///     Point::new(0, 0),
    ///     Point::new(100, 0),
    ///     Point::new(100, 100),
    ///     Point::new(0, 100),
    /// ]);
    /// let reach = ring.reach_all(&[Point::new(50, 50), Point::new(200, 50)]);
    /// // From (50, 50) the horizontal rays cross the ring at x = 0 and 100,
    /// assert_eq!(reach[0].x_span(), (0, 100));
    /// // from (200, 50) only the ray towards -x does, at x = 100.
    /// assert_eq!(reach[1].x_span(), (100, i64::MAX));
    /// ```
    pub fn reach_all(&self, points: &[Point]) -> Vec<Reach> {
        let (mut horizontal, mut vertical) = (Vec::new(), Vec::new());
        for s in self.segments() {
            let (a, b) = (s.start(), s.end());
            match s.is_horizontal() {
                true => horizontal.push(AxisSpan::new(a.y, a.x, b.x)),
                false => vertical.push(AxisSpan::new(a.x, a.y, b.y)),
            }
        }
        let x_rays = nearest_all(vertical, points, |p| (p.x, p.y));
        let y_rays = nearest_all(horizontal, points, |p| (p.y, p.x));
        (x_rays.into_iter().zip(y_rays))
            .map(|((west, east), (south, north))| Reach {
                west,
                east,
                south,
                north,
            })
            .collect()
    }

    /// Brute-force reference for [`reach_all`](Self::reach_all) on both legs of
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
    #[cfg(test)]
    fn straddles(&self, c: i64) -> bool {
        self.lo < c && c < self.hi
    }
}

/// For each point, the fixed coordinates of the nearest `spans` below and
/// above it along one axis that straddle its other coordinate: `axes(p)`
/// is `(along, across)`. `i64::MIN`/`i64::MAX` where none does.
fn nearest_all(
    mut spans: Vec<AxisSpan>,
    points: &[Point],
    axes: impl Fn(Point) -> (i64, i64),
) -> Vec<(i64, i64)> {
    spans.sort_unstable();
    let keys: Vec<(i64, i64)> = points.iter().map(|&p| axes(p)).collect();
    let mut by_across: Vec<usize> = (0..keys.len()).collect();
    by_across.sort_unstable_by_key(|&k| keys[k].1);
    let across: Vec<i64> = by_across.iter().map(|&k| keys[k].1).collect();
    let mut rank = vec![0; keys.len()];
    for (r, &k) in by_across.iter().enumerate() {
        rank[k] = r;
    }
    // The ranks each span straddles: those strictly inside its open span.
    let runs: Vec<(usize, usize)> = (spans.iter())
        .map(|t| {
            let lo = across.partition_point(|&c| c <= t.lo);
            (lo, across.partition_point(|&c| c < t.hi).max(lo))
        })
        .collect();
    let mut by_along: Vec<usize> = (0..keys.len()).collect();
    by_along.sort_unstable_by_key(|&k| keys[k].0);
    let mut out = vec![(i64::MIN, i64::MAX); keys.len()];
    // Upward: spans strictly below each point, nearest last.
    let (mut claim, mut s) = (vec![i64::MIN; keys.len()], 0);
    for &k in &by_along {
        while s < spans.len() && spans[s].at < keys[k].0 {
            claim[runs[s].0..runs[s].1].fill(spans[s].at);
            s += 1;
        }
        out[k].0 = claim[rank[k]];
    }
    // Downward: spans strictly above each point, nearest last.
    claim.fill(i64::MAX);
    s = spans.len();
    for &k in by_along.iter().rev() {
        while s > 0 && spans[s - 1].at > keys[k].0 {
            s -= 1;
            claim[runs[s].0..runs[s].1].fill(spans[s].at);
        }
        out[k].1 = claim[rank[k]];
    }
    out
}

/// How far each axis ray from one point runs before it properly crosses
/// a polyline, from [`Polyline::reach_all`]. A bound is
/// `i64::MAX` (or `i64::MIN`) when the ray never crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reach {
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
    /// The x-interval the horizontal rays reach, ends included: a
    /// horizontal segment from the point properly crosses the polyline
    /// exactly when its other end lies outside.
    pub fn x_span(&self) -> (i64, i64) {
        (self.west, self.east)
    }

    /// The y-interval the vertical rays reach, ends included; see
    /// [`x_span`](Self::x_span).
    pub fn y_span(&self) -> (i64, i64) {
        (self.south, self.north)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteOption;

    fn p(x: i64, y: i64) -> Point {
        Point::new(x, y)
    }

    /// True if the segment from `from`, whose reach is `r`, to `to`
    /// properly crosses the polyline: it runs strictly past the
    /// nearest crossing in its direction. `to` is axis-aligned with `from`.
    fn blocked(r: &Reach, from: Point, to: Point) -> bool {
        let ((west, east), (south, north)) = (r.x_span(), r.y_span());
        match to.y == from.y {
            true => !(west..=east).contains(&to.x),
            false => !(south..=north).contains(&to.y),
        }
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
        let crosses = |r: &LRoute| {
            let reach = ring.reach_all(&[r.from(), r.to()]);
            blocked(&reach[0], r.from(), r.corner()) || blocked(&reach[1], r.to(), r.corner())
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
    fn reach_agrees_with_pairwise_scan() {
        let mut state = 0x5EED_0001_u64;
        let (mut crossing, mut clear) = (0usize, 0usize);
        for _ in 0..400 {
            let ring = random_ring(&mut state);
            let segments = ring.segments();
            for _ in 0..60 {
                let mut coord = || (xorshift(&mut state) % 7) as i64;
                let (from, to) = (p(coord(), coord()), p(coord(), coord()));
                let option = RouteOption::BOTH[(xorshift(&mut state) % 2) as usize];
                let route = LRoute::new(from, to, option);
                // Leg 1 runs from `from` to the corner, leg 2 from the
                // corner to `to`: each is a ray segment from its endpoint.
                let corner = route.corner();
                let mut either = false;
                for end in [from, to] {
                    let leg = Segment::new(end, corner);
                    let scan = segments.iter().any(|s| leg.crosses_properly(s));
                    let reach = blocked(&ring.reach_all(&[end])[0], end, corner);
                    assert_eq!(reach, scan, "{leg} vs {ring:?}");
                    either |= reach;
                }
                let scan = ring.route_conflicts(&route);
                assert_eq!(either, scan, "{route:?} vs {ring:?}");
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

    /// The per-point search that [`Polyline::reach_all`] replaced: binary
    /// search to the point in the sorted spans, then a scan outward to
    /// the first straddling span, in each of the four directions.
    fn reach_by_search(ring: &Polyline, p: Point) -> Reach {
        let (mut horizontal, mut vertical) = (Vec::new(), Vec::new());
        for s in ring.segments() {
            let (a, b) = (s.start(), s.end());
            match s.is_horizontal() {
                true => horizontal.push(AxisSpan::new(a.y, a.x, b.x)),
                false => vertical.push(AxisSpan::new(a.x, a.y, b.y)),
            }
        }
        horizontal.sort_unstable();
        vertical.sort_unstable();
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
        let (west, east) = nearest(&vertical, p.x, p.y);
        let (south, north) = nearest(&horizontal, p.y, p.x);
        Reach {
            west,
            east,
            south,
            north,
        }
    }

    #[test]
    fn reach_all_matches_the_per_point_search() {
        let mut state = 0x5EED_0002_u64;
        let mut bounded = 0usize;
        for _ in 0..400 {
            let ring = random_ring(&mut state);
            // Points on a grid one wider than the ring's, so many share a
            // coordinate with each other and with the ring's segments;
            // the ring's own vertices are queried too.
            let count = (xorshift(&mut state) % 40) as usize;
            let mut points: Vec<Point> = (0..count)
                .map(|_| {
                    let mut coord = || (xorshift(&mut state) % 9) as i64 - 1;
                    p(coord(), coord())
                })
                .collect();
            points.extend(ring.vertices());
            let want: Vec<Reach> = points.iter().map(|&q| reach_by_search(&ring, q)).collect();
            assert_eq!(ring.reach_all(&points), want, "{ring:?}");
            bounded += (want.iter())
                .flat_map(|r| [r.west, r.east, r.south, r.north])
                .filter(|&b| b != i64::MIN && b != i64::MAX)
                .count();
        }
        assert!(bounded > 4_000, "only {bounded} rays cross the ring");
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
