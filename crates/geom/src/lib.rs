//! Orthogonal (Manhattan) geometry kernel for wavelength-routed optical
//! ring-router synthesis.
//!
//! This crate provides the geometric substrate used by the XRing synthesis
//! pipeline (DATE 2023):
//!
//! * [`Point`] — exact integer-micrometre coordinates,
//! * [`Segment`] — axis-aligned waveguide segments with exact crossing
//!   predicates (no floating point, no epsilons),
//! * [`LRoute`] — the two L-shaped routing options of an edge between two
//!   nodes (horizontal-then-vertical or vertical-then-horizontal, Fig. 6(b)
//!   of the paper),
//! * [`Polyline`] — rectilinear waveguide paths with crossing detection,
//! * [`conflict`] — the pairwise edge-conflict classification used by the
//!   ring-construction MILP (Fig. 6(c)/(d)),
//! * [`twosat`] — a 2-SAT solver used to pick one routing option per selected
//!   edge so the realized ring is globally crossing-free.
//!
//! # Example
//!
//! ```
//! use xring_geom::{Point, LRoute, RouteOption};
//!
//! let a = Point::new(0, 0);
//! let b = Point::new(3_000, 2_000);
//! let route = LRoute::new(a, b, RouteOption::HorizontalFirst);
//! assert_eq!(route.length(), 5_000); // Manhattan distance in micrometres
//! ```

pub mod conflict;
pub mod point;
pub mod polyline;
pub mod route;
pub mod segment;
pub mod twosat;

pub use conflict::{classify_edge_pair, EdgeConflict, OptionPairMatrix};
pub use point::Point;
pub use polyline::{Polyline, Reach};
pub use route::{LRoute, RouteOption};
pub use segment::{Segment, SegmentIntersection};
pub use twosat::{TwoSat, TwoSatSolution};
