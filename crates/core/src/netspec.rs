//! Network specifications: node identities, positions and floorplans.
//!
//! The paper evaluates on 8-, 16- and 32-node networks using the node
//! locations of Proton+ \[15\] (Table I) and PSION+ \[20\] (Table II), with a
//! 32-node extension of the latter. The exact coordinates are not
//! published; [`NetworkSpec::proton_8`] etc. reconstruct grids whose pitch
//! reproduces the published ring perimeters (see DESIGN.md §2).

use crate::error::SynthesisError;
use std::fmt;
use xring_geom::Point;

/// Identifier of a network node (processing cluster / hub).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the spec's node list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A network to synthesize a router for: node positions on the optical
/// layer, plus all-to-all traffic (every node sends to every other node,
/// as in the paper's experiments).
///
/// # Example
///
/// ```
/// use xring_core::NetworkSpec;
///
/// let net = NetworkSpec::regular_grid(4, 4, 2_000)?;
/// assert_eq!(net.len(), 16);
/// assert_eq!(net.signal_count(), 16 * 15);
/// # Ok::<(), xring_core::SynthesisError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    positions: Vec<Point>,
}

impl NetworkSpec {
    /// Creates a spec from explicit positions (µm).
    ///
    /// # Errors
    ///
    /// [`SynthesisError::TooFewNodes`] for fewer than 3 nodes,
    /// [`SynthesisError::NetworkTooLarge`] for a coordinate beyond
    /// ±[`MAX_COORD_UM`] (which keeps every length sum and product the
    /// pipeline forms inside `i64`), or
    /// [`SynthesisError::DuplicateNodePositions`] when two nodes coincide.
    pub fn new(positions: Vec<Point>) -> Result<Self, SynthesisError> {
        if positions.len() < 3 {
            return Err(SynthesisError::TooFewNodes {
                got: positions.len(),
            });
        }
        let extent = positions
            .iter()
            .map(|p| p.x.unsigned_abs().max(p.y.unsigned_abs()))
            .max();
        check_extent(extent)?;
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                if positions[i] == positions[j] {
                    return Err(SynthesisError::DuplicateNodePositions { a: i, b: j });
                }
            }
        }
        Ok(NetworkSpec { positions })
    }

    /// A `rows x cols` grid with the given pitch (µm), node 0 at the
    /// origin, row-major order.
    ///
    /// # Errors
    ///
    /// As for [`new`](Self::new); a pitch that puts the far corner
    /// beyond ±[`MAX_COORD_UM`] is refused before any position is
    /// computed.
    pub fn regular_grid(rows: usize, cols: usize, pitch_um: i64) -> Result<Self, SynthesisError> {
        let span = rows.max(cols).saturating_sub(1) as u64;
        check_extent(span.checked_mul(pitch_um.unsigned_abs()))?;
        let mut positions = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Point::new(c as i64 * pitch_um, r as i64 * pitch_um));
            }
        }
        NetworkSpec::new(positions)
    }

    /// The 8-node floorplan used in Table I (Proton+ \[15\] node locations):
    /// a 2x4 grid whose pitch reproduces the published path lengths.
    pub fn proton_8() -> Self {
        Self::regular_grid(2, 4, 1_500).expect("static floorplan is valid")
    }

    /// The 16-node floorplan used in Table I (Proton+ \[15\]): 4x4 grid,
    /// 3.6 mm pitch (ring perimeter ≈ 57.6 mm, matching the published
    /// worst path lengths).
    pub fn proton_16() -> Self {
        Self::regular_grid(4, 4, 3_600).expect("static floorplan is valid")
    }

    /// The 8-node floorplan of Table II (PSION+ \[20\] locations).
    pub fn psion_8() -> Self {
        Self::regular_grid(2, 4, 1_500).expect("static floorplan is valid")
    }

    /// The 16-node floorplan of Table II/III (PSION+ \[20\] / ORing \[17\]
    /// locations): 4x4 grid, 2.0 mm pitch (perimeter 32 mm).
    pub fn psion_16() -> Self {
        Self::regular_grid(4, 4, 2_000).expect("static floorplan is valid")
    }

    /// The 32-node network of Table II: the 16-node floorplan extended in
    /// both node count and die dimension (4x8 grid, enlarged pitch).
    pub fn psion_32() -> Self {
        Self::regular_grid(4, 8, 4_000).expect("static floorplan is valid")
    }

    /// A pseudo-random irregular placement on a `die_um` square,
    /// deterministic in `seed` (nodes snapped to a 100 µm grid, collisions
    /// re-drawn).
    ///
    /// # Errors
    ///
    /// [`SynthesisError::DieTooSmall`] when the die has fewer than `n`
    /// grid sites (re-drawing could then never finish); otherwise as for
    /// [`new`](Self::new).
    pub fn irregular(n: usize, die_um: i64, seed: u64) -> Result<Self, SynthesisError> {
        // Small xorshift so the crate needs no RNG dependency.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cells = (die_um / 100).max(1) as u64;
        if n as u64 > cells.saturating_mul(cells) {
            return Err(SynthesisError::DieTooSmall {
                nodes: n,
                cells: cells.saturating_mul(cells),
            });
        }
        let mut positions: Vec<Point> = Vec::with_capacity(n);
        while positions.len() < n {
            let x = (next() % cells) as i64 * 100;
            let y = (next() % cells) as i64 * 100;
            let p = Point::new(x, y);
            if !positions.contains(&p) {
                positions.push(p);
            }
        }
        NetworkSpec::new(positions)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Always false (a valid spec has ≥ 3 nodes).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn position(&self, node: NodeId) -> Point {
        self.positions[node.index()]
    }

    /// All node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// All positions in node order.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Number of signals under all-to-all traffic: `N(N-1)`.
    pub fn signal_count(&self) -> usize {
        self.len() * (self.len() - 1)
    }

    /// All `(source, destination)` pairs under all-to-all traffic.
    pub fn signal_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let n = self.len() as u32;
        let mut pairs = Vec::with_capacity(self.signal_count());
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    pairs.push((NodeId(i), NodeId(j)));
                }
            }
        }
        pairs
    }

    /// Manhattan distance between two nodes, µm.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> i64 {
        self.position(a).manhattan_distance(self.position(b))
    }
}

/// Hard cap on the nodes of a [`Floorplan`]: synthesis cost grows
/// super-linearly, so this bounds the largest job one command line or
/// request can start.
pub const MAX_NODES: usize = 256;

/// Bound on the |x| and |y| of a [`Floorplan`]'s nodes, µm: 1 km, where
/// a die is a few cm. The perimeter of a ring through [`MAX_NODES`]
/// nodes (each edge at most `4 * MAX_COORD_UM`) then fits an `i64` with
/// over 10 bits to spare for the products of lengths the pipeline forms
/// (`realize` scales each edge by the spacing's extra perimeter). A bound
/// that only kept the perimeter in range, `i64::MAX / 1024`, overflowed
/// there.
pub const MAX_COORD_UM: i64 = 1_000_000_000;
const _: () = assert!((4 * MAX_NODES as i64 * MAX_COORD_UM) < i64::MAX / 1024);

/// A named floorplan: its name and its constructor.
pub type NamedFloorplan = (&'static str, fn() -> NetworkSpec);

/// The paper's floorplans, by the name a request gives them.
pub const NAMED_FLOORPLANS: &[NamedFloorplan] = &[
    ("proton_8", NetworkSpec::proton_8),
    ("proton_16", NetworkSpec::proton_16),
    ("psion_8", NetworkSpec::psion_8),
    ("psion_16", NetworkSpec::psion_16),
    ("psion_32", NetworkSpec::psion_32),
];

/// A floorplan as a command line or a request gives it, in one of the
/// forms of [`FloorplanForm::ALL`] (one variant per row, in order).
#[derive(Debug, Clone, PartialEq)]
pub enum Floorplan {
    /// A name of [`NAMED_FLOORPLANS`].
    Named(String),
    /// [`NetworkSpec::regular_grid`]`(rows, cols, pitch_um)`.
    Grid {
        rows: usize,
        cols: usize,
        pitch_um: i64,
    },
    /// [`NetworkSpec::new`]: explicit positions, µm.
    Positions(Vec<Point>),
    /// [`NetworkSpec::irregular`]`(n, die_um, seed)`.
    Irregular { n: usize, seed: u64, die_um: i64 },
}

/// One row of the floorplan table.
#[derive(Debug)]
pub struct FloorplanForm {
    /// The form's key in a request's `"net"` object.
    pub json: &'static str,
    /// The integer fields of its JSON object, in the order
    /// [`Floorplan::from_fields`] takes them. A field ending in `_um` is a
    /// length and may be negative; counts and seeds may not. Empty for
    /// `named` (a string) and `positions` (an array of `[x, y]` pairs).
    pub fields: &'static [&'static str],
    /// Its command-line flags with their values, none for the request-only
    /// forms. The parts of a value, split at `x` or `,`, set the next
    /// fields in order.
    pub flags: &'static [(&'static str, &'static str)],
}

impl FloorplanForm {
    /// The table, one row per [`Floorplan`] variant in order.
    pub const ALL: &'static [FloorplanForm] = &[
        FloorplanForm {
            json: "named",
            fields: &[],
            flags: &[],
        },
        FloorplanForm {
            json: "grid",
            fields: &["rows", "cols", "pitch_um"],
            flags: &[("--grid", "RxC"), ("--pitch", "UM")],
        },
        FloorplanForm {
            json: "positions",
            fields: &[],
            flags: &[],
        },
        FloorplanForm {
            json: "irregular",
            fields: &["n", "seed", "die_um"],
            flags: &[("--irregular", "N,SEED,DIE_UM")],
        },
    ];
}

impl Floorplan {
    /// The floorplan of form `json` from one value per field, in table
    /// order. A negative count saturates, so it fails
    /// [`build`](Self::build)'s size check.
    ///
    /// # Panics
    ///
    /// For a form without integer fields, or a wrong number of values.
    pub fn from_fields(json: &str, values: &[i64]) -> Self {
        let count = |v: i64| usize::try_from(v).unwrap_or(usize::MAX);
        match (json, values) {
            ("grid", &[rows, cols, pitch_um]) => Floorplan::Grid {
                rows: count(rows),
                cols: count(cols),
                pitch_um,
            },
            ("irregular", &[n, seed, die_um]) => Floorplan::Irregular {
                n: count(n),
                seed: seed as u64,
                die_um,
            },
            _ => panic!("no form {json} of {} integer fields", values.len()),
        }
    }

    /// Its integer field values: the inverse of
    /// [`from_fields`](Self::from_fields), empty for the other forms.
    pub fn fields(&self) -> Vec<i64> {
        match *self {
            Floorplan::Grid {
                rows,
                cols,
                pitch_um,
            } => vec![rows as i64, cols as i64, pitch_um],
            Floorplan::Irregular { n, seed, die_um } => vec![n as i64, seed as i64, die_um],
            _ => Vec::new(),
        }
    }

    /// Its row of [`FloorplanForm::ALL`].
    pub fn form(&self) -> &'static FloorplanForm {
        let row = match self {
            Floorplan::Named(_) => 0,
            Floorplan::Grid { .. } => 1,
            Floorplan::Positions(_) => 2,
            Floorplan::Irregular { .. } => 3,
        };
        &FloorplanForm::ALL[row]
    }

    /// Checks the node count and the largest |x| or |y| of each form,
    /// worked out from its fields by checked arithmetic before anything
    /// is allocated, against [`MAX_NODES`] and [`MAX_COORD_UM`]; then
    /// builds the network with the form's constructor.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::NetworkTooLarge`] past the limits,
    /// [`SynthesisError::UnknownNetwork`], or the constructor's error.
    pub fn build(self) -> Result<NetworkSpec, SynthesisError> {
        match self {
            Floorplan::Named(name) => match NAMED_FLOORPLANS.iter().find(|(n, _)| *n == name) {
                Some((_, net)) => Ok(net()),
                None => Err(SynthesisError::UnknownNetwork { name }),
            },
            Floorplan::Grid {
                rows,
                cols,
                pitch_um,
            } => {
                let span = rows.max(cols).saturating_sub(1) as u64;
                check_size(
                    rows.checked_mul(cols),
                    span.checked_mul(pitch_um.unsigned_abs()),
                )?;
                NetworkSpec::regular_grid(rows, cols, pitch_um)
            }
            Floorplan::Positions(points) => {
                let extent = points
                    .iter()
                    .map(|p| p.x.unsigned_abs().max(p.y.unsigned_abs()));
                check_size(Some(points.len()), Some(extent.max().unwrap_or(0)))?;
                NetworkSpec::new(points)
            }
            Floorplan::Irregular { n, seed, die_um } => {
                // Sites lie in [0, die_um).
                check_size(Some(n), Some(die_um.max(0) as u64))?;
                NetworkSpec::irregular(n, die_um, seed)
            }
        }
    }
}

/// Refuses `nodes` above [`MAX_NODES`] or a largest |x| or |y| of
/// `extent` above [`MAX_COORD_UM`] (`None`: the arithmetic overflowed).
fn check_size(nodes: Option<usize>, extent: Option<u64>) -> Result<(), SynthesisError> {
    let detail = match nodes {
        Some(n) if n > MAX_NODES => format!("{n} nodes exceeds the limit of {MAX_NODES}"),
        None => format!("more than {MAX_NODES} nodes (the count overflows)"),
        Some(_) => return check_extent(extent),
    };
    Err(SynthesisError::NetworkTooLarge { detail })
}

/// Refuses a largest |x| or |y| of `extent` above [`MAX_COORD_UM`]
/// (`None`: the arithmetic overflowed).
fn check_extent(extent: Option<u64>) -> Result<(), SynthesisError> {
    match extent {
        Some(c) if c <= MAX_COORD_UM as u64 => Ok(()),
        _ => Err(SynthesisError::NetworkTooLarge {
            detail: format!("a coordinate exceeds the limit of +-{MAX_COORD_UM} um"),
        }),
    }
}

/// Floorplans the kernel oracle tests compare each fast kernel with its
/// reference on: seeded irregular placements of 5–8, 16, 64 and 128
/// nodes (small dies make dense ones, whose nodes share coordinates),
/// and grids, whose equal distances and aligned edges exercise the index
/// tie-breaks and the closed-box boundaries.
#[cfg(test)]
pub(crate) fn oracle_floorplans() -> Vec<(String, NetworkSpec)> {
    let mut nets = Vec::new();
    for seed in 1..=3u64 {
        for (n, die_um) in [
            (5, 600),
            (6, 1_000),
            (7, 1_000),
            (8, 1_500),
            (16, 2_500),
            (64, 8_000),
            (128, 28_000),
        ] {
            let net = NetworkSpec::irregular(n, die_um, seed).expect("irregular");
            nets.push((format!("irregular {n}/{die_um} seed {seed}"), net));
        }
    }
    for (rows, cols) in [(2, 2), (3, 3), (2, 5), (4, 4), (8, 8), (12, 12)] {
        let net = NetworkSpec::regular_grid(rows, cols, 1_000).expect("grid");
        nets.push((format!("grid {rows}x{cols}"), net));
    }
    nets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_expected_positions() {
        let net = NetworkSpec::regular_grid(2, 3, 100).expect("valid");
        assert_eq!(net.len(), 6);
        assert_eq!(net.position(NodeId(0)), Point::new(0, 0));
        assert_eq!(net.position(NodeId(5)), Point::new(200, 100));
    }

    #[test]
    fn library_constructors_refuse_coordinates_beyond_the_limit() {
        // A 1e15 µm pitch once reached `realize`'s unchecked length
        // products and panicked there in debug builds; now the
        // constructors refuse it with the floorplan table's error.
        let far = 1_000_000_000_000_000;
        for pitch in [far, -far, i64::MAX, i64::MIN] {
            let err = NetworkSpec::regular_grid(4, 4, pitch);
            assert!(
                matches!(err, Err(SynthesisError::NetworkTooLarge { .. })),
                "pitch {pitch}: {err:?}"
            );
        }
        let err = NetworkSpec::new(vec![Point::new(0, 0), Point::new(far, 0), Point::new(0, 1)]);
        assert!(matches!(err, Err(SynthesisError::NetworkTooLarge { .. })));
        // The limit itself is inside.
        let edge = NetworkSpec::regular_grid(2, 2, MAX_COORD_UM).expect("at the limit");
        assert_eq!(
            edge.position(NodeId(3)),
            Point::new(MAX_COORD_UM, MAX_COORD_UM)
        );
        assert!(NetworkSpec::regular_grid(3, 3, MAX_COORD_UM).is_err());
    }

    #[test]
    fn too_few_nodes_rejected() {
        let err = NetworkSpec::new(vec![Point::new(0, 0), Point::new(1, 0)]);
        assert!(matches!(err, Err(SynthesisError::TooFewNodes { got: 2 })));
    }

    #[test]
    fn duplicate_positions_rejected() {
        let err = NetworkSpec::new(vec![Point::new(0, 0), Point::new(5, 5), Point::new(0, 0)]);
        assert!(matches!(
            err,
            Err(SynthesisError::DuplicateNodePositions { a: 0, b: 2 })
        ));
    }

    #[test]
    fn floorplans_have_paper_sizes() {
        assert_eq!(NetworkSpec::proton_8().len(), 8);
        assert_eq!(NetworkSpec::proton_16().len(), 16);
        assert_eq!(NetworkSpec::psion_16().len(), 16);
        assert_eq!(NetworkSpec::psion_32().len(), 32);
    }

    #[test]
    fn all_to_all_pairs() {
        let net = NetworkSpec::proton_8();
        let pairs = net.signal_pairs();
        assert_eq!(pairs.len(), 56);
        assert!(pairs.iter().all(|(a, b)| a != b));
    }

    #[test]
    fn irregular_is_deterministic_and_collision_free() {
        let a = NetworkSpec::irregular(12, 10_000, 42).expect("valid");
        let b = NetworkSpec::irregular(12, 10_000, 42).expect("valid");
        assert_eq!(a, b);
        let c = NetworkSpec::irregular(12, 10_000, 43).expect("valid");
        assert_ne!(a, c);
    }

    #[test]
    fn irregular_rejects_more_nodes_than_die_sites() {
        // Run on a thread so that a placement that never finishes fails
        // the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // A 100 µm die has one site; a 300 µm die has nine.
            let got = [(2, 100), (10, 300), (9, 300)]
                .map(|(n, die_um)| NetworkSpec::irregular(n, die_um, 1).map(|net| net.len()));
            let _ = tx.send(got);
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("placement finishes");
        assert_eq!(
            got,
            [
                Err(SynthesisError::DieTooSmall { nodes: 2, cells: 1 }),
                Err(SynthesisError::DieTooSmall {
                    nodes: 10,
                    cells: 9
                }),
                Ok(9),
            ]
        );
    }

    #[test]
    fn distance_is_manhattan() {
        let net = NetworkSpec::regular_grid(2, 2, 1_000).expect("valid");
        assert_eq!(net.distance(NodeId(0), NodeId(3)), 2_000);
    }
}
