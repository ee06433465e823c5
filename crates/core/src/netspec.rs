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
    /// [`SynthesisError::TooFewNodes`] for fewer than 3 nodes, or
    /// [`SynthesisError::DuplicateNodePositions`] when two nodes coincide.
    pub fn new(positions: Vec<Point>) -> Result<Self, SynthesisError> {
        if positions.len() < 3 {
            return Err(SynthesisError::TooFewNodes {
                got: positions.len(),
            });
        }
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
    /// As for [`new`](Self::new).
    pub fn regular_grid(rows: usize, cols: usize, pitch_um: i64) -> Result<Self, SynthesisError> {
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
