//! Step 4: crossing-free power distribution network design (Sec. III-D).
//!
//! Each ring waveguide gets a complete-binary-tree splitter network over
//! its senders: starting from the opening node's sender and following the
//! transmission direction, neighbouring senders are joined by a waveguide
//! with a 50/50 splitter at its midpoint, then neighbouring splitters are
//! joined, level by level, until one top splitter remains. The PDN
//! waveguides run between the paired ring waveguides (spacing
//! `A₁ + ⌈log₂N⌉·A₂`) and reach the senders through the ring openings, so
//! they cross no ring waveguide. Top splitters of all trees are fed from
//! the off-chip laser through a distribution stage.

use crate::mapping::MappingPlan;
use crate::netspec::{NetworkSpec, NodeId};
use crate::ring::{Direction, RingCycle};
use crate::shortcut::ShortcutPlan;
use std::collections::BTreeMap;
use xring_geom::Point;
use xring_phot::elements::SPLIT_3DB;
use xring_phot::LossParams;

/// Group key for sender-loss lookup: ring waveguide index, or
/// [`SHORTCUT_GROUP`] for the shortcut senders' shared tree.
pub type PdnGroup = usize;

/// The group id used for all shortcut senders.
pub const SHORTCUT_GROUP: PdnGroup = usize::MAX;

/// One splitter tree of the PDN.
#[derive(Debug, Clone, PartialEq)]
pub struct PdnTree {
    /// The group this tree supplies.
    pub group: PdnGroup,
    /// Pairing rounds (= splitter levels) in this tree.
    pub depth: usize,
    /// Number of supplied senders.
    pub leaves: usize,
    /// Total PDN waveguide length in this tree, µm.
    pub length_um: i64,
}

/// The designed PDN.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PdnDesign {
    /// Loss from the laser to each `(group, sender node)`, in dB.
    pub sender_loss_db: BTreeMap<(PdnGroup, u32), f64>,
    /// Per-tree summaries.
    pub trees: Vec<PdnTree>,
    /// Total PDN waveguide length, µm (trees + distribution).
    pub total_length_um: i64,
    /// Ring waveguides the PDN had to cross (indices); empty when every
    /// ring waveguide has an opening.
    pub crossed_waveguides: Vec<usize>,
}

impl PdnDesign {
    /// Laser-to-sender loss for a signal whose first hop starts at `node`
    /// in `group`.
    ///
    /// # Panics
    ///
    /// Panics if the `(group, node)` pair has no sender in this PDN.
    pub fn loss_for(&self, group: PdnGroup, node: NodeId) -> f64 {
        *self
            .sender_loss_db
            .get(&(group, node.0))
            .unwrap_or_else(|| panic!("no PDN sender for group {group} node {node}"))
    }
}

/// Designs the PDN for a mapped plan.
///
/// `laser` is the on-die coupling point of the off-chip laser.
pub fn design_pdn(
    net: &NetworkSpec,
    cycle: &RingCycle,
    plan: &MappingPlan,
    shortcuts: &ShortcutPlan,
    loss: &LossParams,
    laser: Point,
) -> PdnDesign {
    let mut design = PdnDesign::default();
    let mut roots: Vec<(PdnGroup, Point)> = Vec::new();
    // Leaf losses per tree, merged after the distribution stage is known.
    let mut tree_leaf_losses: Vec<(PdnGroup, Vec<(u32, LeafCost)>)> = Vec::new();

    // Shortcut senders sit at node positions that already host ring
    // senders, and are supplied through the same openings; they join the
    // innermost ring waveguide's tree instead of needing one of their own.
    let shortcut_nodes: Vec<u32> = {
        let mut v: Vec<u32> = shortcuts
            .shortcuts
            .iter()
            .flat_map(|s| [s.a.0, s.b.0])
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };

    // When every signal rides a shortcut there is no ring waveguide to
    // host the shortcut senders; they then get a tree of their own,
    // ordered clockwise from the first ring node.
    let shortcut_only = (plan.ring_waveguides.is_empty() && !shortcut_nodes.is_empty())
        .then_some((SHORTCUT_GROUP, None, Direction::Cw, Vec::new()));
    let groups = plan
        .ring_waveguides
        .iter()
        .enumerate()
        .map(|(wi, wg)| {
            let senders = wg
                .lanes
                .iter()
                .flat_map(|l| l.arcs.iter().map(|a| cycle.order()[a.from_pos].0))
                .collect();
            (wi, wg.opening, wg.direction, senders)
        })
        .chain(shortcut_only);
    for (group, opening, direction, mut sender_nodes) in groups {
        if group == 0 || group == SHORTCUT_GROUP {
            sender_nodes.extend(shortcut_nodes.iter().copied());
        }
        sender_nodes.sort_unstable();
        sender_nodes.dedup();
        if sender_nodes.is_empty() {
            continue;
        }
        // Order leaves starting at the opening node, following the
        // transmission direction.
        let start = opening.unwrap_or(0);
        let n = cycle.len();
        let (mut nodes, mut points) = (Vec::new(), Vec::new());
        for k in 0..n {
            let pos = match direction {
                Direction::Cw => (start + k) % n,
                Direction::Ccw => (start + n - k % n) % n,
            };
            let node = cycle.order()[pos];
            if sender_nodes.binary_search(&node.0).is_ok() {
                nodes.push(node.0);
                points.push(net.position(node));
            }
        }
        let (leaf_loss, depth, length, root) = build_tree(&points, loss);
        design.trees.push(PdnTree {
            group,
            depth,
            leaves: nodes.len(),
            length_um: length,
        });
        design.total_length_um += length;
        roots.push((group, root));
        tree_leaf_losses.push((group, nodes.into_iter().zip(leaf_loss).collect()));
        if opening.is_none() && group != SHORTCUT_GROUP {
            design.crossed_waveguides.push(group);
        }
    }

    // Distribution stage: from the laser to every tree root. The
    // within-tree splitters are 50/50 (paper: "complete binary tree"),
    // but the inter-tree distribution uses ideal asymmetric taps — an
    // even 1:T split costs `10*log10(T)` dB for every tree plus one
    // excess-loss term per tap level. (A 50/50 chain here would make
    // power jump 2x whenever the tree count crosses a power of two,
    // which neither the paper's numbers nor real tap chains show.)
    // Waveguide lengths still follow the geometric binary pairing.
    let mut dist_loss: BTreeMap<PdnGroup, f64> = BTreeMap::new();
    if !roots.is_empty() {
        let items: Vec<Point> = roots.iter().map(|(_, p)| *p).collect();
        let (per_root, depth, length, super_root) = build_tree(&items, loss);
        design.total_length_um += length;
        let lead = laser.manhattan_distance(super_root);
        design.total_length_um += lead;
        let lead_db = loss.propagation_db_per_cm * (lead as f64 / 10_000.0);
        let even_split_db =
            10.0 * (roots.len() as f64).log10() + depth as f64 * loss.splitter_excess_db;
        for (k, (group, _)) in roots.iter().enumerate() {
            let cost = per_root[k];
            dist_loss.insert(*group, even_split_db + cost.propagation_db + lead_db);
        }
    }

    for (group, leaf_loss) in tree_leaf_losses {
        let base = dist_loss.get(&group).copied().unwrap_or(0.0);
        for (node, c) in leaf_loss {
            let total = base + c.total_db(loss);
            design.sender_loss_db.insert((group, node), total);
            // Shortcut senders draw from ring tree 0's leaves.
            if group == 0 && shortcut_nodes.binary_search(&node).is_ok() {
                design.sender_loss_db.insert((SHORTCUT_GROUP, node), total);
            }
        }
    }
    design
}

/// Per-leaf cost components of a splitter tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LeafCost {
    /// 50/50 splitters passed between the tree root and the leaf.
    pub splits: usize,
    /// Waveguide propagation between the tree root and the leaf, dB.
    pub propagation_db: f64,
}

impl LeafCost {
    /// Total dB with 50/50 splitters.
    pub fn total_db(&self, loss: &LossParams) -> f64 {
        self.splits as f64 * (SPLIT_3DB + loss.splitter_excess_db) + self.propagation_db
    }
}

/// Builds a complete binary splitter tree over ordered leaves. Returns
/// `(per-leaf cost in leaf order, depth, total waveguide length, root
/// position)`.
///
/// Every tree node covers a contiguous range of leaves, so one flat cost
/// array is updated in place range by range; each leaf's propagation sum
/// adds the same terms in the same order as a per-node map merge would.
fn build_tree(leaves: &[Point], loss: &LossParams) -> (Vec<LeafCost>, usize, i64, Point) {
    assert!(!leaves.is_empty(), "tree needs at least one leaf");
    let mut costs = vec![LeafCost::default(); leaves.len()];
    // Each level entry: (position, first leaf under it). An entry's
    // leaves end where the next entry's begin.
    let mut level: Vec<(Point, usize)> = leaves.iter().enumerate().map(|(k, p)| (*p, k)).collect();
    let mut next: Vec<(Point, usize)> = Vec::with_capacity(level.len() / 2 + 1);
    let mut depth = 0usize;
    let mut total_len = 0i64;
    while level.len() > 1 {
        depth += 1;
        next.clear();
        for (k, pair) in level.chunks(2).enumerate() {
            let [(a, first), (b, split)] = *pair else {
                // Odd leftover: promoted without a split.
                next.push(pair[0]);
                continue;
            };
            let end = level.get(2 * k + 2).map_or(leaves.len(), |e| e.1);
            let mid = Point::new((a.x + b.x) / 2, (a.y + b.y) / 2);
            for (pos, range) in [(a, first..split), (b, split..end)] {
                let d = mid.manhattan_distance(pos);
                total_len += d;
                let prop = loss.propagation_db_per_cm * (d as f64 / 10_000.0);
                for c in &mut costs[range] {
                    c.splits += 1;
                    c.propagation_db += prop;
                }
            }
            next.push((mid, first));
        }
        std::mem::swap(&mut level, &mut next);
    }
    (costs, depth, total_len, level[0].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::map_signals;
    use crate::opening::open_rings;
    use crate::ring::RingBuilder;
    use crate::shortcut::plan_shortcuts;

    fn full_plan(net: &NetworkSpec, wl: usize) -> (RingCycle, ShortcutPlan, MappingPlan) {
        let ring = RingBuilder::new().build(net).expect("ring");
        let sc = plan_shortcuts(net, &ring.cycle);
        let mut plan = map_signals(net, &ring.cycle, &sc, wl, 0).expect("mapped");
        open_rings(&ring.cycle, &mut plan, wl);
        (ring.cycle, sc, plan)
    }

    #[test]
    fn every_sender_gets_a_loss() {
        let net = NetworkSpec::proton_8();
        let (cycle, sc, plan) = full_plan(&net, 8);
        let pdn = design_pdn(
            &net,
            &cycle,
            &plan,
            &sc,
            &LossParams::default(),
            Point::new(-1_000, -1_000),
        );
        for (wi, wg) in plan.ring_waveguides.iter().enumerate() {
            for lane in &wg.lanes {
                for arc in &lane.arcs {
                    let node = cycle.order()[arc.from_pos];
                    let l = pdn.loss_for(wi, node);
                    assert!(l > 0.0, "sender loss must be positive");
                }
            }
        }
    }

    /// The original tree builder: one map of leaf costs per tree node,
    /// merged pairwise level by level. Leaves are keyed by their index.
    fn reference_build_tree(
        leaves: &[Point],
        loss: &LossParams,
    ) -> (BTreeMap<u32, LeafCost>, usize, i64, Point) {
        let mut level: Vec<(Point, BTreeMap<u32, LeafCost>)> = leaves
            .iter()
            .enumerate()
            .map(|(k, p)| (*p, BTreeMap::from([(k as u32, LeafCost::default())])))
            .collect();
        let mut depth = 0usize;
        let mut total_len = 0i64;
        while level.len() > 1 {
            depth += 1;
            let mut next = Vec::new();
            let mut iter = level.into_iter();
            while let Some(a) = iter.next() {
                let Some(b) = iter.next() else {
                    next.push(a);
                    continue;
                };
                let mid = Point::new((a.0.x + b.0.x) / 2, (a.0.y + b.0.y) / 2);
                let mut merged = BTreeMap::new();
                for (pos, map) in [a, b] {
                    let d = mid.manhattan_distance(pos);
                    total_len += d;
                    let prop = loss.propagation_db_per_cm * (d as f64 / 10_000.0);
                    for (leaf, c) in map {
                        let splits = c.splits + 1;
                        let propagation_db = c.propagation_db + prop;
                        merged.insert(
                            leaf,
                            LeafCost {
                                splits,
                                propagation_db,
                            },
                        );
                    }
                }
                next.push((mid, merged));
            }
            level = next;
        }
        let (root, costs) = level.pop().expect("root exists");
        (costs, depth, total_len, root)
    }

    #[test]
    fn flat_tree_matches_the_map_merge_reference_bit_for_bit() {
        let loss = LossParams {
            propagation_db_per_cm: 0.274_1,
            ..LossParams::default()
        };
        let mut leaf_sets: Vec<Vec<Point>> = Vec::new();
        for (_, net) in crate::netspec::oracle_floorplans() {
            let points = net.positions();
            for len in [1, 2, 3, 5, 7, 8, 9, 31, 33, points.len()] {
                leaf_sets.push(points[..len.min(points.len())].to_vec());
            }
        }
        for leaves in &leaf_sets {
            let (costs, depth, len, root) = build_tree(leaves, &loss);
            let (want, want_depth, want_len, want_root) = reference_build_tree(leaves, &loss);
            assert_eq!((depth, len, root), (want_depth, want_len, want_root));
            assert_eq!(costs.len(), want.len());
            for (k, c) in costs.iter().enumerate() {
                let w = want[&(k as u32)];
                assert_eq!(c.splits, w.splits, "leaf {k} of {}", leaves.len());
                assert_eq!(
                    c.propagation_db.to_bits(),
                    w.propagation_db.to_bits(),
                    "leaf {k} of {}",
                    leaves.len()
                );
            }
        }
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let leaves: Vec<Point> = (0..16).map(|i| Point::new(i * 1_000, 0)).collect();
        let (losses, depth, len, _) = build_tree(&leaves, &LossParams::default());
        assert_eq!(depth, 4); // ceil(log2 16)
        assert_eq!(losses.len(), 16);
        assert!(len > 0);
        // Every leaf passes exactly 4 splitters in a perfect tree:
        // loss >= 4 * 3.01 dB.
        let lp = LossParams::default();
        for c in &losses {
            assert_eq!(c.splits, 4);
            assert!(c.total_db(&lp) >= 4.0 * 3.0, "leaf loss too small");
        }
    }

    #[test]
    fn odd_leaf_counts_work() {
        for count in [1i64, 3, 5, 7, 9] {
            let leaves: Vec<Point> = (0..count).map(|i| Point::new(i * 500, 0)).collect();
            let (losses, depth, _, _) = build_tree(&leaves, &LossParams::default());
            assert_eq!(losses.len(), count as usize);
            assert_eq!(depth, (count as f64).log2().ceil() as usize);
        }
    }

    #[test]
    fn crossing_free_when_all_opened() {
        let net = NetworkSpec::proton_8();
        let (cycle, sc, plan) = full_plan(&net, 8);
        assert!(plan.ring_waveguides.iter().all(|w| w.opening.is_some()));
        let pdn = design_pdn(
            &net,
            &cycle,
            &plan,
            &sc,
            &LossParams::default(),
            Point::new(0, 0),
        );
        assert!(pdn.crossed_waveguides.is_empty());
    }

    #[test]
    fn shortcut_senders_supplied() {
        let net = NetworkSpec::psion_16();
        let (cycle, sc, plan) = full_plan(&net, 14);
        if sc.shortcuts.is_empty() {
            return; // nothing to check on this floorplan
        }
        let pdn = design_pdn(
            &net,
            &cycle,
            &plan,
            &sc,
            &LossParams::default(),
            Point::new(0, 0),
        );
        for s in &sc.shortcuts {
            assert!(pdn.sender_loss_db.contains_key(&(SHORTCUT_GROUP, s.a.0)));
            assert!(pdn.sender_loss_db.contains_key(&(SHORTCUT_GROUP, s.b.0)));
        }
    }

    #[test]
    fn shortcut_senders_get_a_tree_when_no_ring_waveguide_exists() {
        // Seeded floorplan whose permutation traffic rides shortcuts
        // only: no ring waveguide is mapped, so there is no tree 0 for
        // the shortcut senders to join.
        use crate::synth::{SynthesisOptions, Synthesizer};
        use crate::traffic::Traffic;
        let positions = [
            (3100, 1200),
            (1500, 5200),
            (1000, 1700),
            (4300, 5400),
            (3000, 4500),
            (500, 3900),
        ];
        let net = NetworkSpec::new(positions.iter().map(|&(x, y)| Point::new(x, y)).collect())
            .expect("valid floorplan");
        let options = SynthesisOptions {
            traffic: Traffic::Permutation { seed: 13 },
            ..SynthesisOptions::with_wavelengths(8)
        };
        let design = Synthesizer::new(options)
            .synthesize(&net)
            .expect("synthesized");
        assert!(design.plan.ring_waveguides.is_empty());
        let pdn = design.pdn.as_ref().expect("pdn designed");
        assert_eq!(pdn.trees.len(), 1);
        assert_eq!(pdn.trees[0].group, SHORTCUT_GROUP);
        for route in &design.plan.routes {
            assert!(pdn.loss_for(SHORTCUT_GROUP, route.from) > 0.0);
        }
        assert!(design.provenance.audit.is_clean());
    }

    #[test]
    fn more_senders_mean_more_loss() {
        let small: Vec<Point> = (0..4).map(|i| Point::new(i * 1_000, 0)).collect();
        let big: Vec<Point> = (0..32).map(|i| Point::new(i * 1_000, 0)).collect();
        let p = LossParams::default();
        let (ls, _, _, _) = build_tree(&small, &p);
        let (lb, _, _, _) = build_tree(&big, &p);
        let max_small = ls.iter().map(|c| c.total_db(&p)).fold(0.0, f64::max);
        let max_big = lb.iter().map(|c| c.total_db(&p)).fold(0.0, f64::max);
        assert!(max_big > max_small);
    }
}
