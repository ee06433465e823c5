//! Traffic patterns (extension beyond the paper's all-to-all assumption).
//!
//! The paper evaluates all-to-all traffic only ("a node sends signals to
//! all other nodes except for itself"). Real MPSoCs often have sparser
//! communication graphs; synthesizing only the needed signals reduces
//! wavelengths, waveguides and laser power. [`Traffic`] plugs into
//! [`map_signals_with_traffic`](crate::mapping::map_signals_with_traffic)
//! and [`SynthesisOptions::traffic`](crate::SynthesisOptions).

use crate::netspec::{NetworkSpec, NodeId};
use crate::variation::SplitMix64;
use std::collections::BinaryHeap;

/// Which `(source, destination)` pairs communicate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Traffic {
    /// Every node sends to every other node (the paper's workload).
    #[default]
    AllToAll,
    /// An explicit list of directed pairs (deduplicated, self-pairs
    /// ignored).
    Custom(Vec<(NodeId, NodeId)>),
    /// Each node talks to its `k` nearest neighbours (by Manhattan
    /// distance), a common locality-dominated NoC workload.
    NearestNeighbors(usize),
    /// `hotspots` seed-chosen hot nodes (memory controllers, I/O hubs):
    /// every other node sends to every hot node, and the hot nodes talk
    /// among themselves. Deterministic per `(hotspots, seed, net)`; the
    /// same seed always picks the same hot set.
    Hotspot {
        /// How many hot nodes to draw (clamped to the network size).
        hotspots: usize,
        /// SplitMix64 seed for the hot-node draw.
        seed: u64,
    },
    /// A seeded fixed-point-free permutation: each node sends to exactly
    /// one other node (a classic synthetic NoC stressor). Always `n`
    /// pairs, deterministic per `(seed, net)`.
    Permutation {
        /// SplitMix64 seed for the Fisher–Yates shuffle.
        seed: u64,
    },
}

impl Traffic {
    /// The directed pairs of this pattern on `net`, in deterministic
    /// order, without self-pairs or duplicates.
    pub fn pairs(&self, net: &NetworkSpec) -> Vec<(NodeId, NodeId)> {
        match self {
            Traffic::AllToAll => net.signal_pairs(),
            Traffic::Custom(list) => {
                let mut out = Vec::new();
                for &(a, b) in list {
                    if a != b
                        && a.index() < net.len()
                        && b.index() < net.len()
                        && !out.contains(&(a, b))
                    {
                        out.push((a, b));
                    }
                }
                out
            }
            Traffic::NearestNeighbors(k) => {
                let positions = net.positions();
                let take = (*k).min(positions.len().saturating_sub(1));
                if take == 0 {
                    return Vec::new();
                }
                let mut out = Vec::with_capacity(positions.len() * take);
                // The `take` smallest (distance, index) keys seen so far,
                // as a max-heap. The keys are a strict total order, so the
                // selected set and its sorted order equal a full sort
                // truncated to `take`.
                let mut nearest: BinaryHeap<(i64, u32)> = BinaryHeap::with_capacity(take + 1);
                for (a, &pa) in positions.iter().enumerate() {
                    for (b, &pb) in positions.iter().enumerate() {
                        if b == a {
                            continue;
                        }
                        let key = (pa.manhattan_distance(pb), b as u32);
                        if nearest.len() < take {
                            nearest.push(key);
                        } else if let Some(mut worst) = nearest.peek_mut() {
                            if key < *worst {
                                *worst = key;
                            }
                        }
                    }
                    let mut keys = std::mem::take(&mut nearest).into_sorted_vec();
                    out.extend(keys.iter().map(|&(_, b)| (NodeId(a as u32), NodeId(b))));
                    // Hand the allocation back to the heap for the next node.
                    keys.clear();
                    nearest = BinaryHeap::from(keys);
                }
                out
            }
            Traffic::Hotspot { hotspots, seed } => {
                let hot = hot_nodes(net.len(), *hotspots, *seed);
                let mut out = Vec::new();
                for a in net.node_ids() {
                    for &b in &hot {
                        if a != b {
                            out.push((a, b));
                        }
                    }
                }
                out
            }
            Traffic::Permutation { seed } => {
                let targets = derangement(net.len(), *seed);
                net.node_ids()
                    .map(|a| (a, NodeId(targets[a.index()] as u32)))
                    // Only a 1-node net can leave a fixed point; drop it
                    // rather than emit a self-pair.
                    .filter(|(a, b)| a != b)
                    .collect()
            }
        }
    }

    /// Number of signals this pattern produces on `net`.
    pub fn signal_count(&self, net: &NetworkSpec) -> usize {
        self.pairs(net).len()
    }
}

/// Draws `hotspots` distinct node ids from `0..n` via a seeded partial
/// Fisher–Yates shuffle, returned in ascending id order.
fn hot_nodes(n: usize, hotspots: usize, seed: u64) -> Vec<NodeId> {
    let take = hotspots.min(n);
    let mut rng = SplitMix64::new(seed);
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in 0..take {
        let j = i + (rng.next_u64() as usize) % (n - i);
        ids.swap(i, j);
    }
    let mut hot: Vec<NodeId> = ids[..take].iter().map(|&i| NodeId(i)).collect();
    hot.sort_unstable();
    hot
}

/// A seeded fixed-point-free permutation of `0..n` (`out[i] != i` for
/// every `i`, so no node ever sends to itself): full Fisher–Yates
/// shuffle, then fixed points are repaired by rotating them among
/// themselves (or swapping a lone fixed point with its neighbour).
fn derangement(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() as usize) % (i + 1);
        out.swap(i, j);
    }
    let fixed: Vec<usize> = (0..n).filter(|&i| out[i] == i).collect();
    match fixed.len() {
        0 => {}
        1 => {
            // Swap the lone fixed point with any other slot; both end up
            // displaced because n >= 2 here (n < 2 has no fixed-point-free
            // permutation at all and `pairs` yields nothing useful anyway).
            let i = fixed[0];
            let j = if i == 0 { n - 1 } else { i - 1 };
            out.swap(i, j);
        }
        _ => {
            // Rotate the fixed points among themselves: each one now maps
            // to a different fixed point, never back to itself.
            let first = out[fixed[0]];
            for w in fixed.windows(2) {
                out[w[0]] = out[w[1]];
            }
            out[*fixed.last().expect("non-empty")] = first;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_matches_netspec() {
        let net = NetworkSpec::proton_8();
        assert_eq!(Traffic::AllToAll.pairs(&net), net.signal_pairs());
        assert_eq!(Traffic::AllToAll.signal_count(&net), 56);
    }

    #[test]
    fn custom_filters_garbage() {
        let net = NetworkSpec::proton_8();
        let t = Traffic::Custom(vec![
            (NodeId(0), NodeId(1)),
            (NodeId(1), NodeId(1)),   // self: dropped
            (NodeId(0), NodeId(1)),   // duplicate: dropped
            (NodeId(0), NodeId(200)), // out of range: dropped
            (NodeId(2), NodeId(3)),
        ]);
        assert_eq!(
            t.pairs(&net),
            vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]
        );
    }

    #[test]
    fn nearest_neighbors_is_local() {
        let net = NetworkSpec::regular_grid(2, 4, 1_000).expect("valid");
        let t = Traffic::NearestNeighbors(2);
        let pairs = t.pairs(&net);
        assert_eq!(pairs.len(), 8 * 2);
        // Every chosen destination is at most 2 grid steps away.
        for (a, b) in pairs {
            assert!(net.distance(a, b) <= 2_000, "{a}->{b} too far");
        }
    }

    #[test]
    fn nearest_neighbors_matches_the_full_sort_reference() {
        // The original implementation: sort every peer, keep `k`.
        let reference = |net: &NetworkSpec, k: usize| {
            let mut out = Vec::new();
            for a in net.node_ids() {
                let mut others: Vec<NodeId> = net.node_ids().filter(|b| *b != a).collect();
                others.sort_by_key(|b| (net.distance(a, *b), b.index()));
                out.extend(others.into_iter().take(k).map(|b| (a, b)));
            }
            out
        };
        // Regular grids tie on distance everywhere; irregular nets rarely.
        let mut nets = crate::netspec::oracle_floorplans();
        nets.push(("proton_8".to_owned(), NetworkSpec::proton_8()));
        nets.push(("psion_16".to_owned(), NetworkSpec::psion_16()));
        nets.push((
            "grid 3x5".to_owned(),
            NetworkSpec::regular_grid(3, 5, 1_000).expect("grid"),
        ));
        for seed in 1..=3 {
            for (n, die_um) in [(5, 1_000), (24, 3_000)] {
                let net = NetworkSpec::irregular(n, die_um, seed).expect("irregular");
                nets.push((format!("irregular {n}/{die_um} seed {seed}"), net));
            }
        }
        for (name, net) in nets {
            let n = net.len();
            for k in [0, 1, 2, 3, n / 2, n - 1, n, n + 5] {
                let got = Traffic::NearestNeighbors(k).pairs(&net);
                assert_eq!(got, reference(&net, k), "{name}, k = {k}");
            }
        }
    }

    #[test]
    fn nearest_neighbors_caps_at_n_minus_1() {
        let net = NetworkSpec::regular_grid(2, 2, 500).expect("valid");
        let t = Traffic::NearestNeighbors(99);
        assert_eq!(t.signal_count(&net), 4 * 3);
    }

    #[test]
    fn hotspot_pair_count_is_exact() {
        let net = NetworkSpec::proton_8();
        for h in 1..=4usize {
            let t = Traffic::Hotspot {
                hotspots: h,
                seed: 11,
            };
            // (n - h) cold senders hit every hot node, plus hot<->hot.
            assert_eq!(t.signal_count(&net), (8 - h) * h + h * (h - 1));
        }
        // Clamped to the network size: degenerates to all-to-all counts.
        let t = Traffic::Hotspot {
            hotspots: 99,
            seed: 11,
        };
        assert_eq!(t.signal_count(&net), 8 * 7);
    }

    #[test]
    fn hotspot_is_deterministic_and_seed_sensitive() {
        let net = NetworkSpec::psion_16();
        let t = |seed| Traffic::Hotspot { hotspots: 3, seed };
        assert_eq!(t(7).pairs(&net), t(7).pairs(&net));
        // 3 hot nodes out of 16: some seed in a short scan must pick a
        // different hot set.
        assert!(
            (1..10).any(|s| t(s).pairs(&net) != t(0).pairs(&net)),
            "hot-node draw ignores the seed"
        );
        // Every destination is one of exactly 3 hot nodes.
        let mut dests: Vec<NodeId> = t(7).pairs(&net).into_iter().map(|(_, b)| b).collect();
        dests.sort_unstable();
        dests.dedup();
        assert_eq!(dests.len(), 3);
    }

    #[test]
    fn permutation_is_a_fixed_point_free_bijection() {
        for n in [3usize, 4, 8, 16] {
            let net = NetworkSpec::irregular(n, 10_000, 3).expect("valid");
            for seed in 0..20u64 {
                let pairs = Traffic::Permutation { seed }.pairs(&net);
                assert_eq!(pairs.len(), n, "seed {seed}: not n pairs");
                let mut sources: Vec<NodeId> = pairs.iter().map(|p| p.0).collect();
                let mut dests: Vec<NodeId> = pairs.iter().map(|p| p.1).collect();
                sources.sort_unstable();
                sources.dedup();
                dests.sort_unstable();
                dests.dedup();
                assert_eq!(sources.len(), n, "seed {seed}: sources not unique");
                assert_eq!(dests.len(), n, "seed {seed}: not a bijection");
                assert!(
                    pairs.iter().all(|(a, b)| a != b),
                    "seed {seed}: fixed point"
                );
            }
        }
    }

    #[test]
    fn permutation_is_deterministic_and_seed_sensitive() {
        let net = NetworkSpec::proton_8();
        let t = |seed| Traffic::Permutation { seed };
        assert_eq!(t(42).pairs(&net), t(42).pairs(&net));
        assert!(
            (1..10).any(|s| t(s).pairs(&net) != t(0).pairs(&net)),
            "permutation ignores the seed"
        );
    }
}
