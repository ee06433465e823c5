//! Property-based tests of the synthesis pipeline over random floorplans.

use proptest::prelude::*;
use xring_core::mapping::LaneArc;
use xring_core::{
    map_signals, open_rings, plan_shortcuts, Direction, NetworkSpec, RingAlgorithm, RingBuilder,
    RouteKind, ShortcutPlan, SynthesisOptions, Synthesizer,
};
use xring_phot::{CrosstalkParams, LossParams, PowerParams};

fn arb_net() -> impl Strategy<Value = NetworkSpec> {
    (4usize..10, 0u64..1_000).prop_map(|(n, seed)| {
        NetworkSpec::irregular(n, 8_000, seed + 1).expect("irregular nets are valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_is_always_a_hamiltonian_cycle(net in arb_net()) {
        for algorithm in [RingAlgorithm::Milp, RingAlgorithm::Heuristic, RingAlgorithm::Perimeter] {
            let out = RingBuilder::new()
                .with_algorithm(algorithm)
                .build(&net)
                .expect("ring builds");
            prop_assert_eq!(out.cycle.len(), net.len());
            let mut seen = vec![false; net.len()];
            for id in out.cycle.order() {
                prop_assert!(!seen[id.index()]);
                seen[id.index()] = true;
            }
            // Perimeter equals the sum of edge lengths and of arc pairs.
            let p = out.cycle.perimeter();
            prop_assert_eq!(
                p,
                (0..net.len()).map(|e| out.cycle.edge_length(e)).sum::<i64>()
            );
        }
    }

    #[test]
    fn milp_ring_never_loses_to_a_crossing_free_heuristic_ring(net in arb_net()) {
        let milp = RingBuilder::new().build(&net).expect("milp");
        let heur = RingBuilder::new()
            .with_algorithm(RingAlgorithm::Heuristic)
            .build(&net)
            .expect("heuristic");
        // Without residual crossings the heuristic tour is MILP-feasible.
        if heur.cycle.residual_crossings() == 0 {
            prop_assert!(milp.cycle.perimeter() <= heur.cycle.perimeter());
        }
    }

    #[test]
    fn arcs_cover_the_cycle_consistently(net in arb_net()) {
        let out = RingBuilder::new()
            .with_algorithm(RingAlgorithm::Heuristic)
            .build(&net)
            .expect("ring");
        let c = &out.cycle;
        let n = c.len();
        for a in 0..n {
            for b in 0..n {
                if a == b { continue; }
                let cw: Vec<usize> = LaneArc::new(0, a, b, Direction::Cw, n).edges().collect();
                let ccw: Vec<usize> = LaneArc::new(0, a, b, Direction::Ccw, n).edges().collect();
                // Together the two directions cover every edge exactly once.
                prop_assert_eq!(cw.len() + ccw.len(), n);
                let mut all: Vec<usize> = cw.iter().chain(ccw.iter()).copied().collect();
                all.sort_unstable();
                prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
                // Lengths add up to the perimeter.
                prop_assert_eq!(
                    c.arc_length(a, b, Direction::Cw) + c.arc_length(a, b, Direction::Ccw),
                    c.perimeter()
                );
            }
        }
    }

    #[test]
    fn mapping_is_always_valid_and_complete(net in arb_net(), wl in 2usize..12) {
        let ring = RingBuilder::new()
            .with_algorithm(RingAlgorithm::Heuristic)
            .build(&net)
            .expect("ring");
        let sc = plan_shortcuts(&net, &ring.cycle);
        let plan = map_signals(&net, &ring.cycle, &sc, wl, 0).expect("mapped");
        prop_assert_eq!(plan.routes.len(), net.signal_count());
        prop_assert_eq!(plan.validate(), Ok(()));
        for wg in &plan.ring_waveguides {
            prop_assert!(wg.lanes.len() <= wl);
        }
    }

    #[test]
    fn opening_preserves_validity(net in arb_net(), wl in 2usize..12) {
        let ring = RingBuilder::new()
            .with_algorithm(RingAlgorithm::Heuristic)
            .build(&net)
            .expect("ring");
        let mut plan =
            map_signals(&net, &ring.cycle, &ShortcutPlan::empty(), wl, 0).expect("mapped");
        let total_before: usize = plan
            .ring_waveguides
            .iter()
            .flat_map(|w| &w.lanes)
            .map(|l| l.arcs.len())
            .sum();
        open_rings(&ring.cycle, &mut plan, wl);
        let total_after: usize = plan
            .ring_waveguides
            .iter()
            .flat_map(|w| &w.lanes)
            .map(|l| l.arcs.len())
            .sum();
        prop_assert_eq!(total_before, total_after, "signals lost in migration");
        prop_assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn full_pipeline_invariants(net in arb_net()) {
        let design = Synthesizer::new(SynthesisOptions {
            ring_algorithm: RingAlgorithm::Heuristic,
            ..SynthesisOptions::with_wavelengths(8)
        })
        .synthesize(&net)
        .expect("synthesis succeeds");
        // Every signal routed, every route well-formed.
        prop_assert_eq!(design.layout.signals.len(), net.signal_count());
        for (i, r) in design.plan.routes.iter().enumerate() {
            match r.kind {
                RouteKind::Ring { waveguide } => {
                    prop_assert!(waveguide < design.plan.ring_waveguides.len());
                }
                RouteKind::ShortcutDirect { shortcut }
                | RouteKind::ShortcutCse { enter: shortcut, .. } => {
                    prop_assert!(shortcut < design.shortcuts.shortcuts.len(), "signal {}", i);
                }
            }
        }
        // The report is finite and sane.
        let report = design.report(
            "prop",
            &LossParams::default(),
            Some(&CrosstalkParams::default()),
            &PowerParams::default(),
        );
        prop_assert!(report.worst_il_db.is_finite() && report.worst_il_db > 0.0);
        prop_assert!(report.total_power_w.expect("pdn modelled").is_finite());
        prop_assert!(report.noise_free_fraction().expect("noise evaluated") >= 0.9);
    }

    #[test]
    fn shortcut_plan_respects_structural_rules(net in arb_net()) {
        let ring = RingBuilder::new()
            .with_algorithm(RingAlgorithm::Heuristic)
            .build(&net)
            .expect("ring");
        let plan = plan_shortcuts(&net, &ring.cycle);
        // One shortcut per node.
        let mut used = std::collections::HashSet::new();
        for s in &plan.shortcuts {
            prop_assert!(used.insert(s.a));
            prop_assert!(used.insert(s.b));
            prop_assert!(s.gain_um > 0);
        }
        // Crossing partnerships are symmetric and 1:1.
        for (i, s) in plan.shortcuts.iter().enumerate() {
            if let Some(p) = s.crossing_partner {
                prop_assert_eq!(plan.shortcuts[p].crossing_partner, Some(i));
            }
        }
    }
}
