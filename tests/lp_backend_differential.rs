//! Backend differential acceptance at the ring-MILP level: the dense
//! reference tableau and the revised bounded-variable simplex must find
//! the same optimal tour length on every tier-1 fixture. The *final
//! tours* may differ — alternate optimal tours are equally short — so
//! only the MILP objective is compared here; random-LP agreement down to
//! 1e-6 is covered by the seeded suite in `crates/milp/tests`.

use xring::core::{LpBackendKind, NetworkSpec, RingBuilder};

fn fixtures() -> Vec<(&'static str, NetworkSpec)> {
    vec![
        (
            "grid2x2",
            NetworkSpec::regular_grid(2, 2, 2_000).expect("grid"),
        ),
        (
            "grid3x3",
            NetworkSpec::regular_grid(3, 3, 2_000).expect("grid"),
        ),
        ("proton_8", NetworkSpec::proton_8()),
        ("psion_8", NetworkSpec::psion_8()),
        ("psion_16", NetworkSpec::psion_16()),
        (
            "irr16_s5",
            NetworkSpec::irregular(16, 8_000, 5).expect("net"),
        ),
        (
            "irr16_s7",
            NetworkSpec::irregular(16, 8_000, 7).expect("net"),
        ),
        (
            "irr12_s13",
            NetworkSpec::irregular(12, 6_000, 13).expect("net"),
        ),
    ]
}

#[test]
fn backends_agree_on_the_ring_milp_optimum_for_every_fixture() {
    for (name, net) in fixtures() {
        let dense = RingBuilder::new()
            .with_lp_backend(LpBackendKind::Dense)
            .build(&net)
            .unwrap_or_else(|e| panic!("{name}: dense build failed: {e}"));
        let revised = RingBuilder::new()
            .with_lp_backend(LpBackendKind::Revised)
            .build(&net)
            .unwrap_or_else(|e| panic!("{name}: revised build failed: {e}"));
        assert!(
            (dense.stats.milp_objective - revised.stats.milp_objective).abs() < 1e-6,
            "{name}: backends disagree on the MILP optimum ({} vs {})",
            dense.stats.milp_objective,
            revised.stats.milp_objective
        );
        assert_eq!(
            dense.cycle.len(),
            net.len(),
            "{name}: dense ring incomplete"
        );
        assert_eq!(
            revised.cycle.len(),
            net.len(),
            "{name}: revised ring incomplete"
        );
        // The dense backend exports no basis, so it must never count
        // warm-start activity; the revised backend's counters must at
        // least be consistent.
        assert_eq!(dense.stats.lp_warm_starts, 0, "{name}");
        assert_eq!(dense.stats.lp_warm_eligible, 0, "{name}");
        assert!(
            revised.stats.lp_warm_starts <= revised.stats.lp_warm_eligible,
            "{name}: warm starts exceed eligible solves"
        );
    }
}

#[test]
fn revised_backend_warm_starts_nearly_every_branching_child() {
    // Summed over the fixtures whose branch-and-bound actually branches
    // (the regular floorplans mostly solve at the root), the revised
    // backend must reuse the parent basis on > 80 % of child solves,
    // on irregular nets like the one `golden_work.rs` pins.
    let mut warm = 0usize;
    let mut eligible = 0usize;
    for seed in [5u64, 7, 13] {
        let net = NetworkSpec::irregular(16, 8_000, seed).expect("net");
        let out = RingBuilder::new()
            .with_lp_backend(LpBackendKind::Revised)
            .build(&net)
            .expect("revised build");
        warm += out.stats.lp_warm_starts;
        eligible += out.stats.lp_warm_eligible;
    }
    assert!(eligible > 0, "no fixture branched");
    let rate = warm as f64 / eligible as f64;
    assert!(
        rate > 0.8,
        "warm-start rate {rate:.3} (= {warm}/{eligible})"
    );
}
