//! Golden design digests: every fixture design must stay byte-identical.
//!
//! Each digest is an FNV-1a 64 hash of the design's `describe()` text,
//! its audit summary and the realized ring (node order and the L-route
//! option of every edge). A speed-up that changes any design fails here;
//! a deliberate design change re-pins the table and names the reason
//! for each moved row in CHANGES.md.

use xring::core::{fnv1a64, NetworkSpec, RingAlgorithm, SynthesisOptions, Synthesizer, Traffic};

/// Synthesizes `net` and digests the design; also reports whether the
/// ring took the greedy fallback of the 2-SAT option assignment.
fn digest(net: &NetworkSpec, options: SynthesisOptions) -> (u64, bool) {
    let design = Synthesizer::new(options)
        .synthesize(net)
        .expect("fixture synthesizes");
    let routes: Vec<String> = (0..design.cycle.len())
        .map(|i| format!("{:?}", design.cycle.edge_route(i)))
        .collect();
    let text = format!(
        "{}\n{}\n{}",
        design.describe(),
        design.provenance.audit.summary(),
        routes.join("\n")
    );
    (fnv1a64(text.as_bytes()), design.ring_stats.twosat_fallback)
}

/// The heuristic-ring, 3-nearest-neighbour variant of `#wl = wl`.
fn knn3_heuristic(wl: usize) -> SynthesisOptions {
    SynthesisOptions {
        ring_algorithm: RingAlgorithm::Heuristic,
        traffic: Traffic::NearestNeighbors(3),
        ..SynthesisOptions::with_wavelengths(wl)
    }
}

const GOLDEN: &[(&str, u64)] = &[
    ("proton_8 wl8", 0x70ec806ba902a681),
    ("proton_8 wl8 knn3-heuristic", 0x91ec2015e88e65e8),
    ("proton_8 wl14", 0x52bb9ad29bd07ddd),
    ("proton_8 wl14 knn3-heuristic", 0x91ec2015e88e65e8),
    ("proton_8 wl16", 0x52bb9ad29bd07ddd),
    ("proton_8 wl16 knn3-heuristic", 0x91ec2015e88e65e8),
    ("proton_16 wl8", 0xe0a0f2a82c881950),
    ("proton_16 wl8 knn3-heuristic", 0x1ad6e2520f75f378),
    ("proton_16 wl14", 0xa21b891e1753688c),
    ("proton_16 wl14 knn3-heuristic", 0x1ad6e2520f75f378),
    ("proton_16 wl16", 0x2310e860e205fe21),
    ("proton_16 wl16 knn3-heuristic", 0x1ad6e2520f75f378),
    ("psion_8 wl8", 0x70ec806ba902a681),
    ("psion_8 wl8 knn3-heuristic", 0x91ec2015e88e65e8),
    ("psion_8 wl14", 0x52bb9ad29bd07ddd),
    ("psion_8 wl14 knn3-heuristic", 0x91ec2015e88e65e8),
    ("psion_8 wl16", 0x52bb9ad29bd07ddd),
    ("psion_8 wl16 knn3-heuristic", 0x91ec2015e88e65e8),
    ("psion_16 wl8", 0xd6e2c9e29f6fc706),
    ("psion_16 wl8 knn3-heuristic", 0x6cf92bcdaf215493),
    ("psion_16 wl14", 0x972f2524789c623f),
    ("psion_16 wl14 knn3-heuristic", 0x6cf92bcdaf215493),
    ("psion_16 wl16", 0xefcf4d8b340c090b),
    ("psion_16 wl16 knn3-heuristic", 0x6cf92bcdaf215493),
    ("psion_32 wl8", 0xc78ba3edd37020ec),
    ("psion_32 wl8 knn3-heuristic", 0x1003f5fe44027271),
    ("psion_32 wl14", 0xc25af6895bc095e5),
    ("psion_32 wl14 knn3-heuristic", 0x7e0b45a8913bba77),
    ("psion_32 wl16", 0x798ce3d3cb4bab68),
    ("psion_32 wl16 knn3-heuristic", 0x7e0b45a8913bba77),
    ("irregular128 seed1 knn3-heuristic", 0x2c819244ebe954d0),
    ("irregular128 seed2 knn3-heuristic", 0xade6734d62a6f9fb),
    ("irregular128 seed3 knn3-heuristic", 0xad8714051c099b40),
];

#[test]
fn fixture_designs_match_their_golden_digests() {
    let fixtures = [
        ("proton_8", NetworkSpec::proton_8()),
        ("proton_16", NetworkSpec::proton_16()),
        ("psion_8", NetworkSpec::psion_8()),
        ("psion_16", NetworkSpec::psion_16()),
        ("psion_32", NetworkSpec::psion_32()),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, net) in &fixtures {
        for wl in [8, 14, 16] {
            let (d, _) = digest(net, SynthesisOptions::with_wavelengths(wl));
            got.push((format!("{name} wl{wl}"), d));
            let (d, _) = digest(net, knn3_heuristic(wl));
            got.push((format!("{name} wl{wl} knn3-heuristic"), d));
        }
    }
    // 128-node floorplans of the heuristic-large benchmark's size.
    let mut fallbacks = 0;
    for seed in [1, 2, 3] {
        let net = NetworkSpec::irregular(128, 28_000, seed).expect("irregular");
        let (d, fallback) = digest(&net, knn3_heuristic(8));
        got.push((format!("irregular128 seed{seed} knn3-heuristic"), d));
        fallbacks += usize::from(fallback);
    }
    assert!(
        fallbacks > 0,
        "no 128-node fixture takes the 2-SAT fallback"
    );

    let table: String = got
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_owned(), d)).collect();
    assert_eq!(got, want, "digests changed; current table:\n{table}");
}
