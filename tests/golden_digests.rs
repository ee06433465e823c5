//! Golden design digests: every fixture design must stay byte-identical.
//!
//! Each digest is an FNV-1a 64 hash of the design's `describe()` text,
//! its audit summary and the realized ring (node order and the L-route
//! option of every edge). The constants were computed before the crossing
//! test and k-NN demand selection were rewritten for speed; a speed-up
//! that changes any design fails here.

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
    ("proton_8 wl8", 0x580104b5b7a95193),
    ("proton_8 wl8 knn3-heuristic", 0x26c85870135d09ae),
    ("proton_8 wl14", 0x597918496e9663e7),
    ("proton_8 wl14 knn3-heuristic", 0x26c85870135d09ae),
    ("proton_8 wl16", 0x597918496e9663e7),
    ("proton_8 wl16 knn3-heuristic", 0x26c85870135d09ae),
    ("proton_16 wl8", 0x69f8058925ccac95),
    ("proton_16 wl8 knn3-heuristic", 0x894b166d612db33e),
    ("proton_16 wl14", 0xf05a774f4f6f165b),
    ("proton_16 wl14 knn3-heuristic", 0x894b166d612db33e),
    ("proton_16 wl16", 0xf9580bdf8510d3c6),
    ("proton_16 wl16 knn3-heuristic", 0x894b166d612db33e),
    ("psion_8 wl8", 0x580104b5b7a95193),
    ("psion_8 wl8 knn3-heuristic", 0x26c85870135d09ae),
    ("psion_8 wl14", 0x597918496e9663e7),
    ("psion_8 wl14 knn3-heuristic", 0x26c85870135d09ae),
    ("psion_8 wl16", 0x597918496e9663e7),
    ("psion_8 wl16 knn3-heuristic", 0x26c85870135d09ae),
    ("psion_16 wl8", 0xa18d7044427010e9),
    ("psion_16 wl8 knn3-heuristic", 0xb04b10f77b81db95),
    ("psion_16 wl14", 0xdf1297f023a4919c),
    ("psion_16 wl14 knn3-heuristic", 0xb04b10f77b81db95),
    ("psion_16 wl16", 0x54e6e5a612e1b8b5),
    ("psion_16 wl16 knn3-heuristic", 0xb04b10f77b81db95),
    ("psion_32 wl8", 0xc42e9e1f5ad77ec9),
    ("psion_32 wl8 knn3-heuristic", 0x45e4509ba8fe8eb7),
    ("psion_32 wl14", 0xc84be6116b8e6ae5),
    ("psion_32 wl14 knn3-heuristic", 0x120dea8099ab0f81),
    ("psion_32 wl16", 0x8d63517341aa9b04),
    ("psion_32 wl16 knn3-heuristic", 0x120dea8099ab0f81),
    ("irregular128 seed1 knn3-heuristic", 0x1ae96d9e4d0d37da),
    ("irregular128 seed2 knn3-heuristic", 0xb5bd25dc35569dd1),
    ("irregular128 seed3 knn3-heuristic", 0x12081a72763c68e6),
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
