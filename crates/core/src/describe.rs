//! Human-readable design documents.
//!
//! [`XRingDesign::describe`] renders the synthesized router as a text
//! report — ring order, per-waveguide lane occupancy, shortcuts, openings
//! and PDN trees — the artifact a designer reviews before tape-out.

use crate::design::XRingDesign;
use crate::mapping::RouteKind;
use crate::pdn::SHORTCUT_GROUP;
use crate::ring::Direction;
use std::fmt::Write as _;

impl XRingDesign {
    /// Renders a multi-section text report of the design.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let w = &mut out;

        writeln!(
            w,
            "XRing design — {} nodes, {} signals",
            self.net.len(),
            self.layout.signals.len()
        )
        .expect("string writes cannot fail");
        writeln!(w, "=================================================").expect("write");

        // Ring.
        writeln!(w, "\n[ring]").expect("write");
        let order: Vec<String> = self.cycle.order().iter().map(|n| n.to_string()).collect();
        writeln!(w, "  order    : {}", order.join(" -> ")).expect("write");
        writeln!(
            w,
            "  perimeter: {:.2} mm ({} residual crossings)",
            self.cycle.perimeter() as f64 / 1_000.0,
            self.cycle.residual_crossings()
        )
        .expect("write");
        writeln!(
            w,
            "  milp     : {} nodes, {} lazy cuts",
            self.ring_stats.milp_nodes, self.ring_stats.lazy_cuts
        )
        .expect("write");

        // Waveguides.
        writeln!(w, "\n[ring waveguides]").expect("write");
        for (wi, wg) in self.plan.ring_waveguides.iter().enumerate() {
            let dir = match wg.direction {
                Direction::Cw => "cw ",
                Direction::Ccw => "ccw",
            };
            let arcs: usize = wg.lanes.iter().map(|l| l.arcs.len()).sum();
            let opening = wg
                .opening
                .map(|p| format!("open@{}", self.cycle.order()[p]))
                .unwrap_or_else(|| "UNOPENED".into());
            writeln!(
                w,
                "  wg{wi:<2} {dir} level {:<2} lanes {:<2} arcs {:<3} {opening}",
                wg.level,
                wg.lanes.len(),
                arcs
            )
            .expect("write");
        }

        // Shortcuts.
        writeln!(w, "\n[shortcuts]").expect("write");
        if self.shortcuts.shortcuts.is_empty() {
            writeln!(w, "  (none)").expect("write");
        }
        for (i, s) in self.shortcuts.shortcuts.iter().enumerate() {
            let partner = s
                .crossing_partner
                .map(|p| format!(", CSE with #{p}"))
                .unwrap_or_default();
            writeln!(
                w,
                "  #{i}: {} <-> {}  len {:.2} mm, gain {:.2} mm{partner}",
                s.a,
                s.b,
                s.length_um as f64 / 1_000.0,
                s.gain_um as f64 / 1_000.0
            )
            .expect("write");
        }

        // Route mix.
        let mut ring_routes = 0usize;
        let mut direct = 0usize;
        let mut cse = 0usize;
        for r in &self.plan.routes {
            match r.kind {
                RouteKind::Ring { .. } => ring_routes += 1,
                RouteKind::ShortcutDirect { .. } => direct += 1,
                RouteKind::ShortcutCse { .. } => cse += 1,
            }
        }
        writeln!(w, "\n[signals]").expect("write");
        writeln!(
            w,
            "  ring {} / shortcut {} / CSE {} (total {})",
            ring_routes,
            direct,
            cse,
            self.plan.routes.len()
        )
        .expect("write");
        writeln!(w, "  wavelengths used: {}", self.plan.wavelengths_used()).expect("write");

        // PDN.
        writeln!(w, "\n[pdn]").expect("write");
        match &self.pdn {
            None => writeln!(w, "  (not synthesized)").expect("write"),
            Some(p) => {
                for t in &p.trees {
                    let group = if t.group == SHORTCUT_GROUP {
                        "shortcuts".to_string()
                    } else {
                        format!("wg{}", t.group)
                    };
                    writeln!(
                        w,
                        "  tree {group:<9} {} leaves, depth {}, {:.2} mm",
                        t.leaves,
                        t.depth,
                        t.length_um as f64 / 1_000.0
                    )
                    .expect("write");
                }
                writeln!(
                    w,
                    "  total waveguide: {:.2} mm, crossed waveguides: {}",
                    p.total_length_um as f64 / 1_000.0,
                    p.crossed_waveguides.len()
                )
                .expect("write");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{NetworkSpec, SynthesisOptions, Synthesizer};

    #[test]
    fn describe_covers_every_section() {
        let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8))
            .synthesize(&NetworkSpec::proton_8())
            .expect("synthesis succeeds");
        let doc = design.describe();
        for section in [
            "[ring]",
            "[ring waveguides]",
            "[shortcuts]",
            "[signals]",
            "[pdn]",
        ] {
            assert!(doc.contains(section), "missing {section}\n{doc}");
        }
        // Every waveguide appears.
        for wi in 0..design.plan.ring_waveguides.len() {
            assert!(doc.contains(&format!("wg{wi}")), "missing wg{wi}");
        }
        assert!(doc.contains("tree"), "pdn trees listed");
    }

    #[test]
    fn describe_without_pdn_says_so() {
        let design = Synthesizer::new(SynthesisOptions::with_wavelengths(8).without_pdn())
            .synthesize(&NetworkSpec::proton_8())
            .expect("synthesis succeeds");
        assert!(design.describe().contains("(not synthesized)"));
    }

    #[test]
    fn describe_mentions_cse_partners_when_present() {
        let design = Synthesizer::new(SynthesisOptions::with_wavelengths(16))
            .synthesize(&NetworkSpec::psion_32())
            .expect("synthesis succeeds");
        let doc = design.describe();
        let has_pair = design
            .shortcuts
            .shortcuts
            .iter()
            .any(|s| s.crossing_partner.is_some());
        assert_eq!(doc.contains("CSE with"), has_pair);
    }
}
