//! Post-synthesis design auditing (robustness layer).
//!
//! Synthesis — exact or degraded — must never hand out a design that
//! silently violates the paper's structural contract. The auditor
//! re-derives every invariant the pipeline is supposed to guarantee
//! (Sec. III) from the finished artifacts alone:
//!
//! * the Step-1 ring is a **single closed cycle** visiting every node
//!   exactly once, with consecutive L-routes chained end to end;
//! * the selected L-routes have **no undeclared crossings**: a geometric
//!   recount must match the cycle's own residual counter, which is zero
//!   unless the 2-SAT fallback was taken on an adversarial placement;
//!   the Step-2 shortcuts of an XRing design never cross the ring and
//!   cross each other only as declared CSE partners;
//! * every traffic demand is **served exactly once** and the Step-3
//!   wavelength assignment is conflict-free (arc-disjoint lanes, no
//!   arcs across openings);
//! * the realized layout is **well-formed** and index-aligned with the
//!   mapping plan;
//! * evaluated loss/SNR/power figures are **finite and physically
//!   plausible**.
//!
//! Verdicts are recorded per invariant in an [`AuditReport`], carried in
//! the design's [`Provenance`](crate::design::Provenance) and re-checked
//! by the engine before a design is cached or served from the cache.

use crate::design::XRingDesign;
use crate::layout::LayoutModel;
use crate::mapping::MappingPlan;
use crate::netspec::{NetworkSpec, NodeId};
use crate::ring::RingCycle;
use crate::shortcut::ShortcutPlan;
use crate::traffic::Traffic;
use std::collections::HashSet;
use std::fmt;
use xring_phot::{LossParams, PowerParams, RouterReport};

/// Loosest credible worst-case insertion loss, dB. A path losing more
/// than this is below any photodetector sensitivity floor and indicates
/// a corrupted layout rather than a lossy one.
const MAX_IL_DB: f64 = 200.0;
/// Loosest credible worst-case path length, mm (a 10 m waveguide on a
/// die means broken geometry).
const MAX_PATH_MM: f64 = 10_000.0;
/// Loosest credible total laser power, W.
const MAX_POWER_W: f64 = 1.0e6;

/// One paper-implied invariant checked by the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// The ring is one closed cycle visiting every node exactly once,
    /// with edge `i` ending where edge `i+1` starts.
    RingClosedCycle,
    /// The ring's geometric crossing count (re-counted from the
    /// L-routes) matches what the cycle declares — zero in the normal
    /// case, the greedy fallback's residual otherwise. No crossing may
    /// go undeclared: for an XRing design this also covers the
    /// shortcuts, which must not cross the ring and may cross only
    /// their declared CSE partner.
    RingCrossingsDeclared,
    /// Every traffic demand is served by exactly one route; no route
    /// serves a demand outside the pattern.
    DemandsServedOnce,
    /// The wavelength assignment is conflict-free
    /// ([`MappingPlan::validate`]).
    WavelengthConflictFree,
    /// The layout is well-formed ([`LayoutModel::validate`]) and
    /// index-aligned with the mapping plan.
    LayoutWellFormed,
    /// Evaluated loss/SNR/power values are finite and within physical
    /// bounds.
    PhysicalBounds,
}

impl Invariant {
    /// Stable kebab-case name (used in messages and event streams).
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::RingClosedCycle => "ring-closed-cycle",
            Invariant::RingCrossingsDeclared => "ring-crossings-declared",
            Invariant::DemandsServedOnce => "demands-served-once",
            Invariant::WavelengthConflictFree => "wavelength-conflict-free",
            Invariant::LayoutWellFormed => "layout-well-formed",
            Invariant::PhysicalBounds => "physical-bounds",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The auditor's verdict on one invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Which invariant was checked.
    pub invariant: Invariant,
    /// Whether it holds.
    pub passed: bool,
    /// Failure detail (empty when the invariant holds).
    pub detail: String,
}

/// A structured audit result: one [`Verdict`] per checked invariant.
///
/// An empty report means the design was **never audited** and is treated
/// as dirty ([`is_clean`](Self::is_clean) returns `false`) — the
/// robustness contract is "zero unaudited designs", not "innocent until
/// proven guilty".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Per-invariant verdicts, in check order.
    pub verdicts: Vec<Verdict>,
}

impl AuditReport {
    /// A report with no verdicts (an unaudited design).
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when at least one invariant was checked.
    pub fn is_audited(&self) -> bool {
        !self.verdicts.is_empty()
    }

    /// True when the design was audited and every invariant holds.
    pub fn is_clean(&self) -> bool {
        self.is_audited() && self.verdicts.iter().all(|v| v.passed)
    }

    /// The failed verdicts.
    pub fn failures(&self) -> impl Iterator<Item = &Verdict> {
        self.verdicts.iter().filter(|v| !v.passed)
    }

    /// One line: either `N invariants hold` or the failure list.
    pub fn summary(&self) -> String {
        if !self.is_audited() {
            return "design not audited".to_owned();
        }
        if self.is_clean() {
            return format!("{} invariants hold", self.verdicts.len());
        }
        let fails: Vec<String> = self
            .failures()
            .map(|v| format!("{}: {}", v.invariant, v.detail))
            .collect();
        fails.join("; ")
    }

    fn push(&mut self, invariant: Invariant, result: Result<(), String>) {
        self.verdicts.push(match result {
            Ok(()) => Verdict {
                invariant,
                passed: true,
                detail: String::new(),
            },
            Err(detail) => Verdict {
                invariant,
                passed: false,
                detail,
            },
        });
    }

    /// Merges `other` into this report with **last-write-wins per
    /// invariant**: when both reports carry a verdict for the same
    /// invariant, `other`'s verdict replaces this report's in place
    /// (check order preserved); invariants only `other` checked are
    /// appended in `other`'s order. A report therefore never holds two
    /// verdicts for one invariant after a merge — re-auditing a design
    /// and merging the fresh report supersedes stale verdicts instead
    /// of shadowing them.
    pub fn merge(&mut self, other: AuditReport) {
        for verdict in other.verdicts {
            match self
                .verdicts
                .iter_mut()
                .find(|v| v.invariant == verdict.invariant)
            {
                Some(slot) => *slot = verdict,
                None => self.verdicts.push(verdict),
            }
        }
    }
}

fn check_ring_closed(net: &NetworkSpec, cycle: &RingCycle) -> Result<(), String> {
    let n = cycle.len();
    if n != net.len() {
        return Err(format!("ring visits {n} of {} nodes", net.len()));
    }
    let mut seen = vec![false; net.len()];
    for id in cycle.order() {
        if id.index() >= net.len() {
            return Err(format!("{id} is not a network node"));
        }
        if seen[id.index()] {
            return Err(format!("{id} visited twice"));
        }
        seen[id.index()] = true;
    }
    // Edge i must start at order[i] and end where edge i+1 starts.
    for i in 0..n {
        let r = cycle.edge_route(i);
        if r.from() != net.position(cycle.order()[i]) {
            return Err(format!("edge {i} does not start at its node"));
        }
        let next = cycle.edge_route((i + 1) % n);
        if r.to() != next.from() {
            return Err(format!("edge {i} does not chain into edge {}", (i + 1) % n));
        }
    }
    if cycle.perimeter() <= 0 {
        return Err("ring has non-positive perimeter".to_owned());
    }
    Ok(())
}

fn check_ring_crossings_declared(
    cycle: &RingCycle,
    shortcuts: &ShortcutPlan,
) -> Result<(), String> {
    // Re-count geometrically instead of trusting the cached counter.
    let n = cycle.len();
    let mut crossings = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            if cycle.edge_route(i).crosses(cycle.edge_route(j)) {
                crossings += 1;
            }
        }
    }
    // Residual crossings are legitimate only when the cycle *declares*
    // them (the 2-SAT fallback on adversarial placements); the invariant
    // is that no crossing goes undeclared.
    if crossings != cycle.residual_crossings() {
        return Err(format!(
            "recounted {crossings} ring crossings, cycle claims {}",
            cycle.residual_crossings()
        ));
    }
    check_shortcut_crossings(cycle, shortcuts)
}

/// Step 2's contract (Sec. III-B): no shortcut properly crosses the
/// ring, and two shortcuts cross only as each other's declared CSE
/// partner. Re-derived by brute force over every segment pair, so it
/// does not trust the planner's crossing index.
fn check_shortcut_crossings(cycle: &RingCycle, shortcuts: &ShortcutPlan) -> Result<(), String> {
    let list = &shortcuts.shortcuts;
    if list.is_empty() {
        return Ok(());
    }
    let ring = cycle.polyline().segments();
    for (i, s) in list.iter().enumerate() {
        if s.route.proper_crossings_with(&ring) > 0 {
            return Err(format!("shortcut {i} ({} - {}) crosses the ring", s.a, s.b));
        }
        for (j, t) in list.iter().enumerate().skip(i + 1) {
            let partners = s.crossing_partner == Some(j) && t.crossing_partner == Some(i);
            if !partners && s.route.crosses(&t.route) {
                return Err(format!("shortcut {i} crosses non-partner shortcut {j}"));
            }
        }
    }
    Ok(())
}

fn check_demands_served(plan: &MappingPlan, expected: &[(NodeId, NodeId)]) -> Result<(), String> {
    let mut served: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(plan.routes.len());
    for r in &plan.routes {
        if r.from == r.to {
            return Err(format!("route {} -> {} is a self-loop", r.from, r.to));
        }
        if !served.insert((r.from, r.to)) {
            return Err(format!("demand {} -> {} served twice", r.from, r.to));
        }
    }
    let wanted: HashSet<(NodeId, NodeId)> = expected.iter().copied().collect();
    for d in &wanted {
        if !served.contains(d) {
            return Err(format!("demand {} -> {} not served", d.0, d.1));
        }
    }
    for s in &served {
        if !wanted.contains(s) {
            return Err(format!("route {} -> {} serves no demand", s.0, s.1));
        }
    }
    Ok(())
}

fn check_layout_aligned(plan: &MappingPlan, layout: &LayoutModel) -> Result<(), String> {
    layout.validate()?;
    if layout.signals.len() != plan.routes.len() {
        return Err(format!(
            "layout realizes {} of {} routes",
            layout.signals.len(),
            plan.routes.len()
        ));
    }
    for (i, (sig, route)) in layout.signals.iter().zip(&plan.routes).enumerate() {
        if sig.from != route.from || sig.to != route.to || sig.wavelength != route.wavelength {
            return Err(format!("layout signal {i} disagrees with its route"));
        }
    }
    Ok(())
}

/// Audits the structural invariants of a `(ring, mapping, layout)`
/// triple against the traffic demands in `expected`. Shared by XRing
/// designs and the baseline ring routers; [`audit_design`] also checks
/// an XRing design's shortcuts.
pub fn audit_structure(
    net: &NetworkSpec,
    cycle: &RingCycle,
    plan: &MappingPlan,
    layout: &LayoutModel,
    expected: &[(NodeId, NodeId)],
) -> AuditReport {
    audit_structure_with_shortcuts(net, cycle, &ShortcutPlan::empty(), plan, layout, expected)
}

/// [`audit_structure`] for a ring carrying Step-2 shortcuts, which the
/// ring-crossings-declared verdict also checks.
fn audit_structure_with_shortcuts(
    net: &NetworkSpec,
    cycle: &RingCycle,
    shortcuts: &ShortcutPlan,
    plan: &MappingPlan,
    layout: &LayoutModel,
    expected: &[(NodeId, NodeId)],
) -> AuditReport {
    let mut report = AuditReport::empty();
    report.push(Invariant::RingClosedCycle, check_ring_closed(net, cycle));
    report.push(
        Invariant::RingCrossingsDeclared,
        check_ring_crossings_declared(cycle, shortcuts),
    );
    report.push(
        Invariant::DemandsServedOnce,
        check_demands_served(plan, expected),
    );
    report.push(Invariant::WavelengthConflictFree, plan.validate());
    report.push(
        Invariant::LayoutWellFormed,
        check_layout_aligned(plan, layout),
    );
    report
}

/// Checks the physical-bounds invariant of an evaluated report: every
/// figure of merit finite and inside generous physical limits.
pub fn audit_report_bounds(report: &RouterReport) -> Verdict {
    let mut problems: Vec<String> = Vec::new();
    if !report.worst_il_db.is_finite() || !(0.0..=MAX_IL_DB).contains(&report.worst_il_db) {
        problems.push(format!("worst IL {} dB out of bounds", report.worst_il_db));
    }
    if !report.worst_path_len_mm.is_finite()
        || !(0.0..=MAX_PATH_MM).contains(&report.worst_path_len_mm)
    {
        problems.push(format!(
            "worst path {} mm out of bounds",
            report.worst_path_len_mm
        ));
    }
    if let Some(p) = report.total_power_w {
        // Zero is legitimate: a router serving empty traffic carries no
        // signals and needs no laser power.
        if !p.is_finite() || !(0.0..=MAX_POWER_W).contains(&p) {
            problems.push(format!("total power {p} W out of bounds"));
        }
    }
    if let Some(snr) = report.worst_snr_db {
        if !snr.is_finite() {
            problems.push(format!("worst SNR {snr} dB not finite"));
        }
    }
    if let Some(noisy) = report.noisy_signal_count {
        if noisy > report.signal_count {
            problems.push(format!(
                "{noisy} noisy signals exceed {} total",
                report.signal_count
            ));
        }
    }
    match problems.is_empty() {
        true => Verdict {
            invariant: Invariant::PhysicalBounds,
            passed: true,
            detail: String::new(),
        },
        false => Verdict {
            invariant: Invariant::PhysicalBounds,
            passed: false,
            detail: problems.join("; "),
        },
    }
}

/// Audits a full XRing design: the structural invariants plus the
/// physical bounds of a loss-only evaluation under `loss`.
pub fn audit_design(design: &XRingDesign, traffic: &Traffic, loss: &LossParams) -> AuditReport {
    let _span = xring_obs::span("audit");
    let expected = traffic.pairs(&design.net);
    let mut report = audit_structure_with_shortcuts(
        &design.net,
        &design.cycle,
        &design.shortcuts,
        &design.plan,
        &design.layout,
        &expected,
    );
    let evaluated = design.report("audit", loss, None, &PowerParams::default());
    report.verdicts.push(audit_report_bounds(&evaluated));
    // Attribute the verdict to the enclosing span so request-scoped
    // traces (the serve flight recorder) can read it without re-auditing.
    match report.is_clean() {
        true => xring_obs::counter("audit.clean", 1),
        false => xring_obs::counter("audit.violations", 1),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthesisOptions, Synthesizer};
    use xring_geom::{LRoute, Point, RouteOption};

    fn clean_design() -> XRingDesign {
        Synthesizer::new(SynthesisOptions::with_wavelengths(8))
            .synthesize(&NetworkSpec::proton_8())
            .expect("synthesized")
    }

    #[test]
    fn synthesized_design_audits_clean() {
        let d = clean_design();
        let report = audit_design(&d, &Traffic::AllToAll, &LossParams::default());
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.verdicts.len(), 6);
        assert!(report.summary().contains("6 invariants hold"));
    }

    /// A seeded 16-node design: it selects shortcuts, among them a
    /// CSE-merged pair.
    fn design_with_shortcuts() -> XRingDesign {
        let net = NetworkSpec::irregular(16, 8_000, 1).expect("valid floorplan");
        Synthesizer::new(SynthesisOptions::with_wavelengths(16))
            .synthesize(&net)
            .expect("synthesized")
    }

    /// Audits `design` and returns the ring-crossings-declared verdict, after
    /// checking that the invariant set did not change.
    fn ring_crossing_verdict(design: &XRingDesign) -> Verdict {
        let report = audit_design(design, &Traffic::AllToAll, &LossParams::default());
        assert_eq!(report.verdicts.len(), 6);
        report
            .verdicts
            .into_iter()
            .find(|v| v.invariant == Invariant::RingCrossingsDeclared)
            .expect("ring verdict")
    }

    #[test]
    fn shortcut_crossing_the_ring_is_caught() {
        let mut d = design_with_shortcuts();
        assert!(ring_crossing_verdict(&d).passed);
        // A short straight route across the middle of the first ring
        // segment crosses it properly.
        let seg = d.cycle.polyline().segments()[0];
        let (a, b) = (seg.start(), seg.end());
        let mid = Point::new((a.x + b.x) / 2, (a.y + b.y) / 2);
        let (from, to) = match seg.is_horizontal() {
            true => (Point::new(mid.x, mid.y - 1), Point::new(mid.x, mid.y + 1)),
            false => (Point::new(mid.x - 1, mid.y), Point::new(mid.x + 1, mid.y)),
        };
        assert!(seg.length() >= 2);
        d.shortcuts.shortcuts[0].route = LRoute::new(from, to, RouteOption::HorizontalFirst);
        let v = ring_crossing_verdict(&d);
        assert!(!v.passed);
        assert!(v.detail.contains("shortcut 0") && v.detail.contains("crosses the ring"));
    }

    #[test]
    fn shortcut_crossing_a_non_partner_is_caught() {
        let mut d = design_with_shortcuts();
        assert!(ring_crossing_verdict(&d).passed);
        // Undeclare one CSE merge: the pair still crosses, now as
        // strangers.
        let i = d
            .shortcuts
            .shortcuts
            .iter()
            .position(|s| s.crossing_partner.is_some())
            .expect("a CSE-merged pair");
        let j = d.shortcuts.shortcuts[i].crossing_partner.expect("partner");
        d.shortcuts.shortcuts[i].crossing_partner = None;
        d.shortcuts.shortcuts[j].crossing_partner = None;
        let v = ring_crossing_verdict(&d);
        assert!(!v.passed);
        assert!(v.detail.contains("non-partner"), "{}", v.detail);
    }

    #[test]
    fn empty_report_is_not_clean() {
        let r = AuditReport::empty();
        assert!(!r.is_audited());
        assert!(!r.is_clean());
        assert!(r.summary().contains("not audited"));
    }

    #[test]
    fn missing_demand_is_caught() {
        let d = clean_design();
        let mut plan = d.plan.clone();
        plan.routes.pop();
        let err =
            check_demands_served(&plan, &Traffic::AllToAll.pairs(&d.net)).expect_err("must fail");
        assert!(err.contains("not served"), "{err}");
    }

    #[test]
    fn duplicate_demand_is_caught() {
        let d = clean_design();
        let mut plan = d.plan.clone();
        let dup = plan.routes[0];
        plan.routes.push(dup);
        let err =
            check_demands_served(&plan, &Traffic::AllToAll.pairs(&d.net)).expect_err("must fail");
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn misaligned_layout_is_caught() {
        // Perturb the plan (not the layout): the layout still validates
        // on its own, so only the index-alignment check can catch it.
        let d = clean_design();
        let mut plan = d.plan.clone();
        let wl = plan.routes[0].wavelength;
        plan.routes[0].wavelength = xring_phot::Wavelength::new(wl.index() + 1);
        let err = check_layout_aligned(&plan, &d.layout).expect_err("must fail");
        assert!(err.contains("disagrees"), "{err}");
    }

    #[test]
    fn truncated_layout_is_caught() {
        let d = clean_design();
        let mut layout = d.layout.clone();
        layout.signals.clear();
        let report = audit_structure(
            &d.net,
            &d.cycle,
            &d.plan,
            &layout,
            &Traffic::AllToAll.pairs(&d.net),
        );
        assert!(!report.is_clean());
        let fail = report.failures().next().expect("one failure");
        assert_eq!(fail.invariant, Invariant::LayoutWellFormed);
    }

    #[test]
    fn non_finite_report_values_are_caught() {
        let d = clean_design();
        let mut report = d.report("x", &LossParams::default(), None, &PowerParams::default());
        report.worst_il_db = f64::NAN;
        let v = audit_report_bounds(&report);
        assert!(!v.passed);
        assert!(v.detail.contains("IL"), "{}", v.detail);

        let mut report = d.report("x", &LossParams::default(), None, &PowerParams::default());
        report.total_power_w = Some(f64::INFINITY);
        assert!(!audit_report_bounds(&report).passed);
    }

    #[test]
    fn zero_power_empty_router_is_within_bounds() {
        // An empty-traffic router carries no signals: its total laser
        // power is 0 (often formatted -0), which must pass.
        let d = clean_design();
        let mut report = d.report("x", &LossParams::default(), None, &PowerParams::default());
        report.total_power_w = Some(-0.0);
        assert!(audit_report_bounds(&report).passed);
        report.total_power_w = Some(-1e-3);
        assert!(!audit_report_bounds(&report).passed);
    }

    #[test]
    fn invariant_names_are_stable() {
        assert_eq!(Invariant::RingClosedCycle.name(), "ring-closed-cycle");
        assert_eq!(Invariant::PhysicalBounds.to_string(), "physical-bounds");
    }

    fn verdict(invariant: Invariant, passed: bool, detail: &str) -> Verdict {
        Verdict {
            invariant,
            passed,
            detail: detail.to_owned(),
        }
    }

    #[test]
    fn merge_replaces_duplicate_invariants_last_write_wins() {
        let mut base = AuditReport {
            verdicts: vec![
                verdict(Invariant::RingClosedCycle, true, ""),
                verdict(Invariant::DemandsServedOnce, false, "stale failure"),
            ],
        };
        let fresh = AuditReport {
            verdicts: vec![
                verdict(Invariant::DemandsServedOnce, true, ""),
                verdict(Invariant::PhysicalBounds, true, ""),
            ],
        };
        base.merge(fresh);
        // No duplicate invariant survives the merge...
        assert_eq!(base.verdicts.len(), 3);
        // ...the re-checked verdict replaced the stale one in place...
        assert_eq!(base.verdicts[1].invariant, Invariant::DemandsServedOnce);
        assert!(base.verdicts[1].passed);
        assert!(base.verdicts[1].detail.is_empty());
        // ...and new invariants were appended after the existing order.
        assert_eq!(base.verdicts[2].invariant, Invariant::PhysicalBounds);
        assert!(base.is_clean());
    }

    #[test]
    fn merge_last_write_wins_can_also_dirty_a_clean_report() {
        let mut base = AuditReport {
            verdicts: vec![verdict(Invariant::LayoutWellFormed, true, "")],
        };
        base.merge(AuditReport {
            verdicts: vec![verdict(
                Invariant::LayoutWellFormed,
                false,
                "re-check failed",
            )],
        });
        assert_eq!(base.verdicts.len(), 1);
        assert!(!base.is_clean());
        assert_eq!(base.failures().count(), 1);
    }

    #[test]
    fn merge_with_empty_reports_is_a_no_op_in_both_directions() {
        let mut empty = AuditReport::empty();
        let full = AuditReport {
            verdicts: vec![verdict(Invariant::RingCrossingsDeclared, true, "")],
        };
        empty.merge(full.clone());
        assert_eq!(empty, full);
        let mut full2 = full.clone();
        full2.merge(AuditReport::empty());
        assert_eq!(full2, full);
    }
}
