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
use crate::mapping::{MappingPlan, RouteKind};
use crate::netspec::{NetworkSpec, NodeId};
use crate::ring::RingCycle;
use crate::shortcut::ShortcutPlan;
use crate::traffic::Traffic;
use std::fmt;
use xring_geom::Point;
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
    // Summed from the routes, not read from the cycle's own prefix sum.
    let perimeter: i64 = (0..n).map(|i| cycle.edge_route(i).length()).sum();
    if perimeter <= 0 {
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
    let boxes: Vec<Extent> = (0..n)
        .map(|i| {
            let r = cycle.edge_route(i);
            Extent::of(r.from(), r.to())
        })
        .collect();
    let crossings = touching_extents(&boxes, n)
        .into_iter()
        .filter(|&(i, j)| cycle.edge_route(i).crosses(cycle.edge_route(j)))
        .count();
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
/// partner. Re-derived from the segments themselves, so it does not
/// trust the planner's crossing index. Reports the first violation in
/// shortcut order: shortcut `i` against the ring, then against the
/// shortcuts after it.
fn check_shortcut_crossings(cycle: &RingCycle, shortcuts: &ShortcutPlan) -> Result<(), String> {
    let list = &shortcuts.shortcuts;
    if list.is_empty() {
        return Ok(());
    }
    let ring = cycle.polyline().segments();
    // Extents `0..S` are the shortcuts, `S..` the ring segments.
    let s = list.len();
    let boxes: Vec<Extent> = list
        .iter()
        .map(|c| Extent::of(c.route.from(), c.route.to()))
        .chain(ring.iter().map(|seg| Extent::of(seg.start(), seg.end())))
        .collect();
    // Per shortcut: whether it crosses the ring, and the first later
    // non-partner shortcut it crosses.
    let mut crosses_ring = vec![false; s];
    let mut stranger = vec![usize::MAX; s];
    for (i, j) in touching_extents(&boxes, s) {
        let route = &list[i].route;
        if j >= s {
            crosses_ring[i] |= route.proper_crossings_with(std::slice::from_ref(&ring[j - s])) > 0;
        } else {
            let partners =
                list[i].crossing_partner == Some(j) && list[j].crossing_partner == Some(i);
            if !partners && route.crosses(&list[j].route) {
                stranger[i] = stranger[i].min(j);
            }
        }
    }
    for (i, c) in list.iter().enumerate() {
        if crosses_ring[i] {
            return Err(format!("shortcut {i} ({} - {}) crosses the ring", c.a, c.b));
        }
        if stranger[i] != usize::MAX {
            return Err(format!(
                "shortcut {i} crosses non-partner shortcut {}",
                stranger[i]
            ));
        }
    }
    Ok(())
}

/// The closed axis-aligned box spanned by two points.
#[derive(Debug, Clone, Copy)]
struct Extent {
    x: (i64, i64),
    y: (i64, i64),
}

impl Extent {
    fn of(a: Point, b: Point) -> Self {
        Extent {
            x: (a.x.min(b.x), a.x.max(b.x)),
            y: (a.y.min(b.y), a.y.max(b.y)),
        }
    }
}

/// Every index pair `(i, j)`, `i < j`, of extents that share a point and
/// of which `i` is one of the first `probes` extents, in no particular
/// order. (Extents from `probes` on are tested only against the probes.)
/// An L-route or segment lies inside the extent of its endpoints, so
/// only these pairs can cross. Sweeps the extents by left edge and keeps
/// the active ones, those not yet ended left of the sweep line:
/// O(N log N + N·A) for at most A active.
fn touching_extents(boxes: &[Extent], probes: usize) -> Vec<(usize, usize)> {
    let mut order: Vec<usize> = (0..boxes.len()).collect();
    order.sort_unstable_by_key(|&k| boxes[k].x.0);
    // Active probes, and active extents that are not probes.
    let (mut active, mut passive): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    let mut pairs = Vec::new();
    for &k in &order {
        let b = boxes[k];
        active.retain(|&a| boxes[a].x.1 >= b.x.0);
        passive.retain(|&a| boxes[a].x.1 >= b.x.0);
        let probe = k < probes;
        let others: &[usize] = if probe { &passive } else { &[] };
        for &a in active.iter().chain(others) {
            let other = boxes[a];
            if other.y.0 <= b.y.1 && b.y.0 <= other.y.1 {
                pairs.push((a.min(k), a.max(k)));
            }
        }
        if probe {
            active.push(k);
        } else {
            passive.push(k);
        }
    }
    pairs
}

/// Every route serves a distinct, non-loop demand, and the routes serve
/// exactly the demands in `expected`. A bad route is reported at its
/// first position in plan order; missing and extra demands in sorted
/// order.
fn check_demands_served(plan: &MappingPlan, expected: &[(NodeId, NodeId)]) -> Result<(), String> {
    let mut served: Vec<(NodeId, NodeId, usize)> = plan
        .routes
        .iter()
        .enumerate()
        .map(|(k, r)| (r.from, r.to, k))
        .collect();
    served.sort_unstable();
    // The first route that is a self-loop or repeats an earlier demand.
    let repeat = served
        .windows(2)
        .filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
        .map(|w| w[1].2);
    let self_loop = plan.routes.iter().position(|r| r.from == r.to);
    if let Some(r) = repeat.chain(self_loop).min().map(|k| &plan.routes[k]) {
        return Err(match r.from == r.to {
            true => format!("route {} -> {} is a self-loop", r.from, r.to),
            false => format!("demand {} -> {} served twice", r.from, r.to),
        });
    }
    let served: Vec<(NodeId, NodeId)> = served.into_iter().map(|(a, b, _)| (a, b)).collect();
    let mut wanted = expected.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    if let Some(d) = wanted.iter().find(|d| served.binary_search(d).is_err()) {
        return Err(format!("demand {} -> {} not served", d.0, d.1));
    }
    if let Some(s) = served.iter().find(|s| wanted.binary_search(s).is_err()) {
        return Err(format!("route {} -> {} serves no demand", s.0, s.1));
    }
    Ok(())
}

/// The wavelength-assignment check behind [`MappingPlan::validate`]:
/// every lane is edge-disjoint, no arc passes its waveguide's opening,
/// and every ring route is resident on the lane of its wavelength.
///
/// Each lane is walked backwards over one edge-owner array, so the first
/// later arc sharing an edge with each arc is found in O(arc edges); the
/// first failing arc in lane order is reported, against the first later
/// arc it overlaps.
pub(crate) fn check_wavelength_assignment(plan: &MappingPlan) -> Result<(), String> {
    const FREE: usize = usize::MAX;
    let edges = (plan.ring_waveguides.iter())
        .flat_map(|w| &w.lanes)
        .flat_map(|l| &l.arcs)
        .flat_map(|a| a.edges.iter().map(|e| e + 1))
        .max()
        .unwrap_or(0);
    // owner[e] during a lane's backward walk: the first arc after the
    // current one that covers edge e.
    let mut owner = vec![FREE; edges];
    for (wi, wg) in plan.ring_waveguides.iter().enumerate() {
        for (li, lane) in wg.lanes.iter().enumerate() {
            // (arc, first later arc it overlaps or FREE), for the first
            // arc in lane order that passes the opening or overlaps.
            let mut first_bad: Option<(usize, usize)> = None;
            for (ai, a) in lane.arcs.iter().enumerate().rev() {
                let overlap = a.edges.iter().map(|&e| owner[e]).min().unwrap_or(FREE);
                let passes_opening = wg.opening.is_some_and(|open| a.interior.contains(&open));
                if passes_opening || overlap != FREE {
                    first_bad = Some((ai, overlap));
                }
                for &e in &a.edges {
                    owner[e] = ai;
                }
            }
            for a in &lane.arcs {
                for &e in &a.edges {
                    owner[e] = FREE;
                }
            }
            let Some((ai, bi)) = first_bad else {
                continue;
            };
            let a = &lane.arcs[ai];
            return Err(match wg.opening.filter(|open| a.interior.contains(open)) {
                Some(open) => format!(
                    "waveguide {wi} lane {li}: arc of signal {} passes opening {open}",
                    a.signal
                ),
                None => format!(
                    "waveguide {wi} lane {li}: signals {} and {} overlap",
                    a.signal, lane.arcs[bi].signal
                ),
            });
        }
    }
    for (si, r) in plan.routes.iter().enumerate() {
        if let RouteKind::Ring { waveguide } = r.kind {
            let wg = &plan.ring_waveguides[waveguide];
            let li = r.wavelength.index() as usize;
            if li >= wg.lanes.len() || !wg.lanes[li].arcs.iter().any(|a| a.signal == si) {
                return Err(format!("signal {si} not resident on its lane"));
            }
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

    /// The original lane check: every arc against every later arc of its
    /// lane, edge list against edge list.
    fn reference_validate(plan: &MappingPlan) -> Result<(), String> {
        for (wi, wg) in plan.ring_waveguides.iter().enumerate() {
            for (li, lane) in wg.lanes.iter().enumerate() {
                for (ai, a) in lane.arcs.iter().enumerate() {
                    if let Some(open) = wg.opening {
                        if a.interior.contains(&open) {
                            return Err(format!(
                                "waveguide {wi} lane {li}: arc of signal {} passes opening {open}",
                                a.signal
                            ));
                        }
                    }
                    for b in &lane.arcs[ai + 1..] {
                        if a.edges.iter().any(|e| b.edges.contains(e)) {
                            return Err(format!(
                                "waveguide {wi} lane {li}: signals {} and {} overlap",
                                a.signal, b.signal
                            ));
                        }
                    }
                }
            }
        }
        for (si, r) in plan.routes.iter().enumerate() {
            if let RouteKind::Ring { waveguide } = r.kind {
                let wg = &plan.ring_waveguides[waveguide];
                let li = r.wavelength.index() as usize;
                if li >= wg.lanes.len() || !wg.lanes[li].arcs.iter().any(|a| a.signal == si) {
                    return Err(format!("signal {si} not resident on its lane"));
                }
            }
        }
        Ok(())
    }

    /// The original crossing check: the ring recount and the shortcut
    /// checks over every pair.
    fn reference_crossings_declared(
        cycle: &RingCycle,
        shortcuts: &ShortcutPlan,
    ) -> Result<(), String> {
        let n = cycle.len();
        let mut crossings = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                crossings += usize::from(cycle.edge_route(i).crosses(cycle.edge_route(j)));
            }
        }
        if crossings != cycle.residual_crossings() {
            return Err(format!(
                "recounted {crossings} ring crossings, cycle claims {}",
                cycle.residual_crossings()
            ));
        }
        let list = &shortcuts.shortcuts;
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

    /// Designs for the audit oracles: heuristic rings on every oracle
    /// floorplan, 3-NN traffic on the large ones.
    fn oracle_designs() -> Vec<(String, XRingDesign)> {
        crate::netspec::oracle_floorplans()
            .into_iter()
            .map(|(name, net)| {
                let options = SynthesisOptions {
                    ring_algorithm: crate::ring::RingAlgorithm::Heuristic,
                    traffic: match net.len() > 16 {
                        true => Traffic::NearestNeighbors(3),
                        false => Traffic::AllToAll,
                    },
                    ..SynthesisOptions::with_wavelengths(8)
                };
                let d = Synthesizer::new(options)
                    .synthesize(&net)
                    .expect("synthesized");
                (name, d)
            })
            .collect()
    }

    #[test]
    fn lane_check_matches_the_pairwise_reference_on_clean_and_corrupted_plans() {
        let mut rng = crate::variation::SplitMix64::new(7);
        let mut pick = |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
        let mut failures = 0;
        for (name, d) in oracle_designs() {
            assert_eq!(d.plan.validate(), Ok(()), "{name}");
            assert_eq!(reference_validate(&d.plan), Ok(()), "{name}");
            for round in 0..24 {
                let mut plan = d.plan.clone();
                if plan.ring_waveguides.is_empty() {
                    break;
                }
                let wi = pick(plan.ring_waveguides.len());
                let li = pick(plan.ring_waveguides[wi].lanes.len());
                let lane = &mut plan.ring_waveguides[wi].lanes[li];
                let ai = pick(lane.arcs.len());
                match round % 4 {
                    // A copy of one arc elsewhere on its waveguide.
                    0 | 1 => {
                        let arc = lane.arcs[ai].clone();
                        let wg = &mut plan.ring_waveguides[wi];
                        let to = pick(wg.lanes.len());
                        let at = pick(wg.lanes[to].arcs.len() + 1);
                        wg.lanes[to].arcs.insert(at, arc);
                    }
                    // An opening inside one arc.
                    2 => {
                        let interior = lane.arcs[ai].interior.clone();
                        if !interior.is_empty() {
                            plan.ring_waveguides[wi].opening = Some(interior[pick(interior.len())]);
                        }
                    }
                    // A dropped arc: its signal is no longer resident.
                    _ => {
                        lane.arcs.remove(ai);
                    }
                }
                let got = plan.validate();
                assert_eq!(got, reference_validate(&plan), "{name}, round {round}");
                failures += usize::from(got.is_err());
            }
        }
        assert!(failures > 100, "only {failures} corrupted plans failed");
    }

    #[test]
    fn crossing_checks_match_the_all_pairs_reference() {
        let mut failures = 0;
        for (name, d) in oracle_designs() {
            let check = |d: &XRingDesign| check_ring_crossings_declared(&d.cycle, &d.shortcuts);
            assert_eq!(check(&d), Ok(()), "{name}");
            assert_eq!(reference_crossings_declared(&d.cycle, &d.shortcuts), Ok(()));
            // Corruptions: every shortcut routed the other way round, one
            // shortcut at a time; each CSE pair undeclared; every shortcut
            // moved onto the first one's corridor.
            let mut variants = Vec::new();
            for k in 0..d.shortcuts.shortcuts.len() {
                let mut v = d.shortcuts.clone();
                let r = v.shortcuts[k].route;
                v.shortcuts[k].route = LRoute::new(r.from(), r.to(), r.option().flipped());
                variants.push(v);
                let mut v = d.shortcuts.clone();
                v.shortcuts[k].crossing_partner = None;
                variants.push(v);
                let mut v = d.shortcuts.clone();
                v.shortcuts[k].route = v.shortcuts[0].route;
                variants.push(v);
            }
            for v in &variants {
                let got = check_ring_crossings_declared(&d.cycle, v);
                assert_eq!(got, reference_crossings_declared(&d.cycle, v), "{name}");
                failures += usize::from(got.is_err());
            }
        }
        assert!(failures > 50, "only {failures} corrupted plans failed");
    }

    #[test]
    fn ring_recount_matches_the_all_pairs_reference() {
        // Ring routes are private to the cycle; rebuild rings from orders
        // that need the greedy fallback or leave crossings.
        let mut residual = 0;
        for (name, net) in crate::netspec::oracle_floorplans() {
            for order in [
                crate::heuristics::heuristic_tour(&net),
                crate::heuristics::nearest_neighbor_tour(&net),
                net.node_ids().collect(),
            ] {
                let (cycle, _) = RingCycle::from_order(&net, order);
                let empty = ShortcutPlan::empty();
                let got = check_ring_crossings_declared(&cycle, &empty);
                assert_eq!(got, reference_crossings_declared(&cycle, &empty), "{name}");
                residual += cycle.residual_crossings();
            }
        }
        assert!(residual > 0, "no ring kept a crossing");
    }

    /// The original demand check over hash sets. Which of several
    /// missing or extra demands it names depends on the set's iteration
    /// order, so it is compared only on plans with one such error.
    fn reference_demands_served(
        plan: &MappingPlan,
        expected: &[(NodeId, NodeId)],
    ) -> Result<(), String> {
        use std::collections::HashSet;
        let mut served: HashSet<(NodeId, NodeId)> = HashSet::new();
        for r in &plan.routes {
            if r.from == r.to {
                return Err(format!("route {} -> {} is a self-loop", r.from, r.to));
            }
            if !served.insert((r.from, r.to)) {
                return Err(format!("demand {} -> {} served twice", r.from, r.to));
            }
        }
        let wanted: HashSet<(NodeId, NodeId)> = expected.iter().copied().collect();
        if let Some(d) = wanted.iter().find(|d| !served.contains(d)) {
            return Err(format!("demand {} -> {} not served", d.0, d.1));
        }
        if let Some(s) = served.iter().find(|s| !wanted.contains(s)) {
            return Err(format!("route {} -> {} serves no demand", s.0, s.1));
        }
        Ok(())
    }

    #[test]
    fn demand_check_matches_the_set_reference() {
        let d = clean_design();
        let expected = Traffic::AllToAll.pairs(&d.net);
        let mut plans = Vec::new();
        for k in [0, 7, 55] {
            let mut plan = d.plan.clone();
            plan.routes.remove(k);
            plans.push((
                plan,
                format!(
                    "demand {} -> {} not served",
                    d.plan.routes[k].from, d.plan.routes[k].to
                ),
            ));
            let mut plan = d.plan.clone();
            plan.routes.push(d.plan.routes[k]);
            plans.push((
                plan,
                format!(
                    "demand {} -> {} served twice",
                    d.plan.routes[k].from, d.plan.routes[k].to
                ),
            ));
            let mut plan = d.plan.clone();
            let r = d.plan.routes[k];
            plan.routes[k].to = r.from;
            plans.push((
                plan,
                format!("route {} -> {} is a self-loop", r.from, r.from),
            ));
        }
        for (plan, want) in &plans {
            assert_eq!(check_demands_served(plan, &expected), Err(want.clone()));
            assert_eq!(reference_demands_served(plan, &expected), Err(want.clone()));
        }
        // Served twice is reported at the first repeat in plan order,
        // even when a later self-loop exists.
        let mut plan = d.plan.clone();
        plan.routes.insert(3, d.plan.routes[1]);
        plan.routes[9].to = plan.routes[9].from;
        let err = check_demands_served(&plan, &expected).expect_err("must fail");
        assert!(err.contains("served twice"), "{err}");
        assert_eq!(reference_demands_served(&plan, &expected), Err(err));
        // A route outside the pattern.
        let sparse = &expected[1..];
        let err = check_demands_served(&d.plan, sparse).expect_err("must fail");
        let (a, b) = expected[0];
        assert_eq!(err, format!("route {a} -> {b} serves no demand"));
        assert_eq!(reference_demands_served(&d.plan, sparse), Err(err));
        assert_eq!(check_demands_served(&d.plan, &expected), Ok(()));
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
