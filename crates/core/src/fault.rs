//! Device-fault models and post-failure auditing.
//!
//! The paper assumes every MRR and waveguide segment works forever. This
//! module models the three single-device failure modes of a wavelength-
//! routed ring router and answers, for a finished [`XRingDesign`], the
//! question *"what does this design still deliver after a device dies?"*:
//!
//! * [`DeviceFault::MrrDrop`] — one receiver drop MRR stops resonating;
//!   its signal can no longer be extracted at the destination.
//! * [`DeviceFault::SegmentBreak`] — one segment of one ring waveguide
//!   physically breaks; every signal whose arc crosses that segment loses
//!   its path.
//! * [`DeviceFault::WavelengthLoss`] — one WDM channel becomes unusable
//!   chip-wide (a failed laser line or comb tooth); every signal on that
//!   wavelength goes dark.
//!
//! [`apply_fault`] produces the *degraded design*: the fault is repaired
//! from spare resources when [`SynthesisOptions::spares`] provisioned
//! them, and demands that cannot be repaired are honestly dropped.
//! [`audit_design_under_fault`] then re-runs the full structural audit
//! (demands served, conflict freedom, layout well-formedness, physical
//! bounds) against the *original* traffic contract and reports the
//! post-failure SNR and served-demand fraction.
//! [`verify_single_fault_survivability`] exhaustively enumerates every
//! single-fault scenario ([`enumerate_single_faults`]) through that
//! auditor; the synthesizer runs it whenever spares are requested, so a
//! design returned with `spares.k >= 1` is *proven* to survive any single
//! device fault.
//!
//! # Repair model
//!
//! * **Spare MRRs** (`k_mrrs >= 1`): each receiver site is provisioned
//!   with a spare drop ring parked off-resonance; an MRR drop is absorbed
//!   by tuning the spare onto the victim's channel. The layout is
//!   unchanged (the parked ring's residual through-loss is below the
//!   modeling floor), so the degraded design equals the original.
//! * **Spare wavelengths** (`k_wavelengths >= 1`): synthesis maps traffic
//!   into `max_wavelengths - k_wavelengths` lanes, keeping the top `k`
//!   channels dark. A wavelength loss migrates every lane on the failed
//!   channel to a fresh spare lane (arc structure intact, so conflict
//!   freedom is preserved by construction) and retunes shortcut signals
//!   to a spare channel that is conflict-free on their wires. A segment
//!   break evicts the crossing arcs and re-places them on other
//!   same-direction waveguides — into existing lanes where they fit,
//!   else into the reserved spare lanes, else onto a dark protection
//!   waveguide materialized for the repair.

use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

use crate::audit::{audit_report_bounds, audit_structure, AuditReport};
use crate::design::{realize, XRingDesign};
use crate::layout::{LayoutModel, Station};
use crate::mapping::{Lane, LaneArc, MappingPlan, RingWaveguide, RouteKind, SignalRoute};
use crate::netspec::NodeId;
use crate::ring::{Direction, RingCycle};
use crate::shortcut::ShortcutPlan;
use crate::synth::SynthesisOptions;
use xring_phot::{CrosstalkParams, PowerParams, Wavelength};

/// Spare resources reserved at synthesis time so single device faults
/// are repairable (see [`SynthesisOptions::spares`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpareConfig {
    /// Spare WDM channels per waveguide: traffic is mapped into
    /// `max_wavelengths - k_wavelengths` lanes and the top `k` channels
    /// stay dark until a repair needs them.
    pub k_wavelengths: usize,
    /// Spare receiver drop MRRs per site, parked off-resonance.
    pub k_mrrs: usize,
}

impl SpareConfig {
    /// The same spare count for every resource class.
    pub fn uniform(k: usize) -> Self {
        SpareConfig {
            k_wavelengths: k,
            k_mrrs: k,
        }
    }

    /// True when any spare resource is provisioned.
    pub fn any(&self) -> bool {
        self.k_wavelengths > 0 || self.k_mrrs > 0
    }
}

impl fmt::Display for SpareConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k_wl={} k_mrr={}", self.k_wavelengths, self.k_mrrs)
    }
}

/// One single-device fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceFault {
    /// The receiver drop MRR of signal `signal` (index into
    /// [`MappingPlan::routes`]) stops resonating.
    MrrDrop {
        /// Global signal index.
        signal: usize,
    },
    /// Cycle edge `edge` of ring waveguide `waveguide` breaks; no light
    /// crosses that segment on that waveguide any more.
    SegmentBreak {
        /// Ring waveguide index.
        waveguide: usize,
        /// Broken cycle edge (edge `i` joins cycle positions `i` and
        /// `i + 1 mod n`).
        edge: usize,
    },
    /// WDM channel `wavelength` is lost chip-wide.
    WavelengthLoss {
        /// Failed channel index.
        wavelength: u16,
    },
}

impl DeviceFault {
    /// Stable kebab-case class name for logs, counters and assertions.
    pub fn class(&self) -> &'static str {
        match self {
            DeviceFault::MrrDrop { .. } => "mrr-drop",
            DeviceFault::SegmentBreak { .. } => "segment-break",
            DeviceFault::WavelengthLoss { .. } => "wavelength-loss",
        }
    }
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceFault::MrrDrop { signal } => write!(f, "mrr-drop(signal {signal})"),
            DeviceFault::SegmentBreak { waveguide, edge } => {
                write!(f, "segment-break(waveguide {waveguide}, edge {edge})")
            }
            DeviceFault::WavelengthLoss { wavelength } => {
                write!(f, "wavelength-loss(λ{wavelength})")
            }
        }
    }
}

/// Every single-fault scenario of `design`: one MRR drop per signal, one
/// segment break per (ring waveguide × cycle edge), one wavelength loss
/// per channel in use. The exhaustive set
/// [`verify_single_fault_survivability`] walks.
pub fn enumerate_single_faults(design: &XRingDesign) -> Vec<DeviceFault> {
    let mut out = Vec::new();
    for signal in 0..design.plan.routes.len() {
        out.push(DeviceFault::MrrDrop { signal });
    }
    let n = design.cycle.len();
    for waveguide in 0..design.plan.ring_waveguides.len() {
        for edge in 0..n {
            out.push(DeviceFault::SegmentBreak { waveguide, edge });
        }
    }
    for wavelength in 0..design.plan.wavelengths_used() {
        out.push(DeviceFault::WavelengthLoss {
            wavelength: wavelength as u16,
        });
    }
    out
}

/// What a repair consumed, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairSummary {
    /// MRR drops absorbed by a parked spare ring.
    pub spare_mrrs: usize,
    /// Signals retuned to a spare wavelength channel.
    pub retuned_signals: usize,
    /// Arcs evicted from a broken segment and re-placed elsewhere.
    pub moved_arcs: usize,
    /// Dark protection waveguides materialized for the repair.
    pub protection_waveguides: usize,
    /// Demands that could not be repaired and were dropped.
    pub dropped_demands: usize,
}

/// A design with one [`DeviceFault`] applied (and repaired from spares
/// where possible).
#[derive(Debug, Clone)]
pub struct DegradedDesign {
    /// The post-fault design. When the fault was fully absorbed without
    /// touching any structure (`unchanged`), this is a plain clone.
    pub design: XRingDesign,
    /// The fault that was applied.
    pub fault: DeviceFault,
    /// What the repair consumed.
    pub repair: RepairSummary,
    /// Demands lost to the fault (empty when fully repaired).
    pub lost: Vec<(NodeId, NodeId)>,
    /// True when the degraded design is structurally identical to the
    /// original (the fault touched nothing, or a spare absorbed it in
    /// place); lets auditors share one audit across such scenarios.
    pub unchanged: bool,
}

/// Applies `fault` to `design`, repairing from the spare resources in
/// `options.spares` where possible. Demands that cannot be repaired are
/// dropped (and reported in [`DegradedDesign::lost`]) rather than left
/// silently broken — the post-fault audit then fails demands-served,
/// which is the honest outcome.
pub fn apply_fault(
    design: &XRingDesign,
    fault: DeviceFault,
    options: &SynthesisOptions,
) -> DegradedDesign {
    match fault {
        DeviceFault::MrrDrop { signal } if signal < design.plan.routes.len() => {
            if options.spares.k_mrrs >= 1 {
                return DegradedDesign {
                    design: design.clone(),
                    fault,
                    repair: RepairSummary {
                        spare_mrrs: 1,
                        ..Default::default()
                    },
                    lost: Vec::new(),
                    unchanged: true,
                };
            }
            let dead: BTreeSet<usize> = [signal].into_iter().collect();
            let (plan, lost) = strip_routes(design.plan.clone(), &dead);
            let degraded = with_plan(design, plan, design.pdn.clone(), options);
            DegradedDesign {
                design: degraded,
                fault,
                repair: RepairSummary {
                    dropped_demands: lost.len(),
                    ..Default::default()
                },
                lost,
                unchanged: false,
            }
        }
        DeviceFault::SegmentBreak { waveguide, edge }
            if waveguide < design.plan.ring_waveguides.len() && edge < design.cycle.len() =>
        {
            apply_segment_break(design, waveguide, edge, options)
        }
        DeviceFault::WavelengthLoss { wavelength } => {
            apply_wavelength_loss(design, wavelength, options)
        }
        // Out-of-range coordinates address no device: nothing degrades.
        _ => DegradedDesign {
            design: design.clone(),
            fault,
            repair: RepairSummary::default(),
            lost: Vec::new(),
            unchanged: true,
        },
    }
}

fn apply_wavelength_loss(
    design: &XRingDesign,
    wavelength: u16,
    options: &SynthesisOptions,
) -> DegradedDesign {
    let fault = DeviceFault::WavelengthLoss { wavelength };
    let failed = Wavelength::new(wavelength);
    let affected: Vec<usize> = (0..design.plan.routes.len())
        .filter(|&si| design.plan.routes[si].wavelength == failed)
        .collect();
    if affected.is_empty() {
        return DegradedDesign {
            design: design.clone(),
            fault,
            repair: RepairSummary::default(),
            lost: Vec::new(),
            unchanged: true,
        };
    }
    if options.spares.k_wavelengths == 0 {
        let dead: BTreeSet<usize> = affected.into_iter().collect();
        let (plan, lost) = strip_routes(design.plan.clone(), &dead);
        let degraded = with_plan(design, plan, design.pdn.clone(), options);
        return DegradedDesign {
            design: degraded,
            fault,
            repair: RepairSummary {
                dropped_demands: lost.len(),
                ..Default::default()
            },
            lost,
            unchanged: false,
        };
    }

    let mut plan = design.plan.clone();
    let mut retuned = 0usize;
    // Ring lanes: migrate each waveguide's failed lane wholesale to a
    // fresh spare lane. The arcs keep their relative structure, so
    // edge-disjointness and opening avoidance carry over; the vacated
    // lane stays (empty) so other lane indices remain stable. The spare
    // index is strictly below `max_wavelengths` because mapping used only
    // `max_wavelengths - k_wavelengths` lanes.
    for wi in 0..plan.ring_waveguides.len() {
        let li = wavelength as usize;
        let taken = {
            let wg = &mut plan.ring_waveguides[wi];
            if li < wg.lanes.len() && !wg.lanes[li].arcs.is_empty() {
                Some(std::mem::take(&mut wg.lanes[li].arcs))
            } else {
                None
            }
        };
        if let Some(arcs) = taken {
            let spare = plan.ring_waveguides[wi].lanes.len();
            for arc in &arcs {
                plan.routes[arc.signal].wavelength = Wavelength::new(spare as u16);
                retuned += 1;
            }
            plan.ring_waveguides[wi].lanes.push(Lane { arcs });
        }
    }
    // Shortcut signals on the failed channel: retune to a spare channel
    // that no wire-sharing (or crossing-coupled) neighbour uses.
    let mut dead: BTreeSet<usize> = BTreeSet::new();
    let shortcut_victims: Vec<usize> = affected
        .iter()
        .copied()
        .filter(|&si| !matches!(plan.routes[si].kind, RouteKind::Ring { .. }))
        .collect();
    for si in shortcut_victims {
        match spare_shortcut_channel(&plan, &design.shortcuts, si, failed, options) {
            Some(c) => {
                plan.routes[si].wavelength = c;
                retuned += 1;
            }
            None => {
                dead.insert(si);
            }
        }
    }
    let dropped = dead.len();
    let (plan, lost) = strip_routes(plan, &dead);
    let degraded = with_plan(design, plan, design.pdn.clone(), options);
    DegradedDesign {
        design: degraded,
        fault,
        repair: RepairSummary {
            retuned_signals: retuned,
            dropped_demands: dropped,
            ..Default::default()
        },
        lost,
        unchanged: false,
    }
}

fn apply_segment_break(
    design: &XRingDesign,
    waveguide: usize,
    edge: usize,
    options: &SynthesisOptions,
) -> DegradedDesign {
    let fault = DeviceFault::SegmentBreak { waveguide, edge };
    let mut victims: Vec<LaneArc> = design.plan.ring_waveguides[waveguide]
        .lanes
        .iter()
        .flat_map(|lane| lane.arcs.iter().filter(|a| a.covers(edge)))
        .copied()
        .collect();
    if victims.is_empty() {
        // No arc crosses the broken segment: the break is physically
        // real but behaviourally invisible.
        return DegradedDesign {
            design: design.clone(),
            fault,
            repair: RepairSummary::default(),
            lost: Vec::new(),
            unchanged: true,
        };
    }

    let mut plan = design.plan.clone();
    for lane in &mut plan.ring_waveguides[waveguide].lanes {
        lane.arcs.retain(|a| !a.covers(edge));
    }
    let dir = plan.ring_waveguides[waveguide].direction;
    // Longest-first, like the original best-fit mapping.
    victims.sort_by_key(|a| std::cmp::Reverse(a.len()));
    let base_waveguides = plan.ring_waveguides.len();
    let mut moves: Vec<(usize, usize)> = Vec::new(); // (signal, new waveguide)
    let mut dead: BTreeSet<usize> = BTreeSet::new();
    for arc in &victims {
        match place_displaced(&mut plan, waveguide, dir, arc, options) {
            Some((nwi, nli)) => {
                plan.routes[arc.signal].kind = RouteKind::Ring { waveguide: nwi };
                plan.routes[arc.signal].wavelength = Wavelength::new(nli as u16);
                moves.push((arc.signal, nwi));
            }
            None => {
                dead.insert(arc.signal);
            }
        }
    }
    let protection = plan.ring_waveguides.len() - base_waveguides;

    // PDN patch: a moved sender now modulates onto a waveguide its PDN
    // branch never fed. The physical repair taps the existing branch at
    // the same site, so the branch loss carries over; clone it under the
    // new (waveguide, node) key so `loss_for` stays total.
    let mut pdn = design.pdn.clone();
    if let Some(p) = &mut pdn {
        for &(signal, nwi) in &moves {
            let from = plan.routes[signal].from;
            if !p.sender_loss_db.contains_key(&(nwi, from.0)) {
                let carried = p
                    .sender_loss_db
                    .get(&(waveguide, from.0))
                    .copied()
                    .unwrap_or(0.0);
                p.sender_loss_db.insert((nwi, from.0), carried);
            }
        }
    }

    let dropped = dead.len();
    let (plan, lost) = strip_routes(plan, &dead);
    let mut degraded = with_plan(design, plan, pdn, options);
    // Mark the physical break in the layout: an Opening right before the
    // broken Segment station, so any hop that (incorrectly) still crossed
    // it would fail layout validation.
    insert_break_opening(&mut degraded.layout, &degraded.cycle, dir, waveguide, edge);
    DegradedDesign {
        design: degraded,
        fault,
        repair: RepairSummary {
            moved_arcs: moves.len(),
            protection_waveguides: protection,
            dropped_demands: dropped,
            ..Default::default()
        },
        lost,
        unchanged: false,
    }
}

/// Re-places an arc evicted from broken waveguide `broken`: first an
/// existing accepting lane on another same-direction waveguide, then a
/// fresh lane within the *full* wavelength budget (the reserved spare
/// channels exist exactly for this), finally — when spares are
/// provisioned — a dark protection waveguide materialized for the
/// repair. Returns the new `(waveguide, lane)` or `None` when the arc
/// cannot be re-placed.
fn place_displaced(
    plan: &mut MappingPlan,
    broken: usize,
    dir: Direction,
    arc: &LaneArc,
    options: &SynthesisOptions,
) -> Option<(usize, usize)> {
    for (wi, wg) in plan.ring_waveguides.iter_mut().enumerate() {
        if wi == broken || wg.direction != dir {
            continue;
        }
        for (li, lane) in wg.lanes.iter_mut().enumerate() {
            if lane.accepts(arc, wg.opening) {
                lane.arcs.push(*arc);
                return Some((wi, li));
            }
        }
    }
    for (wi, wg) in plan.ring_waveguides.iter_mut().enumerate() {
        if wi == broken || wg.direction != dir || wg.lanes.len() >= options.max_wavelengths {
            continue;
        }
        if wg.opening.is_some_and(|open| arc.passes(open)) {
            continue;
        }
        wg.lanes.push(Lane { arcs: vec![*arc] });
        return Some((wi, wg.lanes.len() - 1));
    }
    if !options.spares.any() {
        return None;
    }
    if options.max_waveguides != 0 && plan.ring_waveguides.len() >= options.max_waveguides {
        return None;
    }
    let level = plan
        .ring_waveguides
        .iter()
        .filter(|w| w.direction == dir)
        .count();
    plan.ring_waveguides.push(RingWaveguide {
        direction: dir,
        level,
        opening: None,
        lanes: vec![Lane { arcs: vec![*arc] }],
    });
    Some((plan.ring_waveguides.len() - 1, 0))
}

/// The wires `(shortcut index, forward?)` a shortcut-routed signal
/// travels.
fn shortcut_wires(route: &SignalRoute, shortcuts: &ShortcutPlan) -> Vec<(usize, bool)> {
    match route.kind {
        RouteKind::Ring { .. } => Vec::new(),
        RouteKind::ShortcutDirect { shortcut } => {
            let fwd = shortcuts.shortcuts[shortcut].a == route.from;
            vec![(shortcut, fwd)]
        }
        RouteKind::ShortcutCse { enter, exit } => {
            let fwd = shortcuts.shortcuts[enter].a == route.from;
            vec![(enter, fwd), (exit, fwd)]
        }
    }
}

/// True when the two wire sets share a physical wire (same shortcut,
/// same direction of travel). Signals that merely ride crossing-partner
/// shortcuts are *not* coupled: the original mapping co-assigns one
/// channel across a crossing pair (both CSE routes of a corridor share
/// λ2), so a shared channel on partner wires is valid by construction —
/// only a shared wire forces distinct channels.
fn wires_coupled(a: &[(usize, bool)], b: &[(usize, bool)]) -> bool {
    a.iter()
        .any(|&(s, f)| b.iter().any(|&(t, g)| s == t && f == g))
}

/// A spare channel for shortcut signal `si` after channel `failed` died:
/// the lowest reserved spare index no coupled neighbour currently uses.
fn spare_shortcut_channel(
    plan: &MappingPlan,
    shortcuts: &ShortcutPlan,
    si: usize,
    failed: Wavelength,
    options: &SynthesisOptions,
) -> Option<Wavelength> {
    let mine = shortcut_wires(&plan.routes[si], shortcuts);
    let lo = options
        .max_wavelengths
        .saturating_sub(options.spares.k_wavelengths);
    for c in lo..options.max_wavelengths {
        let candidate = Wavelength::new(c as u16);
        if candidate == failed {
            continue;
        }
        let clear = plan.routes.iter().enumerate().all(|(sj, r)| {
            sj == si
                || r.wavelength != candidate
                || matches!(r.kind, RouteKind::Ring { .. })
                || !wires_coupled(&mine, &shortcut_wires(r, shortcuts))
        });
        if clear {
            return Some(candidate);
        }
    }
    None
}

/// Removes the routes in `dead` from `plan`, remapping every surviving
/// arc's global signal index, and returns the lost demand pairs.
fn strip_routes(
    mut plan: MappingPlan,
    dead: &BTreeSet<usize>,
) -> (MappingPlan, Vec<(NodeId, NodeId)>) {
    let mut lost = Vec::new();
    let mut remap = vec![usize::MAX; plan.routes.len()];
    let mut routes = Vec::with_capacity(plan.routes.len() - dead.len());
    for (si, r) in plan.routes.iter().enumerate() {
        if dead.contains(&si) {
            lost.push((r.from, r.to));
        } else {
            remap[si] = routes.len();
            routes.push(*r);
        }
    }
    for wg in &mut plan.ring_waveguides {
        for lane in &mut wg.lanes {
            lane.arcs.retain(|a| !dead.contains(&a.signal));
            for arc in &mut lane.arcs {
                arc.signal = remap[arc.signal];
            }
        }
    }
    plan.routes = routes;
    (plan, lost)
}

/// A clone of `design` carrying `plan`/`pdn` with the layout re-realized
/// from them.
fn with_plan(
    design: &XRingDesign,
    plan: MappingPlan,
    pdn: Option<crate::pdn::PdnDesign>,
    options: &SynthesisOptions,
) -> XRingDesign {
    let layout = realize(
        &design.net,
        &design.cycle,
        &design.shortcuts,
        &plan,
        pdn.as_ref(),
        options.spacing,
    );
    XRingDesign {
        plan,
        pdn,
        layout,
        ..design.clone()
    }
}

/// Inserts an [`Station::Opening`] immediately before the Segment
/// station of `edge` on ring waveguide `wi`, shifting the hop indices of
/// every signal on that waveguide past the insertion point. Surviving
/// signals never traverse the broken segment, so their (shifted) spans
/// stay opening-free and layout validation still passes; a signal that
/// *did* cross it would now fail validation — the break is self-checking.
fn insert_break_opening(
    layout: &mut LayoutModel,
    cycle: &RingCycle,
    dir: Direction,
    wi: usize,
    edge: usize,
) {
    let n = cycle.len();
    let seq: Vec<usize> = match dir {
        Direction::Cw => (0..n).collect(),
        Direction::Ccw => (0..n).map(|k| (n - k) % n).collect(),
    };
    let mut seg = 0usize;
    let mut insert_at = None;
    for (idx, station) in layout.waveguides[wi].stations.iter().enumerate() {
        if matches!(station, Station::Segment { .. }) {
            // The k-th Segment in travel order covers cycle edge seq[k]
            // (clockwise) or the edge into the next position
            // (counter-clockwise) — mirroring `realize`.
            let e = match dir {
                Direction::Cw => seq[seg],
                Direction::Ccw => seq[(seg + 1) % n],
            };
            if e == edge {
                insert_at = Some(idx);
                break;
            }
            seg += 1;
        }
    }
    let at = insert_at.expect("every cycle edge has a Segment station on a ring waveguide");
    layout.waveguides[wi].stations.insert(at, Station::Opening);
    for sig in &mut layout.signals {
        for hop in &mut sig.hops {
            if hop.waveguide == wi {
                if hop.from_station >= at {
                    hop.from_station += 1;
                }
                if hop.to_station >= at {
                    hop.to_station += 1;
                }
            }
        }
    }
}

/// The outcome of auditing one degraded design against the original
/// traffic contract.
#[derive(Debug, Clone)]
pub struct FaultAudit {
    /// The fault scenario.
    pub fault: DeviceFault,
    /// What the repair consumed.
    pub repair: RepairSummary,
    /// The structural + physical-bounds audit of the degraded design.
    pub report: AuditReport,
    /// Demands the original traffic contract expects.
    pub demands_expected: usize,
    /// Demands the degraded design still serves.
    pub demands_served: usize,
    /// Worst post-failure SNR (present when crosstalk was evaluated).
    pub post_snr_db: Option<f64>,
    /// True when the audit is clean and no demand was lost.
    pub survived: bool,
}

impl FaultAudit {
    /// Served demands as a fraction of the expected demands (1.0 for an
    /// empty contract).
    pub fn served_fraction(&self) -> f64 {
        if self.demands_expected == 0 {
            1.0
        } else {
            self.demands_served as f64 / self.demands_expected as f64
        }
    }
}

/// Audits an already-degraded design. Exposed so sweep drivers can apply
/// once and audit without re-deriving the fault.
pub fn audit_degraded(
    degraded: &DegradedDesign,
    options: &SynthesisOptions,
    xtalk: Option<&CrosstalkParams>,
) -> FaultAudit {
    let d = &degraded.design;
    let expected = options.traffic.pairs(&d.net);
    let mut report = audit_structure(&d.net, &d.cycle, &d.plan, &d.layout, &expected);
    let evaluated = d.report("fault-audit", &options.loss, xtalk, &PowerParams::default());
    report.verdicts.push(audit_report_bounds(&evaluated));
    let survived = report.is_clean() && degraded.lost.is_empty();
    FaultAudit {
        fault: degraded.fault,
        repair: degraded.repair,
        demands_expected: expected.len(),
        demands_served: d.plan.routes.len(),
        post_snr_db: evaluated.worst_snr_db,
        survived,
        report,
    }
}

/// Applies `fault` to `design` and audits the degraded design against
/// the original traffic contract under `options`. Pass `xtalk` to also
/// evaluate post-failure SNR (loss-only otherwise — much cheaper, which
/// matters when enumerating thousands of scenarios).
pub fn audit_design_under_fault(
    design: &XRingDesign,
    fault: DeviceFault,
    options: &SynthesisOptions,
    xtalk: Option<&CrosstalkParams>,
) -> FaultAudit {
    let degraded = apply_fault(design, fault, options);
    audit_degraded(&degraded, options, xtalk)
}

/// Aggregate of an exhaustive single-fault sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivabilityReport {
    /// Scenarios enumerated.
    pub scenarios: usize,
    /// Scenarios whose post-failure audit was clean with every demand
    /// served.
    pub survived: usize,
    /// Lowest served-demand fraction across scenarios.
    pub min_served_fraction: f64,
    /// Worst post-failure SNR observed (when crosstalk was evaluated).
    pub worst_post_snr_db: Option<f64>,
    /// Description of the worst failing scenario, when any failed.
    pub worst: Option<String>,
}

impl SurvivabilityReport {
    /// Fraction of scenarios survived (the *fault margin*; 1.0 when no
    /// scenario exists).
    pub fn fault_margin(&self) -> f64 {
        if self.scenarios == 0 {
            1.0
        } else {
            self.survived as f64 / self.scenarios as f64
        }
    }

    /// True when every enumerated single fault is survivable.
    pub fn fully_survivable(&self) -> bool {
        self.survived == self.scenarios
    }
}

/// The single-fault scenarios `spares` claims to protect against: MRR
/// drops when `k_mrrs > 0`; wavelength losses *and* segment breaks when
/// `k_wavelengths > 0` (both repairs draw on the reserved spare
/// channels). The synthesizer gates release on exactly this set — a
/// partial spare config (say MRR spares only) is not rejected for fault
/// classes it never promised to cover.
pub fn protected_single_faults(design: &XRingDesign, spares: SpareConfig) -> Vec<DeviceFault> {
    enumerate_single_faults(design)
        .into_iter()
        .filter(|f| match f {
            DeviceFault::MrrDrop { .. } => spares.k_mrrs > 0,
            DeviceFault::SegmentBreak { .. } | DeviceFault::WavelengthLoss { .. } => {
                spares.k_wavelengths > 0
            }
        })
        .collect()
}

/// Exhaustively audits every single-fault scenario of `design` —
/// [`enumerate_single_faults`], all classes, regardless of spare
/// provisioning. This is the honest sweep metric: a zero-spare design
/// reports its true (sub-unit) fault margin here.
pub fn verify_single_fault_survivability(
    design: &XRingDesign,
    options: &SynthesisOptions,
    xtalk: Option<&CrosstalkParams>,
) -> SurvivabilityReport {
    verify_faults(design, &enumerate_single_faults(design), options, xtalk)
}

/// Audits the given fault scenarios of `design`. Scenarios whose repair
/// leaves the design untouched share one audit.
pub fn verify_faults(
    design: &XRingDesign,
    faults: &[DeviceFault],
    options: &SynthesisOptions,
    xtalk: Option<&CrosstalkParams>,
) -> SurvivabilityReport {
    let _span = xring_obs::span("survivability");
    let mut unchanged_memo: Option<FaultAudit> = None;
    let mut survived = 0usize;
    let mut min_served = 1.0f64;
    let mut worst_snr: Option<f64> = None;
    let mut worst: Option<String> = None;
    for fault in faults {
        let t0 = Instant::now();
        let degraded = apply_fault(design, *fault, options);
        let audit = if degraded.unchanged {
            match &unchanged_memo {
                Some(memo) => FaultAudit {
                    fault: *fault,
                    repair: degraded.repair,
                    ..memo.clone()
                },
                None => {
                    let a = audit_degraded(&degraded, options, xtalk);
                    unchanged_memo = Some(a.clone());
                    a
                }
            }
        } else {
            audit_degraded(&degraded, options, xtalk)
        };
        xring_obs::record_hist("survivability.scenario_us", t0.elapsed().as_micros() as u64);
        xring_obs::counter("survivability.scenarios", 1);
        let fraction = audit.served_fraction();
        if audit.survived {
            survived += 1;
            xring_obs::counter("survivability.survived", 1);
        } else if worst.is_none() || fraction < min_served {
            worst = Some(format!("{fault}: {}", audit.report.summary()));
        }
        min_served = min_served.min(fraction);
        worst_snr = match (worst_snr, audit.post_snr_db) {
            (Some(w), Some(s)) => Some(w.min(s)),
            (None, s) => s,
            (w, None) => w,
        };
    }
    SurvivabilityReport {
        scenarios: faults.len(),
        survived,
        min_served_fraction: min_served,
        worst_post_snr_db: worst_snr,
        worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netspec::NetworkSpec;
    use crate::synth::Synthesizer;

    fn synth(options: &SynthesisOptions) -> XRingDesign {
        Synthesizer::new(options.clone())
            .synthesize(&NetworkSpec::proton_8())
            .expect("synthesized")
    }

    #[test]
    fn enumeration_covers_every_device() {
        let options = SynthesisOptions::with_wavelengths(8);
        let design = synth(&options);
        let faults = enumerate_single_faults(&design);
        let signals = design.plan.routes.len();
        let segments = design.plan.ring_waveguides.len() * design.cycle.len();
        let channels = design.plan.wavelengths_used();
        assert_eq!(faults.len(), signals + segments + channels);
        assert_eq!(
            faults.iter().filter(|f| f.class() == "mrr-drop").count(),
            signals
        );
    }

    #[test]
    fn mrr_drop_without_spares_loses_exactly_one_demand() {
        let options = SynthesisOptions::with_wavelengths(8);
        let design = synth(&options);
        let audit =
            audit_design_under_fault(&design, DeviceFault::MrrDrop { signal: 0 }, &options, None);
        assert!(!audit.survived);
        assert_eq!(audit.demands_served, audit.demands_expected - 1);
        assert_eq!(audit.repair.dropped_demands, 1);
        // The rest of the design is still well-formed: only the
        // demands-served invariant fails.
        let failures: Vec<_> = audit.report.failures().collect();
        assert_eq!(failures.len(), 1, "{}", audit.report.summary());
    }

    #[test]
    fn mrr_drop_with_spares_is_absorbed_in_place() {
        let options = SynthesisOptions::with_wavelengths(8).with_spares(SpareConfig {
            k_wavelengths: 0,
            k_mrrs: 1,
        });
        let design = synth(&options);
        let degraded = apply_fault(&design, DeviceFault::MrrDrop { signal: 3 }, &options);
        assert!(degraded.unchanged);
        assert_eq!(degraded.repair.spare_mrrs, 1);
        let audit = audit_degraded(&degraded, &options, None);
        assert!(audit.survived, "{}", audit.report.summary());
        assert_eq!(audit.served_fraction(), 1.0);
    }

    #[test]
    fn wavelength_loss_with_spares_retunes_and_stays_clean() {
        let options = SynthesisOptions::with_wavelengths(8).with_spares(SpareConfig::uniform(1));
        let design = synth(&options);
        for wl in 0..design.plan.wavelengths_used() as u16 {
            let audit = audit_design_under_fault(
                &design,
                DeviceFault::WavelengthLoss { wavelength: wl },
                &options,
                None,
            );
            assert!(
                audit.survived,
                "λ{wl} not survivable: {}",
                audit.report.summary()
            );
            assert_eq!(audit.served_fraction(), 1.0);
        }
    }

    #[test]
    fn segment_break_with_spares_reroutes_every_victim() {
        let options = SynthesisOptions::with_wavelengths(8).with_spares(SpareConfig::uniform(1));
        let design = synth(&options);
        let n = design.cycle.len();
        for wi in 0..design.plan.ring_waveguides.len() {
            for edge in 0..n {
                let audit = audit_design_under_fault(
                    &design,
                    DeviceFault::SegmentBreak {
                        waveguide: wi,
                        edge,
                    },
                    &options,
                    None,
                );
                assert!(
                    audit.survived,
                    "waveguide {wi} edge {edge}: {}",
                    audit.report.summary()
                );
            }
        }
    }

    #[test]
    fn zero_spare_design_has_sub_unit_fault_margin() {
        let options = SynthesisOptions::with_wavelengths(8);
        let design = synth(&options);
        let report = verify_single_fault_survivability(&design, &options, None);
        assert!(report.scenarios > 0);
        assert!(
            report.fault_margin() < 1.0,
            "zero-spare design cannot survive MRR drops"
        );
        assert!(report.min_served_fraction < 1.0);
        assert!(report.worst.is_some());
    }

    #[test]
    fn spared_synthesis_is_fully_survivable() {
        let options = SynthesisOptions::with_wavelengths(8).with_spares(SpareConfig::uniform(1));
        let design = synth(&options);
        let report = verify_single_fault_survivability(&design, &options, None);
        assert!(report.fully_survivable(), "{:?}", report.worst);
        assert_eq!(report.min_served_fraction, 1.0);
        assert_eq!(report.fault_margin(), 1.0);
    }

    #[test]
    fn fault_display_and_class_names_are_stable() {
        assert_eq!(
            DeviceFault::MrrDrop { signal: 5 }.to_string(),
            "mrr-drop(signal 5)"
        );
        assert_eq!(
            DeviceFault::SegmentBreak {
                waveguide: 1,
                edge: 2
            }
            .to_string(),
            "segment-break(waveguide 1, edge 2)"
        );
        assert_eq!(
            DeviceFault::WavelengthLoss { wavelength: 3 }.to_string(),
            "wavelength-loss(λ3)"
        );
        assert_eq!(DeviceFault::MrrDrop { signal: 0 }.class(), "mrr-drop");
        assert_eq!(
            DeviceFault::SegmentBreak {
                waveguide: 0,
                edge: 0
            }
            .class(),
            "segment-break"
        );
        assert_eq!(
            DeviceFault::WavelengthLoss { wavelength: 0 }.class(),
            "wavelength-loss"
        );
    }
}
