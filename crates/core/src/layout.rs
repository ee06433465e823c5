//! The realized-layout model and evaluation engine.
//!
//! A [`LayoutModel`] is the lowest-level description of a synthesized
//! router: waveguides as ordered station lists, signals as hops across
//! them, plus externally injected noise (e.g. laser light leaking at
//! PDN×ring crossings in the baseline routers). The engine extracts
//! per-signal [`PathElement`] traces, propagates first-order crosstalk
//! noise, and produces the [`RouterReport`] columns of the paper's tables.
//!
//! Both XRing and the ring baselines (ORNoC, ORing) lower to this model,
//! so all routers are evaluated by exactly the same physics.

use crate::netspec::NodeId;
use std::time::Duration;
use xring_phot::units::UM_PER_CM;
use xring_phot::{
    total_laser_power_w, CrosstalkParams, LossParams, NoiseLedger, PathElement,
    PerWavelengthDemand, PowerParams, RouterReport, SignalId, Wavelength,
};

/// Index of a waveguide within a [`LayoutModel`].
pub type WaveguideIdx = usize;
/// Index of a station within a waveguide.
pub type StationIdx = usize;

/// Externally injected noise at a crossing: light already travelling on
/// the *other* waveguide of the crossing that leaks into this one.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSource {
    /// Wavelength of the injected light.
    pub wavelength: Wavelength,
    /// Power at the injection point in dB relative to the per-wavelength
    /// laser launch power (already including the leak coefficient).
    pub power_rel_db: f64,
}

/// One element along a waveguide, in travel order.
#[derive(Debug, Clone, PartialEq)]
pub enum Station {
    /// A plain waveguide stretch.
    Segment {
        /// Length in µm.
        length_um: i64,
        /// 90° bends within the stretch.
        bends: u32,
    },
    /// A node's receiver site: one drop MRR per `(wavelength, signal)`
    /// terminating here. Passing signals see each MRR as off-resonance
    /// (through loss).
    NodeTap {
        /// The node whose receivers sit here.
        node: NodeId,
        /// Drop MRRs: signals terminating at this tap.
        drops: Vec<(Wavelength, SignalId)>,
    },
    /// A node's sender site (modulators); lossless for passing traffic in
    /// this model.
    SenderTap {
        /// The node whose senders sit here.
        node: NodeId,
    },
    /// A physical waveguide crossing.
    Crossing {
        /// Noise injected here from the other waveguide (e.g. PDN light).
        injected: Vec<NoiseSource>,
        /// The other side of this crossing, if it is a modelled waveguide:
        /// signals passing here leak into the peer at that station.
        peer: Option<(WaveguideIdx, StationIdx)>,
        /// Off-resonance MRRs sitting at this crossing (the CSEs of merged
        /// shortcuts); passing signals take through loss for each.
        through_mrrs: u32,
    },
    /// A ring opening: light terminates here.
    Opening,
}

/// A waveguide: an ordered station list, optionally closed (ring).
#[derive(Debug, Clone, PartialEq)]
pub struct Waveguide {
    /// True for ring waveguides (stations wrap around).
    pub closed: bool,
    /// Stations in travel order.
    pub stations: Vec<Station>,
}

/// One hop of a signal along a single waveguide, from just after
/// `from_station` up to and including `to_station`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The waveguide travelled.
    pub waveguide: WaveguideIdx,
    /// Station where the signal enters (its `SenderTap`, or the
    /// `Crossing` it was CSE-dropped into).
    pub from_station: StationIdx,
    /// Station where the hop ends (a `NodeTap` for the final hop, a
    /// `Crossing` for a CSE transfer).
    pub to_station: StationIdx,
}

/// A routed signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalSpec {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Assigned wavelength.
    pub wavelength: Wavelength,
    /// Hops in travel order (1 normally, 2 for CSE-merged shortcuts).
    pub hops: Vec<Hop>,
    /// PDN loss from the laser to this signal's sender, in dB
    /// (0 when no PDN is modelled).
    pub pdn_loss_db: f64,
}

/// A fully realized router layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LayoutModel {
    /// All waveguides.
    pub waveguides: Vec<Waveguide>,
    /// All signals; `SignalId(i)` refers to `signals[i]`.
    pub signals: Vec<SignalSpec>,
    /// Whether a power distribution network is part of this layout (turns
    /// on laser-power reporting).
    pub pdn_modelled: bool,
}

/// Power floor below which noise streams are abandoned (dB rel.).
const NOISE_FLOOR_DB: f64 = -140.0;

/// The station indices one hop walks, from [`LayoutModel::walk`].
struct HopWalk {
    /// The index yielded next; `None` once `to` has been yielded.
    next: Option<StationIdx>,
    to: StationIdx,
    /// Station count of the waveguide: a closed hop wraps there, an open
    /// one ends at `to` before it.
    n: usize,
    /// Indices still allowed before `to` must have been reached.
    left: usize,
}

impl Iterator for HopWalk {
    type Item = StationIdx;

    fn next(&mut self) -> Option<StationIdx> {
        let i = self.next?;
        if i == self.to {
            self.next = None;
        } else {
            self.left -= 1;
            assert!(self.left > 0, "hop does not reach target station");
            self.next = Some(if i + 1 == self.n { 0 } else { i + 1 });
        }
        Some(i)
    }
}

impl LayoutModel {
    /// An empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates the station indices strictly between `from` and `to` on
    /// waveguide `w` (wrapping when closed), then `to` itself.
    ///
    /// # Panics
    ///
    /// On an open waveguide unless `from < to`; on a closed one once a
    /// full lap has passed without reaching `to`.
    fn walk(&self, w: WaveguideIdx, from: StationIdx, to: StationIdx) -> HopWalk {
        let wg = &self.waveguides[w];
        let n = wg.stations.len();
        if wg.closed {
            HopWalk {
                next: Some((from + 1) % n),
                to,
                n,
                left: n,
            }
        } else {
            assert!(from < to, "open waveguide hops must go forward");
            HopWalk {
                next: Some(from + 1),
                to,
                n,
                left: to - from,
            }
        }
    }

    /// Structural validation of the whole layout: every hop starts at a
    /// `SenderTap` or `Crossing`, ends at a `NodeTap` (final) or
    /// `Crossing` (CSE transfer), never walks across an `Opening` or a
    /// same-wavelength foreign drop, and every signal's drop MRR is
    /// registered at its final tap.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (si, sig) in self.signals.iter().enumerate() {
            if sig.hops.is_empty() {
                return Err(format!("signal {si} has no hops"));
            }
            let last = sig.hops.len() - 1;
            for (h, hop) in sig.hops.iter().enumerate() {
                let wg = self
                    .waveguides
                    .get(hop.waveguide)
                    .ok_or_else(|| format!("signal {si} hop {h}: bad waveguide"))?;
                let start = wg
                    .stations
                    .get(hop.from_station)
                    .ok_or_else(|| format!("signal {si} hop {h}: bad from_station"))?;
                match (h, start) {
                    (0, Station::SenderTap { .. }) => {}
                    (hh, Station::Crossing { .. }) if hh > 0 => {}
                    _ => {
                        return Err(format!(
                            "signal {si} hop {h} starts at a non-sender station"
                        ))
                    }
                }
                let end = wg
                    .stations
                    .get(hop.to_station)
                    .ok_or_else(|| format!("signal {si} hop {h}: bad to_station"))?;
                match (h == last, end) {
                    (true, Station::NodeTap { drops, .. }) => {
                        if !drops
                            .iter()
                            .any(|(wl, id)| *wl == sig.wavelength && id.0 as usize == si)
                        {
                            return Err(format!("signal {si}: drop MRR missing at its receiver"));
                        }
                    }
                    (false, Station::Crossing { .. }) => {}
                    _ => {
                        return Err(format!(
                            "signal {si} hop {h} ends at the wrong station kind"
                        ))
                    }
                }
                // The walked span must be opening-free and free of
                // same-wavelength foreign drops.
                for idx in self.walk(hop.waveguide, hop.from_station, hop.to_station) {
                    if idx == hop.to_station {
                        continue;
                    }
                    match &wg.stations[idx] {
                        Station::Opening => {
                            return Err(format!("signal {si} hop {h} crosses an opening"))
                        }
                        Station::NodeTap { drops, .. }
                            if drops.iter().any(|(wl, _)| *wl == sig.wavelength) =>
                        {
                            return Err(format!(
                                "signal {si} hop {h} passes a same-wavelength drop"
                            ));
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }

    /// Extracts the full element trace of a signal (including the final
    /// drop and photodetector).
    ///
    /// # Panics
    ///
    /// Panics if a hop crosses an [`Station::Opening`] or a same-wavelength
    /// drop MRR before its target (both indicate a mapping bug).
    pub fn trace(&self, id: SignalId) -> Vec<PathElement> {
        let sig = &self.signals[id.0 as usize];
        let mut trace = Vec::new();
        let last_hop = sig.hops.len() - 1;
        for (h, hop) in sig.hops.iter().enumerate() {
            for si in self.walk(hop.waveguide, hop.from_station, hop.to_station) {
                let station = &self.waveguides[hop.waveguide].stations[si];
                let at_target = si == hop.to_station;
                match station {
                    Station::Segment { length_um, bends } => {
                        trace.push(PathElement::Propagate {
                            length_um: *length_um,
                        });
                        for _ in 0..*bends {
                            trace.push(PathElement::Bend);
                        }
                    }
                    Station::NodeTap { drops, .. } => {
                        if at_target {
                            // Final drop happens below.
                        } else {
                            for (wl, other) in drops {
                                debug_assert!(
                                    *wl != sig.wavelength,
                                    "signal {id} passes a same-wavelength drop of {other}"
                                );
                                let _ = other;
                                trace.push(PathElement::MrrThrough);
                            }
                        }
                    }
                    Station::SenderTap { .. } => {}
                    Station::Crossing { through_mrrs, .. } => {
                        if !at_target {
                            trace.push(PathElement::Crossing);
                            for _ in 0..*through_mrrs {
                                trace.push(PathElement::MrrThrough);
                            }
                        }
                    }
                    Station::Opening => {
                        panic!("signal {id} routed across an opening");
                    }
                }
            }
            // Hop termination.
            if h == last_hop {
                trace.push(PathElement::MrrDrop);
                trace.push(PathElement::Photodetector);
            } else {
                // CSE transfer: drop into the MRR at the crossing.
                trace.push(PathElement::MrrDrop);
            }
        }
        trace
    }

    /// The insertion loss of signal `id` in dB, without building its
    /// trace: the terms [`xring_phot::insertion_loss_db`] sums over
    /// [`trace`](Self::trace), added in the same order, so the result is
    /// bit-identical.
    ///
    /// # Panics
    ///
    /// Like [`trace`](Self::trace).
    pub fn insertion_loss_db(&self, id: SignalId, loss: &LossParams) -> f64 {
        let sig = &self.signals[id.0 as usize];
        let mut il = 0.0;
        let last_hop = sig.hops.len() - 1;
        for (h, hop) in sig.hops.iter().enumerate() {
            let stations = &self.waveguides[hop.waveguide].stations;
            for si in self.walk(hop.waveguide, hop.from_station, hop.to_station) {
                let at_target = si == hop.to_station;
                match &stations[si] {
                    Station::Segment { length_um, bends } => {
                        il += loss.propagation_db_per_cm * (*length_um as f64 / UM_PER_CM);
                        for _ in 0..*bends {
                            il += loss.bend_db;
                        }
                    }
                    Station::NodeTap { drops, .. } => {
                        if !at_target {
                            for (wl, other) in drops {
                                debug_assert!(
                                    *wl != sig.wavelength,
                                    "signal {id} passes a same-wavelength drop of {other}"
                                );
                                il += loss.through_db;
                            }
                        }
                    }
                    Station::SenderTap { .. } => {}
                    Station::Crossing { through_mrrs, .. } => {
                        if !at_target {
                            il += loss.crossing_db;
                            for _ in 0..*through_mrrs {
                                il += loss.through_db;
                            }
                        }
                    }
                    Station::Opening => {
                        panic!("signal {id} routed across an opening");
                    }
                }
            }
            // The receiver drop and its detector, or a CSE transfer drop.
            il += loss.drop_db;
            if h == last_hop {
                il += loss.photodetector_db;
            }
        }
        il
    }

    /// Propagates all first-order noise and returns the ledger.
    pub fn evaluate_noise(&self, loss: &LossParams, xtalk: &CrosstalkParams) -> NoiseLedger {
        let mut ledger = NoiseLedger::new();

        // 1. Externally injected sources (PDN light at crossings).
        for (wi, wg) in self.waveguides.iter().enumerate() {
            for (si, st) in wg.stations.iter().enumerate() {
                if let Station::Crossing { injected, .. } = st {
                    for src in injected {
                        self.propagate_stream(
                            wi,
                            si,
                            src.wavelength,
                            src.power_rel_db,
                            None,
                            loss,
                            xtalk,
                            &mut ledger,
                        );
                    }
                }
            }
        }

        // 2. Signal-generated noise: crossing leaks and drop remnants.
        for (i, sig) in self.signals.iter().enumerate() {
            let id = SignalId(i as u32);
            let launch = -sig.pdn_loss_db;
            let mut power = launch;
            let last_hop = sig.hops.len() - 1;
            for (h, hop) in sig.hops.iter().enumerate() {
                for si in self.walk(hop.waveguide, hop.from_station, hop.to_station) {
                    let station = &self.waveguides[hop.waveguide].stations[si];
                    let at_target = si == hop.to_station;
                    match station {
                        Station::Segment { length_um, bends } => {
                            power -= loss.propagation_db_per_cm * (*length_um as f64 / 10_000.0);
                            power -= *bends as f64 * loss.bend_db;
                        }
                        Station::NodeTap { drops, .. } => {
                            if !at_target {
                                power -= drops.len() as f64 * loss.through_db;
                            }
                        }
                        Station::SenderTap { .. } => {}
                        Station::Crossing {
                            peer, through_mrrs, ..
                        } => {
                            if at_target {
                                // CSE transfer handled below.
                            } else {
                                // Leak into the peer waveguide.
                                if let Some((pw, ps)) = peer {
                                    self.propagate_stream(
                                        *pw,
                                        *ps,
                                        sig.wavelength,
                                        power + xtalk.crossing_leak_db,
                                        Some(id),
                                        loss,
                                        xtalk,
                                        &mut ledger,
                                    );
                                }
                                power -= loss.crossing_db;
                                power -= *through_mrrs as f64 * loss.through_db;
                            }
                        }
                        Station::Opening => unreachable!("validated in trace()"),
                    }
                }
                if h == last_hop {
                    // The remnant continuing past the receiver MRR is
                    // removed by the paper's MRR + terminator (Fig. 5(b))
                    // and "will thus not affect the SNR" — no stream.
                } else {
                    // A CSE drop has no terminator: its remnant continues
                    // straight along the entered wire.
                    let remnant = power + xtalk.drop_leak_db;
                    self.propagate_stream(
                        hop.waveguide,
                        hop.to_station,
                        sig.wavelength,
                        remnant,
                        Some(id),
                        loss,
                        xtalk,
                        &mut ledger,
                    );
                    power -= loss.drop_db; // CSE drop loss
                }
            }
        }
        ledger
    }

    /// Walks a noise stream forward from `start` (exclusive), crediting
    /// every same-wavelength drop MRR it meets.
    #[allow(clippy::too_many_arguments)]
    fn propagate_stream(
        &self,
        w: WaveguideIdx,
        start: StationIdx,
        wl: Wavelength,
        mut power: f64,
        exclude: Option<SignalId>,
        loss: &LossParams,
        _xtalk: &CrosstalkParams,
        ledger: &mut NoiseLedger,
    ) {
        let wg = &self.waveguides[w];
        let n = wg.stations.len();
        let mut i = start;
        for _ in 0..n {
            i = if wg.closed {
                (i + 1) % n
            } else if i + 1 < n {
                i + 1
            } else {
                return;
            };
            if wg.closed && i == start {
                return; // one full lap
            }
            if power < NOISE_FLOOR_DB {
                return;
            }
            match &wg.stations[i] {
                Station::Segment { length_um, bends } => {
                    power -= loss.propagation_db_per_cm * (*length_um as f64 / 10_000.0);
                    power -= *bends as f64 * loss.bend_db;
                }
                Station::NodeTap { drops, .. } => {
                    for (dwl, victim) in drops {
                        if *dwl == wl {
                            if Some(*victim) != exclude {
                                ledger.add_contribution(
                                    *victim,
                                    power - loss.drop_db - loss.photodetector_db,
                                );
                            }
                            // The receiver's terminator MRR (Fig. 5(b))
                            // absorbs the rest of the stream.
                            return;
                        }
                        power -= loss.through_db;
                    }
                }
                Station::SenderTap { .. } => {}
                Station::Crossing { through_mrrs, .. } => {
                    power -= loss.crossing_db;
                    power -= *through_mrrs as f64 * loss.through_db;
                }
                Station::Opening => return,
            }
        }
    }

    /// Evaluates the layout into a [`RouterReport`].
    pub fn evaluate(
        &self,
        label: impl Into<String>,
        loss: &LossParams,
        xtalk: Option<&CrosstalkParams>,
        power: &PowerParams,
        synthesis_time: Duration,
    ) -> RouterReport {
        use xring_phot::elements::TraceStats;

        let mut worst_il = f64::NEG_INFINITY;
        let mut worst_stats = TraceStats::default();
        let mut ils: Vec<f64> = Vec::with_capacity(self.signals.len());
        let mut demand = PerWavelengthDemand::new();
        let mut wavelengths: Vec<Wavelength> = Vec::new();

        for (i, sig) in self.signals.iter().enumerate() {
            let id = SignalId(i as u32);
            let il = self.insertion_loss_db(id, loss);
            ils.push(il);
            if il > worst_il {
                worst_il = il;
                worst_stats = TraceStats::of(&self.trace(id));
            }
            demand.register(sig.wavelength, il + sig.pdn_loss_db);
            if !wavelengths.contains(&sig.wavelength) {
                wavelengths.push(sig.wavelength);
            }
        }

        let (noisy, worst_snr) = match xtalk {
            Some(x) => {
                let ledger = self.evaluate_noise(loss, x);
                let worst = self
                    .signals
                    .iter()
                    .enumerate()
                    .filter_map(|(i, sig)| {
                        ledger.snr_db(SignalId(i as u32), ils[i] + sig.pdn_loss_db)
                    })
                    .min_by(|a, b| a.partial_cmp(b).expect("SNR is never NaN"));
                (Some(ledger.affected_signal_count()), worst)
            }
            None => (None, None),
        };

        RouterReport {
            label: label.into(),
            num_wavelengths: wavelengths.len(),
            worst_il_db: if worst_il.is_finite() { worst_il } else { 0.0 },
            worst_path_len_mm: worst_stats.length_um as f64 / 1_000.0,
            worst_path_crossings: worst_stats.crossings,
            total_power_w: self
                .pdn_modelled
                .then(|| total_laser_power_w(&demand, power)),
            noisy_signal_count: noisy,
            worst_snr_db: worst_snr,
            signal_count: self.signals.len(),
            synthesis_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A minimal 3-node open-waveguide layout: n0 --1000um-- n1 --1000um-- n2
    /// with one signal n0->n2 on λ0 and one n0->n1 on λ1.
    fn linear_layout() -> LayoutModel {
        let wl0 = Wavelength::new(0);
        let wl1 = Wavelength::new(1);
        let stations = vec![
            Station::SenderTap { node: NodeId(0) }, // 0
            Station::Segment {
                length_um: 1_000,
                bends: 0,
            }, // 1
            Station::NodeTap {
                node: NodeId(1),
                drops: vec![(wl1, SignalId(1))],
            }, // 2
            Station::Segment {
                length_um: 1_000,
                bends: 1,
            }, // 3
            Station::NodeTap {
                node: NodeId(2),
                drops: vec![(wl0, SignalId(0))],
            }, // 4
        ];
        LayoutModel {
            waveguides: vec![Waveguide {
                closed: false,
                stations,
            }],
            signals: vec![
                SignalSpec {
                    from: NodeId(0),
                    to: NodeId(2),
                    wavelength: wl0,
                    hops: vec![Hop {
                        waveguide: 0,
                        from_station: 0,
                        to_station: 4,
                    }],
                    pdn_loss_db: 0.0,
                },
                SignalSpec {
                    from: NodeId(0),
                    to: NodeId(1),
                    wavelength: wl1,
                    hops: vec![Hop {
                        waveguide: 0,
                        from_station: 0,
                        to_station: 2,
                    }],
                    pdn_loss_db: 0.0,
                },
            ],
            pdn_modelled: false,
        }
    }

    #[test]
    fn trace_of_through_signal_counts_passed_mrr() {
        let m = linear_layout();
        let trace = m.trace(SignalId(0));
        // 2 segments, 1 bend, 1 through (n1's MRR on λ1), drop + pd.
        let throughs = trace
            .iter()
            .filter(|e| matches!(e, PathElement::MrrThrough))
            .count();
        assert_eq!(throughs, 1);
        let drops = trace
            .iter()
            .filter(|e| matches!(e, PathElement::MrrDrop))
            .count();
        assert_eq!(drops, 1);
        let len: i64 = trace
            .iter()
            .map(|e| match e {
                PathElement::Propagate { length_um } => *length_um,
                _ => 0,
            })
            .sum();
        assert_eq!(len, 2_000);
    }

    #[test]
    fn short_signal_sees_no_through_loss() {
        let m = linear_layout();
        let trace = m.trace(SignalId(1));
        assert!(trace.iter().all(|e| !matches!(e, PathElement::MrrThrough)));
    }

    #[test]
    fn evaluate_reports_worst_signal() {
        let m = linear_layout();
        let r = m.evaluate(
            "linear",
            &LossParams::default(),
            None,
            &PowerParams::default(),
            Duration::ZERO,
        );
        assert_eq!(r.signal_count, 2);
        assert_eq!(r.num_wavelengths, 2);
        assert!((r.worst_path_len_mm - 2.0).abs() < 1e-9);
        assert_eq!(r.worst_path_crossings, 0);
        assert_eq!(r.total_power_w, None); // no PDN
    }

    #[test]
    fn receiver_remnants_are_terminated() {
        // Two signals on the SAME wavelength, arcs disjoint, same
        // waveguide: s0 = n0->n1, s1 = n1->n2. s0's drop remnant is
        // absorbed by the receiver's MRR + terminator (Fig. 5(b)), so s1
        // stays clean.
        let wl = Wavelength::new(0);
        let stations = vec![
            Station::SenderTap { node: NodeId(0) }, // 0
            Station::Segment {
                length_um: 1_000,
                bends: 0,
            }, // 1
            Station::NodeTap {
                node: NodeId(1),
                drops: vec![(wl, SignalId(0))],
            }, // 2
            Station::SenderTap { node: NodeId(1) }, // 3
            Station::Segment {
                length_um: 1_000,
                bends: 0,
            }, // 4
            Station::NodeTap {
                node: NodeId(2),
                drops: vec![(wl, SignalId(1))],
            }, // 5
        ];
        let m = LayoutModel {
            waveguides: vec![Waveguide {
                closed: false,
                stations,
            }],
            signals: vec![
                SignalSpec {
                    from: NodeId(0),
                    to: NodeId(1),
                    wavelength: wl,
                    hops: vec![Hop {
                        waveguide: 0,
                        from_station: 0,
                        to_station: 2,
                    }],
                    pdn_loss_db: 0.0,
                },
                SignalSpec {
                    from: NodeId(1),
                    to: NodeId(2),
                    wavelength: wl,
                    hops: vec![Hop {
                        waveguide: 0,
                        from_station: 3,
                        to_station: 5,
                    }],
                    pdn_loss_db: 0.0,
                },
            ],
            pdn_modelled: false,
        };
        let ledger = m.evaluate_noise(&LossParams::default(), &CrosstalkParams::default());
        assert_eq!(ledger.affected_signal_count(), 0);
    }

    #[test]
    fn opening_blocks_injected_noise() {
        // An injected stream (PDN-style) upstream of an Opening never
        // reaches receivers behind the opening.
        let wl = Wavelength::new(0);
        let stations = vec![
            Station::SenderTap { node: NodeId(0) }, // 0
            Station::Crossing {
                injected: vec![NoiseSource {
                    wavelength: wl,
                    power_rel_db: -40.0,
                }],
                peer: None,
                through_mrrs: 0,
            }, // 1
            Station::Opening,                       // 2
            Station::Segment {
                length_um: 1_000,
                bends: 0,
            }, // 3
            Station::NodeTap {
                node: NodeId(1),
                drops: vec![(wl, SignalId(0))],
            }, // 4
        ];
        let m = LayoutModel {
            waveguides: vec![Waveguide {
                closed: false,
                stations,
            }],
            signals: vec![SignalSpec {
                from: NodeId(0),
                to: NodeId(1),
                wavelength: wl,
                // The signal enters after the opening (station 2).
                hops: vec![Hop {
                    waveguide: 0,
                    from_station: 2,
                    to_station: 4,
                }],
                pdn_loss_db: 0.0,
            }],
            pdn_modelled: false,
        };
        let ledger = m.evaluate_noise(&LossParams::default(), &CrosstalkParams::default());
        assert_eq!(ledger.affected_signal_count(), 0);
    }

    #[test]
    fn injected_pdn_noise_reaches_downstream_receivers() {
        let wl = Wavelength::new(0);
        let stations = vec![
            Station::SenderTap { node: NodeId(0) },
            Station::Crossing {
                injected: vec![NoiseSource {
                    wavelength: wl,
                    power_rel_db: -40.0,
                }],
                peer: None,
                through_mrrs: 0,
            },
            Station::Segment {
                length_um: 500,
                bends: 0,
            },
            Station::NodeTap {
                node: NodeId(1),
                drops: vec![(wl, SignalId(0))],
            },
        ];
        let m = LayoutModel {
            waveguides: vec![Waveguide {
                closed: false,
                stations,
            }],
            signals: vec![SignalSpec {
                from: NodeId(0),
                to: NodeId(1),
                wavelength: wl,
                hops: vec![Hop {
                    waveguide: 0,
                    from_station: 0,
                    to_station: 3,
                }],
                pdn_loss_db: 1.0,
            }],
            pdn_modelled: true,
        };
        let loss = LossParams::default();
        let ledger = m.evaluate_noise(&loss, &CrosstalkParams::default());
        assert_eq!(ledger.affected_signal_count(), 1);
        let r = m.evaluate(
            "pdn-noise",
            &loss,
            Some(&CrosstalkParams::default()),
            &PowerParams::default(),
            Duration::ZERO,
        );
        assert_eq!(r.noisy_signal_count, Some(1));
        assert!(r.worst_snr_db.expect("noisy") < 100.0);
        assert!(r.total_power_w.expect("pdn modelled") > 0.0);
    }

    #[test]
    fn crossing_peer_leak_reaches_same_wavelength_victim() {
        // Waveguide 0 carries s0 (λ0) across a crossing whose peer is
        // waveguide 1, which carries s1 (λ0) to its receiver downstream of
        // the crossing: s0's leak must corrupt s1.
        let wl = Wavelength::new(0);
        let wg0 = Waveguide {
            closed: false,
            stations: vec![
                Station::SenderTap { node: NodeId(0) },
                Station::Crossing {
                    injected: vec![],
                    peer: Some((1, 1)),
                    through_mrrs: 0,
                },
                Station::NodeTap {
                    node: NodeId(1),
                    drops: vec![(wl, SignalId(0))],
                },
            ],
        };
        let wg1 = Waveguide {
            closed: false,
            stations: vec![
                Station::SenderTap { node: NodeId(2) },
                Station::Crossing {
                    injected: vec![],
                    peer: Some((0, 1)),
                    through_mrrs: 0,
                },
                Station::NodeTap {
                    node: NodeId(3),
                    drops: vec![(wl, SignalId(1))],
                },
            ],
        };
        let m = LayoutModel {
            waveguides: vec![wg0, wg1],
            signals: vec![
                SignalSpec {
                    from: NodeId(0),
                    to: NodeId(1),
                    wavelength: wl,
                    hops: vec![Hop {
                        waveguide: 0,
                        from_station: 0,
                        to_station: 2,
                    }],
                    pdn_loss_db: 0.0,
                },
                SignalSpec {
                    from: NodeId(2),
                    to: NodeId(3),
                    wavelength: wl,
                    hops: vec![Hop {
                        waveguide: 1,
                        from_station: 0,
                        to_station: 2,
                    }],
                    pdn_loss_db: 0.0,
                },
            ],
            pdn_modelled: false,
        };
        let ledger = m.evaluate_noise(&LossParams::default(), &CrosstalkParams::default());
        // Both leak into each other.
        assert_eq!(ledger.affected_signal_count(), 2);
    }

    #[test]
    fn closed_waveguide_walk_wraps() {
        let wl = Wavelength::new(0);
        let stations = vec![
            Station::NodeTap {
                node: NodeId(0),
                drops: vec![(wl, SignalId(0))],
            }, // 0
            Station::SenderTap { node: NodeId(0) }, // 1
            Station::Segment {
                length_um: 700,
                bends: 0,
            }, // 2
            Station::NodeTap {
                node: NodeId(1),
                drops: vec![],
            }, // 3
            Station::SenderTap { node: NodeId(1) }, // 4
            Station::Segment {
                length_um: 300,
                bends: 0,
            }, // 5
        ];
        let m = LayoutModel {
            waveguides: vec![Waveguide {
                closed: true,
                stations,
            }],
            signals: vec![SignalSpec {
                from: NodeId(1),
                to: NodeId(0),
                wavelength: wl,
                // From n1's sender (4) wrapping to n0's tap (0).
                hops: vec![Hop {
                    waveguide: 0,
                    from_station: 4,
                    to_station: 0,
                }],
                pdn_loss_db: 0.0,
            }],
            pdn_modelled: false,
        };
        let trace = m.trace(SignalId(0));
        let len: i64 = trace
            .iter()
            .map(|e| match e {
                PathElement::Propagate { length_um } => *length_um,
                _ => 0,
            })
            .sum();
        assert_eq!(len, 300);
    }
}
