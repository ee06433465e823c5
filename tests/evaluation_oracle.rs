//! The evaluation oracle: `LayoutModel::evaluate` sums each signal's
//! insertion loss in place instead of building its element trace. These
//! tests hold that pass to the trace it replaces, bit for bit, on every
//! golden-digest fixture design and on the ORNoC and ORing layouts behind
//! Tables I–III. (The λ-router and crossbar rows of Table I are analytic
//! traces fed straight to `insertion_loss_db`; they have no layout.)

use std::time::Duration;
use xring::baselines::{synthesize_oring, synthesize_ornoc};
use xring::core::layout::LayoutModel;
use xring::core::{NetworkSpec, RingAlgorithm, SplitMix64, SynthesisOptions, Synthesizer, Traffic};
use xring::phot::elements::TraceStats;
use xring::phot::{
    insertion_loss_db, total_laser_power_w, CrosstalkParams, LossParams, PerWavelengthDemand,
    PowerParams, RouterReport, SignalId, Wavelength,
};

/// The layouts of the golden-digest fixtures (`tests/golden_digests.rs`)
/// and of the ring baselines, with and without their crossing PDN.
fn layouts() -> Vec<(String, LayoutModel)> {
    let mut out = Vec::new();
    let paper = [
        ("proton_8", NetworkSpec::proton_8()),
        ("proton_16", NetworkSpec::proton_16()),
        ("psion_8", NetworkSpec::psion_8()),
        ("psion_16", NetworkSpec::psion_16()),
        ("psion_32", NetworkSpec::psion_32()),
    ];
    let knn3_heuristic = |wl| SynthesisOptions {
        ring_algorithm: RingAlgorithm::Heuristic,
        traffic: Traffic::NearestNeighbors(3),
        ..SynthesisOptions::with_wavelengths(wl)
    };
    let mut xring = |name: String, net: &NetworkSpec, options| {
        let design = Synthesizer::new(options)
            .synthesize(net)
            .expect("fixture synthesizes");
        out.push((name, design.layout));
    };
    for (name, net) in &paper {
        for wl in [8, 14, 16] {
            xring(
                format!("{name} wl{wl}"),
                net,
                SynthesisOptions::with_wavelengths(wl),
            );
            xring(
                format!("{name} wl{wl} knn3-heuristic"),
                net,
                knn3_heuristic(wl),
            );
        }
    }
    for seed in [1, 2, 3] {
        let net = NetworkSpec::irregular(128, 28_000, seed).expect("irregular");
        xring(
            format!("irregular128 seed{seed} knn3-heuristic"),
            &net,
            knn3_heuristic(8),
        );
    }
    let (loss, xtalk) = (LossParams::oring(), CrosstalkParams::default());
    for (name, net) in &paper {
        for pdn in [false, true] {
            let wl = net.len();
            let ornoc = synthesize_ornoc(net, wl, pdn, &loss, &xtalk).expect("ORNoC");
            out.push((format!("{name} ORNoC pdn={pdn}"), ornoc.layout));
            let oring = synthesize_oring(net, wl, pdn, &loss, &xtalk).expect("ORing");
            out.push((format!("{name} ORing pdn={pdn}"), oring.layout));
        }
    }
    out
}

/// The loss parameter sets of the paper's tables, plus seeded sets of
/// unround values. On those, summing the same terms in another order
/// changes the last bits of some signal's loss.
fn loss_sets() -> Vec<LossParams> {
    let mut rng = SplitMix64::new(0xE7A1_0AC1E);
    let mut sets = vec![LossParams::proton_plus(), LossParams::oring()];
    for _ in 0..8 {
        let d = LossParams::default();
        // Each loss scaled by a factor in [0.5, 1.5).
        let mut jitter = |base: f64| base * (0.5 + rng.next_f64());
        sets.push(LossParams {
            propagation_db_per_cm: jitter(d.propagation_db_per_cm),
            crossing_db: jitter(d.crossing_db),
            drop_db: jitter(d.drop_db),
            through_db: jitter(d.through_db),
            bend_db: jitter(d.bend_db),
            photodetector_db: jitter(d.photodetector_db),
            splitter_excess_db: d.splitter_excess_db,
        });
    }
    sets
}

/// The reference report: every figure rebuilt from each signal's full
/// `trace()`.
fn report_from_traces(
    layout: &LayoutModel,
    loss: &LossParams,
    xtalk: Option<&CrosstalkParams>,
    power: &PowerParams,
) -> RouterReport {
    let mut worst_il = f64::NEG_INFINITY;
    let mut worst_stats = TraceStats::default();
    let mut ils = Vec::new();
    let mut demand = PerWavelengthDemand::new();
    let mut wavelengths: Vec<Wavelength> = Vec::new();
    for (i, sig) in layout.signals.iter().enumerate() {
        let trace = layout.trace(SignalId(i as u32));
        let il = insertion_loss_db(&trace, loss);
        ils.push(il);
        if il > worst_il {
            worst_il = il;
            worst_stats = TraceStats::of(&trace);
        }
        demand.register(sig.wavelength, il + sig.pdn_loss_db);
        if !wavelengths.contains(&sig.wavelength) {
            wavelengths.push(sig.wavelength);
        }
    }
    let (noisy, worst_snr) = match xtalk {
        Some(x) => {
            let ledger = layout.evaluate_noise(loss, x);
            let worst = layout
                .signals
                .iter()
                .enumerate()
                .filter_map(|(i, sig)| ledger.snr_db(SignalId(i as u32), ils[i] + sig.pdn_loss_db))
                .min_by(|a, b| a.partial_cmp(b).expect("SNR is never NaN"));
            (Some(ledger.affected_signal_count()), worst)
        }
        None => (None, None),
    };
    RouterReport {
        label: "oracle".to_owned(),
        num_wavelengths: wavelengths.len(),
        worst_il_db: if worst_il.is_finite() { worst_il } else { 0.0 },
        worst_path_len_mm: worst_stats.length_um as f64 / 1_000.0,
        worst_path_crossings: worst_stats.crossings,
        total_power_w: layout
            .pdn_modelled
            .then(|| total_laser_power_w(&demand, power)),
        noisy_signal_count: noisy,
        worst_snr_db: worst_snr,
        signal_count: layout.signals.len(),
        synthesis_time: Duration::ZERO,
    }
}

/// Every field of a report, floats as their bit patterns.
fn fields(r: &RouterReport) -> String {
    format!(
        "label {} #wl {} IL {:#x} len {:#x} crossings {} power {:?} noisy {:?} snr {:?} signals {} time {:?}",
        r.label,
        r.num_wavelengths,
        r.worst_il_db.to_bits(),
        r.worst_path_len_mm.to_bits(),
        r.worst_path_crossings,
        r.total_power_w.map(f64::to_bits),
        r.noisy_signal_count,
        r.worst_snr_db.map(f64::to_bits),
        r.signal_count,
        r.synthesis_time,
    )
}

#[test]
fn in_place_loss_equals_the_trace_sum_bit_for_bit() {
    let mut signals = 0;
    for (name, layout) in layouts() {
        for loss in &loss_sets() {
            for i in 0..layout.signals.len() {
                let id = SignalId(i as u32);
                let fast = layout.insertion_loss_db(id, loss);
                let oracle = insertion_loss_db(&layout.trace(id), loss);
                assert_eq!(
                    fast.to_bits(),
                    oracle.to_bits(),
                    "{name}: signal {i}: in place {fast} vs trace {oracle}"
                );
            }
        }
        signals += layout.signals.len();
    }
    assert!(signals > 10_000, "only {signals} signals checked");
}

#[test]
fn evaluate_equals_the_report_rebuilt_from_traces() {
    let (xtalk, power) = (CrosstalkParams::default(), PowerParams::default());
    for (name, layout) in layouts() {
        for loss in loss_sets() {
            for x in [None, Some(&xtalk)] {
                let got = layout.evaluate("oracle", &loss, x, &power, Duration::ZERO);
                let want = report_from_traces(&layout, &loss, x, &power);
                assert_eq!(fields(&got), fields(&want), "{name}");
            }
        }
    }
}
