//! Row generators for every table of the paper, plus ablations.
//!
//! Every table/ablation function takes an [`Engine`]: the per-`#wl`
//! sweeps run on its worker pool, and whole-pipeline rows go through its
//! design cache (so e.g. `ablation all` synthesizes shared
//! configurations once). XRing rows come from
//! [`Engine::sweep_wavelengths`], so each is an audited design.

use std::time::{Duration, Instant};
use xring_baselines::ornoc::ornoc_map;
use xring_baselines::ring_common::realize_ring_baseline;
use xring_baselines::{crossbar_report, synthesize_oring, CrossbarKind, LayoutStyle};
use xring_core::{
    pick_best_index, ArtifactStore, LpBackendKind, NetworkSpec, PhaseArtifact, PhaseId, PhaseKeys,
    RingAlgorithm, RingBuilder, RingCycle, RingSpacing, SweepObjective, SynthesisError,
    SynthesisOptions,
};
use xring_engine::{Engine, JobError, SynthesisJob};
use xring_phot::{CrosstalkParams, LossParams, PowerParams, RouterReport};

/// A failed engine job as the synthesis error it carries; a panic
/// resumes here.
fn job_error(e: JobError) -> SynthesisError {
    match e {
        JobError::Synthesis(e) => e,
        JobError::DeadlineExceeded => SynthesisError::DeadlineExceeded,
        JobError::Panicked(msg) => panic!("engine task panicked: {msg}"),
    }
}

/// Runs `count` fallible report closures on the engine's worker pool.
/// Candidates over the wavelength budget are skipped, as in
/// [`Engine::sweep_wavelengths`]; the first other failure (in index
/// order) is propagated.
fn sweep_reports<F>(
    engine: &Engine,
    count: usize,
    task: F,
) -> Result<Vec<RouterReport>, SynthesisError>
where
    F: Fn(usize) -> Result<RouterReport, SynthesisError> + Sync,
{
    let mut reports = Vec::with_capacity(count);
    for r in engine.run_tasks(count, |i| task(i).map_err(JobError::from)) {
        match r.map_err(job_error) {
            Ok(report) => reports.push(report),
            Err(SynthesisError::WavelengthBudgetExceeded { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(reports)
}

/// The best of a sweep's reports under `objective` ([`pick_best_index`]).
fn best(reports: &[RouterReport], objective: SweepObjective) -> RouterReport {
    reports[pick_best_index(reports, objective)].clone()
}

/// Synthesis options for the paper's tables. The dense reference LP
/// kernel is pinned: the psion floorplans admit several equal-length
/// optimal ring tours, the published IL/SNR figures are tour-sensitive,
/// and the tie-break depends on the kernel's pivoting — so the tables
/// stay on the kernel they were recorded with (objective-level backend
/// equivalence is covered by the differential suite instead).
fn paper_options(wl: usize) -> SynthesisOptions {
    SynthesisOptions::with_wavelengths(wl).with_lp_backend(LpBackendKind::Dense)
}

/// Runs whole-pipeline jobs as an engine batch and unwraps the reports,
/// propagating the first failure in job order. Rows sharing a ring solve
/// it once; each row's `T(s)` is that solve plus its own Steps 2–4.
fn batch_reports(
    engine: &Engine,
    jobs: Vec<SynthesisJob>,
) -> Result<Vec<RouterReport>, SynthesisError> {
    engine
        .run_batch(jobs)
        .outcomes
        .into_iter()
        .map(|outcome| outcome.map(|out| out.report).map_err(job_error))
        .collect()
}

/// A network with its (expensive, `#wl`-independent) MILP ring, shared
/// between XRing and ORNoC exactly as the paper does in Sec. IV-B.
#[derive(Debug, Clone)]
pub struct RingContext {
    /// The network.
    pub net: NetworkSpec,
    /// The MILP-constructed ring.
    pub cycle: RingCycle,
    /// Time spent in ring construction.
    pub ring_time: Duration,
}

impl RingContext {
    /// Builds the MILP ring for `net` and stores it in `engine`'s cache
    /// as the ring artifact of the tables' options, so
    /// [`xring_sweep`] replays it instead of solving the MILP again.
    ///
    /// # Errors
    ///
    /// Propagates MILP failures.
    pub fn milp(engine: &Engine, net: NetworkSpec) -> Result<Self, SynthesisError> {
        // Dense kernel pinned for the same reason as [`paper_options`].
        let out = RingBuilder::new()
            .with_lp_backend(LpBackendKind::Dense)
            .build(&net)?;
        let (cycle, ring_time) = (out.cycle.clone(), out.elapsed);
        // The ring key does not depend on `#wl`.
        let key = PhaseKeys::compute(&net, &paper_options(1)).ring;
        engine
            .cache()
            .put_artifact(PhaseId::Ring, key, PhaseArtifact::Ring(out));
        Ok(RingContext {
            net,
            cycle,
            ring_time,
        })
    }
}

/// XRing's reports over `wls` on `ctx`'s floorplan, from
/// [`Engine::sweep_wavelengths`] with the tables' options: each is an
/// audited design built on the ring [`RingContext::milp`] stored. `T(s)`
/// is the ring solve plus that point's Steps 2–4. Candidates over the
/// wavelength budget are skipped.
///
/// # Errors
///
/// Propagates synthesis failures, as the sweep does.
pub fn xring_sweep(
    engine: &Engine,
    ctx: &RingContext,
    wls: &[usize],
    with_pdn: bool,
    loss: &LossParams,
    xtalk: Option<&CrosstalkParams>,
    power: &PowerParams,
) -> Result<Vec<RouterReport>, SynthesisError> {
    let options = SynthesisOptions {
        pdn: with_pdn,
        loss: loss.clone(),
        ..paper_options(wls[0])
    };
    // The callers pick per objective with `best`, so the sweep's own
    // pick is unused.
    let sweep = engine.sweep_wavelengths(
        &ctx.net,
        options,
        wls,
        SweepObjective::MinPower,
        loss,
        xtalk,
        power,
    )?;
    Ok(sweep
        .points
        .into_iter()
        .map(|p| RouterReport {
            label: format!("XRing (#wl={})", p.wavelengths),
            ..p.report
        })
        .collect())
}

/// Runs ORNoC (on the shared ring) for one `#wl`.
pub fn ornoc_report(
    ctx: &RingContext,
    max_wavelengths: usize,
    with_pdn: bool,
    loss: &LossParams,
    xtalk: Option<&CrosstalkParams>,
    power: &PowerParams,
) -> RouterReport {
    let t0 = Instant::now();
    let plan = ornoc_map(&ctx.net, &ctx.cycle, max_wavelengths);
    let layout = realize_ring_baseline(
        &ctx.net,
        &ctx.cycle,
        &plan,
        loss,
        xtalk.unwrap_or(&CrosstalkParams::nikdast()),
        with_pdn,
        RingSpacing::default(),
    );
    let elapsed = ctx.ring_time + t0.elapsed();
    layout.evaluate(
        format!("ORNoC (#wl={max_wavelengths})"),
        loss,
        xtalk,
        power,
        elapsed,
    )
}

/// Runs ORing for one `#wl`.
///
/// # Errors
///
/// Propagates mapping failures.
pub fn oring_report(
    net: &NetworkSpec,
    max_wavelengths: usize,
    with_pdn: bool,
    loss: &LossParams,
    xtalk: Option<&CrosstalkParams>,
    power: &PowerParams,
) -> Result<RouterReport, SynthesisError> {
    let design = synthesize_oring(
        net,
        max_wavelengths,
        with_pdn,
        loss,
        xtalk.unwrap_or(&CrosstalkParams::nikdast()),
    )?;
    Ok(design.report(format!("ORing (#wl={max_wavelengths})"), loss, xtalk, power))
}

fn wl_candidates(n: usize) -> Vec<usize> {
    match n {
        0..=8 => vec![2, 3, 4, 5, 6, 7, 8],
        9..=16 => vec![4, 6, 8, 10, 12, 14, 16],
        _ => vec![8, 12, 16, 20, 24, 32],
    }
}

/// **Table I**: 8- and 16-node routers *without* PDNs. Returns
/// `(section title, rows)` pairs.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn table1(engine: &Engine) -> Result<Vec<(String, Vec<RouterReport>)>, SynthesisError> {
    let loss = LossParams::proton_plus();
    let power = PowerParams::default();
    let mut out = Vec::new();
    for (title, net, topro_kind) in [
        (
            "8-node network",
            NetworkSpec::proton_8(),
            CrossbarKind::Gwor,
        ),
        (
            "16-node network",
            NetworkSpec::proton_16(),
            CrossbarKind::Light,
        ),
    ] {
        let n = net.len();
        let mut rows = Vec::new();
        rows.push(crossbar_report(
            CrossbarKind::LambdaRouter,
            LayoutStyle::ProtonPlus,
            &net,
            &loss,
        ));
        rows.push(crossbar_report(
            CrossbarKind::LambdaRouter,
            LayoutStyle::PlanarOnoc,
            &net,
            &loss,
        ));
        rows.push(crossbar_report(topro_kind, LayoutStyle::ToPro, &net, &loss));

        let ctx = RingContext::milp(engine, net.clone())?;
        let wls = wl_candidates(n);
        let ornoc = sweep_reports(engine, wls.len(), |i| {
            Ok(ornoc_report(&ctx, wls[i], false, &loss, None, &power))
        })?;
        let oring = sweep_reports(engine, wls.len(), |i| {
            oring_report(&net, wls[i], false, &loss, None, &power)
        })?;
        let xring = xring_sweep(engine, &ctx, &wls, false, &loss, None, &power)?;
        for reports in [ornoc, oring, xring] {
            rows.push(best(&reports, SweepObjective::MinInsertionLoss));
        }
        out.push((title.to_string(), rows));
    }
    Ok(out)
}

/// The two operating points of Tables II and III.
const SETTINGS: [(&str, SweepObjective); 2] = [
    ("min. power", SweepObjective::MinPower),
    ("max. SNR", SweepObjective::MaxSnr),
];

/// **Table II**: ORNoC vs XRing with PDNs for 8-, 16- and 32-node
/// networks, min-power and max-SNR settings.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn table2(engine: &Engine) -> Result<Vec<(String, Vec<RouterReport>)>, SynthesisError> {
    let loss = LossParams::oring();
    let xtalk = CrosstalkParams::nikdast();
    let power = PowerParams::default();
    let mut out = Vec::new();
    for (n_label, net) in [
        ("8-node", NetworkSpec::psion_8()),
        ("16-node", NetworkSpec::psion_16()),
        ("32-node", NetworkSpec::psion_32()),
    ] {
        let n = net.len();
        let ctx = RingContext::milp(engine, net)?;
        let wls = wl_candidates(n);
        let ornoc = sweep_reports(engine, wls.len(), |i| {
            Ok(ornoc_report(
                &ctx,
                wls[i],
                true,
                &loss,
                Some(&xtalk),
                &power,
            ))
        })?;
        let xring = xring_sweep(engine, &ctx, &wls, true, &loss, Some(&xtalk), &power)?;
        for (setting, objective) in SETTINGS {
            let rows = vec![best(&ornoc, objective), best(&xring, objective)];
            out.push((format!("{setting} for {n_label} networks"), rows));
        }
    }
    Ok(out)
}

/// **Table III**: ORing vs XRing for a 16-node network with PDNs.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn table3(engine: &Engine) -> Result<Vec<(String, Vec<RouterReport>)>, SynthesisError> {
    let loss = LossParams::oring();
    let xtalk = CrosstalkParams::nikdast();
    let power = PowerParams::default();
    let net = NetworkSpec::psion_16();
    let ctx = RingContext::milp(engine, net.clone())?;
    let wls = wl_candidates(16);
    let oring = sweep_reports(engine, wls.len(), |i| {
        oring_report(&net, wls[i], true, &loss, Some(&xtalk), &power)
    })?;
    let xring = xring_sweep(engine, &ctx, &wls, true, &loss, Some(&xtalk), &power)?;
    Ok(SETTINGS
        .into_iter()
        .map(|(setting, objective)| {
            let rows = vec![best(&oring, objective), best(&xring, objective)];
            (format!("The setting for {setting}"), rows)
        })
        .collect())
}

/// **Ablation E5**: Step-2 shortcuts on/off (16- and 32-node).
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn ablation_shortcuts(
    engine: &Engine,
) -> Result<Vec<(String, Vec<RouterReport>)>, SynthesisError> {
    let loss = LossParams::oring();
    let mut jobs = Vec::new();
    let mut sections = Vec::new();
    for (label, net, wl) in [
        ("16-node", NetworkSpec::psion_16(), 14),
        ("32-node", NetworkSpec::psion_32(), 24),
    ] {
        sections.push(format!("shortcut ablation, {label}"));
        for (name, shortcuts) in [("with shortcuts", true), ("without shortcuts", false)] {
            let mut job = SynthesisJob::new(
                name,
                net.clone(),
                SynthesisOptions {
                    shortcuts,
                    ..paper_options(wl)
                },
            )
            .without_crosstalk();
            job.loss = loss.clone();
            jobs.push(job);
        }
    }
    let mut reports = batch_reports(engine, jobs)?.into_iter();
    Ok(sections
        .into_iter()
        .map(|title| (title, reports.by_ref().take(2).collect()))
        .collect())
}

/// **Ablation E6**: ring openings + crossing-free PDN vs no openings
/// (16-node).
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn ablation_pdn(engine: &Engine) -> Result<Vec<(String, Vec<RouterReport>)>, SynthesisError> {
    let net = NetworkSpec::psion_16();
    let jobs = [
        ("openings + crossing-free PDN", true),
        ("no openings", false),
    ]
    .into_iter()
    .map(|(name, openings)| {
        let mut job = SynthesisJob::new(
            name,
            net.clone(),
            SynthesisOptions {
                openings,
                ..paper_options(14)
            },
        );
        job.loss = LossParams::oring();
        job.xtalk = Some(CrosstalkParams::nikdast());
        job
    })
    .collect();
    let rows = batch_reports(engine, jobs)?;
    Ok(vec![("PDN/opening ablation, 16-node".to_string(), rows)])
}

/// **Ablation E7**: Step-1 algorithm (MILP vs heuristic vs perimeter).
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn ablation_ring(engine: &Engine) -> Result<Vec<(String, Vec<RouterReport>)>, SynthesisError> {
    let loss = LossParams::oring();
    let mut jobs = Vec::new();
    let mut sections = Vec::new();
    for (label, net, wl) in [
        ("8-node", NetworkSpec::psion_8(), 8),
        ("16-node", NetworkSpec::psion_16(), 14),
        ("32-node", NetworkSpec::psion_32(), 24),
    ] {
        sections.push(format!("ring-construction ablation, {label}"));
        for (name, algorithm) in [
            ("MILP ring", RingAlgorithm::Milp),
            ("heuristic ring", RingAlgorithm::Heuristic),
            ("perimeter ring", RingAlgorithm::Perimeter),
        ] {
            let mut job = SynthesisJob::new(
                name,
                net.clone(),
                SynthesisOptions {
                    ring_algorithm: algorithm,
                    ..paper_options(wl)
                },
            )
            .without_crosstalk();
            job.loss = loss.clone();
            jobs.push(job);
        }
    }
    let mut reports = batch_reports(engine, jobs)?.into_iter();
    Ok(sections
        .into_iter()
        .map(|title| (title, reports.by_ref().take(3).collect()))
        .collect())
}

/// The Step-1 survey of one floorplan set (EXPERIMENTS.md E12).
#[derive(Debug, Clone, PartialEq)]
pub struct RingSurveyRow {
    /// Builds that returned an error.
    pub failures: usize,
    /// Rings whose 2-SAT route assignment fell back to the greedy one.
    pub twosat_fallbacks: usize,
    /// Residual ring crossings, summed over the set.
    pub residual_crossings: usize,
    /// Mean perimeter of the built rings in mm.
    pub mean_perimeter_mm: f64,
    /// Median and 90th-percentile (nearest rank) build wall in ms,
    /// failed builds included.
    pub wall_p50_p90_ms: (f64, f64),
}

/// Builds the default MILP ring of every floorplan, one at a time on the
/// calling thread so the wall times do not compete.
pub fn ring_survey(nets: &[NetworkSpec]) -> RingSurveyRow {
    let mut row = RingSurveyRow {
        failures: 0,
        twosat_fallbacks: 0,
        residual_crossings: 0,
        mean_perimeter_mm: 0.0,
        wall_p50_p90_ms: (0.0, 0.0),
    };
    let mut walls = Vec::with_capacity(nets.len());
    for net in nets {
        let t0 = Instant::now();
        let built = RingBuilder::new().build(net);
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
        let Ok(out) = built else {
            row.failures += 1;
            continue;
        };
        row.twosat_fallbacks += usize::from(out.stats.twosat_fallback);
        row.residual_crossings += out.cycle.residual_crossings();
        row.mean_perimeter_mm += out.cycle.perimeter() as f64 / 1e3;
    }
    row.mean_perimeter_mm /= (nets.len() - row.failures).max(1) as f64;
    walls.sort_by(f64::total_cmp);
    let rank = |q: f64| walls[((walls.len() as f64 * q).ceil() as usize).max(1) - 1];
    row.wall_p50_p90_ms = (rank(0.5), rank(0.9));
    row
}

/// Prints the E12 survey, the section after the E7 ablation: seeded
/// 16-node (300, 8 mm die) and 32-node (40, 12 mm die) floorplans on the
/// 100 µm grid, then the fixtures one by one.
///
/// # Errors
///
/// Propagates floorplan construction failures.
pub fn print_ring_survey() -> Result<(), SynthesisError> {
    let seeded = |n: usize, die_um: i64, count: u64| {
        (1..=count)
            .map(|seed| NetworkSpec::irregular(n, die_um, seed))
            .collect::<Result<Vec<_>, _>>()
    };
    let sets = [
        ("seeded N=16, 8 mm die", seeded(16, 8_000, 300)?),
        ("seeded N=32, 12 mm die", seeded(32, 12_000, 40)?),
        ("proton_8", vec![NetworkSpec::proton_8()]),
        ("proton_16", vec![NetworkSpec::proton_16()]),
        ("psion_16", vec![NetworkSpec::psion_16()]),
        ("psion_32", vec![NetworkSpec::psion_32()]),
        (
            "irregular(64, 20 mm, 5)",
            vec![NetworkSpec::irregular(64, 20_000, 5)?],
        ),
    ];
    println!("== ring MILP survey (E12) ==");
    println!(
        "floorplans                 count  fail 2sat-fb residual  perim(mm)   p50(ms)   p90(ms)"
    );
    for (label, nets) in sets {
        let r = ring_survey(&nets);
        println!(
            "{label:<26} {:>5} {:>5} {:>7} {:>8} {:>10.2} {:>9.2} {:>9.2}",
            nets.len(),
            r.failures,
            r.twosat_fallbacks,
            r.residual_crossings,
            r.mean_perimeter_mm,
            r.wall_p50_p90_ms.0,
            r.wall_p50_p90_ms.1
        );
    }
    println!();
    Ok(())
}

/// Prints sections of rows in the paper's tabular style.
pub fn print_sections(sections: &[(String, Vec<RouterReport>)]) {
    for (title, rows) in sections {
        println!("== {title} ==");
        println!("{}", RouterReport::table_header());
        for r in rows {
            println!("{r}");
        }
        println!();
    }
}

/// One printed experiment of the paper: its name on the command line
/// (`xring table 1`, `xring ablation pdn`), its title, and how it prints
/// its rows.
#[derive(Debug)]
pub struct Experiment {
    /// The name that selects it.
    pub name: &'static str,
    /// Printed above its rows, then a blank line.
    pub title: &'static str,
    /// Computes and prints its rows.
    pub print: fn(&Engine) -> Result<(), SynthesisError>,
}

impl PartialEq for Experiment {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Experiment {
    /// Prints the title, then the rows.
    ///
    /// # Errors
    ///
    /// The first synthesis failure of its rows.
    pub fn run(&self, engine: &Engine) -> Result<(), SynthesisError> {
        println!("{}\n", self.title);
        (self.print)(engine)
    }
}

/// The paper's tables (E1–E3).
pub static TABLES: [Experiment; 3] = [
    Experiment {
        name: "1",
        title: "TABLE I — results for 8-, 16-node WRONoC routers without PDNs\n\
                (crossbar rows are analytic models; see DESIGN.md §2)",
        print: |engine| {
            print_sections(&table1(engine)?);
            Ok(())
        },
    },
    Experiment {
        name: "2",
        title: "TABLE II — ORNoC vs XRing for 8-, 16-, 32-node networks (with PDNs)",
        print: |engine| {
            let sections = table2(engine)?;
            print_sections(&sections);
            // The headline claim (E4): >98% of XRing signals suffer no
            // first-order noise.
            for (title, rows) in &sections {
                let xring = rows.iter().filter(|r| r.label.starts_with("XRing"));
                for f in xring.filter_map(RouterReport::noise_free_fraction) {
                    println!(
                        "headline [{title}]: {:.1}% of XRing signals are free of first-order noise",
                        f * 100.0
                    );
                }
            }
            Ok(())
        },
    },
    Experiment {
        name: "3",
        title: "TABLE III — ORing vs XRing for a 16-node network (with PDNs)",
        print: |engine| {
            print_sections(&table3(engine)?);
            Ok(())
        },
    },
];

/// The design-choice ablations (E5–E7); the ring ablation ends with the
/// E12 ring-MILP survey.
pub static ABLATIONS: [Experiment; 3] = [
    Experiment {
        name: "shortcuts",
        title: "ABLATION E5 — Step 2 (shortcut construction)",
        print: |engine| {
            print_sections(&ablation_shortcuts(engine)?);
            Ok(())
        },
    },
    Experiment {
        name: "pdn",
        title: "ABLATION E6 — Step 3/4 (openings + crossing-free PDN)",
        print: |engine| {
            print_sections(&ablation_pdn(engine)?);
            Ok(())
        },
    },
    Experiment {
        name: "ring",
        title: "ABLATION E7 — Step 1 (ring-construction algorithm)",
        print: |engine| {
            print_sections(&ablation_ring(engine)?);
            print_ring_survey()
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use xring_engine::CacheCounter;
    use xring_obs::{RequestCtx, RequestId};

    #[test]
    fn wl_candidate_buckets() {
        assert!(wl_candidates(8).contains(&7));
        assert!(wl_candidates(16).contains(&14));
        assert!(wl_candidates(32).contains(&32));
    }

    #[test]
    fn sweep_reports_skip_only_budget_failures() {
        let engine = Engine::new().with_workers(2);
        let report = |il: f64| RouterReport {
            label: format!("il={il}"),
            num_wavelengths: 4,
            worst_il_db: il,
            worst_path_len_mm: 1.0,
            worst_path_crossings: 0,
            total_power_w: None,
            noisy_signal_count: None,
            worst_snr_db: None,
            signal_count: 10,
            synthesis_time: Duration::ZERO,
        };
        let over_budget = SynthesisError::WavelengthBudgetExceeded {
            max_wavelengths: 1,
            max_waveguides: 1,
        };
        let skipped = sweep_reports(&engine, 3, |i| match i {
            1 => Err(over_budget.clone()),
            _ => Ok(report(i as f64)),
        })
        .expect("budget failures are skipped");
        assert_eq!(skipped.len(), 2);
        let audit = SynthesisError::AuditFailed {
            summary: "dirty".to_owned(),
        };
        let err = sweep_reports(&engine, 3, |i| match i {
            2 => Err(audit.clone()),
            _ => Ok(report(i as f64)),
        })
        .expect_err("an audit failure fails the sweep");
        assert_eq!(err, audit);
    }

    #[test]
    fn xring_sweep_replays_the_context_ring() {
        // A ring key that drifted from the tables' options would make
        // every candidate solve the MILP again.
        let engine = Engine::new().with_workers(2);
        let ctx = RingContext::milp(&engine, NetworkSpec::psion_8()).expect("ring");
        let req = RequestCtx::new(RequestId::mint(0x7ab1e, 1, 0));
        let scope = req.attach();
        let reports = xring_sweep(
            &engine,
            &ctx,
            &[2, 4, 8],
            true,
            &LossParams::oring(),
            None,
            &PowerParams::default(),
        )
        .expect("sweep");
        drop(scope);
        assert_eq!(reports.len(), 3);
        assert_eq!(req.finish().total("milp.lp_solves"), 0);
    }

    #[test]
    fn table2_shape() {
        // XRing must be crossing-free and (nearly) noise-free at every
        // size and setting; ORNoC must suffer noise with a finite SNR.
        for (title, rows) in table2(&Engine::new()).expect("table2") {
            let (ornoc, xring) = (&rows[0], &rows[1]);
            assert!(ornoc.label.starts_with("ORNoC"), "{title}");
            assert!(xring.label.starts_with("XRing"), "{title}");
            assert_eq!(xring.worst_path_crossings, 0, "{title}");
            assert!(
                xring.noise_free_fraction().expect("evaluated") > 0.98,
                "{title}"
            );
            assert!(ornoc.noisy_signal_count.expect("evaluated") > 0, "{title}");
            assert!(ornoc.worst_snr_db.expect("noisy").is_finite(), "{title}");
            assert!(xring.worst_il_db < ornoc.worst_il_db, "{title}");
        }
    }

    #[test]
    fn table3_shape() {
        for (title, rows) in table3(&Engine::new()).expect("table3") {
            let (oring, xring) = (&rows[0], &rows[1]);
            assert!(oring.label.starts_with("ORing"), "{title}");
            assert!(xring.label.starts_with("XRing"), "{title}");
            assert_eq!(xring.worst_path_crossings, 0, "{title}");
            assert!(oring.worst_path_crossings > 0, "{title}");
            assert!(
                xring.total_power_w.expect("pdn") <= oring.total_power_w.expect("pdn"),
                "{title}"
            );
        }
    }

    #[test]
    fn ring_survey_counts_each_set() {
        let proton = ring_survey(&[NetworkSpec::proton_8()]);
        assert_eq!(proton.mean_perimeter_mm, 12.0);
        assert_eq!(proton.wall_p50_p90_ms.0, proton.wall_p50_p90_ms.1);
        let seeded: Vec<NetworkSpec> = (1..=3)
            .map(|seed| NetworkSpec::irregular(8, 4_000, seed).expect("irregular"))
            .collect();
        let seeded = ring_survey(&seeded);
        assert!(seeded.wall_p50_p90_ms.0 <= seeded.wall_p50_p90_ms.1);
        for r in [proton, seeded] {
            assert_eq!(
                (r.failures, r.twosat_fallbacks, r.residual_crossings),
                (0, 0, 0)
            );
        }
    }

    #[test]
    fn ablations_have_expected_directions() {
        let engine = Engine::new();
        // E7: the MILP ring never loses to the perimeter ring.
        for (title, rows) in ablation_ring(&engine).expect("E7") {
            let milp = &rows[0];
            let perimeter = &rows[2];
            assert!(
                milp.worst_il_db <= perimeter.worst_il_db + 1e-9,
                "{title}: {} vs {}",
                milp.worst_il_db,
                perimeter.worst_il_db
            );
        }
        // E6: openings eliminate noisy signals.
        for (_, rows) in ablation_pdn(&engine).expect("E6") {
            let with = &rows[0];
            let without = &rows[1];
            assert!(
                with.noisy_signal_count.expect("evaluated")
                    <= without.noisy_signal_count.expect("evaluated")
            );
            assert_eq!(with.worst_path_crossings, 0);
        }
    }

    #[test]
    fn repeated_ablations_reuse_cached_designs() {
        let engine = Engine::new();
        let first = ablation_pdn(&engine).expect("E6");
        assert_eq!(engine.cache().counters.get(CacheCounter::Hits), 0);
        let second = ablation_pdn(&engine).expect("E6 again");
        assert_eq!(engine.cache().counters.get(CacheCounter::Hits), 2);
        assert_eq!(first[0].1.len(), second[0].1.len());
        for (a, b) in first[0].1.iter().zip(&second[0].1) {
            assert_eq!(a, b, "cached rows must be identical");
        }
    }

    #[test]
    fn table1_shape() {
        // The core claims of Table I: every ring router beats every
        // crossbar on worst-case IL; XRing is the best ring router on the
        // 16-node network (on the tiny regular 8-node grid all ring
        // methods find the same optimum, so there we only require a tie
        // within 0.05 dB); ring routers have zero crossings.
        let sections = table1(&Engine::new()).expect("table1");
        for (si, (title, rows)) in sections.iter().enumerate() {
            assert_eq!(rows.len(), 6, "{title}");
            let crossbars = &rows[..3];
            let rings = &rows[3..];
            let xring = rows.last().expect("xring row");
            assert!(xring.label.starts_with("XRing"));
            assert_eq!(xring.worst_path_crossings, 0);
            for c in crossbars {
                for r in rings {
                    assert!(
                        r.worst_il_db < c.worst_il_db,
                        "{title}: ring {} ({}) not better than crossbar {} ({})",
                        r.label,
                        r.worst_il_db,
                        c.label,
                        c.worst_il_db
                    );
                }
            }
            let tolerance = if si == 0 { 0.05 } else { 1e-9 };
            for r in rings {
                assert!(
                    xring.worst_il_db <= r.worst_il_db + tolerance,
                    "{title}: XRing ({}) loses to {} ({})",
                    xring.worst_il_db,
                    r.label,
                    r.worst_il_db
                );
            }
        }
    }
}
