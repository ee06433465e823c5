//! `xring` — the command-line front end.
//!
//! ```text
//! xring synth --grid 4x4 --pitch 2000 --wl 14 --svg layout.svg
//! xring --jobs 4 table 2
//! xring batch --grid 4x4 --wl-list 4,8,14 --repeat 2 --metrics-jsonl events.jsonl
//! ```

mod args;

use args::{parse, usage, BatchArgs, Command, ServeArgs, SynthArgs};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use xring_bench::tables::{
    ablation_pdn, ablation_ring, ablation_shortcuts, print_ring_survey, print_sections, table1,
    table2, table3,
};
use xring_core::{DegradationLevel, PhaseId, SpareConfig, SynthesisOptions, Synthesizer, Traffic};
use xring_engine::{CacheCounter, Engine, JsonlSink, SynthesisJob};
use xring_phot::{CrosstalkParams, LossParams, PowerParams, RouterReport};
use xring_serve::ServeCounter;
use xring_viz::{render_design, RenderOptions};

/// The `Ok` value of `$result`; on `Err(e)` prints `error: [context: ]e`
/// and fails the command.
macro_rules! or_fail {
    ($result:expr $(, $context:literal)?) => {
        match $result {
            Ok(value) => value,
            Err(e) => {
                eprintln!(concat!("error: ", $($context, ": ",)? "{}"), e);
                return ExitCode::FAILURE;
            }
        }
    };
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    // Structured logging first: everything after this point may emit
    // leveled JSONL events ([`xring_obs::log`]) instead of bare stderr.
    if let Some(level) = cli.log_level {
        xring_obs::log::set_level(level);
    }
    if let Some(path) = &cli.log_out {
        match std::fs::File::create(path) {
            Ok(file) => xring_obs::log::set_output(Some(Box::new(file))),
            Err(e) => {
                eprintln!("error: cannot open log file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut engine = Engine::new();
    if let Some(jobs) = cli.jobs {
        engine = engine.with_workers(jobs);
    }
    // `--trace` and `--metrics-out` wrap the whole command: spans and
    // histograms from every layer (engine jobs, synthesis phases, MILP
    // solves) land in one trace, drained once after the command finishes
    // and rendered to each requested output.
    let (trace_to, solver_log, metrics_out) = match &cli.command {
        Command::Synth(a)
        | Command::Sweep(a, _)
        | Command::FaultSweep(a, _)
        | Command::Edit(a, _) => (
            a.trace.clone().map(|p| (p, a.trace_format)),
            a.solver_log.clone(),
            a.metrics_out.clone(),
        ),
        Command::Batch(b) => (
            b.synth.trace.clone().map(|p| (p, b.synth.trace_format)),
            b.synth.solver_log.clone(),
            b.synth.metrics_out.clone(),
        ),
        Command::Serve(a) => (
            a.trace.clone().map(|p| (p, a.trace_format)),
            None,
            a.metrics_out.clone(),
        ),
        _ => (None, None, None),
    };
    if trace_to.is_some() || metrics_out.is_some() {
        xring_obs::start();
    }
    // `--solver-log` installs a global convergence sink; every MILP solve
    // during the command streams its events there, tagged by solve id.
    let solver_sink_installed = match &solver_log {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => {
                xring_milp::progress::install_sink(Arc::new(
                    xring_milp::progress::JsonlProgressSink::new(file),
                ));
                true
            }
            Err(e) => {
                xring_obs::log::error(
                    "cli",
                    "cannot write solver log",
                    &[("path", path), ("error", &e.to_string())],
                );
                return ExitCode::FAILURE;
            }
        },
        None => false,
    };
    let code = match cli.command {
        Command::Help => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Command::Table(which) => run_table(which, &engine),
        Command::Ablation(which) => run_ablation(&which, &engine),
        Command::Synth(args) => run_synth(&args),
        Command::Sweep(args, objective) => run_sweep(&args, &objective, &engine),
        Command::Batch(args) => run_batch_cmd(&args, engine),
        Command::FaultSweep(args, levels) => run_fault_sweep(&args, &levels, &engine),
        Command::Edit(args, drop_pair) => run_edit(&args, drop_pair, &engine),
        Command::Serve(args) => run_serve(&args),
    };
    if solver_sink_installed {
        xring_milp::progress::clear_sink();
        if let Some(path) = &solver_log {
            xring_obs::log::info("cli", "solver convergence log written", &[("path", path)]);
        }
    }
    if trace_to.is_some() || metrics_out.is_some() {
        let trace = xring_obs::finish();
        if let Some((path, format)) = trace_to {
            if let Err(e) = write_trace(&trace, &path, format) {
                xring_obs::log::error(
                    "cli",
                    "cannot write trace",
                    &[("path", &path), ("error", &e.to_string())],
                );
                return ExitCode::FAILURE;
            }
            xring_obs::log::info(
                "cli",
                "trace written",
                &[("path", &path), ("format", &format.to_string())],
            );
        }
        if let Some(path) = metrics_out {
            if let Err(e) = write_metrics(&trace, &path) {
                xring_obs::log::error(
                    "cli",
                    "cannot write metrics",
                    &[("path", &path), ("error", &e.to_string())],
                );
                return ExitCode::FAILURE;
            }
            xring_obs::log::info("cli", "prometheus metrics written", &[("path", &path)]);
        }
    }
    code
}

fn write_trace(
    trace: &xring_obs::Trace,
    path: &str,
    format: xring_obs::TraceFormat,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    trace.write(format, &mut file)
}

fn write_metrics(trace: &xring_obs::Trace, path: &str) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    trace.write_prometheus(&mut file)
}

fn run_table(which: u8, engine: &Engine) -> ExitCode {
    let result = match which {
        1 => table1(engine),
        2 => table2(engine),
        _ => table3(engine),
    };
    match result {
        Ok(sections) => {
            print_sections(&sections);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_ablation(which: &str, engine: &Engine) -> ExitCode {
    type Ablation =
        fn(&Engine) -> Result<Vec<(String, Vec<RouterReport>)>, xring_core::SynthesisError>;
    let runs: Vec<Ablation> = match which {
        "shortcuts" => vec![ablation_shortcuts],
        "pdn" => vec![ablation_pdn],
        "ring" => vec![ablation_ring],
        _ => vec![ablation_shortcuts, ablation_pdn, ablation_ring],
    };
    for run in runs {
        match run(engine) {
            Ok(sections) => print_sections(&sections),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The ring ablation ends with the E12 ring-MILP survey.
    if !matches!(which, "shortcuts" | "pdn") {
        if let Err(e) = print_ring_survey() {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let cache = &engine.cache().counters;
    let hits = cache.get(CacheCounter::Hits);
    if hits > 0 {
        let misses = cache.get(CacheCounter::Misses);
        println!("engine cache: {hits} hits, {misses} misses");
    }
    ExitCode::SUCCESS
}

/// The sweep's default candidate ladder: the powers of two up to `--wl`,
/// plus `--wl` itself.
fn wl_ladder(max: usize) -> Vec<usize> {
    (1..=max.max(2))
        .filter(|w| w.is_power_of_two() || *w == max)
        .collect()
}

fn run_sweep(args: &SynthArgs, objective: &str, engine: &Engine) -> ExitCode {
    use xring_core::SweepObjective;
    let net = or_fail!(args.network());
    let obj = match objective {
        "il" => SweepObjective::MinInsertionLoss,
        "snr" => SweepObjective::MaxSnr,
        _ => SweepObjective::MinPower,
    };
    let candidates = wl_ladder(args.options.max_wavelengths);
    let result = or_fail!(engine.sweep_wavelengths(
        &net,
        args.options.clone(),
        &candidates,
        obj,
        &LossParams::default(),
        Some(&CrosstalkParams::default()),
        &PowerParams::default(),
    ));
    println!("{}", RouterReport::table_header());
    for (i, p) in result.points.iter().enumerate() {
        let marker = if i == result.best { "  <= best" } else { "" };
        println!("{}{marker}", p.report);
    }
    ExitCode::SUCCESS
}

fn run_batch_cmd(args: &BatchArgs, mut engine: Engine) -> ExitCode {
    let net = or_fail!(args.synth.network());
    if let Some(path) = &args.metrics_jsonl {
        match std::fs::File::create(path) {
            Ok(file) => engine = engine.with_sink(Arc::new(JsonlSink::new(file))),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let candidates = if args.wl_list.is_empty() {
        wl_ladder(args.synth.options.max_wavelengths)
    } else {
        args.wl_list.clone()
    };
    let base = &args.synth.options;
    let mut jobs = Vec::with_capacity(candidates.len() * args.repeat);
    for round in 0..args.repeat {
        for &wl in &candidates {
            let mut job = SynthesisJob::new(
                format!("r{round} #wl={wl}"),
                net.clone(),
                SynthesisOptions {
                    max_wavelengths: wl,
                    ..base.clone()
                },
            );
            if let Some(ms) = args.deadline_ms {
                job = job.with_deadline(Duration::from_millis(ms));
            }
            jobs.push(job);
        }
    }

    let batch = engine.run_batch(jobs);
    println!("{}", RouterReport::table_header());
    let mut failed = false;
    for outcome in &batch.outcomes {
        match outcome {
            Ok(out) => {
                let hit = if out.cache_hit { "  [cache]" } else { "" };
                let degraded = match out.design.provenance.degradation {
                    DegradationLevel::Exact => "",
                    DegradationLevel::RetriedPerturbed => "  [retried]",
                    DegradationLevel::Heuristic => "  [heuristic]",
                };
                println!("{}{hit}{degraded}", out.report);
            }
            Err(e) => {
                failed = true;
                eprintln!("job failed: {e}");
            }
        }
    }
    println!("batch: {}", batch.metrics.summary());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_fault_sweep(args: &SynthArgs, levels: &[usize], engine: &Engine) -> ExitCode {
    let net = or_fail!(args.network());
    let spare_levels: Vec<SpareConfig> = levels.iter().map(|&k| SpareConfig::uniform(k)).collect();
    let result = or_fail!(engine.fault_sweep(
        &net,
        &args.options,
        &spare_levels,
        Some(&CrosstalkParams::default()),
    ));
    println!(
        "{:<22} {:>4} {:>3} {:>9} {:>9} {:>7} {:>11} {:>13} {:>8}",
        "level",
        "#wl",
        "wg",
        "power mW",
        "survived",
        "margin",
        "min-served",
        "worst SNR dB",
        "wall ms"
    );
    for p in &result.points {
        let marker = if p.pareto { "  <= pareto" } else { "" };
        println!(
            "{:<22} {:>4} {:>3} {:>9} {:>4}/{:<4} {:>7.3} {:>11.3} {:>13} {:>8.1}{marker}",
            p.label,
            p.wavelengths,
            p.waveguides,
            p.total_power_w
                .map_or("n/a".into(), |w| format!("{:.2}", w * 1e3)),
            p.survived,
            p.scenarios,
            p.fault_margin,
            p.min_served_fraction,
            p.worst_post_snr_db
                .map_or("n/a".into(), |s| format!("{s:.1}")),
            p.wall.as_secs_f64() * 1e3,
        );
    }
    for p in &result.points {
        if let Some(worst) = &p.worst {
            println!("{}: worst scenario: {worst}", p.label);
        }
    }
    ExitCode::SUCCESS
}

/// `xring edit`: the incremental re-synthesis demo loop. Synthesizes
/// the base spec cold (seeding the engine's phase-artifact store),
/// drops one traffic demand, re-synthesizes the edited spec
/// incrementally, and compares it against a cold batch synthesis of the
/// same edited spec on a fresh engine.
fn run_edit(args: &SynthArgs, drop_pair: usize, engine: &Engine) -> ExitCode {
    let net = or_fail!(args.network());
    let options = args.options.clone();
    let pairs = options.traffic.pairs(&net);
    if drop_pair >= pairs.len() {
        eprintln!(
            "error: --drop-pair {drop_pair} out of range ({} demand pairs)",
            pairs.len()
        );
        return ExitCode::FAILURE;
    }
    let mut edited_pairs = pairs.clone();
    let (src, dst) = edited_pairs.remove(drop_pair);
    let mut edited_options = options.clone();
    edited_options.traffic = Traffic::Custom(edited_pairs);

    let base = SynthesisJob::new("base", net.clone(), options);
    let edited = SynthesisJob::new("edited", net.clone(), edited_options);

    // Cold run of the base spec: populates the phase-artifact store.
    let cold_base = or_fail!(engine.resynthesize(&base), "base synthesis failed");
    // Cold reference for the *edited* spec: a batch job on a fresh
    // engine whose cache holds nothing — what a non-incremental tool
    // would pay.
    let cold_edit = or_fail!(
        Engine::new()
            .with_workers(1)
            .run_batch(vec![edited.clone()])
            .outcomes
            .remove(0),
        "cold reference synthesis failed"
    );
    // The edit: replays the phases whose keys the base run stored.
    let incremental = or_fail!(
        engine.resynthesize(&edited),
        "incremental re-synthesis failed"
    );

    let cold_ms = cold_edit.wall.as_secs_f64() * 1e3;
    let inc_ms = incremental.wall.as_secs_f64() * 1e3;
    let identical = incremental.design.describe() == cold_edit.design.describe();
    println!(
        "edit: dropped demand {src}->{dst} (pair {drop_pair} of {})",
        pairs.len()
    );
    println!(
        "cold synthesis (base spec):    {:>9.1} ms",
        cold_base.wall.as_secs_f64() * 1e3
    );
    println!("cold synthesis (edited spec):  {cold_ms:>9.1} ms");
    println!(
        "incremental re-synthesis:      {inc_ms:>9.1} ms   ({:.1}x, {}/{} phases replayed)",
        if inc_ms > 0.0 {
            cold_ms / inc_ms
        } else {
            f64::INFINITY
        },
        incremental.phases_reused,
        PhaseId::ALL.len(),
    );
    println!(
        "byte-identical to cold synthesis of the edited spec: {}",
        if identical { "yes" } else { "no" }
    );
    println!("{}", RouterReport::table_header());
    println!("{}", incremental.report);
    ExitCode::SUCCESS
}

fn run_serve(args: &ServeArgs) -> ExitCode {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut slo = xring_serve::SloConfig::default();
    if let Some(ppm) = args.slo_target_ppm {
        slo.target_ppm = ppm;
    }
    if let Some(ms) = args.slo_latency_ms {
        slo.latency_target = Duration::from_millis(ms);
    }
    let config = xring_serve::ServeConfig {
        port: args.port,
        workers: args.workers,
        max_inflight: args.max_inflight,
        queue_depth: args.queue_depth,
        deadline: args.deadline_ms.map(Duration::from_millis),
        degradation: args.degradation,
        cache_bytes: match args.cache_bytes {
            0 => None,
            n => Some(n as usize),
        },
        slo,
        postmortem: args.postmortem.clone().map(std::path::PathBuf::from),
        ..xring_serve::ServeConfig::default()
    };
    let mut server = match xring_serve::Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            xring_obs::log::error("cli", "cannot start daemon", &[("error", &e.to_string())]);
            return ExitCode::FAILURE;
        }
    };
    // Supervisors (ci.sh among them) parse this line for the resolved
    // port, so print and flush it before anything else.
    println!("xring serve listening on {}", server.addr());
    std::io::stdout().flush().ok();

    // Two ways to stop: POST /shutdown over the wire, or closing the
    // daemon's stdin (the supervisor-friendly path — no signal handling
    // in a std-only workspace). Run detached with stdin held open.
    let stdin_closed = Arc::new(AtomicBool::new(false));
    {
        let stdin_closed = Arc::clone(&stdin_closed);
        let watcher = std::thread::Builder::new()
            .name("serve-stdin".to_owned())
            .spawn(move || {
                let mut sink = [0u8; 256];
                let mut stdin = std::io::stdin();
                while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
                stdin_closed.store(true, Ordering::Release);
            });
        if watcher.is_err() {
            xring_obs::log::warn("cli", "no stdin watcher; stop with POST /shutdown", &[]);
        }
    }
    while !server.is_draining() && !stdin_closed.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    // Two populations: `/synth` and `/batch` requests ran in the handler
    // pool; responses span every route, operator endpoints included.
    let serve = |row| server.metrics().counters.get(row);
    let cache = |row| server.cache().counters.get(row);
    let responses = serve(ServeCounter::Ok)
        + serve(ServeCounter::ClientErrors)
        + serve(ServeCounter::ServerErrors)
        + serve(ServeCounter::Shed);
    xring_obs::log::info(
        "cli",
        &format!(
            "drained after {} synth/batch requests ({} degraded) and {} responses on all routes ({} ok, {} shed); cache {} hits / {} misses",
            serve(ServeCounter::Requests),
            serve(ServeCounter::Degraded),
            responses,
            serve(ServeCounter::Ok),
            serve(ServeCounter::Shed),
            cache(CacheCounter::Hits),
            cache(CacheCounter::Misses),
        ),
        &[],
    );
    ExitCode::SUCCESS
    // If the watcher thread is still parked in read(), the process exit
    // right after main returns reaps it.
}

fn run_synth(args: &SynthArgs) -> ExitCode {
    let net = or_fail!(args.network());
    let options = args.options.clone();
    let design = or_fail!(Synthesizer::new(options).synthesize(&net));

    println!(
        "synthesized {} nodes: ring {:.1} mm, {} shortcuts, {} ring waveguides, {} openings",
        net.len(),
        design.cycle.perimeter() as f64 / 1_000.0,
        design.shortcuts.shortcuts.len(),
        design.plan.ring_waveguides.len(),
        design.opening_stats.opened,
    );
    if design.provenance.degradation != DegradationLevel::Exact {
        println!(
            "degraded: {} ({})",
            design.provenance.degradation.as_str(),
            design
                .provenance
                .fallback_reason
                .as_deref()
                .unwrap_or("no reason recorded"),
        );
    }
    if let Some(conv) = &design.ring_stats.convergence {
        println!(
            "ring MILP convergence: {} nodes, {} incumbents, final gap {}, first incumbent {}",
            conv.nodes,
            conv.incumbent_events,
            conv.final_gap
                .map_or("n/a".into(), |g| format!("{:.4}%", g * 100.0)),
            conv.time_to_first_incumbent
                .map_or("n/a".into(), |t| format!("{:.1} ms", t.as_secs_f64() * 1e3)),
        );
    }
    let report = design.report(
        "synth",
        &LossParams::default(),
        Some(&CrosstalkParams::default()),
        &PowerParams::default(),
    );
    println!("{}", RouterReport::table_header());
    println!("{report}");

    if args.describe {
        println!("\n{}", design.describe());
    }
    if let Some(path) = &args.svg {
        let svg = render_design(&design, &RenderOptions::default());
        if let Err(e) = std::fs::write(path, svg) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("layout written to {path}");
    }
    ExitCode::SUCCESS
}
