//! `xring` — the command-line front end.
//!
//! ```text
//! xring synth --grid 4x4 --pitch 2000 --wl 14 --svg layout.svg
//! xring --jobs 4 table 2
//! xring batch --grid 4x4 --wl-list 4,8,14 --repeat 2 --metrics-jsonl events.jsonl
//! ```

mod args;

use args::{parse, usage, BatchArgs, Command, Outputs, SynthArgs};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use xring_bench::tables::Experiment;
use xring_core::{
    DegradationLevel, NetworkSpec, PhaseId, SpareConfig, SweepObjective, SynthesisOptions,
    Synthesizer, Traffic,
};
use xring_engine::{CacheCounter, Engine, JsonlSink, SynthesisJob};
use xring_phot::{CrosstalkParams, LossParams, PowerParams, RouterReport};
use xring_serve::{ServeConfig, ServeCounter};
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
    let out = &cli.out;
    if out.trace.is_some() || out.metrics_out.is_some() {
        xring_obs::start();
    }
    // `--solver-log` installs a global convergence sink; every MILP solve
    // during the command streams its events there, tagged by solve id.
    let solver_sink_installed = match &out.solver_log {
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
        Command::Table(table) => run_experiments(std::slice::from_ref(table), &engine),
        Command::Ablation(ablations) => {
            let code = run_experiments(ablations, &engine);
            let cache = &engine.cache().counters;
            let hits = cache.get(CacheCounter::Hits);
            if code == ExitCode::SUCCESS && hits > 0 {
                let misses = cache.get(CacheCounter::Misses);
                println!("engine cache: {hits} hits, {misses} misses");
            }
            code
        }
        Command::Synth(args) => run_synth(&args, out),
        Command::Sweep(args, objective) => run_sweep(&args, objective, &engine),
        Command::Batch(args, batch) => run_batch_cmd(&args, &batch, engine),
        Command::FaultSweep(args, levels) => run_fault_sweep(&args, &levels, &engine),
        Command::Edit(args, drop_pair) => run_edit(&args, drop_pair, &engine),
        Command::Serve(config) => run_serve(config),
    };
    if solver_sink_installed {
        xring_milp::progress::clear_sink();
        if let Some(path) = &out.solver_log {
            xring_obs::log::info("cli", "solver convergence log written", &[("path", path)]);
        }
    }
    if out.trace.is_some() || out.metrics_out.is_some() {
        let trace = xring_obs::finish();
        if let Some(path) = &out.trace {
            let file = std::fs::File::create(path);
            if let Err(e) = file.and_then(|mut file| trace.write(out.trace_format, &mut file)) {
                xring_obs::log::error(
                    "cli",
                    "cannot write trace",
                    &[("path", path), ("error", &e.to_string())],
                );
                return ExitCode::FAILURE;
            }
            xring_obs::log::info(
                "cli",
                "trace written",
                &[("path", path), ("format", &out.trace_format.to_string())],
            );
        }
        if let Some(path) = &out.metrics_out {
            let file = std::fs::File::create(path);
            if let Err(e) = file.and_then(|mut file| trace.write_prometheus(&mut file)) {
                xring_obs::log::error(
                    "cli",
                    "cannot write metrics",
                    &[("path", path), ("error", &e.to_string())],
                );
                return ExitCode::FAILURE;
            }
            xring_obs::log::info("cli", "prometheus metrics written", &[("path", path)]);
        }
    }
    code
}

/// Prints each experiment in turn: its title, then its rows.
fn run_experiments(experiments: &[Experiment], engine: &Engine) -> ExitCode {
    for experiment in experiments {
        or_fail!(experiment.run(engine));
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

fn run_sweep(args: &SynthArgs, objective: SweepObjective, engine: &Engine) -> ExitCode {
    let net = or_fail!(args.network());
    let candidates = wl_ladder(args.options.max_wavelengths);
    let result = or_fail!(engine.sweep_wavelengths(
        &net,
        args.options.clone(),
        &candidates,
        objective,
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

/// The jobs of a batch: each `#wl` candidate, `--repeat` times, with the
/// base options otherwise (the deadline among them).
fn batch_jobs(net: &NetworkSpec, args: &SynthArgs, batch: &BatchArgs) -> Vec<SynthesisJob> {
    let candidates = if batch.wl_list.is_empty() {
        wl_ladder(args.options.max_wavelengths)
    } else {
        batch.wl_list.clone()
    };
    let rounds = (0..batch.repeat).flat_map(|round| candidates.iter().map(move |&wl| (round, wl)));
    rounds
        .map(|(round, wl)| {
            let options = SynthesisOptions {
                max_wavelengths: wl,
                ..args.options.clone()
            };
            SynthesisJob::new(format!("r{round} #wl={wl}"), net.clone(), options)
        })
        .collect()
}

fn run_batch_cmd(args: &SynthArgs, batch: &BatchArgs, mut engine: Engine) -> ExitCode {
    let net = or_fail!(args.network());
    if let Some(path) = &batch.metrics_jsonl {
        match std::fs::File::create(path) {
            Ok(file) => engine = engine.with_sink(Arc::new(JsonlSink::new(file))),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let batch = engine.run_batch(batch_jobs(&net, args, batch));
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

fn run_serve(config: ServeConfig) -> ExitCode {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};

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

fn run_synth(args: &SynthArgs, out: &Outputs) -> ExitCode {
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

    if out.describe {
        println!("\n{}", design.describe());
    }
    if let Some(path) = &out.svg {
        let svg = render_design(&design, &RenderOptions::default());
        if let Err(e) = std::fs::write(path, svg) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("layout written to {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_batch_job_carries_the_deadline() {
        let argv: Vec<String> = [
            "batch",
            "--wl-list",
            "4,8",
            "--repeat",
            "2",
            "--deadline-ms",
            "250",
        ]
        .map(String::from)
        .to_vec();
        let Command::Batch(args, batch) = parse(&argv).expect("parses").command else {
            panic!("not batch")
        };
        let jobs = batch_jobs(&args.network().expect("network"), &args, &batch);
        let wls: Vec<usize> = jobs.iter().map(|j| j.options.max_wavelengths).collect();
        assert_eq!(wls, [4, 8, 4, 8]);
        for job in &jobs {
            assert_eq!(job.options.deadline, Some(Duration::from_millis(250)));
        }
    }
}
