//! A small, dependency-free argument parser for the `xring` CLI.
//!
//! Every flag that is not a synthesis option is one [`FlagRow`] of a help
//! section ([`GLOBAL`], [`SECTIONS`]); the floorplan flags come from the
//! floorplan table ([`FloorplanForm::ALL`]) and the synthesis options
//! from the option table ([`SynthesisOptions::apply_flag`]). One loop
//! ([`apply_flags`]) reads all of them, in the `--flag V` and the
//! `--flag=V` form, and [`usage`] prints all of them.

use std::fmt::Write as _;
use std::time::Duration;

use xring_bench::tables::{Experiment, ABLATIONS, TABLES};
use xring_core::options::write_help_line;
use xring_core::{
    Floorplan, FloorplanForm, NetworkSpec, SweepObjective, SynthesisError, SynthesisOptions,
    MAX_COORD_UM, MAX_NODES,
};
use xring_obs::TraceFormat;
use xring_serve::ServeConfig;

/// A fully parsed command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// `--jobs N`: engine worker count (default: one per core).
    pub jobs: Option<usize>,
    /// `--log-level`: structured-log threshold (default info).
    pub log_level: Option<xring_obs::log::Level>,
    /// `--log-out FILE`: write structured JSONL logs here instead of
    /// stderr.
    pub log_out: Option<String>,
    /// What the run writes besides stdout.
    pub out: Outputs,
    /// The subcommand.
    pub command: Command,
}

/// The run outputs: what a command writes besides stdout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs {
    /// `--svg FILE`: an SVG rendering of the layout (synth).
    pub svg: Option<String>,
    /// `--describe`: print the full design document (synth).
    pub describe: bool,
    /// `--trace FILE`: a phase-level trace of the whole run.
    pub trace: Option<String>,
    /// `--trace-format jsonl|folded`: how to serialize the trace.
    pub trace_format: TraceFormat,
    /// `--solver-log FILE`: MILP convergence events (incumbents, bounds,
    /// gaps) as JSON lines.
    pub solver_log: Option<String>,
    /// `--metrics-out FILE`: a Prometheus text-format snapshot of the
    /// whole run.
    pub metrics_out: Option<String>,
}

/// Parsed subcommand.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Command {
    /// `xring synth ...`
    Synth(SynthArgs),
    /// `xring sweep ...` — like synth but sweeping `#wl` and printing
    /// every point, the best under the objective marked.
    Sweep(SynthArgs, SweepObjective),
    /// `xring batch ...` — run a whole batch of synthesis jobs on the
    /// engine, with per-job deadlines and metrics.
    Batch(SynthArgs, BatchArgs),
    /// `xring fault-sweep ...` — synthesize the network at several spare
    /// levels, audit every single-device-fault scenario per level and
    /// print the Pareto report (power × wavelengths × fault margin).
    FaultSweep(SynthArgs, Vec<usize>),
    /// `xring edit ...` — drop one traffic demand and re-synthesize
    /// incrementally; the payload is the demand-pair index to drop.
    Edit(SynthArgs, usize),
    /// `xring serve ...` — run the synthesis daemon until it is told to
    /// shut down (POST /shutdown or stdin EOF).
    Serve(ServeConfig),
    /// `xring table <1|2|3>`
    Table(&'static Experiment),
    /// `xring ablation <shortcuts|pdn|ring|all>`
    Ablation(&'static [Experiment]),
    /// `xring help` / `--help`
    #[default]
    Help,
}

/// The floorplan and the synthesis options of a synthesis command.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthArgs {
    /// The floorplan its flags gave ([`FloorplanForm::flags`]); `None`:
    /// [`DEFAULT_FLOORPLAN`].
    pub floorplan: Option<Floorplan>,
    /// The synthesis options, set through the option table's flags
    /// ([`SynthesisOptions::apply_flag`]).
    pub options: SynthesisOptions,
}

/// The floorplan of a command that gives none.
pub const DEFAULT_FLOORPLAN: Floorplan = Floorplan::Grid {
    rows: 4,
    cols: 4,
    pitch_um: 2_000,
};

impl SynthArgs {
    /// The network of the floorplan, checked and built by the table.
    pub fn network(&self) -> Result<NetworkSpec, SynthesisError> {
        self.floorplan.clone().unwrap_or(DEFAULT_FLOORPLAN).build()
    }
}

/// The own flags of the `batch` subcommand; its deadline is the
/// synthesis option's.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchArgs {
    /// `--wl-list a,b,c`: explicit `#wl` candidates (default: the sweep's
    /// power-of-two ladder up to `--wl`).
    pub wl_list: Vec<usize>,
    /// `--repeat K`: submit the candidate list K times (repeats hit the
    /// design cache).
    pub repeat: usize,
    /// `--metrics-jsonl FILE`: write engine events as JSON lines.
    pub metrics_jsonl: Option<String>,
}

/// Everything the flags of one command line set, each row writing its
/// field; [`parse`] then moves the fields its command reads into the
/// [`Cli`]'s command.
#[derive(Debug)]
struct Args {
    cli: Cli,
    synth: SynthArgs,
    objective: SweepObjective,
    batch: BatchArgs,
    levels: Vec<usize>,
    drop_pair: usize,
    serve: ServeConfig,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            cli: Cli::default(),
            synth: SynthArgs::default(),
            objective: SweepObjective::MinPower,
            batch: BatchArgs {
                wl_list: Vec::new(),
                repeat: 1,
                metrics_jsonl: None,
            },
            levels: vec![0, 1],
            drop_pair: 0,
            // The library's default port is 0, an ephemeral one.
            serve: ServeConfig {
                port: 7878,
                ..ServeConfig::default()
            },
        }
    }
}

/// One flag that is not a synthesis option.
#[derive(Debug)]
struct FlagRow {
    /// The flag.
    flag: &'static str,
    /// Its value as the help spells it; empty for a switch.
    value: &'static str,
    /// What the flag needs, in the error for a missing value.
    needs: &'static str,
    /// The help text; `\n` breaks its lines.
    help: &'static str,
    /// Sets the flag's field from its value (`""` for a switch).
    set: fn(&mut Args, &str) -> Result<(), String>,
}

/// A section of the help: the commands that take its flags, the prose
/// above them, and the flags.
#[derive(Debug)]
struct Section {
    title: &'static str,
    commands: &'static [&'static str],
    about: &'static str,
    rows: &'static [FlagRow],
}

/// A section's rows, one per flag:
/// `"--flag" VALUE, needs NEEDS => "help", setter;` ([`FlagRow`]).
macro_rules! rows {
    ($($flag:literal $value:expr, needs $needs:expr => $help:literal, $set:expr;)*) => {
        &[$(FlagRow { flag: $flag, value: $value, needs: $needs, help: $help, set: $set }),*]
    };
}

/// Every command, with what it does.
static COMMANDS: [(&str, &str); 9] = [
    ("synth", "synthesize one router and print its report row"),
    ("sweep", "synthesize at each #wl of a ladder; mark the best"),
    ("batch", "run #wl candidates as jobs of the engine"),
    ("fault-sweep", "audit every single fault per spare level"),
    ("edit", "drop one demand and re-synthesize incrementally"),
    ("serve", "run the synthesis daemon"),
    ("table", "print a table of the paper"),
    ("ablation", "print the ablations of the design steps"),
    ("help", "print this text"),
];

/// The synthesis commands: they take a floorplan and the synthesis
/// options.
const SYNTHESIS: &[&str] = &["synth", "sweep", "batch", "fault-sweep", "edit"];

/// Sets `slot` to `value`.
fn put<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// `v` as the number of `flag`.
fn number(flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("bad {flag} value {v}"))
}

/// `n`, refused when 0.
fn nonzero(flag: &str, n: u64) -> Result<u64, String> {
    match n {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// `v` as the number of `flag`, refused when 0.
fn positive(flag: &str, v: &str) -> Result<u64, String> {
    nonzero(flag, number(flag, v)?)
}

/// The parts of list `v`, each parsed by `part`.
fn list(v: &str, part: impl Fn(&str) -> Result<usize, String>) -> Result<Vec<usize>, String> {
    v.split(',').map(part).collect()
}

/// The flags every command takes, anywhere on the command line.
static GLOBAL: Section = Section {
    title: "GLOBAL FLAGS",
    commands: &[],
    about: "valid anywhere on the command line",
    rows: rows! {
        "--jobs" "N", needs "a worker count" =>
            "worker threads for sweeps, batches, tables and\nablations (default: one per core)",
            |a, v| {
                let n = v.parse().map_err(|_| format!("bad worker count {v}"))?;
                put(&mut a.cli.jobs, Some(nonzero("--jobs", n)? as usize))
            };
        "--log-level" "error|warn|info|debug", needs "error|warn|info|debug" =>
            "structured-log threshold (default info)",
            |a, v| put(&mut a.cli.log_level, Some(v.parse()?));
        "--log-out" "FILE", needs "a path" =>
            "write structured JSONL log events to FILE instead\n\
             of stderr; each event carries a timestamp, level,\n\
             target and, inside the daemon, the request id",
            |a, v| put(&mut a.cli.log_out, Some(v.to_owned()));
    },
};

/// The sections of every other flag, in help order.
static SECTIONS: [Section; 7] = [
    Section {
        title: "RUN OUTPUTS",
        commands: SYNTHESIS,
        about: "",
        rows: rows! {
            "--svg" "FILE", needs "a path" =>
                "write an SVG rendering of the layout to FILE\n(synth)",
                |a, v| put(&mut a.cli.out.svg, Some(v.to_owned()));
            "--describe" "", needs "" => "print the full design document (synth)",
                |a, _| put(&mut a.cli.out.describe, true);
            "--solver-log" "FILE", needs "a path" =>
                "stream MILP branch-and-bound convergence events\n\
                 (incumbents, best bound, optimality gap) to FILE\n\
                 as JSON lines, one object per event",
                |a, v| put(&mut a.cli.out.solver_log, Some(v.to_owned()));
        },
    },
    Section {
        title: "TRACING",
        commands: &["synth", "sweep", "batch", "fault-sweep", "edit", "serve"],
        about: "serve writes both files when it has drained",
        rows: rows! {
            "--trace" "FILE", needs "a path" =>
                "record per-phase spans (ring MILP, shortcuts,\n\
                 audit, evaluation, ...), solver counters and\n\
                 engine gauges for the whole run, then write them\n\
                 to FILE on exit",
                |a, v| put(&mut a.cli.out.trace, Some(v.to_owned()));
            "--trace-format" TraceFormat::NAMES, needs TraceFormat::NAMES =>
                "jsonl: one JSON object per span or gauge plus a\n\
                 final totals line (default); folded: collapsed\n\
                 stacks for flamegraph tooling",
                |a, v| put(&mut a.cli.out.trace_format, v.parse()?);
            "--metrics-out" "FILE", needs "a path" =>
                "write a Prometheus text-format (0.0.4) snapshot\n\
                 of all counters, gauges and latency histograms\n\
                 recorded during the run",
                |a, v| put(&mut a.cli.out.metrics_out, Some(v.to_owned()));
        },
    },
    Section {
        title: "SWEEP",
        commands: &["sweep"],
        about: "",
        rows: rows! {
            "--objective" "il|power|snr", needs "il|power|snr" =>
                "what picks the best point: the least worst-case\n\
                 insertion loss, the least laser power, or the\n\
                 highest worst-case SNR (default power)",
                |a, v| put(&mut a.objective, v.parse()?);
        },
    },
    Section {
        title: "BATCH",
        commands: &["batch"],
        about: "",
        rows: rows! {
            "--wl-list" "A,B,C", needs "A,B,C" =>
                "#wl candidates (default: the sweep's ladder, the\n\
                 powers of two up to --wl and --wl)",
                |a, v| {
                    let wl = |p: &str| match p.parse() {
                        Ok(0) => Err("#wl must be at least 1".to_owned()),
                        Ok(n) => Ok(n),
                        Err(_) => Err(format!("bad #wl {p}")),
                    };
                    put(&mut a.batch.wl_list, list(v, wl)?)
                };
            "--deadline-ms" "N", needs "milliseconds" =>
                "synthesis deadline per job; with --degradation\n\
                 allow an expired deadline degrades instead of\n\
                 failing",
                |a, v| {
                    let options = &mut a.synth.options;
                    options.set_text("deadline", v).map_err(|e| format!("--deadline-ms: {e}"))
                };
            "--repeat" "K", needs "a count" =>
                "submit the candidates K times; repeats hit the\n\
                 design cache (default 1)",
                |a, v| {
                    let k = v.parse().map_err(|_| format!("bad repeat {v}"))?;
                    put(&mut a.batch.repeat, nonzero("--repeat", k)? as usize)
                };
            "--metrics-jsonl" "FILE", needs "a path" =>
                "write engine events to FILE as JSON lines",
                |a, v| put(&mut a.batch.metrics_jsonl, Some(v.to_owned()));
        },
    },
    Section {
        title: "FAULT SWEEP",
        commands: &["fault-sweep"],
        about: "",
        rows: rows! {
            "--levels" "A,B,C", needs "A,B,C" =>
                "spare levels to sweep; per level the engine\n\
                 synthesizes once, audits every enumerated\n\
                 single-fault scenario across the worker pool and\n\
                 prints power, channel count, fault margin and the\n\
                 Pareto frontier over the three (default 0,1)",
                |a, v| {
                    let level = |p: &str| p.parse().map_err(|_| format!("bad spare level {p}"));
                    put(&mut a.levels, list(v, level)?)
                };
        },
    },
    Section {
        title: "INCREMENTAL EDITING",
        commands: &["edit"],
        about: "xring edit synthesizes the spec cold, drops one traffic demand and\n\
                re-synthesizes the edited spec incrementally: the ring and shortcut\n\
                phases are keyed on a content hash of their inputs and replay from\n\
                cached artifacts when unchanged; mapping, opening and PDN always run.\n\
                Prints cold vs. incremental wall time, the phases replayed, and\n\
                whether the incremental design is byte-identical to a cold synthesis\n\
                of the edited spec.",
        rows: rows! {
            "--drop-pair" "I", needs "an index" => "index of the demand pair to drop (default 0)",
                |a, v| put(&mut a.drop_pair, v.parse().map_err(|_| format!("bad pair index {v}"))?);
        },
    },
    Section {
        title: "SERVING",
        commands: &["serve"],
        about: "xring serve runs the synthesis daemon: JSON over HTTP/1.1 on\n\
                127.0.0.1 with POST /synth, POST /batch, GET /metrics (live\n\
                Prometheus text), GET /healthz and POST /shutdown (graceful drain;\n\
                stdin EOF also drains). Observability (see docs/OBSERVABILITY.md):\n\
                every response carries an x-request-id header and JSON request_id\n\
                field; GET /debug/requests, /debug/requests/<id> and /debug/slow\n\
                expose the flight recorder and tail-sampled span traces; /metrics\n\
                exposes SLO burn rates.",
        rows: rows! {
            "--port" "N", needs "a value" =>
                "bind port (default 7878; 0 picks an ephemeral\nport)",
                |a, v| {
                    let port = u16::try_from(number("--port", v)?);
                    put(&mut a.serve.port, port.map_err(|_| "--port must fit in 16 bits")?)
                };
            "--workers" "N", needs "a value" => "engine workers per request (default 2)",
                |a, v| put(&mut a.serve.workers, positive("--workers", v)? as usize);
            "--max-inflight" "N", needs "a value" =>
                "concurrently-processed request cap (default 4);\n\
                 beyond it requests queue",
                |a, v| put(&mut a.serve.max_inflight, positive("--max-inflight", v)? as usize);
            "--queue-depth" "N", needs "a value" =>
                "admission queue slots (default 16; 0 =\n\
                 rendezvous); beyond them requests shed with 429",
                |a, v| put(&mut a.serve.queue_depth, number("--queue-depth", v)? as usize);
            "--deadline-ms" "N", needs "a value" =>
                "default synthesis deadline per request (requests\n\
                 may override); with --degradation allow an\n\
                 expired deadline degrades instead of failing",
                |a, v| {
                    let ms = positive("--deadline-ms", v)?;
                    put(&mut a.serve.deadline, Some(Duration::from_millis(ms)))
                };
            "--cache-bytes" "N", needs "a value" =>
                "shared design-cache byte budget with LRU eviction\n\
                 (default 268435456; 0 = unbounded)",
                |a, v| {
                    let bytes = number("--cache-bytes", v)? as usize;
                    put(&mut a.serve.cache_bytes, Some(bytes).filter(|&n| n > 0))
                };
            "--degradation" "forbid|allow|force-heuristic", needs "a policy" =>
                "default degradation policy for requests (see the\n\
                 synthesis options; default forbid)",
                |a, v| put(&mut a.serve.degradation, v.parse()?);
            "--slo-target-ppm" "N", needs "a value" =>
                "good-request target in parts per million for the\n\
                 availability and latency SLOs (default 990000,\n\
                 i.e. 99%)",
                |a, v| match number("--slo-target-ppm", v)? {
                    ppm @ 1..=999_999 => put(&mut a.serve.slo.target_ppm, ppm as u32),
                    _ => Err("--slo-target-ppm must be in 1..=999999".to_owned()),
                };
            "--slo-latency-ms" "N", needs "a value" =>
                "latency objective: a 2xx answered slower than\n\
                 this counts against the latency SLO and makes the\n\
                 request tail-sampling-worthy (default 1000)",
                |a, v| {
                    let ms = positive("--slo-latency-ms", v)?;
                    put(&mut a.serve.slo.latency_target, Duration::from_millis(ms))
                };
            "--postmortem" "FILE", needs "a path" =>
                "on drain or handler panic, dump the flight\n\
                 recorder and retained traces to FILE as JSONL",
                |a, v| put(&mut a.serve.postmortem, Some(v.into()));
        },
    },
];

/// Writes a section heading naming the commands that take its flags
/// (none: every command), then its prose.
fn write_heading(out: &mut String, title: &str, commands: &[&str], about: &str) {
    let commands = match commands {
        [] => "every command".to_owned(),
        commands => commands.join(", "),
    };
    let _ = writeln!(out, "\n{title} ({commands}):");
    for line in about.lines() {
        let _ = writeln!(out, "  {line}");
    }
}

/// Writes a section: its heading, its prose and its rows.
fn write_section(out: &mut String, section: &Section) {
    write_heading(out, section.title, section.commands, section.about);
    for row in section.rows {
        let usage = format!("{} {}", row.flag, row.value);
        write_help_line(out, usage.trim_end(), row.help);
    }
}

/// The names of `list`, as the help spells a choice of them.
fn names(list: &[Experiment]) -> String {
    let names: Vec<&str> = list.iter().map(|e| e.name).collect();
    names.join("|")
}

const USAGE_HEAD: &str = "\
xring — crosstalk-aware synthesis of optical ring routers (DATE 2023)

USAGE:
  xring [global flags] <command> [flags]
  (a value flag takes the --flag V or the --flag=V form)

COMMANDS:
";

/// The usage text, generated from the command list, the flag rows, the
/// floorplan table ([`FloorplanForm::ALL`]) and the option table
/// ([`SynthesisOptions::flag_help`]).
pub fn usage() -> String {
    let mut out = String::from(USAGE_HEAD);
    for (name, about) in COMMANDS {
        let usage = match name {
            "table" => format!("table {}", names(&TABLES)),
            "ablation" => format!("ablation [{}|all]", names(&ABLATIONS)),
            name => name.to_owned(),
        };
        write_help_line(&mut out, &usage, about);
    }
    write_section(&mut out, &GLOBAL);
    let limits = format!(
        "one form, default --grid 4x4 --pitch 2000; at most {MAX_NODES} nodes,\n\
         |x| and |y| at most {MAX_COORD_UM} um"
    );
    write_heading(&mut out, "FLOORPLAN", SYNTHESIS, &limits);
    for form in FloorplanForm::ALL.iter().filter(|f| !f.flags.is_empty()) {
        let flags: Vec<String> = form.flags.iter().map(|(f, v)| format!("{f} {v}")).collect();
        let help = format!("serve's {}: {}", form.json, form.fields.join(", "));
        write_help_line(&mut out, &flags.join(" "), &help);
    }
    write_heading(&mut out, "SYNTHESIS OPTIONS", SYNTHESIS, "");
    out += &SynthesisOptions::flag_help();
    for section in &SECTIONS {
        write_section(&mut out, section);
    }
    out
}

/// `--flag=V` as `("--flag", Some("V"))`; any other argument as itself.
fn split_flag(arg: &str) -> (&str, Option<&str>) {
    match arg.split_once('=') {
        Some((flag, value)) => (flag, Some(value)),
        None => (arg, None),
    }
}

/// The source of the next argument, for a flag whose value follows it.
type Next<'n, 'a> = &'n mut dyn FnMut() -> Option<&'a str>;

/// Applies each argument to `args` through the row of `sections` that
/// names it: `--flag V`, `--flag=V`, or a bare switch. An argument no row
/// names goes to `other`, which returns `Ok(false)` when it does not know
/// it either.
fn apply_flags<'a>(
    argv: impl IntoIterator<Item = &'a str>,
    sections: &[&Section],
    args: &mut Args,
    mut other: impl FnMut(&mut Args, &'a str, Next<'_, 'a>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = split_flag(arg);
        let mut rows = sections.iter().flat_map(|s| s.rows);
        let row = rows.find(|r| r.flag == flag && (inline.is_none() || !r.value.is_empty()));
        match row {
            Some(row) if row.value.is_empty() => (row.set)(args, "")?,
            Some(row) => match inline.or_else(|| it.next()) {
                Some(value) => (row.set)(args, value)?,
                None => return Err(format!("{flag} needs {}", row.needs)),
            },
            None => {
                if !other(args, arg, &mut || it.next())? {
                    return Err(format!("unknown flag {arg}"));
                }
            }
        }
    }
    Ok(())
}

/// Applies a floorplan flag of the form table ([`FloorplanForm::ALL`]):
/// the parts of its value set its fields of the form, and the form's
/// other fields keep the values given so far ([`DEFAULT_FLOORPLAN`]'s,
/// for `--pitch` alone). A flag of a second form is refused. Returns
/// `Ok(false)` when `arg` is no floorplan flag.
fn apply_floorplan_flag<'a>(
    arg: &'a str,
    next: Next<'_, 'a>,
    out: &mut SynthArgs,
) -> Result<bool, String> {
    let parts = |value: &'a str| value.split(['x', 'X', ',']);
    let (flag, inline) = split_flag(arg);
    // The flag's form, its value's spelling, and the index of the first
    // field it sets: its form's earlier flags set the fields before it.
    let Some((form, spelling, first)) = FloorplanForm::ALL.iter().find_map(|form| {
        let i = form.flags.iter().position(|(f, _)| *f == flag)?;
        let first = form.flags[..i]
            .iter()
            .map(|(_, s)| parts(s).count())
            .sum::<usize>();
        Some((form, form.flags[i].1, first))
    }) else {
        return Ok(false);
    };
    let value = inline
        .or_else(next)
        .ok_or_else(|| format!("{flag} needs {spelling}"))?;
    let given = out.floorplan.as_ref().unwrap_or(&DEFAULT_FLOORPLAN);
    let mut fields = match given.form().json {
        json if json == form.json => given.fields(),
        _ if out.floorplan.is_none() => vec![0; form.fields.len()],
        json => return Err(format!("{flag}: a {json} floorplan is already given")),
    };
    if parts(value).count() != parts(spelling).count() {
        return Err(format!("bad {flag} {value}"));
    }
    for (part, field) in parts(value).zip(first..) {
        let name = form.fields[field];
        fields[field] = part
            .parse()
            .ok()
            .filter(|&v: &i64| v >= 0 || name.ends_with("_um"))
            .ok_or_else(|| format!("bad {name} {part}"))?;
    }
    out.floorplan = Some(Floorplan::from_fields(form.json, &fields));
    Ok(true)
}

/// The entry of `list` called `name`, or the error naming the rest.
fn select<'l>(list: &'l [Experiment], what: &str, name: &str) -> Result<&'l Experiment, String> {
    list.iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown {what} {name}"))
}

/// Parses a full argument vector (excluding argv\[0\]).
///
/// # Errors
///
/// Returns a message describing the first malformed argument.
pub fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut args = Args::default();
    args.cli.command = parse_command(argv, &mut args)?;
    Ok(args.cli)
}

fn parse_command(argv: &[String], args: &mut Args) -> Result<Command, String> {
    // The global flags are valid anywhere: take them out first.
    let mut rest = Vec::with_capacity(argv.len());
    apply_flags(
        argv.iter().map(String::as_str),
        &[&GLOBAL],
        args,
        |_, arg, _| {
            rest.push(arg);
            Ok(true)
        },
    )?;
    let mut rest = rest.into_iter();
    let name = match rest.next() {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some("table") => {
            let names: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
            let (last, init) = names.split_last().expect("tables");
            let which = rest
                .next()
                .ok_or_else(|| format!("table needs a number ({} or {last})", init.join(", ")))?;
            return Ok(Command::Table(select(&TABLES, "table", which)?));
        }
        Some("ablation") => {
            return Ok(Command::Ablation(match rest.next().unwrap_or("all") {
                "all" => &ABLATIONS,
                which => std::slice::from_ref(select(&ABLATIONS, "ablation", which)?),
            }));
        }
        Some(name) if COMMANDS.iter().any(|(c, _)| *c == name) => name,
        Some(other) => return Err(format!("unknown command {other}")),
    };
    let sections: Vec<&Section> = SECTIONS
        .iter()
        .filter(|s| s.commands.contains(&name))
        .collect();
    let synthesis = SYNTHESIS.contains(&name);
    apply_flags(rest, &sections, args, |args, arg, next| {
        if !synthesis {
            return Ok(false);
        }
        // Synth is sweep without the objective: say which command takes it.
        if name == "synth" && arg == "--objective" {
            return Err("--objective only applies to the sweep command".into());
        }
        if apply_floorplan_flag(arg, &mut *next, &mut args.synth)? {
            return Ok(true);
        }
        match args.synth.options.apply_flag(arg, next) {
            None => Ok(false),
            Some(applied) => applied.map(|()| true),
        }
    })?;
    let synth = std::mem::take(&mut args.synth);
    Ok(match name {
        "synth" => Command::Synth(synth),
        "sweep" => Command::Sweep(synth, args.objective),
        "batch" => Command::Batch(synth, args.batch.clone()),
        "fault-sweep" => Command::FaultSweep(synth, std::mem::take(&mut args.levels)),
        "edit" => Command::Edit(synth, args.drop_pair),
        "serve" => Command::Serve(args.serve.clone()),
        other => unreachable!("{other} is no command with flags"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xring_core::{
        DegradationPolicy, FactorizationKind, LpBackendKind, PricingKind, RingAlgorithm,
        SpareConfig,
    };
    use xring_geom::Point;
    use xring_serve::SloConfig;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn cmd(args: &[&str]) -> Command {
        parse(&v(args)).expect("parses").command
    }

    fn grid(rows: usize, cols: usize, pitch_um: i64) -> Floorplan {
        Floorplan::Grid {
            rows,
            cols,
            pitch_um,
        }
    }

    fn irregular(n: usize, seed: u64, die_um: i64) -> Floorplan {
        Floorplan::Irregular { n, seed, die_um }
    }

    /// A value of `spelling` that parses: each part of a list or a size
    /// is `2`, and a choice is each of its names.
    fn samples(spelling: &str) -> Vec<String> {
        if spelling.contains('|') {
            return spelling.split('|').map(str::to_owned).collect();
        }
        let part = |p: &str| {
            p.split(['x', 'X'])
                .map(|_| "2")
                .collect::<Vec<_>>()
                .join("x")
        };
        vec![spelling.split(',').map(part).collect::<Vec<_>>().join(",")]
    }

    /// The command line of `command` with `flags`; a table needs its
    /// number.
    fn line(command: &str, flags: &[&str]) -> Vec<String> {
        let mut line = v(&[command]);
        if command == "table" {
            line.push("1".into());
        }
        line.extend(v(flags));
        line
    }

    /// The sections of the help text: the commands its heading names,
    /// and its lines.
    fn help_sections(text: &str) -> Vec<(Vec<&str>, Vec<&str>)> {
        let mut sections: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
        for l in text.lines() {
            let heading = l.strip_suffix("):").and_then(|h| h.split_once(" ("));
            match heading.filter(|_| !l.starts_with(' ')) {
                Some((_, "every command")) => {
                    sections.push((COMMANDS.iter().map(|(c, _)| *c).collect(), Vec::new()));
                }
                Some((_, list)) => sections.push((list.split(", ").collect(), Vec::new())),
                None => {
                    if let Some((_, lines)) = sections.last_mut() {
                        lines.push(l);
                    }
                }
            }
        }
        sections
    }

    #[test]
    fn help_and_parser_agree() {
        let text = usage();
        assert!(text.lines().all(|l| l.chars().count() <= 80), "{text}");
        let sections = help_sections(&text);
        // Every flag the help names anywhere in a section is one the
        // section's commands take.
        for (commands, lines) in &sections {
            let words = lines
                .iter()
                .flat_map(|l| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')));
            for flag in words.filter(|w| w.len() > 2 && w.starts_with("--")) {
                for command in commands {
                    if let Err(e) = parse(&line(command, &[flag])) {
                        assert!(!e.starts_with("unknown flag"), "{command} {flag}: {e}");
                    }
                }
            }
        }
        for (command, _) in COMMANDS {
            let own: Vec<&str> = sections
                .iter()
                .filter(|(commands, _)| commands.contains(&command))
                .flat_map(|(_, lines)| lines.iter().copied())
                .collect();
            // A gutter entry of the command's sections starts with `usage`.
            let listed = |usage: &str| {
                let usage = format!("  {usage}");
                own.iter().any(|l| {
                    l.strip_prefix(&usage)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
                })
            };
            let sections = SECTIONS.iter().filter(|s| s.commands.contains(&command));
            for row in GLOBAL.rows.iter().chain(sections.flat_map(|s| s.rows)) {
                let usage = format!("{} {}", row.flag, row.value);
                assert!(
                    listed(usage.trim_end()),
                    "{command}: {usage} missing from the help"
                );
                if row.value.is_empty() {
                    assert!(
                        parse(&line(command, &[row.flag])).is_ok(),
                        "{command} {}",
                        row.flag
                    );
                    continue;
                }
                let missing = parse(&line(command, &[row.flag])).expect_err(row.flag);
                assert_eq!(missing, format!("{} needs {}", row.flag, row.needs));
                for value in samples(row.value) {
                    let spaced = parse(&line(command, &[row.flag, &value]));
                    let joined = parse(&line(command, &[&format!("{}={value}", row.flag)]));
                    assert!(spaced.is_ok(), "{command} {} {value}: {spaced:?}", row.flag);
                    assert_eq!(spaced, joined, "{command} {}", row.flag);
                }
            }
            if !SYNTHESIS.contains(&command) {
                continue;
            }
            for flag in SynthesisOptions::FIELDS
                .iter()
                .filter_map(|f| f.flag.name())
            {
                assert!(
                    own.iter().any(|l| l.contains(flag)),
                    "{command}: {flag} missing"
                );
            }
            for (flag, spelling) in FloorplanForm::ALL.iter().flat_map(|f| f.flags) {
                assert!(
                    own.iter().any(|l| l.contains(flag)),
                    "{command}: {flag} missing"
                );
                let value = &samples(spelling)[0];
                let spaced = parse(&line(command, &[flag, value]));
                let joined = parse(&line(command, &[&format!("{flag}={value}")]));
                assert!(spaced.is_ok(), "{command} {flag} {value}: {spaced:?}");
                assert_eq!(spaced, joined, "{command} {flag}");
            }
        }
    }

    #[test]
    fn selectors_have_one_name_list() {
        let objective = &SECTIONS
            .iter()
            .find(|s| s.title == "SWEEP")
            .expect("sweep")
            .rows[0];
        let names: Vec<&str> = SweepObjective::ALL.iter().map(|o| o.as_str()).collect();
        assert_eq!(objective.value, names.join("|"));
        for o in SweepObjective::ALL {
            assert_eq!(
                cmd(&["sweep", "--objective", o.as_str()]),
                Command::Sweep(SynthArgs::default(), o)
            );
        }
        for table in &TABLES {
            assert_eq!(cmd(&["table", table.name]), Command::Table(table));
        }
        for ablation in &ABLATIONS {
            let Command::Ablation(run) = cmd(&["ablation", ablation.name]) else {
                panic!("not ablation")
            };
            assert_eq!(run, std::slice::from_ref(ablation));
        }
        assert_eq!(
            parse(&v(&["table"])).unwrap_err(),
            "table needs a number (1, 2 or 3)"
        );
    }

    #[test]
    fn batch_deadline_is_the_option_row() {
        let err = parse(&v(&["batch", "--deadline-ms", "0"])).unwrap_err();
        assert_eq!(err, "--deadline-ms: must be at least 1");
        let Command::Batch(a, _) = cmd(&["batch", "--deadline-ms=250"]) else {
            panic!("not batch")
        };
        assert_eq!(a.options.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(cmd(&[]), Command::Help);
        assert_eq!(cmd(&["--help"]), Command::Help);
    }

    #[test]
    fn table_parsing() {
        assert_eq!(cmd(&["table", "2"]), Command::Table(&TABLES[1]));
        assert!(parse(&v(&["table", "9"])).is_err());
        assert!(parse(&v(&["table"])).is_err());
    }

    #[test]
    fn ablation_defaults_to_all() {
        assert_eq!(cmd(&["ablation"]), Command::Ablation(&ABLATIONS));
        assert!(parse(&v(&["ablation", "bogus"])).is_err());
    }

    #[test]
    fn jobs_flag_is_global() {
        let cli = parse(&v(&["--jobs", "4", "table", "1"])).expect("parses");
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.command, Command::Table(&TABLES[0]));
        // Anywhere in the vector, including after the subcommand.
        let cli = parse(&v(&["sweep", "--jobs", "2", "--wl", "8"])).expect("parses");
        assert_eq!(cli.jobs, Some(2));
        let Command::Sweep(a, _) = cli.command else {
            panic!("not sweep")
        };
        assert_eq!(a.options.max_wavelengths, 8);
        assert_eq!(parse(&v(&["table", "1"])).expect("parses").jobs, None);
    }

    #[test]
    fn log_flags_are_global() {
        let cli = parse(&v(&["--log-level", "debug", "table", "1"])).expect("parses");
        assert_eq!(cli.log_level, Some(xring_obs::log::Level::Debug));
        assert_eq!(cli.command, Command::Table(&TABLES[0]));
        // Anywhere in the vector, including after the subcommand.
        let cli = parse(&v(&["serve", "--log-out", "d.log", "--port", "0"])).expect("parses");
        assert_eq!(cli.log_out.as_deref(), Some("d.log"));
        let cli = parse(&v(&["table", "1"])).expect("parses");
        assert_eq!((cli.log_level, cli.log_out), (None, None));
        assert!(parse(&v(&["--log-level", "verbose", "table", "1"])).is_err());
        assert!(parse(&v(&["table", "1", "--log-out"])).is_err());
    }

    #[test]
    fn serve_slo_and_postmortem_flags() {
        let Command::Serve(a) = cmd(&[
            "serve",
            "--slo-target-ppm",
            "999000",
            "--slo-latency-ms",
            "250",
            "--postmortem",
            "pm.jsonl",
        ]) else {
            panic!("not serve")
        };
        assert_eq!(a.slo.target_ppm, 999_000);
        assert_eq!(a.slo.latency_target, Duration::from_millis(250));
        assert_eq!(a.postmortem, Some("pm.jsonl".into()));
        // Defaults and rejects.
        let Command::Serve(a) = cmd(&["serve"]) else {
            panic!("not serve")
        };
        assert_eq!((a.slo, a.postmortem), (SloConfig::default(), None));
        assert!(parse(&v(&["serve", "--slo-target-ppm", "0"])).is_err());
        assert!(parse(&v(&["serve", "--slo-target-ppm", "1000000"])).is_err());
        assert!(parse(&v(&["serve", "--slo-latency-ms", "0"])).is_err());
        assert!(parse(&v(&["serve", "--postmortem"])).is_err());
    }

    #[test]
    fn bad_jobs_values_are_rejected() {
        assert!(parse(&v(&["--jobs", "0", "table", "1"])).is_err());
        assert!(parse(&v(&["--jobs", "zero", "table", "1"])).is_err());
        assert!(parse(&v(&["table", "1", "--jobs"])).is_err());
    }

    #[test]
    fn serve_defaults_and_full_flags() {
        let Command::Serve(a) = cmd(&["serve"]) else {
            panic!("not serve")
        };
        let cli_default = ServeConfig {
            port: 7878,
            ..ServeConfig::default()
        };
        assert_eq!(a, cli_default);
        assert_eq!(a.port, 7878);
        assert_eq!(a.cache_bytes, Some(256 << 20));

        let cli = parse(&v(&[
            "serve",
            "--port",
            "0",
            "--workers",
            "3",
            "--max-inflight",
            "8",
            "--queue-depth",
            "0",
            "--deadline-ms",
            "250",
            "--cache-bytes",
            "1048576",
            "--degradation",
            "allow",
            "--trace",
            "t.jsonl",
            "--metrics-out",
            "m.prom",
        ]))
        .expect("parses");
        let Command::Serve(a) = cli.command else {
            panic!("not serve")
        };
        assert_eq!(
            (a.port, a.workers, a.max_inflight, a.queue_depth),
            (0, 3, 8, 0)
        );
        assert_eq!(a.deadline, Some(Duration::from_millis(250)));
        assert_eq!(a.cache_bytes, Some(1_048_576));
        assert_eq!(a.degradation, DegradationPolicy::Allow);
        assert_eq!(cli.out.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(cli.out.metrics_out.as_deref(), Some("m.prom"));
    }

    #[test]
    fn serve_rejects_bad_values() {
        assert!(parse(&v(&["serve", "--workers", "0"])).is_err());
        assert!(parse(&v(&["serve", "--max-inflight", "0"])).is_err());
        assert!(parse(&v(&["serve", "--deadline-ms", "0"])).is_err());
        assert!(parse(&v(&["serve", "--port", "65536"])).is_err());
        assert!(parse(&v(&["serve", "--degradation", "never"])).is_err());
        assert!(parse(&v(&["serve", "--wl", "8"])).is_err());
        assert!(parse(&v(&["serve", "--cache-bytes"])).is_err());
    }

    #[test]
    fn synth_full_flags() {
        let cli = parse(&v(&[
            "synth",
            "--grid",
            "4x8",
            "--pitch",
            "2500",
            "--wl",
            "20",
            "--ring",
            "heuristic",
            "--no-pdn",
            "--svg",
            "out.svg",
        ]))
        .expect("parses");
        let Command::Synth(a) = cli.command else {
            panic!("not synth")
        };
        assert_eq!(a.floorplan, Some(grid(4, 8, 2_500)));
        assert_eq!(a.options.max_wavelengths, 20);
        assert_eq!(a.options.ring_algorithm, RingAlgorithm::Heuristic);
        assert!(!a.options.pdn && a.options.shortcuts && a.options.openings);
        assert_eq!(cli.out.svg.as_deref(), Some("out.svg"));
    }

    #[test]
    fn synth_irregular() {
        let Command::Synth(a) = cmd(&["synth", "--irregular", "12,42,10000"]) else {
            panic!("not synth")
        };
        assert_eq!(a.floorplan, Some(irregular(12, 42, 10_000)));
    }

    #[test]
    fn batch_full_flags() {
        let c = cmd(&[
            "batch",
            "--grid",
            "2x4",
            "--pitch",
            "1500",
            "--wl-list",
            "2,4,8",
            "--deadline-ms",
            "250",
            "--repeat",
            "3",
            "--metrics-jsonl",
            "events.jsonl",
        ]);
        let Command::Batch(a, b) = c else {
            panic!("not batch")
        };
        assert_eq!(a.floorplan, Some(grid(2, 4, 1_500)));
        assert_eq!(b.wl_list, vec![2, 4, 8]);
        assert_eq!(a.options.deadline, Some(Duration::from_millis(250)));
        assert_eq!(b.repeat, 3);
        assert_eq!(b.metrics_jsonl.as_deref(), Some("events.jsonl"));
    }

    #[test]
    fn batch_defaults() {
        let Command::Batch(a, b) = cmd(&["batch"]) else {
            panic!("not batch")
        };
        assert!(b.wl_list.is_empty());
        assert_eq!(b.repeat, 1);
        assert_eq!(a.options.deadline, None);
        assert_eq!(b.metrics_jsonl, None);
    }

    #[test]
    fn batch_rejects_bad_values() {
        assert!(parse(&v(&["batch", "--wl-list", "2,zero"])).is_err());
        assert!(parse(&v(&["batch", "--wl-list", "0"])).is_err());
        assert!(parse(&v(&["batch", "--repeat", "0"])).is_err());
        assert!(parse(&v(&["batch", "--deadline-ms", "soon"])).is_err());
        assert!(parse(&v(&["batch", "--objective", "snr"])).is_err());
    }

    #[test]
    fn objective_rejected_on_synth() {
        assert!(parse(&v(&["synth", "--objective", "snr"])).is_err());
    }

    #[test]
    fn degradation_flag_both_forms() {
        let Command::Synth(a) = cmd(&["synth", "--degradation", "allow"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.degradation, DegradationPolicy::Allow);
        let Command::Synth(a) = cmd(&["synth", "--degradation=force-heuristic"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.degradation, DegradationPolicy::ForceHeuristic);
        let Command::Batch(a, _) = cmd(&["batch", "--degradation=allow"]) else {
            panic!("not batch")
        };
        assert_eq!(a.options.degradation, DegradationPolicy::Allow);
        // Default and rejects.
        let Command::Synth(a) = cmd(&["synth"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.degradation, DegradationPolicy::Forbid);
        assert!(parse(&v(&["synth", "--degradation", "sometimes"])).is_err());
        assert!(parse(&v(&["synth", "--degradation=bogus"])).is_err());
        assert!(parse(&v(&["synth", "--degradation"])).is_err());
    }

    #[test]
    fn lp_backend_flag_both_forms() {
        let Command::Synth(a) = cmd(&["synth", "--lp-backend", "dense"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.lp_backend, LpBackendKind::Dense);
        let Command::Synth(a) = cmd(&["synth", "--lp-backend=revised"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.lp_backend, LpBackendKind::Revised);
        let Command::Batch(a, _) = cmd(&["batch", "--lp-backend=dense"]) else {
            panic!("not batch")
        };
        assert_eq!(a.options.lp_backend, LpBackendKind::Dense);
        // Default and rejects.
        let Command::Synth(a) = cmd(&["synth"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.lp_backend, LpBackendKind::Revised);
        assert!(parse(&v(&["synth", "--lp-backend", "tableau"])).is_err());
        assert!(parse(&v(&["synth", "--lp-backend=bogus"])).is_err());
        assert!(parse(&v(&["synth", "--lp-backend"])).is_err());
    }

    #[test]
    fn solver_threads_flag_both_forms() {
        let Command::Synth(a) = cmd(&["synth", "--solver-threads", "4"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.solver_threads, 4);
        let Command::Synth(a) = cmd(&["synth", "--solver-threads=8"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.solver_threads, 8);
        // Default and rejects.
        let Command::Synth(a) = cmd(&["synth"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.solver_threads, 1);
        assert!(parse(&v(&["synth", "--solver-threads", "0"])).is_err());
        assert!(parse(&v(&["synth", "--solver-threads=nope"])).is_err());
        assert!(parse(&v(&["synth", "--solver-threads"])).is_err());
    }

    #[test]
    fn pricing_flag_both_forms() {
        let Command::Synth(a) = cmd(&["synth", "--pricing", "devex"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.pricing, PricingKind::Devex);
        let Command::Synth(a) = cmd(&["synth", "--pricing=partial"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.pricing, PricingKind::Partial);
        let Command::Synth(a) = cmd(&["synth"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.pricing, PricingKind::Dantzig);
        assert!(parse(&v(&["synth", "--pricing", "steepest"])).is_err());
        assert!(parse(&v(&["synth", "--pricing"])).is_err());
    }

    #[test]
    fn factorization_flag_both_forms() {
        let Command::Synth(a) = cmd(&["synth", "--factorization", "dense-eta"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.factorization, FactorizationKind::DenseEta);
        let Command::Synth(a) = cmd(&["synth", "--factorization=sparse-lu"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.factorization, FactorizationKind::SparseLu);
        let Command::Synth(a) = cmd(&["synth"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.factorization, FactorizationKind::SparseLu);
        assert!(parse(&v(&["synth", "--factorization", "qr"])).is_err());
        assert!(parse(&v(&["synth", "--factorization"])).is_err());
    }

    fn out(args: &[&str]) -> Outputs {
        parse(&v(args)).expect("parses").out
    }

    #[test]
    fn trace_flags_parse_on_every_synthesis_command() {
        let o = out(&["synth", "--trace", "out.jsonl"]);
        assert_eq!(o.trace.as_deref(), Some("out.jsonl"));
        assert_eq!(o.trace_format, TraceFormat::Jsonl); // default
        let o = out(&["sweep", "--trace", "t.folded", "--trace-format", "folded"]);
        assert_eq!(o.trace.as_deref(), Some("t.folded"));
        assert_eq!(o.trace_format, TraceFormat::Folded);
        let o = out(&["batch", "--trace", "b.jsonl", "--trace-format", "jsonl"]);
        assert_eq!(o.trace.as_deref(), Some("b.jsonl"));
        assert_eq!(o.trace_format, TraceFormat::Jsonl);
    }

    #[test]
    fn telemetry_flags_parse_on_every_synthesis_command() {
        let o = out(&["synth", "--solver-log", "conv.jsonl"]);
        assert_eq!(o.solver_log.as_deref(), Some("conv.jsonl"));
        assert_eq!(o.metrics_out, None);
        let o = out(&["sweep", "--metrics-out", "metrics.prom"]);
        assert_eq!(o.metrics_out.as_deref(), Some("metrics.prom"));
        let o = out(&[
            "batch",
            "--solver-log",
            "c.jsonl",
            "--metrics-out",
            "m.prom",
        ]);
        assert_eq!(o.solver_log.as_deref(), Some("c.jsonl"));
        assert_eq!(o.metrics_out.as_deref(), Some("m.prom"));
        assert!(parse(&v(&["synth", "--solver-log"])).is_err());
        assert!(parse(&v(&["sweep", "--metrics-out"])).is_err());
    }

    #[test]
    fn bad_trace_flags_are_rejected() {
        assert!(parse(&v(&["synth", "--trace"])).is_err());
        assert!(parse(&v(&["synth", "--trace-format"])).is_err());
        assert!(parse(&v(&["synth", "--trace-format", "xml"])).is_err());
        let err = parse(&v(&["sweep", "--trace-format", "protobuf"])).unwrap_err();
        assert!(err.contains("jsonl|folded"), "{err}");
    }

    #[test]
    fn zero_wavelengths_rejected() {
        assert!(parse(&v(&["synth", "--wl", "0"])).is_err());
        assert!(parse(&v(&["sweep", "--wl", "0"])).is_err());
        assert!(parse(&v(&["batch", "--wl", "0"])).is_err());
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(parse(&v(&["synth", "--grid", "4y8"])).is_err());
        assert!(parse(&v(&["synth", "--wl"])).is_err());
        assert!(parse(&v(&["synth", "--bogus"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn spares_flag_parses_on_every_synthesis_command() {
        let Command::Synth(a) = cmd(&["synth", "--spares", "1"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.spares, SpareConfig::uniform(1));
        let Command::Sweep(a, _) = cmd(&["sweep", "--spares", "2"]) else {
            panic!("not sweep")
        };
        assert_eq!(a.options.spares, SpareConfig::uniform(2));
        let Command::Batch(a, _) = cmd(&["batch", "--spares", "1"]) else {
            panic!("not batch")
        };
        assert_eq!(a.options.spares, SpareConfig::uniform(1));
        // Default and rejects.
        let Command::Synth(a) = cmd(&["synth"]) else {
            panic!("not synth")
        };
        assert_eq!(a.options.spares, SpareConfig::uniform(0));
        assert!(parse(&v(&["synth", "--spares"])).is_err());
        assert!(parse(&v(&["synth", "--spares", "many"])).is_err());
    }

    #[test]
    fn edit_defaults_and_flags() {
        let Command::Edit(a, drop_pair) = cmd(&["edit"]) else {
            panic!("not edit")
        };
        assert_eq!(a, SynthArgs::default());
        assert_eq!(drop_pair, 0);
        let Command::Edit(a, drop_pair) = cmd(&[
            "edit",
            "--irregular",
            "16,5,8000",
            "--wl",
            "8",
            "--drop-pair",
            "3",
        ]) else {
            panic!("not edit")
        };
        assert_eq!(a.floorplan, Some(irregular(16, 5, 8_000)));
        assert_eq!(a.options.max_wavelengths, 8);
        assert_eq!(drop_pair, 3);
        assert!(parse(&v(&["edit", "--drop-pair"])).is_err());
        assert!(parse(&v(&["edit", "--drop-pair", "first"])).is_err());
        assert!(parse(&v(&["edit", "--objective", "snr"])).is_err());
    }

    #[test]
    fn fault_sweep_defaults_and_levels() {
        let Command::FaultSweep(a, levels) = cmd(&["fault-sweep"]) else {
            panic!("not fault-sweep")
        };
        assert_eq!(a, SynthArgs::default());
        assert_eq!(levels, vec![0, 1]);
        let Command::FaultSweep(a, levels) = cmd(&[
            "fault-sweep",
            "--grid",
            "2x4",
            "--wl",
            "8",
            "--levels",
            "0,1,2",
        ]) else {
            panic!("not fault-sweep")
        };
        assert_eq!(a.floorplan, Some(grid(2, 4, 2_000)));
        assert_eq!(a.options.max_wavelengths, 8);
        assert_eq!(levels, vec![0, 1, 2]);
        assert!(parse(&v(&["fault-sweep", "--levels"])).is_err());
        assert!(parse(&v(&["fault-sweep", "--levels", "one"])).is_err());
        assert!(parse(&v(&["fault-sweep", "--objective", "snr"])).is_err());
    }

    #[test]
    fn sweep_parses_objective() {
        let c = cmd(&["sweep", "--grid", "4x4", "--objective", "snr"]);
        let Command::Sweep(a, obj) = c else {
            panic!("not sweep")
        };
        assert_eq!(a.floorplan, Some(grid(4, 4, 2_000)));
        assert_eq!(obj, SweepObjective::MaxSnr);
        assert!(parse(&v(&["sweep", "--objective", "bogus"])).is_err());
    }

    /// A request body giving `floorplan` in its form of the table.
    fn request_of(floorplan: &Floorplan) -> String {
        let form = floorplan.form();
        let body = match floorplan {
            Floorplan::Named(name) => format!("\"{name}\""),
            Floorplan::Positions(points) => {
                let points: Vec<String> = points
                    .iter()
                    .map(|p| format!("[{}, {}]", p.x, p.y))
                    .collect();
                format!("[{}]", points.join(", "))
            }
            _ => {
                let fields = form.fields.iter().zip(floorplan.fields());
                let fields: Vec<String> = fields.map(|(f, v)| format!("\"{f}\": {v}")).collect();
                format!("{{{}}}", fields.join(", "))
            }
        };
        format!("{{\"net\": {{\"{}\": {body}}}}}", form.json)
    }

    /// The `synth` command line giving `floorplan` through its form's
    /// flags, each value's parts joined by the separator of its spelling.
    fn command_line_of(floorplan: &Floorplan) -> Vec<String> {
        let mut args = vec!["synth".to_owned()];
        let mut values = floorplan.fields().into_iter().map(|v| v.to_string());
        for (flag, spelling) in floorplan.form().flags {
            let sep = spelling.chars().find(|c| "x,".contains(*c)).unwrap_or(',');
            let n = spelling.split(sep).count();
            let value: Vec<String> = values.by_ref().take(n).collect();
            args.extend([flag.to_string(), value.join(&sep.to_string())]);
        }
        args
    }

    #[test]
    fn floorplan_limits_refuse_alike_on_the_command_line_and_in_a_request() {
        let beyond = MAX_COORD_UM + 1;
        for form in FloorplanForm::ALL {
            // (floorplan, serve's error code): per form, one with too
            // many nodes and one with a coordinate out of range; a name
            // can only be unknown.
            let cases = match form.json {
                "named" => vec![(Floorplan::Named("andromeda_64".into()), "unknown_network")],
                "grid" => vec![
                    (grid(2_147_483_648, 2_147_483_648, 1), "network_too_large"),
                    (grid(4, 4, 4_000_000_000_000_000_000), "network_too_large"),
                    (grid(2, 2, beyond), "network_too_large"),
                ],
                "positions" => vec![
                    (
                        Floorplan::Positions(
                            (0..=MAX_NODES as i64).map(|x| Point::new(x, 0)).collect(),
                        ),
                        "network_too_large",
                    ),
                    (
                        Floorplan::Positions(vec![
                            Point::new(0, 0),
                            Point::new(0, 1),
                            Point::new(beyond, 0),
                        ]),
                        "network_too_large",
                    ),
                ],
                "irregular" => vec![
                    (irregular(100_000, 1, 100_000_000), "network_too_large"),
                    (irregular(16, 1, beyond + 100), "network_too_large"),
                ],
                other => panic!("no rejection cases for the {other} form"),
            };
            for (floorplan, code) in cases {
                let expected = floorplan.clone().build().expect_err("refused");
                let request = request_of(&floorplan);
                let refused = xring_serve::protocol::parse_synth(&request, &Default::default(), 0)
                    .expect_err(&request);
                assert_eq!(
                    (refused.status, refused.code, refused.message),
                    (422, code, expected.to_string()),
                    "{request}"
                );
                if form.flags.is_empty() {
                    continue;
                }
                let line = command_line_of(&floorplan);
                let Command::Synth(a) = parse(&line).expect("parses").command else {
                    panic!("not synth")
                };
                assert_eq!(a.floorplan.as_ref(), Some(&floorplan), "{line:?}");
                assert_eq!(a.network().expect_err("refused"), expected, "{line:?}");
            }
        }
        let Command::Synth(a) = cmd(&["synth", "--grid", "16x16", "--ring", "heuristic"]) else {
            panic!("not synth")
        };
        assert_eq!(a.network().map(|net| net.len()), Ok(256));
    }

    #[test]
    fn a_second_floorplan_form_is_refused() {
        assert!(parse(&v(&["synth", "--grid", "4x4", "--irregular", "16,5,8000"])).is_err());
        assert!(parse(&v(&["synth", "--irregular", "16,5,8000", "--pitch", "100"])).is_err());
        let Command::Synth(a) = cmd(&["synth", "--pitch", "1500", "--grid", "2X4"]) else {
            panic!("not synth")
        };
        assert_eq!(a.floorplan, Some(grid(2, 4, 1_500)));
        assert!(parse(&v(&["synth", "--grid", "-2x4"])).is_err());
        assert!(parse(&v(&["synth", "--irregular", "16,5"])).is_err());
    }

    #[test]
    fn sweep_defaults_to_power_objective() {
        let Command::Sweep(_, obj) = cmd(&["sweep"]) else {
            panic!("not sweep")
        };
        assert_eq!(obj, SweepObjective::MinPower);
    }
}
