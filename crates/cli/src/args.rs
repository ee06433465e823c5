//! A small, dependency-free argument parser for the `xring` CLI.

use std::fmt::{self, Write as _};

use xring_core::{
    DegradationPolicy, Floorplan, FloorplanForm, NetworkSpec, SynthesisError, SynthesisOptions,
    MAX_COORD_UM, MAX_NODES,
};
use xring_obs::TraceFormat;

/// A fully parsed command line: the global flags plus the subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// `--jobs N`: engine worker count (default: one per core).
    pub jobs: Option<usize>,
    /// `--log-level error|warn|info|debug`: structured-log threshold
    /// (default info).
    pub log_level: Option<xring_obs::log::Level>,
    /// `--log-out FILE`: write structured JSONL logs here instead of
    /// stderr.
    pub log_out: Option<String>,
    /// The subcommand.
    pub command: Command,
}

/// Parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `xring synth ...`
    Synth(SynthArgs),
    /// `xring sweep ...` — like synth but sweeping `#wl` and printing
    /// every point. The objective is "il", "power" or "snr".
    Sweep(SynthArgs, String),
    /// `xring batch ...` — run a whole batch of synthesis jobs on the
    /// engine, with per-job deadlines and metrics.
    Batch(BatchArgs),
    /// `xring fault-sweep ...` — synthesize the network at several spare
    /// levels, audit every single-device-fault scenario per level and
    /// print the Pareto report (power × wavelengths × fault margin).
    FaultSweep(SynthArgs, Vec<usize>),
    /// `xring edit ...` — synthesize a base spec cold, drop one traffic
    /// demand, and re-synthesize incrementally; prints cold vs.
    /// incremental wall time and the number of phases replayed from
    /// cached artifacts. The payload is the demand-pair index to drop.
    Edit(SynthArgs, usize),
    /// `xring serve ...` — run the synthesis daemon until it is told to
    /// shut down (POST /shutdown or stdin EOF).
    Serve(ServeArgs),
    /// `xring table <1|2|3>`
    Table(u8),
    /// `xring ablation <shortcuts|pdn|ring|all>`
    Ablation(String),
    /// `xring help` / `--help`
    Help,
}

/// Options of the `synth` subcommand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthArgs {
    /// The floorplan its flags gave ([`FloorplanForm::flags`]); `None`:
    /// [`DEFAULT_FLOORPLAN`].
    pub floorplan: Option<Floorplan>,
    /// The synthesis options, set through the option table's flags
    /// ([`SynthesisOptions::apply_flag`]).
    pub options: SynthesisOptions,
    /// Write an SVG rendering here.
    pub svg: Option<String>,
    /// Print the full design document.
    pub describe: bool,
    /// `--trace FILE`: write a phase-level trace of the whole run here.
    pub trace: Option<String>,
    /// `--trace-format jsonl|folded`: how to serialize the trace.
    pub trace_format: TraceFormat,
    /// `--solver-log FILE`: stream MILP convergence events (incumbents,
    /// bounds, gaps) as JSON lines here.
    pub solver_log: Option<String>,
    /// `--metrics-out FILE`: write a Prometheus text-format metrics
    /// snapshot of the whole run here.
    pub metrics_out: Option<String>,
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

/// Options of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// `--port N`: port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// `--workers N`: engine workers per request (parallelism within a
    /// `/batch`).
    pub workers: usize,
    /// `--max-inflight N`: concurrently-processed request cap.
    pub max_inflight: usize,
    /// `--queue-depth N`: admission queue slots (0 = rendezvous).
    pub queue_depth: usize,
    /// `--deadline-ms N`: default per-request synthesis deadline.
    pub deadline_ms: Option<u64>,
    /// `--cache-bytes N`: design-cache byte budget (0 = unbounded).
    pub cache_bytes: u64,
    /// `--degradation`: default degradation policy for requests.
    pub degradation: DegradationPolicy,
    /// `--trace FILE`: write the daemon's trace here after shutdown.
    pub trace: Option<String>,
    /// `--trace-format jsonl|folded`.
    pub trace_format: TraceFormat,
    /// `--metrics-out FILE`: write a final Prometheus snapshot here
    /// after shutdown (the live `GET /metrics` needs no flag).
    pub metrics_out: Option<String>,
    /// `--slo-target-ppm N`: availability/latency SLO target in parts
    /// per million of good requests (default 990000 = 99%).
    pub slo_target_ppm: Option<u32>,
    /// `--slo-latency-ms N`: latency objective — a 2xx response slower
    /// than this is an SLO-bad request (default 1000).
    pub slo_latency_ms: Option<u64>,
    /// `--postmortem FILE`: dump the flight recorder and retained tail
    /// traces here on drain and on a handler panic.
    pub postmortem: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            port: 7878,
            workers: 2,
            max_inflight: 4,
            queue_depth: 16,
            deadline_ms: None,
            cache_bytes: 256 << 20,
            degradation: DegradationPolicy::Forbid,
            trace: None,
            trace_format: TraceFormat::default(),
            metrics_out: None,
            slo_target_ppm: None,
            slo_latency_ms: None,
            postmortem: None,
        }
    }
}

/// Options of the `batch` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchArgs {
    /// The shared network/pipeline flags.
    pub synth: SynthArgs,
    /// `--wl-list a,b,c`: explicit `#wl` candidates (default: the sweep's
    /// power-of-two ladder up to `--wl`).
    pub wl_list: Vec<usize>,
    /// `--deadline-ms N`: per-job synthesis deadline.
    pub deadline_ms: Option<u64>,
    /// `--repeat K`: submit the candidate list K times (repeats hit the
    /// design cache).
    pub repeat: usize,
    /// `--metrics-jsonl FILE`: write engine events as JSON lines.
    pub metrics_jsonl: Option<String>,
}

impl Default for BatchArgs {
    fn default() -> Self {
        BatchArgs {
            synth: SynthArgs::default(),
            wl_list: Vec::new(),
            deadline_ms: None,
            repeat: 1,
            metrics_jsonl: None,
        }
    }
}

/// Errors from argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// The usage text; its floorplan section is generated from the floorplan
/// table ([`FloorplanForm::ALL`]) and its synthesis-option section from
/// the option table ([`SynthesisOptions::flag_help`]).
pub fn usage() -> String {
    let mut floorplan = String::new();
    for form in FloorplanForm::ALL.iter().filter(|f| !f.flags.is_empty()) {
        let flags: Vec<String> = form.flags.iter().map(|(f, v)| format!("{f} {v}")).collect();
        let (flags, fields) = (flags.join(" "), form.fields.join(", "));
        let _ = writeln!(floorplan, "  {flags:<28}serve's {}: {fields}", form.json);
    }
    format!(
        "{USAGE_HEAD}{floorplan}  at most {MAX_NODES} nodes, |x| and |y| at most {MAX_COORD_UM} um\n\n\
         {USAGE_OPTIONS}{}{USAGE_TAIL}",
        SynthesisOptions::flag_help()
    )
}

const USAGE_HEAD: &str = "\
xring — crosstalk-aware synthesis of optical ring routers (DATE 2023 reproduction)

USAGE:
  xring [--jobs N] [--log-level L] [--log-out FILE] <command>

  xring synth [floorplan] [synthesis options] [--svg FILE] [--describe]
              [--trace FILE] [--trace-format jsonl|folded]
              [--solver-log FILE] [--metrics-out FILE]
  xring sweep [synth flags] [--objective il|power|snr]
  xring batch [synth flags] [--wl-list A,B,C] [--deadline-ms N]
              [--repeat K] [--metrics-jsonl FILE]
  xring fault-sweep [synth flags] [--levels A,B,C]
  xring edit [synth flags] [--drop-pair I]
  xring serve [--port N] [--workers N] [--max-inflight N]
              [--queue-depth N] [--deadline-ms N] [--cache-bytes N]
              [--degradation P] [--trace FILE] [--trace-format jsonl|folded]
              [--metrics-out FILE] [--slo-target-ppm N]
              [--slo-latency-ms N] [--postmortem FILE]
  xring table <1|2|3>
  xring ablation <shortcuts|pdn|ring|all>
  xring help

GLOBAL FLAGS:
  --jobs N        worker threads for sweeps, batches, tables and
                  ablations (default: one per core)
  --log-level L   structured-log threshold: error, warn, info or debug
                  (default info)
  --log-out FILE  write structured JSONL log events to FILE instead of
                  stderr; each event carries a timestamp, level, target
                  and — inside the daemon — the request id

FLOORPLAN (synth, sweep, batch, fault-sweep, edit; one form, default
--grid 4x4 --pitch 2000):
";

const USAGE_OPTIONS: &str = "\
SYNTHESIS OPTIONS (synth, sweep, batch, fault-sweep, edit; a value flag
also takes the --flag=V form):
";

const USAGE_TAIL: &str = "
FAULT SWEEP (fault-sweep):
  --levels A,B,C  spare levels to sweep; per level the engine
                  synthesizes once, audits every enumerated single-fault
                  scenario across the worker pool and prints power,
                  channel count, fault margin and the Pareto frontier
                  over the three (default 0,1)

INCREMENTAL EDITING (edit):
  xring edit synthesizes the spec cold, drops one traffic demand and
  re-synthesizes the edited spec incrementally: the ring and shortcut
  phases are keyed on a content hash of their inputs and replay from
  cached artifacts when unchanged; mapping, opening and PDN always run.
  Prints cold vs. incremental wall time, the phases replayed, and
  whether the incremental design is byte-identical to a cold synthesis
  of the edited spec.
  --drop-pair I   index of the demand pair to drop (default 0)

TRACING (synth, sweep, batch):
  --trace FILE           record per-phase spans (ring MILP, shortcuts,
                         audit, evaluation, ...), solver counters and
                         engine gauges for the whole run, then write
                         them to FILE on exit
  --trace-format jsonl   one JSON object per span/gauge plus a final
                         totals line (default)
  --trace-format folded  collapsed stacks for flamegraph tooling

SERVING:
  xring serve runs the synthesis daemon: JSON over HTTP/1.1 on
  127.0.0.1 with POST /synth, POST /batch, GET /metrics (live
  Prometheus text), GET /healthz and POST /shutdown (graceful drain;
  stdin EOF also drains).
  --port N          bind port (default 7878; 0 picks an ephemeral port)
  --workers N       engine workers per request (default 2)
  --max-inflight N  concurrently-processed request cap (default 4);
                    beyond it requests queue
  --queue-depth N   admission queue slots (default 16; 0 = rendezvous);
                    beyond them requests shed with 429
  --deadline-ms N   default synthesis deadline per request (requests
                    may override); with --degradation allow an expired
                    deadline degrades instead of failing
  --cache-bytes N   shared design-cache byte budget with LRU eviction
                    (default 268435456; 0 = unbounded)
  --degradation P   default degradation policy for requests (see the
                    synthesis options)
  --trace/--trace-format/--metrics-out as above, flushed on shutdown

  Observability (see docs/OBSERVABILITY.md): every response carries an
  x-request-id header and JSON request_id field; GET /debug/requests,
  /debug/requests/<id> and /debug/slow expose the flight recorder and
  tail-sampled span traces; /metrics exposes SLO burn rates.
  --slo-target-ppm N   good-request target in parts per million for the
                       availability and latency SLOs (default 990000,
                       i.e. 99%)
  --slo-latency-ms N   latency objective: a 2xx answered slower than
                       this counts against the latency SLO and makes
                       the request tail-sampling-worthy (default 1000)
  --postmortem FILE    on drain or handler panic, dump the flight
                       recorder and retained traces to FILE as JSONL

SOLVER TELEMETRY (synth, sweep, batch):
  --solver-log FILE      stream MILP branch-and-bound convergence events
                         (incumbents, best bound, optimality gap) as
                         JSON lines, one object per event
  --metrics-out FILE     write a Prometheus text-format (0.0.4) snapshot
                         of all counters, gauges and latency histograms
                         recorded during the run
";

/// Applies one shared synth/network flag. Returns `Ok(false)` when the
/// flag is not a synth flag (so the caller can try its own flags).
///
/// # Errors
///
/// Returns a message describing the malformed flag value.
fn apply_synth_flag<'a, I>(
    flag: &str,
    it: &mut I,
    out: &mut SynthArgs,
) -> Result<bool, ParseArgsError>
where
    I: Iterator<Item = &'a String>,
{
    if apply_floorplan_flag(flag, it, out)? {
        return Ok(true);
    }
    match flag {
        "--describe" => out.describe = true,
        "--svg" => {
            let v = it
                .next()
                .ok_or_else(|| ParseArgsError("--svg needs a path".into()))?;
            out.svg = Some(v.clone());
        }
        "--trace" => {
            let v = it
                .next()
                .ok_or_else(|| ParseArgsError("--trace needs a path".into()))?;
            out.trace = Some(v.clone());
        }
        "--trace-format" => {
            let v = it.next().ok_or_else(|| {
                ParseArgsError(format!("--trace-format needs {}", TraceFormat::NAMES))
            })?;
            out.trace_format = v.parse().map_err(ParseArgsError)?;
        }
        "--solver-log" => {
            let v = it
                .next()
                .ok_or_else(|| ParseArgsError("--solver-log needs a path".into()))?;
            out.solver_log = Some(v.clone());
        }
        "--metrics-out" => {
            let v = it
                .next()
                .ok_or_else(|| ParseArgsError("--metrics-out needs a path".into()))?;
            out.metrics_out = Some(v.clone());
        }
        _ => {
            return match out
                .options
                .apply_flag(flag, || it.next().map(String::as_str))
            {
                None => Ok(false),
                Some(applied) => applied.map(|()| true).map_err(ParseArgsError),
            }
        }
    }
    Ok(true)
}

/// Applies a floorplan flag of the form table ([`FloorplanForm::ALL`]):
/// the parts of its value set its fields of the form, and the form's
/// other fields keep the values given so far ([`DEFAULT_FLOORPLAN`]'s,
/// for `--pitch` alone). A flag of a second form is refused. Returns
/// `Ok(false)` when `flag` is no floorplan flag.
fn apply_floorplan_flag<'a, I>(
    flag: &str,
    it: &mut I,
    out: &mut SynthArgs,
) -> Result<bool, ParseArgsError>
where
    I: Iterator<Item = &'a String>,
{
    let parts = |value: &'a str| value.split(['x', 'X', ',']);
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
    let value = it
        .next()
        .ok_or_else(|| ParseArgsError(format!("{flag} needs {spelling}")))?;
    let given = out.floorplan.as_ref().unwrap_or(&DEFAULT_FLOORPLAN);
    let mut fields = match given.form().json {
        json if json == form.json => given.fields(),
        _ if out.floorplan.is_none() => vec![0; form.fields.len()],
        json => {
            return Err(ParseArgsError(format!(
                "{flag}: a {json} floorplan is already given"
            )))
        }
    };
    if parts(value).count() != parts(spelling).count() {
        return Err(ParseArgsError(format!("bad {flag} {value}")));
    }
    for (part, field) in parts(value).zip(first..) {
        let name = form.fields[field];
        fields[field] = part
            .parse()
            .ok()
            .filter(|&v: &i64| v >= 0 || name.ends_with("_um"))
            .ok_or_else(|| ParseArgsError(format!("bad {name} {part}")))?;
    }
    out.floorplan = Some(Floorplan::from_fields(form.json, &fields));
    Ok(true)
}

/// The global flags, valid anywhere in the argument vector.
struct Globals {
    jobs: Option<usize>,
    log_level: Option<xring_obs::log::Level>,
    log_out: Option<String>,
}

/// Extracts the global flags (`--jobs`, `--log-level`, `--log-out` —
/// valid anywhere in the argument vector), returning the remaining
/// arguments.
fn extract_globals(args: &[String]) -> Result<(Globals, Vec<String>), ParseArgsError> {
    let mut globals = Globals {
        jobs: None,
        log_level: None,
        log_out: None,
    };
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseArgsError("--jobs needs a worker count".into()))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| ParseArgsError(format!("bad worker count {v}")))?;
                if n == 0 {
                    return Err(ParseArgsError("--jobs must be at least 1".into()));
                }
                globals.jobs = Some(n);
            }
            "--log-level" => {
                let v = it.next().ok_or_else(|| {
                    ParseArgsError("--log-level needs error|warn|info|debug".into())
                })?;
                globals.log_level = Some(v.parse().map_err(ParseArgsError)?);
            }
            "--log-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| ParseArgsError("--log-out needs a path".into()))?;
                globals.log_out = Some(v.clone());
            }
            _ => rest.push(a.clone()),
        }
    }
    Ok((globals, rest))
}

/// Parses a full argument vector (excluding argv\[0\]).
///
/// # Errors
///
/// Returns a message describing the first malformed argument.
pub fn parse(args: &[String]) -> Result<Cli, ParseArgsError> {
    let (globals, args) = extract_globals(args)?;
    let command = parse_command(&args)?;
    Ok(Cli {
        jobs: globals.jobs,
        log_level: globals.log_level,
        log_out: globals.log_out,
        command,
    })
}

fn parse_command(args: &[String]) -> Result<Command, ParseArgsError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "table" => {
            let which = it
                .next()
                .ok_or_else(|| ParseArgsError("table needs a number (1, 2 or 3)".into()))?;
            match which.as_str() {
                "1" => Ok(Command::Table(1)),
                "2" => Ok(Command::Table(2)),
                "3" => Ok(Command::Table(3)),
                other => Err(ParseArgsError(format!("unknown table {other}"))),
            }
        }
        "ablation" => {
            let which = it.next().map(String::as_str).unwrap_or("all");
            if ["shortcuts", "pdn", "ring", "all"].contains(&which) {
                Ok(Command::Ablation(which.to_string()))
            } else {
                Err(ParseArgsError(format!("unknown ablation {which}")))
            }
        }
        "batch" => {
            let mut out = BatchArgs::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--wl-list" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--wl-list needs A,B,C".into()))?;
                        out.wl_list = v
                            .split(',')
                            .map(|p| {
                                p.parse::<usize>()
                                    .map_err(|_| ParseArgsError(format!("bad #wl {p}")))
                                    .and_then(|n| {
                                        if n == 0 {
                                            Err(ParseArgsError("#wl must be at least 1".into()))
                                        } else {
                                            Ok(n)
                                        }
                                    })
                            })
                            .collect::<Result<_, _>>()?;
                        if out.wl_list.is_empty() {
                            return Err(ParseArgsError("--wl-list needs A,B,C".into()));
                        }
                    }
                    "--deadline-ms" => {
                        let v = it.next().ok_or_else(|| {
                            ParseArgsError("--deadline-ms needs milliseconds".into())
                        })?;
                        out.deadline_ms = Some(
                            v.parse()
                                .map_err(|_| ParseArgsError(format!("bad deadline {v}")))?,
                        );
                    }
                    "--repeat" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--repeat needs a count".into()))?;
                        out.repeat = v
                            .parse()
                            .map_err(|_| ParseArgsError(format!("bad repeat {v}")))?;
                        if out.repeat == 0 {
                            return Err(ParseArgsError("--repeat must be at least 1".into()));
                        }
                    }
                    "--metrics-jsonl" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--metrics-jsonl needs a path".into()))?;
                        out.metrics_jsonl = Some(v.clone());
                    }
                    other => {
                        if !apply_synth_flag(other, &mut it, &mut out.synth)? {
                            return Err(ParseArgsError(format!("unknown flag {other}")));
                        }
                    }
                }
            }
            Ok(Command::Batch(out))
        }
        "serve" => {
            let mut out = ServeArgs::default();
            // Shared synth-flag machinery is deliberately not reused
            // here: serve's knobs are operational (ports, queues,
            // budgets), not synthesis parameters — requests carry those.
            while let Some(flag) = it.next() {
                let mut num = |name: &str| -> Result<u64, ParseArgsError> {
                    let v = it
                        .next()
                        .ok_or_else(|| ParseArgsError(format!("{name} needs a value")))?;
                    v.parse()
                        .map_err(|_| ParseArgsError(format!("bad {name} value {v}")))
                };
                match flag.as_str() {
                    "--port" => {
                        out.port = u16::try_from(num("--port")?)
                            .map_err(|_| ParseArgsError("--port must fit in 16 bits".into()))?;
                    }
                    "--workers" => {
                        out.workers = num("--workers")? as usize;
                        if out.workers == 0 {
                            return Err(ParseArgsError("--workers must be at least 1".into()));
                        }
                    }
                    "--max-inflight" => {
                        out.max_inflight = num("--max-inflight")? as usize;
                        if out.max_inflight == 0 {
                            return Err(ParseArgsError("--max-inflight must be at least 1".into()));
                        }
                    }
                    "--queue-depth" => out.queue_depth = num("--queue-depth")? as usize,
                    "--deadline-ms" => {
                        let ms = num("--deadline-ms")?;
                        if ms == 0 {
                            return Err(ParseArgsError("--deadline-ms must be at least 1".into()));
                        }
                        out.deadline_ms = Some(ms);
                    }
                    "--cache-bytes" => out.cache_bytes = num("--cache-bytes")?,
                    "--degradation" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--degradation needs a policy".into()))?;
                        out.degradation = v.parse().map_err(ParseArgsError)?;
                    }
                    "--trace" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--trace needs a path".into()))?;
                        out.trace = Some(v.clone());
                    }
                    "--trace-format" => {
                        let v = it.next().ok_or_else(|| {
                            ParseArgsError(format!("--trace-format needs {}", TraceFormat::NAMES))
                        })?;
                        out.trace_format = v.parse().map_err(ParseArgsError)?;
                    }
                    "--metrics-out" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--metrics-out needs a path".into()))?;
                        out.metrics_out = Some(v.clone());
                    }
                    "--slo-target-ppm" => {
                        let ppm = num("--slo-target-ppm")?;
                        if ppm == 0 || ppm >= 1_000_000 {
                            return Err(ParseArgsError(
                                "--slo-target-ppm must be in 1..=999999".into(),
                            ));
                        }
                        out.slo_target_ppm = Some(ppm as u32);
                    }
                    "--slo-latency-ms" => {
                        let ms = num("--slo-latency-ms")?;
                        if ms == 0 {
                            return Err(ParseArgsError(
                                "--slo-latency-ms must be at least 1".into(),
                            ));
                        }
                        out.slo_latency_ms = Some(ms);
                    }
                    "--postmortem" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseArgsError("--postmortem needs a path".into()))?;
                        out.postmortem = Some(v.clone());
                    }
                    other => return Err(ParseArgsError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Serve(out))
        }
        "edit" => {
            let mut drop_pair = 0usize;
            let mut out = SynthArgs::default();
            while let Some(flag) = it.next() {
                if flag == "--drop-pair" {
                    let v = it
                        .next()
                        .ok_or_else(|| ParseArgsError("--drop-pair needs an index".into()))?;
                    drop_pair = v
                        .parse()
                        .map_err(|_| ParseArgsError(format!("bad pair index {v}")))?;
                    continue;
                }
                if !apply_synth_flag(flag, &mut it, &mut out)? {
                    return Err(ParseArgsError(format!("unknown flag {flag}")));
                }
            }
            Ok(Command::Edit(out, drop_pair))
        }
        "fault-sweep" => {
            let mut levels: Vec<usize> = vec![0, 1];
            let mut out = SynthArgs::default();
            while let Some(flag) = it.next() {
                if flag == "--levels" {
                    let v = it
                        .next()
                        .ok_or_else(|| ParseArgsError("--levels needs A,B,C".into()))?;
                    levels = v
                        .split(',')
                        .map(|p| {
                            p.parse::<usize>()
                                .map_err(|_| ParseArgsError(format!("bad spare level {p}")))
                        })
                        .collect::<Result<_, _>>()?;
                    continue;
                }
                if !apply_synth_flag(flag, &mut it, &mut out)? {
                    return Err(ParseArgsError(format!("unknown flag {flag}")));
                }
            }
            Ok(Command::FaultSweep(out, levels))
        }
        cmd @ ("synth" | "sweep") => {
            let is_sweep = cmd == "sweep";
            let mut objective = "power".to_string();
            let mut out = SynthArgs::default();
            while let Some(flag) = it.next() {
                if flag == "--objective" {
                    if !is_sweep {
                        return Err(ParseArgsError(
                            "--objective only applies to the sweep command".into(),
                        ));
                    }
                    let v = it
                        .next()
                        .ok_or_else(|| ParseArgsError("--objective needs il|power|snr".into()))?;
                    if !["il", "power", "snr"].contains(&v.as_str()) {
                        return Err(ParseArgsError(format!("unknown objective {v}")));
                    }
                    objective = v.clone();
                    continue;
                }
                if !apply_synth_flag(flag, &mut it, &mut out)? {
                    return Err(ParseArgsError(format!("unknown flag {flag}")));
                }
            }
            if is_sweep {
                Ok(Command::Sweep(out, objective))
            } else {
                Ok(Command::Synth(out))
            }
        }
        other => Err(ParseArgsError(format!("unknown command {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xring_core::{FactorizationKind, LpBackendKind, PricingKind, RingAlgorithm, SpareConfig};
    use xring_geom::Point;

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

    #[test]
    fn help_lists_every_option_flag() {
        let text = usage();
        let floorplan_flags = FloorplanForm::ALL.iter().flat_map(|f| f.flags);
        for flag in SynthesisOptions::FIELDS
            .iter()
            .filter_map(|f| f.flag.name())
            .chain(floorplan_flags.map(|(flag, _)| *flag))
        {
            assert!(text.contains(flag), "{flag} missing from xring help");
        }
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(cmd(&[]), Command::Help);
        assert_eq!(cmd(&["--help"]), Command::Help);
    }

    #[test]
    fn table_parsing() {
        assert_eq!(cmd(&["table", "2"]), Command::Table(2));
        assert!(parse(&v(&["table", "9"])).is_err());
        assert!(parse(&v(&["table"])).is_err());
    }

    #[test]
    fn ablation_defaults_to_all() {
        assert_eq!(cmd(&["ablation"]), Command::Ablation("all".into()));
        assert!(parse(&v(&["ablation", "bogus"])).is_err());
    }

    #[test]
    fn jobs_flag_is_global() {
        let cli = parse(&v(&["--jobs", "4", "table", "1"])).expect("parses");
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.command, Command::Table(1));
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
        assert_eq!(cli.command, Command::Table(1));
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
        assert_eq!(a.slo_target_ppm, Some(999_000));
        assert_eq!(a.slo_latency_ms, Some(250));
        assert_eq!(a.postmortem.as_deref(), Some("pm.jsonl"));
        // Defaults and rejects.
        let Command::Serve(a) = cmd(&["serve"]) else {
            panic!("not serve")
        };
        assert_eq!(
            (a.slo_target_ppm, a.slo_latency_ms, a.postmortem),
            (None, None, None)
        );
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
        assert_eq!(a, ServeArgs::default());
        assert_eq!(a.port, 7878);
        assert_eq!(a.cache_bytes, 256 << 20);

        let Command::Serve(a) = cmd(&[
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
        ]) else {
            panic!("not serve")
        };
        assert_eq!(
            (a.port, a.workers, a.max_inflight, a.queue_depth),
            (0, 3, 8, 0)
        );
        assert_eq!(a.deadline_ms, Some(250));
        assert_eq!(a.cache_bytes, 1_048_576);
        assert_eq!(a.degradation, DegradationPolicy::Allow);
        assert_eq!(a.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(a.metrics_out.as_deref(), Some("m.prom"));
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
        let c = cmd(&[
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
        ]);
        let Command::Synth(a) = c else {
            panic!("not synth")
        };
        assert_eq!(a.floorplan, Some(grid(4, 8, 2_500)));
        assert_eq!(a.options.max_wavelengths, 20);
        assert_eq!(a.options.ring_algorithm, RingAlgorithm::Heuristic);
        assert!(!a.options.pdn && a.options.shortcuts && a.options.openings);
        assert_eq!(a.svg.as_deref(), Some("out.svg"));
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
        let Command::Batch(b) = c else {
            panic!("not batch")
        };
        assert_eq!(b.synth.floorplan, Some(grid(2, 4, 1_500)));
        assert_eq!(b.wl_list, vec![2, 4, 8]);
        assert_eq!(b.deadline_ms, Some(250));
        assert_eq!(b.repeat, 3);
        assert_eq!(b.metrics_jsonl.as_deref(), Some("events.jsonl"));
    }

    #[test]
    fn batch_defaults() {
        let Command::Batch(b) = cmd(&["batch"]) else {
            panic!("not batch")
        };
        assert!(b.wl_list.is_empty());
        assert_eq!(b.repeat, 1);
        assert_eq!(b.deadline_ms, None);
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
        let Command::Batch(b) = cmd(&["batch", "--degradation=allow"]) else {
            panic!("not batch")
        };
        assert_eq!(b.synth.options.degradation, DegradationPolicy::Allow);
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
        let Command::Batch(b) = cmd(&["batch", "--lp-backend=dense"]) else {
            panic!("not batch")
        };
        assert_eq!(b.synth.options.lp_backend, LpBackendKind::Dense);
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

    #[test]
    fn trace_flags_parse_on_every_synthesis_command() {
        let Command::Synth(a) = cmd(&["synth", "--trace", "out.jsonl"]) else {
            panic!("not synth")
        };
        assert_eq!(a.trace.as_deref(), Some("out.jsonl"));
        assert_eq!(a.trace_format, TraceFormat::Jsonl); // default
        let Command::Sweep(a, _) =
            cmd(&["sweep", "--trace", "t.folded", "--trace-format", "folded"])
        else {
            panic!("not sweep")
        };
        assert_eq!(a.trace.as_deref(), Some("t.folded"));
        assert_eq!(a.trace_format, TraceFormat::Folded);
        let Command::Batch(b) = cmd(&["batch", "--trace", "b.jsonl", "--trace-format", "jsonl"])
        else {
            panic!("not batch")
        };
        assert_eq!(b.synth.trace.as_deref(), Some("b.jsonl"));
        assert_eq!(b.synth.trace_format, TraceFormat::Jsonl);
    }

    #[test]
    fn telemetry_flags_parse_on_every_synthesis_command() {
        let Command::Synth(a) = cmd(&["synth", "--solver-log", "conv.jsonl"]) else {
            panic!("not synth")
        };
        assert_eq!(a.solver_log.as_deref(), Some("conv.jsonl"));
        assert_eq!(a.metrics_out, None);
        let Command::Sweep(a, _) = cmd(&["sweep", "--metrics-out", "metrics.prom"]) else {
            panic!("not sweep")
        };
        assert_eq!(a.metrics_out.as_deref(), Some("metrics.prom"));
        let Command::Batch(b) = cmd(&[
            "batch",
            "--solver-log",
            "c.jsonl",
            "--metrics-out",
            "m.prom",
        ]) else {
            panic!("not batch")
        };
        assert_eq!(b.synth.solver_log.as_deref(), Some("c.jsonl"));
        assert_eq!(b.synth.metrics_out.as_deref(), Some("m.prom"));
        assert!(parse(&v(&["synth", "--solver-log"])).is_err());
        assert!(parse(&v(&["sweep", "--metrics-out"])).is_err());
    }

    #[test]
    fn bad_trace_flags_are_rejected() {
        assert!(parse(&v(&["synth", "--trace"])).is_err());
        assert!(parse(&v(&["synth", "--trace-format"])).is_err());
        assert!(parse(&v(&["synth", "--trace-format", "xml"])).is_err());
        let err = parse(&v(&["sweep", "--trace-format", "protobuf"])).unwrap_err();
        assert!(err.0.contains("jsonl|folded"), "{err}");
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
        let Command::Batch(b) = cmd(&["batch", "--spares", "1"]) else {
            panic!("not batch")
        };
        assert_eq!(b.synth.options.spares, SpareConfig::uniform(1));
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
        assert_eq!(obj, "snr");
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
        assert_eq!(obj, "power");
    }
}
