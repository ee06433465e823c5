//! The wire protocol: JSON request bodies → [`SynthesisJob`]s, job
//! outcomes → JSON response bodies.
//!
//! Decoding is *strict*: unknown keys are rejected with a 400 naming the
//! offending key, so a client typo (`"max_wavelenghts"`) fails loudly
//! instead of silently synthesizing with defaults. Encoding reuses
//! [`xring_obs::json_escape`] via the [`crate::json`] helpers — the
//! workspace keeps a single JSON string escaper.
//!
//! # Request schema (`POST /synth`)
//!
//! ```json
//! {
//!   "label": "my-router",                    // optional
//!   "net": {"named": "proton_8"}             // one of:
//!        | {"grid": {"rows": 4, "cols": 4, "pitch_um": 2000}}
//!        | {"positions": [[0, 0], [1500, 0], [0, 1500]]}
//!        | {"irregular": {"n": 16, "die_um": 12000, "seed": 7}},
//!   "options": {"max_wavelengths": 8, "traffic": {"knn": 3}}  // optional
//! }
//! ```
//!
//! `"net"` takes one form of the floorplan table
//! ([`xring_core::FloorplanForm::ALL`]), which the CLI's floorplan flags
//! read too; [`xring_core::Floorplan::build`] refuses an oversized one
//! with 422 `network_too_large` before it builds anything.
//!
//! `"options"` takes the JSON field of any row of the option table
//! ([`xring_core::options`]): an integer, boolean or name as the row's
//! [`Form`] says, parsed by the table's text setter (`"deadline_ms"` is a
//! positive number of milliseconds). Two rows also take structured forms:
//! `"traffic"` is `"all-to-all"`, `{"knn": 3}`,
//! `{"hotspot": {"hotspots": 2, "seed": 7}}` or
//! `{"permutation": {"seed": 11}}`; `"spares"` is a count for both spare
//! classes or `{"k_wavelengths": 1, "k_mrrs": 1}`, and synthesis then
//! proves every single device fault survivable before releasing the
//! design (the job fails with 422 otherwise).
//!
//! `POST /batch` wraps a list: `{"jobs": [<synth request>, …]}`.

use std::time::Duration;

use xring_core::{
    DegradationPolicy, Floorplan, FloorplanForm, Form, NetworkSpec, SpareConfig, SynthesisError,
    SynthesisOptions, Traffic,
};
use xring_engine::{JobError, JobOutput, SynthesisJob};
use xring_geom::Point;

use crate::json::{self, fmt_f64, str_field, Json};

/// Hard cap on jobs per `/batch` request: bounds the work a single
/// request can pin regardless of admission settings.
pub const MAX_BATCH_JOBS: usize = 64;

/// The floorplan table's cap on nodes per network.
pub use xring_core::MAX_NODES;

/// A protocol-level rejection: HTTP status, stable machine-readable
/// code, human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// HTTP status to respond with (400/413/422).
    pub status: u16,
    /// Stable error code (`"bad_json"`, `"unknown_field"`, …).
    pub code: &'static str,
    /// Detail for the human reading the response.
    pub message: String,
}

impl ProtocolError {
    fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        ProtocolError {
            status: 400,
            code,
            message: message.into(),
        }
    }

    fn unprocessable(code: &'static str, message: impl Into<String>) -> Self {
        ProtocolError {
            status: 422,
            code,
            message: message.into(),
        }
    }
}

/// Server-side defaults applied when a request leaves a knob unset:
/// the daemon's `--deadline-ms` and `--degradation` flags.
#[derive(Debug, Clone, Default)]
pub struct RequestDefaults {
    /// Default per-request deadline (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// Default degradation policy.
    pub degradation: DegradationPolicy,
}

/// Parses a `POST /synth` body into a job. `index` seeds the default
/// label so batch members stay distinguishable.
pub fn parse_synth(
    body: &str,
    defaults: &RequestDefaults,
    index: usize,
) -> Result<SynthesisJob, ProtocolError> {
    let doc =
        json::parse(body).map_err(|e| ProtocolError::bad_request("bad_json", e.to_string()))?;
    job_from_json(&doc, defaults, index)
}

/// Parses a `POST /batch` body (`{"jobs": [...]}`) into its jobs.
pub fn parse_batch(
    body: &str,
    defaults: &RequestDefaults,
) -> Result<Vec<SynthesisJob>, ProtocolError> {
    let doc =
        json::parse(body).map_err(|e| ProtocolError::bad_request("bad_json", e.to_string()))?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| ProtocolError::bad_request("bad_request", "batch body must be an object"))?;
    for key in obj.keys() {
        if key != "jobs" {
            return Err(unknown_field(key, "batch request"));
        }
    }
    let jobs = obj
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtocolError::bad_request("bad_request", "missing \"jobs\" array"))?;
    if jobs.is_empty() {
        return Err(ProtocolError::bad_request(
            "bad_request",
            "empty \"jobs\" array",
        ));
    }
    if jobs.len() > MAX_BATCH_JOBS {
        return Err(ProtocolError {
            status: 413,
            code: "batch_too_large",
            message: format!("{} jobs exceeds the limit of {MAX_BATCH_JOBS}", jobs.len()),
        });
    }
    jobs.iter()
        .enumerate()
        .map(|(i, j)| job_from_json(j, defaults, i))
        .collect()
}

fn unknown_field(key: &str, context: &str) -> ProtocolError {
    ProtocolError::bad_request(
        "unknown_field",
        format!("unknown field \"{key}\" in {context}"),
    )
}

fn job_from_json(
    doc: &Json,
    defaults: &RequestDefaults,
    index: usize,
) -> Result<SynthesisJob, ProtocolError> {
    let obj = doc
        .as_obj()
        .ok_or_else(|| ProtocolError::bad_request("bad_request", "request must be an object"))?;
    for key in obj.keys() {
        if !matches!(key.as_str(), "label" | "net" | "options") {
            return Err(unknown_field(key, "request"));
        }
    }
    let label = match obj.get("label") {
        None => format!("req-{index}"),
        Some(v) => v
            .as_str()
            .ok_or_else(|| ProtocolError::bad_request("bad_request", "\"label\" must be a string"))?
            .to_owned(),
    };
    let net = net_from_json(
        obj.get("net")
            .ok_or_else(|| ProtocolError::bad_request("bad_request", "missing \"net\""))?,
    )?;
    let mut options = SynthesisOptions {
        deadline: defaults.deadline,
        degradation: defaults.degradation,
        ..SynthesisOptions::default()
    };
    if let Some(opts) = obj.get("options") {
        apply_options(opts, &mut options)?;
    }
    Ok(SynthesisJob::new(label, net, options))
}

/// Decodes `"net"` through the floorplan table ([`FloorplanForm::ALL`]):
/// the key picks the form, whose body is a name, an array of `[x, y]`
/// pairs or an object of the form's integer fields. [`Floorplan::build`]
/// then checks the size and builds the network.
fn net_from_json(v: &Json) -> Result<NetworkSpec, ProtocolError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| ProtocolError::bad_request("bad_request", "\"net\" must be an object"))?;
    if obj.len() != 1 {
        let forms: Vec<&str> = FloorplanForm::ALL.iter().map(|f| f.json).collect();
        return Err(ProtocolError::bad_request(
            "bad_request",
            format!("\"net\" must have exactly one of: {}", forms.join(", ")),
        ));
    }
    let (kind, body) = obj.iter().next().expect("len == 1");
    let form = FloorplanForm::ALL
        .iter()
        .find(|f| f.json == kind)
        .ok_or_else(|| {
            ProtocolError::bad_request("bad_request", format!("unknown net kind \"{kind}\""))
        })?;
    let floorplan = match form.json {
        "named" => Floorplan::Named(
            body.as_str()
                .ok_or_else(|| {
                    ProtocolError::bad_request("bad_request", "\"named\" must be a string")
                })?
                .to_owned(),
        ),
        "positions" => {
            let arr = body.as_arr().ok_or_else(|| {
                ProtocolError::bad_request("bad_request", "\"positions\" must be an array")
            })?;
            let mut points = Vec::with_capacity(arr.len());
            for (i, p) in arr.iter().enumerate() {
                let pair = p.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                    ProtocolError::bad_request(
                        "bad_request",
                        format!("positions[{i}] must be an [x, y] pair"),
                    )
                })?;
                let x = pair[0].as_i64().ok_or_else(|| bad_coord(i))?;
                let y = pair[1].as_i64().ok_or_else(|| bad_coord(i))?;
                points.push(Point::new(x, y));
            }
            Floorplan::Positions(points)
        }
        _ => {
            let mut values = Vec::with_capacity(form.fields.len());
            for &field in form.fields {
                // A length (`_um`) may be negative, and one past the i64
                // range saturates, so it fails the size check; a count or
                // seed is a non-negative integer of at most 2^53.
                let signed = field.ends_with("_um");
                let n = body.get(field).and_then(Json::as_f64).filter(|n| {
                    n.fract() == 0.0 && (signed || (0.0..=9_007_199_254_740_992.0).contains(n))
                });
                let kind = if signed { "an" } else { "a non-negative" };
                values.push(n.ok_or_else(|| {
                    let form = form.json;
                    let message = format!("\"{form}\" needs {kind} integer \"{field}\"");
                    ProtocolError::bad_request("bad_request", message)
                })? as i64);
            }
            check_keys(body, form.fields, form.json)?;
            Floorplan::from_fields(form.json, &values)
        }
    };
    floorplan.build().map_err(|e| {
        let code = match e {
            SynthesisError::UnknownNetwork { .. } => "unknown_network",
            SynthesisError::NetworkTooLarge { .. } => "network_too_large",
            _ => "invalid_network",
        };
        ProtocolError::unprocessable(code, e.to_string())
    })
}

fn bad_coord(i: usize) -> ProtocolError {
    ProtocolError::bad_request(
        "bad_request",
        format!("positions[{i}] coordinates must be integers"),
    )
}

fn check_keys(v: &Json, allowed: &[&str], context: &str) -> Result<(), ProtocolError> {
    let obj = v.as_obj().ok_or_else(|| {
        ProtocolError::bad_request("bad_request", format!("\"{context}\" must be an object"))
    })?;
    for key in obj.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(unknown_field(key, context));
        }
    }
    Ok(())
}

fn require_usize(v: &Json, key: &str, context: &str) -> Result<usize, ProtocolError> {
    v.get(key).and_then(Json::as_usize).ok_or_else(|| {
        ProtocolError::bad_request(
            "bad_request",
            format!("\"{context}\" needs a non-negative integer \"{key}\""),
        )
    })
}

/// Decodes a request's `"options"` object through the option table: each
/// key names a row's JSON field, and a scalar of the row's form goes
/// through the table's text setter. `traffic` and `spares` also take the
/// structured object forms decoded here.
fn apply_options(v: &Json, options: &mut SynthesisOptions) -> Result<(), ProtocolError> {
    let obj = v.as_obj().ok_or_else(|| {
        ProtocolError::bad_request("bad_request", "\"options\" must be an object")
    })?;
    for (key, value) in obj {
        let field = SynthesisOptions::FIELDS
            .iter()
            .find(|f| f.json == Some(key.as_str()))
            .ok_or_else(|| unknown_field(key, "options"))?;
        let text = match (field.form, value) {
            (_, Json::Obj(_)) if field.name == "traffic" => {
                options.traffic = traffic_from_json(value)?;
                continue;
            }
            (_, Json::Obj(_)) if field.name == "spares" => {
                options.spares = spares_from_json(value)?;
                continue;
            }
            (Form::Int, _) => value.as_usize().map(|n| n.to_string()),
            (Form::Bool, Json::Bool(b)) => Some(b.to_string()),
            (Form::Name, Json::Str(s)) => Some(s.clone()),
            _ => None,
        }
        .ok_or_else(|| option_err(key, field.form.expected()))?;
        options
            .set_text(field.name, &text)
            .map_err(|e| ProtocolError::bad_request("bad_request", format!("\"{key}\": {e}")))?;
    }
    Ok(())
}

/// `{"knn": N}`, `{"hotspot": {"hotspots": N, "seed": S}}` or
/// `{"permutation": {"seed": S}}`.
fn traffic_from_json(value: &Json) -> Result<Traffic, ProtocolError> {
    const FORMS: &str = "\"all-to-all\", {\"knn\": N}, \
         {\"hotspot\": {\"hotspots\": N, \"seed\": S}} or \
         {\"permutation\": {\"seed\": S}}";
    let (kind, body) = match value.as_obj() {
        Some(o) if o.len() == 1 => o.iter().next().expect("len == 1"),
        _ => return Err(option_err("traffic", FORMS)),
    };
    match kind.as_str() {
        "knn" => body
            .as_usize()
            .filter(|&k| k >= 1)
            .map(Traffic::NearestNeighbors)
            .ok_or_else(|| option_err("traffic", "\"knn\" of at least 1")),
        "hotspot" => {
            check_keys(body, &["hotspots", "seed"], "hotspot")?;
            let hotspots = require_usize(body, "hotspots", "hotspot")?;
            if hotspots == 0 {
                return Err(option_err("traffic", "\"hotspots\" of at least 1"));
            }
            let seed = require_usize(body, "seed", "hotspot")? as u64;
            Ok(Traffic::Hotspot { hotspots, seed })
        }
        "permutation" => {
            check_keys(body, &["seed"], "permutation")?;
            let seed = require_usize(body, "seed", "permutation")? as u64;
            Ok(Traffic::Permutation { seed })
        }
        _ => Err(option_err("traffic", FORMS)),
    }
}

/// `{"k_wavelengths": N, "k_mrrs": M}`, either count optional.
fn spares_from_json(value: &Json) -> Result<SpareConfig, ProtocolError> {
    check_keys(value, &["k_wavelengths", "k_mrrs"], "spares")?;
    let count = |key: &str| match value.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| option_err(key, "a non-negative integer")),
    };
    Ok(SpareConfig {
        k_wavelengths: count("k_wavelengths")?,
        k_mrrs: count("k_mrrs")?,
    })
}

fn option_err(key: &str, expected: &str) -> ProtocolError {
    ProtocolError::bad_request("bad_request", format!("\"{key}\" must be {expected}"))
}

/// Renders a successful job outcome. Every success carries the audit
/// verdict and the degradation level — operators gate on both.
pub fn render_output(out: &JobOutput, queue_us: u64, wall_us: u64) -> String {
    let p = &out.design.provenance;
    let audit = &p.audit;
    let r = &out.report;
    let opt_f64 = |v: Option<f64>| v.map_or_else(|| "null".to_owned(), fmt_f64);
    let opt_usize = |v: Option<usize>| v.map_or_else(|| "null".to_owned(), |n| n.to_string());
    format!(
        concat!(
            "{{{label},\"cache_hit\":{cache_hit},\"phases_reused\":{phases_reused},",
            "\"degradation\":\"{degradation}\",\"fallback_reason\":{fallback},",
            "\"audit\":{{\"clean\":{clean},\"verdicts\":{verdicts},{summary}}},",
            "\"report\":{{\"num_wavelengths\":{wl},\"worst_il_db\":{il},",
            "\"worst_path_len_mm\":{len},\"worst_path_crossings\":{crossings},",
            "\"total_power_w\":{power},\"noisy_signal_count\":{noisy},",
            "\"worst_snr_db\":{snr},\"signal_count\":{signals}}},",
            "\"queue_us\":{queue_us},\"wall_us\":{wall_us}}}"
        ),
        label = str_field("label", &out.label),
        cache_hit = out.cache_hit,
        phases_reused = out.phases_reused,
        degradation = p.degradation.as_str(),
        fallback = p.fallback_reason.as_deref().map_or_else(
            || "null".to_owned(),
            |r| format!("\"{}\"", xring_obs::json_escape(r))
        ),
        clean = audit.is_clean(),
        verdicts = audit.verdicts.len(),
        summary = str_field("summary", &audit.summary()),
        wl = r.num_wavelengths,
        il = fmt_f64(r.worst_il_db),
        len = fmt_f64(r.worst_path_len_mm),
        crossings = r.worst_path_crossings,
        power = opt_f64(r.total_power_w),
        noisy = opt_usize(r.noisy_signal_count),
        snr = opt_f64(r.worst_snr_db),
        signals = r.signal_count,
        queue_us = queue_us,
        wall_us = wall_us,
    )
}

/// Maps a job failure to `(status, body)`. Deadline expiry is 504 —
/// the daemon accepted the work but could not finish it in budget
/// (with `degradation: "allow"`, the fallback chain usually turns this
/// into a degraded 200 instead).
pub fn render_job_error(label: &str, err: &JobError) -> (u16, String) {
    let (status, code, message) = match err {
        JobError::DeadlineExceeded => (
            504,
            "deadline_exceeded",
            "synthesis exceeded its deadline".to_owned(),
        ),
        JobError::Synthesis(e) => (422, "synthesis_failed", e.to_string()),
        JobError::Panicked(m) => (500, "internal_panic", m.clone()),
    };
    (
        status,
        render_error_with_label(Some(label), status, code, &message),
    )
}

/// Renders a structured error body: `{"error": {...}}`.
pub fn render_error(status: u16, code: &str, message: &str) -> String {
    render_error_with_label(None, status, code, message)
}

/// Splices a `"request_id"` member into an already-rendered JSON object
/// body (before its closing brace). Every `/synth` and `/batch` response
/// carries its request id in the body as well as in the `x-request-id`
/// header, so clients that log bodies correlate for free. Bodies that
/// are not JSON objects are returned unchanged.
pub fn with_request_id(mut body: String, request_id: &str) -> String {
    if !body.ends_with('}') {
        return body;
    }
    body.truncate(body.len() - 1);
    body.push_str(",\"request_id\":\"");
    body.push_str(&xring_obs::json_escape(request_id));
    body.push_str("\"}");
    body
}

fn render_error_with_label(label: Option<&str>, status: u16, code: &str, message: &str) -> String {
    let label = label.map_or(String::new(), |l| format!("{},", str_field("label", l)));
    format!(
        "{{{label}\"error\":{{\"status\":{status},{code},{message}}}}}",
        code = str_field("code", code),
        message = str_field("message", message),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xring_core::RingAlgorithm;

    fn defaults() -> RequestDefaults {
        RequestDefaults::default()
    }

    #[test]
    fn with_request_id_splices_before_the_closing_brace() {
        let body = render_error(429, "shed", "try later");
        let tagged = with_request_id(body, "00ff00ff00ff00ff00ff00ff00ff00ff");
        assert!(
            tagged.ends_with(",\"request_id\":\"00ff00ff00ff00ff00ff00ff00ff00ff\"}"),
            "{tagged}"
        );
        assert!(tagged.starts_with("{\"error\":{"), "{tagged}");
        // Non-object bodies pass through untouched.
        assert_eq!(
            with_request_id("plain text".to_owned(), "abc"),
            "plain text"
        );
    }

    #[test]
    fn parses_a_minimal_request() {
        let job = parse_synth(r#"{"net": {"named": "proton_8"}}"#, &defaults(), 3).unwrap();
        assert_eq!(job.label, "req-3");
        assert_eq!(job.net.len(), 8);
        assert_eq!(job.options.max_wavelengths, 16);
        assert_eq!(job.options.degradation, DegradationPolicy::Forbid);
        assert_eq!(job.options.deadline, None);
    }

    #[test]
    fn parses_every_net_kind() {
        let grid = r#"{"net": {"grid": {"rows": 2, "cols": 4, "pitch_um": 1500}}}"#;
        assert_eq!(parse_synth(grid, &defaults(), 0).unwrap().net.len(), 8);
        let pos = r#"{"net": {"positions": [[0,0],[1500,0],[0,1500],[1500,1500]]}}"#;
        assert_eq!(parse_synth(pos, &defaults(), 0).unwrap().net.len(), 4);
        let irr = r#"{"net": {"irregular": {"n": 6, "die_um": 8000, "seed": 7}}}"#;
        assert_eq!(parse_synth(irr, &defaults(), 0).unwrap().net.len(), 6);
    }

    #[test]
    fn applies_options_and_defaults() {
        let d = RequestDefaults {
            deadline: Some(Duration::from_millis(500)),
            degradation: DegradationPolicy::Allow,
        };
        // Server defaults flow in when the request is silent...
        let job = parse_synth(r#"{"net": {"named": "proton_8"}}"#, &d, 0).unwrap();
        assert_eq!(job.options.deadline, Some(Duration::from_millis(500)));
        assert_eq!(job.options.degradation, DegradationPolicy::Allow);
        // ...and the request overrides them.
        let body = r#"{"label": "x", "net": {"named": "proton_8"}, "options": {
            "max_wavelengths": 4, "shortcuts": false, "deadline_ms": 20,
            "degradation": "force-heuristic", "lp_backend": "dense",
            "ring_algorithm": "heuristic", "traffic": {"knn": 2}}}"#;
        let job = parse_synth(body, &d, 0).unwrap();
        assert_eq!(job.label, "x");
        assert_eq!(job.options.max_wavelengths, 4);
        assert!(!job.options.shortcuts);
        assert_eq!(job.options.deadline, Some(Duration::from_millis(20)));
        assert_eq!(job.options.degradation, DegradationPolicy::ForceHeuristic);
        assert_eq!(job.options.traffic, Traffic::NearestNeighbors(2));
        assert!(matches!(
            job.options.ring_algorithm,
            RingAlgorithm::Heuristic
        ));
    }

    #[test]
    fn applies_solver_knobs_and_rejects_bad_ones() {
        let body = r#"{"net": {"named": "proton_8"}, "options": {
            "solver_threads": 4, "pricing": "devex",
            "factorization": "dense-eta"}}"#;
        let job = parse_synth(body, &defaults(), 0).unwrap();
        assert_eq!(job.options.solver_threads, 4);
        assert_eq!(job.options.pricing, xring_core::PricingKind::Devex);
        assert_eq!(
            job.options.factorization,
            xring_core::FactorizationKind::DenseEta
        );
        // Unset knobs keep the defaults.
        let job = parse_synth(r#"{"net": {"named": "proton_8"}}"#, &defaults(), 0).unwrap();
        assert_eq!(job.options.solver_threads, 1);
        assert_eq!(job.options.pricing, xring_core::PricingKind::Dantzig);
        assert_eq!(
            job.options.factorization,
            xring_core::FactorizationKind::SparseLu
        );
        for bad in [
            r#"{"solver_threads": 0}"#,
            r#"{"solver_threads": "many"}"#,
            r#"{"pricing": "steepest"}"#,
            r#"{"factorization": "qr"}"#,
        ] {
            let body = format!(r#"{{"net": {{"named": "proton_8"}}, "options": {bad}}}"#);
            let err = parse_synth(&body, &defaults(), 0).unwrap_err();
            assert_eq!(err.code, "bad_request", "{bad}");
        }
    }

    #[test]
    fn parses_spares_and_seeded_traffic() {
        let body = r#"{"net": {"named": "proton_8"}, "options": {
            "spares": 1, "traffic": {"hotspot": {"hotspots": 2, "seed": 7}}}}"#;
        let job = parse_synth(body, &defaults(), 0).unwrap();
        assert_eq!(job.options.spares, SpareConfig::uniform(1));
        assert_eq!(
            job.options.traffic,
            Traffic::Hotspot {
                hotspots: 2,
                seed: 7
            }
        );
        let body = r#"{"net": {"named": "proton_8"}, "options": {
            "spares": {"k_wavelengths": 2},
            "traffic": {"permutation": {"seed": 11}}}}"#;
        let job = parse_synth(body, &defaults(), 0).unwrap();
        assert_eq!(
            job.options.spares,
            SpareConfig {
                k_wavelengths: 2,
                k_mrrs: 0
            }
        );
        assert_eq!(job.options.traffic, Traffic::Permutation { seed: 11 });
        // Unset spares stay at the no-spare default.
        let job = parse_synth(r#"{"net": {"named": "proton_8"}}"#, &defaults(), 0).unwrap();
        assert_eq!(job.options.spares, SpareConfig::default());
    }

    #[test]
    fn rejects_bad_spares_and_traffic_forms() {
        let cases = [
            (r#"{"spares": 1.5}"#, "bad_request"),
            (r#"{"spares": "one"}"#, "bad_request"),
            (r#"{"spares": {"k_channels": 1}}"#, "unknown_field"),
            (
                r#"{"traffic": {"hotspot": {"hotspots": 0, "seed": 1}}}"#,
                "bad_request",
            ),
            (
                r#"{"traffic": {"hotspot": {"hotspots": 2}}}"#,
                "bad_request",
            ),
            (
                r#"{"traffic": {"permutation": {"seed": 1, "extra": 2}}}"#,
                "unknown_field",
            ),
            (r#"{"traffic": {"poisson": {"rate": 1}}}"#, "bad_request"),
        ];
        for (options, code) in cases {
            let body = format!(r#"{{"net": {{"named": "proton_8"}}, "options": {options}}}"#);
            let err = parse_synth(&body, &defaults(), 0).unwrap_err();
            assert_eq!(err.code, code, "options: {options}");
        }
    }

    #[test]
    fn rejects_unknown_and_ill_typed_fields() {
        let cases = [
            (
                r#"{"net": {"named": "proton_8"}, "nett": 1}"#,
                "unknown_field",
            ),
            (
                r#"{"net": {"named": "proton_8"}, "options": {"max_wavelenghts": 4}}"#,
                "unknown_field",
            ),
            (
                r#"{"net": {"named": "proton_8"}, "options": {"max_wavelengths": 2.5}}"#,
                "bad_request",
            ),
            (
                r#"{"net": {"named": "proton_8"}, "options": {"deadline_ms": 0}}"#,
                "bad_request",
            ),
            (r#"{"net": {"named": "andromeda_64"}}"#, "unknown_network"),
            (r#"{"net": {}}"#, "bad_request"),
            (
                r#"{"net": {"positions": [[0,0],[1,1]]}}"#,
                "invalid_network",
            ),
            (r#"not json"#, "bad_json"),
            (r#"[1,2]"#, "bad_request"),
        ];
        for (body, code) in cases {
            let err = parse_synth(body, &defaults(), 0).unwrap_err();
            assert_eq!(err.code, code, "body: {body}");
            assert!(err.status == 400 || err.status == 422);
        }
    }

    /// Parses `body` on its own thread; fails the test if parsing does
    /// not finish within 10 s, instead of hanging the test run.
    fn parse_within_deadline(body: &str) -> Result<SynthesisJob, ProtocolError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let owned = body.to_owned();
        std::thread::spawn(move || {
            let _ = tx.send(parse_synth(&owned, &defaults(), 0));
        });
        rx.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("parsing did not finish ({e}): {body}"))
    }

    #[test]
    fn impossible_or_oversized_networks_are_rejected_before_they_are_built() {
        let too_large = format!(
            r#"{{"net": {{"positions": [{}]}}}}"#,
            (0..=MAX_NODES)
                .map(|i| format!("[{i}, 0]"))
                .collect::<Vec<_>>()
                .join(",")
        );
        let cases = [
            // One 100 µm site cannot hold two distinct nodes: placement
            // used to re-draw forever.
            (
                r#"{"net":{"irregular":{"n":2,"die_um":100,"seed":1}},"options":{"max_wavelengths":8}}"#.to_owned(),
                "invalid_network",
            ),
            (
                r#"{"net": {"irregular": {"n": 100000, "die_um": 100000000, "seed": 1}}}"#
                    .to_owned(),
                "network_too_large",
            ),
            // 2^62 nodes: used to reach the grid's allocation unchecked.
            (
                r#"{"net": {"grid": {"rows": 2147483648, "cols": 2147483648, "pitch_um": 1}}}"#
                    .to_owned(),
                "network_too_large",
            ),
            (too_large, "network_too_large"),
        ];
        for (body, code) in &cases {
            let err = parse_within_deadline(body).expect_err("must be rejected");
            assert_eq!((err.status, err.code), (422, *code), "{}", err.message);
        }
        let at_limit = r#"{"net": {"grid": {"rows": 16, "cols": 16, "pitch_um": 1000}}}"#;
        assert_eq!(
            parse_within_deadline(at_limit).map(|j| j.net.len()),
            Ok(256)
        );
    }

    #[test]
    fn batch_parses_and_caps() {
        let body = r#"{"jobs": [
            {"net": {"named": "proton_8"}},
            {"label": "b", "net": {"named": "psion_16"}}
        ]}"#;
        let jobs = parse_batch(body, &defaults()).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].label, "req-0");
        assert_eq!(jobs[1].label, "b");

        assert_eq!(
            parse_batch(r#"{"jobs": []}"#, &defaults())
                .unwrap_err()
                .status,
            400
        );
        let one = r#"{"net": {"named": "proton_8"}}"#;
        let too_many = format!(
            "{{\"jobs\": [{}]}}",
            vec![one; MAX_BATCH_JOBS + 1].join(",")
        );
        assert_eq!(parse_batch(&too_many, &defaults()).unwrap_err().status, 413);
    }

    #[test]
    fn error_bodies_are_valid_json() {
        let body = render_error(400, "bad_json", "expected ':' at byte 7 in \"x\"");
        let doc = json::parse(&body).expect("error body parses");
        assert_eq!(
            doc.get("error").and_then(|e| e.get("status")),
            Some(&Json::Num(400.0))
        );
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_json")
        );
        let (status, body) = render_job_error("lbl", &JobError::DeadlineExceeded);
        assert_eq!(status, 504);
        let doc = json::parse(&body).expect("deadline body parses");
        assert_eq!(doc.get("label").and_then(Json::as_str), Some("lbl"));
    }
}
