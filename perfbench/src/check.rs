//! Checks on the daemon's replies.
//!
//! Every reply must be a 200 carrying an audit-clean design, exact
//! unless the request allowed degradation. Replies to the same body must
//! agree (a cache hit returns what the miss computed), and a sample of
//! bodies answered exactly is re-synthesized cold through the library
//! after the timed section: the daemon's answer, including designs
//! assembled from replayed phase artifacts, must match it.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;
use xring_core::Synthesizer;
use xring_engine::{JobOutput, SynthesisJob};
use xring_serve::protocol::{self, RequestDefaults};

use crate::workload::Request;

/// The part of a `/synth` reply that depends only on the request: from
/// the degradation level through the evaluation report.
pub fn design_section(reply: &str) -> Option<&str> {
    let start = reply.find("\"degradation\":")?;
    let end = reply.find(",\"queue_us\":")?;
    reply.get(start..end)
}

/// A successful reply and its design section.
pub struct Served {
    pub reply: String,
    pub section: String,
}

impl Served {
    /// Whether the design was produced without degradation.
    pub fn exact(&self) -> bool {
        self.section.starts_with("\"degradation\":\"exact\"")
    }
}

/// Tallies requests and wrong outputs.
#[derive(Default)]
pub struct Checker {
    pub attempted: usize,
    /// Requests that got no design back.
    pub failed: usize,
    /// Wrong outputs, first few kept for the report.
    pub errors: usize,
    first_errors: Vec<String>,
    /// Design section by request body, and requests in first-seen order.
    sections: HashMap<String, String>,
    order: Vec<(&'static str, String)>,
}

impl Checker {
    /// Records one request's outcome; returns the reply when it is a
    /// well-formed success.
    pub fn record(
        &mut self,
        request: &Request,
        reply: io::Result<(u16, String)>,
    ) -> Option<Served> {
        self.attempted += 1;
        let reply = match reply {
            Ok((200, reply)) if !reply.contains("\"error\":{") => reply,
            Ok((status, reply)) => {
                self.failed += 1;
                self.note(format!(
                    "{} {} -> {status}: {reply}",
                    request.path, request.body
                ));
                return None;
            }
            Err(e) => {
                self.failed += 1;
                self.note(format!("{} {} -> {e}", request.path, request.body));
                return None;
            }
        };
        let Some(section) = design_section(&reply).map(str::to_owned) else {
            self.fail(format!("reply without a design: {reply}"));
            return None;
        };
        let served = Served { reply, section };
        let allowed = request.body.contains("\"degradation\":\"allow\"");
        if !served.section.contains("\"audit\":{\"clean\":true") || !(served.exact() || allowed) {
            self.fail(format!("unaudited or degraded design: {}", served.section));
            return None;
        }
        // A degraded design depends on when the deadline struck, so only
        // exact ones must repeat.
        if served.exact() {
            self.expect_section(request.path, &request.body, &served.section);
        }
        Some(served)
    }

    /// Records a wrong output.
    pub fn fail(&mut self, message: String) {
        self.errors += 1;
        self.note(message);
    }

    fn note(&mut self, message: String) {
        if self.first_errors.len() < 5 {
            self.first_errors.push(message);
        }
    }

    fn expect_section(&mut self, path: &'static str, body: &str, section: &str) {
        match self.sections.get(body) {
            Some(seen) if seen != section => {
                self.fail(format!("two different designs for one request: {body}"));
            }
            Some(_) => {}
            None => {
                self.sections.insert(body.to_owned(), section.to_owned());
                self.order.push((path, body.to_owned()));
            }
        }
    }

    /// Folds another client's tally into this one, checking that the two
    /// agree on every body both sent.
    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors += other.errors;
        for message in other.first_errors {
            self.note(message);
        }
        for (path, body) in other.order {
            let section = &other.sections[&body];
            self.expect_section(path, &body, section);
        }
    }

    /// Re-synthesizes `samples` evenly spaced distinct bodies cold
    /// through the library and compares them with the daemon's replies.
    pub fn verify_sample(&mut self, samples: usize) {
        let step = (self.order.len() / samples.max(1)).max(1);
        let picked: Vec<(&str, String)> = self
            .order
            .iter()
            .step_by(step)
            .take(samples)
            .cloned()
            .collect();
        for (path, body) in picked {
            match reference_section(path, &body) {
                Ok(section) if section == self.sections[&body] => {}
                Ok(_) => self.fail(format!("daemon differs from cold synthesis on {body}")),
                Err(e) => self.fail(format!("cold synthesis of {body} failed: {e}")),
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.errors == 0
    }

    /// The first problems seen, for stderr.
    pub fn first_errors(&self) -> &[String] {
        &self.first_errors
    }
}

/// Decodes a request body into its (first) job, as the daemon does.
pub fn parse_job(path: &str, body: &str) -> Result<SynthesisJob, String> {
    let defaults = RequestDefaults::default();
    let job = if path == "/batch" {
        protocol::parse_batch(body, &defaults).map(|jobs| jobs.into_iter().next())
    } else {
        protocol::parse_synth(body, &defaults, 0).map(Some)
    };
    job.map_err(|e| e.message)?
        .ok_or_else(|| "empty batch".to_owned())
}

fn reference_section(path: &str, body: &str) -> Result<String, String> {
    let mut job = parse_job(path, body)?;
    // Only exact answers are sampled, and a deadline never alters a
    // synthesis that finishes within it; without one, a slow moment here
    // cannot turn the reference into a degraded design.
    job.options.deadline = None;
    let design = Synthesizer::new(job.options.clone())
        .synthesize(&job.net)
        .map_err(|e| e.to_string())?;
    let report = design.report(job.label.clone(), &job.loss, job.xtalk.as_ref(), &job.power);
    let out = JobOutput {
        label: job.label,
        design: Arc::new(design),
        report,
        wall: Duration::ZERO,
        cache_hit: false,
        phases_reused: 0,
    };
    let rendered = protocol::render_output(&out, 0, 0);
    design_section(&rendered)
        .map(str::to_owned)
        .ok_or_else(|| "rendered output has no design section".to_owned())
}
