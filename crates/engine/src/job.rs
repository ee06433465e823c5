//! The job model: what a batch runs and what it returns.

use std::sync::Arc;
use std::time::Duration;
use xring_core::{NetworkSpec, SynthesisError, SynthesisOptions, XRingDesign};
use xring_phot::{CrosstalkParams, LossParams, PowerParams, RouterReport};

use crate::metrics::BatchMetrics;

/// One unit of work: synthesize a router for `net` under `options` and
/// evaluate it with the given loss/crosstalk/power parameters.
///
/// The label is carried through to the resulting [`RouterReport`] and the
/// event stream; it does not affect synthesis and is excluded from the
/// design cache key, so two jobs differing only in label share one
/// synthesis.
#[derive(Debug, Clone)]
pub struct SynthesisJob {
    /// Report label (tool/method + router, e.g. `"XRing/8 #wl=4"`).
    pub label: String,
    /// The network to synthesize for.
    pub net: NetworkSpec,
    /// Pipeline configuration, including the optional per-job deadline.
    pub options: SynthesisOptions,
    /// Loss parameters for evaluation.
    pub loss: LossParams,
    /// Crosstalk parameters (`None` disables noise evaluation, as in
    /// Table I's loss-only comparison).
    pub xtalk: Option<CrosstalkParams>,
    /// Power parameters for evaluation.
    pub power: PowerParams,
}

impl SynthesisJob {
    /// A job with default evaluation parameters (the paper's values).
    pub fn new(label: impl Into<String>, net: NetworkSpec, options: SynthesisOptions) -> Self {
        SynthesisJob {
            label: label.into(),
            net,
            options,
            loss: LossParams::default(),
            xtalk: Some(CrosstalkParams::default()),
            power: PowerParams::default(),
        }
    }

    /// Caps this job's wall-clock synthesis time. The deadline is
    /// cooperative: it is checked between pipeline steps and once per
    /// branch-and-bound node, and expiry yields
    /// [`JobError::DeadlineExceeded`] for this job only.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(budget);
        self
    }

    /// Disables crosstalk evaluation for this job.
    pub fn without_crosstalk(mut self) -> Self {
        self.xtalk = None;
        self
    }
}

/// A successful job: the design and its evaluation.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The job's label, echoed back.
    pub label: String,
    /// The synthesized design. Shared (`Arc`) with the cache and with any
    /// other job that hit the same cache entry.
    pub design: Arc<XRingDesign>,
    /// The evaluation report, labelled with [`label`](Self::label).
    pub report: RouterReport,
    /// Wall-clock time this job spent in the worker (near zero on a
    /// cache hit).
    pub wall: Duration,
    /// Whether the design came from the cache.
    pub cache_hit: bool,
    /// How many pipeline phases were replayed from cached artifacts
    /// (0–2: ring and shortcuts). A job replays the artifacts an earlier
    /// job on the same cache stored, such as the first job of its ring
    /// group in a batch; a design-cache hit reports 0.
    pub phases_reused: usize,
}

/// Why a job failed. Failures are per-job: the rest of the batch is
/// unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's wall-clock deadline expired mid-synthesis.
    DeadlineExceeded,
    /// The synthesis pipeline reported an error.
    Synthesis(SynthesisError),
    /// The job panicked; the payload is the panic message. The worker
    /// survives and moves on to the next job.
    Panicked(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::DeadlineExceeded => write!(f, "job deadline expired"),
            JobError::Synthesis(msg) => write!(f, "synthesis failed: {msg}"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<SynthesisError> for JobError {
    fn from(e: SynthesisError) -> Self {
        match e {
            SynthesisError::DeadlineExceeded => JobError::DeadlineExceeded,
            e => JobError::Synthesis(e),
        }
    }
}

/// The result of [`Engine::run_batch`](crate::Engine::run_batch):
/// one outcome per job, in submission order, plus aggregated metrics.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-job outcomes, index-aligned with the submitted jobs.
    pub outcomes: Vec<Result<JobOutput, JobError>>,
    /// Aggregated batch metrics.
    pub metrics: BatchMetrics,
}

impl BatchResult {
    /// The successful outputs, in submission order.
    pub fn successes(&self) -> impl Iterator<Item = &JobOutput> {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_builder_sets_option() {
        let job = SynthesisJob::new(
            "j",
            NetworkSpec::proton_8(),
            SynthesisOptions::with_wavelengths(8),
        )
        .with_deadline(Duration::from_millis(5));
        assert_eq!(job.options.deadline, Some(Duration::from_millis(5)));
    }

    #[test]
    fn synthesis_errors_map_by_kind() {
        assert_eq!(
            JobError::from(SynthesisError::DeadlineExceeded),
            JobError::DeadlineExceeded
        );
        let other = JobError::from(SynthesisError::TooFewNodes { got: 1 });
        assert!(matches!(other, JobError::Synthesis(_)));
    }

    #[test]
    fn errors_display() {
        assert!(JobError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(JobError::Panicked("boom".into())
            .to_string()
            .contains("boom"));
    }
}
