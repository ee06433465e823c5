//! Batch metrics aggregation and the optional event stream.

use std::io::Write;
use std::sync::Mutex;
use std::time::Duration;
// One JSON escaper for every JSONL surface in the workspace: this sink
// and the `--trace` exporter escape identically.
use xring_obs::json_escape;

use crate::job::{JobError, JobOutput};

/// Aggregated statistics for one [`run_batch`](crate::Engine::run_batch)
/// call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchMetrics {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that produced a design.
    pub succeeded: usize,
    /// Jobs that failed (deadline, synthesis error or panic).
    pub failed: usize,
    /// Jobs served from the design cache.
    pub cache_hits: usize,
    /// Jobs that had to synthesize.
    pub cache_misses: usize,
    /// Wall-clock time of the whole batch.
    pub batch_wall: Duration,
    /// Sum of per-job wall times (≥ `batch_wall` under parallelism).
    pub total_job_wall: Duration,
    /// The slowest single job.
    pub max_job_wall: Duration,
    /// Branch-and-bound nodes explored, summed over the jobs that solved
    /// their ring (no design-cache hit, no replayed ring).
    pub milp_nodes: usize,
    /// LP relaxations solved, summed over those jobs.
    pub milp_lp_solves: usize,
    /// Lazy conflict constraints separated, summed over those jobs.
    pub milp_lazy_cuts: usize,
    /// LP solves that adopted a parent basis (warm starts), summed over
    /// those jobs.
    pub milp_warm_starts: usize,
    /// LP solves that were offered a parent basis, summed over those
    /// jobs — the denominator of the warm-start rate.
    pub milp_warm_eligible: usize,
    /// Successful jobs whose design came from the perturbed-objective
    /// MILP retry (provenance [`DegradationLevel::RetriedPerturbed`]).
    ///
    /// [`DegradationLevel::RetriedPerturbed`]:
    /// xring_core::DegradationLevel::RetriedPerturbed
    pub degraded_retried: usize,
    /// Successful jobs whose design fell back to the heuristic ring
    /// (provenance [`DegradationLevel::Heuristic`]).
    ///
    /// [`DegradationLevel::Heuristic`]:
    /// xring_core::DegradationLevel::Heuristic
    pub degraded_heuristic: usize,
    /// Median queue wait (batch submission to worker pickup), in
    /// microseconds, across all jobs. Percentiles come from the
    /// engine's always-on lock-free queue-wait histogram, replacing
    /// the old single last-write-wins gauge sample.
    pub queue_wait_p50_us: u64,
    /// 90th-percentile queue wait, in microseconds.
    pub queue_wait_p90_us: u64,
    /// 99th-percentile queue wait, in microseconds.
    pub queue_wait_p99_us: u64,
    /// Largest queue wait, in microseconds.
    pub queue_wait_max_us: u64,
    /// Jobs that solved their ring MILP and whose solve carried convergence
    /// telemetry (0 when telemetry was off; see
    /// [`RingStats::convergence`](xring_core::RingStats)).
    pub convergence_reports: usize,
    /// Worst (largest) final MILP optimality gap across those jobs.
    pub milp_final_gap_max: f64,
    /// Worst time-to-first-incumbent across those jobs.
    pub milp_time_to_incumbent_max: Duration,
}

impl BatchMetrics {
    /// Folds one job outcome into the aggregate.
    pub(crate) fn record(&mut self, outcome: &Result<JobOutput, JobError>) {
        self.jobs += 1;
        match outcome {
            Ok(out) => {
                self.succeeded += 1;
                self.total_job_wall += out.wall;
                self.max_job_wall = self.max_job_wall.max(out.wall);
                match out.design.provenance.degradation {
                    xring_core::DegradationLevel::Exact => {}
                    xring_core::DegradationLevel::RetriedPerturbed => self.degraded_retried += 1,
                    xring_core::DegradationLevel::Heuristic => self.degraded_heuristic += 1,
                }
                if out.cache_hit {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
                // A replayed ring carries the statistics of the job that
                // solved it, which counted them already.
                if !out.cache_hit && out.phases_reused == 0 {
                    let s = &out.design.ring_stats;
                    self.milp_nodes += s.milp_nodes;
                    self.milp_lp_solves += s.lp_solves;
                    self.milp_lazy_cuts += s.lazy_cuts;
                    self.milp_warm_starts += s.lp_warm_starts;
                    self.milp_warm_eligible += s.lp_warm_eligible;
                    if let Some(conv) = &s.convergence {
                        self.convergence_reports += 1;
                        if let Some(gap) = conv.final_gap {
                            self.milp_final_gap_max = self.milp_final_gap_max.max(gap);
                        }
                        if let Some(t) = conv.time_to_first_incumbent {
                            self.milp_time_to_incumbent_max =
                                self.milp_time_to_incumbent_max.max(t);
                        }
                    }
                }
            }
            Err(_) => {
                self.failed += 1;
                self.cache_misses += 1;
            }
        }
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} jobs ({} ok, {} failed) in {:.3}s; cache {}/{} hit; \
             milp: {} nodes, {} lp solves, {} lazy cuts; \
             degraded: {} retried, {} heuristic; \
             queue wait p50/p99/max: {}/{}/{} us",
            self.jobs,
            self.succeeded,
            self.failed,
            self.batch_wall.as_secs_f64(),
            self.cache_hits,
            self.jobs,
            self.milp_nodes,
            self.milp_lp_solves,
            self.milp_lazy_cuts,
            self.degraded_retried,
            self.degraded_heuristic,
            self.queue_wait_p50_us,
            self.queue_wait_p99_us,
            self.queue_wait_max_us,
        );
        if self.convergence_reports > 0 {
            line.push_str(&format!(
                "; convergence ({} solves): worst gap {:.4}, worst tti {:.3}s",
                self.convergence_reports,
                self.milp_final_gap_max,
                self.milp_time_to_incumbent_max.as_secs_f64(),
            ));
        }
        line
    }
}

/// One engine event, emitted as jobs progress.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A worker picked up job `index`.
    JobStarted {
        /// Submission index of the job.
        index: usize,
        /// The job's label.
        label: String,
    },
    /// Job `index` finished (either way).
    JobFinished {
        /// Submission index of the job.
        index: usize,
        /// The job's label.
        label: String,
        /// `"ok"`, `"deadline"`, `"error"` or `"panic"`.
        status: &'static str,
        /// Whether the cache served the design.
        cache_hit: bool,
        /// The design's degradation level (`"exact"`, `"retried"` or
        /// `"heuristic"`); `"-"` when the job failed.
        degradation: &'static str,
        /// Wall-clock time spent on this job.
        wall: Duration,
    },
    /// The whole batch completed.
    BatchFinished {
        /// The final aggregate.
        metrics: BatchMetrics,
    },
}

/// Receiver for [`EngineEvent`]s. Implementations must be thread-safe:
/// workers emit concurrently.
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn emit(&self, event: &EngineEvent);
}

/// An [`EventSink`] writing one JSON object per line, suitable for
/// `xring batch --metrics-jsonl`.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Unwraps the writer (flushing is the caller's concern).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("sink lock")
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, event: &EngineEvent) {
        let line = match event {
            EngineEvent::JobStarted { index, label } => format!(
                r#"{{"event":"job_started","index":{index},"label":"{}"}}"#,
                json_escape(label)
            ),
            EngineEvent::JobFinished {
                index,
                label,
                status,
                cache_hit,
                degradation,
                wall,
            } => format!(
                r#"{{"event":"job_finished","index":{index},"label":"{}","status":"{status}","cache_hit":{cache_hit},"degradation":"{degradation}","wall_s":{}}}"#,
                json_escape(label),
                wall.as_secs_f64()
            ),
            EngineEvent::BatchFinished { metrics: m } => format!(
                r#"{{"event":"batch_finished","jobs":{},"succeeded":{},"failed":{},"cache_hits":{},"cache_misses":{},"batch_wall_s":{},"total_job_wall_s":{},"max_job_wall_s":{},"milp_nodes":{},"milp_lp_solves":{},"milp_lazy_cuts":{},"milp_warm_starts":{},"milp_warm_eligible":{},"degraded_retried":{},"degraded_heuristic":{},"queue_wait_p50_us":{},"queue_wait_p90_us":{},"queue_wait_p99_us":{},"queue_wait_max_us":{},"convergence_reports":{},"milp_final_gap_max":{},"milp_time_to_incumbent_max_s":{}}}"#,
                m.jobs,
                m.succeeded,
                m.failed,
                m.cache_hits,
                m.cache_misses,
                m.batch_wall.as_secs_f64(),
                m.total_job_wall.as_secs_f64(),
                m.max_job_wall.as_secs_f64(),
                m.milp_nodes,
                m.milp_lp_solves,
                m.milp_lazy_cuts,
                m.milp_warm_starts,
                m.milp_warm_eligible,
                m.degraded_retried,
                m.degraded_heuristic,
                m.queue_wait_p50_us,
                m.queue_wait_p90_us,
                m.queue_wait_p99_us,
                m.queue_wait_max_us,
                m.convergence_reports,
                m.milp_final_gap_max,
                m.milp_time_to_incumbent_max.as_secs_f64(),
            ),
        };
        let mut w = self.writer.lock().expect("sink lock");
        let _ = writeln!(w, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_wellformed() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(&EngineEvent::JobStarted {
            index: 0,
            label: "a \"quoted\"\nlabel".into(),
        });
        sink.emit(&EngineEvent::JobFinished {
            index: 0,
            label: "x".into(),
            status: "ok",
            cache_hit: true,
            degradation: "exact",
            wall: Duration::from_millis(2),
        });
        sink.emit(&EngineEvent::BatchFinished {
            metrics: BatchMetrics {
                jobs: 1,
                succeeded: 1,
                ..Default::default()
            },
        });
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#"\"quoted\"\n"#));
        assert!(lines[1].contains(r#""status":"ok""#));
        assert!(lines[1].contains(r#""degradation":"exact""#));
        assert!(lines[2].contains(r#""event":"batch_finished""#));
        assert!(lines[2].contains(r#""degraded_retried":0"#));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            // Balanced quotes: an even count of unescaped '"'.
            let unescaped = l
                .replace("\\\\", "")
                .replace("\\\"", "")
                .matches('"')
                .count();
            assert_eq!(unescaped % 2, 0, "line: {l}");
        }
    }

    #[test]
    fn record_aggregates_both_ways() {
        let mut m = BatchMetrics::default();
        m.record(&Err(JobError::DeadlineExceeded));
        assert_eq!(m.jobs, 1);
        assert_eq!(m.failed, 1);
        assert_eq!(m.cache_misses, 1);
        assert!(m.summary().contains("1 jobs"));
    }
}
