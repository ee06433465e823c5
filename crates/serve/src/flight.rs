//! The flight recorder: a bounded ring of recent request records plus a
//! tail-sampler that retains full span traces for the requests worth
//! debugging (slow, degraded, shed, or errored).
//!
//! The `/metrics` endpoint answers "how is the daemon doing"; the flight
//! recorder answers "what happened to *that* request". Every handled
//! request pushes one [`RequestRecord`] — id, route, spec hash, status,
//! degradation, queue/wall/per-phase timing, audit verdict — into a ring
//! of the most recent `capacity` records. The ring uses one atomic
//! cursor plus per-slot mutexes: writers never contend on a shared lock
//! beyond their own slot, so recording stays off the handler's critical
//! path even under 4-way concurrency.
//!
//! Full span traces are too large to keep for every request, and the
//! requests that need them are precisely the unusual ones. The
//! [`TailSampler`] keeps the exported JSONL trace only for requests
//! flagged slow / degraded / shed / errored ("tail-based" sampling: the
//! keep decision happens after the outcome is known), bounded to the
//! most recent `capacity` traces.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use xring_obs::json_escape;

/// One handled request, as remembered by the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The request id (32 lowercase hex digits).
    pub id: String,
    /// The route handled (`/synth`, `/batch`, …).
    pub route: String,
    /// FNV-1a 64 hash of the request body, so identical specs can be
    /// correlated across requests without storing the spec itself.
    pub spec_hash: u64,
    /// The HTTP status returned.
    pub status: u16,
    /// The degradation level of the served design, when one was served.
    pub degradation: Option<String>,
    /// Queue wait, in microseconds.
    pub queue_us: u64,
    /// Wall time from dequeue to response, in microseconds.
    pub wall_us: u64,
    /// Per-phase inclusive wall time in microseconds, from the
    /// request-scoped trace (phase name → µs), sorted by name.
    pub phases: Vec<(String, u64)>,
    /// Synthesis phases reused from the incremental cache.
    pub phases_reused: u64,
    /// Audit verdict of the served design (`None` when no design was
    /// produced, e.g. shed or parse-error requests).
    pub audit_clean: Option<bool>,
    /// Wall time exceeded the recorder's slow threshold.
    pub slow: bool,
    /// The served design was degraded below `Exact`.
    pub degraded: bool,
    /// The request was shed by admission control (429).
    pub shed: bool,
    /// The request errored (status ≥ 400, other than shed).
    pub errored: bool,
    /// A full span trace was retained by the tail-sampler.
    pub sampled: bool,
}

impl RequestRecord {
    /// `true` when the tail-sampler should keep this request's full
    /// trace: something unusual happened.
    pub fn tail_worthy(&self) -> bool {
        self.slow || self.degraded || self.shed || self.errored
    }

    /// Renders the record as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"id\":\"");
        out.push_str(&json_escape(&self.id));
        out.push_str("\",\"route\":\"");
        out.push_str(&json_escape(&self.route));
        out.push_str(&format!(
            "\",\"spec_hash\":\"{:016x}\",\"status\":{}",
            self.spec_hash, self.status
        ));
        match &self.degradation {
            Some(level) => {
                out.push_str(",\"degradation\":\"");
                out.push_str(&json_escape(level));
                out.push('"');
            }
            None => out.push_str(",\"degradation\":null"),
        }
        out.push_str(&format!(
            ",\"queue_us\":{},\"wall_us\":{},\"phases\":{{",
            self.queue_us, self.wall_us
        ));
        for (i, (name, us)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(name));
            out.push_str(&format!("\":{us}"));
        }
        out.push_str(&format!("}},\"phases_reused\":{}", self.phases_reused));
        out.push_str(",\"audit_clean\":");
        match self.audit_clean {
            Some(true) => out.push_str("true"),
            Some(false) => out.push_str("false"),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"slow\":{},\"degraded\":{},\"shed\":{},\"errored\":{},\"sampled\":{}}}",
            self.slow, self.degraded, self.shed, self.errored, self.sampled
        ));
        out
    }
}

/// A bounded ring of the most recent [`RequestRecord`]s.
///
/// Push order is serialized by an atomic cursor (`fetch_add` assigns
/// each record a unique slot); each slot has its own mutex, so two
/// handler threads recording concurrently only contend when the ring
/// has wrapped all the way around between them.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<RequestRecord>>>,
    cursor: AtomicU64,
}

impl FlightRecorder {
    /// A recorder remembering the most recent `capacity` requests
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (≥ the number currently retained).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records one request, evicting the oldest record once full.
    pub fn push(&self, record: RequestRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(record);
    }

    /// The retained records, most recent first.
    pub fn snapshot(&self) -> Vec<RequestRecord> {
        let pushed = self.cursor.load(Ordering::Relaxed);
        let len = self.slots.len() as u64;
        let mut out = Vec::with_capacity(len.min(pushed) as usize);
        // Walk backwards from the most recently assigned slot.
        let newest = pushed.saturating_sub(1);
        for back in 0..len.min(pushed) {
            let seq = newest - back;
            let slot = (seq % len) as usize;
            let guard = self.slots[slot]
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(record) = guard.clone() {
                out.push(record);
            }
        }
        out
    }

    /// The most recent record with this id, if still retained.
    pub fn find(&self, id: &str) -> Option<RequestRecord> {
        self.snapshot().into_iter().find(|r| r.id == id)
    }
}

/// Tail-based trace sampler: keeps the full JSONL span trace of the most
/// recent `capacity` requests whose records were
/// [`tail_worthy`](RequestRecord::tail_worthy).
#[derive(Debug)]
pub struct TailSampler {
    capacity: usize,
    kept: Mutex<VecDeque<(String, String)>>,
    considered: AtomicU64,
    retained: AtomicU64,
}

impl TailSampler {
    /// A sampler retaining at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TailSampler {
            capacity: capacity.max(1),
            kept: Mutex::new(VecDeque::new()),
            considered: AtomicU64::new(0),
            retained: AtomicU64::new(0),
        }
    }

    /// Offers one finished request; keeps `trace_jsonl` iff the record
    /// is tail-worthy. Returns whether the trace was kept.
    pub fn offer(&self, record: &RequestRecord, trace_jsonl: &str) -> bool {
        self.considered.fetch_add(1, Ordering::Relaxed);
        if !record.tail_worthy() {
            return false;
        }
        self.retained.fetch_add(1, Ordering::Relaxed);
        let mut kept = self
            .kept
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if kept.len() == self.capacity {
            kept.pop_front();
        }
        kept.push_back((record.id.clone(), trace_jsonl.to_owned()));
        true
    }

    /// The retained trace for this request id, if any.
    pub fn get(&self, id: &str) -> Option<String> {
        self.kept
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .rev()
            .find(|(kept_id, _)| kept_id == id)
            .map(|(_, trace)| trace.clone())
    }

    /// Ids with a retained trace, most recent first.
    pub fn ids(&self) -> Vec<String> {
        self.kept
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .rev()
            .map(|(id, _)| id.clone())
            .collect()
    }

    /// Requests offered so far.
    pub fn considered(&self) -> u64 {
        self.considered.load(Ordering::Relaxed)
    }

    /// Traces kept so far (≥ the number currently retained).
    pub fn retained(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xring_core::fnv1a64;

    fn record(id: &str, wall_us: u64, slow: bool) -> RequestRecord {
        RequestRecord {
            id: id.to_owned(),
            route: "/synth".to_owned(),
            spec_hash: fnv1a64(id.as_bytes()),
            status: 200,
            degradation: Some("exact".to_owned()),
            queue_us: 5,
            wall_us,
            phases: vec![("ring-milp".to_owned(), wall_us / 2)],
            phases_reused: 0,
            audit_clean: Some(true),
            slow,
            degraded: false,
            shed: false,
            errored: false,
            sampled: false,
        }
    }

    #[test]
    fn ring_retains_most_recent_and_evicts_oldest() {
        let flight = FlightRecorder::new(4);
        assert_eq!(flight.capacity(), 4);
        assert!(flight.snapshot().is_empty());
        for i in 0..10 {
            flight.push(record(&format!("req-{i}"), i, false));
        }
        assert_eq!(flight.pushed(), 10);
        let snap = flight.snapshot();
        assert_eq!(snap.len(), 4, "bounded by capacity");
        let ids: Vec<&str> = snap.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["req-9", "req-8", "req-7", "req-6"]);
        assert!(flight.find("req-9").is_some());
        assert!(flight.find("req-0").is_none(), "evicted");
    }

    #[test]
    fn concurrent_pushes_never_exceed_capacity() {
        let flight = FlightRecorder::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let flight = &flight;
                scope.spawn(move || {
                    for i in 0..50 {
                        flight.push(record(&format!("t{t}-{i}"), i, false));
                    }
                });
            }
        });
        assert_eq!(flight.pushed(), 200);
        assert_eq!(flight.snapshot().len(), 8);
    }

    #[test]
    fn record_renders_valid_looking_json() {
        let mut r = record("abc", 1234, true);
        r.audit_clean = None;
        r.degradation = None;
        let json = r.to_json();
        assert!(json.starts_with("{\"id\":\"abc\""));
        assert!(json.contains("\"degradation\":null"));
        assert!(json.contains("\"phases\":{\"ring-milp\":617}"));
        assert!(json.contains("\"audit_clean\":null"));
        assert!(json.contains("\"slow\":true"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn tail_sampler_keeps_only_unusual_requests() {
        let tail = TailSampler::new(2);
        assert!(!tail.offer(&record("fast", 10, false), "trace-fast"));
        assert!(tail.offer(&record("slow-1", 10_000, true), "trace-1"));
        let mut degraded = record("degraded-1", 10, false);
        degraded.degraded = true;
        assert!(tail.offer(&degraded, "trace-2"));
        let mut shed = record("shed-1", 0, false);
        shed.shed = true;
        assert!(tail.offer(&shed, "trace-3"), "shed is tail-worthy");
        assert_eq!(tail.considered(), 4);
        assert_eq!(tail.retained(), 3);
        // Capacity 2: the oldest kept trace fell off.
        assert!(tail.get("slow-1").is_none());
        assert_eq!(tail.get("degraded-1").as_deref(), Some("trace-2"));
        assert_eq!(tail.get("shed-1").as_deref(), Some("trace-3"));
        assert_eq!(tail.ids(), ["shed-1", "degraded-1"]);
        assert!(tail.get("fast").is_none());
    }
}
