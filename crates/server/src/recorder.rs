//! The flight recorder: a bounded ring of recently completed requests
//! plus a slow-query log, dumped as JSON from the admin endpoint.
//!
//! Post-hoc debugging of a serving incident needs two different
//! memories: *breadth* — what were the last N requests, per tenant,
//! and how long did they take — and *depth* — for the pathological
//! ones, where inside the request did the time go. The recorder keeps
//! both in fixed space: every completed request lands in the main ring
//! as one compact [`FlightEntry`] (tenant, opcode, outcome, latency,
//! per-phase summary), and requests over the slow threshold
//! additionally keep their full span tree in a second, smaller ring.
//! Both rings evict oldest-first and count what they evicted, so a
//! dump is honest about what it no longer remembers.
//!
//! The write path is one short uncontended mutex hold per completed
//! request — no allocation for an untraced request (the entry shares
//! its tenant's name and the ring is preallocated), no I/O, no
//! formatting; JSON rendering happens only when an operator asks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cpplookup_obs::Span;

use crate::farm::json_str;

/// One completed request, as the main ring remembers it.
#[derive(Clone, Debug)]
pub struct FlightEntry {
    /// Monotonic sequence number, assigned at completion.
    pub seq: u64,
    /// The tenant the request addressed (empty for tenant-less ops),
    /// shared with the tenant itself rather than copied per request.
    pub tenant: Arc<str>,
    /// Operation label (`query`, `batch`, `edit`, …).
    pub op: &'static str,
    /// `ok`, or the error code label the client was sent.
    pub outcome: &'static str,
    /// End-to-end service latency in nanoseconds (first byte after the
    /// length prefix to response fully written).
    pub latency_ns: u64,
    /// Per-phase durations from the request's span tree (children of
    /// the root span, in recorded order); empty when untraced.
    pub phases: Vec<(String, u64)>,
}

/// A slow request: the ring entry plus its full span tree.
#[derive(Clone, Debug)]
pub struct SlowEntry {
    /// The compact entry, as in the main ring.
    pub entry: FlightEntry,
    /// The complete span tree (may be empty if the request was not
    /// traced and no phase stamps were available).
    pub spans: Vec<Span>,
}

/// Slow-query log size: the most recent slow requests whose full span
/// trees the recorder keeps.
const SLOW_CAPACITY: usize = 64;

/// Fixed-size recorder of recent and slow requests.
pub struct FlightRecorder {
    capacity: usize,
    slow_threshold_ns: u64,
    seq: AtomicU64,
    dropped: AtomicU64,
    slow_seen: AtomicU64,
    ring: Mutex<VecDeque<FlightEntry>>,
    slow: Mutex<VecDeque<SlowEntry>>,
}

impl FlightRecorder {
    /// A recorder remembering the last `capacity` requests (clamped to
    /// at least 1) and the last 64 requests at or over
    /// `slow_threshold_ns`.
    pub fn new(capacity: usize, slow_threshold_ns: u64) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            slow_threshold_ns,
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slow_seen: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_CAPACITY)),
        }
    }

    /// The slow-query threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// Records one completed request. `spans` is the request's span
    /// tree (root first) when it was traced, empty otherwise.
    pub fn record(
        &self,
        tenant: impl Into<Arc<str>>,
        op: &'static str,
        outcome: &'static str,
        latency_ns: u64,
        spans: &[Span],
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let root = spans.first().map(|s| s.id);
        let phases = spans
            .iter()
            .filter(|s| s.parent.is_some() && s.parent == root)
            .map(|s| (s.label.clone(), s.duration_ns))
            .collect();
        let entry = FlightEntry {
            seq,
            tenant: tenant.into(),
            op,
            outcome,
            latency_ns,
            phases,
        };
        if latency_ns >= self.slow_threshold_ns {
            self.slow_seen.fetch_add(1, Ordering::Relaxed);
            let mut slow = self.slow.lock().expect("slow ring poisoned");
            if slow.len() == SLOW_CAPACITY {
                slow.pop_front();
            }
            slow.push_back(SlowEntry {
                entry: entry.clone(),
                spans: spans.to_vec(),
            });
        }
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(entry);
    }

    /// Total requests recorded since startup.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Entries evicted from the main ring since startup.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Requests that met the slow threshold since startup.
    pub fn slow_seen(&self) -> u64 {
        self.slow_seen.load(Ordering::Relaxed)
    }

    /// Entries currently held in the main ring.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    /// Whether nothing has been recorded (or everything evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole recorder as one JSON document.
    pub fn to_json(&self) -> String {
        let ring = self.ring.lock().expect("flight ring poisoned").clone();
        let slow = self.slow.lock().expect("slow ring poisoned").clone();
        let mut out = String::with_capacity(256 + ring.len() * 96);
        out.push_str(&format!(
            "{{\"capacity\":{},\"recorded\":{},\"dropped\":{},\
             \"slow_threshold_ns\":{},\"slow_capacity\":{},\"slow_recorded\":{},",
            self.capacity,
            self.recorded(),
            self.dropped(),
            self.slow_threshold_ns,
            SLOW_CAPACITY,
            self.slow_seen(),
        ));
        out.push_str("\"requests\":[");
        for (i, e) in ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            entry_json(&mut out, e);
        }
        out.push_str("],\"slow\":[");
        for (i, s) in slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut doc = String::new();
            entry_json(&mut doc, &s.entry);
            // Splice the span tree into the entry document.
            doc.pop(); // trailing '}'
            doc.push_str(",\"tree\":[");
            for (j, span) in s.spans.iter().enumerate() {
                if j > 0 {
                    doc.push(',');
                }
                span_json(&mut doc, span);
            }
            doc.push_str("]}");
            out.push_str(&doc);
        }
        out.push_str("]}");
        out
    }
}

fn entry_json(out: &mut String, e: &FlightEntry) {
    out.push_str(&format!(
        "{{\"seq\":{},\"tenant\":{},\"op\":\"{}\",\"outcome\":\"{}\",\"latency_ns\":{},\"phases\":{{",
        e.seq,
        json_str(&e.tenant),
        e.op,
        e.outcome,
        e.latency_ns,
    ));
    for (i, (label, ns)) in e.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_str(label), ns));
    }
    out.push_str("}}");
}

fn span_json(out: &mut String, s: &Span) {
    out.push_str(&format!(
        "{{\"id\":{},\"parent\":{},\"label\":{},\"start_ns\":{},\"duration_ns\":{}}}",
        s.id,
        s.parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string()),
        json_str(&s.label),
        s.start_ns,
        s.duration_ns,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, label: &str, start_ns: u64, duration_ns: u64) -> Span {
        Span {
            id,
            parent,
            label: label.to_owned(),
            start_ns,
            duration_ns,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let r = FlightRecorder::new(2, u64::MAX);
        r.record("a", "query", "ok", 10, &[]);
        r.record("b", "query", "ok", 20, &[]);
        r.record("c", "query", "ok", 30, &[]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.recorded(), 3);
        assert_eq!(r.dropped(), 1);
        let json = r.to_json();
        assert!(!json.contains("\"tenant\":\"a\""), "oldest evicted: {json}");
        assert!(json.contains("\"tenant\":\"b\""));
        assert!(json.contains("\"tenant\":\"c\""));
        assert!(json.contains("\"dropped\":1"));
    }

    #[test]
    fn slow_requests_keep_their_full_tree() {
        let r = FlightRecorder::new(8, 1_000);
        let tree = vec![
            span(0, None, "request", 0, 1_500),
            span(1, Some(0), "frame_decode", 0, 500),
            span(2, Some(0), "directory_probe", 500, 1_000),
        ];
        r.record("t", "query", "ok", 999, &[]);
        r.record("t", "query", "ok", 1_500, &tree);
        assert_eq!(r.slow_seen(), 1);
        let json = r.to_json();
        assert!(json.contains("\"slow_recorded\":1"));
        assert!(
            json.contains("\"tree\":[{\"id\":0,\"parent\":null,\"label\":\"request\""),
            "{json}"
        );
        assert!(json.contains("\"label\":\"directory_probe\""));
        // Phase summary in the compact entry comes from root children.
        assert!(json.contains("\"phases\":{\"frame_decode\":500,\"directory_probe\":1000}"));
    }

    #[test]
    fn hostile_tenant_names_stay_valid_json() {
        let r = FlightRecorder::new(4, u64::MAX);
        r.record("evil\"\n\\tenant", "query", "no_such_tenant", 5, &[]);
        let json = r.to_json();
        assert!(
            json.contains("\"tenant\":\"evil\\\"\\n\\\\tenant\""),
            "{json}"
        );
    }

    #[test]
    fn untraced_entries_have_empty_phases() {
        let r = FlightRecorder::new(4, u64::MAX);
        r.record("t", "edit", "ok", 7, &[]);
        assert!(r.to_json().contains("\"phases\":{}"));
        assert!(!r.is_empty());
    }
}
