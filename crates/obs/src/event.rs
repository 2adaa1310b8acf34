//! Structured query-trace events and pluggable sinks.
//!
//! Metrics aggregate; events narrate. A sink registered with the
//! engine receives one [`Event`] per interesting moment of a query or
//! edit — query start/end, cache hits, ambiguity encounters, and
//! edit-applied records carrying dirty-set sizes. Identifiers are raw `u32` indices (the obs crate
//! has no access to the hierarchy's name tables); consumers that want
//! names resolve them against their own `Chg`.
//!
//! The engine holds sinks as `Arc<dyn EventSink>` and calls
//! [`record`](EventSink::record) inline on the query path, so sinks
//! must be cheap and `Send + Sync`. When no sink is installed the
//! engine skips event construction entirely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json;

/// One structured observation from the lookup engine.
///
/// `class`/`member` fields are the engine's raw index values
/// (`ClassId`/`MemberId` interiors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A lookup began.
    QueryStart {
        /// Queried class index.
        class: u32,
        /// Queried member-name index.
        member: u32,
    },
    /// A lookup finished.
    QueryEnd {
        /// Queried class index.
        class: u32,
        /// Queried member-name index.
        member: u32,
        /// `"resolved"`, `"ambiguous"`, or `"not_found"`.
        outcome: &'static str,
        /// Wall-clock duration: the engine times every query while a
        /// sink is installed.
        nanos: u64,
    },
    /// The engine's table answered a query (it is complete, so every
    /// query is a hit).
    CacheHit,
    /// A lookup produced an ambiguous (blue, |set| > 1) entry.
    AmbiguityEncountered {
        /// Class whose entry is ambiguous.
        class: u32,
        /// Member-name index.
        member: u32,
    },
    /// An edit batch was applied to the engine.
    EditApplied {
        /// Number of primitive edits in the batch.
        edits: usize,
        /// Size of the dirty closure (all (class, member) pairs whose
        /// entries may have changed).
        dirty: usize,
        /// Entries the edit replaced or dropped.
        invalidated: usize,
        /// Entries recomputed as present.
        recomputed: usize,
        /// Engine generation after the edit.
        generation: u64,
    },
}

impl Event {
    /// A short machine-readable tag naming the variant.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::QueryStart { .. } => "query_start",
            Event::QueryEnd { .. } => "query_end",
            Event::CacheHit => "cache_hit",
            Event::AmbiguityEncountered { .. } => "ambiguity",
            Event::EditApplied { .. } => "edit_applied",
        }
    }

    /// The event as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"event\":");
        json::escape_into(self.kind(), &mut out);
        match self {
            Event::QueryStart { class, member } => {
                out.push_str(&format!(",\"class\":{class},\"member\":{member}"));
            }
            Event::QueryEnd {
                class,
                member,
                outcome,
                nanos,
            } => {
                out.push_str(&format!(
                    ",\"class\":{class},\"member\":{member},\"outcome\":\"{outcome}\",\"nanos\":{nanos}"
                ));
            }
            Event::CacheHit => {}
            Event::AmbiguityEncountered { class, member } => {
                out.push_str(&format!(",\"class\":{class},\"member\":{member}"));
            }
            Event::EditApplied {
                edits,
                dirty,
                invalidated,
                recomputed,
                generation,
            } => {
                out.push_str(&format!(
                    ",\"edits\":{edits},\"dirty\":{dirty},\"invalidated\":{invalidated},\"recomputed\":{recomputed},\"generation\":{generation}"
                ));
            }
        }
        out.push('}');
        out
    }
}

/// A consumer of engine events.
///
/// Implementations are called inline from query hot paths and must be
/// cheap; anything expensive (I/O, formatting) belongs behind a buffer
/// or a channel inside the sink.
pub trait EventSink: Send + Sync {
    /// Receives one event.
    fn record(&self, event: &Event);
}

/// A sink that drops everything (the explicit "no tracing" choice).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// A sink that counts events without storing them — for overhead
/// measurement and smoke tests.
#[derive(Debug, Default)]
pub struct CountingSink {
    count: AtomicU64,
}

impl CountingSink {
    /// A fresh sink at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl EventSink for CountingSink {
    fn record(&self, _event: &Event) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A sink that buffers events in memory, capped so a runaway workload
/// cannot exhaust the process. Events past the cap are counted but
/// dropped.
#[derive(Debug)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
    cap: usize,
    dropped: AtomicU64,
}

impl MemorySink {
    /// The default buffer cap (events).
    pub const DEFAULT_CAP: usize = 1 << 16;

    /// A sink with the default cap.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// A sink that keeps at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        MemorySink {
            events: Mutex::new(Vec::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// A copy of the buffered events, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("sink lock poisoned").clone()
    }

    /// Drains and returns the buffered events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("sink lock poisoned"))
    }

    /// Events discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Default for MemorySink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for MemorySink {
    fn record(&self, event: &Event) {
        let mut events = self.events.lock().expect("sink lock poisoned");
        if events.len() < self.cap {
            events.push(event.clone());
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_json_objects() {
        let cases = [
            Event::QueryStart {
                class: 1,
                member: 2,
            },
            Event::QueryEnd {
                class: 1,
                member: 2,
                outcome: "resolved",
                nanos: 512,
            },
            Event::CacheHit,
            Event::AmbiguityEncountered {
                class: 9,
                member: 1,
            },
            Event::EditApplied {
                edits: 1,
                dirty: 12,
                invalidated: 12,
                recomputed: 0,
                generation: 2,
            },
        ];
        for e in &cases {
            let j = e.to_json();
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains(&format!("\"event\":\"{}\"", e.kind())), "{j}");
            assert_eq!(j.matches('{').count(), j.matches('}').count());
        }
        assert_eq!(cases[2].to_json(), "{\"event\":\"cache_hit\"}");
        assert!(cases[4].to_json().contains("\"dirty\":12"));
    }

    #[test]
    fn memory_sink_buffers_and_drains() {
        let sink = MemorySink::with_capacity(2);
        sink.record(&Event::CacheHit);
        sink.record(&Event::QueryStart {
            class: 1,
            member: 2,
        });
        sink.record(&Event::CacheHit);
        assert_eq!(sink.events().len(), 2, "cap enforced");
        assert_eq!(sink.dropped(), 1);
        let drained = sink.take();
        assert_eq!(drained[0], Event::CacheHit);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn counting_sink_counts() {
        let sink = CountingSink::new();
        for _ in 0..5 {
            sink.record(&Event::CacheHit);
        }
        assert_eq!(sink.count(), 5);
        NullSink.record(&Event::CacheHit);
    }
}
