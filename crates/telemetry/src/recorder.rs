//! The flight recorder: a fixed-capacity ring buffer of recent structured
//! events (query start/end, slow queries, BWM reclassifications, ingest
//! accept/reject, cache evictions), always on and drainable as JSON.
//!
//! Writers never contend on a global lock: recording takes the ring's
//! *read* lock (shared), claims a slot with one `fetch_add` on the head
//! sequence, and writes through that slot's own mutex. The write lock is
//! taken only by [`FlightRecorder::set_capacity`], which rebuilds the ring.

use crate::fmt::json_escape;
use mmdb_conc::sync::atomic::{AtomicU64, Ordering};
use mmdb_conc::sync::{Mutex, RwLock};
use std::sync::OnceLock;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Default ring capacity; reconfigurable via [`FlightRecorder::set_capacity`].
pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

/// Default slow-query threshold (see [`set_slow_query_threshold`]).
pub const DEFAULT_SLOW_QUERY_THRESHOLD: Duration = Duration::from_millis(250);

/// What happened — the closed set of event types the recorder captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A range/knn query started executing.
    QueryStart,
    /// A query finished; counts carry result and bounds-check totals.
    QueryEnd,
    /// A query exceeded the configured slow-query threshold.
    SlowQuery,
    /// An edit-sequence insert passed ingest validation.
    IngestAccepted,
    /// An edit-sequence insert was rejected; detail lists the lint codes.
    IngestRejected,
    /// The raster LRU evicted entries to admit a new instantiation.
    CacheEviction,
    /// A catalog-wide lint (analyzer) run completed.
    LintRun,
    /// The query server accepted a client connection.
    ServerConnAccepted,
    /// Admission control refused a request (submission queue full).
    ServerOverload,
    /// A request's deadline expired while queued; it was not executed.
    ServerDeadlineExceeded,
    /// The query server began or completed a graceful drain.
    ServerDrain,
    /// A backend call panicked; the worker caught it and answered INTERNAL.
    ServerBackendPanic,
    /// The write-ahead log finished a segment and started a new one.
    WalRotation,
    /// A catalog snapshot was written and renamed into place.
    Snapshot,
    /// Crash recovery completed: snapshot load + WAL-tail replay.
    Recovery,
    /// A serving process drained, flushed a final snapshot, and synced the
    /// active WAL segment before exiting.
    ServerCleanShutdown,
}

impl EventKind {
    /// Stable snake_case name used in JSON exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::QueryStart => "query_start",
            EventKind::QueryEnd => "query_end",
            EventKind::SlowQuery => "slow_query",
            EventKind::IngestAccepted => "ingest_accepted",
            EventKind::IngestRejected => "ingest_rejected",
            EventKind::CacheEviction => "cache_eviction",
            EventKind::LintRun => "lint_run",
            EventKind::ServerConnAccepted => "server_conn_accepted",
            EventKind::ServerOverload => "server_overload",
            EventKind::ServerDeadlineExceeded => "server_deadline_exceeded",
            EventKind::ServerDrain => "server_drain",
            EventKind::ServerBackendPanic => "server_backend_panic",
            EventKind::WalRotation => "wal_rotation",
            EventKind::Snapshot => "snapshot",
            EventKind::Recovery => "recovery",
            EventKind::ServerCleanShutdown => "server_clean_shutdown",
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic sequence number (process-lifetime, survives capacity
    /// changes); total order across threads.
    pub seq: u64,
    /// Wall-clock microseconds since the Unix epoch.
    pub unix_micros: u64,
    pub kind: EventKind,
    /// Free-form human-readable context, e.g. `plan=bwm bin=12`.
    pub detail: String,
    /// Structured numeric payload, e.g. `[("results", 3)]`.
    pub counts: Vec<(&'static str, u64)>,
}

struct Ring {
    slots: Vec<Mutex<Option<Event>>>,
    head: AtomicU64,
}

impl Ring {
    fn with_capacity(capacity: usize, head: u64) -> Ring {
        let capacity = capacity.max(1);
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(head),
        }
    }
}

/// The ring buffer itself. One process-global instance lives behind
/// [`recorder`]; independent instances are used in tests.
pub struct FlightRecorder {
    ring: RwLock<Ring>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            ring: RwLock::new(Ring::with_capacity(capacity, 0)),
        }
    }

    /// Current ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.read().slots.len()
    }

    /// Resizes the ring, preserving the most recent events that fit. Takes
    /// the write lock; concurrent writers block only for the rebuild.
    pub fn set_capacity(&self, capacity: usize) {
        let mut guard = self.ring.write();
        let recent = drain_ring(&guard);
        let head = guard.head.load(Ordering::Relaxed);
        let next = Ring::with_capacity(capacity, head);
        let keep = recent.len().saturating_sub(next.slots.len());
        for event in recent.into_iter().skip(keep) {
            let idx = (event.seq % next.slots.len() as u64) as usize;
            *next.slots[idx].lock() = Some(event);
        }
        *guard = next;
    }

    /// Records one event. Hot paths should gate the call (and the string
    /// formatting feeding it) on [`crate::instrumentation_enabled`].
    pub fn record(
        &self,
        kind: EventKind,
        detail: impl Into<String>,
        counts: &[(&'static str, u64)],
    ) {
        let ring = self.ring.read();
        // Relaxed is deliberate: the RMW alone makes seq values unique and
        // totally ordered; the event itself is published by the slot mutex
        // below (its unlock/lock is the release/acquire edge drainers rely
        // on), so the head counter orders nothing but itself. Model-checked
        // in crates/conc/tests/model_ring.rs.
        let seq = ring.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % ring.slots.len() as u64) as usize;
        let event = Event {
            seq,
            unix_micros: unix_micros_now(),
            kind,
            detail: detail.into(),
            counts: counts.to_vec(),
        };
        let mut slot = ring.slots[idx].lock();
        // Guard against a lapped race: between seq assignment and slot
        // publication another writer may have lapped the ring and published
        // a *newer* event into this slot; clobbering it would lose the
        // newest event while retaining an older one (found by the model
        // checker — see crates/conc/tests/model_ring.rs).
        if slot.as_ref().is_none_or(|existing| existing.seq < seq) {
            *slot = Some(event);
        }
    }

    /// The retained events, oldest first. Slots being overwritten by racing
    /// writers at drain time are skipped, so the result is always a
    /// consistent (possibly slightly shorter) suffix of the event stream.
    pub fn events(&self) -> Vec<Event> {
        drain_ring(&self.ring.read())
    }

    /// Retained events with `seq > since`, oldest first — the cursor form
    /// pollers use: pass the highest `seq` seen so far and events are
    /// neither dropped (as long as the ring hasn't lapped) nor re-read.
    /// `events_since(u64::MAX)` is always empty; `events_since` with a
    /// cursor older than the ring returns everything retained.
    pub fn events_since(&self, since: u64) -> Vec<Event> {
        let mut events = self.events();
        events.retain(|e| e.seq > since);
        events
    }

    /// Total number of events ever recorded (including overwritten ones).
    pub fn recorded_total(&self) -> u64 {
        self.ring.read().head.load(Ordering::Relaxed)
    }

    /// All retained events as a JSON document (see [`events_to_json`]).
    pub fn render_json(&self) -> String {
        events_to_json(&self.events())
    }
}

fn drain_ring(ring: &Ring) -> Vec<Event> {
    let head = ring.head.load(Ordering::Relaxed);
    let cap = ring.slots.len() as u64;
    let start = head.saturating_sub(cap);
    let mut out = Vec::with_capacity((head - start) as usize);
    for seq in start..head {
        let idx = (seq % cap) as usize;
        let slot = ring.slots[idx].lock();
        if let Some(event) = slot.as_ref() {
            // A racing writer may have lapped this slot (newer seq) or not
            // finished publishing yet (older seq); keep only exact matches.
            if event.seq == seq {
                out.push(event.clone());
            }
        }
    }
    out
}

fn unix_micros_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros().min(u64::MAX as u128) as u64)
}

/// Renders events as `{"events": [...]}` with one object per event:
/// `{"seq": 5, "ts_micros": ..., "kind": "query_end", "detail": "...",
/// "counts": {"results": 3}}`.
pub fn events_to_json(events: &[Event]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"events\": [");
    for (i, e) in events.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"seq\": {}, \"ts_micros\": {}, \"kind\": \"{}\", \"detail\": \"{}\", \"counts\": {{",
            e.seq,
            e.unix_micros,
            e.kind.as_str(),
            json_escape(&e.detail)
        );
        for (j, (name, value)) in e.counts.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {value}", json_escape(name));
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

// Relaxed throughout: a standalone tuning knob — no reader infers other
// memory state from its value.
static SLOW_QUERY_NANOS: AtomicU64 = AtomicU64::new(250_000_000);

/// Sets the process-wide slow-query threshold: queries at or above it emit a
/// [`EventKind::SlowQuery`] event and bump `mmdb_query_slow_total`.
pub fn set_slow_query_threshold(threshold: Duration) {
    let nanos = threshold.as_nanos().min(u64::MAX as u128) as u64;
    SLOW_QUERY_NANOS.store(nanos, Ordering::Relaxed);
}

/// The current slow-query threshold (default 250ms).
pub fn slow_query_threshold() -> Duration {
    Duration::from_nanos(SLOW_QUERY_NANOS.load(Ordering::Relaxed))
}

static GLOBAL_RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder all instrumented layers report into.
pub fn recorder() -> &'static FlightRecorder {
    GLOBAL_RECORDER.get_or_init(FlightRecorder::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_drains() {
        let r = FlightRecorder::with_capacity(8);
        r.record(EventKind::QueryStart, "plan=rbm", &[]);
        r.record(EventKind::QueryEnd, "plan=rbm", &[("results", 3)]);
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::QueryStart);
        assert_eq!(events[1].kind, EventKind::QueryEnd);
        assert_eq!(events[1].counts, vec![("results", 3)]);
        assert!(events[0].seq < events[1].seq);
        assert_eq!(r.recorded_total(), 2);
    }

    #[test]
    fn wraparound_keeps_newest() {
        let r = FlightRecorder::with_capacity(4);
        for i in 0..10u64 {
            r.record(EventKind::QueryEnd, format!("q{i}"), &[("i", i)]);
        }
        let events = r.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].detail, "q6");
        assert_eq!(events[3].detail, "q9");
        assert_eq!(r.recorded_total(), 10);
    }

    #[test]
    fn capacity_change_preserves_recent_events() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..6u64 {
            r.record(EventKind::QueryEnd, format!("q{i}"), &[]);
        }
        r.set_capacity(3);
        assert_eq!(r.capacity(), 3);
        let kept: Vec<String> = r.events().iter().map(|e| e.detail.clone()).collect();
        assert_eq!(kept, vec!["q3", "q4", "q5"]);
        // Growing back keeps what survived and new sequence numbers continue.
        r.set_capacity(16);
        r.record(EventKind::QueryEnd, "q6", &[]);
        let events = r.events();
        assert_eq!(events.last().unwrap().detail, "q6");
        assert_eq!(events.last().unwrap().seq, 6);
    }

    #[test]
    fn events_since_is_an_exclusive_cursor() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..5u64 {
            r.record(EventKind::QueryEnd, format!("q{i}"), &[]);
        }
        let all = r.events();
        let cursor = all[2].seq;
        let tail: Vec<String> = r
            .events_since(cursor)
            .iter()
            .map(|e| e.detail.clone())
            .collect();
        assert_eq!(tail, vec!["q3", "q4"]);
        assert!(r.events_since(u64::MAX).is_empty());
        // A cursor older than anything retained returns the full ring.
        assert_eq!(r.events_since(0).len(), 4);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let r = FlightRecorder::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.record(EventKind::LintRun, "x", &[]);
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    fn json_exposition_escapes_and_structures() {
        let r = FlightRecorder::with_capacity(4);
        r.record(
            EventKind::IngestRejected,
            "codes=\"E005\"",
            &[("errors", 1)],
        );
        let json = r.render_json();
        assert!(json.contains("\"kind\": \"ingest_rejected\""));
        assert!(json.contains("codes=\\\"E005\\\""));
        assert!(json.contains("\"counts\": {\"errors\": 1}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn slow_query_threshold_roundtrip() {
        let before = slow_query_threshold();
        set_slow_query_threshold(Duration::from_millis(5));
        assert_eq!(slow_query_threshold(), Duration::from_millis(5));
        set_slow_query_threshold(before);
    }
}
