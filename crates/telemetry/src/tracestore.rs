//! Tail-sampled trace store: a bounded ring of completed request traces.
//!
//! Whether a finished request's trace is kept is one pure decision,
//! [`keep_reason`], taken from facts the server has before it builds
//! anything: a trace is kept when
//!
//! * the server's keep threshold is zero (keep everything),
//! * the request ended in a non-OK status,
//! * the client marked the request as head-sampled on the wire, or
//! * its total duration reached the keep threshold.
//!
//! This is classic tail-based sampling: the slow tail and every error are
//! always retrievable by trace id, while the fast common case costs one
//! branch and no allocation — only a request whose trace will be kept is
//! described at all, and handed to [`TraceStore::keep`]. The store holds
//! the most recent [`DEFAULT_TRACE_STORE_CAPACITY`] kept traces; older ones
//! are evicted oldest-first.

use crate::trace::QueryTrace;
use mmdb_conc::sync::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Default number of kept traces the store retains.
pub const DEFAULT_TRACE_STORE_CAPACITY: usize = 256;

/// Wire-propagated trace context: a nonzero id plus the client's
/// head-sampling decision. Carried in request frames and echoed
/// in responses so clients can correlate their calls with server-side spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Nonzero trace id; rendered as 16 hex digits in JSON and CLI output.
    pub trace_id: u64,
    /// Head-sampling decision made by the client: sampled requests are
    /// always kept by the store regardless of latency or status.
    pub sampled: bool,
}

impl TraceContext {
    /// A fresh context with a generated id.
    pub fn generate(sampled: bool) -> Self {
        TraceContext {
            trace_id: next_trace_id(),
            sampled,
        }
    }
}

/// Why a trace was kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeepReason {
    /// The server keeps every trace (keep threshold zero).
    Forced,
    /// The client head-sampled the request on the wire.
    Sampled,
    /// The request ended in a non-OK status.
    Error,
    /// Total duration reached the keep threshold (the slow tail).
    Slow,
}

impl KeepReason {
    pub fn as_str(self) -> &'static str {
        match self {
            KeepReason::Forced => "forced",
            KeepReason::Sampled => "sampled",
            KeepReason::Error => "error",
            KeepReason::Slow => "slow",
        }
    }

    fn kept_counter(self) -> &'static crate::Counter {
        match self {
            KeepReason::Forced => crate::counter!(r#"mmdb_trace_kept_total{reason="forced"}"#),
            KeepReason::Sampled => crate::counter!(r#"mmdb_trace_kept_total{reason="sampled"}"#),
            KeepReason::Error => crate::counter!(r#"mmdb_trace_kept_total{reason="error"}"#),
            KeepReason::Slow => crate::counter!(r#"mmdb_trace_kept_total{reason="slow"}"#),
        }
    }
}

/// The tail-sampling decision: why a finished request's trace is kept, or
/// `None` when it is not. A zero `threshold` keeps everything; otherwise
/// errors, then head-sampled requests, then requests whose `total` reached
/// the threshold.
pub fn keep_reason(
    sampled: bool,
    is_error: bool,
    total: Duration,
    threshold: Duration,
) -> Option<KeepReason> {
    if threshold.is_zero() {
        Some(KeepReason::Forced)
    } else if is_error {
        Some(KeepReason::Error)
    } else if sampled {
        Some(KeepReason::Sampled)
    } else if total >= threshold {
        Some(KeepReason::Slow)
    } else {
        None
    }
}

/// One kept trace plus the request-level metadata needed to list and filter
/// without walking the span tree.
#[derive(Clone, Debug)]
pub struct StoredTrace {
    pub trace_id: u64,
    /// Wall-clock microseconds since the Unix epoch at completion.
    pub unix_micros: u64,
    /// Request opcode name (`range`, `knn`, …).
    pub opcode: String,
    /// Response status name (`OK`, `DEADLINE_EXCEEDED`, …).
    pub status: String,
    /// End-to-end duration (queue wait + execution).
    pub total: Duration,
    /// Time spent in the admission queue before a worker picked it up.
    pub queue_wait: Duration,
    pub keep_reason: KeepReason,
    /// The full span tree (queue_wait / execute / per-plan stages).
    pub trace: QueryTrace,
}

/// A bounded store of kept traces. One process-global instance lives behind
/// [`trace_store`]; independent instances are used in tests.
pub struct TraceStore {
    inner: Mutex<VecDeque<StoredTrace>>,
    capacity: usize,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::with_capacity(DEFAULT_TRACE_STORE_CAPACITY)
    }
}

impl TraceStore {
    /// A store retaining at most `capacity` kept traces (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceStore {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Stores a trace the caller decided to keep ([`keep_reason`]),
    /// evicting the oldest when full.
    pub fn keep(&self, trace: StoredTrace) {
        trace.keep_reason.kept_counter().inc();
        let mut inner = self.inner.lock();
        if inner.len() == self.capacity {
            inner.pop_front();
        }
        inner.push_back(trace);
        crate::gauge!("mmdb_trace_store_entries").set(inner.len() as u64);
    }

    /// The kept trace with this id, if still retained (newest wins when the
    /// same id was somehow stored twice).
    pub fn get(&self, trace_id: u64) -> Option<StoredTrace> {
        self.inner
            .lock()
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Metadata for every retained trace, oldest first.
    pub fn summaries(&self) -> Vec<StoredTrace> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Drops every retained trace (tests and `mmdbctl` resets).
    pub fn clear(&self) {
        self.inner.lock().clear();
        crate::gauge!("mmdb_trace_store_entries").set(0);
    }

    /// `{"traces": [...]}` — one summary object per retained trace, newest
    /// first (the order a human debugging a live incident wants).
    pub fn render_summaries_json(&self) -> String {
        let mut out = String::from("{\n  \"traces\": [");
        let inner = self.inner.lock();
        for (i, t) in inner.iter().rev().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"trace_id\": \"{:016x}\", \"ts_micros\": {}, \"opcode\": \"{}\", \
                 \"status\": \"{}\", \"total_nanos\": {}, \"queue_wait_nanos\": {}, \
                 \"keep_reason\": \"{}\"}}",
                t.trace_id,
                t.unix_micros,
                t.opcode,
                t.status,
                t.total.as_nanos(),
                t.queue_wait.as_nanos(),
                t.keep_reason.as_str()
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The full span tree for one trace id as JSON, or `None` if the trace
    /// was dropped or already evicted.
    pub fn render_trace_json(&self, trace_id: u64) -> Option<String> {
        let t = self.get(trace_id)?;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\": \"{:016x}\", \"ts_micros\": {}, \"opcode\": \"{}\", \
             \"status\": \"{}\", \"total_nanos\": {}, \"queue_wait_nanos\": {}, \
             \"keep_reason\": \"{}\", \"trace\": ",
            t.trace_id,
            t.unix_micros,
            t.opcode,
            t.status,
            t.total.as_nanos(),
            t.queue_wait.as_nanos(),
            t.keep_reason.as_str()
        );
        let tree = t.trace.render_json();
        out.push_str(tree.trim_end());
        out.push_str("}\n");
        Some(out)
    }
}

// Relaxed is deliberate: uniqueness comes from the RMW itself (every
// fetch_add returns a distinct value under any ordering); ids carry no
// publication obligation.
static TRACE_ID_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Generates a nonzero trace id: a per-process counter mixed with the boot
/// timestamp so ids from different processes almost never collide, without
/// needing a randomness dependency.
pub fn next_trace_id() -> u64 {
    static BOOT_MICROS: OnceLock<u64> = OnceLock::new();
    let boot = *BOOT_MICROS.get_or_init(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0x5EED, |d| d.as_micros() as u64)
    });
    let n = TRACE_ID_COUNTER.fetch_add(1, Ordering::Relaxed);
    // SplitMix64-style finalizer over (boot ^ counter) gives well-spread,
    // guaranteed-unique-per-process ids.
    let mut z = boot
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(n.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.max(1)
}

/// Parses a trace id as printed by the JSON/CLI surfaces: 16 hex digits,
/// optionally `0x`-prefixed; plain decimal also accepted.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).ok();
    }
    // Prefer hex (the printed form is always 16 hex digits); fall back to
    // decimal for hand-typed ids.
    u64::from_str_radix(s, 16).ok().or_else(|| s.parse().ok())
}

static GLOBAL_TRACE_STORE: OnceLock<TraceStore> = OnceLock::new();

/// The process-wide trace store the query server reports into.
pub fn trace_store() -> &'static TraceStore {
    GLOBAL_TRACE_STORE.get_or_init(TraceStore::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(id: u64, total: Duration, reason: KeepReason) -> StoredTrace {
        let mut trace = QueryTrace::new("request");
        trace.stage("queue_wait", Duration::from_micros(5));
        trace.stage("execute", total.saturating_sub(Duration::from_micros(5)));
        trace.finish(total);
        StoredTrace {
            trace_id: id,
            unix_micros: 1,
            opcode: "range".into(),
            status: "OK".into(),
            total,
            queue_wait: Duration::from_micros(5),
            keep_reason: reason,
            trace,
        }
    }

    #[test]
    fn tail_sampling_keeps_slow_sampled_error_and_forced() {
        use KeepReason::{Error, Forced, Sampled, Slow};
        let keep = Duration::from_millis(10);
        let (fast, slow) = (Duration::from_micros(50), Duration::from_millis(20));
        // (sampled, is_error, total, threshold) → reason
        let table = [
            (false, false, fast, keep, None),
            (false, false, slow, keep, Some(Slow)),
            (true, false, fast, keep, Some(Sampled)),
            (false, true, fast, keep, Some(Error)),
            // A sampled request that failed is an error first.
            (true, true, fast, keep, Some(Error)),
            // Zero keeps no matter what; an unreachable threshold still
            // keeps errors.
            (false, false, fast, Duration::ZERO, Some(Forced)),
            (false, false, slow, Duration::MAX, None),
            (false, true, fast, Duration::MAX, Some(Error)),
        ];
        for (sampled, is_error, total, threshold, expected) in table {
            assert_eq!(
                keep_reason(sampled, is_error, total, threshold),
                expected,
                "sampled={sampled} is_error={is_error} total={total:?} threshold={threshold:?}"
            );
        }
    }

    #[test]
    fn eviction_is_oldest_first_and_bounded() {
        let store = TraceStore::with_capacity(3);
        for id in 1..=5u64 {
            store.keep(candidate(id, Duration::from_micros(1), KeepReason::Forced));
        }
        assert_eq!(store.len(), 3);
        assert!(store.get(1).is_none());
        assert!(store.get(2).is_none());
        assert!(store.get(3).is_some());
        assert!(store.get(5).is_some());
    }

    #[test]
    fn json_summaries_are_newest_first_and_balanced() {
        let store = TraceStore::with_capacity(8);
        store.keep(candidate(10, Duration::from_micros(1), KeepReason::Forced));
        store.keep(candidate(11, Duration::from_micros(1), KeepReason::Forced));
        let json = store.render_summaries_json();
        let first = json.find("000000000000000b").unwrap();
        let second = json.find("000000000000000a").unwrap();
        assert!(first < second, "newest first: {json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let by_id = store.render_trace_json(10).unwrap();
        assert!(by_id.contains("\"queue_wait\""));
        assert!(by_id.contains("\"keep_reason\": \"forced\""));
        assert_eq!(by_id.matches('{').count(), by_id.matches('}').count());
        assert!(store.render_trace_json(999).is_none());
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn parses_hex_and_decimal_ids() {
        assert_eq!(parse_trace_id("00000000000000ff"), Some(255));
        assert_eq!(parse_trace_id("0xff"), Some(255));
        assert_eq!(parse_trace_id("  ff "), Some(255));
        // Pure-digit strings parse as hex first (the printed form).
        assert_eq!(parse_trace_id("10"), Some(16));
        assert_eq!(parse_trace_id("zz"), None);
    }
}
