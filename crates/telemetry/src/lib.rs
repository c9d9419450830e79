//! Unified telemetry for the MMDBMS: a lock-free metrics registry and a
//! lightweight per-query trace facility.
//!
//! # Metrics
//!
//! Named counters, gauges and fixed-bucket latency histograms, all backed by
//! `AtomicU64`. Handles are registered once in the global [`Registry`]
//! (an `RwLock` protects only the name→handle map, never the hot
//! increment path) and cached per call site by the [`counter!`],
//! [`gauge!`] and [`histogram!`] macros, so steady-state cost is one relaxed
//! atomic RMW per increment.
//!
//! Naming scheme: `mmdb_<layer>_<what>_<unit/total>` with Prometheus-style
//! labels for per-variant series, e.g.
//! `mmdb_query_range_latency_seconds{plan="bwm"}` or
//! `mmdb_rules_applications_total{op="modify"}`.
//!
//! # Traces
//!
//! [`QueryTrace`] records a tree of stages (each with a wall-clock duration
//! and structured counters) plus query-level events such as the chosen plan.
//! Tracing is explicit: a query is traced when its caller hands it a traced
//! context, and untraced query paths never build a trace or read a clock
//! for one.
//!
//! # Always-on observability
//!
//! Three additional pieces form the always-on pipeline:
//!
//! * [`HistogramSnapshot`] — mergeable, diffable copies of histogram state
//!   with p50/p90/p99/max estimation;
//! * [`FlightRecorder`] (via [`recorder`]) — a fixed-capacity ring buffer of
//!   recent structured [`Event`]s (query start/end, slow queries, BWM
//!   reclassifications, ingest accept/reject, cache evictions), drainable
//!   as JSON;
//! * [`serve_with`] — a dependency-free HTTP server exposing `/metrics`
//!   (Prometheus text with histogram buckets), `/events`, and `/healthz`.
//!
//! Hot-path recording is gated on [`instrumentation_enabled`] so the bench
//! harness can measure (and bound) the instrumentation overhead.

mod fmt;
mod heat;
mod percentile;
mod recorder;
mod registry;
mod server;
mod trace;
mod tracestore;

pub use fmt::format_duration;
pub use heat::{record_range_demand, RANGE_PLANS};
pub use percentile::HistogramSnapshot;
pub use recorder::{
    events_to_json, recorder, set_slow_query_threshold, slow_query_threshold, Event, EventKind,
    FlightRecorder, DEFAULT_RECORDER_CAPACITY, DEFAULT_SLOW_QUERY_THRESHOLD,
};
pub use registry::{global, Counter, Gauge, Histogram, Registry, Snapshot};
pub use server::{serve_with, MetricsServer, PrerenderHook, ReadinessProbe, ServeOptions};
pub use trace::{QueryTrace, Span};
pub use tracestore::{
    keep_reason, next_trace_id, parse_trace_id, trace_store, KeepReason, StoredTrace, TraceContext,
    TraceStore, DEFAULT_TRACE_STORE_CAPACITY,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Master switch for hot-path instrumentation (latency histograms, flight
/// recorder events, slow-query detection). On by default; the bench
/// harness's `overhead` mode turns it off to measure instrumentation cost.
/// Relaxed loads/stores deliberately: it is a standalone mode flag — no
/// caller infers the state of other memory from its value, so no
/// acquire/release pairing is needed.
static INSTRUMENTATION: AtomicBool = AtomicBool::new(true);

/// Enables or disables hot-path instrumentation process-wide.
pub fn set_instrumentation(enabled: bool) {
    INSTRUMENTATION.store(enabled, Ordering::Relaxed);
}

/// Whether hot-path instrumentation is on. A single relaxed load — safe to
/// call per query.
#[inline]
pub fn instrumentation_enabled() -> bool {
    INSTRUMENTATION.load(Ordering::Relaxed)
}

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// The instant the process first asked for it — call once early in `main`
/// so `mmdb_uptime_seconds` measures from startup rather than first scrape.
pub fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Registers the `mmdb_build_info{version=...,profile=...}` info series
/// (constant 1, identity carried in labels — the Prometheus convention for
/// correlating perf changes with builds) and pins the uptime epoch.
pub fn register_build_info(version: &str, build_profile: &str) {
    global()
        .gauge(&format!(
            "mmdb_build_info{{version=\"{version}\",profile=\"{build_profile}\"}}"
        ))
        .set(1);
    let _ = process_start();
    update_uptime();
}

/// Refreshes the `mmdb_uptime_seconds` gauge; the exposition server calls
/// this before every `/metrics` render so scrapes can detect restarts.
pub fn update_uptime() {
    gauge!("mmdb_uptime_seconds").set(process_start().elapsed().as_secs());
}

/// Get-or-register a counter in the global registry, caching the handle at
/// the call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Get-or-register a gauge in the global registry, caching the handle at the
/// call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Get-or-register a latency histogram in the global registry, caching the
/// handle at the call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumentation_defaults_on_and_toggles() {
        assert!(instrumentation_enabled());
        set_instrumentation(false);
        assert!(!instrumentation_enabled());
        set_instrumentation(true);
        assert!(instrumentation_enabled());
    }

    #[test]
    fn macros_cache_handles() {
        let a = counter!("mmdb_test_macro_counter_total") as *const Counter;
        let b = counter!("mmdb_test_macro_counter_total") as *const Counter;
        assert_eq!(a, b);
        counter!("mmdb_test_macro_counter_total").inc();
        gauge!("mmdb_test_macro_gauge").set(3);
        histogram!("mmdb_test_macro_latency_seconds").observe(std::time::Duration::from_micros(30));
        let text = global().render_prometheus();
        assert!(text.contains("mmdb_test_macro_counter_total"));
        assert!(text.contains("mmdb_test_macro_gauge 3"));
    }
}
