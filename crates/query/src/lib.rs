#![warn(missing_docs)]

//! # mmdb-query
//!
//! Query processing for the augmented MMDBMS. This crate ties the substrates
//! together into the three execution strategies the paper discusses:
//!
//! * [`QueryProcessor::range_instantiate`] — the naive ground truth: decode /
//!   instantiate every image and test its exact histogram (the expensive
//!   path §3 exists to avoid);
//! * [`QueryProcessor::range_rbm`] — §3's Rule-Based Method: exact histogram
//!   test for binary images, BOUNDS computation for every edited image;
//! * [`QueryProcessor::range_bwm`] — §4's Bound-Widening Method over the
//!   Main/Unclassified structure.
//!
//! All of them (and the indexed lookup) are one un-instrumented path,
//! [`QueryProcessor::execute`], adding to a [`QueryCtx`]; the `range_*`
//! methods wrap it as whole queries, observed once each
//! ([`executor::observed`]). Plus the supporting machinery: provenance
//! expansion (§2: when `op(x)` matches, `x` is returned too), and the one
//! similarity search — k-nearest-neighbour by L1 histogram distance over
//! binary *and* edited images ([`knn_augmented`]).

pub mod executor;
pub mod knn_edited;
pub mod plan;

pub use executor::{QueryCtx, QueryProcessor, ShardRecord, Slice};
pub use knn_edited::{knn_augmented, knn_brute_force, sort_neighbours, KnnOutcome, KnnStats};
pub use plan::QueryPlan;

/// Eagerly registers this layer's metric series (zero-valued until traffic
/// arrives) so exposition shows the full query schema from process start —
/// the rule engine's series included: `mmdb-rules` computes and returns,
/// and this layer exports the work of each query it observes.
pub fn register_metrics() {
    let g = mmdb_telemetry::global();
    executor::register_range_series();
    for name in [
        "mmdb_rules_bounds_computed_total",
        r#"mmdb_rules_applications_total{op="define"}"#,
        r#"mmdb_rules_applications_total{op="combine"}"#,
        r#"mmdb_rules_applications_total{op="modify"}"#,
        r#"mmdb_rules_applications_total{op="mutate"}"#,
        r#"mmdb_rules_applications_total{op="merge_null"}"#,
        r#"mmdb_rules_applications_total{op="merge_target"}"#,
        r#"mmdb_rules_widening_ops_total{profile="conservative"}"#,
        r#"mmdb_query_knn_total{path="augmented"}"#,
        "mmdb_query_knn_edited_pruned_total",
        "mmdb_query_knn_edited_instantiated_total",
        "mmdb_query_slow_total",
    ] {
        let _ = g.counter(name);
    }
    let _ = g.histogram(r#"mmdb_query_knn_latency_seconds{path="augmented"}"#);
}
