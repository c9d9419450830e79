#![warn(missing_docs)]

//! # mmdb-bwm
//!
//! The **Bound-Widening Method (BWM)** — the contribution of the paper (§4).
//!
//! RBM (crate `mmdb-rules`) must "access every edited image in a database as
//! well as every editing operation within each image description" for every
//! query. BWM avoids much of that work with a two-component data structure:
//!
//! * the **Main Component** clusters edited images *whose operations all
//!   have bound-widening rules* under their referenced base image
//!   (`<B_id, E_list>` tuples, kept sorted by base id);
//! * the **Unclassified Component** lists every edited image containing at
//!   least one non-bound-widening operation (`Merge` with a target).
//!
//! The query shortcut (§4, Figure 2): since bound-widening rules can only
//! *widen* the fraction range, and an edited image's initial range is its
//! base's exact histogram value, **if the base satisfies the query then
//! every clustered edited image's final range must still overlap the query
//! range** — so the whole cluster is emitted without touching a single
//! editing operation. Only clusters whose base misses, and the Unclassified
//! Component, fall back to the full BOUNDS computation.
//!
//! Both methods return identical result sets; BWM is purely a work-avoidance
//! structure (verified by integration tests). The structure carries what a
//! scan reads — every base's exact counts, one column per bin, each
//! cluster its members' BOUNDS programs in one block and each Unclassified
//! entry its own, once compiled — and both methods run one loop over the
//! entries ([`execute`]), RBM with the shortcut off.

pub mod query;
pub mod structure;

pub use query::{execute, BwmQueryStats, Method, QueryCtx, QueryOutcome, ShardRecord};
pub use structure::{BwmStructure, Classification, SequenceStore};

/// Eagerly registers this layer's metric series (zero-valued until traffic
/// arrives) so exposition shows the full BWM schema from process start.
pub fn register_metrics() {
    let g = mmdb_telemetry::global();
    for name in [
        "mmdb_bwm_cluster_inserts_total",
        r#"mmdb_bwm_edited_inserts_total{component="classified"}"#,
        r#"mmdb_bwm_edited_inserts_total{component="unclassified"}"#,
        "mmdb_bwm_removals_total",
        "mmdb_bwm_queries_total",
        "mmdb_bwm_clusters_visited_total",
        "mmdb_bwm_base_hits_total",
        "mmdb_bwm_shortcut_emissions_total",
        "mmdb_bwm_ops_processed_total",
        "mmdb_bwm_bounds_widened_total",
        r#"mmdb_bwm_scans_total{component="classified"}"#,
        r#"mmdb_bwm_scans_total{component="unclassified"}"#,
    ] {
        let _ = g.counter(name);
    }
}
