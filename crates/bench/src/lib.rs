#![warn(missing_docs)]

//! # mmdb-bench
//!
//! The paper-side evaluation harness (§5 of the paper). The library half
//! holds the experiment logic — dataset construction per sweep point, query
//! batches, wall-clock measurement, CSV output — behind the `repro` binary
//! (`cargo run -p mmdb-bench --release --bin repro`), which regenerates
//! every table/figure as formatted text + CSV under `results/`. Serving
//! throughput, shard fan-out, cold start, telemetry cost and per-layer
//! micro-costs are measured by the standalone `benchmark/` package instead
//! (`bash benchmark/run.sh`, contract in `BENCHMARK.json`); what remains of
//! the load generator here ([`serveload`]) drives a remote server for CI and
//! the tracing-mode comparison.
//!
//! ## Sweep semantics (Figures 3 and 4)
//!
//! The paper fixes the database size and varies "the percentage of images
//! stored as editing operations". Its reported trend — the BWM advantage
//! *shrinks* as that percentage grows — is explained by the authors as more
//! images falling into the non-bound-widening category. We therefore model
//! the sweep with a **fixed pool of bound-widening-only edited images**
//! (sized at the lowest sweep point) while every additional edited image
//! contains a `Merge`-with-target operation. The constant-mix alternative
//! (fixed non-bound-widening *share*) is available as an ablation
//! (`repro ablation-nbw` sweeps the share directly).

pub mod csvout;
pub mod experiments;
pub mod serveload;
pub mod timing;

pub use experiments::{
    bins_ablation, figure_sweep, figure_sweep_constant_mix, headline, knn_experiment, nbw_ablation,
    profile_ablation, selectivity_ablation, table2, BinsPoint, Figure, KnnPoint, NbwPoint,
    ProfileReport, SelectivityPoint, SweepConfig, SweepPoint,
};
