//! Concurrency checking layer for the mmdbms workspace.
//!
//! The workspace's concurrent cores — the storage mutation epoch, the
//! epoch-guarded bound-index slots, the flight-recorder ring buffer, the
//! metrics registry, and the server submission queue — are small hand-rolled
//! protocols whose correctness used to be argued only in prose and exercised
//! only by racy stress tests. This crate makes those arguments checkable:
//!
//! * [`sync`] and [`thread`] are a **drop-in facade** over
//!   `std::sync::atomic`, `Mutex`/`RwLock`/`Condvar` (`parking_lot`-style
//!   non-poisoning guards) and `std::thread::spawn`. In normal builds they
//!   compile to thin zero-cost wrappers; with the `model` cargo feature
//!   every operation executed *inside a model run* is routed through an
//!   instrumented scheduler instead.
//! * `model` (feature `model`) is a **bounded model checker** in the
//!   spirit of loom/CHESS: it runs a closure many times, exploring thread
//!   interleavings by depth-first search with a preemption bound (plus a
//!   seeded-random fallback for larger state spaces). Atomics are modeled
//!   with per-location store histories so a `Relaxed` load may observe any
//!   coherence-permitted stale value — weakened orderings therefore produce
//!   real failing executions, not just lint noise. Per-thread vector clocks
//!   drive a happens-before race detector over [`cell::RaceCell`] data.
//!   Every failure carries a deterministic, replayable schedule trace.
//!
//! The four riskiest protocols in the workspace are written against this
//! facade and model-tested from `crates/conc/tests/` (see the repository's
//! DESIGN.md appendix for the happens-before arguments):
//!
//! 1. storage mutation-epoch capture (`mmdb_storage::MutationEpoch`),
//! 2. bound-index epoch-guarded serving (`mmdb_boundidx::EpochSlot`),
//! 3. the telemetry flight-recorder ring buffer and registry counters,
//! 4. the server submission queue close/drain handshake.

#![warn(missing_docs)]

pub mod cell;
#[cfg(feature = "model")]
pub mod model;
pub mod sync;
pub mod thread;
