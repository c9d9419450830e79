#![warn(missing_docs)]

//! # mmdb-boundidx
//!
//! A bound-interval index over the catalog: the paper's §3.1 observation
//! that "histograms can be organized in multidimensional indexes" applied to
//! the BOUNDS machinery. A bound interval depends only on
//! `(edit sequence, bin)` — it is query-invariant — so this crate computes
//! every image's per-bin fraction intervals once and keeps them in per-bin
//! lists sorted by lower endpoint, the only copy of an interval. A list
//! holds only the intervals that are not `[0, 0]`: an image has a few
//! colours, and a resident image a bin does not list has `[0, 0]` there.
//! Each list also keeps a bound on its intervals' width, so a range query
//! becomes one binary search and one gallop plus one scan of the window of
//! intervals that can reach the query instead of a rule walk per edited
//! image; a query that reaches 0 takes every resident image but the listed
//! ones above it. Either way the lookup returns *exactly* the RBM/BWM
//! candidate set (no false negatives, same false-positive bounds — verified
//! by property test in `mmdbms`).
//!
//! Freshness is epoch-based: the storage engine stamps every catalog
//! mutation, [`BoundIndex::sync`] reconciles the index to a stamped catalog
//! snapshot, and the facade refuses to serve a lookup whose
//! [`BoundIndex::synced_epoch`] is behind the engine. The storage engine
//! never deletes an image a stored sequence names and never reuses an id,
//! so an entry depends on its own image alone: a sync adds the entries of
//! new images and drops those of deleted ones, nothing else — one batch
//! merge in, one batch removal out, per bin. A build (from an empty index)
//! and a sync end in one reconcile step: one linear merge of the ascending
//! listing against the resident ids decides what enters and leaves (the
//! staleness backlog counts the same diff), and every new interval is
//! computed before anything changes, so a failed sync changes nothing.

mod guard;
mod index;
mod interval;
pub mod persist;

pub use guard::{EpochSlot, EpochStamped};
pub use index::{BoundIndex, IndexedLookup, SyncStats};

use mmdb_editops::ImageId;
use mmdb_telemetry::gauge;

/// A point-in-time staleness/residency reading for one index slot,
/// computed against the catalog state the caller just observed.
///
/// Staleness is **epoch lag** — the engine's mutation epoch minus the
/// index's synced epoch — not wall-clock age: an idle catalog leaves a
/// day-old index perfectly fresh, while one insert makes a second-old index
/// stale. Wall clock (`seconds_since_sync`) is reported separately because
/// it bounds *recency of reconciliation*, which a resync scheduler (ROADMAP
/// item 3) needs alongside lag to price a sync.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StalenessReport {
    /// `storage.current_epoch() - index.synced_epoch()`; for an unbuilt
    /// slot, the full current epoch (everything is pending).
    pub epoch_lag: u64,
    /// Entries resident in the index right now.
    pub entries_resident: u64,
    /// Work the next sync must do: catalog images with no resident entry
    /// plus resident entries no longer in the catalog.
    pub resync_backlog: u64,
    /// Whole seconds since the slot last reconciled (0 for an unbuilt slot).
    pub seconds_since_sync: u64,
}

impl StalenessReport {
    /// Computes the report for one slot against the catalog ids and epoch
    /// the caller captured. `idx` is `None` for a never-built slot.
    ///
    /// # Panics
    /// Panics when `binary` or `edited` does not ascend by id, as
    /// [`BoundIndex::sync`] does.
    pub fn compute(
        idx: Option<&BoundIndex>,
        current_epoch: u64,
        binary: &[ImageId],
        edited: &[ImageId],
    ) -> Self {
        let Some(idx) = idx else {
            return StalenessReport {
                epoch_lag: current_epoch,
                resync_backlog: (binary.len() + edited.len()) as u64,
                ..StalenessReport::default()
            };
        };
        let epoch_lag = current_epoch.saturating_sub(idx.synced_epoch());
        // The next sync's work, from the diff that sync would take.
        let backlog = match epoch_lag {
            0 => 0,
            _ => idx.diff(binary, edited).iter().map(Vec::len).sum::<usize>() as u64,
        };
        StalenessReport {
            epoch_lag,
            entries_resident: idx.len() as u64,
            resync_backlog: backlog,
            seconds_since_sync: idx.since_last_sync().as_secs(),
        }
    }

    /// Publishes the report as the four staleness gauges.
    pub fn publish(&self) {
        gauge!("mmdb_boundidx_epoch_lag").set(self.epoch_lag);
        gauge!("mmdb_boundidx_entries_resident").set(self.entries_resident);
        gauge!("mmdb_boundidx_resync_backlog").set(self.resync_backlog);
        gauge!("mmdb_boundidx_seconds_since_sync").set(self.seconds_since_sync);
    }
}

/// Eagerly registers this layer's metric series (zero-valued until traffic
/// arrives) so exposition shows the index schema from process start.
pub fn register_metrics() {
    let g = mmdb_telemetry::global();
    for name in [
        "mmdb_boundidx_hits_total",
        "mmdb_boundidx_misses_total",
        "mmdb_boundidx_invalidations_total",
        "mmdb_boundidx_lookups_total",
        "mmdb_boundidx_builds_total",
        "mmdb_boundidx_persist_total",
        "mmdb_boundidx_persist_bytes_total",
        "mmdb_boundidx_warm_loads_total",
        "mmdb_boundidx_warm_discards_total",
    ] {
        let _ = g.counter(name);
    }
    for name in [
        "mmdb_boundidx_epoch_lag",
        "mmdb_boundidx_entries_resident",
        "mmdb_boundidx_resync_backlog",
        "mmdb_boundidx_seconds_since_sync",
    ] {
        let _ = g.gauge(name);
    }
    for name in [
        "mmdb_boundidx_build_seconds",
        "mmdb_boundidx_sync_seconds",
        "mmdb_boundidx_persist_seconds",
        "mmdb_boundidx_load_seconds",
    ] {
        let _ = g.histogram(name);
    }
}
