#![warn(missing_docs)]

//! # mmdb-storage
//!
//! The MMDBMS storage substrate the paper assumes: a catalog of image
//! objects where each object is stored either **conventionally** (a binary
//! raster, kept as PPM in a paged blob file, with its exact color histogram
//! extracted at insert time) or **as a sequence of editing operations**
//! referencing a base image (§2: "an image stored as a set of editing
//! operations will consume much less space than the same image stored in a
//! conventional binary format").
//!
//! Components:
//!
//! * [`BlobStore`] — an append-friendly blob file with a first-fit free list
//!   (file-backed or in-memory),
//! * [`LruCache`] — an O(1) LRU used to cache decoded/instantiated rasters,
//! * [`Catalog`] — object metadata, histograms for binary images, edit
//!   sequences for derived images, and the base↔derived provenance links the
//!   paper relies on ("as long as the MMDBMS maintains a connection between
//!   images x and op(x)"),
//! * [`StorageEngine`] — the public facade tying them together; it
//!   implements `mmdb_editops::ImageResolver` (so edit sequences can be
//!   instantiated against it) and `mmdb_rules::InfoResolver` (so the RBM/BWM
//!   query paths can fetch base/target histograms without touching pixels).
//!   Its shard state, [`ReadView`] and read/write API are [`engine`]; create,
//!   open, WAL replay, snapshots and compaction are `recovery.rs`, beside
//!   the WAL codec in [`durability`]; `verify`, `lint` and `stats` are
//!   `inspect.rs`.

pub mod blobstore;
pub mod catalog;
pub mod durability;
pub mod engine;
pub mod epoch;
pub mod error;
mod inspect;
pub mod lru;
mod recovery;

pub use blobstore::{BlobRef, BlobStore};
pub use catalog::{id_class, Catalog, CatalogEntry, StoredKind};
pub use durability::{blob_file_name, DurabilityOptions, RecoveryInfo, WalRecord};
pub use engine::{ReadView, StorageEngine, StorageStats};
pub use epoch::MutationEpoch;
pub use error::StorageError;
pub use lru::LruCache;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Eagerly registers this layer's metric series (zero-valued until traffic
/// arrives) so exposition shows the full storage schema from process start.
pub fn register_metrics() {
    let g = mmdb_telemetry::global();
    for name in [
        "mmdb_storage_blob_writes_total",
        "mmdb_storage_blob_write_bytes_total",
        "mmdb_storage_edited_inserts_total",
        "mmdb_storage_cache_hits_total",
        "mmdb_storage_cache_misses_total",
        "mmdb_storage_blob_reads_total",
        "mmdb_storage_blob_read_bytes_total",
        "mmdb_storage_instantiations_total",
        "mmdb_storage_cache_evictions_total",
        r#"mmdb_storage_ingest_total{result="accepted"}"#,
        r#"mmdb_storage_ingest_total{result="rejected"}"#,
    ] {
        let _ = g.counter(name);
    }
    let _ = g.histogram("mmdb_storage_instantiation_latency_seconds");
    let _ = g.histogram("mmdb_storage_ingest_latency_seconds");
}
