//! Looking at a stored shard without changing it: the consistency check
//! (`verify`), the static analyzer over every stored sequence (`lint`), and
//! the space statistics behind the paper's storage argument (`stats`).

use crate::catalog::CatalogEntry;
use crate::engine::StorageEngine;
use mmdb_analysis::{AnalysisReport, Analyzer, Severity};
use mmdb_bwm::SequenceStore;
use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::ColorHistogram;
use mmdb_imaging::ppm;
use std::sync::Arc;

/// Aggregate storage statistics — the numbers behind the paper's space
/// argument for storing edited images as operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Number of conventionally stored images.
    pub binary_count: usize,
    /// Number of images stored as edit sequences.
    pub edited_count: usize,
    /// Bytes of blob storage consumed by binary images.
    pub binary_bytes: u64,
    /// Bytes consumed by encoded edit sequences (catalog-resident).
    pub edited_bytes: u64,
    /// Raster cache hits since open.
    pub cache_hits: u64,
    /// Raster cache misses since open.
    pub cache_misses: u64,
}

impl StorageStats {
    /// How many times smaller the edit-sequence representation is than the
    /// binary representation, per image on average. `None` when either side
    /// is empty.
    pub fn space_saving_factor(&self) -> Option<f64> {
        if self.binary_count == 0 || self.edited_count == 0 || self.edited_bytes == 0 {
            return None;
        }
        let avg_binary = self.binary_bytes as f64 / self.binary_count as f64;
        let avg_edited = self.edited_bytes as f64 / self.edited_count as f64;
        Some(avg_binary / avg_edited)
    }
}

impl StorageEngine {
    /// Consistency check (fsck): verifies that
    ///
    /// * every binary entry's blob decodes to a raster of the cataloged
    ///   dimensions and its stored histogram matches a re-extraction,
    /// * the static analyzer ([`StorageEngine::lint`]) finds no Error-level
    ///   diagnostic: every edit sequence is well-formed and boundable (its
    ///   references need no check: the catalog refuses a bad one on every
    ///   path that stores a sequence, see [`crate::Catalog::check_refs`]),
    /// * no blob overlaps another blob or a free-list hole.
    ///
    /// Returns the list of problems found (empty = healthy).
    pub fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut extents: Vec<(u64, u64, ImageId)> = Vec::new();
        // Collect everything to check under the read lock, then do the
        // expensive decode/extract work without holding it.
        let mut binaries = Vec::new();
        {
            let inner = self.inner.read();
            for (id, entry) in inner.catalog.iter() {
                match entry {
                    CatalogEntry::Binary {
                        blob,
                        width,
                        height,
                        histogram,
                    } => {
                        extents.push((blob.offset, blob.len, id));
                        let bytes = inner.blobs.get(*blob);
                        binaries.push((id, bytes, (*width, *height), Arc::clone(histogram)));
                    }
                    CatalogEntry::Edited { .. } => {}
                }
            }
            // Blob overlap checks (blobs vs blobs and blobs vs free holes).
            extents.sort_unstable();
            for w in extents.windows(2) {
                if w[0].1 > 0 && w[0].0 + w[0].1 > w[1].0 {
                    problems.push(format!("blobs of {} and {} overlap", w[0].2, w[1].2));
                }
            }
            for &(h_off, h_len) in inner.blobs.free_list() {
                for &(b_off, b_len, id) in &extents {
                    if b_len > 0 && b_off < h_off + h_len && h_off < b_off + b_len {
                        problems.push(format!("free hole ({h_off},{h_len}) overlaps blob of {id}"));
                    }
                }
            }
        }
        for (id, bytes, (width, height), histogram) in binaries {
            match bytes.and_then(|b| Ok(ppm::decode(&b)?)) {
                Err(e) => problems.push(format!("{id}: blob unreadable: {e}")),
                Ok(raster) => {
                    let (w, h) = (raster.width(), raster.height());
                    if (w, h) != (width, height) {
                        problems.push(format!(
                            "{id}: cataloged {width}x{height} but blob decodes to {w}x{h}"
                        ));
                    }
                    let fresh = ColorHistogram::extract(&raster, self.quantizer.as_ref());
                    if fresh.counts() != histogram.counts() {
                        problems.push(format!("{id}: stored histogram is stale"));
                    }
                }
            }
        }
        // Malformed or unboundable sequences are corruption; warnings (dead
        // ops, the Combine caveat) are not.
        problems.extend(
            self.lint()
                .diagnostics
                .iter()
                .filter(|d| d.severity() == Severity::Error)
                .map(ToString::to_string),
        );
        problems
    }

    /// Runs the static analyzer over every edited image stored here:
    /// well-formedness, dead ops and the bound-soundness audit, with this
    /// engine as resolver. The sequences are listed under one view, which
    /// is dropped before the analysis takes its own locks.
    pub fn lint(&self) -> AnalysisReport {
        let view = self.read_view();
        let sequences: Vec<(ImageId, Arc<EditSequence>)> = view
            .edited()
            .filter_map(|id| Some((id, view.sequence(id)?)))
            .collect();
        drop(view);
        let analyzer = Analyzer::with_resolver(self.quantizer.as_ref(), self.background, self);
        mmdb_analysis::analyze_catalog(sequences, &analyzer)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StorageStats {
        let inner = self.inner.read();
        let mut s = StorageStats::default();
        for (_, entry) in inner.catalog.iter() {
            match entry {
                CatalogEntry::Binary { blob, .. } => {
                    s.binary_count += 1;
                    s.binary_bytes += blob.len;
                }
                CatalogEntry::Edited { sequence, .. } => {
                    s.edited_count += 1;
                    s.edited_bytes += mmdb_editops::codec::encode(sequence).len() as u64;
                }
            }
        }
        drop(inner);
        let (hits, misses) = self.cache.lock().stats();
        s.cache_hits = hits;
        s.cache_misses = misses;
        s
    }
}
