//! Warm-start persistence for [`BoundIndex`]: one versioned, CRC-validated
//! segment file per rule profile under `<data-dir>/boundidx/`.
//!
//! The file stores the served intervals and the synced mutation epoch:
//! one row per resident image, in strictly ascending id order, each the id
//! (`u64`) then every bin's `lo` and `hi` as `f64` bits (8 + 16 B per bin).
//! The bits are the resident fractions themselves, so a reloaded index
//! answers every lookup bit-identically. Load stages the rows and merges
//! them into the per-bin lists the way a build does — no rule walks, no
//! histogram probes — and stamps the result with the persisted epoch so the
//! existing freshness protocol decides what happens next:
//!
//! * stamp == engine epoch → the index is served immediately (warm start);
//! * stamp <  engine epoch → the next indexed query takes the *incremental*
//!   sync path over the already-resident entries, not a cold build;
//! * stamp >  engine epoch → the file describes a future the recovered
//!   catalog never reached (snapshot rollback); the caller must discard it.
//!
//! Writes go to a temp file and rename into place, so a crash mid-persist
//! leaves the previous file intact; a torn or corrupt file fails the CRC
//! and is treated as absent (warm start is an optimization, never a
//! correctness dependency).

use crate::index::Staged;
use crate::BoundIndex;
use mmdb_durable::crc32;
use mmdb_editops::codec::Reader;
use mmdb_editops::ImageId;
use mmdb_rules::RuleProfile;
use mmdb_telemetry::{counter, histogram};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic prefix of an index segment file.
pub const INDEX_MAGIC: [u8; 8] = *b"MMDBIDX1";

/// The format version stamped into index files, independent of the durable
/// layer's: a file of another version fails [`load`], and the caller
/// rebuilds it.
pub const INDEX_FORMAT_VERSION: u32 = 4;

/// File name of one profile's persisted index (`<label>.idx`).
pub fn index_file_name(profile: RuleProfile) -> String {
    format!("{}.idx", profile.label())
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serializes `idx` into `<dir>/<label>.idx` atomically (temp file +
/// rename). Creates `dir` if needed. Returns the final path.
pub fn save(idx: &BoundIndex, dir: &Path) -> io::Result<PathBuf> {
    let started = Instant::now();
    std::fs::create_dir_all(dir)?;
    let body = encode(idx);
    let path = dir.join(index_file_name(RuleProfile::Conservative));
    let tmp = path.with_extension("idx.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all(); // make the rename itself durable (best effort)
    }
    counter!("mmdb_boundidx_persist_total").inc();
    counter!("mmdb_boundidx_persist_bytes_total").add(body.len() as u64);
    histogram!("mmdb_boundidx_persist_seconds").observe(started.elapsed());
    Ok(path)
}

/// Loads the persisted index for `profile` from `dir`, validating magic,
/// version, CRC, profile label, bin width and every row: ids strictly
/// ascending, every interval within `0 <= lo <= hi <= 1`, and exactly as
/// many rows as the bytes hold. `Ok(None)` when no file exists; `Err` when
/// one exists but cannot be trusted (torn write, version skew, quantizer
/// change, a checksummed file that breaks a row rule) — callers discard it
/// and fall back to a cold build.
pub fn load(dir: &Path, profile: RuleProfile, bin_count: usize) -> io::Result<Option<BoundIndex>> {
    let started = Instant::now();
    let path = dir.join(index_file_name(profile));
    let mut bytes = Vec::new();
    match std::fs::File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    let idx = decode(&bytes, profile, bin_count)?;
    histogram!("mmdb_boundidx_load_seconds").observe(started.elapsed());
    Ok(Some(idx))
}

/// Removes the persisted index file for `profile`, if any — used when
/// `load` refused the file or its epoch is ahead of the recovered catalog
/// (snapshot rollback made its contents describe images that no longer
/// exist).
pub fn discard(dir: &Path, profile: RuleProfile) -> io::Result<()> {
    match std::fs::remove_file(dir.join(index_file_name(profile))) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

fn encode(idx: &BoundIndex) -> Vec<u8> {
    let (resident, bins) = idx.parts();
    let mut ids: Vec<ImageId> = resident.iter().copied().collect();
    ids.sort_unstable();
    let label = RuleProfile::Conservative.label().as_bytes();
    let row_bytes = 8 + 16 * bins.len();
    let mut out = Vec::with_capacity(64 + ids.len() * row_bytes);
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(label.len() as u16).to_le_bytes());
    out.extend_from_slice(label);
    out.extend_from_slice(&idx.synced_epoch().to_le_bytes());
    out.extend_from_slice(&(bins.len() as u32).to_le_bytes());
    out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    let rows = out.len();
    out.resize(rows + ids.len() * row_bytes, 0);
    for (row, id) in out[rows..].chunks_exact_mut(row_bytes).zip(&ids) {
        row[..8].copy_from_slice(&id.raw().to_le_bytes());
    }
    let row_of: HashMap<ImageId, usize> = ids.iter().enumerate().map(|(r, &id)| (id, r)).collect();
    for (bin, intervals) in bins.iter().enumerate() {
        for e in intervals.entries() {
            let row = row_of[&e.id];
            let at = rows + row * row_bytes + 8 + 16 * bin;
            out[at..at + 8].copy_from_slice(&e.lo.to_le_bytes());
            out[at + 8..at + 16].copy_from_slice(&e.hi.to_le_bytes());
        }
    }
    let crc = crc32(&out[INDEX_MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode(bytes: &[u8], profile: RuleProfile, bin_count: usize) -> io::Result<BoundIndex> {
    let Some(body_len) = bytes.len().checked_sub(INDEX_MAGIC.len() + 4) else {
        return Err(corrupt("index file truncated"));
    };
    let (magic, rest) = bytes.split_at(INDEX_MAGIC.len());
    if magic != INDEX_MAGIC {
        return Err(corrupt("bad index file magic"));
    }
    let (body, stored) = rest.split_at(body_len);
    if crc32(body).to_le_bytes() != stored {
        return Err(corrupt("index file checksum mismatch"));
    }
    let mut r = Reader::new(body, "index file");
    let version = r.u32("format version")?;
    if version != INDEX_FORMAT_VERSION {
        return Err(corrupt(format!(
            "index format version {version} (this build reads {INDEX_FORMAT_VERSION})"
        )));
    }
    let label_len = r.u16("profile label length")? as usize;
    let label = r.take(label_len, "profile label")?;
    if label != profile.label().as_bytes() {
        return Err(corrupt("index file is for a different rule profile"));
    }
    let epoch = r.u64("synced epoch")?;
    let width = r.u32("bin count")? as usize;
    if width != bin_count {
        return Err(corrupt(format!(
            "index has {width} bins, quantizer has {bin_count}"
        )));
    }
    let count = r.u64("row count")?;
    let row_bytes = 8 + 16 * width as u64;
    if count.checked_mul(row_bytes) != Some(r.remaining() as u64) {
        return Err(corrupt(format!(
            "{count} rows of {row_bytes} B do not fill the {} B that follow",
            r.remaining()
        )));
    }
    let mut staged = Staged::with_capacity(width, count as usize);
    let mut row = Vec::with_capacity(width);
    let mut last: Option<ImageId> = None;
    for _ in 0..count {
        let id = ImageId::new(r.u64("row id")?);
        if last.is_some_and(|last| last >= id) {
            return Err(corrupt(format!("row id {} does not ascend", id.raw())));
        }
        last = Some(id);
        row.clear();
        for _ in 0..width {
            let (lo, hi) = (r.f64("interval lo")?, r.f64("interval hi")?);
            if !((0.0..=1.0).contains(&lo) && (lo..=1.0).contains(&hi)) {
                return Err(corrupt(format!(
                    "image {}: interval [{lo}, {hi}] breaks 0 <= lo <= hi <= 1",
                    id.raw()
                )));
            }
            row.push((lo, hi));
        }
        staged.push(id, row.iter().copied());
    }
    let mut idx = BoundIndex::new(bin_count);
    idx.admit(staged, epoch);
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_rules::ColorRangeQuery;

    /// Image #1 and #7 over two bins, as `(id, [(lo, hi); 2])` rows.
    const SAMPLE: [(u64, [(f64, f64); 2]); 2] =
        [(1, [(0.5, 0.5), (0.0, 0.3)]), (7, [(0.1, 0.9), (0.0, 0.0)])];

    fn sample_index(epoch: u64) -> BoundIndex {
        let mut staged = Staged::with_capacity(2, SAMPLE.len());
        for (id, row) in SAMPLE {
            staged.push(ImageId::new(id), row);
        }
        let mut idx = BoundIndex::new(2);
        idx.admit(staged, epoch);
        idx
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("boundidx_persist_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trip_preserves_lookups_and_epoch() {
        let dir = tmp_dir("roundtrip");
        let idx = sample_index(42);
        save(&idx, &dir).unwrap();
        let back = load(&dir, RuleProfile::Conservative, 2).unwrap().unwrap();
        assert_eq!(back.synced_epoch(), 42);
        assert_eq!(back.len(), 2);
        for bin in 0..2 {
            for (lo, hi) in [(0.0, 1.0), (0.0, 0.2), (0.4, 0.6), (0.95, 1.0)] {
                let q = ColorRangeQuery::new(bin, lo, hi);
                let mut a = idx.lookup(&q).ids;
                let mut b = back.lookup(&q).ids;
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "bin {bin} [{lo},{hi}]");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksummed version-4 file over `width` bins that declares
    /// `count` rows and holds `rows`.
    fn file(count: u64, width: u32, rows: &[(u64, Vec<(f64, f64)>)]) -> Vec<u8> {
        let label = RuleProfile::Conservative.label().as_bytes();
        let mut body = Vec::new();
        body.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&(label.len() as u16).to_le_bytes());
        body.extend_from_slice(label);
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&width.to_le_bytes());
        body.extend_from_slice(&count.to_le_bytes());
        for (id, row) in rows {
            body.extend_from_slice(&id.to_le_bytes());
            for (lo, hi) in row {
                body.extend_from_slice(&lo.to_le_bytes());
                body.extend_from_slice(&hi.to_le_bytes());
            }
        }
        let crc = crc32(&body);
        [&INDEX_MAGIC[..], &body, &crc.to_le_bytes()].concat()
    }

    #[test]
    fn a_row_is_the_id_then_every_bins_lo_and_hi_bits() {
        let rows = SAMPLE.map(|(id, row)| (id, row.to_vec()));
        assert_eq!(encode(&sample_index(9)), file(2, 2, &rows));
    }

    /// A checksummed file that breaks a row rule is refused, never loaded:
    /// a repeated id, say, would be served twice and outlive its image.
    #[test]
    fn checksummed_rows_that_break_the_rules_are_refused() {
        let row = |id, lo, hi| (id, vec![(0.5, 0.5), (lo, hi)]);
        let good = vec![row(1, 0.0, 0.3), row(7, 0.1, 0.9)];
        assert!(decode(&file(2, 2, &good), RuleProfile::Conservative, 2).is_ok());
        for (what, count, rows) in [
            ("repeated id", 2, vec![row(1, 0.0, 0.3), row(1, 0.0, 0.3)]),
            (
                "descending ids",
                2,
                vec![row(7, 0.0, 0.3), row(1, 0.0, 0.3)],
            ),
            ("NaN lo", 1, vec![row(1, f64::NAN, 0.3)]),
            ("infinite hi", 1, vec![row(1, 0.0, f64::INFINITY)]),
            ("lo > hi", 1, vec![row(1, 0.4, 0.3)]),
            ("lo < 0", 1, vec![row(1, -0.1, 0.3)]),
            ("hi > 1", 1, vec![row(1, 0.0, 1.5)]),
            ("one row too many", 3, good.clone()),
            ("a count no file holds", u64::MAX, good.clone()),
            ("bytes after the last row", 1, good.clone()),
        ] {
            let bytes = file(count, 2, &rows);
            assert!(
                decode(&bytes, RuleProfile::Conservative, 2).is_err(),
                "{what}"
            );
        }
    }

    #[test]
    fn missing_file_is_none_and_discard_is_idempotent() {
        let dir = tmp_dir("missing");
        assert!(load(&dir, RuleProfile::Conservative, 2).unwrap().is_none());
        discard(&dir, RuleProfile::Conservative).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_version_skew_and_mismatches_are_rejected() {
        let dir = tmp_dir("corrupt");
        let path = save(&sample_index(7), &dir).unwrap();

        // Quantizer width change.
        assert!(load(&dir, RuleProfile::Conservative, 3).is_err());
        // Wrong profile: the file name differs, so it reads as absent...
        assert!(load(&dir, RuleProfile::PaperTable1, 2).unwrap().is_none());
        // ...and a renamed file fails the embedded label check.
        std::fs::copy(&path, dir.join(index_file_name(RuleProfile::PaperTable1))).unwrap();
        assert!(load(&dir, RuleProfile::PaperTable1, 2).is_err());

        // Flip one payload byte: CRC catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&dir, RuleProfile::Conservative, 2).is_err());

        // Truncation (torn write) is rejected too.
        let good = {
            save(&sample_index(7), &dir).unwrap();
            std::fs::read(&path).unwrap()
        };
        std::fs::write(&path, &good[..good.len() - 5]).unwrap();
        assert!(load(&dir, RuleProfile::Conservative, 2).is_err());
        // At every byte: an error, never a panic.
        assert!(decode(&good, RuleProfile::Conservative, 2).is_ok());
        for cut in 0..good.len() {
            assert!(
                decode(&good[..cut], RuleProfile::Conservative, 2).is_err(),
                "cut {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
