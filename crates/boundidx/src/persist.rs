//! Warm-start persistence for [`BoundIndex`]: one versioned, CRC-validated
//! segment file per rule profile under `<data-dir>/boundidx/`.
//!
//! The file stores the memoized per-image bounds vectors (exact `u64`
//! triples, so the rebuilt fraction intervals are bit-identical to the
//! resident ones) plus the synced mutation epoch.
//! Load reassembles the per-bin sorted-endpoint arrays with one bulk sort
//! per bin — orders of magnitude cheaper than re-walking every edit
//! sequence — and stamps the result with the persisted epoch so the
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

use crate::BoundIndex;
use mmdb_durable::crc32;
use mmdb_editops::codec::Reader;
use mmdb_editops::ImageId;
use mmdb_rules::{BoundRange, RuleProfile};
use mmdb_telemetry::{counter, histogram};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic prefix of an index segment file.
pub const INDEX_MAGIC: [u8; 8] = *b"MMDBIDX1";

/// The format version stamped into index files, independent of the durable
/// layer's: a file of another version fails [`load`], and the caller
/// rebuilds it.
pub const INDEX_FORMAT_VERSION: u32 = 3;

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
/// version, CRC, profile label, and bin width. `Ok(None)` when no file
/// exists; `Err` when one exists but cannot be trusted (torn write, version
/// skew, quantizer change) — callers discard it and fall back to a cold
/// build.
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
    counter!("mmdb_boundidx_warm_loads_total").inc();
    histogram!("mmdb_boundidx_load_seconds").observe(started.elapsed());
    Ok(Some(idx))
}

/// Removes the persisted index file for `profile`, if any — used when the
/// file's epoch is ahead of the recovered catalog (snapshot rollback made
/// its contents describe images that no longer exist).
pub fn discard(dir: &Path, profile: RuleProfile) -> io::Result<()> {
    match std::fs::remove_file(dir.join(index_file_name(profile))) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

fn encode(idx: &BoundIndex) -> Vec<u8> {
    let entries = idx.export_entries();
    let label = RuleProfile::Conservative.label().as_bytes();
    let mut out = Vec::with_capacity(64 + entries.len() * 32);
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(label.len() as u16).to_le_bytes());
    out.extend_from_slice(label);
    out.extend_from_slice(&idx.synced_epoch().to_le_bytes());
    out.extend_from_slice(&(idx.bin_count() as u32).to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (id, bounds) in entries {
        out.extend_from_slice(&id.raw().to_le_bytes());
        for b in bounds {
            out.extend_from_slice(&b.min.to_le_bytes());
            out.extend_from_slice(&b.max.to_le_bytes());
            out.extend_from_slice(&b.total.to_le_bytes());
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
    let count = r.u64("entry count")? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let id = ImageId::new(r.u64("entry id")?);
        let mut bounds = Vec::with_capacity(width);
        for _ in 0..width {
            let (min, max, total) = (
                r.u64("bound min")?,
                r.u64("bound max")?,
                r.u64("bound total")?,
            );
            if min > max || max > total {
                return Err(corrupt("bound triple violates min <= max <= total"));
            }
            bounds.push(BoundRange { min, max, total });
        }
        entries.push((id, bounds));
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after last index entry"));
    }
    Ok(BoundIndex::assemble(bin_count, epoch, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_rules::ColorRangeQuery;

    fn sample_index(epoch: u64) -> BoundIndex {
        let entries = vec![
            (
                ImageId::new(1),
                vec![
                    BoundRange::exact(50, 100),
                    BoundRange {
                        min: 0,
                        max: 30,
                        total: 100,
                    },
                ],
            ),
            (
                ImageId::new(7),
                vec![
                    BoundRange {
                        min: 10,
                        max: 90,
                        total: 100,
                    },
                    BoundRange::exact(0, 100),
                ],
            ),
        ];
        BoundIndex::assemble(2, epoch, entries)
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
