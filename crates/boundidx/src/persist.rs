//! Warm-start persistence for [`BoundIndex`]: one versioned, CRC-validated
//! segment file per rule profile under `<data-dir>/boundidx/`.
//!
//! The file stores the served intervals and the synced mutation epoch:
//! one row per resident image, in strictly ascending id order, each the id
//! (`u64`), how many bins list it (`u16`), then each of those bins in
//! strictly ascending order as `(bin u16, lo f64, hi f64)` — 10 + 18 B per
//! listed bin. A bin a row does not name is `[0, 0]` there, and a row
//! never names `[0, 0]`, so an index has exactly one encoding. The `lo`
//! and `hi` bits are the resident fractions themselves, so a reloaded
//! index answers every lookup bit-identically. Load stages the rows and merges
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
use crate::interval::BinIntervals;
use crate::BoundIndex;
use mmdb_durable::crc32;
use mmdb_editops::codec::Reader;
use mmdb_editops::ImageId;
use mmdb_rules::RuleProfile;
use mmdb_telemetry::{counter, histogram};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Magic prefix of an index segment file.
pub const INDEX_MAGIC: [u8; 8] = *b"MMDBIDX1";

/// The format version stamped into index files, independent of the durable
/// layer's: a file of another version fails [`load`], and the caller
/// rebuilds it.
pub const INDEX_FORMAT_VERSION: u32 = 5;

/// The smallest row: an id and a listed count of 0.
const MIN_ROW_BYTES: usize = 8 + 2;

/// One listed bin of a row: `bin u16`, `lo f64`, `hi f64`.
const LISTED_BYTES: usize = 2 + 8 + 8;

/// File name of one profile's persisted index (`<label>.idx`).
pub fn index_file_name(profile: RuleProfile) -> String {
    format!("{}.idx", profile.label())
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serializes `idx` into `<dir>/<label>.idx` atomically (temp file +
/// rename). Creates `dir` if needed. Returns the final path. An index over
/// more bins than a `u16` counts has no file: `InvalidInput`.
pub fn save(idx: &BoundIndex, dir: &Path) -> io::Result<PathBuf> {
    let started = Instant::now();
    if idx.bin_count() > usize::from(u16::MAX) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("an index file holds at most {} bins", u16::MAX),
        ));
    }
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
/// ascending, listed bins strictly ascending and below the bin count,
/// every interval within `0 <= lo <= hi <= 1` and none `[0, 0]`, and
/// exactly as many rows as the bytes hold. `Ok(None)` when no file exists;
/// `Err` when one exists but cannot be trusted (torn write, version skew,
/// quantizer change, a checksummed file that breaks a row rule) — callers
/// discard it and fall back to a cold build.
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

/// The file's bytes. A row's listed bins are written as the bins are
/// walked, in ascending order, each at its row's cursor.
fn encode(idx: &BoundIndex) -> Vec<u8> {
    let (ids, bins) = idx.parts();
    let row_of = |id| ids.binary_search(&id).expect("a listed image is resident");
    let mut listed = vec![0u16; ids.len()];
    for e in bins.iter().flat_map(BinIntervals::entries) {
        listed[row_of(e.id)] += 1;
    }
    let label = RuleProfile::Conservative.label().as_bytes();
    let listed_bytes: usize = listed.iter().map(|&n| LISTED_BYTES * usize::from(n)).sum();
    let mut out = Vec::with_capacity(64 + MIN_ROW_BYTES * ids.len() + listed_bytes);
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(label.len() as u16).to_le_bytes());
    out.extend_from_slice(label);
    out.extend_from_slice(&idx.synced_epoch().to_le_bytes());
    out.extend_from_slice(&(bins.len() as u32).to_le_bytes());
    out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    let mut cursor = Vec::with_capacity(ids.len());
    for (id, n) in ids.iter().zip(&listed) {
        out.extend_from_slice(&id.raw().to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
        cursor.push(out.len());
        out.resize(out.len() + LISTED_BYTES * usize::from(*n), 0);
    }
    for (bin, intervals) in bins.iter().enumerate() {
        for e in intervals.entries() {
            let at = &mut cursor[row_of(e.id)];
            let slot = &mut out[*at..*at + LISTED_BYTES];
            slot[..2].copy_from_slice(&(bin as u16).to_le_bytes());
            slot[2..10].copy_from_slice(&e.lo.to_le_bytes());
            slot[10..].copy_from_slice(&e.hi.to_le_bytes());
            *at += LISTED_BYTES;
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
    let least = count.checked_mul(MIN_ROW_BYTES as u64);
    if least.is_none_or(|least| least > r.remaining() as u64) {
        return Err(corrupt(format!(
            "{count} rows of at least {MIN_ROW_BYTES} B do not fit in the {} B that follow",
            r.remaining()
        )));
    }
    let mut staged = Staged::with_capacity(width, count as usize);
    let mut row = Vec::new();
    let mut last: Option<ImageId> = None;
    for _ in 0..count {
        let id = ImageId::new(r.u64("row id")?);
        if last.is_some_and(|last| last >= id) {
            return Err(corrupt(format!("row id {} does not ascend", id.raw())));
        }
        last = Some(id);
        row.clear();
        for _ in 0..r.u16("listed bins")? {
            let bin = usize::from(r.u16("bin")?);
            let (lo, hi) = (r.f64("interval lo")?, r.f64("interval hi")?);
            let refusal = if bin >= width {
                format!("bin {bin} is out of range for {width} bins")
            } else if row.last().is_some_and(|&(last, _, _)| last >= bin) {
                format!("bin {bin} does not ascend")
            } else if !((0.0..=1.0).contains(&lo) && (lo..=1.0).contains(&hi)) {
                format!("interval [{lo}, {hi}] breaks 0 <= lo <= hi <= 1")
            } else if lo == 0.0 && hi == 0.0 {
                format!("bin {bin} lists [0, 0]")
            } else {
                row.push((bin, lo, hi));
                continue;
            };
            return Err(corrupt(format!("image {}: {refusal}", id.raw())));
        }
        staged.push(id, row.iter().copied());
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!("{} B after the last row", r.remaining())));
    }
    let mut idx = BoundIndex::new(bin_count);
    idx.admit(staged, epoch);
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_rules::ColorRangeQuery;
    use proptest::prelude::*;

    /// Image #1 and #7 over two bins, as `(id, [(lo, hi); 2])` rows.
    const SAMPLE: [(u64, [(f64, f64); 2]); 2] =
        [(1, [(0.5, 0.5), (0.0, 0.3)]), (7, [(0.1, 0.9), (0.0, 0.0)])];

    /// An index of `rows`, each `(id, the (lo, hi) of every bin)`.
    fn index_of<'a>(
        bin_count: usize,
        rows: impl IntoIterator<Item = (u64, &'a [(f64, f64)])>,
        epoch: u64,
    ) -> BoundIndex {
        let mut staged = Staged::with_capacity(bin_count, 0);
        for (id, row) in rows {
            let intervals = row.iter().enumerate().map(|(bin, &(lo, hi))| (bin, lo, hi));
            staged.push(ImageId::new(id), intervals);
        }
        let mut idx = BoundIndex::new(bin_count);
        idx.admit(staged, epoch);
        idx
    }

    fn sample_index(epoch: u64) -> BoundIndex {
        index_of(2, SAMPLE.iter().map(|(id, row)| (*id, &row[..])), epoch)
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

    /// A row as written: the id, then `(bin, lo, hi)` for each listed bin.
    type Row = (u64, Vec<(u16, f64, f64)>);

    /// A checksummed current-version file over `width` bins that declares
    /// `count` rows and holds `rows`.
    fn file(count: u64, width: u32, rows: &[Row]) -> Vec<u8> {
        let label = RuleProfile::Conservative.label().as_bytes();
        let mut body = Vec::new();
        body.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&(label.len() as u16).to_le_bytes());
        body.extend_from_slice(label);
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&width.to_le_bytes());
        body.extend_from_slice(&count.to_le_bytes());
        for (id, listed) in rows {
            body.extend_from_slice(&id.to_le_bytes());
            body.extend_from_slice(&(listed.len() as u16).to_le_bytes());
            for (bin, lo, hi) in listed {
                body.extend_from_slice(&bin.to_le_bytes());
                body.extend_from_slice(&lo.to_le_bytes());
                body.extend_from_slice(&hi.to_le_bytes());
            }
        }
        let crc = crc32(&body);
        [&INDEX_MAGIC[..], &body, &crc.to_le_bytes()].concat()
    }

    /// Image #7's `[0, 0]` in bin 1 is not written: 10 + 18 B per listed
    /// bin, three listed bins over the two rows.
    #[test]
    fn a_row_is_the_id_then_each_listed_bins_lo_and_hi_bits() {
        let rows = [
            (1, vec![(0, 0.5, 0.5), (1, 0.0, 0.3)]),
            (7, vec![(0, 0.1, 0.9)]),
        ];
        let bytes = encode(&sample_index(9));
        assert_eq!(bytes, file(2, 2, &rows));
        let header = file(0, 2, &[]).len();
        assert_eq!(bytes.len(), header + 2 * 10 + 3 * 18);
    }

    /// A checksummed file that breaks a row rule is refused, never loaded:
    /// a repeated id, say, would be served twice and outlive its image, and
    /// a listed `[0, 0]` would give the index a second encoding.
    #[test]
    fn checksummed_rows_that_break_the_rules_are_refused() {
        let row = |id, lo, hi| (id, vec![(0, 0.5, 0.5), (1, lo, hi)]);
        let listed = |id, bins: &[(u16, f64, f64)]| (id, bins.to_vec());
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
            ("rows past the bytes", 1 << 40, good.clone()),
            ("bytes after the last row", 1, good.clone()),
            (
                "bin out of range",
                1,
                vec![listed(1, &[(0, 0.5, 0.5), (2, 0.1, 0.3)])],
            ),
            (
                "bins not ascending",
                1,
                vec![listed(1, &[(1, 0.1, 0.3), (0, 0.5, 0.5)])],
            ),
            (
                "a bin listed twice",
                1,
                vec![listed(1, &[(0, 0.5, 0.5), (0, 0.5, 0.5)])],
            ),
            ("listed [0, 0]", 1, vec![row(1, 0.0, 0.0)]),
            ("listed [-0, 0]", 1, vec![row(1, -0.0, 0.0)]),
        ] {
            let bytes = file(count, 2, &rows);
            assert!(
                decode(&bytes, RuleProfile::Conservative, 2).is_err(),
                "{what}"
            );
        }
    }

    /// A row names its bins and counts them in a `u16`.
    #[test]
    fn an_index_over_more_bins_than_a_u16_counts_has_no_file() {
        let dir = tmp_dir("wide");
        let err = save(&BoundIndex::new(usize::from(u16::MAX) + 1), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(load(&dir, RuleProfile::Conservative, 1 << 16)
            .unwrap()
            .is_none());
        save(&BoundIndex::new(usize::from(u16::MAX)), &dir).unwrap();
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

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// One bin of a row: `[0, 0]` half the time, else a point, an interval
    /// from `-0.0`, or the hull of two fractions.
    fn arb_interval() -> impl Strategy<Value = (f64, f64)> {
        (0u8..6, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(shape, a, b)| match shape {
            0..=2 => (0.0, 0.0),
            3 => (a, a),
            4 => (-0.0, a),
            _ => (a.min(b), a.max(b)),
        })
    }

    /// The ids in `idx` that `query` finds, ascending.
    fn found(idx: &BoundIndex, query: &ColorRangeQuery) -> Vec<ImageId> {
        let mut ids = idx.lookup(query).ids;
        ids.sort_unstable();
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases(64)))]

        /// A random sparse index — images listed in no bin, a bin that
        /// lists no image, `lo` of `-0.0` — saves to a file that loads to
        /// an index answering every query alike, at-most queries included,
        /// and saving that index again writes the same bytes. The file
        /// with any other row count is refused.
        #[test]
        fn save_load_save_is_byte_identical_and_answers_alike(
            bin_count in 1usize..6,
            rows in proptest::collection::vec(
                (1u64..1000, any::<bool>(), proptest::collection::vec(arb_interval(), 5)),
                0..25,
            ),
            empty_bin in 0usize..6,
            edges in proptest::collection::vec(0.0f64..1.0, 2),
            hostile in prop_oneof![0u64..40, any::<u64>()],
        ) {
            let mut id = 0;
            let dense: Vec<(u64, Vec<(f64, f64)>)> = rows
                .into_iter()
                .map(|(gap, blank, mut row)| {
                    id += gap;
                    row.truncate(bin_count);
                    for (bin, interval) in row.iter_mut().enumerate() {
                        if blank || bin == empty_bin {
                            *interval = (0.0, 0.0);
                        }
                    }
                    (id, row)
                })
                .collect();
            let idx = index_of(bin_count, dense.iter().map(|(id, row)| (*id, &row[..])), 5);
            let dir = tmp_dir("prop");
            let path = save(&idx, &dir).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let back = load(&dir, RuleProfile::Conservative, bin_count).unwrap().unwrap();
            save(&back, &dir).unwrap();
            prop_assert_eq!(std::fs::read(&path).unwrap(), bytes.clone());
            std::fs::remove_dir_all(&dir).ok();

            prop_assert_eq!(back.len(), dense.len());
            prop_assert_eq!(back.synced_epoch(), 5);
            let (a, b) = (edges[0].min(edges[1]), edges[0].max(edges[1]));
            for bin in 0..bin_count {
                for (pct_min, pct_max) in [(a, b), (0.0, a), (-0.0, b), (0.0, 0.0), (-0.0, -0.0)] {
                    let q = ColorRangeQuery { bin, pct_min, pct_max };
                    prop_assert_eq!(found(&back, &q), found(&idx, &q), "bin {} {:?}", bin, q);
                }
            }

            // The same file, checksummed, with a hostile row count.
            let mut forged = bytes;
            let at = file(0, 0, &[]).len() - 4 - 8;
            forged[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
            let crc_at = forged.len() - 4;
            let crc = crc32(&forged[INDEX_MAGIC.len()..crc_at]);
            forged[crc_at..].copy_from_slice(&crc.to_le_bytes());
            let decoded = decode(&forged, RuleProfile::Conservative, bin_count);
            prop_assert_eq!(decoded.is_ok(), hostile == dense.len() as u64);
        }
    }
}
