//! Offline data-directory checker — the durable layer's analogue of the
//! sequence analyzer: stable `F` codes, a severity per finding, nonzero
//! exit decided by the caller on any `Error`.
//!
//! [`fsck`] validates what this crate owns: the meta header, every
//! snapshot's checksum, every WAL segment's header, frame CRCs, and
//! cross-segment sequence-number continuity. Storage-level checks that
//! need the catalog codec (payload decodes, blob generation file exists,
//! boundidx segments parse) are layered on by `mmdbctl fsck`, which pushes
//! its findings into the same report.

use std::fmt;
use std::fs;
use std::path::Path;

use crate::frame::scan_frames;
use crate::meta::read_meta;
use crate::snapshot::{decode as decode_snapshot, SnapshotInfo, SnapshotStore};
use crate::wal::{decode_header, header_cut_short, list_segments, SEGMENT_HEADER_BYTES};

/// How serious a finding is. `Error` means recovery would fail or lose
/// acknowledged data; `Warn` means recovery degrades (e.g. falls back to an
/// older snapshot); `Note` is expected crash residue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The directory cannot be opened, or opens with data loss.
    Error,
    /// Recovery succeeds but something on disk is damaged or wasted.
    Warn,
    /// Expected residue (torn tail after a crash); informational.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Note => "note",
        })
    }
}

/// Every check fsck can raise. The numeric code (`F001`…) is part of the
/// stable interface, like the analyzer's `E`/`W`/`N` codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FsckCode {
    /// `F001` — meta file missing, unreadable, or bad magic/CRC.
    MetaInvalid,
    /// `F002` — format version outside this build's readable range.
    UnsupportedVersion,
    /// `F003` — a snapshot file fails checksum or header validation
    /// (recovery skips it and falls back to an older one).
    SnapshotCorrupt,
    /// `F004` — no loadable snapshot exists at all.
    NoValidSnapshot,
    /// `F005` — a WAL segment has a bad header or disagrees with its file
    /// name.
    SegmentHeaderInvalid,
    /// `F006` — a CRC-invalid frame *before* the log tail: records after it
    /// are unreachable, so acknowledged data would be lost.
    FrameCorrupt,
    /// `F007` — torn final record in the active segment, or a last segment
    /// shorter than its header; recovery truncates the one and removes the
    /// other (expected after a crash mid-append or mid-rotation).
    TornTail,
    /// `F008` — sequence numbers are not contiguous across segments.
    SequenceGap,
    /// `F009` — a persisted boundidx segment fails validation (recovery
    /// ignores it and rebuilds; pushed by the storage-aware caller).
    IndexSegmentCorrupt,
    /// `F010` — the blob generation file the latest snapshot references is
    /// missing (pushed by the storage-aware caller).
    BlobGenerationMissing,
    /// `F011` — the latest snapshot's payload does not decode as a catalog
    /// (pushed by the storage-aware caller).
    SnapshotUndecodable,
}

impl FsckCode {
    /// Every code, in code order.
    pub const ALL: [FsckCode; 11] = [
        FsckCode::MetaInvalid,
        FsckCode::UnsupportedVersion,
        FsckCode::SnapshotCorrupt,
        FsckCode::NoValidSnapshot,
        FsckCode::SegmentHeaderInvalid,
        FsckCode::FrameCorrupt,
        FsckCode::TornTail,
        FsckCode::SequenceGap,
        FsckCode::IndexSegmentCorrupt,
        FsckCode::BlobGenerationMissing,
        FsckCode::SnapshotUndecodable,
    ];

    /// Stable textual code.
    pub fn code(self) -> &'static str {
        match self {
            FsckCode::MetaInvalid => "F001",
            FsckCode::UnsupportedVersion => "F002",
            FsckCode::SnapshotCorrupt => "F003",
            FsckCode::NoValidSnapshot => "F004",
            FsckCode::SegmentHeaderInvalid => "F005",
            FsckCode::FrameCorrupt => "F006",
            FsckCode::TornTail => "F007",
            FsckCode::SequenceGap => "F008",
            FsckCode::IndexSegmentCorrupt => "F009",
            FsckCode::BlobGenerationMissing => "F010",
            FsckCode::SnapshotUndecodable => "F011",
        }
    }

    /// Fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            FsckCode::MetaInvalid
            | FsckCode::UnsupportedVersion
            | FsckCode::NoValidSnapshot
            | FsckCode::FrameCorrupt
            | FsckCode::SequenceGap
            | FsckCode::SegmentHeaderInvalid
            | FsckCode::BlobGenerationMissing
            | FsckCode::SnapshotUndecodable => Severity::Error,
            FsckCode::SnapshotCorrupt | FsckCode::IndexSegmentCorrupt => Severity::Warn,
            FsckCode::TornTail => Severity::Note,
        }
    }

    /// One-line summary of what the code means.
    pub fn summary(self) -> &'static str {
        match self {
            FsckCode::MetaInvalid => "meta header missing or invalid",
            FsckCode::UnsupportedVersion => "on-disk format version unsupported",
            FsckCode::SnapshotCorrupt => "snapshot fails validation; recovery falls back",
            FsckCode::NoValidSnapshot => "no loadable snapshot",
            FsckCode::SegmentHeaderInvalid => "WAL segment header invalid",
            FsckCode::FrameCorrupt => "CRC-invalid frame before the log tail",
            FsckCode::TornTail => "torn final record or segment header (crash residue)",
            FsckCode::SequenceGap => "sequence numbers not contiguous across segments",
            FsckCode::IndexSegmentCorrupt => "persisted boundidx segment invalid",
            FsckCode::BlobGenerationMissing => "blob generation file missing",
            FsckCode::SnapshotUndecodable => "snapshot payload does not decode as a catalog",
        }
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which check fired.
    pub code: FsckCode,
    /// File/offset specifics.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.code.severity(),
            self.code.code(),
            self.code.summary(),
            self.detail
        )
    }
}

/// Everything fsck learned about a data directory.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Header of the newest loadable snapshot, when one exists.
    pub latest_snapshot: Option<SnapshotInfo>,
    /// WAL segment files seen.
    pub segments: u64,
    /// Valid records across all segments.
    pub wal_records: u64,
    /// Records beyond the newest loadable snapshot — what recovery would
    /// replay (0 after a clean shutdown).
    pub tail_records: u64,
}

impl FsckReport {
    /// Adds a finding (also used by storage-aware callers for `F009`+).
    pub fn push(&mut self, code: FsckCode, detail: impl Into<String>) {
        self.findings.push(Finding {
            code,
            detail: detail.into(),
        });
    }

    /// True when any `Error`-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.findings
            .iter()
            .any(|f| f.code.severity() == Severity::Error)
    }
}

/// Checks the durable layer of `dir`: meta, snapshots, WAL.
pub fn fsck(dir: &Path) -> FsckReport {
    let mut report = FsckReport::default();

    match read_meta(dir) {
        Ok(Some(meta)) => {
            if let Err(e) = meta.check_readable() {
                report.push(FsckCode::UnsupportedVersion, e.to_string());
            }
        }
        Ok(None) => report.push(
            FsckCode::MetaInvalid,
            format!("{} has no meta file", dir.display()),
        ),
        Err(e) => report.push(FsckCode::MetaInvalid, e.to_string()),
    }

    // Snapshots: validate every file; remember the newest loadable one.
    let snap_dir = dir.join("snapshots");
    match SnapshotStore::open(&snap_dir).and_then(|s| s.list()) {
        Ok(files) => {
            let mut newest_ok: Option<SnapshotInfo> = None;
            for (path, _) in &files {
                match fs::read(path).map_err(Into::into).and_then(|b| {
                    decode_snapshot(&b).map(|(covered, blob_gen, payload)| SnapshotInfo {
                        covered_seqno: covered,
                        blob_gen,
                        payload_len: payload.len() as u64,
                        path: path.clone(),
                    })
                }) {
                    Ok(info) => newest_ok = Some(info),
                    Err(e) => report.push(
                        FsckCode::SnapshotCorrupt,
                        format!("{}: {e}", path.display()),
                    ),
                }
            }
            if newest_ok.is_none() {
                report.push(
                    FsckCode::NoValidSnapshot,
                    format!("{} holds no loadable snapshot", snap_dir.display()),
                );
            }
            report.latest_snapshot = newest_ok;
        }
        Err(e) => report.push(FsckCode::NoValidSnapshot, e.to_string()),
    }

    // WAL: headers, frames, continuity.
    let wal_dir = dir.join("wal");
    let mut segments = match list_segments(&wal_dir) {
        Ok(s) => s,
        Err(e) => {
            report.push(
                FsckCode::SegmentHeaderInvalid,
                format!("cannot list {}: {e}", wal_dir.display()),
            );
            Vec::new()
        }
    };
    report.segments = segments.len() as u64;
    // A last segment cut short of its header holds no record; `Wal::open`
    // removes it, and the segment before it is the active one.
    if let Ok(Some(len)) = header_cut_short(&segments) {
        let (path, _) = segments.pop().expect("nonempty");
        report.push(
            FsckCode::TornTail,
            format!(
                "{}: {len}B, shorter than a segment header (crash mid-rotation)",
                path.display()
            ),
        );
    }
    let covered = report
        .latest_snapshot
        .as_ref()
        .map_or(0, |s| s.covered_seqno);
    for (i, (path, name_first)) in segments.iter().enumerate() {
        let is_last = i + 1 == segments.len();
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                report.push(
                    FsckCode::SegmentHeaderInvalid,
                    format!("{}: {e}", path.display()),
                );
                continue;
            }
        };
        let first = match decode_header(&bytes, Some(*name_first)) {
            Ok(f) => f,
            Err(e) => {
                report.push(
                    FsckCode::SegmentHeaderInvalid,
                    format!("{}: {e}", path.display()),
                );
                continue;
            }
        };
        let scan = scan_frames(&bytes[SEGMENT_HEADER_BYTES as usize..]);
        let count = scan.payload_ranges.len() as u64;
        report.wal_records += count;
        for idx in 0..count {
            if first + idx > covered {
                report.tail_records += 1;
            }
        }
        if let Some((dropped, reason)) = scan.tail {
            if is_last {
                report.push(
                    FsckCode::TornTail,
                    format!(
                        "{}: {dropped}B beyond last valid frame ({})",
                        path.display(),
                        reason.as_str()
                    ),
                );
            } else {
                report.push(
                    FsckCode::FrameCorrupt,
                    format!(
                        "{}: {} with {dropped}B after it in a sealed segment",
                        path.display(),
                        reason.as_str()
                    ),
                );
            }
        }
        if !is_last {
            let next_first = segments[i + 1].1;
            if first + count != next_first {
                report.push(
                    FsckCode::SequenceGap,
                    format!(
                        "{} ends at seqno {}, successor starts at {next_first}",
                        path.display(),
                        first + count.saturating_sub(1)
                    ),
                );
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{write_meta, Meta};
    use crate::policy::FsyncPolicy;
    use crate::snapshot::SnapshotStore;
    use crate::wal::{Wal, WalOptions};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("mmdb-fsck-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn healthy_dir(tag: &str) -> PathBuf {
        let dir = temp_dir(tag);
        write_meta(&dir, Meta::current()).unwrap();
        let store = SnapshotStore::open(&dir.join("snapshots")).unwrap();
        store.write(0, 0, b"catalog-bytes").unwrap();
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Never,
        };
        let (mut wal, _) = Wal::open(&dir.join("wal"), opts, 0).unwrap();
        wal.append(b"record-a").unwrap();
        wal.append(b"record-b").unwrap();
        wal.sync().unwrap();
        dir
    }

    #[test]
    fn healthy_directory_is_clean() {
        let dir = healthy_dir("clean");
        let report = fsck(&dir);
        assert!(!report.has_errors(), "{:?}", report.findings);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.tail_records, 2);
        assert_eq!(report.wal_records, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_meta_and_snapshot_are_errors() {
        let dir = temp_dir("empty");
        let report = fsck(&dir);
        assert!(report.has_errors());
        let codes: Vec<_> = report.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&FsckCode::MetaInvalid));
        assert!(codes.contains(&FsckCode::NoValidSnapshot));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_a_note_not_an_error() {
        let dir = healthy_dir("torn");
        let (path, _) = list_segments(&dir.join("wal")).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let report = fsck(&dir);
        assert!(!report.has_errors(), "{:?}", report.findings);
        assert!(report.findings.iter().any(|f| f.code == FsckCode::TornTail));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_cut_short_of_its_header_is_a_note() {
        for residue in [0usize, 7] {
            let dir = healthy_dir("cutshort");
            let wal_dir = dir.join("wal");
            fs::write(
                wal_dir.join(format!("wal-{:016x}.seg", 3)),
                &b"MMDBWAL1"[..residue],
            )
            .unwrap();
            let report = fsck(&dir);
            assert!(!report.has_errors(), "{:?}", report.findings);
            let codes: Vec<_> = report.findings.iter().map(|f| f.code).collect();
            assert_eq!(codes, vec![FsckCode::TornTail], "{:?}", report.findings);
            assert_eq!((report.segments, report.wal_records), (2, 2));
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupt_snapshot_without_fallback_is_error() {
        let dir = healthy_dir("snapbad");
        for (path, _) in SnapshotStore::open(&dir.join("snapshots"))
            .unwrap()
            .list()
            .unwrap()
        {
            fs::write(&path, b"junk").unwrap();
        }
        let report = fsck(&dir);
        assert!(report.has_errors());
        let codes: Vec<_> = report.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&FsckCode::SnapshotCorrupt));
        assert!(codes.contains(&FsckCode::NoValidSnapshot));
        fs::remove_dir_all(&dir).unwrap();
    }
}
