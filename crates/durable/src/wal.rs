//! Append-only segmented write-ahead log.
//!
//! The log is a directory of segment files named `wal-<first_seqno>.seg`
//! (sixteen lowercase hex digits). Each segment starts with a fixed header
//! — magic, format version, first sequence number — followed by CRC-framed
//! records ([`crate::frame`]). Sequence numbers are assigned densely: the
//! `i`-th frame of a segment holds record `first_seqno + i`, so a segment's
//! name plus its successor's name delimits exactly which records it holds
//! without scanning it. The active (last) segment is the only one ever
//! written. It is sealed, and a new one begins, when it crosses the size
//! threshold or when a snapshot covers every record in the log (the
//! storage engine calls [`Wal::rotate`] then). `Wal::open` checks only the
//! header of a sealed segment and scans only the active one, so after a
//! covering snapshot an open reads none of the covered records.
//!
//! Torn tails: a crash can leave a partial frame at the end of the active
//! segment. `Wal::open` scans the last segment to the last valid frame and
//! truncates the remainder, so "only the final record may be torn" holds as
//! an invariant everywhere else (a torn frame in a *sealed* segment is real
//! corruption and fails recovery). A crash between creating a segment and
//! writing its header leaves a last segment shorter than the header; it
//! holds no record, and `Wal::open` removes it and counts its bytes as
//! torn.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use mmdb_telemetry::{counter, gauge, histogram, EventKind};

use crate::error::{DurableError, Result};
use crate::frame::{encode_frame, scan_frames, FRAME_HEADER_BYTES};
use crate::policy::FsyncPolicy;
use crate::{DURABLE_FORMAT_VERSION, MIN_DURABLE_FORMAT_VERSION};

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"MMDBWAL1";

/// Bytes of segment header ahead of the first frame.
pub const SEGMENT_HEADER_BYTES: u64 = 20;

/// Tuning knobs for the log.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Seal the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Group-commit policy for append acknowledgment.
    pub fsync: FsyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::default(),
        }
    }
}

/// A sealed (read-only) segment.
#[derive(Clone, Debug)]
struct SealedSegment {
    path: PathBuf,
    first_seqno: u64,
}

/// What `Wal::open` found and repaired.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalOpenStats {
    /// Bytes of torn tail truncated from the active segment, plus the bytes
    /// of a removed segment that was cut short of its header.
    pub torn_bytes: u64,
    /// Highest sequence number present after repair (0 when empty).
    pub last_seqno: u64,
}

/// The segmented write-ahead log.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    sealed: Vec<SealedSegment>,
    active: File,
    active_first: u64,
    active_bytes: u64,
    next_seqno: u64,
    dirty: bool,
}

fn segment_path(dir: &Path, first_seqno: u64) -> PathBuf {
    dir.join(format!("wal-{first_seqno:016x}.seg"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn encode_header(first_seqno: u64) -> [u8; SEGMENT_HEADER_BYTES as usize] {
    let mut h = [0u8; SEGMENT_HEADER_BYTES as usize];
    h[..8].copy_from_slice(SEGMENT_MAGIC);
    h[8..12].copy_from_slice(&DURABLE_FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&first_seqno.to_le_bytes());
    h
}

/// Validates a segment header against the file name it was read from.
/// Returns the embedded first sequence number.
pub fn decode_header(bytes: &[u8], expect_first: Option<u64>) -> Result<u64> {
    if bytes.len() < SEGMENT_HEADER_BYTES as usize {
        return Err(DurableError::Corrupt("segment shorter than header".into()));
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(DurableError::Corrupt("bad segment magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if !(MIN_DURABLE_FORMAT_VERSION..=DURABLE_FORMAT_VERSION).contains(&version) {
        return Err(DurableError::Unsupported(format!(
            "segment format v{version}, supported v{MIN_DURABLE_FORMAT_VERSION}..=v{DURABLE_FORMAT_VERSION}"
        )));
    }
    let first = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    if let Some(want) = expect_first {
        if first != want {
            return Err(DurableError::Corrupt(format!(
                "segment header first_seqno {first} disagrees with file name {want}"
            )));
        }
    }
    Ok(first)
}

/// The length of the last of `segments` when it is shorter than a segment
/// header: a segment whose creation a crash cut short, holding no record.
pub(crate) fn header_cut_short(segments: &[(PathBuf, u64)]) -> Result<Option<u64>> {
    let Some((path, _)) = segments.last() else {
        return Ok(None);
    };
    let len = fs::metadata(path)?.len();
    Ok((len < SEGMENT_HEADER_BYTES).then_some(len))
}

/// Lists the segment files of `dir`, ascending by first sequence number.
pub fn list_segments(dir: &Path) -> Result<Vec<(PathBuf, u64)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(first) = parse_segment_name(name) {
            found.push((entry.path(), first));
        }
    }
    found.sort_by_key(|&(_, first)| first);
    Ok(found)
}

impl Wal {
    /// Opens (or initializes) the log in `dir`. When the directory holds no
    /// segments, the first segment starts at `base_seqno + 1` — the caller
    /// passes the sequence number its latest snapshot covers, so a log
    /// fully garbage-collected after a snapshot resumes without a gap.
    pub fn open(dir: &Path, opts: WalOptions, base_seqno: u64) -> Result<(Wal, WalOpenStats)> {
        fs::create_dir_all(dir)?;
        let mut segs = list_segments(dir)?;

        let mut stats = WalOpenStats::default();
        if let Some(len) = header_cut_short(&segs)? {
            // Both creators of a segment (`rotate`, and the first-segment
            // path below) write its header right after `create_new`; a
            // crash between the two leaves this residue, which holds no
            // record.
            let (path, _) = segs.pop().expect("nonempty");
            fs::remove_file(&path)?;
            sync_dir(dir);
            stats.torn_bytes += len;
            counter!("mmdb_recovery_torn_bytes_total").add(len);
            mmdb_telemetry::recorder().record(
                EventKind::Recovery,
                format!(
                    "segment cut short of its header removed: segment={} dropped={len}B",
                    path.display()
                ),
                &[("torn_bytes", len)],
            );
        }
        if segs.is_empty() {
            let first = base_seqno + 1;
            let path = segment_path(dir, first);
            let mut f = OpenOptions::new()
                .create_new(true)
                .read(true)
                .append(true)
                .open(&path)?;
            f.write_all(&encode_header(first))?;
            f.sync_data()?;
            sync_dir(dir);
            stats.last_seqno = base_seqno;
            let wal = Wal {
                dir: dir.to_path_buf(),
                opts,
                sealed: Vec::new(),
                active: f,
                active_first: first,
                active_bytes: SEGMENT_HEADER_BYTES,
                next_seqno: first,
                dirty: false,
            };
            wal.publish_gauges();
            return Ok((wal, stats));
        }

        for window in segs.windows(2) {
            if window[0].1 >= window[1].1 {
                return Err(DurableError::Corrupt(format!(
                    "segment order broken: {} then {}",
                    window[0].1, window[1].1
                )));
            }
        }

        // Validate sealed headers cheaply (header only), scan just the last
        // segment to find the append point and repair any torn tail.
        let (last_path, last_first) = segs.pop().expect("nonempty");
        let mut sealed = Vec::with_capacity(segs.len());
        for (path, first) in segs {
            let mut head = [0u8; SEGMENT_HEADER_BYTES as usize];
            File::open(&path)?.read_exact(&mut head).map_err(|_| {
                DurableError::Corrupt(format!("sealed segment {} truncated", path.display()))
            })?;
            decode_header(&head, Some(first))?;
            sealed.push(SealedSegment {
                path,
                first_seqno: first,
            });
        }

        let bytes = fs::read(&last_path)?;
        decode_header(&bytes, Some(last_first))?;
        let scan = scan_frames(&bytes[SEGMENT_HEADER_BYTES as usize..]);
        let valid_bytes = SEGMENT_HEADER_BYTES + scan.valid_len as u64;
        if let Some((dropped, reason)) = scan.tail {
            stats.torn_bytes += dropped as u64;
            counter!("mmdb_recovery_torn_bytes_total").add(dropped as u64);
            let f = OpenOptions::new().write(true).open(&last_path)?;
            f.set_len(valid_bytes)?;
            f.sync_data()?;
            mmdb_telemetry::recorder().record(
                EventKind::Recovery,
                format!(
                    "torn tail truncated: segment={} dropped={dropped}B reason={}",
                    last_path.display(),
                    reason.as_str()
                ),
                &[("torn_bytes", dropped as u64)],
            );
        }
        let next_seqno = last_first + scan.payload_ranges.len() as u64;
        stats.last_seqno = next_seqno - 1;

        let active = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&last_path)?;
        let wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            sealed,
            active,
            active_first: last_first,
            active_bytes: valid_bytes,
            next_seqno,
            dirty: false,
        };
        wal.publish_gauges();
        Ok((wal, stats))
    }

    /// Sequence number the next append will receive.
    pub fn next_seqno(&self) -> u64 {
        self.next_seqno
    }

    /// Highest acknowledged sequence number (0 when the log is empty).
    pub fn last_seqno(&self) -> u64 {
        self.next_seqno - 1
    }

    /// Number of segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Bytes in the active segment, header included.
    pub fn active_bytes(&self) -> u64 {
        self.active_bytes
    }

    /// Appends one record, returning its sequence number. Under
    /// [`FsyncPolicy::Always`] the record is on stable storage when this
    /// returns; otherwise durability follows the policy.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        if self.active_bytes >= self.opts.segment_bytes {
            self.rotate()?;
        }
        let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        encode_frame(payload, &mut buf);
        self.active.write_all(&buf)?;
        self.active_bytes += buf.len() as u64;
        self.dirty = true;
        let seqno = self.next_seqno;
        self.next_seqno += 1;
        counter!("mmdb_wal_appends_total").inc();
        counter!("mmdb_wal_appended_bytes_total").add(buf.len() as u64);
        gauge!("mmdb_wal_active_segment_bytes").set(self.active_bytes);
        if self.opts.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(seqno)
    }

    /// Forces the active segment to stable storage (no-op when clean).
    pub fn sync(&mut self) -> Result<()> {
        if !self.dirty {
            return Ok(());
        }
        let start = Instant::now();
        self.active.sync_data()?;
        self.dirty = false;
        histogram!("mmdb_wal_fsync_seconds").observe(start.elapsed());
        Ok(())
    }

    /// Seals the active segment and starts a new one. A segment holding no
    /// frames is left in place (nothing to seal). The sealed segment is
    /// synced first unless nothing was appended since the last sync.
    pub fn rotate(&mut self) -> Result<()> {
        if self.active_bytes == SEGMENT_HEADER_BYTES {
            return Ok(());
        }
        self.sync()?;
        let first = self.next_seqno;
        let path = segment_path(&self.dir, first);
        let mut f = OpenOptions::new()
            .create_new(true)
            .read(true)
            .append(true)
            .open(&path)?;
        f.write_all(&encode_header(first))?;
        f.sync_data()?;
        sync_dir(&self.dir);
        let old_path = segment_path(&self.dir, self.active_first);
        self.sealed.push(SealedSegment {
            path: old_path.clone(),
            first_seqno: self.active_first,
        });
        self.active = f;
        self.active_first = first;
        self.active_bytes = SEGMENT_HEADER_BYTES;
        counter!("mmdb_wal_rotations_total").inc();
        mmdb_telemetry::recorder().record(
            EventKind::WalRotation,
            format!("sealed={} new_first_seqno={first}", old_path.display()),
            &[("segments", self.segment_count() as u64)],
        );
        self.publish_gauges();
        Ok(())
    }

    /// Replays every record with sequence number greater than `from`,
    /// in order. The callback receives `(seqno, payload)`. When no record
    /// is past `from` nothing is read: every sealed segment ends at or
    /// before `from`, and `open` has already scanned the active one.
    pub fn replay(
        &mut self,
        from: u64,
        mut f: impl FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<u64> {
        if self.last_seqno() <= from {
            return Ok(0);
        }
        let mut replayed = 0u64;
        let segments: Vec<(PathBuf, u64, bool)> = self
            .sealed
            .iter()
            .map(|s| (s.path.clone(), s.first_seqno, true))
            .chain(std::iter::once((
                segment_path(&self.dir, self.active_first),
                self.active_first,
                false,
            )))
            .collect();
        for (i, (path, first, is_sealed)) in segments.iter().enumerate() {
            // Skip segments that end before `from`: a segment's records are
            // bounded by its successor's first seqno.
            if let Some((_, next_first, _)) = segments.get(i + 1) {
                if *next_first <= from + 1 {
                    continue;
                }
            }
            let bytes = fs::read(path)?;
            decode_header(&bytes, Some(*first))?;
            let scan = scan_frames(&bytes[SEGMENT_HEADER_BYTES as usize..]);
            if let Some((dropped, reason)) = scan.tail {
                // `open` repaired the active tail; anything left is real.
                return Err(DurableError::Corrupt(format!(
                    "{} segment {}: {} ({dropped}B unaccounted)",
                    if *is_sealed { "sealed" } else { "active" },
                    path.display(),
                    reason.as_str()
                )));
            }
            if *is_sealed {
                if let Some((_, next_first, _)) = segments.get(i + 1) {
                    let last = first + scan.payload_ranges.len() as u64 - 1;
                    if last + 1 != *next_first {
                        return Err(DurableError::Corrupt(format!(
                            "seqno gap: {} ends at {last}, successor starts at {next_first}",
                            path.display()
                        )));
                    }
                }
            }
            let body = &bytes[SEGMENT_HEADER_BYTES as usize..];
            for (idx, &(s, e)) in scan.payload_ranges.iter().enumerate() {
                let seqno = first + idx as u64;
                if seqno <= from {
                    continue;
                }
                f(seqno, &body[s..e])?;
                replayed += 1;
            }
        }
        counter!("mmdb_recovery_replayed_records_total").add(replayed);
        Ok(replayed)
    }

    /// Deletes sealed segments whose every record is covered by a snapshot
    /// at `covered_seqno`. Returns how many files were removed.
    pub fn gc(&mut self, covered_seqno: u64) -> Result<usize> {
        let mut removed = 0usize;
        while !self.sealed.is_empty() {
            let successor_first = self
                .sealed
                .get(1)
                .map_or(self.active_first, |s| s.first_seqno);
            // Records of sealed[0] run up to successor_first - 1.
            if successor_first - 1 > covered_seqno {
                break;
            }
            let seg = self.sealed.remove(0);
            fs::remove_file(&seg.path)?;
            removed += 1;
        }
        if removed > 0 {
            counter!("mmdb_wal_gc_segments_total").add(removed as u64);
            self.publish_gauges();
        }
        Ok(removed)
    }

    /// Refreshes the segment-count and active-segment-bytes gauges.
    pub fn publish_gauges(&self) {
        gauge!("mmdb_wal_segments").set(self.segment_count() as u64);
        gauge!("mmdb_wal_active_segment_bytes").set(self.active_bytes);
    }
}

/// Best-effort directory fsync so renames/creates survive power loss.
/// Failure is ignored: some filesystems refuse to sync directories and the
/// data-file syncs still bound the damage to one torn record.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("mmdb-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn collect(wal: &mut Wal, from: u64) -> Vec<(u64, Vec<u8>)> {
        let mut got = Vec::new();
        wal.replay(from, |seq, payload| {
            got.push((seq, payload.to_vec()));
            Ok(())
        })
        .unwrap();
        got
    }

    #[test]
    fn append_reopen_replay() {
        let dir = temp_dir("basic");
        let opts = WalOptions::default();
        {
            let (mut wal, stats) = Wal::open(&dir, opts, 0).unwrap();
            assert_eq!(stats.last_seqno, 0);
            assert_eq!(wal.append(b"one").unwrap(), 1);
            assert_eq!(wal.append(b"two").unwrap(), 2);
            assert_eq!(wal.append(b"three").unwrap(), 3);
        }
        let (mut wal, stats) = Wal::open(&dir, opts, 0).unwrap();
        assert_eq!(stats.last_seqno, 3);
        assert_eq!(stats.torn_bytes, 0);
        let got = collect(&mut wal, 1);
        assert_eq!(got, vec![(2, b"two".to_vec()), (3, b"three".to_vec())]);
        assert_eq!(wal.append(b"four").unwrap(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_gc() {
        let dir = temp_dir("rotate");
        let opts = WalOptions {
            segment_bytes: SEGMENT_HEADER_BYTES + 40,
            fsync: FsyncPolicy::Never,
        };
        let (mut wal, _) = Wal::open(&dir, opts, 0).unwrap();
        for i in 0..12u64 {
            wal.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        assert!(wal.segment_count() > 2, "expected rotations");
        let all = collect(&mut wal, 0);
        assert_eq!(all.len(), 12);
        assert_eq!(all[0].0, 1);
        assert_eq!(all[11].0, 12);

        // GC everything covered by a snapshot at seqno 7: sealed segments
        // fully below stay, the rest (incl. active) survive.
        let before = wal.segment_count();
        let removed = wal.gc(7).unwrap();
        assert!(removed > 0, "expected at least one segment removed");
        assert_eq!(wal.segment_count(), before - removed);
        let tail = collect(&mut wal, 7);
        assert_eq!(tail.len(), 5, "records 8..=12 must survive GC");
        assert_eq!(collect(&mut wal, 11), vec![(12, b"record-0011".to_vec())]);
        assert!(collect(&mut wal, 12).is_empty(), "nothing past the last");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = temp_dir("torn");
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Never,
        };
        {
            let (mut wal, _) = Wal::open(&dir, opts, 0).unwrap();
            wal.append(b"kept-record").unwrap();
            wal.append(b"doomed-record").unwrap();
            wal.sync().unwrap();
        }
        // Tear the last record mid-payload.
        let (path, _) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let (mut wal, stats) = Wal::open(&dir, opts, 0).unwrap();
        assert!(stats.torn_bytes > 0);
        assert_eq!(stats.last_seqno, 1);
        let got = collect(&mut wal, 0);
        assert_eq!(got, vec![(1, b"kept-record".to_vec())]);
        // The log keeps accepting appends after repair, reusing seqno 2.
        assert_eq!(wal.append(b"replacement").unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash inside `rotate`, after `create_new` and before the header
    /// is written, leaves an empty or partial last segment: the log opens
    /// without it and resumes right after the records it holds.
    #[test]
    fn segment_cut_short_of_its_header_is_removed_on_open() {
        for residue in [0usize, 7] {
            let dir = temp_dir("cutshort");
            let opts = WalOptions {
                segment_bytes: 1 << 20,
                fsync: FsyncPolicy::Never,
            };
            {
                let (mut wal, _) = Wal::open(&dir, opts, 0).unwrap();
                wal.append(b"first").unwrap();
                wal.append(b"second").unwrap();
                wal.sync().unwrap();
            }
            let cut = segment_path(&dir, 3);
            fs::write(&cut, &encode_header(3)[..residue]).unwrap();

            let (mut wal, stats) = Wal::open(&dir, opts, 0).unwrap();
            assert_eq!(stats.torn_bytes, residue as u64);
            assert_eq!(stats.last_seqno, 2);
            assert!(!cut.exists(), "the cut-short segment is removed");
            assert_eq!(
                collect(&mut wal, 0),
                vec![(1, b"first".to_vec()), (2, b"second".to_vec())]
            );
            assert_eq!(wal.append(b"third").unwrap(), 3);
            drop(wal);
            let (mut wal, stats) = Wal::open(&dir, opts, 0).unwrap();
            assert_eq!((stats.torn_bytes, stats.last_seqno), (0, 3));
            assert_eq!(collect(&mut wal, 2), vec![(3, b"third".to_vec())]);
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The same crash inside the first-segment path of `open` leaves a
    /// directory whose only segment is cut short: it opens as an empty log
    /// at the snapshot's cover point.
    #[test]
    fn only_segment_cut_short_reopens_empty() {
        let dir = temp_dir("cutfirst");
        fs::write(segment_path(&dir, 6), &encode_header(6)[..7]).unwrap();
        let (mut wal, stats) = Wal::open(&dir, WalOptions::default(), 5).unwrap();
        assert_eq!((stats.torn_bytes, stats.last_seqno), (7, 5));
        assert_eq!(wal.append(b"after").unwrap(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_log_resumes_from_snapshot_base() {
        let dir = temp_dir("base");
        let (mut wal, stats) = Wal::open(&dir, WalOptions::default(), 41).unwrap();
        assert_eq!(stats.last_seqno, 41);
        assert_eq!(wal.append(b"after-snapshot").unwrap(), 42);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_sealed_segment_fails_replay() {
        let dir = temp_dir("sealedbad");
        let opts = WalOptions {
            segment_bytes: SEGMENT_HEADER_BYTES + 30,
            fsync: FsyncPolicy::Never,
        };
        {
            let (mut wal, _) = Wal::open(&dir, opts, 0).unwrap();
            for i in 0..8u64 {
                wal.append(format!("record-{i:04}").as_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        // Flip a payload byte in the first (sealed) segment.
        let (path, _) = list_segments(&dir).unwrap().remove(0);
        let mut bytes = fs::read(&path).unwrap();
        let idx = SEGMENT_HEADER_BYTES as usize + FRAME_HEADER_BYTES + 1;
        bytes[idx] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (mut wal, _) = Wal::open(&dir, opts, 0).unwrap();
        let err = wal.replay(0, |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, DurableError::Corrupt(_)), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
