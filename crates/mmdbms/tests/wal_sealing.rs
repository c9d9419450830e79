//! A snapshot that covers every record in the log seals the WAL's active
//! segment, so the next open scans none of the covered records: `flush`
//! leaves each shard one sealed segment holding every record beside an
//! empty active one, and a reopen replays nothing. Recovery's other rules
//! stand: with the newest snapshot damaged, an open falls back to the
//! initial snapshot and replays the sealed segment in full.

use mmdbms::durable::wal::{list_segments, SEGMENT_HEADER_BYTES};
use mmdbms::prelude::*;
use mmdbms::storage::DurabilityOptions;
use mmdbms::telemetry::global;
use mmdbms::{shard_dir, MultimediaDatabase};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

const SHARDS: usize = 4;
const W: i64 = 24;
const H: i64 = 16;

/// Serializes the tests: each flushes, and one reads the process-wide
/// rotation counter.
fn counter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("mmdb_wal_sealing_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// No background snapshots: only `flush` on the test thread writes one.
fn opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: mmdbms::durable::FsyncPolicy::Never,
        snapshot_every: u64::MAX,
        ..DurabilityOptions::default()
    }
}

/// Two bases per shard and one recolored variant of each; returns every
/// acknowledged id, ascending.
fn populate(db: &MultimediaDatabase) -> Vec<ImageId> {
    let palette = [Rgb::RED, Rgb::GREEN, Rgb::BLUE, Rgb::new(0xCE, 0x11, 0x26)];
    let mut ids = Vec::new();
    for i in 0..2 * SHARDS {
        let mut img = RasterImage::filled(W as u32, H as u32, palette[i % 4]).unwrap();
        let split = 1 + (i as i64 % (H - 1));
        mmdb_imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, W, split), palette[(i + 1) % 4]);
        let base = db.insert_image(&img).unwrap();
        let variant = EditSequence::builder(base)
            .define(Rect::new(0, 0, W / 2, H))
            .modify(palette[i % 4], palette[(i + 2) % 4])
            .build();
        ids.push(base);
        ids.push(db.insert_edited(variant).unwrap());
    }
    ids.sort_unstable();
    ids
}

fn segments(shard: &Path) -> Vec<(PathBuf, u64)> {
    list_segments(&shard.join("wal")).unwrap()
}

fn rotations() -> u64 {
    global().counter("mmdb_wal_rotations_total").get()
}

fn sorted_ids(db: &MultimediaDatabase) -> Vec<ImageId> {
    let mut ids: Vec<ImageId> = (0..db.shard_count())
        .flat_map(|i| db.shard_storage(i).ids())
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn flush_seals_every_shard_s_log_and_a_reopen_replays_nothing() {
    let _serial = counter_lock();
    let tmp = TempDir::new("flush");
    let db = MultimediaDatabase::create_sharded_with(
        &tmp.0,
        Box::new(RgbQuantizer::default_64()),
        opts(),
        SHARDS,
    )
    .unwrap();
    let ids = populate(&db);

    let before = rotations();
    db.flush().unwrap();
    assert_eq!(rotations() - before, SHARDS as u64, "one seal per shard");
    let mut sealed_layout = Vec::new();
    for i in 0..SHARDS {
        let dir = shard_dir(&tmp.0, i);
        let segs = segments(&dir);
        assert_eq!(segs.len(), 2, "shard {i}: {segs:?}");
        let last_seqno = db.shard_storage(i).current_epoch();
        assert!(last_seqno > 0, "shard {i} took writes");
        // The sealed segment starts at the first record; the active one
        // starts right after the last and holds only its header.
        assert_eq!(segs[0].1, 1, "shard {i}");
        assert_eq!(segs[1].1, last_seqno + 1, "shard {i}");
        let active_len = std::fs::metadata(&segs[1].0).unwrap().len();
        assert_eq!(active_len, SEGMENT_HEADER_BYTES, "shard {i}");
        let report = mmdbms::durable::fsck_dir(&dir);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.wal_records, last_seqno, "shard {i}");
        assert_eq!(report.tail_records, 0, "shard {i}");
        sealed_layout.push(segs);
    }

    // Nothing written since: the active segments are empty, so a second
    // flush seals nothing and starts no segment.
    let before = rotations();
    db.flush().unwrap();
    assert_eq!(rotations(), before, "an empty active segment is not sealed");
    for (i, sealed) in sealed_layout.iter().enumerate() {
        let segs = segments(&shard_dir(&tmp.0, i));
        assert_eq!(segs.last(), sealed.last(), "shard {i}: same active segment");
        assert!(
            segs.iter().all(|s| sealed.contains(s)),
            "shard {i}: {segs:?}"
        );
    }
    drop(db);

    let reopened = MultimediaDatabase::open_with(&tmp.0, opts()).unwrap();
    let info = reopened
        .recovery_info()
        .expect("on-disk open reports recovery");
    assert_eq!(info.replayed_records, 0, "{info:?}");
    assert_eq!(info.torn_bytes, 0, "{info:?}");
    assert_eq!(sorted_ids(&reopened), ids);
}

#[test]
fn damaged_newest_snapshot_falls_back_and_replays_the_sealed_segment() {
    let _serial = counter_lock();
    let tmp = TempDir::new("fallback");
    let db = MultimediaDatabase::create_sharded_with(
        &tmp.0,
        Box::new(RgbQuantizer::default_64()),
        opts(),
        SHARDS,
    )
    .unwrap();
    let ids = populate(&db);
    db.flush().unwrap();
    let written: u64 = (0..SHARDS)
        .map(|i| db.shard_storage(i).current_epoch())
        .sum();
    drop(db);

    // Each shard now keeps the initial snapshot (cover point 0) and the
    // flush's; GC is bounded by the older, so the sealed segment stays.
    for i in 0..SHARDS {
        let dir = shard_dir(&tmp.0, i);
        assert_eq!(segments(&dir).len(), 2, "shard {i}");
        let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir.join("snapshots"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "snap"))
            .collect();
        snaps.sort();
        assert_eq!(snaps.len(), 2, "shard {i}: {snaps:?}");
        let newest = snaps.pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
    }

    let reopened = MultimediaDatabase::open_with(&tmp.0, opts()).unwrap();
    let info = reopened
        .recovery_info()
        .expect("on-disk open reports recovery");
    assert_eq!(info.snapshot_seqno, 0, "{info:?}");
    assert_eq!(info.replayed_records, written, "{info:?}");
    assert_eq!(sorted_ids(&reopened), ids);
    for color in [Rgb::RED, Rgb::GREEN, Rgb::new(0xCE, 0x11, 0x26)] {
        for (lo, hi) in [(0.05, 1.0), (0.3, 0.6), (0.0, 0.2)] {
            let query = ColorRangeQuery::new(reopened.bin_of(color), lo, hi);
            let rbm = reopened
                .query_range_with_plan(&query, QueryPlan::Rbm)
                .unwrap()
                .sorted_results();
            let indexed = reopened
                .query_range_with_plan(&query, QueryPlan::Indexed)
                .unwrap()
                .sorted_results();
            assert_eq!(indexed, rbm, "{color:?} in [{lo}, {hi}]");
        }
    }
}
