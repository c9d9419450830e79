//! Crash image and restart. At a fixed point of the steady phase the WAL is
//! synced — the bytes an acknowledged write is entitled to — and the live
//! directory is copied with **no** `flush` and no clean shutdown. Each reopen
//! cycle starts from a pristine copy of that image, because opening repairs
//! and rewrites what it finds.

use crate::spec::Workload;
use crate::stage::{durability, plan_of, Stage, PROFILE};
use crate::steady::{in_process, sorted_raw};
use crate::sys::{copy_dir, dir_bytes, remove_dir};
use mmdbms::durable::fsck_dir;
use mmdbms::editops::ImageId;
use mmdbms::rules::ColorRangeQuery;
use mmdbms::storage::RecoveryInfo;
use mmdbms::MultimediaDatabase;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct CrashImage {
    pub dir: PathBuf,
    pub bytes: u64,
    /// Ids of the acknowledged state: what `ids()` must return after a
    /// restart.
    pub live: Vec<ImageId>,
    /// The readiness probe and the answer the live database gave to it.
    pub probe: ColorRangeQuery,
    pub expected: Vec<u64>,
}

/// Records the live database's answer to the workload's readiness probe,
/// syncs every shard's WAL and copies the live directory to `to`.
///
/// The maintenance thread may be finishing a background snapshot (temp file,
/// rename, then segment GC) while the copy walks the tree; a file that
/// vanishes mid-copy restarts the copy.
pub fn crash_image(
    w: &Workload,
    stage: &Stage,
    seed: u64,
    live: &BTreeSet<ImageId>,
    to: &Path,
) -> Result<CrashImage, String> {
    let probe = crate::requests::Stream::new(w.dataset, seed, &stage.db).next_query();
    let expected = in_process(&stage.db, &probe, plan_of(w.drive))?;
    for shard in 0..stage.db.shard_count() {
        stage
            .db
            .shard_storage(shard)
            .wal_sync()
            .map_err(|e| format!("wal_sync: {e}"))?;
    }
    let mut last_error = String::new();
    for _ in 0..5 {
        // Longer than one maintenance tick, so a snapshot that the last
        // writes made due has started before the walk does.
        std::thread::sleep(Duration::from_millis(120));
        remove_dir(to);
        match copy_dir(&stage.dir, to) {
            Ok(()) => {
                let bytes = dir_bytes(to).map_err(|e| format!("size of crash image: {e}"))?;
                return Ok(CrashImage {
                    dir: to.to_path_buf(),
                    bytes,
                    live: live.iter().copied().collect(),
                    probe,
                    expected,
                });
            }
            Err(e) => last_error = e.to_string(),
        }
    }
    Err(format!("copy crash image: {last_error}"))
}

/// The directories `durable::fsck` checks in a database rooted at `root`.
pub fn engine_dirs(root: &Path, shards: usize) -> Vec<PathBuf> {
    if shards == 1 {
        vec![root.to_path_buf()]
    } else {
        (0..shards).map(|i| mmdbms::shard_dir(root, i)).collect()
    }
}

/// The reopen cycles of one run and what they found.
pub struct Restarts {
    /// Open → first answer, per cycle.
    pub ready_s: Vec<f64>,
    /// `open_with` alone, per cycle.
    pub open_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Recovery report of the last cycle.
    pub info: Option<RecoveryInfo>,
}

impl Restarts {
    /// Runs `fsck` over `image`; an error it reports is a failed operation.
    pub fn of(w: &Workload, image: &CrashImage) -> Restarts {
        let mut out = Restarts {
            ready_s: Vec::new(),
            open_s: Vec::new(),
            attempted: 0,
            failed: 0,
            info: None,
        };
        for dir in engine_dirs(&image.dir, w.shards) {
            out.attempted += 1;
            let report = fsck_dir(&dir);
            if report.has_errors() {
                out.failed += 1;
                for finding in &report.findings {
                    eprintln!("fsck {}: {finding}", dir.display());
                }
            }
        }
        out
    }

    /// Reopen cycles of `image` in `scratch` for `seconds`, at least one:
    /// copy the image, `open_with` the copy, first answer. Each is checked
    /// against the acknowledged state: `ids()` equals the image's `live`,
    /// the probe answer equals its `expected`.
    pub fn cycles(
        &mut self,
        w: &Workload,
        image: &CrashImage,
        scratch: &Path,
        seconds: f64,
    ) -> Result<(), String> {
        let budget = Duration::from_secs_f64(seconds);
        let cycles_started = Instant::now();
        loop {
            remove_dir(scratch);
            copy_dir(&image.dir, scratch).map_err(|e| format!("copy for reopen: {e}"))?;
            let started = Instant::now();
            let db = MultimediaDatabase::open_with(scratch, durability(w))
                .map_err(|e| format!("reopen: {e}"))?;
            self.open_s.push(started.elapsed().as_secs_f64());
            let answer = db.query_range_with(&image.probe, plan_of(w.drive), PROFILE);
            self.ready_s.push(started.elapsed().as_secs_f64());
            self.attempted += 2;
            if !answer.is_ok_and(|a| sorted_raw(&a.results) == image.expected) {
                self.failed += 1;
            }
            if db.ids() != image.live {
                self.failed += 1;
            }
            self.info = db.recovery_info();
            drop(db);
            if cycles_started.elapsed() >= budget {
                break;
            }
        }
        remove_dir(scratch);
        Ok(())
    }
}
