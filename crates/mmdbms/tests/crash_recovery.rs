//! Crash-recovery property tests: an on-disk database killed at *any*
//! record boundary — or mid-record, with a torn final frame — must recover
//! to exactly the state an in-memory oracle reaches by replaying the same
//! mutation prefix, and the recovered database must still satisfy the plan
//! equivalence RBM ≡ BWM ≡ Indexed.
//!
//! Crash simulation: the WAL appends with plain unbuffered `write_all`, so
//! after each acknowledged mutation the data directory *is* the crash image
//! for "power loss right after this record" — we copy it aside. Torn writes
//! are simulated by truncating the active segment to a byte offset strictly
//! inside the final frame. Snapshot interleaving is exercised by flushing
//! (snapshot + index persist) at a random point in the history; crash
//! images taken after it recover via snapshot-plus-tail instead of full
//! replay.

use mmdbms::prelude::*;
use mmdbms::storage::DurabilityOptions;
use mmdbms::MultimediaDatabase;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const W: i64 = 24;
const H: i64 = 16;

const PALETTE: [Rgb; 4] = [Rgb::RED, Rgb::GREEN, Rgb::BLUE, Rgb::new(0xCE, 0x11, 0x26)];

/// One step of a random mutation history. Indices are taken modulo the
/// respective pools so every history is valid regardless of order.
#[derive(Clone, Debug)]
enum Mutation {
    InsertBase {
        top: usize,
        bottom: usize,
        split: i64,
    },
    InsertVariant {
        base_ix: usize,
        from: usize,
        to: usize,
        blur: bool,
    },
    Delete {
        victim_ix: usize,
    },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let n = PALETTE.len();
    prop_oneof![
        2 => (0..n, 0..n, 1i64..H)
            .prop_map(|(top, bottom, split)| Mutation::InsertBase { top, bottom, split }),
        3 => (0..8usize, 0..n, 0..n, 0..2usize)
            .prop_map(|(base_ix, from, to, blur)| Mutation::InsertVariant { base_ix, from, to, blur: blur == 1 }),
        1 => (0..8usize).prop_map(|victim_ix| Mutation::Delete { victim_ix }),
    ]
}

/// Tracks the id pools so disk and oracle replays stay in lockstep.
#[derive(Default)]
struct Pools {
    bases: Vec<ImageId>,
    edited: Vec<ImageId>,
}

/// Applies one mutation; both the on-disk run and every oracle replay go
/// through this single function, so any divergence is recovery's fault.
fn apply(db: &MultimediaDatabase, pools: &mut Pools, m: &Mutation) {
    match *m {
        Mutation::InsertBase { top, bottom, split } => {
            let mut img = RasterImage::filled(W as u32, H as u32, PALETTE[bottom]).unwrap();
            mmdb_imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, W, split), PALETTE[top]);
            pools.bases.push(db.insert_image(&img).unwrap());
        }
        Mutation::InsertVariant {
            base_ix,
            from,
            to,
            blur,
        } => {
            if pools.bases.is_empty() {
                // Degenerate prefix: promote to a base insert so histories
                // never depend on generation order.
                apply(
                    db,
                    pools,
                    &Mutation::InsertBase {
                        top: from,
                        bottom: to,
                        split: H / 2,
                    },
                );
                return;
            }
            let base = pools.bases[base_ix % pools.bases.len()];
            let mut b = EditSequence::builder(base)
                .define(Rect::new(0, 0, W / 2, H))
                .modify(PALETTE[from], PALETTE[to]);
            if blur {
                b = b.blur();
            }
            pools.edited.push(db.insert_edited(b.build()).unwrap());
        }
        Mutation::Delete { victim_ix } => {
            if pools.edited.is_empty() {
                return; // no-op on both sides
            }
            let victim = pools.edited.swap_remove(victim_ix % pools.edited.len());
            db.delete(victim).unwrap();
        }
    }
}

/// Recursive directory copy — the "crash image" of the data dir at a record
/// boundary.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mmdb_crash_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn quantizer() -> Box<dyn Quantizer> {
    Box::new(RgbQuantizer::default_64())
}

/// Durability tuned for the tests: no acknowledgment fsyncs (irrelevant to
/// logical recovery, and slow), tiny segments so histories cross rotation
/// boundaries, and no *background* snapshots — the facade's maintenance
/// thread must not mutate the directory while we copy it, so snapshots
/// happen only through explicit `flush()` on this thread.
fn test_opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: mmdbms::durable::FsyncPolicy::Never,
        segment_bytes: 2048,
        snapshot_every: u64::MAX,
    }
}

/// The oracle: an in-memory database after the first `upto` mutations.
fn oracle_after(history: &[Mutation], upto: usize) -> MultimediaDatabase {
    let db = MultimediaDatabase::in_memory(quantizer());
    let mut pools = Pools::default();
    for m in &history[..upto] {
        apply(&db, &mut pools, m);
    }
    db
}

/// Recovered state must be *observably identical* to the oracle: same ids,
/// same answers to range queries, and internal plan equivalence must hold.
fn assert_state_equiv(recovered: &MultimediaDatabase, oracle: &MultimediaDatabase, ctx: &str) {
    let mut rec_ids = recovered.storage().ids();
    let mut ora_ids = oracle.storage().ids();
    rec_ids.sort_unstable();
    ora_ids.sort_unstable();
    assert_eq!(rec_ids, ora_ids, "catalog ids diverge: {ctx}");
    for (color, lo) in [(Rgb::RED, 0.05), (Rgb::new(0xCE, 0x11, 0x26), 0.20)] {
        let query = ColorRangeQuery::new(oracle.bin_of(color), lo, 1.0);
        let want = oracle
            .query_range_with_plan(&query, QueryPlan::Rbm)
            .unwrap()
            .sorted_results();
        for plan in [QueryPlan::Rbm, QueryPlan::Bwm, QueryPlan::Indexed] {
            let got = recovered
                .query_range_with_plan(&query, plan)
                .unwrap()
                .sorted_results();
            assert_eq!(got, want, "{plan:?} diverges from oracle RBM: {ctx}");
        }
    }
}

/// `PROPTEST_CASES` when set (a deeper CI run), else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The active (highest-numbered) WAL segment and its current length.
fn active_segment(dir: &Path) -> (PathBuf, u64) {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    let last = segs.pop().expect("wal has at least one segment");
    let len = std::fs::metadata(&last).unwrap().len();
    (last, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// Crash at **every** record boundary of a random history (with a
    /// snapshot flushed at a random point): each crash image recovers to
    /// the oracle state of exactly that prefix.
    #[test]
    fn crash_at_every_record_boundary_recovers_oracle_state(
        history in proptest::collection::vec(arb_mutation(), 3..9),
        flush_frac in 0.0f64..1.0,
    ) {
        let tmp = TempDir::new("boundary");
        let data = tmp.0.join("db");
        let db = MultimediaDatabase::create_with(&data, quantizer(), test_opts()).unwrap();
        let flush_at = (flush_frac * history.len() as f64) as usize;
        let mut pools = Pools::default();
        for (i, m) in history.iter().enumerate() {
            apply(&db, &mut pools, m);
            if i == flush_at {
                db.flush().unwrap();
            }
            copy_dir(&data, &tmp.0.join(format!("crash_{i}")));
        }
        drop(db);
        for i in 0..history.len() {
            let recovered =
                MultimediaDatabase::open_with(&tmp.0.join(format!("crash_{i}")), test_opts())
                    .unwrap();
            let oracle = oracle_after(&history, i + 1);
            assert_state_equiv(&recovered, &oracle, &format!("crash after record {i}"));
        }
    }

    /// A torn final record — crash mid-write — must be truncated on open,
    /// recovering the previous boundary's state exactly.
    #[test]
    fn torn_final_record_recovers_previous_boundary(
        history in proptest::collection::vec(arb_mutation(), 2..7),
        cut_frac in 0.01f64..0.99,
    ) {
        let tmp = TempDir::new("torn");
        let data = tmp.0.join("db");
        let db = MultimediaDatabase::create_with(&data, quantizer(), test_opts()).unwrap();
        let mut pools = Pools::default();
        let mut boundaries = Vec::new(); // (active segment path, len) after op i
        for m in &history {
            apply(&db, &mut pools, m);
            boundaries.push(active_segment(&data));
        }
        drop(db);
        let n = history.len();
        let (ref last_seg, last_len) = boundaries[n - 1];
        let (ref prev_seg, prev_len) = boundaries[n - 2];
        // Start of the final record within its segment: the previous
        // boundary when no rotation happened in between, else just past the
        // fresh segment's header.
        let record_start = if last_seg == prev_seg {
            prev_len
        } else {
            mmdbms::durable::wal::SEGMENT_HEADER_BYTES
        };
        // Every record carries a nonempty frame, so there is always a byte
        // to tear off unless the final op was a pool-empty no-op delete —
        // skip those degenerate histories.
        if last_len > record_start + 1 {
            let cut = record_start + 1 + ((cut_frac * (last_len - record_start - 2) as f64) as u64);
            let crash = tmp.0.join("crash");
            copy_dir(&data, &crash);
            let torn_seg = crash.join("wal").join(last_seg.file_name().unwrap());
            let f = std::fs::OpenOptions::new().write(true).open(&torn_seg).unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let recovered = MultimediaDatabase::open_with(&crash, test_opts()).unwrap();
            let info = recovered.recovery_info().expect("on-disk open reports recovery");
            prop_assert!(info.torn_bytes > 0, "expected a torn tail, got {info:?}");
            let oracle = oracle_after(&history, n - 1);
            assert_state_equiv(
                &recovered,
                &oracle,
                &format!("torn write at byte {cut} of final record"),
            );
        }
    }
}

/// A drained (clean) shutdown — final snapshot plus WAL fsync, as the
/// `serve` commands do on SIGINT — must leave nothing for the next open to
/// replay.
#[test]
fn clean_shutdown_needs_zero_replay() {
    let tmp = TempDir::new("clean");
    let data = tmp.0.join("db");
    let db = MultimediaDatabase::create_with(&data, quantizer(), test_opts()).unwrap();
    let mut pools = Pools::default();
    for i in 0..6 {
        apply(
            &db,
            &mut pools,
            &Mutation::InsertBase {
                top: i % PALETTE.len(),
                bottom: (i + 1) % PALETTE.len(),
                split: H / 2,
            },
        );
    }
    // The drain sequence from mmdbctl's serve paths.
    db.flush().unwrap();
    db.storage().wal_sync().unwrap();
    drop(db);
    let reopened = MultimediaDatabase::open_with(&data, test_opts()).unwrap();
    let info = reopened
        .recovery_info()
        .expect("on-disk open reports recovery");
    assert_eq!(
        info.replayed_records, 0,
        "clean shutdown left WAL tail: {info:?}"
    );
    assert_eq!(
        info.torn_bytes, 0,
        "clean shutdown left torn bytes: {info:?}"
    );
    assert_eq!(reopened.storage().ids().len(), 6);
}

/// The on-disk format version is tied to the wire-protocol version: bumping
/// one without the other is a release mistake this test turns into a
/// compile-adjacent failure.
#[test]
fn durable_format_version_tracks_wire_protocol() {
    assert_eq!(
        mmdbms::durable::DURABLE_FORMAT_VERSION,
        u32::from(mmdbms::server::protocol::PROTOCOL_VERSION),
        "DURABLE_FORMAT_VERSION and PROTOCOL_VERSION must move together \
         (see DESIGN.md, version-compat rules)"
    );
}
