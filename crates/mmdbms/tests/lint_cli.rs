//! End-to-end test of `mmdbctl lint` against a database seeded with three
//! catalog defects: an empty crop (`E005`), a projective `Mutate` (`E007`),
//! and a dead `Define` (`W101`).
//!
//! The first two cannot be created through the validated insert path, so the
//! test rewrites the catalog file directly — exactly the kind of corruption
//! (crash, bit rot, an older buggy writer) the lint exists to catch. A
//! catalog that breaks the reference rule (a dangling merge target, a
//! reference cycle) does not decode at all: the directory refuses to open.

use mmdbms::editops::EditSequence;
use mmdbms::prelude::*;
use mmdbms::storage::{Catalog, CatalogEntry};
use mmdbms::MultimediaDatabase;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

fn mmdbctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmdbctl"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdbctl_lint_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Builds a database with one healthy warning (dead Define) through the
/// front door, then rewrites the latest snapshot with `splice` applied to
/// its catalog, behind the engine's back (same covered seqno, so the
/// spliced snapshot simply replaces the healthy one).
fn seed_database(dir: &Path, splice: impl FnOnce(&mut Catalog)) {
    {
        let db = MultimediaDatabase::create(dir, Box::new(RgbQuantizer::default_64())).unwrap();
        let mut img = RasterImage::filled(16, 16, Rgb::WHITE).unwrap();
        mmdbms::imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, 16, 8), Rgb::RED);
        let base = db.insert_image(&img).unwrap();
        // W101: the first Define is shadowed before any op reads it. Warn
        // level, so the validated insert path accepts it.
        db.insert_edited(
            EditSequence::builder(base)
                .define(Rect::new(0, 0, 2, 2))
                .define(Rect::new(0, 0, 8, 8))
                .blur()
                .build(),
        )
        .unwrap();
        db.flush().unwrap();
    }
    let snaps = mmdbms::durable::SnapshotStore::open(&dir.join("snapshots")).unwrap();
    let snap = snaps.load_latest().unwrap().unwrap();
    let (mut catalog, free_list) = Catalog::decode(&snap.payload).unwrap();
    splice(&mut catalog);
    snaps
        .write(
            snap.covered_seqno,
            snap.blob_gen,
            &catalog.encode(&free_list),
        )
        .unwrap();
}

/// Appends `sequence` to `catalog` as a new edited image, unchecked.
fn splice_edited(catalog: &mut Catalog, sequence: EditSequence) -> ImageId {
    let id = catalog.allocate_id();
    catalog.insert(id, CatalogEntry::edited(Arc::new(sequence)));
    id
}

/// The error-level defects a catalog that keeps the reference rule can
/// still hold.
fn seed_bad_database(dir: &Path) {
    seed_database(dir, |catalog| {
        let base = ImageId::new(1);
        // E005: a crop to a statically empty region.
        splice_edited(
            catalog,
            EditSequence::builder(base)
                .define(Rect::new(3, 3, 3, 3))
                .crop_to_region()
                .build(),
        );
        // E007: a projective transform.
        let mut projective = Matrix3::IDENTITY;
        projective.m[2] = [0.01, 0.0, 1.0];
        splice_edited(
            catalog,
            EditSequence::builder(base)
                .define(Rect::new(0, 0, 4, 4))
                .mutate(projective)
                .build(),
        );
    });
}

#[test]
fn lint_reports_seeded_defects_and_exits_nonzero() {
    let dir = temp_db("seeded");
    seed_bad_database(&dir);
    let db_s = dir.to_str().unwrap();

    let out = mmdbctl(&["lint", "--db", db_s]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "lint must exit nonzero on errors:\n{stdout}\n{stderr}"
    );
    assert!(stdout.contains("E005"), "empty crop:\n{stdout}");
    assert!(stdout.contains("E007"), "projective mutate:\n{stdout}");
    assert!(stdout.contains("W101"), "dead define:\n{stdout}");
    assert!(stderr.contains("error-level diagnostic"), "{stderr}");

    // JSON form carries the same codes, machine-readable.
    let out = mmdbctl(&["lint", "--db", db_s, "--format", "json"]);
    assert!(!out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    for code in ["E005", "E007", "W101"] {
        assert!(json.contains(&format!("\"code\":\"{code}\"")), "{json}");
    }

    // `verify` (fsck) now reports the same error-level findings.
    let out = mmdbctl(&["verify", "--db", db_s]);
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("E005"), "{stdout}");
    assert!(stdout.contains("E007"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A dangling merge target or a reference cycle spliced into the snapshot
/// is not a lint finding but a catalog that fails to decode: `lint` and
/// `verify` refuse the directory naming the entry, and `fsck` reports it
/// as `F011`.
#[test]
fn spliced_reference_defects_refuse_to_open() {
    type Splice = fn(&mut Catalog) -> ImageId;
    let cases: [(&str, Splice); 2] = [
        ("dangling", |catalog| {
            splice_edited(
                catalog,
                EditSequence::builder(ImageId::new(1))
                    .define(Rect::new(0, 0, 4, 4))
                    .merge_into(ImageId::new(9999), 0, 0)
                    .build(),
            )
        }),
        ("cycle", |catalog| {
            let (a, b) = (catalog.allocate_id(), catalog.allocate_id());
            for (id, base) in [(a, b), (b, a)] {
                let sequence = EditSequence::builder(base).blur().build();
                catalog.insert(id, CatalogEntry::edited(Arc::new(sequence)));
            }
            a
        }),
    ];
    for (tag, splice) in cases {
        let dir = temp_db(tag);
        let mut spliced = None;
        seed_database(&dir, |catalog| spliced = Some(splice(catalog)));
        let entry = format!("catalog entry {}", spliced.unwrap());
        let db_s = dir.to_str().unwrap();
        for command in ["lint", "verify"] {
            let out = mmdbctl(&[command, "--db", db_s]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{tag}: {command} opened");
            assert!(
                stderr.contains("corrupt") && stderr.contains(&entry),
                "{tag}: {stderr}"
            );
        }
        let out = mmdbctl(&["fsck", db_s]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "{tag}: {stdout}");
        assert!(
            stdout.contains("F011") && stdout.contains(&entry),
            "{tag}: {stdout}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn lint_clean_database_exits_zero_and_feeds_metrics() {
    let dir = temp_db("clean");
    {
        let db = MultimediaDatabase::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        let mut img = RasterImage::filled(16, 16, Rgb::WHITE).unwrap();
        mmdbms::imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, 16, 8), Rgb::BLUE);
        let base = db.insert_image(&img).unwrap();
        db.insert_edited(
            EditSequence::builder(base)
                .define(Rect::new(0, 0, 8, 8))
                .modify(Rgb::BLUE, Rgb::GREEN)
                .build(),
        )
        .unwrap();
        db.flush().unwrap();
    }
    let db_s = dir.to_str().unwrap();
    let out = mmdbctl(&["lint", "--db", db_s]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("1 sequence(s) analyzed"), "{stdout}");
    assert!(stdout.contains("1 audited (1 clean)"), "{stdout}");

    // In-process: a lint run moves the run counter, the latency histogram
    // and the per-lint series of what it found. Registration alone lists
    // every series at zero, so read them before and after. A dead `Define`
    // (W101) is a warning: the lint still finds no error.
    let db = MultimediaDatabase::open(&dir).unwrap();
    mmdbms::register_all_metrics();
    db.insert_edited(
        EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 2, 2))
            .define(Rect::new(0, 0, 8, 8))
            .modify(Rgb::BLUE, Rgb::GREEN)
            .build(),
    )
    .unwrap();
    let series = [
        "mmdb_analysis_runs_total",
        "mmdb_analysis_latency_seconds_count",
        r#"mmdb_analysis_diagnostics_total{code="W101"}"#,
    ];
    let read = || series.map(|name| db.metrics().snapshot().get(name));
    let before = read();
    let report = db.lint();
    let after = read();
    assert!(!report.has_errors());
    assert_eq!(report.warn_count(), 1, "{:?}", report.diagnostics);
    for ((name, before), after) in series.iter().zip(before).zip(after) {
        assert!(after > before, "{name}: {before} -> {after}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_prints_per_sequence_detail() {
    let dir = temp_db("analyze");
    {
        let db = MultimediaDatabase::create(&dir, Box::new(RgbQuantizer::default_64())).unwrap();
        let img = RasterImage::filled(12, 12, Rgb::RED).unwrap();
        let base = db.insert_image(&img).unwrap();
        // One dead op (self-modify) in an otherwise healthy sequence.
        db.insert_edited(
            EditSequence::builder(base)
                .define(Rect::new(0, 0, 6, 6))
                .modify(Rgb::RED, Rgb::RED)
                .blur()
                .build(),
        )
        .unwrap();
        db.flush().unwrap();
    }
    let db_s = dir.to_str().unwrap();
    let out = mmdbctl(&["analyze", "--db", db_s, "--id", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("soundness audit: clean"), "{stdout}");
    assert!(stdout.contains("dead ops: 1 removable"), "{stdout}");
    assert!(stdout.contains("W102"), "{stdout}");
    assert!(stdout.contains("bound-widening"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
