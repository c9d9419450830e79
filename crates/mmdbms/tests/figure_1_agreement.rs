//! Figure 1 carries what an RBM or BWM scan reads — each cluster its base's
//! histogram, each edited image the BOUNDS program compiled into its entry —
//! so it must agree with the catalog after every write path: inserts,
//! deletes, a WAL tail replayed at open, a snapshot plus tail, and the
//! facade's merge of every shard's structure. After each, at 1 and 4
//! shards:
//!
//! * every cluster tests queries against its base's catalog histogram
//!   itself (`Arc::ptr_eq`), not a copy;
//! * every edited image sits in exactly one entry — its base's cluster when
//!   all its operations are bound-widening, the Unclassified Component
//!   otherwise — with ids ascending in each;
//! * the program kept for it equals a fresh compile of its stored sequence.
//!
//! And a scan's work counters are a recount of the images it scanned,
//! bounded one operation at a time.

use mmdbms::bwm::BwmQueryStats;
use mmdbms::datagen::flags::FlagGenerator;
use mmdbms::datagen::VariantConfig;
use mmdbms::prelude::*;
use mmdbms::query::executor::QueryError;
use mmdbms::rules::RuleEngine;
use mmdbms::storage::{DurabilityOptions, StorageEngine, StorageError};
use mmdbms::MultimediaDatabase;
use std::path::PathBuf;
use std::sync::Arc;

/// `structure` covers exactly `binary` and `edited`, each image held by
/// the shard `storage_of` names.
fn agrees<'a>(
    structure: &BwmStructure,
    binary: &[ImageId],
    edited: &[ImageId],
    storage_of: impl Fn(ImageId) -> &'a StorageEngine,
    when: &str,
) {
    let bases: Vec<ImageId> = structure.clusters().map(|(base, _)| base).collect();
    assert_eq!(bases, binary, "{when}: one cluster per binary image");
    let mut placed = Vec::new();
    for (base, ids) in structure.clusters() {
        let catalog = storage_of(base).histogram(base).unwrap();
        let carried = structure.base_histogram(base).unwrap();
        assert!(Arc::ptr_eq(carried, &catalog), "{when}: cluster {base}");
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{when}: {ids:?}");
        for &id in ids {
            let sequence = storage_of(id).edit_sequence(id).unwrap();
            assert_eq!(sequence.base, base, "{when}: {id}");
            assert!(sequence.all_bound_widening(), "{when}: {id}");
        }
        placed.extend_from_slice(ids);
    }
    let loose: Vec<ImageId> = structure.unclassified().copied().collect();
    assert!(loose.windows(2).all(|w| w[0] < w[1]), "{when}: {loose:?}");
    for &id in &loose {
        let sequence = storage_of(id).edit_sequence(id).unwrap();
        assert!(!sequence.all_bound_widening(), "{when}: {id}");
    }
    placed.extend(loose);
    placed.sort_unstable();
    assert_eq!(placed, edited, "{when}: every edited image exactly once");
}

/// Checks every shard's own structure, the facade's merged one, and every
/// kept program.
fn check(db: &MultimediaDatabase, when: &str) {
    // Fill some program cells the way queries do, before looking.
    let query = ColorRangeQuery::new(db.bin_of(Rgb::WHITE), 0.2, 0.6);
    for plan in [QueryPlan::Bwm, QueryPlan::Rbm] {
        db.query_range_with_plan(&query, plan).unwrap();
    }
    let storage_of = |id| db.shard_storage(db.shard_of(id));
    for shard in 0..db.shard_count() {
        let storage = db.shard_storage(shard);
        let (binary, edited) = (storage.binary_ids(), storage.edited_ids());
        let when = format!("{when}, shard {shard}");
        agrees(&storage.bwm_snapshot(), &binary, &edited, storage_of, &when);
    }
    let (binary, edited) = (db.binary_ids(), db.edited_ids());
    let merged = format!("{when}, merged");
    agrees(&db.bwm_snapshot(), &binary, &edited, storage_of, &merged);
    assert!(db.bwm_snapshot().unclassified_count() > 0, "{when}");

    let mut merging = 0;
    for id in edited {
        let storage = storage_of(id);
        let engine = RuleEngine::with_background(
            storage.quantizer(),
            RuleProfile::Conservative,
            storage.background(),
        );
        let sequence = storage.edit_sequence(id).unwrap();
        let targets = sequence.merge_targets();
        for &target in &targets {
            let shards = (db.shard_of(target), db.shard_of(id));
            assert_eq!(shards.0, shards.1, "{when}: {id} names {target}");
        }
        merging += usize::from(!targets.is_empty());
        let fresh = engine.compile(&sequence, storage).unwrap();
        assert_eq!(storage.bound_program(id).unwrap(), fresh, "{when}: {id}");
    }
    assert!(
        merging > 0,
        "{when}: no stored sequence names a merge target"
    );
}

/// Flags with three edited variants each: recolors, blurs and pastes into
/// other flags, which land in both components. Sharded, the pasted flags
/// are the ones stored on the variant's shard.
fn insert_flags(db: &MultimediaDatabase, range: std::ops::Range<u64>) -> Vec<ImageId> {
    let flags = FlagGenerator::with_seed(23);
    let mut edited = Vec::new();
    for i in range {
        let (_, variants) = db
            .insert_image_with_augmentation(&flags.generate(i), 3, VariantConfig::default(), 50 + i)
            .unwrap();
        edited.extend(variants);
    }
    edited
}

/// Deletes every third edited image of `edited`, then a binary image that
/// never had children.
fn delete_some(db: &MultimediaDatabase, edited: &[ImageId]) {
    for &id in edited.iter().step_by(3) {
        db.delete(id).unwrap();
    }
    let lone = db
        .insert_image(&RasterImage::filled(6, 6, Rgb::GREEN).unwrap())
        .unwrap();
    db.delete(lone).unwrap();
}

fn scratch_dir(shards: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdb_figure_1_{}_{shards}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn figure_1_agrees_with_the_catalog_through_every_write_path() {
    for shards in [1, 4] {
        let dir = scratch_dir(shards);
        let quantizer = || Box::new(RgbQuantizer::default_64());
        let opts = DurabilityOptions::default();
        {
            let db =
                MultimediaDatabase::create_sharded_with(&dir, quantizer(), opts, shards).unwrap();
            let edited = insert_flags(&db, 0..12);
            check(&db, &format!("{shards} shards, inserts"));
            delete_some(&db, &edited);
            check(&db, &format!("{shards} shards, deletes"));
            // Dropped without a flush: the WAL tail is all there is.
        }
        let replayed = |db: &MultimediaDatabase| db.recovery_info().unwrap().replayed_records;
        {
            let db = MultimediaDatabase::open(&dir).unwrap();
            assert!(replayed(&db) > 0);
            check(&db, &format!("{shards} shards, WAL replay"));
            db.flush().unwrap();
            let edited = insert_flags(&db, 12..18);
            delete_some(&db, &edited);
        }
        let db = MultimediaDatabase::open(&dir).unwrap();
        assert!(replayed(&db) > 0);
        check(&db, &format!("{shards} shards, snapshot + tail"));
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Figure 1 clusters an edited image under its base's histogram, and a scan
/// of a shard resolves names under that shard's lock alone, so the image is
/// stored on the shard of its base and of every merge target it names, or
/// not at all: a storage handle asked to store one whose base another shard
/// holds refuses, so do the facade and the base's own shard asked to store
/// one whose merge target another shard holds — without moving that shard —
/// and the scans keep answering.
#[test]
fn an_edited_image_is_stored_on_its_base_s_shard_or_not_at_all() {
    let db = MultimediaDatabase::in_memory_sharded(Box::new(RgbQuantizer::default_64()), 2);
    let base = db
        .insert_image(&RasterImage::filled(8, 8, Rgb::RED).unwrap())
        .unwrap();
    let target = db
        .insert_image(&RasterImage::filled(8, 8, Rgb::GREEN).unwrap())
        .unwrap();
    assert_eq!((db.shard_of(base), db.shard_of(target)), (0, 1));
    let refused_for = |refused: Result<ImageId, StorageError>, named: ImageId| {
        assert!(
            matches!(refused, Err(StorageError::InvalidReference { id, .. }) if id == named),
            "{refused:?}"
        );
    };
    let elsewhere = db.shard_storage(db.shard_of(target));
    refused_for(
        elsewhere.insert_edited(EditSequence::builder(base).blur().build()),
        base,
    );

    let home = db.shard_storage(db.shard_of(base));
    let (epoch, ids) = (home.current_epoch(), home.ids());
    let pasted = || {
        EditSequence::builder(base)
            .define(Rect::new(0, 0, 4, 4))
            .merge_into(target, 1, 1)
            .build()
    };
    let through_facade = db.insert_edited(pasted()).map_err(|e| match e {
        QueryError::Storage(e) => e,
        other => panic!("{other:?}"),
    });
    refused_for(through_facade, target);
    refused_for(home.insert_edited(pasted()), target);
    assert_eq!((home.current_epoch(), home.ids()), (epoch, ids));

    let everything = ColorRangeQuery::new(db.bin_of(Rgb::RED), 0.0, 1.0);
    for plan in [QueryPlan::Rbm, QueryPlan::Bwm] {
        let out = db.query_range_with_plan(&everything, plan).unwrap();
        assert_eq!(out.sorted_results(), vec![base, target], "plan={plan}");
    }
}

/// A BWM or RBM scan's counters — BOUNDS computed, operations processed per
/// kind, ranges widened, shortcut emissions — and its results equal a
/// recount over the stored sequences whose bounds come from `bounds_trace`,
/// which applies one Table 1 rule per operation. The scan evaluates
/// compiled programs, whose runs of widenings and recolorings are fused;
/// no count may move with that.
#[test]
fn scan_counters_are_a_stepwise_recount() {
    for shards in [1, 4] {
        let db =
            MultimediaDatabase::in_memory_sharded(Box::new(RgbQuantizer::default_64()), shards);
        insert_flags(&db, 0..16);
        let storage_of = |id| db.shard_storage(db.shard_of(id));
        let queries = [
            ColorRangeQuery::new(db.bin_of(Rgb::WHITE), 0.2, 0.6),
            ColorRangeQuery::at_least(db.bin_of(Rgb::RED), 0.25),
            ColorRangeQuery::at_most(db.bin_of(Rgb::BLUE), 0.1),
            ColorRangeQuery::new(db.bin_of(Rgb::GREEN), 0.05, 0.3),
        ];
        let mut shortcut_and_widened = (0, 0);
        for query in &queries {
            for plan in [QueryPlan::Bwm, QueryPlan::Rbm] {
                let when = format!("{shards} shards, {plan}, {query:?}");
                let mut want = BwmQueryStats::default();
                let mut results: Vec<ImageId> = db
                    .binary_ids()
                    .into_iter()
                    .filter(|&id| {
                        let histogram = storage_of(id).histogram(id).unwrap();
                        query.matches_fraction(histogram.fraction(query.bin))
                    })
                    .collect();
                for id in db.edited_ids() {
                    let storage = storage_of(id);
                    let sequence = storage.edit_sequence(id).unwrap();
                    let base = storage.histogram(sequence.base).unwrap();
                    if plan == QueryPlan::Bwm
                        && sequence.all_bound_widening()
                        && query.matches_fraction(base.fraction(query.bin))
                    {
                        want.shortcut_emissions += 1;
                        results.push(id);
                        continue;
                    }
                    let engine = RuleEngine::with_background(
                        storage.quantizer(),
                        RuleProfile::Conservative,
                        storage.background(),
                    );
                    let trace = engine.bounds_trace(&sequence, storage).unwrap();
                    let bounds = trace.last().unwrap()[query.bin];
                    want.bounds_computed += 1;
                    want.ops_processed += sequence.len();
                    for (slot, (_, n)) in want
                        .rule_applications
                        .iter_mut()
                        .zip(sequence.kind_histogram())
                    {
                        *slot += n;
                    }
                    want.bounds_widened += usize::from(!bounds.is_exact());
                    if bounds.overlaps_fraction(query.pct_min, query.pct_max) {
                        results.push(id);
                    }
                }
                results.sort_unstable();
                let got = db.query_range_with_plan(query, plan).unwrap();
                let stats = got.stats;
                assert_eq!(stats.bounds_computed, want.bounds_computed, "{when}");
                assert_eq!(stats.ops_processed, want.ops_processed, "{when}");
                assert_eq!(stats.rule_applications, want.rule_applications, "{when}");
                assert_eq!(stats.bounds_widened, want.bounds_widened, "{when}");
                assert_eq!(stats.shortcut_emissions, want.shortcut_emissions, "{when}");
                assert_eq!(got.sorted_results(), results, "{when}");
                shortcut_and_widened.0 += want.shortcut_emissions;
                shortcut_and_widened.1 += want.bounds_widened;
            }
        }
        let (shortcuts, widened) = shortcut_and_widened;
        assert!(
            shortcuts > 0 && widened > 0,
            "{shards} shards: {shortcut_and_widened:?}"
        );
    }
}
