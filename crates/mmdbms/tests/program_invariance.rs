//! Caching a compiled BOUNDS program on the catalog entry changes what a
//! rule walk costs, never what it computes or counts: per query, results,
//! work counters and rule-engine telemetry equal what the interpretive
//! reference walker (`crates/rules/tests/reference`) reports, under RBM and
//! BWM; and a merge target, whose histogram a program keeps, cannot be
//! deleted while a stored sequence pastes into it.
//!
//! The telemetry assertions read process-global counters as exact deltas,
//! so the tests take one lock.

#[path = "../../rules/tests/reference/mod.rs"]
mod reference;

use mmdbms::datagen::flags::FlagGenerator;
use mmdbms::datagen::VariantConfig;
use mmdbms::prelude::*;
use mmdbms::query::executor::QueryError;
use mmdbms::rules::InfoResolver;
use mmdbms::storage::StorageError;
use mmdbms::MultimediaDatabase;
use reference::ReferenceEngine;
use std::sync::{Mutex, MutexGuard};

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The paper's setting in small: flags, each augmented with edited variants
/// (recolors, blurs, moves, crops, pastes into other flags).
fn seeded_db(shards: usize) -> MultimediaDatabase {
    let db = MultimediaDatabase::in_memory_sharded(Box::new(RgbQuantizer::default_64()), shards);
    let flags = FlagGenerator::with_seed(17);
    for i in 0..24 {
        db.insert_image_with_augmentation(&flags.generate(i), 3, VariantConfig::default(), 100 + i)
            .unwrap();
    }
    db
}

fn queries(db: &MultimediaDatabase) -> Vec<ColorRangeQuery> {
    let colors = [
        Rgb::new(0xCE, 0x11, 0x26),
        Rgb::WHITE,
        Rgb::BLACK,
        Rgb::new(0, 0x38, 0xA8),
        Rgb::new(0, 0x9E, 0x49),
    ];
    let ranges = [(0.0, 0.08), (0.1, 0.4), (0.3, 1.0)];
    colors
        .iter()
        .flat_map(|&c| ranges.map(|(lo, hi)| ColorRangeQuery::new(db.bin_of(c), lo, hi)))
        .collect()
}

/// What one query did, as the executor reports it and as the rule engine's
/// process-wide series moved.
#[derive(Debug, Default, PartialEq, Eq)]
struct Work {
    results: Vec<ImageId>,
    bounds_computed: usize,
    ops_processed: usize,
    bounds_widened: usize,
    shortcut_emissions: usize,
    /// define, combine, modify, mutate, merge_null, merge_target.
    applications: [u64; 6],
    widening_ops: u64,
}

const OP_LABELS: [&str; 6] = [
    "define",
    "combine",
    "modify",
    "mutate",
    "merge_null",
    "merge_target",
];

fn rule_series(db: &MultimediaDatabase) -> ([u64; 6], u64, u64) {
    // `metrics()` drains this thread's staged rule counts first.
    let snapshot = db.metrics().snapshot();
    let applications =
        OP_LABELS.map(|op| snapshot.get(&format!(r#"mmdb_rules_applications_total{{op="{op}"}}"#)));
    let widening = snapshot.get(r#"mmdb_rules_widening_ops_total{profile="conservative"}"#);
    (
        applications,
        widening,
        snapshot.get("mmdb_rules_bounds_computed_total"),
    )
}

fn observed(db: &MultimediaDatabase, query: &ColorRangeQuery, plan: QueryPlan) -> Work {
    let (apps_before, widening_before, bounds_before) = rule_series(db);
    let out = db.query_range_with_plan(query, plan).unwrap();
    let (apps_after, widening_after, bounds_after) = rule_series(db);
    assert_eq!(
        bounds_after - bounds_before,
        out.stats.bounds_computed as u64,
        "mmdb_rules_bounds_computed_total"
    );
    let mut applications = [0; 6];
    for (delta, (after, before)) in applications
        .iter_mut()
        .zip(apps_after.iter().zip(apps_before))
    {
        *delta = after - before;
    }
    Work {
        results: out.sorted_results(),
        bounds_computed: out.stats.bounds_computed,
        ops_processed: out.stats.ops_processed,
        bounds_widened: out.stats.bounds_widened,
        shortcut_emissions: out.stats.shortcut_emissions,
        applications,
        widening_ops: widening_after - widening_before,
    }
}

/// RBM (§3) and BWM (Figure 2) re-run over the database with the reference
/// walker doing every BOUNDS computation.
struct Oracle<'a> {
    db: &'a MultimediaDatabase,
    reference: ReferenceEngine<'a>,
    query: &'a ColorRangeQuery,
    work: Work,
}

impl Oracle<'_> {
    fn storage_of(&self, id: ImageId) -> &mmdbms::storage::StorageEngine {
        self.db.shard_storage(self.db.shard_of(id))
    }

    fn binary_matches(&self, id: ImageId) -> bool {
        let info = self.storage_of(id).require(id).unwrap();
        self.query
            .matches_fraction(info.histogram.fraction(self.query.bin))
    }

    fn bounds_test(&mut self, id: ImageId) {
        let storage = self.storage_of(id);
        let seq = storage.edit_sequence(id).unwrap();
        let bounds = self
            .reference
            .bounds(&seq, self.query.bin, storage)
            .unwrap();
        self.work.bounds_computed += 1;
        self.work.ops_processed += seq.len();
        self.work.bounds_widened += usize::from(!bounds.is_exact());
        for (slot, (_, n)) in self.work.applications.iter_mut().zip(seq.kind_histogram()) {
            *slot += n as u64;
        }
        self.work.widening_ops += seq.ops.iter().filter(|op| op.is_bound_widening()).count() as u64;
        if bounds.overlaps_fraction(self.query.pct_min, self.query.pct_max) {
            self.work.results.push(id);
        }
    }

    fn rbm(mut self) -> Work {
        for id in self.db.binary_ids() {
            if self.binary_matches(id) {
                self.work.results.push(id);
            }
        }
        for id in self.db.edited_ids() {
            self.bounds_test(id);
        }
        self.finish()
    }

    fn bwm(mut self) -> Work {
        let structure = self.db.bwm_snapshot();
        for (base, cluster) in structure.clusters() {
            if self.binary_matches(base) {
                self.work.results.push(base);
                self.work.results.extend_from_slice(cluster);
                self.work.shortcut_emissions += cluster.len();
            } else {
                for &edited in cluster {
                    self.bounds_test(edited);
                }
            }
        }
        for &edited in structure.unclassified() {
            self.bounds_test(edited);
        }
        self.finish()
    }

    fn finish(mut self) -> Work {
        self.work.results.sort_unstable();
        self.work
    }
}

#[test]
fn work_and_answers_match_the_reference_walker() {
    let _serial = telemetry_lock();
    for shards in [1, 4] {
        let db = seeded_db(shards);
        assert!(
            db.bwm_snapshot().unclassified_count() > 0 && db.bwm_snapshot().classified_count() > 0,
            "the dataset must exercise both BWM components"
        );
        // Twice over the same queries: the first pass compiles programs as
        // it meets them, the second finds every one cached.
        for pass in 0..2 {
            for query in &queries(&db) {
                let oracle = || Oracle {
                    db: &db,
                    reference: ReferenceEngine::new(
                        db.quantizer(),
                        RuleProfile::Conservative,
                        db.storage().background(),
                    ),
                    query,
                    work: Work::default(),
                };
                let context = format!("{shards} shards, pass {pass}, {query:?}");
                assert_eq!(
                    observed(&db, query, QueryPlan::Rbm),
                    oracle().rbm(),
                    "RBM, {context}"
                );
                assert_eq!(
                    observed(&db, query, QueryPlan::Bwm),
                    oracle().bwm(),
                    "BWM, {context}"
                );
            }
        }
    }
}

/// Programs are cached without invalidation because nothing they hold can
/// change — a merge target's histogram included, since the program keeps it
/// and the target cannot be deleted while a stored sequence pastes into it.
/// The refused delete leaves the shard as it was: same epoch, same ids, and
/// the same answers under every plan, the bound index's included.
#[test]
fn a_referenced_merge_target_is_not_deleted() {
    let _serial = telemetry_lock();
    for shards in [1, 4] {
        let db =
            MultimediaDatabase::in_memory_sharded(Box::new(RgbQuantizer::default_64()), shards);
        let base = db
            .insert_image(&RasterImage::filled(12, 12, Rgb::RED).unwrap())
            .unwrap();
        let storage = db.shard_storage(db.shard_of(base));
        let target = storage
            .insert_binary(&RasterImage::filled(16, 16, Rgb::GREEN).unwrap())
            .unwrap();
        let pasted = db
            .insert_edited(
                EditSequence::builder(base)
                    .define(Rect::new(0, 0, 6, 6))
                    .merge_into(target, 2, 2)
                    .build(),
            )
            .unwrap();
        let plain = db
            .insert_edited(EditSequence::builder(base).blur().build())
            .unwrap();

        // A query no binary image satisfies, so every edited image walks.
        let query = ColorRangeQuery::new(db.bin_of(Rgb::BLUE), 0.5, 1.0);
        let answers = || {
            [QueryPlan::Indexed, QueryPlan::Bwm, QueryPlan::Rbm].map(|plan| {
                db.query_range_with_plan(&query, plan)
                    .unwrap()
                    .sorted_results()
            })
        };
        let before = answers();
        assert_eq!(before[0], before[1], "{shards} shards");
        assert_eq!(before[1], before[2], "{shards} shards");
        let cached = storage.bound_program(pasted).unwrap();
        let targets: Vec<ImageId> = cached.view().merge_targets().collect();
        assert_eq!(targets, vec![target]);

        let (epoch, ids) = (storage.current_epoch(), storage.ids());
        match db.delete(target) {
            Err(QueryError::Storage(StorageError::StillReferenced { id, dependents })) => {
                assert_eq!((id, dependents), (target, 1), "{shards} shards");
            }
            other => panic!("{shards} shards: expected StillReferenced, got {other:?}"),
        }
        assert_eq!(storage.current_epoch(), epoch, "{shards} shards");
        assert_eq!(storage.ids(), ids, "{shards} shards");
        assert_eq!(answers(), before, "{shards} shards");
        assert_eq!(storage.bound_program(pasted).unwrap(), cached);

        // With the referrer gone the target goes too.
        db.delete(pasted).unwrap();
        db.delete(target).unwrap();
        let out = db.query_range_with_plan(&query, QueryPlan::Bwm);
        assert_eq!(out.unwrap().stats.bounds_computed, 1);
        assert!(db.contains(plain));
    }
}
