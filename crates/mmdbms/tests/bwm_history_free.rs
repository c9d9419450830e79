//! `plan=bwm` is Figure 2: the work it reports is a function of the query
//! and the catalog, not of which other plans ran before it. A warm bound
//! index (built by an Indexed query) and a write that moves the mutation
//! epoch must both leave a BWM query's counters exactly where they were —
//! in process and in the wire reply.

use mmdbms::datagen::flags::FlagGenerator;
use mmdbms::datagen::VariantConfig;
use mmdbms::prelude::*;
use mmdbms::server::protocol::{PlanKind, ProfileKind};
use mmdbms::server::{Client, QueryBackend, QueryServer, RangeRequest, ServerConfig};
use mmdbms::MultimediaDatabase;
use std::sync::Arc;

/// Twenty-four flags with three edited variants each.
fn seeded_db(shards: usize) -> MultimediaDatabase {
    let db = MultimediaDatabase::in_memory_sharded(Box::new(RgbQuantizer::default_64()), shards);
    let flags = FlagGenerator::with_seed(5);
    for i in 0..24 {
        db.insert_image_with_augmentation(&flags.generate(i), 3, VariantConfig::default(), i)
            .unwrap();
    }
    db
}

/// A narrow band no base sits in, so few clusters shortcut and Figure 2
/// step 4.3 has rule walks to count.
fn red_band(db: &MultimediaDatabase) -> ColorRangeQuery {
    ColorRangeQuery::new(db.bin_of(Rgb::new(0xCE, 0x11, 0x26)), 0.3, 0.45)
}

/// Moves every shard's mutation epoch and leaves the catalog as it was.
fn write_and_undo(db: &MultimediaDatabase) {
    let blank = RasterImage::filled(8, 8, Rgb::new(1, 2, 3)).unwrap();
    for _ in 0..db.shard_count() {
        let id = db.insert_image(&blank).unwrap();
        db.delete(id).unwrap();
    }
}

#[test]
fn bwm_stats_do_not_depend_on_index_warmth_or_write_history() {
    for shards in [1, 4] {
        let db = seeded_db(shards);
        let query = red_band(&db);
        let bwm = || db.query_range_with_plan(&query, QueryPlan::Bwm).unwrap();
        let warm = || {
            db.query_range_with_plan(&query, QueryPlan::Indexed)
                .unwrap()
        };
        let cold = bwm();
        assert!(
            cold.stats.bounds_computed > 0 && cold.stats.shortcut_emissions > 0,
            "the query must exercise both branches of step 4: {:?}",
            cold.stats
        );
        assert_eq!(cold.stats.intervals_scanned, 0);
        let what = |stage: &str| format!("{shards} shard(s), {stage}");

        assert_eq!(warm().sorted_results(), cold.sorted_results());
        let after_indexed = bwm();
        assert_eq!(after_indexed.stats, cold.stats, "{}", what("index warm"));
        assert_eq!(after_indexed.results, cold.results);

        write_and_undo(&db);
        let after_write = bwm();
        assert_eq!(after_write.stats, cold.stats, "{}", what("after a write"));

        warm();
        assert_eq!(bwm().stats, cold.stats, "{}", what("index re-synced"));
    }
}

#[test]
fn wire_reply_counters_do_not_depend_on_index_warmth_or_write_history() {
    for shards in [1, 4] {
        let db = Arc::new(seeded_db(shards));
        let query = red_band(&db);
        let server = QueryServer::bind(
            "127.0.0.1:0",
            Arc::clone(&db) as Arc<dyn QueryBackend>,
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let mut ask = |plan| {
            let reply = client
                .range(RangeRequest {
                    plan,
                    profile: ProfileKind::Conservative,
                    bin: query.bin as u32,
                    pct_min: query.pct_min,
                    pct_max: query.pct_max,
                })
                .unwrap();
            (reply.bounds_computed, reply.shortcut_emissions, reply.ids)
        };
        let cold = ask(PlanKind::Bwm);
        assert!(cold.0 > 0, "the query must walk some rules");
        let what = |stage: &str| format!("{shards} shard(s), {stage}");

        ask(PlanKind::Indexed);
        assert_eq!(ask(PlanKind::Bwm), cold, "{}", what("index warm"));
        write_and_undo(&db);
        assert_eq!(ask(PlanKind::Bwm), cold, "{}", what("after a write"));
        ask(PlanKind::Indexed);
        assert_eq!(ask(PlanKind::Bwm), cold, "{}", what("index re-synced"));
        drop(client);
        server.shutdown();
    }
}

/// Figure 1 belongs to the storage engine, so a write through the public
/// storage handle reaches it like a facade write: the three bound-based
/// plans keep agreeing, and a delete leaves `plan=bwm` answering.
#[test]
fn writes_through_the_storage_handle_reach_figure_1() {
    let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
    let everything = ColorRangeQuery::new(db.bin_of(Rgb::RED), 0.0, 1.0);
    let answer = |plan| {
        let out = db.query_range_with_plan(&everything, plan);
        out.unwrap_or_else(|e| panic!("plan={plan}: {e}"))
            .sorted_results()
    };
    let agree = |expected: &[ImageId]| {
        for plan in [QueryPlan::Rbm, QueryPlan::Bwm, QueryPlan::Indexed] {
            assert_eq!(answer(plan), expected, "plan={plan}");
        }
    };
    let red = RasterImage::filled(8, 8, Rgb::RED).unwrap();
    let base = db.insert_image(&red).unwrap();
    let edited = db
        .storage()
        .insert_edited(EditSequence::builder(base).blur().build())
        .unwrap();
    let binary = db.storage().insert_binary(&red).unwrap();
    agree(&[base, edited, binary]);

    let via_facade = db
        .insert_edited(EditSequence::builder(base).blur().build())
        .unwrap();
    db.storage().delete(via_facade).unwrap();
    db.storage().delete(edited).unwrap();
    agree(&[base, binary]);
}
