//! A range query is observed once per request, whatever the shard count:
//! the counters, latency histograms, heat cell and flight-recorder events a
//! query moves must not depend on topology, and the traced path must be the
//! untraced path with a trace attached. A query for a profile the database
//! does not serve is refused before it is observed: it moves nothing.
//!
//! Every assertion here reads process-global telemetry as an exact delta,
//! so the tests take one lock.

use mmdbms::datagen::flags::FlagGenerator;
use mmdbms::datagen::VariantConfig;
use mmdbms::prelude::*;
use mmdbms::query::executor::QueryError;
use mmdbms::server::protocol::{PlanKind, ProfileKind};
use mmdbms::server::{Client, QueryBackend, QueryServer, RangeRequest, ServerConfig};
use mmdbms::telemetry::{global, heat, recorder, EventKind, HEAT_PLANS};
use mmdbms::MultimediaDatabase;
use std::sync::{Arc, Mutex, MutexGuard};

const PLANS: [QueryPlan; 4] = [
    QueryPlan::Instantiate,
    QueryPlan::Rbm,
    QueryPlan::Bwm,
    QueryPlan::Indexed,
];

fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Twenty flags with two edited variants each, spread over `shards` shards.
fn seeded_db(shards: usize) -> MultimediaDatabase {
    let db = MultimediaDatabase::in_memory_sharded(Box::new(RgbQuantizer::default_64()), shards);
    let flags = FlagGenerator::with_seed(7);
    for i in 0..20 {
        db.insert_image_with_augmentation(&flags.generate(i), 2, VariantConfig::default(), i)
            .unwrap();
    }
    db
}

fn red_query(db: &MultimediaDatabase) -> ColorRangeQuery {
    ColorRangeQuery::at_least(db.bin_of(Rgb::new(0xCE, 0x11, 0x26)), 0.1)
}

/// Position of `plan` in the heat table's label order.
fn heat_index(plan: QueryPlan) -> usize {
    HEAT_PLANS
        .iter()
        .position(|label| *label == plan.to_string())
        .unwrap()
}

/// Everything one range query is supposed to move, read at one instant.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    total: u64,
    latency: u64,
    heat_total: u64,
    bwm_queries: u64,
    boundidx_lookups: u64,
    events_recorded: u64,
}

fn observe(plan: QueryPlan, bin: usize) -> Observed {
    let g = global();
    Observed {
        total: g
            .counter(&format!(r#"mmdb_query_range_total{{plan="{plan}"}}"#))
            .get(),
        latency: g
            .histogram(&format!(
                r#"mmdb_query_range_latency_seconds{{plan="{plan}"}}"#
            ))
            .count(),
        heat_total: heat().total_of(bin as u32, heat_index(plan)),
        bwm_queries: g.counter("mmdb_bwm_queries_total").get(),
        boundidx_lookups: g.counter("mmdb_boundidx_lookups_total").get(),
        events_recorded: recorder().recorded_total(),
    }
}

/// Asserts that between `before` and now exactly one query was observed
/// and that its `query_end` event reports `results` candidates.
fn assert_one_query(before: &Observed, plan: QueryPlan, bin: usize, results: usize, what: &str) {
    let after = observe(plan, bin);
    let expected = Observed {
        total: before.total + 1,
        latency: before.latency + 1,
        heat_total: before.heat_total + 1,
        bwm_queries: before.bwm_queries + u64::from(plan == QueryPlan::Bwm),
        boundidx_lookups: before.boundidx_lookups + u64::from(plan == QueryPlan::Indexed),
        events_recorded: after.events_recorded,
    };
    assert_eq!(after, expected, "{what}");
    let events: Vec<_> = recorder()
        .events()
        .into_iter()
        .filter(|e| e.seq >= before.events_recorded)
        .collect();
    let of_kind = |kind| events.iter().filter(|e| e.kind == kind).collect::<Vec<_>>();
    assert_eq!(
        of_kind(EventKind::QueryStart).len(),
        1,
        "{what}: {events:?}"
    );
    let ends = of_kind(EventKind::QueryEnd);
    assert_eq!(ends.len(), 1, "{what}: {events:?}");
    let reported = ends[0].counts.iter().find(|(name, _)| *name == "results");
    assert_eq!(reported, Some(&("results", results as u64)), "{what}");
}

#[test]
fn facade_observes_one_query_per_call_at_every_shard_count() {
    let _guard = telemetry_lock();
    for shards in [1, 4, 16] {
        let db = seeded_db(shards);
        let query = red_query(&db);
        for plan in PLANS {
            let before = observe(plan, query.bin);
            let out = db.query_range_with_plan(&query, plan).unwrap();
            assert!(!out.results.is_empty());
            let what = format!("{shards} shards, {plan}");
            assert_one_query(&before, plan, query.bin, out.results.len(), &what);
        }
    }
}

/// The literal Table 1 profile is refused before anything runs: every plan,
/// at 1 and 4 shards, returns the refusal and moves no series, heat cell or
/// flight-recorder event — and the Indexed refusal builds no index.
#[test]
fn unserved_profile_is_refused_and_moves_nothing() {
    let _guard = telemetry_lock();
    for shards in [1, 4] {
        let db = seeded_db(shards);
        let query = red_query(&db);
        for plan in PLANS {
            let what = format!("{shards} shards, {plan}");
            let series = global().snapshot();
            let heat_total = heat().total_of(query.bin as u32, heat_index(plan));
            let events = recorder().recorded_total();
            match db.query_range_with(&query, plan, RuleProfile::PaperTable1) {
                Err(e @ QueryError::UnservedProfile(RuleProfile::PaperTable1)) => {
                    assert!(e.to_string().contains("paper_table1"), "{what}: {e}");
                }
                other => panic!("{what}: expected the refusal, got {other:?}"),
            }
            assert_eq!(global().snapshot(), series, "{what}");
            let heat_after = heat().total_of(query.bin as u32, heat_index(plan));
            assert_eq!(heat_after, heat_total, "{what}");
            assert_eq!(recorder().recorded_total(), events, "{what}");
        }
        // Every shard's slot still reads as never built.
        db.refresh_staleness_gauges();
        let gauge = |name| global().gauge(name).get();
        assert_eq!(
            gauge("mmdb_boundidx_entries_resident"),
            0,
            "{shards} shards"
        );
        assert!(gauge("mmdb_boundidx_epoch_lag") > 0, "{shards} shards");
    }
}

#[test]
fn served_request_is_observed_once_at_every_shard_count() {
    let _guard = telemetry_lock();
    for shards in [1, 4, 16] {
        let db = Arc::new(seeded_db(shards));
        let query = red_query(&db);
        let server = QueryServer::bind(
            "127.0.0.1:0",
            Arc::clone(&db) as Arc<dyn QueryBackend>,
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (plan, kind) in PLANS.into_iter().zip([
            PlanKind::Instantiate,
            PlanKind::Rbm,
            PlanKind::Bwm,
            PlanKind::Indexed,
        ]) {
            let before = observe(plan, query.bin);
            let reply = client
                .range(RangeRequest {
                    plan: kind,
                    profile: ProfileKind::Conservative,
                    bin: query.bin as u32,
                    pct_min: query.pct_min,
                    pct_max: query.pct_max,
                })
                .unwrap();
            assert!(!reply.ids.is_empty());
            // The admission edge adds heat only for requests it refuses, so
            // a served request moves the cell once, at execution.
            let what = format!("served, {shards} shards, {plan}");
            assert_one_query(&before, plan, query.bin, reply.ids.len(), &what);
        }
        drop(client);
        server.shutdown();
    }
}

/// The executor pool against a real 16-shard backend, through the one
/// admission queue: the server registers nothing per shard, the queue gauge
/// settles at zero, and what was queued at stop fits the admission bound.
#[test]
fn pooled_server_keeps_no_per_shard_series() {
    let _guard = telemetry_lock();
    let db = Arc::new(seeded_db(16));
    let query = red_query(&db);
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn QueryBackend>,
        config,
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let expected = db
        .query_range_with(&query, QueryPlan::Indexed, RuleProfile::Conservative)
        .unwrap();
    let expected: Vec<_> = expected.results.iter().map(|id| id.0).collect();
    for _ in 0..32 {
        let reply = client
            .range(RangeRequest {
                plan: PlanKind::Indexed,
                profile: ProfileKind::Conservative,
                bin: query.bin as u32,
                pct_min: query.pct_min,
                pct_max: query.pct_max,
            })
            .unwrap();
        assert_eq!(reply.ids, expected);
    }
    drop(client);
    let drained = server.shutdown();
    assert!(drained.queued_at_stop <= config.queue_depth);
    assert_eq!(global().gauge("mmdb_server_queue_depth").get(), 0);
    let exposition = global().render_prometheus();
    let per_shard: Vec<_> = exposition
        .lines()
        .filter(|line| line.contains("mmdb_shard_"))
        .collect();
    assert!(per_shard.is_empty(), "{per_shard:?}");
}

#[test]
fn traced_path_is_the_untraced_path() {
    let _guard = telemetry_lock();
    for shards in [1, 7, 16] {
        let db = seeded_db(shards);
        let query = red_query(&db);
        // Leave a fresh index behind, so the BWM plan has a bounds cache to
        // probe: traced and untraced must use it alike.
        db.query_range_with_plan(&query, QueryPlan::Indexed)
            .unwrap();
        for plan in PLANS {
            let what = format!("{shards} shards, {plan}");
            let plain = db.query_range_with_plan(&query, plan).unwrap();
            let (traced, trace) = db.query_range_traced(&query, plan).unwrap();
            assert_eq!(traced.results, plain.results, "{what}");
            assert_eq!(traced.stats, plain.stats, "{what}");

            let root = trace.root();
            let counter = |span: &mmdbms::telemetry::Span, name: &str| {
                span.counters.iter().find(|(n, _)| n == name).map(|c| c.1)
            };
            assert_eq!(counter(root, "results"), Some(plain.results.len() as u64));
            assert_eq!(
                counter(root, "bounds_computed"),
                Some(plain.stats.bounds_computed as u64),
                "{what}"
            );
            if shards == 1 {
                assert!(root.children.iter().all(|s| !s.name.starts_with("shard")));
                continue;
            }
            let names: Vec<_> = root.children.iter().map(|s| s.name.clone()).collect();
            let expected: Vec<_> = (0..shards).map(|i| format!("shard{i}")).collect();
            assert_eq!(names, expected, "{what}");
            let sum = |name: &str| -> u64 {
                root.children
                    .iter()
                    .map(|shard| counter(shard, name).unwrap())
                    .sum()
            };
            assert_eq!(sum("results"), plain.results.len() as u64, "{what}");
            assert_eq!(
                sum("bounds_computed"),
                plain.stats.bounds_computed as u64,
                "{what}"
            );
            // Each shard stage keeps the plan's own stages beneath it.
            assert!(
                root.children.iter().all(|s| !s.children.is_empty()),
                "{what}"
            );
        }
    }
}

/// The rule engine's series, as the registry holds them right now:
/// applications by kind (define … merge_target), bound-widening operations,
/// BOUNDS computations.
fn rule_series() -> ([u64; 6], u64, u64) {
    let g = global();
    let applications = [
        "define",
        "combine",
        "modify",
        "mutate",
        "merge_null",
        "merge_target",
    ]
    .map(|op| {
        g.counter(&format!(r#"mmdb_rules_applications_total{{op="{op}"}}"#))
            .get()
    });
    let widening = g
        .counter(r#"mmdb_rules_widening_ops_total{profile="conservative"}"#)
        .get();
    (
        applications,
        widening,
        g.counter("mmdb_rules_bounds_computed_total").get(),
    )
}

/// The paper's work counters are exact the moment a query returns, whoever
/// ran it: a thread that executes range queries and exits — no flush call
/// anywhere — leaves every rule series moved by what its outcomes report.
#[test]
fn rule_series_are_exact_from_a_thread_that_exits() {
    let _guard = telemetry_lock();
    for shards in [1, 4] {
        let db = seeded_db(shards);
        let query = red_query(&db);
        for plan in [QueryPlan::Rbm, QueryPlan::Bwm] {
            let (apps_before, widening_before, bounds_before) = rule_series();
            let stats = std::thread::scope(|scope| {
                scope
                    .spawn(|| db.query_range_with_plan(&query, plan).unwrap().stats)
                    .join()
                    .unwrap()
            });
            let (apps, widening, bounds) = rule_series();
            let what = format!("{shards} shards, {plan}");
            assert!(stats.bounds_computed > 0, "{what}: nothing walked");
            assert_eq!(
                bounds - bounds_before,
                stats.bounds_computed as u64,
                "{what}"
            );
            let moved: Vec<u64> = apps.iter().zip(apps_before).map(|(a, b)| a - b).collect();
            let reported: Vec<u64> = stats.rule_applications.iter().map(|&n| n as u64).collect();
            assert_eq!(moved, reported, "{what}");
            assert_eq!(
                moved.iter().sum::<u64>(),
                stats.ops_processed as u64,
                "{what}"
            );
            assert_eq!(
                widening - widening_before,
                (stats.ops_processed - stats.rule_applications[5]) as u64,
                "{what}"
            );
        }
    }
}

/// What one augmented k-NN request moves.
fn knn_series() -> [u64; 4] {
    let g = global();
    [
        g.counter(r#"mmdb_query_knn_total{path="augmented"}"#).get(),
        g.histogram(r#"mmdb_query_knn_latency_seconds{path="augmented"}"#)
            .count(),
        g.counter("mmdb_query_knn_edited_pruned_total").get(),
        g.counter("mmdb_query_knn_edited_instantiated_total").get(),
    ]
}

/// A similarity search is one request at any shard count: one count, one
/// latency sample, prune counters equal to the gathered `KnnStats` — in
/// process and over the wire.
#[test]
fn knn_is_observed_once_at_every_shard_count() {
    let _guard = telemetry_lock();
    for shards in [1, 16] {
        let db = Arc::new(seeded_db(shards));
        let probe_id = db.binary_ids()[3];
        let probe = db.image(probe_id).unwrap();

        let before = knn_series();
        let stats = db.similar_to_augmented(&probe, 5).unwrap().stats;
        assert!(stats.edited_pruned + stats.edited_instantiated > 0);
        let expected = [
            before[0] + 1,
            before[1] + 1,
            before[2] + stats.edited_pruned as u64,
            before[3] + stats.edited_instantiated as u64,
        ];
        assert_eq!(knn_series(), expected, "facade, {shards} shards");

        let server = QueryServer::bind(
            "127.0.0.1:0",
            Arc::clone(&db) as Arc<dyn QueryBackend>,
            ServerConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let before = knn_series();
        assert_eq!(client.knn(probe_id.0, 5).unwrap().len(), 5);
        let expected = [
            before[0] + 1,
            before[1] + 1,
            before[2] + stats.edited_pruned as u64,
            before[3] + stats.edited_instantiated as u64,
        ];
        assert_eq!(knn_series(), expected, "served, {shards} shards");
        drop(client);
        server.shutdown();
    }
}
