//! A range query is observed once per request, whatever the shard count:
//! the counters, latency histograms, demand cell and flight-recorder events a
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
use mmdbms::server::{
    BackendError, Client, LookupReply, QueryBackend, QueryServer, RangeReply, RangeRequest,
    ServerConfig, StatsReply, Status,
};
use mmdbms::telemetry::{global, recorder, EventKind};
use mmdbms::MultimediaDatabase;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

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

/// The `mmdb_query_range_demand_total` cell of `(bin, plan)`, read without
/// registering it (an untouched cell does not exist yet).
fn demand(bin: usize, plan: QueryPlan) -> u64 {
    global().snapshot().get(&format!(
        r#"mmdb_query_range_demand_total{{bin="{bin}",plan="{plan}"}}"#
    ))
}

/// Everything one range query is supposed to move, read at one instant.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    total: u64,
    latency: u64,
    demand: u64,
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
        demand: demand(bin, plan),
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
        demand: before.demand + 1,
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
/// at 1 and 4 shards, returns the refusal and moves no series, demand cell or
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
            let demand_before = demand(query.bin, plan);
            let events = recorder().recorded_total();
            match db.query_range_with(&query, plan, RuleProfile::PaperTable1) {
                Err(e @ QueryError::UnservedProfile(RuleProfile::PaperTable1)) => {
                    assert!(e.to_string().contains("paper_table1"), "{what}: {e}");
                }
                other => panic!("{what}: expected the refusal, got {other:?}"),
            }
            assert_eq!(global().snapshot(), series, "{what}");
            assert_eq!(demand(query.bin, plan), demand_before, "{what}");
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
            // The admission edge counts demand only for requests it refuses,
            // so a served request moves the cell once, at execution.
            let what = format!("served, {shards} shards, {plan}");
            assert_one_query(&before, plan, query.bin, reply.ids.len(), &what);
        }
        drop(client);
        server.shutdown();
    }
}

/// The real database behind a gate: a range query announces itself and
/// parks until released, so a test decides exactly when the single worker
/// is busy.
struct GatedDb {
    db: Arc<MultimediaDatabase>,
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl QueryBackend for GatedDb {
    fn range(&self, req: &RangeRequest) -> Result<RangeReply, BackendError> {
        self.entered.lock().unwrap().send(()).unwrap();
        self.release.lock().unwrap().recv().unwrap();
        QueryBackend::range(&*self.db, req)
    }

    fn knn(&self, probe_id: u64, k: u32) -> Result<Vec<(u64, f64)>, BackendError> {
        QueryBackend::knn(&*self.db, probe_id, k)
    }

    fn lookup(&self, id: u64) -> Result<LookupReply, BackendError> {
        QueryBackend::lookup(&*self.db, id)
    }

    fn stats(&self) -> StatsReply {
        QueryBackend::stats(&*self.db)
    }
}

/// Demand the backend never saw is still counted, once: a request refused
/// at admission and one expired in the queue each move their
/// `(bin, plan)` cell by exactly 1, the served request moves it once, at
/// execution, and unvalidated wire bins past the clamp share one series.
#[test]
fn refused_demand_is_counted_once_by_bin_with_bounded_cardinality() {
    let _guard = telemetry_lock();
    let db = Arc::new(seeded_db(4));
    let bin = red_query(&db).bin;
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::new(GatedDb {
            db: Arc::clone(&db),
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        }) as Arc<dyn QueryBackend>,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Bound after the server, so a failing assertion drops the sender first
    // and the parked worker returns before the server joins it.
    let release = release;
    let addr = server.local_addr();
    let call = move |bin: u32, deadline_ms| {
        std::thread::spawn(move || {
            let request = RangeRequest {
                plan: PlanKind::Bwm,
                profile: ProfileKind::Conservative,
                bin,
                pct_min: 0.1,
                pct_max: 1.0,
            };
            Client::connect(addr)
                .unwrap()
                .range_with_deadline(request, deadline_ms)
        })
    };
    let overflow = || -> Vec<String> {
        global()
            .snapshot()
            .values
            .into_keys()
            .filter(|name| {
                name.strip_prefix(r#"mmdb_query_range_demand_total{bin=""#)
                    .and_then(|rest| rest.split('"').next()?.parse::<u64>().ok())
                    .is_some_and(|b| b >= 256)
            })
            .collect()
    };
    let before = demand(bin, QueryPlan::Bwm);
    let overflow_before = demand(256, QueryPlan::Bwm);

    // Occupy the only worker, fill the one queue slot with a request whose
    // deadline will have passed by the time it is dequeued…
    let holder = call(bin as u32, 0);
    entered.recv().unwrap();
    let expired = call(bin as u32, 1);
    while server.queue_len() == 0 {
        std::thread::yield_now();
    }
    // …so the next requests are refused at admission.
    let err = call(bin as u32, 0).join().unwrap().unwrap_err();
    assert_eq!(err.status(), Some(Status::Overloaded));
    assert_eq!(demand(bin, QueryPlan::Bwm), before + 1, "refused");
    for wire_bin in [300, u32::MAX] {
        let err = call(wire_bin, 0).join().unwrap().unwrap_err();
        assert_eq!(err.status(), Some(Status::Overloaded), "bin {wire_bin}");
    }
    assert_eq!(demand(256, QueryPlan::Bwm), overflow_before + 2);
    assert_eq!(
        overflow(),
        [r#"mmdb_query_range_demand_total{bin="256",plan="bwm"}"#]
    );

    std::thread::sleep(std::time::Duration::from_millis(5));
    release.send(()).unwrap();
    assert!(!holder.join().unwrap().unwrap().ids.is_empty());
    let err = expired.join().unwrap().unwrap_err();
    assert_eq!(err.status(), Some(Status::DeadlineExceeded));
    assert_eq!(
        demand(bin, QueryPlan::Bwm),
        before + 3,
        "refused + expired + served"
    );
    server.shutdown();
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
