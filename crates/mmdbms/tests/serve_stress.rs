//! Concurrent mixed-workload stress test for the query server: several
//! client threads issue range queries over the wire while another thread
//! mutates the database (inserts and deletes) through the same shared
//! handle. Pass criteria: no lost responses, no reply carrying the wrong
//! request id (the client verifies ids on every call), and stats() results
//! that stay monotonically consistent while the workload runs.

use mmdbms::datagen::helmets::HelmetGenerator;
use mmdbms::prelude::*;
use mmdbms::server::protocol::{PlanKind, ProfileKind};
use mmdbms::server::{Client, ClientError, QueryServer, RangeRequest, ServerConfig};
use mmdbms::MultimediaDatabase;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 60;

#[test]
fn concurrent_queries_survive_inserts_and_deletes() {
    stress(1);
}

/// The same workload against a real sharded backend: every request fans
/// out over four shards from whichever pool thread popped it off the one
/// admission queue.
#[test]
fn concurrent_queries_survive_inserts_and_deletes_on_four_shards() {
    stress(4);
}

fn stress(shards: usize) {
    let db = Arc::new(MultimediaDatabase::in_memory_sharded(
        Box::new(RgbQuantizer::default_64()),
        shards,
    ));
    let generator = HelmetGenerator::with_seed(7);
    for i in 0..10 {
        db.insert_image(&generator.generate(i)).unwrap();
    }

    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::<MultimediaDatabase>::clone(&db) as Arc<dyn mmdbms::server::QueryBackend>,
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));

    // Mutator: churn inserts and deletes through the same shared handle the
    // server's workers are querying. Each round also stores and deletes an
    // *edited* image, so the bound-interval index sees the full invalidation
    // surface (epoch bumps, entry removal of binary and edited images)
    // mid-query.
    let mutator = {
        let db = Arc::clone(&db);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let generator = HelmetGenerator::with_seed(99);
            let mut churned = 0u64;
            let mut i = 100;
            while !done.load(Ordering::SeqCst) {
                let id = db.insert_image(&generator.generate(i)).unwrap();
                let edited = db
                    .insert_edited(EditSequence::builder(id).blur().build())
                    .unwrap();
                db.delete(edited).unwrap();
                db.delete(id).unwrap();
                churned += 1;
                i += 1;
            }
            churned
        })
    };

    // Stats poller: the cache counters are cumulative, so from one thread's
    // point of view successive reads must never go backwards, and the
    // catalog counts must stay plausible under the churn above.
    let poller = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut last_hits = 0u64;
            let mut last_misses = 0u64;
            let mut polls = 0u64;
            while !done.load(Ordering::SeqCst) {
                let stats = client.stats().unwrap();
                assert!(
                    stats.cache_hits >= last_hits && stats.cache_misses >= last_misses,
                    "cumulative cache counters went backwards: \
                     {}/{} after {last_hits}/{last_misses}",
                    stats.cache_hits,
                    stats.cache_misses,
                );
                assert!(stats.binary_count >= 10, "base images disappeared");
                assert!(stats.binary_count <= 11, "churned image leaked");
                last_hits = stats.cache_hits;
                last_misses = stats.cache_misses;
                polls += 1;
            }
            polls
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut answered = 0usize;
                for q in 0..QUERIES_PER_CLIENT {
                    let request = RangeRequest {
                        plan: match q % 4 {
                            0 => PlanKind::Bwm,
                            1 => PlanKind::Rbm,
                            2 => PlanKind::Instantiate,
                            _ => PlanKind::Indexed,
                        },
                        profile: ProfileKind::Conservative,
                        bin: ((c * QUERIES_PER_CLIENT + q) % 64) as u32,
                        pct_min: 0.05,
                        pct_max: 1.0,
                    };
                    // The client itself asserts the response id matches the
                    // request id; a structured OVERLOADED is acceptable
                    // under stress, anything else is a failure.
                    match client.range(request) {
                        Ok(_) => answered += 1,
                        Err(ClientError::Server {
                            status: mmdbms::server::Status::Overloaded,
                            ..
                        }) => answered += 1,
                        Err(other) => panic!("client {c} query {q}: {other}"),
                    }
                }
                answered
            })
        })
        .collect();

    let mut total_answered = 0;
    for handle in clients {
        total_answered += handle.join().unwrap();
    }
    done.store(true, Ordering::SeqCst);
    let churned = mutator.join().unwrap();
    let polls = poller.join().unwrap();

    assert_eq!(
        total_answered,
        CLIENTS * QUERIES_PER_CLIENT,
        "every request must receive exactly one response"
    );
    assert!(churned > 0, "mutator never ran");
    assert!(polls > 0, "stats poller never ran");

    // Post-churn consistency: with the database quiescent again, the indexed
    // plan must agree bin-for-bin with a fresh RBM scan over the wire — the
    // epoch discipline may serve an index built mid-churn only after
    // re-syncing it, so a surviving stale bound would show up here as a
    // false negative (or phantom) against the scan.
    let mut verifier = Client::connect(addr).unwrap();
    for bin in 0..64u32 {
        let request = |plan| RangeRequest {
            plan,
            profile: ProfileKind::Conservative,
            bin,
            pct_min: 0.02,
            pct_max: 1.0,
        };
        let mut scan = verifier.range(request(PlanKind::Rbm)).unwrap().ids;
        let mut indexed = verifier.range(request(PlanKind::Indexed)).unwrap().ids;
        scan.sort_unstable();
        indexed.sort_unstable();
        assert_eq!(
            scan, indexed,
            "indexed plan diverged from the post-churn scan at bin {bin}"
        );
    }

    let drained = server.shutdown();
    // Everything was answered before shutdown began.
    assert_eq!(drained.queued_at_stop, 0);
}
