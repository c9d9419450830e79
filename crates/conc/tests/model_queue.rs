//! Model-checks the worker-pool submission/drain handshake using the
//! *real* [`mmdb_server::BoundedQueue`] — the admission queue
//! `QueryServer` feeds its executor pool from: producers `try_push`, a
//! consumer `pop`s until `None`, the main thread `close`s after producers
//! finish.
//!
//! Invariant: **drain never loses an accepted request** — every item whose
//! `try_push` returned `Ok` is popped exactly once before the consumer
//! observes `None`, and rejected items are never popped. Lost condvar
//! wakeups surface as model deadlocks.
#![cfg(feature = "model")]

use mmdb_conc::model::Model;
use mmdb_conc::sync::Arc;
use mmdb_conc::thread;
use mmdb_server::BoundedQueue;

#[test]
fn drain_never_loses_accepted_request() {
    Model::new()
        .check(|| {
            let q = Arc::new(BoundedQueue::new(4));

            let producer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 1..=2u32 {
                        if q.try_push(i).is_ok() {
                            accepted.push(i);
                        }
                    }
                    accepted
                })
            };
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            };

            let accepted = producer.join().unwrap();
            // Graceful-shutdown contract: close after submissions stop; the
            // consumer drains the backlog and then observes `None`.
            q.close();
            let got = consumer.join().unwrap();

            // Capacity 4 never rejects here, so both submissions were
            // accepted — and both must come out, in FIFO order, exactly once.
            assert_eq!(accepted, vec![1, 2]);
            assert_eq!(
                got,
                vec![1, 2],
                "accepted request lost or duplicated in drain"
            );
        })
        .assert_ok();
}

/// Admission control under contention: with capacity 1 and a racing
/// consumer, any subset of submissions may be refused `Full` — but the
/// drained multiset must equal the accepted multiset exactly.
#[test]
fn rejected_items_never_surface_accepted_always_do() {
    Model::new()
        .check(|| {
            let q = Arc::new(BoundedQueue::new(1));

            let producers: Vec<_> = (1..=2u32)
                .map(|i| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || q.try_push(i).ok().map(|()| i))
                })
                .collect();
            let consumer = {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            };

            let mut accepted: Vec<u32> = producers
                .into_iter()
                .filter_map(|h| h.join().unwrap())
                .collect();
            q.close();
            let mut got = consumer.join().unwrap();

            accepted.sort_unstable();
            got.sort_unstable();
            assert_eq!(
                got, accepted,
                "drained items must be exactly the accepted items"
            );
        })
        .assert_ok();
}
