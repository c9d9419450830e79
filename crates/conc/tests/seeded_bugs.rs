//! Seeded-bug regression suite (satellite S5): each test injects a known
//! concurrency bug — a deliberately weakened ordering or a broken protocol
//! step — and asserts the model checker catches it *and* that the recorded
//! schedule replays to the same failure deterministically.
//!
//! These are the checker's own regression tests: if a future change to the
//! scheduler or the vector-clock detector stops catching any of these, the
//! suite fails.
#![cfg(feature = "model")]

use mmdb_conc::cell::RaceCell;
use mmdb_conc::model::Model;
use mmdb_conc::sync::atomic::{AtomicU64, Ordering};
use mmdb_conc::sync::{Arc, Condvar, Mutex, RwLock};
use mmdb_conc::thread;

/// Runs `scenario` expecting a failure, then replays the recorded schedule
/// and asserts the identical failure reproduces (message and schedule).
fn assert_caught_and_replayable(name: &str, scenario: fn()) -> String {
    let report = Model::new().check(scenario);
    let failure = report.expect_failure().clone();
    let replayed = Model::new()
        .replay(scenario, &failure.schedule)
        .unwrap_or_else(|| panic!("{name}: replay of recorded schedule did not fail"));
    assert_eq!(
        replayed.message, failure.message,
        "{name}: replay produced a different failure"
    );
    assert_eq!(
        replayed.schedule, failure.schedule,
        "{name}: replay diverged from recorded schedule"
    );
    failure.message
}

/// Bug 1: the mutation-epoch bump weakened to `Relaxed`. The bump no
/// longer publishes the catalog write, so a reader that observes the new
/// epoch races the catalog mutation — caught by the vector-clock detector.
fn relaxed_epoch_publication() {
    let epoch = Arc::new(AtomicU64::new(0));
    let catalog = Arc::new(RaceCell::new("catalog row", 0u64));
    let w = {
        let (epoch, catalog) = (Arc::clone(&epoch), Arc::clone(&catalog));
        thread::spawn(move || {
            catalog.set(1);
            // BUG: should be Release (production uses AcqRel via
            // `MutationEpoch::bump`).
            epoch.store(1, Ordering::Relaxed);
        })
    };
    let r = {
        let (epoch, catalog) = (Arc::clone(&epoch), Arc::clone(&catalog));
        thread::spawn(move || {
            if epoch.load(Ordering::Acquire) == 1 {
                let _ = catalog.get();
            }
        })
    };
    w.join().unwrap();
    r.join().unwrap();
}

#[test]
fn catches_relaxed_epoch_publication() {
    let msg = assert_caught_and_replayable("relaxed_epoch_publication", relaxed_epoch_publication);
    assert!(msg.contains("data race"), "unexpected failure: {msg}");
}

/// Bug 2: the epoch *read* weakened to `Relaxed`. Even with a correct
/// release-side bump, the reader acquires nothing — same race, other side.
fn relaxed_epoch_observation() {
    let epoch = Arc::new(AtomicU64::new(0));
    let catalog = Arc::new(RaceCell::new("catalog row", 0u64));
    let w = {
        let (epoch, catalog) = (Arc::clone(&epoch), Arc::clone(&catalog));
        thread::spawn(move || {
            catalog.set(1);
            epoch.store(1, Ordering::Release);
        })
    };
    let r = {
        let (epoch, catalog) = (Arc::clone(&epoch), Arc::clone(&catalog));
        thread::spawn(move || {
            // BUG: should be Acquire (production uses
            // `MutationEpoch::current`).
            if epoch.load(Ordering::Relaxed) == 1 {
                let _ = catalog.get();
            }
        })
    };
    w.join().unwrap();
    r.join().unwrap();
}

#[test]
fn catches_relaxed_epoch_observation() {
    let msg = assert_caught_and_replayable("relaxed_epoch_observation", relaxed_epoch_observation);
    assert!(msg.contains("data race"), "unexpected failure: {msg}");
}

/// Bug 3: the bound-index slow path captures the epoch *after* reading the
/// catalog snapshot. A mutation landing between the two leaves the stamp
/// ahead of the data — the slot then serves stale data as fresh.
fn epoch_captured_after_snapshot() {
    let epoch = Arc::new(AtomicU64::new(0));
    let catalog = Arc::new(Mutex::new(0u64));
    let w = {
        let (epoch, catalog) = (Arc::clone(&epoch), Arc::clone(&catalog));
        thread::spawn(move || {
            *catalog.lock() += 1;
            epoch.fetch_add(1, Ordering::AcqRel);
        })
    };
    let r = {
        let (epoch, catalog) = (Arc::clone(&epoch), Arc::clone(&catalog));
        thread::spawn(move || {
            // BUG: snapshot first, stamp second — production captures the
            // epoch before reading any catalog state (see
            // `EpochSlot::write` docs and `with_bound_index`).
            let snap = *catalog.lock();
            let stamp = epoch.load(Ordering::Acquire);
            assert!(
                snap >= stamp,
                "stale value {snap} stamped fresh at epoch {stamp}"
            );
        })
    };
    w.join().unwrap();
    r.join().unwrap();
}

#[test]
fn catches_epoch_captured_after_snapshot() {
    let msg = assert_caught_and_replayable(
        "epoch_captured_after_snapshot",
        epoch_captured_after_snapshot,
    );
    assert!(msg.contains("stale value"), "unexpected failure: {msg}");
}

/// Bug 4: a ring writer publishing its slot without the slot mutex. The
/// head counter's `Relaxed` fetch_add is fine *only because* the slot
/// mutex is the publication edge; removing the mutex reintroduces the race.
fn ring_slot_published_without_mutex() {
    let head = Arc::new(AtomicU64::new(0));
    let slot = Arc::new(RaceCell::new("ring slot", (0u64, 0u64)));
    let w = {
        let (head, slot) = (Arc::clone(&head), Arc::clone(&slot));
        thread::spawn(move || {
            let seq = head.fetch_add(1, Ordering::Relaxed);
            // BUG: production wraps this in the slot's Mutex.
            slot.set((seq, 42));
        })
    };
    let d = {
        let (head, slot) = (Arc::clone(&head), Arc::clone(&slot));
        thread::spawn(move || {
            if head.load(Ordering::Relaxed) > 0 {
                let _ = slot.get();
            }
        })
    };
    w.join().unwrap();
    d.join().unwrap();
}

#[test]
fn catches_ring_slot_published_without_mutex() {
    let msg = assert_caught_and_replayable(
        "ring_slot_published_without_mutex",
        ring_slot_published_without_mutex,
    );
    assert!(msg.contains("data race"), "unexpected failure: {msg}");
}

/// Bug 5: a consumer re-checking the queue with `if` instead of a loop.
/// With two consumers and one item, `notify_all` wakes both; the loser
/// finds the queue empty — the classic wait-predicate bug. Depending on
/// the interleaving this surfaces as the empty-pop panic or as a deadlock
/// (a consumer parked forever after a missed wakeup); both are failures.
fn condvar_if_instead_of_while() {
    let q = Arc::new((Mutex::new(Vec::<u32>::new()), Condvar::new()));
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let (lock, cv) = &*q;
                let mut items = lock.lock();
                // BUG: must be `while items.is_empty()`.
                if items.is_empty() {
                    items = cv.wait(items);
                }
                assert!(!items.is_empty(), "woke to an empty queue");
                items.pop();
            })
        })
        .collect();
    let (lock, cv) = &*q;
    lock.lock().push(7);
    cv.notify_all();
    for c in consumers {
        c.join().unwrap();
    }
}

#[test]
fn catches_condvar_if_instead_of_while() {
    let msg =
        assert_caught_and_replayable("condvar_if_instead_of_while", condvar_if_instead_of_while);
    assert!(
        msg.contains("woke to an empty queue") || msg.contains("deadlock"),
        "unexpected failure: {msg}"
    );
}

/// Bug 6: a scan reading a second shard while it still holds its view of
/// the first. Two such scans in opposite orders, and a writer queued on
/// each shard: each scan's second `read` waits behind the other shard's
/// writer, which waits for the other scan — the reader–writer–reader cycle
/// of a writer-preferring lock. (Production has no such path: a shard
/// stores everything its edited images name, so no scan reaches a second
/// shard.)
fn nested_reads_across_two_shards() {
    let shards = [Arc::new(RwLock::new(0u64)), Arc::new(RwLock::new(0u64))];
    let scans: Vec<_> = [(0, 1), (1, 0)]
        .into_iter()
        .map(|(local, peer)| {
            let (local, peer) = (Arc::clone(&shards[local]), Arc::clone(&shards[peer]));
            thread::spawn(move || {
                let view = local.read();
                // BUG: the peer is consulted with the local view still held.
                let _ = *view + *peer.read();
            })
        })
        .collect();
    let writers: Vec<_> = shards
        .iter()
        .map(|shard| {
            let shard = Arc::clone(shard);
            thread::spawn(move || *shard.write() += 1)
        })
        .collect();
    for handle in scans.into_iter().chain(writers) {
        handle.join().unwrap();
    }
}

#[test]
fn catches_nested_reads_across_two_shards() {
    let msg = assert_caught_and_replayable(
        "nested_reads_across_two_shards",
        nested_reads_across_two_shards,
    );
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}
