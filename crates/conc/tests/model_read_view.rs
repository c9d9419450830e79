//! Model-checks the read-view protocol of a sharded scan (DESIGN.md,
//! "Sharded scatter-gather engine"): a scan takes its shard's one lock
//! once, resolves only that shard's ids under it, *defers* every image
//! whose merge target another shard holds, drops the view, and only then
//! asks the peer — one short read lock of its own.
//!
//! The lock is the facade `RwLock` the storage engine uses; under the model
//! it prefers writers, as std's does. The shards are stand-ins (a set of
//! live ids each): what is checked is the order of acquisitions, which is
//! all the protocol is. `seeded_bugs.rs` plants the shape this avoids.
#![cfg(feature = "model")]

use mmdb_conc::model::Model;
use mmdb_conc::sync::{Arc, RwLock, RwLockReadGuard};
use mmdb_conc::thread;
use std::cell::Cell;
use std::collections::BTreeSet;

thread_local! {
    /// Shard locks the current thread holds.
    static HELD: Cell<usize> = const { Cell::new(0) };
}

struct Shard(RwLock<BTreeSet<u64>>);

/// A shard's read lock, counted while held.
struct View<'a>(RwLockReadGuard<'a, BTreeSet<u64>>);

impl Shard {
    fn view(&self) -> View<'_> {
        let held = HELD.with(|h| h.replace(h.get() + 1));
        assert_eq!(held, 0, "a thread took a second shard lock");
        View(self.0.read())
    }

    /// The engine's ordinary lookup: its own short lock round.
    fn info(&self, id: u64) -> Result<u64, String> {
        let view = self.view();
        view.0
            .get(&id)
            .copied()
            .ok_or(format!("UnknownImage({id})"))
    }

    fn delete(&self, id: u64) {
        self.0.write().remove(&id);
    }
}

impl Drop for View<'_> {
    fn drop(&mut self) {
        HELD.with(|h| h.set(h.get() - 1));
    }
}

/// One scan of `local`: the edited image `edited` (local) merges in
/// `target`, which `peer` holds. Returns what the deferred walk saw.
fn scan(local: &Shard, peer: &Shard, edited: u64, target: u64) -> Result<u64, String> {
    let deferred = {
        let view = local.view();
        assert!(view.0.contains(&edited), "the view lists a dropped id");
        // The view resolves local ids only: a miss is deferred, not chased.
        (!view.0.contains(&target)).then_some(target)
    };
    // View dropped: the peer is consulted with no lock held.
    peer.info(deferred.expect("the target is the peer's"))
}

/// Two shards; A's edited image 10 merges in B's binary 2, B's edited image
/// 20 merges in A's binary 1; a scan per shard, and a writer per shard that
/// deletes the binary the other shard's scan is after.
fn read_view_model() {
    let a = Arc::new(Shard(RwLock::new(BTreeSet::from([1, 10]))));
    let b = Arc::new(Shard(RwLock::new(BTreeSet::from([2, 20]))));
    let scans: Vec<_> = [(&a, &b, 10, 2), (&b, &a, 20, 1)]
        .into_iter()
        .map(|(local, peer, edited, target)| {
            let (local, peer) = (Arc::clone(local), Arc::clone(peer));
            thread::spawn(move || (target, scan(&local, &peer, edited, target)))
        })
        .collect();
    let writers: Vec<_> = [(&a, 1), (&b, 2)]
        .into_iter()
        .map(|(shard, id)| {
            let shard = Arc::clone(shard);
            thread::spawn(move || shard.delete(id))
        })
        .collect();
    for scan in scans {
        let (target, seen) = scan.join().unwrap();
        // Either the target, or — its delete won the race — a clean miss
        // naming it: the query fails closed.
        assert!(
            seen == Ok(target) || seen == Err(format!("UnknownImage({target})")),
            "{seen:?}"
        );
    }
    for writer in writers {
        writer.join().unwrap();
    }
}

#[test]
fn deferred_targets_never_nest_two_shard_locks() {
    let report = Model::new().max_schedules(30_000).check(read_view_model);
    report.assert_ok();
    eprintln!(
        "read_view: {} schedules, {} ops",
        report.schedules, report.ops
    );
    assert!(report.exhausted, "the bounded space fits the schedule cap");
}
