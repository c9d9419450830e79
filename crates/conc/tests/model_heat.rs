//! Model-checks the sharded query-heat table using the *real*
//! [`mmdb_telemetry::HeatTable`]: concurrent recorders racing each other
//! and a racing decay tick, with the table forced onto a single shard so
//! the writers genuinely contend on the same `AtomicU64` slot.
//!
//! Invariants (referenced by the `Ordering::Relaxed` comments in
//! `crates/telemetry/src/heat.rs`):
//!
//! * **No lost records**: the lifetime `total` equals the number of
//!   `record` calls exactly — `fetch_add` RMWs lose nothing regardless of
//!   interleaving.
//! * **Decay never loses a racing record**: the decay CAS loop retries on
//!   top of a concurrent `fetch_add`, so final heat is bounded below by
//!   "every record decayed" and above by "no record decayed" — a record
//!   can never vanish entirely.
#![cfg(feature = "model")]

use mmdb_conc::model::Model;
use mmdb_conc::sync::Arc;
use mmdb_conc::thread;
use mmdb_telemetry::HeatTable;
use std::time::Duration;

const HALF_LIFE: Duration = Duration::from_secs(10);

/// The per-tick decay factor matching `HALF_LIFE` (one 1s tick).
fn tick_factor() -> f64 {
    0.5f64.powf(1.0 / HALF_LIFE.as_secs_f64())
}

#[test]
fn racing_recorders_lose_nothing() {
    Model::new()
        .check(|| {
            let table = Arc::new(HeatTable::with_shards(1));
            table.set_half_life(HALF_LIFE);

            let writers: Vec<_> = (0..2)
                .map(|_| {
                    let table = Arc::clone(&table);
                    thread::spawn(move || table.record(3, 1))
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }

            assert_eq!(
                table.total_of(3, 1),
                2,
                "a racing record was lost from the lifetime total"
            );
            let heat = table.heat_of(3, 1);
            assert!(
                (heat - 2.0).abs() < 1e-9,
                "undecayed heat must equal the record count, got {heat}"
            );
        })
        .assert_ok();
}

#[test]
fn decay_tick_racing_recorders_bounds_heat() {
    // The decay sweep loads every slot of the 1028-slot table, and each
    // load is a schedule point, so exhaustive exploration is expensive; a
    // bounded DFS plus seeded-random schedules still covers every
    // tick/record ordering around the contended slot.
    Model::new()
        .max_schedules(400)
        .random_iters(100)
        .check(|| {
            let table = Arc::new(HeatTable::with_shards(1));
            table.set_half_life(HALF_LIFE);

            let mut handles: Vec<_> = (0..2)
                .map(|_| {
                    let table = Arc::clone(&table);
                    thread::spawn(move || table.record(3, 1))
                })
                .collect();
            let decayer = {
                let table = Arc::clone(&table);
                thread::spawn(move || table.decay_ticks(1))
            };
            handles.push(decayer);
            for h in handles {
                h.join().unwrap();
            }

            // Totals ignore decay: still exactly 2.
            assert_eq!(table.total_of(3, 1), 2);

            // Each record contributes either decayed or undecayed heat
            // depending on where the tick landed; fixed-point flooring can
            // only shave fractions off the lower bound.
            let heat = table.heat_of(3, 1);
            let f = tick_factor();
            let lower = 2.0 * f - 1e-6;
            let upper = 2.0 + 1e-9;
            assert!(
                heat >= lower && heat <= upper,
                "heat {heat} outside [{lower}, {upper}] — a record was lost or duplicated"
            );
        })
        .assert_ok();
}
