//! Property tests for the query-heat table's decay semantics.
//!
//! The ranking contract (`mmdbctl top --sort heat`, the `/heat` endpoint)
//! rests on one algebraic fact: both slot mutations — `record` (add a
//! constant) and a decay tick (multiply by a constant in (0, 1), floored)
//! — are monotone in the slot value. So a slot that receives a *superset*
//! of another slot's records, under any interleaving of records and decay
//! ticks, is never ranked below it. These tests drive random interleavings
//! through the real `HeatTable` and check the invariant at every step.

use mmdb_telemetry::HeatTable;
use proptest::prelude::*;
use std::time::Duration;

/// One step of an interleaved history.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Record only into the superset slot A.
    RecordA,
    /// Record into both A and B (so A's records stay a superset of B's).
    RecordBoth,
    /// Apply this many decay ticks to the whole table.
    Decay(u32),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => Just(Step::RecordA),
        2 => Just(Step::RecordBoth),
        1 => (1u32..5).prop_map(Step::Decay),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Superset slot A never ranks below subset slot B, at any step of any
    /// interleaving of queries and decay ticks.
    #[test]
    fn decayed_heat_is_order_preserving(
        steps in proptest::collection::vec(arb_step(), 1..120),
        half_life_secs in 1u64..120,
    ) {
        let table = HeatTable::with_shards(2);
        table.set_half_life(Duration::from_secs(half_life_secs));
        let (mut records_a, mut records_b) = (0u64, 0u64);
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::RecordA => {
                    table.record(0, 1);
                    records_a += 1;
                }
                Step::RecordBoth => {
                    table.record(0, 1);
                    table.record(7, 1);
                    records_a += 1;
                    records_b += 1;
                }
                Step::Decay(ticks) => table.decay_ticks(ticks),
            }
            let (a, b) = (table.heat_of(0, 1), table.heat_of(7, 1));
            prop_assert!(
                a >= b,
                "step {i}: superset heat {a} < subset heat {b} ({records_a} vs {records_b} records)"
            );
            // Heat never exceeds the undecayed record count, and lifetime
            // totals ignore decay entirely.
            prop_assert!(a <= records_a as f64 + 1e-9);
            prop_assert_eq!(table.total_of(0, 1), records_a);
            prop_assert_eq!(table.total_of(7, 1), records_b);
        }
    }

    /// Decay is uniform: a tick multiplies every slot by the same factor,
    /// so the full ranking (not just one pair) is preserved across ticks.
    #[test]
    fn ticks_preserve_the_whole_ranking(
        counts in proptest::collection::vec(1u32..200, 2..8),
        ticks in 1u32..30,
    ) {
        let table = HeatTable::with_shards(1);
        table.set_half_life(Duration::from_secs(10));
        for (bin, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                table.record(bin as u32, 0);
            }
        }
        let before: Vec<u32> = table.snapshot().iter().map(|e| e.bin).collect();
        table.decay_ticks(ticks);
        let after: Vec<u32> = table.snapshot().iter().map(|e| e.bin).collect();
        prop_assert_eq!(before, after, "ranking changed across a uniform decay");
    }
}
