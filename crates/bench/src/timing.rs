//! Wall-clock measurement helper.

use mmdb_bwm::QueryOutcome;
use mmdb_rules::ColorRangeQuery;
use std::time::Instant;

/// One competing execution of a query batch.
pub type Arm<'a> = &'a mut dyn FnMut(&ColorRangeQuery) -> QueryOutcome;

/// Times `N` competing executions of the same batch. Each arm first runs the
/// batch once as a warm-up; then `repeats` rounds run the arms
/// **interleaved** (A, B, C, A, B, C, …), each pass timed on its own, so
/// machine drift (thermal throttling, noisy neighbours) contaminates every
/// arm equally. Returned per arm, in order: the **best-of** (minimum) pass
/// in milliseconds per query — scheduler preemption and frequency dips only
/// ever add time, so the minimum is the least-contaminated observation —
/// and the warm-up pass's per-query results, so callers can read result
/// sets and stats without paying for an extra pass.
pub fn time_interleaved<const N: usize>(
    queries: &[ColorRangeQuery],
    repeats: usize,
    mut arms: [Arm<'_>; N],
) -> [(f64, Vec<QueryOutcome>); N] {
    assert!(repeats > 0, "need at least one timed pass");
    assert!(!queries.is_empty(), "empty query batch");
    let mut warmups: [Vec<QueryOutcome>; N] =
        std::array::from_fn(|i| queries.iter().map(&mut *arms[i]).collect());
    let mut best = [f64::INFINITY; N];
    for _ in 0..repeats {
        for (arm, best) in arms.iter_mut().zip(&mut best) {
            let start = Instant::now();
            for q in queries {
                std::hint::black_box(arm(q));
            }
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    let per_query_ms = 1e3 / queries.len() as f64;
    std::array::from_fn(|i| (best[i] * per_query_ms, std::mem::take(&mut warmups[i])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Duration;

    #[test]
    fn arms_interleave_and_report_best_of_per_arm() {
        const SLOW: Duration = Duration::from_millis(10);
        let queries = vec![ColorRangeQuery::at_least(0, 0.1); 2];
        let order = RefCell::new(String::new());
        // Each arm logs its name, answers with a recognisable
        // `bounds_computed`, and sleeps `SLOW` per query in every pass but
        // `fast_pass` (pass 0 is the warm-up).
        let arm = |name: char, bounds_computed: usize, fast_pass: Option<usize>| {
            let order = &order;
            let mut calls = 0;
            move |_: &ColorRangeQuery| {
                order.borrow_mut().push(name);
                if fast_pass != Some(calls / 2) {
                    std::thread::sleep(SLOW);
                }
                calls += 1;
                let mut outcome = QueryOutcome::default();
                outcome.stats.bounds_computed = bounds_computed;
                outcome
            }
        };
        let (mut a, mut b) = (arm('a', 1, None), arm('b', 2, Some(2)));
        let [(a_ms, a_warm), (b_ms, b_warm)] = time_interleaved(&queries, 3, [&mut a, &mut b]);
        // Warm-ups arm by arm, then three rounds of A-pass, B-pass.
        assert_eq!(*order.borrow(), "aabb".repeat(4));
        assert_eq!((a_warm.len(), b_warm.len()), (2, 2));
        assert!(a_warm.iter().all(|o| o.stats.bounds_computed == 1));
        assert!(b_warm.iter().all(|o| o.stats.bounds_computed == 2));
        // The minimum, per arm: B's one fast pass (the second of three) is
        // its time, and does not leak into A's.
        let slow_ms = SLOW.as_secs_f64() * 1e3;
        assert!(a_ms >= slow_ms, "a best-of {a_ms} ms/query");
        assert!(b_ms < slow_ms, "b best-of {b_ms} ms/query");
    }

    #[test]
    #[should_panic(expected = "empty query batch")]
    fn empty_batch_rejected() {
        time_interleaved(&[], 1, [&mut |_| QueryOutcome::default()]);
    }
}
