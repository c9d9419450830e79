//! Range-query demand: one counter per (bin, plan) cell,
//! `mmdb_query_range_demand_total{bin,plan}`, registered when the cell is
//! first touched, so only demanded cells appear on `/metrics`.
//!
//! A ranked "hot now" view is a scrape-side rate over this family, e.g.
//! `topk(10, rate(mmdb_query_range_demand_total[1m]))`. Recording is one
//! relaxed `fetch_add` on a handle cached per cell.

use crate::Counter;
use std::sync::{Arc, OnceLock};

/// Plan labels, indexed by the `plan` argument of [`record_range_demand`].
/// Order matches `QueryPlan`'s variants as spelled on metric labels.
pub const RANGE_PLANS: [&str; 4] = ["instantiate", "rbm", "bwm", "indexed"];

/// Bins `0..DEMAND_MAX_BINS` get their own series; anything larger shares
/// one overflow series labelled `bin="256"`. Refused requests carry an
/// unvalidated wire bin, so this clamp is what bounds the family's label
/// cardinality against outside input.
const DEMAND_MAX_BINS: usize = 256;

/// Every (bin, plan) cell plus the overflow bin.
const CELLS: usize = (DEMAND_MAX_BINS + 1) * RANGE_PLANS.len();

/// Records one range query's demand for `(bin, plan)`. `plan` indexes
/// [`RANGE_PLANS`]; an out-of-range value clamps to the last label rather
/// than panicking — the hot path must never unwind.
#[inline]
pub fn record_range_demand(bin: u32, plan: usize) {
    static HANDLES: OnceLock<Box<[OnceLock<Arc<Counter>>]>> = OnceLock::new();
    let bin = (bin as usize).min(DEMAND_MAX_BINS);
    let plan = plan.min(RANGE_PLANS.len() - 1);
    let handles = HANDLES.get_or_init(|| (0..CELLS).map(|_| OnceLock::new()).collect());
    handles[bin * RANGE_PLANS.len() + plan]
        .get_or_init(|| {
            crate::global().counter(&format!(
                r#"mmdb_query_range_demand_total{{bin="{bin}",plan="{}"}}"#,
                RANGE_PLANS[plan]
            ))
        })
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(bin: u32, plan: &str) -> u64 {
        crate::global().snapshot().get(&format!(
            r#"mmdb_query_range_demand_total{{bin="{bin}",plan="{plan}"}}"#
        ))
    }

    #[test]
    fn records_one_series_per_cell() {
        let (rbm, bwm) = (demand(3, "rbm"), demand(7, "bwm"));
        for _ in 0..5 {
            record_range_demand(3, 1);
        }
        record_range_demand(7, 2);
        assert_eq!(demand(3, "rbm"), rbm + 5);
        assert_eq!(demand(7, "bwm"), bwm + 1);
        // An untouched cell is not registered.
        let untouched = r#"mmdb_query_range_demand_total{bin="200",plan="rbm"}"#;
        assert!(!crate::global().snapshot().values.contains_key(untouched));
    }

    #[test]
    fn overflow_bin_shared() {
        let before = demand(256, "instantiate");
        record_range_demand(DEMAND_MAX_BINS as u32 + 5, 0);
        record_range_demand(u32::MAX, 0);
        assert_eq!(demand(256, "instantiate"), before + 2);
    }

    #[test]
    fn out_of_range_plan_clamps() {
        let before = demand(1, "indexed");
        record_range_demand(1, 99);
        assert_eq!(demand(1, "indexed"), before + 1);
    }
}
