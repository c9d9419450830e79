//! The plan-equivalence check the paper rests on: under the Conservative
//! profile RBM, BWM and Indexed return the same set, and that set contains
//! every image whose instantiated histogram satisfies the query. Each
//! sampled query is one operation; a disagreement is a failed operation.

use crate::rng::Rng;
use crate::steady::in_process;
use mmdbms::query::QueryPlan;
use mmdbms::rules::ColorRangeQuery;
use mmdbms::MultimediaDatabase;

/// Images instantiated per query for the `⊇ Instantiate` side. The full
/// Instantiate plan executes every edit sequence in the catalog per query;
/// a sample keeps the check inside the run-time cap.
const INSTANTIATED_PER_QUERY: usize = 16;

/// Returns `(attempted, failed)`.
pub fn plan_equivalence(
    db: &MultimediaDatabase,
    queries: &[ColorRangeQuery],
    seed: u64,
) -> (u64, u64) {
    let ids = db.ids();
    let mut rng = Rng::fork(seed, 0x0_0AC1E);
    let mut failed = 0;
    for query in queries {
        let rbm = in_process(db, query, QueryPlan::Rbm);
        let bwm = in_process(db, query, QueryPlan::Bwm);
        let indexed = in_process(db, query, QueryPlan::Indexed);
        let (Ok(rbm), Ok(bwm), Ok(indexed)) = (rbm, bwm, indexed) else {
            failed += 1;
            continue;
        };
        let mut ok = rbm == bwm && bwm == indexed;
        for _ in 0..INSTANTIATED_PER_QUERY.min(ids.len()) {
            let id = ids[rng.below(ids.len() as u64) as usize];
            let exact = db.shard_storage(db.shard_of(id)).histogram(id);
            ok &= exact.is_ok_and(|h| {
                !query.matches_fraction(h.fraction(query.bin))
                    || indexed.binary_search(&id.raw()).is_ok()
            });
        }
        if !ok {
            failed += 1;
        }
    }
    (queries.len() as u64, failed)
}
