//! Deterministic request streams. Request `i` of a workload's stream is a
//! pure function of `(seed, i)`, so `point_1shard` and `fanout_16shard` see
//! byte-identical requests and a traced run replays a prefix of the stream
//! the untraced run measured.

use crate::rng::Rng;
use crate::spec::{Dataset, SELECTIVE_LO_MAX, SELECTIVE_LO_MIN, SELECTIVE_WIDTH};
use mmdbms::datagen::palette::{FLAG_COLORS, FLAG_COLOR_WEIGHTS};
use mmdbms::datagen::QueryGenerator;
use mmdbms::query::QueryPlan;
use mmdbms::rules::{BoundRange, ColorRangeQuery};
use mmdbms::server::protocol::{PlanKind, ProfileKind, RangeRequest};
use mmdbms::MultimediaDatabase;

pub enum Stream {
    /// Narrow windows over the flag palette's bins.
    Selective { rng: Rng, bins: Vec<usize> },
    /// The paper's mass-weighted "at least X %" queries.
    Paper(QueryGenerator),
}

impl Stream {
    /// The stream of `dataset` over `db` (the paper stream weights its bins
    /// by the catalog's own color mass, so it needs the ingested database).
    pub fn new(dataset: Dataset, seed: u64, db: &MultimediaDatabase) -> Self {
        match dataset {
            Dataset::Selective => Stream::Selective {
                rng: Rng::fork(seed, 0x0057_BEA3),
                bins: FLAG_COLORS.iter().map(|&c| db.bin_of(c)).collect(),
            },
            Dataset::Paper => Stream::Paper(QueryGenerator::weighted_from_db(
                seed ^ 0x0057_BEA3,
                db.storage(),
            )),
        }
    }

    pub fn next_query(&mut self) -> ColorRangeQuery {
        match self {
            Stream::Selective { rng, bins } => {
                let total: u32 = FLAG_COLOR_WEIGHTS.iter().sum();
                let mut roll = rng.below(u64::from(total)) as u32;
                let mut pick = 0;
                while roll >= FLAG_COLOR_WEIGHTS[pick] {
                    roll -= FLAG_COLOR_WEIGHTS[pick];
                    pick += 1;
                }
                let lo = SELECTIVE_LO_MIN + rng.unit() * (SELECTIVE_LO_MAX - SELECTIVE_LO_MIN);
                ColorRangeQuery::new(bins[pick], lo, lo + SELECTIVE_WIDTH)
            }
            Stream::Paper(generator) => generator.next_query(),
        }
    }

    pub fn batch(&mut self, n: usize) -> Vec<ColorRangeQuery> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

/// A window of the frozen selective width centred on `bounds`' fraction
/// interval: the query the churn workload sends right after a write, so
/// that the written image is a certain hit (or, after a delete, a certain
/// miss).
pub fn probe_query(bin: usize, bounds: BoundRange) -> ColorRangeQuery {
    let (lo, hi) = bounds.fraction_range();
    let mid = (lo + hi) / 2.0;
    let min = (mid - SELECTIVE_WIDTH / 2.0).max(0.0);
    ColorRangeQuery::new(bin, min, (min + SELECTIVE_WIDTH).min(1.0))
}

/// The wire form of `query` under `plan` and the Conservative profile.
pub fn wire_request(query: &ColorRangeQuery, plan: QueryPlan) -> RangeRequest {
    RangeRequest {
        plan: match plan {
            QueryPlan::Bwm => PlanKind::Bwm,
            QueryPlan::Rbm => PlanKind::Rbm,
            QueryPlan::Instantiate => PlanKind::Instantiate,
            QueryPlan::Indexed => PlanKind::Indexed,
        },
        profile: ProfileKind::Conservative,
        bin: query.bin as u32,
        pct_min: query.pct_min,
        pct_max: query.pct_max,
    }
}
