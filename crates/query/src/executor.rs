//! The query processor: Instantiate / RBM / BWM execution over a storage
//! engine.

use crate::knn_edited::KnnOutcome;
use crate::plan::QueryPlan;
use mmdb_boundidx::{BoundIndex, SyncStats};
use mmdb_bwm::{BwmQueryStats, BwmStructure, Method, QueryOutcome};
use mmdb_editops::ImageId;
use mmdb_rules::{ColorRangeQuery, RuleEngine, RuleError, RuleProfile};
use mmdb_storage::{ReadView, StorageEngine, StorageError};
use mmdb_telemetry::{counter, histogram, Counter, EventKind, Histogram, QueryTrace, RANGE_PLANS};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub use mmdb_bwm::{QueryCtx, ShardRecord};

/// Errors from query execution.
#[derive(Debug)]
pub enum QueryError {
    /// Bound computation failed.
    Rule(RuleError),
    /// Storage access failed.
    Storage(StorageError),
    /// The database serves only [`RuleProfile::Conservative`]; a request
    /// for another profile is refused rather than answered with bounds that
    /// may drop true matches.
    UnservedProfile(RuleProfile),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Rule(e) => write!(f, "rule error: {e}"),
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::UnservedProfile(p) => write!(
                f,
                "rule profile {} is not served: its bounds are unsound (PAPER.md caveat 2); \
                 only conservative is",
                p.label()
            ),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Rule(e) => Some(e),
            QueryError::Storage(e) => Some(e),
            QueryError::UnservedProfile(_) => None,
        }
    }
}

impl From<RuleError> for QueryError {
    fn from(e: RuleError) -> Self {
        QueryError::Rule(e)
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// Result alias for query execution.
pub type Result<T> = std::result::Result<T, QueryError>;

/// The plan's position in [`RANGE_PLANS`] label order, which indexes both
/// the per-plan series table and the demand counter's `plan` label.
fn plan_index(plan: QueryPlan) -> usize {
    match plan {
        QueryPlan::Instantiate => 0,
        QueryPlan::Rbm => 1,
        QueryPlan::Bwm => 2,
        QueryPlan::Indexed => 3,
    }
}

/// What one plan reports into: cached registry handles and the
/// flight-recorder label, so observing a query formats nothing.
struct RangeSeries {
    total: Arc<Counter>,
    latency: Arc<Histogram>,
    label: String,
}

/// The per-plan table of range-query series, registered on first use,
/// indexed by [`plan_index`].
fn series(plan: QueryPlan) -> &'static RangeSeries {
    static TABLE: OnceLock<[RangeSeries; RANGE_PLANS.len()]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let g = mmdb_telemetry::global();
        RANGE_PLANS.map(|plan| RangeSeries {
            total: g.counter(&format!(r#"mmdb_query_range_total{{plan="{plan}"}}"#)),
            latency: g.histogram(&format!(
                r#"mmdb_query_range_latency_seconds{{plan="{plan}"}}"#
            )),
            label: format!("plan={plan}"),
        })
    });
    &table[plan_index(plan)]
}

/// Registers every range-query series at zero.
pub(crate) fn register_range_series() {
    series(QueryPlan::Rbm);
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Runs `body` as **one** observed range query: a `query_start` /
/// `query_end` flight-recorder pair, one demand count, one count and one
/// latency sample per series, the batched work counters, and — on a traced
/// context — the root totals, parameter events and total duration. `body`
/// is everything the caller was handed: one slice for a [`QueryProcessor`]
/// wrapper, the whole scatter-gather loop for the `mmdbms` facade. A query
/// is observed by the layer that owns all of it, never per slice.
pub fn observed(
    plan: QueryPlan,
    query: &ColorRangeQuery,
    ctx: &mut QueryCtx,
    body: impl FnOnce(&mut QueryCtx) -> Result<()>,
) -> Result<()> {
    let started = Instant::now();
    observe_range_start(plan, query);
    body(ctx)?;
    let elapsed = started.elapsed();
    if let Some(trace) = &mut ctx.trace {
        trace.counter("results", ctx.results.len() as u64);
        trace.counter("bounds_computed", ctx.stats.bounds_computed as u64);
        trace.counter("bounds_widened", ctx.stats.bounds_widened as u64);
        if plan == QueryPlan::Indexed {
            trace.counter("index_hits", ctx.stats.intervals_scanned as u64);
        }
        trace.event("plan", plan.to_string());
        trace.event("bin", query.bin.to_string());
        trace.event("range", format!("[{}, {}]", query.pct_min, query.pct_max));
        if !ctx.shards.is_empty() {
            trace.event("shards", ctx.shards.len().to_string());
        }
        trace.finish(elapsed);
    }
    observe_range(plan, query, ctx, elapsed);
    Ok(())
}

/// Runs `body` as **one** observed augmented k-NN request: one count, one
/// latency sample of the whole request, and the prune counters of the
/// outcome it returns — for a sharded database, summed over the gather.
pub fn observed_knn(body: impl FnOnce() -> Result<KnnOutcome>) -> Result<KnnOutcome> {
    let started = Instant::now();
    let outcome = body()?;
    counter!(r#"mmdb_query_knn_total{path="augmented"}"#).inc();
    histogram!(r#"mmdb_query_knn_latency_seconds{path="augmented"}"#).observe(started.elapsed());
    counter!("mmdb_query_knn_edited_pruned_total").add(outcome.stats.edited_pruned as u64);
    counter!("mmdb_query_knn_edited_instantiated_total")
        .add(outcome.stats.edited_instantiated as u64);
    Ok(outcome)
}

/// Records the start of one range query in the flight recorder; the query
/// parameters travel as numeric counts (range in parts per million). Gated
/// on the instrumentation switch.
fn observe_range_start(plan: QueryPlan, query: &ColorRangeQuery) {
    if !mmdb_telemetry::instrumentation_enabled() {
        return;
    }
    mmdb_telemetry::recorder().record(
        EventKind::QueryStart,
        series(plan).label.as_str(),
        &[
            ("bin", query.bin as u64),
            ("min_ppm", (query.pct_min * 1e6) as u64),
            ("max_ppm", (query.pct_max * 1e6) as u64),
        ],
    );
}

/// Records one completed range query. The work counters other tooling
/// diffs are exact totals and always flushed ([`flush_work_counters`]); the
/// rest — demand, the per-plan counter and latency histogram, a `query_end`
/// flight-recorder event carrying the work and per-shard figures, and past
/// the configured threshold a slow-query counter + event — sits behind one
/// relaxed load of the instrumentation switch.
fn observe_range(plan: QueryPlan, query: &ColorRangeQuery, ctx: &QueryCtx, elapsed: Duration) {
    flush_work_counters(plan, &ctx.stats);
    if !mmdb_telemetry::instrumentation_enabled() {
        return;
    }
    mmdb_telemetry::record_range_demand(query.bin as u32, plan_index(plan));
    let series = series(plan);
    series.total.inc();
    series.latency.observe(elapsed);
    let mut counts = vec![
        ("results", ctx.results.len() as u64),
        ("bounds_computed", ctx.stats.bounds_computed as u64),
        ("bounds_widened", ctx.stats.bounds_widened as u64),
        ("duration_nanos", nanos(elapsed)),
        ("bin", query.bin as u64),
    ];
    let slowest = ctx.shards.iter().enumerate().max_by_key(|(_, s)| s.elapsed);
    if let Some((index, shard)) = slowest {
        let with_hits = ctx.shards.iter().filter(|s| s.results > 0).count();
        counts.extend([
            ("shards", ctx.shards.len() as u64),
            ("shards_with_hits", with_hits as u64),
            ("slowest_shard", index as u64),
            ("slowest_shard_nanos", nanos(shard.elapsed)),
        ]);
    }
    mmdb_telemetry::recorder().record(EventKind::QueryEnd, series.label.as_str(), &counts);
    if elapsed >= mmdb_telemetry::slow_query_threshold() {
        counter!("mmdb_query_slow_total").inc();
        mmdb_telemetry::recorder().record(
            EventKind::SlowQuery,
            format!(
                "plan={plan} bin={} took {}",
                query.bin,
                mmdb_telemetry::format_duration(elapsed)
            ),
            &[
                ("duration_nanos", nanos(elapsed)),
                ("results", ctx.results.len() as u64),
            ],
        );
    }
}

/// Adds one executed query's work counters — summed over every shard
/// slice — to the process-wide registry: the rule engine's series (Table 1
/// applications by kind, BOUNDS computations, bound-widening operations),
/// the BWM scan series of a BWM query, and the bound index's lookup and hit
/// counts of an Indexed one. Execution itself only fills in the
/// [`BwmQueryStats`], so the series are exact as soon as the query returns,
/// whichever thread ran it.
fn flush_work_counters(plan: QueryPlan, stats: &BwmQueryStats) {
    // A plan that walked no rule (Indexed, Instantiate, a BWM scan that
    // shortcut every cluster) leaves the rule series alone rather than
    // adding zeros.
    if stats.bounds_computed > 0 {
        counter!("mmdb_rules_bounds_computed_total").add(stats.bounds_computed as u64);
        let applications = [
            counter!(r#"mmdb_rules_applications_total{op="define"}"#),
            counter!(r#"mmdb_rules_applications_total{op="combine"}"#),
            counter!(r#"mmdb_rules_applications_total{op="modify"}"#),
            counter!(r#"mmdb_rules_applications_total{op="mutate"}"#),
            counter!(r#"mmdb_rules_applications_total{op="merge_null"}"#),
            counter!(r#"mmdb_rules_applications_total{op="merge_target"}"#),
        ];
        for (series, &n) in applications.iter().zip(&stats.rule_applications) {
            series.add(n as u64);
        }
        // Every rule but `Merge` with a target is bound-widening (§4).
        let [.., merge_target] = stats.rule_applications;
        counter!(r#"mmdb_rules_widening_ops_total{profile="conservative"}"#)
            .add((stats.ops_processed - merge_target) as u64);
    }
    match plan {
        QueryPlan::Bwm => {
            counter!("mmdb_bwm_queries_total").inc();
            counter!("mmdb_bwm_clusters_visited_total").add(stats.clusters_visited as u64);
            counter!("mmdb_bwm_base_hits_total").add(stats.base_hits as u64);
            counter!("mmdb_bwm_shortcut_emissions_total").add(stats.shortcut_emissions as u64);
            counter!("mmdb_bwm_ops_processed_total").add(stats.ops_processed as u64);
            counter!("mmdb_bwm_bounds_widened_total").add(stats.bounds_widened as u64);
            let classified = stats
                .bounds_computed
                .saturating_sub(stats.unclassified_scanned);
            counter!(r#"mmdb_bwm_scans_total{component="classified"}"#).add(classified as u64);
            counter!(r#"mmdb_bwm_scans_total{component="unclassified"}"#)
                .add(stats.unclassified_scanned as u64);
        }
        QueryPlan::Indexed => {
            counter!("mmdb_boundidx_lookups_total").inc();
            counter!("mmdb_boundidx_hits_total").add(stats.intervals_scanned as u64);
        }
        QueryPlan::Rbm | QueryPlan::Instantiate => {}
    }
}

/// What one slice of a range query runs: the plan together with any
/// structure it reads that the storage engine does not hold, borrowed for
/// the slice. They ride here rather than in the [`QueryCtx`] because each
/// shard lends its own, from inside its own lock guard, while the context
/// outlives every slice.
#[derive(Clone, Copy)]
pub enum Slice<'s> {
    /// Ground truth: exact histograms, instantiating edited images.
    Instantiate,
    /// §3's Rule-Based Method.
    Rbm,
    /// §4's Figure 2 — over the engine's own Figure 1 structure, or over one
    /// the caller built and keeps.
    Bwm(Option<&'s BwmStructure>),
    /// Bound-interval index lookup; the [`SyncStats`] say what maintenance
    /// the caller just performed on the index, for the trace.
    Indexed(&'s BoundIndex, SyncStats),
}

impl Slice<'_> {
    /// The plan this slice executes.
    pub fn plan(&self) -> QueryPlan {
        match self {
            Slice::Instantiate => QueryPlan::Instantiate,
            Slice::Rbm => QueryPlan::Rbm,
            Slice::Bwm(..) => QueryPlan::Bwm,
            Slice::Indexed(..) => QueryPlan::Indexed,
        }
    }
}

/// Bulk-builds (parallel, scoped workers) the Conservative-profile
/// bound-interval index over `db` from the caller's `view` of it: the ids,
/// histograms and programs come from that one catalog state, and the index
/// is stamped with the epoch read under it (a bump needs the engine's write
/// lock). The caller keeps the view and its lock order; this takes no lock.
///
/// # Errors
/// Propagates rule-engine failures from the BOUNDS computations.
pub fn build_index(db: &StorageEngine, view: &ReadView<'_>) -> Result<BoundIndex> {
    let binary: Vec<ImageId> = view.binaries().map(|(id, _)| id).collect();
    let edited: Vec<ImageId> = view.edited().collect();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(BoundIndex::build(
        RuleProfile::Conservative,
        db.quantizer(),
        db.background(),
        &binary,
        &edited,
        view,
        view,
        db.current_epoch(),
        threads,
    )?)
}

/// A query processor bound to one database. Its scans evaluate the
/// Conservative rules, the one profile a bound program holds.
pub struct QueryProcessor<'db> {
    db: &'db StorageEngine,
}

impl<'db> QueryProcessor<'db> {
    /// Creates a processor over `db`.
    pub fn new(db: &'db StorageEngine) -> Self {
        QueryProcessor { db }
    }

    /// [`QueryProcessor::new`], for a caller that names the profile.
    ///
    /// # Panics
    /// Panics when `profile` is not [`RuleProfile::Conservative`]: a bound
    /// program holds no other profile. The parameter stays only while the
    /// benchmark harness passes it (ROADMAP item 10, "Close the benchmark
    /// spine").
    pub fn with_profile(db: &'db StorageEngine, profile: RuleProfile) -> Self {
        assert_eq!(
            profile,
            RuleProfile::Conservative,
            "a query processor runs the Conservative rules only"
        );
        Self::new(db)
    }

    fn engine(&self) -> RuleEngine<'_> {
        RuleEngine::with_background(
            self.db.quantizer(),
            RuleProfile::Conservative,
            self.db.background(),
        )
    }

    /// The one execution path: runs `slice` against this processor's
    /// database, *adding* candidates, work counters and (on a traced
    /// context) timed stages to `ctx`. Nothing here touches process-wide
    /// telemetry — see [`observed`].
    pub fn execute(
        &self,
        slice: Slice<'_>,
        query: &ColorRangeQuery,
        ctx: &mut QueryCtx,
    ) -> Result<()> {
        match slice {
            // Ground truth: instantiates every edited image, extracts its
            // exact histogram, and applies the query predicate directly.
            // This is the expensive path whose avoidance is the point of
            // the paper. The one scan that lists ids and looks each up
            // again: instantiating re-takes the catalog lock (`raster`) and
            // must run with it released, so it cannot sit under a view.
            Slice::Instantiate => {
                let started = Instant::now();
                let ids = self.db.ids();
                for &id in &ids {
                    let hist = match self.db.histogram(id) {
                        // Listed a moment ago and deleted since: not a
                        // result. A missing *referenced* image still fails.
                        Err(StorageError::NotFound(gone)) if gone == id => continue,
                        hist => hist?,
                    };
                    if query.matches_fraction(hist.fraction(query.bin)) {
                        ctx.results.push(id);
                    }
                }
                if let Some(trace) = &mut ctx.trace {
                    trace
                        .stage("exact_scan", started.elapsed())
                        .counter("scanned", ids.len() as u64);
                }
            }
            // §3 baseline (Figures 3–4 "without data structure") and §4's
            // Figure 2: one walk of the shard's Figure 1 entries, every base
            // tested against its exact histogram; RBM runs the full BOUNDS
            // computation for every edited image, BWM only where the
            // shortcut does not apply.
            Slice::Rbm => self.scan(Method::Rbm, None, query, ctx)?,
            Slice::Bwm(own) => self.scan(Method::Bwm, own, query, ctx)?,
            // A binary search and a gallop bound the bin's window, then a
            // scan of it — no rule walk, so not even a clock read untraced.
            Slice::Indexed(index, sync) => {
                let started = ctx.trace.is_some().then(Instant::now);
                let found = ctx.results.len();
                let scanned = index.lookup_into(query, &mut ctx.results);
                ctx.stats.intervals_scanned += scanned;
                if let (Some(trace), Some(started)) = (&mut ctx.trace, started) {
                    trace
                        .stage("index_sync", Duration::ZERO)
                        .counter("added", sync.added as u64)
                        .counter("removed", sync.removed as u64)
                        .counter("recomputed", sync.recomputed as u64);
                    trace
                        .stage("index_lookup", started.elapsed())
                        .counter("entries", index.len() as u64)
                        .counter("scanned", scanned as u64)
                        .counter("hits", (ctx.results.len() - found) as u64);
                }
            }
        }
        Ok(())
    }

    /// Runs `method` over Figure 1 — the engine's own, or `own` — under one
    /// read view. The shard holds everything its edited images name, so the
    /// scan ends when the view drops: it takes no other lock, and never
    /// this shard's twice.
    fn scan(
        &self,
        method: Method,
        own: Option<&BwmStructure>,
        query: &ColorRangeQuery,
        ctx: &mut QueryCtx,
    ) -> Result<()> {
        let (engine, view) = (self.engine(), self.db.read_view());
        let structure = own.unwrap_or_else(|| view.structure());
        mmdb_bwm::execute(method, structure, query, &engine, &view, &view, ctx)?;
        Ok(())
    }

    /// Runs `slice` as a whole query of its own — a fresh context, one
    /// [`QueryProcessor::execute`], observed once. Every `range_*` method
    /// below is this with the slice spelled out.
    pub fn run(&self, slice: Slice<'_>, query: &ColorRangeQuery) -> Result<QueryOutcome> {
        let mut ctx = QueryCtx::default();
        observed(slice.plan(), query, &mut ctx, |ctx| {
            self.execute(slice, query, ctx)
        })?;
        Ok(ctx.into_outcome())
    }

    /// [`QueryProcessor::run`] with tracing: the trace records the plan and
    /// query parameters as events, each scan phase as a timed stage, and the
    /// work counters the stage performed.
    pub fn run_traced(
        &self,
        slice: Slice<'_>,
        query: &ColorRangeQuery,
    ) -> Result<(QueryOutcome, QueryTrace)> {
        let mut ctx = QueryCtx::traced(format!("{}_range", slice.plan()));
        observed(slice.plan(), query, &mut ctx, |ctx| {
            self.execute(slice, query, ctx)
        })?;
        Ok(ctx.into_traced_outcome())
    }

    /// §3 baseline (Figures 3–4 "without data structure").
    pub fn range_rbm(&self, query: &ColorRangeQuery) -> Result<QueryOutcome> {
        self.run(Slice::Rbm, query)
    }

    /// §4 (Figures 3–4 "with data structure"): the Figure 2 algorithm over
    /// the structure the storage engine maintains.
    pub fn range_bwm(&self, query: &ColorRangeQuery) -> Result<QueryOutcome> {
        self.run(Slice::Bwm(None), query)
    }

    /// Figure 2 against an externally owned structure (used by callers that
    /// maintain the BWM structure incrementally).
    pub fn range_bwm_with(
        &self,
        structure: &BwmStructure,
        query: &ColorRangeQuery,
    ) -> Result<QueryOutcome> {
        self.run(Slice::Bwm(Some(structure)), query)
    }

    /// Indexed lookup against an externally owned index (used by callers
    /// that maintain the index incrementally).
    pub fn range_indexed_with(
        &self,
        index: &BoundIndex,
        query: &ColorRangeQuery,
    ) -> Result<QueryOutcome> {
        self.run(Slice::Indexed(index, SyncStats::default()), query)
    }

    /// Ground truth by instantiation; exposed for correctness verification
    /// and the instantiation-cost benchmarks.
    pub fn range_instantiate(&self, query: &ColorRangeQuery) -> Result<QueryOutcome> {
        self.run(Slice::Instantiate, query)
    }

    /// §2's provenance expansion: "this connection can be used to determine
    /// that x should also be returned ... even though their respective
    /// features do not sufficiently match." For every edited image in
    /// `results`, its base image joins the result set.
    pub fn expand_with_bases(&self, results: &[ImageId]) -> Vec<ImageId> {
        let mut set: BTreeSet<ImageId> = results.iter().copied().collect();
        for &id in results {
            if let Some(base) = self.db.base_of(id) {
                set.insert(base);
            }
        }
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_editops::EditSequence;
    use mmdb_histogram::RgbQuantizer;
    use mmdb_imaging::{draw, RasterImage, Rect, Rgb};

    /// Builds a small augmented database:
    /// * 4 binary images with 10%, 30%, 50%, 70% red;
    /// * per base, one widening edited image (blur of a corner);
    /// * one unclassified edited image (merge into base 1).
    fn setup() -> (StorageEngine, Vec<ImageId>, Vec<ImageId>) {
        let db = StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()));
        let mut bases = Vec::new();
        for rows in [1u32, 3, 5, 7] {
            let mut img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
            draw::fill_rect(&mut img, &Rect::new(0, 0, 10, rows as i64), Rgb::RED);
            bases.push(db.insert_binary(&img).unwrap());
        }
        let mut edits = Vec::new();
        for &b in &bases {
            edits.push(
                db.insert_edited(
                    EditSequence::builder(b)
                        .define(Rect::new(0, 0, 2, 2))
                        .blur()
                        .build(),
                )
                .unwrap(),
            );
        }
        edits.push(
            db.insert_edited(
                EditSequence::builder(bases[1])
                    .define(Rect::new(0, 0, 3, 3))
                    .merge_into(bases[0], 1, 1)
                    .build(),
            )
            .unwrap(),
        );
        (db, bases, edits)
    }

    fn red_bin(db: &StorageEngine) -> usize {
        db.quantizer().bin_of(Rgb::RED)
    }

    #[test]
    fn rbm_and_bwm_agree() {
        let (db, _bases, _edits) = setup();
        let qp = QueryProcessor::new(&db);
        for (lo, hi) in [
            (0.0, 1.0),
            (0.25, 0.55),
            (0.45, 0.52),
            (0.9, 1.0),
            (0.0, 0.05),
        ] {
            let q = ColorRangeQuery::new(red_bin(&db), lo, hi);
            let rbm = qp.range_rbm(&q).unwrap();
            let bwm = qp.range_bwm(&q).unwrap();
            assert_eq!(
                rbm.sorted_results(),
                bwm.sorted_results(),
                "query [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn bwm_does_less_work_when_bases_hit() {
        let (db, _bases, _edits) = setup();
        let qp = QueryProcessor::new(&db);
        // A wide query hits every base: BWM shortcuts every Main cluster.
        let q = ColorRangeQuery::new(red_bin(&db), 0.0, 1.0);
        let rbm = qp.range_rbm(&q).unwrap();
        let bwm = qp.range_bwm(&q).unwrap();
        assert!(bwm.stats.bounds_computed < rbm.stats.bounds_computed);
        // Only the unclassified image needed bounds under BWM.
        assert_eq!(bwm.stats.bounds_computed, 1);
        assert_eq!(rbm.stats.bounds_computed, 5);
    }

    /// RBM walks Figure 1 with the shortcut off; its §3 stages still count
    /// every binary image scanned and matched, and every edited image's
    /// rule walk.
    #[test]
    fn rbm_trace_counts_every_binary_and_edited_image() {
        let (db, _bases, _edits) = setup();
        let qp = QueryProcessor::new(&db);
        let stage = |trace: &QueryTrace, stage: &str, counter: &str| {
            let span = trace
                .span(stage)
                .unwrap_or_else(|| panic!("{stage} missing"));
            let value = span.counters.iter().find(|(name, _)| name == counter);
            value
                .unwrap_or_else(|| panic!("{stage}.{counter} missing"))
                .1
        };
        // (range, binary hits): bases are 10, 30, 50 and 70 % red.
        for ((lo, hi), hits) in [((0.25, 0.55), 2), ((0.0, 1.0), 4), ((0.9, 1.0), 0)] {
            let q = ColorRangeQuery::new(red_bin(&db), lo, hi);
            let (out, trace) = qp.run_traced(Slice::Rbm, &q).unwrap();
            let what = format!("[{lo}, {hi}]");
            assert_eq!(stage(&trace, "binary_scan", "scanned"), 4, "{what}");
            assert_eq!(stage(&trace, "binary_scan", "hits"), hits, "{what}");
            // Four blurs of a defined corner (2 ops) and one paste (2 ops).
            assert_eq!(stage(&trace, "edited_scan", "bounds_computed"), 5, "{what}");
            assert_eq!(stage(&trace, "edited_scan", "ops_processed"), 10, "{what}");
            assert_eq!(
                trace.counter_value("results"),
                Some(out.results.len() as u64)
            );
            assert_eq!(
                (out.stats.bounds_computed, out.stats.ops_processed),
                (5, 10)
            );
        }
    }

    #[test]
    fn instantiate_skips_an_image_deleted_after_it_was_listed() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (db, _bases, _edits) = setup();
        let qp = QueryProcessor::new(&db);
        let q = ColorRangeQuery::new(red_bin(&db), 0.0, 1.0);
        let stable = qp.range_instantiate(&q).unwrap().sorted_results();
        let stop = AtomicBool::new(false);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            // Churn one binary image at the end of the id space: the scan
            // lists it, then often finds it gone.
            scope.spawn(|| {
                let img = RasterImage::filled(4, 4, Rgb::RED).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    let id = db.insert_binary(&img).unwrap();
                    db.delete(id).unwrap();
                }
            });
            let outcomes = (0..2_000).map(|_| qp.range_instantiate(&q)).collect();
            stop.store(true, Ordering::SeqCst);
            outcomes
        });
        for outcome in outcomes {
            let got = outcome
                .expect("a listed image deleted since is skipped, not an error")
                .sorted_results();
            assert!(stable.iter().all(|id| got.contains(id)));
        }
    }

    /// A view lists no id the catalog has dropped and holds every base it
    /// lists an edited image of: whole images come and go under the scans,
    /// and no scan fails or loses a stable image.
    #[test]
    fn rbm_and_bwm_scans_read_one_consistent_view_under_churn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (db, bases, edits) = setup();
        let qp = QueryProcessor::new(&db);
        let q = ColorRangeQuery::new(red_bin(&db), 0.0, 1.0);
        let stop = AtomicBool::new(false);
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            scope.spawn(|| {
                let img = RasterImage::filled(4, 4, Rgb::RED).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    let base = db.insert_binary(&img).unwrap();
                    let seq = EditSequence::builder(base)
                        .define(Rect::new(0, 0, 2, 2))
                        .merge_into(bases[0], 1, 1)
                        .build();
                    let edited = db.insert_edited(seq).unwrap();
                    db.delete(edited).unwrap();
                    db.delete(base).unwrap();
                }
            });
            let outcomes = (0..2_000)
                .flat_map(|_| [qp.range_rbm(&q), qp.range_bwm(&q)])
                .collect();
            stop.store(true, Ordering::SeqCst);
            outcomes
        });
        for outcome in outcomes {
            let got = outcome.expect("no scan meets a half-deleted image");
            assert!(bases
                .iter()
                .chain(&edits)
                .all(|id| got.results.contains(id)));
        }
    }

    #[test]
    fn results_superset_of_ground_truth_and_no_false_negatives() {
        let (db, _bases, _edits) = setup();
        let qp = QueryProcessor::new(&db);
        for (lo, hi) in [(0.0, 0.3), (0.28, 0.32), (0.5, 1.0)] {
            let q = ColorRangeQuery::new(red_bin(&db), lo, hi);
            let truth = qp.range_instantiate(&q).unwrap().sorted_results();
            let rbm = qp.range_rbm(&q).unwrap().sorted_results();
            for id in &truth {
                assert!(rbm.contains(id), "false negative {id} in [{lo},{hi}]");
            }
        }
    }

    /// The Conservative index against both scans. A literal-profile index
    /// is no longer a configuration: no program holds those rules.
    #[test]
    fn indexed_matches_scans_for_both_profiles() {
        let (db, _bases, _edits) = setup();
        let index = build_index(&db, &db.read_view()).unwrap();
        let qp = QueryProcessor::new(&db);
        for (lo, hi) in [
            (0.0, 1.0),
            (0.25, 0.55),
            (0.45, 0.52),
            (0.9, 1.0),
            (0.0, 0.05),
        ] {
            let q = ColorRangeQuery::new(red_bin(&db), lo, hi);
            let rbm = qp.range_rbm(&q).unwrap().sorted_results();
            let bwm = qp.range_bwm(&q).unwrap().sorted_results();
            let idx = qp.range_indexed_with(&index, &q).unwrap().sorted_results();
            assert_eq!(idx, rbm, "[{lo},{hi}] indexed vs rbm");
            assert_eq!(idx, bwm, "[{lo},{hi}] indexed vs bwm");
        }
    }

    #[test]
    #[should_panic(expected = "Conservative rules only")]
    fn a_literal_profile_processor_is_refused() {
        let (db, _bases, _edits) = setup();
        let _ = QueryProcessor::with_profile(&db, RuleProfile::PaperTable1);
    }

    #[test]
    fn indexed_trace_reports_hits() {
        let (db, _bases, _edits) = setup();
        let qp = QueryProcessor::new(&db);
        let index = build_index(&db, &db.read_view()).unwrap();
        let q = ColorRangeQuery::new(red_bin(&db), 0.0, 1.0);
        let slice = Slice::Indexed(&index, SyncStats::default());
        let (out, trace) = qp.run_traced(slice, &q).unwrap();
        assert!(!out.results.is_empty());
        assert!(trace.counter_value("index_hits").unwrap_or(0) > 0);
        let rendered = trace.render();
        assert!(rendered.contains("index_lookup"), "{rendered}");
    }

    #[test]
    fn expansion_adds_bases() {
        let (db, bases, edits) = setup();
        let qp = QueryProcessor::new(&db);
        let expanded = qp.expand_with_bases(&[edits[2]]);
        assert!(expanded.contains(&bases[2]));
        assert!(expanded.contains(&edits[2]));
        assert_eq!(expanded.len(), 2);
        // Binary-only input is unchanged.
        assert_eq!(qp.expand_with_bases(&[bases[0]]), vec![bases[0]]);
    }

    /// The profiles bound the blurred images differently; the served,
    /// Conservative scan still keeps every true match.
    #[test]
    fn profile_affects_filter_width_not_correctness() {
        let (db, _bases, edits) = setup();
        let q = ColorRangeQuery::new(red_bin(&db), 0.29, 0.31);
        let cons = QueryProcessor::new(&db).range_rbm(&q).unwrap();
        let truth = QueryProcessor::new(&db).range_instantiate(&q).unwrap();
        for id in truth.sorted_results() {
            assert!(cons.results.contains(&id), "false negative {id}");
        }
        let engine =
            |profile| RuleEngine::with_background(db.quantizer(), profile, db.background());
        let (conservative, literal) = (
            engine(RuleProfile::Conservative),
            engine(RuleProfile::PaperTable1),
        );
        let blurred = db.edit_sequence(edits[0]).unwrap();
        let cons = conservative.bounds(&blurred, q.bin, &db).unwrap();
        let lit = literal.bounds(&blurred, q.bin, &db).unwrap();
        assert!(lit.is_exact(), "the literal Combine row changes nothing");
        assert!(cons.fraction_width() > lit.fraction_width());
    }
}
