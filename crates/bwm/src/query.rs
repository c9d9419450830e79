//! The BWM query processing algorithm (§4.1, Figure 2).

use crate::structure::{BwmStructure, Compiler, SequenceStore};
use mmdb_editops::ImageId;
use mmdb_rules::{ColorRangeQuery, InfoResolver, ProgramRef, Result, RuleEngine};
use mmdb_telemetry::QueryTrace;
use std::time::{Duration, Instant};

/// Work counters for one query execution — these are what Figures 3/4 of
/// the paper measure indirectly (execution time tracks the number of rule
/// applications avoided).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BwmQueryStats {
    /// Main-Component clusters visited.
    pub clusters_visited: usize,
    /// Clusters whose base histogram satisfied the query (shortcut taken).
    pub base_hits: usize,
    /// Edited images emitted *without* applying any rule.
    pub shortcut_emissions: usize,
    /// Full BOUNDS computations executed.
    pub bounds_computed: usize,
    /// BOUNDS computations whose resulting range was inexact (the rules
    /// widened it beyond a point estimate). Zero whenever no edited image
    /// required a rule walk — e.g. a never-edited database.
    pub bounds_widened: usize,
    /// Individual editing operations whose rules were applied.
    pub ops_processed: usize,
    /// `ops_processed` by operation kind, in
    /// [`ProgramRef::kind_counts`] order: define, combine, modify, mutate,
    /// merge_null, merge_target.
    pub rule_applications: [usize; 6],
    /// Unclassified-Component entries scanned.
    pub unclassified_scanned: usize,
    /// Resident intervals an indexed lookup read to answer the query.
    /// Zero under every other plan.
    pub intervals_scanned: usize,
}

impl std::ops::AddAssign for BwmQueryStats {
    fn add_assign(&mut self, other: Self) {
        self.clusters_visited += other.clusters_visited;
        self.base_hits += other.base_hits;
        self.shortcut_emissions += other.shortcut_emissions;
        self.bounds_computed += other.bounds_computed;
        self.bounds_widened += other.bounds_widened;
        self.ops_processed += other.ops_processed;
        for (kind, n) in self
            .rule_applications
            .iter_mut()
            .zip(other.rule_applications)
        {
            *kind += n;
        }
        self.unclassified_scanned += other.unclassified_scanned;
        self.intervals_scanned += other.intervals_scanned;
    }
}

/// The result of a BWM (or RBM) range-query execution.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// Candidate images, in emission order: binary images satisfy the query
    /// exactly; edited images *may* satisfy it (bounds overlap — the RBM
    /// guarantee is no false negatives).
    pub results: Vec<ImageId>,
    /// Work counters.
    pub stats: BwmQueryStats,
}

impl QueryOutcome {
    /// Results as a sorted vector (emission order differs between RBM and
    /// BWM; equality of result *sets* is the correctness criterion).
    pub fn sorted_results(&self) -> Vec<ImageId> {
        let mut v = self.results.clone();
        v.sort_unstable();
        v
    }
}

/// One shard's share of a scattered range query: what its slice added to the
/// [`QueryCtx`], and how long that took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRecord {
    /// Wall time of the slice.
    pub elapsed: Duration,
    /// Candidates the slice emitted.
    pub results: usize,
    /// Full BOUNDS computations the slice executed.
    pub bounds_computed: usize,
    /// Index intervals the slice scanned instead of walking rules.
    pub scanned: usize,
}

/// Everything one range query accumulates while it executes. Execution only
/// *adds* to a context — results, work counters, trace stages — and never
/// touches process-wide telemetry, so any number of slices (one per shard)
/// can share one context and the layer that owns the whole query observes
/// it once, afterwards.
#[derive(Debug, Default)]
pub struct QueryCtx {
    /// Candidate images, in emission order.
    pub results: Vec<ImageId>,
    /// Work counters, summed over every slice.
    pub stats: BwmQueryStats,
    /// When present, each scan phase is timed and recorded as a stage.
    pub trace: Option<QueryTrace>,
    /// One record per shard slice; empty when the query ran as one slice.
    pub shards: Vec<ShardRecord>,
}

impl QueryCtx {
    /// A context that records a per-stage trace rooted at `name`.
    pub fn traced(name: impl Into<String>) -> Self {
        QueryCtx {
            trace: Some(QueryTrace::new(name)),
            ..QueryCtx::default()
        }
    }

    /// Runs `slice` as shard `index`'s share of the query. What the slice
    /// added since `since` (the previous slice's end) becomes one
    /// [`ShardRecord`], and the trace stages it recorded move under a
    /// `shard{index}` stage. Returns the slice's end time.
    pub fn shard_slice<E>(
        &mut self,
        index: usize,
        since: Instant,
        slice: impl FnOnce(&mut Self) -> std::result::Result<(), E>,
    ) -> std::result::Result<Instant, E> {
        let (results, stats) = (self.results.len(), self.stats);
        let stages = self.trace.as_ref().map_or(0, |t| t.root().children.len());
        slice(self)?;
        let now = Instant::now();
        let record = ShardRecord {
            elapsed: now - since,
            results: self.results.len() - results,
            bounds_computed: self.stats.bounds_computed - stats.bounds_computed,
            scanned: self.stats.intervals_scanned - stats.intervals_scanned,
        };
        if let Some(trace) = &mut self.trace {
            trace
                .nest(stages, format!("shard{index}"), record.elapsed)
                .counter("results", record.results as u64)
                .counter("bounds_computed", record.bounds_computed as u64)
                .counter("scanned", record.scanned as u64);
        }
        self.shards.push(record);
        Ok(now)
    }

    /// The results and work counters, dropping the rest.
    pub fn into_outcome(self) -> QueryOutcome {
        QueryOutcome {
            results: self.results,
            stats: self.stats,
        }
    }

    /// The outcome plus the trace of a [`QueryCtx::traced`] context.
    ///
    /// # Panics
    /// Panics when the context was not created with [`QueryCtx::traced`].
    pub fn into_traced_outcome(mut self) -> (QueryOutcome, QueryTrace) {
        let trace = self.trace.take().expect("context was created traced");
        (self.into_outcome(), trace)
    }
}

/// Which of the paper's two methods a scan of Figure 1 runs. They walk the
/// same entries in the same loop and differ only in the shortcut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// §3's Rule-Based Method: every base tested against its exact
    /// histogram, every edited image's BOUNDS computed.
    Rbm,
    /// §4's Figure 2: a cluster whose base satisfies the query is emitted
    /// whole, without touching an operation list.
    Bwm,
}

/// The read-only inputs of one scan. Every id it meets comes from the same
/// consistent state the structure, the resolver and the store read (a
/// shard's catalog and Figure 1 under one lock), so one with no stored
/// sequence is an inconsistency and fails the query. The resolver is asked
/// only while programs compile; a warm scan asks it nothing.
struct Scan<'a, S> {
    query: &'a ColorRangeQuery,
    compiler: Compiler<'a, S>,
}

/// What a scan adds to.
struct Out<'o> {
    results: &'o mut Vec<ImageId>,
    stats: &'o mut BwmQueryStats,
}

/// Runs `method` over a Figure 1 structure, adding candidates and work
/// counters to `ctx`.
///
/// One loop over the Main Component tests each cluster's base against its
/// counts in the structure's columns. Under [`Method::Bwm`] (Figure 2) a base
/// that satisfies the query is emitted with its whole cluster and no
/// operation list is touched; every other clustered image — under
/// [`Method::Rbm`], every one — runs BOUNDS from the block of programs its
/// cluster keeps, compiled whole on first use. The Unclassified Component
/// always runs BOUNDS, each entry from its own program. What it computes
/// depends on the method, the query and the structure alone. A traced context gets one timed stage per component
/// (BWM) or the binary and edited scans of §3 (RBM). Process-wide counters
/// are the business of whoever owns the whole query.
///
/// `resolver` and `store` are one read view of the shard `structure`
/// describes, which holds every image its edited images name. They are read
/// only to compile programs an entry does not hold yet; a name the view
/// cannot resolve then fails the query with
/// [`mmdb_rules::RuleError::UnknownImage`], and nothing is kept.
pub fn execute<S: SequenceStore>(
    method: Method,
    structure: &BwmStructure,
    query: &ColorRangeQuery,
    engine: &RuleEngine<'_>,
    resolver: &dyn InfoResolver,
    store: &S,
    ctx: &mut QueryCtx,
) -> Result<()> {
    let compiler = Compiler {
        store,
        engine,
        resolver,
    };
    let scan = Scan { query, compiler };
    // Slice-local counters, so the stages below report this structure's
    // work even when `ctx` already carries other shards' totals.
    let mut stats = BwmQueryStats::default();
    let mut out = Out {
        results: &mut ctx.results,
        stats: &mut stats,
    };
    let started = Instant::now();
    let base_hits = scan.main(structure, method == Method::Bwm, &mut out)?;
    let main_elapsed = started.elapsed();
    let main_stats = *out.stats;
    scan.unclassified(structure, &mut out)?;
    let clusters = structure.cluster_count();
    if method == Method::Bwm {
        stats.clusters_visited = clusters;
        stats.base_hits = base_hits;
        stats.unclassified_scanned = structure.unclassified_count();
    }
    ctx.stats += stats;

    let Some(trace) = &mut ctx.trace else {
        return Ok(());
    };
    match method {
        Method::Bwm => {
            trace
                .stage("main_component", main_elapsed)
                .counter("clusters_visited", clusters as u64)
                .counter("base_hits", base_hits as u64)
                .counter("shortcut_emissions", main_stats.shortcut_emissions as u64)
                .counter("bounds_computed", main_stats.bounds_computed as u64)
                .counter("ops_processed", main_stats.ops_processed as u64);
            trace
                .stage("unclassified", started.elapsed() - main_elapsed)
                .counter("scanned", stats.unclassified_scanned as u64)
                .counter(
                    "bounds_computed",
                    (stats.bounds_computed - main_stats.bounds_computed) as u64,
                )
                .counter(
                    "ops_processed",
                    (stats.ops_processed - main_stats.ops_processed) as u64,
                );
        }
        // One loop tests each base and walks its cluster, so the two §3
        // stages split the work, not the time: the walk's is on
        // `edited_scan`, beside the rule walks that are nearly all of it.
        Method::Rbm => {
            trace
                .stage("binary_scan", Duration::ZERO)
                .counter("scanned", clusters as u64)
                .counter("hits", base_hits as u64);
            trace
                .stage("edited_scan", started.elapsed())
                .counter("bounds_computed", stats.bounds_computed as u64)
                .counter("ops_processed", stats.ops_processed as u64);
        }
    }
    Ok(())
}

impl BwmQueryStats {
    /// Counts `programs` BOUNDS computations over sequences that hold
    /// `kind_counts` operations of each kind between them.
    fn walked(&mut self, programs: usize, kind_counts: impl IntoIterator<Item = usize>) {
        self.bounds_computed += programs;
        for (slot, n) in self.rule_applications.iter_mut().zip(kind_counts) {
            *slot += n;
            self.ops_processed += n;
        }
    }
}

/// The fraction of a base's `total` pixels that `count` is, as
/// [`mmdb_histogram::ColorHistogram::fraction`] reads it.
fn fraction(count: u64, total: u64) -> f64 {
    match total {
        0 => 0.0,
        total => count as f64 / total as f64,
    }
}

impl<S: SequenceStore> Scan<'_, S> {
    /// Step 4: each element `<B_id, E_list>` of the Main Component, its
    /// base tested against the base's counts in the structure's columns.
    /// Returns how many bases satisfied the query.
    fn main(&self, structure: &BwmStructure, shortcut: bool, out: &mut Out<'_>) -> Result<usize> {
        let query = self.query;
        let column = structure.base_counts(query.bin);
        let clusters = structure.bases.iter().zip(&structure.clusters);
        let mut base_hits = 0;
        for (at, ((&base, cluster), &total)) in clusters.zip(&structure.totals).enumerate() {
            let count = structure.base_count(at, query.bin, column);
            if query.matches_fraction(fraction(count, total)) {
                base_hits += 1;
                out.results.push(base);
                if shortcut {
                    // 4.2: base satisfies → base and every clustered edited
                    // image.
                    out.results.extend_from_slice(&cluster.ids);
                    out.stats.shortcut_emissions += cluster.ids.len();
                    continue;
                }
            }
            if cluster.ids.is_empty() {
                continue;
            }
            // 4.3: the BOUNDS algorithm per edited image, each starting
            // from the base's count in hand.
            let programs = cluster.programs(&self.compiler)?;
            out.stats.walked(cluster.ids.len(), programs.kind_counts);
            for (&edited, program) in cluster.ids.iter().zip(programs.block.iter()) {
                self.test(edited, program, count, out);
            }
        }
        Ok(base_hits)
    }

    /// Step 5: the Unclassified Component.
    fn unclassified(&self, structure: &BwmStructure, out: &mut Out<'_>) -> Result<()> {
        for entry in &structure.unclassified {
            let program = entry.program(&self.compiler)?;
            out.stats
                .walked(1, program.kind_counts().map(|n| n as usize));
            self.test(entry.id, program, entry.base.count(self.query.bin), out);
        }
        Ok(())
    }

    /// Runs BOUNDS for one edited image from its compiled program and its
    /// base's count, and emits it when the range overlaps.
    #[inline]
    fn test(&self, edited: ImageId, program: ProgramRef<'_>, base_count: u64, out: &mut Out<'_>) {
        let query = self.query;
        let bounds = program.eval(query.bin, base_count);
        if !bounds.is_exact() {
            out.stats.bounds_widened += 1;
        }
        if bounds.overlaps_fraction(query.pct_min, query.pct_max) {
            out.results.push(edited);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_editops::EditSequence;
    use mmdb_histogram::{ColorHistogram, Quantizer, RgbQuantizer};
    use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
    use mmdb_rules::{ImageInfo, MapInfoResolver, RuleError, RuleProfile};
    use std::cell::Cell;
    use std::collections::HashMap;
    use std::sync::Arc;

    struct Fixture {
        structure: BwmStructure,
        resolver: MapInfoResolver,
        store: HashMap<ImageId, Arc<EditSequence>>,
        quant: RgbQuantizer,
    }

    /// Two bases: #1 is 50% red, #2 is 10% red. Edited images:
    /// #10 (widening, base 1), #11 (widening, base 2),
    /// #12 (unclassified: merges into base 1).
    fn fixture() -> Fixture {
        let quant = RgbQuantizer::default_64();
        let mut resolver = MapInfoResolver::new();

        let mut img1 = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img1, &Rect::new(0, 0, 10, 5), Rgb::RED);
        resolver.insert(
            ImageId::new(1),
            ImageInfo::new(ColorHistogram::extract(&img1, &quant), 10, 10),
        );

        let mut img2 = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img2, &Rect::new(0, 0, 10, 1), Rgb::RED);
        resolver.insert(
            ImageId::new(2),
            ImageInfo::new(ColorHistogram::extract(&img2, &quant), 10, 10),
        );

        let mut store: HashMap<ImageId, Arc<EditSequence>> = HashMap::new();
        store.insert(
            ImageId::new(10),
            Arc::new(
                EditSequence::builder(ImageId::new(1))
                    .define(Rect::new(0, 0, 3, 3))
                    .blur()
                    .build(),
            ),
        );
        store.insert(
            ImageId::new(11),
            Arc::new(
                EditSequence::builder(ImageId::new(2))
                    .define(Rect::new(0, 0, 2, 2))
                    .modify(Rgb::WHITE, Rgb::RED)
                    .build(),
            ),
        );
        store.insert(
            ImageId::new(12),
            Arc::new(
                EditSequence::builder(ImageId::new(2))
                    .define(Rect::new(0, 0, 4, 4))
                    .merge_into(ImageId::new(1), 0, 0)
                    .build(),
            ),
        );

        let mut structure = BwmStructure::new();
        for base in [1, 2].map(ImageId::new) {
            structure.insert_binary(base, resolver.require(base).unwrap().histogram);
        }
        structure.insert_edited(ImageId::new(10), &store[&ImageId::new(10)]);
        structure.insert_edited(ImageId::new(11), &store[&ImageId::new(11)]);
        structure.insert_edited(ImageId::new(12), &store[&ImageId::new(12)]);
        Fixture {
            structure,
            resolver,
            store,
            quant,
        }
    }

    /// One whole query against the fixture: fresh context in, outcome out.
    fn run_method(
        f: &Fixture,
        method: Method,
        engine: &RuleEngine<'_>,
        q: &ColorRangeQuery,
    ) -> Result<QueryOutcome> {
        let mut ctx = QueryCtx::default();
        let (resolver, store) = (&f.resolver, &f.store);
        execute(method, &f.structure, q, engine, resolver, store, &mut ctx)?;
        Ok(ctx.into_outcome())
    }

    fn run(f: &Fixture, engine: &RuleEngine<'_>, q: &ColorRangeQuery) -> Result<QueryOutcome> {
        run_method(f, Method::Bwm, engine, q)
    }

    #[test]
    fn shortcut_taken_when_base_satisfies() {
        let f = fixture();
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let red = f.quant.bin_of(Rgb::RED);
        // Base 1 is 50% red: query [0.4, 0.6] hits it; base 2 (10%) misses.
        let q = ColorRangeQuery::new(red, 0.4, 0.6);
        let out = run(&f, &engine, &q).unwrap();
        assert!(out.results.contains(&ImageId::new(1)));
        assert!(
            out.results.contains(&ImageId::new(10)),
            "clustered edited emitted"
        );
        assert_eq!(out.stats.base_hits, 1);
        assert_eq!(out.stats.shortcut_emissions, 1);
        // Cluster 2's edited image #11 needed bounds; unclassified #12 too.
        assert_eq!(out.stats.bounds_computed, 2);
        assert_eq!(out.stats.unclassified_scanned, 1);
        // #11: base 10% red, modify adds up to 4% → range [?, 0.14]: cannot
        // reach 0.4 → pruned.
        assert!(!out.results.contains(&ImageId::new(11)));
        // #12 merges a 4x4 region into base 1 (50 red of 100): resulting
        // range includes 0.4..0.6 region? dr_max = 16, t covers: red target
        // 50−16=34 min, max min(50,100−16)+16 → range [0.34, 0.66]: overlaps.
        assert!(out.results.contains(&ImageId::new(12)));
    }

    #[test]
    fn no_base_hit_falls_back_everywhere() {
        let f = fixture();
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let red = f.quant.bin_of(Rgb::RED);
        // 90..100% red: no base satisfies.
        let q = ColorRangeQuery::new(red, 0.9, 1.0);
        let out = run(&f, &engine, &q).unwrap();
        assert_eq!(out.stats.base_hits, 0);
        assert_eq!(out.stats.shortcut_emissions, 0);
        // All three edited images ran BOUNDS.
        assert_eq!(out.stats.bounds_computed, 3);
        assert!(out.results.is_empty(), "{:?}", out.results);
    }

    #[test]
    fn missing_sequence_is_error() {
        let mut f = fixture();
        f.store.remove(&ImageId::new(11));
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let q = ColorRangeQuery::new(0, 0.9, 1.0);
        assert!(matches!(
            run(&f, &engine, &q),
            Err(RuleError::UnknownImage(id)) if id == ImageId::new(11)
        ));
    }

    /// A merge target the view does not hold fails the query: compiling the
    /// program needs the target's dimensions and histogram, and nothing is
    /// kept.
    #[test]
    fn walk_naming_an_image_the_view_does_not_hold_fails_the_query() {
        let f = fixture();
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let q = ColorRangeQuery::new(f.quant.bin_of(Rgb::RED), 0.4, 0.6);
        let (base, pasted, target) = (ImageId::new(2), ImageId::new(12), ImageId::new(1));
        let info = f.resolver.require(base).unwrap();
        let mut structure = BwmStructure::new();
        structure.insert_binary(base, Arc::clone(&info.histogram));
        structure.insert_edited(pasted, &f.store[&pasted]);
        let mut view = MapInfoResolver::new();
        view.insert(base, info);
        let (mut ctx, s) = (QueryCtx::default(), &structure);
        let out = execute(Method::Bwm, s, &q, &engine, &view, &f.store, &mut ctx);
        assert!(matches!(out, Err(RuleError::UnknownImage(id)) if id == target));
        assert!(
            !structure.holds_program(pasted, base),
            "a failed compile is not kept"
        );
    }

    /// A resolver that counts the lookups made through it.
    struct Counting<'a> {
        inner: &'a MapInfoResolver,
        calls: Cell<usize>,
    }

    impl InfoResolver for Counting<'_> {
        fn info(&self, id: ImageId) -> Option<ImageInfo> {
            self.calls.set(self.calls.get() + 1);
            self.inner.info(id)
        }
    }

    /// Only compiling asks the resolver anything. Once every entry holds its
    /// program — the Unclassified image's included, with its merge target's
    /// histogram — a BWM scan and an RBM scan make no lookup and answer as
    /// the first scan did.
    #[test]
    fn a_warm_scan_resolves_nothing() {
        let f = fixture();
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let resolver = Counting {
            inner: &f.resolver,
            calls: Cell::new(0),
        };
        let scan = |method, q: &ColorRangeQuery| {
            let mut ctx = QueryCtx::default();
            let (structure, store) = (&f.structure, &f.store);
            execute(method, structure, q, &engine, &resolver, store, &mut ctx).unwrap();
            ctx.into_outcome()
        };
        let red = f.quant.bin_of(Rgb::RED);
        // No base satisfies [0.9, 1.0]: every edited image compiles.
        let cold = scan(Method::Bwm, &ColorRangeQuery::new(red, 0.9, 1.0));
        assert_eq!(cold.stats.bounds_computed, 3);
        assert!(resolver.calls.get() > 0, "compiling resolves");
        for (lo, hi) in [(0.9, 1.0), (0.3, 0.7)] {
            let q = ColorRangeQuery::new(red, lo, hi);
            let expected = run(&f, &engine, &q).unwrap();
            resolver.calls.set(0);
            let bwm = scan(Method::Bwm, &q);
            let rbm = scan(Method::Rbm, &q);
            assert_eq!(resolver.calls.get(), 0, "[{lo}, {hi}]");
            assert_eq!(bwm.results, expected.results, "[{lo}, {hi}]");
            assert_eq!(bwm.stats, expected.stats, "[{lo}, {hi}]");
            assert_eq!(
                rbm.sorted_results(),
                expected.sorted_results(),
                "[{lo}, {hi}]"
            );
        }
    }

    /// RBM walks the same entries with the shortcut off: every base tested,
    /// every edited image bounded, and the same answers as Figure 2.
    #[test]
    fn rbm_walks_every_entry_without_the_shortcut() {
        let f = fixture();
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let red = f.quant.bin_of(Rgb::RED);
        for (lo, hi) in [(0.4, 0.6), (0.0, 1.0), (0.9, 1.0)] {
            let q = ColorRangeQuery::new(red, lo, hi);
            let rbm = run_method(&f, Method::Rbm, &engine, &q).unwrap();
            let bwm = run(&f, &engine, &q).unwrap();
            assert_eq!(rbm.sorted_results(), bwm.sorted_results(), "[{lo}, {hi}]");
            assert_eq!(rbm.stats.bounds_computed, 3);
            assert_eq!(rbm.stats.ops_processed, 6);
            let figure_2_only = (
                rbm.stats.clusters_visited,
                rbm.stats.base_hits,
                rbm.stats.shortcut_emissions,
                rbm.stats.unclassified_scanned,
            );
            assert_eq!(figure_2_only, (0, 0, 0, 0));
        }
    }

    #[test]
    fn stats_track_ops() {
        let f = fixture();
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let q = ColorRangeQuery::new(f.quant.bin_of(Rgb::RED), 0.9, 1.0);
        let out = run(&f, &engine, &q).unwrap();
        // #10 has 2 ops, #11 has 2 ops, #12 has 2 ops.
        assert_eq!(out.stats.ops_processed, 6);
        assert_eq!(out.stats.clusters_visited, 2);
    }

    /// Execution leaves the process-wide registry alone: the work of a walk
    /// is in the returned stats, and whoever owns the whole query exports
    /// them (`mmdb_query::executor::observed`; the exact deltas are checked
    /// in `crates/mmdbms/tests/observe_once.rs`).
    #[test]
    fn counters_reach_the_registry_only_when_flushed() {
        let f = fixture();
        let engine = RuleEngine::new(&f.quant, RuleProfile::Conservative);
        let q = ColorRangeQuery::new(f.quant.bin_of(Rgb::RED), 0.9, 1.0);
        let work_series = || {
            let snapshot = mmdb_telemetry::global().snapshot();
            [
                "mmdb_bwm_queries_total",
                "mmdb_bwm_bounds_widened_total",
                "mmdb_bwm_ops_processed_total",
                "mmdb_rules_bounds_computed_total",
                r#"mmdb_rules_applications_total{op="define"}"#,
                r#"mmdb_rules_widening_ops_total{profile="conservative"}"#,
            ]
            .map(|name| snapshot.get(name))
        };
        let before = work_series();
        let out = run(&f, &engine, &q).unwrap();
        assert!(
            out.stats.bounds_widened > 0,
            "fixture must widen some bound"
        );
        assert_eq!(
            out.stats.rule_applications.iter().sum::<usize>(),
            out.stats.ops_processed
        );
        assert!(
            out.stats.rule_applications[0] > 0,
            "fixture defines regions"
        );
        assert_eq!(work_series(), before, "execute must not observe the query");
    }

    #[test]
    fn outcome_sorting() {
        let out = QueryOutcome {
            results: vec![ImageId::new(5), ImageId::new(1), ImageId::new(3)],
            stats: BwmQueryStats::default(),
        };
        assert_eq!(
            out.sorted_results(),
            vec![ImageId::new(1), ImageId::new(3), ImageId::new(5)]
        );
    }
}
