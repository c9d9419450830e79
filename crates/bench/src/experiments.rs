//! Experiment implementations — one function per paper artifact (see
//! DESIGN.md's experiment index).

use mmdb_datagen::{Collection, DatasetBuilder, DatasetInfo, QueryGenerator, VariantConfig};
use mmdb_query::executor::build_index;
use mmdb_query::QueryProcessor;
use mmdb_rules::RuleProfile;
use mmdb_storage::StorageEngine;
use mmdb_telemetry::{HistogramSnapshot, Snapshot};

/// Which figure of the paper a sweep reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Figure 3: the helmet data set.
    Fig3Helmet,
    /// Figure 4: the flag data set.
    Fig4Flag,
}

impl Figure {
    /// The collection behind the figure.
    pub fn collection(self) -> Collection {
        match self {
            Figure::Fig3Helmet => Collection::Helmets,
            Figure::Fig4Flag => Collection::Flags,
        }
    }

    /// Paper-reported average reduction of BWM over RBM (§5).
    pub fn paper_reduction_pct(self) -> f64 {
        match self {
            Figure::Fig3Helmet => 33.07,
            Figure::Fig4Flag => 22.08,
        }
    }
}

fn palette_of(collection: Collection) -> &'static [mmdb_imaging::Rgb] {
    match collection {
        Collection::Flags => &mmdb_datagen::palette::FLAG_COLORS,
        Collection::Helmets => &mmdb_datagen::palette::TEAM_COLORS,
    }
}

/// Shared sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Total images in the database (binary + edited), fixed across the
    /// sweep.
    pub total_images: usize,
    /// The x-axis: fraction of images stored as editing operations.
    pub pcts: Vec<f64>,
    /// Range queries per batch.
    pub queries: usize,
    /// Timed passes over the batch.
    pub repeats: usize,
    /// Master seed.
    pub seed: u64,
    /// Fixed pool of bound-widening-only edited images (see the crate docs
    /// for why the pool is fixed while the sweep grows).
    pub bw_pool: usize,
    /// `(min, max)` operations per variant.
    pub variant_ops: (usize, usize),
}

impl SweepConfig {
    /// Full-scale configuration (≈ minutes of wall time).
    pub fn default_paper() -> Self {
        SweepConfig {
            total_images: 600,
            pcts: (1..=9).map(|i| i as f64 / 10.0).collect(),
            queries: 40,
            repeats: 9,
            seed: 42,
            bw_pool: 54, // 0.9 × (600 × 10%): the mix at the lowest point
            // Table 2's ops-per-image value was lost in the text extraction;
            // 8–20 models a realistic editing session (each user action is a
            // Define + one effect operation).
            variant_ops: (8, 20),
        }
    }

    /// Reduced configuration for smoke tests.
    pub fn fast() -> Self {
        SweepConfig {
            total_images: 120,
            pcts: vec![0.2, 0.5, 0.8],
            queries: 10,
            repeats: 2,
            seed: 42,
            bw_pool: 18,
            variant_ops: (3, 6),
        }
    }
}

/// p50/p95/p99 latency estimates (milliseconds) extracted from one plan's
/// telemetry histogram over a timed window.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyPercentiles {
    /// Median, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

impl LatencyPercentiles {
    /// Extracts percentiles from a histogram-snapshot window (zeros when the
    /// window holds no observations).
    pub fn from_window(window: &HistogramSnapshot) -> Self {
        let ms = |d: Option<std::time::Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e3);
        LatencyPercentiles {
            p50_ms: ms(window.quantile(0.50)),
            p95_ms: ms(window.quantile(0.95)),
            p99_ms: ms(window.quantile(0.99)),
        }
    }
}

/// One x-axis point of Figure 3/4.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Fraction of images stored as editing operations.
    pub pct: f64,
    /// Binary image count at this point.
    pub binary: usize,
    /// Edited image count at this point.
    pub edited: usize,
    /// Edited images with only bound-widening operations.
    pub bw_only: usize,
    /// Edited images with a non-bound-widening operation.
    pub nbw: usize,
    /// Mean RBM time per query (ms) — "without data structure".
    pub rbm_ms: f64,
    /// Mean BWM time per query (ms) — "with data structure".
    pub bwm_ms: f64,
    /// `100 × (rbm − bwm) / rbm`.
    pub reduction_pct: f64,
    /// Fraction of Main-Component clusters whose base satisfied the query
    /// (averaged over the batch).
    pub base_hit_rate: f64,
    /// Mean BOUNDS computations per query under RBM (deterministic work
    /// counter; equals the edited-image count).
    pub rbm_bounds_per_query: f64,
    /// Mean BOUNDS computations per query under BWM (what the shortcut
    /// saves).
    pub bwm_bounds_per_query: f64,
    /// Mean indexed-plan time per query (ms) — bound-interval index lookup.
    pub indexed_ms: f64,
    /// `bwm_ms / indexed_ms`: how many times faster the index answers the
    /// same queries than the scan-based BWM.
    pub indexed_speedup_vs_bwm: f64,
    /// Whether RBM, BWM, and the indexed plan returned identical result sets
    /// on every query.
    pub results_equal: bool,
    /// RBM latency percentiles over the timed passes, from the telemetry
    /// histogram delta (not best-of: all timed passes contribute).
    pub rbm_latency: LatencyPercentiles,
    /// BWM latency percentiles over the timed passes.
    pub bwm_latency: LatencyPercentiles,
    /// Indexed-plan latency percentiles over the timed passes.
    pub indexed_latency: LatencyPercentiles,
    /// Telemetry registry deltas over the timed passes (warm-up excluded):
    /// what the global counters attribute to this sweep point. Keyed by
    /// series name exactly as the live registry exposes them.
    pub metrics: Snapshot,
}

impl SweepPoint {
    /// `100 × (rbm − bwm) / rbm` over BOUNDS computations per query: the
    /// rule walks the structure saved — the paper's claim as a counter,
    /// which the time saved should track.
    pub fn work_saved_pct(&self) -> f64 {
        if self.rbm_bounds_per_query > 0.0 {
            100.0 * (self.rbm_bounds_per_query - self.bwm_bounds_per_query)
                / self.rbm_bounds_per_query
        } else {
            0.0
        }
    }

    /// CSV row (matches [`SWEEP_HEADERS`]).
    pub fn csv_row(&self) -> Vec<String> {
        vec![
            format!("{:.0}", self.pct * 100.0),
            self.binary.to_string(),
            self.edited.to_string(),
            self.bw_only.to_string(),
            self.nbw.to_string(),
            format!("{:.4}", self.rbm_ms),
            format!("{:.4}", self.bwm_ms),
            format!("{:.2}", self.reduction_pct),
            format!("{:.3}", self.base_hit_rate),
            self.results_equal.to_string(),
            format!("{:.4}", self.rbm_latency.p50_ms),
            format!("{:.4}", self.rbm_latency.p95_ms),
            format!("{:.4}", self.rbm_latency.p99_ms),
            format!("{:.4}", self.bwm_latency.p50_ms),
            format!("{:.4}", self.bwm_latency.p95_ms),
            format!("{:.4}", self.bwm_latency.p99_ms),
            format!("{:.4}", self.indexed_ms),
            format!("{:.2}", self.indexed_speedup_vs_bwm),
            format!("{:.4}", self.indexed_latency.p50_ms),
            format!("{:.4}", self.indexed_latency.p95_ms),
            format!("{:.4}", self.indexed_latency.p99_ms),
            format!("{:.2}", self.rbm_bounds_per_query),
            format!("{:.2}", self.bwm_bounds_per_query),
            format!("{:.2}", self.work_saved_pct()),
        ]
    }

    /// Metrics-snapshot CSV row (matches [`METRICS_HEADERS`]): the key
    /// per-point counter deltas, one column per series of interest.
    pub fn metrics_csv_row(&self) -> Vec<String> {
        let m = &self.metrics;
        let widening = m.get(r#"mmdb_rules_widening_ops_total{profile="paper_table1"}"#)
            + m.get(r#"mmdb_rules_widening_ops_total{profile="conservative"}"#);
        vec![
            format!("{:.0}", self.pct * 100.0),
            m.get("mmdb_rules_bounds_computed_total").to_string(),
            widening.to_string(),
            m.get("mmdb_bwm_clusters_visited_total").to_string(),
            m.get("mmdb_bwm_base_hits_total").to_string(),
            m.get("mmdb_bwm_shortcut_emissions_total").to_string(),
            m.get("mmdb_bwm_ops_processed_total").to_string(),
            m.get(r#"mmdb_bwm_scans_total{component="unclassified"}"#)
                .to_string(),
            m.get("mmdb_storage_instantiations_total").to_string(),
            m.get("mmdb_storage_cache_hits_total").to_string(),
            m.get("mmdb_storage_cache_misses_total").to_string(),
            m.get(r#"mmdb_query_range_latency_seconds{plan="rbm"}_sum_nanos"#)
                .to_string(),
            m.get(r#"mmdb_query_range_latency_seconds{plan="bwm"}_sum_nanos"#)
                .to_string(),
            m.get("mmdb_boundidx_hits_total").to_string(),
            m.get("mmdb_boundidx_misses_total").to_string(),
            m.get(r#"mmdb_query_range_latency_seconds{plan="indexed"}_sum_nanos"#)
                .to_string(),
        ]
    }
}

/// CSV headers for the per-point metrics-snapshot file written next to each
/// figure's timing CSV (`<figure>.metrics.csv`).
pub const METRICS_HEADERS: [&str; 16] = [
    "pct_edited",
    "rules_bounds_computed",
    "rules_widening_ops",
    "bwm_clusters_visited",
    "bwm_base_hits",
    "bwm_shortcut_emissions",
    "bwm_ops_processed",
    "bwm_scans_unclassified",
    "storage_instantiations",
    "storage_cache_hits",
    "storage_cache_misses",
    "rbm_latency_sum_nanos",
    "bwm_latency_sum_nanos",
    "boundidx_hits",
    "boundidx_misses",
    "indexed_latency_sum_nanos",
];

/// CSV headers for sweep outputs.
pub const SWEEP_HEADERS: [&str; 24] = [
    "pct_edited",
    "binary_images",
    "edited_images",
    "bw_only",
    "non_bw",
    "rbm_ms_per_query",
    "bwm_ms_per_query",
    "reduction_pct",
    "base_hit_rate",
    "results_equal",
    "rbm_p50_ms",
    "rbm_p95_ms",
    "rbm_p99_ms",
    "bwm_p50_ms",
    "bwm_p95_ms",
    "bwm_p99_ms",
    "indexed_ms_per_query",
    "indexed_speedup_vs_bwm",
    "indexed_p50_ms",
    "indexed_p95_ms",
    "indexed_p99_ms",
    "rbm_bounds_per_query",
    "bwm_bounds_per_query",
    "work_saved_pct",
];

fn build_dataset(
    collection: Collection,
    total: usize,
    pct: f64,
    seed: u64,
    variant_ops: (usize, usize),
    p_merge: f64,
) -> (StorageEngine, DatasetInfo) {
    DatasetBuilder::new(collection)
        .total_images(total)
        .pct_edited(pct)
        .seed(seed)
        .variant_config(VariantConfig {
            min_ops: variant_ops.0,
            max_ops: variant_ops.1,
            p_merge_target: p_merge,
        })
        .build()
}

fn measure_point(
    collection: Collection,
    cfg: &SweepConfig,
    pct: f64,
    p_merge: f64,
    query_thresholds: Option<(f64, f64)>,
) -> SweepPoint {
    let (db, info) = build_dataset(
        collection,
        cfg.total_images,
        pct,
        cfg.seed,
        cfg.variant_ops,
        p_merge,
    );
    let qp = QueryProcessor::new(&db);
    // The view drops at the end of the statement, before the first query.
    let index = build_index(&db, &db.read_view()).expect("bound index build");
    // Mass-weighted colors with modest thresholds: the paper's users query
    // for colors the collection actually contains.
    let mut qgen = QueryGenerator::weighted_from_db(cfg.seed ^ 0xBEEF, &db)
        .thresholds(0.02, 0.15)
        .two_sided_probability(0.0);
    if let Some((lo, hi)) = query_thresholds {
        qgen = qgen.thresholds(lo, hi);
    }
    let queries = qgen.batch(cfg.queries);

    // Warm all code paths (page-in, allocator, CPU frequency) before any
    // timing, then measure with interleaved best-of passes so machine drift
    // hits every method equally.
    for q in &queries {
        std::hint::black_box(qp.range_rbm(q).unwrap());
        std::hint::black_box(qp.range_bwm(q).unwrap());
        std::hint::black_box(qp.range_indexed_with(&index, q).unwrap());
    }
    let g = mmdb_telemetry::global();
    let rbm_hist = g.histogram(r#"mmdb_query_range_latency_seconds{plan="rbm"}"#);
    let bwm_hist = g.histogram(r#"mmdb_query_range_latency_seconds{plan="bwm"}"#);
    let idx_hist = g.histogram(r#"mmdb_query_range_latency_seconds{plan="indexed"}"#);
    let (rbm_before, bwm_before, idx_before) = (
        rbm_hist.snapshot(),
        bwm_hist.snapshot(),
        idx_hist.snapshot(),
    );
    let telemetry_before = g.snapshot();
    let [(rbm_ms, rbm_out), (bwm_ms, bwm_out), (indexed_ms, idx_out)] =
        crate::timing::time_interleaved(
            &queries,
            cfg.repeats,
            [
                &mut |q| qp.range_rbm(q).unwrap(),
                &mut |q| qp.range_bwm(q).unwrap(),
                &mut |q| qp.range_indexed_with(&index, q).unwrap(),
            ],
        );
    let metrics = g.snapshot().delta(&telemetry_before);
    let rbm_latency = LatencyPercentiles::from_window(&rbm_hist.snapshot().diff(&rbm_before));
    let bwm_latency = LatencyPercentiles::from_window(&bwm_hist.snapshot().diff(&bwm_before));
    let indexed_latency = LatencyPercentiles::from_window(&idx_hist.snapshot().diff(&idx_before));

    let results_equal = rbm_out
        .iter()
        .zip(&bwm_out)
        .zip(&idx_out)
        .all(|((a, b), c)| {
            let rbm = a.sorted_results();
            rbm == b.sorted_results() && rbm == c.sorted_results()
        });
    let (hits, clusters) = bwm_out.iter().fold((0usize, 0usize), |(h, c), o| {
        (h + o.stats.base_hits, c + o.stats.clusters_visited)
    });
    let base_hit_rate = if clusters == 0 {
        0.0
    } else {
        hits as f64 / clusters as f64
    };
    let rbm_bounds_per_query = rbm_out
        .iter()
        .map(|o| o.stats.bounds_computed)
        .sum::<usize>() as f64
        / rbm_out.len() as f64;
    let bwm_bounds_per_query = bwm_out
        .iter()
        .map(|o| o.stats.bounds_computed)
        .sum::<usize>() as f64
        / bwm_out.len() as f64;
    SweepPoint {
        pct,
        binary: info.binary_images,
        edited: info.edited_images,
        bw_only: info.bound_widening_only,
        nbw: info.non_bound_widening,
        rbm_ms,
        bwm_ms,
        reduction_pct: 100.0 * (rbm_ms - bwm_ms) / rbm_ms,
        base_hit_rate,
        rbm_bounds_per_query,
        bwm_bounds_per_query,
        indexed_ms,
        indexed_speedup_vs_bwm: if indexed_ms > 0.0 {
            bwm_ms / indexed_ms
        } else {
            0.0
        },
        results_equal,
        rbm_latency,
        bwm_latency,
        indexed_latency,
        metrics,
    }
}

/// Result of the instrumentation-overhead experiment (`repro overhead`).
#[derive(Clone, Debug)]
pub struct OverheadReport {
    /// Mean BWM ms/query with histograms and the flight recorder live.
    pub enabled_ms: f64,
    /// Mean BWM ms/query with instrumentation gated off.
    pub disabled_ms: f64,
}

impl OverheadReport {
    /// `100 × (enabled − disabled) / disabled` — what the always-on
    /// observability costs the BWM hot path. The acceptance bar is < 5%.
    pub fn overhead_pct(&self) -> f64 {
        if self.disabled_ms <= 0.0 {
            0.0
        } else {
            100.0 * (self.enabled_ms - self.disabled_ms) / self.disabled_ms
        }
    }
}

/// Measures the cost of the always-on instrumentation on the BWM hot path:
/// interleaved best-of passes over the same batch with the histogram +
/// flight-recorder gate enabled (arm A) vs. off (arm B), so machine drift
/// hits both arms equally. The gate is flipped per call — an atomic store
/// both arms pay identically.
pub fn overhead_experiment(collection: Collection, cfg: &SweepConfig) -> OverheadReport {
    let (db, _info) = build_dataset(
        collection,
        cfg.total_images,
        0.8,
        cfg.seed,
        cfg.variant_ops,
        0.25,
    );
    let qp = QueryProcessor::new(&db);
    // The effect under measurement is sub-microsecond per query, so this
    // experiment needs a bigger batch and more best-of passes than the
    // figure sweeps to keep scheduler noise from swamping it.
    let queries = QueryGenerator::weighted_from_db(cfg.seed ^ 0x0B5E, &db)
        .thresholds(0.02, 0.15)
        .two_sided_probability(0.0)
        .batch(cfg.queries.max(60));
    let [(enabled_ms, _), (disabled_ms, _)] = crate::timing::time_interleaved(
        &queries,
        cfg.repeats.max(15),
        [
            &mut |q| {
                mmdb_telemetry::set_instrumentation(true);
                qp.range_bwm(q).unwrap()
            },
            &mut |q| {
                mmdb_telemetry::set_instrumentation(false);
                qp.range_bwm(q).unwrap()
            },
        ],
    );
    mmdb_telemetry::set_instrumentation(true);
    OverheadReport {
        enabled_ms,
        disabled_ms,
    }
}

/// Figures 3 and 4: execution time vs. percentage of images stored as
/// editing operations, RBM ("w/out data structure") vs. BWM ("with data
/// structure").
pub fn figure_sweep(figure: Figure, cfg: &SweepConfig) -> Vec<SweepPoint> {
    let collection = figure.collection();
    cfg.pcts
        .iter()
        .map(|&pct| {
            let n_edit = (cfg.total_images as f64 * pct).round().max(1.0);
            // Fixed bound-widening pool: the extra edited images of higher
            // sweep points all carry a non-bound-widening Merge.
            let p_merge = (1.0 - cfg.bw_pool as f64 / n_edit).clamp(0.0, 1.0);
            measure_point(collection, cfg, pct, p_merge, None)
        })
        .collect()
}

/// Sweep variant with a **constant** non-bound-widening share at every
/// point, instead of the fixed bound-widening pool of [`figure_sweep`].
/// Under a constant mix the BWM advantage *grows* with the edited share
/// (more of the query's work is edited-image bounds that the shortcut can
/// skip) — contrasting with the paper's reported decreasing trend, which is
/// what motivates the fixed-pool reading of their sweep (see EXPERIMENTS.md).
pub fn figure_sweep_constant_mix(
    figure: Figure,
    cfg: &SweepConfig,
    p_merge: f64,
) -> Vec<SweepPoint> {
    let collection = figure.collection();
    cfg.pcts
        .iter()
        .map(|&pct| measure_point(collection, cfg, pct, p_merge, None))
        .collect()
}

/// One point of the k-NN pruning experiment (A6 — the paper's §6
/// nearest-neighbour future work).
#[derive(Clone, Debug)]
pub struct KnnPoint {
    /// Neighbours requested.
    pub k: usize,
    /// Fraction of edited images pruned without instantiation.
    pub pruned_frac: f64,
    /// Mean time per probe, bounds-pruned search (ms, cold caches).
    pub fast_ms: f64,
    /// Mean time per probe, brute force (ms, cold caches).
    pub brute_ms: f64,
    /// Result sets agreed with brute force.
    pub exact: bool,
}

/// A6: bounds-pruned k-NN over the augmented database vs. brute-force
/// instantiation. Both run against freshly built (cold-cache) databases of
/// the same seed so neither benefits from the other's instantiation work.
pub fn knn_experiment(collection: Collection, cfg: &SweepConfig, ks: &[usize]) -> Vec<KnnPoint> {
    use mmdb_histogram::ColorHistogram;
    ks.iter()
        .map(|&k| {
            let build = || {
                build_dataset(
                    collection,
                    cfg.total_images,
                    0.8,
                    cfg.seed,
                    cfg.variant_ops,
                    0.25,
                )
                .0
            };
            let db_fast = build();
            let db_brute = build();
            // Probes: a handful of binary rasters' histograms — queries that
            // resemble the collection, as a user's example image would.
            let probe_ids: Vec<_> = db_fast.binary_ids().into_iter().take(6).collect();
            let probes: Vec<ColorHistogram> = probe_ids
                .iter()
                .map(|&id| {
                    let raster = db_fast.raster(id).unwrap();
                    ColorHistogram::extract(&raster, db_fast.quantizer())
                })
                .collect();

            let t = std::time::Instant::now();
            let fast: Vec<_> = probes
                .iter()
                .map(|p| mmdb_query::knn_augmented(&db_fast, p, k).unwrap())
                .collect();
            let fast_ms = t.elapsed().as_secs_f64() * 1e3 / probes.len() as f64;

            let t = std::time::Instant::now();
            let brute: Vec<_> = probes
                .iter()
                .map(|p| mmdb_query::knn_brute_force(&db_brute, p, k).unwrap())
                .collect();
            let brute_ms = t.elapsed().as_secs_f64() * 1e3 / probes.len() as f64;

            let exact = fast.iter().zip(&brute).all(|(f, b)| {
                f.neighbours.len() == b.len()
                    && f.neighbours
                        .iter()
                        .zip(b)
                        .all(|(x, y)| (x.0 - y.0).abs() < 1e-9)
            });
            let (pruned, total) = fast.iter().fold((0usize, 0usize), |(p, t), o| {
                (
                    p + o.stats.edited_pruned,
                    t + o.stats.edited_pruned + o.stats.edited_instantiated,
                )
            });
            KnnPoint {
                k,
                pruned_frac: if total == 0 {
                    0.0
                } else {
                    pruned as f64 / total as f64
                },
                fast_ms,
                brute_ms,
                exact,
            }
        })
        .collect()
}

/// One point of the quantizer-granularity ablation (A7): how the
/// "system-dependent number of divisions" (§3.1) trades filter precision
/// against query time.
#[derive(Clone, Debug)]
pub struct BinsPoint {
    /// Per-channel divisions (bins = d³).
    pub divisions: u32,
    /// Total histogram bins.
    pub bins: usize,
    /// Candidates returned by RBM over the batch.
    pub candidates: usize,
    /// Ground-truth matches over the batch.
    pub truth: usize,
    /// Candidate precision (`truth / candidates`; 1.0 = perfect filter).
    pub precision: f64,
    /// Mean RBM ms/query.
    pub rbm_ms: f64,
}

/// A7: sweep the RGB quantizer granularity.
pub fn bins_ablation(
    collection: Collection,
    cfg: &SweepConfig,
    divisions: &[u32],
) -> Vec<BinsPoint> {
    divisions
        .iter()
        .map(|&d| {
            let (db, _info) = DatasetBuilder::new(collection)
                .total_images(cfg.total_images)
                .pct_edited(0.8)
                .seed(cfg.seed)
                .quantizer_divisions(d)
                .variant_config(VariantConfig {
                    min_ops: cfg.variant_ops.0,
                    max_ops: cfg.variant_ops.1,
                    p_merge_target: 0.25,
                })
                .build();
            let qp = QueryProcessor::new(&db);
            let queries = QueryGenerator::weighted_from_db(cfg.seed ^ 0xB145, &db)
                .thresholds(0.02, 0.15)
                .two_sided_probability(0.0)
                .batch(cfg.queries.min(12));
            let mut candidates = 0usize;
            let mut truth = 0usize;
            let [(rbm_ms, outs)] = crate::timing::time_interleaved(
                &queries,
                cfg.repeats,
                [&mut |q| qp.range_rbm(q).unwrap()],
            );
            for (q, out) in queries.iter().zip(&outs) {
                candidates += out.results.len();
                truth += qp.range_instantiate(q).unwrap().results.len();
            }
            BinsPoint {
                divisions: d,
                bins: (d * d * d) as usize,
                candidates,
                truth,
                precision: if candidates == 0 {
                    1.0
                } else {
                    truth as f64 / candidates as f64
                },
                rbm_ms,
            }
        })
        .collect()
}

/// The §5 headline numbers: average reduction per figure plus the trend
/// (reduction at the first vs. last sweep point).
#[derive(Clone, Debug)]
pub struct HeadlineReport {
    /// Which figure.
    pub figure: Figure,
    /// Mean reduction over the sweep (percent).
    pub avg_reduction_pct: f64,
    /// Reduction at the lowest percentage point.
    pub first_reduction_pct: f64,
    /// Reduction at the highest percentage point.
    pub last_reduction_pct: f64,
    /// The underlying sweep.
    pub points: Vec<SweepPoint>,
}

/// Computes [`HeadlineReport`]s for both figures.
pub fn headline(cfg: &SweepConfig) -> Vec<HeadlineReport> {
    [Figure::Fig3Helmet, Figure::Fig4Flag]
        .into_iter()
        .map(|figure| {
            let points = figure_sweep(figure, cfg);
            let avg = points.iter().map(|p| p.reduction_pct).sum::<f64>() / points.len() as f64;
            HeadlineReport {
                figure,
                avg_reduction_pct: avg,
                first_reduction_pct: points.first().map_or(0.0, |p| p.reduction_pct),
                last_reduction_pct: points.last().map_or(0.0, |p| p.reduction_pct),
                points,
            }
        })
        .collect()
}

/// Table 2 analog: the generated dataset's actual parameters under the
/// sweep's default configuration (80% of images stored as editing
/// operations, the variant mix the figure sweeps use at that point).
pub fn table2(collection: Collection, seed: u64) -> DatasetInfo {
    let cfg = SweepConfig::default_paper();
    let n_edit = (cfg.total_images as f64 * 0.8).round();
    let p_merge = (1.0 - cfg.bw_pool as f64 / n_edit).clamp(0.0, 1.0);
    let (_, info) = build_dataset(
        collection,
        cfg.total_images,
        0.8,
        seed,
        cfg.variant_ops,
        p_merge,
    );
    info
}

/// One point of the non-bound-widening-share ablation (A1).
#[derive(Clone, Debug)]
pub struct NbwPoint {
    /// Probability that a variant contains a `Merge` with target.
    pub p_merge: f64,
    /// Observed non-bound-widening share of the edited images.
    pub observed_nbw_share: f64,
    /// Mean RBM ms/query.
    pub rbm_ms: f64,
    /// Mean BWM ms/query.
    pub bwm_ms: f64,
    /// Reduction percent.
    pub reduction_pct: f64,
    /// Mean BOUNDS computations per query, RBM.
    pub rbm_bounds_per_query: f64,
    /// Mean BOUNDS computations per query, BWM.
    pub bwm_bounds_per_query: f64,
}

/// A1: BWM's advantage as a direct function of the non-bound-widening share
/// — the mechanism behind the Figure 3/4 trend.
pub fn nbw_ablation(collection: Collection, cfg: &SweepConfig, shares: &[f64]) -> Vec<NbwPoint> {
    shares
        .iter()
        .map(|&p_merge| {
            let point = measure_point(collection, cfg, 0.8, p_merge, None);
            NbwPoint {
                p_merge,
                observed_nbw_share: point.nbw as f64 / point.edited.max(1) as f64,
                rbm_ms: point.rbm_ms,
                bwm_ms: point.bwm_ms,
                reduction_pct: point.reduction_pct,
                rbm_bounds_per_query: point.rbm_bounds_per_query,
                bwm_bounds_per_query: point.bwm_bounds_per_query,
            }
        })
        .collect()
}

/// One point of the base-hit-selectivity ablation (A2).
#[derive(Clone, Debug)]
pub struct SelectivityPoint {
    /// One-sided query threshold ("at least X").
    pub threshold: f64,
    /// Observed fraction of clusters whose base satisfied the query.
    pub base_hit_rate: f64,
    /// Mean RBM ms/query.
    pub rbm_ms: f64,
    /// Mean BWM ms/query.
    pub bwm_ms: f64,
    /// Reduction percent.
    pub reduction_pct: f64,
}

/// A2: BWM's advantage as a function of query selectivity. The shortcut
/// only fires when a cluster's base satisfies the query, so tight (high
/// threshold) queries erode the gain.
pub fn selectivity_ablation(
    collection: Collection,
    cfg: &SweepConfig,
    thresholds: &[f64],
) -> Vec<SelectivityPoint> {
    thresholds
        .iter()
        .map(|&t| {
            let point = measure_point(collection, cfg, 0.8, 0.25, Some((t, t)));
            SelectivityPoint {
                threshold: t,
                base_hit_rate: point.base_hit_rate,
                rbm_ms: point.rbm_ms,
                bwm_ms: point.bwm_ms,
                reduction_pct: point.reduction_pct,
            }
        })
        .collect()
}

/// A3: rule-profile comparison (literal Table 1 vs. conservative).
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Candidate count over the batch, conservative profile.
    pub candidates_conservative: usize,
    /// Candidate count over the batch, literal profile.
    pub candidates_literal: usize,
    /// Ground-truth match count (instantiate plan).
    pub truth_matches: usize,
    /// False negatives of the conservative profile (must be 0 — the
    /// soundness guarantee).
    pub false_negatives_conservative: usize,
    /// False negatives of the literal profile (may be non-zero: the scraped
    /// Combine row is unsound for real blurs).
    pub false_negatives_literal: usize,
    /// Mean fraction-interval width over edited images × queries,
    /// conservative.
    pub avg_width_conservative: f64,
    /// Mean fraction-interval width, literal.
    pub avg_width_literal: f64,
}

/// Runs the profile ablation on a default dataset.
pub fn profile_ablation(collection: Collection, cfg: &SweepConfig) -> ProfileReport {
    let (db, info) = build_dataset(
        collection,
        cfg.total_images,
        0.8,
        cfg.seed,
        cfg.variant_ops,
        0.25,
    );
    let mut qgen = QueryGenerator::new(cfg.seed ^ 0xF00D, palette_of(collection), db.quantizer());
    let queries = qgen.batch(cfg.queries);

    let truth = QueryProcessor::new(&db);
    let cons = QueryProcessor::with_profile(&db, RuleProfile::Conservative);
    let lit = QueryProcessor::with_profile(&db, RuleProfile::PaperTable1);

    let mut report = ProfileReport {
        candidates_conservative: 0,
        candidates_literal: 0,
        truth_matches: 0,
        false_negatives_conservative: 0,
        false_negatives_literal: 0,
        avg_width_conservative: 0.0,
        avg_width_literal: 0.0,
    };
    for q in &queries {
        let truth_hits = truth.range_instantiate(q).unwrap().sorted_results();
        let cons_hits = cons.range_rbm(q).unwrap().sorted_results();
        let lit_hits = lit.range_rbm(q).unwrap().sorted_results();
        report.truth_matches += truth_hits.len();
        report.candidates_conservative += cons_hits.len();
        report.candidates_literal += lit_hits.len();
        report.false_negatives_conservative += truth_hits
            .iter()
            .filter(|id| !cons_hits.contains(id))
            .count();
        report.false_negatives_literal += truth_hits
            .iter()
            .filter(|id| !lit_hits.contains(id))
            .count();
    }

    // Average bound widths over edited images × query bins.
    let cons_engine = mmdb_rules::RuleEngine::new(db.quantizer(), RuleProfile::Conservative);
    let lit_engine = mmdb_rules::RuleEngine::new(db.quantizer(), RuleProfile::PaperTable1);
    let mut cons_width = 0.0;
    let mut lit_width = 0.0;
    let mut samples = 0usize;
    for id in &info.edited_ids {
        let seq = db.edit_sequence(*id).expect("sequence exists");
        for q in queries.iter().take(8) {
            cons_width += cons_engine
                .bounds(&seq, q.bin, &db)
                .map_or(1.0, |b| b.fraction_width());
            lit_width += lit_engine
                .bounds(&seq, q.bin, &db)
                .map_or(1.0, |b| b.fraction_width());
            samples += 1;
        }
    }
    if samples > 0 {
        report.avg_width_conservative = cons_width / samples as f64;
        report.avg_width_literal = lit_width / samples as f64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_sweep_is_correct_and_monotone_in_work() {
        let cfg = SweepConfig::fast();
        let points = figure_sweep(Figure::Fig4Flag, &cfg);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(
                p.results_equal,
                "RBM, BWM, and indexed must agree at pct {}",
                p.pct
            );
            assert!(p.rbm_ms > 0.0 && p.bwm_ms > 0.0 && p.indexed_ms > 0.0);
            // The timed passes answered queries from the index.
            assert!(p.metrics.get("mmdb_boundidx_lookups_total") > 0);
            assert_eq!(p.binary + p.edited, cfg.total_images);
            // The timed passes ran BOUNDS computations, so the per-point
            // telemetry delta must have attributed some to this point.
            assert!(p.metrics.get("mmdb_rules_bounds_computed_total") > 0);
            assert_eq!(p.metrics_csv_row().len(), METRICS_HEADERS.len());
            assert_eq!(p.csv_row().len(), SWEEP_HEADERS.len());
            // The timed passes feed the latency histograms, so the
            // percentile window must be populated and ordered.
            assert!(p.rbm_latency.p50_ms > 0.0 && p.bwm_latency.p50_ms > 0.0);
            assert!(p.rbm_latency.p50_ms <= p.rbm_latency.p95_ms);
            assert!(p.rbm_latency.p95_ms <= p.rbm_latency.p99_ms);
        }
        // Fixed BW pool: the non-BW count grows along the sweep.
        assert!(points[0].nbw < points[2].nbw);
        // The BW-only pool stays (approximately — the per-variant coin flips
        // make it stochastic) constant.
        let spread = points.iter().map(|p| p.bw_only as i64).max().unwrap()
            - points.iter().map(|p| p.bw_only as i64).min().unwrap();
        assert!(spread <= cfg.bw_pool as i64, "pool spread {spread}");
    }

    #[test]
    fn nbw_ablation_shows_mechanism() {
        let cfg = SweepConfig::fast();
        let points = nbw_ablation(Collection::Flags, &cfg, &[0.0, 1.0]);
        assert_eq!(points.len(), 2);
        assert!(points[0].observed_nbw_share < 0.05);
        assert!(points[1].observed_nbw_share > 0.95);
        // With everything unclassified BWM does exactly RBM's bound work;
        // with everything classified the base-hit shortcut must save some.
        // (Work counters are deterministic, unlike wall-clock at this scale.)
        assert_eq!(
            points[1].rbm_bounds_per_query,
            points[1].bwm_bounds_per_query
        );
        assert!(
            points[0].bwm_bounds_per_query < points[0].rbm_bounds_per_query,
            "bwm {} vs rbm {}",
            points[0].bwm_bounds_per_query,
            points[0].rbm_bounds_per_query
        );
    }

    #[test]
    fn table2_defaults() {
        let info = table2(Collection::Helmets, 42);
        assert_eq!(info.total_images, 600);
        assert_eq!(info.edited_images, 480);
        assert_eq!(info.binary_images, 120);
        assert!(info.avg_ops_per_edited > 3.0);
    }

    #[test]
    fn profile_ablation_soundness_and_tightness() {
        let mut cfg = SweepConfig::fast();
        cfg.total_images = 60;
        cfg.queries = 6;
        let report = profile_ablation(Collection::Flags, &cfg);
        assert_eq!(
            report.false_negatives_conservative, 0,
            "conservative profile must never lose a true match"
        );
        // The literal profile is tighter (its Combine rule is a no-op).
        assert!(report.avg_width_literal <= report.avg_width_conservative + 1e-9);
        assert!(report.truth_matches <= report.candidates_conservative);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn constant_mix_sweep_runs() {
        let mut cfg = SweepConfig::fast();
        cfg.pcts = vec![0.2, 0.8];
        cfg.total_images = 60;
        cfg.queries = 6;
        let points = figure_sweep_constant_mix(Figure::Fig4Flag, &cfg, 0.25);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.results_equal);
            // Constant mix: the NBW share stays near 25% at both ends.
            let share = p.nbw as f64 / p.edited.max(1) as f64;
            assert!((share - 0.25).abs() < 0.25, "share {share} at {}", p.pct);
        }
    }

    #[test]
    fn overhead_experiment_runs_and_restores_gate() {
        let mut cfg = SweepConfig::fast();
        cfg.total_images = 60;
        cfg.queries = 6;
        let report = overhead_experiment(Collection::Flags, &cfg);
        assert!(report.enabled_ms > 0.0 && report.disabled_ms > 0.0);
        assert!(report.overhead_pct().is_finite());
        // The experiment must leave instrumentation on for everyone else.
        assert!(mmdb_telemetry::instrumentation_enabled());
    }

    #[test]
    fn knn_experiment_exact_and_counts() {
        let mut cfg = SweepConfig::fast();
        cfg.total_images = 50;
        let points = knn_experiment(Collection::Flags, &cfg, &[1, 5]);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.exact, "bounds-pruned k-NN must equal brute force");
            assert!((0.0..=1.0).contains(&p.pruned_frac));
        }
    }
}
