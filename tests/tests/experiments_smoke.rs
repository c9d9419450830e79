//! Smoke tests over the experiment harness: the reduced configuration of
//! every `repro` experiment must run and satisfy its structural invariants.

use mmdb_bench::experiments::{
    self, figure_sweep, headline, nbw_ablation, profile_ablation, selectivity_ablation, table2,
    Figure, SweepConfig,
};
use mmdb_datagen::Collection;

#[test]
fn both_figures_run_and_agree() {
    let cfg = SweepConfig::fast();
    // Work saved by the structure, `100 × (1 − bwm/rbm)` BOUNDS computations
    // per query: the paper's curves as deterministic counters, not clocks.
    let mut saved = Vec::new();
    for figure in [Figure::Fig3Helmet, Figure::Fig4Flag] {
        let points = figure_sweep(figure, &cfg);
        assert_eq!(points.len(), cfg.pcts.len());
        for p in &points {
            assert!(p.results_equal, "{figure:?} at {}%", p.pct * 100.0);
            assert_eq!(p.binary + p.edited, cfg.total_images);
            assert_eq!(p.bw_only + p.nbw, p.edited);
            assert!(p.rbm_ms.is_finite() && p.bwm_ms.is_finite());
            // BWM never computes more bounds than RBM.
            assert!(p.bwm_bounds_per_query <= p.rbm_bounds_per_query + 1e-9);
            // RBM's bound count is exactly the edited-image count.
            assert!((p.rbm_bounds_per_query - p.edited as f64).abs() < 1e-9);
            // The CSV row carries both counts and the work saved.
            let row = p.csv_row();
            assert_eq!(row.len(), experiments::SWEEP_HEADERS.len());
            let work_saved: f64 = row.last().unwrap().parse().unwrap();
            assert!(
                work_saved >= 0.0,
                "{figure:?} at {}%: {row:?}",
                p.pct * 100.0
            );
        }
        saved.push(
            points
                .iter()
                .map(experiments::SweepPoint::work_saved_pct)
                .collect::<Vec<f64>>(),
        );
    }
    // The shape the paper reports (Figures 3 and 4): the structure always
    // helps, helps the helmet collection more than the flags at every
    // point, and helps less as the edited share grows past the fixed pool
    // of bound-widening-only images.
    let (helmet, flag) = (&saved[0], &saved[1]);
    for (h, f) in helmet.iter().zip(flag) {
        assert!(*f >= 0.0 && h > f, "helmet {helmet:?} vs flag {flag:?}");
    }
    for series in &saved {
        assert!(series.windows(2).all(|w| w[1] <= w[0]), "{series:?}");
    }
}

#[test]
fn headline_report_well_formed() {
    let mut cfg = SweepConfig::fast();
    cfg.pcts = vec![0.2, 0.8];
    let reports = headline(&cfg);
    assert_eq!(reports.len(), 2);
    for r in reports {
        assert_eq!(r.points.len(), 2);
        assert!(r.avg_reduction_pct.is_finite());
        assert_eq!(r.first_reduction_pct, r.points[0].reduction_pct);
        assert_eq!(r.last_reduction_pct, r.points[1].reduction_pct);
    }
}

#[test]
fn table2_consistency() {
    for collection in [Collection::Flags, Collection::Helmets] {
        let info = table2(collection, 42);
        assert_eq!(info.binary_images + info.edited_images, info.total_images);
        assert_eq!(
            info.bound_widening_only + info.non_bound_widening,
            info.edited_images
        );
        let rows = info.table2_rows();
        assert_eq!(rows.len(), 6);
    }
}

#[test]
fn selectivity_ablation_hit_rate_monotone() {
    let mut cfg = SweepConfig::fast();
    cfg.total_images = 60;
    cfg.queries = 8;
    let points = selectivity_ablation(Collection::Helmets, &cfg, &[0.05, 0.6]);
    assert_eq!(points.len(), 2);
    // Higher thresholds cannot increase the base hit rate.
    assert!(points[0].base_hit_rate >= points[1].base_hit_rate);
}

#[test]
fn nbw_ablation_work_counters() {
    let mut cfg = SweepConfig::fast();
    cfg.total_images = 60;
    cfg.queries = 8;
    let points = nbw_ablation(Collection::Flags, &cfg, &[0.0, 1.0]);
    // All-unclassified: the structure saves nothing.
    assert_eq!(
        points[1].rbm_bounds_per_query,
        points[1].bwm_bounds_per_query
    );
    // All-classified: some clusters hit, so bounds are saved.
    assert!(points[0].bwm_bounds_per_query < points[0].rbm_bounds_per_query);
}

#[test]
fn profile_ablation_guarantees() {
    let mut cfg = SweepConfig::fast();
    cfg.total_images = 50;
    cfg.queries = 5;
    let report = profile_ablation(Collection::Flags, &cfg);
    assert_eq!(report.false_negatives_conservative, 0);
    assert!(report.candidates_conservative >= report.truth_matches);
    assert!(report.avg_width_conservative >= 0.0);
}

#[test]
fn query_batch_helper() {
    let (db, _) = mmdb_datagen::DatasetBuilder::new(Collection::Flags)
        .total_images(20)
        .pct_edited(0.5)
        .build();
    let batch = experiments::query_batch(Collection::Flags, &db, 7, 1);
    assert_eq!(batch.len(), 7);
}
