//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p mmdb-bench --release --bin repro -- all
//! cargo run -p mmdb-bench --release --bin repro -- fig3 --fast
//! ```
//!
//! Subcommands: `table2`, `fig3`, `fig4`, `headline`, `ablation-nbw`,
//! `ablation-selectivity`, `ablation-profile`, `ablation-knn`,
//! `ablation-bins`, `fig3-constmix`, `fig4-constmix`, `storage`, `lint`,
//! `overhead`, `serve-load`, `trace-overhead`, `all`. `--fast` runs a
//! reduced configuration; CSVs land in `results/`. `serve-load --connect
//! HOST:PORT` is a closed-loop load generator for a running `mmdbctl
//! serve`; `trace-overhead` measures the serving cost of keeping request
//! traces. Serving throughput, shard fan-out, cold start and telemetry cost
//! are measured by `bash benchmark/run.sh`, not here.

use mmdb_bench::csvout;
use mmdb_bench::experiments::{self, Figure, SweepConfig, METRICS_HEADERS, SWEEP_HEADERS};
use mmdb_datagen::Collection;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    // Walk up from the executable's cwd to a directory containing Cargo.toml
    // with [workspace]; fall back to ./results.
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

fn print_rule(width: usize) {
    println!("{}", "-".repeat(width));
}

fn run_table2(seed: u64) {
    for collection in [Collection::Helmets, Collection::Flags] {
        let info = experiments::table2(collection, seed);
        println!();
        println!("Table 2 (analog) — default parameters, {collection} data set (seed {seed})");
        print_rule(78);
        let mut rows = Vec::new();
        for (desc, value) in info.table2_rows() {
            println!("{desc:<70} {value:>7}");
            rows.push(vec![desc, value]);
        }
        let path = results_dir().join(format!("table2_{collection}.csv"));
        csvout::write_csv(&path, &["parameter", "value"], &rows).expect("write csv");
        println!("[csv] {}", path.display());
    }
}

/// The console table of a Figure 3/4 sweep: work saved (BOUNDS computations
/// per query) beside time saved.
fn print_sweep_header() {
    println!(
        "{:>4}% {:>8} {:>8} {:>8} {:>8} {:>12} {:>12} {:>10} {:>10} {:>11} {:>9} {:>9} {:>7}",
        "pct",
        "binary",
        "edited",
        "bw-only",
        "non-bw",
        "RBM ms/q",
        "BWM ms/q",
        "work sv %",
        "time sv %",
        "IDX ms/q",
        "idx-spdup",
        "base-hit",
        "equal"
    );
}

fn print_sweep_point(p: &mmdb_bench::SweepPoint) {
    println!(
        "{:>4.0}% {:>8} {:>8} {:>8} {:>8} {:>12.4} {:>12.4} {:>10.2} {:>10.2} {:>11.4} {:>8.1}x {:>9.3} {:>7}",
        p.pct * 100.0,
        p.binary,
        p.edited,
        p.bw_only,
        p.nbw,
        p.rbm_ms,
        p.bwm_ms,
        p.work_saved_pct(),
        p.reduction_pct,
        p.indexed_ms,
        p.indexed_speedup_vs_bwm,
        p.base_hit_rate,
        p.results_equal
    );
}

fn run_figure(figure: Figure, cfg: &SweepConfig) {
    let (name, label) = match figure {
        Figure::Fig3Helmet => (
            "fig3_helmet",
            "Figure 3 — Range Query Time (Helmet Data Set)",
        ),
        Figure::Fig4Flag => ("fig4_flag", "Figure 4 — Range Query Time (Flag Data Set)"),
    };
    println!();
    println!("{label}");
    println!(
        "execution time per range query vs. percentage of images stored as editing operations"
    );
    print_rule(120);
    print_sweep_header();
    let points = experiments::figure_sweep(figure, cfg);
    let mut rows = Vec::new();
    for p in &points {
        print_sweep_point(p);
        rows.push(p.csv_row());
    }
    let mean = |f: fn(&mmdb_bench::SweepPoint) -> f64| {
        points.iter().map(f).sum::<f64>() / points.len() as f64
    };
    let avg = mean(|p| p.reduction_pct);
    let avg_work = mean(mmdb_bench::SweepPoint::work_saved_pct);
    let avg_speedup = mean(|p| p.indexed_speedup_vs_bwm);
    print_rule(120);
    println!(
        "average reduction: {avg:.2}% of time, {avg_work:.2}% of BOUNDS work   (paper reports {:.2}%)   indexed avg speedup vs BWM: {avg_speedup:.1}x",
        figure.paper_reduction_pct()
    );
    let path = results_dir().join(format!("{name}.csv"));
    csvout::write_csv(&path, &SWEEP_HEADERS, &rows).expect("write csv");
    println!("[csv] {}", path.display());

    // Telemetry companion files: per-point counter deltas as CSV, plus the
    // full end-of-sweep registry in Prometheus text form.
    let metric_rows: Vec<Vec<String>> = points
        .iter()
        .map(mmdb_bench::SweepPoint::metrics_csv_row)
        .collect();
    let metrics_path = results_dir().join(format!("{name}.metrics.csv"));
    csvout::write_csv(&metrics_path, &METRICS_HEADERS, &metric_rows).expect("write metrics csv");
    println!("[csv] {}", metrics_path.display());
    let prom_path = results_dir().join(format!("{name}.metrics.prom"));
    std::fs::write(&prom_path, mmdb_telemetry::global().render_prometheus())
        .expect("write metrics snapshot");
    println!("[metrics] {}", prom_path.display());
}

fn run_headline(cfg: &SweepConfig) {
    println!();
    println!("Headline (§5): average BWM reduction over RBM, and the sweep trend");
    print_rule(86);
    for report in experiments::headline(cfg) {
        let name = match report.figure {
            Figure::Fig3Helmet => "helmet",
            Figure::Fig4Flag => "flag",
        };
        println!(
            "{name:<8} measured avg {:>6.2}%  (paper {:>6.2}%)   trend: {:>6.2}% @ {:.0}% -> {:>6.2}% @ {:.0}%",
            report.avg_reduction_pct,
            report.figure.paper_reduction_pct(),
            report.first_reduction_pct,
            report.points.first().map_or(0.0, |p| p.pct * 100.0),
            report.last_reduction_pct,
            report.points.last().map_or(0.0, |p| p.pct * 100.0),
        );
    }
    println!("(the paper reports the reduction decreasing as more images are stored as editing operations)");
}

fn run_ablation_nbw(cfg: &SweepConfig) {
    println!();
    println!("Ablation A1 — BWM advantage vs. share of non-bound-widening edited images");
    print_rule(96);
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>10} {:>12} {:>12}",
        "p_merge", "nbw-share", "RBM ms/q", "BWM ms/q", "saved %", "RBM bounds", "BWM bounds"
    );
    let shares = [0.0, 0.25, 0.5, 0.75, 1.0];
    let points = experiments::nbw_ablation(Collection::Flags, cfg, &shares);
    let mut rows = Vec::new();
    for p in &points {
        println!(
            "{:>8.2} {:>10.3} {:>12.4} {:>12.4} {:>10.2} {:>12.1} {:>12.1}",
            p.p_merge,
            p.observed_nbw_share,
            p.rbm_ms,
            p.bwm_ms,
            p.reduction_pct,
            p.rbm_bounds_per_query,
            p.bwm_bounds_per_query
        );
        rows.push(vec![
            format!("{:.2}", p.p_merge),
            format!("{:.3}", p.observed_nbw_share),
            format!("{:.4}", p.rbm_ms),
            format!("{:.4}", p.bwm_ms),
            format!("{:.2}", p.reduction_pct),
            format!("{:.1}", p.rbm_bounds_per_query),
            format!("{:.1}", p.bwm_bounds_per_query),
        ]);
    }
    let path = results_dir().join("ablation_nbw.csv");
    csvout::write_csv(
        &path,
        &[
            "p_merge",
            "observed_nbw_share",
            "rbm_ms_per_query",
            "bwm_ms_per_query",
            "reduction_pct",
            "rbm_bounds_per_query",
            "bwm_bounds_per_query",
        ],
        &rows,
    )
    .expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_ablation_selectivity(cfg: &SweepConfig) {
    println!();
    println!("Ablation A2 — BWM advantage vs. query threshold (base-hit selectivity)");
    print_rule(76);
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>10}",
        "threshold", "base-hit", "RBM ms/q", "BWM ms/q", "saved %"
    );
    let thresholds = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65];
    let points = experiments::selectivity_ablation(Collection::Helmets, cfg, &thresholds);
    let mut rows = Vec::new();
    for p in &points {
        println!(
            "{:>10.2} {:>10.3} {:>12.4} {:>12.4} {:>10.2}",
            p.threshold, p.base_hit_rate, p.rbm_ms, p.bwm_ms, p.reduction_pct
        );
        rows.push(vec![
            format!("{:.2}", p.threshold),
            format!("{:.3}", p.base_hit_rate),
            format!("{:.4}", p.rbm_ms),
            format!("{:.4}", p.bwm_ms),
            format!("{:.2}", p.reduction_pct),
        ]);
    }
    let path = results_dir().join("ablation_selectivity.csv");
    csvout::write_csv(
        &path,
        &[
            "threshold",
            "base_hit_rate",
            "rbm_ms_per_query",
            "bwm_ms_per_query",
            "reduction_pct",
        ],
        &rows,
    )
    .expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_ablation_profile(cfg: &SweepConfig) {
    println!();
    println!("Ablation A3 — rule profiles: literal Table 1 vs. conservative");
    print_rule(76);
    let report = experiments::profile_ablation(Collection::Flags, cfg);
    println!(
        "ground-truth matches over batch:      {:>8}",
        report.truth_matches
    );
    println!(
        "candidates (conservative profile):    {:>8}",
        report.candidates_conservative
    );
    println!(
        "candidates (literal Table 1 profile): {:>8}",
        report.candidates_literal
    );
    println!(
        "false negatives — conservative:       {:>8}   (soundness guarantee: must be 0)",
        report.false_negatives_conservative
    );
    println!(
        "false negatives — literal Table 1:    {:>8}   (the scraped Combine row is unsound for real blurs)",
        report.false_negatives_literal
    );
    println!(
        "mean bound width — conservative:      {:>8.4}",
        report.avg_width_conservative
    );
    println!(
        "mean bound width — literal Table 1:   {:>8.4}",
        report.avg_width_literal
    );
    let path = results_dir().join("ablation_profile.csv");
    csvout::write_csv(
        &path,
        &["metric", "conservative", "literal"],
        &[
            vec![
                "candidates".into(),
                report.candidates_conservative.to_string(),
                report.candidates_literal.to_string(),
            ],
            vec![
                "false_negatives".into(),
                report.false_negatives_conservative.to_string(),
                report.false_negatives_literal.to_string(),
            ],
            vec![
                "avg_bound_width".into(),
                format!("{:.4}", report.avg_width_conservative),
                format!("{:.4}", report.avg_width_literal),
            ],
            vec![
                "truth_matches".into(),
                report.truth_matches.to_string(),
                report.truth_matches.to_string(),
            ],
        ],
    )
    .expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_figure_constmix(figure: Figure, cfg: &SweepConfig) {
    let name = match figure {
        Figure::Fig3Helmet => "fig3_helmet_constmix",
        Figure::Fig4Flag => "fig4_flag_constmix",
    };
    println!();
    println!("Sweep variant — constant non-bound-widening mix (25%) at every point");
    println!(
        "(contrast with the fixed-pool sweep: here BWM's advantage grows with the edited share)"
    );
    print_rule(120);
    print_sweep_header();
    let points = experiments::figure_sweep_constant_mix(figure, cfg, 0.25);
    let mut rows = Vec::new();
    for p in &points {
        print_sweep_point(p);
        rows.push(p.csv_row());
    }
    let path = results_dir().join(format!("{name}.csv"));
    csvout::write_csv(&path, &SWEEP_HEADERS, &rows).expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_ablation_knn(cfg: &SweepConfig) {
    println!();
    println!("Ablation A6 — bounds-pruned k-NN over the augmented database (§6 future work)");
    print_rule(86);
    println!(
        "{:>4} {:>12} {:>14} {:>14} {:>10} {:>7}",
        "k", "pruned-frac", "pruned ms/probe", "brute ms/probe", "speedup", "exact"
    );
    let ks = [1usize, 5, 10, 25];
    let points = experiments::knn_experiment(Collection::Flags, cfg, &ks);
    let mut rows = Vec::new();
    for p in &points {
        println!(
            "{:>4} {:>12.3} {:>14.3} {:>14.3} {:>9.2}x {:>7}",
            p.k,
            p.pruned_frac,
            p.fast_ms,
            p.brute_ms,
            p.brute_ms / p.fast_ms,
            p.exact
        );
        rows.push(vec![
            p.k.to_string(),
            format!("{:.3}", p.pruned_frac),
            format!("{:.3}", p.fast_ms),
            format!("{:.3}", p.brute_ms),
            format!("{:.2}", p.brute_ms / p.fast_ms),
            p.exact.to_string(),
        ]);
    }
    let path = results_dir().join("ablation_knn.csv");
    csvout::write_csv(
        &path,
        &[
            "k",
            "pruned_frac",
            "pruned_ms",
            "brute_ms",
            "speedup",
            "exact",
        ],
        &rows,
    )
    .expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_ablation_bins(cfg: &SweepConfig) {
    println!();
    println!("Ablation A7 — quantizer granularity (§3.1's 'system-dependent number of divisions')");
    print_rule(76);
    println!(
        "{:>10} {:>6} {:>12} {:>8} {:>10} {:>12}",
        "divisions", "bins", "candidates", "truth", "precision", "RBM ms/q"
    );
    let points = experiments::bins_ablation(Collection::Flags, cfg, &[2, 4, 8]);
    let mut rows = Vec::new();
    for p in &points {
        println!(
            "{:>10} {:>6} {:>12} {:>8} {:>10.3} {:>12.4}",
            p.divisions, p.bins, p.candidates, p.truth, p.precision, p.rbm_ms
        );
        rows.push(vec![
            p.divisions.to_string(),
            p.bins.to_string(),
            p.candidates.to_string(),
            p.truth.to_string(),
            format!("{:.3}", p.precision),
            format!("{:.4}", p.rbm_ms),
        ]);
    }
    let path = results_dir().join("ablation_bins.csv");
    csvout::write_csv(
        &path,
        &[
            "divisions",
            "bins",
            "candidates",
            "truth",
            "precision",
            "rbm_ms_per_query",
        ],
        &rows,
    )
    .expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_storage(cfg: &SweepConfig) {
    println!();
    println!("Storage — the §2 space argument for edit-sequence storage");
    print_rule(76);
    for collection in [Collection::Helmets, Collection::Flags] {
        let (db, info) = mmdb_datagen::DatasetBuilder::new(collection)
            .total_images(cfg.total_images)
            .pct_edited(0.8)
            .seed(cfg.seed)
            .build();
        let stats = db.stats();
        println!(
            "{collection:<8} binary: {:>4} images / {:>10} bytes   edited: {:>4} images / {:>8} bytes   saving factor: {:>8.1}x",
            stats.binary_count,
            stats.binary_bytes,
            stats.edited_count,
            stats.edited_bytes,
            stats.space_saving_factor().unwrap_or(f64::NAN)
        );
        let _ = info;
    }
}

fn run_lint(cfg: &SweepConfig) {
    use mmdbms::analysis::Severity;
    println!();
    println!("Lint — static analysis throughput over generated catalogs");
    print_rule(76);
    let mut rows = Vec::new();
    for collection in [Collection::Helmets, Collection::Flags] {
        let (db, _info) = mmdb_datagen::DatasetBuilder::new(collection)
            .total_images(cfg.total_images)
            .pct_edited(0.8)
            .seed(cfg.seed)
            .build();
        let start = std::time::Instant::now();
        let report = db.lint();
        let elapsed = start.elapsed();
        let warns = report
            .diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warn)
            .count();
        println!(
            "{collection:<8} {:>4} sequence(s) in {elapsed:>10.2?}   errors: {:>3}   warnings: {:>4}   audits clean: {}/{}",
            report.sequences_analyzed,
            report.error_count(),
            warns,
            report.audits_clean,
            report.audited,
        );
        assert!(
            !report.has_errors(),
            "generated {collection} catalog must lint clean"
        );
        rows.push(vec![
            collection.to_string(),
            report.sequences_analyzed.to_string(),
            format!("{:.6}", elapsed.as_secs_f64()),
            report.error_count().to_string(),
            warns.to_string(),
            report.audits_clean.to_string(),
            report.audited.to_string(),
        ]);
    }
    let path = results_dir().join("lint.csv");
    csvout::write_csv(
        &path,
        &[
            "collection",
            "sequences",
            "seconds",
            "errors",
            "warnings",
            "audits_clean",
            "audited",
        ],
        &rows,
    )
    .expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_overhead(cfg: &SweepConfig) {
    println!();
    println!("Overhead — cost of the always-on instrumentation on the BWM hot path");
    print_rule(76);
    let report = experiments::overhead_experiment(Collection::Flags, cfg);
    println!("instrumentation on:  {:>10.4} ms/query", report.enabled_ms);
    println!("instrumentation off: {:>10.4} ms/query", report.disabled_ms);
    println!(
        "overhead: {:+.2}%   (acceptance bar: < 5% mean latency)",
        report.overhead_pct()
    );
    let path = results_dir().join("overhead.csv");
    csvout::write_csv(
        &path,
        &[
            "enabled_ms_per_query",
            "disabled_ms_per_query",
            "overhead_pct",
        ],
        &[vec![
            format!("{:.4}", report.enabled_ms),
            format!("{:.4}", report.disabled_ms),
            format!("{:.2}", report.overhead_pct()),
        ]],
    )
    .expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_serve_load(fast: bool, raw_args: &[String]) {
    use mmdb_bench::serveload::{self, LoadConfig, LOAD_HEADERS};
    let cfg = if fast {
        LoadConfig::fast()
    } else {
        LoadConfig::default_sweep()
    };
    let connect = raw_args
        .iter()
        .position(|a| a == "--connect")
        .and_then(|i| raw_args.get(i + 1));
    let Some(addr) = connect else {
        eprintln!(
            "serve-load needs --connect HOST:PORT (a running `mmdbctl serve`); the \
             self-hosted throughput and shard sweeps are now `bash benchmark/run.sh --workload \
             point_1shard` and `--workload fanout_16shard`"
        );
        std::process::exit(2);
    };
    use std::net::ToSocketAddrs;
    println!();
    println!("Serve-load — closed-loop throughput against {addr}");
    let addr = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| panic!("bad --connect address {addr:?}"));
    let points = serveload::run_sweep_against(addr, &cfg);
    print_rule(96);
    println!(
        "{:>8} {:>6} {:>9} {:>7} {:>7} {:>9} {:>10} {:>9} {:>9} {:>9}",
        "scenario",
        "conc",
        "requests",
        "ok",
        "ovld",
        "deadline",
        "qps",
        "p50 ms",
        "p95 ms",
        "p99 ms"
    );
    let mut rows = Vec::new();
    for p in &points {
        println!(
            "{:>8} {:>6} {:>9} {:>7} {:>7} {:>9} {:>10.1} {:>9.3} {:>9.3} {:>9.3}",
            p.scenario,
            p.concurrency,
            p.requests,
            p.ok,
            p.overloaded,
            p.deadline_exceeded,
            p.qps,
            p.p50_ms,
            p.p95_ms,
            p.p99_ms
        );
        rows.push(p.csv_row());
    }
    let path = results_dir().join("serve_throughput.csv");
    csvout::write_csv(&path, &LOAD_HEADERS, &rows).expect("write csv");
    println!("[csv] {}", path.display());
}

fn run_trace_overhead(fast: bool) {
    use mmdb_bench::serveload::{self, LoadConfig, TRACE_OVERHEAD_HEADERS};
    let cfg = if fast {
        LoadConfig::fast()
    } else {
        LoadConfig::default_sweep()
    };
    println!();
    println!(
        "Trace overhead — identical closed-loop workload vs. trace-keep threshold \
         (unreachable / default / zero = 100% retention)"
    );
    print_rule(96);
    println!(
        "{:>12} {:>6} {:>9} {:>12} {:>10} {:>9} {:>9} {:>9} {:>12}",
        "trace_mode",
        "conc",
        "requests",
        "kept_traces",
        "qps",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "qps vs off"
    );
    let points = serveload::run_trace_overhead(&cfg);
    let mut rows = Vec::new();
    for p in &points {
        println!(
            "{:>12} {:>6} {:>9} {:>12} {:>10.1} {:>9.3} {:>9.3} {:>9.3} {:>11.1}%",
            p.label,
            p.point.concurrency,
            p.point.requests,
            p.kept_traces,
            p.point.qps,
            p.point.p50_ms,
            p.point.p95_ms,
            p.point.p99_ms,
            p.qps_vs_off_pct
        );
        rows.push(p.csv_row());
    }
    print_rule(96);
    let tail = &points[1];
    println!(
        "tail-sampled throughput is {:.1}% of tracing-off (acceptance bar: >= 95%); with the \
         keep threshold at the off-run p99, the store captured {} slow-tail trace(s) of {}",
        tail.qps_vs_off_pct, points[3].kept_traces, points[3].point.requests
    );
    let path = results_dir().join("trace_overhead.csv");
    csvout::write_csv(&path, &TRACE_OVERHEAD_HEADERS, &rows).expect("write csv");
    println!("[csv] {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let cfg = if fast {
        SweepConfig::fast()
    } else {
        SweepConfig::default_paper()
    };
    println!(
        "repro — edit-sequence MMDBMS evaluation (config: {} images, {} queries, {} repeats{})",
        cfg.total_images,
        cfg.queries,
        cfg.repeats,
        if fast { ", fast mode" } else { "" }
    );

    match command.as_str() {
        "table2" => run_table2(cfg.seed),
        "fig3" => run_figure(Figure::Fig3Helmet, &cfg),
        "fig4" => run_figure(Figure::Fig4Flag, &cfg),
        "headline" => run_headline(&cfg),
        "ablation-nbw" => run_ablation_nbw(&cfg),
        "ablation-selectivity" => run_ablation_selectivity(&cfg),
        "ablation-profile" => run_ablation_profile(&cfg),
        "ablation-knn" => run_ablation_knn(&cfg),
        "ablation-bins" => run_ablation_bins(&cfg),
        "fig3-constmix" => run_figure_constmix(Figure::Fig3Helmet, &cfg),
        "fig4-constmix" => run_figure_constmix(Figure::Fig4Flag, &cfg),
        "storage" => run_storage(&cfg),
        "lint" => run_lint(&cfg),
        "overhead" => run_overhead(&cfg),
        "serve-load" => run_serve_load(fast, &args),
        "trace-overhead" => run_trace_overhead(fast),
        "all" => {
            run_table2(cfg.seed);
            run_figure(Figure::Fig3Helmet, &cfg);
            run_figure(Figure::Fig4Flag, &cfg);
            run_ablation_nbw(&cfg);
            run_ablation_selectivity(&cfg);
            run_ablation_profile(&cfg);
            run_ablation_knn(&cfg);
            run_ablation_bins(&cfg);
            run_figure_constmix(Figure::Fig4Flag, &cfg);
            run_storage(&cfg);
            run_lint(&cfg);
            run_overhead(&cfg);
        }
        other => {
            eprintln!("unknown subcommand {other:?}");
            eprintln!(
                "usage: repro [table2|fig3|fig4|headline|ablation-nbw|ablation-selectivity|\
                 ablation-profile|ablation-knn|ablation-bins|fig3-constmix|fig4-constmix|storage|\
                 lint|overhead|serve-load --connect HOST:PORT|trace-overhead|all] [--fast]"
            );
            std::process::exit(2);
        }
    }
}
