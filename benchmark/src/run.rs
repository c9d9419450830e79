//! One workload, one process: set-up, the steady phase — with the crash
//! image at a fixed point of it, and further set-ups and restart cycles in
//! its breaks — then plan equivalence; and the nine end-to-end metrics they
//! add up to. A traced run (`--trace 1`) sets up once and hands
//! the database to [`crate::layers`].

use crate::report::{Metric, Report};
use crate::spec::{Workload, END_TO_END, EQUIVALENCE_QUERIES, QUIET, RESTART_SECONDS_PER_PAUSE};
use crate::stage::{scaled, setup, Stage};
use crate::steady::Event;
use crate::sys::{median, peak_rss_mb, quantile, remove_dir};
use crate::{layers, oracle, recover, requests, steady, Args};
use std::path::Path;

pub fn run(w: &Workload, opts: &Args, work: &Path) -> Result<Report, String> {
    remove_dir(work);
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let outcome = if opts.trace {
        traced(w, opts, work)
    } else {
        untraced(w, opts, work)
    };
    remove_dir(work);
    outcome
}

/// The set-up times and ingest chunk rates of one run.
#[derive(Default)]
struct Setups {
    total_s: Vec<f64>,
    chunk_rates: Vec<f64>,
}

impl Setups {
    /// Sets `w` up under `dir`, records and prints its times.
    fn one(&mut self, w: &Workload, opts: &Args, dir: &Path) -> Result<Stage, String> {
        let built = setup(w, opts.seed, opts.scale, dir, false)?;
        let t = built.times;
        println!(
            "setup {}: {:.3} s = generate {:.3} + ingest {:.3} + index {:.3} + flush {:.3} + bind {:.3}",
            self.total_s.len(),
            t.total_s,
            t.generate_s,
            t.ingest_s,
            t.index_s,
            t.flush_s,
            t.bind_s
        );
        self.total_s.push(t.total_s);
        self.chunk_rates.extend_from_slice(&built.chunk_rates);
        Ok(built)
    }
}

fn untraced(w: &Workload, opts: &Args, work: &Path) -> Result<Report, String> {
    let mut setups = Setups::default();
    let stage = setups.one(w, opts, &work.join("live"))?;
    let images: usize = stage.units.iter().map(Vec::len).sum();
    println!("catalog: {images} images in {} shard(s)", w.shards);

    // The crash image is taken before the equivalence check: on `scan_paper`
    // that check is the first to run the Indexed plan, and a fresh index
    // changes what the BWM plan does.
    let mut crash: Option<(recover::CrashImage, recover::Restarts)> = None;
    // `VmHWM` when the first break begins: one database set up and served.
    // The breaks open a second and a third beside it.
    let mut peak_rss = None;
    let steady = steady::run(
        w,
        &stage,
        opts.seed,
        opts.seconds,
        opts.scale,
        &mut |event| match event {
            Event::CrashPoint(live) => {
                let image = recover::crash_image(w, &stage, opts.seed, live, &work.join("crash"))?;
                let restarts = recover::Restarts::of(w, &image);
                crash = Some((image, restarts));
                Ok(())
            }
            Event::Pause => {
                peak_rss.get_or_insert_with(peak_rss_mb);
                setups.one(w, opts, &work.join("again"))?.teardown();
                let (image, restarts) = crash.as_mut().expect("breaks follow the crash point");
                restarts.cycles(
                    w,
                    image,
                    &work.join("reopen"),
                    RESTART_SECONDS_PER_PAUSE / opts.scale as f64,
                )
            }
        },
    )?;
    let (image, restarts) = crash.expect("the steady phase passes its crash point");
    println!(
        "steady: {} rounds x {} ops, {} latency samples per round, {:.1} results per query",
        steady.rounds,
        steady.ops_per_round,
        steady.query_samples_per_round,
        steady.results_per_query
    );
    let cycles: Vec<String> = restarts.ready_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("recover: ready in {} s", cycles.join(" "));
    if let Some(info) = restarts.info {
        println!(
            "recover: {} cycles, open {:.4} s median, last replayed {} WAL records over snapshot seqno {}",
            restarts.ready_s.len(),
            median(&restarts.open_s),
            info.replayed_records,
            info.snapshot_seqno
        );
    }

    let queries = requests::Stream::new(w.dataset, opts.seed ^ 0x0E0_01CE, &stage.db)
        .batch(scaled(EQUIVALENCE_QUERIES, opts.scale, 8));
    let (checked, disagreed) = oracle::plan_equivalence(&stage.db, &queries, opts.seed);
    println!(
        "equivalence: {checked} queries RBM = BWM = Indexed >= Instantiate, {disagreed} disagree"
    );

    let values = [
        // The second fastest of seven: one lucky set-up does not set it, and
        // five disturbed ones do not move it.
        quantile(&setups.total_s, 0.25),
        quantile(&setups.chunk_rates, 1.0 - QUIET),
        steady.ops_per_s,
        steady.query_p50_us,
        steady.query_p90_us,
        steady.cpu_us_per_op,
        quantile(&restarts.ready_s, QUIET),
        image.bytes as f64 / image.live.len().max(1) as f64,
        peak_rss.expect("the steady phase takes its breaks"),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();
    stage.teardown();
    Ok(Report {
        attempted: steady.attempted + checked + restarts.attempted,
        failed: steady.failed + disagreed + restarts.failed,
        metrics,
    })
}

fn traced(w: &Workload, opts: &Args, work: &Path) -> Result<Report, String> {
    let stage = setup(w, opts.seed, opts.scale, &work.join("live"), true)?;
    let report = layers::measure(w, &stage, opts, work);
    stage.teardown();
    report
}
