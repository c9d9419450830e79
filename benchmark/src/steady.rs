//! The steady phase: discarded warm-up rounds, then rounds of a fixed
//! operation count for `--seconds` seconds. A rate or percentile is computed
//! per round, and what is reported is its **quiet decile** over the rounds
//! — the 90th percentile of a rate, the 10th of a latency or a cost
//! ([`QUIET`]). A neighbour on the host, a writeback burst or a timer can
//! only make a round slower; the decile on the fast side stays where it is
//! until nine rounds in ten are disturbed, where the median moves as soon as
//! half are.
//!
//! Closed loop, one load thread, one connection, the load thread and the
//! server's reactor on one CPU ([`Pinned`]). Results are checked against the
//! in-process answer; on the read-only workloads the comparison runs after
//! the round's clock has stopped.

use crate::dataset::{self, Unit};
use crate::requests::{probe_query, wire_request, Stream};
use crate::spec::{
    Dataset, Drive, Workload, CHECK_EVERY, CRASH_AFTER_ROUNDS, MIN_ROUNDS, PAUSES, QUIET,
    VARIANTS_PER_BASE, WARMUP_ROUNDS,
};
use crate::stage::{scaled, Stage, PROFILE};
use crate::sys::{cpu_seconds, quantile, quantile_ns, thread_cpu_seconds, Pinned};
use crate::wire::{run_window, Conn};
use mmdbms::editops::{EditOp, EditSequence, ImageId};
use mmdbms::histogram::ColorHistogram;
use mmdbms::query::QueryPlan;
use mmdbms::rules::{BoundRange, ColorRangeQuery, RuleEngine};
use mmdbms::storage::StoredKind;
use mmdbms::MultimediaDatabase;
use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// What one measured round produced.
struct RoundStat {
    /// Seconds the rate is taken over: wall clock under windowed load, the
    /// sum of operation times when one thread issues them back to back.
    seconds: f64,
    cpu_s: f64,
    /// Range queries timed, and the median and 90th percentile of their
    /// latencies.
    queries: usize,
    p50_us: f64,
    p90_us: f64,
    results: u64,
    /// Refused, errored, mismatching or unobserved operations.
    failed: u64,
}

impl RoundStat {
    fn new(
        seconds: f64,
        cpu_s: f64,
        mut latencies_ns: Vec<u64>,
        results: u64,
        failed: u64,
    ) -> Self {
        RoundStat {
            seconds,
            cpu_s,
            queries: latencies_ns.len(),
            p50_us: quantile_ns(&mut latencies_ns, 0.50) / 1e3,
            p90_us: quantile_ns(&mut latencies_ns, 0.90) / 1e3,
            results,
            failed,
        }
    }
}

/// The steady phase's share of the end-to-end metrics.
pub struct Steady {
    pub ops_per_s: f64,
    pub query_p50_us: f64,
    pub query_p90_us: f64,
    pub cpu_us_per_op: f64,
    /// Measured rounds (warm-up not counted) and operations in each.
    pub rounds: usize,
    pub ops_per_round: usize,
    /// Operations issued, warm-up rounds included.
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind each round's percentiles.
    pub query_samples_per_round: usize,
    pub results_per_query: f64,
}

/// Operations per round under `--scale`. Not a function of `--seconds`:
/// a longer run is more rounds of the same size, so a round's rate and
/// percentiles mean the same thing in every run.
pub fn ops_per_round(w: &Workload, scale: usize) -> usize {
    scaled(w.ops_per_round, scale, 40)
}

/// Deciles 1, 5 and 9 of `values`, for the run's log: how far the round
/// the result rests on is from the typical and from the worst.
fn deciles(values: &[f64]) -> String {
    format!(
        "{:.4} / {:.4} / {:.4}",
        quantile(values, 0.10),
        quantile(values, 0.50),
        quantile(values, 0.90)
    )
}

pub fn sorted_raw(ids: &[ImageId]) -> Vec<u64> {
    let mut raw: Vec<u64> = ids.iter().map(|id| id.raw()).collect();
    raw.sort_unstable();
    raw
}

/// The in-process answer to `query` under `plan`, as sorted raw ids.
pub fn in_process(
    db: &MultimediaDatabase,
    query: &ColorRangeQuery,
    plan: QueryPlan,
) -> Result<Vec<u64>, String> {
    db.query_range_with(query, plan, PROFILE)
        .map(|out| sorted_raw(&out.results))
        .map_err(|e| e.to_string())
}

fn matches(db: &MultimediaDatabase, query: &ColorRangeQuery, mut got: Vec<u64>) -> bool {
    got.sort_unstable();
    in_process(db, query, QueryPlan::Indexed).is_ok_and(|want| want == got)
}

/// What the steady phase hands its caller between two rounds.
pub enum Event<'a> {
    /// Measured round [`CRASH_AFTER_ROUNDS`] has ended; these ids are alive.
    CrashPoint(&'a BTreeSet<ImageId>),
    /// One of [`PAUSES`] breaks, evenly spaced over the measured time, for
    /// the caller's own timed work (a set-up, restart cycles): spread over
    /// the whole run like the rounds, it is disturbed as a whole only if the
    /// whole run is. The load thread is not held on its CPU meanwhile, and
    /// the break does not count towards `seconds`.
    Pause,
}

/// Runs the steady phase, measuring for `seconds`.
pub fn run(
    w: &Workload,
    stage: &Stage,
    seed: u64,
    seconds: u64,
    scale: usize,
    between: &mut dyn FnMut(Event) -> Result<(), String>,
) -> Result<Steady, String> {
    let ops = ops_per_round(w, scale);
    let db = &*stage.db;
    let live: RefCell<BTreeSet<ImageId>> =
        RefCell::new(stage.units.iter().flatten().copied().collect());
    let mut stream = Stream::new(w.dataset, seed, db);
    let connect = || {
        let addr = stage
            .server
            .as_ref()
            .expect("wire workloads bind")
            .local_addr();
        Conn::connect(addr).map_err(|e| format!("connect: {e}"))
    };
    let mut pinned = Pinned::to_one_cpu();
    if !pinned.held() {
        println!("steady: load thread not pinned (the process may use one CPU only)");
    }

    let mut stats: Vec<RoundStat> = Vec::new();
    let mut failed = 0;
    {
        let mut round: Box<dyn FnMut() -> Result<RoundStat, String> + '_> = match w.drive {
            Drive::Wire { window } => {
                let mut conn = connect()?;
                Box::new(move || wire_round(db, &mut conn, &mut stream, ops, window))
            }
            Drive::Scan => Box::new(move || Ok(scan_round(db, &mut stream, ops))),
            Drive::Churn => {
                let mut churn = Churn::new(db, connect()?, stream, seed, stage, &live);
                Box::new(move || churn.round(ops))
            }
        };
        // Warm-up: caches, the allocator, the connection.
        for index in 0..WARMUP_ROUNDS {
            failed += round().map_err(|e| format!("warm-up {index}: {e}"))?.failed;
        }
        let budget = Duration::from_secs(seconds);
        let mut measured = Duration::ZERO;
        let mut pauses = 0u32;
        let mut pause = |between: &mut dyn FnMut(Event) -> Result<(), String>| {
            pinned = Pinned::none();
            let outcome = between(Event::Pause);
            pinned = Pinned::to_one_cpu();
            outcome
        };
        while stats.len() < MIN_ROUNDS || measured < budget {
            let round_started = Instant::now();
            let stat = round().map_err(|e| format!("round {}: {e}", stats.len()))?;
            measured += round_started.elapsed();
            failed += stat.failed;
            stats.push(stat);
            if stats.len() == CRASH_AFTER_ROUNDS {
                between(Event::CrashPoint(&live.borrow()))?;
            }
            if stats.len() >= CRASH_AFTER_ROUNDS
                && pauses < PAUSES
                && measured >= budget * (pauses + 1) / (PAUSES + 1)
            {
                pauses += 1;
                pause(between)?;
            }
        }
        // A phase of few long rounds crosses several marks in one round.
        for _ in pauses..PAUSES {
            pause(between)?;
        }
    }
    drop(pinned);
    let rounds = stats.len();
    let rates: Vec<f64> = stats.iter().map(|s| ops as f64 / s.seconds).collect();
    let cpu: Vec<f64> = stats.iter().map(|s| s.cpu_s * 1e6 / ops as f64).collect();
    let p50: Vec<f64> = stats.iter().map(|s| s.p50_us).collect();
    let p90: Vec<f64> = stats.iter().map(|s| s.p90_us).collect();
    println!("steady: deciles 1 / 5 / 9 over {rounds} rounds of {ops} ops:");
    println!("  ops/s         {}", deciles(&rates));
    println!("  p50 us        {}", deciles(&p50));
    println!("  p90 us        {}", deciles(&p90));
    println!("  cpu us per op {}", deciles(&cpu));
    let total_queries: usize = stats.iter().map(|s| s.queries).sum();
    let total_results: u64 = stats.iter().map(|s| s.results).sum();
    Ok(Steady {
        ops_per_s: quantile(&rates, 1.0 - QUIET),
        query_p50_us: quantile(&p50, QUIET),
        query_p90_us: quantile(&p90, QUIET),
        cpu_us_per_op: quantile(&cpu, QUIET),
        rounds,
        ops_per_round: ops,
        attempted: ((WARMUP_ROUNDS + rounds) * ops) as u64,
        failed,
        query_samples_per_round: total_queries / rounds,
        results_per_query: total_results as f64 / total_queries.max(1) as f64,
    })
}

/// One round of windowed wire load; sampled replies are compared with the
/// in-process answer after the clock has stopped.
fn wire_round(
    db: &MultimediaDatabase,
    conn: &mut Conn,
    stream: &mut Stream,
    ops: usize,
    window: usize,
) -> Result<RoundStat, String> {
    let queries = stream.batch(ops);
    let requests: Vec<_> = queries
        .iter()
        .map(|q| wire_request(q, QueryPlan::Indexed))
        .collect();
    // The load thread's own CPU time is the benchmark's client; what is
    // left is the server's and the database's threads.
    let system_cpu = || cpu_seconds() - thread_cpu_seconds();
    let cpu0 = system_cpu();
    let out = run_window(conn, &requests, window, CHECK_EVERY).map_err(|e| e.to_string())?;
    let cpu_s = system_cpu() - cpu0;
    let mut failed = out.failed;
    let mut results = 0;
    for (index, ids) in out.samples {
        results += ids.len() as u64;
        failed += u64::from(!matches(db, &queries[index], ids));
    }
    Ok(RoundStat::new(
        out.wall.as_secs_f64(),
        cpu_s,
        out.latencies_ns,
        // Sampled replies stand in for all of them.
        results * CHECK_EVERY as u64,
        failed,
    ))
}

/// One round of in-process BWM queries; sampled answers are compared with
/// the RBM plan's after the clock has stopped.
fn scan_round(db: &MultimediaDatabase, stream: &mut Stream, ops: usize) -> RoundStat {
    let queries = stream.batch(ops);
    let mut latencies = Vec::with_capacity(ops);
    let mut samples = Vec::with_capacity(ops / CHECK_EVERY + 1);
    let (mut results, mut failed) = (0, 0);
    let cpu0 = cpu_seconds();
    for (i, query) in queries.iter().enumerate() {
        let start = Instant::now();
        let out = db.query_range_with(query, QueryPlan::Bwm, PROFILE);
        latencies.push(start.elapsed().as_nanos() as u64);
        match out {
            Ok(out) => {
                results += out.results.len() as u64;
                if i % CHECK_EVERY == 0 {
                    samples.push((i, sorted_raw(&out.results)));
                }
            }
            Err(_) => failed += 1,
        }
    }
    let cpu_s = cpu_seconds() - cpu0;
    for (i, got) in samples {
        failed += u64::from(in_process(db, &queries[i], QueryPlan::Rbm).ok() != Some(got));
    }
    RoundStat::new(
        latencies.iter().sum::<u64>() as f64 / 1e9,
        cpu_s,
        latencies,
        results,
        failed,
    )
}

/// The write kinds of one churn cycle: one new base, its four variants, and
/// five deletes of the oldest images, so the catalog size is stationary.
#[derive(Clone, Copy)]
enum Write {
    Image,
    Edited,
    Delete,
}

const WRITE_CYCLE: [Write; 2 * (1 + VARIANTS_PER_BASE)] = [
    Write::Image,
    Write::Delete,
    Write::Edited,
    Write::Delete,
    Write::Edited,
    Write::Delete,
    Write::Edited,
    Write::Delete,
    Write::Edited,
    Write::Delete,
];

/// Every fourth operation is a write.
const WRITE_EVERY: u64 = 4;

/// What the query right after a write must show.
enum Expect {
    Present(ImageId),
    Absent(ImageId),
}

/// The base being extended by `Write::Edited` operations.
struct OpenUnit {
    base: ImageId,
    unit: Unit,
    variants: Vec<ImageId>,
}

struct Churn<'a> {
    db: &'a MultimediaDatabase,
    conn: Conn,
    stream: Stream,
    engine: RuleEngine<'a>,
    seed: u64,
    /// Flag index of the next fresh base (past the catalog's own).
    next_fresh: u64,
    fresh: VecDeque<Unit>,
    open: Option<OpenUnit>,
    /// Ids in an order that is always safe to delete front-first: every
    /// unit's variants, then its base.
    deletable: VecDeque<ImageId>,
    live: &'a RefCell<BTreeSet<ImageId>>,
    op_counter: u64,
    query_counter: usize,
}

impl<'a> Churn<'a> {
    fn new(
        db: &'a MultimediaDatabase,
        conn: Conn,
        stream: Stream,
        seed: u64,
        stage: &Stage,
        live: &'a RefCell<BTreeSet<ImageId>>,
    ) -> Self {
        let deletable = stage
            .units
            .iter()
            .flat_map(|unit| unit[1..].iter().chain(&unit[..1]))
            .copied()
            .collect();
        Churn {
            db,
            conn,
            stream,
            engine: RuleEngine::with_background(db.quantizer(), PROFILE, db.storage().background()),
            seed,
            next_fresh: stage.units.len() as u64,
            fresh: VecDeque::new(),
            open: None,
            deletable,
            live,
            op_counter: 0,
            query_counter: 0,
        }
    }

    /// The exact bounds of a binary image in its dominant bin.
    fn binary_probe(&self, histogram: &ColorHistogram) -> (usize, BoundRange) {
        let bin = histogram.dominant_bin().unwrap_or(0);
        (
            bin,
            BoundRange::exact(histogram.count(bin), histogram.total()),
        )
    }

    /// The BOUNDS of an edited image in the bin its last `Modify` paints
    /// into — computed with the rule engine, not read from the index under
    /// test.
    fn edited_probe(&self, sequence: &EditSequence) -> Result<(usize, BoundRange), String> {
        let bin = sequence
            .ops
            .iter()
            .rev()
            .find_map(|op| match op {
                EditOp::Modify { to, .. } => Some(self.db.bin_of(*to)),
                _ => None,
            })
            .unwrap_or(0);
        let shard = self.db.shard_storage(self.db.shard_of(sequence.base));
        self.engine
            .bounds(sequence, bin, shard)
            .map(|bounds| (bin, bounds))
            .map_err(|e| e.to_string())
    }

    /// Performs one write; returns its duration and the probe the next
    /// query must satisfy.
    fn write(&mut self, kind: Write) -> Result<(u64, ColorRangeQuery, Expect), String> {
        match kind {
            Write::Image => {
                let unit = self.fresh.pop_front().ok_or("fresh images exhausted")?;
                let histogram = ColorHistogram::extract(&unit.image, self.db.quantizer());
                let (bin, bounds) = self.binary_probe(&histogram);
                let start = Instant::now();
                let id = self.db.insert_image(&unit.image);
                let took = start.elapsed().as_nanos() as u64;
                let id = id.map_err(|e| e.to_string())?;
                self.live.borrow_mut().insert(id);
                self.open = Some(OpenUnit {
                    base: id,
                    unit,
                    variants: Vec::with_capacity(VARIANTS_PER_BASE),
                });
                Ok((took, probe_query(bin, bounds), Expect::Present(id)))
            }
            Write::Edited => {
                let open = self.open.as_ref().ok_or("no base to derive from")?;
                let ops = open.unit.variants[open.variants.len()].clone();
                let sequence = EditSequence::new(open.base, ops);
                let (bin, bounds) = self.edited_probe(&sequence)?;
                let start = Instant::now();
                let id = self.db.insert_edited(sequence);
                let took = start.elapsed().as_nanos() as u64;
                let id = id.map_err(|e| e.to_string())?;
                self.live.borrow_mut().insert(id);
                let open = self.open.as_mut().expect("checked above");
                open.variants.push(id);
                if open.variants.len() == VARIANTS_PER_BASE {
                    let done = self.open.take().expect("checked above");
                    self.deletable.extend(done.variants);
                    self.deletable.push_back(done.base);
                }
                Ok((took, probe_query(bin, bounds), Expect::Present(id)))
            }
            Write::Delete => {
                let id = self.deletable.pop_front().ok_or("nothing left to delete")?;
                let shard = self.db.shard_storage(self.db.shard_of(id));
                let (bin, bounds) = match self.db.stored_kind(id).map_err(|e| e.to_string())? {
                    StoredKind::Binary => {
                        let histogram = shard.histogram(id).map_err(|e| e.to_string())?;
                        self.binary_probe(&histogram)
                    }
                    StoredKind::Edited => {
                        let sequence = shard.edit_sequence(id).ok_or("sequence vanished")?;
                        self.edited_probe(&sequence)?
                    }
                };
                let start = Instant::now();
                let outcome = self.db.delete(id);
                let took = start.elapsed().as_nanos() as u64;
                outcome.map_err(|e| e.to_string())?;
                self.live.borrow_mut().remove(&id);
                Ok((took, probe_query(bin, bounds), Expect::Absent(id)))
            }
        }
    }

    fn round(&mut self, ops: usize) -> Result<RoundStat, String> {
        // Fresh images are generated before the clock starts.
        let needed = ops / (WRITE_EVERY as usize * WRITE_CYCLE.len()) + 2;
        if self.fresh.len() < needed {
            let more = needed - self.fresh.len();
            self.fresh.extend(dataset::generate(
                Dataset::Selective,
                self.seed,
                self.next_fresh,
                more,
            ));
            self.next_fresh += more as u64;
        }
        let mut failed = 0;
        let mut busy_ns = 0u64;
        let mut query_latencies_ns = Vec::with_capacity(ops);
        let mut results = 0u64;
        let mut pending: Option<(ColorRangeQuery, Expect)> = None;
        let cpu0 = cpu_seconds();
        for _ in 0..ops {
            let position = self.op_counter;
            self.op_counter += 1;
            if position % WRITE_EVERY == WRITE_EVERY - 1 {
                let kind = WRITE_CYCLE[(position / WRITE_EVERY) as usize % WRITE_CYCLE.len()];
                match self.write(kind) {
                    Ok((took, query, expect)) => {
                        busy_ns += took;
                        pending = Some((query, expect));
                    }
                    Err(_) => failed += 1,
                }
                continue;
            }
            let (query, expect) = match pending.take() {
                Some((query, expect)) => (query, Some(expect)),
                None => (self.stream.next_query(), None),
            };
            let (reply, rtt) = self
                .conn
                .range(wire_request(&query, QueryPlan::Indexed))
                .map_err(|e| e.to_string())?;
            let rtt = rtt.as_nanos() as u64;
            busy_ns += rtt;
            query_latencies_ns.push(rtt);
            self.query_counter += 1;
            let Ok(ids) = reply else {
                failed += 1;
                continue;
            };
            results += ids.len() as u64;
            // Each query must observe the write before it.
            let observed = match expect {
                Some(Expect::Present(id)) => ids.contains(&id.raw()),
                Some(Expect::Absent(id)) => !ids.contains(&id.raw()),
                None => true,
            };
            if !observed
                || (self.query_counter.is_multiple_of(CHECK_EVERY)
                    && !matches(self.db, &query, ids))
            {
                failed += 1;
            }
        }
        Ok(RoundStat::new(
            busy_ns as f64 / 1e9,
            cpu_seconds() - cpu0,
            query_latencies_ns,
            results,
            failed,
        ))
    }
}
