//! Scatter-gather property tests for the sharded engine: at shard counts
//! {1, 2, 4, 7}, range and knn answers over the partitioned catalog must
//! equal a single-shard oracle holding the same content — under concurrent
//! churn, with the plan-equivalence suite (RBM ≡ BWM ≡ Indexed ≡
//! Instantiate) holding at quiescence — and an on-disk sharded database
//! that crashes with a dirty WAL must recover to exactly the state an
//! in-memory replay of the same history reaches, at every shard count.
//!
//! Id spaces differ across shard counts (each shard allocates its own
//! congruence class, binary inserts land round-robin), so cross-database
//! comparison goes through a *birth key*: the `(thread, insert-ordinal)`
//! of each image, which is deterministic per replay regardless of shard
//! topology or thread interleaving — churn threads only ever derive edits
//! from their own bases, so image *content* is interleaving-independent.

use mmdbms::prelude::*;
use mmdbms::storage::DurabilityOptions;
use mmdbms::MultimediaDatabase;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

const W: i64 = 16;
const H: i64 = 12;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

const PALETTE: [Rgb; 4] = [Rgb::RED, Rgb::GREEN, Rgb::BLUE, Rgb::new(0xCE, 0x11, 0x26)];

/// One step of a random mutation history (indices taken modulo the pools,
/// so every history is valid in any order).
#[derive(Clone, Debug)]
enum Mutation {
    InsertBase {
        top: usize,
        bottom: usize,
        split: i64,
    },
    InsertVariant {
        base_ix: usize,
        from: usize,
        to: usize,
        blur: bool,
    },
    Delete {
        victim_ix: usize,
    },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let n = PALETTE.len();
    prop_oneof![
        2 => (0..n, 0..n, 1i64..H)
            .prop_map(|(top, bottom, split)| Mutation::InsertBase { top, bottom, split }),
        3 => (0..8usize, 0..n, 0..n, 0..2usize)
            .prop_map(|(base_ix, from, to, blur)| Mutation::InsertVariant {
                base_ix, from, to, blur: blur == 1
            }),
        1 => (0..8usize).prop_map(|victim_ix| Mutation::Delete { victim_ix }),
    ]
}

#[derive(Clone, Debug)]
struct QuerySpec {
    color: usize,
    lo: f64,
    width: f64,
}

fn arb_query() -> impl Strategy<Value = QuerySpec> {
    (0usize..PALETTE.len(), 0.0f64..0.6, 0.05f64..1.0).prop_map(|(color, lo, width)| QuerySpec {
        color,
        lo,
        width,
    })
}

/// Thread-local id pools; edits only ever reference this thread's bases,
/// which keeps every image's content independent of cross-thread timing.
#[derive(Default)]
struct Pools {
    bases: Vec<ImageId>,
    edited: Vec<ImageId>,
}

/// Applies one mutation; returns the id born by an insert (`None` for
/// deletes and no-op deletes). Every replay — sharded, oracle, on-disk,
/// recovered — goes through this one function.
fn apply(db: &MultimediaDatabase, pools: &mut Pools, m: &Mutation) -> Option<ImageId> {
    match *m {
        Mutation::InsertBase { top, bottom, split } => {
            let mut img = RasterImage::filled(W as u32, H as u32, PALETTE[bottom]).unwrap();
            mmdb_imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, W, split), PALETTE[top]);
            let id = db.insert_image(&img).unwrap();
            pools.bases.push(id);
            Some(id)
        }
        Mutation::InsertVariant {
            base_ix,
            from,
            to,
            blur,
        } => {
            if pools.bases.is_empty() {
                // Degenerate prefix: promote to a base insert so replays
                // never depend on generation order.
                return apply(
                    db,
                    pools,
                    &Mutation::InsertBase {
                        top: from,
                        bottom: to,
                        split: H / 2,
                    },
                );
            }
            let base = pools.bases[base_ix % pools.bases.len()];
            let mut b = EditSequence::builder(base)
                .define(Rect::new(0, 0, W / 2, H))
                .modify(PALETTE[from], PALETTE[to]);
            if blur {
                b = b.blur();
            }
            let id = db.insert_edited(b.build()).unwrap();
            pools.edited.push(id);
            Some(id)
        }
        Mutation::Delete { victim_ix } => {
            if pools.edited.is_empty() {
                return None; // no-op on every replay
            }
            let victim = pools.edited.swap_remove(victim_ix % pools.edited.len());
            db.delete(victim).unwrap();
            None
        }
    }
}

/// Birth key: which thread's which insert produced an image.
type Key = (usize, usize);

/// Replays one thread's history, recording id → birth key.
fn replay_thread(
    db: &MultimediaDatabase,
    thread: usize,
    history: &[Mutation],
) -> Vec<(ImageId, Key)> {
    let mut pools = Pools::default();
    let mut born = Vec::new();
    for m in history {
        if let Some(id) = apply(db, &mut pools, m) {
            born.push((id, (thread, born.len())));
        }
    }
    born
}

/// Sequential replay of every thread's history (the oracle path); the
/// resulting catalog content is identical to a concurrent replay because
/// the per-thread histories are independent.
fn replay_all(db: &MultimediaDatabase, histories: &[Vec<Mutation>]) -> HashMap<ImageId, Key> {
    let mut map = HashMap::new();
    for (t, history) in histories.iter().enumerate() {
        map.extend(replay_thread(db, t, history));
    }
    map
}

/// Translates a result id set into sorted birth keys for cross-database
/// comparison.
fn keys_of(map: &HashMap<ImageId, Key>, ids: &[ImageId], ctx: &str) -> Vec<Key> {
    let mut keys: Vec<Key> = ids
        .iter()
        .map(|id| {
            *map.get(id)
                .unwrap_or_else(|| panic!("{ctx}: unknown id {id:?}"))
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn quantizer() -> Box<dyn Quantizer> {
    Box::new(RgbQuantizer::default_64())
}

/// `PROPTEST_CASES` when set (a deeper CI run), else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn query_of(db: &MultimediaDatabase, spec: &QuerySpec) -> ColorRangeQuery {
    ColorRangeQuery::new(
        db.bin_of(PALETTE[spec.color]),
        spec.lo,
        (spec.lo + spec.width).min(1.0),
    )
}

/// The quiesced equivalence check. Two oracles, matching the plans'
/// semantics: the bound-based plans (RBM ≡ BWM ≡ Indexed — a no-false-
/// negative superset of ground truth, with per-image bound decisions that
/// do not depend on shard topology) must equal the single-shard RBM scan,
/// and the sharded Instantiate plan must equal the single-shard exact
/// scan. Both checks translate ids through birth keys.
fn assert_range_equiv(
    sharded: &MultimediaDatabase,
    sharded_map: &HashMap<ImageId, Key>,
    oracle: &MultimediaDatabase,
    oracle_map: &HashMap<ImageId, Key>,
    queries: &[QuerySpec],
    ctx: &str,
) {
    let run = |db: &MultimediaDatabase,
               map: &HashMap<ImageId, Key>,
               spec: &QuerySpec,
               plan: QueryPlan| {
        keys_of(
            map,
            &db.query_range_with_plan(&query_of(db, spec), plan)
                .unwrap()
                .sorted_results(),
            ctx,
        )
    };
    for spec in queries {
        let want_scan = run(oracle, oracle_map, spec, QueryPlan::Rbm);
        for plan in [QueryPlan::Rbm, QueryPlan::Bwm, QueryPlan::Indexed] {
            let got = run(sharded, sharded_map, spec, plan);
            assert_eq!(
                got, want_scan,
                "{ctx}: sharded {plan:?} diverges from oracle RBM scan on {spec:?}"
            );
        }
        let want_truth = run(oracle, oracle_map, spec, QueryPlan::Instantiate);
        let got = run(sharded, sharded_map, spec, QueryPlan::Instantiate);
        assert_eq!(
            got, want_truth,
            "{ctx}: sharded Instantiate diverges from oracle exact scan on {spec:?}"
        );
    }
}

/// Knn equivalence: with k covering the whole catalog the merged per-shard
/// rankings must pair every image with exactly the oracle's distance, and
/// at small k the scatter-gather top-k must select the k smallest
/// distances of the full oracle ranking (ties may resolve to different
/// ids across topologies, so the cut is compared by distance).
fn assert_knn_equiv(
    sharded: &MultimediaDatabase,
    sharded_map: &HashMap<ImageId, Key>,
    oracle: &MultimediaDatabase,
    oracle_map: &HashMap<ImageId, Key>,
    probe: &RasterImage,
    ctx: &str,
) {
    let total = oracle.ids().len();
    let full = |db: &MultimediaDatabase, map: &HashMap<ImageId, Key>| -> Vec<(Key, f64)> {
        let mut ranked: Vec<(Key, f64)> = db
            .similar_to_augmented(probe, total + 4)
            .unwrap()
            .neighbours
            .into_iter()
            .map(|(distance, id)| {
                (
                    *map.get(&id)
                        .unwrap_or_else(|| panic!("{ctx}: unknown id {id:?}")),
                    distance,
                )
            })
            .collect();
        ranked.sort_by_key(|a| a.0);
        ranked
    };
    let got = full(sharded, sharded_map);
    let want = full(oracle, oracle_map);
    assert_eq!(got, want, "{ctx}: full knn ranking diverges from oracle");

    if total >= 3 {
        let k = 3;
        let mut got_top: Vec<f64> = sharded
            .similar_to_augmented(probe, k)
            .unwrap()
            .neighbours
            .into_iter()
            .map(|(distance, _)| distance)
            .collect();
        got_top.sort_by(f64::total_cmp);
        let mut all: Vec<f64> = want.iter().map(|&(_, d)| d).collect();
        all.sort_by(f64::total_cmp);
        all.truncate(k);
        assert_eq!(
            got_top, all,
            "{ctx}: sharded top-{k} is not the {k} smallest oracle distances"
        );
    }
}

fn raster_of(top: usize, bottom: usize, split: i64) -> RasterImage {
    let mut img = RasterImage::filled(W as u32, H as u32, PALETTE[bottom]).unwrap();
    mmdb_imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, W, split), PALETTE[top]);
    img
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mmdb_shard_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Small WAL segments so histories cross rotation boundaries; no
/// acknowledgment fsyncs (irrelevant to logical recovery) and no
/// background snapshots (they would race the crash point).
fn test_opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: mmdbms::durable::FsyncPolicy::Never,
        segment_bytes: 2048,
        snapshot_every: u64::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(6)))]

    /// Scatter-gather range and knn under concurrent churn: mutation
    /// threads race query threads on the sharded database; at quiescence
    /// every plan's answer (translated through birth keys) equals the
    /// single-shard oracle's full scan, at every shard count.
    #[test]
    fn sharded_queries_match_single_shard_oracle_under_churn(
        histories in proptest::collection::vec(
            proptest::collection::vec(arb_mutation(), 3..8), 2..4),
        queries in proptest::collection::vec(arb_query(), 1..4),
        probe_spec in (0usize..PALETTE.len(), 0usize..PALETTE.len(), 1i64..H),
    ) {
        let probe = raster_of(probe_spec.0, probe_spec.1, probe_spec.2);
        let oracle = MultimediaDatabase::in_memory(quantizer());
        let oracle_map = replay_all(&oracle, &histories);

        for &shards in &SHARD_COUNTS {
            let db = MultimediaDatabase::in_memory_sharded(quantizer(), shards);
            prop_assert_eq!(db.shard_count(), shards);
            let done = AtomicBool::new(false);
            let mut sharded_map = HashMap::new();
            std::thread::scope(|scope| {
                let churn: Vec<_> = histories
                    .iter()
                    .enumerate()
                    .map(|(t, history)| {
                        let db = &db;
                        scope.spawn(move || replay_thread(db, t, history))
                    })
                    .collect();
                // At least one full round always runs (`stop` is sampled
                // *before* the round), even when short churn histories
                // finish faster than the reader's first pass.
                let reader = scope.spawn(|| loop {
                    let stop = done.load(Ordering::Relaxed);
                    {
                        for spec in &queries {
                            let query = query_of(&db, spec);
                            // A query racing the churn never fails: scans and
                            // index syncs each read one view per shard, and
                            // the k-NN skips an image deleted after listing.
                            for plan in [QueryPlan::Rbm, QueryPlan::Bwm, QueryPlan::Indexed] {
                                db.query_range_with(&query, plan, RuleProfile::Conservative)
                                    .unwrap();
                            }
                        }
                        db.similar_to_augmented(&probe, 3).unwrap();
                    }
                    if stop {
                        break;
                    }
                });
                for handle in churn {
                    sharded_map.extend(handle.join().expect("churn thread"));
                }
                done.store(true, Ordering::Relaxed);
                reader.join().expect("query thread");
            });

            let ctx = format!("{shards} shard(s)");
            prop_assert_eq!(db.ids().len(), oracle.ids().len(), "catalog size: {}", &ctx);
            assert_range_equiv(&db, &sharded_map, &oracle, &oracle_map, &queries, &ctx);
            assert_knn_equiv(&db, &sharded_map, &oracle, &oracle_map, &probe, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(4)))]

    /// Crash-recovery equivalence at every shard count: an on-disk sharded
    /// database dropped with a dirty WAL (optionally with a snapshot
    /// flushed mid-history, exercising per-shard snapshot-plus-tail
    /// recovery) reopens to exactly the state an in-memory replay of the
    /// same history reaches — same ids, same answers, plans agreeing.
    #[test]
    fn sharded_crash_recovery_matches_in_memory_replay(
        history in proptest::collection::vec(arb_mutation(), 3..8),
        queries in proptest::collection::vec(arb_query(), 1..3),
        flush_frac in 0.0f64..1.0,
    ) {
        let histories = vec![history];
        for &shards in &SHARD_COUNTS {
            let tmp = TempDir::new("crash");
            let data = tmp.0.join("db");
            let db = MultimediaDatabase::create_sharded_with(
                &data, quantizer(), test_opts(), shards).unwrap();
            let flush_at = (flush_frac * histories[0].len() as f64) as usize;
            let mut pools = Pools::default();
            for (i, m) in histories[0].iter().enumerate() {
                apply(&db, &mut pools, m);
                if i == flush_at {
                    db.flush().unwrap();
                }
            }
            drop(db); // crash: WAL tail not snapshotted

            let recovered = MultimediaDatabase::open_with(&data, test_opts()).unwrap();
            prop_assert_eq!(
                recovered.shard_count(), shards,
                "manifest must restore the shard topology"
            );
            let oracle = MultimediaDatabase::in_memory_sharded(quantizer(), shards);
            let oracle_map = replay_all(&oracle, &histories);

            // Same shard count and a sequential history: id allocation is
            // deterministic, so the recovered catalog matches id-for-id.
            let ctx = format!("recovered at {shards} shard(s)");
            prop_assert_eq!(recovered.ids(), oracle.ids(), "catalog ids: {}", &ctx);
            let recovered_map: HashMap<ImageId, Key> = oracle_map.clone();
            assert_range_equiv(&recovered, &recovered_map, &oracle, &oracle_map, &queries, &ctx);
        }
    }
}
