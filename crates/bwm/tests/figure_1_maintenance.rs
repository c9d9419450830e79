//! Figure 1 maintained is Figure 1 built: after any sequence of
//! `insert_binary`, `insert_edited`, `remove_edited`, `remove_binary` and
//! `absorb`, with scans in between that fill cluster blocks a later write
//! drops, the base-count columns, the clusters and — once a scan has filled
//! them on both sides — the cluster blocks equal those of a fresh
//! `BwmStructure::build` over the same images, and RBM and BWM scans over
//! either give the same results and work counters.
//!
//! `PROPTEST_CASES` overrides the case count.

use mmdb_bwm::{execute, BwmStructure, Method, QueryCtx, QueryOutcome, SequenceStore};
use mmdb_editops::{EditSequence, ImageId};
use mmdb_histogram::{ColorHistogram, Quantizer, RgbQuantizer};
use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
use mmdb_rules::{
    ColorRangeQuery, ImageInfo, InfoResolver, MapInfoResolver, RuleEngine, RuleProfile,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const COLORS: [Rgb; 4] = [Rgb::RED, Rgb::GREEN, Rgb::BLUE, Rgb::WHITE];

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

/// A catalog of binary images and stored sequences, as a shard holds it.
#[derive(Default)]
struct Store {
    sequences: HashMap<ImageId, Arc<EditSequence>>,
    infos: MapInfoResolver,
    binary: Vec<ImageId>,
}

impl SequenceStore for Store {
    fn sequence(&self, id: ImageId) -> Option<Arc<EditSequence>> {
        self.sequences.sequence(id)
    }
}

impl InfoResolver for Store {
    fn info(&self, id: ImageId) -> Option<ImageInfo> {
        self.infos.info(id)
    }
}

impl Store {
    /// True when some stored sequence edits or pastes into `id`.
    fn named(&self, id: ImageId) -> bool {
        let names = |s: &Arc<EditSequence>| s.base == id || s.merge_targets().contains(&id);
        self.sequences.values().any(names)
    }

    fn edited(&self) -> Vec<ImageId> {
        let mut ids: Vec<ImageId> = self.sequences.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

/// One write or scan. Indices pick among the images present, modulo their
/// number; ids are drawn at random, so bases arrive out of order.
#[derive(Clone, Debug)]
enum Op {
    /// A binary image `side`×`side`, `red` of its rows red over `color`.
    Binary {
        id: u64,
        side: u32,
        red: u32,
        color: usize,
    },
    /// A recoloring and blur of base `base`, or — `paste` — a paste of it
    /// into binary image `target`, which is unclassified.
    Edited {
        id: u64,
        base: usize,
        paste: Option<usize>,
        from: usize,
        to: usize,
    },
    RemoveEdited(usize),
    /// Removes the `n`-th binary image that nothing names.
    RemoveBinary(usize),
    /// A second structure over `count` new bases, each with one variant,
    /// taken over with `absorb`.
    Absorb {
        first: u64,
        count: u64,
    },
    Scan {
        method: bool,
        color: usize,
        lo: u8,
        hi: u8,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u64..400, 3u32..9, 0u32..9, 0..COLORS.len())
            .prop_map(|(id, side, red, color)| Op::Binary { id, side, red, color }),
        5 => (1u64..400, 0usize..64, 0u8..4, 0usize..64, 0..COLORS.len(), 0..COLORS.len())
            .prop_map(|(id, base, pick, target, from, to)| Op::Edited {
                id,
                base,
                paste: (pick == 0).then_some(target),
                from,
                to,
            }),
        2 => (0usize..64).prop_map(Op::RemoveEdited),
        1 => (0usize..64).prop_map(Op::RemoveBinary),
        1 => (1u64..400, 1u64..4).prop_map(|(first, count)| Op::Absorb { first, count }),
        2 => (0u8..2, 0..COLORS.len(), 0u8..11, 0u8..11).prop_map(|(m, color, a, b)| Op::Scan {
            method: m == 0,
            color,
            lo: a.min(b),
            hi: a.max(b),
        }),
    ]
}

fn binary_info(side: u32, red: u32, color: usize) -> ImageInfo {
    let quant = RgbQuantizer::default_64();
    let mut img = RasterImage::filled(side, side, COLORS[color]).unwrap();
    draw::fill_rect(
        &mut img,
        &Rect::new(0, 0, side as i64, red as i64),
        Rgb::RED,
    );
    ImageInfo::new(ColorHistogram::extract(&img, &quant), side, side)
}

fn scan(
    structure: &BwmStructure,
    store: &Store,
    method: Method,
    q: &ColorRangeQuery,
) -> QueryOutcome {
    let quant = RgbQuantizer::default_64();
    let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
    let mut ctx = QueryCtx::default();
    execute(method, structure, q, &engine, store, store, &mut ctx)
        .expect("the store holds every name");
    ctx.into_outcome()
}

/// Applies `ops` to a structure and its store, as a shard's writes would.
fn apply(ops: &[Op]) -> (BwmStructure, Store) {
    let (mut s, mut store) = (BwmStructure::new(), Store::default());
    let taken = |store: &Store, id: ImageId| {
        store.infos.info(id).is_some() || store.sequences.contains_key(&id)
    };
    for op in ops {
        match *op {
            Op::Binary {
                id,
                side,
                red,
                color,
            } => {
                let id = ImageId::new(id);
                if !taken(&store, id) {
                    let info = binary_info(side, red.min(side), color);
                    s.insert_binary(id, Arc::clone(&info.histogram));
                    store.infos.insert(id, info);
                    store.binary.push(id);
                }
            }
            Op::Edited {
                id,
                base,
                paste,
                from,
                to,
            } => {
                let id = ImageId::new(id);
                if taken(&store, id) || store.binary.is_empty() {
                    continue;
                }
                let pick = |n: usize| store.binary[n % store.binary.len()];
                let seq = EditSequence::builder(pick(base)).define(Rect::new(0, 0, 3, 2));
                let seq = match paste {
                    Some(target) => seq.merge_into(pick(target), 1, 1),
                    None => seq.modify(COLORS[from], COLORS[to]).blur(),
                }
                .build();
                s.insert_edited(id, &seq);
                store.sequences.insert(id, Arc::new(seq));
            }
            Op::RemoveEdited(n) => {
                let edited = store.edited();
                if let Some(&id) = edited.get(n % edited.len().max(1)) {
                    let seq = store.sequences.remove(&id).unwrap();
                    s.remove_edited(id, seq.base);
                }
            }
            Op::RemoveBinary(n) => {
                let free: Vec<ImageId> = store
                    .binary
                    .iter()
                    .copied()
                    .filter(|&b| !store.named(b))
                    .collect();
                if let Some(&id) = free.get(n % free.len().max(1)) {
                    s.remove_binary(id);
                    store.binary.retain(|&b| b != id);
                    store.infos = rebuilt(&store.infos, &store.binary);
                }
            }
            Op::Absorb { first, count } => {
                let mut other = BwmStructure::new();
                for k in 0..count {
                    let (base, variant) = (
                        ImageId::new(first + 1000 * (k + 1)),
                        ImageId::new(first + 1000 * (k + 1) + 500),
                    );
                    if taken(&store, base) || taken(&store, variant) {
                        continue;
                    }
                    let info = binary_info(4, k as u32, k as usize % COLORS.len());
                    other.insert_binary(base, Arc::clone(&info.histogram));
                    store.infos.insert(base, info);
                    store.binary.push(base);
                    let seq = EditSequence::builder(base).blur().build();
                    other.insert_edited(variant, &seq);
                    store.sequences.insert(variant, Arc::new(seq));
                }
                s.absorb(other);
            }
            Op::Scan {
                method,
                color,
                lo,
                hi,
            } => {
                let q = query(color, lo, hi);
                scan(
                    &s,
                    &store,
                    if method { Method::Bwm } else { Method::Rbm },
                    &q,
                );
            }
        }
    }
    (s, store)
}

/// `infos` restricted to `keep`.
fn rebuilt(infos: &MapInfoResolver, keep: &[ImageId]) -> MapInfoResolver {
    let mut out = MapInfoResolver::new();
    for &id in keep {
        out.insert(id, infos.info(id).unwrap());
    }
    out
}

fn query(color: usize, lo: u8, hi: u8) -> ColorRangeQuery {
    let bin = RgbQuantizer::default_64().bin_of(COLORS[color]);
    ColorRangeQuery::new(bin, f64::from(lo) / 10.0, f64::from(hi) / 10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn maintained_figure_1_equals_a_fresh_build(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let (maintained, store) = apply(&ops);
        let mut binary = store.binary.clone();
        binary.sort_unstable();
        let fresh = BwmStructure::build(binary, store.edited(), &store);
        let bins = RgbQuantizer::default_64().bin_count();
        for bin in 0..bins {
            prop_assert_eq!(maintained.base_counts(bin), fresh.base_counts(bin), "bin {}", bin);
        }
        prop_assert_eq!(maintained.base_totals(), fresh.base_totals());
        prop_assert!(maintained.clusters().eq(fresh.clusters()));
        prop_assert!(maintained.unclassified().eq(fresh.unclassified()));
        for color in 0..COLORS.len() {
            for (lo, hi) in [(0, 10), (0, 2), (3, 6), (8, 10)] {
                let q = query(color, lo, hi);
                for method in [Method::Rbm, Method::Bwm] {
                    let (a, b) = (scan(&maintained, &store, method, &q), scan(&fresh, &store, method, &q));
                    prop_assert_eq!(&a.results, &b.results, "{:?} {:?}", method, q);
                    prop_assert_eq!(a.stats, b.stats, "{:?} {:?}", method, q);
                }
            }
        }
        // RBM has compiled every block on both sides.
        prop_assert_eq!(maintained, fresh);
    }
}
