//! Property tests for the bound-interval index: on random databases, the
//! `Indexed` plan must return exactly the result set of the RBM and BWM
//! plans, and it must keep doing so *immediately*
//! after inserts and deletes (the epoch discipline: a mutation can never
//! leave the served index stale).

use mmdbms::prelude::*;
use mmdbms::MultimediaDatabase;
use proptest::prelude::*;

const W: i64 = 24;
const H: i64 = 16;

const PALETTE: [Rgb; 5] = [
    Rgb::RED,
    Rgb::GREEN,
    Rgb::BLUE,
    Rgb::WHITE,
    Rgb::new(0xCE, 0x11, 0x26),
];

/// One operation of a randomly generated variant sequence.
#[derive(Clone, Debug)]
enum Op {
    /// Define a region, then recolor `from` to `to` inside it.
    Recolor {
        x0: i64,
        y0: i64,
        w: i64,
        h: i64,
        from: usize,
        to: usize,
    },
    /// Whole-image blur (a bound-widening Combine).
    Blur,
    /// Merge another image into this one (non-bound-widening; exercises
    /// merge-target bounds).
    Merge,
}

/// A base image: horizontal stripes of two palette colors.
#[derive(Clone, Debug)]
struct BaseSpec {
    top: usize,
    bottom: usize,
    split: i64,
}

#[derive(Clone, Debug)]
struct QuerySpec {
    color: usize,
    pct_min: f64,
    pct_max: f64,
}

fn arb_base() -> impl Strategy<Value = BaseSpec> {
    (0usize..PALETTE.len(), 0usize..PALETTE.len(), 1i64..H)
        .prop_map(|(top, bottom, split)| BaseSpec { top, bottom, split })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0i64..W - 1,
            0i64..H - 1,
            1i64..W,
            1i64..H,
            0usize..PALETTE.len(),
            0usize..PALETTE.len(),
        )
            .prop_map(|(x0, y0, w, h, from, to)| Op::Recolor {
                x0,
                y0,
                w,
                h,
                from,
                to
            }),
        Just(Op::Blur),
        Just(Op::Merge),
    ]
}

/// A window `[lo, lo + width]`, wide (0.05 to 1) or narrow (0 to
/// 0.0025, under one pixel of a base's 384), or "at least" / "at most"
/// `lo`. Half the time `lo` is a base's exact fraction, so a narrow window
/// can still hold a binary image.
fn arb_query() -> impl Strategy<Value = QuerySpec> {
    let pixels = (W * H) as u32;
    let lo = prop_oneof![
        0.0f64..0.6,
        (0..pixels * 3 / 5).prop_map(move |k| f64::from(k) / f64::from(pixels))
    ];
    let width = prop_oneof![0.05f64..1.0, 0.0f64..=0.0025];
    (0usize..PALETTE.len(), lo, width, 0u8..4).prop_map(|(color, lo, width, shape)| {
        let (pct_min, pct_max) = match shape {
            0 => (lo, 1.0),
            1 => (0.0, lo),
            _ => (lo, (lo + width).min(1.0)),
        };
        QuerySpec {
            color,
            pct_min,
            pct_max,
        }
    })
}

/// `PROPTEST_CASES` when set (a deeper CI run), else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn raster_of(spec: &BaseSpec) -> RasterImage {
    let mut img = RasterImage::filled(W as u32, H as u32, PALETTE[spec.bottom]).unwrap();
    mmdb_imaging::draw::fill_rect(&mut img, &Rect::new(0, 0, W, spec.split), PALETTE[spec.top]);
    img
}

fn sequence_of(base: ImageId, ops: &[Op], merge_target: ImageId) -> EditSequence {
    let mut b = EditSequence::builder(base);
    for op in ops {
        b = match *op {
            Op::Recolor {
                x0,
                y0,
                w,
                h,
                from,
                to,
            } => b
                .define(Rect::new(x0, y0, (x0 + w).min(W), (y0 + h).min(H)))
                .modify(PALETTE[from], PALETTE[to]),
            Op::Blur => b.blur(),
            Op::Merge => b.merge_into(merge_target, 0, 0),
        };
    }
    b.build()
}

/// All three scan-equivalent plans agree on every query.
fn assert_plans_agree(db: &MultimediaDatabase, queries: &[QuerySpec]) {
    for spec in queries {
        let query =
            ColorRangeQuery::new(db.bin_of(PALETTE[spec.color]), spec.pct_min, spec.pct_max);
        let rbm = db
            .query_range_with_plan(&query, QueryPlan::Rbm)
            .unwrap()
            .sorted_results();
        let bwm = db
            .query_range_with_plan(&query, QueryPlan::Bwm)
            .unwrap()
            .sorted_results();
        let indexed = db
            .query_range_with_plan(&query, QueryPlan::Indexed)
            .unwrap()
            .sorted_results();
        assert_eq!(rbm, bwm, "RBM vs BWM on {query:?}");
        assert_eq!(rbm, indexed, "RBM vs Indexed on {query:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    #[test]
    fn indexed_plan_matches_scans_through_mutations(
        bases in proptest::collection::vec(arb_base(), 2..4),
        variants in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 1..5), 2..6),
        late_variant in proptest::collection::vec(arb_op(), 1..5),
        queries in proptest::collection::vec(arb_query(), 1..5),
    ) {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let base_ids: Vec<ImageId> = bases
            .iter()
            .map(|b| db.insert_image(&raster_of(b)).unwrap())
            .collect();
        let mut edited_ids = Vec::new();
        for (i, ops) in variants.iter().enumerate() {
            let base = base_ids[i % base_ids.len()];
            // Merges target a *different* base, so an entry's bounds read
            // two binary images.
            let target = base_ids[(i + 1) % base_ids.len()];
            edited_ids.push(db.insert_edited(sequence_of(base, ops, target)).unwrap());
        }

        assert_plans_agree(&db, &queries);

        // Immediately after an insert the index must re-sync, never serve
        // the pre-insert view.
        let late = db
            .insert_edited(sequence_of(base_ids[0], &late_variant, base_ids[1 % base_ids.len()]))
            .unwrap();
        assert_plans_agree(&db, &queries);

        // ...and immediately after deletes (which also shrink BWM clusters
        // and drop the deleted images' entries).
        db.delete(late).unwrap();
        if let Some(&victim) = edited_ids.first() {
            db.delete(victim).unwrap();
        }
        assert_plans_agree(&db, &queries);
    }
}
