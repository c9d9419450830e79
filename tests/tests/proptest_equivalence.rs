//! Property test at the whole-system level: over random augmented databases
//! and random queries, RBM, parallel RBM and BWM return identical result
//! sets, and the instantiation ground truth is always contained in them.

use mmdb_editops::{EditOp, EditSequence, ImageId, Matrix3};
use mmdb_histogram::RgbQuantizer;
use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
use mmdb_query::QueryProcessor;
use mmdb_rules::ColorRangeQuery;
use mmdb_storage::StorageEngine;
use proptest::prelude::*;

const PALETTE: [Rgb; 5] = [
    Rgb::new(255, 0, 0),
    Rgb::new(0, 0, 255),
    Rgb::new(0, 200, 0),
    Rgb::new(255, 255, 255),
    Rgb::new(0, 0, 0),
];

fn arb_color() -> impl Strategy<Value = Rgb> {
    (0..PALETTE.len()).prop_map(|i| PALETTE[i])
}

fn arb_base() -> impl Strategy<Value = RasterImage> {
    (
        6i64..18,
        6i64..18,
        arb_color(),
        proptest::collection::vec((0i64..12, 0i64..12, 1i64..10, 1i64..10, arb_color()), 0..3),
    )
        .prop_map(|(w, h, bg, rects)| {
            let mut img = RasterImage::filled(w as u32, h as u32, bg).unwrap();
            for (x, y, rw, rh, c) in rects {
                draw::fill_rect(&mut img, &Rect::from_origin_size(x, y, rw, rh), c);
            }
            img
        })
}

/// Ops parameterized over base indices 0..n_bases (mapped to real ids at
/// insertion time).
#[derive(Clone, Debug)]
enum OpSpec {
    Define(i64, i64, i64, i64),
    Modify(Rgb, Rgb),
    Blur,
    Translate(i64, i64),
    Rotate(u8),
    Scale2x,
    Crop(i64, i64, i64, i64),
    MergeInto(usize, i64, i64),
}

fn arb_op_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (0i64..14, 0i64..14, 1i64..10, 1i64..10)
            .prop_map(|(x, y, w, h)| OpSpec::Define(x, y, w, h)),
        (arb_color(), arb_color()).prop_map(|(a, b)| OpSpec::Modify(a, b)),
        Just(OpSpec::Blur),
        (-5i64..5, -5i64..5).prop_map(|(dx, dy)| OpSpec::Translate(dx, dy)),
        (0u8..8).prop_map(OpSpec::Rotate),
        Just(OpSpec::Scale2x),
        (0i64..8, 0i64..8, 2i64..8, 2i64..8).prop_map(|(x, y, w, h)| OpSpec::Crop(x, y, w, h)),
        (any::<usize>(), 0i64..10, 0i64..10).prop_map(|(t, x, y)| OpSpec::MergeInto(t, x, y)),
    ]
}

fn realize(spec: &OpSpec, bases: &[ImageId]) -> Vec<EditOp> {
    match spec {
        OpSpec::Define(x, y, w, h) => vec![EditOp::Define {
            region: Rect::from_origin_size(*x, *y, *w, *h),
        }],
        OpSpec::Modify(a, b) => vec![EditOp::Modify { from: *a, to: *b }],
        OpSpec::Blur => vec![EditOp::box_blur()],
        OpSpec::Translate(dx, dy) => vec![EditOp::Mutate {
            matrix: Matrix3::translation(*dx as f64, *dy as f64),
        }],
        OpSpec::Rotate(octant) => vec![EditOp::Mutate {
            matrix: Matrix3::rotation_about(*octant as f64 * std::f64::consts::FRAC_PI_4, 6.0, 6.0),
        }],
        OpSpec::Scale2x => vec![
            EditOp::define_all(),
            EditOp::Mutate {
                matrix: Matrix3::scale(2.0, 2.0),
            },
        ],
        OpSpec::Crop(x, y, w, h) => vec![
            EditOp::Define {
                region: Rect::from_origin_size(*x, *y, *w, *h),
            },
            EditOp::Merge {
                target: None,
                xp: 0,
                yp: 0,
            },
        ],
        OpSpec::MergeInto(t, x, y) => vec![EditOp::Merge {
            target: Some(bases[t % bases.len()]),
            xp: *x,
            yp: *y,
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rbm_bwm_equivalence_over_random_databases(
        bases in proptest::collection::vec(arb_base(), 1..5),
        edits in proptest::collection::vec(
            (any::<usize>(), proptest::collection::vec(arb_op_spec(), 0..5)),
            0..10
        ),
        queries in proptest::collection::vec(
            (0..PALETTE.len(), 0.0f64..0.9, 0.1f64..1.0),
            1..6
        ),
    ) {
        let db = StorageEngine::in_memory(Box::new(RgbQuantizer::default_64()));
        let base_ids: Vec<ImageId> = bases
            .iter()
            .map(|img| db.insert_binary(img).unwrap())
            .collect();
        for (base_sel, specs) in &edits {
            let base = base_ids[base_sel % base_ids.len()];
            let ops: Vec<EditOp> = specs.iter().flat_map(|s| realize(s, &base_ids)).collect();
            // The storage engine validates on insert: structurally invalid
            // scripts (e.g. crop of an off-canvas region) are refused, so
            // everything stored is processable by every method.
            match db.insert_edited(EditSequence::new(base, ops)) {
                Ok(id) => {
                    // Validation implies instantiability.
                    prop_assert!(db.raster(id).is_ok(), "validated sequence must instantiate");
                }
                Err(mmdb_storage::StorageError::InvalidSequence(_)) => {}
                Err(other) => prop_assert!(false, "unexpected insert error: {other}"),
            }
        }

        let qp = QueryProcessor::new(&db);
        for (color_idx, lo, span) in &queries {
            use mmdb_histogram::Quantizer;
            let bin = RgbQuantizer::default_64().bin_of(PALETTE[*color_idx]);
            let hi = (lo + span).min(1.0);
            let q = ColorRangeQuery::new(bin, *lo, hi);
            // Insert-time validation guarantees every plan succeeds.
            let r = qp.range_rbm(&q).expect("validated database: RBM succeeds");
            let b = qp.range_bwm(&q).expect("validated database: BWM succeeds");
            prop_assert_eq!(r.sorted_results(), b.sorted_results());
            let truth = qp
                .range_instantiate(&q)
                .expect("validated database: instantiation succeeds");
            for id in truth.sorted_results() {
                prop_assert!(r.results.contains(&id), "false negative {}", id);
            }
        }
    }
}
