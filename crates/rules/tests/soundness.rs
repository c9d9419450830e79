//! Property tests: the conservative rule profile is *sound* — for any edit
//! sequence the instantiation engine accepts, the rule-derived bounds admit
//! the true per-bin pixel counts of the instantiated image. This is the
//! "no false negatives" guarantee of §3.2 of the paper.

use mmdb_editops::{EditOp, EditSequence, ImageId, InstantiationEngine, MapResolver, Matrix3};
use mmdb_histogram::{ColorHistogram, Quantizer, RgbQuantizer};
use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
use mmdb_rules::{ImageInfo, InfoResolver, MapInfoResolver, RuleEngine, RuleProfile};
use proptest::prelude::*;

/// A small saturated palette so bins have meaningful populations under the
/// 64-bin quantizer.
const PALETTE: [Rgb; 6] = [
    Rgb::new(255, 0, 0),
    Rgb::new(0, 255, 0),
    Rgb::new(0, 0, 255),
    Rgb::new(255, 255, 0),
    Rgb::new(255, 255, 255),
    Rgb::new(0, 0, 0),
];

fn arb_color() -> impl Strategy<Value = Rgb> {
    (0..PALETTE.len()).prop_map(|i| PALETTE[i])
}

/// Base images: solid background with up to three random palette rectangles.
fn arb_image(max_side: i64) -> impl Strategy<Value = RasterImage> {
    (
        6..max_side,
        6..max_side,
        arb_color(),
        proptest::collection::vec(
            (
                0..max_side,
                0..max_side,
                1..max_side,
                1..max_side,
                arb_color(),
            ),
            0..3,
        ),
    )
        .prop_map(|(w, h, bg, rects)| {
            let mut img = RasterImage::filled(w as u32, h as u32, bg).unwrap();
            for (x, y, rw, rh, c) in rects {
                draw::fill_rect(&mut img, &Rect::from_origin_size(x, y, rw, rh), c);
            }
            img
        })
}

fn arb_op(side: i64) -> impl Strategy<Value = EditOp> {
    prop_oneof![
        // Define — may exceed bounds (clipped) or be empty.
        (-4..side, -4..side, 0..side, 0..side).prop_map(|(x, y, w, h)| EditOp::Define {
            region: Rect::from_origin_size(x, y, w, h),
        }),
        // Modify between palette colors.
        (arb_color(), arb_color()).prop_map(|(from, to)| EditOp::Modify { from, to }),
        // Combine: box blur or a random non-negative kernel.
        Just(EditOp::box_blur()),
        proptest::collection::vec(0.0f32..3.0, 9).prop_map(|w| EditOp::Combine {
            weights: [w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]],
        }),
        // Mutate: integer translation.
        (-6i64..6, -6i64..6).prop_map(|(dx, dy)| EditOp::Mutate {
            matrix: Matrix3::translation(dx as f64, dy as f64),
        }),
        // Mutate: whole-image integer scale (exact under NN resampling).
        (1u32..3, 1u32..3).prop_map(|(sx, sy)| EditOp::Mutate {
            matrix: Matrix3::scale(sx as f64, sy as f64),
        }),
        // Mutate: fractional scale.
        (5u32..20, 5u32..20).prop_map(|(sx, sy)| EditOp::Mutate {
            matrix: Matrix3::scale(sx as f64 / 10.0, sy as f64 / 10.0),
        }),
        // Mutate: rotation about a point.
        (0u32..8, 0i64..16, 0i64..16).prop_map(|(octant, cx, cy)| EditOp::Mutate {
            matrix: Matrix3::rotation_about(
                octant as f64 * std::f64::consts::FRAC_PI_4,
                cx as f64,
                cy as f64,
            ),
        }),
        // Merge with NULL target (crop).
        Just(EditOp::Merge {
            target: None,
            xp: 0,
            yp: 0
        }),
        // Merge into the registered target image (id 2).
        (-5i64..30, -5i64..30).prop_map(|(xp, yp)| EditOp::Merge {
            target: Some(ImageId::new(2)),
            xp,
            yp,
        }),
    ]
}

fn arb_case() -> impl Strategy<Value = (RasterImage, RasterImage, EditSequence)> {
    (
        arb_image(24),
        arb_image(20),
        proptest::collection::vec(arb_op(24), 0..6),
    )
        .prop_map(|(base, target, ops)| (base, target, EditSequence::new(ImageId::new(1), ops)))
}

fn check_soundness(base: RasterImage, target: RasterImage, seq: EditSequence) {
    let quant = RgbQuantizer::default_64();

    let mut raster_resolver = MapResolver::new();
    raster_resolver.insert(ImageId::new(1), base.clone());
    raster_resolver.insert(ImageId::new(2), target.clone());

    let mut info_resolver = MapInfoResolver::new();
    info_resolver.insert(
        ImageId::new(1),
        ImageInfo::new(
            ColorHistogram::extract(&base, &quant),
            base.width(),
            base.height(),
        ),
    );
    info_resolver.insert(
        ImageId::new(2),
        ImageInfo::new(
            ColorHistogram::extract(&target, &quant),
            target.width(),
            target.height(),
        ),
    );

    let exec = InstantiationEngine::new(&raster_resolver);
    let rules = RuleEngine::new(&quant, RuleProfile::Conservative);

    match exec.instantiate(&seq) {
        Err(_) => {
            // If the executor rejects the sequence (e.g. crop of an empty
            // region), the rule engine must reject it too rather than emit
            // bogus bounds.
            assert!(
                rules.bounds(&seq, 0, &info_resolver).is_err(),
                "executor rejected the sequence but the rule engine bounded it"
            );
        }
        Ok(img) => {
            let truth = ColorHistogram::extract(&img, &quant);
            for bin in 0..quant.bin_count() {
                let b = rules
                    .bounds(&seq, bin, &info_resolver)
                    .expect("executor accepted the sequence; rules must too");
                assert_eq!(
                    b.total,
                    img.pixel_count(),
                    "total mismatch for bin {bin}: {b:?} vs image {}x{}",
                    img.width(),
                    img.height()
                );
                assert!(
                    b.admits(truth.count(bin)),
                    "bin {bin}: bounds {b:?} exclude true count {} (seq: {seq:?})",
                    truth.count(bin)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Conservative bounds admit the ground truth for arbitrary sequences.
    #[test]
    fn conservative_bounds_are_sound((base, target, seq) in arb_case()) {
        check_soundness(base, target, seq);
    }
}

/// Deterministic regression cases distilled from the strategy space.
#[test]
fn soundness_regression_crop_after_scale() {
    let base = RasterImage::filled(8, 8, Rgb::RED).unwrap();
    let target = RasterImage::filled(5, 5, Rgb::WHITE).unwrap();
    let seq = EditSequence::builder(ImageId::new(1))
        .scale(2.0, 2.0)
        .define(Rect::new(3, 3, 12, 12))
        .crop_to_region()
        .build();
    check_soundness(base, target, seq);
}

#[test]
fn soundness_regression_merge_then_blur() {
    let mut base = RasterImage::filled(10, 10, Rgb::GREEN).unwrap();
    draw::fill_rect(&mut base, &Rect::new(0, 0, 5, 5), Rgb::RED);
    let target = RasterImage::filled(6, 6, Rgb::BLUE).unwrap();
    let seq = EditSequence::builder(ImageId::new(1))
        .define(Rect::new(0, 0, 5, 5))
        .merge_into(ImageId::new(2), 3, 3)
        .blur()
        .build();
    check_soundness(base, target, seq);
}

#[test]
fn soundness_regression_rotation_of_subregion() {
    let mut base = RasterImage::filled(16, 16, Rgb::BLACK).unwrap();
    draw::fill_rect(&mut base, &Rect::new(2, 2, 8, 8), Rgb::new(255, 255, 0));
    let target = RasterImage::filled(4, 4, Rgb::WHITE).unwrap();
    let seq = EditSequence::builder(ImageId::new(1))
        .define(Rect::new(2, 2, 8, 8))
        .mutate(Matrix3::rotation_about(
            std::f64::consts::FRAC_PI_4,
            8.0,
            8.0,
        ))
        .build();
    check_soundness(base, target, seq);
}

/// The no-false-negative guarantee stated in query terms: if the instantiated
/// image satisfies a query, `may_satisfy` must return true.
#[test]
fn rbm_filter_has_no_false_negatives_on_a_grid_of_queries() {
    let quant = RgbQuantizer::default_64();
    let mut base = RasterImage::filled(12, 12, Rgb::WHITE).unwrap();
    draw::fill_rect(&mut base, &Rect::new(0, 0, 12, 4), Rgb::RED);
    let target = RasterImage::filled(8, 8, Rgb::BLUE).unwrap();

    let mut raster_resolver = MapResolver::new();
    raster_resolver.insert(ImageId::new(1), base.clone());
    raster_resolver.insert(ImageId::new(2), target.clone());
    let mut info_resolver = MapInfoResolver::new();
    info_resolver.insert(
        ImageId::new(1),
        ImageInfo::new(ColorHistogram::extract(&base, &quant), 12, 12),
    );
    info_resolver.insert(
        ImageId::new(2),
        ImageInfo::new(ColorHistogram::extract(&target, &quant), 8, 8),
    );

    let sequences = vec![
        EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 6, 6))
            .modify(Rgb::RED, Rgb::BLUE)
            .build(),
        EditSequence::builder(ImageId::new(1))
            .blur()
            .scale(2.0, 2.0)
            .build(),
        EditSequence::builder(ImageId::new(1))
            .define(Rect::new(2, 2, 10, 10))
            .crop_to_region()
            .build(),
        EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 5, 5))
            .merge_into(ImageId::new(2), 2, 2)
            .build(),
    ];

    let exec = InstantiationEngine::new(&raster_resolver);
    let rules = RuleEngine::new(&quant, RuleProfile::Conservative);
    for seq in &sequences {
        let img = exec.instantiate(seq).unwrap();
        let truth = ColorHistogram::extract(&img, &quant);
        for bin in [
            quant.bin_of(Rgb::RED),
            quant.bin_of(Rgb::BLUE),
            quant.bin_of(Rgb::WHITE),
        ] {
            let frac = truth.fraction(bin);
            for lo in [0.0, 0.1, 0.25, 0.5, 0.75] {
                for hi in [0.25, 0.5, 0.75, 1.0] {
                    if lo > hi {
                        continue;
                    }
                    let q = mmdb_rules::ColorRangeQuery::new(bin, lo, hi);
                    if q.matches_fraction(frac) {
                        assert!(
                            rules.may_satisfy(seq, &q, &info_resolver).unwrap(),
                            "false negative: bin {bin} frac {frac} query [{lo},{hi}]"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A compiled program's `eval_vector` is exactly equivalent to per-bin
    /// `bounds` calls, which walk the sequence without a program.
    #[test]
    fn bounds_vector_matches_per_bin((base, target, seq) in arb_case()) {
        let quant = RgbQuantizer::default_64();
        let mut info_resolver = MapInfoResolver::new();
        info_resolver.insert(
            ImageId::new(1),
            ImageInfo::new(
                ColorHistogram::extract(&base, &quant),
                base.width(),
                base.height(),
            ),
        );
        info_resolver.insert(
            ImageId::new(2),
            ImageInfo::new(
                ColorHistogram::extract(&target, &quant),
                target.width(),
                target.height(),
            ),
        );
        let rules = RuleEngine::new(&quant, RuleProfile::Conservative);
        let vector = rules.compile(&seq, &info_resolver).map(|program| {
            let base = info_resolver.require(program.view().base()).expect("the base compiled");
            program.view().eval_vector(&base.histogram)
        });
        match vector {
            Ok(vector) => {
                prop_assert_eq!(vector.len(), quant.bin_count());
                for (bin, expected) in vector.iter().enumerate() {
                    let single = rules
                        .bounds(&seq, bin, &info_resolver)
                        .expect("vector succeeded, single-bin must too");
                    prop_assert_eq!(&single, expected, "bin {} diverges", bin);
                }
            }
            Err(_) => {
                prop_assert!(
                    rules.bounds(&seq, 0, &info_resolver).is_err(),
                    "vector failed but single-bin succeeded"
                );
            }
        }
    }
}
