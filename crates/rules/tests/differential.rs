//! Differential property test against the interpretive walker kept in
//! `reference/` — random `VariantGenerator`-style sequences, every bin,
//! error cases included: `RuleEngine::compile` + `ProgramRef::eval` under
//! the Conservative rules a program holds, and the stepwise
//! `RuleEngine::bounds` and `bounds_trace` under both rule profiles. The
//! reference is the specification; the library has no second path to fall
//! back on.
//!
//! `PROPTEST_CASES` overrides the case count (the Miri CI job runs a handful).

mod reference;

use mmdb_editops::{EditOp, EditSequence, ImageId, Matrix3};
use mmdb_histogram::{ColorHistogram, Quantizer, RgbQuantizer};
use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
use mmdb_rules::{
    BoundRange, ImageInfo, InfoResolver, MapInfoResolver, RuleEngine, RuleError, RuleProfile,
};
use proptest::prelude::*;
use reference::ReferenceEngine;

const BASE: ImageId = ImageId::new(1);
const TARGET: ImageId = ImageId::new(2);
const OTHER_TARGET: ImageId = ImageId::new(3);
/// Referenced by some generated sequences, never registered.
const MISSING: ImageId = ImageId::new(9);

const PROFILES: [RuleProfile; 2] = [RuleProfile::PaperTable1, RuleProfile::Conservative];

/// Background colors: one that shares a bin with palette pixels and one
/// that does not, so the conservative gap-fill term is exercised both ways.
const BACKGROUNDS: [Rgb; 2] = [Rgb::BLACK, Rgb::new(128, 128, 128)];

const PALETTE: [Rgb; 7] = [
    Rgb::new(255, 0, 0),
    Rgb::new(250, 10, 10), // same bin as pure red
    Rgb::new(0, 255, 0),
    Rgb::new(0, 0, 255),
    Rgb::new(255, 255, 0),
    Rgb::new(255, 255, 255),
    Rgb::new(0, 0, 0),
];

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn arb_color() -> impl Strategy<Value = Rgb> {
    (0..PALETTE.len()).prop_map(|i| PALETTE[i])
}

fn arb_image(max_side: i64) -> impl Strategy<Value = RasterImage> {
    (
        4..max_side,
        4..max_side,
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

/// The operation mix of `mmdb_datagen::VariantGenerator` (define / blur /
/// recolor / translate / rotate / scale / crop / paste). Every one of these
/// can be bounded except a crop that meets an empty region.
fn arb_op(side: i64) -> impl Strategy<Value = EditOp> {
    prop_oneof![
        // Define — may exceed bounds (clipped) or be empty.
        (-4..side, -4..side, 0..side, 0..side).prop_map(|(x, y, w, h)| EditOp::Define {
            region: Rect::from_origin_size(x, y, w, h),
        }),
        (-4..side, -4..side, 0..side, 0..side).prop_map(|(x, y, w, h)| EditOp::Define {
            region: Rect::from_origin_size(x, y, w, h),
        }),
        (arb_color(), arb_color()).prop_map(|(from, to)| EditOp::Modify { from, to }),
        (arb_color(), arb_color()).prop_map(|(from, to)| EditOp::Modify { from, to }),
        Just(EditOp::box_blur()),
        (-6i64..6, -6i64..6).prop_map(|(dx, dy)| EditOp::Mutate {
            matrix: Matrix3::translation(dx as f64, dy as f64),
        }),
        // Whole-image and sub-region scales, integer and fractional.
        (1u32..40, 1u32..40).prop_map(|(sx, sy)| EditOp::Mutate {
            matrix: Matrix3::scale(sx as f64 / 10.0, sy as f64 / 10.0),
        }),
        (0u32..8, 0i64..16, 0i64..16).prop_map(|(octant, cx, cy)| EditOp::Mutate {
            matrix: Matrix3::rotation_about(
                octant as f64 * std::f64::consts::FRAC_PI_4,
                cx as f64,
                cy as f64,
            ),
        }),
        // Singular but affine: bounded, not rejected.
        Just(EditOp::Mutate {
            matrix: Matrix3::scale(0.0, 1.0),
        }),
        Just(EditOp::Merge {
            target: None,
            xp: 0,
            yp: 0
        }),
        // Paste into a registered target, overlapping, adjacent or apart.
        (-5i64..30, -5i64..30, 0u8..2).prop_map(|(xp, yp, which)| EditOp::Merge {
            target: Some(if which == 0 { TARGET } else { OTHER_TARGET }),
            xp,
            yp,
        }),
    ]
}

/// Operations BOUNDS must refuse.
fn arb_fault() -> impl Strategy<Value = EditOp> {
    prop_oneof![
        // Projective (non-affine) matrix.
        Just(EditOp::Mutate {
            matrix: Matrix3::new([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.01, 0.0, 1.0]]),
        }),
        // On the whole image: a canvas over MAX_CANVAS_PIXELS.
        Just(EditOp::Mutate {
            matrix: Matrix3::scale(3000.0, 3000.0),
        }),
        // A union canvas over MAX_CANVAS_PIXELS.
        Just(EditOp::Merge {
            target: Some(TARGET),
            xp: 20_000,
            yp: 20_000,
        }),
        // Unknown merge target.
        Just(EditOp::Merge {
            target: Some(MISSING),
            xp: 1,
            yp: 1,
        }),
    ]
}

struct Case {
    resolver: MapInfoResolver,
    seq: EditSequence,
    background: Rgb,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (arb_image(24), arb_image(20), arb_image(12)),
        proptest::collection::vec(arb_op(24), 0..8),
        // One case in four carries a fault somewhere in the sequence.
        (arb_fault(), 0usize..8, 0u8..4),
        // One case in sixteen edits a base that is not in the catalog.
        0u8..16,
        0..BACKGROUNDS.len(),
    )
        .prop_map(|(images, mut ops, fault, base_pick, bg)| {
            let (base, target, other) = images;
            let (fault, at, fault_pick) = fault;
            if fault_pick == 0 {
                ops.insert(at.min(ops.len()), fault);
            }
            let quant = RgbQuantizer::default_64();
            let mut resolver = MapInfoResolver::new();
            for (id, img) in [(BASE, &base), (TARGET, &target), (OTHER_TARGET, &other)] {
                resolver.insert(
                    id,
                    ImageInfo::new(
                        ColorHistogram::extract(img, &quant),
                        img.width(),
                        img.height(),
                    ),
                );
            }
            let base_id = if base_pick == 0 { MISSING } else { BASE };
            Case {
                resolver,
                seq: EditSequence::new(base_id, ops),
                background: BACKGROUNDS[bg],
            }
        })
}

/// Errors compare by variant and payload (`RuleError` is not `PartialEq`).
fn shown<T: std::fmt::Debug>(r: Result<T, RuleError>) -> Result<T, String> {
    r.map_err(|e| format!("{e:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn compile_then_eval_equals_the_reference_walker(case in arb_case()) {
        let quant = RgbQuantizer::default_64();
        let Case { resolver, seq, background } = case;
        let compiled = shown(
            RuleEngine::with_background(&quant, RuleProfile::Conservative, background)
                .compile(&seq, &resolver),
        );
        if let Ok(program) = &compiled {
            let program = program.view();
            prop_assert_eq!(program.base(), seq.base);
            prop_assert_eq!(program.op_count(), seq.len());
            prop_assert_eq!(program.all_widening(), seq.all_bound_widening());
            prop_assert_eq!(program.merge_targets().collect::<Vec<_>>(), seq.merge_targets());
            let kinds: Vec<u32> = seq.kind_histogram().iter().map(|&(_, n)| n as u32).collect();
            prop_assert_eq!(&program.kind_counts()[..], kinds.as_slice());
            // One segment per paste plus one; per segment a default form
            // and at most two named bins per recoloring.
            let pastes = seq.merge_targets().len();
            prop_assert_eq!(program.segment_count(), pastes + 1);
            let recolorings = seq.ops.iter().filter(|op| matches!(op, EditOp::Modify { .. }));
            prop_assert!(program.form_count() <= pastes + 1 + 2 * recolorings.count());
        }
        for profile in PROFILES {
            let reference = ReferenceEngine::new(&quant, profile, background);
            let engine = RuleEngine::with_background(&quant, profile, background);
            let mut per_bin = Vec::new();
            for bin in 0..quant.bin_count() {
                let want = shown(reference.bounds(&seq, bin, &resolver));
                if profile == RuleProfile::Conservative {
                    let got = compiled.clone().and_then(|program| {
                        let base = shown(resolver.require(program.view().base()))?;
                        Ok(program.view().eval(bin, base.histogram.count(bin)))
                    });
                    prop_assert_eq!(&got, &want, "eval bin {} of {:?}", bin, seq);
                }
                prop_assert_eq!(
                    shown(engine.bounds(&seq, bin, &resolver)), want.clone(),
                    "bounds() {:?} bin {} of {:?}", profile, bin, seq
                );
                per_bin.push(want);
            }
            // Per-bin bounds ≡ the trace's last row (≡ `eval_vector` under
            // the Conservative rules), and the whole trace matches the
            // reference row for row.
            let per_bin: Result<Vec<BoundRange>, String> = per_bin.into_iter().collect();
            if profile == RuleProfile::Conservative {
                let vector = compiled.clone().and_then(|program| {
                    let base = shown(resolver.require(program.view().base()))?;
                    Ok(program.view().eval_vector(&base.histogram))
                });
                prop_assert_eq!(&vector, &per_bin);
            }
            let trace = shown(engine.bounds_trace(&seq, &resolver));
            prop_assert_eq!(&trace, &shown(reference.bounds_trace(&seq, &resolver)));
            prop_assert_eq!(trace.map(|rows| rows.last().cloned().unwrap()), per_bin);
        }
    }
}

/// Compiling resolves each merge target once and keeps its histogram: the
/// program evaluates the same after its resolver has lost the target, and
/// compiling against a resolver without it fails closed.
#[test]
fn compile_captures_merge_targets() {
    let quant = RgbQuantizer::default_64();
    let mut resolver = MapInfoResolver::new();
    for (id, side, color) in [(BASE, 10, Rgb::RED), (TARGET, 20, Rgb::GREEN)] {
        let img = RasterImage::filled(side, side, color).unwrap();
        resolver.insert(
            id,
            ImageInfo::new(ColorHistogram::extract(&img, &quant), side, side),
        );
    }
    let seq = EditSequence::builder(BASE)
        .define(Rect::new(0, 0, 4, 4))
        .merge_into(TARGET, 2, 2)
        .build();
    let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
    let program = engine.compile(&seq, &resolver).unwrap();
    let expected = engine.bounds_trace(&seq, &resolver).unwrap().pop().unwrap();
    let base = resolver.require(BASE).unwrap();

    let mut without_target = MapInfoResolver::new();
    without_target.insert(BASE, base.clone());
    drop(resolver);
    let counts = base.histogram.counts();
    let per_bin: Vec<BoundRange> = (0..quant.bin_count())
        .map(|bin| program.view().eval(bin, counts[bin]))
        .collect();
    assert_eq!(per_bin, expected);
    assert_eq!(program.view().eval_vector(&base.histogram), expected);
    assert!(matches!(
        engine.compile(&seq, &without_target),
        Err(RuleError::UnknownImage(id)) if id == TARGET
    ));
}

/// Operations that cannot move any bound leave nothing: the program of a
/// typical augmentation sequence is one segment of one form.
#[test]
fn no_op_steps_are_elided() {
    let quant = RgbQuantizer::default_64();
    let mut resolver = MapInfoResolver::new();
    let img = RasterImage::filled(10, 10, Rgb::RED).unwrap();
    resolver.insert(
        BASE,
        ImageInfo::new(ColorHistogram::extract(&img, &quant), 10, 10),
    );
    let seq = EditSequence::builder(BASE)
        .define(Rect::new(0, 0, 4, 4))
        .blur()
        .define(Rect::new(50, 50, 60, 60)) // clips to empty
        .modify(Rgb::RED, Rgb::BLUE)
        .translate(1.0, 1.0)
        .blur()
        .build();
    let program = RuleEngine::new(&quant, RuleProfile::Conservative)
        .compile(&seq, &resolver)
        .unwrap();
    let program = program.view();
    assert_eq!(program.op_count(), 6);
    assert_eq!(program.segment_count(), 1);
    assert_eq!(
        program.form_count(),
        1,
        "the recoloring's region is empty: no bin is named"
    );
    // One form of seven 32-bit values, no merge record.
    assert_eq!(program.heap_bytes(), 28);
}
