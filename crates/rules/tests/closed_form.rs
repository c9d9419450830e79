//! The closed form is exact: for random sequences over random bases,
//! `ProgramRef::eval` and `eval_vector` equal the last row of the stepwise
//! Conservative `RuleEngine::bounds_trace` in every bin, whether the
//! program stands alone or shares a `ProgramBlock`, and `compile` refuses
//! exactly what the stepwise walk refuses.
//!
//! The sequences mix what composes into a segment — chains of whole-image
//! scales up and down, crops, recolorings into, out of and within a bin,
//! widenings — with pastes on and off the target's canvas, so gap fill
//! and segment boundaries are crossed. Bases include single-colour images
//! (one bin at the total, every other at zero) and a base of `u32::MAX`
//! pixels, on which a widening of most of the canvas makes sums past
//! `u32::MAX`: the values where saturating `u64` steps and a 32-bit form
//! could part.
//!
//! `PROPTEST_CASES` overrides the case count (CI runs 2,048).

use mmdb_editops::{EditOp, EditSequence, ImageId, Matrix3};
use mmdb_histogram::{ColorHistogram, Quantizer, RgbQuantizer};
use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
use mmdb_rules::{ImageInfo, InfoResolver, MapInfoResolver, ProgramBlock, RuleEngine, RuleProfile};
use proptest::prelude::*;
use std::sync::Arc;

const BASE: ImageId = ImageId::new(1);
const TARGET: ImageId = ImageId::new(2);

const PALETTE: [Rgb; 6] = [
    Rgb::new(255, 0, 0),
    Rgb::new(250, 10, 10), // same bin as pure red: a recoloring within it
    Rgb::new(0, 255, 0),
    Rgb::new(0, 0, 255),
    Rgb::new(255, 255, 255),
    Rgb::new(0, 0, 0),
];

/// Backgrounds in a palette bin and outside every one, so a gap lands in
/// a populated bin or an empty one.
const BACKGROUNDS: [Rgb; 2] = [Rgb::BLACK, Rgb::new(128, 128, 128)];

/// Width and height of the base of `u32::MAX` pixels.
const HUGE: (u32, u32) = (65_535, 65_537);

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn arb_color() -> impl Strategy<Value = Rgb> {
    (0..PALETTE.len()).prop_map(|i| PALETTE[i])
}

/// A small image: one colour, or a background with a few rectangles.
fn arb_image(max_side: i64) -> impl Strategy<Value = RasterImage> {
    (
        2..max_side,
        2..max_side,
        arb_color(),
        proptest::collection::vec((0..max_side, 0..max_side, 1..max_side, arb_color()), 0..3),
    )
        .prop_map(|(w, h, bg, rects)| {
            let mut img = RasterImage::filled(w as u32, h as u32, bg).unwrap();
            for (x, y, side, c) in rects {
                draw::fill_rect(&mut img, &Rect::from_origin_size(x, y, side, side), c);
            }
            img
        })
}

/// Everything but the whole canvas is clipped away.
fn whole() -> EditOp {
    EditOp::Define {
        region: Rect::from_origin_size(-1, -1, 1 << 20, 1 << 20),
    }
}

/// One or two operations: a region, a widening, a recoloring, a
/// whole-image scale, a crop, or a paste anywhere around the target.
fn arb_ops() -> impl Strategy<Value = Vec<EditOp>> {
    let scales = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
    prop_oneof![
        3 => (-3i64..40, -3i64..40, 0i64..40, 0i64..40).prop_map(|(x, y, w, h)| vec![
            EditOp::Define {
                region: Rect::from_origin_size(x, y, w, h),
            }
        ]),
        // Most of the huge base: a widening near `u32::MAX`.
        1 => Just(vec![whole(), EditOp::box_blur()]),
        2 => Just(vec![EditOp::box_blur()]),
        3 => (arb_color(), arb_color()).prop_map(|(from, to)| vec![EditOp::Modify { from, to }]),
        1 => (-4i64..4, -4i64..4).prop_map(|(dx, dy)| vec![EditOp::Mutate {
            matrix: Matrix3::translation(dx as f64, dy as f64),
        }]),
        2 => (0..scales.len(), 0..scales.len()).prop_map(move |(sx, sy)| vec![
            whole(),
            EditOp::Mutate {
                matrix: Matrix3::scale(scales[sx], scales[sy]),
            },
        ]),
        2 => (0i64..6, 0i64..6, 1i64..30, 1i64..30).prop_map(|(x, y, w, h)| vec![
            EditOp::Define {
                region: Rect::from_origin_size(x, y, w, h),
            },
            EditOp::Merge {
                target: None,
                xp: 0,
                yp: 0,
            },
        ]),
        2 => (-40i64..60, -40i64..60).prop_map(|(xp, yp)| vec![EditOp::Merge {
            target: Some(TARGET),
            xp,
            yp,
        }]),
    ]
}

struct Case {
    resolver: MapInfoResolver,
    seq: EditSequence,
    background: Rgb,
}

fn info(img: &RasterImage, quant: &RgbQuantizer) -> ImageInfo {
    ImageInfo::new(
        ColorHistogram::extract(img, quant),
        img.width(),
        img.height(),
    )
}

/// A base of `u32::MAX` pixels: all in one bin, or split over two.
fn huge_base(quant: &RgbQuantizer, split: bool) -> ImageInfo {
    let total = u64::from(u32::MAX);
    let mut counts = vec![0; quant.bin_count()];
    let (red, white) = (quant.bin_of(Rgb::RED), quant.bin_of(Rgb::WHITE));
    (counts[red], counts[white]) = if split {
        (total / 3, total - total / 3)
    } else {
        (total, 0)
    };
    ImageInfo {
        histogram: Arc::new(ColorHistogram::from_counts(counts, total)),
        width: HUGE.0,
        height: HUGE.1,
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (arb_image(24), arb_image(20)),
        proptest::collection::vec(arb_ops(), 0..9),
        // One case in four edits the base of `u32::MAX` pixels.
        0u8..8,
        0..BACKGROUNDS.len(),
    )
        .prop_map(|((base, target), ops, pick, bg)| {
            let quant = RgbQuantizer::default_64();
            let mut resolver = MapInfoResolver::new();
            let base = match pick {
                0 | 1 => huge_base(&quant, pick == 1),
                _ => info(&base, &quant),
            };
            resolver.insert(BASE, base);
            resolver.insert(TARGET, info(&target, &quant));
            Case {
                resolver,
                seq: EditSequence::new(BASE, ops.into_iter().flatten().collect()),
                background: BACKGROUNDS[bg],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn closed_form_equals_the_stepwise_walk(case in arb_case()) {
        let quant = RgbQuantizer::default_64();
        let Case { resolver, seq, background } = case;
        let engine = RuleEngine::with_background(&quant, RuleProfile::Conservative, background);
        let trace = engine.bounds_trace(&seq, &resolver);
        let compiled = engine.compile(&seq, &resolver);
        let (program, trace) = match (compiled, trace) {
            (Ok(program), Ok(trace)) => (program, trace),
            (Err(_), Err(_)) => return Ok(()),
            (compiled, trace) => {
                let (compiled, trace) = (compiled.err(), trace.err());
                return Err(proptest::TestCaseError::fail(format!(
                    "compile {compiled:?} but stepwise {trace:?} for {seq:?}"
                )));
            }
        };
        let stepwise = trace.last().expect("a trace has its base row");
        let base = resolver.require(BASE).unwrap().histogram;
        for (bin, want) in stepwise.iter().enumerate() {
            let got = program.view().eval(bin, base.count(bin));
            prop_assert_eq!(&got, want, "bin {} of {:?}", bin, seq);
        }
        prop_assert_eq!(&program.view().eval_vector(&base), stepwise);
        // The same program behind another in one block reads the same.
        let mut block = ProgramBlock::new();
        let plain = EditSequence::builder(BASE).blur().build();
        engine.compile_into(&plain, &resolver, &mut block).unwrap();
        engine.compile_into(&seq, &resolver, &mut block).unwrap();
        let kept = block.get(1).unwrap();
        prop_assert_eq!(kept, program.view());
        prop_assert_eq!(&kept.eval_vector(&base), stepwise);
    }
}

/// A base of 2³² pixels cannot be bounded by a 32-bit form: `compile`
/// refuses it, where the stepwise walk still answers an empty sequence.
#[test]
fn a_base_of_two_to_the_32_pixels_is_refused() {
    let quant = RgbQuantizer::default_64();
    let total = 1u64 << 32;
    let mut counts = vec![0; quant.bin_count()];
    counts[0] = total;
    let mut resolver = MapInfoResolver::new();
    let info = ImageInfo {
        histogram: Arc::new(ColorHistogram::from_counts(counts, total)),
        width: 1 << 16,
        height: 1 << 16,
    };
    resolver.insert(BASE, info);
    let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
    let seq = EditSequence::new(BASE, vec![]);
    assert!(engine.bounds_trace(&seq, &resolver).is_ok());
    assert!(engine.compile(&seq, &resolver).is_err());
}
