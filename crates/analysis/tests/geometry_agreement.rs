//! One geometry, four readers: the executor, the BOUNDS compiler and the
//! static analyzer all step `mmdb_editops::geometry::Frame`, so they accept
//! and refuse the same sequences — in particular on operation parameters far
//! outside any canvas, where three private copies of the arithmetic used to
//! give three different answers (a wrapped `u32`, an overflow panic, a
//! special-cased constant). The fourth reader is ingest: the storage engine
//! refuses exactly the sequences `compile` refuses, in the analyzer's words.
//!
//! `PROPTEST_CASES` overrides the property's case count.

use mmdb_analysis::{Analyzer, LintCode, Severity};
use mmdb_editops::{
    EditError, EditOp, EditSequence, Frame, GeometryError, ImageId, InstantiationEngine,
    MapResolver, Matrix3,
};
use mmdb_histogram::{ColorHistogram, RgbQuantizer};
use mmdb_imaging::{draw, RasterImage, Rect, Rgb};
use mmdb_rules::{ImageInfo, InfoResolver, MapInfoResolver, RuleEngine, RuleError, RuleProfile};
use mmdb_storage::{StorageEngine, StorageError};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

const BASE: ImageId = ImageId::new(1);
const TARGET: ImageId = ImageId::new(2);

/// The lint codes that say "the executor refuses this sequence".
const REFUSALS: [LintCode; 5] = [
    LintCode::EmptyCrop,
    LintCode::CanvasOverflow,
    LintCode::NonAffineMutate,
    LintCode::NonFiniteParams,
    LintCode::Unboundable,
];

/// A catalog of two images: as rasters, as metadata, and as the binary
/// images of an in-memory database.
struct Catalog {
    rasters: MapResolver,
    infos: MapInfoResolver,
    storage: StorageEngine,
}

impl Catalog {
    fn new(base: RasterImage, target: RasterImage) -> Self {
        let quant = RgbQuantizer::default_64();
        let mut rasters = MapResolver::new();
        let mut infos = MapInfoResolver::new();
        let storage = StorageEngine::in_memory(Box::new(quant));
        for (id, img) in [(BASE, base), (TARGET, target)] {
            let hist = ColorHistogram::extract(&img, &quant);
            infos.insert(id, ImageInfo::new(hist, img.width(), img.height()));
            assert_eq!(storage.insert_binary(&img).unwrap(), id);
            rasters.insert(id, img);
        }
        Catalog {
            rasters,
            infos,
            storage,
        }
    }

    /// `insert_edited` into the database: the id, or the refusal's text.
    fn ingest(&self, seq: &EditSequence) -> Result<ImageId, String> {
        self.storage
            .insert_edited(seq.clone())
            .map_err(|e| match e {
                StorageError::InvalidSequence(text) => text,
                other => format!("{other:?}"),
            })
    }

    fn instantiate(&self, seq: &EditSequence) -> Result<RasterImage, String> {
        InstantiationEngine::new(&self.rasters)
            .instantiate(seq)
            .map_err(|e| match e {
                EditError::InvalidOperation(msg) => msg,
                other => format!("{other:?}"),
            })
    }

    /// `compile`, answered with the image size the program ends on.
    fn compile(&self, seq: &EditSequence) -> Result<u64, String> {
        let quant = RgbQuantizer::default_64();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let base = self.infos.require(seq.base).unwrap();
        let invalid = |e| match e {
            RuleError::InvalidSequence(msg) => msg,
            other => format!("{other:?}"),
        };
        let program = engine.compile(seq, &self.infos).map_err(invalid)?;
        let eval = program.view().eval(0, base.histogram.count(0));
        Ok(eval.total)
    }

    fn bounds(&self, seq: &EditSequence) -> Result<u64, String> {
        let quant = RgbQuantizer::default_64();
        RuleEngine::new(&quant, RuleProfile::Conservative)
            .bounds(seq, 0, &self.infos)
            .map(|bound| bound.total)
            .map_err(|e| format!("{e:?}"))
    }

    /// The refusal codes the analyzer raises, in order.
    fn refusals(&self, seq: &EditSequence) -> Vec<LintCode> {
        let quant = RgbQuantizer::default_64();
        Analyzer::with_resolver(&quant, Rgb::BLACK, &self.infos)
            .analyze_sequence(seq)
            .diagnostics
            .iter()
            .map(|d| d.code)
            .filter(|code| REFUSALS.contains(code))
            .collect()
    }

    /// The analyzer's error-level findings, joined as ingest words a
    /// refusal.
    fn error_text(&self, seq: &EditSequence) -> String {
        let quant = RgbQuantizer::default_64();
        let analysis =
            Analyzer::with_resolver(&quant, Rgb::BLACK, &self.infos).analyze_sequence(seq);
        let errors = analysis.diagnostics.iter();
        let errors = errors.filter(|d| d.severity() == Severity::Error);
        errors
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// The frame the sequence ends on, stepped by hand.
    fn final_frame(&self, seq: &EditSequence) -> Result<Frame, GeometryError> {
        let dims = |id| self.infos.info(id).map(|info| (info.width, info.height));
        let (w, h) = dims(seq.base).unwrap();
        let mut frame = Frame::new(w, h);
        for op in &seq.ops {
            frame.step(op, op.merge_target().and_then(dims))?;
        }
        Ok(frame)
    }
}

fn is_cap_error<T>(verdict: &Result<T, String>) -> bool {
    matches!(verdict, Err(msg) if msg.contains("canvas, over the") && msg.contains("pixel cap"))
}

/// One line per entry point, a panic reported rather than propagated, so a
/// failing case shows all of its verdicts.
fn describe<T: std::fmt::Debug>(run: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| Err("PANICKED".to_string()))
}

/// The probed divergences: on a 10×10 base and a 20×20 target, every entry
/// point reports the canvas cap — no wrapped `Ok`, no overflow panic.
#[test]
fn out_of_range_parameters_are_the_cap_error_everywhere() {
    let catalog = Catalog::new(
        RasterImage::filled(10, 10, Rgb::WHITE).unwrap(),
        RasterImage::filled(20, 20, Rgb::RED).unwrap(),
    );
    let cases = [
        (
            "scale(429496730, 1)",
            EditSequence::builder(BASE).scale(429_496_730.0, 1.0),
        ),
        (
            "scale(1e18, 1e18)",
            EditSequence::builder(BASE).scale(1e18, 1e18),
        ),
        (
            "scale(1e18, 1)",
            EditSequence::builder(BASE).scale(1e18, 1.0),
        ),
        (
            "merge_into(t, i64::MAX/2, 0)",
            EditSequence::builder(BASE).merge_into(TARGET, i64::MAX / 2, 0),
        ),
        (
            "merge_into(t, 2^33, 2^33)",
            EditSequence::builder(BASE).merge_into(TARGET, 1 << 33, 1 << 33),
        ),
    ];
    let mut failures = Vec::new();
    for (name, builder) in cases {
        let seq = builder.build();
        let executor = describe(|| {
            catalog
                .instantiate(&seq)
                .map(|img| (img.width(), img.height()))
        });
        let compile = describe(|| catalog.compile(&seq));
        let bounds = describe(|| catalog.bounds(&seq));
        let analyzer = describe(|| Ok(catalog.refusals(&seq)));
        let ingest = describe(|| catalog.ingest(&seq));
        let row = format!(
            "{name}: executor {executor:?} | compile {compile:?} | bounds {bounds:?} | \
             analyzer {analyzer:?} | ingest {ingest:?}"
        );
        println!("{row}");
        let agreed = is_cap_error(&executor)
            && is_cap_error(&compile)
            && is_cap_error(&bounds)
            && analyzer == Ok(vec![LintCode::CanvasOverflow])
            && is_cap_error(&ingest);
        if !agreed {
            failures.push(row);
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

const PALETTE: [Rgb; 4] = [
    Rgb::new(255, 0, 0),
    Rgb::new(0, 255, 0),
    Rgb::new(255, 255, 255),
    Rgb::new(0, 0, 0),
];

fn arb_color() -> impl Strategy<Value = Rgb> {
    (0..PALETTE.len()).prop_map(|i| PALETTE[i])
}

fn arb_image(max_side: i64) -> impl Strategy<Value = RasterImage> {
    (
        4..max_side,
        4..max_side,
        arb_color(),
        (0..max_side, 0..max_side, 1..max_side, 1..max_side),
        arb_color(),
    )
        .prop_map(|(w, h, bg, (x, y, rw, rh), c)| {
            let mut img = RasterImage::filled(w as u32, h as u32, bg).unwrap();
            draw::fill_rect(&mut img, &Rect::from_origin_size(x, y, rw, rh), c);
            img
        })
}

/// The operation mix of `mmdb-rules`' differential test and this crate's
/// dead-op property.
fn arb_plain_op(side: i64) -> impl Strategy<Value = EditOp> {
    prop_oneof![
        (-4..side, -4..side, 0..side, 0..side).prop_map(|(x, y, w, h)| EditOp::Define {
            region: Rect::from_origin_size(x, y, w, h),
        }),
        (-4..side, -4..side, 0..side, 0..side).prop_map(|(x, y, w, h)| EditOp::Define {
            region: Rect::from_origin_size(x, y, w, h),
        }),
        (arb_color(), arb_color()).prop_map(|(from, to)| EditOp::Modify { from, to }),
        Just(EditOp::box_blur()),
        (-6i64..6, -6i64..6).prop_map(|(dx, dy)| EditOp::Mutate {
            matrix: Matrix3::translation(dx as f64, dy as f64),
        }),
        (1u32..30, 1u32..30).prop_map(|(sx, sy)| EditOp::Mutate {
            matrix: Matrix3::scale(sx as f64 / 10.0, sy as f64 / 10.0),
        }),
        (0u32..8, 0i64..16, 0i64..16).prop_map(|(octant, cx, cy)| EditOp::Mutate {
            matrix: Matrix3::rotation_about(
                octant as f64 * std::f64::consts::FRAC_PI_4,
                cx as f64,
                cy as f64,
            ),
        }),
        Just(EditOp::Mutate {
            matrix: Matrix3::scale(0.0, 1.0),
        }),
        Just(EditOp::Merge {
            target: None,
            xp: 0,
            yp: 0
        }),
        (-5i64..30, -5i64..30).prop_map(|(xp, yp)| EditOp::Merge {
            target: Some(TARGET),
            xp,
            yp,
        }),
    ]
}

/// Scale factors from 1e-9 up to where `f64` itself gives out. The large
/// ones are large enough that one of them puts any canvas over the cap, so
/// no accepted sequence grows a raster worth worrying about.
const FACTORS: [f64; 9] = [1e-9, 1e-3, 0.5, 3.0, 1e9, 429_496_730.0, 1e18, 1e300, 1e308];

/// Paste offsets no canvas under the cap can reach.
const OFFSETS: [i64; 8] = [
    20_000,
    -20_000,
    1 << 33,
    -(1 << 40),
    i64::MAX / 2,
    i64::MAX,
    i64::MIN,
    i64::MIN / 2,
];

/// What a `Combine` weight or a `Mutate` entry must never be.
const NOT_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// Parameters no honest editor produces.
fn arb_hostile_op() -> impl Strategy<Value = EditOp> {
    prop_oneof![
        // A non-finite parameter anywhere, refused even where nothing reads
        // it (an off-centre weight, a translation term of a resize, any
        // entry on an empty region).
        (0..NOT_FINITE.len(), 0usize..9).prop_map(|(v, at)| {
            let mut weights = [0.0; 9];
            weights[4] = 1.0;
            weights[at] = NOT_FINITE[v] as f32;
            EditOp::Combine { weights }
        }),
        (0..NOT_FINITE.len(), 0usize..9).prop_map(|(v, at)| {
            let mut matrix = Matrix3::scale(2.0, 2.0);
            matrix.m[at / 3][at % 3] = NOT_FINITE[v];
            EditOp::Mutate { matrix }
        }),
        (0..FACTORS.len(), 0..FACTORS.len()).prop_map(|(x, y)| EditOp::Mutate {
            matrix: Matrix3::scale(FACTORS[x], FACTORS[y]),
        }),
        (0..FACTORS.len(), 0..FACTORS.len()).prop_map(|(x, y)| EditOp::Mutate {
            matrix: Matrix3::scale(FACTORS[x], FACTORS[y]),
        }),
        // Not an axis scale, so it is a region transform even on the whole
        // canvas; the last factor sends a corner to infinity.
        prop_oneof![Just(3.0), Just(1e18), Just(1e308)].prop_map(|f| EditOp::Mutate {
            matrix: Matrix3::new([[f, f, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        }),
        prop_oneof![Just(1e300), Just(-1e300)].prop_map(|d| EditOp::Mutate {
            matrix: Matrix3::translation(d, -d),
        }),
        (0..OFFSETS.len(), 0..OFFSETS.len()).prop_map(|(x, y)| EditOp::Merge {
            target: Some(TARGET),
            xp: OFFSETS[x],
            yp: OFFSETS[y],
        }),
        // One hostile coordinate is enough.
        (0..OFFSETS.len(), -5i64..30).prop_map(|(x, yp)| EditOp::Merge {
            target: Some(TARGET),
            xp: OFFSETS[x],
            yp,
        }),
        // Empty as written, off the canvas, and far larger than it.
        Just(EditOp::Define {
            region: Rect::new(5, 5, 5, 9),
        }),
        Just(EditOp::Define {
            region: Rect::new(100, 100, 120, 120),
        }),
        Just(EditOp::define_all()),
        Just(EditOp::Mutate {
            matrix: Matrix3::new([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.01, 0.0, 1.0]]),
        }),
        Just(EditOp::Mutate {
            matrix: Matrix3::new([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        }),
    ]
}

fn arb_case() -> impl Strategy<Value = (RasterImage, RasterImage, EditSequence)> {
    (
        arb_image(16),
        arb_image(20),
        proptest::collection::vec(
            prop_oneof![2 => arb_plain_op(16), 1 => arb_hostile_op()],
            0..6,
        ),
    )
        .prop_map(|(base, target, ops)| (base, target, EditSequence::new(BASE, ops)))
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

/// How many generated cases ended in each `GeometryError`, and in none.
static ACCEPTED: AtomicUsize = AtomicUsize::new(0);
static NON_AFFINE: AtomicUsize = AtomicUsize::new(0);
static NON_FINITE: AtomicUsize = AtomicUsize::new(0);
static NON_FINITE_PARAMETER: AtomicUsize = AtomicUsize::new(0);
static EMPTY_CROP: AtomicUsize = AtomicUsize::new(0);
static OVERFLOW: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    fn agreement_cases((base, target, seq) in arb_case()) {
        let catalog = Catalog::new(base, target);
        let frame = catalog.final_frame(&seq);
        let tally = match frame {
            Ok(_) => &ACCEPTED,
            Err(GeometryError::NonAffine) => &NON_AFFINE,
            Err(GeometryError::NonFinite) => &NON_FINITE,
            Err(GeometryError::NonFiniteParameter(_)) => &NON_FINITE_PARAMETER,
            Err(GeometryError::EmptyCrop) => &EMPTY_CROP,
            Err(GeometryError::CanvasOverflow { .. }) => &OVERFLOW,
        };
        tally.fetch_add(1, Ordering::Relaxed);

        let executed = catalog.instantiate(&seq);
        let compiled = catalog.compile(&seq);
        let refusals = catalog.refusals(&seq);
        let ingested = catalog.ingest(&seq);
        prop_assert_eq!(executed.is_ok(), frame.is_ok(), "executor {:?} on {:?}", executed, seq);
        prop_assert_eq!(compiled.is_ok(), frame.is_ok(), "compile {:?} on {:?}", compiled, seq);
        prop_assert_eq!(refusals.is_empty(), frame.is_ok(), "analyzer {:?} on {:?}", refusals, seq);
        prop_assert_eq!(ingested.is_ok(), frame.is_ok(), "ingest {:?} on {:?}", ingested, seq);
        match (frame, executed, compiled) {
            (Ok(frame), Ok(image), Ok(total)) => {
                prop_assert_eq!(image.bounds(), frame.canvas(), "{:?}", seq);
                prop_assert_eq!(total, frame.canvas().area(), "{:?}", seq);
            }
            (Err(refused), Err(executor), Err(compile)) => {
                // Refused at one operation, for one reason, worded once.
                prop_assert_eq!(&executor, &refused.to_string(), "{:?}", seq);
                prop_assert_eq!(&compile, &refused.to_string(), "{:?}", seq);
                let code = match refused {
                    GeometryError::EmptyCrop => LintCode::EmptyCrop,
                    GeometryError::CanvasOverflow { .. } => LintCode::CanvasOverflow,
                    GeometryError::NonAffine => LintCode::NonAffineMutate,
                    GeometryError::NonFinite | GeometryError::NonFiniteParameter(_) => {
                        LintCode::NonFiniteParams
                    }
                };
                prop_assert_eq!(refusals[0], code, "{:?}", seq);
                // Ingest refuses with the analyzer's error-level findings,
                // which lead with that code.
                let text = ingested.unwrap_err();
                prop_assert_eq!(&text, &catalog.error_text(&seq), "{:?}", seq);
                prop_assert!(text.starts_with(&format!("error[{}]", code.code())), "{}", text);
            }
            _ => unreachable!("the three agreed above"),
        }
    }
}

/// (executor `Ok`) ⇔ (`compile` `Ok`) ⇔ (no refusal from the analyzer) ⇔
/// (ingest accepts), on random sequences with a hostile arm — and the arm
/// bites: every `GeometryError` is reached.
#[test]
fn executor_compiler_and_analyzer_agree() {
    agreement_cases();
    let tally = [
        &ACCEPTED,
        &NON_AFFINE,
        &NON_FINITE,
        &NON_FINITE_PARAMETER,
        &EMPTY_CROP,
        &OVERFLOW,
    ]
    .map(|n| n.load(Ordering::Relaxed));
    println!(
        "{} cases: {} accepted, {} NonAffine, {} NonFinite, {} NonFiniteParameter, {} EmptyCrop, \
         {} CanvasOverflow",
        tally.iter().sum::<usize>(),
        tally[0],
        tally[1],
        tally[2],
        tally[3],
        tally[4],
        tally[5]
    );
    if cases() >= 256 {
        assert!(tally.iter().all(|&n| n > 0), "{tally:?}");
    }
}
