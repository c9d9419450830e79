//! The BOUNDS computation: Table 1 of the paper, executed over an edit
//! sequence without instantiating the image. [`RuleEngine::compile`] leaves
//! a [`BoundProgram`] of the Conservative rules in closed form for callers
//! that bound the same sequence again ([`RuleEngine::compile_into`] adds it
//! to a [`ProgramBlock`]); [`RuleEngine::bounds`],
//! [`RuleEngine::may_satisfy`] and [`RuleEngine::bounds_trace`] walk the
//! sequence under the engine's own profile and build no program. The rule
//! arithmetic itself lives in `program.rs`.

use crate::bounds::BoundRange;
use crate::program::{pack, BoundProgram, ProgramBlock, ProgramWriter, Step, MERGE_TARGET_SLOT};
use crate::query::ColorRangeQuery;
use crate::resolver::{ImageInfo, InfoResolver};
use crate::Result;
use mmdb_editops::{EditOp, EditSequence, Frame, Motion, OpKind};
use mmdb_histogram::{ColorHistogram, Quantizer};
use mmdb_imaging::Rgb;

/// Position of `kind` in a program's per-kind count array, matching
/// the `mmdb_rules_applications_total{op="…"}` series order.
fn kind_slot(kind: OpKind) -> usize {
    match kind {
        OpKind::Define => 0,
        OpKind::Combine => 1,
        OpKind::Modify => 2,
        OpKind::Mutate => 3,
        OpKind::MergeNull => 4,
        OpKind::MergeTarget => MERGE_TARGET_SLOT,
    }
}

/// Which reading of Table 1 the engine applies. See the crate docs for the
/// full discussion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RuleProfile {
    /// The literal table from the paper: `Combine` leaves all three
    /// quantities unchanged; `Mutate` uses ±|DR| (rigid body) or ×M11·M22
    /// (whole image); `Merge` ignores paste overlap and background gap fill.
    PaperTable1,
    /// Provably sound bounds with respect to the `mmdb-editops`
    /// instantiation engine (the default).
    #[default]
    Conservative,
}

impl RuleProfile {
    /// Stable lowercase label: the name of a persisted bound index file, and
    /// the spelling of refusals and of the served
    /// `mmdb_rules_widening_ops_total{profile="conservative"}` series.
    pub fn label(self) -> &'static str {
        match self {
            RuleProfile::PaperTable1 => "paper_table1",
            RuleProfile::Conservative => "conservative",
        }
    }
}

/// The RBM rule engine.
///
/// One engine instance is configured with the system's quantizer, a
/// [`RuleProfile`], and the instantiation background color (needed by the
/// conservative `Merge` rule to bound gap-fill pixels).
pub struct RuleEngine<'q> {
    quantizer: &'q dyn Quantizer,
    profile: RuleProfile,
    background: Rgb,
}

impl<'q> RuleEngine<'q> {
    /// Creates an engine with the default (black) background.
    pub fn new(quantizer: &'q dyn Quantizer, profile: RuleProfile) -> Self {
        Self::with_background(quantizer, profile, Rgb::BLACK)
    }

    /// Creates an engine with an explicit instantiation background color.
    pub fn with_background(
        quantizer: &'q dyn Quantizer,
        profile: RuleProfile,
        background: Rgb,
    ) -> Self {
        RuleEngine {
            quantizer,
            profile,
            background,
        }
    }

    /// The configured quantizer.
    pub fn quantizer(&self) -> &dyn Quantizer {
        self.quantizer
    }

    /// The configured instantiation background color.
    pub fn background(&self) -> Rgb {
        self.background
    }

    /// The bin gap-fill pixels land in (conservative `Merge` rule).
    fn background_bin(&self) -> Result<u32> {
        pack(self.quantizer.bin_of(self.background) as u64)
    }

    /// The bin-independent half of BOUNDS: walks `seq` once, tracking the
    /// canvas and defined region as the executor would move them, and
    /// records what each conservative Table 1 rule will do to a bin's
    /// `[BOUNDmin, BOUNDmax, imagesize]` triple.
    /// Every error a walk can meet — a non-affine or non-finite `Mutate`, a
    /// canvas over the executor's pixel cap, `Merge(NULL)` on an empty
    /// region, an unknown base or merge target — is met here, in operation
    /// order. Accesses only catalog metadata, never pixel data: the base's
    /// dimensions, and each merge target's dimensions and histogram — which
    /// the program keeps, so evaluating it resolves nothing.
    ///
    /// The program holds the Conservative rules whatever this engine's
    /// profile: the literal table is read only by the stepwise entry points.
    /// It is compiled against the base's total, which every evaluation
    /// starts from; a base of 2³² pixels or more is refused.
    pub fn compile(&self, seq: &EditSequence, resolver: &dyn InfoResolver) -> Result<BoundProgram> {
        let base = resolver.require(seq.base)?;
        let program = (seq.base, base.histogram.total(), self.background_bin()?);
        BoundProgram::write(program, |writer| self.compose(seq, &base, resolver, writer))
    }

    /// [`RuleEngine::compile`], appending the program to `block` instead:
    /// the same one walk. On error `block` is left as it was.
    pub fn compile_into(
        &self,
        seq: &EditSequence,
        resolver: &dyn InfoResolver,
        block: &mut ProgramBlock,
    ) -> Result<()> {
        let base = resolver.require(seq.base)?;
        let program = (seq.base, base.histogram.total(), self.background_bin()?);
        block.write(program, |writer| self.compose(seq, &base, resolver, writer))
    }

    /// The compile walk: every operation counted, and every conservative
    /// rule composed into `writer`.
    fn compose(
        &self,
        seq: &EditSequence,
        base: &ImageInfo,
        resolver: &dyn InfoResolver,
        writer: &mut ProgramWriter<'_>,
    ) -> Result<()> {
        let conservative = RuleProfile::Conservative;
        self.walk(seq, base, conservative, resolver, |op, step, target| {
            writer.count_op(kind_slot(op.kind()))?;
            match step {
                Some(step) => writer.push(step, target.map(|t| &t.histogram)),
                None => Ok(()),
            }
        })
    }

    /// The BOUNDS algorithm of §3.2/§4: computes the `[BOUNDmin, BOUNDmax,
    /// imagesize]` triple for histogram bin `bin` of the edited image
    /// described by `seq` under this engine's profile, accessing only
    /// catalog metadata (histograms and dimensions) — never pixel data.
    /// Applies each operation's rule as the walk meets it and keeps
    /// nothing; a caller that bounds the same sequence again should keep a
    /// [`RuleEngine::compile`]d program instead.
    pub fn bounds(
        &self,
        seq: &EditSequence,
        bin: usize,
        resolver: &dyn InfoResolver,
    ) -> Result<BoundRange> {
        assert!(
            bin < self.quantizer.bin_count(),
            "bin {bin} out of range for quantizer with {} bins",
            self.quantizer.bin_count()
        );
        let base = resolver.require(seq.base)?;
        let background_bin = self.background_bin()?;
        let mut range = BoundRange::exact(base.histogram.count(bin), base.histogram.total());
        self.walk(seq, &base, self.profile, resolver, |_, step, target| {
            if let Some(step) = step {
                let target =
                    target.map_or((0, 0), |t| (t.histogram.count(bin), t.histogram.total()));
                step.apply(&mut range, bin, background_bin, target);
            }
            Ok(())
        })?;
        Ok(range)
    }

    /// The per-bin triples of **every** histogram bin under this engine's
    /// profile, snapshotted **after every operation**: element `0` is the
    /// base state, element `i + 1` the state after `seq.ops[i]`, and the
    /// last element's entry `bin` equals [`RuleEngine::bounds`] for that
    /// bin. The soundness audit in `mmdb-analysis` walks these snapshots to
    /// check widening monotonicity and per-op profile containment.
    pub fn bounds_trace(
        &self,
        seq: &EditSequence,
        resolver: &dyn InfoResolver,
    ) -> Result<Vec<Vec<BoundRange>>> {
        let base = resolver.require(seq.base)?;
        let background_bin = self.background_bin()?;
        let mut ranges = base_ranges(&base.histogram);
        let mut trace = Vec::with_capacity(seq.ops.len() + 1);
        trace.push(ranges.clone());
        self.walk(seq, &base, self.profile, resolver, |_, step, target| {
            if let Some(step) = step {
                let target = target.map(|t| &*t.histogram);
                apply_to_all(step, &mut ranges, background_bin, target);
            }
            trace.push(ranges.clone());
            Ok(())
        })?;
        Ok(trace)
    }

    /// Convenience: does the edited image *possibly* satisfy `query`? This
    /// is the §3 pruning test — `false` is definitive (no false negatives),
    /// `true` means the image must be kept as a candidate.
    pub fn may_satisfy(
        &self,
        seq: &EditSequence,
        query: &ColorRangeQuery,
        resolver: &dyn InfoResolver,
    ) -> Result<bool> {
        Ok(self
            .bounds(seq, query.bin, resolver)?
            .overlaps_fraction(query.pct_min, query.pct_max))
    }

    /// The walk behind every entry point: follows the executor's [`Frame`]
    /// through `seq`, and hands `emit` each operation together with the
    /// [`Step`] its Table 1 rule under `profile` amounts to for the
    /// [`Motion`] it made — `None` when the operation cannot change any
    /// bin's triple (`Define`, or a rule applied to an empty region) — and,
    /// for a `Merge` with a target, the target as resolved once for its
    /// dimensions. Both profiles meet the same errors.
    fn walk(
        &self,
        seq: &EditSequence,
        base: &ImageInfo,
        profile: RuleProfile,
        resolver: &dyn InfoResolver,
        mut emit: impl FnMut(&EditOp, Option<Step>, Option<&ImageInfo>) -> Result<()>,
    ) -> Result<()> {
        let literal = profile == RuleProfile::PaperTable1;
        let mut frame = Frame::new(base.width, base.height);
        for op in &seq.ops {
            let target = match op.merge_target() {
                Some(id) => Some((id, resolver.require(id)?)),
                None => None,
            };
            let dims = target.as_ref().map(|(_, t)| (t.width, t.height));
            let step = match (op, frame.step(op, dims)?) {
                // Table 1, `Combine` row. Literal profile: no change.
                // Conservative profile: every DR pixel's color may change,
                // so the bin may lose or gain up to |DR| pixels.
                (EditOp::Combine { .. }, _) if literal => None,
                (EditOp::Combine { .. }, _) => widen(frame.region().area())?,
                // Table 1, `Modify` row: "If RGBnew maps to HB: increase max
                // by |DR|; else if RGBold maps to HB: decrease min by |DR|;
                // else: no change." Read literally, a recoloring inside one
                // bin raises its `max`; conservatively it changes nothing.
                (EditOp::Modify { from, to }, _) => match frame.region().area() {
                    0 => None,
                    d => {
                        let from_bin = pack(self.quantizer.bin_of(*from) as u64)?;
                        let to_bin = pack(self.quantizer.bin_of(*to) as u64)?;
                        let d = pack(d)?;
                        Some(if literal && from_bin == to_bin {
                            Step::Raise { bin: to_bin, d }
                        } else {
                            Step::Modify {
                                from_bin,
                                to_bin,
                                d,
                            }
                        })
                    }
                },
                // Table 1, `Mutate` row: whole-image axis scaling multiplies
                // all three quantities by `M11 · M22`. Nearest-neighbour
                // resampling uses each source row between floor(fy) and
                // ceil(fy) times (and likewise per column), so the per-bin
                // count is bounded by count·⌊fx⌋⌊fy⌋ and count·⌈fx⌉⌈fy⌉.
                (EditOp::Mutate { matrix }, Motion::Resize { from, to }) => {
                    let new_total = pack(to.0 as u64 * to.1 as u64)?;
                    Some(if literal {
                        Step::ScaleBy {
                            factor: matrix.m[0][0] * matrix.m[1][1],
                            new_total,
                        }
                    } else {
                        let fx = to.0 as f64 / from.0 as f64;
                        let fy = to.1 as f64 / from.1 as f64;
                        Step::Scale {
                            mul_min: pack(fx.floor() as u64 * fy.floor() as u64)?,
                            mul_max: pack((fx.ceil() as u64).max(1) * (fy.ceil() as u64).max(1))?,
                            new_total,
                        }
                    })
                }
                // Everything else (the "rigid body" case and its
                // generalizations) widens by the affected pixel count with
                // the total unchanged. Paper: ±|DR|. Sound w.r.t. stamp
                // semantics: only destination pixels change.
                (_, Motion::Stamp { source, dest }) => {
                    widen(if literal { source } else { dest }.area())?
                }
                // Table 1, `Merge` with NULL target: the image becomes the DR.
                (_, Motion::Crop { source }) => Some(Step::MergeNull {
                    d: pack(source.area())?,
                }),
                // Table 1, `Merge` with a target: the canvas is the union of
                // the target and the pasted rectangle.
                (
                    _,
                    Motion::Paste {
                        source,
                        dest,
                        target: target_rect,
                        canvas,
                    },
                ) => {
                    let (id, target) = target.as_ref().expect("resolved above");
                    let d = source.area();
                    let new_total = canvas.area();
                    let covered = dest.intersect(&target_rect).area();
                    // canvas ⊇ target ∪ dest, so new_total + covered ≥ T + d.
                    // The literal table ignores the overlap and the gap.
                    let gap = (new_total + covered) - target.histogram.total() - d;
                    let (covered, gap) = if literal { (d, 0) } else { (covered, gap) };
                    Some(Step::MergeTarget {
                        target: *id,
                        d: pack(d)?,
                        covered: pack(covered)?,
                        gap: pack(gap)?,
                        new_total: pack(new_total)?,
                    })
                }
                _ => None,
            };
            emit(op, step, target.as_ref().map(|(_, t)| t))?;
        }
        Ok(())
    }
}

/// The exact per-bin triples of a binary image: where every walk starts.
fn base_ranges(base: &ColorHistogram) -> Vec<BoundRange> {
    let total = base.total();
    base.counts()
        .iter()
        .map(|&count| BoundRange::exact(count, total))
        .collect()
}

/// Applies `step` to every bin's range; `target` is the merge target's
/// histogram, which only a [`Step::MergeTarget`] reads.
fn apply_to_all(
    step: Step,
    ranges: &mut [BoundRange],
    background_bin: u32,
    target: Option<&ColorHistogram>,
) {
    for (bin, range) in ranges.iter_mut().enumerate() {
        let target = target.map_or((0, 0), |t| (t.count(bin), t.total()));
        step.apply(range, bin, background_bin, target);
    }
}

/// A widening step, or nothing when it would move no bound.
fn widen(d: u64) -> Result<Option<Step>> {
    Ok(match d {
        0 => None,
        d => Some(Step::Widen { d: pack(d)? }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::{ImageInfo, MapInfoResolver};
    use crate::RuleError;
    use mmdb_editops::{EditSequence, ImageId, Matrix3};
    use mmdb_histogram::{ColorHistogram, RgbQuantizer};
    use mmdb_imaging::{draw, RasterImage, Rect};

    fn q() -> RgbQuantizer {
        RgbQuantizer::default_64()
    }

    fn register(resolver: &mut MapInfoResolver, id: u64, img: &RasterImage) {
        let hist = ColorHistogram::extract(img, &q());
        resolver.insert(
            ImageId::new(id),
            ImageInfo::new(hist, img.width(), img.height()),
        );
    }

    /// 10×10 image: rows 0..3 red (30 px), rest white (70 px).
    fn base_image() -> RasterImage {
        let mut img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, 10, 3), Rgb::RED);
        img
    }

    fn setup() -> (MapInfoResolver, RgbQuantizer) {
        let mut r = MapInfoResolver::new();
        register(&mut r, 1, &base_image());
        (r, q())
    }

    #[test]
    fn empty_sequence_bounds_are_exact_base_histogram() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let seq = EditSequence::new(ImageId::new(1), vec![]);
        let red = quant.bin_of(Rgb::RED);
        let b = engine.bounds(&seq, red, &r).unwrap();
        assert_eq!(b, BoundRange::exact(30, 100));
        assert!(b.is_exact());
    }

    #[test]
    fn unknown_base_is_an_error() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let seq = EditSequence::new(ImageId::new(42), vec![]);
        assert!(matches!(
            engine.bounds(&seq, 0, &r),
            Err(RuleError::UnknownImage(_))
        ));
    }

    #[test]
    fn modify_into_bin_raises_max_only() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let red = quant.bin_of(Rgb::RED);
        // Recolor green→red inside a 4×4 region: red may gain ≤16 pixels.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .modify(Rgb::GREEN, Rgb::RED)
            .build();
        let b = engine.bounds(&seq, red, &r).unwrap();
        assert_eq!(b.min, 30);
        assert_eq!(b.max, 46);
        assert_eq!(b.total, 100);
    }

    #[test]
    fn modify_out_of_bin_lowers_min_only() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let red = quant.bin_of(Rgb::RED);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 10, 2))
            .modify(Rgb::RED, Rgb::GREEN)
            .build();
        let b = engine.bounds(&seq, red, &r).unwrap();
        assert_eq!(b.min, 10); // 30 − 20
        assert_eq!(b.max, 30);
    }

    #[test]
    fn modify_unrelated_bins_no_change() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let red = quant.bin_of(Rgb::RED);
        let seq = EditSequence::builder(ImageId::new(1))
            .modify(Rgb::GREEN, Rgb::BLUE)
            .build();
        let b = engine.bounds(&seq, red, &r).unwrap();
        assert_eq!(b, BoundRange::exact(30, 100));
    }

    #[test]
    fn modify_within_same_bin_conservative_refinement() {
        let (r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        // Two reds in the same 4×4×4 bin.
        let dark_red = Rgb::new(250, 10, 10);
        assert_eq!(quant.bin_of(dark_red), red);
        let seq = EditSequence::builder(ImageId::new(1))
            .modify(Rgb::RED, dark_red)
            .build();
        let cons = RuleEngine::new(&quant, RuleProfile::Conservative);
        assert!(cons.bounds(&seq, red, &r).unwrap().is_exact());
        // The literal table widens max because RGBnew maps to HB.
        let lit = RuleEngine::new(&quant, RuleProfile::PaperTable1);
        let b = lit.bounds(&seq, red, &r).unwrap();
        assert_eq!(b.max, 100);
        assert_eq!(b.min, 30);
    }

    #[test]
    fn combine_profiles_differ() {
        let (r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 5, 5))
            .blur()
            .build();
        let lit = RuleEngine::new(&quant, RuleProfile::PaperTable1);
        assert_eq!(
            lit.bounds(&seq, red, &r).unwrap(),
            BoundRange::exact(30, 100)
        );
        let cons = RuleEngine::new(&quant, RuleProfile::Conservative);
        let b = cons.bounds(&seq, red, &r).unwrap();
        assert_eq!(b.min, 5); // 30 − 25
        assert_eq!(b.max, 55); // 30 + 25
    }

    #[test]
    fn mutate_rigid_body_widens_by_region() {
        let (r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 3, 3))
            .translate(4.0, 4.0)
            .build();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let b = engine.bounds(&seq, red, &r).unwrap();
        // Destination is the translated 3×3 box (9 px), fully on canvas.
        assert_eq!(b.min, 21);
        assert_eq!(b.max, 39);
        assert_eq!(b.total, 100);
    }

    #[test]
    fn mutate_whole_image_scale_multiplies() {
        let (r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        let seq = EditSequence::builder(ImageId::new(1))
            .scale(2.0, 2.0)
            .build();
        for profile in [RuleProfile::PaperTable1, RuleProfile::Conservative] {
            let engine = RuleEngine::new(&quant, profile);
            let b = engine.bounds(&seq, red, &r).unwrap();
            assert_eq!(b.total, 400, "{profile:?}");
            // Integer 2× scale is exact under both profiles.
            assert_eq!(b.min, 120, "{profile:?}");
            assert_eq!(b.max, 120, "{profile:?}");
        }
    }

    #[test]
    fn mutate_fractional_scale_conservative_is_loose_but_bounded() {
        let (r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        let seq = EditSequence::builder(ImageId::new(1))
            .scale(1.5, 1.0)
            .build();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let b = engine.bounds(&seq, red, &r).unwrap();
        assert_eq!(b.total, 150);
        assert!(b.min <= 45 && 45 <= b.max, "{b:?}"); // true value = 45
    }

    #[test]
    fn merge_null_crop_formulae() {
        let (r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        // Crop to rows 0..5 (50 px): red pixels in crop ≥ 50 − 70 = 0 and
        // ≤ min(30, 50) = 30.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 10, 5))
            .crop_to_region()
            .build();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let b = engine.bounds(&seq, red, &r).unwrap();
        assert_eq!(b.total, 50);
        assert_eq!(b.min, 0);
        assert_eq!(b.max, 30);
        // Crop to rows 0..8 (80 px): ≥ 80 − 70 = 10.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 10, 8))
            .crop_to_region()
            .build();
        let b = engine.bounds(&seq, red, &r).unwrap();
        assert_eq!(b.min, 10);
        assert_eq!(b.max, 30);
    }

    #[test]
    fn merge_null_empty_region_is_error() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(50, 50, 60, 60))
            .crop_to_region()
            .build();
        assert!(matches!(
            engine.bounds(&seq, 0, &r),
            Err(RuleError::InvalidSequence(_))
        ));
    }

    #[test]
    fn merge_target_interior_paste() {
        let (mut r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        // Target: 20×20 solid red (400 red px).
        let target = RasterImage::filled(20, 20, Rgb::RED).unwrap();
        register(&mut r, 2, &target);
        // Paste a 4×4 DR at (0,0) — fully covering part of the target.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .merge_into(ImageId::new(2), 0, 0)
            .build();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let b = engine.bounds(&seq, red, &r).unwrap();
        assert_eq!(b.total, 400);
        // DR contributes [0, 16]; surviving target red = 400 − 16 = 384.
        assert_eq!(b.min, 384);
        assert_eq!(b.max, 400);
    }

    #[test]
    fn merge_target_growing_canvas_counts_gap_background() {
        let (mut r, quant) = setup();
        let black = quant.bin_of(Rgb::BLACK);
        let target = RasterImage::filled(5, 5, Rgb::WHITE).unwrap();
        register(&mut r, 2, &target);
        // Paste a 3×3 region at (4,4): canvas 7×7, gap = 49−25−9+1 = 16,
        // filled with black background.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 3, 3))
            .merge_into(ImageId::new(2), 4, 4)
            .build();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let b = engine.bounds(&seq, black, &r).unwrap();
        assert_eq!(b.total, 49);
        assert!(b.min >= 16, "gap contributes at least 16 black: {b:?}");
        // Literal profile ignores the gap.
        let lit = RuleEngine::new(&quant, RuleProfile::PaperTable1);
        let bl = lit.bounds(&seq, black, &r).unwrap();
        assert_eq!(bl.total, 49);
        assert!(bl.min < 16);
    }

    #[test]
    fn merge_target_unknown_is_error() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let seq = EditSequence::builder(ImageId::new(1))
            .merge_into(ImageId::new(9), 0, 0)
            .build();
        assert!(matches!(
            engine.bounds(&seq, 0, &r),
            Err(RuleError::UnknownImage(_))
        ));
    }

    #[test]
    fn may_satisfy_prunes_impossible() {
        let (r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        // 30% red exactly; a small modify can push it to at most 34%.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 2, 2))
            .modify(Rgb::WHITE, Rgb::RED)
            .build();
        assert!(engine
            .may_satisfy(&seq, &ColorRangeQuery::at_least(red, 0.32), &r)
            .unwrap());
        assert!(!engine
            .may_satisfy(&seq, &ColorRangeQuery::at_least(red, 0.35), &r)
            .unwrap());
        assert!(engine
            .may_satisfy(&seq, &ColorRangeQuery::at_most(red, 0.30), &r)
            .unwrap());
    }

    #[test]
    fn bounds_never_widen_under_bound_widening_sequence_when_base_matches() {
        // The §4 lemma behind BWM: for a sequence of bound-widening ops, if
        // the base fraction is inside the query range, the final bounds still
        // overlap the range.
        let (r, quant) = setup();
        let red = quant.bin_of(Rgb::RED);
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(1, 1, 8, 8))
            .blur()
            .modify(Rgb::RED, Rgb::GREEN)
            .translate(2.0, 2.0)
            .define(Rect::new(0, 0, 10, 6))
            .crop_to_region()
            .build();
        assert!(seq.all_bound_widening());
        // Base is 30% red; any query range containing 0.30 must keep the image.
        for (lo, hi) in [(0.0, 1.0), (0.3, 0.3), (0.25, 0.35), (0.0, 0.3), (0.3, 1.0)] {
            let q = ColorRangeQuery::new(red, lo, hi);
            assert!(
                engine.may_satisfy(&seq, &q, &r).unwrap(),
                "query [{lo},{hi}] must not prune a matching-base widening sequence"
            );
        }
    }

    #[test]
    fn mutate_with_empty_region_is_noop() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(50, 50, 60, 60)) // clips to empty
            .translate(3.0, 3.0)
            .build();
        let b = engine.bounds(&seq, quant.bin_of(Rgb::RED), &r).unwrap();
        assert_eq!(b, BoundRange::exact(30, 100));
    }

    #[test]
    fn singular_mutate_is_bounded_not_rejected() {
        // A det-0 affine matrix collapses the region; the executor forward-
        // maps it and the rules must still produce sound (if wide) bounds.
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .mutate(Matrix3::scale(0.0, 1.0))
            .build();
        let b = engine.bounds(&seq, quant.bin_of(Rgb::RED), &r);
        assert!(b.is_ok(), "{b:?}");
        let b = b.unwrap();
        assert!(b.min <= 30 && b.max >= 30);
    }

    #[test]
    fn projective_mutate_rejected() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let mut m = Matrix3::IDENTITY;
        m.m[2] = [0.01, 0.0, 1.0];
        let seq = EditSequence::builder(ImageId::new(1)).mutate(m).build();
        assert!(matches!(
            engine.bounds(&seq, 0, &r),
            Err(RuleError::InvalidSequence(_))
        ));
    }

    #[test]
    fn oversized_scale_rejected_like_executor() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let seq = EditSequence::builder(ImageId::new(1))
            .scale(100_000.0, 100_000.0)
            .build();
        assert!(matches!(
            engine.bounds(&seq, 0, &r),
            Err(RuleError::InvalidSequence(_))
        ));
    }

    #[test]
    fn merge_target_with_empty_region_keeps_target_histogram() {
        let (mut r, quant) = setup();
        let target = RasterImage::filled(20, 20, Rgb::GREEN).unwrap();
        register(&mut r, 2, &target);
        let green = quant.bin_of(Rgb::GREEN);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(90, 90, 99, 99)) // clips to empty
            .merge_into(ImageId::new(2), 5, 5)
            .build();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let b = engine.bounds(&seq, green, &r).unwrap();
        assert_eq!(b.total, 400);
        assert_eq!(
            (b.min, b.max),
            (400, 400),
            "empty paste leaves the target exact"
        );
    }

    #[test]
    fn chained_merges_track_geometry() {
        // Merge into target, then crop the merged result: totals follow.
        let (mut r, quant) = setup();
        let target = RasterImage::filled(20, 20, Rgb::GREEN).unwrap();
        register(&mut r, 2, &target);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 5, 5))
            .merge_into(ImageId::new(2), 0, 0)
            .define(Rect::new(0, 0, 10, 10))
            .crop_to_region()
            .build();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let b = engine.bounds(&seq, quant.bin_of(Rgb::GREEN), &r).unwrap();
        assert_eq!(b.total, 100);
        // At most 75 green can survive (25 pixels were pasted over), at
        // least 100 − 25 = 75 minus prior uncertainty → range covers truth.
        assert!(b.max <= 100);
        assert!(b.min <= 75 && 75 <= b.max);
    }

    #[test]
    fn bounds_trace_matches_bounds_per_op() {
        let (r, quant) = setup();
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(1, 1, 8, 8))
            .blur()
            .modify(Rgb::RED, Rgb::GREEN)
            .translate(2.0, 2.0)
            .define(Rect::new(0, 0, 10, 6))
            .crop_to_region()
            .build();
        for profile in [RuleProfile::PaperTable1, RuleProfile::Conservative] {
            let engine = RuleEngine::new(&quant, profile);
            let trace = engine.bounds_trace(&seq, &r).unwrap();
            assert_eq!(trace.len(), seq.ops.len() + 1);
            // Element 0 is the exact base state.
            assert!(trace[0].iter().all(super::BoundRange::is_exact));
            // The final element agrees with bounds() on every bin.
            for (bin, bound) in trace[seq.ops.len()].iter().enumerate() {
                let b = engine.bounds(&seq, bin, &r).unwrap();
                assert_eq!(*bound, b, "{profile:?} bin {bin}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_out_of_range_panics() {
        let (r, quant) = setup();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let _ = engine.bounds(&EditSequence::new(ImageId::new(1), vec![]), 999, &r);
    }
}
