//! The compiled form of an edit sequence: everything in a Table 1 walk that
//! does not depend on the queried histogram bin, computed once.
//!
//! A BOUNDS walk tracks three integers (`min`, `max`, `total`) and a piece of
//! geometry (canvas and defined region). The geometry — and with it |DR|,
//! canvas sizes, paste overlap, gap fill, the bins a `Modify` maps between,
//! and every error condition — is the same for every bin, so
//! [`RuleEngine::compile`](crate::RuleEngine::compile) walks it once and
//! leaves a [`BoundProgram`]: a short list of arithmetic steps that
//! [`BoundProgram::eval`] replays for one bin under the Conservative rules.
//! Consecutive `Widen` and `Modify` steps leave `total` alone and only lower
//! `min` and raise `max`, so the program keeps each maximal run of them as
//! one `Run` step, which evaluation applies in one pass.
//!
//! The literal Table 1 profile is never compiled. A walk under it emits the
//! same steps with the literal constants, plus two steps of its own, and
//! [`RuleEngine`](crate::RuleEngine)'s stepwise entry points apply them one
//! at a time.

use crate::bounds::BoundRange;
use crate::{Result, RuleError};
use mmdb_editops::ImageId;
use mmdb_histogram::ColorHistogram;
use std::sync::Arc;

/// One bin-dependent adjustment of the bound triple under one rule
/// profile, as the walk emits it. A program holds the conservative ones.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Step {
    /// `Combine` and sub-region `Mutate`: `min −= d`, `max += d`.
    Widen { d: u32 },
    /// `Modify`: `max += d` when `to_bin` is the queried bin and `from_bin`
    /// is not, else `min −= d` when `from_bin` is.
    Modify { from_bin: u32, to_bin: u32, d: u32 },
    /// Whole-image axis scale: `min` and `max` multiplied by `⌊fx⌋ · ⌊fy⌋`
    /// and `⌈fx⌉ · ⌈fy⌉` of the realized per-axis resampling factors.
    Scale {
        mul_min: u32,
        mul_max: u32,
        new_total: u32,
    },
    /// `Merge` with NULL target: the image becomes the DR of `d` pixels.
    MergeNull { d: u32 },
    /// `Merge` into `target`, whose histogram the program keeps beside its
    /// words.
    MergeTarget {
        target: ImageId,
        /// |DR| of the pasted region.
        d: u32,
        /// Target pixels the paste covers.
        covered: u32,
        /// Canvas pixels belonging to neither image, filled with the
        /// background color.
        gap: u32,
        new_total: u32,
    },
    /// Literal Table 1 only: whole-image scale multiplies all three
    /// quantities by `M11 · M22`.
    ScaleBy { factor: f64, new_total: u32 },
    /// Literal Table 1 only: a `Modify` within one bin raises that bin's
    /// `max` by `d`.
    Raise { bin: u32, d: u32 },
}

/// A step's first word: its opcode in the low [`OP_BITS`] bits and, for a
/// run, its number of `Modify` entries above them.
const OP_BITS: u32 = 2;
const OP_MASK: u32 = (1 << OP_BITS) - 1;
const OP_RUN: u32 = 0;
const OP_SCALE: u32 = 1;
const OP_MERGE_NULL: u32 = 2;
const OP_MERGE_TARGET: u32 = 3;

/// The most `Modify` entries a run's head word can count.
const MAX_RUN_MODIFIES: u32 = u32::MAX >> OP_BITS;

/// Header words: base id (low, high), background bin, six per-kind op
/// counts.
const HEADER_WORDS: usize = 9;
const KIND_COUNTS: std::ops::Range<usize> = 3..HEADER_WORDS;

/// Where `Merge`-with-target operations are counted among the six kinds —
/// the one kind whose rule is not bound-widening.
pub(crate) const MERGE_TARGET_SLOT: usize = 5;

/// Packs a pixel count, bin or multiplier into a program word. Every value
/// that reaches here is bounded by a canvas area (`MAX_CANVAS_PIXELS = 2^26`
/// after any scale or merge) or a base image's area; a base image of 2^32
/// pixels or more cannot be bounded.
pub(crate) fn pack(value: u64) -> Result<u32> {
    u32::try_from(value).map_err(|_| {
        RuleError::InvalidSequence(format!("{value} does not fit a bound program word"))
    })
}

fn split(value: u64) -> [u32; 2] {
    [value as u32, (value >> 32) as u32]
}

fn join(low: u32, high: u32) -> u64 {
    u64::from(low) | u64::from(high) << 32
}

/// A maximal run of [`Step::Widen`] and [`Step::Modify`] steps, as a program
/// stores it. Each such step lowers `min` and raises `max` by an amount that
/// does not depend on where the bounds stand and leaves `total` alone, and
/// between such steps the clamp of `min` to `max` never binds. So a run's
/// effect is one saturating subtraction from `min` and one addition to `max`
/// capped at `total` — exactly what its steps do one at a time.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Run<'a> {
    /// Summed widenings.
    widen: u32,
    /// `from_bin`, `to_bin`, `d` of each `Modify`, in operation order.
    modifies: &'a [u32],
}

/// All ones when `condition` holds, else zero.
fn mask(condition: bool) -> u64 {
    u64::from(condition).wrapping_neg()
}

impl Run<'_> {
    /// Applies the run's `Combine`, sub-region `Mutate` and `Modify` rules to
    /// `range` for histogram bin `bin`: each widening lowers `min` and raises
    /// `max` by its `d`; each `Modify` raises `max` by its `d` when `to_bin`
    /// is the queried bin and `from_bin` is not (recoloring inside one bin
    /// cannot change its population), else lowers `min` when `from_bin` is.
    /// The sums are masked, not branched on, and one clamp ends the run.
    #[inline]
    fn apply(self, range: &mut BoundRange, bin: usize) {
        let mut lower = u64::from(self.widen);
        let mut raise = lower;
        for entry in self.modifies.chunks_exact(3) {
            let &[from_bin, to_bin, d] = entry else {
                unreachable!("chunks_exact(3) yields three words")
            };
            let (from_bin, to_bin, d) = (from_bin as usize, to_bin as usize, u64::from(d));
            raise += d & mask(to_bin == bin && from_bin != to_bin);
            lower += d & mask(from_bin == bin && to_bin != bin);
        }
        range.min = range.min.saturating_sub(lower);
        range.max = range.max.saturating_add(raise);
        *range = range.clamped();
    }
}

impl Step {
    /// Applies this step's Table 1 rule to `range` for histogram bin `bin`.
    /// `target` is the merge target's `(count in bin, total)`; only
    /// [`Step::MergeTarget`] reads it, and counts the gap only in
    /// `background_bin`. A `Widen` or `Modify` is a [`Run`] of one.
    ///
    /// Every arm ends by restoring `min <= max <= total`, which the next
    /// step's subtractions rely on.
    pub(crate) fn apply(
        self,
        range: &mut BoundRange,
        bin: usize,
        background_bin: u32,
        target: (u64, u64),
    ) {
        let r = range;
        match self {
            Step::Widen { d } => {
                let run = Run {
                    widen: d,
                    modifies: &[],
                };
                return run.apply(r, bin);
            }
            Step::Modify {
                from_bin,
                to_bin,
                d,
            } => {
                let run = Run {
                    widen: 0,
                    modifies: &[from_bin, to_bin, d],
                };
                return run.apply(r, bin);
            }
            // Nearest-neighbour resampling uses each source row between
            // ⌊fy⌋ and ⌈fy⌉ times (likewise per column).
            Step::Scale {
                mul_min,
                mul_max,
                new_total,
            } => {
                r.min = r.min.saturating_mul(u64::from(mul_min));
                r.max = r.max.saturating_mul(u64::from(mul_max));
                r.total = u64::from(new_total);
            }
            // min' = |DR| − (E − HBmin), max' = MIN(HBmax, |DR|), total' = |DR|.
            Step::MergeNull { d } => {
                let d = u64::from(d);
                r.min = d.saturating_sub(r.total - r.min);
                r.max = r.max.min(d);
                r.total = d;
            }
            // The pasted DR contributes [|DR| − (E − HBmin), MIN(HBmax, |DR|)],
            // the surviving target pixels [T_HB − covered, MIN(T_HB, T −
            // covered)], and the gap pixels, all background, an exact count.
            // The literal table's walk takes covered = |DR| and no gap.
            Step::MergeTarget {
                d,
                covered,
                gap,
                new_total,
                ..
            } => {
                let (t_hb, t_total) = target;
                let (d, covered) = (u64::from(d), u64::from(covered));
                let gap = u64::from(gap) & mask(background_bin as usize == bin);
                let dr_min = d.saturating_sub(r.total - r.min);
                let dr_max = r.max.min(d);
                r.min = dr_min + t_hb.saturating_sub(covered) + gap;
                r.max = dr_max + t_hb.min(t_total.saturating_sub(covered)) + gap;
                r.total = u64::from(new_total);
            }
            Step::ScaleBy { factor, new_total } => {
                r.min = (r.min as f64 * factor).floor().max(0.0) as u64;
                r.max = (r.max as f64 * factor).ceil() as u64;
                r.total = u64::from(new_total);
            }
            Step::Raise { bin: raised, d } => {
                r.max += u64::from(d) & mask(raised as usize == bin);
            }
        }
        *r = r.clamped();
    }
}

/// One step of a program as evaluation replays it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Item<'a> {
    Run(Run<'a>),
    /// A [`Step::Scale`], [`Step::MergeNull`] or [`Step::MergeTarget`]: the
    /// steps that set `total` and so end a run.
    Step(Step),
}

/// Decodes the step words of a program.
struct Items<'a>(&'a [u32]);

impl<'a> Iterator for Items<'a> {
    type Item = Item<'a>;

    #[inline]
    fn next(&mut self) -> Option<Item<'a>> {
        let (&head, words) = self.0.split_first()?;
        let (item, rest) = match (head & OP_MASK, words) {
            (OP_RUN, &[widen, ref rest @ ..]) => {
                let (modifies, rest) = rest.split_at(3 * (head >> OP_BITS) as usize);
                (Item::Run(Run { widen, modifies }), rest)
            }
            (OP_SCALE, &[mul_min, mul_max, new_total, ref rest @ ..]) => (
                Item::Step(Step::Scale {
                    mul_min,
                    mul_max,
                    new_total,
                }),
                rest,
            ),
            (OP_MERGE_NULL, &[d, ref rest @ ..]) => (Item::Step(Step::MergeNull { d }), rest),
            (OP_MERGE_TARGET, &[low, high, d, covered, gap, new_total, ref rest @ ..]) => (
                Item::Step(Step::MergeTarget {
                    target: ImageId::new(join(low, high)),
                    d,
                    covered,
                    gap,
                    new_total,
                }),
                rest,
            ),
            _ => unreachable!("bound programs are only built by ProgramBuilder"),
        };
        self.0 = rest;
        Some(item)
    }
}

/// Accumulates a program while [`RuleEngine::compile`](crate::RuleEngine)
/// walks the operations.
pub(crate) struct ProgramBuilder {
    words: Vec<u32>,
    targets: Vec<Arc<ColorHistogram>>,
    /// Where the open run's head word is: set while the last step pushed
    /// is a `Widen` or a `Modify`.
    run: Option<usize>,
}

impl ProgramBuilder {
    pub(crate) fn new(base: ImageId, background_bin: u32) -> Self {
        let [low, high] = split(base.raw());
        let mut words = Vec::with_capacity(HEADER_WORDS + 16);
        words.extend([low, high, background_bin, 0, 0, 0, 0, 0, 0]);
        ProgramBuilder {
            words,
            targets: Vec::new(),
            run: None,
        }
    }

    /// Counts one operation of kind slot `kind` (see `engine::kind_slot`).
    pub(crate) fn count_op(&mut self, kind: usize) -> Result<()> {
        let slot = &mut self.words[KIND_COUNTS][kind];
        *slot = pack(u64::from(*slot) + 1)?;
        Ok(())
    }

    /// Appends `step`; a [`Step::MergeTarget`] comes with `target`, the
    /// histogram of the image it pastes into. A `Widen` or `Modify` joins
    /// the open run; any other step closes it.
    pub(crate) fn push(&mut self, step: Step, target: Option<&Arc<ColorHistogram>>) {
        match step {
            Step::Widen { d } => self.extend_run(d, None),
            Step::Modify {
                from_bin,
                to_bin,
                d,
            } => self.extend_run(0, Some([from_bin, to_bin, d])),
            Step::Scale {
                mul_min,
                mul_max,
                new_total,
            } => self.close_run(&[OP_SCALE, mul_min, mul_max, new_total]),
            Step::MergeNull { d } => self.close_run(&[OP_MERGE_NULL, d]),
            Step::MergeTarget {
                target: id,
                d,
                covered,
                gap,
                new_total,
            } => {
                let target = target.expect("a merge step comes with its target's histogram");
                self.targets.push(Arc::clone(target));
                let [low, high] = split(id.raw());
                self.close_run(&[OP_MERGE_TARGET, low, high, d, covered, gap, new_total]);
            }
            Step::ScaleBy { .. } | Step::Raise { .. } => {
                unreachable!("a program holds the conservative rules only")
            }
        }
    }

    /// Appends a step that ends the open run.
    fn close_run(&mut self, words: &[u32]) {
        self.run = None;
        self.words.extend_from_slice(words);
    }

    /// Adds `widen` and `modify` to the open run, or opens a run when there
    /// is none or the widening sum or the entry count would not fit its word.
    fn extend_run(&mut self, widen: u32, modify: Option<[u32; 3]>) {
        let added = u32::from(modify.is_some());
        let fused = self.run.and_then(|head| {
            let count = (self.words[head] >> OP_BITS) + added;
            let widen = self.words[head + 1].checked_add(widen)?;
            (count <= MAX_RUN_MODIFIES).then_some((head, [OP_RUN | count << OP_BITS, widen]))
        });
        match fused {
            Some((head, words)) => self.words[head..head + 2].copy_from_slice(&words),
            None => {
                self.run = Some(self.words.len());
                self.words.extend([OP_RUN | added << OP_BITS, widen]);
            }
        }
        self.words.extend(modify.iter().flatten());
    }

    pub(crate) fn finish(self) -> BoundProgram {
        BoundProgram {
            words: self.words.into(),
            targets: self.targets.into(),
        }
    }
}

/// An edit sequence compiled for BOUNDS under the Conservative rules: the
/// base it starts from, how many operations of each kind it holds, the
/// steps that change the bound triple, and the histogram of every merge
/// target those steps paste into. Independent of the queried bin, and —
/// because stored sequences, the quantizer, the background and the
/// histograms and dimensions of the binary images a stored sequence names
/// never change, those images cannot be deleted while it is stored, and ids
/// are never reused — valid for as long as the sequence is stored.
///
/// One allocation of 32-bit words — 36 header bytes; per run of `Widen` and
/// `Modify` steps 8 bytes plus 12 per `Modify`; 8–28 per other step —
/// shared by clones, plus one shared histogram per merge step. Operations
/// that cannot change any bin's bounds, such as `Define`, leave no step and
/// do not end a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundProgram {
    words: Arc<[u32]>,
    /// `targets[i]` is the histogram of the `i`-th [`Step::MergeTarget`].
    targets: Box<[Arc<ColorHistogram>]>,
}

impl BoundProgram {
    /// The base image the sequence edits; evaluation starts from its
    /// histogram.
    pub fn base(&self) -> ImageId {
        ImageId::new(join(self.words[0], self.words[1]))
    }

    fn background_bin(&self) -> u32 {
        self.words[2]
    }

    /// Operations per kind, in `mmdb_rules_applications_total{op=…}` order:
    /// define, combine, modify, mutate, merge_null, merge_target.
    pub fn kind_counts(&self) -> &[u32] {
        &self.words[KIND_COUNTS]
    }

    /// Number of operations in the compiled sequence.
    pub fn op_count(&self) -> usize {
        self.kind_counts().iter().map(|&n| n as usize).sum()
    }

    /// True when every operation's rule is bound-widening — the §4
    /// condition for the BWM Main Component (no `Merge` with a target).
    pub fn all_widening(&self) -> bool {
        self.kind_counts()[MERGE_TARGET_SLOT] == 0
    }

    /// Number of steps evaluation replays: one per run of `Widen` and
    /// `Modify` steps, one per scale or merge (at most [`Self::op_count`]).
    pub fn step_count(&self) -> usize {
        self.items().count()
    }

    /// Heap bytes this program occupies, allocation header and the shared
    /// target histograms excluded.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words) + std::mem::size_of_val(&*self.targets)
    }

    /// The merge targets whose histograms the program keeps, in operation
    /// order.
    pub fn merge_targets(&self) -> impl Iterator<Item = ImageId> + '_ {
        self.items().filter_map(|item| match item {
            Item::Step(Step::MergeTarget { target, .. }) => Some(target),
            _ => None,
        })
    }

    fn items(&self) -> Items<'_> {
        Items(&self.words[HEADER_WORDS..])
    }

    /// Runs the program for histogram bin `bin`, starting from the base
    /// image's exact `base_count` of `base_total` pixels: the Conservative
    /// rules, in integer arithmetic. Reads nothing but the program: every
    /// merge target's histogram was taken at compile time.
    pub fn eval(&self, bin: usize, base_count: u64, base_total: u64) -> BoundRange {
        let mut range = BoundRange::exact(base_count, base_total);
        let mut targets = self.targets.iter();
        for item in self.items() {
            match item {
                Item::Run(run) => run.apply(&mut range, bin),
                Item::Step(step) => {
                    let target = match step {
                        Step::MergeTarget { .. } => {
                            let target = targets.next().expect("one histogram per merge step");
                            (target.count(bin), target.total())
                        }
                        _ => (0, 0),
                    };
                    step.apply(&mut range, bin, self.background_bin(), target);
                }
            }
        }
        range
    }

    /// Runs the program for every bin of `base` at once, step-major. Element
    /// `bin` equals [`BoundProgram::eval`] for that bin.
    pub fn eval_vector(&self, base: &ColorHistogram) -> Vec<BoundRange> {
        let mut ranges = base_ranges(base);
        let mut targets = self.targets.iter();
        for item in self.items() {
            match item {
                Item::Run(run) => {
                    for (bin, range) in ranges.iter_mut().enumerate() {
                        run.apply(range, bin);
                    }
                }
                Item::Step(step) => {
                    let target = match step {
                        Step::MergeTarget { .. } => {
                            Some(&**targets.next().expect("one histogram per merge step"))
                        }
                        _ => None,
                    };
                    apply_to_all(step, &mut ranges, self.background_bin(), target);
                }
            }
        }
        ranges
    }
}

/// The exact per-bin triples of a binary image: where every walk starts.
pub(crate) fn base_ranges(base: &ColorHistogram) -> Vec<BoundRange> {
    let total = base.total();
    base.counts()
        .iter()
        .map(|&count| BoundRange::exact(count, total))
        .collect()
}

/// Applies `step` to every bin's range; `target` is the merge target's
/// histogram, which only a [`Step::MergeTarget`] reads.
pub(crate) fn apply_to_all(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::{ImageInfo, InfoResolver, MapInfoResolver};
    use crate::{RuleEngine, RuleProfile};
    use mmdb_editops::EditSequence;
    use mmdb_histogram::RgbQuantizer;
    use mmdb_imaging::{draw, RasterImage, Rect, Rgb};

    fn widen(d: u32) -> Step {
        Step::Widen { d }
    }

    fn modify(from_bin: u32, to_bin: u32, d: u32) -> Step {
        Step::Modify {
            from_bin,
            to_bin,
            d,
        }
    }

    /// Applies `steps` one at a time to every bin of `base`.
    fn stepwise(steps: &[Step], base: &ColorHistogram, target: &ColorHistogram) -> Vec<BoundRange> {
        let mut ranges = base_ranges(base);
        for &step in steps {
            let target = matches!(step, Step::MergeTarget { .. }).then_some(target);
            apply_to_all(step, &mut ranges, 0, target);
        }
        ranges
    }

    /// Builds a program from `steps` and checks, for every bin of `base`,
    /// that `eval` and `eval_vector` equal applying the steps one at a time
    /// with [`Step::apply`].
    fn fused(steps: &[Step], base: &ColorHistogram, target: &Arc<ColorHistogram>) -> BoundProgram {
        let mut builder = ProgramBuilder::new(ImageId::new(1), 0);
        for &step in steps {
            builder.push(step, Some(target));
        }
        let program = builder.finish();
        let stepwise = stepwise(steps, base, target);
        let per_bin: Vec<BoundRange> = (0..base.bin_count())
            .map(|bin| program.eval(bin, base.count(bin), base.total()))
            .collect();
        assert_eq!(per_bin, stepwise);
        assert_eq!(program.eval_vector(base), stepwise);
        program
    }

    #[test]
    fn steps_round_trip_through_words() {
        let steps = [
            widen(4),
            modify(3, 63, 16),
            Step::Scale {
                mul_min: 1,
                mul_max: 4,
                new_total: 225,
            },
            Step::MergeNull { d: 50 },
            Step::MergeTarget {
                target: ImageId::new(u64::MAX - 7),
                d: 16,
                covered: 12,
                gap: 5,
                new_total: 400,
            },
            widen(3),
        ];
        let target = Arc::new(ColorHistogram::from_counts(vec![300, 100], 400));
        let mut builder = ProgramBuilder::new(ImageId::new((7 << 32) | 5), 21);
        for (kind, step) in [1, 2, 3, 4, 5, 1].into_iter().zip(steps) {
            builder.count_op(kind).unwrap();
            builder.push(step, Some(&target));
        }
        builder.count_op(0).unwrap();
        let program = builder.finish();
        assert_eq!(program.base(), ImageId::new((7 << 32) | 5));
        assert_eq!(program.background_bin(), 21);
        assert_eq!(program.kind_counts(), &[1, 2, 1, 1, 1, 1]);
        assert_eq!(program.op_count(), 7);
        assert!(!program.all_widening());
        assert_eq!(
            program.items().collect::<Vec<_>>(),
            vec![
                Item::Run(Run {
                    widen: 4,
                    modifies: &[3, 63, 16],
                }),
                Item::Step(steps[2]),
                Item::Step(steps[3]),
                Item::Step(steps[4]),
                Item::Run(Run {
                    widen: 3,
                    modifies: &[],
                }),
            ]
        );
        assert_eq!(program.step_count(), 5);
        assert_eq!(
            program.merge_targets().collect::<Vec<_>>(),
            vec![ImageId::new(u64::MAX - 7)]
        );
        assert!(Arc::ptr_eq(&program.targets[0], &target));
        assert_eq!(
            program.targets.len(),
            1,
            "only the merge step keeps a histogram"
        );
        let pointer = std::mem::size_of::<usize>();
        assert_eq!(
            program.heap_bytes(),
            4 * (9 + (2 + 3) + 4 + 2 + 7 + 2) + pointer
        );
    }

    /// Scale, crop and paste end a run; a `Define`, which leaves no step,
    /// does not. Checked on a compiled sequence against the stepwise trace.
    /// The literal profile, which no program holds, walks its own steps.
    #[test]
    fn runs_end_at_scales_and_merges_but_not_at_defines() {
        let quant = RgbQuantizer::default_64();
        let mut resolver = MapInfoResolver::new();
        let mut base = RasterImage::filled(12, 12, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut base, &Rect::new(0, 0, 12, 5), Rgb::RED);
        let target = RasterImage::filled(16, 16, Rgb::GREEN).unwrap();
        for (id, img) in [(1, &base), (2, &target)] {
            resolver.insert(
                ImageId::new(id),
                ImageInfo::new(
                    ColorHistogram::extract(img, &quant),
                    img.width(),
                    img.height(),
                ),
            );
        }
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(1, 1, 6, 6))
            .blur()
            .define(Rect::new(0, 0, 8, 4))
            .modify(Rgb::RED, Rgb::GREEN)
            .translate(1.0, 2.0)
            .define(Rect::new(0, 0, 12, 12))
            .scale(2.0, 2.0)
            .define(Rect::new(0, 0, 10, 10))
            .modify(Rgb::WHITE, Rgb::RED)
            .define(Rect::new(2, 2, 20, 20))
            .crop_to_region()
            .blur()
            .modify(Rgb::GREEN, Rgb::BLUE)
            .merge_into(ImageId::new(2), 3, 3)
            .define(Rect::new(0, 0, 5, 5))
            .blur()
            .build();
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let program = engine.compile(&seq, &resolver).unwrap();
        let kinds: Vec<String> = program
            .items()
            .map(|item| match item {
                Item::Run(run) => format!("run+{}", run.modifies.len() / 3),
                Item::Step(Step::Scale { .. }) => "scale".into(),
                Item::Step(Step::MergeNull { .. }) => "crop".into(),
                Item::Step(Step::MergeTarget { .. }) => "paste".into(),
                Item::Step(step) => unreachable!("{step:?} outside a run"),
            })
            .collect();
        assert_eq!(
            kinds,
            ["run+1", "scale", "run+1", "crop", "run+1", "paste", "run+0"]
        );
        let base = resolver.require(ImageId::new(1)).unwrap();
        let (counts, total) = (base.histogram.counts(), base.histogram.total());
        let trace = engine.bounds_trace(&seq, &resolver).unwrap();
        let stepwise = trace.last().unwrap();
        for (bin, want) in stepwise.iter().enumerate() {
            assert_eq!(program.eval(bin, counts[bin], total), *want, "bin {bin}");
        }
        assert_eq!(program.eval_vector(&base.histogram), *stepwise);

        let literal = RuleEngine::new(&quant, RuleProfile::PaperTable1);
        let trace = literal.bounds_trace(&seq, &resolver).unwrap();
        let stepwise = trace.last().unwrap();
        for (bin, want) in stepwise.iter().enumerate() {
            assert_eq!(literal.bounds(&seq, bin, &resolver).unwrap(), *want);
        }
        assert_ne!(
            program.eval_vector(&base.histogram),
            *stepwise,
            "the literal blur widens nothing"
        );
    }

    /// A recoloring inside one bin raises that bin's `max` under the literal
    /// table and changes nothing under the conservative profile, inside a
    /// run as on its own.
    #[test]
    fn a_same_bin_modify_in_a_run_reads_per_profile() {
        let base = ColorHistogram::from_counts(vec![40, 30, 20, 10], 100);
        let target = Arc::new(ColorHistogram::from_counts(vec![1, 1, 1, 1], 4));
        let conservative = [
            widen(3),
            modify(1, 1, 25),
            modify(2, 1, 5),
            modify(0, 0, 70),
            modify(3, 2, 15),
        ];
        let program = fused(&conservative, &base, &target);
        assert_eq!(program.step_count(), 1);
        let range = program.eval(1, 30, 100);
        assert_eq!((range.min, range.max), (27, 38));
        assert_eq!(program.eval(0, 40, 100).max, 43);
        // The literal walk's steps for the same operations.
        let literal = [
            Step::Raise { bin: 1, d: 25 },
            modify(2, 1, 5),
            Step::Raise { bin: 0, d: 70 },
            modify(3, 2, 15),
            widen(4),
        ];
        let paper = stepwise(&literal, &base, &target);
        assert_eq!((paper[1].min, paper[1].max), (26, 64));
        // Bin 0's own recoloring: to the top under the literal table only.
        assert_eq!(paper[0].max, 100);
    }

    /// A widening sum over `u32::MAX` opens a new run instead of wrapping.
    #[test]
    fn a_widening_sum_that_overflows_a_word_opens_a_new_run() {
        let big = 1u64 << 36;
        let base = ColorHistogram::from_counts(vec![big / 2, big / 2], big);
        let target = Arc::new(ColorHistogram::from_counts(vec![1, 1], 2));
        let steps = [
            widen(u32::MAX - 1),
            modify(0, 1, u32::MAX),
            widen(5),
            widen(7),
        ];
        let program = fused(&steps, &base, &target);
        assert_eq!(program.step_count(), 2, "the widening sum overflows");
        let max = u64::from(u32::MAX);
        let range = program.eval(0, big / 2, big);
        assert_eq!(range.min, big / 2 - ((max - 1) + max + 5 + 7));
    }

    #[test]
    fn oversized_values_are_refused_not_truncated() {
        assert_eq!(pack(u64::from(u32::MAX)).unwrap(), u32::MAX);
        assert!(matches!(pack(1 << 32), Err(RuleError::InvalidSequence(_))));
    }
}
