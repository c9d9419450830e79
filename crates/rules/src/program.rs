//! The compiled form of an edit sequence: everything in a Table 1 walk that
//! does not depend on the queried histogram bin, computed once.
//!
//! A BOUNDS walk tracks three integers (`min`, `max`, `total`) and a piece of
//! geometry (canvas and defined region). The geometry — and with it |DR|,
//! canvas sizes, paste overlap, gap fill, the bins a `Modify` maps between,
//! and every error condition — is the same for every bin, so
//! [`RuleEngine::compile`](crate::RuleEngine::compile) walks it once and
//! leaves a [`BoundProgram`]: a short list of arithmetic steps that
//! [`BoundProgram::eval`] replays for one bin.

use crate::bounds::BoundRange;
use crate::engine::RuleProfile;
use crate::{Result, RuleError};
use mmdb_editops::ImageId;
use mmdb_histogram::ColorHistogram;
use std::sync::Arc;

/// One bin-dependent adjustment of the bound triple. Where the two rule
/// profiles use different constants the step carries both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Step {
    /// `Combine` (conservative profile only) and sub-region `Mutate`:
    /// `min −= d`, `max += d`.
    Widen {
        /// Literal Table 1: 0 for `Combine`, |DR| for `Mutate`.
        paper: u32,
        /// Conservative: |DR| for `Combine`, the clipped destination box
        /// for `Mutate`.
        conservative: u32,
    },
    /// `Modify`: `max += d` when `to_bin` is the queried bin, else
    /// `min −= d` when `from_bin` is.
    Modify { from_bin: u32, to_bin: u32, d: u32 },
    /// Whole-image axis scale: all three quantities change.
    Scale {
        /// Literal Table 1: `M11 · M22`.
        factor: f64,
        /// Conservative: `⌊fx⌋ · ⌊fy⌋` and `⌈fx⌉ · ⌈fy⌉` of the realized
        /// per-axis resampling factors.
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
        /// Target pixels the paste covers (conservative profile).
        covered: u32,
        /// Canvas pixels belonging to neither image, filled with the
        /// background color (conservative profile).
        gap: u32,
        new_total: u32,
    },
}

const OP_WIDEN: u32 = 0;
const OP_MODIFY: u32 = 1;
const OP_SCALE: u32 = 2;
const OP_MERGE_NULL: u32 = 3;
const OP_MERGE_TARGET: u32 = 4;

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

impl Step {
    fn encode(self, words: &mut Vec<u32>) {
        match self {
            Step::Widen {
                paper,
                conservative,
            } => words.extend([OP_WIDEN, paper, conservative]),
            Step::Modify {
                from_bin,
                to_bin,
                d,
            } => words.extend([OP_MODIFY, from_bin, to_bin, d]),
            Step::Scale {
                factor,
                mul_min,
                mul_max,
                new_total,
            } => {
                let [low, high] = split(factor.to_bits());
                words.extend([OP_SCALE, low, high, mul_min, mul_max, new_total]);
            }
            Step::MergeNull { d } => words.extend([OP_MERGE_NULL, d]),
            Step::MergeTarget {
                target,
                d,
                covered,
                gap,
                new_total,
            } => {
                let [low, high] = split(target.raw());
                words.extend([OP_MERGE_TARGET, low, high, d, covered, gap, new_total]);
            }
        }
    }

    /// Applies this step's Table 1 rule to `range` for histogram bin `bin`.
    /// `target` is the merge target's `(count in bin, total)`; only
    /// [`Step::MergeTarget`] reads it.
    ///
    /// Every arm ends by restoring `min <= max <= total`, which the next
    /// step's subtractions rely on.
    pub(crate) fn apply(
        self,
        range: &mut BoundRange,
        bin: usize,
        profile: RuleProfile,
        background_bin: u32,
        target: (u64, u64),
    ) {
        let r = range;
        match self {
            Step::Widen {
                paper,
                conservative,
            } => {
                let d = u64::from(match profile {
                    RuleProfile::PaperTable1 => paper,
                    RuleProfile::Conservative => conservative,
                });
                r.min = r.min.saturating_sub(d);
                r.max = r.max.saturating_add(d);
            }
            Step::Modify {
                from_bin,
                to_bin,
                d,
            } => {
                if profile == RuleProfile::Conservative && from_bin == to_bin {
                    // Recoloring within one bin cannot change its population.
                    return;
                }
                if to_bin as usize == bin {
                    r.max = r.max.saturating_add(u64::from(d));
                } else if from_bin as usize == bin {
                    r.min = r.min.saturating_sub(u64::from(d));
                }
            }
            Step::Scale {
                factor,
                mul_min,
                mul_max,
                new_total,
            } => {
                match profile {
                    // "Multiply by M11 · M22" — all three quantities.
                    RuleProfile::PaperTable1 => {
                        r.min = (r.min as f64 * factor).floor().max(0.0) as u64;
                        r.max = (r.max as f64 * factor).ceil() as u64;
                    }
                    // Nearest-neighbour resampling uses each source row
                    // between ⌊fy⌋ and ⌈fy⌉ times (likewise per column).
                    RuleProfile::Conservative => {
                        r.min = r.min.saturating_mul(u64::from(mul_min));
                        r.max = r.max.saturating_mul(u64::from(mul_max));
                    }
                }
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
            // covered)]. The literal profile takes covered = |DR| and ignores
            // the gap; the conservative one uses the exact overlap and counts
            // gap pixels as background — an exact contribution, not a bound.
            Step::MergeTarget {
                d,
                covered,
                gap,
                new_total,
                ..
            } => {
                let (t_hb, t_total) = target;
                let d = u64::from(d);
                let dr_min = d.saturating_sub(r.total - r.min);
                let dr_max = r.max.min(d);
                let (covered, gap) = match profile {
                    RuleProfile::PaperTable1 => (d, 0),
                    RuleProfile::Conservative if background_bin as usize == bin => {
                        (u64::from(covered), u64::from(gap))
                    }
                    RuleProfile::Conservative => (u64::from(covered), 0),
                };
                r.min = dr_min + t_hb.saturating_sub(covered) + gap;
                r.max = dr_max + t_hb.min(t_total.saturating_sub(covered)) + gap;
                r.total = u64::from(new_total);
            }
        }
        *r = r.clamped();
    }
}

/// Decodes the step words of a program.
struct Steps<'a>(&'a [u32]);

impl Iterator for Steps<'_> {
    type Item = Step;

    #[inline]
    fn next(&mut self) -> Option<Step> {
        let (step, rest) = match *self.0 {
            [] => return None,
            [OP_WIDEN, paper, conservative, ref rest @ ..] => (
                Step::Widen {
                    paper,
                    conservative,
                },
                rest,
            ),
            [OP_MODIFY, from_bin, to_bin, d, ref rest @ ..] => (
                Step::Modify {
                    from_bin,
                    to_bin,
                    d,
                },
                rest,
            ),
            [OP_SCALE, low, high, mul_min, mul_max, new_total, ref rest @ ..] => (
                Step::Scale {
                    factor: f64::from_bits(join(low, high)),
                    mul_min,
                    mul_max,
                    new_total,
                },
                rest,
            ),
            [OP_MERGE_NULL, d, ref rest @ ..] => (Step::MergeNull { d }, rest),
            [OP_MERGE_TARGET, low, high, d, covered, gap, new_total, ref rest @ ..] => (
                Step::MergeTarget {
                    target: ImageId::new(join(low, high)),
                    d,
                    covered,
                    gap,
                    new_total,
                },
                rest,
            ),
            _ => unreachable!("bound programs are only built by ProgramBuilder"),
        };
        self.0 = rest;
        Some(step)
    }
}

/// Accumulates a program while [`RuleEngine::compile`](crate::RuleEngine)
/// walks the operations.
pub(crate) struct ProgramBuilder {
    words: Vec<u32>,
    targets: Vec<Arc<ColorHistogram>>,
}

impl ProgramBuilder {
    pub(crate) fn new(base: ImageId, background_bin: u32) -> Self {
        let [low, high] = split(base.raw());
        let mut words = Vec::with_capacity(HEADER_WORDS + 16);
        words.extend([low, high, background_bin, 0, 0, 0, 0, 0, 0]);
        ProgramBuilder {
            words,
            targets: Vec::new(),
        }
    }

    /// Counts one operation of kind slot `kind` (see `engine::kind_slot`).
    pub(crate) fn count_op(&mut self, kind: usize) -> Result<()> {
        let slot = &mut self.words[KIND_COUNTS][kind];
        *slot = pack(u64::from(*slot) + 1)?;
        Ok(())
    }

    /// Appends `step`; a [`Step::MergeTarget`] comes with `target`, the
    /// histogram of the image it pastes into.
    pub(crate) fn push(&mut self, step: Step, target: Option<&Arc<ColorHistogram>>) {
        step.encode(&mut self.words);
        if let Step::MergeTarget { .. } = step {
            let target = target.expect("a merge step comes with its target's histogram");
            self.targets.push(Arc::clone(target));
        }
    }

    pub(crate) fn finish(self) -> BoundProgram {
        BoundProgram {
            words: self.words.into(),
            targets: self.targets.into(),
        }
    }
}

/// An edit sequence compiled for BOUNDS: the base it starts from, how many
/// operations of each kind it holds, the steps that change the bound triple,
/// and the histogram of every merge target those steps paste into.
/// Independent of the queried bin and of the rule profile, and — because
/// stored sequences, the quantizer, the background and the histograms and
/// dimensions of the binary images a stored sequence names never change,
/// those images cannot be deleted while it is stored, and ids are never
/// reused — valid for as long as the sequence is stored.
///
/// One allocation of 32-bit words (36 header bytes plus 8–28 per step;
/// operations that cannot change any bin's bounds, such as `Define`, leave
/// no step), shared by clones, plus one shared histogram per merge step.
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

    /// Number of steps evaluation replays (at most [`Self::op_count`]).
    pub fn step_count(&self) -> usize {
        self.steps().count()
    }

    /// Heap bytes this program occupies, allocation header and the shared
    /// target histograms excluded.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.words) + std::mem::size_of_val(&*self.targets)
    }

    /// The merge targets whose histograms the program keeps, in operation
    /// order.
    pub fn merge_targets(&self) -> impl Iterator<Item = ImageId> + '_ {
        self.steps().filter_map(|step| match step {
            Step::MergeTarget { target, .. } => Some(target),
            _ => None,
        })
    }

    fn steps(&self) -> Steps<'_> {
        Steps(&self.words[HEADER_WORDS..])
    }

    /// Runs the program for histogram bin `bin` under `profile`, starting
    /// from the base image's exact `base_count` of `base_total` pixels —
    /// integer arithmetic, except the literal profile's whole-image scale
    /// factor. Reads nothing but the program: every merge target's histogram
    /// was taken at compile time.
    pub fn eval(
        &self,
        bin: usize,
        profile: RuleProfile,
        base_count: u64,
        base_total: u64,
    ) -> BoundRange {
        let mut range = BoundRange::exact(base_count, base_total);
        let background_bin = self.background_bin();
        let mut targets = self.targets.iter();
        for step in self.steps() {
            let target = match step {
                Step::MergeTarget { .. } => {
                    let target = targets.next().expect("one histogram per merge step");
                    (target.count(bin), target.total())
                }
                _ => (0, 0),
            };
            step.apply(&mut range, bin, profile, background_bin, target);
        }
        range
    }

    /// Runs the program for every bin of `base` at once, step-major. Element
    /// `bin` equals [`BoundProgram::eval`] for that bin.
    pub fn eval_vector(&self, profile: RuleProfile, base: &ColorHistogram) -> Vec<BoundRange> {
        let mut ranges = base_ranges(base);
        let mut targets = self.targets.iter();
        for step in self.steps() {
            let target = match step {
                Step::MergeTarget { .. } => {
                    Some(&**targets.next().expect("one histogram per merge step"))
                }
                _ => None,
            };
            apply_to_all(step, &mut ranges, profile, self.background_bin(), target);
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
    profile: RuleProfile,
    background_bin: u32,
    target: Option<&ColorHistogram>,
) {
    for (bin, range) in ranges.iter_mut().enumerate() {
        let target = target.map_or((0, 0), |t| (t.count(bin), t.total()));
        step.apply(range, bin, profile, background_bin, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_round_trip_through_words() {
        let steps = [
            Step::Widen {
                paper: 9,
                conservative: 4,
            },
            Step::Modify {
                from_bin: 3,
                to_bin: 63,
                d: 16,
            },
            Step::Scale {
                factor: 2.25,
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
        ];
        let target = Arc::new(ColorHistogram::from_counts(vec![300, 100], 400));
        let mut builder = ProgramBuilder::new(ImageId::new((7 << 32) | 5), 21);
        for (kind, step) in [1, 2, 3, 4, 5].into_iter().zip(steps) {
            builder.count_op(kind).unwrap();
            builder.push(step, Some(&target));
        }
        builder.count_op(0).unwrap();
        let program = builder.finish();
        assert_eq!(program.base(), ImageId::new((7 << 32) | 5));
        assert_eq!(program.background_bin(), 21);
        assert_eq!(program.kind_counts(), &[1, 1, 1, 1, 1, 1]);
        assert_eq!(program.op_count(), 6);
        assert!(!program.all_widening());
        assert_eq!(program.steps().collect::<Vec<_>>(), steps);
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
        assert_eq!(program.heap_bytes(), 4 * (9 + 3 + 4 + 6 + 2 + 7) + pointer);
    }

    #[test]
    fn oversized_values_are_refused_not_truncated() {
        assert_eq!(pack(u64::from(u32::MAX)).unwrap(), u32::MAX);
        assert!(matches!(pack(1 << 32), Err(RuleError::InvalidSequence(_))));
    }
}
