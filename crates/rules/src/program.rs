//! The compiled form of an edit sequence: every Conservative Table 1 rule
//! of a walk composed, once, into a closed form of the queried bin's
//! starting count.
//!
//! A BOUNDS walk tracks three integers (`min`, `max`, `total`) and a piece of
//! geometry (canvas and defined region). The geometry — and with it |DR|,
//! canvas sizes, paste overlap, gap fill, the bins a `Modify` maps between,
//! `total` itself, and every error condition — is the same for every bin.
//! What is left per bin composes: each rule but a paste moves `min` by a
//! map `min ↦ max(m·min − s, 0)` and `max` by a map `max ↦ min(m·max + r,
//! cap)`, and maps of each shape compose into one of the same shape. So
//! [`RuleEngine::compile`](crate::RuleEngine::compile) walks the sequence
//! once and leaves a [`BoundProgram`]:
//!
//! - one *segment* per `Merge` with a target, plus one. A segment maps the
//!   `(min, max)` it is entered with to `(max(top − a·(top_in − min),
//!   floor), min(b·max + r, cap))`, where `top_in` is the total it is
//!   entered with: the affine `A·min + K` of Table 1's rules, anchored at
//!   `top_in` so that no constant is negative. A segment holds one such
//!   *form* for each bin a `Modify` in it names and one for every other
//!   bin;
//! - between two segments, a *merge record*: `|DR|`, the total before the
//!   paste, the target pixels it covers, the gap filled with background,
//!   the new total, and the target's histogram, which makes the one step
//!   that reads a second histogram.
//!
//! [`ProgramRef::eval`] is the one evaluator: per segment it finds the
//! bin's form and applies it, then the merge record. It equals applying the
//! rules one at a time (`Step::apply`, which `bounds`, `bounds_trace`
//! and the literal profile walk) for every bin and base count.
//!
//! Every value a form keeps is a pixel count of some image of the walk and
//! fits 32 bits; a base of 2³² pixels or more is refused, as
//! `pack` refuses any other count. Slopes (`a`, `b`) and the raise `r` may
//! exceed 32 bits as compositions go on, and are kept as `u32::MAX` then:
//! from there on a form reads the same for every input as it would with
//! the exact value, because `top` and `cap` are totals below it.
//!
//! A [`ProgramBlock`] stores many programs back to back (the members of a
//! BWM cluster); a [`BoundProgram`] is one on its own; both lend a
//! [`ProgramRef`].

use crate::bounds::BoundRange;
use crate::{Result, RuleError};
use mmdb_editops::ImageId;
use mmdb_histogram::ColorHistogram;
use std::sync::Arc;

/// One bin-dependent adjustment of the bound triple under one rule
/// profile, as the walk emits it. A program holds the conservative ones,
/// composed.
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
    /// `Merge` into `target`, whose histogram the program keeps in its
    /// merge record.
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

/// Where `Merge`-with-target operations are counted among the six kinds —
/// the one kind whose rule is not bound-widening.
pub(crate) const MERGE_TARGET_SLOT: usize = 5;

/// Packs a pixel count, bin or multiplier into 32 bits. Every value that
/// reaches here is bounded by a canvas area (`MAX_CANVAS_PIXELS = 2^26`
/// after any scale or merge) or a base image's area; a base image of 2^32
/// pixels or more cannot be bounded.
pub(crate) fn pack(value: u64) -> Result<u32> {
    u32::try_from(value).map_err(|_| {
        RuleError::InvalidSequence(format!("{value} does not fit a bound program word"))
    })
}

/// `value`, or `u32::MAX` when it is larger: for a slope or a raise, where
/// every value from `u32::MAX` up reads the same (see the module docs).
fn saturate(value: u64) -> u32 {
    u32::try_from(value).unwrap_or(u32::MAX)
}

/// All ones when `condition` holds, else zero.
fn mask(condition: bool) -> u64 {
    u64::from(condition).wrapping_neg()
}

/// The Conservative `Merge`-with-target rule for one bin. The pasted DR
/// contributes `[|DR| − (E − HBmin), MIN(HBmax, |DR|)]`, the surviving
/// target pixels `[T_HB − covered, MIN(T_HB, T − covered)]`, and `gap`
/// background pixels (zero outside the background bin), an exact count.
/// `target` is the target's `(count in bin, total)`.
fn paste(
    range: BoundRange,
    d: u64,
    covered: u64,
    gap: u64,
    target: (u64, u64),
    new_total: u64,
) -> BoundRange {
    let (t_hb, t_total) = target;
    let dr_min = d.saturating_sub(range.total - range.min);
    let dr_max = range.max.min(d);
    BoundRange {
        min: dr_min + t_hb.saturating_sub(covered) + gap,
        max: dr_max + t_hb.min(t_total.saturating_sub(covered)) + gap,
        total: new_total,
    }
    .clamped()
}

impl Step {
    /// Applies this step's Table 1 rule to `range` for histogram bin `bin`:
    /// the stepwise walk. `target` is the merge target's `(count in bin,
    /// total)`; only [`Step::MergeTarget`] reads it, and counts the gap
    /// only in `background_bin`.
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
                r.min = r.min.saturating_sub(u64::from(d));
                r.max = r.max.saturating_add(u64::from(d));
            }
            // Recoloring inside one bin cannot change its population.
            Step::Modify {
                from_bin,
                to_bin,
                d,
            } => {
                let (from_bin, to_bin, d) = (from_bin as usize, to_bin as usize, u64::from(d));
                r.max = r
                    .max
                    .saturating_add(d & mask(to_bin == bin && from_bin != to_bin));
                r.min = r
                    .min
                    .saturating_sub(d & mask(from_bin == bin && to_bin != bin));
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
            // The literal table's walk takes covered = |DR| and no gap.
            Step::MergeTarget {
                d,
                covered,
                gap,
                new_total,
                ..
            } => {
                let gap = u64::from(gap) & mask(background_bin as usize == bin);
                let (d, covered, new_total) = (d.into(), covered.into(), new_total.into());
                *r = paste(*r, d, covered, gap, target, new_total);
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

/// One bin's bounds across one segment, in closed form: a segment entered
/// with `top_in` pixels and `(min, max)` leaves `max(top − a·(top_in −
/// min), floor)` and `min(b·max + r, cap)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Form {
    /// In a segment's first form, the default, how many named forms follow
    /// it; in a named form, its bin.
    key: u32,
    a: u32,
    /// The segment's `min` for an entering `min` of `top_in`.
    top: u32,
    floor: u32,
    b: u32,
    r: u32,
    cap: u32,
}

impl Form {
    /// The form of a segment no rule has touched yet.
    fn identity(top_in: u32) -> Form {
        Form {
            key: 0,
            a: 1,
            top: top_in,
            floor: 0,
            b: 1,
            r: 0,
            cap: top_in,
        }
    }

    /// Composes `min ↦ max(m·min − s, 0)` after this form.
    fn shrink(&mut self, m: u32, s: u64) -> Result<()> {
        let m64 = u64::from(m);
        self.a = saturate(u64::from(self.a) * m64);
        self.top = pack((u64::from(self.top) * m64).saturating_sub(s))?;
        self.floor = pack((u64::from(self.floor) * m64).saturating_sub(s))?;
        Ok(())
    }

    /// Composes `max ↦ min(m·max + r, cap)` after this form.
    fn grow(&mut self, m: u32, r: u32, cap: u32) {
        let (m, r) = (u64::from(m), u64::from(r));
        self.b = saturate(u64::from(self.b) * m);
        self.r = saturate(u64::from(self.r) * m + r);
        self.cap = cap.min(saturate(u64::from(self.cap) * m + r));
    }

    /// A `Widen` of `d` on an image of `total` pixels.
    fn widen(&mut self, d: u32, total: u32) -> Result<()> {
        self.grow(1, d, total);
        self.shrink(1, d.into())
    }

    /// The segment's `(min, max)` for the `(min, max)` it is entered with
    /// on `top_in` pixels. Exact in `u64`: every factor is below 2³².
    #[inline]
    fn apply(&self, (min, max): (u64, u64), top_in: u64) -> (u64, u64) {
        let drop = u64::from(self.a) * (top_in - min);
        let min = u64::from(self.top).saturating_sub(drop);
        let max = u64::from(self.b) * max + u64::from(self.r);
        (min.max(u64::from(self.floor)), max.min(u64::from(self.cap)))
    }
}

/// A `Merge` with a target, between two segments.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Merge {
    target: ImageId,
    histogram: Arc<ColorHistogram>,
    /// |DR| of the pasted region.
    d: u32,
    /// The image's total before the paste.
    before: u32,
    /// Target pixels the paste covers.
    covered: u32,
    /// Canvas pixels belonging to neither image, all background.
    gap: u32,
    new_total: u32,
    background_bin: u32,
}

impl Merge {
    #[inline]
    fn apply(&self, (min, max): (u64, u64), bin: usize) -> (u64, u64) {
        let range = BoundRange {
            min,
            max,
            total: self.before.into(),
        };
        let gap = u64::from(self.gap) & mask(self.background_bin as usize == bin);
        let target = (self.histogram.count(bin), self.histogram.total());
        let (d, covered) = (self.d.into(), self.covered.into());
        let range = paste(range, d, covered, gap, target, self.new_total.into());
        (range.min, range.max)
    }
}

/// What a program knows of its sequence beside its forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Head {
    base: ImageId,
    /// The base's total: the first segment's `top_in`.
    base_total: u32,
    /// The edited image's total.
    total: u32,
    /// Operations per kind, in `mmdb_rules_applications_total{op=…}` order.
    kind_counts: [u32; 6],
}

/// Programs stored back to back: every program's forms in one vector and
/// its merge records in another, so walking them reads memory in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgramBlock {
    /// Each program's head and where its forms and merge records end.
    heads: Vec<(Head, u32, u32)>,
    forms: Vec<Form>,
    merges: Vec<Merge>,
}

impl ProgramBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when the block holds no program.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The `i`-th program, in the order they were compiled in.
    pub fn get(&self, i: usize) -> Option<ProgramRef<'_>> {
        let (head, forms_end, merges_end) = self.heads.get(i)?;
        let (forms_start, merges_start) = match i.checked_sub(1) {
            Some(prior) => (self.heads[prior].1, self.heads[prior].2),
            None => (0, 0),
        };
        Some(ProgramRef {
            head,
            forms: &self.forms[forms_start as usize..*forms_end as usize],
            merges: &self.merges[merges_start as usize..*merges_end as usize],
        })
    }

    /// Every program, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ProgramRef<'_>> + '_ {
        let (mut forms, mut merges) = (&self.forms[..], &self.merges[..]);
        let mut ends = (0, 0);
        self.heads.iter().map(move |(head, forms_end, merges_end)| {
            let (own_forms, rest) = forms.split_at((forms_end - ends.0) as usize);
            let (own_merges, rest_merges) = merges.split_at((merges_end - ends.1) as usize);
            (forms, merges, ends) = (rest, rest_merges, (*forms_end, *merges_end));
            ProgramRef {
                head,
                forms: own_forms,
                merges: own_merges,
            }
        })
    }

    /// Releases spare capacity, once the block is complete.
    pub fn shrink_to_fit(&mut self) {
        self.heads.shrink_to_fit();
        self.forms.shrink_to_fit();
        self.merges.shrink_to_fit();
    }
}

/// An edit sequence compiled for BOUNDS under the Conservative rules: the
/// base it starts from and that base's total, how many operations of each
/// kind it holds, its segments' forms, and a merge record — with the
/// target's histogram — between each two. Independent of the queried bin,
/// and — because stored sequences, the quantizer, the background and the
/// histograms and dimensions of the binary images a stored sequence names
/// never change, those images cannot be deleted while it is stored, and ids
/// are never reused — valid for as long as the sequence is stored.
///
/// 28 bytes per form and one merge record per paste, beside a 40-byte
/// head. Operations that cannot change any bin's bounds, such as `Define`,
/// leave nothing; a segment has one form for each bin a `Modify` in it
/// recolors from or to, and one for every other bin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundProgram {
    head: Head,
    forms: Box<[Form]>,
    merges: Box<[Merge]>,
}

impl BoundProgram {
    /// The program, lent.
    pub fn view(&self) -> ProgramRef<'_> {
        ProgramRef {
            head: &self.head,
            forms: &self.forms,
            merges: &self.merges,
        }
    }
}

/// A compiled program, lent by a [`BoundProgram`] or a [`ProgramBlock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgramRef<'a> {
    head: &'a Head,
    /// Segment after segment: its default form, then its named forms.
    forms: &'a [Form],
    merges: &'a [Merge],
}

impl<'a> ProgramRef<'a> {
    /// The base image the sequence edits; evaluation starts from its
    /// histogram.
    pub fn base(self) -> ImageId {
        self.head.base
    }

    /// Operations per kind, in `mmdb_rules_applications_total{op=…}` order:
    /// define, combine, modify, mutate, merge_null, merge_target.
    pub fn kind_counts(self) -> &'a [u32; 6] {
        &self.head.kind_counts
    }

    /// Number of operations in the compiled sequence.
    pub fn op_count(self) -> usize {
        self.kind_counts().iter().map(|&n| n as usize).sum()
    }

    /// True when every operation's rule is bound-widening — the §4
    /// condition for the BWM Main Component (no `Merge` with a target).
    pub fn all_widening(self) -> bool {
        self.kind_counts()[MERGE_TARGET_SLOT] == 0
    }

    /// Number of segments: one per `Merge` with a target, plus one.
    pub fn segment_count(self) -> usize {
        self.merges.len() + 1
    }

    /// Number of forms over all segments: at least one per segment.
    pub fn form_count(self) -> usize {
        self.forms.len()
    }

    /// The merge targets whose histograms the program keeps, in operation
    /// order.
    pub fn merge_targets(self) -> impl Iterator<Item = ImageId> + 'a {
        self.merges.iter().map(|merge| merge.target)
    }

    /// Heap bytes this program's forms and merge records occupy, the head
    /// and the shared target histograms excluded.
    pub fn heap_bytes(self) -> usize {
        std::mem::size_of_val(self.forms) + std::mem::size_of_val(self.merges)
    }

    /// The program's segments in order: each one's default form, its named
    /// forms (ascending by bin), and the merge record after it — none
    /// after the last.
    #[inline]
    fn segments(self) -> impl Iterator<Item = (&'a Form, &'a [Form], Option<&'a Merge>)> {
        let (mut forms, mut merges) = (self.forms, self.merges.iter());
        std::iter::from_fn(move || {
            let (default, rest) = forms.split_first()?;
            let (named, rest) = rest.split_at(default.key as usize);
            forms = rest;
            Some((default, named, merges.next()))
        })
    }

    /// Runs the program for histogram bin `bin`, starting from the base
    /// image's exact `base_count`: the Conservative rules, in integer
    /// arithmetic. Reads nothing but the program: the base's total and every
    /// merge target's histogram were taken at compile time.
    #[inline]
    pub fn eval(self, bin: usize, base_count: u64) -> BoundRange {
        let mut top_in = u64::from(self.head.base_total);
        let start = BoundRange::exact(base_count, top_in);
        let mut bounds = (start.min, start.max);
        for (default, named, merge) in self.segments() {
            let form = named.iter().find(|f| f.key as usize == bin);
            bounds = form.unwrap_or(default).apply(bounds, top_in);
            if let Some(merge) = merge {
                bounds = merge.apply(bounds, bin);
                top_in = u64::from(merge.new_total);
            }
        }
        BoundRange {
            min: bounds.0,
            max: bounds.1,
            total: u64::from(self.head.total),
        }
    }

    /// [`ProgramRef::eval`] for every bin of `base`, the histogram of the
    /// base the program was compiled against: the same forms and merge
    /// records, segment by segment, each segment's named forms met in bin
    /// order.
    pub fn eval_vector(self, base: &ColorHistogram) -> Vec<BoundRange> {
        let mut top_in = u64::from(self.head.base_total);
        let counts = base.counts().iter();
        let mut ranges: Vec<BoundRange> = counts.map(|&n| BoundRange::exact(n, top_in)).collect();
        for (default, named, merge) in self.segments() {
            let mut named = named.iter().peekable();
            for (bin, range) in ranges.iter_mut().enumerate() {
                let form = named.next_if(|f| f.key as usize == bin);
                let mut bounds = form
                    .unwrap_or(default)
                    .apply((range.min, range.max), top_in);
                if let Some(merge) = merge {
                    bounds = merge.apply(bounds, bin);
                }
                (range.min, range.max) = bounds;
            }
            if let Some(merge) = merge {
                top_in = u64::from(merge.new_total);
            }
        }
        let total = u64::from(self.head.total);
        for range in &mut ranges {
            range.total = total;
        }
        ranges
    }

    /// A copy that owns its forms and merge records.
    pub fn to_program(self) -> BoundProgram {
        BoundProgram {
            head: *self.head,
            forms: self.forms.into(),
            merges: self.merges.into(),
        }
    }
}

/// Composes a program while [`RuleEngine::compile`](crate::RuleEngine::compile)
/// walks the operations, appending its forms and merge records to two
/// vectors — a [`ProgramBlock`]'s or a lone program's. The open segment's
/// forms are the last ones, from `segment` on.
pub(crate) struct ProgramWriter<'b> {
    forms: &'b mut Vec<Form>,
    merges: &'b mut Vec<Merge>,
    head: Head,
    background_bin: u32,
    /// Where the open segment's default form sits.
    segment: usize,
    /// What the vectors held before: a failed compile leaves them so.
    forms_before: usize,
    merges_before: usize,
}

impl<'b> ProgramWriter<'b> {
    /// Opens a program over a base of `base_total` pixels at the ends of
    /// `forms` and `merges`, runs `compose` on it and returns its head, or
    /// takes back what it wrote and returns the error.
    fn write(
        forms: &'b mut Vec<Form>,
        merges: &'b mut Vec<Merge>,
        (base, base_total, background_bin): (ImageId, u64, u32),
        compose: impl FnOnce(&mut ProgramWriter<'_>) -> Result<()>,
    ) -> Result<Head> {
        let base_total = pack(base_total)?;
        let (forms_before, merges_before) = (forms.len(), merges.len());
        forms.push(Form::identity(base_total));
        let mut writer = ProgramWriter {
            forms,
            merges,
            head: Head {
                base,
                base_total,
                total: base_total,
                kind_counts: [0; 6],
            },
            background_bin,
            segment: forms_before,
            forms_before,
            merges_before,
        };
        match compose(&mut writer) {
            Ok(()) => {
                writer.close_segment();
                Ok(writer.head)
            }
            Err(err) => {
                writer.forms.truncate(writer.forms_before);
                writer.merges.truncate(writer.merges_before);
                Err(err)
            }
        }
    }

    /// Counts one operation of kind slot `kind` (see `engine::kind_slot`).
    pub(crate) fn count_op(&mut self, kind: usize) -> Result<()> {
        let slot = &mut self.head.kind_counts[kind];
        *slot = pack(u64::from(*slot) + 1)?;
        Ok(())
    }

    /// Every form of the open segment.
    fn open(&mut self) -> &mut [Form] {
        &mut self.forms[self.segment..]
    }

    /// The open segment's form for `bin`, named from a copy of the default
    /// if it was not yet.
    fn named(&mut self, bin: u32) -> &mut Form {
        let found = self.open()[1..].iter().position(|f| f.key == bin);
        let at = match found {
            Some(at) => self.segment + 1 + at,
            None => {
                let mut form = self.forms[self.segment];
                self.forms[self.segment].key += 1;
                form.key = bin;
                self.forms.push(form);
                self.forms.len() - 1
            }
        };
        &mut self.forms[at]
    }

    /// Composes `step` into the program; a [`Step::MergeTarget`] comes with
    /// `target`, the histogram of the image it pastes into, and closes the
    /// open segment.
    pub(crate) fn push(&mut self, step: Step, target: Option<&Arc<ColorHistogram>>) -> Result<()> {
        let total = self.head.total;
        match step {
            Step::Widen { d } => {
                for form in self.open() {
                    form.widen(d, total)?;
                }
            }
            Step::Modify {
                from_bin,
                to_bin,
                d,
            } if from_bin != to_bin => {
                self.named(to_bin).grow(1, d, total);
                self.named(from_bin).shrink(1, d.into())?;
            }
            Step::Modify { .. } => {}
            Step::Scale {
                mul_min,
                mul_max,
                new_total,
            } => {
                for form in self.open() {
                    form.grow(mul_max, 0, new_total);
                    form.shrink(mul_min, 0)?;
                }
                self.head.total = new_total;
            }
            Step::MergeNull { d } => {
                let shrink = total.checked_sub(d).ok_or_else(|| {
                    RuleError::InvalidSequence(format!("a crop of {d} pixels from {total}"))
                })?;
                for form in self.open() {
                    form.grow(1, 0, d);
                    form.shrink(1, shrink.into())?;
                }
                self.head.total = d;
            }
            Step::MergeTarget {
                target: id,
                d,
                covered,
                gap,
                new_total,
            } => {
                let histogram = target.expect("a merge step comes with its target's histogram");
                self.close_segment();
                self.merges.push(Merge {
                    target: id,
                    histogram: Arc::clone(histogram),
                    d,
                    before: total,
                    covered,
                    gap,
                    new_total,
                    background_bin: self.background_bin,
                });
                self.segment = self.forms.len();
                self.forms.push(Form::identity(new_total));
                self.head.total = new_total;
            }
            Step::ScaleBy { .. } | Step::Raise { .. } => {
                unreachable!("a program holds the conservative rules only")
            }
        }
        Ok(())
    }

    /// Puts the open segment's named forms in bin order.
    fn close_segment(&mut self) {
        self.open()[1..].sort_unstable_by_key(|form| form.key);
    }
}

impl ProgramBlock {
    /// Appends the program `compose` writes over base `base` of
    /// `base_total` pixels; on error the block is left as it was.
    pub(crate) fn write(
        &mut self,
        base: (ImageId, u64, u32),
        compose: impl FnOnce(&mut ProgramWriter<'_>) -> Result<()>,
    ) -> Result<()> {
        let head = ProgramWriter::write(&mut self.forms, &mut self.merges, base, compose)?;
        let ends = (self.forms.len() as u32, self.merges.len() as u32);
        self.heads.push((head, ends.0, ends.1));
        Ok(())
    }
}

impl BoundProgram {
    /// The program `compose` writes over base `base` of `base_total`
    /// pixels.
    pub(crate) fn write(
        base: (ImageId, u64, u32),
        compose: impl FnOnce(&mut ProgramWriter<'_>) -> Result<()>,
    ) -> Result<Self> {
        let (mut forms, mut merges) = (Vec::new(), Vec::new());
        let head = ProgramWriter::write(&mut forms, &mut merges, base, compose)?;
        Ok(BoundProgram {
            head,
            forms: forms.into(),
            merges: merges.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::{ImageInfo, InfoResolver, MapInfoResolver};
    use crate::{RuleEngine, RuleProfile};
    use mmdb_editops::EditSequence;
    use mmdb_histogram::{Quantizer, RgbQuantizer};
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
        let total = base.total();
        let ranges = base.counts().iter().enumerate().map(|(bin, &count)| {
            let mut range = BoundRange::exact(count, total);
            for &step in steps {
                let target = match step {
                    Step::MergeTarget { .. } => (target.count(bin), target.total()),
                    _ => (0, 0),
                };
                step.apply(&mut range, bin, 0, target);
            }
            range
        });
        ranges.collect()
    }

    /// Composes `steps` into a program over `base` and checks, for every
    /// bin, that `eval` and `eval_vector` equal applying the steps one at a
    /// time with [`Step::apply`].
    fn composed(
        steps: &[Step],
        base: &ColorHistogram,
        target: &Arc<ColorHistogram>,
    ) -> BoundProgram {
        let program = BoundProgram::write((ImageId::new(1), base.total(), 0), |writer| {
            steps
                .iter()
                .try_for_each(|&step| writer.push(step, Some(target)))
        })
        .unwrap();
        let stepwise = stepwise(steps, base, target);
        let per_bin: Vec<BoundRange> = (0..base.bin_count())
            .map(|bin| program.view().eval(bin, base.count(bin)))
            .collect();
        assert_eq!(per_bin, stepwise);
        assert_eq!(program.view().eval_vector(base), stepwise);
        program
    }

    /// A program is its head, its segments' forms and a merge record per
    /// paste: the default form of each segment counts the named forms after
    /// it, a `Define` leaves nothing, and a crop or a scale composes into
    /// the open segment.
    #[test]
    fn steps_compile_to_segments_and_merge_records() {
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
        let base = ImageId::new((7 << 32) | 5);
        let program = BoundProgram::write((base, 100, 21), |writer| {
            for (kind, step) in [1, 2, 3, 4, 5, 1].into_iter().zip(steps) {
                writer.count_op(kind)?;
                writer.push(step, Some(&target))?;
            }
            writer.count_op(0)
        })
        .unwrap();
        let view = program.view();
        assert_eq!(view.base(), base);
        assert_eq!(view.kind_counts(), &[1, 2, 1, 1, 1, 1]);
        assert_eq!(view.op_count(), 7);
        assert!(!view.all_widening());
        assert_eq!(view.segment_count(), 2);
        // Segment 1: a default and bins 3 and 63, in bin order; segment 2:
        // a default.
        let keys: Vec<u32> = program.forms.iter().map(|f| f.key).collect();
        assert_eq!(keys, [2, 3, 63, 0]);
        assert_eq!(view.form_count(), 4);
        // Bin 63 (raised by 16, then ×4 capped at 225, then cropped to 50)
        // and every other bin (widened by 4 first).
        let [default, lowered, raised, after] = *program.forms else {
            unreachable!("four forms")
        };
        assert_eq!((raised.b, raised.r, raised.cap), (4, 80, 50));
        assert_eq!((lowered.a, lowered.top, lowered.floor), (1, 0, 0));
        assert_eq!(
            (default.a, default.top, default.b, default.r),
            (1, 0, 4, 16)
        );
        assert_eq!(after, {
            let mut form = Form::identity(400);
            form.widen(3, 400).unwrap();
            form
        });
        assert_eq!(
            view.merge_targets().collect::<Vec<_>>(),
            vec![ImageId::new(u64::MAX - 7)]
        );
        let merge = &program.merges[0];
        assert!(Arc::ptr_eq(&merge.histogram, &target));
        assert_eq!(
            (
                merge.d,
                merge.before,
                merge.covered,
                merge.gap,
                merge.new_total
            ),
            (16, 50, 12, 5, 400)
        );
        assert_eq!(merge.background_bin, 21);
        assert_eq!(
            view.heap_bytes(),
            4 * std::mem::size_of::<Form>() + std::mem::size_of::<Merge>()
        );
        assert_eq!(std::mem::size_of::<Form>(), 28);
    }

    /// Only a paste ends a segment: scales, crops and `Define`s compose into
    /// the open one. Checked on a compiled sequence against the stepwise
    /// trace. The literal profile, which no program holds, walks its own
    /// steps.
    #[test]
    fn segments_end_only_at_pastes() {
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
        let view = program.view();
        assert_eq!(view.segment_count(), 2);
        // Every bin a recoloring names before the paste, once, in bin
        // order; nothing is named after it.
        let keys: Vec<u32> = program.forms.iter().map(|f| f.key).collect();
        let mut named =
            [Rgb::RED, Rgb::GREEN, Rgb::WHITE, Rgb::BLUE].map(|c| quant.bin_of(c) as u32);
        named.sort_unstable();
        assert_eq!(keys[..5], [4, named[0], named[1], named[2], named[3]]);
        assert_eq!(keys[5..], [0]);
        let base = resolver.require(ImageId::new(1)).unwrap();
        let trace = engine.bounds_trace(&seq, &resolver).unwrap();
        let stepwise = trace.last().unwrap();
        for (bin, want) in stepwise.iter().enumerate() {
            assert_eq!(
                view.eval(bin, base.histogram.count(bin)),
                *want,
                "bin {bin}"
            );
        }
        assert_eq!(view.eval_vector(&base.histogram), *stepwise);

        let literal = RuleEngine::new(&quant, RuleProfile::PaperTable1);
        let trace = literal.bounds_trace(&seq, &resolver).unwrap();
        let stepwise = trace.last().unwrap();
        for (bin, want) in stepwise.iter().enumerate() {
            assert_eq!(literal.bounds(&seq, bin, &resolver).unwrap(), *want);
        }
        assert_ne!(
            view.eval_vector(&base.histogram),
            *stepwise,
            "the literal blur widens nothing"
        );
    }

    /// A recoloring inside one bin raises that bin's `max` under the literal
    /// table and changes nothing under the conservative profile, among
    /// other widenings as on its own.
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
        let program = composed(&conservative, &base, &target);
        assert_eq!(program.view().form_count(), 4, "bins 1, 2 and 3 are named");
        let range = program.view().eval(1, 30);
        assert_eq!((range.min, range.max), (27, 38));
        assert_eq!(program.view().eval(0, 40).max, 43);
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

    /// Widening sums past `u32::MAX`, on a base just under 2³² pixels, keep
    /// the raise at `u32::MAX` and read exactly what the stepwise `u64`
    /// walk reads.
    #[test]
    fn a_widening_sum_over_a_word_saturates_exactly() {
        let big = u64::from(u32::MAX);
        let base = ColorHistogram::from_counts(vec![big / 2, big - big / 2], big);
        let target = Arc::new(ColorHistogram::from_counts(vec![1, 1], 2));
        let steps = [
            widen(u32::MAX - 1),
            modify(0, 1, u32::MAX),
            widen(5),
            widen(7),
        ];
        let program = composed(&steps, &base, &target);
        assert_eq!(program.forms[0].r, u32::MAX, "the raise saturates");
        let range = program.view().eval(0, 3);
        assert_eq!((range.min, range.max), (0, big));
        assert_eq!(program.view().eval(1, 0).min, 0);
    }

    #[test]
    fn oversized_values_are_refused_not_truncated() {
        assert_eq!(pack(u64::from(u32::MAX)).unwrap(), u32::MAX);
        assert!(matches!(pack(1 << 32), Err(RuleError::InvalidSequence(_))));
        // A base of 2³² pixels: no form can start from its total.
        let mut block = ProgramBlock::new();
        let refused = block.write((ImageId::new(1), 1 << 32, 0), |_| Ok(()));
        assert!(matches!(refused, Err(RuleError::InvalidSequence(_))));
        assert!(block.is_empty() && block.forms.is_empty());
    }

    /// Programs compiled into one block read back in order and equal their
    /// own compiles; a compile that fails leaves the block as it was.
    #[test]
    fn a_block_keeps_programs_back_to_back() {
        let quant = RgbQuantizer::default_64();
        let mut resolver = MapInfoResolver::new();
        for (id, side, color) in [(1, 10, Rgb::RED), (2, 6, Rgb::GREEN)] {
            let img = RasterImage::filled(side, side, color).unwrap();
            let info = ImageInfo::new(ColorHistogram::extract(&img, &quant), side, side);
            resolver.insert(ImageId::new(id), info);
        }
        let sequences = [
            EditSequence::builder(ImageId::new(1)).blur().build(),
            EditSequence::builder(ImageId::new(1))
                .define(Rect::new(0, 0, 4, 4))
                .merge_into(ImageId::new(2), 1, 1)
                .modify(Rgb::RED, Rgb::BLUE)
                .build(),
            EditSequence::builder(ImageId::new(1))
                .modify(Rgb::RED, Rgb::GREEN)
                .build(),
        ];
        let engine = RuleEngine::new(&quant, RuleProfile::Conservative);
        let mut block = ProgramBlock::new();
        for seq in &sequences {
            engine.compile_into(seq, &resolver, &mut block).unwrap();
        }
        let unknown = EditSequence::builder(ImageId::new(1))
            .blur()
            .merge_into(ImageId::new(9), 0, 0)
            .build();
        let before = block.clone();
        assert!(engine
            .compile_into(&unknown, &resolver, &mut block)
            .is_err());
        assert_eq!(block, before, "a failed compile leaves nothing");
        assert_eq!(block.len(), 3);
        for (i, (kept, seq)) in block.iter().zip(&sequences).enumerate() {
            let own = engine.compile(seq, &resolver).unwrap();
            assert_eq!(kept.to_program(), own, "program {i}");
            assert_eq!(block.get(i), Some(kept));
        }
        assert_eq!(block.get(3), None);
    }
}
