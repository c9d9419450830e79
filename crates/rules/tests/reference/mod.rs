//! Test-only reference: the interpretive Table 1 walker that `mmdb-rules`
//! shipped before BOUNDS became compile-once / evaluate-per-bin. It re-derives
//! geometry, quantizer bins and error conditions for every `(sequence, bin)`
//! pair, one rule function per Table 1 row, and is what the differential
//! tests compare `RuleEngine::compile` + `ProgramRef::eval` against.
//!
//! Not a test target of its own (Cargo only builds top-level `tests/*.rs`);
//! include it with `mod reference;` or a `#[path]` attribute.
#![allow(dead_code)]

use mmdb_editops::{EditOp, EditSequence, Matrix3};
use mmdb_histogram::Quantizer;
use mmdb_imaging::{Rect, Rgb};
use mmdb_rules::{BoundRange, ImageInfo, InfoResolver, Result, RuleError, RuleProfile};

/// Walker state: the bound triple plus the geometry needed to evaluate |DR|
/// and canvas sizes symbolically.
#[derive(Clone, Copy, Debug)]
struct BoundState {
    range: BoundRange,
    /// Current canvas, always `(0, 0, w, h)`.
    image_rect: Rect,
    /// Current defined region, always clipped to `image_rect`.
    dr: Rect,
}

/// The interpretive rule walker.
pub struct ReferenceEngine<'q> {
    quantizer: &'q dyn Quantizer,
    profile: RuleProfile,
    background: Rgb,
}

impl<'q> ReferenceEngine<'q> {
    pub fn new(quantizer: &'q dyn Quantizer, profile: RuleProfile, background: Rgb) -> Self {
        ReferenceEngine {
            quantizer,
            profile,
            background,
        }
    }

    fn base_states(
        &self,
        seq: &EditSequence,
        resolver: &dyn InfoResolver,
    ) -> Result<Vec<BoundState>> {
        let base = resolver.require(seq.base)?;
        let image_rect = Rect::of_image(base.width, base.height);
        Ok((0..self.quantizer.bin_count())
            .map(|bin| BoundState {
                range: BoundRange::exact(base.histogram.count(bin), base.histogram.total()),
                image_rect,
                dr: image_rect,
            })
            .collect())
    }

    /// BOUNDS for one bin, walking every operation.
    pub fn bounds(
        &self,
        seq: &EditSequence,
        bin: usize,
        resolver: &dyn InfoResolver,
    ) -> Result<BoundRange> {
        let base = resolver.require(seq.base)?;
        let image_rect = Rect::of_image(base.width, base.height);
        let mut state = BoundState {
            range: BoundRange::exact(base.histogram.count(bin), base.histogram.total()),
            image_rect,
            dr: image_rect,
        };
        for op in &seq.ops {
            self.apply(&mut state, op, bin, resolver)?;
        }
        Ok(state.range)
    }

    /// BOUNDS for every bin, op-major.
    pub fn bounds_vector(
        &self,
        seq: &EditSequence,
        resolver: &dyn InfoResolver,
    ) -> Result<Vec<BoundRange>> {
        let mut states = self.base_states(seq, resolver)?;
        for op in &seq.ops {
            for (bin, state) in states.iter_mut().enumerate() {
                self.apply(state, op, bin, resolver)?;
            }
        }
        Ok(states.into_iter().map(|s| s.range).collect())
    }

    /// Per-bin triples after every operation; element 0 is the base state.
    pub fn bounds_trace(
        &self,
        seq: &EditSequence,
        resolver: &dyn InfoResolver,
    ) -> Result<Vec<Vec<BoundRange>>> {
        let mut states = self.base_states(seq, resolver)?;
        let mut trace = Vec::with_capacity(seq.ops.len() + 1);
        trace.push(states.iter().map(|s| s.range).collect::<Vec<_>>());
        for op in &seq.ops {
            for (bin, state) in states.iter_mut().enumerate() {
                self.apply(state, op, bin, resolver)?;
            }
            trace.push(states.iter().map(|s| s.range).collect::<Vec<_>>());
        }
        Ok(trace)
    }

    fn apply(
        &self,
        state: &mut BoundState,
        op: &EditOp,
        bin: usize,
        resolver: &dyn InfoResolver,
    ) -> Result<()> {
        match op {
            EditOp::Define { region } => {
                state.dr = region.intersect(&state.image_rect);
                Ok(())
            }
            EditOp::Combine { .. } => {
                self.rule_combine(state);
                Ok(())
            }
            EditOp::Modify { from, to } => {
                self.rule_modify(state, *from, *to, bin);
                Ok(())
            }
            EditOp::Mutate { matrix } => self.rule_mutate(state, matrix),
            EditOp::Merge { target, xp, yp } => match target {
                None => self.rule_merge_null(state),
                Some(id) => {
                    let info = resolver.require(*id)?;
                    self.rule_merge_target(state, &info, *xp, *yp, bin)
                }
            },
        }
    }

    /// Table 1, `Combine` row. Literal profile: no change. Conservative
    /// profile: every DR pixel's color may change, so the bin may lose or
    /// gain up to |DR| pixels.
    fn rule_combine(&self, state: &mut BoundState) {
        if self.profile == RuleProfile::PaperTable1 {
            return;
        }
        let d = state.dr.area();
        let r = &mut state.range;
        r.min = r.min.saturating_sub(d);
        r.max = r.max.saturating_add(d);
        *r = r.clamped();
    }

    /// Table 1, `Modify` row: "If RGBnew maps to HB: increase max by |DR|;
    /// else if RGBold maps to HB: decrease min by |DR|; else: no change."
    fn rule_modify(&self, state: &mut BoundState, from: Rgb, to: Rgb, bin: usize) {
        let bin_from = self.quantizer.bin_of(from);
        let bin_to = self.quantizer.bin_of(to);
        if self.profile == RuleProfile::Conservative && bin_from == bin_to {
            // Recoloring within one bin cannot change its population.
            return;
        }
        let d = state.dr.area();
        let r = &mut state.range;
        if bin_to == bin {
            r.max = r.max.saturating_add(d);
        } else if bin_from == bin {
            r.min = r.min.saturating_sub(d);
        }
        *r = r.clamped();
    }

    /// Table 1, `Mutate` row: whole-image axis scaling multiplies all three
    /// quantities by `M11 · M22`; everything else widens by the affected
    /// pixel count with the total unchanged.
    fn rule_mutate(&self, state: &mut BoundState, matrix: &Matrix3) -> Result<()> {
        if !matrix.is_affine() {
            return Err(RuleError::InvalidSequence(
                "mutate matrix must be affine".into(),
            ));
        }
        if state.dr.is_empty() {
            return Ok(());
        }
        let whole = state.dr == state.image_rect;
        if whole && matrix.is_axis_scale() {
            return self.rule_whole_image_scale(state, matrix);
        }
        let corners = [
            (state.dr.x0 as f64, state.dr.y0 as f64),
            (state.dr.x1 as f64, state.dr.y0 as f64),
            (state.dr.x0 as f64, state.dr.y1 as f64),
            (state.dr.x1 as f64, state.dr.y1 as f64),
        ];
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for (cx, cy) in corners {
            let (tx, ty) = matrix.apply(cx, cy);
            min_x = min_x.min(tx);
            min_y = min_y.min(ty);
            max_x = max_x.max(tx);
            max_y = max_y.max(ty);
        }
        if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite()) {
            return Err(RuleError::InvalidSequence(
                "mutate matrix produced a non-finite region".into(),
            ));
        }
        let bbox = Rect::new(
            min_x.floor() as i64,
            min_y.floor() as i64,
            max_x.ceil() as i64,
            max_y.ceil() as i64,
        );
        let dest = bbox.intersect(&state.image_rect);
        let delta = match self.profile {
            RuleProfile::PaperTable1 => state.dr.area(),
            RuleProfile::Conservative => dest.area(),
        };
        let r = &mut state.range;
        r.min = r.min.saturating_sub(delta);
        r.max = r.max.saturating_add(delta);
        *r = r.clamped();
        state.dr = dest;
        Ok(())
    }

    fn rule_whole_image_scale(&self, state: &mut BoundState, matrix: &Matrix3) -> Result<()> {
        let sx = matrix.m[0][0];
        let sy = matrix.m[1][1];
        let old_w = state.image_rect.width();
        let old_h = state.image_rect.height();
        let new_w = ((old_w as f64 * sx).round() as i64).max(1);
        let new_h = ((old_h as f64 * sy).round() as i64).max(1);
        let new_total = (new_w * new_h) as u64;
        if new_total > mmdb_editops::exec::MAX_CANVAS_PIXELS {
            return Err(RuleError::InvalidSequence(format!(
                "mutate would produce a {new_w}x{new_h} canvas, over the pixel cap"
            )));
        }
        let r = &mut state.range;
        match self.profile {
            RuleProfile::PaperTable1 => {
                let factor = sx * sy;
                r.min = (r.min as f64 * factor).floor().max(0.0) as u64;
                r.max = (r.max as f64 * factor).ceil() as u64;
            }
            RuleProfile::Conservative => {
                let fx = new_w as f64 / old_w as f64;
                let fy = new_h as f64 / old_h as f64;
                r.min = r.min.saturating_mul(fx.floor() as u64 * fy.floor() as u64);
                r.max = r
                    .max
                    .saturating_mul((fx.ceil() as u64).max(1) * (fy.ceil() as u64).max(1));
            }
        }
        r.total = new_total;
        *r = r.clamped();
        state.image_rect = Rect::new(0, 0, new_w, new_h);
        state.dr = state.image_rect;
        Ok(())
    }

    /// Table 1, `Merge` with NULL target: the image becomes the DR.
    fn rule_merge_null(&self, state: &mut BoundState) -> Result<()> {
        let d = state.dr.area();
        if d == 0 {
            return Err(RuleError::InvalidSequence(
                "merge(NULL) with empty defined region".into(),
            ));
        }
        let r = &mut state.range;
        let outside_bin = r.total - r.min;
        r.min = d.saturating_sub(outside_bin);
        r.max = r.max.min(d);
        r.total = d;
        *r = r.clamped();
        state.image_rect = Rect::new(0, 0, state.dr.width(), state.dr.height());
        state.dr = state.image_rect;
        Ok(())
    }

    /// Table 1, `Merge` with a target.
    fn rule_merge_target(
        &self,
        state: &mut BoundState,
        target: &ImageInfo,
        xp: i64,
        yp: i64,
        bin: usize,
    ) -> Result<()> {
        let t_total = target.histogram.total();
        let t_hb = target.histogram.count(bin);
        let target_rect = Rect::of_image(target.width, target.height);
        let dest = Rect::from_origin_size(xp, yp, state.dr.width(), state.dr.height());
        let canvas = target_rect.union(&dest);
        let new_total = canvas.area();
        if new_total > mmdb_editops::exec::MAX_CANVAS_PIXELS {
            return Err(RuleError::InvalidSequence(format!(
                "merge would produce a {}x{} canvas, over the pixel cap",
                canvas.width(),
                canvas.height()
            )));
        }
        let d = state.dr.area();

        let r = &mut state.range;
        let dr_min = d.saturating_sub(r.total - r.min);
        let dr_max = r.max.min(d);

        let (t_min, t_max, gap_contrib) = match self.profile {
            RuleProfile::PaperTable1 => {
                let t_min = t_hb.saturating_sub(d);
                let t_max = t_hb.min(t_total.saturating_sub(d));
                (t_min, t_max, 0)
            }
            RuleProfile::Conservative => {
                let covered = dest.intersect(&target_rect).area();
                let t_min = t_hb.saturating_sub(covered);
                let t_max = t_hb.min(t_total - covered);
                let gap = (new_total + covered) - t_total - d;
                let gap_contrib = if self.quantizer.bin_of(self.background) == bin {
                    gap
                } else {
                    0
                };
                (t_min, t_max, gap_contrib)
            }
        };

        r.min = dr_min + t_min + gap_contrib;
        r.max = dr_max + t_max + gap_contrib;
        r.total = new_total;
        *r = r.clamped();

        state.image_rect = Rect::new(0, 0, canvas.width(), canvas.height());
        state.dr = dest
            .translate(-canvas.x0, -canvas.y0)
            .intersect(&state.image_rect);
        Ok(())
    }
}
