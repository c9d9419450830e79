//! How an operation moves the canvas and the defined region.
//!
//! Every Table 1 rule is a function of two sizes — |DR| and the image — so
//! the rule engine must walk exactly the canvas/region trajectory the
//! executor produces. That trajectory is decided here and nowhere else:
//! [`Frame::step`] is the one transition, and the executor, the BOUNDS
//! compiler (`mmdb-rules`) and the static analyzer (`mmdb-analysis`) each do
//! their own work — pixels, Table 1 steps, diagnostics — for the [`Motion`]
//! it returns.

use crate::matrix::Matrix3;
use crate::ops::{EditOp, OpKind};
use mmdb_imaging::Rect;
use std::fmt;

/// Upper bound on instantiated canvas size (pixels), guarding against
/// pathological transform parameters blowing up memory.
pub const MAX_CANVAS_PIXELS: u64 = 1 << 26; // 64 Mpx ≈ 256 MiB of RGB

/// The geometric half of the execution state: the canvas, always
/// `(0, 0, w, h)`, and the current defined region, always clipped to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    canvas: Rect,
    region: Rect,
}

/// What one operation did to a [`Frame`], with every rectangle a consumer
/// needs to do its own part of the operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Motion {
    /// No pixel changes place: `Define` (the region is re-selected),
    /// `Combine`, `Modify`, or a `Mutate` of an empty region.
    Still,
    /// Whole-canvas axis scale: the `from` canvas is resampled to `to`
    /// (width, height) and the region is the new canvas.
    Resize {
        /// Canvas dimensions before.
        from: (u32, u32),
        /// Canvas dimensions after, at least 1×1 and under the cap.
        to: (u32, u32),
    },
    /// Any other `Mutate`: the content of `source` is stamped into `dest`,
    /// the bounding box of its transformed corners clipped to the canvas
    /// (possibly empty). The canvas is unchanged; `dest` is the new region.
    Stamp {
        /// The region before.
        source: Rect,
        /// The region after.
        dest: Rect,
    },
    /// `Merge(NULL)`: the canvas becomes `source`, re-based to the origin.
    Crop {
        /// The (non-empty) region cropped to.
        source: Rect,
    },
    /// `Merge(target)`: `source` is pasted at `dest` over `target`; the new
    /// canvas is `canvas`, their union. `dest`, `target` and `canvas` are in
    /// the target's coordinates, so re-basing to the new origin is a
    /// translation by `(-canvas.x0, -canvas.y0)`.
    Paste {
        /// The region before, in the old canvas.
        source: Rect,
        /// Where it lands; empty when `source` is.
        dest: Rect,
        /// The target image, `(0, 0, w, h)`.
        target: Rect,
        /// `target ∪ dest`.
        canvas: Rect,
    },
}

/// Why an operation cannot be carried out on a [`Frame`]. The `Display`
/// wording is what `RuleError::InvalidSequence` and
/// `EditError::InvalidOperation` carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeometryError {
    /// A `Mutate` matrix with a projective last row. Rotations, scales and
    /// translations — the transformations the paper names — are all affine,
    /// and only for those does the bounding box of the transformed corners
    /// bound the transformed region.
    NonAffine,
    /// A `Mutate` that sends a region corner to infinity or NaN.
    NonFinite,
    /// A NaN or infinite `Combine` weight or `Mutate` entry, wherever it is.
    NonFiniteParameter(OpKind),
    /// `Merge(NULL)` with an empty defined region.
    EmptyCrop,
    /// A `Mutate` or `Merge(target)` whose canvas would exceed
    /// [`MAX_CANVAS_PIXELS`]. Dimensions saturate at `i64::MAX`.
    CanvasOverflow {
        /// `Mutate` or `MergeTarget`.
        op: OpKind,
        /// Width of the refused canvas.
        width: i64,
        /// Height of the refused canvas.
        height: i64,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::NonAffine => f.write_str("mutate matrix must be affine"),
            GeometryError::NonFinite => f.write_str("mutate matrix produced a non-finite region"),
            GeometryError::NonFiniteParameter(op) => write!(f, "{op} parameter is NaN or infinite"),
            GeometryError::EmptyCrop => f.write_str("merge(NULL) with empty defined region"),
            GeometryError::CanvasOverflow { op, width, height } => {
                let op = if *op == OpKind::Mutate {
                    "mutate"
                } else {
                    "merge"
                };
                write!(
                    f,
                    "{op} would produce a {width}x{height} canvas, over the pixel cap"
                )
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// `(0, 0, width, height)` if that many pixels are allowed, else the cap
/// error. Under the cap both dimensions fit a `u32`.
fn capped(op: OpKind, width: i64, height: i64) -> Result<Rect, GeometryError> {
    let rect = Rect::new(0, 0, width, height);
    if rect.area() > MAX_CANVAS_PIXELS {
        return Err(GeometryError::CanvasOverflow { op, width, height });
    }
    Ok(rect)
}

impl Frame {
    /// The frame of an untouched `width`×`height` image: the initial region
    /// covers it (operations before any `Define` edit everything).
    pub fn new(width: u32, height: u32) -> Self {
        let canvas = Rect::of_image(width, height);
        Frame {
            canvas,
            region: canvas,
        }
    }

    /// The canvas, `(0, 0, w, h)`.
    pub fn canvas(&self) -> Rect {
        self.canvas
    }

    /// The defined region, clipped to the canvas.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Applies `op`. `target_dims` is the merge target's width and height
    /// and must be given when `op` is a `Merge` into a target; it is not
    /// looked at otherwise. On an error the frame is left as it was.
    pub fn step(
        &mut self,
        op: &EditOp,
        target_dims: Option<(u32, u32)>,
    ) -> Result<Motion, GeometryError> {
        match op {
            EditOp::Define { region } => {
                self.region = region.intersect(&self.canvas);
                Ok(Motion::Still)
            }
            EditOp::Combine { weights } if !weights.iter().all(|w| w.is_finite()) => {
                Err(GeometryError::NonFiniteParameter(OpKind::Combine))
            }
            EditOp::Combine { .. } | EditOp::Modify { .. } => Ok(Motion::Still),
            EditOp::Mutate { matrix } => self.mutate(matrix),
            EditOp::Merge { target: None, .. } => {
                let source = self.region;
                if source.is_empty() {
                    return Err(GeometryError::EmptyCrop);
                }
                self.canvas = Rect::new(0, 0, source.width(), source.height());
                self.region = self.canvas;
                Ok(Motion::Crop { source })
            }
            EditOp::Merge {
                target: Some(_),
                xp,
                yp,
            } => {
                let (w, h) = target_dims.expect("a Merge into a target needs its dimensions");
                self.paste(*xp, *yp, Rect::of_image(w, h))
            }
        }
    }

    fn mutate(&mut self, matrix: &Matrix3) -> Result<Motion, GeometryError> {
        if !matrix.m.iter().flatten().all(|v| v.is_finite()) {
            return Err(GeometryError::NonFiniteParameter(OpKind::Mutate));
        }
        if !matrix.is_affine() {
            return Err(GeometryError::NonAffine);
        }
        let source = self.region;
        if source.is_empty() {
            return Ok(Motion::Still);
        }
        if source == self.canvas && matrix.is_axis_scale() {
            // Table 1's "DR contains image" case: the canvas is resized by
            // `M11 × M22` (a translation term is irrelevant for a
            // full-canvas resize).
            let (old_w, old_h) = (self.canvas.width(), self.canvas.height());
            let scaled = |side: i64, by: f64| ((side as f64 * by).round() as i64).max(1);
            let new_w = scaled(old_w, matrix.m[0][0]);
            let new_h = scaled(old_h, matrix.m[1][1]);
            self.canvas = capped(OpKind::Mutate, new_w, new_h)?;
            self.region = self.canvas;
            return Ok(Motion::Resize {
                from: (old_w as u32, old_h as u32),
                to: (new_w as u32, new_h as u32),
            });
        }
        // Everything else keeps the canvas (Table 1's rigid-body case keeps
        // the total constant) and moves the region to the bounding box of
        // its transformed corners.
        let corners = [
            (source.x0 as f64, source.y0 as f64),
            (source.x1 as f64, source.y0 as f64),
            (source.x0 as f64, source.y1 as f64),
            (source.x1 as f64, source.y1 as f64),
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
            return Err(GeometryError::NonFinite);
        }
        let bbox = Rect::new(
            min_x.floor() as i64,
            min_y.floor() as i64,
            max_x.ceil() as i64,
            max_y.ceil() as i64,
        );
        self.region = bbox.intersect(&self.canvas);
        Ok(Motion::Stamp {
            source,
            dest: self.region,
        })
    }

    /// The canvas becomes the union of `target` and the pasted rectangle
    /// (Table 1's total-pixels formula).
    fn paste(&mut self, xp: i64, yp: i64, target: Rect) -> Result<Motion, GeometryError> {
        let source = self.region;
        // An empty region is 0×0 and pastes nothing, wherever it is sent.
        let (w, h) = (source.width(), source.height());
        if xp.checked_add(w).is_none() || yp.checked_add(h).is_none() {
            // A corner past `i64` is past the cap too.
            return Err(GeometryError::CanvasOverflow {
                op: OpKind::MergeTarget,
                width: i64::MAX,
                height: i64::MAX,
            });
        }
        let dest = Rect::from_origin_size(xp, yp, w, h);
        let canvas = target.union(&dest);
        self.canvas = capped(
            OpKind::MergeTarget,
            canvas.x1.saturating_sub(canvas.x0),
            canvas.y1.saturating_sub(canvas.y0),
        )?;
        self.region = dest
            .translate(-canvas.x0, -canvas.y0)
            .intersect(&self.canvas);
        Ok(Motion::Paste {
            source,
            dest,
            target,
            canvas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::GeometryError::*;
    use super::Motion::*;
    use super::*;
    use crate::{EditSequence, ImageId, SequenceBuilder};

    const PROJECTIVE: Matrix3 = Matrix3::new([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.01, 0.0, 1.0]]);
    const TO_INFINITY: Matrix3 =
        Matrix3::new([[1e308, 1e308, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
    const T: ImageId = ImageId::new(2);

    /// Each row: operations stepped through a 10×10 frame (merge targets are
    /// 20×20), the outcome of the last one, and the canvas and region it
    /// leaves — after an error, as they were.
    #[test]
    fn transition_table() {
        let seq = || EditSequence::builder(ImageId::new(1));
        let r = Rect::new;
        let (whole, corner, target) = (r(0, 0, 10, 10), r(0, 0, 4, 4), r(0, 0, 20, 20));
        let off = || seq().define(r(50, 50, 60, 60)); // clips to empty
        let resize = |to| Ok(Resize { from: (10, 10), to });
        let stamp = |source, dest| Ok(Stamp { source, dest });
        let paste = |source, dest, canvas| {
            Ok(Paste {
                source,
                dest,
                target,
                canvas,
            })
        };
        let nowhere = r(i64::MAX, i64::MIN, i64::MAX, i64::MIN);
        let over = |op, width, height| Err(CanvasOverflow { op, width, height });
        let nan = |op| Err(NonFiniteParameter(op));
        let nan_shift = Matrix3::new([[2.0, 0.0, f64::NAN], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]);
        let (scale, merge) = (OpKind::Mutate, OpKind::MergeTarget);
        type Row = (SequenceBuilder, Result<Motion, GeometryError>, Rect, Rect);
        #[rustfmt::skip]
        let rows: Vec<Row> = vec![
            // Define clips; Combine and Modify move nothing.
            (seq().define(r(-5, -5, 100, 2)), Ok(Still), whole, r(0, 0, 10, 2)),
            (off(), Ok(Still), whole, Rect::EMPTY),
            (seq().define_all(), Ok(Still), whole, whole),
            (seq().define(corner).blur(), Ok(Still), whole, corner),
            // Mutate: nothing to move, a whole-canvas resize, a stamp.
            (off().translate(3.0, 3.0), Ok(Still), whole, Rect::EMPTY),
            (seq().scale(2.0, 0.25), resize((20, 3)), r(0, 0, 20, 3), r(0, 0, 20, 3)),
            (seq().scale(1e-9, 1e-9), resize((1, 1)), r(0, 0, 1, 1), r(0, 0, 1, 1)),
            (seq().define(corner).translate(8.0, 0.5), stamp(corner, r(8, 0, 10, 5)), whole, r(8, 0, 10, 5)),
            (seq().define(corner).translate(1e300, 0.0), stamp(corner, Rect::EMPTY), whole, Rect::EMPTY),
            (seq().define(corner).scale(2.0, 2.0), stamp(corner, r(0, 0, 8, 8)), whole, r(0, 0, 8, 8)),
            // Merge(NULL) crops to the region.
            (seq().define(r(2, 3, 6, 5)).crop_to_region(), Ok(Crop { source: r(2, 3, 6, 5) }), r(0, 0, 4, 2), r(0, 0, 4, 2)),
            // Merge(target): inside it, growing the canvas up and left, nothing to paste.
            (seq().define(corner).merge_into(T, 5, 5), paste(corner, r(5, 5, 9, 9), target), target, r(5, 5, 9, 9)),
            (seq().define(corner).merge_into(T, -2, 18), paste(corner, r(-2, 18, 2, 22), r(-2, 0, 20, 22)), r(0, 0, 22, 22), r(0, 18, 4, 22)),
            (off().merge_into(T, i64::MAX, i64::MIN), paste(Rect::EMPTY, nowhere, target), target, Rect::EMPTY),
            // The five refusals. A non-finite parameter is refused even where
            // the frame would not read it.
            (seq().combine([0.0, 0.0, 0.0, 0.0, f32::NAN, 0.0, 0.0, 0.0, 0.0]), nan(OpKind::Combine), whole, whole),
            (off().translate(f64::INFINITY, 0.0), nan(OpKind::Mutate), whole, Rect::EMPTY),
            (seq().mutate(nan_shift), nan(OpKind::Mutate), whole, whole),
            (seq().mutate(PROJECTIVE), Err(NonAffine), whole, whole),
            (off().mutate(PROJECTIVE), Err(NonAffine), whole, Rect::EMPTY),
            (seq().mutate(TO_INFINITY), Err(NonFinite), whole, whole),
            (off().crop_to_region(), Err(EmptyCrop), whole, Rect::EMPTY),
            (seq().scale(1e4, 1e4), over(scale, 100_000, 100_000), whole, whole),
            // 10 · 429496730 = 2³² + 4: not to be narrowed before the check.
            (seq().scale(429_496_730.0, 1.0), over(scale, (1 << 32) + 4, 10), whole, whole),
            (seq().scale(1e18, 1e18), over(scale, i64::MAX, i64::MAX), whole, whole),
            (seq().merge_into(T, 20_000, 20_000), over(merge, 20_010, 20_010), whole, whole),
            (seq().merge_into(T, 1 << 33, 1 << 33), over(merge, (1 << 33) + 10, (1 << 33) + 10), whole, whole),
            (seq().merge_into(T, i64::MIN, 0), over(merge, i64::MAX, 20), whole, whole),
            (seq().merge_into(T, i64::MAX - 5, 0), over(merge, i64::MAX, i64::MAX), whole, whole),
        ];
        for (ops, outcome, canvas, region) in rows {
            let ops = ops.build().ops;
            let mut frame = Frame::new(10, 10);
            let (last, before) = ops.split_last().unwrap();
            for op in before {
                frame.step(op, Some((20, 20))).unwrap();
            }
            assert_eq!(frame.step(last, Some((20, 20))), outcome, "{ops:?}");
            assert_eq!(frame.canvas(), canvas, "canvas after {ops:?}");
            assert_eq!(frame.region(), region, "region after {ops:?}");
        }
    }

    #[test]
    fn errors_are_worded_once() {
        let (width, height) = (30_000, 1);
        assert_eq!(
            CanvasOverflow {
                op: OpKind::Mutate,
                width,
                height
            }
            .to_string(),
            "mutate would produce a 30000x1 canvas, over the pixel cap"
        );
        assert_eq!(
            CanvasOverflow {
                op: OpKind::MergeTarget,
                width,
                height
            }
            .to_string(),
            "merge would produce a 30000x1 canvas, over the pixel cap"
        );
        assert_eq!(
            NonFiniteParameter(OpKind::Combine).to_string(),
            "Combine parameter is NaN or infinite"
        );
        assert_eq!(
            crate::EditError::from(EmptyCrop).to_string(),
            "invalid operation: merge(NULL) with empty defined region"
        );
    }
}
