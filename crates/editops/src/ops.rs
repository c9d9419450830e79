//! The five editing operations of the paper (§3.2).
//!
//! > "this set of five operations is used because it has the property that
//! > its operations can be combined to perform any image transformation by
//! > manipulating a single pixel at a time"
//!
//! The operations are:
//!
//! | Op | Paper parameters | Effect |
//! |---|---|---|
//! | `Define (DR)` | region coordinates | selects the *Defined Region* edited by subsequent ops |
//! | `Combine (C1..C9)` | 3×3 neighbour weights | blurs DR pixels toward the weighted average of their neighbours |
//! | `Modify (RGBold, RGBnew)` | two colors | recolors DR pixels of color `RGBold` to `RGBnew` |
//! | `Mutate (M11..M33)` | 3×3 matrix | repositions DR pixels (rotate / scale / translate) |
//! | `Merge (target, xp, yp)` | target image + paste coords | copies the DR into `target` (or crops to the DR when `target` is NULL) |

use crate::ids::ImageId;
use crate::matrix::Matrix3;
use mmdb_imaging::{Rect, Rgb};
use std::fmt;

/// One editing operation in a stored sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum EditOp {
    /// Selects the group of pixels — the *Defined Region* — that subsequent
    /// operations edit. The rectangle is clipped to the image at execution
    /// time.
    Define {
        /// Requested region, in image coordinates.
        region: Rect,
    },
    /// Blurs the defined region: each DR pixel becomes the weighted average
    /// of its 3×3 neighbourhood (weights `C1..C9`, row-major, applied to the
    /// pre-operation pixel values; edge neighbours are clamped to the image
    /// border). A zero weight-sum leaves pixels unchanged.
    Combine {
        /// Row-major 3×3 neighbour weights `C1..C9`.
        weights: [f32; 9],
    },
    /// Recolors every DR pixel whose color is exactly `from` to `to`.
    Modify {
        /// `RGBold` — the color to replace.
        from: Rgb,
        /// `RGBnew` — the replacement color.
        to: Rgb,
    },
    /// Repositions the DR pixels with a 3×3 homogeneous matrix.
    Mutate {
        /// Transform matrix `(M11..M33)`.
        matrix: Matrix3,
    },
    /// Copies the current DR into a target image at `(xp, yp)`; with no
    /// target, crops the image to the DR.
    Merge {
        /// Target image, or `None` (the paper's NULL target).
        target: Option<ImageId>,
        /// Paste x coordinate in the target.
        xp: i64,
        /// Paste y coordinate in the target.
        yp: i64,
    },
}

/// Discriminant-only view of an operation, used for statistics and
/// classification tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Define`.
    Define,
    /// `Combine`.
    Combine,
    /// `Modify`.
    Modify,
    /// `Mutate`.
    Mutate,
    /// `Merge` with NULL target.
    MergeNull,
    /// `Merge` with a concrete target image.
    MergeTarget,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Define => "Define",
            OpKind::Combine => "Combine",
            OpKind::Modify => "Modify",
            OpKind::Mutate => "Mutate",
            OpKind::MergeNull => "Merge(NULL)",
            OpKind::MergeTarget => "Merge(target)",
        };
        f.write_str(s)
    }
}

impl EditOp {
    /// The operation's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            EditOp::Define { .. } => OpKind::Define,
            EditOp::Combine { .. } => OpKind::Combine,
            EditOp::Modify { .. } => OpKind::Modify,
            EditOp::Mutate { .. } => OpKind::Mutate,
            EditOp::Merge { target: None, .. } => OpKind::MergeNull,
            EditOp::Merge {
                target: Some(_), ..
            } => OpKind::MergeTarget,
        }
    }

    /// The merge target referenced by this operation, if any. Query
    /// processing needs this to resolve target histograms without
    /// instantiating.
    pub fn merge_target(&self) -> Option<ImageId> {
        match self {
            EditOp::Merge {
                target: Some(id), ..
            } => Some(*id),
            _ => None,
        }
    }

    /// Whether the rule associated with this operation is **bound-widening**
    /// in the sense of §4: applying it can only widen (never narrow or
    /// shift-narrow) the `[BOUNDmin/imagesize, BOUNDmax/imagesize]` range.
    ///
    /// Per the paper: "The rules for the Modify, Combine, and Mutate
    /// operations are bound-widening, and the rule for the Merge operation is
    /// bound-widening when the target parameter is null." `Define` touches no
    /// pixel, so it is trivially bound-widening as well.
    pub fn is_bound_widening(&self) -> bool {
        !matches!(self.kind(), OpKind::MergeTarget)
    }

    /// Whether this operation **reads** the current defined region — i.e.
    /// its effect depends on which DR is selected when it runs. Everything
    /// except `Define` does; a `Define` only *replaces* the DR. The dead-op
    /// analysis uses this to decide when an earlier `Define` is never
    /// observed.
    pub fn reads_region(&self) -> bool {
        !matches!(self, EditOp::Define { .. })
    }

    /// Convenience constructor: a box blur with uniform weights.
    pub fn box_blur() -> EditOp {
        EditOp::Combine { weights: [1.0; 9] }
    }

    /// Convenience constructor: define the whole image as the region.
    pub fn define_all() -> EditOp {
        EditOp::Define {
            region: Rect::new(0, 0, i64::MAX / 4, i64::MAX / 4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_display() {
        assert_eq!(
            EditOp::Define {
                region: Rect::new(0, 0, 1, 1)
            }
            .kind(),
            OpKind::Define
        );
        assert_eq!(EditOp::box_blur().kind(), OpKind::Combine);
        assert_eq!(
            EditOp::Modify {
                from: Rgb::RED,
                to: Rgb::BLUE
            }
            .kind(),
            OpKind::Modify
        );
        assert_eq!(
            EditOp::Mutate {
                matrix: Matrix3::IDENTITY
            }
            .kind(),
            OpKind::Mutate
        );
        assert_eq!(
            EditOp::Merge {
                target: None,
                xp: 0,
                yp: 0
            }
            .kind(),
            OpKind::MergeNull
        );
        let mt = EditOp::Merge {
            target: Some(ImageId::new(3)),
            xp: 1,
            yp: 2,
        };
        assert_eq!(mt.kind(), OpKind::MergeTarget);
        assert_eq!(mt.kind().to_string(), "Merge(target)");
        assert_eq!(mt.merge_target(), Some(ImageId::new(3)));
    }

    #[test]
    fn bound_widening_classification_matches_section_4() {
        let bw = [
            EditOp::define_all(),
            EditOp::box_blur(),
            EditOp::Modify {
                from: Rgb::RED,
                to: Rgb::GREEN,
            },
            EditOp::Mutate {
                matrix: Matrix3::translation(3.0, 4.0),
            },
            EditOp::Merge {
                target: None,
                xp: 0,
                yp: 0,
            },
        ];
        for op in &bw {
            assert!(
                op.is_bound_widening(),
                "{:?} should be bound-widening",
                op.kind()
            );
        }
        let nbw = EditOp::Merge {
            target: Some(ImageId::new(1)),
            xp: 0,
            yp: 0,
        };
        assert!(!nbw.is_bound_widening());
    }

    #[test]
    fn define_all_region_can_be_measured_before_clipping() {
        let EditOp::Define { region } = EditOp::define_all() else {
            unreachable!()
        };
        assert_eq!(region.area(), u64::MAX);
    }

    #[test]
    fn merge_target_absent_for_other_ops() {
        assert_eq!(EditOp::box_blur().merge_target(), None);
        assert_eq!(
            EditOp::Merge {
                target: None,
                xp: 5,
                yp: 5
            }
            .merge_target(),
            None
        );
    }
}
