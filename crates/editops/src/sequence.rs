//! The stored form of an edited image: base reference + operation list.

use crate::ids::ImageId;
use crate::matrix::Matrix3;
use crate::ops::{EditOp, OpKind};
use mmdb_imaging::{Rect, Rgb};

/// An edited image stored "as a reference to b along with the sequence of
/// operations used to change b into e" (§2).
///
/// This is the space-saving storage format the paper is built around: an
/// `EditSequence` occupies tens of bytes where the instantiated raster would
/// occupy megabytes.
#[derive(Clone, Debug, PartialEq)]
pub struct EditSequence {
    /// The referenced base image.
    pub base: ImageId,
    /// Operations executed in order against the base image.
    pub ops: Vec<EditOp>,
}

impl EditSequence {
    /// Creates a sequence from parts.
    pub fn new(base: ImageId, ops: Vec<EditOp>) -> Self {
        EditSequence { base, ops }
    }

    /// Starts a fluent builder rooted at `base`.
    pub fn builder(base: ImageId) -> SequenceBuilder {
        SequenceBuilder {
            seq: EditSequence::new(base, Vec::new()),
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the sequence holds no operation (the edited image equals
    /// its base).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// True when *every* operation's rule is bound-widening — the §4
    /// condition for the image to enter the BWM Main component.
    pub fn all_bound_widening(&self) -> bool {
        self.ops.iter().all(EditOp::is_bound_widening)
    }

    /// All merge-target image ids referenced by the sequence, in order of
    /// appearance (duplicates preserved). The rule engine must resolve the
    /// histograms of these images.
    pub fn merge_targets(&self) -> Vec<ImageId> {
        self.ops.iter().filter_map(EditOp::merge_target).collect()
    }

    /// Per-kind operation counts, for dataset statistics (Table 2 reports
    /// "average number of operations within an edited image").
    pub fn kind_histogram(&self) -> [(OpKind, usize); 6] {
        let mut counts = [
            (OpKind::Define, 0),
            (OpKind::Combine, 0),
            (OpKind::Modify, 0),
            (OpKind::Mutate, 0),
            (OpKind::MergeNull, 0),
            (OpKind::MergeTarget, 0),
        ];
        for op in &self.ops {
            let k = op.kind();
            for slot in &mut counts {
                if slot.0 == k {
                    slot.1 += 1;
                }
            }
        }
        counts
    }
}

/// Fluent builder for [`EditSequence`], mirroring how an editing front-end
/// would record user actions.
#[derive(Clone, Debug)]
pub struct SequenceBuilder {
    seq: EditSequence,
}

impl SequenceBuilder {
    /// Appends a `Define` selecting `region`.
    pub fn define(mut self, region: Rect) -> Self {
        self.seq.ops.push(EditOp::Define { region });
        self
    }

    /// Appends a `Define` selecting the entire image.
    pub fn define_all(mut self) -> Self {
        self.seq.ops.push(EditOp::define_all());
        self
    }

    /// Appends a `Combine` with explicit weights.
    pub fn combine(mut self, weights: [f32; 9]) -> Self {
        self.seq.ops.push(EditOp::Combine { weights });
        self
    }

    /// Appends a uniform box blur.
    pub fn blur(mut self) -> Self {
        self.seq.ops.push(EditOp::box_blur());
        self
    }

    /// Appends a `Modify` recoloring `from` → `to`.
    pub fn modify(mut self, from: Rgb, to: Rgb) -> Self {
        self.seq.ops.push(EditOp::Modify { from, to });
        self
    }

    /// Appends a `Mutate` with the given matrix.
    pub fn mutate(mut self, matrix: Matrix3) -> Self {
        self.seq.ops.push(EditOp::Mutate { matrix });
        self
    }

    /// Appends a translation `Mutate`.
    pub fn translate(self, dx: f64, dy: f64) -> Self {
        self.mutate(Matrix3::translation(dx, dy))
    }

    /// Appends a whole-image scale `Mutate`.
    pub fn scale(self, sx: f64, sy: f64) -> Self {
        self.mutate(Matrix3::scale(sx, sy))
    }

    /// Appends a `Merge` into `target` at `(xp, yp)`.
    pub fn merge_into(mut self, target: ImageId, xp: i64, yp: i64) -> Self {
        self.seq.ops.push(EditOp::Merge {
            target: Some(target),
            xp,
            yp,
        });
        self
    }

    /// Appends a NULL-target `Merge` (crop to the defined region).
    pub fn crop_to_region(mut self) -> Self {
        self.seq.ops.push(EditOp::Merge {
            target: None,
            xp: 0,
            yp: 0,
        });
        self
    }

    /// Appends an arbitrary pre-built operation.
    pub fn op(mut self, op: EditOp) -> Self {
        self.seq.ops.push(op);
        self
    }

    /// Finishes the sequence.
    pub fn build(self) -> EditSequence {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_in_order() {
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 10, 10))
            .modify(Rgb::RED, Rgb::BLUE)
            .blur()
            .translate(5.0, 5.0)
            .build();
        assert_eq!(seq.base, ImageId::new(1));
        assert_eq!(seq.len(), 4);
        assert!(matches!(seq.ops[0], EditOp::Define { .. }));
        assert!(matches!(seq.ops[3], EditOp::Mutate { .. }));
        assert!(!seq.is_empty());
    }

    #[test]
    fn empty_sequence() {
        let seq = EditSequence::builder(ImageId::new(9)).build();
        assert!(seq.is_empty());
        assert!(seq.all_bound_widening());
        assert!(seq.merge_targets().is_empty());
    }

    #[test]
    fn bound_widening_detection() {
        let widening = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .modify(Rgb::RED, Rgb::GREEN)
            .crop_to_region()
            .build();
        assert!(widening.all_bound_widening());

        let not_widening = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .merge_into(ImageId::new(2), 3, 3)
            .build();
        assert!(!not_widening.all_bound_widening());
    }

    #[test]
    fn merge_targets_in_order_with_duplicates() {
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 2, 2))
            .merge_into(ImageId::new(5), 0, 0)
            .define(Rect::new(1, 1, 3, 3))
            .merge_into(ImageId::new(4), 0, 0)
            .merge_into(ImageId::new(5), 1, 1)
            .build();
        assert_eq!(
            seq.merge_targets(),
            vec![ImageId::new(5), ImageId::new(4), ImageId::new(5)]
        );
    }

    #[test]
    fn kind_histogram_counts() {
        let seq = EditSequence::builder(ImageId::new(1))
            .define_all()
            .blur()
            .blur()
            .modify(Rgb::RED, Rgb::BLUE)
            .crop_to_region()
            .build();
        let hist = seq.kind_histogram();
        let get = |k: OpKind| hist.iter().find(|(kk, _)| *kk == k).unwrap().1;
        assert_eq!(get(OpKind::Define), 1);
        assert_eq!(get(OpKind::Combine), 2);
        assert_eq!(get(OpKind::Modify), 1);
        assert_eq!(get(OpKind::MergeNull), 1);
        assert_eq!(get(OpKind::MergeTarget), 0);
    }
}
