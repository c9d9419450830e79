//! Pass 1 — well-formedness checks over a single sequence.
//!
//! Structural checks (non-finite parameters, degenerate regions, zero-sum
//! kernels, non-affine matrices) need nothing but the op list. With the
//! dimensions an [`InfoResolver`] supplies, the pass also steps the
//! executor's own [`Frame`] through the sequence and reports what the
//! executor would only hit at instantiation time: crops of an empty region,
//! canvas growth past the pixel cap, and pastes landing entirely outside
//! their target.
//!
//! Reference existence and kind are not checked here or anywhere in this
//! crate: the storage catalog refuses a dangling, non-binary or cyclic
//! reference on every path that adds an edited image (`Catalog::check_refs`),
//! so a stored sequence's names resolve. A missing resolver entry (a
//! standalone sequence, or an image deleted mid-analysis) merely degrades
//! geometric precision.

use crate::diagnostics::{Diagnostic, LintCode};
use mmdb_editops::{EditOp, EditSequence, Frame, GeometryError, Motion};
use mmdb_rules::InfoResolver;

/// The lint an operation the executor refuses is reported under.
fn refusal_code(err: GeometryError) -> LintCode {
    match err {
        GeometryError::EmptyCrop => LintCode::EmptyCrop,
        GeometryError::CanvasOverflow { .. } => LintCode::CanvasOverflow,
        GeometryError::NonAffine => LintCode::NonAffineMutate,
        GeometryError::NonFinite | GeometryError::NonFiniteParameter(_) => {
            LintCode::NonFiniteParams
        }
    }
}

/// Runs the well-formedness pass. `resolver` supplies base and merge-target
/// dimensions for the geometric checks.
pub fn check(seq: &EditSequence, resolver: &dyn InfoResolver) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let dims = |id| resolver.info(id).map(|info| (info.width, info.height));
    // Exact while every dimension needed so far has resolved and no
    // operation has been refused.
    let mut frame = dims(seq.base).map(|(w, h)| Frame::new(w, h));
    // What is still certain without a frame: the last `Define` was empty as
    // written and nothing has replaced the region wholesale since.
    let mut empty_as_written = false;
    let mut saw_define = false;
    let mut noted_early_edit = false;

    for (i, op) in seq.ops.iter().enumerate() {
        let mut note = |code, message: String| diags.push(Diagnostic::new(code, message).at_op(i));
        if !saw_define && !noted_early_edit && op.reads_region() {
            noted_early_edit = true;
            note(
                LintCode::EditBeforeDefine,
                format!(
                    "{} runs before any Define and edits the whole image",
                    op.kind()
                ),
            );
        }
        match op {
            EditOp::Define { region } => {
                saw_define = true;
                empty_as_written = region.is_empty();
            }
            EditOp::Combine { weights } => {
                if weights.iter().any(|w| !w.is_finite()) {
                    note(
                        LintCode::NonFiniteParams,
                        "Combine weights contain NaN or infinity".to_string(),
                    );
                    // The frame refuses it too; the region stays where it is.
                    continue;
                } else if weights.iter().sum::<f32>() == 0.0 {
                    note(
                        LintCode::ZeroCombine,
                        "Combine weights sum to zero; the executor leaves pixels unchanged"
                            .to_string(),
                    );
                }
            }
            EditOp::Mutate { matrix } => {
                if !matrix.m.iter().flatten().all(|v| v.is_finite()) {
                    note(
                        LintCode::NonFiniteParams,
                        "Mutate matrix contains NaN or infinity".to_string(),
                    );
                    frame = None;
                    empty_as_written = false;
                    continue;
                }
                if matrix.is_affine() && !matrix.is_identity() && matrix.affine_inverse().is_none()
                {
                    note(
                        LintCode::SingularMutate,
                        "Mutate matrix is singular; the defined region collapses".to_string(),
                    );
                }
            }
            EditOp::Modify { .. } | EditOp::Merge { .. } => {}
        }

        let target_dims = op.merge_target().map(dims);
        if target_dims == Some(None) {
            frame = None;
        }
        let moved = match &mut frame {
            Some(frame) => frame.step(op, target_dims.flatten()),
            // Refusals that need no dimensions.
            None => match op {
                EditOp::Mutate { matrix } if !matrix.is_affine() => Err(GeometryError::NonAffine),
                EditOp::Merge { target: None, .. } if empty_as_written => {
                    Err(GeometryError::EmptyCrop)
                }
                _ => Ok(Motion::Still),
            },
        };
        match (op, moved) {
            (_, Err(err)) => {
                note(
                    refusal_code(err),
                    format!("{err}; the executor rejects this sequence"),
                );
                // Best effort beyond the error: the sequence cannot run, so
                // stop tracking geometry.
                frame = None;
                empty_as_written = false;
            }
            (EditOp::Define { region }, _) if region.is_empty() => note(
                LintCode::DegenerateRegion,
                "Define region is empty as written".to_string(),
            ),
            (EditOp::Define { .. }, _) => {
                if let Some(canvas) = frame.filter(|f| f.region().is_empty()).map(|f| f.canvas()) {
                    note(
                        LintCode::DegenerateRegion,
                        format!(
                            "Define region clips to empty on the {}x{} canvas",
                            canvas.width(),
                            canvas.height()
                        ),
                    );
                }
            }
            (
                EditOp::Merge { xp, yp, .. },
                Ok(Motion::Paste {
                    source,
                    dest,
                    target,
                    ..
                }),
            ) if !source.is_empty() && dest.intersect(&target).is_empty() => note(
                LintCode::DisjointPaste,
                format!(
                    "Merge pastes the region at ({xp}, {yp}), entirely outside the {}x{} target; \
                     only background gap fill connects them",
                    target.width(),
                    target.height()
                ),
            ),
            _ => {}
        }
        if matches!(op, EditOp::Merge { .. }) {
            empty_as_written = false;
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_editops::{ImageId, Matrix3};
    use mmdb_histogram::{ColorHistogram, RgbQuantizer};
    use mmdb_imaging::{RasterImage, Rect, Rgb};
    use mmdb_rules::{ImageInfo, MapInfoResolver};

    fn resolver() -> MapInfoResolver {
        let img = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        let hist = ColorHistogram::extract(&img, &RgbQuantizer::default_64());
        let mut r = MapInfoResolver::new();
        r.insert(ImageId::new(1), ImageInfo::new(hist, 10, 10));
        let target = RasterImage::filled(20, 20, Rgb::RED).unwrap();
        let hist = ColorHistogram::extract(&target, &RgbQuantizer::default_64());
        r.insert(ImageId::new(2), ImageInfo::new(hist, 20, 20));
        r
    }

    fn codes(diags: &[Diagnostic]) -> Vec<LintCode> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_sequence_no_diagnostics() {
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .blur()
            .modify(Rgb::RED, Rgb::GREEN)
            .build();
        assert!(check(&seq, &resolver()).is_empty());
    }

    #[test]
    fn edit_before_define_noted_once() {
        let seq = EditSequence::builder(ImageId::new(1))
            .blur()
            .modify(Rgb::RED, Rgb::GREEN)
            .build();
        let d = check(&seq, &MapInfoResolver::new());
        assert_eq!(codes(&d), vec![LintCode::EditBeforeDefine]);
        assert_eq!(d[0].op_index, Some(0));
    }

    #[test]
    fn degenerate_regions_both_flavours() {
        // Empty as written (no resolver needed).
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(5, 5, 5, 9))
            .blur()
            .build();
        assert!(codes(&check(&seq, &MapInfoResolver::new())).contains(&LintCode::DegenerateRegion));
        // Clips to empty on the actual canvas (resolver needed).
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(50, 50, 60, 60))
            .blur()
            .build();
        assert!(check(&seq, &MapInfoResolver::new()).is_empty());
        assert!(codes(&check(&seq, &resolver())).contains(&LintCode::DegenerateRegion));
    }

    #[test]
    fn empty_crop_is_error() {
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(3, 3, 3, 3))
            .crop_to_region()
            .build();
        // Statically empty region: provable even without a resolver.
        assert!(codes(&check(&seq, &MapInfoResolver::new())).contains(&LintCode::EmptyCrop));
        // Clipped-to-empty region: needs the resolver.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(50, 50, 60, 60))
            .crop_to_region()
            .build();
        assert!(!codes(&check(&seq, &MapInfoResolver::new())).contains(&LintCode::EmptyCrop));
        assert!(codes(&check(&seq, &resolver())).contains(&LintCode::EmptyCrop));
    }

    #[test]
    fn non_finite_params_detected() {
        let seq = EditSequence::builder(ImageId::new(1))
            .combine([f32::NAN, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
            .mutate(Matrix3::new([
                [f64::INFINITY, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]))
            .build();
        let c = codes(&check(&seq, &resolver()));
        assert_eq!(
            c.iter()
                .filter(|c| **c == LintCode::NonFiniteParams)
                .count(),
            2
        );
    }

    #[test]
    fn projective_and_singular_mutates() {
        let mut proj = Matrix3::IDENTITY;
        proj.m[2] = [0.01, 0.0, 1.0];
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .mutate(proj)
            .build();
        assert!(codes(&check(&seq, &MapInfoResolver::new())).contains(&LintCode::NonAffineMutate));
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .mutate(Matrix3::scale(0.0, 1.0))
            .build();
        let c = codes(&check(&seq, &MapInfoResolver::new()));
        assert!(c.contains(&LintCode::SingularMutate));
        assert!(!c.contains(&LintCode::NonAffineMutate));
    }

    #[test]
    fn canvas_overflow_from_scale_and_paste() {
        let seq = EditSequence::builder(ImageId::new(1))
            .scale(100_000.0, 100_000.0)
            .build();
        assert!(codes(&check(&seq, &resolver())).contains(&LintCode::CanvasOverflow));
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .merge_into(ImageId::new(2), i64::MAX / 2, 0)
            .build();
        // Paste coordinates are no special case: the canvas they ask for is
        // over the cap, which takes the target's dimensions to know.
        assert!(codes(&check(&seq, &resolver())).contains(&LintCode::CanvasOverflow));
        assert!(check(&seq, &MapInfoResolver::new()).is_empty());
    }

    #[test]
    fn disjoint_paste_warned() {
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .merge_into(ImageId::new(2), 100, 100)
            .build();
        assert!(codes(&check(&seq, &resolver())).contains(&LintCode::DisjointPaste));
        // An interior paste is clean.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .merge_into(ImageId::new(2), 2, 2)
            .build();
        assert!(check(&seq, &resolver()).is_empty());
    }

    #[test]
    fn zero_sum_combine_warned() {
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 4, 4))
            .combine([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 0.0])
            .build();
        assert_eq!(
            codes(&check(&seq, &MapInfoResolver::new())),
            vec![LintCode::ZeroCombine]
        );
    }
}
