//! The instantiation engine.
//!
//! §2: an edited image "can be instantiated by accessing the referenced base
//! image and sequentially executing the associated editing operations". This
//! module is that executor. It is deliberately the *expensive* path — the
//! whole point of the paper is answering queries without running it — but it
//! is also the ground truth: the property tests in `mmdb-rules` check the
//! rule-derived bounds against histograms of images produced here.

use crate::geometry::{Frame, Motion};
use crate::ids::ImageId;
use crate::ops::EditOp;
use crate::sequence::EditSequence;
use crate::{EditError, Result};
use mmdb_imaging::{RasterImage, Rect, Rgb};
use std::collections::HashMap;

pub use crate::geometry::MAX_CANVAS_PIXELS;

/// Resolves image ids to rasters. The storage engine implements this; tests
/// use [`MapResolver`].
pub trait ImageResolver {
    /// Fetches the instantiated raster for `id`.
    fn resolve(&self, id: ImageId) -> Result<RasterImage>;
}

/// A trivial in-memory resolver backed by a `HashMap`.
#[derive(Default, Clone)]
pub struct MapResolver {
    images: HashMap<ImageId, RasterImage>,
}

impl MapResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `image` under `id`, replacing any previous entry.
    pub fn insert(&mut self, id: ImageId, image: RasterImage) {
        self.images.insert(id, image);
    }
}

impl ImageResolver for MapResolver {
    fn resolve(&self, id: ImageId) -> Result<RasterImage> {
        self.images
            .get(&id)
            .cloned()
            .ok_or(EditError::UnknownImage(id))
    }
}

/// Execution options.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Fill color for canvas areas not covered by either the merge target or
    /// the pasted region.
    pub background: Rgb,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            background: Rgb::BLACK,
        }
    }
}

/// Mutable execution state threaded through the operation list: the working
/// raster plus its [`Frame`], whose canvas is always the raster's bounds.
#[derive(Clone, Debug)]
pub struct ExecState {
    /// The working image.
    pub image: RasterImage,
    /// The canvas and the current defined region.
    pub frame: Frame,
}

impl ExecState {
    /// Initializes state from a base image; the initial DR covers the whole
    /// image (ops before any `Define` edit everything).
    pub fn new(image: RasterImage) -> Self {
        let frame = Frame::new(image.width(), image.height());
        ExecState { image, frame }
    }
}

/// Executes edit sequences against a resolver.
pub struct InstantiationEngine<'r, R: ImageResolver + ?Sized> {
    resolver: &'r R,
    options: ExecOptions,
}

impl<'r, R: ImageResolver + ?Sized> InstantiationEngine<'r, R> {
    /// Creates an engine with default options.
    pub fn new(resolver: &'r R) -> Self {
        InstantiationEngine {
            resolver,
            options: ExecOptions::default(),
        }
    }

    /// Creates an engine with explicit options.
    pub fn with_options(resolver: &'r R, options: ExecOptions) -> Self {
        InstantiationEngine { resolver, options }
    }

    /// Instantiates a stored edit sequence into a raster.
    pub fn instantiate(&self, seq: &EditSequence) -> Result<RasterImage> {
        let base = self.resolver.resolve(seq.base)?;
        let mut state = ExecState::new(base);
        for op in &seq.ops {
            self.apply(&mut state, op)?;
        }
        Ok(state.image)
    }

    /// Applies a single operation to `state`: the frame decides where
    /// things go, the pixel work for that [`Motion`] happens here.
    pub fn apply(&self, state: &mut ExecState, op: &EditOp) -> Result<()> {
        let target = match op.merge_target() {
            Some(id) => Some(self.resolver.resolve(id)?),
            None => None,
        };
        let motion = state
            .frame
            .step(op, target.as_ref().map(|t| (t.width(), t.height())))?;
        match (op, motion) {
            (EditOp::Combine { weights }, _) => {
                apply_combine(&mut state.image, state.frame.region(), weights);
            }
            (EditOp::Modify { from, to }, _) => {
                apply_modify(&mut state.image, state.frame.region(), *from, *to);
            }
            (_, Motion::Resize { to: (w, h), .. }) => state.image = resample(&state.image, w, h)?,
            (EditOp::Mutate { matrix }, Motion::Stamp { source, dest }) => {
                stamp(&mut state.image, matrix, source, dest);
            }
            (_, Motion::Crop { source }) => {
                state.image = state
                    .image
                    .crop(&source)
                    .expect("a cropped region is non-empty and inside the image");
            }
            (
                _,
                Motion::Paste {
                    source,
                    dest,
                    canvas,
                    ..
                },
            ) => {
                let target = target.expect("resolved above");
                state.image = paste(
                    &state.image,
                    source,
                    &target,
                    dest,
                    canvas,
                    self.options.background,
                )?;
            }
            _ => {}
        }
        Ok(())
    }
}

fn apply_combine(image: &mut RasterImage, region: Rect, weights: &[f32; 9]) {
    let sum: f32 = weights.iter().sum();
    if sum == 0.0 || region.is_empty() {
        return;
    }
    let src = image.clone();
    let (w, h) = (src.width() as i64, src.height() as i64);
    for y in region.y0..region.y1 {
        for x in region.x0..region.x1 {
            let (mut r, mut g, mut b) = (0.0f32, 0.0f32, 0.0f32);
            for (i, &wt) in weights.iter().enumerate() {
                if wt == 0.0 {
                    continue;
                }
                let nx = (x + (i as i64 % 3) - 1).clamp(0, w - 1);
                let ny = (y + (i as i64 / 3) - 1).clamp(0, h - 1);
                let c = src.get(nx as u32, ny as u32);
                r += wt * c.r as f32;
                g += wt * c.g as f32;
                b += wt * c.b as f32;
            }
            let quant = |v: f32| (v / sum).round().clamp(0.0, 255.0) as u8;
            image.set(x as u32, y as u32, Rgb::new(quant(r), quant(g), quant(b)));
        }
    }
}

fn apply_modify(image: &mut RasterImage, region: Rect, from: Rgb, to: Rgb) {
    if region.is_empty() {
        return;
    }
    let w = image.width() as usize;
    let (x0, x1) = (region.x0 as usize, region.x1 as usize);
    for y in region.y0 as usize..region.y1 as usize {
        for p in &mut image.pixels_mut()[y * w + x0..y * w + x1] {
            if *p == from {
                *p = to;
            }
        }
    }
}

/// Whole-image axis-aligned scale: the canvas is resampled to `new_w` ×
/// `new_h` with nearest-neighbour inverse mapping.
fn resample(src: &RasterImage, new_w: u32, new_h: u32) -> Result<RasterImage> {
    let (old_w, old_h) = (src.width(), src.height());
    Ok(RasterImage::from_fn(new_w, new_h, |x, y| {
        let sxf = ((x as f64 + 0.5) * old_w as f64 / new_w as f64) as u32;
        let syf = ((y as f64 + 0.5) * old_h as f64 / new_h as f64) as u32;
        src.get(sxf.min(old_w - 1), syf.min(old_h - 1))
    })?)
}

/// Sub-region (or non-axis-scale whole-image) transform with copy ("stamp")
/// semantics: the content of `dr` appears at its transformed position inside
/// `dest`; source pixels not overwritten keep their value.
fn stamp(image: &mut RasterImage, matrix: &crate::Matrix3, dr: Rect, dest: Rect) {
    if dest.is_empty() {
        // The region moved entirely off-canvas; stamp nothing.
        return;
    }
    let src = image.clone();
    match matrix.affine_inverse() {
        Some(inv) => {
            // Inverse mapping: no holes under rotation or up-scaling.
            for y in dest.y0..dest.y1 {
                for x in dest.x0..dest.x1 {
                    let (sxf, syf) = inv.apply(x as f64 + 0.5, y as f64 + 0.5);
                    let sx = sxf.floor() as i64;
                    let sy = syf.floor() as i64;
                    if dr.contains(sx, sy) {
                        if let Some(c) = src.get_signed(sx, sy) {
                            image.set(x as u32, y as u32, c);
                        }
                    }
                }
            }
        }
        None => {
            // Singular transform: forward-map each source pixel (the image
            // collapses onto a line/point).
            for (sx, sy) in dr.pixels() {
                let (txf, tyf) = matrix.apply(sx as f64 + 0.5, sy as f64 + 0.5);
                let tx = txf.floor() as i64;
                let ty = tyf.floor() as i64;
                if let Some(c) = src.get_signed(sx, sy) {
                    if tx >= 0 && ty >= 0 && tx < image.width() as i64 && ty < image.height() as i64
                    {
                        image.set(tx as u32, ty as u32, c);
                    }
                }
            }
        }
    }
}

/// Target `Merge`: a `canvas`-sized raster with `target` blitted at its
/// offset position, the `dr` content of `image` pasted over it at `dest`,
/// and gaps filled with `background`. `dest` and `canvas` are in the
/// target's coordinates.
fn paste(
    image: &RasterImage,
    dr: Rect,
    target: &RasterImage,
    dest: Rect,
    canvas_rect: Rect,
    background: Rgb,
) -> Result<RasterImage> {
    let (off_x, off_y) = (-canvas_rect.x0, -canvas_rect.y0);
    let mut canvas = RasterImage::filled(
        canvas_rect.width() as u32,
        canvas_rect.height() as u32,
        background,
    )?;
    // Blit the target at its (offset) position.
    for y in 0..target.height() {
        for x in 0..target.width() {
            canvas.set(
                (x as i64 + off_x) as u32,
                (y as i64 + off_y) as u32,
                target.get(x, y),
            );
        }
    }
    // Paste the DR content over it.
    for (sx, sy) in dr.pixels() {
        let c = image
            .get_signed(sx, sy)
            .expect("DR is clipped to the image");
        let tx = sx - dr.x0 + dest.x0 + off_x;
        let ty = sy - dr.y0 + dest.y0 + off_y;
        canvas.set(tx as u32, ty as u32, c);
    }
    Ok(canvas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix3;

    fn resolver_with(base: RasterImage) -> MapResolver {
        let mut r = MapResolver::new();
        r.insert(ImageId::new(1), base);
        r
    }

    fn checker(w: u32, h: u32) -> RasterImage {
        RasterImage::from_fn(w, h, |x, y| {
            if (x + y) % 2 == 0 {
                Rgb::RED
            } else {
                Rgb::BLUE
            }
        })
        .unwrap()
    }

    #[test]
    fn empty_sequence_reproduces_base() {
        let base = checker(8, 8);
        let r = resolver_with(base.clone());
        let engine = InstantiationEngine::new(&r);
        let out = engine
            .instantiate(&EditSequence::new(ImageId::new(1), vec![]))
            .unwrap();
        assert_eq!(out, base);
    }

    #[test]
    fn unknown_base_errors() {
        let r = MapResolver::new();
        let engine = InstantiationEngine::new(&r);
        let err = engine
            .instantiate(&EditSequence::new(ImageId::new(77), vec![]))
            .unwrap_err();
        assert!(matches!(err, EditError::UnknownImage(id) if id == ImageId::new(77)));
    }

    #[test]
    fn modify_respects_defined_region() {
        let base = RasterImage::filled(4, 4, Rgb::RED).unwrap();
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 2, 4))
            .modify(Rgb::RED, Rgb::GREEN)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.count_color(Rgb::GREEN), 8);
        assert_eq!(out.count_color(Rgb::RED), 8);
        assert_eq!(out.get(0, 0), Rgb::GREEN);
        assert_eq!(out.get(3, 0), Rgb::RED);
    }

    #[test]
    fn modify_without_define_edits_everything() {
        let base = RasterImage::filled(4, 4, Rgb::RED).unwrap();
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .modify(Rgb::RED, Rgb::BLUE)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.count_color(Rgb::BLUE), 16);
    }

    #[test]
    fn combine_uniform_on_flat_image_is_identity() {
        let base = RasterImage::filled(6, 6, Rgb::new(100, 150, 200)).unwrap();
        let r = resolver_with(base.clone());
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1)).blur().build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out, base);
    }

    #[test]
    fn combine_blurs_edges_between_regions() {
        // Left half black, right half white; blur mixes the boundary column.
        let base =
            RasterImage::from_fn(8, 4, |x, _| if x < 4 { Rgb::BLACK } else { Rgb::WHITE }).unwrap();
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1)).blur().build();
        let out = engine.instantiate(&seq).unwrap();
        let boundary = out.get(4, 2);
        assert!(
            boundary != Rgb::BLACK && boundary != Rgb::WHITE,
            "{boundary:?}"
        );
        // Far columns keep their color.
        assert_eq!(out.get(0, 0), Rgb::BLACK);
        assert_eq!(out.get(7, 0), Rgb::WHITE);
    }

    #[test]
    fn combine_identity_kernel_is_noop() {
        let base = checker(5, 5);
        let r = resolver_with(base.clone());
        let engine = InstantiationEngine::new(&r);
        let mut weights = [0.0f32; 9];
        weights[4] = 1.0; // center only
        let seq = EditSequence::builder(ImageId::new(1))
            .combine(weights)
            .build();
        assert_eq!(engine.instantiate(&seq).unwrap(), base);
    }

    #[test]
    fn combine_zero_kernel_is_noop() {
        let base = checker(5, 5);
        let r = resolver_with(base.clone());
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .combine([0.0; 9])
            .build();
        assert_eq!(engine.instantiate(&seq).unwrap(), base);
    }

    #[test]
    fn crop_to_region() {
        let base = RasterImage::from_fn(8, 8, |x, y| Rgb::new(x as u8, y as u8, 0)).unwrap();
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(2, 3, 6, 5))
            .crop_to_region()
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 4);
        assert_eq!(out.height(), 2);
        assert_eq!(out.get(0, 0), Rgb::new(2, 3, 0));
    }

    #[test]
    fn crop_with_offcanvas_region_errors() {
        let base = checker(4, 4);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(100, 100, 120, 120)) // clips to empty
            .crop_to_region()
            .build();
        assert!(matches!(
            engine.instantiate(&seq),
            Err(EditError::InvalidOperation(_))
        ));
    }

    #[test]
    fn whole_image_scale_resizes_canvas() {
        let base = checker(10, 10);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .scale(2.0, 3.0)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 20);
        assert_eq!(out.height(), 30);
        // Color population scales with area: red covered half before, half after.
        let red_frac = out.count_color(Rgb::RED) as f64 / out.pixel_count() as f64;
        assert!((red_frac - 0.5).abs() < 0.1, "red fraction {red_frac}");
    }

    #[test]
    fn scale_down_shrinks() {
        let base = checker(10, 10);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .scale(0.5, 0.5)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 5);
        assert_eq!(out.height(), 5);
    }

    #[test]
    fn translate_stamps_region_and_keeps_canvas_size() {
        let mut base = RasterImage::filled(10, 10, Rgb::BLACK).unwrap();
        mmdb_imaging::draw::fill_rect(&mut base, &Rect::new(0, 0, 3, 3), Rgb::GREEN);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 3, 3))
            .translate(5.0, 5.0)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 10);
        assert_eq!(out.height(), 10);
        // Copy semantics: both the original and the stamped copy are green.
        assert_eq!(out.get(0, 0), Rgb::GREEN);
        assert_eq!(out.get(6, 6), Rgb::GREEN);
        assert_eq!(out.count_color(Rgb::GREEN), 18);
    }

    #[test]
    fn translate_off_canvas_clips() {
        let mut base = RasterImage::filled(8, 8, Rgb::BLACK).unwrap();
        mmdb_imaging::draw::fill_rect(&mut base, &Rect::new(0, 0, 2, 2), Rgb::RED);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 2, 2))
            .translate(100.0, 0.0)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        // Nothing stamped; original remains (copy semantics).
        assert_eq!(out.count_color(Rgb::RED), 4);
    }

    #[test]
    fn rotation_preserves_canvas_and_moves_content() {
        let mut base = RasterImage::filled(21, 21, Rgb::BLACK).unwrap();
        mmdb_imaging::draw::fill_rect(&mut base, &Rect::new(8, 2, 13, 7), Rgb::WHITE);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        // Rotate the white block 90° about the canvas center.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(8, 2, 13, 7))
            .mutate(Matrix3::rotation_about(
                std::f64::consts::FRAC_PI_2,
                10.5,
                10.5,
            ))
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 21);
        assert_eq!(out.height(), 21);
        // Original block remains (copy semantics) and a rotated copy appears
        // on the left side (90° CCW of "top" is "left" in image coordinates).
        assert_eq!(out.get(10, 4), Rgb::WHITE);
        assert!(out.count_color(Rgb::WHITE) > 25, "rotated copy missing");
    }

    #[test]
    fn merge_into_target_at_interior() {
        let mut base = RasterImage::filled(6, 6, Rgb::BLACK).unwrap();
        mmdb_imaging::draw::fill_rect(&mut base, &Rect::new(0, 0, 2, 2), Rgb::RED);
        let target = RasterImage::filled(10, 10, Rgb::WHITE).unwrap();
        let mut r = resolver_with(base);
        r.insert(ImageId::new(2), target);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 2, 2))
            .merge_into(ImageId::new(2), 4, 4)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 10);
        assert_eq!(out.height(), 10);
        assert_eq!(out.get(4, 4), Rgb::RED);
        assert_eq!(out.get(5, 5), Rgb::RED);
        assert_eq!(out.count_color(Rgb::RED), 4);
        assert_eq!(out.count_color(Rgb::WHITE), 96);
    }

    #[test]
    fn merge_extending_beyond_target_grows_canvas() {
        let mut base = RasterImage::filled(4, 4, Rgb::BLACK).unwrap();
        mmdb_imaging::draw::fill_rect(&mut base, &Rect::new(0, 0, 3, 3), Rgb::GREEN);
        let target = RasterImage::filled(5, 5, Rgb::WHITE).unwrap();
        let mut r = resolver_with(base);
        r.insert(ImageId::new(2), target);
        let engine = InstantiationEngine::new(&r);
        // Paste a 3x3 region at (4,4): canvas becomes 7x7 with a background gap.
        let seq = EditSequence::builder(ImageId::new(1))
            .define(Rect::new(0, 0, 3, 3))
            .merge_into(ImageId::new(2), 4, 4)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 7);
        assert_eq!(out.height(), 7);
        assert_eq!(out.count_color(Rgb::GREEN), 9);
        assert_eq!(out.count_color(Rgb::WHITE), 24); // 25 minus 1 overlapped corner
                                                     // L-shaped gap is background (black): 49 - 9 - 24 = 16.
        assert_eq!(out.count_color(Rgb::BLACK), 16);
    }

    #[test]
    fn merge_with_negative_coords_extends_topleft() {
        let base = RasterImage::filled(2, 2, Rgb::RED).unwrap();
        let target = RasterImage::filled(4, 4, Rgb::WHITE).unwrap();
        let mut r = resolver_with(base);
        r.insert(ImageId::new(2), target);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .merge_into(ImageId::new(2), -2, -2)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 6);
        assert_eq!(out.height(), 6);
        assert_eq!(out.get(0, 0), Rgb::RED);
        assert_eq!(out.get(2, 2), Rgb::WHITE);
    }

    #[test]
    fn merge_unknown_target_errors() {
        let base = checker(4, 4);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .merge_into(ImageId::new(99), 0, 0)
            .build();
        assert!(matches!(
            engine.instantiate(&seq),
            Err(EditError::UnknownImage(id)) if id == ImageId::new(99)
        ));
    }

    #[test]
    fn define_clips_to_image() {
        let base = checker(4, 4);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let mut state = ExecState::new(r.resolve(ImageId::new(1)).unwrap());
        engine
            .apply(
                &mut state,
                &EditOp::Define {
                    region: Rect::new(-5, -5, 100, 2),
                },
            )
            .unwrap();
        assert_eq!(state.frame.region(), Rect::new(0, 0, 4, 2));
    }

    #[test]
    fn oversized_scale_is_rejected() {
        let base = checker(100, 100);
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .scale(10_000.0, 10_000.0)
            .build();
        assert!(matches!(
            engine.instantiate(&seq),
            Err(EditError::InvalidOperation(_))
        ));
    }

    #[test]
    fn ops_compose_in_order() {
        // modify red→green then green→blue over the whole image: all blue.
        let base = RasterImage::filled(3, 3, Rgb::RED).unwrap();
        let r = resolver_with(base);
        let engine = InstantiationEngine::new(&r);
        let seq = EditSequence::builder(ImageId::new(1))
            .modify(Rgb::RED, Rgb::GREEN)
            .modify(Rgb::GREEN, Rgb::BLUE)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.count_color(Rgb::BLUE), 9);
    }

    #[test]
    fn custom_background_used_for_merge_gap() {
        let base = RasterImage::filled(2, 2, Rgb::RED).unwrap();
        let target = RasterImage::filled(2, 2, Rgb::WHITE).unwrap();
        let mut r = resolver_with(base);
        r.insert(ImageId::new(2), target);
        let opts = ExecOptions {
            background: Rgb::new(9, 9, 9),
        };
        let engine = InstantiationEngine::with_options(&r, opts);
        let seq = EditSequence::builder(ImageId::new(1))
            .merge_into(ImageId::new(2), 3, 3)
            .build();
        let out = engine.instantiate(&seq).unwrap();
        assert_eq!(out.width(), 5);
        assert!(out.count_color(Rgb::new(9, 9, 9)) > 0);
    }
}
