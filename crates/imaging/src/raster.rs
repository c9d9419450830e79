//! The owned RGB raster type.

use crate::color::Rgb;
use crate::error::ImagingError;
use crate::geometry::Rect;
use crate::Result;

/// An owned, row-major, 8-bit RGB raster image.
///
/// This is the *instantiated* form of every image in the MMDBMS — both base
/// images stored conventionally and edited images after their operation
/// sequence has been executed. Pixels are stored in a flat `Vec<Rgb>` of
/// length `width * height`; row `y` occupies indices
/// `y*width .. (y+1)*width`.
#[derive(Clone, PartialEq, Eq)]
pub struct RasterImage {
    width: u32,
    height: u32,
    pixels: Vec<Rgb>,
}

impl std::fmt::Debug for RasterImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RasterImage")
            .field("width", &self.width)
            .field("height", &self.height)
            .finish()
    }
}

impl RasterImage {
    /// Creates an image filled with a single color.
    ///
    /// # Errors
    /// Returns [`ImagingError::InvalidDimensions`] when either dimension is
    /// zero or `width * height` overflows the addressable size.
    pub fn filled(width: u32, height: u32, color: Rgb) -> Result<Self> {
        let len = Self::checked_len(width, height)?;
        Ok(RasterImage {
            width,
            height,
            pixels: vec![color; len],
        })
    }

    /// Creates an image from an existing pixel buffer (row-major).
    ///
    /// # Errors
    /// Returns [`ImagingError::InvalidDimensions`] when the buffer length does
    /// not equal `width * height` or a dimension is zero.
    pub fn from_pixels(width: u32, height: u32, pixels: Vec<Rgb>) -> Result<Self> {
        let len = Self::checked_len(width, height)?;
        if pixels.len() != len {
            return Err(ImagingError::InvalidDimensions {
                width,
                height,
                buffer_len: Some(pixels.len()),
            });
        }
        Ok(RasterImage {
            width,
            height,
            pixels,
        })
    }

    /// Builds an image by evaluating `f(x, y)` for every pixel.
    pub fn from_fn(width: u32, height: u32, mut f: impl FnMut(u32, u32) -> Rgb) -> Result<Self> {
        let len = Self::checked_len(width, height)?;
        let mut pixels = Vec::with_capacity(len);
        for y in 0..height {
            for x in 0..width {
                pixels.push(f(x, y));
            }
        }
        Ok(RasterImage {
            width,
            height,
            pixels,
        })
    }

    fn checked_len(width: u32, height: u32) -> Result<usize> {
        if width == 0 || height == 0 {
            return Err(ImagingError::InvalidDimensions {
                width,
                height,
                buffer_len: None,
            });
        }
        (width as usize)
            .checked_mul(height as usize)
            .ok_or(ImagingError::InvalidDimensions {
                width,
                height,
                buffer_len: None,
            })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of pixels (`width * height`) — the paper's `imagesize`.
    #[inline]
    pub fn pixel_count(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// The rectangle covering the whole image.
    #[inline]
    pub fn bounds(&self) -> Rect {
        Rect::of_image(self.width, self.height)
    }

    /// Flat pixel slice, row-major.
    #[inline]
    pub fn pixels(&self) -> &[Rgb] {
        &self.pixels
    }

    /// Mutable flat pixel slice, row-major.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [Rgb] {
        &mut self.pixels
    }

    /// Unchecked-by-construction pixel read; panics if out of bounds (debug
    /// builds assert, release builds bounds-check through the slice).
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y as usize * self.width as usize + x as usize]
    }

    /// Checked pixel read.
    ///
    /// # Errors
    /// Returns [`ImagingError::OutOfBounds`] for coordinates outside the
    /// image.
    pub fn try_get(&self, x: u32, y: u32) -> Result<Rgb> {
        if x >= self.width || y >= self.height {
            return Err(ImagingError::OutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(self.get(x, y))
    }

    /// Pixel write; panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, color: Rgb) {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y as usize * self.width as usize + x as usize] = color;
    }

    /// Signed-coordinate read that returns `None` outside the image. Used by
    /// geometry-transforming operations whose source coordinates may fall
    /// outside bounds.
    #[inline]
    pub fn get_signed(&self, x: i64, y: i64) -> Option<Rgb> {
        if x < 0 || y < 0 || x >= self.width as i64 || y >= self.height as i64 {
            None
        } else {
            Some(self.get(x as u32, y as u32))
        }
    }

    /// One row of pixels.
    #[inline]
    pub fn row(&self, y: u32) -> &[Rgb] {
        let w = self.width as usize;
        &self.pixels[y as usize * w..(y as usize + 1) * w]
    }

    /// Iterates `(x, y, color)` over all pixels in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (u32, u32, Rgb)> + '_ {
        let w = self.width;
        self.pixels
            .iter()
            .enumerate()
            .map(move |(i, &c)| ((i as u32) % w, (i as u32) / w, c))
    }

    /// Extracts a copy of the pixels inside `rect` (clipped to the image) as
    /// a new image. Returns `None` when the clipped region is empty.
    pub fn crop(&self, rect: &Rect) -> Option<RasterImage> {
        let clipped = rect.intersect(&self.bounds());
        if clipped.is_empty() {
            return None;
        }
        let w = clipped.width() as u32;
        let h = clipped.height() as u32;
        let mut pixels = Vec::with_capacity(w as usize * h as usize);
        for y in clipped.y0..clipped.y1 {
            let row = self.row(y as u32);
            pixels.extend_from_slice(&row[clipped.x0 as usize..clipped.x1 as usize]);
        }
        Some(RasterImage {
            width: w,
            height: h,
            pixels,
        })
    }

    /// Counts pixels equal to `color`.
    pub fn count_color(&self, color: Rgb) -> u64 {
        self.pixels.iter().filter(|&&c| c == color).count() as u64
    }

    /// Applies `f` to every pixel in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(Rgb) -> Rgb) {
        for p in &mut self.pixels {
            *p = f(*p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_accessors() {
        let img = RasterImage::filled(4, 3, Rgb::RED).unwrap();
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.pixel_count(), 12);
        assert_eq!(img.get(3, 2), Rgb::RED);
        assert_eq!(img.count_color(Rgb::RED), 12);
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(RasterImage::filled(0, 5, Rgb::BLACK).is_err());
        assert!(RasterImage::filled(5, 0, Rgb::BLACK).is_err());
    }

    #[test]
    fn from_pixels_validates_length() {
        assert!(RasterImage::from_pixels(2, 2, vec![Rgb::BLACK; 3]).is_err());
        assert!(RasterImage::from_pixels(2, 2, vec![Rgb::BLACK; 4]).is_ok());
    }

    #[test]
    fn from_fn_row_major() {
        let img = RasterImage::from_fn(3, 2, |x, y| Rgb::new(x as u8, y as u8, 0)).unwrap();
        assert_eq!(img.get(2, 1), Rgb::new(2, 1, 0));
        assert_eq!(img.pixels()[5], Rgb::new(2, 1, 0));
    }

    #[test]
    fn try_get_bounds() {
        let img = RasterImage::filled(2, 2, Rgb::BLACK).unwrap();
        assert!(img.try_get(1, 1).is_ok());
        assert!(img.try_get(2, 0).is_err());
        assert!(img.try_get(0, 2).is_err());
    }

    #[test]
    fn get_signed_outside_is_none() {
        let img = RasterImage::filled(2, 2, Rgb::WHITE).unwrap();
        assert_eq!(img.get_signed(-1, 0), None);
        assert_eq!(img.get_signed(0, 2), None);
        assert_eq!(img.get_signed(1, 1), Some(Rgb::WHITE));
    }

    #[test]
    fn set_then_get() {
        let mut img = RasterImage::filled(3, 3, Rgb::BLACK).unwrap();
        img.set(1, 2, Rgb::GREEN);
        assert_eq!(img.get(1, 2), Rgb::GREEN);
        assert_eq!(img.count_color(Rgb::GREEN), 1);
    }

    #[test]
    fn crop_clips_to_bounds() {
        let img = RasterImage::from_fn(4, 4, |x, y| Rgb::new(x as u8, y as u8, 0)).unwrap();
        let cropped = img.crop(&Rect::new(2, 2, 10, 10)).unwrap();
        assert_eq!(cropped.width(), 2);
        assert_eq!(cropped.height(), 2);
        assert_eq!(cropped.get(0, 0), Rgb::new(2, 2, 0));
        assert!(img.crop(&Rect::new(5, 5, 9, 9)).is_none());
    }

    #[test]
    fn enumerate_pixels_coordinates() {
        let img = RasterImage::from_fn(2, 2, |x, y| Rgb::new(x as u8, y as u8, 9)).unwrap();
        for (x, y, c) in img.enumerate_pixels() {
            assert_eq!(c, Rgb::new(x as u8, y as u8, 9));
        }
        assert_eq!(img.enumerate_pixels().count(), 4);
    }

    #[test]
    fn map_in_place_applies_everywhere() {
        let mut img = RasterImage::filled(2, 2, Rgb::new(10, 10, 10)).unwrap();
        img.map_in_place(|c| Rgb::new(c.r + 1, c.g, c.b));
        assert_eq!(img.count_color(Rgb::new(11, 10, 10)), 4);
    }

    #[test]
    fn row_slices() {
        let img = RasterImage::from_fn(3, 2, |x, y| Rgb::new(x as u8, y as u8, 0)).unwrap();
        assert_eq!(img.row(1)[0], Rgb::new(0, 1, 0));
        assert_eq!(img.row(0).len(), 3);
    }
}
