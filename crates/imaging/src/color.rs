//! Color types and color-model conversions.
//!
//! The paper (§3.1) quantizes "the space of a color model" to form histogram
//! bins. This module provides the two models the quantizers use and
//! exact-enough conversions between them. [`Rgb`] is the storage type used by
//! [`crate::RasterImage`]; [`Hsv`] is the derived view used by the HSV
//! quantizer in `mmdb-histogram`.

use std::fmt;

/// An 8-bit-per-channel RGB color — the pixel type of every raster image in
/// the system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Rgb {
    /// Red channel, `0..=255`.
    pub r: u8,
    /// Green channel, `0..=255`.
    pub g: u8,
    /// Blue channel, `0..=255`.
    pub b: u8,
}

impl fmt::Debug for Rgb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

impl Rgb {
    /// Pure black (`#000000`).
    pub const BLACK: Rgb = Rgb::new(0, 0, 0);
    /// Pure white (`#ffffff`).
    pub const WHITE: Rgb = Rgb::new(255, 255, 255);
    /// Pure red (`#ff0000`).
    pub const RED: Rgb = Rgb::new(255, 0, 0);
    /// Pure green (`#00ff00`).
    pub const GREEN: Rgb = Rgb::new(0, 255, 0);
    /// Pure blue (`#0000ff`).
    pub const BLUE: Rgb = Rgb::new(0, 0, 255);

    /// Creates a color from its three channels.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Creates a gray level (`v`,`v`,`v`).
    #[inline]
    pub const fn gray(v: u8) -> Self {
        Rgb::new(v, v, v)
    }

    /// Parses a `#rrggbb` or `rrggbb` hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix('#').unwrap_or(s);
        if s.len() != 6 || !s.is_ascii() {
            return None;
        }
        let r = u8::from_str_radix(&s[0..2], 16).ok()?;
        let g = u8::from_str_radix(&s[2..4], 16).ok()?;
        let b = u8::from_str_radix(&s[4..6], 16).ok()?;
        Some(Rgb::new(r, g, b))
    }

    /// Channels as an array, in `[r, g, b]` order.
    #[inline]
    pub const fn channels(self) -> [u8; 3] {
        [self.r, self.g, self.b]
    }

    /// Relative luminance using the Rec. 601 weighting, as an 8-bit value.
    /// Used by the PGM (grayscale) encoder.
    #[inline]
    pub fn luma(self) -> u8 {
        let y = 0.299 * self.r as f32 + 0.587 * self.g as f32 + 0.114 * self.b as f32;
        y.round().clamp(0.0, 255.0) as u8
    }

    /// Squared Euclidean distance in RGB space. Cheap proximity measure used
    /// by tests and the `Modify` tolerance matcher.
    #[inline]
    pub fn distance_sq(self, other: Rgb) -> u32 {
        let dr = self.r as i32 - other.r as i32;
        let dg = self.g as i32 - other.g as i32;
        let db = self.b as i32 - other.b as i32;
        (dr * dr + dg * dg + db * db) as u32
    }

    /// Converts to the HSV color model. Hue is in degrees `[0, 360)`,
    /// saturation and value in `[0, 1]`.
    pub fn to_hsv(self) -> Hsv {
        let r = self.r as f32 / 255.0;
        let g = self.g as f32 / 255.0;
        let b = self.b as f32 / 255.0;
        let max = r.max(g).max(b);
        let min = r.min(g).min(b);
        let delta = max - min;
        let h = if delta == 0.0 {
            0.0
        } else if max == r {
            60.0 * (((g - b) / delta).rem_euclid(6.0))
        } else if max == g {
            60.0 * ((b - r) / delta + 2.0)
        } else {
            60.0 * ((r - g) / delta + 4.0)
        };
        let s = if max == 0.0 { 0.0 } else { delta / max };
        Hsv { h, s, v: max }
    }
}

impl From<[u8; 3]> for Rgb {
    fn from(c: [u8; 3]) -> Self {
        Rgb::new(c[0], c[1], c[2])
    }
}

impl From<Rgb> for [u8; 3] {
    fn from(c: Rgb) -> Self {
        c.channels()
    }
}

/// A color in the HSV (hue/saturation/value) model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hsv {
    /// Hue in degrees, `[0, 360)`.
    pub h: f32,
    /// Saturation, `[0, 1]`.
    pub s: f32,
    /// Value (brightness), `[0, 1]`.
    pub v: f32,
}

impl Hsv {
    /// Converts back to 8-bit RGB.
    pub fn to_rgb(self) -> Rgb {
        let c = self.v * self.s;
        let h_prime = (self.h.rem_euclid(360.0)) / 60.0;
        let x = c * (1.0 - (h_prime % 2.0 - 1.0).abs());
        let (r1, g1, b1) = match h_prime as u32 {
            0 => (c, x, 0.0),
            1 => (x, c, 0.0),
            2 => (0.0, c, x),
            3 => (0.0, x, c),
            4 => (x, 0.0, c),
            _ => (c, 0.0, x),
        };
        let m = self.v - c;
        let to8 = |f: f32| ((f + m) * 255.0).round().clamp(0.0, 255.0) as u8;
        Rgb::new(to8(r1), to8(g1), to8(b1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let c = Rgb::from_hex("#1a2b3c").unwrap();
        assert_eq!(c, Rgb::new(0x1a, 0x2b, 0x3c));
        assert_eq!(format!("{c:?}"), "#1a2b3c");
        assert_eq!(Rgb::from_hex("1a2b3c"), Some(c));
    }

    #[test]
    fn hex_rejects_malformed() {
        assert_eq!(Rgb::from_hex("#12345"), None);
        assert_eq!(Rgb::from_hex("#1234567"), None);
        assert_eq!(Rgb::from_hex("#zzzzzz"), None);
        assert_eq!(Rgb::from_hex(""), None);
    }

    #[test]
    fn hsv_of_primaries() {
        let red = Rgb::RED.to_hsv();
        assert!((red.h - 0.0).abs() < 1e-4 && (red.s - 1.0).abs() < 1e-4);
        let green = Rgb::GREEN.to_hsv();
        assert!((green.h - 120.0).abs() < 1e-3);
        let blue = Rgb::BLUE.to_hsv();
        assert!((blue.h - 240.0).abs() < 1e-3);
        let white = Rgb::WHITE.to_hsv();
        assert!(white.s == 0.0 && (white.v - 1.0).abs() < 1e-6);
    }

    #[test]
    fn hsv_rgb_roundtrip_exhaustive_grid() {
        // Round-trip a coarse grid through HSV and back; 8-bit quantization
        // permits at most ±1 per channel of drift.
        for r in (0..=255u16).step_by(17) {
            for g in (0..=255u16).step_by(17) {
                for b in (0..=255u16).step_by(17) {
                    let c = Rgb::new(r as u8, g as u8, b as u8);
                    let back = c.to_hsv().to_rgb();
                    assert!(
                        (c.r as i16 - back.r as i16).abs() <= 1
                            && (c.g as i16 - back.g as i16).abs() <= 1
                            && (c.b as i16 - back.b as i16).abs() <= 1,
                        "{c:?} -> {back:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn luma_ordering() {
        assert_eq!(Rgb::BLACK.luma(), 0);
        assert_eq!(Rgb::WHITE.luma(), 255);
        assert!(Rgb::GREEN.luma() > Rgb::RED.luma());
        assert!(Rgb::RED.luma() > Rgb::BLUE.luma());
    }

    #[test]
    fn distance_sq_symmetric_and_zero_on_equal() {
        let a = Rgb::new(10, 20, 30);
        let b = Rgb::new(13, 16, 35);
        assert_eq!(a.distance_sq(b), b.distance_sq(a));
        assert_eq!(a.distance_sq(a), 0);
        assert_eq!(a.distance_sq(b), 9 + 16 + 25);
    }

    #[test]
    fn array_conversions() {
        let c: Rgb = [1u8, 2, 3].into();
        assert_eq!(c, Rgb::new(1, 2, 3));
        let arr: [u8; 3] = c.into();
        assert_eq!(arr, [1, 2, 3]);
    }
}
