//! Color histograms: absolute per-bin pixel counts plus the image total.
//!
//! We store *counts*, not percentages, because the Table 1 rules of the
//! paper manipulate "the total number of pixels that are in the image as well
//! as the minimum and maximum number of pixels that are in bin HB" and only
//! divide at comparison time.

use crate::quantizer::Quantizer;
use mmdb_imaging::RasterImage;

/// A color histogram over a fixed quantizer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColorHistogram {
    bins: Vec<u64>,
    total: u64,
}

impl ColorHistogram {
    /// An all-zero histogram with `bin_count` bins.
    pub fn zeroed(bin_count: usize) -> Self {
        ColorHistogram {
            bins: vec![0; bin_count],
            total: 0,
        }
    }

    /// Extracts the histogram of `image` under `quantizer` in a single pass
    /// over the flat pixel slice.
    pub fn extract(image: &RasterImage, quantizer: &dyn Quantizer) -> Self {
        let mut bins = vec![0u64; quantizer.bin_count()];
        for &p in image.pixels() {
            bins[quantizer.bin_of(p)] += 1;
        }
        ColorHistogram {
            bins,
            total: image.pixel_count(),
        }
    }

    /// Builds a histogram from raw parts.
    ///
    /// # Panics
    /// Panics when the bin counts do not sum to `total`.
    pub fn from_counts(bins: Vec<u64>, total: u64) -> Self {
        assert_eq!(
            bins.iter().sum::<u64>(),
            total,
            "bin counts must sum to the total"
        );
        ColorHistogram { bins, total }
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Pixel count in `bin`.
    #[inline]
    pub fn count(&self, bin: usize) -> u64 {
        self.bins[bin]
    }

    /// All bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Total pixels in the image (`imagesize` in the paper).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of pixels in `bin`, in `[0, 1]`. Zero for an empty image.
    #[inline]
    pub fn fraction(&self, bin: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.bins[bin] as f64 / self.total as f64
        }
    }

    /// The normalized signature `<x1..xn>` with `Σ xi = 1` used by the
    /// similarity functions and the R-tree index.
    pub fn signature(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        let inv = 1.0 / self.total as f64;
        self.bins.iter().map(|&c| c as f64 * inv).collect()
    }

    /// The bin with the largest population (ties resolve to the lowest
    /// index), or `None` for an empty histogram.
    pub fn dominant_bin(&self) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        self.bins
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }

    /// Bins with a non-zero population, as `(bin, count)` pairs.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Accumulates another histogram into this one (used when pooling
    /// statistics over a collection).
    ///
    /// # Panics
    /// Panics on mismatched bin counts.
    pub fn accumulate(&mut self, other: &ColorHistogram) {
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "histogram bin counts differ"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::RgbQuantizer;
    use mmdb_imaging::{draw, RasterImage, Rect, Rgb};

    fn q() -> RgbQuantizer {
        RgbQuantizer::default_64()
    }

    #[test]
    fn extract_counts_match_image() {
        let mut img = RasterImage::filled(10, 10, Rgb::RED).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, 10, 3), Rgb::BLUE);
        let h = ColorHistogram::extract(&img, &q());
        assert_eq!(h.total(), 100);
        assert_eq!(h.count(q().bin_of(Rgb::RED)), 70);
        assert_eq!(h.count(q().bin_of(Rgb::BLUE)), 30);
        assert_eq!(h.counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn fractions_and_signature() {
        let mut img = RasterImage::filled(4, 4, Rgb::WHITE).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, 4, 1), Rgb::BLACK);
        let h = ColorHistogram::extract(&img, &q());
        assert!((h.fraction(q().bin_of(Rgb::WHITE)) - 0.75).abs() < 1e-12);
        let sig = h.signature();
        assert_eq!(sig.len(), 64);
        assert!((sig.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_bin() {
        let mut img = RasterImage::filled(4, 4, Rgb::GREEN).unwrap();
        draw::fill_rect(&mut img, &Rect::new(0, 0, 1, 1), Rgb::RED);
        let h = ColorHistogram::extract(&img, &q());
        assert_eq!(h.dominant_bin(), Some(q().bin_of(Rgb::GREEN)));
        assert_eq!(ColorHistogram::zeroed(64).dominant_bin(), None);
    }

    #[test]
    fn nonzero_iterates_sparse_bins() {
        let img = RasterImage::filled(2, 2, Rgb::BLUE).unwrap();
        let h = ColorHistogram::extract(&img, &q());
        let nz: Vec<_> = h.nonzero().collect();
        assert_eq!(nz, vec![(q().bin_of(Rgb::BLUE), 4)]);
    }

    #[test]
    fn accumulate_sums() {
        let a_img = RasterImage::filled(2, 2, Rgb::RED).unwrap();
        let b_img = RasterImage::filled(3, 1, Rgb::BLUE).unwrap();
        let mut a = ColorHistogram::extract(&a_img, &q());
        let b = ColorHistogram::extract(&b_img, &q());
        a.accumulate(&b);
        assert_eq!(a.total(), 7);
        assert_eq!(a.count(q().bin_of(Rgb::RED)), 4);
        assert_eq!(a.count(q().bin_of(Rgb::BLUE)), 3);
    }

    #[test]
    #[should_panic(expected = "bin counts must sum")]
    fn from_counts_validates() {
        ColorHistogram::from_counts(vec![1, 2, 3], 7);
    }

    #[test]
    fn zeroed_fraction_is_zero() {
        let h = ColorHistogram::zeroed(8);
        assert_eq!(h.fraction(3), 0.0);
        assert_eq!(h.signature(), vec![0.0; 8]);
    }
}
