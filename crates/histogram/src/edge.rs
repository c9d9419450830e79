//! Edge-orientation (shape) histograms — the hook for the paper's §6 future
//! work: "it will be necessary to develop approaches for other common
//! features besides color, such as texture and shape."
//!
//! This module supplies the *feature side* of that program: a classic
//! Sobel-gradient orientation histogram, the shape descriptor road-sign
//! systems of the paper's motivating example (§1) rely on. Rule-based
//! bounding of shape features under editing operations remains open
//! research; the MMDBMS answers shape queries exactly for binary images and
//! by instantiation for edited ones.

use mmdb_imaging::RasterImage;

/// A histogram over gradient orientations.
///
/// Orientations are taken modulo π (an edge and its reverse are the same
/// shape evidence) and quantized uniformly into `bins`. Only pixels whose
/// gradient magnitude exceeds the extraction threshold contribute — `total`
/// counts *edge* pixels, not all pixels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeHistogram {
    bins: Vec<u64>,
    total: u64,
}

impl EdgeHistogram {
    /// Extracts the orientation histogram of `image`.
    ///
    /// * `bins` — orientation sectors over `[0, π)`;
    /// * `magnitude_threshold` — minimum Sobel magnitude (on the luma
    ///   channel, range roughly `0..=1020`) for a pixel to count as an edge.
    ///   `64` is a reasonable default for the synthetic collections.
    ///
    /// # Panics
    /// Panics when `bins == 0`.
    pub fn extract(image: &RasterImage, bins: usize, magnitude_threshold: u32) -> Self {
        assert!(bins > 0, "need at least one orientation bin");
        let mut counts = vec![0u64; bins];
        let mut total = 0u64;
        let (w, h) = (image.width() as i64, image.height() as i64);
        // Luma plane with clamped borders.
        let luma = |x: i64, y: i64| -> i32 {
            image
                .get(x.clamp(0, w - 1) as u32, y.clamp(0, h - 1) as u32)
                .luma() as i32
        };
        for y in 0..h {
            for x in 0..w {
                // Sobel kernels.
                let gx = -luma(x - 1, y - 1) - 2 * luma(x - 1, y) - luma(x - 1, y + 1)
                    + luma(x + 1, y - 1)
                    + 2 * luma(x + 1, y)
                    + luma(x + 1, y + 1);
                let gy = -luma(x - 1, y - 1) - 2 * luma(x, y - 1) - luma(x + 1, y - 1)
                    + luma(x - 1, y + 1)
                    + 2 * luma(x, y + 1)
                    + luma(x + 1, y + 1);
                let mag_sq = (gx * gx + gy * gy) as u64;
                if mag_sq < (magnitude_threshold as u64).pow(2) {
                    continue;
                }
                // Orientation of the *edge* (perpendicular to the gradient),
                // folded into [0, π).
                let theta = (gy as f64).atan2(gx as f64) + std::f64::consts::FRAC_PI_2;
                let folded = theta.rem_euclid(std::f64::consts::PI);
                let bin = ((folded / std::f64::consts::PI) * bins as f64) as usize;
                counts[bin.min(bins - 1)] += 1;
                total += 1;
            }
        }
        EdgeHistogram {
            bins: counts,
            total,
        }
    }

    /// Number of orientation bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Edge pixels in `bin`.
    pub fn count(&self, bin: usize) -> u64 {
        self.bins[bin]
    }

    /// Total edge pixels.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized orientation signature (`Σ = 1`, or all zeros for an image
    /// with no edges).
    pub fn signature(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        let inv = 1.0 / self.total as f64;
        self.bins.iter().map(|&c| c as f64 * inv).collect()
    }

    /// Edge density: edge pixels per image pixel — a scale-free "shapeness"
    /// scalar. Needs the source image's pixel count.
    pub fn density(&self, image_pixels: u64) -> f64 {
        if image_pixels == 0 {
            0.0
        } else {
            self.total as f64 / image_pixels as f64
        }
    }

    /// L1 distance between normalized signatures — the shape analog of the
    /// color L1; in `[0, 2]`.
    pub fn l1(&self, other: &EdgeHistogram) -> f64 {
        assert_eq!(
            self.bin_count(),
            other.bin_count(),
            "orientation bin counts differ"
        );
        self.signature()
            .iter()
            .zip(other.signature())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }

    /// Circular cross-correlation match: the minimum L1 over all bin
    /// rotations — makes the comparison rotation-invariant, which matters
    /// for shapes (a rotated sign keeps its orientation *profile*, shifted).
    pub fn l1_rotation_invariant(&self, other: &EdgeHistogram) -> f64 {
        assert_eq!(self.bin_count(), other.bin_count());
        let sa = self.signature();
        let sb = other.signature();
        let n = sa.len();
        (0..n)
            .map(|shift| {
                sa.iter()
                    .enumerate()
                    .map(|(i, a)| (a - sb[(i + shift) % n]).abs())
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_imaging::{draw, RasterImage, Rect, Rgb};

    fn canvas() -> RasterImage {
        RasterImage::filled(64, 64, Rgb::BLACK).unwrap()
    }

    #[test]
    fn flat_image_has_no_edges() {
        let img = RasterImage::filled(32, 32, Rgb::new(120, 130, 140)).unwrap();
        let h = EdgeHistogram::extract(&img, 8, 64);
        assert_eq!(h.total(), 0);
        assert_eq!(h.signature(), vec![0.0; 8]);
        assert_eq!(h.density(img.pixel_count()), 0.0);
    }

    #[test]
    fn vertical_stripe_produces_vertical_edges() {
        let mut img = canvas();
        draw::fill_rect(&mut img, &Rect::new(28, 0, 36, 64), Rgb::WHITE);
        let h = EdgeHistogram::extract(&img, 8, 64);
        assert!(h.total() > 0);
        // A vertical boundary has a horizontal gradient → vertical edge
        // orientation ≈ π/2 → middle bins of the 8-bin histogram.
        let dominant = (0..8).max_by_key(|&b| h.count(b)).unwrap();
        assert!(
            dominant == 3 || dominant == 4,
            "dominant orientation bin {dominant}, counts {:?}",
            (0..8).map(|b| h.count(b)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn horizontal_stripe_is_orthogonal_to_vertical() {
        let mut v = canvas();
        draw::fill_rect(&mut v, &Rect::new(28, 0, 36, 64), Rgb::WHITE);
        let mut hz = canvas();
        draw::fill_rect(&mut hz, &Rect::new(0, 28, 64, 36), Rgb::WHITE);
        let hv = EdgeHistogram::extract(&v, 8, 64);
        let hh = EdgeHistogram::extract(&hz, 8, 64);
        // Plain L1 sees them as very different...
        assert!(hv.l1(&hh) > 1.0, "L1 = {}", hv.l1(&hh));
        // ...but rotation-invariant matching recognizes the same shape.
        assert!(
            hv.l1_rotation_invariant(&hh) < 0.5,
            "rotation-invariant L1 = {}",
            hv.l1_rotation_invariant(&hh)
        );
    }

    #[test]
    fn circle_spreads_orientations_rectangle_concentrates() {
        let mut circle = canvas();
        draw::fill_circle(&mut circle, 32, 32, 20, Rgb::WHITE);
        let mut rect = canvas();
        draw::fill_rect(&mut rect, &Rect::new(12, 12, 52, 52), Rgb::WHITE);
        let hc = EdgeHistogram::extract(&circle, 8, 64);
        let hr = EdgeHistogram::extract(&rect, 8, 64);
        // Rectangle edges concentrate in 2 orientations; circle spreads.
        let spread = |h: &EdgeHistogram| {
            let sig = h.signature();
            let mut s = sig.clone();
            s.sort_by(|a, b| b.partial_cmp(a).unwrap());
            s[0] + s[1] // mass of the two dominant orientations
        };
        assert!(
            spread(&hr) > spread(&hc) + 0.15,
            "rect top2 {:.2} vs circle top2 {:.2}",
            spread(&hr),
            spread(&hc)
        );
    }

    #[test]
    fn distances_axioms() {
        let mut a = canvas();
        draw::fill_circle(&mut a, 32, 32, 15, Rgb::WHITE);
        let mut b = canvas();
        draw::fill_rect(&mut b, &Rect::new(10, 10, 50, 50), Rgb::WHITE);
        let ha = EdgeHistogram::extract(&a, 12, 64);
        let hb = EdgeHistogram::extract(&b, 12, 64);
        assert_eq!(ha.l1(&ha), 0.0);
        assert!((ha.l1(&hb) - hb.l1(&ha)).abs() < 1e-12);
        assert!(ha.l1_rotation_invariant(&hb) <= ha.l1(&hb) + 1e-12);
        assert!(ha.l1(&hb) <= 2.0 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "orientation bin counts differ")]
    fn mismatched_bins_panic() {
        let img = canvas();
        let a = EdgeHistogram::extract(&img, 8, 64);
        let b = EdgeHistogram::extract(&img, 12, 64);
        a.l1(&b);
    }
}
