//! Local-binary-pattern (texture) histograms — the second half of the
//! paper's §6 future-work features ("texture and shape").
//!
//! LBP is the classic texture descriptor contemporaneous with the paper:
//! each pixel is encoded by which of its 8 neighbours are at least as bright
//! as it is, and the image is summarized by the histogram of those 256
//! codes (or the 59-bin "uniform patterns" reduction implemented here as an
//! option). As with shape, rule-based bounding of texture under editing
//! operations is open research; the MMDBMS answers texture queries exactly
//! for binary images and via instantiation for edited ones.

use mmdb_imaging::RasterImage;

/// Which LBP encoding to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbpKind {
    /// All 256 raw 8-bit codes.
    Full256,
    /// The 58 "uniform" patterns (≤ 2 bit transitions around the circle)
    /// plus one catch-all bin — the standard dimensionality reduction.
    Uniform59,
}

/// A texture histogram of local binary patterns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextureHistogram {
    kind: LbpKind,
    bins: Vec<u64>,
    total: u64,
}

/// Number of 0↔1 transitions in the circular 8-bit pattern.
fn transitions(code: u8) -> u32 {
    let rotated = code.rotate_left(1);
    (code ^ rotated).count_ones()
}

/// Maps a raw code to its bin under the chosen encoding.
fn bin_of(code: u8, kind: LbpKind) -> usize {
    match kind {
        LbpKind::Full256 => code as usize,
        LbpKind::Uniform59 => {
            if transitions(code) <= 2 {
                // Rank the uniform codes by value: build the rank table once.
                // (58 uniform codes exist; computed on the fly via counting.)
                let mut rank = 0usize;
                for c in 0u16..(code as u16) {
                    if transitions(c as u8) <= 2 {
                        rank += 1;
                    }
                }
                rank
            } else {
                58 // catch-all
            }
        }
    }
}

impl TextureHistogram {
    /// Extracts the LBP histogram over the luma plane. Border pixels use
    /// clamped neighbours.
    pub fn extract(image: &RasterImage, kind: LbpKind) -> Self {
        let bins_n = match kind {
            LbpKind::Full256 => 256,
            LbpKind::Uniform59 => 59,
        };
        let mut bins = vec![0u64; bins_n];
        let (w, h) = (image.width() as i64, image.height() as i64);
        let luma = |x: i64, y: i64| -> u8 {
            image
                .get(x.clamp(0, w - 1) as u32, y.clamp(0, h - 1) as u32)
                .luma()
        };
        // Clockwise neighbour offsets starting at the top-left.
        const OFFSETS: [(i64, i64); 8] = [
            (-1, -1),
            (0, -1),
            (1, -1),
            (1, 0),
            (1, 1),
            (0, 1),
            (-1, 1),
            (-1, 0),
        ];
        for y in 0..h {
            for x in 0..w {
                let center = luma(x, y);
                let mut code = 0u8;
                for (i, (dx, dy)) in OFFSETS.iter().enumerate() {
                    if luma(x + dx, y + dy) >= center {
                        code |= 1 << i;
                    }
                }
                bins[bin_of(code, kind)] += 1;
            }
        }
        TextureHistogram {
            kind,
            bins,
            total: image.pixel_count(),
        }
    }

    /// The encoding used.
    pub fn kind(&self) -> LbpKind {
        self.kind
    }

    /// Number of bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Pixels with code in `bin`.
    pub fn count(&self, bin: usize) -> u64 {
        self.bins[bin]
    }

    /// Total pixels.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Normalized signature.
    pub fn signature(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        let inv = 1.0 / self.total as f64;
        self.bins.iter().map(|&c| c as f64 * inv).collect()
    }

    /// L1 distance between normalized signatures; in `[0, 2]`.
    ///
    /// # Panics
    /// Panics when the encodings differ.
    pub fn l1(&self, other: &TextureHistogram) -> f64 {
        assert_eq!(self.kind, other.kind, "texture encodings differ");
        self.signature()
            .iter()
            .zip(other.signature())
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_imaging::{draw, RasterImage, Rect, Rgb};

    #[test]
    fn uniform_bin_mapping_is_a_bijection_on_uniform_codes() {
        let mut seen = std::collections::HashSet::new();
        let mut uniform = 0;
        for code in 0u16..=255 {
            let code = code as u8;
            let bin = bin_of(code, LbpKind::Uniform59);
            assert!(bin < 59);
            if transitions(code) <= 2 {
                uniform += 1;
                assert!(
                    seen.insert(bin),
                    "uniform code {code} collides at bin {bin}"
                );
            } else {
                assert_eq!(bin, 58);
            }
        }
        assert_eq!(uniform, 58, "there are exactly 58 uniform patterns");
    }

    #[test]
    fn transitions_examples() {
        assert_eq!(transitions(0b0000_0000), 0);
        assert_eq!(transitions(0b1111_1111), 0);
        assert_eq!(transitions(0b0000_1111), 2);
        assert_eq!(transitions(0b0101_0101), 8);
    }

    #[test]
    fn flat_image_is_all_ones_code() {
        let img = RasterImage::filled(16, 16, Rgb::gray(100)).unwrap();
        for kind in [LbpKind::Full256, LbpKind::Uniform59] {
            let h = TextureHistogram::extract(&img, kind);
            assert_eq!(h.total(), 256);
            // Every neighbour equals the center → code 0xFF, a uniform code.
            let expected_bin = bin_of(0xFF, kind);
            assert_eq!(h.count(expected_bin), 256);
        }
    }

    #[test]
    fn stripes_vs_flat_are_far_checker_vs_stripes_differ() {
        let flat = RasterImage::filled(32, 32, Rgb::gray(128)).unwrap();
        let stripes = RasterImage::from_fn(32, 32, |x, _| {
            if x % 2 == 0 {
                Rgb::gray(40)
            } else {
                Rgb::gray(200)
            }
        })
        .unwrap();
        let checker = RasterImage::from_fn(32, 32, |x, y| {
            if (x + y) % 2 == 0 {
                Rgb::gray(40)
            } else {
                Rgb::gray(200)
            }
        })
        .unwrap();
        let hf = TextureHistogram::extract(&flat, LbpKind::Uniform59);
        let hs = TextureHistogram::extract(&stripes, LbpKind::Uniform59);
        // Dark stripe pixels still see all-≥ neighbours (code 0xFF like the
        // flat image), so exactly half the mass moves: L1 = 1.0.
        assert!(hf.l1(&hs) >= 0.9, "flat vs stripes: {}", hf.l1(&hs));
        assert_eq!(hs.l1(&hs), 0.0);
        // Stripe and checker bright-pixel codes are distinct raw patterns
        // but both non-uniform (4 and 8 transitions), so the 59-bin encoding
        // merges them into the catch-all — the full 256-code histogram is
        // needed to tell them apart.
        let hs256 = TextureHistogram::extract(&stripes, LbpKind::Full256);
        let hc256 = TextureHistogram::extract(&checker, LbpKind::Full256);
        assert!(
            hs256.l1(&hc256) > 0.5,
            "stripes vs checker (256): {}",
            hs256.l1(&hc256)
        );
        // Same color population, different texture: color histograms cannot
        // tell these apart, LBP can — the §6 motivation.
        use crate::{ColorHistogram, RgbQuantizer};
        let q = RgbQuantizer::default_64();
        let color_s = ColorHistogram::extract(&stripes, &q);
        let color_c = ColorHistogram::extract(&checker, &q);
        assert_eq!(color_s.counts(), color_c.counts());
    }

    #[test]
    fn full256_total_and_signature() {
        let img =
            RasterImage::from_fn(10, 10, |x, y| Rgb::gray(((x * 13 + y * 7) % 256) as u8)).unwrap();
        let h = TextureHistogram::extract(&img, LbpKind::Full256);
        assert_eq!(h.bin_count(), 256);
        assert_eq!(h.counts_sum(), 100);
        let s: f64 = h.signature().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "texture encodings differ")]
    fn mixed_kinds_panic() {
        let img = RasterImage::filled(4, 4, Rgb::WHITE).unwrap();
        let a = TextureHistogram::extract(&img, LbpKind::Full256);
        let b = TextureHistogram::extract(&img, LbpKind::Uniform59);
        a.l1(&b);
    }

    #[test]
    fn texture_survives_recolor_but_not_blur() {
        // Recoloring (a Modify op) preserves structure; blurring destroys it.
        let mut img = RasterImage::filled(32, 32, Rgb::gray(60)).unwrap();
        for i in 0..16 {
            draw::fill_rect(
                &mut img,
                &Rect::new(i * 2, 0, i * 2 + 1, 32),
                Rgb::gray(190),
            );
        }
        let base = TextureHistogram::extract(&img, LbpKind::Uniform59);
        // Uniform brightness shift keeps relative order → similar LBP.
        let mut brighter = img.clone();
        brighter.map_in_place(|c| Rgb::gray(c.luma().saturating_add(30)));
        let shifted = TextureHistogram::extract(&brighter, LbpKind::Uniform59);
        assert!(
            base.l1(&shifted) < 0.35,
            "shift distance {}",
            base.l1(&shifted)
        );
    }

    impl TextureHistogram {
        fn counts_sum(&self) -> u64 {
            self.bins.iter().sum()
        }
    }
}
