//! The `[BOUNDmin, BOUNDmax]` / `imagesize` triple the rules manipulate.

/// Bounds on the number of pixels of an edited image that map to one
/// histogram bin, plus the image's total pixel count.
///
/// Invariant (enforced by [`BoundRange::clamped`]): `min <= max <= total`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundRange {
    /// `BOUNDmin` — fewest pixels possibly in the bin.
    pub min: u64,
    /// `BOUNDmax` — most pixels possibly in the bin.
    pub max: u64,
    /// `imagesize` — total pixels in the (hypothetically instantiated) image.
    pub total: u64,
}

impl BoundRange {
    /// An exact (zero-width) range, as derived from a known histogram value.
    /// A `count` above `total` (a corrupt histogram) is clamped so the
    /// documented `min <= max <= total` invariant holds in release builds
    /// too, not only under the debug assertion.
    pub fn exact(count: u64, total: u64) -> Self {
        debug_assert!(count <= total, "count {count} exceeds total {total}");
        let count = count.min(total);
        BoundRange {
            min: count,
            max: count,
            total,
        }
    }

    /// Restores the invariant after a rule adjustment: `max` is capped at
    /// `total` and `min` at `max`.
    pub fn clamped(self) -> Self {
        let max = self.max.min(self.total);
        let min = self.min.min(max);
        BoundRange {
            min,
            max,
            total: self.total,
        }
    }

    /// The fraction interval `[min/total, max/total]`; `[0, 0]` for an empty
    /// image.
    pub fn fraction_range(&self) -> (f64, f64) {
        if self.total == 0 {
            return (0.0, 0.0);
        }
        let t = self.total as f64;
        (self.min as f64 / t, self.max as f64 / t)
    }

    /// True when the fraction interval overlaps `[pct_min, pct_max]` — i.e.
    /// the edited image *may* satisfy the query and cannot be pruned.
    pub fn overlaps_fraction(&self, pct_min: f64, pct_max: f64) -> bool {
        let (lo, hi) = self.fraction_range();
        lo <= pct_max && pct_min <= hi
    }

    /// True when the range is exact (`min == max`), meaning the rules
    /// determined the bin population precisely.
    pub fn is_exact(&self) -> bool {
        self.min == self.max
    }

    /// Width of the fraction interval — a measure of how much precision the
    /// rules lost (0 = exact, 1 = vacuous). Used by the filter-precision
    /// ablation.
    pub fn fraction_width(&self) -> f64 {
        let (lo, hi) = self.fraction_range();
        hi - lo
    }

    /// True when `count` pixels out of `total` is consistent with this
    /// range — the soundness predicate the property tests check against
    /// instantiated ground truth.
    pub fn admits(&self, count: u64) -> bool {
        self.min <= count && count <= self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_predicates() {
        let r = BoundRange::exact(25, 100);
        assert!(r.is_exact());
        assert_eq!(r.fraction_range(), (0.25, 0.25));
        assert!(r.admits(25));
        assert!(!r.admits(26));
        assert_eq!(r.fraction_width(), 0.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds total"))]
    fn exact_clamps_corrupt_counts_in_release() {
        // Debug builds assert; release builds clamp so the struct invariant
        // `min <= max <= total` survives a corrupt histogram count.
        let r = BoundRange::exact(120, 100);
        assert_eq!(r, BoundRange::exact(100, 100));
    }

    #[test]
    fn clamp_restores_invariant() {
        let r = BoundRange {
            min: 90,
            max: 200,
            total: 100,
        }
        .clamped();
        assert_eq!(
            r,
            BoundRange {
                min: 90,
                max: 100,
                total: 100
            }
        );
        let r = BoundRange {
            min: 150,
            max: 120,
            total: 100,
        }
        .clamped();
        assert!(r.min <= r.max && r.max <= r.total);
    }

    #[test]
    fn overlap_logic() {
        let r = BoundRange {
            min: 20,
            max: 40,
            total: 100,
        };
        assert!(r.overlaps_fraction(0.3, 0.5)); // interval [0.2,0.4] overlaps
        assert!(r.overlaps_fraction(0.0, 0.2)); // touches at 0.2
        assert!(r.overlaps_fraction(0.4, 1.0)); // touches at 0.4
        assert!(!r.overlaps_fraction(0.41, 1.0));
        assert!(!r.overlaps_fraction(0.0, 0.19));
    }

    #[test]
    fn empty_image_fractions() {
        let r = BoundRange {
            min: 0,
            max: 0,
            total: 0,
        };
        assert_eq!(r.fraction_range(), (0.0, 0.0));
        assert!(r.overlaps_fraction(0.0, 0.5));
        assert!(!r.overlaps_fraction(0.1, 0.5));
    }

    #[test]
    fn width_measures_looseness() {
        let r = BoundRange {
            min: 10,
            max: 60,
            total: 100,
        };
        assert!((r.fraction_width() - 0.5).abs() < 1e-12);
    }
}
