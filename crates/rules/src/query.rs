//! The color range query of the paper.

/// A color-percentage range query: "Retrieve all images that are at least
/// 25% blue" becomes `ColorRangeQuery { bin: bin_of(blue), pct_min: 0.25,
/// pct_max: 1.0 }` (§3.1). The paper's Figure 2 algorithm takes exactly the
/// parameters `HB`, `PCTmin`, `PCTmax`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColorRangeQuery {
    /// The histogram bin `HB` the query constrains.
    pub bin: usize,
    /// `PCTmin` — lower bound on the pixel fraction, in `[0, 1]`.
    pub pct_min: f64,
    /// `PCTmax` — upper bound on the pixel fraction, in `[0, 1]`.
    pub pct_max: f64,
}

impl ColorRangeQuery {
    /// Creates a range query.
    ///
    /// # Panics
    /// Panics when the range is inverted or outside `[0, 1]`.
    pub fn new(bin: usize, pct_min: f64, pct_max: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&pct_min) && (0.0..=1.0).contains(&pct_max),
            "percentages must lie in [0, 1]"
        );
        assert!(pct_min <= pct_max, "inverted range {pct_min}..{pct_max}");
        ColorRangeQuery {
            bin,
            pct_min,
            pct_max,
        }
    }

    /// "At least `pct` of bin `bin`" — the paper's example query shape.
    pub fn at_least(bin: usize, pct: f64) -> Self {
        ColorRangeQuery::new(bin, pct, 1.0)
    }

    /// "At most `pct` of bin `bin`".
    pub fn at_most(bin: usize, pct: f64) -> Self {
        ColorRangeQuery::new(bin, 0.0, pct)
    }

    /// True when a *known* fraction satisfies the query (used for binary
    /// images whose histograms are exact).
    #[inline]
    pub fn matches_fraction(&self, fraction: f64) -> bool {
        self.pct_min <= fraction && fraction <= self.pct_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let q = ColorRangeQuery::at_least(5, 0.25);
        assert_eq!(q.bin, 5);
        assert_eq!(q.pct_min, 0.25);
        assert_eq!(q.pct_max, 1.0);
        let q = ColorRangeQuery::at_most(2, 0.5);
        assert_eq!((q.pct_min, q.pct_max), (0.0, 0.5));
    }

    #[test]
    fn matches_fraction_is_inclusive() {
        let q = ColorRangeQuery::new(0, 0.2, 0.6);
        assert!(q.matches_fraction(0.2));
        assert!(q.matches_fraction(0.6));
        assert!(q.matches_fraction(0.35));
        assert!(!q.matches_fraction(0.19));
        assert!(!q.matches_fraction(0.61));
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_panics() {
        ColorRangeQuery::new(0, 0.7, 0.2);
    }

    #[test]
    #[should_panic(expected = "percentages must lie")]
    fn out_of_unit_panics() {
        ColorRangeQuery::new(0, 0.0, 1.5);
    }
}
