//! Query planning: which execution strategy a query runs under.

use std::fmt;

/// The execution strategy for a color range query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryPlan {
    /// Instantiate every edited image and test exact histograms — ground
    /// truth, no approximation, maximal cost.
    Instantiate,
    /// Rule-Based Method (§3): BOUNDS per edited image, exact histograms for
    /// binary images. "Without data structure" in Figures 3–4.
    Rbm,
    /// Bound-Widening Method (§4): Figure 2 over the Main/Unclassified
    /// structure. "With data structure" in Figures 3–4.
    Bwm,
    /// Bound-interval index lookup (§3.1's "organize histograms in an
    /// index", realized over BOUNDS results): answer from precomputed per-bin
    /// intervals — no rule walk at query time. Same result set as RBM/BWM.
    Indexed,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QueryPlan::Instantiate => "instantiate",
            QueryPlan::Rbm => "rbm",
            QueryPlan::Bwm => "bwm",
            QueryPlan::Indexed => "indexed",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(QueryPlan::Instantiate.to_string(), "instantiate");
        assert_eq!(QueryPlan::Rbm.to_string(), "rbm");
        assert_eq!(QueryPlan::Bwm.to_string(), "bwm");
        assert_eq!(QueryPlan::Indexed.to_string(), "indexed");
    }
}
