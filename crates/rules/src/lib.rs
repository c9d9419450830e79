#![warn(missing_docs)]

//! # mmdb-rules
//!
//! The **Rule-Based Method (RBM)** of §3: determining the color-based
//! features of an image stored as a sequence of editing operations *without
//! instantiating it*.
//!
//! For a histogram bin `HB`, the engine walks the edit sequence and maintains
//! three quantities per Table 1 of the paper — the minimum number of pixels
//! that may be in `HB`, the maximum number, and the total number of pixels in
//! the image. The final `[BOUNDmin/imagesize, BOUNDmax/imagesize]` range is
//! compared against the query range `[PCTmin, PCTmax]`: "if this range does
//! not overlap the desired query range, image E cannot satisfy the given
//! query" — a conservative filter with **no false negatives**.
//!
//! ## Compile once, evaluate per bin
//!
//! Everything in that walk except the three quantities is the same for
//! every bin, so a caller that bounds the same stored sequence on every
//! query (the RBM and BWM scans, the bound index, k-NN) runs BOUNDS in two
//! halves: [`RuleEngine::compile`] follows the geometry through the sequence
//! once and composes the rules into a [`BoundProgram`], a closed form of the
//! bin's starting count; [`ProgramRef::eval`] reads it for one bin. Many
//! programs can share one [`ProgramBlock`]. [`RuleEngine::bounds`], [`RuleEngine::may_satisfy`] and
//! [`RuleEngine::bounds_trace`] instead apply each rule as the walk meets
//! it, and keep nothing.
//!
//! ## Rule profiles
//!
//! The extracted paper text's Table 1 lists the `Combine` rule as
//! "no change / no change / no change", which is trivially bound-widening but
//! unsound for an actual blur (pixels can enter or leave a bin). Both
//! readings are implemented:
//!
//! * [`RuleProfile::Conservative`] — provably sound bounds with respect to
//!   the instantiation engine in `mmdb-editops` (checked by property tests):
//!   `Combine` widens by |DR|, sub-region `Mutate` widens by the clipped
//!   transformed bounding box, whole-image scaling uses floor/ceil scale
//!   factors, and `Merge` accounts for background gap fill and the exact
//!   paste overlap. The only profile a [`BoundProgram`] holds, and so the
//!   only one the scans, the bound index and k-NN evaluate.
//! * [`RuleProfile::PaperTable1`] — the literal table, for faithful
//!   reproduction of the paper's measurements. Only the stepwise entry
//!   points read it, under an engine built with it: the profile ablation
//!   and the soundness audit.
//!
//! Both profiles agree on the *bound-widening classification* of every
//! operation, so the BWM structure (crate `mmdb-bwm`) is the same under
//! either.

pub mod bounds;
pub mod engine;
pub mod program;
pub mod query;
pub mod resolver;

pub use bounds::BoundRange;
pub use engine::{RuleEngine, RuleProfile};
pub use program::{BoundProgram, ProgramBlock, ProgramRef};
pub use query::ColorRangeQuery;
pub use resolver::{ImageInfo, InfoResolver, MapInfoResolver};

use mmdb_editops::{GeometryError, ImageId};
use std::fmt;

/// Errors from bound computation.
#[derive(Debug)]
pub enum RuleError {
    /// A referenced image (base or merge target) has no catalog entry.
    UnknownImage(ImageId),
    /// The sequence is structurally impossible to bound (e.g. a NULL-target
    /// merge whose defined region is empty — instantiation would fail too).
    InvalidSequence(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::UnknownImage(id) => write!(f, "no catalog info for {id}"),
            RuleError::InvalidSequence(msg) => write!(f, "unboundable sequence: {msg}"),
        }
    }
}

impl std::error::Error for RuleError {}

/// The executor could not carry the operation out, so it cannot be bounded
/// either.
impl From<GeometryError> for RuleError {
    fn from(err: GeometryError) -> Self {
        RuleError::InvalidSequence(err.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuleError>;
