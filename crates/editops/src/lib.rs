#![warn(missing_docs)]

//! # mmdb-editops
//!
//! The editing-operation storage model of the paper: an *edited image* is not
//! stored as pixels but as a reference to a base image plus a sequence of
//! editing operations (§2–3). This crate implements:
//!
//! * the complete five-operation set of Brown, Gruenwald & Speegle
//!   (`Define`, `Combine`, `Modify`, `Mutate`, `Merge`) — chosen by the paper
//!   because "its operations can be combined to perform any image
//!   transformation by manipulating a single pixel at a time",
//! * [`EditSequence`] — the stored form (`base` reference + op list),
//! * the **instantiation engine** ([`exec`]) that reconstructs the raster by
//!   "accessing the referenced base image and sequentially executing the
//!   associated editing operations",
//! * the **geometry** ([`geometry`]) of that execution — how each operation
//!   moves the canvas and the defined region — which the executor, the rule
//!   engine and the static analyzer all read from the one [`Frame::step`],
//! * compact binary and human-readable text codecs for persisting sequences.
//!
//! ## Semantics the paper leaves open (documented choices)
//!
//! * **Sub-region `Mutate` uses copy ("stamp") semantics**: the defined
//!   region's pixels are written at their transformed positions while
//!   non-overwritten source pixels stay put. Under these semantics Table 1's
//!   rigid-body rule (min −|DR| / max +|DR| / total unchanged) is *exact*
//!   worst-case sound, which vacate-and-fill semantics would violate.
//! * **Whole-image `Mutate`** accepts axis-aligned scale(+translation)
//!   matrices and resizes the canvas by `M11 × M22`, matching Table 1's
//!   "DR contains image" rule; other whole-image matrices fall back to the
//!   rigid-body path.
//! * **`Merge` with a target** grows the canvas to the union of the target
//!   and the pasted region (Table 1's total-pixels formula); gap pixels are
//!   filled with the configurable background color.

pub mod codec;
pub mod exec;
pub mod geometry;
pub mod ids;
pub mod matrix;
pub mod ops;
pub mod sequence;

pub use exec::{ExecOptions, ImageResolver, InstantiationEngine, MapResolver};
pub use geometry::{Frame, GeometryError, Motion};
pub use ids::ImageId;
pub use matrix::Matrix3;
pub use ops::{EditOp, OpKind};
pub use sequence::{EditSequence, SequenceBuilder};

use std::fmt;

/// Errors from instantiation or (de)serialization of edit sequences.
#[derive(Debug)]
pub enum EditError {
    /// A referenced image (base or merge target) could not be resolved.
    UnknownImage(ImageId),
    /// An operation was structurally invalid for the current state
    /// (e.g. `Merge` with an empty defined region).
    InvalidOperation(String),
    /// The binary or text codec met malformed input.
    Codec(String),
    /// Error bubbled up from the imaging substrate.
    Imaging(mmdb_imaging::ImagingError),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownImage(id) => write!(f, "unknown image {id}"),
            EditError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            EditError::Codec(msg) => write!(f, "edit-sequence codec error: {msg}"),
            EditError::Imaging(err) => write!(f, "imaging error: {err}"),
        }
    }
}

impl std::error::Error for EditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EditError::Imaging(err) => Some(err),
            _ => None,
        }
    }
}

impl From<GeometryError> for EditError {
    fn from(err: GeometryError) -> Self {
        EditError::InvalidOperation(err.to_string())
    }
}

impl From<mmdb_imaging::ImagingError> for EditError {
    fn from(err: mmdb_imaging::ImagingError) -> Self {
        EditError::Imaging(err)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EditError>;
