#![warn(missing_docs)]

//! # mmdb-imaging
//!
//! Raster-image substrate for the edit-sequence MMDBMS reproduction.
//!
//! The paper's prototype manipulated text-based PPM images converted with the
//! `pbmplus` toolkit; this crate provides the equivalent foundation in pure
//! Rust:
//!
//! * [`Rgb`] — 8-bit-per-channel color with a conversion to HSV (two of
//!   the color models named in §3.1 of the paper),
//! * [`RasterImage`] — an owned, row-major RGB raster,
//! * [`Rect`]/[`Point`] — integer geometry used by defined regions and the
//!   drawing primitives,
//! * [`ppm`] — PPM/PGM codecs (text `P2`/`P3` and binary `P5`/`P6`),
//! * [`draw`] — filled-shape primitives used by the synthetic flag and helmet
//!   generators.
//!
//! Everything here is deterministic and allocation-conscious: hot paths
//! (pixel loops, histogram extraction in the sibling crates) iterate over the
//! flat pixel slice rather than doing per-pixel bounds-checked 2-D indexing.

pub mod color;
pub mod draw;
pub mod error;
pub mod geometry;
pub mod ppm;
pub mod raster;

pub use color::{Hsv, Rgb};
pub use error::ImagingError;
pub use geometry::{Point, Rect};
pub use raster::RasterImage;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ImagingError>;
