#![warn(missing_docs)]

//! # mmdb-histogram
//!
//! The color-feature layer of §3.1: "generate a histogram for each image
//! stored in the database where each histogram bin contains the percentage of
//! pixels in that image that are of a particular color. These colors are
//! usually obtained by uniformly quantizing the space of a color model such
//! as RGB, HSV, or Luv."
//!
//! This crate provides:
//!
//! * [`Quantizer`] implementations — uniform RGB ([`RgbQuantizer`]), HSV
//!   ([`HsvQuantizer`]) and grayscale ([`GrayQuantizer`]) bin mappings,
//! * [`ColorHistogram`] — absolute pixel counts per bin plus the total,
//!   extracted in one pass over the flat pixel slice,
//! * [`similarity`] — the paper's two comparison functions, Histogram
//!   Intersection (Swain & Ballard) and the L<sub>p</sub> distances.

pub mod histogram;
pub mod quantizer;
pub mod similarity;

pub use histogram::ColorHistogram;
pub use quantizer::{GrayQuantizer, HsvQuantizer, Quantizer, RgbQuantizer};
pub use similarity::{histogram_intersection, l1_distance, l2_distance, lp_distance};
