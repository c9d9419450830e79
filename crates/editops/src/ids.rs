//! Image identifiers shared across the storage and retrieval layers.

use std::fmt;

/// Opaque identifier of an image object in the MMDBMS.
///
/// Both conventionally-stored (binary) images and edited images stored as
/// operation sequences carry an `ImageId`; an [`crate::EditSequence`] refers
/// to its base image — and a `Merge` operation to its target image — by this
/// id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ImageId(pub u64);

impl ImageId {
    /// Creates an id from its raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        ImageId(raw)
    }

    /// Raw numeric value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img#{}", self.0)
    }
}

impl fmt::Debug for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img#{}", self.0)
    }
}

impl From<u64> for ImageId {
    fn from(raw: u64) -> Self {
        ImageId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_and_raw() {
        let id = ImageId::new(42);
        assert_eq!(id.to_string(), "img#42");
        assert_eq!(id.raw(), 42);
        assert_eq!(ImageId::from(42u64), id);
    }

    #[test]
    fn ordering_and_hashing() {
        assert!(ImageId::new(1) < ImageId::new(2));
        let mut set = HashSet::new();
        set.insert(ImageId::new(7));
        assert!(set.contains(&ImageId::new(7)));
        assert!(!set.contains(&ImageId::new(8)));
    }
}
