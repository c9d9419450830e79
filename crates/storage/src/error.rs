//! Storage-engine error type.

use mmdb_editops::ImageId;
use std::fmt;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// The requested image id has no catalog entry.
    NotFound(ImageId),
    /// An edit sequence references a base or target that is not a stored
    /// binary image.
    InvalidReference {
        /// The offending reference.
        id: ImageId,
        /// Why it is invalid.
        reason: String,
    },
    /// The edit sequence is structurally invalid — it can neither be
    /// instantiated nor bounded (e.g. a crop of an empty region), so the
    /// database refuses to store it.
    InvalidSequence(String),
    /// Attempted to delete an image that other objects still derive from.
    StillReferenced {
        /// The image that cannot be deleted.
        id: ImageId,
        /// Number of edited images deriving from it.
        dependents: usize,
    },
    /// The on-disk catalog or blob file is corrupt.
    Corrupt(String),
    /// The database was created with a different quantizer than requested.
    QuantizerMismatch {
        /// Quantizer recorded in the catalog.
        stored: String,
        /// Quantizer the caller supplied.
        requested: String,
    },
    /// Error from the imaging layer (codec, dimensions).
    Imaging(mmdb_imaging::ImagingError),
    /// Error instantiating an edit sequence.
    Edit(mmdb_editops::EditError),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(id) => write!(f, "{id} not found"),
            StorageError::InvalidReference { id, reason } => {
                write!(f, "invalid reference to {id}: {reason}")
            }
            StorageError::InvalidSequence(msg) => {
                write!(f, "invalid edit sequence: {msg}")
            }
            StorageError::StillReferenced { id, dependents } => {
                write!(f, "{id} still referenced by {dependents} edited image(s)")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt database: {msg}"),
            StorageError::QuantizerMismatch { stored, requested } => write!(
                f,
                "database built with quantizer {stored:?}, requested {requested:?}"
            ),
            StorageError::Imaging(e) => write!(f, "imaging error: {e}"),
            StorageError::Edit(e) => write!(f, "edit error: {e}"),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Imaging(e) => Some(e),
            StorageError::Edit(e) => Some(e),
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<mmdb_imaging::ImagingError> for StorageError {
    fn from(e: mmdb_imaging::ImagingError) -> Self {
        StorageError::Imaging(e)
    }
}

impl From<mmdb_editops::codec::Truncated> for StorageError {
    fn from(t: mmdb_editops::codec::Truncated) -> Self {
        StorageError::Corrupt(t.to_string())
    }
}

impl From<mmdb_editops::EditError> for StorageError {
    fn from(e: mmdb_editops::EditError) -> Self {
        StorageError::Edit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(StorageError::NotFound(ImageId::new(4))
            .to_string()
            .contains("img#4"));
        let e = StorageError::StillReferenced {
            id: ImageId::new(1),
            dependents: 3,
        };
        assert!(e.to_string().contains("3 edited image(s)"));
        let e = StorageError::QuantizerMismatch {
            stored: "rgb-uniform/4".into(),
            requested: "rgb-uniform/8".into(),
        };
        assert!(e.to_string().contains("rgb-uniform/8"));
    }

    #[test]
    fn conversions() {
        let io: StorageError = std::io::Error::other("x").into();
        assert!(matches!(io, StorageError::Io(_)));
    }
}
