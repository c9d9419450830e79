//! Durable wiring between the engine and `mmdb-durable`: the durability
//! options, the WAL record codec for catalog mutations, and blob-file
//! generation naming. What reads and writes them — open, replay, snapshots,
//! compaction — is `recovery.rs`.
//!
//! Every acknowledged mutation is exactly one WAL record, appended under
//! the exclusive catalog lock *before* the in-memory apply. Records are
//! self-contained — `InsertBinary` carries the PPM bytes themselves, not a
//! blob offset — so replay needs nothing but the snapshot it starts from:
//! blob bytes that never reached disk before a crash are simply rewritten
//! from the log. (The paper's storage model keeps this cheap: edited images
//! dominate the catalog and their records are a few hundred bytes; full
//! rasters are only logged on the rare binary ingest, and a snapshot plus
//! segment GC reclaims them.)

use crate::error::StorageError;
use crate::Result;
use mmdb_durable::{DurableError, FsyncPolicy, WalOptions};
use mmdb_editops::codec::{self as seq_codec, Reader};
use mmdb_editops::{EditSequence, ImageId};
use std::time::Duration;

/// Tuning for the durable layer of an on-disk engine.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityOptions {
    /// Group-commit fsync policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Background snapshot cadence: snapshot once this many records have
    /// accumulated since the last one (checked by `maintenance_tick`).
    pub snapshot_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::default(),
            segment_bytes: 4 << 20,
            snapshot_every: 4096,
        }
    }
}

impl DurabilityOptions {
    /// The options the WAL itself takes.
    pub(crate) fn wal(&self) -> WalOptions {
        WalOptions {
            segment_bytes: self.segment_bytes,
            fsync: self.fsync,
        }
    }
}

/// What recovery found and did when the engine opened a data dir.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryInfo {
    /// Sequence number the loaded snapshot covered.
    pub snapshot_seqno: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes of torn final record truncated from the active segment.
    pub torn_bytes: u64,
    /// Wall-clock time from open to ready.
    pub duration: Duration,
}

/// Folds a durable-layer error into the storage error type.
pub(crate) fn map_durable(e: DurableError) -> StorageError {
    match e {
        DurableError::Io(e) => StorageError::Io(e),
        other => StorageError::Corrupt(other.to_string()),
    }
}

/// Blob file name of generation `gen`. Generation 0 is the unnumbered
/// `blobs.mmdb`, the on-disk name in every existing directory.
pub fn blob_file_name(gen: u64) -> String {
    if gen == 0 {
        "blobs.mmdb".to_string()
    } else {
        format!("blobs-{gen}.mmdb")
    }
}

/// Inverse of [`blob_file_name`].
pub(crate) fn parse_blob_file_name(name: &str) -> Option<u64> {
    if name == "blobs.mmdb" {
        return Some(0);
    }
    name.strip_prefix("blobs-")?
        .strip_suffix(".mmdb")?
        .parse()
        .ok()
}

const TAG_INSERT_BINARY: u8 = 1;
const TAG_INSERT_EDITED: u8 = 2;
const TAG_DELETE: u8 = 3;

/// One logged catalog mutation, borrowing the caller's buffers.
#[derive(Debug)]
pub enum WalRecord<'a> {
    /// A conventionally stored image: the encoded PPM raster itself.
    InsertBinary {
        /// Id the engine allocated for it.
        id: ImageId,
        /// Raster width.
        width: u32,
        /// Raster height.
        height: u32,
        /// PPM-encoded raster bytes (what the blob store holds).
        ppm: &'a [u8],
    },
    /// An image stored as a sequence of editing operations.
    InsertEdited {
        /// Id the engine allocated for it.
        id: ImageId,
        /// The validated sequence.
        sequence: &'a EditSequence,
    },
    /// Removal of an object.
    Delete {
        /// The deleted id.
        id: ImageId,
    },
}

impl WalRecord<'_> {
    /// Serializes the record for a WAL append.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            WalRecord::InsertBinary {
                id,
                width,
                height,
                ppm,
            } => {
                buf.push(TAG_INSERT_BINARY);
                buf.extend_from_slice(&id.raw().to_le_bytes());
                buf.extend_from_slice(&width.to_le_bytes());
                buf.extend_from_slice(&height.to_le_bytes());
                buf.extend_from_slice(&(ppm.len() as u32).to_le_bytes());
                buf.extend_from_slice(ppm);
            }
            WalRecord::InsertEdited { id, sequence } => {
                buf.push(TAG_INSERT_EDITED);
                buf.extend_from_slice(&id.raw().to_le_bytes());
                let bytes = seq_codec::encode(sequence);
                buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                buf.extend_from_slice(&bytes);
            }
            WalRecord::Delete { id } => {
                buf.push(TAG_DELETE);
                buf.extend_from_slice(&id.raw().to_le_bytes());
            }
        }
        buf
    }
}

/// A decoded WAL record (owning its payloads).
#[derive(Debug)]
pub enum OwnedWalRecord {
    /// See [`WalRecord::InsertBinary`].
    InsertBinary {
        /// Allocated id.
        id: ImageId,
        /// Raster width.
        width: u32,
        /// Raster height.
        height: u32,
        /// PPM-encoded raster bytes.
        ppm: Vec<u8>,
    },
    /// See [`WalRecord::InsertEdited`].
    InsertEdited {
        /// Allocated id.
        id: ImageId,
        /// The stored sequence.
        sequence: EditSequence,
    },
    /// See [`WalRecord::Delete`].
    Delete {
        /// The deleted id.
        id: ImageId,
    },
}

/// Parses one WAL record payload.
pub fn decode_record(bytes: &[u8]) -> Result<OwnedWalRecord> {
    let mut r = Reader::new(bytes, "WAL record");
    match r.u8("tag")? {
        TAG_INSERT_BINARY => {
            let id = ImageId::new(r.u64("insert-binary id")?);
            let width = r.u32("width")?;
            let height = r.u32("height")?;
            let len = r.u32("ppm length")? as usize;
            Ok(OwnedWalRecord::InsertBinary {
                id,
                width,
                height,
                ppm: r.take(len, "ppm bytes")?.to_vec(),
            })
        }
        TAG_INSERT_EDITED => {
            let id = ImageId::new(r.u64("insert-edited id")?);
            let len = r.u32("sequence length")? as usize;
            let sequence = seq_codec::decode(r.take(len, "sequence bytes")?).map_err(|e| {
                StorageError::Corrupt(format!("bad edit sequence in WAL record for {id}: {e}"))
            })?;
            Ok(OwnedWalRecord::InsertEdited { id, sequence })
        }
        TAG_DELETE => Ok(OwnedWalRecord::Delete {
            id: ImageId::new(r.u64("delete id")?),
        }),
        other => Err(StorageError::Corrupt(format!(
            "unknown WAL record tag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_imaging::ppm::{self, PnmFormat};
    use mmdb_imaging::{RasterImage, Rgb};

    #[test]
    fn blob_generation_names() {
        assert_eq!(blob_file_name(0), "blobs.mmdb");
        assert_eq!(blob_file_name(3), "blobs-3.mmdb");
        assert_eq!(parse_blob_file_name("blobs.mmdb"), Some(0));
        assert_eq!(parse_blob_file_name("blobs-17.mmdb"), Some(17));
        assert_eq!(parse_blob_file_name("blobs.mmdb.compact"), None);
        assert_eq!(parse_blob_file_name("catalog.mmdb"), None);
    }

    #[test]
    fn record_roundtrips() {
        let img = RasterImage::filled(4, 3, Rgb::RED).unwrap();
        let ppm = ppm::encode(&img, PnmFormat::RawRgb);
        let rec = WalRecord::InsertBinary {
            id: ImageId::new(7),
            width: 4,
            height: 3,
            ppm: &ppm,
        };
        match decode_record(&rec.encode()).unwrap() {
            OwnedWalRecord::InsertBinary {
                id,
                width,
                height,
                ppm: back,
            } => {
                assert_eq!((id, width, height), (ImageId::new(7), 4, 3));
                assert_eq!(back, ppm);
            }
            other => panic!("wrong decode: {other:?}"),
        }

        let seq = EditSequence::builder(ImageId::new(7))
            .modify(Rgb::RED, Rgb::BLUE)
            .build();
        let rec = WalRecord::InsertEdited {
            id: ImageId::new(8),
            sequence: &seq,
        };
        match decode_record(&rec.encode()).unwrap() {
            OwnedWalRecord::InsertEdited { id, sequence } => {
                assert_eq!(id, ImageId::new(8));
                assert_eq!(sequence.base, ImageId::new(7));
                assert_eq!(sequence.len(), 1);
            }
            other => panic!("wrong decode: {other:?}"),
        }

        let rec = WalRecord::Delete {
            id: ImageId::new(9),
        };
        match decode_record(&rec.encode()).unwrap() {
            OwnedWalRecord::Delete { id } => assert_eq!(id, ImageId::new(9)),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn truncated_and_unknown_records_rejected() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99]).is_err());
        // Truncation at every byte of every record kind must error, never
        // panic.
        let seq = EditSequence::builder(ImageId::new(1))
            .modify(Rgb::RED, Rgb::BLUE)
            .build();
        for rec in [
            WalRecord::InsertBinary {
                id: ImageId::new(1),
                width: 2,
                height: 1,
                ppm: b"P6 2 1 255 rgbrgb",
            },
            WalRecord::InsertEdited {
                id: ImageId::new(2),
                sequence: &seq,
            },
            WalRecord::Delete {
                id: ImageId::new(1),
            },
        ] {
            let bytes = rec.encode();
            assert!(decode_record(&bytes).is_ok());
            for cut in 0..bytes.len() {
                assert!(decode_record(&bytes[..cut]).is_err(), "{rec:?} cut {cut}");
            }
        }
    }
}
