//! Network backend: implements [`mmdb_server::QueryBackend`] for
//! [`MultimediaDatabase`], which is what `mmdbctl serve` hands to
//! the [`mmdb_server::QueryServer`]. The trait requires `Send + Sync`, so
//! this impl is also a standing compile-time audit that the whole query
//! path works through `&self` from concurrent worker threads.

use crate::MultimediaDatabase;
use mmdb_editops::ImageId;
use mmdb_query::QueryPlan;
use mmdb_rules::ColorRangeQuery;
use mmdb_server::protocol::PlanKind;
use mmdb_server::{BackendError, LookupReply, QueryBackend, RangeReply, RangeRequest, StatsReply};
use mmdb_storage::{StorageError, StoredKind};
use mmdb_telemetry::QueryTrace;

fn plan_of(kind: PlanKind) -> QueryPlan {
    match kind {
        PlanKind::Bwm => QueryPlan::Bwm,
        PlanKind::Rbm => QueryPlan::Rbm,
        PlanKind::Instantiate => QueryPlan::Instantiate,
        PlanKind::Indexed => QueryPlan::Indexed,
    }
}

/// Shared wire-to-engine validation: the wire decoder validates the
/// percentage range but cannot know this database's quantizer, so the bin
/// bound is checked here — an out-of-range bin would otherwise panic deep
/// in the rule engine and histogram indexing.
fn checked_query(
    db: &MultimediaDatabase,
    req: &RangeRequest,
) -> Result<ColorRangeQuery, BackendError> {
    let bins = db.quantizer().bin_count();
    if req.bin as usize >= bins {
        return Err(BackendError::BadRequest(format!(
            "bin {} out of range for quantizer with {bins} bins",
            req.bin
        )));
    }
    Ok(ColorRangeQuery {
        bin: req.bin as usize,
        pct_min: req.pct_min,
        pct_max: req.pct_max,
    })
}

fn reply_of(outcome: &mmdb_bwm::QueryOutcome) -> RangeReply {
    RangeReply {
        ids: outcome.results.iter().map(|id| id.0).collect(),
        bounds_computed: outcome.stats.bounds_computed as u64,
        shortcut_emissions: outcome.stats.shortcut_emissions as u64,
    }
}

impl QueryBackend for MultimediaDatabase {
    fn range(&self, req: &RangeRequest) -> Result<RangeReply, BackendError> {
        let query = checked_query(self, req)?;
        let outcome = self
            .query_range_with_plan(&query, plan_of(req.plan))
            .map_err(|e| BackendError::Internal(e.to_string()))?;
        Ok(reply_of(&outcome))
    }

    fn range_traced(
        &self,
        req: &RangeRequest,
    ) -> Result<(RangeReply, Option<QueryTrace>), BackendError> {
        let query = checked_query(self, req)?;
        let (outcome, trace) = self
            .query_range_traced(&query, plan_of(req.plan))
            .map_err(|e| BackendError::Internal(e.to_string()))?;
        Ok((reply_of(&outcome), Some(trace)))
    }

    fn knn(&self, probe_id: u64, k: u32) -> Result<Vec<(u64, f64)>, BackendError> {
        let id = ImageId(probe_id);
        // The stored histogram for a binary probe; only an edited probe
        // is instantiated.
        let hist = match self.shards.owner(id).storage.histogram(id) {
            Err(StorageError::NotFound(missing)) if missing == id => {
                return Err(BackendError::NotFound(probe_id));
            }
            hist => hist.map_err(|e| BackendError::Internal(e.to_string()))?,
        };
        let outcome = self
            .nearest_augmented(&hist, k as usize)
            .map_err(|e| BackendError::Internal(e.to_string()))?;
        Ok(outcome
            .neighbours
            .into_iter()
            .map(|(distance, id)| (id.0, distance))
            .collect())
    }

    fn lookup(&self, raw_id: u64) -> Result<LookupReply, BackendError> {
        let id = ImageId(raw_id);
        let kind = self
            .stored_kind(id)
            .map_err(|_| BackendError::NotFound(raw_id))?;
        let raster = self
            .image(id)
            .map_err(|e| BackendError::Internal(e.to_string()))?;
        let (width, height) = (raster.width(), raster.height());
        Ok(LookupReply {
            kind: match kind {
                StoredKind::Binary => 0,
                StoredKind::Edited => 1,
            },
            width,
            height,
            pixels: u64::from(width) * u64::from(height),
            base: self.base_of(id).map(|b| b.0),
        })
    }

    fn stats(&self) -> StatsReply {
        let s = MultimediaDatabase::stats(self);
        StatsReply {
            binary_count: s.binary_count as u64,
            edited_count: s.edited_count as u64,
            binary_bytes: s.binary_bytes,
            edited_bytes: s.edited_bytes,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_histogram::RgbQuantizer;
    use mmdb_server::protocol::ProfileKind;

    /// Compile-time audit (satellite of the serving work): the database
    /// handle must be shareable across the server's worker threads with the
    /// whole query path running through `&self`.
    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MultimediaDatabase>();
        assert_send_sync::<std::sync::Arc<MultimediaDatabase>>();
        // And it must be usable as the server's backend trait object.
        fn assert_backend<T: QueryBackend>() {}
        assert_backend::<MultimediaDatabase>();
    }

    #[test]
    fn backend_maps_core_operations() {
        use mmdb_imaging::{RasterImage, Rgb};

        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let red = Rgb::new(255, 0, 0);
        let image = RasterImage::filled(8, 8, red).unwrap();
        let id = db.insert_image(&image).unwrap();

        let bin = db.bin_of(red) as u32;
        let reply = QueryBackend::range(
            &db,
            &RangeRequest {
                plan: PlanKind::Bwm,
                profile: ProfileKind::Conservative,
                bin,
                pct_min: 0.5,
                pct_max: 1.0,
            },
        )
        .unwrap();
        assert_eq!(reply.ids, vec![id.0]);

        let found = QueryBackend::lookup(&db, id.0).unwrap();
        assert_eq!((found.width, found.height), (8, 8));
        assert_eq!(found.kind, 0);
        assert_eq!(found.base, None);

        assert!(matches!(
            QueryBackend::lookup(&db, 9999),
            Err(BackendError::NotFound(9999))
        ));

        let neighbours = QueryBackend::knn(&db, id.0, 1).unwrap();
        assert_eq!(neighbours[0].0, id.0);

        let stats = QueryBackend::stats(&db);
        assert_eq!(stats.binary_count, 1);
    }

    /// A wire-supplied bin beyond the quantizer's range must come back as a
    /// structured BadRequest, never reach the (panicking) rule engine.
    #[test]
    fn out_of_range_bin_is_rejected_not_panicking() {
        let db = MultimediaDatabase::in_memory(Box::new(RgbQuantizer::default_64()));
        let bins = db.quantizer().bin_count() as u32;
        for bad_bin in [bins, bins + 1, u32::MAX] {
            let result = QueryBackend::range(
                &db,
                &RangeRequest {
                    plan: PlanKind::Rbm,
                    profile: ProfileKind::Conservative,
                    bin: bad_bin,
                    pct_min: 0.0,
                    pct_max: 1.0,
                },
            );
            match result {
                Err(BackendError::BadRequest(msg)) => {
                    assert!(msg.contains("out of range"), "unhelpful message: {msg}");
                }
                other => panic!("bin {bad_bin}: expected BadRequest, got {other:?}"),
            }
        }
    }
}
