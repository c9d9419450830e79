//! The service-side abstraction over the database. `mmdb-server` sits
//! *below* the `mmdbms` facade in the dependency graph (so the facade's
//! `mmdbctl` binary can embed the server); the facade implements
//! [`QueryBackend`] for `MultimediaDatabase`, and tests plug in mocks.
//! The trait speaks in requests and replies only: how the database is
//! partitioned is the backend's business, and a call fans out over its
//! shards (or not) without the server knowing.

use crate::protocol::{LookupReply, RangeReply, RangeRequest, StatsReply, Status};
use mmdb_telemetry::QueryTrace;

/// Why a backend call failed, mapped onto wire [`Status`] codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The referenced image id does not exist.
    NotFound(u64),
    /// The request parameters are invalid for this database.
    BadRequest(String),
    /// Execution failed.
    Internal(String),
}

impl BackendError {
    /// The wire status this error is reported as.
    pub fn status(&self) -> Status {
        match self {
            BackendError::NotFound(_) => Status::NotFound,
            BackendError::BadRequest(_) => Status::BadRequest,
            BackendError::Internal(_) => Status::Internal,
        }
    }

    /// The wire error message.
    pub fn message(&self) -> String {
        match self {
            BackendError::NotFound(id) => format!("image {id} not found"),
            BackendError::BadRequest(m) | BackendError::Internal(m) => m.clone(),
        }
    }
}

/// What the server needs from a database. All methods take `&self`:
/// implementations must be internally synchronized ([`Send`] + [`Sync`] is
/// part of the bound) because the worker pool calls them concurrently.
pub trait QueryBackend: Send + Sync {
    /// Executes a color range query under the requested plan and profile.
    fn range(&self, req: &RangeRequest) -> Result<RangeReply, BackendError>;

    /// Traced variant of [`QueryBackend::range`]: also returns the
    /// per-plan stage tree (RBM/BWM scans, `index_sync`/`index_lookup`, …)
    /// when the backend supports stage timing. The default delegates to
    /// `range` and reports no stages, so mock backends need not care.
    fn range_traced(
        &self,
        req: &RangeRequest,
    ) -> Result<(RangeReply, Option<QueryTrace>), BackendError> {
        self.range(req).map(|reply| (reply, None))
    }

    /// The `k` nearest neighbours of stored image `probe_id` over the whole
    /// augmented database, as `(id, distance)` ascending.
    fn knn(&self, probe_id: u64, k: u32) -> Result<Vec<(u64, f64)>, BackendError>;

    /// Catalog record of one image.
    fn lookup(&self, id: u64) -> Result<LookupReply, BackendError>;

    /// Storage statistics.
    fn stats(&self) -> StatsReply;
}
