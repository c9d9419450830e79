#![warn(missing_docs)]

//! # mmdb-server — the network query service
//!
//! Turns the in-process retrieval engine into a query *service*: a
//! dependency-free length-prefixed binary [`protocol`], and a
//! [`QueryServer`] built as a **readiness-based event loop** — one reactor
//! thread multiplexes every connection over nonblocking sockets and
//! `poll(2)`, so thousands of idle connections cost no threads. Requests
//! execute either inline on the reactor (`workers == 0`, the default on
//! small machines) or on a fixed executor pool fed through **one bounded
//! queue with admission control** ([`BoundedQueue`]: overload returns a
//! structured `OVERLOADED` error instead of queueing unboundedly).
//! **Per-request deadlines** refuse expired work (`DEADLINE_EXCEEDED`
//! without executing), and **graceful shutdown** stops accepting, drains
//! in-flight work, and closes; a blocking [`Client`] serves tests and the
//! load generator.
//!
//! The crate sits *below* the `mmdbms` facade: it talks to the database
//! through the [`QueryBackend`] trait, which the facade implements for
//! `MultimediaDatabase`. That keeps the dependency graph acyclic while
//! letting `mmdbctl serve` embed the server.
//!
//! ```no_run
//! use mmdb_server::{Client, QueryServer, ServerConfig};
//! use mmdb_server::protocol::{PlanKind, ProfileKind, RangeRequest};
//! # fn backend() -> std::sync::Arc<dyn mmdb_server::QueryBackend> { unimplemented!() }
//!
//! let server = QueryServer::bind("127.0.0.1:0", backend(), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.range(RangeRequest {
//!     plan: PlanKind::Bwm,
//!     profile: ProfileKind::Conservative,
//!     bin: 12,
//!     pct_min: 0.25,
//!     pct_max: 1.0,
//! }).unwrap();
//! println!("{} candidate(s)", reply.ids.len());
//! server.shutdown();
//! ```

mod backend;
mod client;
pub mod protocol;
mod queue;
mod server;
mod shutdown;

pub use backend::{BackendError, QueryBackend};
pub use client::{Client, ClientError};
pub use protocol::{
    LookupReply, Opcode, PlanKind, ProfileKind, RangeReply, RangeRequest, StatsReply, Status,
    TraceContext,
};
pub use queue::{BoundedQueue, PushError};
pub use server::{register_metrics, DrainStats, QueryServer, ServerConfig};
pub use shutdown::ShutdownSignal;
