//! # bitgen-serve
//!
//! The multi-tenant scan daemon over [`bitgen`]: the "millions of
//! users" layer the paper's premise implies. Thousands of clients share
//! a handful of rule sets, so the service compiles each pattern set
//! once — keyed by rule generation and pattern list, under the one
//! engine config it serves — and shares the prepared engine across every stream
//! ([`ScanService::open_stream`] reports the cache hit). Streams
//! multiplex over a bounded worker pool with tenant-fair scheduling;
//! when queues or budgets fill, requests are rejected with a typed
//! [`bitgen::Error::Overloaded`] instead of buffering without bound.
//!
//! Served scans are bit-identical to standalone ones: a stream lives as
//! its shared rule set (generation, patterns and engine, one record)
//! plus its latest [`bitgen::StreamCheckpoint`], and
//! every push resumes, scans one chunk, and re-checkpoints — the same
//! contract the core checkpoint tests pin, which also makes moving a
//! live stream between workers (or machines, via
//! [`ScanService::adopt_stream`]) the normal case rather than a
//! special one.
//!
//! ```
//! use bitgen_serve::{ScanService, ServeConfig};
//!
//! let service = ScanService::start(ServeConfig::default());
//! let a = service.open_stream("tenant-a", &["GET /[a-z]+"]).unwrap();
//! let b = service.open_stream("tenant-b", &["GET /[a-z]+"]).unwrap();
//! assert!(!a.cache_hit);
//! assert!(b.cache_hit); // tenant-b shares tenant-a's compiled engine
//! let ends = service.push_chunk(a.stream, b"GET /index").unwrap();
//! assert_eq!(ends, vec![5, 6, 7, 8, 9]);
//! ```
//!
//! The daemon form ([`serve`] on an [`Endpoint`], or the `bitgen-serve`
//! binary) exposes the same service over a Unix or TCP socket with a
//! line protocol ([`wire`]); [`Client::connect_to`] is its other end.
//!
//! The serving layer is crash-tolerant: a daemon drains on request (or
//! on `SIGTERM`), checkpointing every open stream into a sealed
//! [`DrainManifest`] that a successor adopts bit-identically
//! ([`ScanService::drain`] / [`ScanService::adopt_manifest`]), and
//! [`Client`] retries transient rejections with seeded backoff plus
//! offset-keyed idempotent push replay ([`RetryConfig`]). The
//! [`fault`] module injects seeded wire-level faults (dropped
//! connections, truncated replies, garbage, delays) to prove it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod daemon;
pub mod drain;
pub mod fault;
mod metrics;
mod queue;
mod service;
mod transport;
pub mod wire;

pub use daemon::{serve, serve_unix, Client, DaemonConfig, RetryConfig, ServeOutcome};
pub use drain::{AckRecord, DrainEntry, DrainManifest};
pub use fault::{WireFaultKind, WireFaultPlan};
pub use metrics::{ServeMetrics, TenantMetrics};
pub use service::{
    Admission, ScanService, ServeConfig, ServeError, StreamId, StreamStats, TenantBudget,
};
pub use transport::Endpoint;
