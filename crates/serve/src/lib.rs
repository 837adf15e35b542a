//! A multi-tenant partition-plan *service* over the Tofu search engine.
//!
//! Training jobs across a cluster repeatedly partition the same or similar
//! model graphs (hyper-parameter sweeps, elastic re-partitioning after
//! worker loss, per-team model templates). Running the §5 search inside
//! every job wastes that overlap; this crate hosts the search behind a tiny
//! TCP protocol so the whole fleet shares one plan cache:
//!
//! * [`protocol`] — length-prefixed JSON frames, request/response types and
//!   the canonical graph/plan codecs (zero new dependencies: the JSON layer
//!   is `tofu-obs`'s), and the fingerprint-first exchange: ask by request
//!   hash, upload the graph only when the server answers `not_cached`.
//! * [`scheduler`] — per-tenant round-robin queueing with a bounded
//!   admission cap (typed `overloaded` rejections instead of collapse).
//! * [`server`] — the acceptor, connection handlers and solver pool behind
//!   one response cache, the service's only memo: it files plans and
//!   provable rejections by request fingerprint and lets at most one solver
//!   compute each (single-flight), with request deadlines.
//! * [`client`] — a small blocking client used by the benches, tests and
//!   the `serve` binary's demo mode.
//!
//! Served plans are **bit-identical** to a local single-threaded
//! [`tofu_core::partition`] call for the same graph and options: the
//! response cache keys on exact structural identity and stores a pure
//! function of its key, so concurrency decides only which key is computed
//! first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::{ClientError, PlanClient, RetryOptions, ServedPlan};
pub use protocol::{plan_to_json, ErrorCode, ProtocolError, Request, Response};
pub use scheduler::FairScheduler;
pub use server::{PlanServer, ServeConfig};
