#![warn(missing_docs)]

//! # bitlevel-serve
//!
//! A long-running evaluation service over the shared compile cache — the
//! "serving heavy traffic" half of ROADMAP item 4.
//!
//! The server speaks newline-delimited JSON over plain TCP
//! (`std::net::TcpListener`; the offline build has no async runtime, so
//! concurrency is a bounded worker-thread pool behind a connection-accept
//! queue). Typed requests cover:
//!
//! * `Evaluate` — one Section 4.2 paper design on any
//!   [`bitlevel_systolic::SimBackend`] (compiled, interpreted, lane-packed
//!   batch, LSGP-partitioned);
//! * `Explore` — the default design-space exploration, each verified
//!   frontier point streamed as a progress frame the moment it is found;
//! * `FaultCampaign` — exhaustive single-fault, lane-packed batched, or
//!   chunk-streamed Monte Carlo campaigns;
//! * `Stats` — server metrics plus compile-cache counters (absolute and as
//!   a delta since server start);
//! * `Shutdown` — graceful drain: in-flight requests finish, then every
//!   thread exits.
//!
//! Every handler routes compilation through **one**
//! [`bitlevel_cache::CompileCache`] (injected via `DesignFlow::with_cache`),
//! whose single-flight lookup makes N concurrent identical requests cost
//! exactly one compile. Result frames carry only request-determined fields —
//! cache temperature and timing ride in progress frames — so identical
//! requests yield byte-identical terminal lines.
//!
//! The wire layer converts requests and frames to and from
//! [`bitlevel_json::Json`] explicitly; the crate re-exports [`Json`] and
//! [`JsonError`].

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use bitlevel_json::{Json, JsonError};
pub use client::{ServeClient, Transaction};
pub use metrics::ServerMetrics;
pub use protocol::{
    backend_from_wire, backend_wire_name, CampaignMode, DesignSpec, ErrorFrame, ErrorKind, Frame,
    FrameReader, ReadFrame, Request, RequestEnvelope, DEFAULT_MAX_FRAME_BYTES,
};
pub use server::{serve, ServeConfig, ServerHandle};
