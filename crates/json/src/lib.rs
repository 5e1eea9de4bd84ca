#![warn(missing_docs)]

//! # bitlevel-json
//!
//! The workspace's one JSON implementation, with no dependencies: the
//! service's NDJSON wire format, the `--json` sweep and experiment exports,
//! and the Chrome-trace export are all rendered through [`Json`].

mod json;

pub use json::{Json, JsonError};
