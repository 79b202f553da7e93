//! # bdbms-common
//!
//! Shared foundation types for the bdbms workspace — a reproduction of
//! *"bdbms: A Database Management System for Biological Data"*
//! (Eltabakh, Ouzzani, Aref — CIDR 2007).
//!
//! This crate holds everything the other crates agree on:
//!
//! * [`value::Value`] / [`value::DataType`] — the tuple value model,
//! * [`schema::Schema`] — relation schemas,
//! * [`error::BdbmsError`] — the workspace-wide error type,
//! * [`bitmap::CellBitmap`] / [`bitmap::RleBitmap`] — the outdated-cell
//!   bitmaps of the paper's Figure 10, with the Run-Length-Encoded
//!   compressed form the paper proposes,
//! * [`stats::AccessStats`] — logical I/O instrumentation (one node ≈ one
//!   page) used by every access method so benchmark I/O counts are
//!   deterministic and comparable,
//! * [`metrics::MetricsRegistry`] — thread-safe atomic counters, gauges,
//!   and log-scale latency histograms for live observability
//!   (docs/OBSERVABILITY.md),
//! * [`clock::LogicalClock`] — the timestamp source for annotations,
//!   provenance, and the content-approval log,
//! * [`codec`] — the little-endian byte codec and bounds-checked
//!   [`codec::Cur`] shared by snapshots, WAL records and the wire
//!   protocol.

pub mod bitmap;
pub mod clock;
pub mod codec;
pub mod error;
pub mod ids;
pub mod metrics;
pub mod schema;
pub mod stats;
pub mod value;

pub use error::{BdbmsError, ErrorCode, Result, Span};
pub use schema::{ColumnDef, Schema};
pub use value::{DataType, Value};
