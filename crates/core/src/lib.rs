//! # bdbms-core
//!
//! The bdbms engine — a reproduction of the system described in
//! *"bdbms: A Database Management System for Biological Data"*
//! (Eltabakh, Ouzzani, Aref — CIDR 2007).
//!
//! The paper's architecture (§2) names four managers layered over a
//! relational engine; each has a module here:
//!
//! | Paper component        | Module |
//! |------------------------|--------|
//! | Annotation manager (§3)| [`annotation`], surfaced through A-SQL |
//! | Provenance manager (§4)| [`provenance`] |
//! | Dependency manager (§5)| [`dependency`] + cascade logic in [`database`] |
//! | Authorization manager (§6) | [`auth`] (GRANT/REVOKE) + [`approval`] (content-based) |
//!
//! A-SQL — the paper's SQL extension (Figures 4, 6, 7, 11) — is lexed in
//! [`lexer`], parsed in [`parser`], and executed by [`executor`] /
//! [`database`].  Annotation bodies are XML ([`xml`]).
//!
//! ## Quick start
//!
//! ```
//! use bdbms_core::Database;
//!
//! let mut db = Database::new_in_memory();
//! db.execute("CREATE TABLE DB2_Gene (GID TEXT, GName TEXT, GSequence TEXT)").unwrap();
//! db.execute("CREATE ANNOTATION TABLE GAnnotation ON DB2_Gene").unwrap();
//! db.execute("INSERT INTO DB2_Gene VALUES ('JW0080', 'mraW', 'ATGATGGAAAA')").unwrap();
//! // the paper's §3.2 example: annotate the whole GSequence column
//! db.execute(
//!     "ADD ANNOTATION TO DB2_Gene.GAnnotation \
//!      VALUE '<Annotation>obtained from GenoBase</Annotation>' \
//!      ON (SELECT G.GSequence FROM DB2_Gene G)",
//! ).unwrap();
//! let r = db.execute(
//!     "SELECT GSequence FROM DB2_Gene ANNOTATION(GAnnotation)",
//! ).unwrap();
//! assert_eq!(r.rows[0].anns[0][0].text(), "obtained from GenoBase");
//! ```

pub mod annotation;
pub mod approval;
pub mod ast;
pub mod auth;
pub mod batch;
pub mod catalog;
pub mod check;
pub mod client;
pub mod database;
pub mod dependency;
pub mod durability;
pub mod executor;
pub mod expr;
pub(crate) mod ingest;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod provenance;
pub mod result;
pub mod session;
pub mod stats;
pub mod txn;
pub mod xml;

pub use check::CheckReport;
pub use client::{Connection, LocalConnection, Rows, StatementHandle};
pub use database::{Database, SlowQuery};
pub use durability::{CommitTicket, Durability, DurabilityOptions, RecoveryReport};
pub use result::{AnnOut, AnnRef, AnnRow, QueryResult};
pub use session::{Prepared, RowCursor, Session};
pub use txn::TxnStatus;
