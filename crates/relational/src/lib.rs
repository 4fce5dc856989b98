#![warn(missing_docs)]

//! # paq-relational — in-memory relational engine substrate
//!
//! The package-query system of Brucato et al. (VLDB 2016) is implemented
//! "on top of a traditional database engine" (PostgreSQL in the paper).
//! This crate is that substrate: a small, dependency-free, in-memory
//! columnar relational engine providing exactly the operations the
//! package-query stack needs:
//!
//! * typed values ([`Value`]) and schemas ([`Schema`]),
//! * columnar tables ([`Table`]) with append / filter / project / take,
//! * a scalar expression language ([`Expr`]) for base (`WHERE`) predicates,
//!   bound to a schema once ([`Expr::bind`] → [`Predicate`]) and evaluated
//!   row by row or 64 rows a word into a [`RowMask`] ([`predicate`]),
//! * column aggregates ([`agg`]) for evaluating a materialized package,
//! * CSV import/export ([`csv`]) for persisting datasets and packages,
//! * the byte codec ([`codec`]) every wire frame, WAL record and snapshot
//!   image serialises tables, schemas and values with.
//!
//! The engine is deliberately simple — no buffer pool, no SQL front end —
//! but it is the *only* data access path used by the rest of the system,
//! mirroring how the paper's implementation funnels every data operation
//! through the DBMS.

pub mod agg;
pub mod codec;
pub mod csv;
pub mod error;
pub mod expr;
pub mod predicate;
pub mod schema;
pub mod table;
pub mod value;

pub use error::{RelError, RelResult};
pub use expr::{BinOp, CmpOp, Expr};
pub use predicate::{Predicate, RowMask};
pub use schema::{ColumnDef, DataType, Schema};
pub use table::{Column, ColumnChunk, Table};
pub use value::Value;
