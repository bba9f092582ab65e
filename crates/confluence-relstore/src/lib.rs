//! # confluence-relstore
//!
//! An embedded in-memory relational store: the substrate standing in for
//! the relational database the paper's Linear Road implementation uses to
//! keep segment statistics and detected accidents (MySQL in the authors'
//! setup; see DESIGN.md, "Substitutions").
//!
//! Features: typed schemas with primary keys ([`schema`]), scalar values
//! interoperable with workflow tokens ([`value`]), a predicate/arithmetic
//! expression AST ([`expr`]), tables with unique primary, non-unique
//! secondary hash and ordered composite indexes, a cost-based query
//! planner with an EXPLAIN-able plan IR ([`plan`], [`cost`], [`stats`]),
//! predicate scans served by a point probe or a range scan,
//! updates/deletes, and (grouped) aggregates ([`table`]), all behind a
//! thread-safe shared handle ([`store`]).

pub mod cost;
pub mod expr;
pub mod plan;
pub mod query;
pub mod schema;
pub mod stats;
pub mod store;
pub mod table;
pub mod value;

pub use expr::{col, lit, ColRange, Expr};
pub use plan::{IndexRef, Plan, PlanNode};
pub use query::{Order, Query};
pub use schema::{Column, Schema, SchemaBuilder};
pub use stats::{IndexStats, IndexStatsView, TableStats};
pub use store::{Store, StoreHandle};
pub use table::{Agg, RowRef, Table};
pub use value::{Row, Value, ValueType};
