//! An in-memory relational database engine.
//!
//! The paper runs its experiments against MySQL instances of the MAS, Yelp
//! and IMDB databases.  Templar only needs a narrow slice of database
//! functionality, all of which this crate provides:
//!
//! * a **catalog** describing relations, attributes, types and FK-PK
//!   relationships (the raw material of the schema graph, Definition 1),
//! * **tuple storage** with typed values,
//! * **predicate evaluation** over single relations — Algorithm 3 executes a
//!   candidate predicate (`exec(c)`) and only keeps it when it returns a
//!   non-empty result,
//! * **numeric attribute search** — Algorithm 2 needs every numeric attribute
//!   containing at least one value satisfying `?attr ω n`,
//! * **boolean full-text search** over text attributes with Porter-stemmed
//!   prefix tokens, mirroring the `MATCH ... AGAINST ('+restaur* +busi*' IN
//!   BOOLEAN MODE)` query of Section V-A, and
//! * a **schema-word index** of relation and attribute names, prepared once
//!   for the word-similarity scoring of Algorithm 3.
//!
//! The engine is deliberately small: no persistence, no transactions, no
//! multi-table execution (join inference is Templar's job, not the
//! database's).

pub mod catalog;
pub mod database;
pub mod fulltext;
pub mod predicate;
pub mod schemawords;
pub mod stats;
pub mod table;
pub mod types;

pub use catalog::{Attribute, AttributeRef, ForeignKey, Relation, Schema, SchemaBuilder};
pub use database::Database;
pub use fulltext::{FullTextIndex, TextMatch};
pub use schemawords::{key_attribute_penalty, SchemaAttribute, SchemaRelation, SchemaWords};
pub use stats::DatasetStats;
pub use table::Table;
pub use types::{DataType, Value};
