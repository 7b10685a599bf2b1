//! The database: a schema plus stored tables, the full-text index and the
//! schema-word index.

use crate::catalog::{AttributeRef, Schema};
use crate::fulltext::{FullTextIndex, TextMatch};
use crate::predicate::evaluate;
use crate::schemawords::SchemaWords;
use crate::table::Table;
use crate::types::{DataType, Value};
use sqlparse::{BinOp, Predicate};
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory database instance.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Schema,
    tables: HashMap<String, Table>,
    fulltext: FullTextIndex,
    /// Built with the database (the schema never changes afterwards) and
    /// shared by every clone.
    schema_words: Arc<SchemaWords>,
}

impl Database {
    /// Create an empty database for a schema.
    pub fn new(schema: Schema) -> Self {
        let tables = schema
            .relations
            .iter()
            .map(|r| (r.name.to_lowercase(), Table::for_relation(r)))
            .collect();
        let schema_words = Arc::new(SchemaWords::new(&schema));
        Database {
            schema,
            tables,
            fulltext: FullTextIndex::new(),
            schema_words,
        }
    }

    /// The schema of the database.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The full-text index over text attribute values.
    pub fn fulltext(&self) -> &FullTextIndex {
        &self.fulltext
    }

    /// The schema-word index over relation and attribute names.
    pub fn schema_words(&self) -> &SchemaWords {
        &self.schema_words
    }

    /// Insert a row into a relation.  Text values are added to the full-text
    /// index as a side effect.
    pub fn insert(&mut self, relation: &str, row: Vec<Value>) -> Result<(), String> {
        let rel = self
            .schema
            .relation(relation)
            .ok_or_else(|| format!("unknown relation {relation}"))?
            .clone();
        let table = self
            .tables
            .get_mut(&relation.to_lowercase())
            .expect("table exists for every schema relation");
        for (attr, value) in rel.attributes.iter().zip(row.iter()) {
            if attr.data_type == DataType::Text {
                if let Some(text) = value.as_text() {
                    self.fulltext
                        .index_value(AttributeRef::new(rel.name.clone(), attr.name.clone()), text);
                }
            }
        }
        table.insert(row)
    }

    /// The stored table of a relation (if it exists).
    pub fn table(&self, relation: &str) -> Option<&Table> {
        self.tables.get(&relation.to_lowercase())
    }

    /// Number of rows stored in a relation (0 for unknown relations).
    pub fn row_count(&self, relation: &str) -> usize {
        self.table(relation).map(Table::row_count).unwrap_or(0)
    }

    /// Total number of rows across all relations.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::row_count).sum()
    }

    /// Approximate data size in bytes (used for Table II's size column).
    pub fn size_bytes(&self) -> usize {
        self.tables.values().map(Table::size_bytes).sum()
    }

    /// All relation names in catalog order.
    pub fn relation_names(&self) -> Vec<&str> {
        self.schema.relation_names()
    }

    /// All attributes of the database as qualified references.
    pub fn attribute_refs(&self) -> Vec<AttributeRef> {
        self.schema.attribute_refs()
    }

    /// Distinct text values of an attribute.
    pub fn distinct_text_values(&self, attr: &AttributeRef) -> Vec<String> {
        self.table(&attr.relation)
            .map(|t| t.distinct_text_values(&attr.attribute))
            .unwrap_or_default()
    }

    /// All numeric attributes that contain at least one value satisfying
    /// `value op threshold` (`findNumericAttrs` of Algorithm 2).
    pub fn numeric_attrs_satisfying(&self, op: BinOp, threshold: f64) -> Vec<AttributeRef> {
        let mut out = Vec::new();
        for rel in &self.schema.relations {
            let Some(table) = self.table(&rel.name) else {
                continue;
            };
            for attr in &rel.attributes {
                if !attr.data_type.is_numeric() {
                    continue;
                }
                let satisfied = table.column_values(&attr.name).into_iter().any(|v| {
                    v.as_f64()
                        .map(|x| match op {
                            BinOp::Eq => (x - threshold).abs() < 1e-9,
                            BinOp::NotEq => (x - threshold).abs() >= 1e-9,
                            BinOp::Lt => x < threshold,
                            BinOp::LtEq => x <= threshold,
                            BinOp::Gt => x > threshold,
                            BinOp::GtEq => x >= threshold,
                            BinOp::Like => false,
                        })
                        .unwrap_or(false)
                });
                if satisfied {
                    out.push(AttributeRef::new(rel.name.clone(), attr.name.clone()));
                }
            }
        }
        out
    }

    /// Full-text value search (`findTextAttrs` of Algorithm 2): stemmed
    /// conjunctive prefix search across all text attributes, with
    /// already-matched schema words removed from the query.
    pub fn text_search(&self, phrase: &str, ignore: &[String]) -> Vec<TextMatch> {
        self.fulltext.boolean_search(phrase, ignore)
    }

    /// True when a single-relation predicate selects at least one stored row
    /// of `relation` (the `exec(c) -> non-empty` test of Algorithm 3).
    ///
    /// Predicates that cannot be evaluated (unknown column, join condition)
    /// return `false`.
    pub fn predicate_nonempty(&self, relation: &str, pred: &Predicate) -> bool {
        let Some(table) = self.table(relation) else {
            return false;
        };
        table.rows().any(|row| {
            let lookup =
                |name: &str| -> Option<Value> { table.column_index(name).map(|i| row[i].clone()) };
            evaluate(pred, &lookup).unwrap_or(false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Schema;
    use sqlparse::{ColumnRef, Expr, Literal};

    fn sample_db() -> Database {
        let schema = Schema::builder("test")
            .relation(
                "publication",
                &[
                    ("pid", DataType::Integer),
                    ("title", DataType::Text),
                    ("year", DataType::Integer),
                ],
                Some("pid"),
            )
            .relation(
                "journal",
                &[("jid", DataType::Integer), ("name", DataType::Text)],
                Some("jid"),
            )
            .foreign_key("publication", "pid", "journal", "jid")
            .build();
        let mut db = Database::new(schema);
        db.insert(
            "publication",
            vec![1.into(), "Query Processing at Scale".into(), 2003.into()],
        )
        .unwrap();
        db.insert(
            "publication",
            vec![2.into(), "Natural Language Interfaces".into(), 1997.into()],
        )
        .unwrap();
        db.insert("journal", vec![1.into(), "TKDE".into()]).unwrap();
        db.insert("journal", vec![2.into(), "TMC".into()]).unwrap();
        db
    }

    fn year_gt(threshold: f64) -> Predicate {
        Predicate::Compare {
            left: Expr::Column(ColumnRef::new("year")),
            op: BinOp::Gt,
            right: Expr::Literal(Literal::Number(threshold)),
        }
    }

    #[test]
    fn insert_and_count() {
        let db = sample_db();
        assert_eq!(db.row_count("publication"), 2);
        assert_eq!(db.row_count("journal"), 2);
        assert_eq!(db.total_rows(), 4);
        assert!(db.size_bytes() > 0);
    }

    #[test]
    fn insert_unknown_relation_fails() {
        let mut db = sample_db();
        assert!(db.insert("missing", vec![1.into()]).is_err());
    }

    #[test]
    fn numeric_attrs_satisfying_finds_year() {
        let db = sample_db();
        let attrs = db.numeric_attrs_satisfying(BinOp::Gt, 2000.0);
        assert!(attrs.contains(&AttributeRef::new("publication", "year")));
        // pid values are 1 and 2, both < 2000, so pid should not be included.
        assert!(!attrs.contains(&AttributeRef::new("publication", "pid")));
        // No numeric attribute exceeds 5000.
        assert!(db.numeric_attrs_satisfying(BinOp::Gt, 5000.0).is_empty());
    }

    #[test]
    fn text_search_finds_values() {
        let db = sample_db();
        let matches = db.text_search("natural language", &[]);
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].attribute,
            AttributeRef::new("publication", "title")
        );
        assert_eq!(db.text_search("TKDE", &[]).len(), 1);
        assert!(db.text_search("quantum chromodynamics", &[]).is_empty());
    }

    #[test]
    fn predicate_nonempty_checks_rows() {
        let db = sample_db();
        assert!(db.predicate_nonempty("publication", &year_gt(2000.0)));
        assert!(!db.predicate_nonempty("publication", &year_gt(2020.0)));
        assert!(!db.predicate_nonempty("journal", &year_gt(2000.0)));
        assert!(!db.predicate_nonempty("missing", &year_gt(2000.0)));
    }

    #[test]
    fn distinct_text_values_are_exposed() {
        let db = sample_db();
        let vals = db.distinct_text_values(&AttributeRef::new("journal", "name"));
        assert_eq!(vals, vec!["TKDE", "TMC"]);
    }
}
